//! `camera_capture`: the encode side. 128×128 `natural_like` frames are
//! captured in nine 64×64 paper-prototype tiles (overlap 8, R = 0.35)
//! with the default event-accurate simulator into one compact stream.
//! Nothing is decoded in the timed phase, so all of its time goes to
//! `sensor` and `ca`.

use tepics_core::prelude::*;
use tepics_core::stream::{StreamParser, TILED_HEADER_BYTES};
use tepics_cs::measurement::SelectionMeasurement;

use crate::common::{self, derive, domain, Config, Outcome, PhaseStart};
use crate::layers;
use crate::metrics::{parallel_efficiency, redundant_builds};
use crate::recorded;
use crate::stats::{self, Digest, Timing};
use crate::trace::Tracer;

/// Distinct scenes per seed; frame `i` shows scene `i % SCENES`.
pub const SCENES: usize = 3;

/// Every decoded frame must clear this PSNR (dB) against the ideal
/// codes.
const PSNR_FLOOR_DB: f64 = 20.0;

/// (frame side, tile side, overlap).
fn sizes(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (32, 16, 4)
    } else {
        (128, 64, 8)
    }
}

fn build_imager(cfg: &Config) -> CompressiveImager {
    let (side, tile, overlap) = sizes(cfg.smoke);
    CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(tile).overlap(overlap))
        .ratio(0.35)
        .seed(common::device_seed(domain::CAMERA_SENSOR, 0))
        .build()
        .expect("camera imager config")
}

fn scenes(cfg: &Config) -> Vec<ImageF64> {
    let (side, _, _) = sizes(cfg.smoke);
    (0..SCENES as u64)
        .map(|i| common::scene(side, derive(cfg.seed, domain::CAMERA_SCENE, i)))
        .collect()
}

/// The recorded fingerprint of one captured frame: digest of its tile
/// samples and its event counters.
pub fn fingerprint(
    frames: &[CompressedFrame],
    stats: &tepics_sensor::EventStats,
) -> recorded::CameraFrame {
    let mut d = Digest::default();
    for f in frames {
        d.words(&f.samples);
    }
    (d.value(), layers::event_counts(stats))
}

/// Captures the seed's scenes once (no timing) for the recorded table.
pub fn record(cfg: &Config) -> Vec<recorded::CameraFrame> {
    let imager = build_imager(cfg);
    scenes(cfg)
        .iter()
        .map(|s| {
            let (frames, st) = imager.capture_tiles_with_stats(s);
            fingerprint(&frames, &st)
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scenes = scenes(cfg);
    let (side, _, _) = sizes(cfg.smoke);

    // Set-up: imager and session construction (50 per sample).
    let (mut enc, setup_s) = common::median_setup(21, 50, || {
        EncodeSession::new(build_imager(cfg)).expect("camera session")
    });
    let truths: Vec<ImageF64> = scenes
        .iter()
        .map(|s| enc.imager().ideal_codes(s).to_code_f64())
        .collect();

    // Timed phase: capture frames back to back into the stream. The
    // traced run spans `EncodeSession::capture_with_stats` as the two
    // public calls it is made of.
    let mut latencies = Vec::new();
    let mut captured: Vec<(Vec<CompressedFrame>, recorded::CameraFrame)> = Vec::new();
    let phase = PhaseStart::now(tr);
    while common::keep_going(captured.len(), 2, &phase, cfg.seconds) {
        let i = captured.len();
        let scene = &scenes[i % SCENES];
        let (frames, st, secs) = if cfg.trace {
            let ((frames, st), a) = tr.time("sensor.capture", i as u64, || {
                enc.imager().capture_tiles_with_stats(scene)
            });
            let (pushed, b) = tr.time("core.stream.serialize", i as u64, || {
                frames.iter().try_for_each(|f| enc.push_frame(f))
            });
            out.check(pushed.is_ok(), || format!("frame {i}: push_frame failed"));
            (frames, st, a + b)
        } else {
            let t = std::time::Instant::now();
            let captured = enc.capture_with_stats(scene);
            let secs = t.elapsed().as_secs_f64();
            let Ok((frames, st)) = captured else {
                out.check(false, || format!("frame {i}: capture_with_stats failed"));
                break;
            };
            (frames, st, secs)
        };
        latencies.push(secs);
        let fp = fingerprint(&frames, &st);
        captured.push((frames, fp));
    }
    let (bytes, _) = tr.time("core.stream.to_bytes", 0, || enc.to_bytes());
    let end = phase.end(tr);
    let n = captured.len();
    out.attempted = n as u64;

    let mut bad = vec![false; n];
    // The wire stream parses back into exactly the captured records.
    let mut parser = StreamParser::new();
    parser.push_bytes(&bytes);
    let mut parsed = Vec::new();
    while let Ok(Some(f)) = parser.next_frame() {
        parsed.push(f);
    }
    let sent: Vec<&CompressedFrame> = captured.iter().flat_map(|(f, _)| f).collect();
    if !out.check(
        parser.error().is_none() && parsed.iter().eq(sent.iter().copied()),
        || "the stream does not parse back into the captured records".into(),
    ) {
        bad.fill(true);
    }
    // Every pulse is a selected pixel of some sample: the simulator's
    // count must equal tiles × Σ selection counts of Φ.
    let tile_header = enc.header();
    let counts = Decoder::for_header(tile_header)
        .and_then(|d| d.rebuild_measurement(enc.imager().sample_count()))
        .map(|phi| phi.selection_counts().iter().sum::<f64>());
    let tiles = enc.tile_layout().map_or(1, TileLayout::tiles) as f64;
    let recorded = (!cfg.smoke).then(|| recorded::camera(cfg.seed)).flatten();
    for (i, (_, fp)) in captured.iter().enumerate() {
        let ok_pulses = counts
            .as_ref()
            .is_ok_and(|c| (tiles * c - fp.1[0] as f64).abs() < 0.5);
        bad[i] |= !out.check(ok_pulses, || {
            format!("frame {i}: pulse count {} ≠ tiles × Σ selections", fp.1[0])
        });
        let expect = match recorded {
            Some(rec) => Some(rec[i % SCENES]),
            // Unrecorded seed: a repeated scene must repeat exactly.
            None => (i >= SCENES).then(|| captured[i % SCENES].1),
        };
        if let Some(expect) = expect {
            bad[i] |= !out.check(*fp == expect, || {
                format!("frame {i}: digest/events {fp:?} ≠ recorded {expect:?}")
            });
        }
    }
    out.note(format!(
        "recorded digests for seed {}: {}",
        cfg.seed,
        if recorded.is_some() {
            "checked"
        } else {
            "none (repeat check only)"
        }
    ));

    // Decode check (untimed): every frame decodes above the PSNR floor.
    let params = RecoveryParams::low_latency();
    let mut dec = DecodeSession::with_cache(OperatorCache::shared());
    dec.params(params).threads(cfg.threads);
    let chunks = common::frame_chunks(&bytes, TILED_HEADER_BYTES, n);
    let mut psnrs = Vec::new();
    let mut decoded = std::collections::BTreeMap::new();
    let mut push_s = Vec::new();
    match &chunks {
        Some(chunks) => {
            let head = dec.push_bytes(chunks[0]).map(|v| v.len());
            out.check(head == Ok(0), || "header chunk must emit nothing".into());
            for (i, chunk) in chunks[1..].iter().enumerate() {
                let (res, secs) = tr.time("core.session.push", i as u64, || dec.push_bytes(chunk));
                push_s.push(secs);
                match res.as_deref() {
                    Ok([f]) if f.index == i => {
                        let db =
                            common::psnr_db(&truths[i % SCENES], f.reconstruction.code_image());
                        bad[i] |= !out.check(db >= PSNR_FLOOR_DB, || {
                            format!("frame {i}: PSNR {db:.2} dB below floor")
                        });
                        psnrs.push(db);
                        decoded.insert(i, common::frame_digest(f));
                    }
                    _ => {
                        bad[i] |= !out.check(false, || format!("frame {i}: decode did not emit it"))
                    }
                }
            }
        }
        None => {
            out.check(false, || "stream is not frame-aligned".into());
            bad.fill(true);
        }
    }
    out.failed = bad.iter().filter(|&&b| b).count() as u64;

    common::common_metrics(&mut out, setup_s, n, &end);
    let lat = Timing::of(&latencies);
    out.metrics.set("frame_latency_p50_s", lat.p50);
    out.metrics.set("psnr_db", stats::mean(&psnrs));
    out.metrics.set(
        "bits_per_pixel",
        (bytes.len() * 8) as f64 / (n * side * side) as f64,
    );
    out.metrics
        .set("recovered_fraction", dec.report().recovered_fraction());
    out.note(format!("capture latency {}", lat.render()));

    if cfg.trace {
        let ctx = Traced {
            enc: &enc,
            scenes: &scenes,
            captured: &captured,
            bytes: &bytes,
            chunks: chunks.as_deref().unwrap_or(&[]),
            decoded: &decoded,
            dec: &dec,
            push_s: &push_s,
            phase_at: (phase.at_ns, end.at_ns),
            wall_s: end.wall_s,
            spawns: end.spawns,
            latencies: &latencies,
        };
        if let Err(e) = decompose(cfg, tr, &ctx, &mut out) {
            out.check(false, || format!("decomposition: {e}"));
        }
    }
    out
}

struct Traced<'a> {
    enc: &'a EncodeSession,
    scenes: &'a [ImageF64],
    captured: &'a [(Vec<CompressedFrame>, recorded::CameraFrame)],
    bytes: &'a [u8],
    chunks: &'a [&'a [u8]],
    decoded: &'a std::collections::BTreeMap<usize, u64>,
    dec: &'a DecodeSession,
    push_s: &'a [f64],
    phase_at: (u64, u64),
    wall_s: f64,
    spawns: u64,
    latencies: &'a [f64],
}

fn decompose(
    cfg: &Config,
    tr: &mut Tracer,
    t: &Traced<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = t.captured.len();
    layers::trace_phase_metrics(tr, out, t.phase_at, n, t.wall_s);

    // Encode side, scene 0 tile by tile.
    let imager = t.enc.imager();
    let parts = layers::capture_tiles(tr, imager, &t.scenes[0], 0);
    out.check(parts.frames == t.captured[0].0, || {
        "tile-by-tile capture differs from the frame capture".into()
    });
    let (_, serialize_s) =
        layers::serialize(tr, imager, WireProfile::Compact, &t.captured[0].0, 0)?;
    layers::encode_side_metrics(tr, out, &parts, serialize_s);
    let tile_sum: f64 = parts.tile_capture_s.iter().sum();
    let m = &mut out.metrics;
    m.set(
        "core.stream.wire_bytes",
        (t.bytes.len() - TILED_HEADER_BYTES) as f64 / n as f64,
    );

    // Decode side of the captured stream, as the check decode runs it.
    let params = RecoveryParams::low_latency();
    let rep = layers::replay(tr, t.bytes, params, 1, 0)?;
    layers::decode_side_metrics(tr, out, &rep, n)?;
    out.check(rep.digests.get(&0) == t.decoded.get(&0), || {
        "replayed frame 0 differs from the session decode".into()
    });
    let (cold, warm, ledger) = layers::cold_warm(
        tr,
        &[t.chunks[0], t.chunks[1]].concat(),
        t.chunks[2],
        params,
        cfg.threads,
    )?;
    layers::ledger_metrics(out, &ledger);
    let cache = t.dec.cache().stats();
    let m = &mut out.metrics;
    m.set("core.session.push_s", stats::median(t.push_s));
    m.set("core.cache.cold_frame_s", cold);
    m.set("core.cache.warm_frame_s", warm);
    m.set("core.cache.hits", cache.hits as f64);
    m.set("core.cache.misses", cache.misses as f64);
    m.set("core.cache.hit_rate", cache.hit_rate());
    m.set(
        "core.cache.redundant_builds",
        redundant_builds(cache.misses, 1) as f64,
    );
    m.set(
        "core.cache.resident_bytes",
        t.dec.cache().resident_bytes() as f64,
    );
    m.set("core.stream.bytes_skipped", 0.0);
    m.set("core.stream.corrupt_events", 0.0);

    // Capture runs on the caller alone: its serial baseline is itself.
    // Scene 0's tile captures against scene 0's own frame latency.
    let scene0: Vec<f64> = t.latencies.iter().copied().step_by(SCENES).collect();
    m.set("util.pool.spawns_per_frame", t.spawns as f64 / n as f64);
    m.set(
        "util.pool.parallel_efficiency",
        parallel_efficiency(tile_sum, cfg.threads, stats::median(&scene0)),
    );
    m.set("util.pool.serial_frames_per_s", n as f64 / t.wall_s);

    // The captured stream as a one-stream batch, decoded serially over
    // the check decode's warm cache.
    let serial = layers::serial_stream(tr, t.dec.cache(), t.bytes, params, 0)?;
    let (stream_s, digests) = (serial.total_s, serial.digests);
    let parallel_s: f64 = t.push_s.iter().sum();
    out.check(
        digests.iter().all(|(i, d)| t.decoded.get(i) == Some(d)),
        || "serial stream decode differs from the parallel decode".into(),
    );
    out.metrics.set("core.batch.stream_s", stream_s);
    out.metrics
        .set("core.batch.straggler_ratio", stream_s / parallel_s);
    Ok(())
}
