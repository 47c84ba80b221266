//! `live_stream`: the warm decode side. One 256×256 v2 tiled stream
//! (25 tiles of 64×64, overlap 8, R = 0.35) is decoded by one
//! `DecodeSession` with `RecoveryParams::low_latency()` on `nproc`
//! pooled threads, fed frame-aligned chunks back to back. One operator
//! key serves every tile, so the cache is only read.

use std::collections::BTreeMap;

use tepics_core::prelude::*;
use tepics_core::stream::{StreamParser, TILED_HEADER_BYTES};

use crate::common::{self, derive, domain, Config, Outcome, PhaseStart};
use crate::layers;
use crate::metrics::{parallel_efficiency, redundant_builds};
use crate::recorded;
use crate::stats::{self, image_digest, Timing};
use crate::trace::Tracer;

/// Distinct frames in the stream; the timed phase cycles through them.
pub const FRAMES: usize = 8;

/// Allowed distance from a recorded PSNR: kernels may reorder
/// floating-point sums within 1e-10 of their references.
const PSNR_TOLERANCE_DB: f64 = 1e-6;

/// Frames the traced run decodes again at one thread.
const SERIAL_FRAMES: usize = 2;

/// Every decoded frame must clear this PSNR (dB) against the ideal
/// codes.
const PSNR_FLOOR_DB: f64 = 20.0;

/// (frame side, tile side, overlap).
fn sizes(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (64, 32, 8)
    } else {
        (256, 64, 8)
    }
}

/// The generated input: imager, scenes, ideal codes and the stream.
struct Input {
    imager: CompressiveImager,
    scenes: Vec<ImageF64>,
    truths: Vec<ImageF64>,
    bytes: Vec<u8>,
}

fn generate(cfg: &Config) -> Input {
    let (side, tile, overlap) = sizes(cfg.smoke);
    let imager = CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(tile).overlap(overlap))
        .ratio(0.35)
        .seed(common::device_seed(domain::LIVE_SENSOR, 0))
        .fidelity(Fidelity::Functional)
        .build()
        .expect("live imager config");
    let scenes: Vec<ImageF64> = (0..FRAMES as u64)
        .map(|i| common::scene(side, derive(cfg.seed, domain::LIVE_SCENE, i)))
        .collect();
    let mut enc = EncodeSession::new(imager.clone()).expect("live encode session");
    for records in common::capture_all(&imager, &scenes, cfg.threads) {
        for r in &records {
            enc.push_frame(r).expect("live stream record");
        }
    }
    let truths = scenes
        .iter()
        .map(|s| imager.ideal_codes(s).to_code_f64())
        .collect();
    Input {
        imager,
        scenes,
        truths,
        bytes: enc.into_bytes(),
    }
}

fn session(threads: usize) -> DecodeSession {
    let mut dec = DecodeSession::with_cache(OperatorCache::shared());
    dec.params(RecoveryParams::low_latency()).threads(threads);
    dec
}

/// Decodes the seed's stream once (no timing): each frame's PSNR.
pub fn record(cfg: &Config) -> Vec<f64> {
    let input = generate(cfg);
    let frames = session(cfg.threads)
        .push_bytes(&input.bytes)
        .expect("live decode");
    frames
        .iter()
        .map(|f| common::psnr_db(&input.truths[f.index], f.reconstruction.code_image()))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let input = generate(cfg);
    let Some(chunks) = common::frame_chunks(&input.bytes, TILED_HEADER_BYTES, FRAMES) else {
        out.check(false, || "live stream is not frame-aligned".into());
        return out;
    };
    let warm_record = {
        let mut parser = StreamParser::new();
        parser.push_bytes(chunks[0]);
        parser.push_bytes(chunks[1]);
        parser
            .next_frame()
            .ok()
            .flatten()
            .expect("first tile record")
    };

    // Set-up: session construction plus a cold prewarm on a fresh
    // cache, five times; the last session decodes the timed phase.
    let (dec, setup_s) = common::median_setup(5, 1, || {
        let mut dec = session(cfg.threads);
        let warmed = dec.prewarm(&warm_record);
        (warmed.is_ok(), dec)
    });
    let (prewarmed, mut dec) = (dec.0, dec.1);
    out.check(prewarmed, || "prewarm failed".into());

    // Set-up check (untimed): frame 0 is bit-identical at one thread
    // and at nproc threads.
    let first = [chunks[0], chunks[1]].concat();
    let mut serial = session(1);
    let one = serial.push_bytes(&first).map(|v| digests(&v));
    let many = session(cfg.threads).push_bytes(&first).map(|v| digests(&v));
    let frame0_ok = out.check(one.is_ok() && one == many, || {
        format!(
            "frame 0 differs between threads(1) and threads({})",
            cfg.threads
        )
    });

    // Timed phase.
    let head = dec.push_bytes(chunks[0]).map(|v| v.len());
    out.check(head == Ok(0), || "header chunk must emit nothing".into());
    let recorded = (!cfg.smoke).then(|| recorded::live(cfg.seed)).flatten();
    let mut latencies = Vec::new();
    let mut psnrs = Vec::new();
    let mut first_digests: BTreeMap<usize, u64> = BTreeMap::new();
    let mut bad = 0u64;
    let phase = PhaseStart::now(tr);
    while common::keep_going(latencies.len(), FRAMES, &phase, cfg.seconds) {
        let i = latencies.len();
        let (res, secs) = tr.time("core.session.push", i as u64, || {
            dec.push_bytes(chunks[1 + i % FRAMES])
        });
        latencies.push(secs);
        let ok = match res.as_deref() {
            Ok([f]) if f.index == i => {
                let img = f.reconstruction.code_image();
                let db = common::psnr_db(&input.truths[i % FRAMES], img);
                psnrs.push(db);
                let d = image_digest(img.as_slice());
                let same = *first_digests.entry(i % FRAMES).or_insert(d) == d;
                let expect = recorded.map(|r| r[i % FRAMES]);
                out.check(db >= PSNR_FLOOR_DB, || {
                    format!("frame {i}: PSNR {db:.2} dB below floor")
                }) & out.check(same, || {
                    format!("frame {i}: differs from its earlier decode")
                }) & out.check(
                    expect.is_none_or(|e| (e - db).abs() <= PSNR_TOLERANCE_DB),
                    || format!("frame {i}: PSNR {db} ≠ recorded {expect:?}"),
                )
            }
            _ => out.check(false, || format!("frame {i}: push did not emit exactly it")),
        };
        bad += u64::from(!ok);
    }
    let end = phase.end(tr);
    let n = latencies.len();
    out.attempted = n as u64;
    out.failed = if frame0_ok { bad } else { n as u64 };
    out.note(format!(
        "recorded PSNRs for seed {}: {}",
        cfg.seed,
        if recorded.is_some() {
            "checked"
        } else {
            "none (repeat check only)"
        }
    ));

    let (side, _, _) = sizes(cfg.smoke);
    common::common_metrics(&mut out, setup_s, n, &end);
    let lat = Timing::of(&latencies);
    out.metrics.set("frame_latency_p50_s", lat.p50);
    out.metrics.set("psnr_db", stats::mean(&psnrs));
    out.metrics.set(
        "bits_per_pixel",
        (chunks[1].len() * 8) as f64 / (side * side) as f64,
    );
    out.metrics
        .set("recovered_fraction", dec.report().recovered_fraction());
    out.note(format!("frame latency {}", lat.render()));

    if cfg.trace {
        let ctx = Traced {
            input: &input,
            chunks: &chunks,
            first_digests: &first_digests,
            dec: &dec,
            serial: &mut serial,
            latencies: &latencies,
            phase_at: (phase.at_ns, end.at_ns),
            wall_s: end.wall_s,
            spawns: end.spawns,
            p50: lat.p50,
        };
        if let Err(e) = decompose(cfg, tr, ctx, &mut out) {
            out.check(false, || format!("decomposition: {e}"));
        }
    }
    out
}

fn digests(frames: &[DecodedFrame]) -> Vec<u64> {
    frames.iter().map(common::frame_digest).collect()
}

struct Traced<'a> {
    input: &'a Input,
    chunks: &'a [&'a [u8]],
    first_digests: &'a BTreeMap<usize, u64>,
    dec: &'a DecodeSession,
    serial: &'a mut DecodeSession,
    latencies: &'a [f64],
    phase_at: (u64, u64),
    wall_s: f64,
    spawns: u64,
    p50: f64,
}

fn decompose(
    cfg: &Config,
    tr: &mut Tracer,
    t: Traced<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = t.latencies.len();
    layers::trace_phase_metrics(tr, out, t.phase_at, n, t.wall_s);

    // Encode side of frame 0 (the set-up capture that made the input).
    let imager = &t.input.imager;
    let ((frames, _), _) = tr.time("sensor.capture", 0, || {
        imager.capture_tiles_with_stats(&t.input.scenes[0])
    });
    let parts = layers::capture_tiles(tr, imager, &t.input.scenes[0], 0);
    out.check(parts.frames == frames, || {
        "tile-by-tile capture differs from the frame capture".into()
    });
    let (stream, serialize_s) = layers::serialize(tr, imager, WireProfile::Compact, &frames, 0)?;
    out.check(
        stream[..] == [t.chunks[0], t.chunks[1]].concat()[..],
        || "re-serialized frame 0 differs from the input stream".into(),
    );
    layers::encode_side_metrics(tr, out, &parts, serialize_s);
    out.metrics.set(
        "core.stream.wire_bytes",
        (t.input.bytes.len() - TILED_HEADER_BYTES) as f64 / FRAMES as f64,
    );

    // Decode side, frame 0 serially.
    let params = RecoveryParams::low_latency();
    let rep = layers::replay(tr, &t.input.bytes, params, 1, 0)?;
    layers::decode_side_metrics(tr, out, &rep, FRAMES)?;
    out.check(rep.digests.get(&0) == t.first_digests.get(&0), || {
        "replayed frame 0 differs from the session decode".into()
    });
    let serial_frame0_s = rep.frame_solves.first().map_or(f64::NAN, |s| s.0);
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
    m.set("core.session.push_s", t.p50);
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
    m.set(
        "core.stream.bytes_skipped",
        t.dec.report().bytes_skipped as f64,
    );
    m.set(
        "core.stream.corrupt_events",
        t.dec.report().corrupt_events as f64,
    );
    m.set("util.pool.spawns_per_frame", t.spawns as f64 / n as f64);
    // Frame 0's serial solves against frame 0's own parallel latency.
    let frame0: Vec<f64> = t.latencies.iter().copied().step_by(FRAMES).collect();
    m.set(
        "util.pool.parallel_efficiency",
        parallel_efficiency(serial_frame0_s, cfg.threads, stats::median(&frame0)),
    );

    // The serial baseline: the set-up check's warm threads(1) session
    // decodes the next SERIAL_FRAMES frames of the stream.
    let open = tr.begin("core.batch.stream", 0);
    let mut rest = 0;
    for (i, chunk) in t.chunks[2..2 + SERIAL_FRAMES].iter().enumerate() {
        let (res, _) = tr.time("core.session.push", i as u64 + 1, || {
            t.serial.push_bytes(chunk)
        });
        let frames = res.map_err(|e| e.to_string())?;
        out.check(digests(&frames) == [t.first_digests[&(i + 1)]], || {
            format!("serial frame {} differs from the parallel decode", i + 1)
        });
        rest += frames.len();
    }
    let stream_s = tr.end(open);
    let serial_fps = rest as f64 / stream_s;
    // The same frames' wall time in the parallel timed phase.
    let parallel_s: f64 = t.latencies[1..1 + SERIAL_FRAMES].iter().sum();
    let m = &mut out.metrics;
    m.set("util.pool.serial_frames_per_s", serial_fps);
    m.set("core.batch.stream_s", stream_s);
    m.set("core.batch.straggler_ratio", stream_s / parallel_s);
    Ok(())
}
