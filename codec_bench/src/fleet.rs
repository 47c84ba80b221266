//! `fleet_ingest`: the cold decode side. Short resilient (v3) streams
//! from twelve simulated sensors — 32×32 monolithic and 48×48 tiled
//! (16-px tiles, overlap 4) — damaged by seeded bit flips after the
//! protected header, decoded by one `BatchRunner::decode_streams` call
//! per iteration on a fresh cache with the default FISTA + debias.

use tepics_core::prelude::*;
use tepics_core::stream::{RESILIENT_HEADER_BYTES, RESILIENT_TILED_HEADER_BYTES};

use tepics_util::pool::WorkerPool;

use crate::common::{self, derive, domain, Config, Outcome, PhaseStart};
use crate::layers;
use crate::metrics::{parallel_efficiency, redundant_builds};
use crate::recorded;
use crate::stats::{self, Digest, Timing};
use crate::trace::Tracer;

/// Per-bit flip probability after the protected header.
pub const BIT_FLIP_RATE: f64 = 2e-5;

/// Non-degraded frames must clear this PSNR (dB) against the ideal
/// codes.
const PSNR_FLOOR_DB: f64 = 15.0;

/// Fleet shape: sensors, streams per sensor, frames per monolithic and
/// per tiled stream.
struct Shape {
    sensors: u64,
    streams_per_sensor: u64,
    mono_frames: u64,
    tiled_frames: u64,
    mono_side: usize,
    tiled_side: usize,
    tile: usize,
    overlap: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            sensors: 4,
            streams_per_sensor: 2,
            mono_frames: 2,
            tiled_frames: 1,
            mono_side: 16,
            tiled_side: 24,
            tile: 8,
            overlap: 2,
        }
    } else {
        Shape {
            sensors: 12,
            streams_per_sensor: 4,
            mono_frames: 2,
            tiled_frames: 1,
            mono_side: 32,
            tiled_side: 48,
            tile: 16,
            overlap: 4,
        }
    }
}

/// One generated stream: its bytes, the ideal codes of each frame it
/// carries, its frame side and its (protected) header length.
struct Stream {
    bytes: Vec<u8>,
    truths: Vec<ImageF64>,
    side: usize,
    header_len: usize,
}

/// Sensor `s` is tiled when odd; stream `j` of sensor `s` is stream
/// `s × streams_per_sensor + j` of the batch.
fn generate(cfg: &Config) -> Vec<Stream> {
    let sh = shape(cfg.smoke);
    let mut streams = Vec::new();
    for s in 0..sh.sensors {
        let imager = sensor_imager(&sh, s);
        let tiled = imager.is_tiled();
        let side = imager.geometry().width();
        let frames = if tiled {
            sh.tiled_frames
        } else {
            sh.mono_frames
        };
        for j in 0..sh.streams_per_sensor {
            let id = s * sh.streams_per_sensor + j;
            let mut enc = EncodeSession::with_profile(imager.clone(), WireProfile::Resilient)
                .expect("fleet encode session");
            let mut truths = Vec::new();
            for f in 0..frames {
                let scene = stream_scene(cfg, side, id, f);
                enc.capture(&scene).expect("fleet capture");
                truths.push(imager.ideal_codes(&scene).to_code_f64());
            }
            let mut bytes = enc.into_bytes();
            let header_len = if tiled {
                RESILIENT_TILED_HEADER_BYTES
            } else {
                RESILIENT_HEADER_BYTES
            };
            FaultInjector::new(derive(cfg.seed, domain::FLEET_FAULT, id)).flip_bits_after(
                &mut bytes,
                header_len,
                BIT_FLIP_RATE,
            );
            streams.push(Stream {
                bytes,
                truths,
                side,
                header_len,
            });
        }
    }
    streams
}

/// The imager of sensor `s`: odd sensors are tiled.
fn sensor_imager(sh: &Shape, s: u64) -> CompressiveImager {
    let tiled = s % 2 == 1;
    let side = if tiled { sh.tiled_side } else { sh.mono_side };
    let mut builder = CompressiveImager::builder_for(FrameGeometry::new(side, side));
    if tiled {
        builder.tiling(TileConfig::new(sh.tile).overlap(sh.overlap));
    }
    builder
        .ratio(0.35)
        .seed(common::device_seed(domain::FLEET_SENSOR, s))
        .fidelity(Fidelity::Functional)
        .build()
        .expect("fleet imager config")
}

/// The scene of frame `f` of stream `id`.
fn stream_scene(cfg: &Config, side: usize, id: u64, f: u64) -> ImageF64 {
    common::scene(side, derive(cfg.seed, domain::FLEET_SCENE, id * 16 + f))
}

/// One batch's ledger summed over streams, and a digest of everything
/// it emitted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Batch {
    ledger: DecodeReport,
    failed_streams: usize,
    frames: usize,
    digest: u64,
}

fn summarize(out: &StreamBatchOutcome) -> Batch {
    let mut b = Batch::default();
    let mut d = Digest::default();
    for o in &out.outcomes {
        let r = &o.report;
        let l = &mut b.ledger;
        l.frames_recovered += r.frames_recovered;
        l.frames_degraded += r.frames_degraded;
        l.frames_lost += r.frames_lost;
        l.tiles_recovered += r.tiles_recovered;
        l.tiles_erased += r.tiles_erased;
        l.corrupt_events += r.corrupt_events;
        l.bytes_skipped += r.bytes_skipped;
        l.stale_records += r.stale_records;
        b.failed_streams += usize::from(o.is_failed());
        b.frames += o.frames.len();
        for f in &o.frames {
            d.bytes(&(f.index as u64).to_le_bytes());
            d.bytes(&common::frame_digest(f).to_le_bytes());
        }
    }
    b.digest = d.value();
    b
}

/// The recorded ledger of a batch: recovered, degraded, lost, bytes
/// skipped.
fn ledger_key(b: &Batch) -> recorded::FleetLedger {
    let l = &b.ledger;
    [
        l.frames_recovered,
        l.frames_degraded,
        l.frames_lost,
        l.bytes_skipped,
    ]
}

/// Decodes the seed's batch once (no timing) for the recorded table.
pub fn record(cfg: &Config) -> recorded::FleetLedger {
    let streams = generate(cfg);
    let bytes: Vec<&[u8]> = streams.iter().map(|s| &s.bytes[..]).collect();
    ledger_key(&summarize(
        &BatchRunner::with_threads(cfg.threads).decode_streams(&bytes),
    ))
}

/// Runs the workload.
pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let streams = generate(cfg);
    let bytes: Vec<&[u8]> = streams.iter().map(|s| &s.bytes[..]).collect();

    // Set-up: runner construction (1000 per sample). The cold operator
    // builds stay in the timed phase: every new sensor pays them.
    let (_, setup_s) = common::median_setup(21, 1000, || BatchRunner::with_threads(cfg.threads));
    // Start the pool's workers once, as a server would at start-up, so
    // the timed phase measures warm-pool ingest.
    WorkerPool::global().broadcast(cfg.threads, |_| {});

    // Timed phase: one decode_streams call per iteration, each on a
    // fresh runner and cache.
    let mut batch_s = Vec::new();
    let mut per_frame_s = Vec::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut cache_stats = Vec::new();
    let mut first = None;
    let mut last_runner = None;
    let phase = PhaseStart::now(tr);
    while common::keep_going(batches.len(), 2, &phase, cfg.seconds) {
        let i = batches.len() as u64;
        let ((runner, result), secs) = tr.time("core.batch.decode_streams", i, || {
            let runner = BatchRunner::with_threads(cfg.threads);
            let result = runner.decode_streams(&bytes);
            (runner, result)
        });
        let b = summarize(&result);
        batch_s.push(secs);
        per_frame_s.push(secs / b.frames.max(1) as f64);
        cache_stats.push((runner.cache().stats(), runner.cache().resident_bytes()));
        batches.push(b);
        first.get_or_insert(result);
        last_runner = Some(runner);
    }
    let end = phase.end(tr);
    let first = first.expect("at least one batch");
    let n_batches = batches.len();
    out.attempted = (n_batches * streams.len()) as u64;

    // Checks: no failed stream, identical output every batch, the
    // recorded ledger, and the PSNR floor for intact frames.
    let b0 = batches[0];
    let recorded = (!cfg.smoke).then(|| recorded::fleet(cfg.seed)).flatten();
    let mut failed = 0u64;
    for (i, b) in batches.iter().enumerate() {
        let ok = out.check(b.failed_streams == 0, || {
            format!("batch {i}: {} streams failed", b.failed_streams)
        }) & out.check(*b == b0, || {
            format!("batch {i}: output or ledger differs from batch 0")
        }) & out.check(recorded.is_none_or(|r| r == ledger_key(b)), || {
            format!(
                "batch {i}: ledger {:?} ≠ recorded {recorded:?}",
                ledger_key(b)
            )
        });
        failed += if ok { 0 } else { streams.len() as u64 };
    }
    out.note(format!(
        "recorded ledger for seed {}: {}",
        cfg.seed,
        if recorded.is_some() {
            "checked"
        } else {
            "none (repeat check only)"
        }
    ));
    let mut psnrs = Vec::new();
    for (s, o) in streams.iter().zip(&first.outcomes) {
        for f in &o.frames {
            let Some(truth) = s.truths.get(f.index) else {
                out.check(false, || {
                    format!("emitted frame index {} out of range", f.index)
                });
                continue;
            };
            let db = common::psnr_db(truth, f.reconstruction.code_image());
            if f.erased_tiles == 0 {
                out.check(db >= PSNR_FLOOR_DB, || {
                    format!("intact frame PSNR {db:.2} dB below floor")
                });
            }
            psnrs.push(db);
        }
    }
    out.failed = failed.min(out.attempted);

    let frames: usize = batches.iter().map(|b| b.frames).sum();
    common::common_metrics(&mut out, setup_s, frames, &end);
    out.metrics
        .set("frame_latency_p50_s", stats::median(&per_frame_s));
    out.metrics.set("psnr_db", stats::mean(&psnrs));
    let sent_pixels: usize = streams
        .iter()
        .map(|s| s.truths.len() * s.side * s.side)
        .sum();
    let wire_bits: usize = streams.iter().map(|s| s.bytes.len() * 8).sum();
    out.metrics
        .set("bits_per_pixel", wire_bits as f64 / sent_pixels as f64);
    let l = b0.ledger;
    out.metrics
        .set("recovered_fraction", l.recovered_fraction());
    out.note(format!("batch time {}", Timing::of(&batch_s).render()));
    out.note(format!(
        "ledger per batch: recovered {} degraded {} lost {} tiles erased {} bytes skipped {}",
        l.frames_recovered, l.frames_degraded, l.frames_lost, l.tiles_erased, l.bytes_skipped
    ));

    if cfg.trace {
        let ctx = Traced {
            streams: &streams,
            first: &first,
            b0: &b0,
            batch_s: &batch_s,
            cache_stats: &cache_stats,
            last_runner: last_runner.as_ref().expect("at least one batch"),
            phase_at: (phase.at_ns, end.at_ns),
            wall_s: end.wall_s,
            frames,
            spawns: end.spawns,
        };
        if let Err(e) = decompose(cfg, tr, &ctx, &mut out) {
            out.check(false, || format!("decomposition: {e}"));
        }
    }
    out
}

struct Traced<'a> {
    streams: &'a [Stream],
    first: &'a StreamBatchOutcome,
    b0: &'a Batch,
    batch_s: &'a [f64],
    cache_stats: &'a [(CacheStats, usize)],
    last_runner: &'a BatchRunner,
    phase_at: (u64, u64),
    wall_s: f64,
    frames: usize,
    spawns: u64,
}

fn decompose(
    cfg: &Config,
    tr: &mut Tracer,
    t: &Traced<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    layers::trace_phase_metrics(tr, out, t.phase_at, t.frames, t.wall_s);
    let sh = shape(cfg.smoke);
    let per = sh.streams_per_sensor as usize;

    // Encode side: frame 0 of the first tiled sensor's first stream.
    let first_tiled = per;
    let imager = sensor_imager(&sh, 1);
    let scene = stream_scene(cfg, t.streams[first_tiled].side, first_tiled as u64, 0);
    let ((frames, _), _) = tr.time("sensor.capture", 0, || {
        imager.capture_tiles_with_stats(&scene)
    });
    let parts = layers::capture_tiles(tr, &imager, &scene, 0);
    out.check(parts.frames == frames, || {
        "tile-by-tile capture differs from the frame capture".into()
    });
    let (_, serialize_s) = layers::serialize(tr, &imager, WireProfile::Resilient, &frames, 0)?;
    layers::encode_side_metrics(tr, out, &parts, serialize_s);
    let sent: usize = t.streams.iter().map(|s| s.truths.len()).sum();
    let record_bytes: usize = t.streams.iter().map(|s| s.bytes.len() - s.header_len).sum();
    out.metrics
        .set("core.stream.wire_bytes", record_bytes as f64 / sent as f64);

    // Parse every stream: the parser's skip accounting must match the
    // sessions' ledger. Then solve and stitch the first monolithic and
    // the first tiled stream that kept any record.
    let mut parse_s = 0.0;
    let (mut skipped, mut corrupt) = (0, 0);
    let (mut mono, mut tiled) = (None, None);
    for (i, s) in t.streams.iter().enumerate() {
        let rep = layers::replay(tr, &s.bytes, RecoveryParams::default(), 0, i as u64)?;
        parse_s += rep.parse_s;
        skipped += rep.bytes_skipped;
        corrupt += rep.corrupt_events;
        let pick = if (i / per) % 2 == 1 {
            &mut tiled
        } else {
            &mut mono
        };
        if pick.is_none() && rep.records > 0 {
            *pick = Some(i);
        }
    }
    out.check(
        skipped == t.b0.ledger.bytes_skipped && corrupt == t.b0.ledger.corrupt_events,
        || format!("parser skipped {skipped} bytes in {corrupt} events; sessions report otherwise"),
    );
    let mut reps = Vec::new();
    for i in [mono, tiled].into_iter().flatten() {
        let rep = layers::replay(
            tr,
            &t.streams[i].bytes,
            RecoveryParams::default(),
            usize::MAX,
            i as u64,
        )?;
        for (index, d) in &rep.digests {
            let batch = t.first.outcomes[i]
                .frames
                .iter()
                .find(|f| f.index == *index);
            out.check(batch.is_some_and(|f| common::frame_digest(f) == *d), || {
                format!("stream {i} frame {index}: replay differs from the batch decode")
            });
        }
        reps.push(rep);
    }
    let first_rep = reps.first().ok_or("no stream kept a record")?;
    // Per-frame solve and stitch over both replays; kernels on the
    // first replay's geometry.
    let mut merged = layers::Replay {
        header: first_rep.header,
        k: first_rep.k,
        parse_s,
        record_solves: first_rep.record_solves.clone(),
        ..layers::Replay::default()
    };
    for rep in &reps {
        merged.frame_solves.extend(&rep.frame_solves);
        merged.stitch_s.extend(&rep.stitch_s);
    }
    layers::decode_side_metrics(tr, out, &merged, sent)?;

    // Cold then warm: two streams of one tiled sensor on a fresh cache.
    let cache = OperatorCache::shared();
    let params = RecoveryParams::default();
    let cold = layers::serial_stream(tr, &cache, &t.streams[first_tiled].bytes, params, 0)?;
    let warm = layers::serial_stream(tr, &cache, &t.streams[first_tiled + 1].bytes, params, 1)?;
    layers::ledger_metrics(out, &t.b0.ledger);
    let l = &t.b0.ledger;
    let mean = |f: fn(&(CacheStats, usize)) -> f64| {
        t.cache_stats.iter().map(f).sum::<f64>() / t.cache_stats.len() as f64
    };
    let misses = mean(|c| c.0.misses as f64);
    let hits = mean(|c| c.0.hits as f64);
    let m = &mut out.metrics;
    m.set(
        "core.cache.cold_frame_s",
        cold.total_s / cold.report.frames_emitted().max(1) as f64,
    );
    m.set(
        "core.cache.warm_frame_s",
        warm.total_s / warm.report.frames_emitted().max(1) as f64,
    );
    m.set("core.cache.hits", hits);
    m.set("core.cache.misses", misses);
    m.set("core.cache.hit_rate", hits / (hits + misses));
    m.set(
        "core.cache.redundant_builds",
        t.cache_stats
            .iter()
            .map(|c| redundant_builds(c.0.misses, sh.sensors) as f64)
            .sum::<f64>()
            / t.cache_stats.len() as f64,
    );
    m.set(
        "core.cache.resident_bytes",
        t.cache_stats.last().map_or(0.0, |c| c.1 as f64),
    );
    m.set("core.stream.bytes_skipped", l.bytes_skipped as f64);
    m.set("core.stream.corrupt_events", l.corrupt_events as f64);
    m.set(
        "util.pool.spawns_per_frame",
        t.spawns as f64 / t.frames.max(1) as f64,
    );

    // Each stream on its own threads(1) session over the last batch's
    // warm cache: the batch item by item, and together the batch at one
    // thread (without its cold builds).
    let shared = t.last_runner.cache().clone();
    let mut stream_s = Vec::new();
    let mut push_s = 0.0;
    for (i, s) in t.streams.iter().enumerate() {
        let one = layers::serial_stream(tr, &shared, &s.bytes, params, i as u64)?;
        let batch: Vec<(usize, u64)> = t.first.outcomes[i]
            .frames
            .iter()
            .map(|f| (f.index, common::frame_digest(f)))
            .collect();
        out.check(one.digests == batch, || {
            format!("stream {i}: serial decode differs from the batch")
        });
        stream_s.push(one.total_s);
        push_s += one.push_s;
    }
    let batch_wall = stats::median(t.batch_s);
    let serial_s: f64 = stream_s.iter().sum();
    let m = &mut out.metrics;
    m.set("core.session.push_s", push_s / t.b0.frames.max(1) as f64);
    m.set("core.batch.stream_s", stats::median(&stream_s));
    m.set(
        "core.batch.straggler_ratio",
        stream_s.iter().copied().fold(0.0, f64::max) / batch_wall,
    );
    m.set(
        "util.pool.parallel_efficiency",
        parallel_efficiency(serial_s, cfg.threads, batch_wall),
    );
    m.set(
        "util.pool.serial_frames_per_s",
        t.b0.frames as f64 / serial_s,
    );
    Ok(())
}
