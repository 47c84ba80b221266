//! (infrastructure) Streaming decode throughput on the persistent
//! pool: frames/sec vs thread count.
//!
//! PR 8 left the single warm decode nearly kernel-bound, so the
//! remaining lever is *throughput*: how fast a session chews through a
//! multi-frame tiled stream. This experiment measures the thing the
//! persistent [`WorkerPool`](tepics_util::pool::WorkerPool) was built
//! for — no per-frame thread spawns and warm per-geometry solver
//! workspaces, with the tile groups of several frames pipelining
//! through one map per push.
//!
//! Per thread count, `BENCH_throughput.json` records frames/sec, tiles
//! per second, and the *thread spawns per decoded frame* measured from
//! the process-wide spawn counter (0 after [`DecodeSession::prewarm`]).
//! Every decode is checked bit-identical to the `threads(1)` reference
//! before its timing counts. The JSON records `host_parallelism`: on a
//! 1-core host the curve is flat by construction and says nothing about
//! parallel speed-up.

use std::time::Instant;

use crate::report::{section, Table};
use tepics_core::prelude::*;
use tepics_util::parallel::thread_spawn_count;

/// Where the machine-readable numbers land (workspace root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");

/// Builds the benchmark stream: `frames` captures of a `side`×`side`
/// tiled imager, returning the wire bytes, one tile record (for
/// prewarming decode executors), and the tile count per frame.
fn make_stream(
    side: usize,
    tile: usize,
    overlap: usize,
    frames: usize,
) -> (Vec<u8>, CompressedFrame, usize) {
    let imager = CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(tile).overlap(overlap))
        .ratio(0.35)
        .seed(0x7480)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("throughput imager config");
    let tiles = imager.tile_layout().expect("layout").tiles();
    let mut enc = EncodeSession::new(imager).expect("throughput encode");
    let mut warm_record = None;
    for i in 0..frames {
        let scene = Scene::natural_like().render(side, side, 7 + i as u64);
        let records = enc.capture(&scene).expect("throughput capture");
        if warm_record.is_none() {
            warm_record = Some(records[0].clone());
        }
    }
    (
        enc.to_bytes(),
        warm_record.expect("at least one frame"),
        tiles,
    )
}

/// One timed decode of the whole stream in a single push (so complete
/// tile groups of every frame are buffered together and pipeline
/// through one pool map). Returns the decoded frames, wall seconds,
/// and the thread-spawn delta of the run.
fn timed_decode(
    bytes: &[u8],
    cache: &std::sync::Arc<OperatorCache>,
    threads: usize,
    warm: &CompressedFrame,
) -> (Vec<DecodedFrame>, f64, u64) {
    let mut dec = DecodeSession::with_cache(cache.clone());
    dec.params(RecoveryParams::low_latency()).threads(threads);
    dec.prewarm(warm).expect("throughput prewarm");
    let spawns_before = thread_spawn_count();
    let t = Instant::now();
    let decoded = dec.push_bytes(bytes).expect("throughput decode");
    let seconds = t.elapsed().as_secs_f64();
    (decoded, seconds, thread_spawn_count() - spawns_before)
}

/// One thread count's measurement.
struct Point {
    threads: usize,
    seconds: f64,
    spawns_per_frame: f64,
    identical: bool,
}

/// Runs the experiment: a `frames`-frame 512×512 tiled stream decoded
/// at several thread counts (best of `reps`), updating
/// `BENCH_throughput.json`.
pub fn run() -> String {
    run_sized(512, 64, 8, 3, &[1, 2, 4], 2)
}

fn run_sized(
    side: usize,
    tile: usize,
    overlap: usize,
    frames: usize,
    thread_counts: &[usize],
    reps: usize,
) -> String {
    let (bytes, warm, tiles) = make_stream(side, tile, overlap, frames);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let cache = OperatorCache::shared();

    // Serial reference for bit-identity (threads 1 ⇒ inline on the
    // session workspace); also warms the shared operator cache so
    // every timed run below is operator-warm.
    let (reference, _, _) = timed_decode(&bytes, &cache, 1, &warm);
    assert_eq!(reference.len(), frames, "stream must decode all frames");

    let mut points = Vec::new();
    for &threads in thread_counts {
        let mut best = f64::INFINITY;
        let mut spawns = 0;
        let mut identical = true;
        for _ in 0..reps {
            let (decoded, secs, spawn_delta) = timed_decode(&bytes, &cache, threads, &warm);
            identical &= decoded == reference;
            best = best.min(secs);
            // Spawn delta of the *last* rep: by then the pool is warm,
            // so it must read 0 even on the first thread count.
            spawns = spawn_delta;
        }
        points.push(Point {
            threads,
            seconds: best,
            spawns_per_frame: spawns as f64 / frames as f64,
            identical,
        });
    }

    // Machine-readable trail.
    let mut json = String::from("{\n  \"schema\": 2,\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host_parallelism},\n  \"stream\": {{\"side\": {side}, \
         \"tile\": {tile}, \"overlap\": {overlap}, \"tiles_per_frame\": {tiles}, \
         \"frames\": {frames}, \"solver\": \"amp-60 (low_latency, no debias)\"}},\n  \"points\": ["
    ));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "{{\"threads\": {}, \"seconds\": {:.3}, \"frames_per_sec\": {:.3}, \
             \"tiles_per_sec\": {:.1}, \"spawns_per_frame\": {:.2}, \"bit_identical\": {}}}",
            p.threads,
            p.seconds,
            frames as f64 / p.seconds,
            (frames * tiles) as f64 / p.seconds,
            p.spawns_per_frame,
            p.identical,
        ));
    }
    json.push_str("]\n}\n");
    let json_written = std::fs::write(JSON_PATH, &json).is_ok();

    // Human-readable report.
    let mut out = String::from("# Streaming decode throughput — persistent pool\n");
    out.push_str(&section(&format!(
        "{side}×{side}, tile {tile}, overlap {overlap} — {tiles} tiles × {frames} frames, \
         AMP-60, one push (frame-pipelined)"
    )));
    let mut t = Table::new(&[
        "threads",
        "frames/s",
        "tiles/s",
        "spawns/frame",
        "bit-identical",
    ]);
    for p in &points {
        t.row_owned(vec![
            p.threads.to_string(),
            format!("{:.3}", frames as f64 / p.seconds),
            format!("{:.1}", (frames * tiles) as f64 / p.seconds),
            format!("{:.1}", p.spawns_per_frame),
            if p.identical {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nhost parallelism: {host_parallelism}. The `spawns/frame` column is the proof of\n\
         amortization: after `prewarm`, a pooled stream decode spawns zero threads.\n"
    ));
    out.push_str(&format!(
        "\n{} {JSON_PATH}\n",
        if json_written {
            "machine-readable numbers written to"
        } else {
            "WARNING: could not write"
        },
    ));
    out
}

/// Smoke-mode pool gate for CI: a small multi-frame tiled stream must
/// decode bit-identically through `threads(4)` pooled and serial paths
/// — and the warm pooled decode must spawn zero threads.
pub fn smoke() -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    let (bytes, warm, tiles) = make_stream(40, 16, 4, 3);
    let cache = OperatorCache::shared();

    let decode = |threads: usize| {
        let mut dec = DecodeSession::with_cache(cache.clone());
        dec.threads(threads);
        dec.prewarm(&warm).expect("smoke prewarm");
        let decoded = dec.push_bytes(&bytes).expect("smoke pool decode");
        (decoded, dec.report())
    };

    let (serial, _) = decode(1);
    if serial.len() != 3 {
        failures.push(format!("pool smoke: {} frames, expected 3", serial.len()));
    }

    // Warm-up pass spawns whatever workers the host allows; the decode
    // after it must spawn nothing.
    let _ = decode(4);
    let spawns_before = thread_spawn_count();
    let (pooled, report) = decode(4);
    let spawn_delta = thread_spawn_count() - spawns_before;
    if spawn_delta != 0 {
        failures.push(format!(
            "pool smoke: warm pooled decode spawned {spawn_delta} threads, expected 0"
        ));
    }
    if pooled != serial {
        failures.push("pool smoke: threads(4) pooled decode diverged from serial".into());
    }
    if report.frames_recovered != 3 {
        failures.push(format!(
            "pool smoke: report counted {} recovered frames, expected 3",
            report.frames_recovered
        ));
    }

    if failures.is_empty() {
        Ok(format!(
            "pool smoke: 3-frame 40×40 stream in {tiles} tiles/frame, threads(4) pooled ≡ \
             serial, 0 spawns after warmup"
        ))
    } else {
        Err(failures)
    }
}
