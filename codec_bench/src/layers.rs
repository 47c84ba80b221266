//! The traced run's serial decomposition pass: the workload's own
//! inputs replayed through each layer's public entry points, one span
//! per call, so every stage's time is credited to its layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use tepics_core::prelude::*;
use tepics_core::stream::StreamParser;
use tepics_core::{CoreError, FrameHeader};
use tepics_cs::dictionary::ZeroMeanDictionary;
use tepics_cs::{ComposedOperator, Dct2dDictionary, LinearOperator};
use tepics_imaging::tile::{fill_uncovered, merge_tiles_sparse, split_tiles};
use tepics_recovery::SolverWorkspace;
use tepics_sensor::EventStats;

use crate::common::{self, Outcome};
use crate::stats::{self, image_digest};
use crate::trace::Tracer;

/// Encode-side decomposition of one scene.
#[derive(Debug)]
pub struct CaptureParts {
    /// `split_tiles` seconds.
    pub split_s: f64,
    /// Seconds of each `tile_imager().capture_with_stats` call.
    pub tile_capture_s: Vec<f64>,
    /// Event statistics merged over the tiles.
    pub stats: EventStats,
    /// The tile records, row-major.
    pub frames: Vec<CompressedFrame>,
}

/// Splits `scene` and captures every tile through the tile imager, as
/// `CompressiveImager::capture_tiles_with_stats` does internally.
pub fn capture_tiles(
    tr: &mut Tracer,
    imager: &CompressiveImager,
    scene: &ImageF64,
    id: u64,
) -> CaptureParts {
    let layout = imager.tile_layout().expect("tiled imager");
    let tile_imager = imager.tile_imager().expect("tiled imager");
    let (tiles, split_s) = tr.time("imaging.split", id, || split_tiles(scene, layout));
    let mut parts = CaptureParts {
        split_s,
        tile_capture_s: Vec::with_capacity(tiles.len()),
        stats: EventStats::default(),
        frames: Vec::with_capacity(tiles.len()),
    };
    for tile in tiles {
        let img = ImageF64::from_vec(layout.tile_width(), layout.tile_height(), tile);
        let ((frame, st), secs) = tr.time("sensor.tile_capture", id, || {
            tile_imager.capture_with_stats(&img)
        });
        parts.tile_capture_s.push(secs);
        parts.stats.merge(&st);
        parts.frames.push(frame);
    }
    parts
}

/// `EncodeSession::push_frame` for every record plus `to_bytes`, on a
/// fresh session: returns the stream and the seconds spent.
pub fn serialize(
    tr: &mut Tracer,
    imager: &CompressiveImager,
    profile: WireProfile,
    frames: &[CompressedFrame],
    id: u64,
) -> Result<(Vec<u8>, f64), String> {
    let mut enc =
        EncodeSession::with_profile(imager.clone(), profile).map_err(|e| e.to_string())?;
    let (bytes, secs) = tr.time("core.stream.serialize", id, || {
        for f in frames {
            enc.push_frame(f)?;
        }
        Ok::<_, CoreError>(enc.to_bytes())
    });
    Ok((bytes.map_err(|e| e.to_string())?, secs))
}

/// Counters of an `EventStats`: pulses, queued, missed, overflows.
pub fn event_counts(st: &EventStats) -> [u64; 4] {
    [
        st.total_pulses,
        st.queued_pulses,
        st.missed_pulses,
        st.column_overflows + st.sample_overflows,
    ]
}

/// The encode-side per-layer metrics of one decomposed scene (and the
/// `sensor.capture` spans recorded so far).
pub fn encode_side_metrics(tr: &Tracer, out: &mut Outcome, parts: &CaptureParts, serialize_s: f64) {
    let tile_sum: f64 = parts.tile_capture_s.iter().sum();
    let counts = event_counts(&parts.stats);
    let m = &mut out.metrics;
    m.set(
        "sensor.capture_s",
        stats::median(&tr.self_times("sensor.capture")),
    );
    m.set(
        "sensor.tile_capture_s",
        stats::median(&parts.tile_capture_s),
    );
    m.set("sensor.pulses", counts[0] as f64);
    m.set("sensor.queued_pulses", counts[1] as f64);
    m.set("sensor.missed_pulses", counts[2] as f64);
    m.set("sensor.overflows", counts[3] as f64);
    m.set(
        "sensor.ns_per_pulse",
        tile_sum * 1e9 / counts[0].max(1) as f64,
    );
    m.set("imaging.split_s", parts.split_s);
    m.set("core.stream.serialize_s", serialize_s);
}

/// Decode-side replay of one stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Seconds to parse the whole stream.
    pub parse_s: f64,
    /// Records parsed.
    pub records: usize,
    /// Corrupt stretches the parser skipped, and their bytes.
    pub corrupt_events: usize,
    /// Bytes skipped.
    pub bytes_skipped: usize,
    /// Per replayed record: solve seconds and iterations.
    pub record_solves: Vec<(f64, usize)>,
    /// Per replayed frame: Σ solve seconds, Σ iterations.
    pub frame_solves: Vec<(f64, usize)>,
    /// Stitch seconds of each replayed tiled frame.
    pub stitch_s: Vec<f64>,
    /// Code-image digest of each replayed frame, by stream position.
    pub digests: BTreeMap<usize, u64>,
    /// The stream's (tile) header.
    pub header: Option<FrameHeader>,
    /// Samples per record.
    pub k: usize,
}

/// Parses `bytes`, then solves the records of the first `max_frames`
/// frame positions serially with a warm workspace and stitches tiled
/// frames (filling erased tiles as `ErasurePolicy::NeighborBlend`
/// does).
pub fn replay(
    tr: &mut Tracer,
    bytes: &[u8],
    params: RecoveryParams,
    max_frames: usize,
    id: u64,
) -> Result<Replay, String> {
    let mut parser = StreamParser::new();
    let (events, parse_s) = tr.time("core.stream.parse", id, || {
        parser.push_bytes(bytes);
        let mut events = Vec::new();
        while let Some(ev) = parser.next_event()? {
            events.push(ev);
        }
        Ok::<_, CoreError>(events)
    });
    let events = events.map_err(|e| format!("parse: {e}"))?;
    let header = *parser.header().ok_or("stream has no header")?;
    let layout = parser.tile_layout().cloned();
    let tiles = layout.as_ref().map_or(1, TileLayout::tiles);

    let mut out = Replay {
        parse_s,
        header: Some(header),
        ..Replay::default()
    };
    let mut groups: BTreeMap<usize, Vec<Option<CompressedFrame>>> = BTreeMap::new();
    for ev in events {
        match ev {
            StreamEvent::Frame { seq, frame } => {
                out.records += 1;
                let seq = seq as usize;
                groups
                    .entry(seq / tiles)
                    .or_insert_with(|| vec![None; tiles])[seq % tiles] = Some(frame);
            }
            StreamEvent::Corrupt { bytes_skipped } => {
                out.corrupt_events += 1;
                out.bytes_skipped += bytes_skipped;
            }
        }
    }

    let mut decoder = Decoder::for_header(&header).map_err(|e| e.to_string())?;
    decoder.params(params).use_cache(OperatorCache::shared());
    let mut ws = SolverWorkspace::new();
    // Warm the cache and workspace: the replay times warm solves.
    if let Some(first) = groups.values().flatten().flatten().next() {
        out.k = first.samples.len();
        decoder
            .reconstruct_with(first, &mut ws)
            .map_err(|e| e.to_string())?;
    }
    for (&index, slots) in groups.iter().take(max_frames) {
        let mut recons = Vec::with_capacity(tiles);
        let mut frame_solve = (0.0, 0);
        for slot in slots {
            let Some(rec) = slot else {
                recons.push(None);
                continue;
            };
            let (recon, secs) = tr.time("recovery.solve", index as u64, || {
                decoder.reconstruct_with(rec, &mut ws)
            });
            let recon = recon.map_err(|e| e.to_string())?;
            let iters = recon.stats().iterations;
            out.record_solves.push((secs, iters));
            frame_solve.0 += secs;
            frame_solve.1 += iters;
            recons.push(Some(recon));
        }
        out.frame_solves.push(frame_solve);
        let digest = match &layout {
            None => {
                let recon = recons[0].as_ref().expect("a mono frame has its record");
                image_digest(recon.code_image().as_slice())
            }
            Some(layout) => {
                let (stitched, secs) = tr.time("imaging.stitch", index as u64, || {
                    let code_tiles: Vec<Option<Vec<f64>>> = recons
                        .iter()
                        .map(|r| r.as_ref().map(|r| r.code_image().as_slice().to_vec()))
                        .collect();
                    let (mut img, uncovered) = merge_tiles_sparse(&code_tiles, layout);
                    if uncovered.iter().any(|&u| u) {
                        fill_uncovered(&mut img, &uncovered);
                    }
                    img
                });
                out.stitch_s.push(secs);
                image_digest(stitched.as_slice())
            }
        };
        out.digests.insert(index, digest);
    }
    Ok(out)
}

/// Median seconds of `ComposedOperator` apply and adjoint for the
/// geometry of `header` with `k` samples (Φ from
/// `Decoder::rebuild_measurement`, zero-mean DCT dictionary as the
/// decoder builds it).
pub fn cs_kernels(tr: &mut Tracer, header: &FrameHeader, k: usize) -> Result<(f64, f64), String> {
    let decoder = Decoder::for_header(header).map_err(|e| e.to_string())?;
    let phi = decoder.rebuild_measurement(k).map_err(|e| e.to_string())?;
    let (rows, cols) = (header.rows as usize, header.cols as usize);
    let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(cols, rows), 0);
    let op = ComposedOperator::new(&phi, &dict);
    let x: Vec<f64> = (0..op.cols())
        .map(|i| ((i * 7919) % 101) as f64 / 101.0 - 0.5)
        .collect();
    let mut y = vec![0.0; op.rows()];
    let mut z = vec![0.0; op.cols()];
    op.apply(&x, &mut y);
    op.apply_adjoint(&y, &mut z);
    let (mut apply, mut adjoint) = (Vec::new(), Vec::new());
    let budget = std::time::Instant::now();
    while apply.len() < 5 || (apply.len() < 200 && budget.elapsed().as_secs_f64() < 0.2) {
        let ((), a) = tr.time("cs.apply", 0, || op.apply(black_box(&x), &mut y));
        let ((), b) = tr.time("cs.adjoint", 0, || op.apply_adjoint(black_box(&y), &mut z));
        black_box((&y, &z));
        apply.push(a);
        adjoint.push(b);
    }
    Ok((stats::median(&apply), stats::median(&adjoint)))
}

/// Seconds to build the pattern source of `header` and draw `k`
/// patterns: the CA work behind one tile's Φ (and its capture).
pub fn ca_patterns(tr: &mut Tracer, header: &FrameHeader, k: usize) -> Result<f64, String> {
    let pattern_len = header.rows as usize + header.cols as usize;
    let (built, secs) = tr.time("ca.patterns", 0, || {
        let mut source = header.strategy.build_source(pattern_len, header.seed)?;
        let mut ones = 0usize;
        for _ in 0..k {
            ones += black_box(source.next_pattern()).count_ones();
        }
        Ok::<_, CoreError>(ones)
    });
    built.map_err(|e| e.to_string())?;
    Ok(secs)
}

/// Decodes `first` (header plus one frame) and then `second` (one
/// frame) on a fresh session and cache: the cold and warm frame
/// times of one geometry, and the session's ledger.
pub fn cold_warm(
    tr: &mut Tracer,
    first: &[u8],
    second: &[u8],
    params: RecoveryParams,
    threads: usize,
) -> Result<(f64, f64, DecodeReport), String> {
    let mut dec = DecodeSession::with_cache(OperatorCache::shared());
    dec.params(params).threads(threads);
    let (a, cold) = tr.time("core.cache.cold_frame", 0, || dec.push_bytes(first));
    let (b, warm) = tr.time("core.cache.warm_frame", 1, || dec.push_bytes(second));
    let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
    if a.len() != 1 || b.len() != 1 {
        return Err(format!(
            "cold/warm pushes emitted {} and {} frames",
            a.len(),
            b.len()
        ));
    }
    Ok((cold, warm, dec.report()))
}

/// One stream decoded on its own session.
#[derive(Debug)]
pub struct StreamDecode {
    /// Seconds for the whole stream (session, push, finish).
    pub total_s: f64,
    /// Seconds inside `push_bytes`.
    pub push_s: f64,
    /// `(stream position, code-image digest)` of each emitted frame.
    pub digests: Vec<(usize, u64)>,
    /// The session's ledger.
    pub report: DecodeReport,
}

/// Decodes a whole stream on its own single-threaded session over
/// `cache` (one batch item run serially).
pub fn serial_stream(
    tr: &mut Tracer,
    cache: &Arc<OperatorCache>,
    bytes: &[u8],
    params: RecoveryParams,
    id: u64,
) -> Result<StreamDecode, String> {
    let open = tr.begin("core.batch.stream", id);
    let mut dec = DecodeSession::with_cache(cache.clone());
    dec.params(params).threads(1);
    let (frames, push_s) = tr.time("core.session.push", id, || dec.push_bytes(bytes));
    let mut frames = frames.map_err(|e| e.to_string())?;
    frames.extend(dec.finish().map_err(|e| e.to_string())?);
    let total_s = tr.end(open);
    let digests = frames
        .iter()
        .map(|f| (f.index, common::frame_digest(f)))
        .collect();
    Ok(StreamDecode {
        total_s,
        push_s,
        digests,
        report: dec.report(),
    })
}

/// Parse/solve/stitch/kernel/pattern metrics of a replay, per frame.
pub fn decode_side_metrics(
    tr: &mut Tracer,
    out: &mut Outcome,
    rep: &Replay,
    frames_in_stream: usize,
) -> Result<(), String> {
    let header = rep.header.as_ref().ok_or("replay saw no header")?;
    let (apply_s, adjoint_s) = cs_kernels(tr, header, rep.k)?;
    let patterns_s = ca_patterns(tr, header, rep.k)?;
    let solve: Vec<f64> = rep.frame_solves.iter().map(|s| s.0).collect();
    let iters: Vec<f64> = rep.frame_solves.iter().map(|s| s.1 as f64).collect();
    let (rec_s, rec_it): (f64, f64) = rep
        .record_solves
        .iter()
        .fold((0.0, 0.0), |(s, i), r| (s + r.0, i + r.1 as f64));
    let m = &mut out.metrics;
    m.set(
        "core.stream.parse_s",
        rep.parse_s / frames_in_stream.max(1) as f64,
    );
    m.set("recovery.solve_s", stats::mean(&solve));
    m.set("recovery.iterations", stats::mean(&iters));
    m.set("imaging.stitch_s", stats::mean(&rep.stitch_s));
    m.set("cs.apply_s", apply_s);
    m.set("cs.adjoint_s", adjoint_s);
    m.set("cs.kernel_share", rec_it * (apply_s + adjoint_s) / rec_s);
    m.set("ca.patterns_s", patterns_s);
    Ok(())
}

/// The session ledger counters.
pub fn ledger_metrics(out: &mut Outcome, r: &DecodeReport) {
    let m = &mut out.metrics;
    m.set("core.session.frames_recovered", r.frames_recovered as f64);
    m.set("core.session.frames_degraded", r.frames_degraded as f64);
    m.set("core.session.frames_lost", r.frames_lost as f64);
    m.set("core.session.tiles_erased", r.tiles_erased as f64);
}

/// Trace bookkeeping of the timed phase `[lo, hi]` (ns): top-level
/// span coverage, the estimated span-recording overhead, and the
/// traced throughput (compare with the untraced run's `frames_per_s`).
pub fn trace_phase_metrics(
    tr: &Tracer,
    out: &mut Outcome,
    (lo, hi): (u64, u64),
    frames: usize,
    wall_s: f64,
) {
    let spans = tr
        .spans()
        .iter()
        .filter(|s| s.start >= lo && s.end <= hi)
        .count();
    let mut probe = Tracer::new(true);
    let reps = 10_000;
    let t = std::time::Instant::now();
    for i in 0..reps {
        let open = probe.begin("probe", i);
        black_box(probe.end(open));
    }
    let per_span = t.elapsed().as_secs_f64() / reps as f64;
    let m = &mut out.metrics;
    m.set("trace.coverage", crate::trace::coverage(tr.spans(), lo, hi));
    m.set("trace.overhead_frac", spans as f64 * per_span / wall_s);
    m.set("trace.frames_per_s", frames as f64 / wall_s);
}
