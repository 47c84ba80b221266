//! Integration: the resilient (version-3) wire path under fire.
//!
//! The acceptance properties of the resilience work, asserted end to
//! end through the public facade:
//!
//! * a v3 tiled stream at the 0.1%-byte corruption class decodes to
//!   completion with ≥90% of its frames recovered and no panics;
//! * a clean v3 stream decodes bit-identical to the compact (v1/v2)
//!   container carrying the same records;
//! * a frame whose record is lost is counted lost, later frames keep
//!   their true stream positions, and the next frame decodes
//!   bit-identical to a fresh decode of its record;
//! * a replayed record is counted stale and changes no frame;
//! * one corrupt stream in a batch degrades only itself;
//! * 2000 rounds of seeded hostile mutations never panic the v3 parser
//!   and never stop it terminating.
//!
//! Every fault is driven by a seeded [`FaultInjector`], so any failure
//! replays exactly from the assertion message's seed.

use tepics::core::stream::{
    StreamParser, RESILIENT_HEADER_BYTES, RESILIENT_RECORD_PREFIX_BYTES,
    RESILIENT_TILED_HEADER_BYTES, SYNC_INTERVAL,
};
use tepics::core::FaultInjector;
use tepics::prelude::*;

fn tiled_imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

fn untiled_imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Captures `n` frames into a v3 stream, returning the bytes and the
/// per-capture records (for byte-offset arithmetic and replays).
fn resilient_stream(
    imager: CompressiveImager,
    n: usize,
    scene_seed: u64,
) -> (Vec<u8>, Vec<Vec<CompressedFrame>>) {
    let geometry = imager.geometry();
    let (w, h) = (geometry.width(), geometry.height());
    let mut enc = EncodeSession::with_profile(imager, WireProfile::Resilient).unwrap();
    let mut captures = Vec::new();
    for i in 0..n {
        let scene = Scene::gaussian_blobs(3).render(w, h, scene_seed + i as u64);
        captures.push(enc.capture(&scene).unwrap());
    }
    (enc.into_bytes(), captures)
}

/// Drains a session over `bytes`, keeping everything decoded before
/// any poisoned tail.
fn decode_lenient(bytes: &[u8]) -> (Vec<DecodedFrame>, DecodeReport) {
    let mut dec = DecodeSession::new();
    let mut frames = dec.push_bytes(bytes).unwrap_or_default();
    frames.extend(dec.finish().unwrap_or_default());
    (frames, dec.report())
}

/// The headline acceptance: 0.1% byte corruption (header protected, as
/// on a handshake-negotiated link) must leave ≥90% of frames
/// recoverable, across several independent fault seeds.
#[test]
fn tiled_stream_survives_the_acceptance_corruption_rate() {
    let (clean, captures) = resilient_stream(tiled_imager(32, 0xACCE), 10, 500);
    let n_frames = captures.len();
    for fault_seed in [1u64, 2] {
        let mut dirty = clean.clone();
        // 0.1% of bytes hit ⇒ per-bit rate 0.001/8.
        let flipped = FaultInjector::new(fault_seed).flip_bits_after(
            &mut dirty,
            RESILIENT_TILED_HEADER_BYTES,
            0.001 / 8.0,
        );
        let (frames, report) = decode_lenient(&dirty);
        let recovered = frames.len() as f64 / n_frames as f64;
        assert!(
            recovered >= 0.9,
            "fault seed {fault_seed}: {flipped} flips recovered only {:.0}% \
             ({} corrupt events, {} bytes skipped)",
            recovered * 100.0,
            report.corrupt_events,
            report.bytes_skipped,
        );
        // The report's ledger must cover every frame of the stream.
        assert_eq!(
            report.frames_seen(),
            n_frames,
            "fault seed {fault_seed}: recovered + degraded + lost must account for all frames"
        );
    }
}

/// A clean v3 container is pure overhead: the same records decode
/// bit-identical to the v1 (untiled) and v2 (tiled) compact containers.
#[test]
fn clean_v3_decodes_bit_identical_to_compact_containers() {
    for tiled in [false, true] {
        let im = if tiled {
            tiled_imager(32, 0x1DE7)
        } else {
            untiled_imager(24, 0x1DE7)
        };
        let (v3_bytes, captures) = resilient_stream(im.clone(), 4, 80);
        let mut compact = EncodeSession::new(im).unwrap();
        for records in &captures {
            for r in records {
                compact.push_frame(r).unwrap();
            }
        }
        assert_eq!(compact.wire_version(), if tiled { 2 } else { 1 });

        let (v3, v3_report) = decode_lenient(&v3_bytes);
        let (compact_frames, _) = decode_lenient(&compact.into_bytes());
        assert_eq!(v3.len(), 4);
        assert_eq!(v3.len(), compact_frames.len());
        assert_eq!(v3_report.corrupt_events, 0);
        assert_eq!(v3_report.frames_degraded, 0);
        for (a, b) in v3.iter().zip(&compact_frames) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                a.reconstruction, b.reconstruction,
                "tiled={tiled} frame {}: v3 decode diverged from compact",
                a.index
            );
            assert_eq!(a.erased_tiles, 0);
        }
    }
}

/// Byte span of v3 record `i` after a `header_len`-byte stream header
/// (sync words every `SYNC_INTERVAL` records, fixed record length).
fn record_span(header_len: usize, captures: &[Vec<CompressedFrame>], i: usize) -> (usize, usize) {
    let record = &captures[0][0];
    let rec_len = RESILIENT_RECORD_PREFIX_BYTES
        + (record.sample_count() * record.header.sample_bits as usize).div_ceil(8)
        + 1;
    let start = header_len + 4 * (i / SYNC_INTERVAL + 1) + i * rec_len;
    (start, start + rec_len)
}

/// A gap in an untiled v3 stream: excising one record loses exactly
/// that frame. The frames after it keep their true stream positions
/// (from sequence numbers), and the first of them decodes bit-identical
/// to a fresh decode of the same record.
#[test]
fn dropped_record_is_counted_lost_and_keeps_stream_positions() {
    let im = untiled_imager(24, 0xDE17A);
    let (clean, captures) = resilient_stream(im, 5, 300);

    // Drop frame 2 entirely (mid-stream, not on a sync boundary).
    let (start, end) = record_span(RESILIENT_HEADER_BYTES, &captures, 2);
    let mut gapped = clean.clone();
    gapped.drain(start..end);

    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&gapped).unwrap();
    assert_eq!(
        decoded.iter().map(|d| d.index).collect::<Vec<_>>(),
        vec![0, 1, 3, 4],
        "frame 2 lost, indices preserved from sequence numbers"
    );
    assert_eq!(dec.report().frames_lost, 1);

    let mut fresh = DecodeSession::new();
    let reference = fresh.push_frame(&captures[3][0]).unwrap();
    assert_eq!(
        decoded[2].reconstruction, reference.reconstruction,
        "the frame after the gap must decode bit-identical to a fresh decode"
    );
}

/// A replayed record (one record duplicated in place, untiled and
/// tiled) is discarded as stale: the emitted frames equal the clean
/// decode, the ledger counts exactly one stale record, and the batch
/// runner reports the stream as degraded.
#[test]
fn duplicated_record_is_counted_stale_and_changes_no_frame() {
    for tiled in [false, true] {
        let (im, header_len) = if tiled {
            (tiled_imager(32, 0xD0B1), RESILIENT_TILED_HEADER_BYTES)
        } else {
            (untiled_imager(24, 0xD0B1), RESILIENT_HEADER_BYTES)
        };
        let (clean, captures) = resilient_stream(im, 3, 410);
        let (start, end) = record_span(header_len, &captures, 2);
        let mut replayed = clean[..end].to_vec();
        replayed.extend_from_slice(&clean[start..]);

        let (expected, _) = decode_lenient(&clean);
        let (frames, report) = decode_lenient(&replayed);
        assert_eq!(
            frames, expected,
            "tiled={tiled}: a replay changed the output"
        );
        assert_eq!(report.stale_records, 1, "tiled={tiled}");
        assert_eq!(report.corrupt_events, 0, "tiled={tiled}");

        let batch = BatchRunner::with_threads(1).decode_streams(&[replayed]);
        assert!(batch.outcomes[0].is_degraded(), "tiled={tiled}");
        assert_eq!(batch.outcomes[0].frames, expected, "tiled={tiled}");
    }
}

/// Batch isolation end to end: one corrupted v3 stream among clean
/// ones degrades only itself, and the outcome is thread-count
/// invariant.
#[test]
fn corrupt_v3_stream_degrades_only_itself_in_a_batch() {
    let im = tiled_imager(32, 0xBA7C);
    let streams: Vec<Vec<u8>> = (0..3)
        .map(|s| resilient_stream(im.clone(), 3, 700 + s * 11).0)
        .collect();
    let mut dirty = streams.clone();
    // Hammer the middle stream's record stretch hard enough to corrupt
    // records without killing the (unprotected-in-this-test) header.
    FaultInjector::new(77).flip_bits_after(&mut dirty[1], RESILIENT_TILED_HEADER_BYTES, 0.002);

    let serial = BatchRunner::with_threads(1).decode_streams(&dirty);
    let parallel = BatchRunner::with_threads(8).decode_streams(&dirty);
    assert_eq!(
        serial, parallel,
        "stream outcomes must be thread-count invariant"
    );
    assert_eq!(
        serial.failed_streams(),
        0,
        "v3 corruption degrades, not fails"
    );
    assert_eq!(serial.degraded_streams(), 1);
    assert_eq!(serial.clean_streams(), 2);
    let outcomes = &serial.outcomes;
    assert!(outcomes[1].is_degraded());
    assert!(outcomes[1].report.corrupt_events > 0);
    for i in [0, 2] {
        assert!(!outcomes[i].is_degraded(), "stream {i} must stay clean");
        assert_eq!(outcomes[i].frames.len(), 3);
        assert_eq!(outcomes[i].report.corrupt_events, 0);
    }
}

/// 2000 rounds of seeded hostile mutation against the v3 parser: any
/// mix of bit flips, burst erasures, truncation, duplication, and
/// adversarial re-chunking. The parser must never panic and must
/// always terminate (drain to `Ok(None)` or a sticky error in bounded
/// steps).
#[test]
fn v3_parser_survives_two_thousand_hostile_mutations() {
    let (clean, captures) = resilient_stream(untiled_imager(16, 0xF422), 6, 900);
    let n_frames = captures.len();

    for round in 0..2000u64 {
        let mut f = FaultInjector::new(round);
        let mut bytes = clean.clone();
        // Deterministic fault mix per round.
        match round % 5 {
            0 => {
                f.flip_bits(&mut bytes, 0.003);
            }
            1 => {
                f.burst_erase(&mut bytes, 64);
            }
            2 => {
                f.truncate(&mut bytes, 0);
            }
            3 => {
                f.duplicate_range(&mut bytes, 48);
            }
            _ => {
                f.flip_bits_after(&mut bytes, RESILIENT_HEADER_BYTES, 0.01);
                f.burst_erase(&mut bytes, 32);
            }
        }
        let chunks = f.rechunk(&bytes, 1 + (round as usize % 37));

        let mut parser = StreamParser::new();
        let mut drained = 0usize;
        // Termination bound: every event consumes ≥1 buffered byte, so
        // the total event count can never exceed the byte count (plus
        // one per frame for bookkeeping slack).
        let budget = bytes.len() + n_frames + 16;
        for chunk in &chunks {
            parser.push_bytes(chunk);
            loop {
                match parser.next_event() {
                    Ok(Some(_)) => {
                        drained += 1;
                        assert!(
                            drained <= budget,
                            "round {round}: parser emitted {drained} events over a \
                             {}-byte stream — runaway loop",
                            bytes.len()
                        );
                    }
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
            if parser.is_malformed() {
                break;
            }
        }
    }
}

/// The same hostile rounds through the full session (reconstruction
/// included) on a smaller budget: no panic, and the report's frame
/// ledger stays consistent. Complements the parser fuzz above with the
/// stitch/erasure layer.
#[test]
fn session_survives_hostile_mutations_with_consistent_reports() {
    let (clean, captures) = resilient_stream(tiled_imager(32, 0x5E55), 4, 1300);
    let n_frames = captures.len();
    for round in 0..10u64 {
        let mut f = FaultInjector::new(0xBAD0 + round);
        let mut bytes = clean.clone();
        match round % 4 {
            0 => {
                f.flip_bits_after(&mut bytes, RESILIENT_TILED_HEADER_BYTES, 0.002);
            }
            1 => {
                f.burst_erase(&mut bytes, 200);
            }
            2 => {
                f.truncate(&mut bytes, RESILIENT_TILED_HEADER_BYTES);
            }
            _ => {
                f.duplicate_range(&mut bytes, 100);
            }
        }
        let (frames, report) = decode_lenient(&bytes);
        assert!(
            frames.len() <= report.frames_seen().max(n_frames),
            "round {round}: more frames out than the ledger accounts for"
        );
        for d in &frames {
            let (w, h) = (
                d.reconstruction.code_image().width(),
                d.reconstruction.code_image().height(),
            );
            assert_eq!((w, h), (32, 32), "round {round}: malformed frame geometry");
        }
    }
}
