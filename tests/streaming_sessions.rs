//! Integration: the session API — stream round-trip parity with the
//! frame API, container overhead, operator-cache behavior, and
//! batch-engine determinism for whole streams.

use tepics::core::stream::{FRAME_RECORD_BYTES, STREAM_HEADER_BYTES};
use tepics::prelude::*;

fn imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// The acceptance property: a scene sequence encoded via
/// `EncodeSession::to_bytes` and decoded via `DecodeSession::push_bytes`
/// round-trips bit-identically to per-frame `capture`/`reconstruct`.
#[test]
fn session_stream_matches_per_frame_capture_reconstruct() {
    let im = imager(24, 0xDA7E);
    let scenes: Vec<ImageF64> = (0..5)
        .map(|i| Scene::gaussian_blobs(3).render(24, 24, i))
        .collect();

    // Frame API: capture, serialize, parse, cold-reconstruct each frame.
    let mut per_frame = Vec::new();
    for scene in &scenes {
        let frame = im.capture(scene);
        let received = CompressedFrame::from_bytes(&frame.to_bytes()).unwrap();
        let recon = Decoder::for_frame(&received)
            .unwrap()
            .reconstruct(&received)
            .unwrap();
        per_frame.push(recon);
    }

    // Session API: one stream, one decode session.
    let mut enc = EncodeSession::new(im).unwrap();
    for scene in &scenes {
        enc.capture(scene).unwrap();
    }
    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();

    assert_eq!(decoded.len(), per_frame.len());
    for (d, cold) in decoded.iter().zip(&per_frame) {
        assert_eq!(
            d.reconstruction, *cold,
            "frame {}: session decode diverged from per-frame decode",
            d.index
        );
    }
}

/// The container's whole point: one stream header + compact per-frame
/// records must undercut N repeated 27-byte frame headers (wire-bits
/// accounting, verified arithmetically and against the serialization).
#[test]
fn stream_header_overhead_beats_repeated_frame_headers() {
    let im = imager(16, 77);
    let scenes: Vec<ImageF64> = (0..6)
        .map(|i| Scene::natural_like().render(16, 16, i))
        .collect();
    let mut enc = EncodeSession::new(im.clone()).unwrap();
    let mut frame_codec_bits = 0;
    let mut payload_bytes = 0;
    for scene in &scenes {
        let records = enc.capture(scene).unwrap();
        let [frame] = records.as_slice() else {
            panic!("untiled capture yields one record");
        };
        assert_eq!(
            frame.wire_bits(),
            frame.to_bytes().len() * 8,
            "arithmetic wire_bits must match serialization"
        );
        frame_codec_bits += frame.wire_bits();
        payload_bytes += frame.payload_bits().div_ceil(8);
    }
    // Exact container accounting…
    assert_eq!(
        enc.wire_bits(),
        (STREAM_HEADER_BYTES + scenes.len() * FRAME_RECORD_BYTES + payload_bytes) * 8
    );
    assert_eq!(enc.wire_bits(), enc.to_bytes().len() * 8);
    // …and the headline inequality.
    assert!(
        enc.wire_bits() < frame_codec_bits,
        "stream {} bits must beat per-frame {} bits",
        enc.wire_bits(),
        frame_codec_bits
    );
}

/// Decoding ≥4 same-seed frames through one session builds Φ once; the
/// remaining frames are served warm — the deterministic half of the
/// cache claim (the wall-clock half is asserted by the `batch`
/// experiment's warm-vs-cold audit).
#[test]
fn one_operator_build_serves_a_same_seed_stream() {
    let im = imager(16, 0x5EED);
    let mut enc = EncodeSession::new(im).unwrap();
    for i in 0..4 {
        enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
            .unwrap();
    }
    let mut dec = DecodeSession::new();
    let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
    assert_eq!(decoded.len(), 4);
    let stats = dec.cache().stats();
    assert_eq!(stats.misses, 1, "Φ must be built exactly once");
    assert_eq!(stats.hits, 3, "frames 2–4 must decode warm");
}

/// Byte-at-a-time delivery: frames complete exactly when their last
/// byte arrives, and the result matches one-shot decoding.
#[test]
fn chunked_ingestion_is_equivalent_to_one_shot() {
    let im = imager(16, 31);
    let mut enc = EncodeSession::new(im).unwrap();
    for i in 0..3 {
        enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
            .unwrap();
    }
    let bytes = enc.into_bytes();

    let mut one_shot = DecodeSession::new();
    let expected = one_shot.push_bytes(&bytes).unwrap();

    let mut chunked = DecodeSession::new();
    let mut got = Vec::new();
    for chunk in bytes.chunks(13) {
        got.extend(chunked.push_bytes(chunk).unwrap());
    }
    assert_eq!(got, expected);
    assert_eq!(chunked.buffered_bytes(), 0);
}

/// Whole streams on the batch engine: `decode_streams` results are
/// bit-identical at any thread count (the PR-1 guarantee, extended from
/// single frames to sequences).
#[test]
fn batch_stream_decoding_is_thread_count_invariant() {
    let im = imager(16, 0xBA7C);
    let streams: Vec<Vec<u8>> = (0..5)
        .map(|s| {
            let mut enc = EncodeSession::new(im.clone()).unwrap();
            for i in 0..2 {
                enc.capture(&Scene::gaussian_blobs(3).render(16, 16, s * 7 + i))
                    .unwrap();
            }
            enc.into_bytes()
        })
        .collect();
    let serial = BatchRunner::with_threads(1).decode_streams(&streams);
    let parallel = BatchRunner::with_threads(8).decode_streams(&streams);
    assert_eq!(serial, parallel);
    assert_eq!(serial.failed_streams(), 0);
    assert_eq!(serial.total_frames(), 10);
    // And the shared cache means one build for the whole batch.
    let runner = BatchRunner::with_threads(4);
    runner.decode_streams(&streams);
    assert_eq!(runner.cache().stats().misses, 1);
}

/// Reconfiguring a session mid-stream takes effect from the next frame:
/// the setter drops the primed decoder, the next frame re-primes it
/// from the operator cache, and that frame decodes bit-identically to a
/// fresh session configured the new way from the start — on untiled
/// and tiled streams alike.
#[test]
fn mid_stream_reconfiguration_matches_a_fresh_session() {
    let tiled = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(0x7E1)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    for im in [imager(16, 0x7E1), tiled] {
        let (w, h) = (im.geometry().width(), im.geometry().height());
        let mut enc = EncodeSession::new(im).unwrap();
        let mut third_start = 0;
        for i in 0..3 {
            third_start = enc.wire_bits() / 8;
            enc.capture(&Scene::gaussian_blobs(3).render(w, h, i))
                .unwrap();
        }
        let bytes = enc.into_bytes();

        let mut session = DecodeSession::new();
        assert_eq!(session.push_bytes(&bytes[..third_start]).unwrap().len(), 2);
        session.params(RecoveryParams::low_latency());
        let third = session.push_bytes(&bytes[third_start..]).unwrap();

        let mut fresh = DecodeSession::new();
        fresh.params(RecoveryParams::low_latency());
        let reference = fresh.push_bytes(&bytes).unwrap();
        assert_eq!(third, reference[2..], "{w}×{h}");
        let unchanged = DecodeSession::new().push_bytes(&bytes).unwrap();
        assert_ne!(
            third[0].reconstruction, unchanged[2].reconstruction,
            "{w}×{h}: the new parameters must take effect"
        );
        assert_eq!(session.cache().stats().misses, 1, "{w}×{h}: Φ built once");
    }
}
