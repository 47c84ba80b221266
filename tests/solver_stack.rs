//! Solver-pluggable recovery stack: end-to-end identity guarantees.
//!
//! Every [`SolverKind`] must behave identically however it is driven:
//! cold per-frame decoders, warm cached sessions, and the parallel
//! batch engine all produce bit-identical reconstructions, because
//! every cached value (operator, dictionary, per-solver norm estimate,
//! column view) equals its cold rebuild and every workspace reset is
//! value-transparent.

use std::sync::Arc;

use tepics::core::batch::BatchRunner;
use tepics::prelude::*;

fn imager(side: usize, seed: u64) -> CompressiveImager {
    CompressiveImager::builder(side, side)
        .ratio(0.35)
        .seed(seed)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap()
}

/// Warm (cached session) decodes are bit-identical to cold (fresh
/// cacheless decoder) decodes for every solver kind — the cache and
/// workspace layers are value-transparent across the whole roster.
#[test]
fn warm_session_equals_cold_decoder_for_every_solver_kind() {
    let im = imager(16, 0xBEEF);
    let scenes: Vec<ImageF64> = (0..3)
        .map(|i| Scene::gaussian_blobs(2).render(16, 16, i))
        .collect();
    let frames: Vec<CompressedFrame> = scenes.iter().map(|s| im.capture(s)).collect();
    let k = frames[0].samples.len();
    for kind in SolverKind::shootout_set(k) {
        // Cold: a fresh cacheless decoder per frame.
        let cold: Vec<Reconstruction> = frames
            .iter()
            .map(|f| {
                let mut d = Decoder::for_frame(f).unwrap();
                d.algorithm(kind);
                d.reconstruct(f).unwrap()
            })
            .collect();
        // Warm: one session; frames 2..n hit every cache layer.
        let mut session = DecodeSession::new();
        session.algorithm(kind);
        for (i, f) in frames.iter().enumerate() {
            let warm = session.push_frame(f).unwrap();
            assert_eq!(
                warm.reconstruction, cold[i],
                "{kind:?}: frame {i} warm != cold"
            );
        }
        assert!(
            session.cache().stats().hits >= frames.len() as u64 - 1,
            "{kind:?}: session never went warm"
        );
    }
}

/// A shared cache serves many sessions without cross-talk: two sessions
/// with different solvers on one cache reproduce their private-cache
/// results exactly (per-solver norm entries and column views are keyed
/// per solver, so they can never mix).
#[test]
fn shared_cache_does_not_mix_solver_state() {
    let im = imager(16, 0x7EA);
    let scene = Scene::gaussian_blobs(3).render(16, 16, 9);
    let frame = im.capture(&scene);
    let k = frame.samples.len();
    let kinds = SolverKind::shootout_set(k);
    // Private-cache reference per kind.
    let reference: Vec<Reconstruction> = kinds
        .iter()
        .map(|&kind| {
            let mut s = DecodeSession::new();
            s.algorithm(kind);
            s.push_frame(&frame).unwrap().reconstruction
        })
        .collect();
    // All kinds through one shared cache, interleaved twice.
    let shared = Arc::new(OperatorCache::new());
    for round in 0..2 {
        for (i, &kind) in kinds.iter().enumerate() {
            let mut s = DecodeSession::with_cache(shared.clone());
            s.algorithm(kind);
            let got = s.push_frame(&frame).unwrap().reconstruction;
            assert_eq!(
                got, reference[i],
                "round {round}: {kind:?} changed under the shared cache"
            );
        }
    }
}

/// The batch engine's thread-count determinism holds for every solver
/// kind selected through `run_with`.
#[test]
fn batch_runs_identical_across_thread_counts_for_all_solvers() {
    let im = imager(16, 42);
    let scenes: Vec<ImageF64> = (0..4)
        .map(|i| Scene::gaussian_blobs(3).render(16, 16, i))
        .collect();
    let k = im.capture(&scenes[0]).samples.len();
    for kind in SolverKind::shootout_set(k) {
        let serial = BatchRunner::with_threads(1)
            .run_with(&im, &scenes, move |d| {
                d.algorithm(kind);
            })
            .unwrap();
        let parallel = BatchRunner::with_threads(4)
            .run_with(&im, &scenes, move |d| {
                d.algorithm(kind);
            })
            .unwrap();
        assert_eq!(
            serial.reports, parallel.reports,
            "{kind:?}: thread count changed batch results"
        );
    }
}

/// `RecoveryParams` presets drive the same path as setting solver and
/// dictionary by hand.
#[test]
fn recovery_params_equal_manual_configuration() {
    let im = imager(16, 5);
    let scene = Scene::star_field(5).render(16, 16, 2);
    let frame = im.capture(&scene);
    let params = RecoveryParams::star_field(10);
    let via_params = {
        let mut s = DecodeSession::new();
        s.params(params);
        s.push_frame(&frame).unwrap().reconstruction
    };
    let manual = {
        let mut s = DecodeSession::new();
        s.algorithm(params.solver).dictionary(params.dictionary);
        s.push_frame(&frame).unwrap().reconstruction
    };
    assert_eq!(via_params, manual);
}
