//! End-to-end focal-plane compressive sampling — the paper's system.
//!
//! This crate wires the TEPICS substrates into the pipeline of the DATE
//! 2018 paper:
//!
//! ```text
//! scene ──► CompressiveImager ──► CompressedFrame ──► wire bytes
//!              (sensor sim +          (seed + K           │
//!               CA strategy)         20-bit samples)      ▼
//!                                                   Decoder (replays
//!                                                   the CA from the
//!                                                   seed, mean-split +
//!                                                   sparse recovery)
//!                                                        │
//!                                                        ▼
//!                                                 reconstructed image
//! ```
//!
//! * [`CompressiveImager`] — captures compressed samples from a scene
//!   using the event-accurate sensor simulator and an on-chip strategy
//!   generator ([`StrategyKind`]).
//! * [`session`] — the stream-oriented public API: [`EncodeSession`]
//!   captures scene sequences into one contiguous wire stream,
//!   [`DecodeSession`] consumes bytes incrementally and reconstructs
//!   through a shared operator cache — including tiled streams, which
//!   are stitched back into full frames ([`FrameGeometry`] +
//!   [`TileConfig`] on the imager builder).
//!
//! [`FrameGeometry`]: tepics_imaging::tile::FrameGeometry
//! [`TileConfig`]: tepics_imaging::tile::TileConfig
//! * [`stream`] — the versioned stream container those sessions speak:
//!   stream header once, 5-byte per-frame records after.
//! * [`cache`] — the [`OperatorCache`] memoizing Φ, dictionaries, and
//!   FISTA step sizes across frames and batch items sharing a seed.
//! * [`CompressedFrame`] — the single-frame artifact: a tiny header plus
//!   bit-packed 20-bit samples; the measurement matrix itself is never
//!   transmitted (only the seed is), which is the paper's key saving.
//! * [`Decoder`] — the per-frame recovery engine: regenerates Φ from
//!   the seed, estimates the scene mean from the known per-row
//!   selection counts, and runs sparse recovery (FISTA/OMP/CoSaMP/IHT
//!   over DCT/Haar/identity).
//! * [`pipeline`] — capture → wire → reconstruct → quality report.
//! * [`batch`] — fans many capture→recover loops (or stream decodes)
//!   across worker threads and aggregates the reports (mean/percentile
//!   PSNR, wire totals, frames/sec) with bit-identical results at any
//!   thread count.
//! * [`BlockCs`] — the block-based CS baseline of refs. \[6–8\]/\[11\].
//! * [`params`] — Eq. (1)/(2) and the compression break-even point.
//!
//! # Examples
//!
//! ```
//! use tepics_core::prelude::*;
//!
//! let imager = CompressiveImager::builder(32, 32)
//!     .ratio(0.35)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let mut enc = EncodeSession::new(imager).unwrap();
//! let scene = Scene::gaussian_blobs(3).render(32, 32, 7);
//! enc.capture(&scene).unwrap();
//!
//! let mut dec = DecodeSession::new();
//! let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
//! let truth = enc.imager().ideal_codes(&scene);
//! let db = psnr(
//!     &truth.to_code_f64(),
//!     decoded[0].reconstruction.code_image(),
//!     255.0,
//! );
//! assert!(db > 20.0, "PSNR {db} dB unexpectedly low");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod cache;
pub mod decoder;
pub mod error;
pub mod faults;
pub mod frame;
pub mod imager;
pub mod params;
pub mod pipeline;
pub mod session;
pub mod solver;
pub mod strategy;
pub mod stream;

pub use baseline::BlockCs;
pub use batch::{BatchOutcome, BatchRunner, BatchSummary, StreamBatchOutcome, StreamOutcome};
pub use cache::{CacheConfig, CacheStats, OperatorCache, OperatorKey, DEFAULT_CACHE_BYTES};
pub use decoder::{Decoder, DictionaryKind, Reconstruction};
pub use error::CoreError;
pub use faults::FaultInjector;
pub use frame::{CompressedFrame, FrameHeader};
pub use imager::{CompressiveImager, CompressiveImagerBuilder};
pub use session::{DecodeReport, DecodeSession, DecodedFrame, EncodeSession, ErasurePolicy};
pub use solver::{RecoveryParams, SolverKind};
pub use strategy::StrategyKind;
pub use stream::{StreamEvent, WireProfile};

/// One-stop imports for the capture → transmit → reconstruct flow.
pub mod prelude {
    pub use crate::baseline::BlockCs;
    pub use crate::batch::{
        BatchOutcome, BatchRunner, BatchSummary, StreamBatchOutcome, StreamOutcome,
    };
    pub use crate::cache::{CacheConfig, CacheStats, OperatorCache};
    pub use crate::decoder::{Decoder, DictionaryKind, Reconstruction};
    pub use crate::faults::FaultInjector;
    pub use crate::frame::CompressedFrame;
    pub use crate::imager::CompressiveImager;
    pub use crate::pipeline::{evaluate, evaluate_with_cache, PipelineReport};
    pub use crate::session::{
        DecodeReport, DecodeSession, DecodedFrame, EncodeSession, ErasurePolicy,
    };
    pub use crate::solver::{RecoveryParams, SolverKind};
    pub use crate::strategy::StrategyKind;
    pub use crate::stream::{StreamEvent, WireProfile};
    pub use tepics_imaging::tile::{BlendMode, FrameGeometry, TileConfig, TileLayout};
    pub use tepics_imaging::{mae, mse, psnr, ssim, ImageF64, ImageU8, Scene};
    pub use tepics_sensor::{Fidelity, SensorConfig};
}
