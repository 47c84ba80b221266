//! Stateful codec sessions: the stream-oriented public API.
//!
//! The paper's deployment is a *stream*: a camera node captures frame
//! after frame with one seed, and only compressed samples (plus that
//! 64-bit seed, once) cross the wire. [`EncodeSession`] is the capture
//! side — it owns a [`CompressiveImager`] and appends every captured
//! frame to one contiguous [`stream`](crate::stream) container.
//! [`DecodeSession`] is the receiver — it consumes bytes incrementally
//! ([`DecodeSession::push_bytes`] returns zero or more decoded frames as
//! records complete) and owns an [`OperatorCache`], so the measurement
//! operator, dictionary, and FISTA step size are built once and reused
//! across every frame of the stream (and, when the cache is shared,
//! across batch items with the same seed).
//!
//! Sessions subsume the older single-frame entry points:
//!
//! | frame API (still works)                    | session API                           |
//! |--------------------------------------------|---------------------------------------|
//! | `imager.capture(&scene)` + `to_bytes()`    | `enc.capture(&scene)` + `to_bytes()`  |
//! | `CompressedFrame::from_bytes` + `Decoder`  | `dec.push_bytes(&bytes)`              |
//!
//! # Tiled streams
//!
//! When the imager is tiled (built with
//! [`CompressiveImagerBuilder::tiling`](crate::imager::CompressiveImagerBuilder::tiling)),
//! the session writes a version-2 stream whose header carries the tile
//! layout; each captured scene contributes one record per tile. The
//! decode side detects the layout from the wire, buffers each complete
//! tile group, recovers the tiles independently — in parallel across
//! [`DecodeSession::threads`] workers — and stitches them with overlap
//! blending into one full-frame [`Reconstruction`]. Stitching order is
//! deterministic, so decoded frames are bit-identical at every thread
//! count.
//!
//! Tiled decodes take one route, the process-wide persistent
//! [`WorkerPool`]: workers are spawned once, every executor keeps a warm
//! per-geometry solver workspace, and when a single
//! [`DecodeSession::push_bytes`] call completes the tile groups of
//! several frames, all their tiles fan out across the pool together —
//! frames of one stream *pipeline* instead of decoding strictly one
//! after another. At one thread, and for a session driven from a pool
//! worker, the same map runs inline on the calling thread.
//! [`DecodeSession::prewarm`] primes every executor up front so the
//! steady state spawns no threads and allocates nothing.
//!
//! # Examples
//!
//! ```
//! use tepics_core::prelude::*;
//! use tepics_core::session::{DecodeSession, EncodeSession};
//!
//! let imager = CompressiveImager::builder(16, 16)
//!     .ratio(0.35)
//!     .seed(9)
//!     .fidelity(Fidelity::Functional)
//!     .build()
//!     .unwrap();
//! let mut enc = EncodeSession::new(imager).unwrap();
//! for i in 0..3 {
//!     let scene = Scene::gaussian_blobs(2).render(16, 16, i);
//!     enc.capture(&scene).unwrap();
//! }
//!
//! let mut dec = DecodeSession::new();
//! let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
//! assert_eq!(decoded.len(), 3);
//! // Frames 2 and 3 reused the operator built for frame 1.
//! assert_eq!(dec.cache().stats().hits, 2);
//! ```

use std::sync::Arc;

use crate::cache::OperatorCache;
use crate::decoder::{Decoder, DictionaryKind, Reconstruction};
use crate::error::CoreError;
use crate::frame::{CompressedFrame, FrameHeader};
use crate::imager::CompressiveImager;
use crate::solver::{RecoveryParams, SolverKind};
use crate::stream::{
    StreamEvent, StreamParser, StreamWriter, WireProfile, STREAM_VERSION_RESILIENT,
};
use tepics_imaging::tile::{fill_uncovered, merge_tiles_sparse, TileLayout};
use tepics_imaging::ImageF64;
use tepics_recovery::{SolveStats, SolverWorkspace};
use tepics_sensor::EventStats;
use tepics_util::pool::WorkerPool;

/// Capture-side session: scenes in, one contiguous wire stream out.
#[derive(Debug, Clone)]
pub struct EncodeSession {
    imager: CompressiveImager,
    writer: StreamWriter,
}

impl EncodeSession {
    /// Opens an encode session around `imager`; the stream header is
    /// written immediately. A tiled imager opens a version-2 (tiled)
    /// stream whose header carries the tile layout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] if the imager's header
    /// cannot be represented by the container (e.g. samples wider than
    /// 32 bits).
    pub fn new(imager: CompressiveImager) -> Result<EncodeSession, CoreError> {
        EncodeSession::with_profile(imager, WireProfile::default())
    }

    /// Opens an encode session speaking a specific [`WireProfile`]:
    /// [`WireProfile::Compact`] writes the minimal version-1/2
    /// container, [`WireProfile::Resilient`] the CRC-guarded,
    /// self-synchronizing version-3 container for lossy transports.
    ///
    /// # Errors
    ///
    /// Returns the header errors of [`EncodeSession::new`].
    pub fn with_profile(
        imager: CompressiveImager,
        profile: WireProfile,
    ) -> Result<EncodeSession, CoreError> {
        let header = imager.frame_header();
        let writer = StreamWriter::new(header, imager.tile_layout(), profile)?;
        Ok(EncodeSession { imager, writer })
    }

    /// The container version this session's stream uses (1, 2, or 3).
    pub fn wire_version(&self) -> u8 {
        self.writer.wire_version()
    }

    /// The imager driving this session.
    pub fn imager(&self) -> &CompressiveImager {
        &self.imager
    }

    /// The stream header (shared by every frame record of the session;
    /// the **tile** header for a tiled imager).
    pub fn header(&self) -> &FrameHeader {
        self.writer.header()
    }

    /// The tile layout of a tiled session's stream, `None` otherwise.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.writer.tile_layout()
    }

    /// Captures a scene and appends it to the stream; the captured
    /// frame records are returned for local inspection — one per tile
    /// for a tiled imager (row-major tile order), a single record
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates container errors (which cannot occur for frames the
    /// session's own imager produced).
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the frame geometry.
    pub fn capture(&mut self, scene: &ImageF64) -> Result<Vec<CompressedFrame>, CoreError> {
        self.capture_with_stats(scene).map(|(frames, _)| frames)
    }

    /// Like [`EncodeSession::capture`], also returning the event-level
    /// statistics of the capture (merged across tiles for a tiled
    /// imager).
    ///
    /// # Errors
    ///
    /// Propagates container errors.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the frame geometry.
    pub fn capture_with_stats(
        &mut self,
        scene: &ImageF64,
    ) -> Result<(Vec<CompressedFrame>, EventStats), CoreError> {
        let (frames, stats) = self.imager.capture_tiles_with_stats(scene);
        for frame in &frames {
            self.writer.push_frame(frame)?;
        }
        Ok((frames, stats))
    }

    /// Appends a pre-captured frame record (it must match the stream
    /// header; for a tiled stream the caller is responsible for pushing
    /// complete row-major tile groups).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] on a header mismatch.
    pub fn push_frame(&mut self, frame: &CompressedFrame) -> Result<(), CoreError> {
        self.writer.push_frame(frame)
    }

    /// Number of scenes captured into the stream so far (each scene is
    /// one record untiled, `layout.tiles()` records tiled).
    pub fn frames(&self) -> usize {
        let per_frame = self
            .writer
            .tile_layout()
            .map_or(1, tepics_imaging::tile::TileLayout::tiles);
        self.writer.frames() / per_frame
    }

    /// Number of frame records written to the stream so far (equals
    /// [`EncodeSession::frames`] for untiled sessions).
    pub fn records(&self) -> usize {
        self.writer.frames()
    }

    /// Total wire size of the stream so far, in bits.
    pub fn wire_bits(&self) -> usize {
        self.writer.wire_bits()
    }

    /// The serialized stream so far (header + all frames).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.writer.bytes().to_vec()
    }

    /// Consumes the session, returning the serialized stream.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.writer.into_bytes()
    }
}

/// Degradation accounting of one [`DecodeSession`].
///
/// All counters are cumulative over the session's lifetime. On a clean
/// stream everything but `frames_recovered` (and `tiles_recovered`, if
/// tiled+resilient) stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// Frames decoded from fully intact records.
    pub frames_recovered: usize,
    /// Frames emitted with at least one erased tile (resilient tiled
    /// streams).
    pub frames_degraded: usize,
    /// Frame positions known to exist (from sequence numbers) that were
    /// never emitted because every record of the frame was lost.
    pub frames_lost: usize,
    /// Tiles decoded into emitted frames (resilient tiled streams).
    pub tiles_recovered: usize,
    /// Tiles erased from emitted (degraded) frames.
    pub tiles_erased: usize,
    /// Corruption events the parser resynchronized through.
    pub corrupt_events: usize,
    /// Total bytes the parser skipped as corrupt.
    pub bytes_skipped: usize,
    /// Duplicate/stale records discarded (replayed or re-ordered
    /// sequence numbers).
    pub stale_records: usize,
}

impl DecodeReport {
    /// Frames that came out of the session, degraded or not.
    #[must_use]
    pub fn frames_emitted(&self) -> usize {
        self.frames_recovered + self.frames_degraded
    }

    /// Frame positions the session knows about (emitted + lost).
    #[must_use]
    pub fn frames_seen(&self) -> usize {
        self.frames_emitted() + self.frames_lost
    }

    /// Fraction of known frame positions that produced a frame
    /// (1.0 for an empty or clean session).
    #[must_use]
    pub fn recovered_fraction(&self) -> f64 {
        let seen = self.frames_seen();
        if seen == 0 {
            1.0
        } else {
            self.frames_emitted() as f64 / seen as f64
        }
    }
}

/// One decoded frame out of a [`DecodeSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Position of the frame in the stream (0-based). On a resilient
    /// stream this is derived from wire sequence numbers, so it stays
    /// the *true* capture position even when earlier frames were lost.
    pub index: usize,
    /// Number of tiles erased (missing or corrupt) from this frame;
    /// 0 for a fully intact frame.
    pub erased_tiles: usize,
    /// The reconstruction.
    pub reconstruction: Reconstruction,
}

/// One complete (or partially erased) tile group buffered during an
/// event loop, awaiting decode. `slots` is in row-major tile order;
/// `None` marks an erased tile. Compact groups are always all-`Some`.
#[derive(Debug)]
struct GroupJob {
    /// Stream position of the frame this group stitches into.
    index: usize,
    /// The tile records, row-major.
    slots: Vec<Option<CompressedFrame>>,
}

/// Sticky-scratch slot key for a tile geometry: pool workers keep one
/// warm [`SolverWorkspace`] per distinct tile size, shared by every
/// session decoding that geometry.
fn scratch_key(header: &FrameHeader) -> u64 {
    (u64::from(header.rows) << 16) | u64::from(header.cols)
}

/// Stitches per-tile reconstructions (row-major, `None` = erased) into
/// one frame, pooling the solver stats (summed iterations,
/// root-sum-square residual of the disjoint tile systems). Pixels no
/// surviving tile covers are filled by deterministic inward diffusion
/// from the surviving boundary ([`fill_uncovered`]); a fully present
/// set covers every pixel, so complete and degraded groups share this
/// one path.
fn stitch_group(recons: &[Option<Reconstruction>], layout: &TileLayout) -> Reconstruction {
    let mut code_tiles: Vec<Option<Vec<f64>>> = Vec::with_capacity(recons.len());
    let mut stats = SolveStats {
        iterations: 0,
        residual_norm: 0.0,
        converged: true,
    };
    for recon in recons {
        let Some(recon) = recon else {
            code_tiles.push(None);
            continue;
        };
        stats.iterations += recon.stats().iterations;
        stats.residual_norm = stats.residual_norm.hypot(recon.stats().residual_norm);
        stats.converged &= recon.stats().converged;
        code_tiles.push(Some(recon.code_image().as_slice().to_vec()));
    }
    let (mut stitched, uncovered) = merge_tiles_sparse(&code_tiles, layout);
    if uncovered.iter().any(|&u| u) {
        fill_uncovered(&mut stitched, &uncovered);
    }
    let mean_code = stitched.mean();
    Reconstruction::from_parts(stitched, mean_code, stats)
}

/// Receiver-side session: wire bytes in, reconstructed frames out.
///
/// Bytes may arrive in arbitrary chunks; each [`DecodeSession::push_bytes`]
/// call returns the frames completed by that chunk. All decoding state —
/// the rebuilt measurement operator, the dictionary, the per-solver
/// operator-norm estimate, the column-materialized view (for greedy
/// solvers) and the solver workspace — lives in the session, keyed by
/// the stream header, so a long same-seed sequence pays the operator
/// construction cost exactly once and, once warm, decodes frames with
/// zero heap allocation inside the solver loop (the cached Φ carries
/// its precompiled gather structure; the workspace carries the
/// iterate, greedy, and least-squares buffers). The allocation-free guarantee
/// covers every [`SolverKind`] — including the greedy pursuits and the
/// CGLS debias pass.
#[derive(Debug, Clone, Default)]
pub struct DecodeSession {
    parser: StreamParser,
    cache: Arc<OperatorCache>,
    decoder: Option<Arc<Decoder>>,
    params: RecoveryParams,
    header: Option<FrameHeader>,
    decoded: usize,
    /// Worker threads for tiled decodes (0 and 1 both mean inline).
    threads: usize,
    /// Reused solver buffers of untiled decodes: one allocation for
    /// the whole stream. Tiled decodes solve on the executors' sticky
    /// workspaces instead.
    workspace: SolverWorkspace,
    /// Cumulative degradation accounting.
    report: DecodeReport,
    /// Next expected sequence number (resilient untiled streams).
    next_seq: u64,
    /// Slot-addressed tile group being assembled (`seq % tiles`
    /// indexes the slot; erased tiles of a resilient stream stay
    /// `None`).
    slots: Vec<Option<CompressedFrame>>,
    /// Frame index of the group in `slots`, if one is in progress.
    group_idx: Option<usize>,
    /// Lowest frame index still acceptable (everything below was
    /// already flushed or counted lost).
    group_floor: usize,
    /// An error hit after frames had already been decoded in the same
    /// [`DecodeSession::push_bytes`] call; surfaced (sticky) on the
    /// next call so those frames are not discarded.
    deferred: Option<CoreError>,
}

impl DecodeSession {
    /// A session with its own private [`OperatorCache`].
    #[must_use]
    pub fn new() -> DecodeSession {
        DecodeSession::default()
    }

    /// A session sharing `cache` (e.g. with other sessions of a batch,
    /// so same-seed items reuse one operator).
    #[must_use]
    pub fn with_cache(cache: Arc<OperatorCache>) -> DecodeSession {
        DecodeSession {
            cache,
            ..DecodeSession::default()
        }
    }

    /// The operator cache this session decodes through.
    pub fn cache(&self) -> &Arc<OperatorCache> {
        &self.cache
    }

    /// Selects the sparsifying dictionary.
    pub fn dictionary(&mut self, kind: DictionaryKind) -> &mut Self {
        self.params(RecoveryParams {
            dictionary: kind,
            ..self.params
        })
    }

    /// Selects the recovery algorithm (any [`SolverKind`]).
    pub fn algorithm(&mut self, algorithm: SolverKind) -> &mut Self {
        self.params(RecoveryParams {
            solver: algorithm,
            ..self.params
        })
    }

    /// Applies a bundled [`RecoveryParams`] (solver + dictionary). Any
    /// setter may be called mid-stream: it drops the session's decoder,
    /// and the next frame re-primes one from the operator cache, which
    /// holds all the heavy state.
    pub fn params(&mut self, params: RecoveryParams) -> &mut Self {
        self.params = params;
        self.decoder = None;
        self
    }

    /// Sets the worker-thread count for tiled decodes (default inline).
    /// Tiles are recovered concurrently — on the calling thread plus up
    /// to `threads − 1` persistent pool workers — and stitched in a
    /// deterministic order, so the result is **bit-identical for every
    /// thread count**; untiled decodes are unaffected.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads;
        self
    }

    /// The tile layout of the stream being decoded, once a tiled
    /// header has been parsed; `None` for untiled streams.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.parser.tile_layout()
    }

    /// The session's cumulative degradation accounting.
    pub fn report(&self) -> DecodeReport {
        self.report
    }

    /// Flushes the trailing partial tile group of a resilient tiled
    /// stream (the stream ended mid-frame, or its last records were
    /// lost), stitching the surviving tiles. No-op — and always empty —
    /// for compact streams, whose partial groups stay buffered awaiting
    /// more bytes.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors from stitching the final group.
    pub fn finish(&mut self) -> Result<Vec<DecodedFrame>, CoreError> {
        let mut out = Vec::new();
        if self.parser.wire_version() == Some(STREAM_VERSION_RESILIENT) {
            if let Some(layout) = self.parser.tile_layout().cloned() {
                if let Some(job) = self.flush_group(&layout) {
                    self.decode_jobs(vec![job], &layout, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// The stream header (the tile header on a tiled stream), once the
    /// first frame has been decoded or prewarmed.
    pub fn header(&self) -> Option<&FrameHeader> {
        self.header.as_ref()
    }

    /// Number of frames decoded so far.
    pub fn frames_decoded(&self) -> usize {
        self.decoded
    }

    /// Bytes received but not yet consumed by a complete frame.
    pub fn buffered_bytes(&self) -> usize {
        self.parser.buffered_bytes()
    }

    /// The session's decoder, built on the first frame and again after
    /// a setter dropped it. The session stays bound to the first header
    /// it primed for, so re-priming never changes which frames match.
    fn decoder_for(&mut self, header: &FrameHeader) -> Result<Arc<Decoder>, CoreError> {
        if let Some(decoder) = &self.decoder {
            return Ok(decoder.clone());
        }
        let header = self.header.unwrap_or(*header);
        let mut decoder = Decoder::for_header(&header)?;
        decoder.params(self.params).use_cache(self.cache.clone());
        let decoder = Arc::new(decoder);
        self.decoder = Some(decoder.clone());
        self.header = Some(header);
        Ok(decoder)
    }

    /// The session's sticky error, if one occurred: the parser's
    /// poisoned state, or a decode error whose preceding frames were
    /// already handed out by [`DecodeSession::push_bytes`].
    pub fn error(&self) -> Option<&CoreError> {
        self.deferred.as_ref().or_else(|| self.parser.error())
    }

    /// Feeds received bytes, returning every frame completed by them
    /// (possibly none).
    ///
    /// On a resilient (version-3) stream, corruption does not error:
    /// the parser resynchronizes, the session stitches what survives
    /// (filling erased tiles from their neighbours), and
    /// [`DecodeSession::report`] accumulates what was lost.
    ///
    /// Frames decoded before an error are never discarded: if a chunk
    /// decodes some frames and *then* hits an error, those frames are
    /// returned and the (sticky) error surfaces on the next call — see
    /// [`DecodeSession::error`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] on a corrupt compact
    /// (version-1/2) stream or a resilient stream with a damaged
    /// header (the parser error is sticky), plus any recovery error.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<Vec<DecodedFrame>, CoreError> {
        if let Some(e) = &self.deferred {
            return Err(e.clone());
        }
        self.parser.push_bytes(bytes);
        let mut out = Vec::new();
        let mut jobs = Vec::new();
        let parse_err = loop {
            match self.parser.next_event() {
                Ok(None) => break None,
                Err(e) => break Some(e),
                Ok(Some(event)) => {
                    if let Err(e) = self.handle_event(event, &mut out, &mut jobs) {
                        break Some(e);
                    }
                }
            }
        };
        // Tile groups completed by this chunk were buffered during the
        // event loop and decode together here, so complete groups of
        // *different frames* pipeline across the pool. A decode error
        // outranks a parse error: its group sits earlier in the stream
        // than wherever parsing stopped.
        let decode_err = match self.parser.tile_layout().cloned() {
            Some(layout) if !jobs.is_empty() => self.decode_jobs(jobs, &layout, &mut out).err(),
            _ => None,
        };
        self.report.corrupt_events = self.parser.corrupt_events();
        self.report.bytes_skipped = self.parser.bytes_skipped();
        match decode_err.or(parse_err) {
            Some(e) if out.is_empty() => Err(e),
            Some(e) => {
                self.deferred = Some(e);
                Ok(out)
            }
            None => Ok(out),
        }
    }

    /// Processes one parser event inside [`DecodeSession::push_bytes`]:
    /// untiled frames decode (and land in `out`) immediately, while
    /// completed tile groups are appended to `jobs` for the batched
    /// decode after the event loop.
    fn handle_event(
        &mut self,
        event: StreamEvent,
        out: &mut Vec<DecodedFrame>,
        jobs: &mut Vec<GroupJob>,
    ) -> Result<(), CoreError> {
        let StreamEvent::Frame { seq, frame } = event else {
            // Corruption totals are copied from the parser after the
            // event loop; record loss is detected through sequence
            // gaps.
            return Ok(());
        };
        let resilient = self.parser.wire_version() == Some(STREAM_VERSION_RESILIENT);
        match self.parser.tile_layout().cloned() {
            Some(layout) => self.push_tile(seq, frame, &layout, jobs),
            None if resilient => {
                if seq < self.next_seq {
                    self.report.stale_records += 1;
                    return Ok(());
                }
                self.report.frames_lost += (seq - self.next_seq) as usize;
                self.next_seq = seq + 1;
                out.push(self.decode(&frame, seq as usize)?);
            }
            None => out.push(self.decode(&frame, self.decoded)?),
        }
        Ok(())
    }

    /// Routes one tile record into its group slot, flushing groups
    /// (into `jobs`) as they complete or, on a resilient stream, as the
    /// stream moves past them. A compact stream numbers its records in
    /// parse order, so its groups always complete in turn.
    fn push_tile(
        &mut self,
        seq: u64,
        frame: CompressedFrame,
        layout: &TileLayout,
        jobs: &mut Vec<GroupJob>,
    ) {
        let tiles = layout.tiles();
        let frame_idx = seq as usize / tiles;
        let tile_idx = seq as usize % tiles;
        if frame_idx < self.group_floor || self.group_idx.is_some_and(|g| frame_idx < g) {
            self.report.stale_records += 1;
            return;
        }
        if let Some(current) = self.group_idx {
            if frame_idx > current {
                // The stream moved on: stitch what we have.
                jobs.extend(self.flush_group(layout));
            }
        }
        if self.group_idx.is_none() {
            // Frames between the floor and this record lost every tile.
            self.report.frames_lost += frame_idx - self.group_floor;
            self.group_floor = frame_idx;
            self.group_idx = Some(frame_idx);
            self.slots.clear();
            self.slots.resize(tiles, None);
        }
        if self.slots[tile_idx].is_some() {
            self.report.stale_records += 1;
        } else {
            self.slots[tile_idx] = Some(frame);
            if self.slots.iter().all(Option::is_some) {
                jobs.extend(self.flush_group(layout));
            }
        }
    }

    /// Closes the in-progress tile group into a decode job, or drops it
    /// when no tile survived, keeping the tile-level report accounting
    /// here so counters reflect stream order even though the solve
    /// happens later in [`DecodeSession::decode_jobs`].
    fn flush_group(&mut self, layout: &TileLayout) -> Option<GroupJob> {
        let frame_idx = self.group_idx.take()?;
        self.group_floor = frame_idx + 1;
        let total = layout.tiles();
        let present = self.slots.iter().flatten().count();
        if present == 0 {
            self.report.frames_lost += 1;
            return None;
        }
        if self.parser.wire_version() == Some(STREAM_VERSION_RESILIENT) {
            self.report.tiles_recovered += present;
            self.report.tiles_erased += total - present;
        }
        Some(GroupJob {
            index: frame_idx,
            slots: std::mem::take(&mut self.slots),
        })
    }

    /// Decodes one frame directly, bypassing the stream container (for
    /// callers that already hold parsed [`CompressedFrame`]s). The
    /// frame is decoded as an untiled capture — tiled decoding needs
    /// the stream's tile layout, which only
    /// [`DecodeSession::push_bytes`] sees.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] if the frame does not match
    /// the session, plus any recovery error.
    pub fn push_frame(&mut self, frame: &CompressedFrame) -> Result<DecodedFrame, CoreError> {
        self.decode(frame, self.decoded)
    }

    /// Decodes buffered tile groups in stream order, appending the
    /// stitched frames to `out`. The tile slots of all groups flatten
    /// into one [`WorkerPool::map`] — so a push that completed
    /// several frames pipelines them — and each executor solves on its
    /// sticky per-geometry workspace (zero allocation once warm). The
    /// map runs inline on the calling thread at `threads ≤ 1` and when
    /// called from a pool worker. Stitching and report accounting stay
    /// sequential in stream order, so output and counters are
    /// bit-identical at every thread count.
    ///
    /// On a tile decode error the frames stitched before it stay in
    /// `out` (the caller defers the error per the push contract) and
    /// later groups are dropped with the session's sticky error.
    fn decode_jobs(
        &mut self,
        mut jobs: Vec<GroupJob>,
        layout: &TileLayout,
        out: &mut Vec<DecodedFrame>,
    ) -> Result<(), CoreError> {
        let Some(first) = jobs.iter().flat_map(|j| j.slots.iter().flatten()).next() else {
            return Err(CoreError::InvalidConfig(
                "tile group has no surviving tile".into(),
            ));
        };
        let key = scratch_key(&first.header);
        let decoder = self.decoder_for(&first.header)?;
        let slots: Vec<Option<CompressedFrame>> = jobs
            .iter_mut()
            .flat_map(|job| std::mem::take(&mut job.slots))
            .collect();
        let solved = WorkerPool::global().map(self.threads, slots, move |_, slot, s| {
            slot.map(|frame| {
                let workspace = s.slot::<SolverWorkspace, _>(key, SolverWorkspace::default);
                decoder.reconstruct_with(&frame, workspace)
            })
        });
        // Results come back in input order: one run of slots per group.
        let mut solved = solved.into_iter();
        for job in jobs {
            let group = solved
                .by_ref()
                .take(layout.tiles())
                .map(Option::transpose)
                .collect::<Result<Vec<_>, _>>()?;
            out.push(self.emit_group(job.index, &group, layout));
        }
        Ok(())
    }

    /// Stitches one solved group and applies the frame-level
    /// accounting, in stream order.
    fn emit_group(
        &mut self,
        index: usize,
        recons: &[Option<Reconstruction>],
        layout: &TileLayout,
    ) -> DecodedFrame {
        let reconstruction = stitch_group(recons, layout);
        let erased = recons.iter().filter(|r| r.is_none()).count();
        self.decoded += 1;
        if erased == 0 {
            self.report.frames_recovered += 1;
        } else {
            self.report.frames_degraded += 1;
        }
        DecodedFrame {
            index,
            erased_tiles: erased,
            reconstruction,
        }
    }

    /// Warms the tile executors for `frame`'s geometry: primes the
    /// decoder (operator-cache build) and runs one solve of `frame` on
    /// every executor a tiled decode uses — the calling thread plus
    /// `threads − 1` distinct pool workers, so one inline solve at
    /// `threads ≤ 1` — so each acquires its sticky per-geometry
    /// [`SolverWorkspace`]. After a prewarm, steady-state tiled decodes
    /// of same-geometry streams spawn no threads and allocate nothing.
    ///
    /// Solve failures while warming are ignored — warming is
    /// best-effort and never changes results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for a degenerate header.
    pub fn prewarm(&mut self, frame: &CompressedFrame) -> Result<(), CoreError> {
        let decoder = self.decoder_for(&frame.header)?;
        let key = scratch_key(&frame.header);
        let frame = frame.clone();
        WorkerPool::global().broadcast(self.threads, move |s| {
            let workspace = s.slot::<SolverWorkspace, _>(key, SolverWorkspace::default);
            let _ = decoder.reconstruct_with(&frame, workspace);
        });
        Ok(())
    }

    /// Decodes one untiled frame at stream position `index`.
    fn decode(&mut self, frame: &CompressedFrame, index: usize) -> Result<DecodedFrame, CoreError> {
        let decoder = self.decoder_for(&frame.header)?;
        let reconstruction = decoder.reconstruct_with(frame, &mut self.workspace)?;
        self.decoded += 1;
        self.report.frames_recovered += 1;
        Ok(DecodedFrame {
            index,
            erased_tiles: 0,
            reconstruction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::{psnr, Scene};
    use tepics_sensor::Fidelity;

    fn imager(side: usize, seed: u64) -> CompressiveImager {
        CompressiveImager::builder(side, side)
            .ratio(0.35)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn session_roundtrip_matches_per_frame_pipeline() {
        // The acceptance property: a sequence encoded via
        // EncodeSession::to_bytes and decoded via push_bytes round-trips
        // bit-identically to per-frame capture/reconstruct.
        let im = imager(16, 42);
        let scenes: Vec<ImageF64> = (0..4)
            .map(|i| Scene::gaussian_blobs(2).render(16, 16, i))
            .collect();
        let mut enc = EncodeSession::new(im.clone()).unwrap();
        let mut per_frame = Vec::new();
        for scene in &scenes {
            let frame = im.capture(scene);
            let cold = Decoder::for_frame(&frame)
                .unwrap()
                .reconstruct(&frame)
                .unwrap();
            per_frame.push(cold);
            enc.capture(scene).unwrap();
        }
        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(decoded.len(), scenes.len());
        for (d, cold) in decoded.iter().zip(&per_frame) {
            assert_eq!(d.reconstruction, *cold, "frame {}", d.index);
        }
    }

    #[test]
    fn chunked_delivery_decodes_incrementally() {
        let im = imager(16, 7);
        let mut enc = EncodeSession::new(im).unwrap();
        for i in 0..3 {
            enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
                .unwrap();
        }
        let bytes = enc.into_bytes();
        let mut dec = DecodeSession::new();
        let mut total = 0;
        for chunk in bytes.chunks(97) {
            total += dec.push_bytes(chunk).unwrap().len();
        }
        assert_eq!(total, 3);
        assert_eq!(dec.frames_decoded(), 3);
        assert_eq!(dec.buffered_bytes(), 0);
    }

    #[test]
    fn operator_cache_hits_across_frames() {
        let im = imager(16, 5);
        let mut enc = EncodeSession::new(im).unwrap();
        for i in 0..4 {
            enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
                .unwrap();
        }
        let mut dec = DecodeSession::new();
        dec.push_bytes(&enc.to_bytes()).unwrap();
        let stats = dec.cache().stats();
        assert_eq!(stats.misses, 1, "one cold build");
        assert_eq!(stats.hits, 3, "three warm frames");
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn push_frame_rejects_a_frame_of_another_stream() {
        let scene = Scene::Uniform(0.5).render(16, 16, 0);
        let f1 = imager(16, 1).capture(&scene);
        let f2 = imager(16, 2).capture(&scene);
        let mut session = DecodeSession::new();
        session.push_frame(&f1).unwrap();
        assert!(matches!(
            session.push_frame(&f2),
            Err(CoreError::FrameMismatch(_))
        ));
    }

    fn tiled_imager(seed: u64) -> CompressiveImager {
        use tepics_imaging::tile::{FrameGeometry, TileConfig};
        CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.35)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn tiled_session_roundtrips_stitched_frames() {
        let im = tiled_imager(21);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::new(im).unwrap();
        let scenes: Vec<ImageF64> = (0..2)
            .map(|i| Scene::gaussian_blobs(3).render(40, 28, i))
            .collect();
        for scene in &scenes {
            let records = enc.capture(scene).unwrap();
            assert_eq!(records.len(), layout.tiles());
        }
        assert_eq!(enc.frames(), 2);
        assert_eq!(enc.records(), 2 * layout.tiles());

        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(decoded.len(), 2, "six records stitch into one frame each");
        assert_eq!(dec.tile_layout(), Some(&layout));
        for d in &decoded {
            let img = d.reconstruction.code_image();
            assert_eq!((img.width(), img.height()), (40, 28));
        }
        // One operator serves every tile of every frame.
        let stats = dec.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2 * layout.tiles() as u64 - 1);
    }

    #[test]
    fn tiled_decode_is_bit_identical_across_thread_counts() {
        let im = tiled_imager(0xA11CE);
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::natural_like().render(40, 28, 3))
            .unwrap();
        let bytes = enc.into_bytes();

        let mut baseline = DecodeSession::new();
        let serial = baseline.push_bytes(&bytes).unwrap();
        for threads in [2, 4, 7] {
            let mut dec = DecodeSession::new();
            dec.threads(threads);
            let parallel = dec.push_bytes(&bytes).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn tiled_decode_quality_tracks_the_scene() {
        let im = tiled_imager(77);
        let scene = Scene::gaussian_blobs(3).render(40, 28, 11);
        let ideal = {
            // Ideal codes of the full frame, from an untiled imager with
            // the same sensor settings.
            let full = CompressiveImager::builder(28, 40)
                .ratio(0.35)
                .fidelity(Fidelity::Functional)
                .build()
                .unwrap();
            full.ideal_codes(&scene).to_code_f64()
        };
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&scene).unwrap();
        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        let db = psnr(&ideal, decoded[0].reconstruction.code_image(), 255.0);
        assert!(db > 20.0, "stitched decode too poor: {db:.1} dB");
    }

    #[test]
    fn partial_tile_groups_wait_for_the_rest() {
        let im = tiled_imager(8);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::gaussian_blobs(2).render(40, 28, 1))
            .unwrap();
        let bytes = enc.into_bytes();
        let mut dec = DecodeSession::new();
        // Feed everything except the last record's final byte: no frame
        // may surface yet.
        let out = dec.push_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert!(out.is_empty(), "incomplete tile group must not decode");
        let out = dec.push_bytes(&bytes[bytes.len() - 1..]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            dec.tile_layout().map(TileLayout::tiles),
            Some(layout.tiles())
        );
    }

    #[test]
    fn corrupt_stream_surfaces_malformed_frame() {
        let im = imager(16, 3);
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::Uniform(0.4).render(16, 16, 0)).unwrap();
        let mut bytes = enc.into_bytes();
        bytes[2] ^= 0xFF; // corrupt the magic
        let mut dec = DecodeSession::new();
        assert!(matches!(
            dec.push_bytes(&bytes),
            Err(CoreError::MalformedFrame(_))
        ));
    }

    /// Byte span of resilient record `i` (its sync word excluded) for a
    /// stream whose records all have the same payload size.
    fn record_span(header_len: usize, rec_len: usize, i: usize) -> (usize, usize) {
        let start = header_len + 4 * (i / crate::stream::SYNC_INTERVAL + 1) + i * rec_len;
        (start, start + rec_len)
    }

    fn resilient_record_len(samples: usize, sample_bits: usize) -> usize {
        crate::stream::RESILIENT_RECORD_PREFIX_BYTES + (samples * sample_bits).div_ceil(8) + 1
    }

    #[test]
    fn clean_resilient_session_decodes_identical_to_compact() {
        for tiled in [false, true] {
            let im = if tiled {
                tiled_imager(31)
            } else {
                imager(16, 31)
            };
            let (w, h) = if tiled { (40, 28) } else { (16, 16) };
            let mut compact = EncodeSession::new(im.clone()).unwrap();
            let mut resilient = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
            for i in 0..3 {
                let scene = Scene::gaussian_blobs(2).render(w, h, i);
                compact.capture(&scene).unwrap();
                resilient.capture(&scene).unwrap();
            }
            assert_eq!(resilient.wire_version(), STREAM_VERSION_RESILIENT);
            let a = DecodeSession::new()
                .push_bytes(&compact.into_bytes())
                .unwrap();
            let mut dec = DecodeSession::new();
            let mut b = dec.push_bytes(&resilient.into_bytes()).unwrap();
            b.extend(dec.finish().unwrap());
            assert_eq!(a, b, "tiled={tiled}: clean v3 must match v1/v2 decode");
            let report = dec.report();
            assert_eq!(report.frames_recovered, 3);
            assert_eq!(report.frames_degraded + report.frames_lost, 0);
            assert_eq!(report.corrupt_events, 0);
            assert!((report.recovered_fraction() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erased_tile_degrades_gracefully() {
        let im = tiled_imager(77);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let frames = enc
            .capture(&Scene::gaussian_blobs(3).render(40, 28, 5))
            .unwrap();
        let bytes = enc.into_bytes();
        let rec_len = resilient_record_len(
            frames[0].samples.len(),
            frames[0].header.sample_bits as usize,
        );
        let (start, end) = record_span(crate::stream::RESILIENT_TILED_HEADER_BYTES, rec_len, 2);
        // Damage tile record 2's payload: its CRC fails, the tile is
        // erased, the other five stitch.
        let mut dirty = bytes.clone();
        dirty[start + 15] ^= 0x10;
        assert!(end <= bytes.len());

        let mut dec = DecodeSession::new();
        let mut out = dec.push_bytes(&dirty).unwrap();
        out.extend(dec.finish().unwrap());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].erased_tiles, 1);
        assert_eq!(out[0].index, 0);
        let img = out[0].reconstruction.code_image();
        assert_eq!((img.width(), img.height()), (40, 28));
        assert!(img.as_slice().iter().all(|v| v.is_finite()));
        let report = dec.report();
        assert_eq!(report.frames_degraded, 1);
        assert_eq!(report.tiles_erased, 1);
        assert_eq!(report.tiles_recovered, layout.tiles() - 1);
        assert_eq!(report.corrupt_events, 1);
        assert!(report.bytes_skipped >= rec_len);
    }
}
