//! Shared operator/dictionary cache for the decode hot path.
//!
//! Rebuilding the measurement operator is pure function of the frame
//! header: `(rows, cols, strategy, seed, k)` fully determines the CA
//! replay, the selection patterns, and therefore Φ. The same goes for
//! the sparsifying dictionary (`(kind, rows, cols)`), for the
//! column-materialized `Φ·Ψ` view the greedy solvers consume, and for
//! every solver's operator-norm estimate `‖ΦΨ‖` (a *seeded* power
//! iteration, so it too is deterministic). A decoder that processes a
//! stream of same-seed frames — the paper's video deployment — or a
//! batch of same-seed items therefore rebuilds identical state over and
//! over.
//!
//! [`OperatorCache`] memoizes all four. It is `Sync`: one cache can be
//! shared across the worker threads of a [`BatchRunner`] run, and
//! because every cached value is bit-identical to what a cold build
//! would produce, warm and cold decodes yield *exactly* the same
//! reconstructions — the batch engine's determinism guarantee survives
//! caching.
//!
//! # Size bounding
//!
//! Every entry family is byte-accounted (via [`XorMeasurement::bytes`],
//! [`ColumnMatrix::bytes`], and a dictionary size estimate) against a
//! configurable budget ([`CacheConfig`], default
//! [`DEFAULT_CACHE_BYTES`]). When a newly built entry would push the
//! resident total past the budget, least-recently-used entries are
//! evicted until it fits; an entry larger than the whole budget is
//! returned to the caller but never retained, so **the resident total
//! never exceeds the budget**. Tiled decodes make this matter: every
//! tile geometry of every stream is a distinct key, so a long-lived
//! shared cache would otherwise grow without bound. Eviction only
//! discards memoized values — a later lookup rebuilds the same bytes —
//! so warm, cold, and evicted-then-rebuilt decodes all stay
//! bit-identical. The unbounded behavior of earlier releases remains
//! available through the explicit [`CacheConfig::unbounded`] escape
//! hatch.
//!
//! # Key disciplines
//!
//! Every entry family carries the full set of inputs its value depends
//! on — nothing less, or two configurations could silently share state:
//!
//! * operators: [`OperatorKey`] `(rows, cols, strategy, seed, k)`;
//! * dictionaries: `(DictionaryKind, rows, cols)`;
//! * column views: `(OperatorKey, DictionaryKind)` — the view
//!   materializes `Φ·Ψ`, so both factors key it;
//! * norm estimates: `(OperatorKey, DictionaryKind, norm_seed)` — the
//!   **per-solver** power-iteration seed is part of the key because
//!   every solver runs its estimate with its own seed
//!   ([`norm_seeds`](tepics_recovery::solver::norm_seeds)); collapsing
//!   the seed out of the key would hand one solver another's step size
//!   and silently change reconstructions (pinned by a test below).
//!
//! The cached Φ is stored in its precompiled fast-path form:
//! [`XorMeasurement`] compiles its selected-row/column index lists and
//! group masks at construction, so every warm lookup hands decoders an
//! operator whose `apply`/`apply_adjoint` are pure gather-sums — the
//! per-frame cost of a warm streaming decode is the solver loop alone.
//!
//! [`BatchRunner`]: crate::batch::BatchRunner

#[allow(clippy::disallowed_types)] // see clippy.toml: keyed lookup only
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::decoder::{build_dictionary, DictImpl, DictionaryKind};
use crate::error::CoreError;
use crate::strategy::StrategyKind;
use tepics_cs::colview::ColumnMatrix;
use tepics_cs::measurement::SelectionMeasurement;
use tepics_cs::XorMeasurement;

/// Default byte budget of a bounded cache (512 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// Fixed per-entry accounting overhead (key, slot bookkeeping, map
/// slack) added to every entry's payload bytes.
const ENTRY_OVERHEAD: usize = 64;

/// Size policy of an [`OperatorCache`].
///
/// The default is a budget of [`DEFAULT_CACHE_BYTES`] with LRU
/// eviction; [`CacheConfig::byte_budget`] tightens or widens it, and
/// [`CacheConfig::unbounded`] is the explicit escape hatch restoring
/// the grow-forever behavior of earlier releases.
///
/// # Examples
///
/// ```
/// use tepics_core::cache::{CacheConfig, OperatorCache};
///
/// let small = OperatorCache::with_config(CacheConfig::new().byte_budget(1 << 20));
/// assert_eq!(small.byte_budget(), Some(1 << 20));
/// let wild = OperatorCache::with_config(CacheConfig::unbounded());
/// assert_eq!(wild.byte_budget(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    budget: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget: Some(DEFAULT_CACHE_BYTES),
        }
    }
}

impl CacheConfig {
    /// The default policy: bounded at [`DEFAULT_CACHE_BYTES`].
    #[must_use]
    pub fn new() -> CacheConfig {
        CacheConfig::default()
    }

    /// Sets the byte budget.
    #[must_use]
    pub fn byte_budget(mut self, bytes: usize) -> CacheConfig {
        self.budget = Some(bytes);
        self
    }

    /// No byte budget: entries are never evicted. Opting out of the
    /// bound is deliberate and explicit — long-lived caches fed many
    /// geometries (tiled workloads, multi-stream services) should keep
    /// the default instead.
    #[must_use]
    pub fn unbounded() -> CacheConfig {
        CacheConfig { budget: None }
    }

    /// The configured budget (`None` = unbounded).
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }
}

/// Everything that determines a measurement operator — the cache key.
///
/// The `Ord` derive gives cache keys a stable total order, used as the
/// deterministic eviction tie-break (field order: geometry, strategy,
/// seed, measurement count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorKey {
    /// Array rows (M).
    pub rows: u16,
    /// Array columns (N).
    pub cols: u16,
    /// Strategy family and parameters.
    pub strategy: StrategyKind,
    /// Strategy seed.
    pub seed: u64,
    /// Number of measurements (rows of Φ).
    pub k: usize,
}

/// Counters of an [`OperatorCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Operator lookups served from the cache, including lookups that
    /// waited for a concurrent build of the same key.
    pub hits: u64,
    /// Operator lookups that built Φ — exactly the builds: same-key
    /// callers share one build, so this never counts a key twice while
    /// its entry stays resident.
    pub misses: u64,
    /// Entries discarded to respect the byte budget (all families).
    pub evictions: u64,
    /// Bytes currently retained across all entry families.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served warm (`0.0` for an unused cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type DictKey = (DictionaryKind, u16, u16);
type NormKey = (OperatorKey, DictionaryKind, u64);
type ColumnKey = (OperatorKey, DictionaryKind);

/// Identifies one entry across the four families. The derived total
/// order is the deterministic tie-break of [`Inner::lru_victim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum AnyKey {
    Op(OperatorKey),
    Dict(DictKey),
    Norm(NormKey),
    Column(ColumnKey),
}

/// One memoized value; its variant always matches its [`AnyKey`]. An
/// operator entry is Φ plus its precomputed selection counts.
#[derive(Debug, Clone)]
enum Entry {
    Op(Arc<XorMeasurement>, Arc<Vec<f64>>),
    Dict(Arc<DictImpl>),
    Norm(f64),
    Column(Arc<ColumnMatrix>),
}

/// The build cell of one key. A failed build is stored so every caller
/// waiting on the cell sees the error, then the slot is dropped so the
/// next lookup builds (and fails) again.
type Cell = Arc<OnceLock<Result<Entry, CoreError>>>;

/// A lazily initialized entry: the value builds behind its own
/// [`OnceLock`] (outside the cache lock); `bytes` stays `0` until the
/// builder commits the entry's accounted size, and uncommitted entries
/// are never evicted.
#[derive(Debug)]
struct Slot {
    cell: Cell,
    bytes: usize,
    tick: u64,
}

/// Everything behind the cache lock: the slot map, the LRU clock, and
/// the byte accounting.
///
/// The map is a `HashMap` for O(1) keyed lookup; the only place that
/// *iterates* it is [`Inner::lru_victim`], which reduces to a
/// min-by-`(tick, key)` — a total order independent of iteration
/// order — so hash randomization can never reach a result.
#[derive(Debug, Default)]
#[allow(clippy::disallowed_types)] // see clippy.toml + the hash-iter marker below
struct Inner {
    // tidy:allow(hash-iter: keyed lookup only; the lru_victim scan tie-breaks on a total order)
    slots: HashMap<AnyKey, Slot>,
    tick: u64,
    resident: usize,
    evictions: u64,
}

impl Inner {
    /// Bumps the LRU clock, touches (or creates) `key`'s slot, and
    /// returns its build cell. Ticks are unique: every touch increments
    /// the clock and stamps the slot with the fresh value, so no two
    /// slots ever carry the same tick (the key tie-break in
    /// [`Inner::lru_victim`] is pure belt-and-suspenders).
    fn touch(&mut self, key: AnyKey) -> Cell {
        self.tick += 1;
        let slot = self.slots.entry(key).or_insert_with(|| Slot {
            cell: Arc::new(OnceLock::new()),
            bytes: 0,
            tick: 0,
        });
        slot.tick = self.tick;
        slot.cell.clone()
    }

    /// The uncommitted slot of `key`, provided it still holds `cell`.
    fn pending(&mut self, key: AnyKey, cell: &Cell) -> Option<&mut Slot> {
        self.slots
            .get_mut(&key)
            .filter(|slot| Arc::ptr_eq(&slot.cell, cell) && slot.bytes == 0)
    }

    /// Removes a committed entry, releasing its bytes.
    fn remove(&mut self, key: AnyKey) {
        if let Some(slot) = self.slots.remove(&key) {
            self.resident -= slot.bytes;
            self.evictions += 1;
        }
    }

    /// The least-recently-touched committed entry other than `protect`.
    ///
    /// Selection is min-by-`(tick, key)`. Ticks are unique by
    /// construction (see [`Inner::touch`]), but the key tie-break makes
    /// the choice *provably* independent of `HashMap` iteration order,
    /// so the eviction sequence is deterministic even if tick
    /// uniqueness were ever broken by a future refactor.
    fn lru_victim(&self, protect: AnyKey) -> Option<AnyKey> {
        self.slots
            .iter()
            .filter(|(key, slot)| slot.bytes > 0 && **key != protect)
            .map(|(key, slot)| (slot.tick, *key))
            .min()
            .map(|(_, key)| key)
    }

    /// Evicts LRU entries until the resident total fits `budget`,
    /// protecting the just-committed entry — unless that entry alone
    /// exceeds the budget, in which case it is dropped immediately (its
    /// value was already handed to the caller; it is just not
    /// retained).
    fn enforce(&mut self, budget: usize, protect: AnyKey) {
        if self.slots.get(&protect).is_some_and(|s| s.bytes > budget) {
            self.remove(protect);
            return;
        }
        while self.resident > budget {
            match self.lru_victim(protect) {
                Some(victim) => self.remove(victim),
                // Only the protected entry remains; it fits (checked
                // above), so the accounting says we are done.
                None => break,
            }
        }
    }
}

/// Memoizes measurement operators, dictionaries, column-materialized
/// views, and per-solver operator-norm estimates across frames,
/// streams, and batch items — within a configurable byte budget
/// ([`CacheConfig`], LRU eviction; see the module docs).
///
/// Cheap to share: wrap in an [`Arc`] (or use [`OperatorCache::shared`])
/// and clone the handle into every decoder/session that should reuse
/// the same state.
///
/// Lookups are single-flight: each key builds inside its own
/// [`OnceLock`], so concurrent callers of one key wait for a single
/// build (and [`CacheStats::misses`] counts exactly the operator
/// builds). The inner `Mutex` guards only the slot map and the byte
/// accounting and is never held during a build, so distinct keys in a
/// parallel batch still build in parallel.
#[derive(Debug)]
pub struct OperatorCache {
    inner: Mutex<Inner>,
    budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for OperatorCache {
    fn default() -> Self {
        Self::new()
    }
}

impl OperatorCache {
    /// An empty cache with the default size policy
    /// ([`DEFAULT_CACHE_BYTES`] budget, LRU eviction).
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(CacheConfig::default())
    }

    /// An empty cache with an explicit size policy.
    #[must_use]
    pub fn with_config(config: CacheConfig) -> Self {
        OperatorCache {
            inner: Mutex::new(Inner::default()),
            budget: config.budget(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty default-policy cache behind an [`Arc`], ready to share.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// An empty cache with an explicit size policy, behind an [`Arc`].
    #[must_use]
    pub fn shared_with(config: CacheConfig) -> Arc<Self> {
        Arc::new(Self::with_config(config))
    }

    /// The byte budget this cache enforces (`None` = unbounded).
    #[must_use]
    pub fn byte_budget(&self) -> Option<usize> {
        self.budget
    }

    /// Acquires the cache lock, recovering from poisoning. A poisoned
    /// lock means another thread panicked while holding the guard; every
    /// mutation under this lock is a single-field write or a complete
    /// map operation, so the inner state stays structurally sound (at
    /// worst the byte accounting is conservative) and the cache keeps
    /// serving rather than cascading the panic.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes currently retained across all entry families (always at
    /// most the budget, when one is set).
    pub fn resident_bytes(&self) -> usize {
        self.locked().resident
    }

    /// Counters so far: operator hit/miss counts, evictions across all
    /// families, and the resident byte total.
    pub fn stats(&self) -> CacheStats {
        let inner = self.locked();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions,
            resident_bytes: inner.resident,
        }
    }

    /// The entry for `key`, built with `build` (which also returns the
    /// entry's accounted payload bytes) on first use.
    ///
    /// The build runs inside the slot's [`OnceLock`], outside the map
    /// lock: same-key callers wait for it, distinct keys proceed in
    /// parallel. The builder then commits the entry's bytes and
    /// enforces the budget. A build error leaves no slot behind, so the
    /// next lookup builds again; a panicking build leaves its cell
    /// empty, so the next lookup retries it.
    fn get_or_build(
        &self,
        key: AnyKey,
        build: impl FnOnce() -> Result<(Entry, usize), CoreError>,
    ) -> Result<Entry, CoreError> {
        let cell = self.locked().touch(key);
        let mut built_bytes = None;
        let result = cell
            .get_or_init(|| {
                build().map(|(entry, bytes)| {
                    built_bytes = Some(bytes);
                    entry
                })
            })
            .clone();
        if result.is_err() {
            let mut inner = self.locked();
            if inner.pending(key, &cell).is_some() {
                inner.slots.remove(&key);
            }
        } else if let Some(bytes) = built_bytes {
            let bytes = ENTRY_OVERHEAD + bytes;
            let mut inner = self.locked();
            if let Some(slot) = inner.pending(key, &cell) {
                slot.bytes = bytes;
                inner.resident += bytes;
                if let Some(budget) = self.budget {
                    inner.enforce(budget, key);
                }
            }
        }
        result
    }

    /// The measurement operator and selection counts for `key`,
    /// building and memoizing them on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the strategy parameters
    /// in `key` are invalid.
    pub(crate) fn operator(
        &self,
        key: &OperatorKey,
    ) -> Result<(Arc<XorMeasurement>, Arc<Vec<f64>>), CoreError> {
        let mut built = false;
        let entry = self.get_or_build(AnyKey::Op(*key), || {
            built = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let (rows, cols) = (key.rows as usize, key.cols as usize);
            let mut source = key.strategy.build_source(rows + cols, key.seed)?;
            let phi = XorMeasurement::from_source(rows, cols, source.as_mut(), key.k);
            let counts = phi.selection_counts();
            let bytes = phi.bytes() + counts.len() * std::mem::size_of::<f64>();
            Ok((Entry::Op(Arc::new(phi), Arc::new(counts)), bytes))
        })?;
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let Entry::Op(phi, counts) = entry else {
            // tidy:allow(panic: get_or_build stores only Entry::Op under an AnyKey::Op key)
            unreachable!("operator key holds a non-operator entry")
        };
        Ok((phi, counts))
    }

    /// The dictionary for `(kind, rows, cols)`, built on first use.
    pub(crate) fn dictionary(&self, kind: DictionaryKind, rows: u16, cols: u16) -> Arc<DictImpl> {
        let (r, c) = (rows as usize, cols as usize);
        let entry = self.get_or_build(AnyKey::Dict((kind, rows, cols)), || {
            let dict = Arc::new(build_dictionary(kind, r, c));
            Ok((Entry::Dict(dict), dict_bytes_estimate(kind, r, c)))
        });
        let Ok(Entry::Dict(dict)) = entry else {
            // tidy:allow(panic: the dictionary build is infallible and stored as Entry::Dict)
            unreachable!("dictionary key holds a non-dictionary entry")
        };
        dict
    }

    /// The memoized operator-norm estimate `‖ΦΨ‖` for
    /// `(key, kind, norm_seed)`, computing it with `compute` on first
    /// use. `norm_seed` must be the requesting solver's own
    /// power-iteration seed — it is part of the key precisely so two
    /// solvers can never be served each other's estimate. Returns `None`
    /// when the composed operator is (numerically) zero, in which case
    /// the caller must let the solver take its own zero-operator path.
    pub(crate) fn operator_norm(
        &self,
        key: &OperatorKey,
        kind: DictionaryKind,
        norm_seed: u64,
        compute: impl FnOnce() -> f64,
    ) -> Option<f64> {
        let entry = self.get_or_build(AnyKey::Norm((*key, kind, norm_seed)), || {
            Ok((Entry::Norm(compute()), std::mem::size_of::<f64>()))
        });
        let Ok(Entry::Norm(norm)) = entry else {
            // tidy:allow(panic: the norm computation is infallible and stored as Entry::Norm)
            unreachable!("norm key holds a non-norm entry")
        };
        (norm > 0.0).then_some(norm)
    }

    /// The memoized column-materialized `Φ·Ψ` view for `(key, kind)`,
    /// building it with `build` on first use. Greedy decodes attach the
    /// returned view to their composed operator; the build is
    /// deterministic, so warm views equal a cold materialization bit for
    /// bit.
    pub(crate) fn column_view(
        &self,
        key: &OperatorKey,
        kind: DictionaryKind,
        build: impl FnOnce() -> ColumnMatrix,
    ) -> Arc<ColumnMatrix> {
        let entry = self.get_or_build(AnyKey::Column((*key, kind)), || {
            let view = build();
            let bytes = view.bytes();
            Ok((Entry::Column(Arc::new(view)), bytes))
        });
        let Ok(Entry::Column(view)) = entry else {
            // tidy:allow(panic: the view build is infallible and stored as Entry::Column)
            unreachable!("column key holds a non-column entry")
        };
        view
    }
}

/// Approximate heap footprint of a built dictionary (cache
/// accounting): the DCT's 1-D transforms fall back to an `n × n` basis
/// matrix per axis for non-power-of-two lengths, Haar keeps O(pixels)
/// of level scratch, identity stores nothing.
fn dict_bytes_estimate(kind: DictionaryKind, rows: usize, cols: usize) -> usize {
    let dct1d = |n: usize| {
        if n.is_power_of_two() {
            32 * n
        } else {
            8 * n * n
        }
    };
    match kind {
        DictionaryKind::Dct2d => dct1d(rows) + dct1d(cols),
        DictionaryKind::Haar2d => 8 * rows * cols,
        DictionaryKind::Identity => std::mem::size_of::<usize>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64, k: usize) -> OperatorKey {
        OperatorKey {
            rows: 16,
            cols: 16,
            strategy: StrategyKind::rule30(64),
            seed,
            k,
        }
    }

    #[test]
    fn operator_is_built_once_per_key() {
        let cache = OperatorCache::new();
        let (phi1, counts1) = cache.operator(&key(7, 40)).unwrap();
        let (phi2, counts2) = cache.operator(&key(7, 40)).unwrap();
        assert!(Arc::ptr_eq(&phi1, &phi2), "second lookup must be warm");
        assert!(Arc::ptr_eq(&counts1, &counts2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn distinct_keys_miss_independently() {
        let cache = OperatorCache::new();
        cache.operator(&key(1, 40)).unwrap();
        cache.operator(&key(2, 40)).unwrap(); // different seed
        cache.operator(&key(1, 50)).unwrap(); // different k
        cache.operator(&key(1, 40)).unwrap(); // warm
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cached_operator_equals_cold_rebuild() {
        let cache = OperatorCache::new();
        let k = key(0xFEED, 32);
        let (phi, counts) = cache.operator(&k).unwrap();
        let mut source = k.strategy.build_source(32, k.seed).unwrap();
        let cold = XorMeasurement::from_source(16, 16, source.as_mut(), 32);
        assert_eq!(*phi, cold);
        assert_eq!(*counts, cold.selection_counts());
    }

    #[test]
    fn invalid_strategy_surfaces_config_error() {
        let cache = OperatorCache::new();
        let bad = OperatorKey {
            rows: 8,
            cols: 8,
            strategy: StrategyKind::Lfsr { width: 64 },
            seed: 1,
            k: 4,
        };
        // Nothing is retained, so every call builds and fails again.
        for _ in 0..2 {
            assert!(matches!(
                cache.operator(&bad),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn operator_norm_is_computed_once_per_solver_seed() {
        use tepics_recovery::solver::norm_seeds;
        let cache = OperatorCache::new();
        let k = key(3, 10);
        let seed = norm_seeds::FISTA;
        let first = cache.operator_norm(&k, DictionaryKind::Dct2d, seed, || 0.25);
        let second = cache.operator_norm(&k, DictionaryKind::Dct2d, seed, || {
            panic!("must be memoized")
        });
        assert_eq!(first, Some(0.25));
        assert_eq!(second, Some(0.25));
        // A zero norm is remembered as "no override".
        let zero = cache.operator_norm(&k, DictionaryKind::Haar2d, seed, || 0.0);
        assert_eq!(zero, None);
    }

    /// The regression this key shape exists to prevent: two solvers
    /// asking for the norm of the *same* operator/dictionary must get
    /// independent entries (their power iterations run with different
    /// seeds, so their estimates legitimately differ). A key collision
    /// here would silently hand one solver the other's step size.
    #[test]
    fn norm_entries_never_cross_solver_seeds() {
        use tepics_recovery::solver::norm_seeds;
        let cache = OperatorCache::new();
        let k = key(7, 12);
        let fista = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::FISTA, || 1.25);
        let ista = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::ISTA, || 1.50);
        let iht = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::IHT, || 1.75);
        let amp = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::AMP, || 2.00);
        assert_eq!(fista, Some(1.25));
        assert_eq!(ista, Some(1.50));
        assert_eq!(iht, Some(1.75));
        assert_eq!(amp, Some(2.00));
        // And each stays what its own solver computed.
        let again = cache.operator_norm(&k, DictionaryKind::Dct2d, norm_seeds::FISTA, || {
            panic!("must be memoized")
        });
        assert_eq!(again, Some(1.25));
    }

    #[test]
    fn column_views_are_memoized_per_operator_and_dictionary() {
        use tepics_cs::colview::ColumnMatrix;
        use tepics_cs::DenseMatrix;
        let cache = OperatorCache::new();
        let k1 = key(1, 6);
        let build = || ColumnMatrix::from_operator(&DenseMatrix::identity(4));
        let a = cache.column_view(&k1, DictionaryKind::Dct2d, build);
        let b = cache.column_view(&k1, DictionaryKind::Dct2d, || panic!("must be memoized"));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be warm");
        // A different dictionary (or operator key) is a different view.
        let c = cache.column_view(&k1, DictionaryKind::Identity, build);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = cache.column_view(&key(2, 6), DictionaryKind::Dct2d, build);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn dictionaries_are_shared_per_geometry() {
        let cache = OperatorCache::new();
        let a = cache.dictionary(DictionaryKind::Dct2d, 16, 16);
        let b = cache.dictionary(DictionaryKind::Dct2d, 16, 16);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.dictionary(DictionaryKind::Dct2d, 8, 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// The headline bound: a many-geometry workload (every key
    /// distinct) never pushes the resident total past the budget, and
    /// eviction actually fires.
    #[test]
    fn byte_budget_is_never_exceeded_under_many_geometries() {
        let probe = OperatorCache::with_config(CacheConfig::unbounded());
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();
        assert!(one > 0);

        let budget = one * 3 + one / 2; // room for ~3 operators
        let cache = OperatorCache::with_config(CacheConfig::new().byte_budget(budget));
        for seed in 0..12 {
            cache.operator(&key(seed, 40)).unwrap();
            assert!(
                cache.resident_bytes() <= budget,
                "resident {} exceeds budget {budget} after seed {seed}",
                cache.resident_bytes()
            );
        }
        let stats = cache.stats();
        assert!(
            stats.evictions >= 8,
            "evictions {} too few",
            stats.evictions
        );
        assert_eq!(stats.misses, 12);
    }

    /// Eviction follows recency: touching an entry protects it while
    /// the oldest other entry is discarded.
    #[test]
    fn eviction_is_least_recently_used() {
        let probe = OperatorCache::with_config(CacheConfig::unbounded());
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();

        let cache = OperatorCache::with_config(CacheConfig::new().byte_budget(one * 2 + one / 2));
        cache.operator(&key(1, 40)).unwrap(); // A
        cache.operator(&key(2, 40)).unwrap(); // B
        cache.operator(&key(1, 40)).unwrap(); // touch A → B is LRU
        cache.operator(&key(3, 40)).unwrap(); // C evicts B
        let warm_before = cache.stats().hits;
        cache.operator(&key(1, 40)).unwrap(); // A survived
        assert_eq!(cache.stats().hits, warm_before + 1, "A must still be warm");
        cache.operator(&key(2, 40)).unwrap(); // B was evicted → rebuild
        assert_eq!(cache.stats().misses, 4, "B must have been evicted");
    }

    /// Pins the full eviction *sequence*: victims fall strictly in
    /// touch order, run after run, machine after machine. Ticks are
    /// unique (every touch stamps a fresh clock value), and the
    /// `(tick, key)` tie-break keeps the choice independent of
    /// `HashMap` iteration order even in principle.
    #[test]
    fn eviction_sequence_is_deterministic() {
        let probe = OperatorCache::with_config(CacheConfig::unbounded());
        probe.operator(&key(0, 40)).unwrap();
        let one = probe.resident_bytes();

        // Room for exactly three same-size entries.
        let cache = OperatorCache::with_config(CacheConfig::new().byte_budget(3 * one + one / 2));
        cache.operator(&key(1, 40)).unwrap(); // A
        cache.operator(&key(2, 40)).unwrap(); // B
        cache.operator(&key(3, 40)).unwrap(); // C
        cache.operator(&key(2, 40)).unwrap(); // touch B
        cache.operator(&key(1, 40)).unwrap(); // touch A → LRU order: C, B, A
        cache.operator(&key(4, 40)).unwrap(); // D must evict C
        cache.operator(&key(5, 40)).unwrap(); // E must evict B
        assert_eq!(cache.stats().evictions, 2);

        // Survivors (A, D, E) are warm; victims (B, C) rebuild, in
        // exactly that order and no other.
        let misses_before = cache.stats().misses;
        for seed in [1, 4, 5] {
            cache.operator(&key(seed, 40)).unwrap();
        }
        assert_eq!(cache.stats().misses, misses_before, "A/D/E must be warm");
        cache.operator(&key(2, 40)).unwrap();
        cache.operator(&key(3, 40)).unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before + 2,
            "B and C must have been the victims"
        );
    }

    /// Exercises the tie-break directly: with ticks forced equal, the
    /// victim is the smallest key in the derived total order — a choice
    /// no `HashMap` iteration order can influence.
    #[test]
    fn lru_tie_break_is_key_ordered() {
        let mut inner = Inner::default();
        for seed in [9u64, 3, 7, 1, 5] {
            inner.slots.insert(
                AnyKey::Op(key(seed, 8)),
                Slot {
                    cell: Arc::new(OnceLock::new()),
                    bytes: 1,
                    tick: 42,
                },
            );
        }
        assert_eq!(
            inner.lru_victim(AnyKey::Op(key(1, 8))),
            Some(AnyKey::Op(key(3, 8)))
        );
        assert_eq!(
            inner.lru_victim(AnyKey::Op(key(3, 8))),
            Some(AnyKey::Op(key(1, 8)))
        );
    }

    /// An entry larger than the whole budget is served but not
    /// retained — the bound holds even then.
    #[test]
    fn oversized_entries_are_served_but_not_retained() {
        let cache = OperatorCache::with_config(CacheConfig::new().byte_budget(64));
        let (phi, _) = cache.operator(&key(5, 40)).unwrap();
        assert_eq!(phi.array_rows(), 16);
        assert_eq!(cache.resident_bytes(), 0, "oversized entry must not stay");
        // Every repeat is a rebuild, never a budget violation.
        cache.operator(&key(5, 40)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert!(stats.resident_bytes <= 64);
    }

    /// The explicit escape hatch: an unbounded cache never evicts.
    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = OperatorCache::with_config(CacheConfig::unbounded());
        assert_eq!(cache.byte_budget(), None);
        for seed in 0..10 {
            cache.operator(&key(seed, 40)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, 10);
        assert!(stats.resident_bytes > 0);
    }

    /// Rebuilt-after-eviction values equal the originals bit for bit
    /// (eviction only discards memoization, never changes results).
    #[test]
    fn evicted_entries_rebuild_identically() {
        let probe = OperatorCache::with_config(CacheConfig::unbounded());
        let k = key(9, 40);
        let (cold_phi, cold_counts) = probe.operator(&k).unwrap();
        let one = probe.resident_bytes();

        let cache = OperatorCache::with_config(CacheConfig::new().byte_budget(one + one / 2));
        cache.operator(&k).unwrap();
        cache.operator(&key(10, 40)).unwrap(); // evicts k
        let (again_phi, again_counts) = cache.operator(&k).unwrap();
        assert!(cache.stats().evictions >= 1);
        assert_eq!(*again_phi, *cold_phi);
        assert_eq!(*again_counts, *cold_counts);
    }

    /// Runs `lookup` on eight threads released together by a barrier,
    /// returning every thread's result.
    fn race<R: Send>(lookup: impl Fn() -> R + Sync) -> Vec<R> {
        use std::sync::Barrier;
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        lookup()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Single flight: eight threads that request one operator key at
    /// once share a single build and a single value.
    #[test]
    fn concurrent_operator_lookups_build_once() {
        let cache = OperatorCache::new();
        let big = OperatorKey {
            rows: 64,
            cols: 64,
            strategy: StrategyKind::rule30(64),
            seed: 0x51F,
            k: 1200,
        };
        let phis = race(|| cache.operator(&big).unwrap().0);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "same-key racers must share one build");
        assert_eq!(stats.hits, 7);
        assert!(phis.iter().all(|phi| Arc::ptr_eq(phi, &phis[0])));
    }

    #[test]
    fn concurrent_norm_and_column_lookups_build_once() {
        use std::sync::atomic::AtomicUsize;
        use tepics_cs::DenseMatrix;
        let cache = OperatorCache::new();
        let k = key(4, 12);
        let norm_builds = AtomicUsize::new(0);
        let norms = race(|| {
            cache.operator_norm(&k, DictionaryKind::Dct2d, 9, || {
                norm_builds.fetch_add(1, Ordering::SeqCst);
                0.75
            })
        });
        assert_eq!(norm_builds.load(Ordering::SeqCst), 1);
        assert!(norms.iter().all(|&n| n == Some(0.75)));

        let view_builds = AtomicUsize::new(0);
        let views = race(|| {
            cache.column_view(&k, DictionaryKind::Dct2d, || {
                view_builds.fetch_add(1, Ordering::SeqCst);
                ColumnMatrix::from_operator(&DenseMatrix::identity(4))
            })
        });
        assert_eq!(view_builds.load(Ordering::SeqCst), 1);
        assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])));
    }

    /// A build that panics leaves its slot buildable: the next lookup
    /// builds and caches normally.
    #[test]
    fn panicking_build_leaves_the_slot_buildable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = OperatorCache::new();
        let k = key(6, 12);
        let first = catch_unwind(AssertUnwindSafe(|| {
            cache.operator_norm(&k, DictionaryKind::Dct2d, 1, || panic!("build failed"))
        }));
        assert!(first.is_err());
        assert_eq!(
            cache.operator_norm(&k, DictionaryKind::Dct2d, 1, || 0.5),
            Some(0.5)
        );
        assert_eq!(
            cache.operator_norm(&k, DictionaryKind::Dct2d, 1, || panic!("must be memoized")),
            Some(0.5)
        );
    }
}
