//! Thread-count defaults and the process-wide thread-spawn counter.
//!
//! All parallel work runs on the persistent [`pool`](crate::pool); this
//! module keeps the two knobs around it that callers and benchmarks
//! read: the default executor count and a monotone count of OS threads
//! spawned so far.

use std::sync::atomic::{AtomicU64, Ordering};

/// Returns the number of worker threads to use by default: the
/// machine's available parallelism, floored at 1.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// OS threads spawned by the [`pool`](crate::pool) so far,
/// process-wide and monotone.
static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Total worker threads spawned by the [`pool`](crate::pool) since
/// process start. Benchmarks diff this around a workload to prove the
/// steady state spawns nothing (a warm pool decode's delta is 0).
#[must_use]
pub fn thread_spawn_count() -> u64 {
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

/// Records `n` worker spawns.
pub(crate) fn record_spawns(n: u64) {
    THREAD_SPAWNS.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
