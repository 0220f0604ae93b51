//! A process-wide, thread-safe cache of built workload traces.
//!
//! Trace construction (graph walk + op synthesis) is the most expensive
//! *shared* step of every experiment driver: `run_study`, the figure
//! sweeps, and the ablations all replay the same `(workload, budget)`
//! bundles under different system configurations. [`TraceCache`] builds
//! each bundle exactly once per process — even under concurrent requests
//! from pool workers — and hands out `Arc` clones.
//!
//! The store is a build-once map: its lock is held only to find a key's
//! cell, and the build runs in that cell's `OnceLock`, so requesters of
//! one bundle wait on one build while other bundles build in parallel. A
//! builder that panics leaves its cell unset, and the next request for
//! that key builds again (pinned by `panicking_build_leaves_cache_usable`
//! below).
//!
//! Graphs themselves are additionally cached one layer down (see
//! [`crate::datasets`]), so a cache miss here only pays for the trace walk,
//! not graph generation.

use crate::datasets::WorkloadSpec;
use crate::once_map::OnceMap;
use droplet_gap::TraceBundle;
use droplet_trace::MemOp;
use std::fmt;
use std::sync::Arc;

/// A shareable trace cache; clones share the same underlying store.
#[derive(Clone, Default)]
pub struct TraceCache {
    bundles: Arc<OnceMap<(WorkloadSpec, u64), TraceBundle>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bundle for `(spec, budget)`, building it on first request.
    pub fn get_or_build(&self, spec: WorkloadSpec, budget: u64) -> Arc<TraceBundle> {
        self.get_or_build_with(spec, budget, || spec.build_trace_with_budget(budget))
    }

    /// [`TraceCache::get_or_build`] with an explicit builder — the seam the
    /// panic tests inject faults through, and an escape hatch for callers
    /// whose bundles do not come from [`WorkloadSpec::build_trace_with_budget`].
    /// The builder runs only on a miss, without the store's lock; a
    /// panicking builder leaves the key unbuilt and the cache fully usable.
    pub fn get_or_build_with(
        &self,
        spec: WorkloadSpec,
        budget: u64,
        build: impl FnOnce() -> TraceBundle,
    ) -> Arc<TraceBundle> {
        self.bundles.get_or_build((spec, budget), build)
    }

    /// How many bundles are tracked: built, building, or left unbuilt by a
    /// panicked build.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether the cache holds no bundles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed `ops` bytes (`len × size_of::<MemOp>()`) of the built bundles.
    pub fn resident_bytes(&self) -> u64 {
        self.bundles
            .built()
            .iter()
            .map(|b| (b.ops.len() * std::mem::size_of::<MemOp>()) as u64)
            .sum()
    }
}

impl fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCache")
            .field("entries", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use droplet_gap::Algorithm;
    use droplet_graph::{Dataset, DatasetScale};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: DatasetScale::Tiny,
        }
    }

    fn spec2() -> WorkloadSpec {
        WorkloadSpec {
            algorithm: Algorithm::Cc,
            dataset: Dataset::Kron,
            scale: DatasetScale::Tiny,
        }
    }

    #[test]
    fn same_key_returns_same_allocation() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(spec(), 30_000);
        let b = cache.get_or_build(spec(), 30_000);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_budgets_are_distinct_entries() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(spec(), 30_000);
        let b = cache.get_or_build(spec(), 40_000);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.ops.len() < b.ops.len());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clones_share_the_store() {
        let cache = TraceCache::new();
        let twin = cache.clone();
        let a = cache.get_or_build(spec(), 30_000);
        let b = twin.get_or_build(spec(), 30_000);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = TraceCache::new();
        let bundles = JobPool::with_threads(8).run(
            (0..16)
                .map(|_| {
                    let cache = cache.clone();
                    move || cache.get_or_build(spec(), 30_000)
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(cache.len(), 1);
        assert!(bundles.iter().all(|b| Arc::ptr_eq(b, &bundles[0])));
    }

    #[test]
    fn panicking_build_leaves_cache_usable() {
        let cache = TraceCache::new();
        // A job that panics mid-build leaves the key's cell unset...
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build_with(spec(), 30_000, || panic!("injected build fault"))
        }));
        assert!(failed.is_err());
        // ...so every later request — same key and other keys — builds and
        // serves normally instead of failing forever.
        let a = cache.get_or_build(spec(), 30_000);
        let b = cache.get_or_build(spec(), 30_000);
        assert!(Arc::ptr_eq(&a, &b));
        let other = cache.get_or_build(spec2(), 30_000);
        assert!(!other.ops.is_empty());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn panicking_pool_job_leaves_cache_usable_for_other_workers() {
        let cache = TraceCache::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            JobPool::with_threads(4).run(
                (0..8)
                    .map(|i| {
                        let cache = cache.clone();
                        move || {
                            if i == 3 {
                                cache.get_or_build_with(spec(), 30_000, || {
                                    panic!("worker {i} exploded")
                                })
                            } else {
                                cache.get_or_build(spec2(), 30_000)
                            }
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "pool propagates the worker panic");
        // The cache survives the panicked worker: both keys still serve.
        let a = cache.get_or_build(spec(), 30_000);
        assert!(!a.ops.is_empty());
        let b = cache.get_or_build(spec2(), 30_000);
        assert!(!b.ops.is_empty());
    }

    #[test]
    fn resident_bytes_tracks_ops_footprint() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(spec(), 30_000);
        assert_eq!(
            cache.resident_bytes(),
            (a.ops.len() * std::mem::size_of::<MemOp>()) as u64
        );
    }
}
