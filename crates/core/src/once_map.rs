//! A build-once concurrent map: each key's value is built once, however
//! many threads ask for it at the same time.
//!
//! The map lock is held only to find (or insert) the key's cell. The build
//! runs outside it, inside the cell's [`OnceLock::get_or_init`], so the
//! requesters of one key wait on a single build while requests for other
//! keys proceed. A builder that panics leaves its cell unset: the panic
//! reaches its own caller, and the next requester of that key builds again.
//!
//! Both process-wide caches are this map: the trace store
//! ([`crate::trace_cache::TraceCache`]) and the graph cache behind
//! [`crate::datasets::WorkloadSpec::build_graph`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One key's build-once slot; shared so a build runs without the map lock.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

/// Keys to values built on first request.
pub(crate) struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Cell<V>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            cells: Mutex::default(),
        }
    }
}

impl<K: Eq + Hash, V> OnceMap<K, V> {
    /// The map under its lock. Nothing that holds the lock can panic, so a
    /// poisoned lock still guards a valid map and is taken as it is.
    fn cells(&self) -> MutexGuard<'_, HashMap<K, Cell<V>>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value of `key`, running `build` unless an earlier request built
    /// it; concurrent requesters of `key` share one build.
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = Arc::clone(self.cells().entry(key).or_default());
        Arc::clone(cell.get_or_init(|| Arc::new(build())))
    }

    /// How many keys were requested: built, building, or left unset by a
    /// panicked build.
    pub(crate) fn len(&self) -> usize {
        self.cells().len()
    }

    /// The values built so far, in no particular order.
    pub(crate) fn built(&self) -> Vec<Arc<V>> {
        self.cells()
            .values()
            .filter_map(|cell| cell.get().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn a_blocked_build_does_not_delay_other_keys() {
        let map = OnceMap::<&str, bool>::default();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let map = &map;
            let a = s.spawn(move || {
                map.get_or_build("a", || {
                    started_tx.send(()).unwrap();
                    // Released only after "b" returns, so a request for "b"
                    // that waits on this build times out here instead of
                    // hanging, and "a" reads false.
                    release_rx.recv_timeout(Duration::from_secs(10)).is_ok()
                })
            });
            started_rx.recv().unwrap();
            let b = map.get_or_build("b", || true);
            let _ = release_tx.send(());
            assert!(*b);
            assert!(
                *a.join().unwrap(),
                "the build of \"b\" waited for the build of \"a\""
            );
        });
        assert_eq!(map.len(), 2);
        assert_eq!(map.built().len(), 2);
    }

    #[test]
    fn a_panicking_build_is_retried_once_and_shared() {
        const THREADS: usize = 8;
        let map = OnceMap::<u32, u64>::default();
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let results: Vec<Option<Arc<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        catch_unwind(AssertUnwindSafe(|| {
                            map.get_or_build(7, || {
                                if builds.fetch_add(1, Ordering::SeqCst) == 0 {
                                    // Makes the others likely to queue on this
                                    // build; the checks below hold for any
                                    // interleaving.
                                    std::thread::sleep(Duration::from_millis(50));
                                    panic!("injected build fault");
                                }
                                42
                            })
                        }))
                        .ok()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            2,
            "one failed build, one retry"
        );
        let served: Vec<Arc<u64>> = results.into_iter().flatten().collect();
        assert_eq!(served.len(), THREADS - 1, "only the panicked builder fails");
        assert!(served.iter().all(|v| Arc::ptr_eq(v, &served[0])));
        assert_eq!(*served[0], 42);
        assert_eq!(map.len(), 1);
    }
}
