//! A process-wide, thread-safe cache of built workload traces.
//!
//! Trace construction (graph walk + op synthesis) is the most expensive
//! *shared* step of every experiment driver: `run_study`, the figure
//! sweeps, and the ablations all replay the same `(workload, budget)`
//! bundles under different system configurations. [`TraceCache`] builds
//! each bundle exactly once per process — even under concurrent requests
//! from pool workers — and hands out `Arc` clones.
//!
//! Graphs themselves are additionally cached one layer down (see
//! [`crate::datasets`]), so a cache miss here only pays for the trace walk,
//! not graph generation.
//!
//! # Byte budget and spill-to-disk
//!
//! A cache built with [`TraceCache::with_byte_budget`] bounds the resident
//! op memory: when the summed `ops` bytes of resident bundles exceed the
//! budget, the least-recently-used bundles have their op streams encoded
//! into columnar artifacts (see `droplet_trace::columnar`, DESIGN.md §15)
//! in the spill directory, content-addressed by the FNV-1a hash of their
//! `(workload, budget)` key, and the in-memory ops are dropped. Everything
//! else in the bundle (address space, functional memory, property layout)
//! is kept as a skeleton — it is small and cannot be rebuilt from the op
//! stream. A later request decodes the artifact back (the codec verifies
//! its content digest) and re-residents the bundle, so spilling never
//! changes results, only memory and reload latency. An artifact that no
//! longer reads back (deleted, truncated, rotted) is removed and the
//! bundle rebuilt from its builder, as after a drop-only eviction.
//!
//! [`TraceCache::with_byte_budget_drop_only`] bounds memory without a
//! spill directory: evicted bundles are dropped outright and rebuilt from
//! their [`WorkloadSpec`] on the next request. A byte budget therefore
//! *never* panics for lack of a spill dir — the invariant a long-running
//! server depends on.
//!
//! # Poisoning
//!
//! Every lock in the cache recovers from poisoning instead of panicking:
//! a build, encode, or decode that panics leaves its slot in whatever
//! valid state it last held (`Empty` is rebuilt, `Resident`/`Spilled` are
//! served as usual), so one panicked job never wedges the cache for later
//! requests. Pinned by `panicking_build_leaves_cache_usable` below.

use crate::datasets::WorkloadSpec;
use droplet_gap::TraceBundle;
use droplet_obs::fnv1a;
use droplet_trace::columnar;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the data from a poisoned mutex. Safe here because
/// every critical section in this module leaves its protected state valid
/// at all times (slots are replaced wholesale; accounting entries are
/// inserted/removed atomically from the map's point of view).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Key = (WorkloadSpec, u64);

/// One cached trace. `Empty` exists only between cell creation and first
/// build; `Spilled` keeps the bundle minus its ops plus the artifact path.
enum Slot {
    Empty,
    Resident(Arc<TraceBundle>),
    Spilled {
        /// The bundle with `ops` emptied — everything replay needs besides
        /// the op stream itself.
        skeleton: Arc<TraceBundle>,
        path: PathBuf,
    },
}

/// The per-key cell: its own mutex so concurrent requesters of the *same*
/// bundle serialize on one build/reload while requesters of *different*
/// bundles proceed — the outer map lock is only held to look up the cell,
/// never during a build, encode, or decode.
type Cell = Arc<Mutex<Slot>>;

/// Resident-set accounting: ops bytes and an LRU stamp per resident key.
struct Accounting {
    clock: u64,
    resident: HashMap<Key, (u64, u64)>, // key -> (ops bytes, last-use stamp)
}

/// Spill policy; `None` budget means never spill (the default).
struct Policy {
    budget_bytes: Option<u64>,
    spill_dir: Option<PathBuf>,
}

/// A shareable trace cache; clones share the same underlying store.
#[derive(Clone)]
pub struct TraceCache {
    entries: Arc<Mutex<HashMap<Key, Cell>>>,
    accounting: Arc<Mutex<Accounting>>,
    policy: Arc<Policy>,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache {
            entries: Arc::default(),
            accounting: Arc::new(Mutex::new(Accounting {
                clock: 0,
                resident: HashMap::new(),
            })),
            policy: Arc::new(Policy {
                budget_bytes: None,
                spill_dir: None,
            }),
        }
    }
}

/// The artifact file name for a cache key: FNV-1a over the key's debug
/// rendering (workload spec + budget are the full identity of a trace).
fn artifact_name(key: &Key) -> String {
    format!(
        "{:016x}.dcol",
        fnv1a(format!("{:?}|{}", key.0, key.1).as_bytes())
    )
}

/// A spilled bundle with its ops decoded back from the artifact at `path`;
/// `None` when the artifact is unreadable or fails to decode.
fn reload(skeleton: &TraceBundle, path: &Path) -> Option<TraceBundle> {
    let bytes = droplet_trace::MappedFile::open(path).ok()?;
    let ops = columnar::decode(&bytes).ok()?;
    Some(TraceBundle {
        ops,
        ..skeleton.clone()
    })
}

fn ops_bytes(bundle: &TraceBundle) -> u64 {
    (bundle.ops.len() * std::mem::size_of::<droplet_trace::MemOp>()) as u64
}

impl TraceCache {
    /// An empty, unbounded cache (nothing ever spills).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that keeps at most `budget_bytes` of resident trace
    /// ops, spilling least-recently-used bundles to columnar artifacts
    /// under `spill_dir` (created on first spill).
    pub fn with_byte_budget(budget_bytes: u64, spill_dir: impl Into<PathBuf>) -> Self {
        TraceCache {
            policy: Arc::new(Policy {
                budget_bytes: Some(budget_bytes),
                spill_dir: Some(spill_dir.into()),
            }),
            ..Self::default()
        }
    }

    /// An empty cache that keeps at most `budget_bytes` of resident trace
    /// ops with **no** spill directory: over-budget LRU bundles are dropped
    /// outright and rebuilt from their [`WorkloadSpec`] on the next
    /// request. Trades reload latency for zero disk use — and makes a byte
    /// budget safe to configure on servers with no writable scratch space.
    pub fn with_byte_budget_drop_only(budget_bytes: u64) -> Self {
        TraceCache {
            policy: Arc::new(Policy {
                budget_bytes: Some(budget_bytes),
                spill_dir: None,
            }),
            ..Self::default()
        }
    }

    /// The bundle for `(spec, budget)`, building it on first request and
    /// reloading it from its spill artifact (or rebuilding it) if it was
    /// evicted.
    pub fn get_or_build(&self, spec: WorkloadSpec, budget: u64) -> Arc<TraceBundle> {
        self.get_or_build_with(spec, budget, || spec.build_trace_with_budget(budget))
    }

    /// [`TraceCache::get_or_build`] with an explicit builder — the seam the
    /// poisoning tests inject faults through, and an escape hatch for
    /// callers whose bundles do not come from [`WorkloadSpec::build_trace_with_budget`].
    /// The builder runs (at most once per miss) while holding only this
    /// key's cell lock; a panicking builder leaves the cell `Empty` and the
    /// cache fully usable.
    pub fn get_or_build_with(
        &self,
        spec: WorkloadSpec,
        budget: u64,
        build: impl FnOnce() -> TraceBundle,
    ) -> Arc<TraceBundle> {
        let key = (spec, budget);
        let cell = {
            let mut map = lock_recover(&self.entries);
            map.entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(Slot::Empty)))
                .clone()
        };
        let mut slot = lock_recover(&cell);
        let bundle = match &*slot {
            Slot::Resident(b) => Arc::clone(b),
            Slot::Spilled { skeleton, path } => {
                // `decode` re-verifies the artifact's content digest, so a
                // rotted or vanished spill file is rebuilt (and removed)
                // instead of replaying wrong or failing every later request.
                let b = Arc::new(reload(skeleton, path).unwrap_or_else(|| {
                    let _ = std::fs::remove_file(path);
                    build()
                }));
                *slot = Slot::Resident(Arc::clone(&b));
                b
            }
            Slot::Empty => {
                let b = Arc::new(build());
                *slot = Slot::Resident(Arc::clone(&b));
                b
            }
        };
        drop(slot);
        self.note_use(key, &bundle);
        bundle
    }

    /// Stamps `key` most-recently-used, accounts its bytes, and spills (or
    /// drops, without a spill dir) LRU entries if the resident set now
    /// exceeds the budget.
    fn note_use(&self, key: Key, bundle: &TraceBundle) {
        let victims = {
            let mut acc = lock_recover(&self.accounting);
            acc.clock += 1;
            let stamp = acc.clock;
            acc.resident.insert(key, (ops_bytes(bundle), stamp));
            let Some(budget) = self.policy.budget_bytes else {
                return;
            };
            let mut total: u64 = acc.resident.values().map(|(b, _)| b).sum();
            // Oldest-first victim list, never the entry just used: even a
            // budget of zero keeps the working bundle resident.
            let mut by_age: Vec<(Key, u64, u64)> = acc
                .resident
                .iter()
                .filter(|(k, _)| **k != key)
                .map(|(k, (b, s))| (*k, *b, *s))
                .collect();
            by_age.sort_by_key(|&(_, _, s)| s);
            let mut victims = Vec::new();
            for (k, b, _) in by_age {
                if total <= budget {
                    break;
                }
                total -= b;
                acc.resident.remove(&k);
                victims.push(k);
            }
            victims
        };
        // Spill outside the accounting lock: encode+write can be slow, and
        // each victim's own cell mutex serializes against concurrent reloads.
        for victim in victims {
            if let Some(still_resident_bytes) = self.spill(victim) {
                // Spill failed (unwritable spill dir): the bundle stays in
                // memory, so put it back in the books as the coldest entry.
                let mut acc = lock_recover(&self.accounting);
                acc.resident
                    .entry(victim)
                    .or_insert((still_resident_bytes, 0));
            }
        }
    }

    /// Evicts `key`'s resident ops: encodes them to the columnar artifact
    /// when a spill dir is configured, or drops them outright (the slot
    /// reverts to `Empty` and rebuilds on the next request) without one. A
    /// no-op if the entry is gone or already spilled (a racing user may
    /// have reloaded it — then it is simply resident and re-counted).
    /// Returns the still-resident byte count when the eviction could not
    /// happen, `None` on success or no-op.
    fn spill(&self, key: Key) -> Option<u64> {
        let cell = {
            let map = lock_recover(&self.entries);
            match map.get(&key) {
                Some(c) => Arc::clone(c),
                None => return None,
            }
        };
        let mut slot = lock_recover(&cell);
        let Slot::Resident(bundle) = &*slot else {
            return None;
        };
        let Some(dir) = self.policy.spill_dir.as_ref() else {
            // Drop-only budget: no artifact to write — rebuilt on demand.
            *slot = Slot::Empty;
            return None;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return Some(ops_bytes(bundle));
        }
        let path = dir.join(artifact_name(&key));
        let encoded = columnar::encode(&bundle.ops);
        // Write-then-rename so a crash mid-write never leaves a torn
        // artifact under the content-addressed name.
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, &encoded).is_err() || std::fs::rename(&tmp, &path).is_err() {
            return Some(ops_bytes(bundle));
        }
        let mut skeleton = (**bundle).clone();
        skeleton.ops = Vec::new();
        *slot = Slot::Spilled {
            skeleton: Arc::new(skeleton),
            path,
        };
        None
    }

    /// How many bundles are tracked (resident + spilled + in-flight builds).
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }

    /// Whether the cache holds no bundles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed `ops` bytes of the resident (non-spilled) bundles.
    pub fn resident_bytes(&self) -> u64 {
        lock_recover(&self.accounting)
            .resident
            .values()
            .map(|(b, _)| b)
            .sum()
    }

    /// How many tracked bundles are currently spilled to disk.
    pub fn spilled_len(&self) -> usize {
        let map = lock_recover(&self.entries);
        map.values()
            .filter(|c| matches!(&*lock_recover(c), Slot::Spilled { .. }))
            .count()
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

    fn temp_spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("droplet-spill-{tag}-{}", std::process::id()))
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
    fn unbounded_cache_never_spills() {
        let cache = TraceCache::new();
        let _ = cache.get_or_build(spec(), 30_000);
        let _ = cache.get_or_build(spec2(), 30_000);
        assert_eq!(cache.spilled_len(), 0);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn over_budget_spills_lru_and_reload_is_identical() {
        let dir = temp_spill_dir("lru");
        // Budget of 1 byte: any second resident bundle evicts the first.
        let cache = TraceCache::with_byte_budget(1, &dir);
        let a = cache.get_or_build(spec(), 30_000);
        assert_eq!(cache.spilled_len(), 0, "just-used entry never spills");
        let _b = cache.get_or_build(spec2(), 30_000);
        assert_eq!(cache.spilled_len(), 1, "LRU entry spilled");
        assert_eq!(cache.len(), 2, "spilled entries stay tracked");

        // Reload: ops decode bit-exact from the artifact, everything else
        // comes from the retained skeleton.
        let a2 = cache.get_or_build(spec(), 30_000);
        assert!(!Arc::ptr_eq(&a, &a2), "reload is a new allocation");
        assert_eq!(a.ops, a2.ops);
        assert_eq!(a.instructions, a2.instructions);
        assert_eq!(a.digest, a2.digest);
        assert_eq!(a.property_base, a2.property_base);
        // Reloading a pushed the other entry out in turn.
        assert_eq!(cache.spilled_len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_spill_artifact_is_rebuilt_not_fatal() {
        let dir = temp_spill_dir("rot");
        let cache = TraceCache::with_byte_budget(1, &dir);
        let _ = cache.get_or_build(spec(), 30_000);
        let _ = cache.get_or_build(spec2(), 30_000);
        assert_eq!(cache.spilled_len(), 1);
        let artifact = dir.join(artifact_name(&(spec(), 30_000)));
        let len = std::fs::metadata(&artifact).unwrap().len();
        std::fs::File::options()
            .write(true)
            .open(&artifact)
            .unwrap()
            .set_len(len / 2)
            .unwrap();

        let a = cache.get_or_build(spec(), 30_000);
        let fresh = spec().build_trace_with_budget(30_000);
        assert_eq!(a.ops, fresh.ops);
        assert_eq!(a.instructions, fresh.instructions);
        assert_eq!(a.digest, fresh.digest);
        assert!(!artifact.exists(), "the bad artifact is removed");
        // The rebuilt bundle spills and reloads like any other.
        let _ = cache.get_or_build(spec2(), 30_000);
        let again = cache.get_or_build(spec(), 30_000);
        assert_eq!(again.ops, fresh.ops);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_fitting_both_keeps_both_resident() {
        let dir = temp_spill_dir("fit");
        let cache = TraceCache::with_byte_budget(u64::MAX, &dir);
        let _ = cache.get_or_build(spec(), 30_000);
        let _ = cache.get_or_build(spec2(), 30_000);
        assert_eq!(cache.spilled_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_only_budget_evicts_without_dir_and_rebuilds() {
        // A byte budget with no spill dir must never hit the old
        // `expect("spill without dir")` panic: victims drop and rebuild.
        let cache = TraceCache::with_byte_budget_drop_only(1);
        let a = cache.get_or_build(spec(), 30_000);
        let b = cache.get_or_build(spec2(), 30_000);
        assert_eq!(cache.spilled_len(), 0, "nothing spills without a dir");
        assert_eq!(cache.len(), 2, "dropped entries stay tracked");
        assert_eq!(
            cache.resident_bytes(),
            ops_bytes(&b),
            "only the just-used bundle stays resident"
        );
        let a2 = cache.get_or_build(spec(), 30_000);
        assert!(!Arc::ptr_eq(&a, &a2), "rebuild is a new allocation");
        assert_eq!(a.ops, a2.ops);
        assert_eq!(a.digest, a2.digest);
    }

    #[test]
    fn panicking_build_leaves_cache_usable() {
        let cache = TraceCache::new();
        // A job that panics mid-build poisons the key's cell mutex...
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build_with(spec(), 30_000, || panic!("injected build fault"))
        }));
        assert!(poisoned.is_err());
        // ...but every later request — same key and other keys — recovers
        // and serves normally instead of propagating the poison forever.
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
            (a.ops.len() * std::mem::size_of::<droplet_trace::MemOp>()) as u64
        );
    }
}
