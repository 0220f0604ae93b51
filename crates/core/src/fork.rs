//! Forked simulation: simulate the shared warm-up prefix once per
//! (trace, warmup-relevant-configuration) group, snapshot the warmed
//! machine, then fan the measurement region out across sweep
//! configurations.
//!
//! Warm-up is demand-only ([`System`] keeps its prefetch machinery inert
//! until `warmup_done`), so every configuration sharing a
//! [`SystemConfig::warmup_key`] reaches a bit-identical state at the
//! boundary; simulating that prefix once and forking is exact, not an
//! approximation — see DESIGN.md §14.

use crate::config::SystemConfig;
use crate::pool::JobPool;
use crate::system::{
    assemble_result, feed_measure, feed_warmup, ForkMutation, RunResult, RunShape, System,
};
use droplet_cpu::CoreEngine;
use droplet_gap::TraceBundle;
use droplet_trace::{SliceSource, TraceSource};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A warmed machine at the warm-up boundary: the memory system snapshot
/// plus the core engine that produced it, ready to fan measurement runs
/// out from. Owned and `Sync`, so one snapshot serves forks on many
/// worker threads.
pub struct WarmupSnapshot {
    system: crate::system::SystemSnapshot,
    core: CoreEngine,
    /// Warm-up ops the caller requested.
    requested: u64,
    /// Warm-up ops actually applied after the half-trace clamp.
    applied: u64,
}

impl WarmupSnapshot {
    /// Warm-up ops actually simulated into this snapshot.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Warm-up ops the caller requested (pre-clamp).
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// The parent's simulated-machine hash (recorded as `forked_from` in
    /// forked manifests).
    pub fn parent_config_hash(&self) -> u64 {
        self.system.parent_config_hash()
    }

    /// Restores a live (system, core) pair under `cfg`, positioned at the
    /// warm-up boundary with the measurement window still unopened. The
    /// step-by-step entry point for harnesses (the conformance lockstep
    /// differ); sweep drivers use [`run_forked`].
    pub fn resume<'a>(
        &self,
        cfg: &SystemConfig,
        bundle: &'a TraceBundle,
    ) -> (System<'a>, CoreEngine) {
        self.resume_mutated(cfg, bundle, ForkMutation::None)
    }

    /// [`WarmupSnapshot::resume`] with an injected restore fault.
    #[doc(hidden)]
    pub fn resume_mutated<'a>(
        &self,
        cfg: &SystemConfig,
        bundle: &'a TraceBundle,
        mutation: ForkMutation,
    ) -> (System<'a>, CoreEngine) {
        let system = System::fork_mutated(&self.system, cfg, bundle, mutation);
        (system, self.core.clone())
    }
}

/// Simulates the warm-up prefix of `bundle` under `cfg` and captures the
/// machine at the boundary. The warm-up request is clamped exactly as
/// [`crate::run_workload`] clamps it, so forked and full runs agree on the
/// boundary op.
pub fn warm_snapshot(
    bundle: &TraceBundle,
    cfg: &SystemConfig,
    warmup_ops: usize,
) -> WarmupSnapshot {
    warm_snapshot_from(&mut SliceSource::new(&bundle.ops), bundle, cfg, warmup_ops)
}

/// [`warm_snapshot`] over an arbitrary [`TraceSource`]; see
/// [`crate::run_workload_from`] for the source/bundle contract.
pub fn warm_snapshot_from(
    source: &mut dyn TraceSource,
    bundle: &TraceBundle,
    cfg: &SystemConfig,
    warmup_ops: usize,
) -> WarmupSnapshot {
    let applied = (warmup_ops as u64).min(source.op_count() / 2);
    let mut engine = CoreEngine::new(cfg.core);
    let mut system = System::new(cfg.clone(), bundle);
    feed_warmup(&mut engine, source, &mut system, applied);
    WarmupSnapshot {
        system: system.snapshot(),
        core: engine,
        requested: warmup_ops as u64,
        applied,
    }
}

/// Runs the measurement region of `bundle` under `cfg`, forked from
/// `snap`. Bit-identical to `run_workload(bundle, cfg, warmup)` whenever
/// `cfg` shares the snapshot's warmup-relevant configuration.
///
/// # Panics
///
/// Panics if `cfg` differs from the snapshot's parent on a warmup-relevant
/// field (see [`SystemConfig::warmup_key`]).
pub fn run_forked(bundle: &TraceBundle, snap: &WarmupSnapshot, cfg: &SystemConfig) -> RunResult {
    run_forked_from(&mut SliceSource::new(&bundle.ops), bundle, snap, cfg)
}

/// [`run_forked`] over an arbitrary [`TraceSource`]; see
/// [`crate::run_workload_from`] for the source/bundle contract.
pub fn run_forked_from(
    source: &mut dyn TraceSource,
    bundle: &TraceBundle,
    snap: &WarmupSnapshot,
    cfg: &SystemConfig,
) -> RunResult {
    let wall = std::time::Instant::now();
    let total = source.op_count();
    let (mut system, mut engine) = snap.resume(cfg, bundle);
    let core_result = feed_measure(&mut engine, source, &mut system, snap.applied, total);
    assemble_result(
        system,
        core_result,
        RunShape {
            warmup_requested: snap.requested,
            warmup_applied: snap.applied,
            trace_ops: total,
            forked_from: Some(snap.parent_config_hash()),
            warmup_shared: Some(snap.applied),
        },
        wall,
    )
}

/// One sweep point: a trace bundle and the configuration to run it under.
#[derive(Clone)]
pub struct SweepCell {
    /// The workload trace (shared; grouping is by `Arc` identity).
    pub bundle: Arc<TraceBundle>,
    /// The configuration of this point.
    pub cfg: SystemConfig,
}

/// A write-once snapshot slot a group's cell jobs block on. A plain
/// Mutex + Condvar pair rather than `OnceLock::wait`, so the error path
/// (a panicking warm-up job) can poison the slot explicitly and wake the
/// waiters into a clean panic instead of a deadlock.
#[derive(Default)]
struct SnapSlot {
    /// `None` until the warm-up job lands; `Err` if it panicked.
    ready: Mutex<Option<Result<Arc<WarmupSnapshot>, ()>>>,
    cv: Condvar,
}

impl SnapSlot {
    fn fill(&self, snap: Result<Arc<WarmupSnapshot>, ()>) {
        *self.ready.lock().expect("snapshot slot poisoned") = Some(snap);
        self.cv.notify_all();
    }

    fn wait(&self) -> Arc<WarmupSnapshot> {
        let mut guard = self.ready.lock().expect("snapshot slot poisoned");
        loop {
            match guard.as_ref() {
                Some(Ok(snap)) => return Arc::clone(snap),
                Some(Err(())) => panic!("warm-up job for this sweep group panicked"),
                None => guard = self.cv.wait(guard).expect("snapshot slot poisoned"),
            }
        }
    }
}

/// Runs every cell, sharing warm-up across cells that agree on the trace
/// and the warmup-relevant configuration.
///
/// Cells are grouped by `(Arc::as_ptr(bundle), cfg.warmup_key())`. Groups
/// of two or more get one [`warm_snapshot`] job and then a [`run_forked`]
/// job per cell; singleton cells — including every cell of a sweep whose
/// points differ in warmup-relevant fields, which thereby falls back to
/// full replay automatically — run `run_workload` unchanged. With `fork`
/// false everything replays in full (the `--no-fork` escape hatch, and the
/// before-side of the `study_wall_ms` bench).
///
/// The fan-out is pipelined, not phased: all jobs go into one
/// [`JobPool::run`] batch with the warm-up jobs queued first, and each
/// cell job blocks only on *its own group's* snapshot slot — so group A's
/// cells start measuring while group B's warm-up is still simulating,
/// instead of every cell waiting behind a global warm-up barrier. That
/// removes the barrier's idle time; no committed measurement yet shows how
/// the sweep scales with `DROPLET_THREADS` (the one recorded 4-vs-1-worker
/// ratio, 0.912, comes from a single-CPU machine). Deadlock-free because workers claim job indices in submission order:
/// any cell job a worker runs has every warm-up job already claimed, and
/// warm-up jobs never wait.
///
/// Results come back in cell order; forked and replayed runs are
/// bit-identical, so the output is independent of grouping, threading, and
/// the `fork` flag (up to manifest lineage/wall-time fields).
pub fn run_sweep(
    pool: &JobPool,
    cells: &[SweepCell],
    warmup_ops: usize,
    fork: bool,
) -> Vec<RunResult> {
    if !fork {
        return pool.run(
            cells
                .iter()
                .map(|cell| move || crate::run_workload(&cell.bundle, &cell.cfg, warmup_ops))
                .collect(),
        );
    }

    // Group in first-seen order (determinism of job submission order, and
    // hence of progress output — results are order-independent anyway).
    let mut group_of: HashMap<(usize, u64), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = (Arc::as_ptr(&cell.bundle) as usize, cell.cfg.warmup_key());
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    let shared: Vec<&Vec<usize>> = groups.iter().filter(|g| g.len() >= 2).collect();
    let slots: Vec<SnapSlot> = (0..shared.len()).map(|_| SnapSlot::default()).collect();
    let mut snapshot_of_cell: Vec<Option<usize>> = vec![None; cells.len()];
    for (s, members) in shared.iter().enumerate() {
        for &i in members.iter() {
            snapshot_of_cell[i] = Some(s);
        }
    }

    // One batch: warm-up jobs first (returning None), then cell jobs
    // (returning Some), each waiting only on its own group's slot.
    type Job<'j> = Box<dyn FnOnce() -> Option<RunResult> + Send + 'j>;
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(shared.len() + cells.len());
    for (s, members) in shared.iter().enumerate() {
        let first = &cells[members[0]];
        let slot = &slots[s];
        jobs.push(Box::new(move || {
            let snap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                warm_snapshot(&first.bundle, &first.cfg, warmup_ops)
            }));
            match snap {
                Ok(snap) => {
                    slot.fill(Ok(Arc::new(snap)));
                    None
                }
                Err(payload) => {
                    // Wake the group's waiters into a panic of their own,
                    // then re-raise so the pool reports the original.
                    slot.fill(Err(()));
                    std::panic::resume_unwind(payload);
                }
            }
        }));
    }
    for (i, cell) in cells.iter().enumerate() {
        let slot = snapshot_of_cell[i].map(|s| &slots[s]);
        jobs.push(Box::new(move || {
            Some(match slot {
                Some(slot) => run_forked(&cell.bundle, &slot.wait(), &cell.cfg),
                None => crate::run_workload(&cell.bundle, &cell.cfg, warmup_ops),
            })
        }));
    }
    let mut out = pool.run(jobs);
    out.drain(..shared.len());
    out.into_iter()
        .map(|r| r.expect("cell job returned a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use droplet_gap::Algorithm;
    use droplet_graph::{Dataset, DatasetScale};

    fn bundle() -> Arc<TraceBundle> {
        let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
        Arc::new(Algorithm::Pr.trace(&g, 120_000))
    }

    /// Digest of everything deterministic in a result (manifest lineage and
    /// wall time excluded) — [`RunResult::digest`], the same identity
    /// `droplet-serve` dedupes responses on.
    fn digest(r: &RunResult) -> u64 {
        r.digest()
    }

    #[test]
    fn fork_matches_from_scratch() {
        let b = bundle();
        let base = SystemConfig::test_scale();
        let warmup = 20_000;
        let snap = warm_snapshot(&b, &base, warmup);
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Vldp,
            PrefetcherKind::Droplet,
        ] {
            let cfg = base.with_prefetcher(kind);
            let forked = run_forked(&b, &snap, &cfg);
            let scratch = crate::run_workload(&b, &cfg, warmup);
            assert_eq!(
                digest(&forked),
                digest(&scratch),
                "fork != scratch for {kind}"
            );
            assert_eq!(forked.manifest.forked_from, Some(snap.parent_config_hash()));
            assert_eq!(forked.manifest.warmup_shared, Some(snap.applied()));
            assert_eq!(scratch.manifest.forked_from, None);
        }
    }

    #[test]
    fn sweep_groups_share_warmup_and_match_full_replay() {
        let b = bundle();
        let base = SystemConfig::test_scale();
        let cells: Vec<SweepCell> = [
            PrefetcherKind::None,
            PrefetcherKind::Stream,
            PrefetcherKind::Droplet,
        ]
        .iter()
        .map(|&k| SweepCell {
            bundle: Arc::clone(&b),
            cfg: base.with_prefetcher(k),
        })
        .collect();
        let pool = JobPool::with_threads(1);
        let forked = run_sweep(&pool, &cells, 20_000, true);
        let full = run_sweep(&pool, &cells, 20_000, false);
        for (f, r) in forked.iter().zip(&full) {
            assert_eq!(digest(f), digest(r));
            assert!(f.manifest.forked_from.is_some());
            assert!(r.manifest.forked_from.is_none());
        }
    }

    #[test]
    fn warmup_relevant_variation_falls_back_to_full_replay() {
        let b = bundle();
        let base = SystemConfig::test_scale();
        let mut big_rob = base.clone();
        big_rob.core.rob *= 2;
        assert_ne!(base.warmup_key(), big_rob.warmup_key());
        let cells = vec![
            SweepCell {
                bundle: Arc::clone(&b),
                cfg: base.clone(),
            },
            SweepCell {
                bundle: Arc::clone(&b),
                cfg: big_rob,
            },
        ];
        let pool = JobPool::with_threads(1);
        let out = run_sweep(&pool, &cells, 10_000, true);
        // Both singletons: full replay, no fork lineage.
        assert!(out.iter().all(|r| r.manifest.forked_from.is_none()));
    }

    #[test]
    fn clamped_warmup_agrees_between_fork_and_full() {
        let b = bundle();
        let cfg = SystemConfig::test_scale();
        let over = b.ops.len() * 2; // force the half-trace clamp
        let snap = warm_snapshot(&b, &cfg, over);
        assert_eq!(snap.applied(), (b.ops.len() / 2) as u64);
        let forked = run_forked(&b, &snap, &cfg);
        let scratch = crate::run_workload(&b, &cfg, over);
        assert_eq!(digest(&forked), digest(&scratch));
        assert!(forked.warmup_clamped);
    }

    #[test]
    #[should_panic(expected = "warmup-relevant")]
    fn fork_rejects_warmup_relevant_mismatch() {
        let b = bundle();
        let base = SystemConfig::test_scale();
        let snap = warm_snapshot(&b, &base, 1_000);
        let mut other = base.clone();
        other.dtlb_entries *= 2;
        let _ = run_forked(&b, &snap, &other);
    }
}
