//! Forked simulation: simulate the shared warm-up prefix once per
//! (trace, warmup-relevant-configuration) group, snapshot the warmed
//! machine, then fan the measurement region out across sweep
//! configurations.
//!
//! Warm-up is demand-only ([`System`] builds its prefetch machinery in
//! `warmup_done`), so every configuration sharing a
//! [`SystemConfig::warmup_key`] reaches a bit-identical state at the
//! boundary; simulating that prefix once and forking is exact, not an
//! approximation — see DESIGN.md §14.

use crate::config::SystemConfig;
use crate::pool::JobPool;
use crate::system::{
    assemble_result, config_hash, feed_measure, feed_warmup, ForkMutation, RunResult, RunShape,
    System, WarmState,
};
use droplet_cpu::CoreEngine;
use droplet_gap::TraceBundle;
use droplet_trace::{SliceSource, TraceSource};
use std::collections::HashMap;
use std::sync::Arc;

/// A warmed machine at the warm-up boundary: everything warm-up evolved
/// in the memory system (page table, DTLB, caches, DRAM, MSHRs) plus the
/// core engine that produced it, ready to fan measurement runs out from.
/// Owned and `Sync`, so one snapshot serves forks on many worker threads.
pub struct WarmupSnapshot {
    warm: WarmState,
    core: CoreEngine,
    /// The parent's [`SystemConfig::warmup_key`], which every fork shares.
    warmup_key: u64,
    /// The parent's simulated-machine hash ([`config_hash`]).
    config_hash: u64,
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

    /// The parent's simulated-machine hash (recorded as `forked_from` in
    /// forked manifests).
    pub fn parent_config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Restores a live (system, core) pair under `cfg`, positioned at the
    /// warm-up boundary with the measurement window still unopened. The
    /// step-by-step entry point for harnesses (the conformance lockstep
    /// differ); sweep drivers use [`run_forked`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disagrees with the parent on any warmup-relevant
    /// field ([`SystemConfig::warmup_key`]); such sweeps must fall back to
    /// full replay.
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
        assert_eq!(
            self.warmup_key,
            cfg.warmup_key(),
            "fork requires identical warmup-relevant configuration"
        );
        let system = System::fork_mutated(&self.warm, cfg, bundle, mutation);
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
    let mut engine = CoreEngine::new(cfg.core);
    let mut system = System::new(cfg.clone(), bundle);
    let applied = feed_warmup(&mut engine, source, &mut system, warmup_ops);
    WarmupSnapshot {
        warm: system.snapshot(),
        core: engine,
        warmup_key: cfg.warmup_key(),
        config_hash: config_hash(cfg),
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

/// Runs every cell, sharing warm-up across cells that agree on the trace
/// and the warmup-relevant configuration.
///
/// Cells are grouped by `(Arc::as_ptr(bundle), cfg.warmup_key())`. The
/// sweep is two [`JobPool::run`] batches: one [`warm_snapshot`] job per
/// group of two or more cells, then one job per cell — [`run_forked`] from
/// its group's snapshot, or `run_workload` for a cell alone in its group,
/// so a sweep whose points differ in warmup-relevant fields falls back to
/// full replay automatically. With `fork` false every cell replays in full.
///
/// No job waits on another, and the first batch holds only warm-ups, so a
/// panicking warm-up reaches the caller with its own payload. The barrier
/// between the batches idles a worker for at most the longest single
/// warm-up (DESIGN.md §17).
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
    // A cell's group is the first cell sharing its trace and warm-up key.
    let mut first = HashMap::new();
    let group: Vec<usize> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let key = (Arc::as_ptr(&cell.bundle), cell.cfg.warmup_key());
            *first.entry(key).or_insert(i)
        })
        .collect();
    let mut size = vec![0; cells.len()];
    group.iter().for_each(|&g| size[g] += 1);
    // Groups of two or more share the snapshot their first cell warms.
    let leaders: Vec<usize> = (0..cells.len()).filter(|&i| fork && size[i] >= 2).collect();

    let snaps = pool.run(
        leaders
            .iter()
            .map(|&i| move || warm_snapshot(&cells[i].bundle, &cells[i].cfg, warmup_ops))
            .collect(),
    );
    pool.run(
        cells
            .iter()
            .zip(&group)
            .map(|(cell, g)| {
                let snap = leaders.binary_search(g).ok().map(|s| &snaps[s]);
                move || match snap {
                    Some(snap) => run_forked(&cell.bundle, snap, &cell.cfg),
                    None => crate::run_workload(&cell.bundle, &cell.cfg, warmup_ops),
                }
            })
            .collect(),
    )
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
                forked.digest(),
                scratch.digest(),
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
            assert_eq!(f.digest(), r.digest());
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
        assert_eq!(forked.digest(), scratch.digest());
        assert!(forked.warmup_clamped);
    }

    #[test]
    fn a_panicking_warm_up_reaches_the_caller_with_its_own_message() {
        // `CoreEngine::new` rejects a zero ROB; three DTLB sizes make three
        // warm-up groups, so the first batch runs on several workers.
        let b = bundle();
        let cells: Vec<SweepCell> = (0..150)
            .map(|i| {
                let mut cfg = SystemConfig::test_scale();
                cfg.core.rob = 0;
                cfg.dtlb_entries <<= i % 3;
                let bundle = Arc::clone(&b);
                SweepCell { bundle, cfg }
            })
            .collect();
        for threads in [2, 4] {
            let pool = JobPool::with_threads(threads);
            for trial in 0..200 {
                let sweep = || run_sweep(&pool, &cells, 10_000, true);
                let payload = std::thread::scope(|s| s.spawn(sweep).join()).unwrap_err();
                let msg = (payload.downcast_ref::<&str>().copied())
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                assert!(
                    msg.is_some_and(|m| m.contains("degenerate core config")),
                    "{threads} threads, trial {trial}: {msg:?}"
                );
            }
        }
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
