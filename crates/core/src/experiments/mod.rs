//! Experiment drivers regenerating every figure of the paper's
//! characterization (Section IV) and evaluation (Section VII) sections.
//!
//! Each driver returns a typed result with a `render()` method producing
//! the figure's rows as a plain-text table; the `droplet-bench` crate wraps
//! one bench target around each. EXPERIMENTS.md records paper-vs-measured.

pub mod ablations;
pub mod cache_sweeps;
pub mod characterization;
pub mod policy_study;
pub mod prefetch_study;
pub mod reuse;

pub use ablations::{ablation_decoupling, ablation_mpp_sizing};
pub use cache_sweeps::{fig04a_llc_sweep, fig04b_l2_sweep, fig04c_offchip_by_type};
pub use characterization::{
    fig01_cycle_stack, fig03_rob_sweep, fig05_06_chains, fig07_hierarchy_usage,
};
pub use policy_study::{
    run_policy_study, run_policy_study_on, PolicyLevel, PolicyStudy, PolicyStudyRow, STUDY_POLICIES,
};
pub use prefetch_study::{PrefetchStudy, StudyRow};
pub use reuse::tab_reuse_distances;

use crate::config::SystemConfig;
use crate::datasets::WorkloadSpec;
use crate::fork::{run_sweep, SweepCell};
use crate::pool::JobPool;
use crate::system::RunResult;
use crate::trace_cache::TraceCache;
use droplet_cache::CacheConfig;
use droplet_gap::TraceBundle;
use droplet_graph::DatasetScale;
use std::sync::Arc;

/// Shared experiment context: dataset scale, op budget, warm-up prefix, and
/// the base system configuration experiments start from (the Table I
/// baseline at Sim scale, a proportionally shrunk hierarchy at Tiny/Small
/// scales so cache-pressure behaviour survives in fast runs).
///
/// The context also carries the process-shared [`TraceCache`] (clones share
/// it) and the [`JobPool`] the drivers fan their independent simulation
/// cells over; `DROPLET_THREADS=1` forces fully serial execution. The
/// study drivers run their (workload, configuration) cells through
/// [`ExperimentCtx::run_grid`].
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Dataset scale to build.
    pub scale: DatasetScale,
    /// Trace op budget per workload.
    pub budget: u64,
    /// Warm-up ops excluded from statistics.
    pub warmup: usize,
    /// The baseline system configuration experiments derive from.
    pub base: SystemConfig,
    /// Shared trace store: each (workload, budget) bundle is built once.
    pub traces: TraceCache,
    /// Worker pool the drivers fan independent cells over.
    pub pool: JobPool,
}

impl ExperimentCtx {
    /// A fast context for tests (tiny datasets, scaled-down hierarchy).
    pub fn tiny() -> Self {
        Self::at(DatasetScale::Tiny)
    }

    /// Small-scale context for examples (scaled-down hierarchy).
    pub fn small() -> Self {
        Self::at(DatasetScale::Small)
    }

    /// Context at an arbitrary scale with the default budgets and the
    /// scale's base machine ([`SystemConfig::for_scale`]).
    pub fn at(scale: DatasetScale) -> Self {
        ExperimentCtx {
            scale,
            budget: WorkloadSpec::default_budget(scale),
            warmup: WorkloadSpec::default_warmup(scale),
            base: SystemConfig::for_scale(scale),
            traces: TraceCache::new(),
            pool: JobPool::from_env(),
        }
    }

    /// Overrides the op budget; the warm-up follows it
    /// ([`WorkloadSpec::warmup_for`]).
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self.warmup = WorkloadSpec::warmup_for(budget);
        self
    }

    /// Overrides the worker count (equivalent to `DROPLET_THREADS`).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = JobPool::with_threads(threads);
        self
    }

    /// The trace bundle of `spec` at this context's budget, via the shared
    /// cache — repeated calls (from any driver or worker) build it once.
    pub fn trace(&self, spec: &WorkloadSpec) -> Arc<TraceBundle> {
        self.traces.get_or_build(*spec, self.budget)
    }

    /// The bundles of `specs`, in order, built through the shared cache
    /// with one pool job per spec.
    pub fn build_traces(&self, specs: &[WorkloadSpec]) -> Vec<Arc<TraceBundle>> {
        self.pool
            .run(specs.iter().map(|spec| move || self.trace(spec)).collect())
    }

    /// The (workload, configuration) cells of the grid, `specs`-major:
    /// `specs[s]` under `cfgs[c]` is cell `s * cfgs.len() + c`. The bundles
    /// are built first ([`ExperimentCtx::build_traces`]).
    pub fn grid_cells(&self, specs: &[WorkloadSpec], cfgs: &[SystemConfig]) -> Vec<SweepCell> {
        self.build_traces(specs)
            .iter()
            .flat_map(|bundle| {
                cfgs.iter().map(|cfg| SweepCell {
                    bundle: Arc::clone(bundle),
                    cfg: cfg.clone(),
                })
            })
            .collect()
    }

    /// Every cell of the grid: `out[s][c]` is `specs[s]` run under
    /// `cfgs[c]`. All cells go through one [`run_sweep`], which shares
    /// warm-ups, so the results equal per-cell `run_workload` at any pool
    /// width.
    pub fn run_grid(&self, specs: &[WorkloadSpec], cfgs: &[SystemConfig]) -> Vec<Vec<RunResult>> {
        let cells = self.grid_cells(specs, cfgs);
        let mut results = run_sweep(&self.pool, &cells, self.warmup, true).into_iter();
        specs
            .iter()
            .map(|_| results.by_ref().take(cfgs.len()).collect())
            .collect()
    }

    /// The four-point LLC capacity sweep of Fig. 4a: the base LLC scaled
    /// ×1/×2/×4/×8 with the CACTI-style latency growth of Table I's notes
    /// ([`CacheConfig::LLC_LATENCIES`]).
    pub fn llc_sweep(&self) -> Vec<CacheConfig> {
        (0..)
            .zip(CacheConfig::LLC_LATENCIES)
            .map(|(step, (tag, data))| CacheConfig {
                size_bytes: self.base.l3.size_bytes << step,
                tag_latency: tag,
                data_latency: data,
                ..self.base.l3.clone()
            })
            .collect()
    }

    /// The Fig. 4b private-L2 sweep: none, ×0.5/×1/×2 capacity, ×2/×4
    /// associativity.
    pub fn l2_sweep(&self) -> Vec<(String, Option<CacheConfig>)> {
        let base = self.base.l2.clone().expect("base config has an L2");
        let sized = |bytes: u64, assoc: usize| CacheConfig {
            name: "L2",
            size_bytes: bytes,
            assoc,
            tag_latency: base.tag_latency,
            data_latency: base.data_latency,
            policy: base.policy,
        };
        let b = base.size_bytes;
        let label = |bytes: u64, assoc: usize| format!("{}KB/{}w", bytes / 1024, assoc);
        vec![
            ("none".into(), None),
            (label(b / 2, base.assoc), Some(sized(b / 2, base.assoc))),
            (label(b, base.assoc), Some(sized(b, base.assoc))),
            (label(b * 2, base.assoc), Some(sized(b * 2, base.assoc))),
            (label(b, base.assoc * 2), Some(sized(b, base.assoc * 2))),
            (label(b, base.assoc * 4), Some(sized(b, base.assoc * 4))),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::system::run_workload;
    use droplet_gap::Algorithm;
    use droplet_graph::Dataset;

    #[test]
    fn run_grid_cells_equal_per_cell_replay() {
        let specs = [
            (Algorithm::Pr, Dataset::Kron),
            (Algorithm::Bfs, Dataset::Road),
        ]
        .map(|(algorithm, dataset)| WorkloadSpec {
            algorithm,
            dataset,
            scale: DatasetScale::Tiny,
        });
        let ctx = ExperimentCtx::tiny().with_budget(30_000);
        // The first two share a warm-up (the prefetcher is built after
        // it); dropping the L2 changes the warmed hierarchy.
        let cfgs = [
            ctx.base.clone(),
            ctx.base.with_prefetcher(PrefetcherKind::Droplet),
            ctx.base.clone().with_l2(None),
        ];
        for threads in [1, 4] {
            let ctx = ctx.clone().with_threads(threads);
            let grid = ctx.run_grid(&specs, &cfgs);
            assert_eq!(grid.len(), specs.len());
            for (s, row) in grid.iter().enumerate() {
                assert_eq!(row.len(), cfgs.len());
                for (c, r) in row.iter().enumerate() {
                    let replay = run_workload(&ctx.trace(&specs[s]), &cfgs[c], ctx.warmup);
                    assert_eq!(
                        r.digest(),
                        replay.digest(),
                        "cell [{s}][{c}], {threads} threads"
                    );
                }
            }
        }
    }
}
