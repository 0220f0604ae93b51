//! The replacement-policy laboratory: every workload of the matrix run
//! with each RRIP-family policy swapped into the LLC and into the private
//! L2, against the all-LRU baseline — the study the `ReplacementPolicy`
//! seam exists for.
//!
//! The paper's Observation #6 predicts the outcome shape: graph-workload
//! reuse distances are bimodal per data type, so scan-resistant insertion
//! (SRRIP/BRRIP/DRRIP) and dead-block prediction (SHiP) mostly help where
//! a data type thrashes the level without fitting it. The driver therefore
//! pairs the timing table with a reuse-distance *explainer* built from
//! [`droplet_cache::ReuseReport`]: per workload and data type, how much of
//! the L1-miss reuse the L2 and the LLC could capture, and which type is
//! thrashing — the mechanism behind each win or non-win in the table.

use crate::datasets::WorkloadSpec;
use crate::experiments::reuse::l1_filtered_profile;
use crate::experiments::ExperimentCtx;
use crate::report::{geomean, kv_footer, pct, Table};
use crate::system::RunResult;
use droplet_cache::{ReplacementPolicy, ReuseReport};
use droplet_trace::DataType;

/// The non-LRU policies the laboratory evaluates, in table order.
pub const STUDY_POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Srrip,
    ReplacementPolicy::Brrip,
    ReplacementPolicy::Drrip,
    ReplacementPolicy::Ship,
];

/// Which level the policy under test was swapped into (the other levels
/// stay LRU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyLevel {
    /// The private L2.
    L2,
    /// The shared LLC.
    Llc,
}

impl PolicyLevel {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyLevel::L2 => "L2",
            PolicyLevel::Llc => "LLC",
        }
    }
}

/// Metrics of one (workload, policy, level) run.
#[derive(Debug, Clone)]
pub struct PolicyStudyRow {
    /// Workload label ("PR-kron").
    pub label: String,
    /// The policy under test (LRU for baseline rows).
    pub policy: ReplacementPolicy,
    /// The level it was swapped into.
    pub level: PolicyLevel,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Speedup over the all-LRU baseline of the same workload.
    pub speedup: f64,
    /// LLC demand MPKI (total over data types).
    pub llc_mpki: f64,
    /// L2 demand hit rate.
    pub l2_hit_rate: f64,
    /// Bus accesses per kilo-instruction.
    pub bpki: f64,
}

/// The policy × workload × level study, with its reuse-distance explainer.
#[derive(Debug, Clone)]
pub struct PolicyStudy {
    /// All-LRU baseline rows, one per workload (speedup 1.0 by definition).
    pub baselines: Vec<PolicyStudyRow>,
    /// One row per (workload, policy, level).
    pub rows: Vec<PolicyStudyRow>,
    /// Policies evaluated, in column order.
    pub policies: Vec<ReplacementPolicy>,
    /// Per-workload reuse reports over the L1-miss stream, sized to the
    /// study hierarchy's (L2 lines, LLC lines).
    pub reuse: Vec<(String, ReuseReport)>,
    /// One-line reproducibility manifest; wall time makes it
    /// non-deterministic — compare rows, not this.
    pub manifest: String,
}

fn row_from(
    result: &RunResult,
    label: &str,
    policy: ReplacementPolicy,
    level: PolicyLevel,
    base_cycles: u64,
) -> PolicyStudyRow {
    PolicyStudyRow {
        label: label.to_string(),
        policy,
        level,
        cycles: result.core.cycles,
        speedup: base_cycles as f64 / result.core.cycles.max(1) as f64,
        llc_mpki: result.llc_mpki(),
        l2_hit_rate: result.l2_hit_rate(),
        bpki: result.bpki(),
    }
}

/// Runs the laboratory over explicit `specs` (the unit tests use a single
/// workload; [`run_policy_study`] passes the full matrix).
///
/// Per workload the sweep holds 1 + 2·|policies| cells: the all-LRU
/// baseline, each policy in the LLC, each policy in the L2. Every cell
/// changes `warmup_key` (the policy is part of the hierarchy), so the fork
/// runner only shares warm-ups within identical hierarchies — correctness
/// over speed, enforced by `mixed_policy_sweep_forks_safely`.
pub fn run_policy_study_on(
    ctx: &ExperimentCtx,
    specs: &[WorkloadSpec],
    policies: &[ReplacementPolicy],
) -> PolicyStudy {
    let wall = std::time::Instant::now();

    let cfgs: Vec<_> = std::iter::once(ctx.base.clone())
        .chain(policies.iter().map(|&p| ctx.base.clone().with_l3_policy(p)))
        .chain(policies.iter().map(|&p| ctx.base.clone().with_l2_policy(p)))
        .collect();
    let grid = ctx.run_grid(specs, &cfgs);

    let mut baselines = Vec::new();
    let mut rows = Vec::new();
    for (spec, group) in specs.iter().zip(&grid) {
        let label = spec.label();
        let base_cycles = group[0].core.cycles;
        baselines.push(row_from(
            &group[0],
            &label,
            ReplacementPolicy::Lru,
            PolicyLevel::Llc,
            base_cycles,
        ));
        let (llc, l2) = group[1..].split_at(policies.len());
        for (r, &p) in llc.iter().zip(policies) {
            rows.push(row_from(r, &label, p, PolicyLevel::Llc, base_cycles));
        }
        for (r, &p) in l2.iter().zip(policies) {
            rows.push(row_from(r, &label, p, PolicyLevel::L2, base_cycles));
        }
    }

    // The explainer: reuse distances of the L1-miss stream, bucketed
    // against the very sizes the policies were swapped into.
    let l2_lines = ctx.base.l2.as_ref().map_or(1, |c| c.num_lines());
    let llc_lines = ctx.base.l3.num_lines();
    let reuse = specs
        .iter()
        .map(|spec| {
            let bundle = ctx.trace(spec);
            let profiler = l1_filtered_profile(&bundle.ops, &ctx.base.l1);
            (spec.label(), profiler.report(l2_lines, llc_lines))
        })
        .collect();

    let manifest = kv_footer(
        "policy study manifest",
        &[
            ("scale", format!("{:?}", ctx.scale)),
            ("budget", ctx.budget.to_string()),
            ("warmup", ctx.warmup.to_string()),
            ("threads", ctx.pool.threads().to_string()),
            ("workloads", specs.len().to_string()),
            ("policies", policies.len().to_string()),
            ("cells", (specs.len() * cfgs.len()).to_string()),
            (
                "wall_ms",
                format!("{:.0}", wall.elapsed().as_secs_f64() * 1000.0),
            ),
        ],
    );
    PolicyStudy {
        baselines,
        rows,
        policies: policies.to_vec(),
        reuse,
        manifest,
    }
}

/// Runs the laboratory over the full workload matrix of `ctx`.
pub fn run_policy_study(ctx: &ExperimentCtx, policies: &[ReplacementPolicy]) -> PolicyStudy {
    run_policy_study_on(ctx, &WorkloadSpec::matrix(ctx.scale), policies)
}

impl PolicyStudy {
    fn footer(&self) -> String {
        if self.manifest.is_empty() {
            String::new()
        } else {
            format!("{}\n", self.manifest)
        }
    }

    /// Geomean speedup of (policy, level) across all workloads.
    pub fn geomean_speedup(&self, policy: ReplacementPolicy, level: PolicyLevel) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.policy == policy && r.level == level)
            .map(|r| r.speedup)
            .collect();
        geomean(&v)
    }

    /// The (policy, level) column order: all LLC swaps, then all L2 swaps.
    fn columns(&self) -> Vec<(ReplacementPolicy, PolicyLevel)> {
        let mut cols: Vec<(ReplacementPolicy, PolicyLevel)> = self
            .policies
            .iter()
            .map(|&p| (p, PolicyLevel::Llc))
            .collect();
        cols.extend(self.policies.iter().map(|&p| (p, PolicyLevel::L2)));
        cols
    }

    /// Renders the policy × workload × level speedup table with a geomean
    /// summary row.
    pub fn render(&self) -> String {
        let cols = self.columns();
        let mut t = Table::new(
            std::iter::once("workload".to_string())
                .chain(cols.iter().map(|(p, l)| format!("{}:{}", l.name(), p)))
                .collect(),
        );
        for b in &self.baselines {
            let mut cells = vec![b.label.clone()];
            for &(p, l) in &cols {
                let cell = self
                    .rows
                    .iter()
                    .find(|r| r.label == b.label && r.policy == p && r.level == l)
                    .map(|r| format!("{:.3}x", r.speedup))
                    .unwrap_or_default();
                cells.push(cell);
            }
            t.row(cells);
        }
        let mut summary = vec!["geomean".to_string()];
        for &(p, l) in &cols {
            summary.push(format!("{:.3}x", self.geomean_speedup(p, l)));
        }
        t.row(summary);
        format!(
            "Policy laboratory — speedup over the all-LRU baseline\n\
             (policy swapped into one level; all other levels stay LRU)\n{}\n{}",
            t.render(),
            self.footer()
        )
    }

    /// Renders the reuse-distance explainer: why each policy can (or
    /// cannot) win at each level, per workload and data type.
    pub fn render_reuse_explainer(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "type".into(),
            "cold".into(),
            "reuses".into(),
            "fits L2".into(),
            "fits LLC".into(),
            "LLC-only gain".into(),
            "thrashes LLC".into(),
        ]);
        for (label, report) in &self.reuse {
            let worst = report.most_thrashing();
            for dt in DataType::ALL {
                let row = report.row(dt);
                t.row(vec![
                    label.clone(),
                    format!("{dt}{}", if dt == worst { " *" } else { "" }),
                    row.cold.to_string(),
                    row.reuses.to_string(),
                    pct(row.capturable_small),
                    pct(row.capturable_large),
                    pct(row.large_cache_gain()),
                    pct(row.thrash_fraction()),
                ]);
            }
        }
        format!(
            "Reuse-distance explainer (L1-miss stream; * = most LLC-thrashing type)\n\
             scan-resistant insertion helps where \"thrashes LLC\" is high;\n\
             dead-block prediction (SHiP) additionally needs signature stability.\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_gap::Algorithm;
    use droplet_graph::Dataset;

    /// End-to-end on one workload: row shape, baseline identity, and the
    /// render paths. Tiny scale keeps this in unit-test budget.
    #[test]
    fn single_workload_study_has_coherent_shape() {
        let mut ctx = ExperimentCtx::tiny();
        ctx.budget = 60_000;
        ctx.warmup = 2_000;
        let specs = [WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        }];
        let study = run_policy_study_on(&ctx, &specs, &STUDY_POLICIES);
        assert_eq!(study.baselines.len(), 1);
        assert_eq!(study.rows.len(), 2 * STUDY_POLICIES.len());
        assert!((study.baselines[0].speedup - 1.0).abs() < 1e-12);
        for r in &study.rows {
            assert!(r.cycles > 0, "{}:{} ran", r.level.name(), r.policy);
            assert!(r.speedup > 0.0);
        }
        // Same policy, different level ⇒ independent runs (LLC swap and L2
        // swap are distinct hierarchies; identical cycles for all four
        // policies at both levels would mean the seam is not plumbed).
        let distinct: std::collections::HashSet<u64> =
            study.rows.iter().map(|r| r.cycles).collect();
        assert!(distinct.len() > 1, "policy swaps changed nothing");
        let text = study.render();
        assert!(text.contains("LLC:SRRIP") && text.contains("L2:SHiP"));
        assert!(text.contains("geomean"));
        let explain = study.render_reuse_explainer();
        assert!(explain.contains("PR-kron") && explain.contains("thrashes LLC"));
    }

    #[test]
    fn render_handles_hand_assembled_study() {
        let study = PolicyStudy {
            baselines: vec![PolicyStudyRow {
                label: "PR-kron".into(),
                policy: ReplacementPolicy::Lru,
                level: PolicyLevel::Llc,
                cycles: 1000,
                speedup: 1.0,
                llc_mpki: 10.0,
                l2_hit_rate: 0.5,
                bpki: 20.0,
            }],
            rows: vec![PolicyStudyRow {
                label: "PR-kron".into(),
                policy: ReplacementPolicy::Ship,
                level: PolicyLevel::Llc,
                cycles: 900,
                speedup: 1000.0 / 900.0,
                llc_mpki: 9.0,
                l2_hit_rate: 0.5,
                bpki: 19.0,
            }],
            policies: vec![ReplacementPolicy::Ship],
            reuse: Vec::new(),
            manifest: String::new(),
        };
        let text = study.render();
        assert!(text.contains("PR-kron"));
        assert!(text.contains("1.111x"));
        assert!(
            (study.geomean_speedup(ReplacementPolicy::Ship, PolicyLevel::Llc) - 1000.0 / 900.0)
                .abs()
                < 1e-12
        );
    }
}
