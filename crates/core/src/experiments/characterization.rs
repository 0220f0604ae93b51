//! Characterization experiments (paper Section IV): cycle stacks, the
//! instruction-window sweep, dependency-chain analysis, and the per-type
//! memory-hierarchy usage breakdown.

use crate::datasets::WorkloadSpec;
use crate::experiments::ExperimentCtx;
use crate::report::{pct, Table};
use crate::system::run_workload;
use droplet_cpu::{analyze_chains, CycleStack};
use droplet_gap::Algorithm;
use droplet_graph::Dataset;
use droplet_trace::DataType;

/// Fig. 1 — the cycle stack of PageRank on the orkut dataset.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// The measured cycle stack.
    pub stack: CycleStack,
}

impl Fig01 {
    /// Renders the figure row with the paper's expectation annotated.
    pub fn render(&self) -> String {
        format!(
            "Fig. 1 — cycle stack, PR on orkut\n\
             measured: {}\n\
             paper:    DRAM-bound ~45% of cycles, fully-busy ~15%\n",
            self.stack
        )
    }
}

/// Runs the Fig. 1 experiment.
pub fn fig01_cycle_stack(ctx: &ExperimentCtx) -> Fig01 {
    let spec = WorkloadSpec {
        algorithm: Algorithm::Pr,
        dataset: Dataset::Orkut,
        scale: ctx.scale,
    };
    let bundle = ctx.trace(&spec);
    let r = run_workload(&bundle, &ctx.base, ctx.warmup);
    Fig01 {
        stack: r.core.cycle_stack,
    }
}

/// One row of the Fig. 3 instruction-window sweep.
#[derive(Debug, Clone)]
pub struct Fig03Row {
    /// Workload label ("PR-orkut").
    pub label: String,
    /// DRAM bandwidth utilization, baseline window.
    pub bw_base: f64,
    /// DRAM bandwidth utilization, 4× window.
    pub bw_big: f64,
    /// Speedup of the 4× window over baseline.
    pub speedup: f64,
    /// MLP at the baseline window.
    pub mlp_base: f64,
    /// MLP at the 4× window.
    pub mlp_big: f64,
}

/// Fig. 3 — effect of a 4× larger instruction window.
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// Per-workload rows.
    pub rows: Vec<Fig03Row>,
}

impl Fig03 {
    /// Mean bandwidth-utilization increase (paper: +2.7 % on average).
    pub fn mean_bw_increase(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.bw_big - r.bw_base).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean speedup − 1 (paper: +1.44 % on average).
    pub fn mean_speedup_gain(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.speedup - 1.0).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the figure table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "BW util (1x)".into(),
            "BW util (4x)".into(),
            "MLP (1x)".into(),
            "MLP (4x)".into(),
            "speedup".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                pct(r.bw_base),
                pct(r.bw_big),
                format!("{:.2}", r.mlp_base),
                format!("{:.2}", r.mlp_big),
                format!("{:.3}x", r.speedup),
            ]);
        }
        format!(
            "Fig. 3 — 4x instruction window\n{}\nmean BW increase {:.2} pp (paper: +2.7%), \
             mean speedup {:.2}% (paper: +1.44%)\n",
            t.render(),
            100.0 * self.mean_bw_increase(),
            100.0 * self.mean_speedup_gain(),
        )
    }
}

/// Runs the Fig. 3 experiment over the full workload matrix; the
/// independent (workload, window) cells fan out over `ctx.pool`.
pub fn fig03_rob_sweep(ctx: &ExperimentCtx) -> Fig03 {
    let specs = WorkloadSpec::matrix(ctx.scale);
    let cfgs = [ctx.base.clone(), ctx.base.clone().with_window_scale(4)];
    let rows = specs
        .iter()
        .zip(ctx.run_grid(&specs, &cfgs))
        .map(|(spec, group)| {
            let (base, big) = (&group[0], &group[1]);
            Fig03Row {
                label: spec.label(),
                bw_base: base.bandwidth_utilization(),
                bw_big: big.bandwidth_utilization(),
                speedup: base.core.cycles as f64 / big.core.cycles.max(1) as f64,
                mlp_base: base.core.mlp.avg_outstanding,
                mlp_big: big.core.mlp.avg_outstanding,
            }
        })
        .collect();
    Fig03 { rows }
}

/// One row of the Fig. 5/6 dependency-chain analysis.
#[derive(Debug, Clone)]
pub struct ChainRow {
    /// Workload label.
    pub label: String,
    /// Fraction of loads in chains (paper avg: 43.2 %).
    pub chained: f64,
    /// Mean chain length in loads (paper avg: 2.5).
    pub mean_len: f64,
    /// Producer fraction by data type (Fig. 6).
    pub producer: [f64; 3],
    /// Consumer fraction by data type (Fig. 6).
    pub consumer: [f64; 3],
}

/// Figs. 5 & 6 — load-load dependency chains and role breakdown.
#[derive(Debug, Clone)]
pub struct Fig0506 {
    /// Per-workload rows.
    pub rows: Vec<ChainRow>,
}

impl Fig0506 {
    /// Mean over rows of a row-extracted metric.
    pub fn mean(&self, f: impl Fn(&ChainRow) -> f64) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(f).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders both figure tables.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "loads in chains".into(),
            "mean chain len".into(),
            "prod S".into(),
            "prod P".into(),
            "prod I".into(),
            "cons S".into(),
            "cons P".into(),
            "cons I".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![
                r.label.clone(),
                pct(r.chained),
                format!("{:.2}", r.mean_len),
            ];
            for v in r.producer {
                cells.push(pct(v));
            }
            for v in r.consumer {
                cells.push(pct(v));
            }
            t.row(cells);
        }
        let si = DataType::Structure.index();
        let pi = DataType::Property.index();
        format!(
            "Figs. 5 & 6 — load-load dependency chains\n{}\n\
             mean chained {:.1}% (paper: 43.2%), mean chain length {:.2} (paper: 2.5)\n\
             structure as producer {:.1}% (paper: 41.4%), as consumer {:.1}% (paper: 6%)\n\
             property as consumer {:.1}% (paper: 53.6%), as producer {:.1}% (paper: 5.9%)\n",
            t.render(),
            100.0 * self.mean(|r| r.chained),
            self.mean(|r| r.mean_len),
            100.0 * self.mean(|r| r.producer[si]),
            100.0 * self.mean(|r| r.consumer[si]),
            100.0 * self.mean(|r| r.consumer[pi]),
            100.0 * self.mean(|r| r.producer[pi]),
        )
    }
}

/// Runs the Fig. 5/6 analysis (trace-level; no timing model needed); the
/// per-workload analyses fan out over `ctx.pool`.
pub fn fig05_06_chains(ctx: &ExperimentCtx) -> Fig0506 {
    let rob = ctx.base.core.rob;
    let rows = ctx.pool.run(
        WorkloadSpec::matrix(ctx.scale)
            .into_iter()
            .map(|spec| {
                move || {
                    let bundle = ctx.trace(&spec);
                    let report = analyze_chains(&bundle.ops, rob);
                    ChainRow {
                        label: spec.label(),
                        chained: report.chained_fraction(),
                        mean_len: report.mean_chain_len(),
                        producer: [
                            report.producer_fraction(DataType::Structure),
                            report.producer_fraction(DataType::Property),
                            report.producer_fraction(DataType::Intermediate),
                        ],
                        consumer: [
                            report.consumer_fraction(DataType::Structure),
                            report.consumer_fraction(DataType::Property),
                            report.consumer_fraction(DataType::Intermediate),
                        ],
                    }
                }
            })
            .collect(),
    );
    Fig0506 { rows }
}

/// One row of the Fig. 7 hierarchy-usage breakdown.
#[derive(Debug, Clone)]
pub struct Fig07Row {
    /// Workload label.
    pub label: String,
    /// Service fractions [L1, L2, L3, DRAM] per data type index.
    pub breakdown: [[f64; 4]; 3],
}

/// Fig. 7 — memory-hierarchy usage by application data type.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// Per-workload rows.
    pub rows: Vec<Fig07Row>,
}

impl Fig07 {
    /// Mean service fraction of `dtype` at hierarchy `level` (0..4).
    pub fn mean_fraction(&self, dtype: DataType, level: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.breakdown[dtype.index()][level])
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Renders the figure table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "type".into(),
            "L1".into(),
            "L2".into(),
            "L3".into(),
            "DRAM".into(),
        ]);
        for r in &self.rows {
            for dt in DataType::ALL {
                let b = r.breakdown[dt.index()];
                t.row(vec![
                    r.label.clone(),
                    dt.to_string(),
                    pct(b[0]),
                    pct(b[1]),
                    pct(b[2]),
                    pct(b[3]),
                ]);
            }
        }
        format!(
            "Fig. 7 — memory hierarchy usage by data type\n{}\n\
             paper: structure is serviced by L1 + DRAM; property by L1 + LLC + DRAM;\n\
             intermediate mostly on-chip; the private L2 services almost nothing.\n",
            t.render()
        )
    }
}

/// Runs the Fig. 7 experiment (baseline configuration); the per-workload
/// cells fan out over `ctx.pool`.
pub fn fig07_hierarchy_usage(ctx: &ExperimentCtx) -> Fig07 {
    let specs = WorkloadSpec::matrix(ctx.scale);
    let rows = specs
        .iter()
        .zip(ctx.run_grid(&specs, std::slice::from_ref(&ctx.base)))
        .map(|(spec, group)| {
            let mut breakdown = [[0.0; 4]; 3];
            for dt in DataType::ALL {
                breakdown[dt.index()] = group[0].service_breakdown(dt);
            }
            Fig07Row {
                label: spec.label(),
                breakdown,
            }
        })
        .collect();
    Fig07 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_is_dram_heavy() {
        let f = fig01_cycle_stack(&ExperimentCtx::tiny());
        assert!(
            f.stack.dram_fraction() > 0.25,
            "PR-orkut must be DRAM-bound: {}",
            f.stack
        );
        assert!(f.render().contains("Fig. 1"));
    }

    #[test]
    fn fig05_chains_match_paper_shape() {
        // A couple of representative cells, not the whole matrix, for speed.
        let ctx = ExperimentCtx::tiny();
        let spec = WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        };
        let bundle = spec.build_trace_with_budget(ctx.budget);
        let report = analyze_chains(&bundle.ops, 128);
        // Property is overwhelmingly the consumer; structure the producer.
        assert!(report.consumer_fraction(DataType::Property) > 0.2);
        assert!(report.producer_fraction(DataType::Structure) > 0.1);
        assert!(report.producer_fraction(DataType::Property) < 0.1);
        assert!(report.chained_fraction() > 0.2);
        assert!(report.mean_chain_len() >= 2.0);
    }

    #[test]
    fn fig07_structure_skips_l2() {
        let ctx = ExperimentCtx::tiny();
        let spec = WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Urand,
            scale: ctx.scale,
        };
        let bundle = spec.build_trace_with_budget(ctx.budget);
        let r = run_workload(&bundle, &ctx.base, ctx.warmup);
        let s = r.service_breakdown(DataType::Structure);
        // Structure: dominated by L1 (spatial locality within lines) and
        // the far levels; the private L2 contributes the least.
        assert!(s[0] > 0.5, "L1 should dominate structure: {s:?}");
        assert!(s[1] < 0.2, "L2 should service little structure: {s:?}");
    }
}
