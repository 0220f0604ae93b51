//! The prefetcher evaluation study behind Figs. 11–15: every workload cell
//! run under a chosen set of prefetcher configurations, with all the
//! metrics those figures report.

use crate::config::PrefetcherKind;
use crate::datasets::WorkloadSpec;
use crate::experiments::ExperimentCtx;
use crate::report::{geomean, kv_footer, pct, Table};
use crate::system::RunResult;
use droplet_gap::Algorithm;
use droplet_trace::DataType;
use std::collections::HashMap;

/// Metrics of one (workload, configuration) run.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// Workload label ("CC-kron").
    pub label: String,
    /// The algorithm, for per-algorithm summaries.
    pub algorithm: Algorithm,
    /// The configuration.
    pub kind: PrefetcherKind,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Speedup over the no-prefetch baseline of the same workload.
    pub speedup: f64,
    /// L2 demand hit rate (Fig. 12).
    pub l2_hit_rate: f64,
    /// LLC demand MPKI by data type (Fig. 13).
    pub llc_mpki_by_type: [f64; 3],
    /// Prefetch accuracy by data type at the prefetch home (Fig. 14).
    pub accuracy_by_type: [f64; 3],
    /// Bus accesses per kilo instruction (Fig. 15).
    pub bpki: f64,
}

/// The study results over a workload matrix × configuration set.
#[derive(Debug, Clone)]
pub struct PrefetchStudy {
    /// Baseline rows (kind == None), one per workload.
    pub baselines: Vec<StudyRow>,
    /// One row per (workload, evaluated configuration).
    pub rows: Vec<StudyRow>,
    /// The configurations evaluated, in order.
    pub kinds: Vec<PrefetcherKind>,
    /// One-line reproducibility manifest (scale, budget, warm-up, thread
    /// count, cell count, wall time); appended to every rendered figure.
    /// Wall time makes this non-deterministic — compare rows, not this.
    pub manifest: String,
}

fn row_from(
    result: &RunResult,
    spec: &WorkloadSpec,
    kind: PrefetcherKind,
    base_cycles: u64,
) -> StudyRow {
    let mut mpki = [0.0; 3];
    let mut acc = [0.0; 3];
    for dt in DataType::ALL {
        mpki[dt.index()] = result.llc_mpki_of(dt);
        acc[dt.index()] = result.prefetch_accuracy(dt);
    }
    StudyRow {
        label: spec.label(),
        algorithm: spec.algorithm,
        kind,
        cycles: result.core.cycles,
        speedup: base_cycles as f64 / result.core.cycles.max(1) as f64,
        l2_hit_rate: result.l2_hit_rate(),
        llc_mpki_by_type: mpki,
        accuracy_by_type: acc,
        bpki: result.bpki(),
    }
}

/// Runs the study for `kinds` over the full matrix of `ctx`.
///
/// Every (workload, configuration) cell is an independent simulation over
/// shared read-only inputs, so the cells fan out over `ctx.pool`; results
/// come back in submission order, making the output identical to a serial
/// run (`DROPLET_THREADS=1` forces the serial path for debugging).
pub fn run_study(ctx: &ExperimentCtx, kinds: &[PrefetcherKind]) -> PrefetchStudy {
    let wall = std::time::Instant::now();
    let specs = WorkloadSpec::matrix(ctx.scale);

    // Every (workload, configuration) cell, baseline first so speedups can
    // be assembled from each workload's row. All cells of a workload share
    // a warmup-relevant prefix, so the grid warms each workload once and
    // forks the per-configuration measurement regions out.
    let cfgs: Vec<_> = std::iter::once(ctx.base.clone())
        .chain(kinds.iter().map(|&k| ctx.base.with_prefetcher(k)))
        .collect();
    let grid = ctx.run_grid(&specs, &cfgs);

    let mut baselines = Vec::new();
    let mut rows = Vec::new();
    for (spec, group) in specs.iter().zip(&grid) {
        let base_cycles = group[0].core.cycles;
        baselines.push(row_from(&group[0], spec, PrefetcherKind::None, base_cycles));
        for (r, &kind) in group[1..].iter().zip(kinds) {
            rows.push(row_from(r, spec, kind, base_cycles));
        }
    }
    let manifest = kv_footer(
        "study manifest",
        &[
            ("scale", format!("{:?}", ctx.scale)),
            ("budget", ctx.budget.to_string()),
            ("warmup", ctx.warmup.to_string()),
            ("threads", ctx.pool.threads().to_string()),
            ("workloads", specs.len().to_string()),
            ("configs", kinds.len().to_string()),
            ("cells", (specs.len() * cfgs.len()).to_string()),
            (
                "wall_ms",
                format!("{:.0}", wall.elapsed().as_secs_f64() * 1000.0),
            ),
        ],
    );
    PrefetchStudy {
        baselines,
        rows,
        kinds: kinds.to_vec(),
        manifest,
    }
}

impl PrefetchStudy {
    /// The manifest as a render suffix ("" when no manifest was recorded,
    /// e.g. for hand-assembled studies in tests).
    fn footer(&self) -> String {
        if self.manifest.is_empty() {
            String::new()
        } else {
            format!("{}\n", self.manifest)
        }
    }

    /// Geomean speedup of `kind` across the datasets of `algorithm`
    /// (one cell of Fig. 11b).
    pub fn geomean_speedup(&self, algorithm: Algorithm, kind: PrefetcherKind) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.algorithm == algorithm && r.kind == kind)
            .map(|r| r.speedup)
            .collect();
        geomean(&v)
    }

    /// Mean of a per-row metric over the datasets of `algorithm` × `kind`.
    pub fn mean_metric(
        &self,
        algorithm: Algorithm,
        kind: PrefetcherKind,
        f: impl Fn(&StudyRow) -> f64,
    ) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .chain(self.baselines.iter())
            .filter(|r| r.algorithm == algorithm && r.kind == kind)
            .map(&f)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Renders Fig. 11a (per-workload speedups) and 11b (geomeans).
    pub fn render_fig11(&self) -> String {
        let mut t = Table::new(
            std::iter::once("workload".to_string())
                .chain(self.kinds.iter().map(|k| k.name().to_string()))
                .collect(),
        );
        let mut by_label: HashMap<&str, Vec<&StudyRow>> = HashMap::new();
        for r in &self.rows {
            by_label.entry(&r.label).or_default().push(r);
        }
        for b in &self.baselines {
            let mut cells = vec![b.label.clone()];
            if let Some(rs) = by_label.get(b.label.as_str()) {
                for k in &self.kinds {
                    let cell = rs
                        .iter()
                        .find(|r| r.kind == *k)
                        .map(|r| format!("{:.2}x", r.speedup))
                        .unwrap_or_default();
                    cells.push(cell);
                }
            }
            t.row(cells);
        }

        let mut summary = Table::new(
            std::iter::once("algorithm".to_string())
                .chain(self.kinds.iter().map(|k| k.name().to_string()))
                .collect(),
        );
        for algo in Algorithm::ALL {
            let mut cells = vec![algo.name().to_string()];
            for &k in &self.kinds {
                cells.push(format!("{:.2}x", self.geomean_speedup(algo, k)));
            }
            summary.row(cells);
        }
        format!(
            "Fig. 11a — speedup over the no-prefetch baseline\n{}\n\
             Fig. 11b — geomean speedup per algorithm\n{}\n\
             paper: DROPLET best for CC (+102%), PR (+30%), BC (+19%), SSSP (+32%);\n\
             streamMPP1 best for BFS (+36%) and the road dataset.\n{}",
            t.render(),
            summary.render(),
            self.footer()
        )
    }

    /// Renders Fig. 12 (L2 hit rates per algorithm × configuration).
    pub fn render_fig12(&self) -> String {
        let mut t = Table::new(
            std::iter::once("algorithm".to_string())
                .chain(std::iter::once("baseline".to_string()))
                .chain(self.kinds.iter().map(|k| k.name().to_string()))
                .collect(),
        );
        for algo in Algorithm::ALL {
            let mut cells = vec![algo.name().to_string()];
            cells.push(pct(
                self.mean_metric(algo, PrefetcherKind::None, |r| r.l2_hit_rate)
            ));
            for &k in &self.kinds {
                cells.push(pct(self.mean_metric(algo, k, |r| r.l2_hit_rate)));
            }
            t.row(cells);
        }
        format!(
            "Fig. 12 — L2 cache hit rate\n{}\n\
             paper: DROPLET lifts the under-utilized L2 to 62/76/14/38/50%\n\
             for CC/PR/BC/BFS/SSSP.\n{}",
            t.render(),
            self.footer()
        )
    }

    /// Renders Fig. 13 (off-chip demand MPKI by data type).
    pub fn render_fig13(&self) -> String {
        let mut t = Table::new(vec![
            "algorithm".into(),
            "config".into(),
            "structure MPKI".into(),
            "property MPKI".into(),
            "intermediate MPKI".into(),
        ]);
        for algo in Algorithm::ALL {
            for kind in std::iter::once(PrefetcherKind::None).chain(self.kinds.iter().copied()) {
                t.row(vec![
                    algo.name().to_string(),
                    kind.name().to_string(),
                    format!(
                        "{:.2}",
                        self.mean_metric(algo, kind, |r| r.llc_mpki_by_type[0])
                    ),
                    format!(
                        "{:.2}",
                        self.mean_metric(algo, kind, |r| r.llc_mpki_by_type[1])
                    ),
                    format!(
                        "{:.2}",
                        self.mean_metric(algo, kind, |r| r.llc_mpki_by_type[2])
                    ),
                ]);
            }
        }
        format!(
            "Fig. 13 — off-chip demand MPKI by data type\n{}\n\
             paper: stream cuts structure MPKI; the MPP cuts property MPKI;\n\
             DROPLET's structure-only streamer cuts both further.\n{}",
            t.render(),
            self.footer()
        )
    }

    /// Renders Fig. 14 (prefetch accuracy by data type).
    pub fn render_fig14(&self) -> String {
        let mut t = Table::new(vec![
            "algorithm".into(),
            "config".into(),
            "structure accuracy".into(),
            "property accuracy".into(),
        ]);
        for algo in Algorithm::ALL {
            for &kind in &self.kinds {
                t.row(vec![
                    algo.name().to_string(),
                    kind.name().to_string(),
                    pct(self.mean_metric(algo, kind, |r| {
                        r.accuracy_by_type[DataType::Structure.index()]
                    })),
                    pct(self.mean_metric(algo, kind, |r| {
                        r.accuracy_by_type[DataType::Property.index()]
                    })),
                ]);
            }
        }
        format!(
            "Fig. 14 — prefetch accuracy\n{}\n\
             paper: DROPLET structure accuracy 100/95/53/66/64% and property\n\
             accuracy 94/95/46/47/70% for CC/PR/BC/BFS/SSSP; sequential-order\n\
             algorithms (CC, PR) are the most accurate.\n{}",
            t.render(),
            self.footer()
        )
    }

    /// Renders Fig. 15 (bandwidth overhead in BPKI).
    pub fn render_fig15(&self) -> String {
        let mut t = Table::new(vec![
            "algorithm".into(),
            "config".into(),
            "BPKI".into(),
            "overhead vs baseline".into(),
        ]);
        for algo in Algorithm::ALL {
            let base = self.mean_metric(algo, PrefetcherKind::None, |r| r.bpki);
            t.row(vec![
                algo.name().to_string(),
                "baseline".into(),
                format!("{base:.2}"),
                "-".into(),
            ]);
            for &kind in &self.kinds {
                let b = self.mean_metric(algo, kind, |r| r.bpki);
                let overhead = if base > 0.0 { b / base - 1.0 } else { 0.0 };
                t.row(vec![
                    algo.name().to_string(),
                    kind.name().to_string(),
                    format!("{b:.2}"),
                    pct(overhead),
                ]);
            }
        }
        format!(
            "Fig. 15 — extra bandwidth consumption (BPKI)\n{}\n\
             paper: DROPLET costs +6.5/7/11.3/19.9/15.1% extra bandwidth for\n\
             CC/PR/BC/BFS/SSSP; CC and PR are cheapest thanks to accuracy.\n{}",
            t.render(),
            self.footer()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_workload;
    use droplet_graph::Dataset;

    /// A one-cell study so tests stay fast.
    fn mini_study(kinds: &[PrefetcherKind]) -> PrefetchStudy {
        let ctx = ExperimentCtx::tiny();
        let spec = WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        };
        let bundle = ctx.trace(&spec);
        let base = run_workload(&bundle, &ctx.base, ctx.warmup);
        let base_cycles = base.core.cycles;
        let baselines = vec![row_from(&base, &spec, PrefetcherKind::None, base_cycles)];
        let rows = kinds
            .iter()
            .map(|&k| {
                let r = run_workload(&bundle, &ctx.base.with_prefetcher(k), ctx.warmup);
                row_from(&r, &spec, k, base_cycles)
            })
            .collect();
        PrefetchStudy {
            baselines,
            rows,
            kinds: kinds.to_vec(),
            manifest: String::new(),
        }
    }

    #[test]
    fn droplet_beats_baseline_and_renders() {
        let study = mini_study(&[PrefetcherKind::Stream, PrefetcherKind::Droplet]);
        let droplet = study.geomean_speedup(Algorithm::Pr, PrefetcherKind::Droplet);
        assert!(droplet > 1.0, "DROPLET speedup {droplet}");
        for text in [
            study.render_fig11(),
            study.render_fig12(),
            study.render_fig13(),
            study.render_fig14(),
            study.render_fig15(),
        ] {
            assert!(text.contains("Fig. 1"), "{text}");
        }
    }

    #[test]
    fn droplet_structure_accuracy_is_high_on_pr() {
        let study = mini_study(&[PrefetcherKind::Droplet]);
        let acc = study.mean_metric(Algorithm::Pr, PrefetcherKind::Droplet, |r| {
            r.accuracy_by_type[DataType::Structure.index()]
        });
        assert!(acc > 0.7, "structure accuracy {acc}");
    }

    #[test]
    fn prefetching_adds_bandwidth() {
        let study = mini_study(&[PrefetcherKind::Droplet]);
        let base = study.mean_metric(Algorithm::Pr, PrefetcherKind::None, |r| r.bpki);
        let with = study.mean_metric(Algorithm::Pr, PrefetcherKind::Droplet, |r| r.bpki);
        assert!(with >= base, "bpki {with} vs {base}");
    }
}
