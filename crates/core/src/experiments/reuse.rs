//! Reuse-distance analysis behind the paper's Observation #6 and the
//! Table IV prefetch-design decisions: structure cachelines have the
//! largest reuse distances (beyond even the LLC), property reuse exceeds
//! the L2 stack depth but often fits the LLC, intermediate data is
//! cache-resident.

use crate::datasets::WorkloadSpec;
use crate::experiments::ExperimentCtx;
use crate::report::{pct, Table};
use droplet_cache::{FillInfo, ReuseProfiler, SetAssocCache};
use droplet_trace::DataType;

/// Reuse-distance summary for one workload.
#[derive(Debug, Clone)]
pub struct ReuseRow {
    /// Workload label.
    pub label: String,
    /// Per data type: fraction of reuses capturable by an L1/L2/L3-sized
    /// fully associative cache, indexed `[dtype][level]`.
    pub capturable: [[f64; 3]; 3],
    /// Per data type: mean log2 reuse distance (lines).
    pub mean_log2: [f64; 3],
}

/// The reuse-distance table (supporting Observation #6 / Table IV).
#[derive(Debug, Clone)]
pub struct ReuseTable {
    /// Per-workload rows.
    pub rows: Vec<ReuseRow>,
    /// Cache sizes used, in lines (L1, L2, L3).
    pub cache_lines: [u64; 3],
}

impl ReuseTable {
    /// Mean capturable fraction of `dtype` at cache level `level` (0..3).
    pub fn mean_capturable(&self, dtype: DataType, level: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.capturable[dtype.index()][level])
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "type".into(),
            format!("<= L1 ({} lines)", self.cache_lines[0]),
            format!("<= L2 ({} lines)", self.cache_lines[1]),
            format!("<= L3 ({} lines)", self.cache_lines[2]),
            "mean log2 dist".into(),
        ]);
        for r in &self.rows {
            for dt in DataType::ALL {
                t.row(vec![
                    r.label.clone(),
                    dt.to_string(),
                    pct(r.capturable[dt.index()][0]),
                    pct(r.capturable[dt.index()][1]),
                    pct(r.capturable[dt.index()][2]),
                    format!("{:.1}", r.mean_log2[dt.index()]),
                ]);
            }
        }
        format!(
            "Observation #6 — reuse distances by data type (Olken stack distances)\n{}\n\
             paper: structure reuse exceeds the LLC (serviced by L1 + DRAM);\n\
             property reuse exceeds the L2 stack depth but reaches the LLC;\n\
             intermediate data stays cache-resident.\n",
            t.render()
        )
    }
}

/// Profiles the reuse distances of the *L1-miss* stream: the paper frames
/// Observation #6 as "a cacheline missed in L1 is one that was referenced
/// in the distant past", so short same-line reuse (which the L1 absorbs)
/// must be filtered out before measuring stack distances.
pub(crate) fn l1_filtered_profile(
    ops: &[droplet_trace::MemOp],
    l1: &droplet_cache::CacheConfig,
) -> ReuseProfiler {
    let mut filter = SetAssocCache::new(l1.clone());
    let mut profiler = ReuseProfiler::new();
    for (i, op) in ops.iter().enumerate() {
        let line = op.addr().line_index();
        if filter
            .touch(line, i as u64, op.dtype(), !op.is_load())
            .is_none()
        {
            profiler.access(line, op.dtype());
            filter.fill(line, FillInfo::demand(op.dtype(), i as u64));
        }
    }
    profiler
}

/// Computes reuse-distance profiles over the workload matrix, whose traces
/// come from the shared cache.
pub fn tab_reuse_distances(ctx: &ExperimentCtx) -> ReuseTable {
    let cache_lines = [
        ctx.base.l1.num_lines(),
        ctx.base.l2.as_ref().map_or(0, |c| c.num_lines()),
        ctx.base.l3.num_lines(),
    ];
    let specs = WorkloadSpec::matrix(ctx.scale);
    let mut rows = Vec::new();
    for (spec, bundle) in specs.iter().zip(ctx.build_traces(&specs)) {
        let profiler = l1_filtered_profile(&bundle.ops, &ctx.base.l1);
        let mut capturable = [[0.0; 3]; 3];
        let mut mean_log2 = [0.0; 3];
        for dt in DataType::ALL {
            let h = profiler.histogram(dt);
            for (li, &lines) in cache_lines.iter().enumerate() {
                capturable[dt.index()][li] = h.capturable_by(lines.max(1));
            }
            mean_log2[dt.index()] = h.mean_log2_distance();
        }
        rows.push(ReuseRow {
            label: spec.label(),
            capturable,
            mean_log2,
        });
    }
    ReuseTable { rows, cache_lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_gap::Algorithm;
    use droplet_graph::Dataset;

    #[test]
    fn structure_reuse_exceeds_property_reuse() {
        let ctx = ExperimentCtx::tiny();
        let spec = WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        };
        let bundle = spec.build_trace_with_budget(ctx.budget);
        let profiler = l1_filtered_profile(&bundle.ops, &ctx.base.l1);
        let s = profiler.histogram(DataType::Structure);
        let p = profiler.histogram(DataType::Property);
        let i = profiler.histogram(DataType::Intermediate);
        // Paper's heterogeneity: post-L1-miss structure reuse is the most
        // distant; property exceeds an L2-sized stack; intermediate is the
        // most cache-friendly of the three.
        assert!(
            s.mean_log2_distance() > p.mean_log2_distance(),
            "structure {} vs property {}",
            s.mean_log2_distance(),
            p.mean_log2_distance()
        );
        let l2_lines = 128u64;
        assert!(
            p.capturable_by(l2_lines) < 0.5,
            "property reuse should exceed the L2 stack depth: {}",
            p.capturable_by(l2_lines)
        );
        // PR's only intermediate array is the offsets stream, whose
        // post-L1-filter reuse is one full pass — just confirm the
        // histogram exists; the L1 absorbs 7/8 of its accesses (Fig. 7).
        assert!(i.reuses() + i.cold() > 0);
    }

    #[test]
    fn table_renders() {
        let table = ReuseTable {
            rows: vec![ReuseRow {
                label: "PR-kron".into(),
                capturable: [[0.1; 3]; 3],
                mean_log2: [10.0, 7.0, 2.0],
            }],
            cache_lines: [16, 128, 256],
        };
        let text = table.render();
        assert!(text.contains("Observation #6"));
        assert!(text.contains("PR-kron"));
        assert!((table.mean_capturable(DataType::Structure, 0) - 0.1).abs() < 1e-12);
    }
}
