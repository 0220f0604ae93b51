//! Ablation studies of DROPLET's design choices (DESIGN.md §9).
//!
//! - **Decoupling** — the paper's core architectural argument (Section V-A):
//!   physically decoupling the property prefetcher at the MC versus the
//!   monolithic L1 arrangement, plus the Section VII-B adaptive extension.
//! - **MPP sizing** — how VAB/PAB occupancy bounds and the MTLB size trade
//!   prefetch volume against pollution (Table V sizing).

use crate::config::PrefetcherKind;
use crate::datasets::WorkloadSpec;
use crate::experiments::ExperimentCtx;
use crate::report::Table;
use droplet_gap::Algorithm;
use droplet_graph::Dataset;

/// One row of the decoupling ablation.
#[derive(Debug, Clone)]
pub struct DecouplingRow {
    /// Workload label.
    pub label: String,
    /// Speedup over the no-prefetch baseline, per configuration
    /// (streamMPP1, monoDROPLETL1, DROPLET, DROPLET-adaptive).
    pub speedups: [f64; 4],
    /// The mode adaptive DROPLET locked into (`true` = stayed data-aware).
    pub adaptive_locked_data_aware: Option<bool>,
}

/// The decoupling/adaptivity ablation.
#[derive(Debug, Clone)]
pub struct DecouplingAblation {
    /// Per-workload rows.
    pub rows: Vec<DecouplingRow>,
}

/// Configurations of the decoupling ablation, in column order.
pub const DECOUPLING_KINDS: [PrefetcherKind; 4] = [
    PrefetcherKind::StreamMpp1,
    PrefetcherKind::MonoDropletL1,
    PrefetcherKind::Droplet,
    PrefetcherKind::AdaptiveDroplet,
];

impl DecouplingAblation {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "streamMPP1".into(),
            "monoDROPLETL1".into(),
            "DROPLET".into(),
            "DROPLET-adaptive".into(),
            "adaptive locked".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.label.clone()];
            for s in r.speedups {
                cells.push(format!("{s:.2}x"));
            }
            cells.push(match r.adaptive_locked_data_aware {
                Some(true) => "data-aware".into(),
                Some(false) => "conventional".into(),
                None => "probing".into(),
            });
            t.row(cells);
        }
        format!(
            "Ablation — decoupled vs monolithic placement, plus adaptivity\n{}\n\
             paper: DROPLET beats the monolithic L1 arrangement by 4-12.5%\n\
             (decoupling gains timeliness; L1 stays unpolluted); the adaptive\n\
             extension should track max(DROPLET, streamMPP1) per workload.\n",
            t.render()
        )
    }
}

/// Runs the decoupling ablation over every algorithm on two contrasting
/// datasets (kron: DROPLET's home turf; road: streamMPP1's). Every
/// (workload, configuration) cell fans out over `ctx.pool`.
pub fn ablation_decoupling(ctx: &ExperimentCtx) -> DecouplingAblation {
    let mut specs = Vec::new();
    for algorithm in Algorithm::ALL {
        for dataset in [Dataset::Kron, Dataset::Road] {
            specs.push(WorkloadSpec {
                algorithm,
                dataset,
                scale: ctx.scale,
            });
        }
    }
    let cfgs: Vec<_> = std::iter::once(ctx.base.clone())
        .chain(
            DECOUPLING_KINDS
                .iter()
                .map(|&k| ctx.base.with_prefetcher(k)),
        )
        .collect();
    let rows = specs
        .iter()
        .zip(ctx.run_grid(&specs, &cfgs))
        .map(|(spec, group)| {
            let base_cycles = group[0].core.cycles;
            let mut speedups = [0.0; 4];
            let mut locked = None;
            for (i, (kind, r)) in DECOUPLING_KINDS.iter().zip(&group[1..]).enumerate() {
                speedups[i] = base_cycles as f64 / r.core.cycles.max(1) as f64;
                if *kind == PrefetcherKind::AdaptiveDroplet {
                    locked = r.sys.adaptive_locked_data_aware;
                }
            }
            DecouplingRow {
                label: spec.label(),
                speedups,
                adaptive_locked_data_aware: locked,
            }
        })
        .collect();
    DecouplingAblation { rows }
}

/// One row of the MPP sizing ablation.
#[derive(Debug, Clone)]
pub struct SizingRow {
    /// Workload label.
    pub label: String,
    /// VAB/PAB entries for this point.
    pub vab_pab: usize,
    /// MTLB entries for this point.
    pub mtlb: usize,
    /// Speedup over the no-prefetch baseline.
    pub speedup: f64,
    /// MPP buffer drops observed.
    pub buffer_drops: u64,
}

/// The MPP sizing ablation.
#[derive(Debug, Clone)]
pub struct SizingAblation {
    /// All swept points.
    pub rows: Vec<SizingRow>,
}

impl SizingAblation {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload".into(),
            "VAB/PAB".into(),
            "MTLB".into(),
            "speedup".into(),
            "buffer drops".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                r.vab_pab.to_string(),
                r.mtlb.to_string(),
                format!("{:.2}x", r.speedup),
                r.buffer_drops.to_string(),
            ]);
        }
        format!(
            "Ablation — MPP buffer sizing (Table V picks 512-entry VAB/PAB,\n\
             128-entry MTLB)\n{}\n\
             expectation: undersized buffers drop candidates and lose speedup;\n\
             beyond the knee, extra entries buy nothing (storage stays ~7.7 KB).\n",
            t.render()
        )
    }
}

/// Runs the MPP sizing sweep on the two most prefetch-sensitive workloads;
/// every (workload, sizing) cell fans out over `ctx.pool`.
pub fn ablation_mpp_sizing(ctx: &ExperimentCtx) -> SizingAblation {
    let specs: Vec<_> = [Algorithm::Pr, Algorithm::Cc]
        .into_iter()
        .map(|algorithm| WorkloadSpec {
            algorithm,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        })
        .collect();

    let mut sized_cfgs = Vec::new();
    for vab_pab in [4usize, 16, 64, 512] {
        for mtlb in [16usize, 128] {
            let mut cfg = ctx.base.with_prefetcher(PrefetcherKind::Droplet);
            cfg.mpp.vab_entries = vab_pab;
            cfg.mpp.pab_entries = vab_pab;
            cfg.mpp.mtlb_entries = mtlb;
            sized_cfgs.push((vab_pab, mtlb, cfg));
        }
    }

    let cfgs: Vec<_> = std::iter::once(ctx.base.clone())
        .chain(sized_cfgs.iter().map(|(_, _, cfg)| cfg.clone()))
        .collect();
    let mut rows = Vec::new();
    for (spec, group) in specs.iter().zip(ctx.run_grid(&specs, &cfgs)) {
        let base_cycles = group[0].core.cycles;
        for ((vab_pab, mtlb, _), r) in sized_cfgs.iter().zip(&group[1..]) {
            rows.push(SizingRow {
                label: spec.label(),
                vab_pab: *vab_pab,
                mtlb: *mtlb,
                speedup: base_cycles as f64 / r.core.cycles.max(1) as f64,
                buffer_drops: r.mpp.map_or(0, |m| m.buffer_drops),
            });
        }
    }
    SizingAblation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_workload;

    #[test]
    fn adaptive_locks_and_is_competitive() {
        let ctx = ExperimentCtx::tiny();
        let spec = WorkloadSpec {
            algorithm: Algorithm::Pr,
            dataset: Dataset::Kron,
            scale: ctx.scale,
        };
        let bundle = spec.build_trace_with_budget(ctx.budget);
        let base = run_workload(&bundle, &ctx.base, ctx.warmup);
        let droplet = run_workload(
            &bundle,
            &ctx.base.with_prefetcher(PrefetcherKind::Droplet),
            ctx.warmup,
        );
        let smpp = run_workload(
            &bundle,
            &ctx.base.with_prefetcher(PrefetcherKind::StreamMpp1),
            ctx.warmup,
        );
        let adaptive = run_workload(
            &bundle,
            &ctx.base.with_prefetcher(PrefetcherKind::AdaptiveDroplet),
            ctx.warmup,
        );
        assert!(
            adaptive.sys.adaptive_locked_data_aware.is_some(),
            "the controller should lock within the budget"
        );
        // Adaptive must land in the neighbourhood of the better fixed mode
        // (probing costs one conventional epoch).
        let best = droplet.core.cycles.min(smpp.core.cycles);
        assert!(
            adaptive.core.cycles <= best + best / 5,
            "adaptive {} vs best fixed {} (baseline {})",
            adaptive.core.cycles,
            best,
            base.core.cycles
        );
    }

    #[test]
    fn sizing_renders_and_small_buffers_drop() {
        let ctx = ExperimentCtx::tiny();
        let ablation = ablation_mpp_sizing(&ctx);
        assert!(ablation.render().contains("MPP buffer sizing"));
        let tiny_buf_drops: u64 = ablation
            .rows
            .iter()
            .filter(|r| r.vab_pab == 4)
            .map(|r| r.buffer_drops)
            .sum();
        let big_buf_drops: u64 = ablation
            .rows
            .iter()
            .filter(|r| r.vab_pab == 512)
            .map(|r| r.buffer_drops)
            .sum();
        assert!(
            tiny_buf_drops > big_buf_drops,
            "4-entry buffers should drop more: {tiny_buf_drops} vs {big_buf_drops}"
        );
    }
}
