//! End-to-end demand-path replay throughput (ops/sec) per prefetcher
//! configuration — the engine-performance gate for the per-op demand path
//! (`System::access`). Every paper figure is produced by replaying
//! multi-million-op traces through that path, so this number bounds the
//! wall clock of the whole evaluation.
//!
//! Besides the usual criterion report on stdout, the measured rates are
//! exported to `BENCH_engine.json` (section `"sim_replay"`) so the perf
//! trajectory is tracked across PRs.
//!
//! Run with: `cargo bench -p droplet-bench --bench sim_replay`
//!
//! `DROPLET_BENCH_ONLY=baseline,DROPLET` restricts the run to a
//! comma-separated subset of configuration names — handy when profiling one
//! configuration without the others polluting the samples. Filtered runs
//! skip the JSON export so a partial run never clobbers the full report.

use criterion::{Criterion, Throughput};
use droplet::gap::Algorithm;
use droplet::graph::{Dataset, DatasetScale};
use droplet::obs::json;
use droplet::{run_workload, PrefetcherKind, SystemConfig};
use droplet_bench::bench_json;
use std::sync::Arc;

/// The no-prefetcher baseline plus the six evaluated configurations.
const KINDS: [PrefetcherKind; 7] = [
    PrefetcherKind::None,
    PrefetcherKind::Ghb,
    PrefetcherKind::Vldp,
    PrefetcherKind::Stream,
    PrefetcherKind::StreamMpp1,
    PrefetcherKind::Droplet,
    PrefetcherKind::MonoDropletL1,
];

const OPS: u64 = 120_000;

fn bench_replay(c: &mut Criterion) {
    let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
    let bundle = Algorithm::Pr.trace(&g, OPS);
    let base = SystemConfig::test_scale();

    let only = std::env::var("DROPLET_BENCH_ONLY").ok();
    let mut group = c.benchmark_group("sim_replay");
    group.throughput(Throughput::Elements(bundle.ops.len() as u64));
    group.sample_size(12);
    for kind in KINDS {
        if let Some(filter) = &only {
            if !filter.split(',').any(|n| n.trim() == kind.name()) {
                continue;
            }
        }
        let cfg = base.with_prefetcher(kind);
        group.bench_function(kind.name(), |b| {
            b.iter(|| run_workload(&bundle, &cfg, 0).core.cycles);
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_replay(&mut c);
    if std::env::var("DROPLET_BENCH_ONLY").is_ok() {
        return;
    }

    let mut configs = Vec::new();
    for r in c.take_results() {
        let ops_per_sec = r.elements_per_sec().unwrap_or(0.0);
        configs.push((
            r.name.clone(),
            json::object(&[
                ("us_per_iter", format!("{:.3}", r.median_ns / 1e3)),
                ("ops_per_sec", format!("{ops_per_sec:.0}")),
            ]),
        ));
    }
    let section = json::object(&[
        ("trace", json::quote("pr/kron-tiny")),
        ("ops", OPS.to_string()),
        ("configs", json::object(&configs)),
    ]);
    let path = bench_json::default_report_path();
    bench_json::write_section(&path, "sim_replay", &section).expect("write BENCH_engine.json");
    println!("wrote section \"sim_replay\" to {}", path.display());
}
