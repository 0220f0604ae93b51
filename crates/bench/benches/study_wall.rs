//! Sweep wall-clock gate for forked simulation: times the 175 cells of the
//! Fig. 11 prefetcher study (25 workloads × 7 configurations) over a warm
//! trace cache — through `run_sweep` with per-cell full replay and with
//! shared warm-up forking, at one worker thread and at four — and exports
//! the walls plus their ratios to `BENCH_engine.json` (section
//! `"study_wall_ms"`, one `t<N>` object per thread count).
//!
//! The `*_ms` leaves gate higher-worse and the `*_speedup` leaves gate
//! lower-worse in `droplet-bench-diff`, so an absolute slowdown, a
//! regression of the fork win, and a regression of the thread-scaling win
//! (`t4_vs_t1_forked_speedup`) each fail the CI perf gate independently.
//!
//! Run with: `cargo bench -p droplet-bench --bench study_wall`
//! (tiny scale, so the gate run finishes in seconds-to-minutes; results
//! are bit-identical between the timed passes — across fork modes *and*
//! thread counts — which is separately enforced by
//! `tests/fork_determinism.rs`, `demand_path_digests`, and the
//! conformance suite).

use droplet::datasets::WorkloadSpec;
use droplet::experiments::ExperimentCtx;
use droplet::obs::json;
use droplet::{run_sweep, JobPool, PrefetcherKind};
use droplet_bench::bench_json;
use std::time::Instant;

/// Thread counts exercised by the gate (on a single-core runner the two
/// cells simply coincide — the ratio leaf then gates at ~1.0).
const THREADS: [usize; 2] = [1, 4];

fn main() {
    let ctx = ExperimentCtx::tiny();
    println!(
        "study_wall: scale={:?} budget={} warmup={} host threads={}",
        ctx.scale,
        ctx.budget,
        ctx.warmup,
        ctx.pool.threads()
    );

    // Build the study's cells (baseline plus each evaluated prefetcher,
    // per workload) up front, so every timed pass measures pure
    // simulation, not graph/trace construction.
    let specs = WorkloadSpec::matrix(ctx.scale);
    let cfgs: Vec<_> = std::iter::once(PrefetcherKind::None)
        .chain(PrefetcherKind::EVALUATED)
        .map(|k| ctx.base.with_prefetcher(k))
        .collect();
    let build = Instant::now();
    let cells = ctx.grid_cells(&specs, &cfgs);
    println!(
        "traces: {} bundles built in {} ms",
        specs.len(),
        build.elapsed().as_millis()
    );

    let time_sweep = |threads: usize, fork: bool| {
        let t = Instant::now();
        let results = run_sweep(&JobPool::with_threads(threads), &cells, ctx.warmup, fork);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "threads={threads} fork={fork}: {} cells in {ms:.0} ms",
            results.len()
        );
        ms
    };

    let mut pairs = vec![
        ("scale".into(), json::quote("tiny")),
        ("budget".into(), ctx.budget.to_string()),
        ("warmup".into(), ctx.warmup.to_string()),
    ];
    let mut forked_by_threads = Vec::new();
    for threads in THREADS {
        let full_ms = time_sweep(threads, false);
        let forked_ms = time_sweep(threads, true);
        forked_by_threads.push(forked_ms);
        pairs.push((
            format!("t{threads}"),
            json::object(&[
                ("full_replay_ms", format!("{full_ms:.0}")),
                ("forked_ms", format!("{forked_ms:.0}")),
                (
                    "fork_speedup",
                    format!("{:.3}", full_ms / forked_ms.max(1e-9)),
                ),
            ]),
        ));
    }
    pairs.push((
        "t4_vs_t1_forked_speedup".into(),
        format!(
            "{:.3}",
            forked_by_threads[0] / forked_by_threads[1].max(1e-9)
        ),
    ));

    let section = json::object(&pairs);
    let path = bench_json::default_report_path();
    bench_json::write_section(&path, "study_wall_ms", &section).expect("write BENCH_engine.json");
    println!("wrote section \"study_wall_ms\" to {}", path.display());
}
