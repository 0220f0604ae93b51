//! `fig11-sweep`: the Fig. 11 study shape — 25 (algorithm × dataset) tiny
//! traces from seeded graphs, each run under the baseline and the six
//! evaluated prefetchers: 175 cells through `run_sweep` with forking on,
//! on a `JobPool` of `nproc` threads. Six of seven cells run a prefetcher,
//! every workload shares one warm-up across its seven cells, and the five
//! graph shapes vary the working set against the modelled caches.
//!
//! The timed loop repeats the sweep. After it, a fixed sample of cells is
//! re-run from scratch by `run_workload` and checked against the forked
//! digests.

use crate::layers::{self, Clock, Layers, PrefetchCost, Split, Standalone};
use crate::{median, nproc, peak_rss_mb, secs, Args, Report, Scratch};
use droplet::experiments::ExperimentCtx;
use droplet::gap::TraceBundle;
use droplet::graph::gen::{self, RmatSkew};
use droplet::graph::{Csr, Dataset, DatasetScale};
use droplet::obs::ObsConfig;
use droplet::trace::{columnar, SliceSource};
use droplet::{
    run_sweep, run_workload, warm_snapshot, JobPool, PrefetcherKind, RunResult, SweepCell,
    SystemConfig, TraceCache, WorkloadSpec,
};
use std::sync::Arc;
use std::time::Instant;

/// Ops per trace (the tiny scale's default budget).
const BUDGET: u64 = 400_000;
/// Set-up repetitions per untraced run (`setup_s` is their median).
const SETUP_REPS: usize = 5;

/// The 25 workloads' traces, in `WorkloadSpec::matrix` order.
struct Setup {
    specs: Vec<WorkloadSpec>,
    bundles: Vec<Arc<TraceBundle>>,
    cache: TraceCache,
    gen_s: f64,
    trace_s: f64,
    total_s: f64,
}

/// A dataset's graph with the `Dataset::Tiny` shape parameters and a seed
/// derived from the workload seed.
fn graph(d: Dataset, weighted: bool, seed: u64) -> Csr {
    let seed = seed ^ ((d as u64) << 40);
    match (d, weighted) {
        (Dataset::Kron, false) => gen::rmat(13, 8, RmatSkew::Kron, seed),
        (Dataset::Kron, true) => gen::rmat_weighted(13, 8, RmatSkew::Kron, seed),
        (Dataset::Urand, false) => gen::uniform(1 << 13, 8 << 13, seed),
        (Dataset::Urand, true) => gen::uniform_weighted(1 << 13, 8 << 13, seed),
        (Dataset::Orkut, false) => gen::rmat(12, 16, RmatSkew::Social, seed),
        (Dataset::Orkut, true) => gen::rmat_weighted(12, 16, RmatSkew::Social, seed),
        (Dataset::LiveJournal, false) => gen::rmat(13, 4, RmatSkew::Community, seed),
        (Dataset::LiveJournal, true) => gen::rmat_weighted(13, 4, RmatSkew::Community, seed),
        (Dataset::Road, false) => gen::grid(90, 90, 2, seed),
        (Dataset::Road, true) => gen::grid_weighted(90, 90, 2, seed),
    }
}

/// Generates the ten graphs, then builds the 25 traces through a
/// `TraceCache` — on `pool` when given, serially otherwise (the traced run,
/// for a clean per-layer split).
fn setup(seed: u64, pool: Option<&JobPool>) -> Setup {
    let start = Instant::now();
    let t = Instant::now();
    let graphs: Vec<(Dataset, Arc<Csr>, Arc<Csr>)> = Dataset::ALL
        .iter()
        .map(|&d| {
            (
                d,
                Arc::new(graph(d, false, seed)),
                Arc::new(graph(d, true, seed)),
            )
        })
        .collect();
    let gen_s = secs(t);
    let specs = WorkloadSpec::matrix(DatasetScale::Tiny);
    let cache = TraceCache::new();
    let build = |spec: &WorkloadSpec| {
        let (_, plain, weighted) = graphs
            .iter()
            .find(|(d, _, _)| *d == spec.dataset)
            .expect("every dataset has a graph");
        let g = if spec.algorithm.needs_weights() {
            weighted
        } else {
            plain
        };
        cache.get_or_build_with(*spec, BUDGET, || spec.algorithm.trace(g, BUDGET))
    };
    let t = Instant::now();
    let bundles: Vec<Arc<TraceBundle>> = match pool {
        Some(pool) => pool.run(specs.iter().map(|s| move || build(s)).collect()),
        None => specs.iter().map(build).collect(),
    };
    let trace_s = secs(t);
    Setup {
        specs,
        bundles,
        cache,
        gen_s,
        trace_s,
        total_s: secs(start),
    }
}

/// The seven machine configurations of Fig. 11, baseline first.
fn configs(base: &SystemConfig) -> Vec<SystemConfig> {
    let mut cfgs = vec![base.clone()];
    cfgs.extend(
        PrefetcherKind::EVALUATED
            .iter()
            .map(|&k| base.with_prefetcher(k)),
    );
    cfgs
}

fn cells(s: &Setup, cfgs: &[SystemConfig]) -> Vec<SweepCell> {
    let mut out = Vec::with_capacity(s.bundles.len() * cfgs.len());
    for b in &s.bundles {
        for cfg in cfgs {
            out.push(SweepCell {
                bundle: Arc::clone(b),
                cfg: cfg.clone(),
            });
        }
    }
    out
}

fn warmup() -> usize {
    (BUDGET / 4) as usize
}

/// The fixed check sample: two cells per workload, the configurations
/// rotating with the workload index so every configuration is covered.
fn sample(workloads: usize, per: usize) -> Vec<usize> {
    (0..workloads)
        .flat_map(|w| [w * per + w % per, w * per + (w + 3) % per])
        .collect()
}

/// Re-runs the sampled cells from scratch and checks them against the
/// sweep's digests; returns the results.
fn check_sample(
    report: &mut Report,
    cells: &[SweepCell],
    digests: &[u64],
    idx: &[usize],
    obs: bool,
) -> Vec<RunResult> {
    let mut results = Vec::new();
    for &i in idx {
        let cfg = if obs {
            cells[i].cfg.clone().with_obs(ObsConfig::every(1 << 20))
        } else {
            cells[i].cfg.clone()
        };
        let r = run_workload(&cells[i].bundle, &cfg, warmup());
        let d = r.digest();
        report.check(d == digests[i], || {
            format!(
                "cell {i}: full replay {d:016x} != forked {:016x}",
                digests[i]
            )
        });
        results.push(r);
    }
    results
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    if args.trace {
        return run_traced(args, scratch);
    }
    let mut report = Report::default();
    let pool = JobPool::with_threads(nproc());
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        drop(s.take());
        let rep = setup(args.seed, Some(&pool));
        setup_s.push(rep.total_s);
        s = Some(rep);
    }
    let s = s.expect("at least one set-up");
    let base = ExperimentCtx::at(DatasetScale::Tiny).base;
    let cfgs = configs(&base);
    let cells = cells(&s, &cfgs);
    let ops: u64 = cells.iter().map(|c| c.bundle.ops.len() as u64).sum();

    // Timed: whole sweeps, each of which must give the first one's digests.
    let mut walls = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    let start = Instant::now();
    while walls.len() < 3 || secs(start) < args.seconds {
        let t = Instant::now();
        let results = run_sweep(&pool, &cells, warmup(), true);
        walls.push(secs(t));
        let d: Vec<u64> = results.iter().map(RunResult::digest).collect();
        match &first {
            Some(f) => report.check(*f == d, || {
                "a repeated sweep changed a cell's digest".into()
            }),
            None => first = Some(d),
        }
    }

    // After timing: the fixed check sample, re-run from scratch.
    let idx = sample(s.bundles.len(), cfgs.len());
    let mut expected = first.expect("the first sweep is recorded");
    if args.corrupt {
        expected[idx[0]] ^= 1;
    }
    check_sample(&mut report, &cells, &expected, &idx, false);

    report.metric("setup_s", median(&setup_s), "s");
    report.wall(&walls, ops);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.spans.push(format!(
        "{{\"samples\": {{\"setup_s\": {setup_s:?}, \"wall_s\": {walls:?}}}}}"
    ));
    report.notes.push(format!(
        "fig11-sweep: {} cells, {ops} cell ops per sweep, {} sweeps on {} threads, \
         set-up reps {setup_s:?}",
        cells.len(),
        walls.len(),
        pool.threads()
    ));
    Ok(report)
}

fn run_traced(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let clock = Clock::calibrate();
    let pool = JobPool::with_threads(nproc());
    let s = setup(args.seed, None);
    let trace_ops: u64 = s.bundles.iter().map(|b| b.ops.len() as u64).sum();
    layers.set("graph.gen_s", s.gen_s);
    layers.set("gap.trace_s", s.trace_s);
    layers.set("gap.trace_ns_per_op", s.trace_s * 1e9 / trace_ops as f64);
    layers.set("trace_cache.build_s", s.trace_s);
    layers.set(
        "trace_cache.resident_mb",
        s.cache.resident_bytes() as f64 / (1 << 20) as f64,
    );
    let mut hits = Vec::new();
    for spec in &s.specs {
        let t = Instant::now();
        std::hint::black_box(
            s.cache
                .get_or_build_with(*spec, BUDGET, || unreachable!("cached")),
        );
        hits.push(secs(t));
    }
    layers.set("trace_cache.hit_us", median(&hits) * 1e6);
    let t = Instant::now();
    let encoded: usize = s
        .bundles
        .iter()
        .map(|b| columnar::encode(&b.ops).len())
        .sum();
    layers.set("trace.encode_ns_per_op", secs(t) * 1e9 / trace_ops as f64);
    layers.set("trace.bytes_per_op", encoded as f64 / trace_ops as f64);

    let base = ExperimentCtx::at(DatasetScale::Tiny).base;
    let cfgs = configs(&base);
    let cells = cells(&s, &cfgs);

    // The untraced sweep: the expectation, and the pool's busy share.
    let t = Instant::now();
    let results = run_sweep(&pool, &cells, warmup(), true);
    let sweep_s = secs(t);
    let busy_s: f64 = results.iter().map(|r| r.manifest.wall_ms / 1e3).sum();
    layers.set("pool.busy_frac", busy_s / (sweep_s * pool.threads() as f64));
    let mut digests: Vec<u64> = results.iter().map(RunResult::digest).collect();
    if args.corrupt {
        digests[0] ^= 1;
    }

    // The same fork fan-out serially, untraced and then traced.
    let per = cfgs.len();
    let t = Instant::now();
    for (w, b) in s.bundles.iter().enumerate() {
        let snap = warm_snapshot(b, &cfgs[0], warmup());
        for (k, cfg) in cfgs.iter().enumerate() {
            let r = droplet::run_forked(b, &snap, cfg);
            report.check(r.digest() == digests[w * per + k], || {
                format!("forked cell {w}/{k}")
            });
        }
    }
    let untraced_s = secs(t);
    let (mut split, mut drive_s, mut snap_s, mut resumes) =
        (Split::default(), 0.0, 0.0, Vec::new());
    let t_all = Instant::now();
    for (w, b) in s.bundles.iter().enumerate() {
        let t = Instant::now();
        let snap = warm_snapshot(b, &cfgs[0], warmup());
        snap_s += secs(t);
        let total = b.ops.len() as u64;
        for (k, cfg) in cfgs.iter().enumerate() {
            let t = Instant::now();
            let (mut system, mut engine) = snap.resume(cfg, b);
            resumes.push(secs(t));
            let t = Instant::now();
            let (core, one) = layers::drive(
                &mut engine,
                &mut system,
                &mut SliceSource::new(&b.ops),
                snap.applied(),
                snap.applied(),
                total,
            );
            drive_s += secs(t);
            split.absorb(one);
            let d = layers::sim_digest(&core, &system, snap.applied());
            report.check(d == digests[w * per + k], || {
                format!(
                    "traced cell {w}/{k}: {d:016x} != {:016x}",
                    digests[w * per + k]
                )
            });
        }
    }
    let traced_s = secs(t_all);
    layers.set_split(&split, &clock, 0.0, drive_s, &mut report);
    layers.set("fork.warm_snapshot_s", snap_s);
    layers.set("fork.resume_us", median(&resumes) * 1e6);
    layers.set("fork.measure_s", drive_s);
    layers.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
    report.spans.push(format!(
        "{{\"span\": \"sweep\", \"threads\": {}, \"wall_s\": {sweep_s}, \"busy_s\": {busy_s}}}",
        pool.threads()
    ));
    report.spans.push(format!(
        "{{\"span\": \"fork_fanout\", \"traced\": true, \"wall_s\": {traced_s}, \
         \"warm_snapshot_s\": {snap_s}, \"measure_s\": {drive_s}, \"engine_s\": {}, \
         \"system_s\": {}, \"ops\": {}}}",
        clock.secs(split.engine_ticks),
        clock.secs(split.access_ticks),
        split.ops
    ));
    report.spans.push(format!(
        "{{\"span\": \"fork_fanout\", \"traced\": false, \"wall_s\": {untraced_s}}}"
    ));

    let mut news = Vec::new();
    for b in &s.bundles {
        let t = Instant::now();
        std::hint::black_box(droplet::System::new(base.clone(), b));
        news.push(secs(t));
    }
    layers.set("system.new_us", median(&news) * 1e6);

    // Standalone layers and prefetch engines on each trace's own events.
    let mut standalone = Standalone::default();
    let mut pf = PrefetchCost::default();
    for b in &s.bundles {
        standalone.add(b, &base, true);
        pf.add_engines(&standalone.events, &base);
        standalone.events.clear();
        pf.add_mpp(b, &base);
    }
    layers.set_standalone(&standalone);
    layers.set("prefetch.ghb.ns_per_event", layers::per_call(pf.ghb));
    layers.set("prefetch.vldp.ns_per_event", layers::per_call(pf.vldp));
    layers.set("prefetch.stream.ns_per_event", layers::per_call(pf.stream));
    layers.set("prefetch.mpp.ns_per_fill", layers::per_call(pf.mpp));

    // Simulated counters, summed over cells.
    let baseline: Vec<&RunResult> = results.iter().step_by(per).collect();
    let sum = |f: &dyn Fn(&RunResult) -> u64, rs: &[&RunResult]| -> f64 {
        rs.iter().map(|r| f(r) as f64).sum()
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    layers.set(
        "cache.l1.hit_rate",
        ratio(
            sum(&|r| r.l1.demand_hits.total(), &baseline),
            sum(&|r| r.l1.demand_accesses.total(), &baseline),
        ),
    );
    let l2 = |r: &RunResult, hits: bool| {
        r.l2.as_ref().map_or(0, |c| {
            if hits {
                c.demand_hits.total()
            } else {
                c.demand_accesses.total()
            }
        })
    };
    layers.set(
        "cache.l2.hit_rate",
        ratio(
            sum(&|r| l2(r, true), &baseline),
            sum(&|r| l2(r, false), &baseline),
        ),
    );
    layers.set(
        "cache.l3.mpki",
        1e3 * ratio(
            sum(&|r| r.l3.demand_misses().total(), &baseline),
            sum(&|r| r.core.instructions, &baseline),
        ),
    );
    let all: Vec<&RunResult> = results.iter().collect();
    layers.set("prefetch.issued", sum(&|r| r.dram.prefetch_accesses, &all));
    let useful = sum(&|r| r.sys.prefetch_useful.total(), &all);
    let wasted = sum(&|r| r.sys.prefetch_wasted.total(), &all);
    layers.set("prefetch.accuracy", ratio(useful, useful + wasted));
    layers.set("mem.dram.requests", sum(&|r| r.dram.total_accesses(), &all));
    layers.set(
        "mem.dram.avg_queue_delay",
        all.iter().map(|r| r.dram.avg_queue_delay()).sum::<f64>() / all.len() as f64,
    );

    // The output check, with the sampler on for the MRB counter.
    let idx = sample(s.bundles.len(), per);
    let checked = check_sample(&mut report, &cells, &digests, &idx, true);
    let overflows: u64 = checked
        .iter()
        .filter_map(|r| r.journal.as_ref().and_then(|j| j.final_snapshot()))
        .map(|f| f.mrb_overflowed)
        .sum();
    layers.set("mem.mrb.overflows", overflows as f64);

    // The service runs the same engine per request; its request layers are
    // measured here on a short open-loop load.
    crate::serve::probe(args.seed, args.corrupt, scratch, &mut layers, &mut report)?;

    layers.emit(&mut report);
    report.notes.push(format!(
        "fig11-sweep traced: {} cells, sweep {sweep_s:.3} s on {} threads, serial fork fan-out \
         untraced {untraced_s:.3} s, traced {traced_s:.3} s; MRB overflows over {} sampled cells",
        cells.len(),
        pool.threads(),
        idx.len()
    ));
    Ok(report)
}
