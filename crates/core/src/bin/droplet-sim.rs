//! `droplet-sim` — command-line driver for the DROPLET simulator.
//!
//! ```text
//! droplet-sim run   --algo pr --dataset kron --prefetcher droplet [--scale small]
//! droplet-sim sweep --algo cc --dataset orkut [--scale small]
//! droplet-sim info
//! ```
//!
//! `run` simulates one workload under one configuration and prints the full
//! report; `sweep` compares every evaluated prefetcher on one workload;
//! `trace save`/`trace load` write and replay columnar trace artifacts
//! (DESIGN.md §15); `info` lists algorithms, datasets and configurations.

use droplet::experiments::ExperimentCtx;
use droplet::obs::ObsConfig;
use droplet::report::Table;
use droplet::specparse::{self, RunSpec, SpecValue};
use droplet::trace::{columnar, open_columnar, TraceSource};
use droplet::{run_workload_from, PrefetcherKind, RunResult, SpecError};
use droplet_graph::{Dataset, DatasetScale, DegreeStats};
use droplet_trace::DataType;

fn usage() -> ! {
    eprintln!(
        "usage:\n  droplet-sim run   --algo <bc|bfs|pr|sssp|cc> --dataset <kron|urand|orkut|livejournal|road>\n\
         \x20                   [--prefetcher <none|ghb|vldp|stream|streammpp1|droplet|mono|adaptive>]\n\
         \x20                   [--scale <tiny|small|sim>] [--budget <ops>] [--threads <n>]\n\
         \x20                   [--obs <journal.jsonl>] [--epoch-ops <n>]\n\
         \x20                   [--l1-policy|--l2-policy|--l3-policy <lru|srrip|brrip|drrip|ship>]\n\
         \x20 droplet-sim sweep --algo <...> --dataset <...> [--scale <...>] [--budget <ops>] [--threads <n>]\n\
         \x20                   [--l1-policy|--l2-policy|--l3-policy <...>]\n\
         \x20 droplet-sim trace save --algo <...> --dataset <...> [--scale <...>] [--budget <ops>]\n\
         \x20                   --trace-file <artifact.dcol>\n\
         \x20 droplet-sim trace load --algo <...> --dataset <...> [--scale <...>] [--budget <ops>]\n\
         \x20                   --trace-file <artifact.dcol> [--prefetcher <...>]\n\
         \x20                   [--obs <journal.jsonl>] [--epoch-ops <n>]\n\
         \x20 droplet-sim info\n\
         \x20 --threads overrides DROPLET_THREADS (default: all cores; 1 = fully serial)\n\
         \x20 --obs enables epoch sampling and writes the JSONL run journal there\n\
         \x20 --epoch-ops sets retired ops per epoch (default 10000, at least ceil(budget / 4096);\n\
         \x20   implies sampling was wanted)\n\
         \x20 sweep runs every prefetcher and writes no journal: it refuses --prefetcher/--obs/--epoch-ops\n\
         \x20 trace save simulates nothing: it refuses those three and the policy flags\n\
         \x20 --l1-policy/--l2-policy/--l3-policy: replacement policy per level (default lru)"
    );
    std::process::exit(2);
}

/// Unwraps a spec-parse result, printing the offending flag and value to
/// stderr (the field-level message `droplet-serve` returns as an HTTP 400,
/// under the flag's own name) before the usage text.
fn flag_value<T>(parsed: Result<T, SpecError>) -> T {
    parsed.unwrap_or_else(|e| {
        let e = SpecError {
            field: e.field.replace('_', "-"),
            ..e
        };
        eprintln!("error: --{e}");
        usage()
    })
}

/// What only the CLI has; every other flag is a [`RunSpec`] field.
#[derive(Default)]
struct Args {
    threads: Option<usize>,
    obs_path: Option<String>,
    trace_file: Option<String>,
}

/// Splits the flags of command `cmd` into the CLI's own [`Args`] and the
/// [`RunSpec`] the rest describe: `--l1-policy brrip` is the spec field
/// `l1_policy`. `sweep` and `trace save` refuse the flags they would
/// ignore.
fn parse_flags(cmd: &str, rest: &[String]) -> (Args, RunSpec) {
    let refused: &[&str] = match cmd {
        "sweep" => &["--prefetcher", "--obs", "--epoch-ops"],
        "trace save" => &[
            "--prefetcher",
            "--obs",
            "--epoch-ops",
            "--l1-policy",
            "--l2-policy",
            "--l3-policy",
        ],
        _ => &[],
    };
    let mut args = Args::default();
    let mut fields = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if refused.contains(&flag.as_str()) {
            eprintln!("error: {flag}: not accepted by {cmd}");
            usage()
        }
        // No value starts with `--`, so a flag that takes none is named here.
        let Some(value) = it.next().filter(|v| !v.starts_with("--")) else {
            eprintln!("error: {flag}: missing value");
            usage()
        };
        match flag.as_str() {
            "--threads" => {
                args.threads = Some(flag_value(specparse::parse_positive_usize(
                    "threads", value,
                )))
            }
            "--obs" => args.obs_path = Some(value.clone()),
            "--trace-file" => args.trace_file = Some(value.clone()),
            _ => {
                let Some(name) = flag.strip_prefix("--") else {
                    eprintln!("error: {flag}: unknown flag");
                    usage()
                };
                fields.push((name.replace('-', "_"), SpecValue::Scalar(value.clone())));
            }
        }
    }
    // A journal without an explicit cadence samples at the default one.
    if args.obs_path.is_some() && !fields.iter().any(|(field, _)| field == "epoch_ops") {
        let every = ObsConfig::default().epoch_ops.to_string();
        fields.push(("epoch_ops".to_string(), SpecValue::Scalar(every)));
    }
    let spec = flag_value(RunSpec::from_fields(&fields, DatasetScale::Small));
    (args, spec)
}

/// Prints the shared-warm-up NOTE when any of the runs was forked from a
/// common warmed snapshot (alongside the warm-up-clamp NOTE in `report`).
fn report_fork_note(results: &[&RunResult]) {
    let forked: Vec<_> = results
        .iter()
        .filter(|r| r.manifest.forked_from.is_some())
        .collect();
    if let Some(first) = forked.first() {
        println!(
            "NOTE: forked: shared_warmup_ops={} configs={}",
            first.manifest.warmup_shared.unwrap_or(0),
            forked.len()
        );
    }
}

fn report(label: &str, r: &RunResult) {
    println!("--- {label} ---");
    println!("cycles               {}", r.core.cycles);
    println!("instructions         {}", r.core.instructions);
    println!("IPC                  {:.3}", r.core.ipc());
    println!("cycle stack          {}", r.core.cycle_stack);
    println!("DRAM MLP             {:.2}", r.core.mlp.avg_outstanding);
    println!("LLC MPKI             {:.1}", r.llc_mpki());
    println!("L2 hit rate          {:.1}%", 100.0 * r.l2_hit_rate());
    println!("BPKI                 {:.1}", r.bpki());
    println!(
        "BW utilization       {:.1}%",
        100.0 * r.bandwidth_utilization()
    );
    for dt in DataType::ALL {
        let b = r.service_breakdown(dt);
        println!(
            "{dt:>12} serviced  L1 {:>5.1}%  L2 {:>5.1}%  L3 {:>5.1}%  DRAM {:>5.1}%",
            100.0 * b[0],
            100.0 * b[1],
            100.0 * b[2],
            100.0 * b[3]
        );
    }
    if let Some(mpp) = &r.mpp {
        println!(
            "MPP                  scanned {} lines, {} candidates, {} walks, drops {}/{}",
            mpp.lines_scanned,
            mpp.candidates,
            mpp.mtlb_walks,
            mpp.buffer_drops,
            mpp.page_fault_drops
        );
        println!(
            "prefetch accuracy    structure {:.0}%, property {:.0}%",
            100.0 * r.prefetch_accuracy(DataType::Structure),
            100.0 * r.prefetch_accuracy(DataType::Property)
        );
    }
    if let Some(locked) = r.sys.adaptive_locked_data_aware {
        println!(
            "adaptive mode        locked {}",
            if locked {
                "data-aware"
            } else {
                "conventional (streamMPP1)"
            }
        );
    }
    if r.warmup_clamped {
        println!(
            "NOTE: warm-up clamped {} -> {} ops (half-warm run)",
            r.warmup_ops_requested, r.warmup_ops_applied
        );
    }
    println!("digest               {:016x}", r.digest());
    println!("manifest             {}", r.manifest.render_json());
}

/// Writes the run journal as JSONL: a `{"manifest": …}` line (enriched
/// with the workload label, thread count, and trace-cache occupancy the
/// library can't know), then one line per epoch.
fn write_journal(path: &str, r: &RunResult, workload: &str, ctx: &ExperimentCtx) {
    let Some(journal) = &r.journal else {
        eprintln!("no journal recorded (sampling was not enabled)");
        return;
    };
    let mut manifest = r.manifest.clone();
    manifest.workload = Some(workload.to_string());
    manifest.threads = Some(ctx.pool.threads());
    manifest.trace_cache_len = Some(ctx.traces.len() as u64);
    manifest.trace_cache_bytes = Some(ctx.traces.resident_bytes());
    let text = format!(
        "{{\"manifest\": {}}}\n{}",
        manifest.render_json(),
        journal.to_jsonl()
    );
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("journal: {} epochs -> {path}", journal.epoch_count()),
        Err(e) => eprintln!("cannot write journal {path}: {e}"),
    }
}

fn cmd_info() {
    println!("algorithms:   bc bfs pr sssp cc          (paper Table II)");
    println!("datasets:     kron urand orkut livejournal road  (paper Table III)");
    println!("prefetchers:  none ghb vldp stream streammpp1 droplet mono adaptive");
    println!("policies:     lru srrip brrip drrip ship     (per level: --l1/--l2/--l3-policy)");
    println!("scales:       tiny (~8K vertices) small (~32K) sim (~1-2M, Table I hierarchy)");
    println!();
    for d in Dataset::ALL {
        let g = d.build(DatasetScale::Tiny);
        println!(
            "{:>12} (tiny): {} vertices, {} edges, {}",
            d.name(),
            g.num_vertices(),
            g.num_edges(),
            DegreeStats::of(&g)
        );
    }
}

/// `trace save` / `trace load`: write a workload's op stream as a columnar
/// artifact, or replay one zero-copy from its mapped bytes. Both rebuild
/// the bundle (load needs the address space and functional memory, which
/// the artifact deliberately does not carry). Before replaying, load
/// decodes every block and checks the stored digest against the decoded
/// ops, then checks it against the rebuilt ops.
fn cmd_trace(sub: &str, args: &Args, spec: &RunSpec) {
    let Some(file) = &args.trace_file else {
        usage()
    };
    let ctx = context(args, spec);
    let workload = spec.workload();
    eprintln!("building {} at {:?} scale...", workload.label(), spec.scale);
    let bundle = ctx.trace(&workload);
    match sub {
        "save" => {
            let encoded = columnar::encode(&bundle.ops);
            let raw = bundle.ops.len() * std::mem::size_of::<droplet::trace::MemOp>();
            if let Err(e) = std::fs::write(file, &encoded) {
                eprintln!("cannot write {file}: {e}");
                std::process::exit(1);
            }
            println!(
                "saved {} ops -> {file}: {} bytes ({:.2}x vs resident), digest {:016x}",
                bundle.ops.len(),
                encoded.len(),
                raw as f64 / encoded.len().max(1) as f64,
                columnar::content_digest(&bundle.ops)
            );
        }
        "load" => {
            let mut source = open_columnar(file.as_ref()).unwrap_or_else(|e| {
                eprintln!("cannot open {file}: {e}");
                std::process::exit(1);
            });
            // The replay decodes blocks lazily and cannot recover from a
            // bad one, so every block is checked up front.
            if let Err(e) = columnar::decode(source.backing().as_ref()) {
                eprintln!("cannot load {file}: {e}");
                std::process::exit(1);
            }
            let expect = columnar::content_digest(&bundle.ops);
            if source.digest() != expect {
                eprintln!(
                    "artifact digest {:016x} does not match this workload's ops ({expect:016x}); \
                     was it saved with the same --algo/--dataset/--scale/--budget?",
                    source.digest()
                );
                std::process::exit(1);
            }
            eprintln!(
                "replaying {} ops from {} ({})",
                source.op_count(),
                file,
                if source.backing().is_mapped() {
                    "mmap, zero-copy"
                } else {
                    "owned buffer fallback"
                }
            );
            let cfg = spec.config(&ctx.base);
            let r = run_workload_from(&mut source, &bundle, &cfg, ctx.warmup);
            report(&format!("{} (columnar replay)", spec.prefetcher.name()), &r);
            if let Some(path) = &args.obs_path {
                write_journal(path, &r, &workload.label(), &ctx);
            }
        }
        _ => usage(),
    }
}

/// The experiment context of a command: its scale and budget, and the
/// `--threads` pool width.
fn context(args: &Args, spec: &RunSpec) -> ExperimentCtx {
    let ctx = ExperimentCtx::at(spec.scale).with_budget(spec.budget);
    match args.threads {
        Some(n) => ctx.with_threads(n),
        None => ctx,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let Some(cmd) = argv.get(1) else { usage() };
    match cmd.as_str() {
        "info" => cmd_info(),
        "trace" => {
            let Some(sub) = argv.get(2) else { usage() };
            let (args, spec) = parse_flags(&format!("trace {sub}"), &argv[3..]);
            cmd_trace(sub, &args, &spec);
        }
        "run" | "sweep" => {
            let (args, spec) = parse_flags(cmd, &argv[2..]);
            let ctx = context(&args, &spec);
            let workload = spec.workload();
            eprintln!("building {} at {:?} scale...", workload.label(), spec.scale);
            let bundle = ctx.trace(&workload);
            eprintln!(
                "trace: {} ops ({} instructions), completed: {}",
                bundle.ops.len(),
                bundle.instructions,
                bundle.completed
            );
            let baseline = spec.config_for(&ctx.base, PrefetcherKind::None);
            if cmd == "run" {
                // The baseline, plus the configuration under test sharing
                // its warm-up unless that is the baseline itself.
                let mut cfgs = vec![baseline];
                if spec.prefetcher != PrefetcherKind::None {
                    cfgs.push(spec.config(&ctx.base));
                }
                let runs = ctx.run_grid(&[workload], &cfgs).remove(0);
                let (base, main_run) = (&runs[0], runs.get(1));
                report("baseline (no prefetch)", base);
                if let Some(r) = main_run {
                    report(spec.prefetcher.name(), r);
                    println!(
                        "\nspeedup over baseline: {:.2}x",
                        base.core.cycles as f64 / r.core.cycles.max(1) as f64
                    );
                }
                report_fork_note(&runs.iter().collect::<Vec<_>>());
                if let Some(path) = &args.obs_path {
                    // Journal the configuration under test (the baseline
                    // when `--prefetcher none` made it the only run).
                    write_journal(path, main_run.unwrap_or(base), &workload.label(), &ctx);
                }
            } else {
                let mut t = Table::new(vec![
                    "config".into(),
                    "speedup".into(),
                    "L2 hit".into(),
                    "LLC MPKI".into(),
                    "BPKI".into(),
                ]);
                let mut kinds = PrefetcherKind::EVALUATED.to_vec();
                kinds.push(PrefetcherKind::AdaptiveDroplet);
                // Baseline plus every prefetcher over one shared warm-up.
                let cfgs: Vec<_> = std::iter::once(baseline)
                    .chain(kinds.iter().map(|&k| spec.config_for(&ctx.base, k)))
                    .collect();
                let all = ctx.run_grid(&[workload], &cfgs).remove(0);
                let (base, results) = (&all[0], &all[1..]);
                for (kind, r) in kinds.iter().zip(results) {
                    t.row(vec![
                        kind.name().into(),
                        format!(
                            "{:.2}x",
                            base.core.cycles as f64 / r.core.cycles.max(1) as f64
                        ),
                        format!("{:.1}%", 100.0 * r.l2_hit_rate()),
                        format!("{:.1}", r.llc_mpki()),
                        format!("{:.1}", r.bpki()),
                    ]);
                }
                println!("{}", t.render());
                report_fork_note(&all.iter().collect::<Vec<_>>());
            }
        }
        _ => usage(),
    }
}
