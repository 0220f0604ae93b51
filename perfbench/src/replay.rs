//! `replay-mmap`: PageRank on a seeded Small-shape Kronecker graph
//! (2^15 vertices, edge factor 16), a 4 M-op trace written as a DRPLCOL1
//! artifact and replayed over the mmap `ColumnarSource` with no
//! prefetcher on one thread — the Sim-scale user's path. Its host time
//! goes to the core model, the demand path and columnar decode; none to
//! prefetchers, the pool or the service.
//!
//! The timed loop repeats `run_workload_from` on the artifact, each replay
//! from an empty machine.

use crate::layers::{self, Clock, Layers, Standalone};
use crate::{median, peak_rss_mb, secs, Args, Report, Scratch};
use droplet::experiments::ExperimentCtx;
use droplet::gap::{Algorithm, TraceBundle};
use droplet::graph::gen::{rmat, RmatSkew};
use droplet::graph::DatasetScale;
use droplet::obs::ObsConfig;
use droplet::trace::{columnar, open_columnar, ColumnarSource, MappedFile, TraceSource};
use droplet::{run_forked_from, run_workload, run_workload_from, warm_snapshot_from, SystemConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Trace length in ops.
const OPS: u64 = 4_000_000;
/// Set-up repetitions per untraced run (`setup_s` is their median).
const SETUP_REPS: usize = 5;

struct Setup {
    bundle: TraceBundle,
    path: PathBuf,
    gen_s: f64,
    trace_s: f64,
    encode_s: f64,
    total_s: f64,
    encoded_bytes: usize,
}

fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let start = Instant::now();
    let t = Instant::now();
    let g = Arc::new(rmat(15, 16, RmatSkew::Kron, seed));
    let gen_s = secs(t);
    let t = Instant::now();
    let bundle = Algorithm::Pr.trace(&g, OPS);
    let trace_s = secs(t);
    drop(g);
    let t = Instant::now();
    let bytes = columnar::encode(&bundle.ops);
    let encode_s = secs(t);
    let path = dir.join("replay.dcol");
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Setup {
        bundle,
        path,
        gen_s,
        trace_s,
        encode_s,
        total_s: secs(start),
        encoded_bytes: bytes.len(),
    })
}

fn open(path: &Path) -> Result<ColumnarSource<MappedFile>, String> {
    open_columnar(path).map_err(|e| format!("open {}: {e}", path.display()))
}

/// Seconds to drain the artifact at `path` without simulating: columnar
/// decode alone.
fn drain(path: &Path, ops: u64) -> Result<f64, String> {
    let mut src = open(path)?;
    let t = Instant::now();
    let mut pos = 0u64;
    while pos < ops {
        let n = src.next_block(pos, usize::MAX).len() as u64;
        if n == 0 {
            break;
        }
        pos += n;
    }
    Ok(secs(t))
}

/// The machine: the Small-scale hierarchy, no prefetcher.
fn config() -> SystemConfig {
    ExperimentCtx::at(DatasetScale::Small).base
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    if args.trace {
        return run_traced(args, scratch);
    }
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        drop(s.take());
        let rep = setup(args.seed, &scratch.dir)?;
        setup_s.push(rep.total_s);
        s = Some(rep);
    }
    let s = s.expect("at least one set-up");
    let cfg = config();
    let ops = s.bundle.ops.len() as u64;
    let warmup = (ops / 4) as usize;

    // The expectation: an in-RAM replay of the same bundle.
    let mut expected = run_workload(&s.bundle, &cfg, warmup).digest();
    if args.corrupt {
        expected ^= 1;
    }
    // Each replay opens the artifact afresh and is timed spec in → result
    // out; its output is checked after its timing.
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < 3 || secs(start) < args.seconds {
        let t = Instant::now();
        let r = run_workload_from(&mut open(&s.path)?, &s.bundle, &cfg, warmup);
        walls.push(secs(t));
        report.check(r.digest() == expected, || {
            format!(
                "mmap replay digest {:016x} != in-RAM {expected:016x}",
                r.digest()
            )
        });
    }

    report.metric("setup_s", median(&setup_s), "s");
    report.wall(&walls, ops);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.spans.push(format!(
        "{{\"samples\": {{\"setup_s\": {setup_s:?}, \"wall_s\": {walls:?}}}}}"
    ));
    report.notes.push(format!(
        "replay-mmap: {ops} ops, {} replays, set-up reps {setup_s:?}",
        walls.len()
    ));
    Ok(report)
}

fn run_traced(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let clock = Clock::calibrate();
    let s = setup(args.seed, &scratch.dir)?;
    let cfg = config();
    let ops = s.bundle.ops.len() as u64;
    let warmup = (ops / 4) as usize;
    layers.set("graph.gen_s", s.gen_s);
    layers.set("gap.trace_s", s.trace_s);
    layers.set("gap.trace_ns_per_op", s.trace_s * 1e9 / ops as f64);
    layers.set("trace.encode_ns_per_op", s.encode_s * 1e9 / ops as f64);
    layers.set("trace.bytes_per_op", s.encoded_bytes as f64 / ops as f64);
    report.spans.push(format!(
        "{{\"span\": \"setup\", \"gen_s\": {}, \"trace_s\": {}, \"encode_s\": {}, \"total_s\": {}}}",
        s.gen_s, s.trace_s, s.encode_s, s.total_s
    ));

    // The expectation, with the epoch sampler on for the MRB counter (the
    // sampler never changes simulated results).
    let reference = run_workload(
        &s.bundle,
        &cfg.clone().with_obs(ObsConfig::every(1 << 20)),
        warmup,
    );
    let mut expected = reference.digest();
    if args.corrupt {
        expected ^= 1;
    }

    // Untraced replay, then the same replay through the timing shim.
    let t = Instant::now();
    let r = run_workload_from(&mut open(&s.path)?, &s.bundle, &cfg, warmup);
    let untraced_s = secs(t);
    report.check(r.digest() == expected, || {
        "untraced mmap replay digest".into()
    });

    // Decode alone, just before and just after the traced replay.
    let decode_before = drain(&s.path, ops)?;
    let mut src = open(&s.path)?;
    let t = Instant::now();
    let t_new = Instant::now();
    let mut system = droplet::System::new(cfg.clone(), &s.bundle);
    let new_s = secs(t_new);
    let mut engine = droplet::cpu::CoreEngine::new(cfg.core);
    let applied = (warmup as u64).min(ops / 2);
    let (core, split) = layers::drive(&mut engine, &mut system, &mut src, 0, applied, ops);
    let traced_s = secs(t);
    let digest = layers::sim_digest(&core, &system, applied);
    report.check(digest == expected, || {
        format!("traced replay digest {digest:016x} != untraced {expected:016x}")
    });
    drop(system);
    let decode_s = (decode_before + drain(&s.path, ops)?) / 2.0;
    layers.set("trace.decode_ns_per_op", decode_s * 1e9 / ops as f64);
    layers.set_split(&split, &clock, decode_s, traced_s, &mut report);
    layers.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
    let mut news = vec![new_s];
    for _ in 0..20 {
        let t = Instant::now();
        std::hint::black_box(droplet::System::new(cfg.clone(), &s.bundle));
        news.push(secs(t));
    }
    layers.set("system.new_us", median(&news) * 1e6);
    report.spans.push(format!(
        "{{\"span\": \"replay\", \"traced\": true, \"wall_s\": {traced_s}, \"engine_s\": {}, \
         \"system_s\": {}, \"decode_s\": {}, \"system_new_s\": {new_s}, \"calls\": {}, \"ops\": {}}}",
        clock.secs(split.engine_ticks),
        clock.secs(split.access_ticks),
        clock.secs(split.source_ticks),
        split.calls,
        split.ops
    ));
    report.spans.push(format!(
        "{{\"span\": \"replay\", \"traced\": false, \"wall_s\": {untraced_s}}}"
    ));

    // Fork path on the same artifact.
    let t = Instant::now();
    let snap = warm_snapshot_from(&mut open(&s.path)?, &s.bundle, &cfg, warmup);
    layers.set("fork.warm_snapshot_s", secs(t));
    let mut resumes = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        std::hint::black_box(snap.resume(&cfg, &s.bundle));
        resumes.push(secs(t));
    }
    layers.set("fork.resume_us", median(&resumes) * 1e6);
    let t = Instant::now();
    let r = run_forked_from(&mut open(&s.path)?, &s.bundle, &snap, &cfg);
    layers.set("fork.measure_s", secs(t));
    report.check(r.digest() == expected, || {
        "forked mmap replay digest".into()
    });

    // Standalone layers on the workload's own stream.
    let mut standalone = Standalone::default();
    standalone.add(&s.bundle, &cfg, false);
    layers.set_standalone(&standalone);

    // Simulated counters of the measured window.
    layers.set("cache.l1.hit_rate", reference.l1.hit_rate());
    layers.set("cache.l2.hit_rate", reference.l2_hit_rate());
    layers.set("cache.l3.mpki", reference.llc_mpki());
    layers.set("mem.dram.requests", reference.dram.total_accesses() as f64);
    layers.set("mem.dram.avg_queue_delay", reference.dram.avg_queue_delay());
    let overflows = reference
        .journal
        .as_ref()
        .and_then(|j| j.final_snapshot())
        .map_or(0, |f| f.mrb_overflowed);
    layers.set("mem.mrb.overflows", overflows as f64);

    layers.emit(&mut report);
    report.notes.push(format!(
        "replay-mmap traced: {ops} ops, untraced {untraced_s:.3} s, traced {traced_s:.3} s"
    ));
    Ok(report)
}
