//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-mmap|fig11-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--corrupt-expectation]
//! ```
//!
//! Run from the repository root. Every run derives its inputs from `--seed`,
//! measures for `--seconds`, checks the simulator's outputs, and prints as
//! its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! split (a separate run over the same inputs). A failed output check makes
//! the process exit with code 1; `--corrupt-expectation` flips one expected
//! digest so that path can be exercised on purpose. `GLOSSARY.md` defines
//! every metric.

mod layers;
mod replay;
mod serve;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-check: corrupt one expected digest so the output check fails.
    pub corrupt: bool,
}

const WORKLOADS: [&str; 2] = ["replay-mmap", "fig11-sweep"];

const USAGE: &str = "usage: perfbench --workload <replay-mmap|fig11-sweep> \
--seed <n> --seconds <s> --trace <0|1> [--corrupt-expectation]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-expectation" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("--workload: unknown workload {value}"));
                }
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed: {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("--seconds: {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

/// What a workload run hands back: counts, metrics, notes, span records.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines (sample counts beside percentiles, check
    /// outcomes), printed before the result line.
    pub notes: Vec<String>,
    /// Span / record lines, written to the run's record file at the end.
    pub spans: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Reports `wall_s` as the fastest of the run's `samples_s`, and
    /// `sim_ops_per_s` as `ops` over it. A code change moves every sample;
    /// a slow phase of the host, which on a shared virtual machine can
    /// cover much of a run, moves the minimum least. The median and the
    /// highest percentile with at least ten samples beyond it are noted
    /// beside it, with the sample count.
    pub fn wall(&mut self, samples_s: &[f64], ops: u64) {
        let s = stats::Summary::of(samples_s);
        self.metric("wall_s", s.min, "s");
        self.metric("sim_ops_per_s", ops as f64 / s.min, "ops/s");
        self.notes.push(format!(
            "wall_s: min {:.4} s, p50 {:.4} s, p{:.1} {:.4} s; n = {}",
            s.min,
            s.p50,
            s.tail_q * 100.0,
            s.tail,
            s.n
        ));
    }

    /// Records an output-check outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave the parent only if no concurrent run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    stats::Summary::of(values).p50
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over every source and manifest file of the crates the benchmark
/// builds against: identifies the code measured even in a checkout that
/// is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", droplet::obs::fnv1a(&bytes))
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_revision\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \
         \"profile\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_revision(),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Writes the run's record file: provenance, notes, spans, result.
fn write_records(args: &Args, prov: &str, report: &Report, result: &str) -> std::io::Result<()> {
    let dir = Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut out = String::new();
    out.push_str(prov);
    out.push('\n');
    for note in &report.notes {
        out.push_str(&format!("{{\"note\": \"{}\"}}\n", note.replace('"', "'")));
    }
    for span in &report.spans {
        out.push_str(span);
        out.push('\n');
    }
    out.push_str(result);
    out.push('\n');
    std::fs::write(path, out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    let report = match args.workload.as_str() {
        "replay-mmap" => replay::run(&args, &scratch),
        _ => sweep::run(&args, &scratch),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            drop(scratch);
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    drop(scratch);
    let result = result_line(&report);
    if let Err(e) = write_records(&args, &prov, &report, &result) {
        eprintln!("warning: record file not written: {e}");
    }
    println!("{prov}");
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{result}");
    if report.failed > 0 {
        std::process::exit(1);
    }
}
