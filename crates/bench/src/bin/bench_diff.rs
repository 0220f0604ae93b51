//! `droplet-bench-diff` — compare two benchmark reports or run journals.
//!
//! Inputs may be `BENCH_*.json` section files (one top-level object, as
//! written by `bench_json::write_section`) or JSONL run journals (one
//! object per line, as written by `droplet-sim --obs`); the format is
//! auto-detected per file, so a journal can be diffed against a report.
//! Every numeric leaf is flattened to a dot path (`sim_replay.configs.
//! baseline.us_per_iter`) and the two files are compared leaf by leaf.
//!
//! Gating: leaves whose last path segment names a cost (`us_per_iter`,
//! `*_us`, `*_ms`, `*_cycles`) regress when they *rise*; throughput,
//! gain, and invariant leaves (`ops_per_sec`, `*_per_sec`, `*_speedup`,
//! `*_match`) regress when they *fall* — a `*_match` flag dropping from 1
//! to 0 is a −100% fall, so a broken equivalence always trips the gate.
//! Any gated leaf moving past the threshold percent in the bad direction
//! fails the run with exit code 1 — this is the CI bench gate. A gated
//! leaf present in OLD but missing from NEW is reported as `MISSING` and
//! fails too, so a bench that stops emitting a config or an invariant
//! cannot pass. Other leaves, and leaves new in NEW, are printed for
//! context but never gate.
//!
//! ```text
//! droplet-bench-diff OLD NEW [--threshold PCT]
//!                    [--threshold-up PCT] [--threshold-down PCT]
//!                    [--section NAME]
//! ```
//!
//! `--threshold` (default 15) covers both directions;
//! `--threshold-up` / `--threshold-down` override it for the
//! higher-is-worse and lower-is-worse leaf families separately — e.g. a
//! noisy wall-clock section can tolerate 35% rises while still failing
//! hard (say, 5%) on any drop of a `*_match` invariant or a fork-win
//! ratio. `--section` restricts both the display and the gate to one
//! top-level section (e.g. `sim_replay`).

use droplet_bench::bench_json::split_top_level;
use std::process::ExitCode;

struct Args {
    old: String,
    new: String,
    /// Percent rise tolerated on higher-is-worse leaves.
    threshold_up: f64,
    /// Percent fall tolerated on lower-is-worse leaves.
    threshold_down: f64,
    section: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut pos = Vec::new();
    let mut threshold = 15.0;
    let mut threshold_up = None;
    let mut threshold_down = None;
    let mut section = None;
    let mut it = std::env::args().skip(1);
    let pct = |flag: &str, v: Option<String>| -> Result<f64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => threshold = pct("--threshold", it.next())?,
            "--threshold-up" => threshold_up = Some(pct("--threshold-up", it.next())?),
            "--threshold-down" => threshold_down = Some(pct("--threshold-down", it.next())?),
            "--section" => section = Some(it.next().ok_or("--section needs a value")?),
            "--help" | "-h" => {
                return Err("usage: droplet-bench-diff OLD NEW [--threshold PCT] \
                     [--threshold-up PCT] [--threshold-down PCT] [--section NAME]"
                    .to_string())
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => pos.push(other.to_string()),
        }
    }
    let [old, new] = <[String; 2]>::try_from(pos)
        .map_err(|_| "expected exactly two files: OLD NEW".to_string())?;
    Ok(Args {
        old,
        new,
        threshold_up: threshold_up.unwrap_or(threshold),
        threshold_down: threshold_down.unwrap_or(threshold),
        section,
    })
}

/// Flattens one parsed report into sorted `(dot.path, value)` numeric
/// leaves. Non-numeric, non-object leaves (strings, nulls) are skipped.
fn flatten(pairs: &[(String, String)], prefix: &str, out: &mut Vec<(String, f64)>) {
    for (k, v) in pairs {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        let v = v.trim();
        if v.starts_with('{') {
            if let Some(inner) = split_top_level(v) {
                flatten(&inner, &path, out);
            }
        } else if let Ok(x) = v.parse::<f64>() {
            out.push((path, x));
        }
    }
}

/// Loads a report file: a single JSON object, or a JSONL journal whose
/// *last* line (the cumulative end-of-run epoch) is the comparison point,
/// with the line count surfaced as an `epochs` leaf.
fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut leaves = Vec::new();
    if let Some(pairs) = split_top_level(&text) {
        flatten(&pairs, "", &mut leaves);
    } else {
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let last = lines
            .last()
            .and_then(|l| split_top_level(l))
            .ok_or_else(|| format!("{path}: neither a JSON report nor a JSONL journal"))?;
        flatten(&last, "", &mut leaves);
        leaves.push(("epochs".to_string(), lines.len() as f64));
    }
    leaves.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(leaves)
}

/// `Some(true)` = higher is worse, `Some(false)` = lower is worse,
/// `None` = informational only.
fn gate_direction(path: &str) -> Option<bool> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf == "us_per_iter"
        || leaf.ends_with("_us")
        || leaf.ends_with("_ms")
        || leaf.ends_with("_cycles")
    {
        Some(true)
    } else if leaf == "ops_per_sec"
        || leaf.ends_with("_per_sec")
        || leaf.ends_with("_speedup")
        || leaf.ends_with("_match")
    {
        Some(false)
    } else {
        None
    }
}

/// Merges two path-sorted leaf lists into `(path, old, new)` rows.
fn merge(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<(String, Option<f64>, Option<f64>)> {
    let mut rows = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                rows.push((a.0.clone(), Some(a.1), Some(b.1)));
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a.0 < b.0 => {
                rows.push((a.0.clone(), Some(a.1), None));
                i += 1;
            }
            (Some(_), Some(b)) => {
                rows.push((b.0.clone(), None, Some(b.1)));
                j += 1;
            }
            (Some(a), None) => {
                rows.push((a.0.clone(), Some(a.1), None));
                i += 1;
            }
            (None, Some(b)) => {
                rows.push((b.0.clone(), None, Some(b.1)));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    rows
}

/// Compares the two leaf lists: the table lines to print, and one message
/// per gated regression.
fn compare(
    args: &Args,
    old: &[(String, f64)],
    new: &[(String, f64)],
) -> (Vec<String>, Vec<String>) {
    let in_section = |path: &str| {
        args.section
            .as_deref()
            .is_none_or(|s| path == s || path.starts_with(&format!("{s}.")))
    };
    let mut lines = vec![format!(
        "{:<52} {:>14} {:>14} {:>9}  gate",
        "leaf", "old", "new", "delta%"
    )];
    let mut regressions = Vec::new();
    for (path, a, b) in merge(old, new) {
        if !in_section(&path) {
            continue;
        }
        let (delta_str, verdict) = match (a, b) {
            (Some(a), Some(b)) if a != 0.0 => {
                let pct = (b - a) / a * 100.0;
                let verdict = match gate_direction(&path) {
                    Some(higher_worse) => {
                        let (bad, limit) = if higher_worse {
                            (pct, args.threshold_up)
                        } else {
                            (-pct, args.threshold_down)
                        };
                        if bad > limit {
                            regressions.push(format!("{path}: {a:.3} -> {b:.3} ({pct:+.1}%)"));
                            "REGRESSED"
                        } else {
                            "ok"
                        }
                    }
                    None => "",
                };
                (format!("{pct:+.1}"), verdict)
            }
            (Some(a), None) if gate_direction(&path).is_some() => {
                regressions.push(format!("{path}: {a:.3} -> MISSING"));
                ("—".to_string(), "REGRESSED")
            }
            _ => ("—".to_string(), ""),
        };
        let old_str = a.map_or("—".to_string(), |x| format!("{x:.3}"));
        let new_str = b.map_or("MISSING".to_string(), |x| format!("{x:.3}"));
        lines.push(format!(
            "{path:<52} {old_str:>14} {new_str:>14} {delta_str:>9}  {verdict}"
        ));
    }
    (lines, regressions)
}

fn run() -> Result<Vec<String>, String> {
    let args = parse_args()?;
    let old = load(&args.old)?;
    let new = load(&args.new)?;
    let (lines, regressions) = compare(&args, &old, &new);
    for line in lines {
        println!("{line}");
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    match run() {
        Ok(regressions) if regressions.is_empty() => ExitCode::SUCCESS,
        Ok(regressions) => {
            eprintln!("\n{} regression(s) past threshold:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(section: Option<&str>) -> Args {
        Args {
            old: String::new(),
            new: String::new(),
            threshold_up: 15.0,
            threshold_down: 15.0,
            section: section.map(str::to_string),
        }
    }

    fn leaves(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn vanished_gated_leaf_fails() {
        let old = leaves(&[
            ("sim_replay.configs.baseline.us_per_iter", 10.0),
            ("sim_replay.lane_match", 1.0),
        ]);
        let new = leaves(&[("sim_replay.configs.baseline.us_per_iter", 10.0)]);
        let (lines, regressions) = compare(&args(Some("sim_replay")), &old, &new);
        assert_eq!(regressions, ["sim_replay.lane_match: 1.000 -> MISSING"]);
        let row = lines.iter().find(|l| l.contains("lane_match")).unwrap();
        assert!(
            row.contains("MISSING") && row.ends_with("REGRESSED"),
            "{row}"
        );
    }

    #[test]
    fn vanished_ungated_and_new_leaves_are_informational() {
        let old = leaves(&[("sim_replay.ops", 120_000.0), ("sim_replay.x_us", 5.0)]);
        let new = leaves(&[("sim_replay.new_match", 1.0), ("sim_replay.x_us", 5.0)]);
        let (lines, regressions) = compare(&args(None), &old, &new);
        assert!(regressions.is_empty(), "{regressions:?}");
        let ops = lines.iter().find(|l| l.contains("sim_replay.ops")).unwrap();
        assert!(ops.contains("MISSING"), "{ops}");
        let added = lines.iter().find(|l| l.contains("new_match")).unwrap();
        assert!(added.trim_end().ends_with('—'), "{added}");
    }
}
