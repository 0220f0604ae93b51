//! The `droplet-sim` binary end to end: its flags go through the same
//! validator as a `droplet-serve` spec, `sweep` refuses the flags it would
//! ignore, and `trace load` checks an artifact before replaying it and
//! journals its run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The workload every case runs: BFS on Tiny Kronecker, 30,000 ops.
const WORKLOAD: &str = "--algo bfs --dataset kron --scale tiny --budget 30000";

/// Runs `droplet-sim <cmd> <WORKLOAD> <extra>`.
fn droplet_sim(cmd: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_droplet-sim"))
        .args(cmd.split_whitespace())
        .args(WORKLOAD.split_whitespace())
        .args(extra)
        .output()
        .expect("droplet-sim runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn epoch_ops_below_the_journal_bound_is_a_flag_error() {
    // A journal keeps 4,096 epochs, so a 30,000-op run needs at least 8
    // ops per epoch — the bound `droplet-serve` answers with a 400.
    for n in ["0", "1", "7"] {
        let out = droplet_sim("run", &["--epoch-ops", n]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "--epoch-ops {n}: {err}");
        assert!(
            err.contains(&format!("error: --epoch-ops: invalid value \"{n}\"")),
            "--epoch-ops {n}: {err}"
        );
    }
    let out = droplet_sim("run", &["--epoch-ops", "8"]);
    assert!(out.status.success(), "--epoch-ops 8: {}", stderr(&out));
}

#[test]
fn a_scalar_prefetchers_flag_asks_for_a_list() {
    let out = droplet_sim("run", &["--prefetchers", "droplet"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(
            "error: --prefetchers: invalid value \"droplet\" (expected a list of prefetcher names)"
        ),
        "{err}"
    );
}

#[test]
fn sweep_refuses_the_flags_it_would_ignore() {
    let journal =
        std::env::temp_dir().join(format!("droplet-cli-sweep-{}.jsonl", std::process::id()));
    for extra in [
        ["--obs", journal.to_str().unwrap()],
        ["--epoch-ops", "10000"],
        ["--prefetcher", "vldp"],
    ] {
        let out = droplet_sim("sweep", &extra);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {err}");
        assert!(
            err.contains(&format!("error: {}:", extra[0])),
            "{extra:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{extra:?} ran the sweep");
    }
    assert!(!journal.exists(), "sweep --obs wrote {}", journal.display());
}

#[test]
fn a_flag_without_its_value_is_named() {
    // `--no-fork` took no value; it is gone, and the error names it rather
    // than the flag after it.
    let out = droplet_sim("sweep", &["--no-fork", "--threads", "2"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: --no-fork: missing value"), "{err}");
}

#[test]
fn trace_load_writes_the_journal_of_its_run() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("droplet-cli-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("bfs.dcol");
    let journal = dir.join("load.jsonl");
    let file = ["--trace-file", artifact.to_str().unwrap()];
    let saved = droplet_sim("trace save", &file);
    assert!(saved.status.success(), "trace save: {}", stderr(&saved));
    let out = droplet_sim(
        "trace load",
        &[file[0], file[1], "--obs", journal.to_str().unwrap()],
    );
    assert!(out.status.success(), "trace load --obs: {}", stderr(&out));
    let text = std::fs::read_to_string(&journal).expect("trace load --obs writes its journal");
    let mut lines = text.lines();
    let manifest = lines.next().unwrap_or_default();
    assert!(
        manifest.starts_with("{\"manifest\": ") && manifest.contains("\"workload\": "),
        "{manifest}"
    );
    assert!(lines.count() > 0, "the journal holds no epochs");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_load_rejects_damaged_artifacts() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("droplet-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = |sub: &str, file: &Path| {
        droplet_sim(
            &format!("trace {sub}"),
            &["--trace-file", file.to_str().unwrap()],
        )
    };
    let clean = dir.join("clean.dcol");
    let saved = trace("save", &clean);
    assert!(saved.status.success(), "trace save: {}", stderr(&saved));
    let bytes = std::fs::read(&clean).unwrap();

    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x01;
    let flipped_path = dir.join("flipped.dcol");
    std::fs::write(&flipped_path, &flipped).unwrap();
    let truncated_path = dir.join("truncated.dcol");
    std::fs::write(&truncated_path, &bytes[..bytes.len() * 3 / 4]).unwrap();

    for damaged in [&flipped_path, &truncated_path] {
        let out = trace("load", damaged);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{}: {err}", damaged.display());
        assert!(!err.contains("panicked"), "{}: {err}", damaged.display());
    }
    let out = trace("load", &clean);
    assert!(out.status.success(), "clean artifact: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(columnar replay)"));
    std::fs::remove_dir_all(&dir).unwrap();
}
