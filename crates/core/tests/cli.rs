//! The `droplet-sim` binary end to end: its flags go through the same
//! validator as a `droplet-serve` spec, and `trace load` checks an
//! artifact before replaying it.

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
