//! End-to-end tests over a live `droplet-serve` socket: in-flight dedupe,
//! content-store round-trips across restart, field-level spec rejection,
//! live epoch streaming, and fork-shared sweeps whose cells take the same
//! store hits and dedupe as `/run`.

use droplet::experiments::ExperimentCtx;
use droplet::run_workload;
use droplet_graph::DatasetScale;
use droplet_serve::http::{header, request};
use droplet_serve::{spawn, RunSpec, ServerOptions};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

const SPEC: &str = r#"{"algo": "pr", "dataset": "kron", "scale": "tiny", "prefetcher": "droplet", "budget": 30000}"#;

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("droplet-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(store_dir: Option<PathBuf>) -> droplet_serve::ServerHandle {
    spawn(ServerOptions {
        store_dir,
        ..ServerOptions::default()
    })
    .expect("bind test server")
}

/// BFS on Tiny Kronecker, 30,000 ops, plus `extra` (`, "field": value`).
fn bfs(extra: &str) -> String {
    format!(r#"{{"algo": "bfs", "dataset": "kron", "scale": "tiny", "budget": 30000{extra}}}"#)
}

fn engine_runs(server: &droplet_serve::ServerHandle) -> u64 {
    server.state().stats.engine_runs.load(Ordering::Relaxed)
}

/// POSTs every `(path, body)` at once, each from its own thread released
/// by one barrier; returns the statuses and bodies in order.
fn post_together(addr: &str, posts: &[(&str, &str)]) -> Vec<(u16, String)> {
    let start = Barrier::new(posts.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = posts
            .iter()
            .map(|&(path, body)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let (status, _, body) = request(addr, "POST", path, body).unwrap();
                    (status, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn field(body: &str, name: &str) -> String {
    let tail = body
        .split(&format!("\"{name}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("body has no field {name}: {body}"));
    tail.trim_start_matches('"')
        .split(['"', ',', '}'])
        .next()
        .unwrap()
        .to_string()
}

/// N concurrent identical submissions: exactly one engine run, every
/// client a 200 with the bit-identical digest and body.
#[test]
fn concurrent_identical_submissions_share_one_engine_run() {
    let dir = tmp_store("dedupe");
    let server = boot(Some(dir.clone()));
    let addr = server.addr_string();
    let responses: Vec<(u16, String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let (status, headers, body) = request(&addr, "POST", "/run", SPEC).unwrap();
                    let source = header(&headers, "X-Droplet-Source").unwrap().to_string();
                    (status, source, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = server.state();
    assert_eq!(
        stats.stats.engine_runs.load(Ordering::Relaxed),
        1,
        "identical submissions must share one simulation"
    );
    assert_eq!(stats.stats.submissions.load(Ordering::Relaxed), 8);
    assert_eq!(
        stats.stats.dedupe_hits.load(Ordering::Relaxed)
            + stats.stats.store_hits.load(Ordering::Relaxed),
        7,
        "every non-leader answered by dedupe or the store"
    );
    let first = &responses[0];
    for (status, source, body) in &responses {
        assert_eq!(*status, 200);
        assert!(matches!(source.as_str(), "engine" | "inflight" | "store"));
        assert_eq!(
            body, &first.2,
            "canonical bodies are byte-identical across sources"
        );
    }
    assert_ne!(field(&first.2, "digest"), "0000000000000000");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored result survives a server restart, replays byte-identical,
/// and its digest equals a fresh direct engine run of the same spec.
#[test]
fn content_store_round_trip_across_restart() {
    let dir = tmp_store("store");
    let (key, digest, body) = {
        let server = boot(Some(dir.clone()));
        let (status, headers, body) = request(&server.addr_string(), "POST", "/run", SPEC).unwrap();
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "X-Droplet-Source"), Some("engine"));
        let out = (field(&body, "key"), field(&body, "digest"), body);
        server.shutdown();
        out
    };

    // Restart on the same store directory: the engine must stay cold.
    let server = boot(Some(dir.clone()));
    let (status, headers, stored) =
        request(&server.addr_string(), "GET", &format!("/result/{key}"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("store"));
    assert_eq!(stored, body, "stored body replays byte-identical");
    let (status, headers, rerun) = request(&server.addr_string(), "POST", "/run", SPEC).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("store"));
    assert_eq!(rerun, body);
    assert_eq!(server.state().stats.engine_runs.load(Ordering::Relaxed), 0);

    // The served digest is the digest of a fresh direct run.
    let spec = RunSpec::parse(SPEC, DatasetScale::Tiny).unwrap();
    let ctx = ExperimentCtx::tiny();
    let cfg = spec.config(&ctx.base);
    let bundle = ctx.traces.get_or_build(spec.workload(), spec.budget);
    let fresh = run_workload(&bundle, &cfg, spec.warmup());
    assert_eq!(digest, format!("{:016x}", fresh.digest()));
    assert_eq!(key, spec.key(&cfg));

    // Unknown keys 404; malformed keys never touch the filesystem.
    let missing = format!("{:016x}-{:016x}", 1u64, 2u64);
    let (status, _, _) = request(
        &server.addr_string(),
        "GET",
        &format!("/result/{missing}"),
        "",
    )
    .unwrap();
    assert_eq!(status, 404);
    let (status, _, _) = request(&server.addr_string(), "GET", "/result/../escape", "").unwrap();
    assert_eq!(status, 400);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invalid specs are rejected with the same field-level message the CLI
/// prints, as an HTTP 400.
#[test]
fn spec_rejection_matches_cli_diagnostics() {
    let server = boot(None);
    let addr = server.addr_string();
    let (status, _, body) = request(
        &addr,
        "POST",
        "/run",
        r#"{"algo": "pr", "dataset": "kron", "budget": "abc"}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(
        body.contains("budget: invalid value \\\"abc\\\" (expected a non-negative integer)"),
        "field-level message missing: {body}"
    );
    assert_eq!(field(&body, "field"), "budget");
    let (status, _, body) = request(&addr, "POST", "/run", r#"{"dataset": "kron"}"#).unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&body, "field"), "algo");
    let (status, _, _) = request(&addr, "POST", "/run", "not json at all").unwrap();
    assert_eq!(status, 400);
    // One epoch per op would hold a streamed line per op for followers.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/run",
        r#"{"algo": "bfs", "dataset": "kron", "scale": "tiny", "budget": 30000, "epoch_ops": 1}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&body, "field"), "epoch_ops");
    // Each endpoint refuses the field the other takes.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/run",
        r#"{"algo": "pr", "dataset": "kron", "prefetchers": ["vldp", "ghb"]}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&body, "field"), "prefetchers");
    let (status, _, body) = request(
        &addr,
        "POST",
        "/sweep",
        r#"{"algo": "pr", "dataset": "kron", "prefetcher": "vldp", "prefetchers": ["ghb"]}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&body, "field"), "prefetcher");
    // A sweep may name each configuration once.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/sweep",
        r#"{"algo": "bfs", "dataset": "kron", "scale": "tiny", "prefetchers": ["none", "none"]}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&body, "field"), "prefetchers");
    assert_eq!(server.state().stats.rejects.load(Ordering::Relaxed), 7);
    assert_eq!(server.state().stats.engine_runs.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// `?stream=1` delivers one JSONL line per measurement epoch and then the
/// canonical result line; the epoch count matches the result's `epochs`.
#[test]
fn streaming_run_delivers_epochs_then_result() {
    let server = boot(None);
    let spec = r#"{"algo": "bfs", "dataset": "kron", "scale": "tiny", "budget": 30000, "epoch_ops": 2000}"#;
    let (status, headers, body) =
        request(&server.addr_string(), "POST", "/run?stream=1", spec).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("engine"));
    let lines: Vec<&str> = body.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected epochs plus a result line: {body}"
    );
    let (epoch_lines, result_line) = (&lines[..lines.len() - 1], lines[lines.len() - 1]);
    for (i, line) in epoch_lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"epoch\": {i},")),
            "epoch line {i} malformed: {line}"
        );
    }
    assert_eq!(
        field(result_line, "epochs"),
        epoch_lines.len().to_string(),
        "streamed epoch count matches the recorded journal"
    );
    assert_ne!(field(result_line, "digest"), "0000000000000000");
    server.shutdown();
}

/// `/sweep` fans one workload across prefetchers over a shared warm-up
/// and lands each cell in the store under the key `/run` would use.
#[test]
fn sweep_stores_cells_under_run_keys() {
    let dir = tmp_store("sweep");
    let server = boot(Some(dir.clone()));
    let addr = server.addr_string();
    let sweep = r#"{"algo": "cc", "dataset": "urand", "scale": "tiny", "budget": 30000,
                    "prefetchers": ["none", "droplet"]}"#;
    let (status, headers, body) = request(&addr, "POST", "/sweep", sweep).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("engine"));
    assert_eq!(body.matches("\"digest\"").count(), 2);
    assert_eq!(server.state().stats.engine_runs.load(Ordering::Relaxed), 2);

    // An individual run of one cell now hits the store.
    let run = r#"{"algo": "cc", "dataset": "urand", "scale": "tiny", "budget": 30000,
                  "prefetcher": "droplet"}"#;
    let (status, headers, run_body) = request(&addr, "POST", "/run", run).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("store"));
    assert!(body.contains(&field(&run_body, "digest")));
    // Resubmitting the whole sweep is a pure store hit.
    let (status, headers, again) = request(&addr, "POST", "/sweep", sweep).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("store"));
    assert_eq!(again, body);
    assert_eq!(server.state().stats.engine_runs.load(Ordering::Relaxed), 2);
    // An empty prefetcher list is a field-level 400.
    let (status, _, err) = request(
        &addr,
        "POST",
        "/sweep",
        r#"{"algo": "cc", "dataset": "urand", "scale": "tiny"}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_eq!(field(&err, "field"), "prefetchers");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Liveness and counters endpoints answer.
#[test]
fn healthz_and_stats_answer() {
    let server = boot(None);
    let addr = server.addr_string();
    let (status, _, body) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, body) = request(&addr, "GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    for key in ["submissions", "engine_runs", "trace_cache"] {
        assert!(body.contains(key), "stats missing {key}: {body}");
    }
    let (status, _, _) = request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// A sweep whose `droplet` cell a `/run` already stored simulates only its
/// other cell, and answers the bytes a cold sweep of both cells does.
#[test]
fn a_partly_stored_sweep_runs_only_its_missing_cells() {
    let dir = tmp_store("partial");
    let server = boot(Some(dir.clone()));
    let addr = server.addr_string();
    let (status, _, run) = request(&addr, "POST", "/run", &bfs("")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(engine_runs(&server), 1);
    let sweep = bfs(r#", "prefetchers": ["droplet", "none"]"#);
    let (status, headers, body) = request(&addr, "POST", "/sweep", &sweep).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("engine"));
    assert_eq!(engine_runs(&server), 2, "only the missing cell runs");
    assert_eq!(server.state().stats.store_hits.load(Ordering::Relaxed), 1);
    assert!(
        body.starts_with(&format!("{{\"results\": [{run}, ")),
        "{body}"
    );
    // A cold server forks both cells from one warm-up: the same bytes.
    let cold = boot(None);
    let (_, _, cold_body) = request(&cold.addr_string(), "POST", "/sweep", &sweep).unwrap();
    assert_eq!(engine_runs(&cold), 2);
    assert_eq!(body, cold_body);
    cold.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four concurrent identical two-cell sweeps simulate each cell once;
/// every other cell is answered in flight or from the store.
#[test]
fn concurrent_identical_sweeps_share_each_cell() {
    let dir = tmp_store("sweeps");
    let server = boot(Some(dir.clone()));
    let sweep = bfs(r#", "prefetchers": ["droplet", "none"]"#);
    let responses = post_together(&server.addr_string(), &[("/sweep", sweep.as_str()); 4]);
    let stats = &server.state().stats;
    assert_eq!(engine_runs(&server), 2, "one engine run per distinct cell");
    assert_eq!(stats.submissions.load(Ordering::Relaxed), 4);
    assert_eq!(
        stats.dedupe_hits.load(Ordering::Relaxed) + stats.store_hits.load(Ordering::Relaxed),
        6
    );
    for (status, body) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(body, &responses[0].1);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `/run` racing a one-cell `/sweep` of the same key shares its engine
/// run with it.
#[test]
fn a_run_racing_a_one_cell_sweep_shares_its_engine_run() {
    let dir = tmp_store("race");
    let server = boot(Some(dir.clone()));
    let run = bfs(r#", "prefetcher": "vldp""#);
    let sweep = bfs(r#", "prefetchers": ["vldp"]"#);
    let responses = post_together(&server.addr_string(), &[("/run", &run), ("/sweep", &sweep)]);
    assert_eq!(engine_runs(&server), 1);
    assert_eq!((responses[0].0, responses[1].0), (200, 200));
    assert_eq!(
        responses[1].1,
        format!("{{\"results\": [{}]}}", responses[0].1)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampling cadence is part of a job's identity: a plain run after a
/// sampled one of the same workload gets the body a fresh engine returns,
/// not the sampled run's.
#[test]
fn a_plain_run_after_a_sampled_one_gets_a_fresh_engine_body() {
    let dir = tmp_store("cadence");
    let server = boot(Some(dir.clone()));
    let addr = server.addr_string();
    let (status, _, sampled) =
        request(&addr, "POST", "/run", &bfs(r#", "epoch_ops": 2000"#)).unwrap();
    assert_eq!(status, 200);
    assert_ne!(field(&sampled, "epochs"), "0");
    let (status, headers, plain) = request(&addr, "POST", "/run", &bfs("")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Droplet-Source"), Some("engine"));
    let fresh = boot(None);
    let (_, _, expected) = request(&fresh.addr_string(), "POST", "/run", &bfs("")).unwrap();
    assert_eq!(plain, expected);
    assert_eq!(field(&plain, "epochs"), "0");
    fresh.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cells a sweep leads run without live streams; each replays its
/// journal, so a streaming follower still gets one line per epoch.
#[test]
fn sweep_led_cells_stream_one_line_per_epoch() {
    let server = boot(None);
    let body = bfs(r#", "epoch_ops": 2000, "prefetchers": ["droplet", "none"]"#);
    let spec = RunSpec::parse(&body, DatasetScale::Tiny).unwrap();
    for led in server.state().resolve(&spec, &spec.prefetchers) {
        assert_eq!(led.source, "engine");
        let body = &led.cell.wait().unwrap().body;
        let lines = led.cell.stream.len();
        assert!(
            lines > 0 && body.contains(&format!("\"epochs\": {lines},")),
            "{body}"
        );
    }
    server.shutdown();
}
