//! Load-test driver for `droplet-serve` (DESIGN.md §18): boots the
//! service in-process, then drives it with thousands of concurrent
//! submissions over raw sockets and exports the service's latency and
//! dedupe profile to `BENCH_engine.json` (section `"serve_load"`).
//!
//! Two phases:
//!
//! * **saturation** — batches of *distinct* specs (every request a fresh
//!   `(config, workload)` key, so every request is an engine run) at
//!   doubling client counts; the per-level `cN_per_sec` leaves show where
//!   added concurrency stops buying throughput, summarized as
//!   `saturation_clients`.
//! * **hot set** — 32 clients × 64 requests over 8 hot specs: after the
//!   first touch of each spec every submission is answered by the
//!   in-flight registry or the store. `hot_p50_ms`/`hot_p99_ms` gate
//!   higher-worse and `hot_throughput_per_sec` lower-worse in
//!   `droplet-bench-diff`; `dedupe_hit_rate` is recorded for the report.
//!
//! Run with: `cargo bench -p droplet-bench --bench serve_load`

use droplet::obs::json;
use droplet_bench::bench_json;
use droplet_serve::http::request;
use droplet_serve::{spawn, ServerOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const HOT_CLIENTS: usize = 32;
const HOT_PER_CLIENT: usize = 64;
const SATURATION_LEVELS: [usize; 4] = [1, 2, 4, 8];
const SATURATION_BATCH: usize = 32;

/// The 8-spec hot set every client cycles through.
fn hot_spec(i: usize) -> String {
    let algos = ["pr", "bfs", "cc", "sssp"];
    let prefetchers = ["droplet", "none"];
    format!(
        r#"{{"algo": "{}", "dataset": "kron", "scale": "tiny", "budget": 30000, "prefetcher": "{}"}}"#,
        algos[i % 4],
        prefetchers[(i / 4) % 2]
    )
}

/// Globally distinct specs: each index names a different machine, so the
/// key never repeats and every submission is a fresh engine run.
fn distinct_spec(i: usize) -> String {
    let prefetchers = [
        "droplet",
        "none",
        "ghb",
        "vldp",
        "stream",
        "streammpp1",
        "mono",
        "adaptive",
    ];
    let policies = ["lru", "srrip", "brrip", "drrip", "ship"];
    format!(
        r#"{{"algo": "pr", "dataset": "kron", "scale": "tiny", "budget": 30000,
            "prefetcher": "{}", "l3_policy": "{}", "l2_policy": "{}"}}"#,
        prefetchers[i % 8],
        policies[(i / 8) % 5],
        policies[(i / 40) % 5]
    )
}

/// Fans `total` requests over `clients` threads; returns each request's
/// wall latency in milliseconds, submission order not preserved.
fn drive(
    addr: &str,
    clients: usize,
    total: usize,
    spec_for: &(dyn Fn(usize) -> String + Sync),
) -> Vec<f64> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return lat;
                        }
                        let spec = spec_for(i);
                        let t = Instant::now();
                        let (status, _, _) = request(addr, "POST", "/run", &spec).expect("request");
                        assert_eq!(status, 200, "load request failed");
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let store_dir = std::env::temp_dir().join(format!("droplet-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = spawn(ServerOptions {
        store_dir: Some(store_dir.clone()),
        ..ServerOptions::default()
    })
    .expect("bind load-test server");
    let addr = server.addr_string();
    println!(
        "serve_load: {addr}, {} workers, store {}",
        server.state().pool.threads(),
        store_dir.display()
    );

    // Warm the trace cache so timed phases measure the service, not
    // first-touch graph construction.
    for i in 0..8 {
        let (status, _, _) = request(&addr, "POST", "/run", &hot_spec(i)).expect("warm");
        assert_eq!(status, 200);
    }

    // Phase 1: saturation sweep over always-distinct keys.
    let mut spent = 0usize;
    let mut saturation_pairs: Vec<(String, String)> = Vec::new();
    let mut per_level: Vec<f64> = Vec::new();
    for &clients in &SATURATION_LEVELS {
        let base = spent;
        let wall = Instant::now();
        drive(&addr, clients, SATURATION_BATCH, &|i| {
            distinct_spec(base + i)
        });
        spent += SATURATION_BATCH;
        let per_sec = SATURATION_BATCH as f64 / wall.elapsed().as_secs_f64();
        println!("  saturation c{clients}: {per_sec:.1} runs/sec");
        saturation_pairs.push((format!("c{clients}_per_sec"), format!("{per_sec:.2}")));
        per_level.push(per_sec);
    }
    // The first level whose doubling bought < 10% more throughput.
    let saturation_clients = per_level
        .windows(2)
        .position(|w| w[1] < w[0] * 1.10)
        .map(|i| SATURATION_LEVELS[i])
        .unwrap_or(*SATURATION_LEVELS.last().unwrap());
    saturation_pairs.push((
        "saturation_clients".to_string(),
        saturation_clients.to_string(),
    ));

    // Phase 2: the hot set under full concurrency.
    let stats = &server.state().stats;
    let before_subs = stats.submissions.load(Ordering::Relaxed);
    let before_hits =
        stats.dedupe_hits.load(Ordering::Relaxed) + stats.store_hits.load(Ordering::Relaxed);
    let before_runs = stats.engine_runs.load(Ordering::Relaxed);
    let total = HOT_CLIENTS * HOT_PER_CLIENT;
    let wall = Instant::now();
    let mut latencies = drive(&addr, HOT_CLIENTS, total, &|i| hot_spec(i));
    let elapsed = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    let throughput = total as f64 / elapsed;
    let subs = stats.submissions.load(Ordering::Relaxed) - before_subs;
    let hits = stats.dedupe_hits.load(Ordering::Relaxed) + stats.store_hits.load(Ordering::Relaxed)
        - before_hits;
    let engine_runs = stats.engine_runs.load(Ordering::Relaxed) - before_runs;
    let hit_rate = hits as f64 / subs.max(1) as f64;
    println!(
        "  hot set: {total} submissions, p50 {p50:.2} ms, p99 {p99:.2} ms, \
         {throughput:.0} req/sec, dedupe hit rate {:.3}, {engine_runs} engine runs",
        hit_rate
    );

    let section = json::object(&[
        ("submissions", subs.to_string()),
        ("hot_p50_ms", format!("{p50:.3}")),
        ("hot_p99_ms", format!("{p99:.3}")),
        ("hot_throughput_per_sec", format!("{throughput:.1}")),
        ("dedupe_hit_rate", format!("{hit_rate:.4}")),
        ("engine_runs", engine_runs.to_string()),
        ("saturation", json::object(&saturation_pairs)),
    ]);
    let path = bench_json::default_report_path();
    bench_json::write_section(&path, "serve_load", &section).expect("write BENCH_engine.json");
    println!("serve_load -> {}", path.display());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
