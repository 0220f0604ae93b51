//! The service load behind the `serve.*` and `loadgen.*` layers, driven
//! by the traced `fig11-sweep` run: an in-process `droplet-serve` with a
//! scratch result store, driven open-loop at a fixed arrival rate over at
//! most `nproc` client threads, one connection each at a time. The seed
//! fixes the request order and mix:
//!
//! - *hot*: `/run` for a spec stored during set-up (a store read);
//! - *cold*: a machine configuration never seen before — a distinct
//!   prefetcher × L1/L2/L3 replacement-policy combination over a tiny
//!   trace warmed in set-up — which runs the engine and writes the store;
//! - *cold pair*: a cold spec sent at the same instant on two
//!   connections, so the in-flight follower path runs.
//!
//! Every request is timed from when it was due, not from when it was
//! sent, and classified hot or cold by its `X-Droplet-Source` header.

use crate::layers::Layers;
use crate::stats::Summary;
use crate::{median, nproc, secs, Report, Scratch};
use droplet::graph::DatasetScale;
use droplet::run_workload;
use droplet_serve::{spawn, ResultStore, RunSpec, ServerHandle, ServerOptions};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Trace ops per served spec.
const BUDGET: u64 = 10_000;
/// Scheduled arrivals per second (a cold pair is one arrival).
const RATE: f64 = 100.0;
/// The arrival mix, repeated every 20 arrivals: 15 hot (`H`), 4 cold (`C`),
/// 1 pair (`P`). A fixed pattern keeps the coincidences between cold runs
/// and hot requests the same for every seed; the seed picks the specs.
const PATTERN: &[u8; 20] = b"HHHCHHHHCHHHPHHHCHHC";
/// Per-request socket timeout; a request that exceeds it fails.
const TIMEOUT: Duration = Duration::from_secs(20);
/// Seconds of load the traced run drives.
const SECONDS: f64 = 5.0;

/// The workloads the service is asked about: (algo, dataset).
const WORKLOADS: [(&str, &str); 5] = [
    ("pr", "kron"),
    ("bfs", "urand"),
    ("cc", "road"),
    ("sssp", "orkut"),
    ("bc", "livejournal"),
];
const PREFETCHERS: [&str; 8] = [
    "none",
    "ghb",
    "vldp",
    "stream",
    "streammpp1",
    "droplet",
    "mono",
    "adaptive",
];
const POLICIES: [&str; 5] = ["lru", "srrip", "brrip", "drrip", "ship"];

/// splitmix64: the seeded generator behind the schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn spec_body(w: usize, prefetcher: &str, policies: Option<[&str; 3]>) -> String {
    let (algo, dataset) = WORKLOADS[w];
    let mut body = format!(
        "{{\"algo\": \"{algo}\", \"dataset\": \"{dataset}\", \"scale\": \"tiny\", \
         \"budget\": {BUDGET}, \"prefetcher\": \"{prefetcher}\""
    );
    if let Some([l1, l2, l3]) = policies {
        body.push_str(&format!(
            ", \"l1_policy\": \"{l1}\", \"l2_policy\": \"{l2}\", \"l3_policy\": \"{l3}\""
        ));
    }
    body.push('}');
    body
}

/// The hot set: every workload under every prefetcher, default policies.
fn hot_bodies() -> Vec<String> {
    (0..WORKLOADS.len())
        .flat_map(|w| PREFETCHERS.iter().map(move |p| spec_body(w, p, None)))
        .collect()
}

/// Every cold spec: a workload under a prefetcher and a policy triple
/// other than all-LRU (which is the hot set's machine).
fn cold_bodies() -> Vec<String> {
    let mut out = Vec::new();
    for w in 0..WORKLOADS.len() {
        for p in PREFETCHERS {
            for l1 in POLICIES {
                for l2 in POLICIES {
                    for l3 in POLICIES {
                        if [l1, l2, l3] != ["lru"; 3] {
                            out.push(spec_body(w, p, Some([l1, l2, l3])));
                        }
                    }
                }
            }
        }
    }
    out
}

/// One scheduled request on one client thread.
#[derive(Clone)]
struct Planned {
    id: usize,
    due: Duration,
    body: String,
}

/// The seeded schedule: `RATE` arrivals per second for `seconds`, dealt
/// round-robin to `clients` threads; a pair goes to two threads at once.
fn schedule(seed: u64, seconds: f64, clients: usize) -> Vec<Vec<Planned>> {
    let mut rng = Rng(seed ^ 0x5E2F_E000);
    let hot = hot_bodies();
    let mut cold = cold_bodies();
    for i in (1..cold.len()).rev() {
        cold.swap(i, rng.below(i + 1));
    }
    let mut cold = cold.into_iter();
    let mut lanes: Vec<Vec<Planned>> = vec![Vec::new(); clients];
    let arrivals = (seconds * RATE).round() as usize;
    let mut id = 0;
    for i in 0..arrivals {
        let due = Duration::from_secs_f64(i as f64 / RATE);
        let (copies, body) = match PATTERN[i % PATTERN.len()] {
            b'H' => (1, hot[rng.below(hot.len())].clone()),
            c => {
                let body = cold.next().expect("more cold specs than arrivals");
                (if c == b'P' { clients.min(2) } else { 1 }, body)
            }
        };
        for c in 0..copies {
            lanes[(i + c) % clients].push(Planned {
                id,
                due,
                body: body.clone(),
            });
            id += 1;
        }
    }
    lanes
}

/// One completed request.
struct Sample {
    id: usize,
    lag_ms: f64,
    latency_ms: f64,
    status: u16,
    source: String,
    body: String,
    spec: String,
}

/// A minimal HTTP/1.1 client with a socket timeout: one request per
/// connection, as the server speaks it.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(TIMEOUT))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    s.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, payload) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let source = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-droplet-source"))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    Ok((status, source, payload.to_string()))
}

/// Drives the schedule open-loop; each lane sleeps until its next
/// request is due. Latency runs from the due time, so a slow response
/// that holds a connection past the next request's due time is charged
/// to that request too. What is not charged is the generator's own
/// lateness — the thread waking after the due time on an idle connection
/// (on a virtual machine, mostly the host rescheduling an idle vCPU);
/// that is the lag, reported on its own.
fn drive(addr: &str, lanes: &[Vec<Planned>]) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(lane.len());
                    let mut free_at = Duration::ZERO;
                    for p in lane {
                        let now = start.elapsed();
                        if p.due > now {
                            std::thread::sleep(p.due - now);
                        }
                        let sent = start.elapsed();
                        let (status, source, body) = http(addr, "POST", "/run", &p.body)
                            .unwrap_or_else(|e| (0, String::new(), e.to_string()));
                        let done = start.elapsed();
                        let lag = sent.saturating_sub(p.due.max(free_at));
                        free_at = done;
                        out.push(Sample {
                            id: p.id,
                            lag_ms: lag.as_secs_f64() * 1e3,
                            latency_ms: done
                                .saturating_sub(p.due)
                                .saturating_sub(lag)
                                .as_secs_f64()
                                * 1e3,
                            status,
                            source,
                            body,
                            spec: p.body.clone(),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.id);
    samples
}

/// A booted service with its hot set stored.
struct Service {
    server: ServerHandle,
    store_dir: PathBuf,
}

impl Service {
    fn boot(dir: &Path) -> Result<Service, String> {
        let store_dir = dir.join("store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let server = spawn(ServerOptions {
            store_dir: Some(store_dir.clone()),
            default_scale: DatasetScale::Tiny,
            threads: Some(nproc()),
            ..ServerOptions::default()
        })
        .map_err(|e| format!("server boot: {e}"))?;
        let state = server.state();
        for body in hot_bodies() {
            let (r, _) = state.submit_and_wait(&parse(&body)?);
            r.map_err(|e| format!("hot set-up run: {e}"))?;
        }
        Ok(Service { server, store_dir })
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

fn parse(body: &str) -> Result<RunSpec, String> {
    RunSpec::parse(body, DatasetScale::Tiny).map_err(|e| format!("spec {body}: {e}"))
}

/// The `"digest"` field of a canonical result body.
fn body_digest(body: &str) -> Option<&str> {
    body.split("\"digest\": \"").nth(1)?.get(..16)
}

/// A counter from the `GET /stats` body.
fn stat(body: &str, name: &str) -> f64 {
    body.split(&format!("\"{name}\": "))
        .nth(1)
        .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

/// Checks every response: status 200, digest equal to a direct
/// `run_workload` of its spec, and byte-identical bodies per spec.
fn check(
    report: &mut Report,
    svc: &Service,
    samples: &[Sample],
    corrupt: bool,
) -> Result<(), String> {
    let state = svc.server.state();
    let mut expected: HashMap<&str, String> = HashMap::new();
    let mut bodies: HashMap<&str, &str> = HashMap::new();
    for (n, s) in samples.iter().enumerate() {
        if s.status != 200 {
            report.check(false, || {
                format!("request {}: status {} ({})", s.id, s.status, s.body)
            });
            continue;
        }
        if !expected.contains_key(s.spec.as_str()) {
            let spec = parse(&s.spec)?;
            let bundle = state.traces.get_or_build(spec.workload(), spec.budget);
            let cfg = spec.config(state.base_for(spec.scale));
            let mut d = run_workload(&bundle, &cfg, spec.warmup()).digest();
            if corrupt && n == 0 {
                d ^= 1;
            }
            expected.insert(&s.spec, format!("{d:016x}"));
        }
        let want = &expected[s.spec.as_str()];
        let same_body = *bodies.entry(&s.spec).or_insert(&s.body) == s.body;
        report.check(
            body_digest(&s.body) == Some(want.as_str()) && same_body,
            || {
                format!(
                    "request {}: served digest {:?} != direct {want}",
                    s.id,
                    body_digest(&s.body)
                )
            },
        );
    }
    Ok(())
}

/// One open-loop load against a freshly booted service, checked.
struct Load {
    svc: Service,
    samples: Vec<Sample>,
    stats_before: String,
    stats_after: String,
}

impl Load {
    /// Boots the service, drives the seed's schedule for `seconds`, and
    /// checks every response.
    fn run(
        seed: u64,
        seconds: f64,
        scratch: &Scratch,
        report: &mut Report,
        corrupt: bool,
    ) -> Result<Load, String> {
        let lanes = schedule(seed, seconds, nproc());
        let svc = Service::boot(&scratch.dir)?;
        let addr = svc.server.addr_string();
        let stats = || http(&addr, "GET", "/stats", "").map_err(|e| format!("stats: {e}"));
        let stats_before = stats()?.2;
        let samples = drive(&addr, &lanes);
        let stats_after = stats()?.2;
        check(report, &svc, &samples, corrupt)?;
        Ok(Load {
            svc,
            samples,
            stats_before,
            stats_after,
        })
    }

    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.status == 200)
    }

    fn latencies(&self, source: &str) -> Vec<f64> {
        self.ok()
            .filter(|s| s.source == source)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// A `GET /stats` counter's change over the load.
    fn delta(&self, name: &str) -> f64 {
        stat(&self.stats_after, name) - stat(&self.stats_before, name)
    }
}

/// Sets the `serve.*` and `loadgen.*` metrics: latencies by source and
/// counters from `load`, then in-process probes of each layer its
/// requests crossed.
fn service_layers(
    load: &Load,
    scratch: &Scratch,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let state = load.svc.server.state();
    let lag: Vec<f64> = load.samples.iter().map(|s| s.lag_ms).collect();
    layers.set("loadgen.lag_p99_ms", Summary::of(&lag).tail);
    layers.set("serve.engine_p50_ms", median(&load.latencies("engine")));
    layers.set("serve.inflight_p50_ms", median(&load.latencies("inflight")));
    layers.set("serve.engine_runs", load.delta("engine_runs"));
    layers.set("serve.dedupe_hits", load.delta("dedupe_hits"));
    layers.set("serve.store_hits", load.delta("store_hits"));

    let mut parse_s = Vec::new();
    for s in &load.samples {
        let t = Instant::now();
        std::hint::black_box(parse(&s.spec)?);
        parse_s.push(secs(t));
    }
    layers.set("serve.parse_us", median(&parse_s) * 1e6);

    let hot_specs: Vec<RunSpec> = hot_bodies()
        .iter()
        .map(|b| parse(b))
        .collect::<Result<_, _>>()?;
    let mut submit_s = Vec::new();
    for k in 0..200 {
        let spec = &hot_specs[k % hot_specs.len()];
        let t = Instant::now();
        let (r, source) = state.submit_and_wait(spec);
        submit_s.push(secs(t));
        report.check(r.is_ok() && source == "store", || {
            "in-process hot submit".into()
        });
    }
    let submit_us = median(&submit_s) * 1e6;
    layers.set("serve.submit_hot_us", submit_us);
    let hot_p50 = median(&load.latencies("store"));
    layers.set("serve.http_ms", hot_p50 - submit_us / 1e3);

    let probe = ResultStore::open(Some(scratch.dir.join("probe-store")))
        .map_err(|e| format!("probe store: {e}"))?;
    let stored: Vec<(&str, &str)> = load
        .ok()
        .filter_map(|s| {
            Some((
                s.body.split("\"key\": \"").nth(1)?.get(..33)?,
                s.body.as_str(),
            ))
        })
        .take(400)
        .collect();
    let (mut put_s, mut get_s) = (Vec::new(), Vec::new());
    for (key, body) in &stored {
        let t = Instant::now();
        probe
            .put(key, body)
            .map_err(|e| format!("probe put: {e}"))?;
        put_s.push(secs(t));
    }
    for (key, _) in &stored {
        let t = Instant::now();
        std::hint::black_box(probe.get(key));
        get_s.push(secs(t));
    }
    layers.set("serve.store_put_us", median(&put_s) * 1e6);
    layers.set("serve.store_get_us", median(&get_s) * 1e6);
    Ok(())
}

/// The service's per-layer metrics for the traced run: a short load on
/// the same seed, every response checked (`corrupt` flips one expected
/// digest), then the in-process probes.
pub fn probe(
    seed: u64,
    corrupt: bool,
    scratch: &Scratch,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let load = Load::run(seed, SECONDS, scratch, report, corrupt)?;
    service_layers(&load, scratch, layers, report)?;
    Service::stop(load.svc);
    Ok(())
}
