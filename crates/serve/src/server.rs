//! The experiment service: spec in, deduped simulation out.
//!
//! `POST /run` and `POST /sweep` share one request lifecycle. A request
//! has one cell per prefetcher: the spec's `prefetcher` for `/run`, its
//! `prefetchers` list for `/sweep`.
//!
//! 1. the body is validated into a [`RunSpec`] (field-level 400 on
//!    rejection — the same message `droplet-sim` prints for the flag);
//! 2. each cell's job key `{config_hash}-{workload_hash}` is checked
//!    against the on-disk [`ResultStore`] — a hit answers that cell from
//!    disk without touching the engine;
//! 3. every other cell claims its key in the in-flight registry: it
//!    follows a running job with the same key, or this request leads it;
//! 4. the cells a request leads run as one engine job on one leader
//!    thread under the concurrency limiter — a lone cell streams its
//!    epochs live, two or more share one warm-up through [`run_sweep`];
//! 5. the leader persists each cell's canonical body to the store
//!    *before* retiring its key, so late arrivals that miss the registry
//!    are guaranteed a store hit.
//!
//! A leader never waits on another request's cell, so no job can
//! deadlock, and a partly stored sweep runs only its missing cells.
//!
//! Response bodies are canonical — byte-identical whether they came from
//! the engine, an in-flight merge, or the store, and whether the cell ran
//! alone or forked from a sweep's warm-up (wall-clock time and fork
//! lineage are excluded; how the bytes were obtained rides in the
//! `X-Droplet-Source` header). `/run?stream=1` upgrades the response to
//! chunked JSONL: one line per measurement epoch as the engine produces
//! them (followers replay the leader's stream from its first line), then
//! the result line.

use crate::dedupe::{Claim, Inflight, JobCell};
use crate::http::{self, ChunkedResponse, Request};
use crate::store::{valid_key, ResultStore};
use droplet::obs::json;
use droplet::specparse::RunSpec;
use droplet::trace::SliceSource;
use droplet::{
    run_sweep, run_workload_with_stream, JobPool, PrefetcherKind, RunResult, SpecError, SweepCell,
    SystemConfig, TraceCache,
};
use droplet_graph::DatasetScale;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Result-store directory; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// Scale used when a spec omits `scale`.
    pub default_scale: DatasetScale,
    /// Worker-pool width override (`None`: `DROPLET_THREADS`/all cores);
    /// it also bounds concurrent engine jobs.
    pub threads: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            store_dir: None,
            default_scale: DatasetScale::Tiny,
            threads: None,
        }
    }
}

/// Monotonic service counters (`GET /stats`).
#[derive(Debug, Default)]
pub struct Stats {
    /// Specs accepted on `/run` and `/sweep` (one per request).
    pub submissions: AtomicU64,
    /// Cells answered by joining an in-flight job with the same key.
    pub dedupe_hits: AtomicU64,
    /// Cells answered from the result store.
    pub store_hits: AtomicU64,
    /// Cells the engine simulated.
    pub engine_runs: AtomicU64,
    /// Specs rejected with a 400.
    pub rejects: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counting semaphore bounding concurrent engine jobs.
#[derive(Debug)]
struct Limiter {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Limiter {
    fn new(permits: usize) -> Self {
        Limiter {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> LimiterPermit<'_> {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            permits = self
                .freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *permits -= 1;
        LimiterPermit { limiter: self }
    }
}

struct LimiterPermit<'a> {
    limiter: &'a Limiter,
}

impl Drop for LimiterPermit<'_> {
    fn drop(&mut self) {
        let mut permits = self
            .limiter
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *permits += 1;
        drop(permits);
        self.limiter.freed.notify_one();
    }
}

/// How one cell of a submission resolved: consume `cell.stream` live,
/// then [`JobCell::wait`].
pub struct Submission {
    /// The cell's job: already done for a store hit, else running.
    pub cell: Arc<JobCell<RunOutcome>>,
    /// `"store"` for a store hit, `"engine"` for a cell this submission
    /// leads, `"inflight"` for one it follows.
    pub source: &'static str,
}

/// A cell the submission leads: its prefetcher, machine, key and job.
type Led = (
    PrefetcherKind,
    SystemConfig,
    String,
    Arc<JobCell<RunOutcome>>,
);

/// A completed job as served to clients: the canonical body plus the
/// result digest (asserted bit-identical across deduped submissions).
#[derive(Debug)]
pub struct RunOutcome {
    /// The job key (`{config_hash:016x}-{workload_hash:016x}`).
    pub key: String,
    /// [`droplet::RunResult::digest`] of the simulation.
    pub digest: u64,
    /// Canonical single-line JSON response body.
    pub body: String,
}

/// Shared server state: engine seams, dedupe registry, store, counters.
pub struct ServerState {
    options: ServerOptions,
    /// The base machine of every scale ([`SystemConfig::for_scale`]).
    bases: HashMap<DatasetScale, SystemConfig>,
    /// Shared trace store: every submission of a workload builds it once.
    pub traces: TraceCache,
    /// Worker pool sweep cells fan out over.
    pub pool: JobPool,
    /// In-flight dedupe registry.
    pub inflight: Inflight<RunOutcome>,
    /// Content-addressed result store.
    pub store: ResultStore,
    /// Service counters.
    pub stats: Stats,
    /// One permit per pool worker: at most that many engine jobs run.
    limiter: Limiter,
}

impl ServerState {
    /// Builds the state (opening the store directory) without binding.
    pub fn new(options: ServerOptions) -> io::Result<Arc<Self>> {
        let bases = [DatasetScale::Tiny, DatasetScale::Small, DatasetScale::Sim]
            .map(|scale| (scale, SystemConfig::for_scale(scale)))
            .into();
        let pool = match options.threads {
            Some(n) => JobPool::with_threads(n),
            None => JobPool::from_env(),
        };
        let store = ResultStore::open(options.store_dir.clone())?;
        Ok(Arc::new(ServerState {
            options,
            bases,
            traces: TraceCache::new(),
            limiter: Limiter::new(pool.threads()),
            pool,
            inflight: Inflight::new(),
            store,
            stats: Stats::default(),
        }))
    }

    /// The baseline configuration for `scale`.
    pub fn base_for(&self, scale: DatasetScale) -> &SystemConfig {
        &self.bases[&scale]
    }

    /// Renders the canonical response body for one completed cell.
    ///
    /// Deterministic by construction: every field derives from the
    /// simulation state, and the manifest's wall-clock and fork lineage
    /// are cleared — so the engine, an in-flight merge, and the store all
    /// serve the same bytes for a key, whether its cell ran alone or
    /// forked from a shared warm-up.
    fn render_body(
        &self,
        spec: &RunSpec,
        kind: PrefetcherKind,
        key: &str,
        r: &RunResult,
    ) -> String {
        let mut manifest = r.manifest.clone();
        manifest.workload = Some(spec.workload().label());
        manifest.wall_ms = 0.0;
        manifest.forked_from = None;
        manifest.warmup_shared = None;
        json::object(&[
            ("key", json::quote(key)),
            ("digest", json::quote(&format!("{:016x}", r.digest()))),
            ("spec", spec.render_json(kind)),
            ("cycles", r.core.cycles.to_string()),
            ("instructions", r.core.instructions.to_string()),
            ("ipc", format!("{:.4}", r.core.ipc())),
            ("llc_mpki", format!("{:.4}", r.llc_mpki())),
            ("l2_hit_rate", format!("{:.4}", r.l2_hit_rate())),
            ("bpki", format!("{:.4}", r.bpki())),
            (
                "bw_utilization",
                format!("{:.4}", r.bandwidth_utilization()),
            ),
            ("warmup_ops_applied", r.warmup_ops_applied.to_string()),
            (
                "epochs",
                r.journal
                    .as_ref()
                    .map(|j| j.epoch_count().to_string())
                    .unwrap_or_else(|| "0".to_string()),
            ),
            ("manifest", manifest.render_json()),
        ])
    }

    /// Leader path: runs every cell one submission leads as one engine
    /// job under one limiter permit — a lone cell with its live epoch
    /// stream, two or more over one shared warm-up — then persists each
    /// body, publishes it to its cell and retires its key. A panic fails
    /// every led cell; it never wedges the registry or the cache.
    fn run_leader(&self, spec: &RunSpec, led: &[Led]) {
        let permit = self.limiter.acquire();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let bundle = self.traces.get_or_build(spec.workload(), spec.budget);
            if let [(_, cfg, _, cell)] = led {
                let stream = Some(Arc::clone(&cell.stream));
                let mut source = SliceSource::new(&bundle.ops);
                return vec![run_workload_with_stream(
                    &mut source,
                    &bundle,
                    cfg,
                    spec.warmup(),
                    stream,
                )];
            }
            let cells: Vec<SweepCell> = led
                .iter()
                .map(|(_, cfg, _, _)| SweepCell {
                    bundle: Arc::clone(&bundle),
                    cfg: cfg.clone(),
                })
                .collect();
            run_sweep(&self.pool, &cells, spec.warmup(), true)
        }));
        drop(permit);
        let results = match run {
            Ok(results) => results,
            Err(panic) => {
                let msg = panic_message(panic);
                for (_, _, key, cell) in led {
                    eprintln!("droplet-serve: engine run {key} panicked: {msg}");
                    self.inflight.complete(key, cell, Err(msg.clone()));
                }
                return;
            }
        };
        for ((kind, _, key, cell), r) in led.iter().zip(&results) {
            Stats::bump(&self.stats.engine_runs);
            // A sweep runs without live streams: replay the journal to a
            // streaming follower so it still gets one line per epoch.
            if let (Some(journal), true) = (&r.journal, led.len() > 1) {
                journal
                    .to_jsonl()
                    .lines()
                    .for_each(|l| cell.stream.push(l.into()));
            }
            let body = self.render_body(spec, *kind, key, r);
            if let Err(e) = self.store.put(key, &body) {
                eprintln!("droplet-serve: store write failed for {key}: {e}");
            }
            let outcome = RunOutcome {
                key: key.clone(),
                digest: r.digest(),
                body,
            };
            self.inflight.complete(key, cell, Ok(Arc::new(outcome)));
        }
    }

    /// Submits `spec` with one cell per entry of `kinds`, in order: each
    /// is a store hit, a follower of a running job with its key, or a cell
    /// this submission leads. The led cells start as one engine job on
    /// their own thread, so every cell's stream can be consumed live while
    /// it runs.
    pub fn resolve(self: &Arc<Self>, spec: &RunSpec, kinds: &[PrefetcherKind]) -> Vec<Submission> {
        Stats::bump(&self.stats.submissions);
        let base = self.base_for(spec.scale);
        let mut led = Vec::new();
        let mut cells = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            let cfg = spec.config_for(base, kind);
            let key = spec.key(&cfg);
            let (cell, source) = if let Some(body) = self.store.get(&key) {
                Stats::bump(&self.stats.store_hits);
                let digest = digest_of(&body).unwrap_or(0);
                let outcome = RunOutcome { key, digest, body };
                (JobCell::ready(Arc::new(outcome)), "store")
            } else {
                match self.inflight.claim(&key) {
                    Claim::Lead(cell) => {
                        led.push((kind, cfg, key, Arc::clone(&cell)));
                        (cell, "engine")
                    }
                    Claim::Follow(cell) => {
                        Stats::bump(&self.stats.dedupe_hits);
                        (cell, "inflight")
                    }
                }
            };
            cells.push(Submission { cell, source });
        }
        if !led.is_empty() {
            let (state, spec) = (Arc::clone(self), spec.clone());
            std::thread::spawn(move || state.run_leader(&spec, &led));
        }
        cells
    }

    /// Runs (or joins, or loads) the job for `spec`: the one-cell case of
    /// [`ServerState::resolve`], under `spec.prefetcher`.
    pub fn submit(self: &Arc<Self>, spec: &RunSpec) -> Submission {
        self.resolve(spec, &[spec.prefetcher]).remove(0)
    }

    /// [`ServerState::submit`] driven to completion (non-streaming
    /// callers, tests, the load driver).
    pub fn submit_and_wait(
        self: &Arc<Self>,
        spec: &RunSpec,
    ) -> (Result<Arc<RunOutcome>, String>, &'static str) {
        let submission = self.submit(spec);
        (submission.cell.wait(), submission.source)
    }

    fn stats_body(&self) -> String {
        json::object(&[
            (
                "submissions",
                self.stats.submissions.load(Ordering::Relaxed).to_string(),
            ),
            (
                "dedupe_hits",
                self.stats.dedupe_hits.load(Ordering::Relaxed).to_string(),
            ),
            (
                "store_hits",
                self.stats.store_hits.load(Ordering::Relaxed).to_string(),
            ),
            (
                "engine_runs",
                self.stats.engine_runs.load(Ordering::Relaxed).to_string(),
            ),
            (
                "rejects",
                self.stats.rejects.load(Ordering::Relaxed).to_string(),
            ),
            ("inflight", self.inflight.len().to_string()),
            ("store_len", self.store.len().to_string()),
            ("threads", self.pool.threads().to_string()),
            (
                "trace_cache",
                json::object(&[
                    ("len", self.traces.len().to_string()),
                    ("resident_bytes", self.traces.resident_bytes().to_string()),
                ]),
            ),
        ])
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Extracts the `"digest"` field from a canonical stored body.
fn digest_of(body: &str) -> Option<u64> {
    let tail = body.split("\"digest\": \"").nth(1)?;
    u64::from_str_radix(tail.get(..16)?, 16).ok()
}

fn error_body(e: &SpecError) -> String {
    json::object(&[
        ("error", json::quote(&e.to_string())),
        ("field", json::quote(&e.field)),
    ])
}

/// Streams `cell`'s epoch lines live (from line zero — followers replay
/// the leader's whole window, late lines block until pushed), then the
/// final result (or error) line.
fn respond_streaming(
    stream: &mut TcpStream,
    source: &str,
    cell: &JobCell<RunOutcome>,
) -> io::Result<()> {
    let mut out = ChunkedResponse::start(
        stream,
        "application/x-ndjson",
        &[("X-Droplet-Source", source)],
    )?;
    let mut cursor = 0usize;
    while let Some(line) = cell.stream.next_line(cursor) {
        cursor += 1;
        out.write_line(&line)?;
    }
    let final_line = match cell.wait() {
        Ok(outcome) => outcome.body.clone(),
        Err(msg) => json::object(&[("error", json::quote(&msg))]),
    };
    out.write_line(&final_line)?;
    out.finish()
}

/// `POST /run` (one cell, `spec.prefetcher`) and `POST /sweep` (one cell
/// per entry of `spec.prefetchers`). Each endpoint refuses the field the
/// other takes. The source header is `engine` if the request led any
/// cell, else `inflight` if it followed any, else `store`.
fn handle_submit(
    state: &Arc<ServerState>,
    req: &Request,
    stream: &mut TcpStream,
    sweep: bool,
) -> io::Result<()> {
    let parsed = RunSpec::parse(&req.body, state.options.default_scale).and_then(|spec| {
        if spec.prefetchers.is_empty() != sweep {
            return Ok(spec);
        }
        let names: Vec<&str> = spec.prefetchers.iter().map(|k| k.name()).collect();
        Err(SpecError {
            field: "prefetchers".to_string(),
            value: format!("[{}]", names.join(",")),
            expected: if sweep {
                "a non-empty list of prefetcher names"
            } else {
                "no list: /run takes one prefetcher, /sweep a list"
            },
        })
    });
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => {
            Stats::bump(&state.stats.rejects);
            return http::respond(stream, 400, "application/json", &[], &error_body(&e));
        }
    };
    let kinds = if sweep {
        spec.prefetchers.clone()
    } else {
        vec![spec.prefetcher]
    };
    let cells = state.resolve(&spec, &kinds);
    let source = ["engine", "inflight"]
        .into_iter()
        .find(|&s| cells.iter().any(|c| c.source == s))
        .unwrap_or("store");
    if !sweep && matches!(req.query_value("stream"), Some("1" | "true")) {
        return respond_streaming(stream, source, &cells[0].cell);
    }
    let bodies: Result<Vec<String>, String> = cells
        .iter()
        .map(|c| c.cell.wait().map(|outcome| outcome.body.clone()))
        .collect();
    match bodies {
        Ok(mut bodies) => {
            let body = if sweep {
                format!("{{\"results\": [{}]}}", bodies.join(", "))
            } else {
                bodies.remove(0)
            };
            http::respond(
                stream,
                200,
                "application/json",
                &[("X-Droplet-Source", source)],
                &body,
            )
        }
        Err(msg) => http::respond(
            stream,
            500,
            "application/json",
            &[],
            &json::object(&[("error", json::quote(&msg))]),
        ),
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) -> io::Result<()> {
    let Some(req) = http::read_request(&stream)? else {
        return Ok(());
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::respond(&mut stream, 200, "text/plain", &[], "ok\n"),
        ("GET", "/stats") => http::respond(
            &mut stream,
            200,
            "application/json",
            &[],
            &state.stats_body(),
        ),
        ("POST", "/run") => handle_submit(state, &req, &mut stream, false),
        ("POST", "/sweep") => handle_submit(state, &req, &mut stream, true),
        ("GET", path) if path.starts_with("/result/") => {
            let key = &path["/result/".len()..];
            if !valid_key(key) {
                return http::respond(
                    &mut stream,
                    400,
                    "application/json",
                    &[],
                    "{\"error\": \"malformed key\"}",
                );
            }
            match state.store.get(key) {
                Some(body) => http::respond(
                    &mut stream,
                    200,
                    "application/json",
                    &[("X-Droplet-Source", "store")],
                    &body,
                ),
                None => http::respond(
                    &mut stream,
                    404,
                    "application/json",
                    &[],
                    "{\"error\": \"no stored result for key\"}",
                ),
            }
        }
        ("POST", _) | ("GET", _) => http::respond(
            &mut stream,
            404,
            "application/json",
            &[],
            "{\"error\": \"no such endpoint\"}",
        ),
        _ => http::respond(
            &mut stream,
            405,
            "application/json",
            &[],
            "{\"error\": \"method not allowed\"}",
        ),
    }
}

/// A running server bound to a socket.
pub struct ServerHandle {
    /// The bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared state (tests and the load driver read counters here).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// `host:port` string for client helpers.
    pub fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// being served finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// Binds and serves `options` on a background accept thread.
pub fn spawn(options: ServerOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&options.addr)?;
    let addr = listener.local_addr()?;
    let state = ServerState::new(options)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_state = Arc::clone(&state);
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(conn) = conn else { continue };
            let state = Arc::clone(&accept_state);
            std::thread::spawn(move || {
                if let Err(e) = handle_connection(&state, conn) {
                    eprintln!("droplet-serve: connection error: {e}");
                }
            });
        }
    });
    Ok(ServerHandle {
        addr,
        state,
        stop,
        accept_thread: Some(accept_thread),
    })
}
