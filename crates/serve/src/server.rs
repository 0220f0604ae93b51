//! The experiment service: spec in, deduped simulation out.
//!
//! Request lifecycle for `POST /run`:
//!
//! 1. the body is validated into a [`RunSpec`] (field-level 400 on
//!    rejection — the same message `droplet-sim` prints for the flag);
//! 2. the job key `{config_hash}-{workload_hash}` is checked against the
//!    on-disk [`ResultStore`] — a hit answers from disk without touching
//!    the engine;
//! 3. the in-flight registry is claimed: the first concurrent submission
//!    leads (spawning the engine under the concurrency limiter), every
//!    other identical submission follows the leader's cell and shares the
//!    one result;
//! 4. the leader persists the canonical body to the store *before*
//!    retiring the key, so late arrivals that miss the registry are
//!    guaranteed a store hit.
//!
//! Response bodies are canonical — byte-identical whether they came from
//! the engine, an in-flight merge, or the store (wall-clock time is
//! excluded; how the bytes were obtained rides in the `X-Droplet-Source`
//! header). `?stream=1` upgrades the response to chunked JSONL: one line
//! per measurement epoch as the engine produces them (followers replay
//! the leader's stream from its first line), then the result line.
//!
//! `POST /sweep` fans one workload across a `prefetchers` list on the
//! shared [`JobPool`] with warm-snapshot forking (`run_sweep`), so a
//! client's sweep cells reuse one warm-up simulation. Sweep cells bypass
//! the in-flight registry (the fork path owns their scheduling) but land
//! in the same store under the same per-cell keys `POST /run` would use —
//! the results are bit-identical by the fork contract.

use crate::dedupe::{Claim, Inflight, JobCell};
use crate::http::{self, ChunkedResponse, Request};
use crate::store::{valid_key, ResultStore};
use droplet::obs::json;
use droplet::specparse::RunSpec;
use droplet::trace::SliceSource;
use droplet::{
    run_sweep, run_workload_with_stream, JobPool, RunResult, SpecError, SweepCell, SystemConfig,
    TraceCache,
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
    /// Worker-pool width override (`None`: `DROPLET_THREADS`/all cores).
    pub threads: Option<usize>,
    /// Maximum concurrent engine runs (0: the pool width).
    pub max_concurrent: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            store_dir: None,
            default_scale: DatasetScale::Tiny,
            threads: None,
            max_concurrent: 0,
        }
    }
}

/// Monotonic service counters (`GET /stats`).
#[derive(Debug, Default)]
pub struct Stats {
    /// Specs accepted on `/run` and `/sweep`.
    pub submissions: AtomicU64,
    /// Submissions answered by joining an in-flight identical job.
    pub dedupe_hits: AtomicU64,
    /// Submissions (or sweep cells) answered from the result store.
    pub store_hits: AtomicU64,
    /// Simulations actually executed by the engine.
    pub engine_runs: AtomicU64,
    /// Specs rejected with a 400.
    pub rejects: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counting semaphore bounding concurrent engine runs.
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

/// How a `/run` submission resolved.
pub enum Submission {
    /// Answered from the store — no live epochs to stream.
    Ready {
        /// The stored outcome.
        outcome: Arc<RunOutcome>,
        /// Always `"store"`.
        source: &'static str,
    },
    /// Running (this submission leads) or joined in flight (it follows);
    /// consume `cell.stream` live, then [`JobCell::wait`].
    Pending {
        /// The shared job cell.
        cell: Arc<JobCell<RunOutcome>>,
        /// `"engine"` for the leader, `"inflight"` for followers.
        source: &'static str,
    },
}

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
        let max_concurrent = if options.max_concurrent == 0 {
            pool.threads()
        } else {
            options.max_concurrent
        };
        let store = ResultStore::open(options.store_dir.clone())?;
        Ok(Arc::new(ServerState {
            options,
            bases,
            traces: TraceCache::new(),
            pool,
            inflight: Inflight::new(),
            store,
            stats: Stats::default(),
            limiter: Limiter::new(max_concurrent),
        }))
    }

    /// The baseline configuration for `scale`.
    pub fn base_for(&self, scale: DatasetScale) -> &SystemConfig {
        &self.bases[&scale]
    }

    /// Renders the canonical response body for one completed cell.
    ///
    /// Deterministic by construction: every field derives from the
    /// simulation state, and the manifest's wall-clock is zeroed — so the
    /// engine, an in-flight merge, and the store all serve the same
    /// bytes.
    fn render_body(
        &self,
        spec: &RunSpec,
        kind: droplet::PrefetcherKind,
        key: &str,
        r: &RunResult,
    ) -> String {
        let mut manifest = r.manifest.clone();
        manifest.workload = Some(spec.workload().label());
        manifest.wall_ms = 0.0;
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

    /// Leader path: runs the engine (bounded by the limiter), persists
    /// the body, publishes to `cell`, retires the key. Panics become a
    /// failed cell; they never wedge the registry or the cache.
    fn run_leader(
        &self,
        spec: &RunSpec,
        cfg: &SystemConfig,
        key: &str,
        cell: &JobCell<RunOutcome>,
    ) {
        let permit = self.limiter.acquire();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let bundle = self.traces.get_or_build(spec.workload(), spec.budget);
            run_workload_with_stream(
                &mut SliceSource::new(&bundle.ops),
                &bundle,
                cfg,
                spec.warmup(),
                Some(Arc::clone(&cell.stream)),
            )
        }));
        drop(permit);
        match run {
            Ok(r) => {
                Stats::bump(&self.stats.engine_runs);
                let outcome = Arc::new(RunOutcome {
                    key: key.to_string(),
                    digest: r.digest(),
                    body: self.render_body(spec, spec.prefetcher, key, &r),
                });
                if let Err(e) = self.store.put(key, &outcome.body) {
                    eprintln!("droplet-serve: store write failed for {key}: {e}");
                }
                self.inflight.complete(key, cell, Ok(outcome));
            }
            Err(panic) => {
                let msg = panic_message(panic);
                eprintln!("droplet-serve: engine run {key} panicked: {msg}");
                self.inflight.complete(key, cell, Err(msg));
            }
        }
    }

    /// Runs (or joins, or loads) the job for `spec`.
    ///
    /// A store hit is [`Submission::Ready`] immediately; otherwise the
    /// submission is [`Submission::Pending`] on a cell whose stream can
    /// be consumed live while the job runs (the leader's engine executes
    /// on its own thread).
    pub fn submit(self: &Arc<Self>, spec: &RunSpec) -> Submission {
        Stats::bump(&self.stats.submissions);
        let cfg = spec.config(self.base_for(spec.scale));
        let key = spec.key(&cfg);
        if let Some(body) = self.store.get(&key) {
            Stats::bump(&self.stats.store_hits);
            let digest = digest_of(&body).unwrap_or(0);
            return Submission::Ready {
                outcome: Arc::new(RunOutcome { key, digest, body }),
                source: "store",
            };
        }
        match self.inflight.claim(&key) {
            Claim::Lead(cell) => {
                let state = Arc::clone(self);
                let (spec, cfg, key_owned, run_cell) =
                    (spec.clone(), cfg, key.clone(), Arc::clone(&cell));
                std::thread::spawn(move || {
                    state.run_leader(&spec, &cfg, &key_owned, &run_cell);
                });
                Submission::Pending {
                    cell,
                    source: "engine",
                }
            }
            Claim::Follow(cell) => {
                Stats::bump(&self.stats.dedupe_hits);
                Submission::Pending {
                    cell,
                    source: "inflight",
                }
            }
        }
    }

    /// [`ServerState::submit`] driven to completion (non-streaming
    /// callers, tests, the load driver).
    pub fn submit_and_wait(
        self: &Arc<Self>,
        spec: &RunSpec,
    ) -> (Result<Arc<RunOutcome>, String>, &'static str) {
        match self.submit(spec) {
            Submission::Ready { outcome, source } => (Ok(outcome), source),
            Submission::Pending { cell, source } => (cell.wait(), source),
        }
    }

    /// `POST /sweep`: one workload across `spec.prefetchers` over a
    /// shared warm-up on the pool. Returns the per-cell canonical bodies
    /// in list order plus the source tag.
    pub fn submit_sweep(&self, spec: &RunSpec) -> Result<(Vec<String>, &'static str), String> {
        Stats::bump(&self.stats.submissions);
        let base = self.base_for(spec.scale);
        let cells: Vec<(droplet::PrefetcherKind, SystemConfig, String)> = spec
            .prefetchers
            .iter()
            .map(|&kind| {
                let cfg = spec.config_for(base, kind);
                let key = spec.key(&cfg);
                (kind, cfg, key)
            })
            .collect();
        let stored: Vec<Option<String>> = cells
            .iter()
            .map(|(_, _, key)| self.store.get(key))
            .collect();
        if stored.iter().all(|b| b.is_some()) {
            self.stats
                .store_hits
                .fetch_add(cells.len() as u64, Ordering::Relaxed);
            return Ok((stored.into_iter().flatten().collect(), "store"));
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            let bundle = self.traces.get_or_build(spec.workload(), spec.budget);
            let sweep_cells: Vec<SweepCell> = cells
                .iter()
                .map(|(_, cfg, _)| SweepCell {
                    bundle: Arc::clone(&bundle),
                    cfg: cfg.clone(),
                })
                .collect();
            run_sweep(&self.pool, &sweep_cells, spec.warmup(), true)
        }));
        let results = match run {
            Ok(results) => results,
            Err(panic) => return Err(panic_message(panic)),
        };
        self.stats
            .engine_runs
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        let bodies: Vec<String> = cells
            .iter()
            .zip(&results)
            .map(|((kind, _, key), r)| {
                let body = self.render_body(spec, *kind, key, r);
                if let Err(e) = self.store.put(key, &body) {
                    eprintln!("droplet-serve: store write failed for {key}: {e}");
                }
                body
            })
            .collect();
        Ok((bodies, "engine"))
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
    cell: Option<&JobCell<RunOutcome>>,
    ready: Option<Arc<RunOutcome>>,
) -> io::Result<()> {
    let mut out = ChunkedResponse::start(
        stream,
        "application/x-ndjson",
        &[("X-Droplet-Source", source)],
    )?;
    if let Some(cell) = cell {
        let mut cursor = 0usize;
        while let Some(line) = cell.stream.next_line(cursor) {
            cursor += 1;
            out.write_line(&line)?;
        }
    }
    let final_line = match (ready, cell) {
        (Some(outcome), _) => outcome.body.clone(),
        (None, Some(cell)) => match cell.wait() {
            Ok(outcome) => outcome.body.clone(),
            Err(msg) => json::object(&[("error", json::quote(&msg))]),
        },
        (None, None) => unreachable!("a submission is ready or pending"),
    };
    out.write_line(&final_line)?;
    out.finish()
}

fn handle_run(state: &Arc<ServerState>, req: &Request, stream: &mut TcpStream) -> io::Result<()> {
    let spec = match RunSpec::parse(&req.body, state.options.default_scale) {
        Ok(spec) => spec,
        Err(e) => {
            Stats::bump(&state.stats.rejects);
            return http::respond(stream, 400, "application/json", &[], &error_body(&e));
        }
    };
    let want_stream = matches!(req.query_value("stream"), Some("1" | "true"));
    match state.submit(&spec) {
        Submission::Ready { outcome, source } if want_stream => {
            respond_streaming(stream, source, None, Some(outcome))
        }
        Submission::Ready { outcome, source } => http::respond(
            stream,
            200,
            "application/json",
            &[("X-Droplet-Source", source)],
            &outcome.body,
        ),
        Submission::Pending { cell, source } if want_stream => {
            respond_streaming(stream, source, Some(&cell), None)
        }
        Submission::Pending { cell, source } => match cell.wait() {
            Ok(outcome) => http::respond(
                stream,
                200,
                "application/json",
                &[("X-Droplet-Source", source)],
                &outcome.body,
            ),
            Err(msg) => http::respond(
                stream,
                500,
                "application/json",
                &[],
                &json::object(&[("error", json::quote(&msg))]),
            ),
        },
    }
}

fn handle_sweep(state: &Arc<ServerState>, req: &Request, stream: &mut TcpStream) -> io::Result<()> {
    let spec = match RunSpec::parse(&req.body, state.options.default_scale) {
        Ok(spec) if spec.prefetchers.is_empty() => {
            Stats::bump(&state.stats.rejects);
            let e = SpecError {
                field: "prefetchers".to_string(),
                value: String::new(),
                expected: "a non-empty list of prefetcher names",
            };
            return http::respond(stream, 400, "application/json", &[], &error_body(&e));
        }
        Ok(spec) => spec,
        Err(e) => {
            Stats::bump(&state.stats.rejects);
            return http::respond(stream, 400, "application/json", &[], &error_body(&e));
        }
    };
    match state.submit_sweep(&spec) {
        Ok((bodies, source)) => {
            let body = format!("{{\"results\": [{}]}}", bodies.join(", "));
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
        ("POST", "/run") => handle_run(state, &req, &mut stream),
        ("POST", "/sweep") => handle_sweep(state, &req, &mut stream),
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
