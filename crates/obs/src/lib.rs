//! **droplet-obs** — the observability layer of the DROPLET simulator.
//!
//! The paper's characterization is fundamentally *time-resolved*: DRAM
//! bandwidth and BPKI (Fig. 15), per-data-type MPKI (Fig. 13), and prefetch
//! accuracy (Fig. 14) all describe phase-heavy graph workloads whose
//! transients an end-of-run aggregate hides. This crate adds three pieces,
//! all **zero-overhead when disabled** (the simulator pays one predictable
//! `Option::is_some` branch per retired op):
//!
//! 1. **Epoch sampler** ([`ObsRecorder`]): every `epoch_ops` retired
//!    operations the simulator snapshots every statistics block it owns
//!    (core progress, per-level cache stats, DRAM traffic, MRB occupancy,
//!    MPP activity, prefetch accuracy counters) into an in-memory ring.
//!    Snapshots are *cumulative* over the measurement window, so the final
//!    snapshot equals the end-of-run [`RunResult`] counters exactly;
//!    per-epoch deltas are derived at render time ([`RunJournal::epochs`]).
//! 2. **Run journal** ([`RunJournal`]): the ring serialized as JSONL — one
//!    self-contained object per epoch — rendered by [`json`], the
//!    workspace's one JSON writer (no new dependencies).
//! 3. **Run manifest** ([`RunManifest`]): config hash, workload, warm-up
//!    request/clamp, thread count, seed, and wall time, emitted alongside
//!    every run so `results/*.txt` become reproducible artifacts.
//!
//! Sampling only *reads* simulator statistics — it never touches timing
//! state — so simulation digests are bit-identical with the layer off and
//! on (pinned by `crates/core/tests/demand_path_digests.rs`).
//!
//! [`RunResult`]: https://docs.rs/droplet (crate `droplet`, `system::RunResult`)

pub mod json;

use droplet_cache::{CacheStats, TypedCounter};
use droplet_mem::DramStats;
use droplet_prefetch::MppStats;
use droplet_trace::{Cycle, DataType};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A live feed of a run's epoch JSONL lines, for consumers that want the
/// journal *while the run is still simulating* (the `droplet-serve`
/// streaming endpoint) rather than as a [`RunJournal`] at the end.
///
/// The producing [`ObsRecorder`] pushes one rendered line per measurement
/// epoch (warm-up epochs are never streamed — the recorder only streams
/// after [`ObsRecorder::reset`] opens the window); consumers block in
/// [`EpochStream::next_line`] with a cursor. Pushing never touches
/// simulated state, so streamed and unstreamed runs stay bit-identical.
pub struct EpochStream {
    state: Mutex<StreamState>,
    cv: Condvar,
}

#[derive(Default)]
struct StreamState {
    lines: Vec<String>,
    finished: bool,
}

/// Poisoning recovery: an `EpochStream` holds only rendered lines, which
/// are always consistent, so a panicked producer must not wedge readers.
fn stream_lock(m: &Mutex<StreamState>) -> std::sync::MutexGuard<'_, StreamState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl EpochStream {
    /// A fresh, unfinished stream ready to share with a recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(EpochStream {
            state: Mutex::new(StreamState::default()),
            cv: Condvar::new(),
        })
    }

    /// Appends one rendered JSONL line and wakes blocked readers.
    pub fn push(&self, line: String) {
        let mut s = stream_lock(&self.state);
        s.lines.push(line);
        self.cv.notify_all();
    }

    /// Marks the run over; blocked and future readers past the final line
    /// get `None`. Idempotent.
    pub fn finish(&self) {
        let mut s = stream_lock(&self.state);
        s.finished = true;
        self.cv.notify_all();
    }

    /// The line at `cursor` (0-based), blocking until it is produced.
    /// `None` once the stream is finished and `cursor` is past the end.
    pub fn next_line(&self, cursor: usize) -> Option<String> {
        let mut s = stream_lock(&self.state);
        loop {
            if cursor < s.lines.len() {
                return Some(s.lines[cursor].clone());
            }
            if s.finished {
                return None;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Lines pushed so far.
    pub fn len(&self) -> usize {
        stream_lock(&self.state).lines.len()
    }

    /// Whether no lines have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`EpochStream::finish`] has been called.
    pub fn is_finished(&self) -> bool {
        stream_lock(&self.state).finished
    }
}

impl std::fmt::Debug for EpochStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = stream_lock(&self.state);
        f.debug_struct("EpochStream")
            .field("lines", &s.lines.len())
            .field("finished", &s.finished)
            .finish()
    }
}

/// Ring capacity of every run journal: the oldest epochs are dropped (and
/// counted) beyond this many.
pub const MAX_EPOCHS: usize = 4096;

/// Configuration of the epoch sampler; `SystemConfig::obs` carries
/// `Option<ObsConfig>` and `None` (the default) disables the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Retired memory operations per epoch.
    pub epoch_ops: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { epoch_ops: 10_000 }
    }
}

impl ObsConfig {
    /// A sampler with the given epoch length (at least one op).
    pub fn every(epoch_ops: u64) -> Self {
        ObsConfig {
            epoch_ops: epoch_ops.max(1),
        }
    }
}

/// One cumulative statistics snapshot (measurement window so far).
///
/// Every field except `cycle` and `mrb_*` is reset at the warm-up boundary
/// together with the simulator's own stats, so snapshots accumulate over
/// the measurement window only; `mrb_inserted`/`mrb_overflowed` count from
/// run start (the MRB has no warm-up reset) and are consumed as deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Retired memory operations in the window (filled by the recorder).
    pub ops: u64,
    /// Retired instructions in the window (filled by the recorder).
    pub instructions: u64,
    /// Absolute core cycle at the sample (issue clock of the boundary op;
    /// the final flush uses the retire-clock end of run).
    pub cycle: Cycle,
    /// L1D statistics.
    pub l1: CacheStats,
    /// L2 statistics, when an L2 is configured.
    pub l2: Option<CacheStats>,
    /// Shared-LLC statistics.
    pub l3: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// MRB occupancy at the sample.
    pub mrb_len: u64,
    /// MRB insertions since run start.
    pub mrb_inserted: u64,
    /// MRB overflows since run start.
    pub mrb_overflowed: u64,
    /// MPP statistics, when the configuration has an MPP.
    pub mpp: Option<MppStats>,
    /// Prefetched lines demanded while on chip (Fig. 14 numerator).
    pub prefetch_useful: TypedCounter,
    /// Prefetched lines evicted off-chip unused.
    pub prefetch_wasted: TypedCounter,
    /// Dirty write-backs issued to DRAM.
    pub writebacks: u64,
}

/// The in-simulator epoch sampler: counts retired ops and keeps the
/// snapshot ring. Owned by `System` when `SystemConfig::obs` is set.
#[derive(Debug, Clone)]
pub struct ObsRecorder {
    cfg: ObsConfig,
    window_start: Cycle,
    baseline: ObsSnapshot,
    ops_in_epoch: u64,
    total_ops: u64,
    instructions: u64,
    dropped: u64,
    ring: VecDeque<ObsSnapshot>,
    /// Live line feed, when a consumer subscribed; lines flow only inside
    /// the measurement window (`in_window`), so warm-up epochs — which
    /// [`ObsRecorder::reset`] discards — are never streamed.
    stream: Option<Arc<EpochStream>>,
    in_window: bool,
}

impl ObsRecorder {
    /// A fresh recorder; the window opens at cycle 0 until `reset`.
    pub fn new(cfg: ObsConfig) -> Self {
        ObsRecorder {
            cfg: ObsConfig::every(cfg.epoch_ops),
            window_start: 0,
            baseline: ObsSnapshot::default(),
            ops_in_epoch: 0,
            total_ops: 0,
            instructions: 0,
            dropped: 0,
            ring: VecDeque::new(),
            stream: None,
            in_window: false,
        }
    }

    /// The sampler configuration.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// Subscribes `stream` to this recorder: every measurement-window epoch
    /// is rendered to JSONL and pushed as it is recorded. Reading simulator
    /// statistics is all the recorder ever does, so a subscribed run stays
    /// bit-identical to an unsubscribed one.
    pub fn set_stream(&mut self, stream: Arc<EpochStream>) {
        self.stream = Some(stream);
    }

    /// Counts one retired op worth `instructions` instructions; returns
    /// `true` when the epoch boundary is reached and the caller must
    /// `record` a snapshot.
    #[inline]
    pub fn on_op(&mut self, instructions: u64) -> bool {
        self.total_ops += 1;
        self.instructions += instructions;
        self.ops_in_epoch += 1;
        self.ops_in_epoch >= self.cfg.epoch_ops
    }

    /// Ops retired since the last recorded epoch (a non-zero value at end
    /// of run means a final partial epoch must be flushed).
    pub fn pending_ops(&self) -> u64 {
        self.ops_in_epoch
    }

    /// Stores `snap` as the next epoch, filling in the recorder-side op and
    /// instruction counts and evicting the oldest epoch when the ring is
    /// full.
    pub fn record(&mut self, mut snap: ObsSnapshot) {
        snap.ops = self.total_ops;
        snap.instructions = self.instructions;
        if let (Some(stream), true) = (&self.stream, self.in_window) {
            let prev = self.ring.back().unwrap_or(&self.baseline);
            let index = (self.dropped as usize) + self.ring.len();
            let m = EpochMetrics::derive(index, prev, &snap);
            stream.push(m.to_json(&snap, self.window_start));
        }
        if self.ring.len() == MAX_EPOCHS {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(snap);
        self.ops_in_epoch = 0;
    }

    /// Opens the measurement window: drops warm-up epochs and anchors all
    /// future deltas at `baseline` (the just-reset statistics).
    pub fn reset(&mut self, baseline: ObsSnapshot) {
        self.window_start = baseline.cycle;
        self.baseline = ObsSnapshot {
            ops: 0,
            instructions: 0,
            ..baseline
        };
        self.ops_in_epoch = 0;
        self.total_ops = 0;
        self.instructions = 0;
        self.dropped = 0;
        self.ring.clear();
        self.in_window = true;
    }

    /// Closes the run at `snap` (taken at the end-of-run retire cycle):
    /// records a final partial epoch when ops are pending, otherwise
    /// extends the last epoch's cycle to the true end of the run so the
    /// journal's final window spans exactly the measurement window.
    pub fn flush_final(&mut self, snap: ObsSnapshot) {
        if self.ops_in_epoch > 0 {
            self.record(snap);
        } else if let Some(last) = self.ring.back_mut() {
            last.cycle = last.cycle.max(snap.cycle);
            last.dram = snap.dram;
        }
    }

    /// Consumes the recorder into a serializable journal, finishing any
    /// subscribed [`EpochStream`] so blocked readers drain and return.
    pub fn into_journal(self) -> RunJournal {
        if let Some(stream) = &self.stream {
            stream.finish();
        }
        RunJournal {
            epoch_ops: self.cfg.epoch_ops,
            window_start: self.window_start,
            dropped_epochs: self.dropped,
            baseline: self.baseline,
            samples: self.ring.into_iter().collect(),
        }
    }
}

/// Derived per-epoch metrics (deltas between consecutive snapshots).
#[derive(Debug, Clone, Copy)]
pub struct EpochMetrics {
    /// Epoch index (0-based over the *kept* ring).
    pub index: usize,
    /// Cumulative window ops at epoch end.
    pub ops: u64,
    /// Absolute cycle at epoch end.
    pub cycle: Cycle,
    /// Epoch IPC (delta instructions / delta cycles).
    pub ipc: f64,
    /// Epoch MPKI at each private/shared level: [L1, L2, LLC].
    pub mpki: [f64; 3],
    /// Epoch LLC demand MPKI by data type [structure, property, intermediate].
    pub llc_mpki_by_type: [f64; 3],
    /// Epoch L2 demand hit rate.
    pub l2_hit_rate: f64,
    /// Epoch DRAM bandwidth utilization (delta bus-busy / delta cycles).
    pub bw_util: f64,
    /// Epoch bus accesses per kilo instruction.
    pub bpki: f64,
    /// Epoch mean DRAM queue delay per access.
    pub avg_queue_delay: f64,
    /// MRB occupancy at the sample.
    pub mrb_len: u64,
    /// MRB overflows during the epoch.
    pub mrb_overflows: u64,
    /// Epoch prefetch accuracy by data type (useful / (useful + wasted)).
    pub pf_accuracy_by_type: [f64; 3],
    /// Epoch prefetch coverage: first-uses / (first-uses + LLC demand misses).
    pub pf_coverage: f64,
    /// Epoch prefetch timeliness: 1 − late-hits / first-uses.
    pub pf_timeliness: f64,
    /// Epoch DRAM demand bursts.
    pub dram_demand: u64,
    /// Epoch DRAM prefetch bursts.
    pub dram_prefetch: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_kilo(num: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        num as f64 * 1000.0 / instructions as f64
    }
}

fn tc_delta(cur: &TypedCounter, prev: &TypedCounter, dt: DataType) -> u64 {
    cur.get(dt) - prev.get(dt)
}

fn first_uses_and_late(s: &ObsSnapshot) -> (u64, u64) {
    let levels = [Some(&s.l1), s.l2.as_ref(), Some(&s.l3)];
    let mut first = 0;
    let mut late = 0;
    for l in levels.into_iter().flatten() {
        first += l.prefetch_first_uses.total();
        late += l.late_prefetch_hits.total();
    }
    (first, late)
}

impl EpochMetrics {
    fn derive(index: usize, prev: &ObsSnapshot, cur: &ObsSnapshot) -> Self {
        let insns = cur.instructions - prev.instructions;
        let cycles = cur.cycle.saturating_sub(prev.cycle);
        let miss = |c: &CacheStats, p: &CacheStats| {
            (c.demand_accesses.total() - c.demand_hits.total())
                - (p.demand_accesses.total() - p.demand_hits.total())
        };
        let l2_miss = match (&cur.l2, &prev.l2) {
            (Some(c), Some(p)) => miss(c, p),
            _ => 0,
        };
        let llc_miss_cur = cur.l3.demand_misses();
        let llc_miss_prev = prev.l3.demand_misses();
        let mut llc_by_type = [0.0; 3];
        let mut acc_by_type = [0.0; 3];
        for dt in DataType::ALL {
            llc_by_type[dt.index()] = per_kilo(tc_delta(&llc_miss_cur, &llc_miss_prev, dt), insns);
            let useful = tc_delta(&cur.prefetch_useful, &prev.prefetch_useful, dt);
            let wasted = tc_delta(&cur.prefetch_wasted, &prev.prefetch_wasted, dt);
            acc_by_type[dt.index()] = ratio(useful, useful + wasted);
        }
        let (first_c, late_c) = first_uses_and_late(cur);
        let (first_p, late_p) = first_uses_and_late(prev);
        let (first, late) = (first_c - first_p, late_c - late_p);
        let llc_misses = llc_miss_cur.total() - llc_miss_prev.total();
        let dram_demand = cur.dram.demand_accesses - prev.dram.demand_accesses;
        let dram_prefetch = cur.dram.prefetch_accesses - prev.dram.prefetch_accesses;
        let bursts = dram_demand + dram_prefetch;
        let l2_acc = |s: &Option<CacheStats>, f: fn(&CacheStats) -> u64| s.as_ref().map_or(0, f);
        EpochMetrics {
            index,
            ops: cur.ops,
            cycle: cur.cycle,
            ipc: ratio(insns, cycles),
            mpki: [
                per_kilo(miss(&cur.l1, &prev.l1), insns),
                per_kilo(l2_miss, insns),
                per_kilo(llc_misses, insns),
            ],
            llc_mpki_by_type: llc_by_type,
            l2_hit_rate: ratio(
                l2_acc(&cur.l2, |s| s.demand_hits.total())
                    - l2_acc(&prev.l2, |s| s.demand_hits.total()),
                l2_acc(&cur.l2, |s| s.demand_accesses.total())
                    - l2_acc(&prev.l2, |s| s.demand_accesses.total()),
            ),
            bw_util: ratio(cur.dram.bus_busy_cycles - prev.dram.bus_busy_cycles, cycles).min(1.0),
            bpki: per_kilo(bursts, insns),
            avg_queue_delay: ratio(
                cur.dram.queue_delay_cycles - prev.dram.queue_delay_cycles,
                bursts,
            ),
            mrb_len: cur.mrb_len,
            // Saturating: the MRB counters are lifetime (never reset), so
            // the baseline can exceed a synthetic snapshot's value.
            mrb_overflows: cur.mrb_overflowed.saturating_sub(prev.mrb_overflowed),
            pf_accuracy_by_type: acc_by_type,
            pf_coverage: ratio(first, first + llc_misses),
            pf_timeliness: if first == 0 {
                0.0
            } else {
                1.0 - ratio(late, first)
            },
            dram_demand,
            dram_prefetch,
        }
    }

    /// One JSONL line for this epoch, with cumulative exact counters
    /// (`cum_*`) alongside the derived per-epoch metrics.
    pub fn to_json(&self, cum: &ObsSnapshot, window_start: Cycle) -> String {
        use json::{num, object};
        object(&[
            ("epoch", self.index.to_string()),
            ("ops", self.ops.to_string()),
            ("cycle", self.cycle.to_string()),
            ("ipc", num(self.ipc)),
            ("l1_mpki", num(self.mpki[0])),
            ("l2_mpki", num(self.mpki[1])),
            ("llc_mpki", num(self.mpki[2])),
            (
                "llc_mpki_structure",
                num(self.llc_mpki_by_type[DataType::Structure.index()]),
            ),
            (
                "llc_mpki_property",
                num(self.llc_mpki_by_type[DataType::Property.index()]),
            ),
            (
                "llc_mpki_intermediate",
                num(self.llc_mpki_by_type[DataType::Intermediate.index()]),
            ),
            ("l2_hit_rate", num(self.l2_hit_rate)),
            ("bw_util", num(self.bw_util)),
            (
                "bw_util_cum",
                num(cum.dram.window_utilization(window_start, cum.cycle)),
            ),
            ("bpki", num(self.bpki)),
            ("avg_queue_delay", num(self.avg_queue_delay)),
            ("mrb_len", self.mrb_len.to_string()),
            ("mrb_overflows", self.mrb_overflows.to_string()),
            (
                "pf_accuracy_structure",
                num(self.pf_accuracy_by_type[DataType::Structure.index()]),
            ),
            (
                "pf_accuracy_property",
                num(self.pf_accuracy_by_type[DataType::Property.index()]),
            ),
            ("pf_coverage", num(self.pf_coverage)),
            ("pf_timeliness", num(self.pf_timeliness)),
            ("dram_demand", self.dram_demand.to_string()),
            ("dram_prefetch", self.dram_prefetch.to_string()),
            ("cum_instructions", cum.instructions.to_string()),
            (
                "cum_cycles",
                cum.cycle.saturating_sub(window_start).to_string(),
            ),
            ("cum_dram_bus_busy", cum.dram.bus_busy_cycles.to_string()),
            ("cum_writebacks", cum.writebacks.to_string()),
        ])
    }
}

/// The serializable result of one sampled run: cumulative snapshots plus
/// the window anchor needed to derive per-epoch deltas.
#[derive(Debug, Clone)]
pub struct RunJournal {
    /// Retired ops per epoch.
    pub epoch_ops: u64,
    /// Absolute cycle at which the measurement window opened.
    pub window_start: Cycle,
    /// Epochs evicted from the ring (0 unless the run exceeded
    /// [`MAX_EPOCHS`] × `epoch_ops` retired ops).
    pub dropped_epochs: u64,
    /// The statistics baseline at the window open (all-zero except the MRB
    /// lifetime counters).
    pub baseline: ObsSnapshot,
    /// Cumulative snapshots, one per epoch, oldest first.
    pub samples: Vec<ObsSnapshot>,
}

impl RunJournal {
    /// Number of recorded epochs (the final one may be partial).
    pub fn epoch_count(&self) -> usize {
        self.samples.len()
    }

    /// The final cumulative snapshot — equal to the end-of-run statistics.
    pub fn final_snapshot(&self) -> Option<&ObsSnapshot> {
        self.samples.last()
    }

    /// Derived per-epoch metrics, oldest first.
    pub fn epochs(&self) -> Vec<EpochMetrics> {
        let mut prev = &self.baseline;
        let mut out = Vec::with_capacity(self.samples.len());
        for (i, s) in self.samples.iter().enumerate() {
            out.push(EpochMetrics::derive(i, prev, s));
            prev = s;
        }
        out
    }

    /// End-of-run bandwidth utilization over the corrected window — the
    /// same value `RunResult::bandwidth_utilization` reports.
    pub fn final_bandwidth_utilization(&self) -> f64 {
        self.final_snapshot().map_or(0.0, |s| {
            s.dram.window_utilization(self.window_start, s.cycle)
        })
    }

    /// Serializes the journal as JSONL: one epoch object per line (see
    /// DESIGN.md §13 for the schema). The manifest is *not* included;
    /// callers writing a journal file prepend it as a `{"manifest": …}`
    /// line so the artifact is self-describing.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut prev = &self.baseline;
        for (i, s) in self.samples.iter().enumerate() {
            let m = EpochMetrics::derive(i, prev, s);
            out.push_str(&m.to_json(s, self.window_start));
            out.push('\n');
            prev = s;
        }
        out
    }
}

/// Reproducibility manifest emitted alongside every run.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// FNV-1a hash over the system configuration (observability excluded,
    /// so the hash identifies the *simulated* machine).
    pub config_hash: u64,
    /// Prefetcher configuration name.
    pub prefetcher: String,
    /// Per-level replacement policies, L1/L2/L3 (e.g. "LRU/LRU/SHiP";
    /// a removed L2 renders as "-").
    pub policies: String,
    /// Workload label ("PR-kron"), when the caller knows it.
    pub workload: Option<String>,
    /// Trace length in ops.
    pub trace_ops: u64,
    /// Warm-up ops the caller requested.
    pub warmup_requested: u64,
    /// Warm-up ops actually applied after the half-trace clamp.
    pub warmup_applied: u64,
    /// Whether the clamp changed the request — a half-warm run.
    pub warmup_clamped: bool,
    /// Absolute cycle at which the measurement window opened.
    pub warmup_boundary_cycle: Cycle,
    /// Worker-pool width, when the caller ran under a pool.
    pub threads: Option<usize>,
    /// `DROPLET_TEST_SEED`, when set.
    pub seed: Option<u64>,
    /// Sampler epoch length, when observability was enabled.
    pub epoch_ops: Option<u64>,
    /// Recorded epoch count, when observability was enabled.
    pub epochs: Option<u64>,
    /// Wall-clock milliseconds of the run (not deterministic; excluded
    /// from digests and determinism comparisons).
    pub wall_ms: f64,
    /// For forked runs: the parent snapshot's config hash. `None` for a
    /// from-scratch run — the field keeps fork and full journals
    /// distinguishable in `droplet-bench-diff`.
    pub forked_from: Option<u64>,
    /// For forked runs: the warm-up op count inherited from the shared
    /// snapshot.
    pub warmup_shared: Option<u64>,
    /// Bundles tracked by the driver's trace cache, when the driver runs
    /// one.
    pub trace_cache_len: Option<u64>,
    /// Trace-op bytes of the bundles in the driver's trace cache.
    pub trace_cache_bytes: Option<u64>,
}

fn opt_json<T: ToString>(v: &Option<T>, quote_it: bool) -> String {
    match v {
        Some(x) if quote_it => json::quote(&x.to_string()),
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

impl RunManifest {
    /// Renders the manifest as one JSON object.
    pub fn render_json(&self) -> String {
        json::object(&[
            (
                "config_hash",
                json::quote(&format!("{:016x}", self.config_hash)),
            ),
            ("prefetcher", json::quote(&self.prefetcher)),
            ("policies", json::quote(&self.policies)),
            ("workload", opt_json(&self.workload, true)),
            ("trace_ops", self.trace_ops.to_string()),
            ("warmup_requested", self.warmup_requested.to_string()),
            ("warmup_applied", self.warmup_applied.to_string()),
            ("warmup_clamped", self.warmup_clamped.to_string()),
            (
                "warmup_boundary_cycle",
                self.warmup_boundary_cycle.to_string(),
            ),
            ("threads", opt_json(&self.threads, false)),
            ("seed", opt_json(&self.seed, false)),
            ("epoch_ops", opt_json(&self.epoch_ops, false)),
            ("epochs", opt_json(&self.epochs, false)),
            ("wall_ms", json::num(self.wall_ms)),
            (
                "forked_from",
                opt_json(&self.forked_from.map(|h| format!("{h:016x}")), true),
            ),
            ("warmup_shared", opt_json(&self.warmup_shared, false)),
            ("trace_cache_len", opt_json(&self.trace_cache_len, false)),
            (
                "trace_cache_bytes",
                opt_json(&self.trace_cache_bytes, false),
            ),
        ])
    }
}

/// 64-bit FNV-1a (the workspace's standard digest primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: Cycle, bus_busy: u64, demand: u64) -> ObsSnapshot {
        let mut s = ObsSnapshot {
            cycle,
            ..ObsSnapshot::default()
        };
        s.dram.bus_busy_cycles = bus_busy;
        s.dram.demand_accesses = demand;
        s.dram.first_request_at = Some(cycle.saturating_sub(100));
        s.dram.last_complete_at = cycle;
        s
    }

    #[test]
    fn recorder_counts_epochs_and_flags_boundaries() {
        let mut r = ObsRecorder::new(ObsConfig::every(3));
        assert!(!r.on_op(1));
        assert!(!r.on_op(1));
        assert!(r.on_op(2));
        r.record(snap(100, 8, 1));
        assert_eq!(r.pending_ops(), 0);
        assert!(!r.on_op(1));
        assert_eq!(r.pending_ops(), 1);
        let j = r.into_journal();
        assert_eq!(j.epoch_count(), 1);
        assert_eq!(j.samples[0].ops, 3);
        assert_eq!(j.samples[0].instructions, 4);
    }

    #[test]
    fn reset_drops_warmup_epochs_and_anchors_baseline() {
        let mut r = ObsRecorder::new(ObsConfig::every(1));
        r.on_op(1);
        r.record(snap(50, 8, 1));
        let mut base = snap(200, 0, 0);
        base.mrb_overflowed = 7;
        r.reset(base);
        assert_eq!(r.pending_ops(), 0);
        r.on_op(2);
        let mut cur = snap(300, 16, 2);
        cur.mrb_overflowed = 9;
        r.record(cur);
        let j = r.into_journal();
        assert_eq!(j.window_start, 200);
        assert_eq!(j.epoch_count(), 1);
        assert_eq!(j.baseline.mrb_overflowed, 7);
        let e = &j.epochs()[0];
        assert_eq!(e.ops, 1);
        assert_eq!(e.mrb_overflows, 2);
        assert!((e.bw_util - 16.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = ObsRecorder::new(ObsConfig::every(1));
        for i in 0..MAX_EPOCHS as u64 + 3 {
            r.on_op(1);
            r.record(snap(100 * (i + 1), 0, 0));
        }
        let j = r.into_journal();
        assert_eq!(j.epoch_count(), MAX_EPOCHS);
        assert_eq!(j.dropped_epochs, 3);
        assert_eq!(j.samples[0].ops, 4);
    }

    #[test]
    fn jsonl_emits_one_line_per_epoch() {
        let mut r = ObsRecorder::new(ObsConfig::every(2));
        r.reset(ObsSnapshot::default());
        for i in 0..4u64 {
            if r.on_op(1) {
                r.record(snap(100 * (i + 1), 8 * (i + 1), i + 1));
            }
        }
        let j = r.into_journal();
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"bw_util\""));
        assert!(text.contains("\"llc_mpki_structure\""));
    }

    #[test]
    fn manifest_renders_nulls_and_hash() {
        let m = RunManifest {
            config_hash: 0xabcd,
            prefetcher: "DROPLET".into(),
            trace_ops: 10,
            ..RunManifest::default()
        };
        let s = m.render_json();
        assert!(s.contains("\"config_hash\": \"000000000000abcd\""));
        assert!(s.contains("\"workload\": null"));
        assert!(s.contains("\"prefetcher\": \"DROPLET\""));
        assert!(s.contains("\"forked_from\": null"));
        assert!(s.contains("\"warmup_shared\": null"));
    }

    #[test]
    fn manifest_renders_fork_lineage() {
        let m = RunManifest {
            forked_from: Some(0xabcd),
            warmup_shared: Some(4096),
            ..RunManifest::default()
        };
        let s = m.render_json();
        assert!(s.contains("\"forked_from\": \"000000000000abcd\""));
        assert!(s.contains("\"warmup_shared\": 4096"));
    }

    #[test]
    fn stream_receives_window_epochs_only_and_finishes() {
        let stream = EpochStream::new();
        let mut r = ObsRecorder::new(ObsConfig::every(1));
        r.set_stream(Arc::clone(&stream));
        // Warm-up epoch: recorded, but never streamed.
        r.on_op(1);
        r.record(snap(50, 8, 1));
        assert!(stream.is_empty());
        r.reset(snap(100, 0, 0));
        for i in 0..3u64 {
            r.on_op(1);
            r.record(snap(100 * (i + 2), 8 * (i + 1), i + 1));
        }
        assert_eq!(stream.len(), 3);
        let line = stream.next_line(0).unwrap();
        assert!(line.starts_with('{') && line.contains("\"epoch\": 0"));
        assert!(!stream.is_finished());
        let j = r.into_journal();
        assert!(stream.is_finished());
        assert_eq!(stream.len(), j.epoch_count());
        // Streamed lines match the journal's own rendering exactly.
        assert_eq!(
            (0..stream.len())
                .map(|i| stream.next_line(i).unwrap() + "\n")
                .collect::<String>(),
            j.to_jsonl()
        );
        assert_eq!(stream.next_line(3), None);
    }

    #[test]
    fn stream_readers_block_until_push_or_finish() {
        let stream = EpochStream::new();
        let reader = {
            let stream = Arc::clone(&stream);
            std::thread::spawn(move || (stream.next_line(0), stream.next_line(1)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        stream.push("{\"epoch\": 0}".to_string());
        stream.finish();
        let (first, second) = reader.join().unwrap();
        assert_eq!(first.as_deref(), Some("{\"epoch\": 0}"));
        assert_eq!(second, None);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
