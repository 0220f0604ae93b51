//! Per-layer host-time attribution, timed from outside the simulator
//! through each crate's public functions:
//!
//! - [`drive`] replays a trace through `CoreEngine` with a [`Shim`] around
//!   `System` that times every `MemorySystem` call, splitting the replay
//!   wall into core-model self time and memory-system time;
//! - [`Standalone::add`] times `Tlb`, `SetAssocCache` (L1 → L2 → L3, each
//!   level fed the misses of the one above) and `Dram` on a bundle's own
//!   address stream, and extracts the L1-miss / L2-hit events the
//!   prefetcher engines train on;
//! - [`PrefetchCost`] replays those events through the `Prefetcher`
//!   engines, and the bundle's structure misses through `Mpp`.

use droplet::cache::{FillInfo, SetAssocCache};
use droplet::cpu::{AccessResponse, CoreEngine, CoreResult, MemorySystem};
use droplet::gap::TraceBundle;
use droplet::mem::Dram;
use droplet::prefetch::{
    AccessEvent, EventKind, GhbPrefetcher, Mpp, MppCandidate, Prefetcher, PropertyTarget,
    StreamPrefetcher, VldpPrefetcher,
};
use droplet::trace::{
    AccessKind, Cycle, DataType, MemOp, OpId, PageTable, Tlb, TraceSource, PAGE_BYTES,
};
use droplet::{System, SystemConfig};
use std::hint::black_box;
use std::time::Instant;

/// A cheap monotonic tick counter (the TSC on x86-64), so timing every
/// memory-system call costs a few nanoseconds rather than two clock reads.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; it only reads the time-stamp
        // counter, which every x86-64 processor provides.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Converts [`ticks`] to nanoseconds, calibrated against `Instant`.
#[derive(Clone, Copy)]
pub struct Clock {
    ns_per_tick: f64,
}

impl Clock {
    pub fn calibrate() -> Clock {
        let t = Instant::now();
        let c0 = ticks();
        while t.elapsed().as_millis() < 40 {
            std::hint::spin_loop();
        }
        let c1 = ticks();
        let ns = t.elapsed().as_nanos() as f64;
        Clock {
            ns_per_tick: ns / (c1.saturating_sub(c0)).max(1) as f64,
        }
    }

    pub fn secs(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick * 1e-9
    }
}

/// Forwards every `MemorySystem` call to a `System` — `access` and
/// `access_hot` alike, so the engine runs the same lane it runs
/// unwrapped — and accumulates the ticks spent inside.
pub struct Shim<'s, 'a> {
    pub sys: &'s mut System<'a>,
    pub ticks: u64,
    pub calls: u64,
}

impl MemorySystem for Shim<'_, '_> {
    #[inline]
    fn access(&mut self, op: &MemOp, id: OpId, now: Cycle) -> AccessResponse {
        let t = ticks();
        let r = self.sys.access(op, id, now);
        self.ticks += ticks() - t;
        self.calls += 1;
        r
    }

    #[inline]
    fn access_hot(&mut self, op: &MemOp, id: OpId, now: Cycle) -> Option<AccessResponse> {
        let t = ticks();
        let r = self.sys.access_hot(op, id, now);
        self.ticks += ticks() - t;
        self.calls += 1;
        r
    }

    fn warmup_done(&mut self, now: Cycle) {
        let t = ticks();
        self.sys.warmup_done(now);
        self.ticks += ticks() - t;
        self.calls += 1;
    }
}

/// The host-time split of one traced replay.
#[derive(Default, Clone, Copy)]
pub struct Split {
    /// Ticks inside `CoreEngine` calls (including the shim).
    pub engine_ticks: u64,
    /// Ticks inside the shim (the memory system).
    pub access_ticks: u64,
    /// Ticks fetching op blocks from the source (columnar decode).
    pub source_ticks: u64,
    pub calls: u64,
    pub ops: u64,
}

impl Split {
    pub fn absorb(&mut self, o: Split) {
        self.engine_ticks += o.engine_ticks;
        self.access_ticks += o.access_ticks;
        self.source_ticks += o.source_ticks;
        self.calls += o.calls;
        self.ops += o.ops;
    }
}

/// Drives `engine` + `system` over `[start, total)` of `source`: warm-up up
/// to `boundary`, then the measurement window — the same calls the
/// library's feed loops make — timing the engine and the memory system.
pub fn drive(
    engine: &mut CoreEngine,
    system: &mut System<'_>,
    source: &mut dyn TraceSource,
    start: u64,
    boundary: u64,
    total: u64,
) -> (CoreResult, Split) {
    let mut shim = Shim {
        sys: system,
        ticks: 0,
        calls: 0,
    };
    let (mut engine_ticks, mut source_ticks) = (0, 0);
    let mut pos = start;
    while pos < boundary {
        let want = usize::try_from(boundary - pos).unwrap_or(usize::MAX);
        let t = ticks();
        let run = source.next_block(pos, want);
        let t1 = ticks();
        source_ticks += t1 - t;
        if run.is_empty() {
            break;
        }
        let n = run.len() as u64;
        engine.warmup(run, &mut shim);
        engine_ticks += ticks() - t1;
        pos += n;
    }
    let t = ticks();
    let mut m = engine.open_window(&mut shim);
    engine_ticks += ticks() - t;
    while pos < total {
        let t = ticks();
        let run = source.next_block(pos, usize::MAX);
        let t1 = ticks();
        source_ticks += t1 - t;
        if run.is_empty() {
            break;
        }
        let n = run.len() as u64;
        engine.measure_chunk(run, &mut shim, &mut m);
        engine_ticks += ticks() - t1;
        pos += n;
    }
    let t = ticks();
    let core = engine.finish(m);
    engine_ticks += ticks() - t;
    let split = Split {
        engine_ticks,
        access_ticks: shim.ticks,
        source_ticks,
        calls: shim.calls,
        ops: pos - start,
    };
    (core, split)
}

/// `RunResult::digest` recomputed from a hand-driven run's parts, so a
/// traced replay can be checked against the library's own runners.
pub fn sim_digest(core: &CoreResult, sys: &System<'_>, warmup_applied: u64) -> u64 {
    let repr = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
        core,
        *sys.l1().stats(),
        sys.l2().map(|c| *c.stats()),
        *sys.l3().stats(),
        *sys.dram().stats(),
        sys.mpp().map(|m| *m.stats()),
        *sys.stats(),
        sys.warmup_boundary(),
        warmup_applied,
    );
    droplet::obs::fnv1a(repr.as_bytes())
}

/// Accumulated standalone timings: `(nanoseconds, calls)` per layer.
#[derive(Default)]
pub struct Standalone {
    pub tlb: (f64, u64),
    pub l1: (f64, u64),
    pub l2: (f64, u64),
    pub l3: (f64, u64),
    pub dram: (f64, u64),
    /// L1-miss and L2-hit events in program order (prefetcher input).
    pub events: Vec<AccessEvent>,
}

/// Every per-layer metric, with its unit, in report order. A traced run of
/// any workload reports all of them; a layer the workload never enters
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("gap.trace_s", "s"),
    ("gap.trace_ns_per_op", "ns"),
    ("trace.encode_ns_per_op", "ns"),
    ("trace.bytes_per_op", "B"),
    ("trace.decode_ns_per_op", "ns"),
    ("trace.tlb_ns_per_access", "ns"),
    ("cpu.self_ns_per_op", "ns"),
    ("cpu.ops", "count"),
    ("cpu.reconcile_frac", "ratio"),
    ("system.access_ns_per_call", "ns"),
    ("system.access_calls", "count"),
    ("system.new_us", "us"),
    ("cache.l1.ns_per_access", "ns"),
    ("cache.l2.ns_per_access", "ns"),
    ("cache.l3.ns_per_access", "ns"),
    ("cache.l1.hit_rate", "ratio"),
    ("cache.l2.hit_rate", "ratio"),
    ("cache.l3.mpki", "1/kinstr"),
    ("prefetch.ghb.ns_per_event", "ns"),
    ("prefetch.vldp.ns_per_event", "ns"),
    ("prefetch.stream.ns_per_event", "ns"),
    ("prefetch.mpp.ns_per_fill", "ns"),
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "ratio"),
    ("mem.dram.ns_per_request", "ns"),
    ("mem.dram.requests", "count"),
    ("mem.dram.avg_queue_delay", "cycles"),
    ("mem.mrb.overflows", "count"),
    ("fork.warm_snapshot_s", "s"),
    ("fork.resume_us", "us"),
    ("fork.measure_s", "s"),
    ("pool.busy_frac", "ratio"),
    ("trace_cache.build_s", "s"),
    ("trace_cache.hit_us", "us"),
    ("trace_cache.resident_mb", "MiB"),
    ("serve.parse_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.submit_hot_us", "us"),
    ("serve.http_ms", "ms"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.inflight_p50_ms", "ms"),
    ("serve.engine_runs", "count"),
    ("serve.dedupe_hits", "count"),
    ("serve.store_hits", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] names.
#[derive(Default)]
pub struct Layers(std::collections::HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Adds every [`PER_LAYER`] metric to `report`, 0 where unset.
    pub fn emit(&self, report: &mut crate::Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// Records the standalone layer timings.
    pub fn set_standalone(&mut self, s: &Standalone) {
        self.set("trace.tlb_ns_per_access", per_call(s.tlb));
        self.set("cache.l1.ns_per_access", per_call(s.l1));
        self.set("cache.l2.ns_per_access", per_call(s.l2));
        self.set("cache.l3.ns_per_access", per_call(s.l3));
        self.set("mem.dram.ns_per_request", per_call(s.dram));
    }

    /// Records a traced replay's split — core-model self time and
    /// memory-system time — and checks it against the replay's wall time:
    /// with `decode_s`, the trace source's decode timed apart from the
    /// replay (0 for an in-RAM source), it must come within 10 % of it.
    pub fn set_split(
        &mut self,
        split: &Split,
        clock: &Clock,
        decode_s: f64,
        replay_wall_s: f64,
        report: &mut crate::Report,
    ) {
        let engine_s = clock.secs(split.engine_ticks);
        let access_s = clock.secs(split.access_ticks);
        let self_s = engine_s - access_s;
        self.set("cpu.self_ns_per_op", self_s * 1e9 / split.ops.max(1) as f64);
        self.set("cpu.ops", split.ops as f64);
        let frac = (self_s + access_s + decode_s) / replay_wall_s;
        self.set("cpu.reconcile_frac", frac);
        report.check((frac - 1.0).abs() <= 0.10, || {
            format!(
                "cpu self {self_s:.3} s + system access {access_s:.3} s + decode {decode_s:.3} s \
                 is {frac:.3} of the traced replay wall {replay_wall_s:.3} s, not within 10 %"
            )
        });
        self.set(
            "system.access_ns_per_call",
            access_s * 1e9 / split.calls.max(1) as f64,
        );
        self.set("system.access_calls", split.calls as f64);
    }
}

pub fn per_call(v: (f64, u64)) -> f64 {
    if v.1 == 0 {
        0.0
    } else {
        v.0 / v.1 as f64
    }
}

fn page_table(bundle: &TraceBundle) -> PageTable {
    let mut pt = PageTable::new();
    for region in bundle.space.regions() {
        let mut addr = region.base();
        while addr < region.end() {
            pt.populate(addr, &bundle.space);
            addr = addr.add_bytes(PAGE_BYTES);
        }
    }
    pt
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

impl Standalone {
    /// Times each layer standalone on `bundle`'s stream under `cfg`'s
    /// geometry. With `events`, also keeps the prefetcher training events.
    pub fn add(&mut self, bundle: &TraceBundle, cfg: &SystemConfig, events: bool) {
        let ops = &bundle.ops;
        let pt = page_table(bundle);
        let mut tlb = Tlb::new(cfg.dtlb_entries);
        let ((), ns) = timed(|| {
            for op in ops {
                let va = op.addr();
                black_box(tlb.access_or_walk(va.page_number(), || pt.lookup(va)));
            }
        });
        self.tlb.0 += ns;
        self.tlb.1 += ops.len() as u64;

        // L1: every demand access; misses fill and descend.
        let mut l1 = SetAssocCache::new(cfg.l1.clone());
        let (l1_misses, ns) = timed(|| {
            let mut misses: Vec<u32> = Vec::with_capacity(ops.len() / 4);
            for (i, op) in ops.iter().enumerate() {
                let line = op.addr().line_index();
                let (now, dtype) = (i as Cycle, op.dtype());
                let store = op.kind() == AccessKind::Store;
                if l1.touch(line, now, dtype, store).is_none() {
                    l1.fill(line, FillInfo::demand(dtype, now));
                    misses.push(i as u32);
                }
            }
            misses
        });
        self.l1.0 += ns;
        self.l1.1 += ops.len() as u64;

        // L2 (when configured): the L1 misses.
        let mut l2_hit = vec![false; l1_misses.len()];
        let l2_misses: Vec<u32> = match &cfg.l2 {
            Some(l2cfg) => {
                let mut l2 = SetAssocCache::new(l2cfg.clone());
                let (m, ns) = timed(|| {
                    let mut misses = Vec::with_capacity(l1_misses.len() / 2);
                    for (k, &i) in l1_misses.iter().enumerate() {
                        let op = &ops[i as usize];
                        let line = op.addr().line_index();
                        let (now, dtype) = (i as Cycle, op.dtype());
                        if l2.touch(line, now, dtype, false).is_some() {
                            l2_hit[k] = true;
                        } else {
                            l2.fill(line, FillInfo::demand(dtype, now));
                            misses.push(i);
                        }
                    }
                    misses
                });
                self.l2.0 += ns;
                self.l2.1 += l1_misses.len() as u64;
                m
            }
            None => l1_misses.clone(),
        };

        // L3: the L2 misses; its misses go to DRAM.
        let mut l3 = SetAssocCache::new(cfg.l3.clone());
        let (l3_misses, ns) = timed(|| {
            let mut misses = Vec::with_capacity(l2_misses.len() / 2);
            for &i in &l2_misses {
                let op = &ops[i as usize];
                let line = op.addr().line_index();
                let (now, dtype) = (i as Cycle, op.dtype());
                if l3.touch(line, now, dtype, false).is_none() {
                    l3.fill(line, FillInfo::demand(dtype, now));
                    misses.push(line);
                }
            }
            misses
        });
        self.l3.0 += ns;
        self.l3.1 += l2_misses.len() as u64;

        let mut dram = Dram::new(cfg.dram.clone());
        let ((), ns) = timed(|| {
            for (k, &line) in l3_misses.iter().enumerate() {
                black_box(dram.request(line, k as Cycle * 8, false));
            }
        });
        self.dram.0 += ns;
        self.dram.1 += l3_misses.len() as u64;

        if events {
            for (k, &i) in l1_misses.iter().enumerate() {
                let op = &ops[i as usize];
                let structure = bundle.space.is_structure_page(op.addr());
                let ev = |kind| AccessEvent {
                    vaddr: op.addr(),
                    kind,
                    is_structure: structure,
                    dtype: op.dtype(),
                };
                self.events.push(ev(EventKind::L1Miss));
                if l2_hit[k] {
                    self.events.push(ev(EventKind::L2Hit));
                }
            }
        }
    }
}

/// Structure lines among `bundle`'s L1 misses under `cfg`'s L1 geometry.
fn structure_fills(bundle: &TraceBundle, cfg: &SystemConfig) -> Vec<u64> {
    let mut l1 = SetAssocCache::new(cfg.l1.clone());
    let mut lines = Vec::new();
    for (i, op) in bundle.ops.iter().enumerate() {
        let line = op.addr().line_index();
        if l1.touch(line, i as Cycle, op.dtype(), false).is_none() {
            l1.fill(line, FillInfo::demand(op.dtype(), i as Cycle));
            if op.dtype() == DataType::Structure {
                lines.push(line);
            }
        }
    }
    lines
}

/// Per-event nanoseconds of each engine; the MPP per structure fill.
#[derive(Default)]
pub struct PrefetchCost {
    pub ghb: (f64, u64),
    pub vldp: (f64, u64),
    pub stream: (f64, u64),
    pub mpp: (f64, u64),
}

fn time_engine(engine: &mut dyn Prefetcher, events: &[AccessEvent]) -> (f64, u64) {
    let mut out = Vec::with_capacity(64);
    let ((), ns) = timed(|| {
        for ev in events {
            out.clear();
            engine.on_access(ev, &mut out);
            black_box(&out);
        }
    });
    (ns, events.len() as u64)
}

impl PrefetchCost {
    /// Times the core-side engines on `events` (one bundle's, in order).
    pub fn add_engines(&mut self, events: &[AccessEvent], cfg: &SystemConfig) {
        let add = |acc: &mut (f64, u64), v: (f64, u64)| {
            acc.0 += v.0;
            acc.1 += v.1;
        };
        add(
            &mut self.ghb,
            time_engine(&mut GhbPrefetcher::new(cfg.ghb.clone()), events),
        );
        add(
            &mut self.vldp,
            time_engine(&mut VldpPrefetcher::new(cfg.vldp.clone()), events),
        );
        add(
            &mut self.stream,
            time_engine(&mut StreamPrefetcher::new(cfg.stream.clone()), events),
        );
    }

    /// Times `Mpp::on_structure_fill` on `bundle`'s structure L1 misses,
    /// retiring each candidate at once so the VAB/PAB never back up.
    pub fn add_mpp(&mut self, bundle: &TraceBundle, cfg: &SystemConfig) {
        let lines = structure_fills(bundle, cfg);
        let pt = page_table(bundle);
        let mut targets = vec![PropertyTarget {
            base: bundle.property_base,
            elem_bytes: bundle.prop_elem_bytes,
            len: bundle.prop_len,
        }];
        for &(base, elem_bytes, len) in &bundle.extra_property_targets {
            targets.push(PropertyTarget {
                base,
                elem_bytes,
                len,
            });
        }
        let mut mpp = Mpp::new_multi(cfg.mpp.clone(), targets);
        let mut out: Vec<MppCandidate> = Vec::with_capacity(64);
        let ((), ns) = timed(|| {
            for (k, &line) in lines.iter().enumerate() {
                out.clear();
                mpp.on_structure_fill(line, 0, &bundle.funcmem, &pt, k as Cycle * 8, &mut out);
                for _ in &out {
                    mpp.on_candidate_complete();
                }
                black_box(&out);
            }
        });
        self.mpp.0 += ns;
        self.mpp.1 += lines.len() as u64;
    }
}
