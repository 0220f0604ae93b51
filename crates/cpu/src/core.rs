//! The event-driven out-of-order core timing model.
//!
//! Instructions are accounted in *slot units* of `1/width` cycle. Each
//! [`MemOp`] plus its preceding compute instructions forms a block that must
//! clear four constraints: dispatch bandwidth, ROB occupancy (the
//! instruction `window` back must have retired), load/store queue occupancy,
//! and — for loads — the completion of the producer load whose value forms
//! this load's address. The last constraint is what makes the paper's
//! short producer→consumer chains (Observation #2) visible as lost MLP.

use crate::mlp::{mlp_of_intervals, MlpStats};
use crate::stack::CycleStack;
use droplet_trace::{Cycle, MemOp, OpId};

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2 cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Off-chip DRAM.
    Dram,
}

impl ServiceLevel {
    /// All levels, nearest first.
    pub const ALL: [ServiceLevel; 4] = [
        ServiceLevel::L1,
        ServiceLevel::L2,
        ServiceLevel::L3,
        ServiceLevel::Dram,
    ];

    /// Stable index for per-level stat arrays.
    pub const fn index(self) -> usize {
        match self {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::L3 => 2,
            ServiceLevel::Dram => 3,
        }
    }
}

impl std::fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServiceLevel::L1 => "L1",
            ServiceLevel::L2 => "L2",
            ServiceLevel::L3 => "L3",
            ServiceLevel::Dram => "DRAM",
        })
    }
}

/// Completion information for one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// Cycle the data is available to the core.
    pub complete_at: Cycle,
    /// The level that serviced the access.
    pub level: ServiceLevel,
}

/// The memory system the core issues demand accesses into.
pub trait MemorySystem {
    /// Performs the demand access of `op` (trace position `id`) at cycle
    /// `now`, returning when and where it completes.
    fn access(&mut self, op: &MemOp, id: OpId, now: Cycle) -> AccessResponse;

    /// Not part of the replay path: the engine never calls this, and the
    /// default declines every op. It remains only because the benchmark's
    /// timing shim (`perfbench/src/layers.rs`) still implements it, and the
    /// benchmark's files stay fixed across the changes it measures. Delete
    /// it together with that forwarding.
    #[doc(hidden)]
    #[inline]
    fn access_hot(&mut self, op: &MemOp, id: OpId, now: Cycle) -> Option<AccessResponse> {
        let _ = (op, id, now);
        None
    }

    /// Called once when the measurement window opens, so implementations
    /// can reset their statistics while keeping warmed-up state.
    fn warmup_done(&mut self, now: Cycle);
}

/// Core parameters (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer size in instructions.
    pub rob: u32,
    /// Load-queue entries.
    pub load_queue: u32,
    /// Store-queue entries.
    pub store_queue: u32,
    /// Dispatch = issue = commit width.
    pub width: u32,
}

impl CoreConfig {
    /// Table I: ROB 128, LQ 48, SQ 32, width 4.
    pub fn baseline() -> Self {
        CoreConfig {
            rob: 128,
            load_queue: 48,
            store_queue: 32,
            width: 4,
        }
    }

    /// The Fig. 3 experiment: an instruction window scaled by `factor`
    /// (ROB, LQ and SQ all scale together).
    #[must_use]
    pub fn scaled_window(mut self, factor: u32) -> Self {
        self.rob *= factor;
        self.load_queue *= factor;
        self.store_queue *= factor;
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Results of one core run (measurement window only).
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// Cycles elapsed in the measurement window.
    pub cycles: Cycle,
    /// Instructions retired in the window (memory + compute).
    pub instructions: u64,
    /// Memory operations executed in the window.
    pub memops: u64,
    /// Loads among them.
    pub loads: u64,
    /// Demand accesses serviced per level.
    pub serviced_by: [u64; 4],
    /// Cycle-stack attribution.
    pub cycle_stack: CycleStack,
    /// DRAM memory-level parallelism.
    pub mlp: MlpStats,
}

impl CoreResult {
    /// Instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// History ring length (must exceed any producer distance the ROB allows).
/// A power of two so ring indices reduce with a mask instead of a modulo.
const HIST: usize = 8192;
const HIST_MASK: usize = HIST - 1;

/// Open measurement window: the accumulators of one measured region.
///
/// Created by [`CoreEngine::open_window`] (which also signals
/// [`MemorySystem::warmup_done`]), filled by [`CoreEngine::measure_chunk`],
/// and turned into a [`CoreResult`] by [`CoreEngine::finish`]. The split
/// lets every runner feed a window block by block, and gives callers that
/// need op-by-op control — the conformance lockstep differ stepping a
/// forked run against a from-scratch run — the same code path.
#[derive(Debug, Clone)]
pub struct MeasureState {
    stack: CycleStack,
    dram_intervals: Vec<(Cycle, Cycle)>,
    serviced_by: [u64; 4],
    memops: u64,
    loads: u64,
    window_start_cycle: Cycle,
    window_start_ii: u64,
}

/// The complete core-model state of a run in flight: the slot-unit clocks,
/// the ROB/LQ/SQ retire-time rings, and the op-history rings the producer
/// dependency reads. `Clone` is a faithful snapshot — forked sweeps clone
/// the engine at the warm-up boundary and resume each fork independently,
/// which is bit-identical to re-running the prefix because the engine's
/// state is a pure function of the ops applied so far.
#[derive(Debug, Clone)]
pub struct CoreEngine {
    cfg: CoreConfig,
    /// Slot-unit clocks (1 slot = 1/width cycle).
    disp_units: u64,
    ret_units: u64,
    /// Recent-op history: cumulative instruction index at block end,
    /// retire time (cycles), completion time (cycles). Boxed so the engine
    /// is cheap to move; indexed by global op position & [`HIST_MASK`].
    end_ii: Box<[u64; HIST]>,
    ret_time: Box<[u64; HIST]>,
    complete: Box<[u64; HIST]>,
    /// Two-pointer for the ROB constraint.
    rob_ptr: usize,
    /// Load/store queue retire-time rings.
    load_ret: Vec<u64>,
    store_ret: Vec<u64>,
    n_loads: usize,
    n_stores: usize,
    /// Ring cursors maintained incrementally (== n_loads % lq etc.) so
    /// the per-op queue probes never pay a runtime modulo.
    load_pos: usize,
    store_pos: usize,
    /// Cumulative instruction count.
    ii: u64,
    /// Global op position (continues across warmup/measure spans).
    pos: usize,
}

impl CoreEngine {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the ROB exceeds the history ring.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(
            cfg.rob > 0 && cfg.load_queue > 0 && cfg.store_queue > 0 && cfg.width > 0,
            "degenerate core config"
        );
        assert!((cfg.rob as usize) < HIST, "ROB larger than history ring");
        CoreEngine {
            cfg,
            disp_units: 0,
            ret_units: 0,
            end_ii: Box::new([0u64; HIST]),
            ret_time: Box::new([0u64; HIST]),
            complete: Box::new([0u64; HIST]),
            rob_ptr: 0,
            load_ret: vec![0u64; cfg.load_queue as usize],
            store_ret: vec![0u64; cfg.store_queue as usize],
            n_loads: 0,
            n_stores: 0,
            load_pos: 0,
            store_pos: 0,
            ii: 0,
            pos: 0,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The engine's clocks `(dispatch slot-units, retire slot-units,
    /// cumulative instructions)` — a cheap fingerprint the conformance
    /// differ compares op-by-op between forked and from-scratch runs.
    pub fn clocks(&self) -> (u64, u64, u64) {
        (self.disp_units, self.ret_units, self.ii)
    }

    /// Slot units → cycles on the retire clock.
    fn div_w_cfg(&self, units: u64) -> Cycle {
        let w = u64::from(self.cfg.width);
        if w.is_power_of_two() {
            units >> w.trailing_zeros()
        } else {
            units / w
        }
    }

    /// Runs `ops` without measurement (the warm-up prefix).
    pub fn warmup(&mut self, ops: &[MemOp], mem: &mut impl MemorySystem) {
        self.run_span(ops, mem, None);
    }

    /// Opens the measurement window at the engine's current clock and
    /// signals [`MemorySystem::warmup_done`]. The boundary passed down is
    /// the retire clock — the same clock `window_start_cycle` (and thus
    /// [`CoreResult::cycles`]) is measured on, so memory-side utilization
    /// windows line up with the core's measurement window.
    pub fn open_window(&self, mem: &mut impl MemorySystem) -> MeasureState {
        let window_start_cycle = self.div_w_cfg(self.ret_units);
        mem.warmup_done(window_start_cycle);
        MeasureState {
            stack: CycleStack::default(),
            dram_intervals: Vec::new(),
            serviced_by: [0u64; 4],
            memops: 0,
            loads: 0,
            window_start_cycle,
            window_start_ii: self.ii,
        }
    }

    /// Runs `ops` inside an open measurement window.
    pub fn measure_chunk(
        &mut self,
        ops: &[MemOp],
        mem: &mut impl MemorySystem,
        m: &mut MeasureState,
    ) {
        self.run_span(ops, mem, Some(m));
    }

    /// Closes the window and assembles the measured result.
    pub fn finish(&self, m: MeasureState) -> CoreResult {
        let end_cycle = self.div_w_cfg(self.ret_units);
        CoreResult {
            cycles: end_cycle.saturating_sub(m.window_start_cycle),
            instructions: self.ii - m.window_start_ii,
            memops: m.memops,
            loads: m.loads,
            serviced_by: m.serviced_by,
            cycle_stack: m.stack,
            mlp: mlp_of_intervals(&m.dram_intervals),
        }
    }

    /// The timing loop shared by warm-up and measurement; `meas` carries
    /// the open window's accumulators (None during warm-up — one predicted
    /// branch per op, like the `measuring` flag it replaces).
    fn run_span(
        &mut self,
        ops: &[MemOp],
        mem: &mut impl MemorySystem,
        mut meas: Option<&mut MeasureState>,
    ) {
        let w = u64::from(self.cfg.width);
        let rob = u64::from(self.cfg.rob);
        // Slot-unit → cycle conversions happen several times per op, and a
        // division by a runtime value costs tens of cycles on its own. Real
        // widths are powers of two, so precompute the shift; the divide
        // stays as the exact fallback for odd widths.
        let wshift = if w.is_power_of_two() {
            Some(w.trailing_zeros())
        } else {
            None
        };
        let div_w = |units: u64| match wshift {
            Some(s) => units >> s,
            None => units / w,
        };

        // Hoist the engine state into locals for the hot loop.
        let mut disp_units = self.disp_units;
        let mut ret_units = self.ret_units;
        let end_ii = &mut *self.end_ii;
        let ret_time = &mut *self.ret_time;
        let complete = &mut *self.complete;
        let mut rob_ptr = self.rob_ptr;
        let lq = self.cfg.load_queue as usize;
        let sq = self.cfg.store_queue as usize;
        let load_ret = &mut self.load_ret[..];
        let store_ret = &mut self.store_ret[..];
        let mut n_loads = self.n_loads;
        let mut n_stores = self.n_stores;
        let mut load_pos = self.load_pos;
        let mut store_pos = self.store_pos;
        let mut ii = self.ii;
        let base = self.pos;

        for (k, op) in ops.iter().enumerate() {
            let i = base + k;
            let block = 1 + u64::from(op.pre_compute());
            let ii_start = ii;
            ii += block;

            // --- Dispatch constraints ---
            let mut floor_units = disp_units + block;
            // ROB: instruction (ii_start - rob) must have retired.
            if ii_start >= rob {
                let target = ii_start - rob;
                while rob_ptr < i && end_ii[(rob_ptr + 1) & HIST_MASK] <= target {
                    rob_ptr += 1;
                }
                if i > 0 && end_ii[rob_ptr & HIST_MASK] <= target {
                    floor_units = floor_units.max(ret_time[rob_ptr & HIST_MASK] * w + block);
                }
            }
            // LQ/SQ occupancy.
            if op.is_load() {
                if n_loads >= lq {
                    floor_units = floor_units.max(load_ret[load_pos] * w + block);
                }
            } else if n_stores >= sq {
                floor_units = floor_units.max(store_ret[store_pos] * w + block);
            }
            disp_units = floor_units;
            let disp_cycle = div_w(disp_units);

            // --- Issue: wait for the producer's value (address dependency) ---
            let mut issue_at = disp_cycle;
            if let Some(back) = op.producer_back() {
                let back = back as usize;
                if back <= i && back < HIST {
                    let pc = complete[(i - back) & HIST_MASK];
                    issue_at = issue_at.max(pc);
                }
            }

            // --- Execute ---
            let (complete_at, level) = if op.is_load() {
                let resp = mem.access(op, OpId(i as u64), issue_at);
                (resp.complete_at.max(issue_at + 1), Some(resp.level))
            } else {
                // Stores drain from the store buffer off the critical path,
                // but still update the memory system's state.
                let resp = mem.access(op, OpId(i as u64), issue_at);
                let _ = resp;
                (issue_at + 1, None)
            };

            // --- Retire (in order, width-limited) ---
            let before = ret_units;
            ret_units = (ret_units + block).max(complete_at * w);
            let rt = div_w(ret_units);

            // --- Bookkeeping rings ---
            let h = i & HIST_MASK;
            end_ii[h] = ii;
            ret_time[h] = rt;
            complete[h] = complete_at;
            if op.is_load() {
                load_ret[load_pos] = rt;
                n_loads += 1;
                load_pos += 1;
                if load_pos == lq {
                    load_pos = 0;
                }
            } else {
                store_ret[store_pos] = rt;
                n_stores += 1;
                store_pos += 1;
                if store_pos == sq {
                    store_pos = 0;
                }
            }

            // --- Measurement ---
            if let Some(m) = meas.as_deref_mut() {
                m.memops += 1;
                let elapsed = ret_units - before;
                let excess = elapsed.saturating_sub(block);
                m.stack.base += block;
                match level {
                    Some(l) => {
                        if op.is_load() {
                            m.loads += 1;
                            m.serviced_by[l.index()] += 1;
                            if l == ServiceLevel::Dram {
                                m.dram_intervals.push((issue_at, complete_at));
                            }
                        }
                        match l {
                            ServiceLevel::L1 => m.stack.l1 += excess,
                            ServiceLevel::L2 => m.stack.l2 += excess,
                            ServiceLevel::L3 => m.stack.l3 += excess,
                            ServiceLevel::Dram => m.stack.dram += excess,
                        }
                    }
                    None => m.stack.other += excess,
                }
            }
        }

        // Write the hoisted state back.
        self.disp_units = disp_units;
        self.ret_units = ret_units;
        self.rob_ptr = rob_ptr;
        self.n_loads = n_loads;
        self.n_stores = n_stores;
        self.load_pos = load_pos;
        self.store_pos = store_pos;
        self.ii = ii;
        self.pos = base + ops.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::{AccessKind, DataType, VirtAddr};

    /// Replays `trace` through the engine calls every runner makes: the
    /// first `warmup_ops` ops warm up, the rest are measured.
    fn replay(
        cfg: CoreConfig,
        trace: &[MemOp],
        mem: &mut impl MemorySystem,
        warmup_ops: usize,
    ) -> CoreResult {
        let mut engine = CoreEngine::new(cfg);
        engine.warmup(&trace[..warmup_ops], mem);
        let mut m = engine.open_window(mem);
        engine.measure_chunk(&trace[warmup_ops..], mem, &mut m);
        engine.finish(m)
    }

    /// Fixed-latency memory: loads to line < SPLIT hit L1, others go to DRAM.
    struct SplitMem {
        split: u64,
        dram_latency: u64,
        accesses: u64,
    }

    impl MemorySystem for SplitMem {
        fn access(&mut self, op: &MemOp, _id: OpId, now: Cycle) -> AccessResponse {
            self.accesses += 1;
            if op.addr().line_index() < self.split {
                AccessResponse {
                    complete_at: now + 4,
                    level: ServiceLevel::L1,
                }
            } else {
                AccessResponse {
                    complete_at: now + self.dram_latency,
                    level: ServiceLevel::Dram,
                }
            }
        }

        fn warmup_done(&mut self, _now: Cycle) {}
    }

    fn load(id: u64, line: u64, producer: Option<u64>, pre: u16) -> MemOp {
        MemOp::new(
            VirtAddr::new(line * 64),
            AccessKind::Load,
            DataType::Property,
            producer.map(OpId),
            OpId(id),
            pre,
        )
    }

    #[test]
    fn independent_dram_loads_overlap() {
        // 32 independent DRAM loads: MLP should be well above 1.
        let trace: Vec<MemOp> = (0..32).map(|i| load(i, 1000 + i, None, 0)).collect();
        let mut mem = SplitMem {
            split: 10,
            dram_latency: 200,
            accesses: 0,
        };
        let r = replay(CoreConfig::baseline(), &trace, &mut mem, 0);
        assert!(r.mlp.avg_outstanding > 4.0, "mlp {}", r.mlp.avg_outstanding);
        // Far faster than serialized (32 × 200).
        assert!(r.cycles < 3200, "cycles {}", r.cycles);
        assert_eq!(r.serviced_by[ServiceLevel::Dram.index()], 32);
    }

    #[test]
    fn dependent_chains_serialize() {
        // Pairs: producer DRAM load → consumer DRAM load.
        let mut trace = Vec::new();
        for i in 0..16u64 {
            trace.push(load(2 * i, 1000 + 2 * i, None, 0));
            trace.push(load(2 * i + 1, 5000 + 2 * i, Some(2 * i), 0));
        }
        let mut mem = SplitMem {
            split: 10,
            dram_latency: 200,
            accesses: 0,
        };
        let dep = replay(CoreConfig::baseline(), &trace, &mut mem, 0);

        // Same loads without the dependency links.
        let free: Vec<MemOp> = trace
            .iter()
            .enumerate()
            .map(|(i, op)| {
                MemOp::new(
                    op.addr(),
                    AccessKind::Load,
                    op.dtype(),
                    None,
                    OpId(i as u64),
                    0,
                )
            })
            .collect();
        let mut mem2 = SplitMem {
            split: 10,
            dram_latency: 200,
            accesses: 0,
        };
        let ind = replay(CoreConfig::baseline(), &free, &mut mem2, 0);
        assert!(
            dep.cycles > ind.cycles + 150,
            "dependency must cost cycles: {} vs {}",
            dep.cycles,
            ind.cycles
        );
        assert!(dep.mlp.avg_outstanding < ind.mlp.avg_outstanding);
    }

    #[test]
    fn bigger_window_helps_independent_loads_but_not_chains() {
        // Long independent DRAM stream: window size gates MLP.
        let trace: Vec<MemOp> = (0..512).map(|i| load(i, 1000 + i, None, 0)).collect();
        let run = |cfg: CoreConfig| {
            let mut mem = SplitMem {
                split: 0,
                dram_latency: 300,
                accesses: 0,
            };
            replay(cfg, &trace, &mut mem, 0)
        };
        let small = run(CoreConfig::baseline());
        let big = run(CoreConfig::baseline().scaled_window(4));
        assert!(
            big.cycles < small.cycles,
            "4X window should speed independent streams: {} vs {}",
            big.cycles,
            small.cycles
        );

        // Fully serialized chain: window size is irrelevant.
        let chain: Vec<MemOp> = (0..256)
            .map(|i| load(i, 1000 + i, if i == 0 { None } else { Some(i - 1) }, 0))
            .collect();
        let run_chain = |cfg: CoreConfig| {
            let mut mem = SplitMem {
                split: 0,
                dram_latency: 300,
                accesses: 0,
            };
            replay(cfg, &chain, &mut mem, 0)
        };
        let small_c = run_chain(CoreConfig::baseline());
        let big_c = run_chain(CoreConfig::baseline().scaled_window(4));
        let diff = small_c.cycles.abs_diff(big_c.cycles);
        assert!(
            (diff as f64) < 0.02 * small_c.cycles as f64,
            "chains should not benefit: {} vs {}",
            small_c.cycles,
            big_c.cycles
        );
    }

    #[test]
    fn dram_bound_trace_shows_dram_heavy_cycle_stack() {
        let trace: Vec<MemOp> = (0..200)
            .map(|i| {
                load(
                    i,
                    1000 + i * 97,
                    if i % 2 == 1 { Some(i - 1) } else { None },
                    2,
                )
            })
            .collect();
        let mut mem = SplitMem {
            split: 0,
            dram_latency: 200,
            accesses: 0,
        };
        let r = replay(CoreConfig::baseline(), &trace, &mut mem, 0);
        assert!(
            r.cycle_stack.dram_fraction() > 0.4,
            "stack: {}",
            r.cycle_stack
        );
    }

    #[test]
    fn l1_hits_give_high_ipc() {
        let trace: Vec<MemOp> = (0..1000).map(|i| load(i, i % 8, None, 3)).collect();
        let mut mem = SplitMem {
            split: 1 << 30,
            dram_latency: 200,
            accesses: 0,
        };
        let r = replay(CoreConfig::baseline(), &trace, &mut mem, 0);
        assert!(r.ipc() > 2.0, "ipc {}", r.ipc());
        assert!(r.cycle_stack.busy_fraction() > 0.8);
        assert_eq!(r.instructions, 4000);
    }

    #[test]
    fn warmup_excludes_early_ops() {
        let trace: Vec<MemOp> = (0..100).map(|i| load(i, 1000 + i, None, 0)).collect();
        let mut mem = SplitMem {
            split: 0,
            dram_latency: 100,
            accesses: 0,
        };
        let r = replay(CoreConfig::baseline(), &trace, &mut mem, 50);
        assert_eq!(r.memops, 50);
        assert_eq!(r.instructions, 50);
        assert!(r.cycles > 0);
    }

    #[test]
    fn store_queue_limits_store_bursts() {
        let mk = |i: u64| {
            MemOp::new(
                VirtAddr::new((2000 + i) * 64),
                AccessKind::Store,
                DataType::Property,
                None,
                OpId(i),
                0,
            )
        };
        let trace: Vec<MemOp> = (0..64).map(mk).collect();
        let mut mem = SplitMem {
            split: 1 << 30,
            dram_latency: 100,
            accesses: 0,
        };
        let r = replay(CoreConfig::baseline(), &trace, &mut mem, 0);
        // Stores retire at 4/cycle minimum; just confirm no stall explosion
        // and that stores hit the memory system.
        assert_eq!(mem.accesses, 64);
        assert!(r.cycles >= 16);
        assert_eq!(r.loads, 0);
    }

    #[test]
    fn chunking_is_invisible_to_results() {
        // Mixed trace: same-page L1-hit runs, DRAM excursions, stores, and
        // producer links. Feeding it in any chunking, across the warm-up
        // boundary, must leave the engine and the measured result unchanged.
        let mut trace = Vec::new();
        for i in 0..400u64 {
            let line = if i % 7 == 0 { 100_000 + i } else { i % 4 };
            if i % 5 == 3 {
                trace.push(MemOp::new(
                    VirtAddr::new(line * 64),
                    AccessKind::Store,
                    DataType::Property,
                    None,
                    OpId(i),
                    1,
                ));
            } else {
                trace.push(load(
                    i,
                    line,
                    if i % 11 == 6 { Some(i - 1) } else { None },
                    2,
                ));
            }
        }
        let warmup = 100;
        let run = |chunk: usize| {
            let mut mem = SplitMem {
                split: 10,
                dram_latency: 180,
                accesses: 0,
            };
            let mut eng = CoreEngine::new(CoreConfig::baseline());
            for ops in trace[..warmup].chunks(chunk) {
                eng.warmup(ops, &mut mem);
            }
            let mut m = eng.open_window(&mut mem);
            for ops in trace[warmup..].chunks(chunk) {
                eng.measure_chunk(ops, &mut mem, &mut m);
            }
            (eng.clocks(), eng.finish(m))
        };
        let (clocks, whole) = run(trace.len());
        assert!(whole.serviced_by[ServiceLevel::Dram.index()] > 0);
        assert!(whole.serviced_by[ServiceLevel::L1.index()] > 0);
        for chunk in [1, 7, 64] {
            let (c, r) = run(chunk);
            assert_eq!(c, clocks, "clocks, {chunk}-op chunks");
            assert_eq!(r.cycles, whole.cycles, "cycles, {chunk}-op chunks");
            assert_eq!(r.serviced_by, whole.serviced_by, "{chunk}-op chunks");
            assert_eq!(r.loads, whole.loads, "loads, {chunk}-op chunks");
            assert_eq!(r.cycle_stack, whole.cycle_stack, "{chunk}-op chunks");
        }
    }

    #[test]
    fn service_level_index_is_stable() {
        for (i, l) in ServiceLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        assert_eq!(ServiceLevel::Dram.to_string(), "DRAM");
    }
}
