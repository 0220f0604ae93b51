//! Reference prefetch predictors: the contracts of the four core-side
//! engines restated with unbounded histories and linear-scan association
//! lists instead of rings, `HashMap`s, and packed tracker tables. Each
//! implements the production `Prefetcher` trait so the differential engine
//! drives both sides through one interface.

use droplet_prefetch::{
    AccessEvent, EventKind, GhbConfig, PrefetchRequest, Prefetcher, StreamConfig, VldpConfig,
};
use droplet_trace::{LINE_BYTES, PAGE_BYTES};

fn lines_per_page() -> u64 {
    PAGE_BYTES / LINE_BYTES
}

/// Reference next-N-line: on every L1 miss, the next `degree` sequential
/// lines, stopping at the page boundary.
#[derive(Debug, Clone)]
pub struct RefNextLine {
    degree: u64,
    issued: u64,
}

impl RefNextLine {
    /// A next-`degree`-line reference predictor.
    pub fn new(degree: u64) -> Self {
        assert!(degree > 0, "degree must be positive");
        RefNextLine { degree, issued: 0 }
    }
}

impl Prefetcher for RefNextLine {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        let page_last = (ev.page() + 1) * lines_per_page() - 1;
        for step in 1..=self.degree {
            let next = ev.line() + step;
            if next > page_last {
                break;
            }
            out.push(PrefetchRequest {
                vline: next,
                dtype: ev.dtype,
                into_l3_queue: false,
            });
            self.issued += 1;
        }
    }

    fn name(&self) -> &'static str {
        "ref-next-line"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

/// Reference G/DC GHB: the miss history is an unbounded `Vec` (absolute
/// position = index) with an explicit validity window of the last
/// `ghb_entries` positions; the index table is a FIFO-ordered association
/// list. The contract: look up the previous occurrence of the current delta
/// pair *before* recording the current miss, replay the deltas that followed
/// it, then point the index at the current occurrence (an existing key keeps
/// its FIFO position).
#[derive(Debug, Clone)]
pub struct RefGhb {
    cfg: GhbConfig,
    /// Full global miss history; `history[pos]` is the line at absolute
    /// position `pos`.
    history: Vec<u64>,
    /// FIFO-ordered (delta pair → absolute position) association list.
    index: Vec<((i64, i64), u64)>,
    last_line: Option<u64>,
    last_delta: Option<i64>,
    issued: u64,
}

impl RefGhb {
    /// An empty reference GHB.
    pub fn new(cfg: GhbConfig) -> Self {
        assert!(
            cfg.index_entries > 0 && cfg.ghb_entries > 1 && cfg.degree > 0,
            "degenerate GHB config"
        );
        RefGhb {
            cfg,
            history: Vec::new(),
            index: Vec::new(),
            last_line: None,
            last_delta: None,
            issued: 0,
        }
    }

    /// The line at absolute position `pos`, if still inside the buffer
    /// window (the last `ghb_entries` recorded misses).
    fn get(&self, pos: u64) -> Option<u64> {
        let head = self.history.len() as u64;
        if pos < head && head - pos <= self.cfg.ghb_entries as u64 {
            Some(self.history[pos as usize])
        } else {
            None
        }
    }

    fn index_insert(&mut self, key: (i64, i64), pos: u64) {
        if let Some(e) = self.index.iter_mut().find(|(k, _)| *k == key) {
            e.1 = pos; // existing key: update in place, FIFO position kept
            return;
        }
        if self.index.len() == self.cfg.index_entries {
            self.index.remove(0);
        }
        self.index.push((key, pos));
    }
}

impl Prefetcher for RefGhb {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        let line = ev.line();
        let delta = self.last_line.map(|l| line as i64 - l as i64);

        let key = match (self.last_delta, delta) {
            (Some(d2), Some(d1)) => Some((d2, d1)),
            _ => None,
        };
        let prev_pos = key.and_then(|k| {
            self.index
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, pos)| *pos)
        });

        let pos_cur = self.history.len() as u64;
        self.history.push(line);

        if let Some(prev) = prev_pos {
            let mut addr = line as i64;
            for pos in prev..prev + self.cfg.degree as u64 {
                let (Some(cur), Some(next)) = (self.get(pos), self.get(pos + 1)) else {
                    break;
                };
                addr += next as i64 - cur as i64;
                if addr < 0 {
                    break;
                }
                out.push(PrefetchRequest {
                    vline: addr as u64,
                    dtype: ev.dtype,
                    into_l3_queue: false,
                });
                self.issued += 1;
            }
        }

        if let Some(k) = key {
            self.index_insert(k, pos_cur);
        }
        self.last_delta = delta;
        self.last_line = Some(line);
    }

    fn name(&self) -> &'static str {
        "ref-ghb-gdc"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

/// One page's delta history in the reference DRB.
#[derive(Debug, Clone)]
struct RefDrbEntry {
    page: u64,
    last_offset: i64,
    first_offset: i64,
    history: Vec<i64>,
    accesses: u64,
    lru: u64,
}

/// A delta table as an association list. Eviction picks the minimum
/// `(lru, key)` pair — the explicit deterministic tie-break the production
/// `HashMap` implementation must honor (the PR 2 canary bug).
#[derive(Debug, Clone)]
struct RefDeltaTable {
    capacity: usize,
    rows: Vec<(Vec<i64>, i64, u64)>, // (key, next delta, lru)
}

impl RefDeltaTable {
    fn new(capacity: usize) -> Self {
        RefDeltaTable {
            capacity,
            rows: Vec::new(),
        }
    }

    fn update(&mut self, key: &[i64], next: i64, clock: u64) {
        if let Some(row) = self.rows.iter_mut().find(|(k, _, _)| k == key) {
            row.1 = next;
            row.2 = clock;
            return;
        }
        if self.rows.len() == self.capacity {
            let victim = self
                .rows
                .iter()
                .enumerate()
                .min_by(|(_, (ka, _, la)), (_, (kb, _, lb))| la.cmp(lb).then_with(|| ka.cmp(kb)))
                .map(|(i, _)| i)
                .expect("table is full, hence non-empty");
            self.rows.remove(victim);
        }
        self.rows.push((key.to_vec(), next, clock));
    }

    fn predict(&mut self, key: &[i64], clock: u64) -> Option<i64> {
        let row = self.rows.iter_mut().find(|(k, _, _)| k == key)?;
        row.2 = clock;
        Some(row.1)
    }
}

/// Reference VLDP: DRB, OPT, and cascaded DPTs as plain vectors. The
/// contract per L1 miss: bump the clock; a new page consults the OPT and
/// allocates a DRB entry (LRU eviction); a repeated line learns nothing; a
/// new delta trains the OPT (second access only) and every DPT keyed by the
/// *pre-append* history, then predicts cascaded longest-history-first up to
/// `degree` steps, each prediction bumping its DPT row's recency.
#[derive(Debug, Clone)]
pub struct RefVldp {
    cfg: VldpConfig,
    drb: Vec<RefDrbEntry>,
    opt: Vec<Option<i64>>,
    dpt: Vec<RefDeltaTable>,
    clock: u64,
    issued: u64,
}

impl RefVldp {
    /// An idle reference VLDP.
    pub fn new(cfg: VldpConfig) -> Self {
        assert!(
            cfg.drb_pages > 0 && cfg.opt_entries > 0 && cfg.dpt_entries > 0 && cfg.levels > 0,
            "degenerate VLDP config"
        );
        RefVldp {
            drb: Vec::new(),
            opt: vec![None; cfg.opt_entries],
            dpt: (0..cfg.levels)
                .map(|_| RefDeltaTable::new(cfg.dpt_entries))
                .collect(),
            cfg,
            clock: 0,
            issued: 0,
        }
    }

    fn predict(&mut self, history: &[i64]) -> Option<i64> {
        let clock = self.clock;
        for len in (1..=history.len().min(self.cfg.levels)).rev() {
            let key = &history[history.len() - len..];
            if let Some(d) = self.dpt[len - 1].predict(key, clock) {
                return Some(d);
            }
        }
        None
    }

    fn emit(
        &mut self,
        page: u64,
        offset: i64,
        ev: &AccessEvent,
        out: &mut Vec<PrefetchRequest>,
    ) -> bool {
        if offset < 0 || offset >= lines_per_page() as i64 {
            return false;
        }
        out.push(PrefetchRequest {
            vline: page * lines_per_page() + offset as u64,
            dtype: ev.dtype,
            into_l3_queue: false,
        });
        self.issued += 1;
        true
    }
}

impl Prefetcher for RefVldp {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let page = ev.page();
        let offset = ev.line_in_page() as i64;

        let Some(i) = self.drb.iter().position(|e| e.page == page) else {
            if let Some(d) = self.opt[(offset as usize) % self.cfg.opt_entries] {
                self.emit(page, offset + d, ev, out);
            }
            let entry = RefDrbEntry {
                page,
                last_offset: offset,
                first_offset: offset,
                history: Vec::new(),
                accesses: 1,
                lru: clock,
            };
            if self.drb.len() < self.cfg.drb_pages {
                self.drb.push(entry);
            } else {
                let victim = self
                    .drb
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("DRB is full, hence non-empty");
                self.drb[victim] = entry;
            }
            return;
        };

        self.drb[i].lru = clock;
        let delta = offset - self.drb[i].last_offset;
        if delta == 0 {
            return; // same line again; nothing to learn
        }
        self.drb[i].last_offset = offset;
        self.drb[i].accesses += 1;
        let first_offset = self.drb[i].first_offset;
        let accesses = self.drb[i].accesses;
        let prior = self.drb[i].history.clone();

        if accesses == 2 {
            self.opt[(first_offset as usize) % self.cfg.opt_entries] = Some(delta);
        }
        for len in 1..=prior.len().min(self.cfg.levels) {
            let key = prior[prior.len() - len..].to_vec();
            self.dpt[len - 1].update(&key, delta, clock);
        }

        let mut history = prior;
        history.push(delta);
        if history.len() > self.cfg.levels {
            history.remove(0);
        }
        self.drb[i].history = history.clone();

        let mut cur = offset;
        let mut h = history;
        for _ in 0..self.cfg.degree {
            let Some(d) = self.predict(&h) else { break };
            cur += d;
            if !self.emit(page, cur, ev, out) {
                break;
            }
            h.push(d);
            if h.len() > self.cfg.levels {
                h.remove(0);
            }
        }
    }

    fn name(&self) -> &'static str {
        "ref-vldp"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefTrackerState {
    Training,
    Monitoring,
}

#[derive(Debug, Clone, Copy)]
struct RefTracker {
    page: u64,
    state: RefTrackerState,
    last_line: u64,
    dir: i64,
    confirmations: u8,
    next_prefetch: u64,
    lru: u64,
    dtype: droplet_trace::DataType,
}

/// Reference stream prefetcher: page-bounded trackers in a plain `Vec` with
/// LRU replacement. The contract: conventional mode snoops L1 misses only,
/// data-aware mode accepts any structure event; two same-direction
/// confirmations arm a stream; a monitored access within twice the distance
/// advances the window (re-aiming a lagging head just ahead of the trigger);
/// any other move re-arms training; emission walks up to `degree` lines
/// bounded by the distance and the page, clamping a stepped-out head to the
/// page edge; switching modes clears every tracker.
#[derive(Debug, Clone)]
pub struct RefStream {
    cfg: StreamConfig,
    trackers: Vec<RefTracker>,
    clock: u64,
    issued: u64,
}

impl RefStream {
    /// An idle reference streamer.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(
            cfg.trackers > 0 && cfg.distance > 0,
            "degenerate stream config"
        );
        RefStream {
            cfg,
            trackers: Vec::new(),
            clock: 0,
            issued: 0,
        }
    }

    fn accepts(&self, ev: &AccessEvent) -> bool {
        if self.cfg.data_aware {
            ev.is_structure
        } else {
            ev.kind == EventKind::L1Miss
        }
    }

    fn page_bounds(page: u64) -> (u64, u64) {
        (page * lines_per_page(), (page + 1) * lines_per_page() - 1)
    }

    fn emit(&mut self, idx: usize, trigger: u64, out: &mut Vec<PrefetchRequest>) {
        let (lo, hi) = Self::page_bounds(self.trackers[idx].page);
        let mut emitted = 0;
        while emitted < self.cfg.degree {
            let t = &mut self.trackers[idx];
            let next = t.next_prefetch;
            if next.abs_diff(trigger) > self.cfg.distance || next < lo || next > hi {
                break;
            }
            out.push(PrefetchRequest {
                vline: next,
                dtype: t.dtype,
                into_l3_queue: self.cfg.data_aware,
            });
            self.issued += 1;
            emitted += 1;
            let stepped = next as i64 + t.dir;
            if stepped < lo as i64 || stepped > hi as i64 {
                t.next_prefetch = if t.dir > 0 { hi } else { lo };
                break;
            }
            t.next_prefetch = stepped as u64;
        }
    }
}

impl Prefetcher for RefStream {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if !self.accepts(ev) {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let line = ev.line();
        let page = ev.page();

        if let Some(idx) = self.trackers.iter().position(|t| t.page == page) {
            self.trackers[idx].lru = clock;
            match self.trackers[idx].state {
                RefTrackerState::Training => {
                    let t = &mut self.trackers[idx];
                    let step = line as i64 - t.last_line as i64;
                    if step != 0 {
                        let dir = step.signum();
                        if t.confirmations == 0 || dir == t.dir {
                            t.dir = dir;
                            t.confirmations += 1;
                        } else {
                            t.dir = dir;
                            t.confirmations = 1;
                        }
                        t.last_line = line;
                        if t.confirmations >= 2 {
                            t.state = RefTrackerState::Monitoring;
                            t.next_prefetch = (line as i64 + t.dir).max(0) as u64;
                            self.emit(idx, line, out);
                        }
                    }
                }
                RefTrackerState::Monitoring => {
                    let t = &mut self.trackers[idx];
                    let ahead = (line as i64 - t.last_line as i64) * t.dir;
                    if ahead > 0 && ahead <= 2 * self.cfg.distance as i64 {
                        t.last_line = line;
                        if (t.next_prefetch as i64 - line as i64) * t.dir <= 0 {
                            t.next_prefetch = (line as i64 + t.dir).max(0) as u64;
                        }
                        self.emit(idx, line, out);
                    } else if ahead != 0 {
                        t.state = RefTrackerState::Training;
                        t.dir = 0;
                        t.confirmations = 0;
                        t.last_line = line;
                        t.next_prefetch = line;
                    }
                }
            }
            return;
        }

        let t = RefTracker {
            page,
            state: RefTrackerState::Training,
            last_line: line,
            dir: 0,
            confirmations: 0,
            next_prefetch: line,
            lru: clock,
            dtype: ev.dtype,
        };
        if self.trackers.len() < self.cfg.trackers {
            self.trackers.push(t);
        } else {
            let victim = self
                .trackers
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.lru)
                .map(|(i, _)| i)
                .expect("tracker table is full, hence non-empty");
            self.trackers[victim] = t;
        }
    }

    fn name(&self) -> &'static str {
        "ref-stream"
    }

    fn issued(&self) -> u64 {
        self.issued
    }

    fn set_data_aware(&mut self, on: bool) {
        if self.cfg.data_aware != on {
            self.cfg.data_aware = on;
            self.trackers.clear();
        }
    }

    fn is_data_aware(&self) -> bool {
        self.cfg.data_aware
    }
}
