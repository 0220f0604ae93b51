//! The Variable Length Delta Prefetcher (Shevgoor et al. \[38\]) — the
//! paper's `VLDP` comparison point. Per Table V: a DRB tracking the last 64
//! pages, a 64-entry OPT (offset prediction table), and 3 cascaded 64-entry
//! DPTs (delta prediction tables keyed by delta histories of length 1–3,
//! longest match wins).
//!
//! # Hot-path shape
//!
//! The predictor sits inside a cache simulator whose own tag arrays span
//! megabytes, so any VLDP state not touched on every miss is cold by the
//! next one. The tables are therefore built to fit a few kilobytes that
//! stay L1-resident: every delta is a line-offset difference within a
//! 4 KiB page (|d| ≤ 63), so deltas live in `i8` columns, whole delta
//! histories pack into one `u64` of biased 16-bit lanes (`pack_suffix` —
//! equality- and order-preserving, so packed keys behave exactly like the
//! `[i64; 4]` histories they replace), LRU stamps are `u32`, and a DRB row
//! is 8 bytes. Probes are [`find_u64`] sweeps over dense key columns;
//! there is no hashing and no per-access allocation.

use crate::event::{AccessEvent, EventKind, PrefetchRequest, Prefetcher};
use droplet_trace::{find_u64, LINE_BYTES, PAGE_BYTES};

/// Upper bound on cascaded DPT levels, so delta histories and table keys
/// live in fixed-size arrays instead of heap vectors — and so a whole
/// history fits the four 16-bit lanes of a packed `u64` key. The paper uses
/// 3 levels; [`VldpPrefetcher::new`] rejects configurations beyond this.
const MAX_LEVELS: usize = 4;

/// VLDP parameters (paper Table V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VldpConfig {
    /// Pages tracked by the delta-history buffer.
    pub drb_pages: usize,
    /// Offset-prediction-table entries (one per possible first offset).
    pub opt_entries: usize,
    /// Entries per delta prediction table.
    pub dpt_entries: usize,
    /// Number of cascaded DPTs (history lengths 1..=levels).
    pub levels: usize,
    /// Predictions issued per trigger (cascaded).
    pub degree: usize,
}

impl VldpConfig {
    /// The Table V configuration.
    pub fn paper() -> Self {
        VldpConfig {
            drb_pages: 64,
            opt_entries: 64,
            dpt_entries: 64,
            levels: 3,
            degree: 2,
        }
    }
}

/// A short delta sequence (≤ [`MAX_LEVELS`] entries) kept directly in its
/// [`pack_suffix`] form: one `u64` of biased 16-bit lanes, oldest delta in
/// the top lane, pad lanes below. Appending a delta is O(1) lane math on
/// the key instead of an array rotate plus a repack, so the replay hot path
/// never materializes an `[i8]` history at all. `key` is always exactly
/// `pack_suffix` of the deltas it holds — [`key`](Self::key) hands the DPTs
/// their probe key for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct History {
    key: u64,
    len: u8,
}

/// The packed empty history: every lane holds the bias of zero.
const EMPTY_KEY: u64 = 0x8000_8000_8000_8000;

impl Default for History {
    fn default() -> Self {
        History {
            key: EMPTY_KEY,
            len: 0,
        }
    }
}

impl History {
    /// Appends `delta`, dropping the oldest entry once `cap` is reached —
    /// the `push` + `remove(0)` idiom of a bounded Vec, as lane math: the
    /// raw `u16` image of a delta is its biased lane XOR the pad, so one
    /// XOR turns a pad lane into the delta's lane (and a left shift by one
    /// lane is exactly `pack` of the history minus its oldest entry).
    fn push_capped(&mut self, delta: i8, cap: usize) {
        let raw = u64::from(delta as i16 as u16);
        let len = self.len as usize;
        if len == cap {
            self.key = if cap == MAX_LEVELS {
                (self.key << 16) ^ raw ^ 0x8000
            } else {
                // The shift pulls the old pad into lane `cap - 1` (turned
                // into the new delta) and a zero into the bottom (re-padded).
                ((self.key << 16) | 0x8000) ^ (raw << (16 * (MAX_LEVELS - cap)))
            };
        } else {
            self.key ^= raw << (16 * (MAX_LEVELS - 1 - len));
            self.len += 1;
        }
    }

    /// `pack_suffix` of the whole history, precomputed.
    #[inline]
    fn key(&self) -> u64 {
        self.key
    }
}

/// Packs a delta-history suffix into one `u64` of four big-endian 16-bit
/// lanes, each the delta biased from `i16` into order-preserving `u16`
/// space (`^ 0x8000`); missing tail lanes hold the bias of zero.
///
/// The packing is injective, `pack(a) == pack(b)` iff the zero-padded
/// arrays are equal, and `pack(a) < pack(b)` iff the arrays compare
/// lexicographically as integer sequences — so packed keys preserve both
/// the lookup and the LRU tie-break semantics of the wide-integer history
/// representation exactly.
#[allow(dead_code)] // the executable spec [`History`] is tested against
#[inline]
fn pack_suffix(suffix: &[i8]) -> u64 {
    debug_assert!(suffix.len() <= MAX_LEVELS);
    let mut key = 0u64;
    for lane in 0..MAX_LEVELS {
        let d = suffix.get(lane).copied().unwrap_or(0);
        key = (key << 16) | u64::from((d as i16 as u16) ^ 0x8000);
    }
    key
}

/// The packed key of a suffix one element shorter: dropping the oldest
/// delta shifts every lane up one slot and feeds a zero-pad lane in at the
/// bottom, i.e. `pack(s[1..]) == shorten(pack(s))`. Lets one
/// [`pack_suffix`] serve every history length in a longest-first walk.
#[inline]
fn shorten(key: u64) -> u64 {
    (key << 16) | 0x8000
}

/// A bounded LRU map from delta histories to the next delta: dense SoA
/// columns — packed keys for [`find_u64`] probes, `i8` next-deltas, `u32`
/// LRU stamps — plus a pure acceleration layer that leaves lookup results
/// and eviction choices untouched:
///
/// * a 256-bit presence filter over a hash of the key, with per-bucket
///   occupancy counts so eviction can clear bits exactly — a clear bit
///   answers the (dominant) definite-miss probes of the longest-first
///   cascade in O(1) instead of a 64-key sweep;
/// * a per-bucket row hint so repeat hits touch one row directly; a stale
///   or colliding hint fails its key compare and falls back to the sweep;
/// * an intrusive recency list (two `u16` link columns) kept sorted by
///   `(lru, key)` ascending, so the eviction victim is its head in O(1) —
///   no column sweep, which matters doubly here because the sweep's cache
///   lines are evicted by the surrounding simulator between calls.
///
/// The eviction victim is the unique minimum of `(lru, key)` over all rows
/// (keys are unique, so the choice is deterministic under LRU-stamp ties
/// and independent of row order). The list reproduces that order exactly:
/// rows are appended at the tail on every touch, and a touch that shares
/// its stamp with tail rows (several touches in one table during one
/// trigger) walks backward to its key-sorted slot within that tied group.
#[derive(Debug, Clone)]
struct DeltaTable {
    capacity: usize,
    /// Packed history keys ([`pack_suffix`]); unique within the table.
    keys: Vec<u64>,
    next: Vec<i8>,
    lru: Vec<u32>,
    /// Presence bit per hash bucket (set ⇔ `bucket_rows[b] > 0`).
    filter: [u64; 4],
    /// Resident keys hashing to each bucket, for exact bit clearing.
    bucket_rows: [u8; 256],
    /// Last row seen for each bucket, +1 (0 = no hint). Only maintained for
    /// rows < 255; always verified against the key column before use.
    hint: [u8; 256],
    /// Recency-list links (`NO_ROW` = none): `link_prev` points toward the
    /// head (older), `link_next` toward the tail (newer).
    link_prev: Vec<u16>,
    link_next: Vec<u16>,
    /// Oldest row — the eviction victim — and newest row (`NO_ROW` = empty).
    head: u16,
    tail: u16,
}

/// Null link of the recency list; also bounds table capacity.
const NO_ROW: u16 = u16::MAX;

/// Hash bucket (0..256) of a packed key — Fibonacci multiply, top byte.
#[inline]
fn bucket_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

impl DeltaTable {
    fn new(capacity: usize) -> Self {
        assert!(
            capacity < NO_ROW as usize,
            "table capacity must fit u16 recency links"
        );
        DeltaTable {
            capacity,
            keys: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            lru: Vec::with_capacity(capacity),
            filter: [0; 4],
            bucket_rows: [0; 256],
            hint: [0; 256],
            link_prev: Vec::with_capacity(capacity),
            link_next: Vec::with_capacity(capacity),
            head: NO_ROW,
            tail: NO_ROW,
        }
    }

    /// Row of `key`, via the filter / hint fast paths; `None` means the key
    /// is definitely absent. Exactly equivalent to `find_u64(&keys, key)`.
    #[inline]
    fn row_of(&self, key: u64) -> Option<usize> {
        let b = bucket_of(key);
        if self.filter[b >> 6] & (1u64 << (b & 63)) == 0 {
            return None;
        }
        let h = self.hint[b] as usize;
        if h > 0 && self.keys[h - 1] == key {
            return Some(h - 1);
        }
        find_u64(&self.keys, key)
    }

    /// Marks `key` resident at `row` in the filter/hint layer.
    #[inline]
    fn index_insert(&mut self, key: u64, row: usize) {
        let b = bucket_of(key);
        self.filter[b >> 6] |= 1u64 << (b & 63);
        self.bucket_rows[b] += 1;
        if row < 255 {
            self.hint[b] = row as u8 + 1;
        }
    }

    /// Removes `key` from the filter layer (its hint may go stale; hints
    /// are verified on use).
    #[inline]
    fn index_remove(&mut self, key: u64) {
        let b = bucket_of(key);
        self.bucket_rows[b] -= 1;
        if self.bucket_rows[b] == 0 {
            self.filter[b >> 6] &= !(1u64 << (b & 63));
        }
    }

    /// Detaches `row` from the recency list.
    fn unlink(&mut self, row: usize) {
        let (p, n) = (self.link_prev[row], self.link_next[row]);
        if p == NO_ROW {
            self.head = n;
        } else {
            self.link_next[p as usize] = n;
        }
        if n == NO_ROW {
            self.tail = p;
        } else {
            self.link_prev[n as usize] = p;
        }
    }

    /// Re-links `row` (already stamped `clock`) at its `(lru, key)`-sorted
    /// slot: the tail, unless tail rows share this stamp — touches within
    /// one trigger — in which case it walks back to key order within that
    /// tied group. The walk is bounded by the touches per trigger (≤ 3).
    fn link_at_tail(&mut self, row: usize, clock: u32) {
        let key = self.keys[row];
        let mut after = self.tail;
        while after != NO_ROW
            && self.lru[after as usize] == clock
            && self.keys[after as usize] > key
        {
            after = self.link_prev[after as usize];
        }
        let before = if after == NO_ROW {
            self.head
        } else {
            self.link_next[after as usize]
        };
        self.link_prev[row] = after;
        self.link_next[row] = before;
        if after == NO_ROW {
            self.head = row as u16;
        } else {
            self.link_next[after as usize] = row as u16;
        }
        if before == NO_ROW {
            self.tail = row as u16;
        } else {
            self.link_prev[before as usize] = row as u16;
        }
    }

    /// Moves a touched row to its recency slot.
    #[inline]
    fn touch(&mut self, row: usize, clock: u32) {
        self.lru[row] = clock;
        if self.tail == row as u16 {
            return; // already newest, and a tied tail group keeps key order
        }
        self.unlink(row);
        self.link_at_tail(row, clock);
    }

    /// The eviction victim: the recency-list head, i.e. the unique
    /// `(lru, key)` minimum over all rows, in O(1).
    fn victim(&self) -> usize {
        debug_assert_ne!(self.head, NO_ROW);
        self.head as usize
    }

    fn update(&mut self, key: u64, next: i8, clock: u32) {
        if let Some(i) = self.row_of(key) {
            self.next[i] = next;
            self.touch(i, clock);
            if i < 255 {
                self.hint[bucket_of(key)] = i as u8 + 1;
            }
            return;
        }
        if self.keys.len() == self.capacity {
            let v = self.victim();
            self.index_remove(self.keys[v]);
            self.unlink(v);
            self.keys[v] = key;
            self.next[v] = next;
            self.lru[v] = clock;
            self.link_at_tail(v, clock);
            self.index_insert(key, v);
        } else {
            let row = self.keys.len();
            self.keys.push(key);
            self.next.push(next);
            self.lru.push(clock);
            self.link_prev.push(NO_ROW);
            self.link_next.push(NO_ROW);
            self.link_at_tail(row, clock);
            self.index_insert(key, row);
        }
    }

    fn predict(&mut self, key: u64, clock: u32) -> Option<i8> {
        let i = self.row_of(key)?;
        self.touch(i, clock);
        if i < 255 {
            self.hint[bucket_of(key)] = i as u8 + 1;
        }
        Some(self.next[i])
    }
}

/// Per-page training state in the DRB, 8 bytes per page (everything but
/// the page tag and the LRU stamp, which live in dense scan columns of
/// [`Drb`]). Offsets are line indices within a page, so `i8` is exact.
#[derive(Debug, Clone, Copy)]
struct DrbData {
    last_offset: i8,
    first_offset: i8,
    /// Most recent deltas, oldest first (≤ `levels` entries).
    history: History,
    /// Access count, saturated at 3 — only the `== 2` transition (second
    /// access to the page) is ever consulted, for OPT training.
    accesses: u8,
}

/// The delta-history buffer: page tags in a dense `u64` column (for
/// [`find_u64`] lookup), the compact per-page state alongside, and an
/// intrusive recency list for O(1) LRU eviction — ~1 KiB at the paper's
/// 64 pages.
#[derive(Debug, Clone)]
struct Drb {
    pages: Vec<u64>,
    data: Vec<DrbData>,
    /// Recency-list links, as in [`DeltaTable`].
    link_prev: Vec<u16>,
    link_next: Vec<u16>,
    head: u16,
    tail: u16,
    /// Row of the most recent hit — miss streams revisit the same page for
    /// several lines in a row, so this answers most probes without the
    /// column sweep. Verified against `pages` before use.
    last_hit: usize,
    /// Last row seen for each page-hash bucket, +1 (0 = no hint; rows ≥ 255
    /// are never hinted). Covers the interleaved case `last_hit` cannot —
    /// alternating pages land in distinct buckets, so each probe still
    /// finds its row without the column sweep. Stale or colliding hints
    /// fail the key compare below and fall back to the sweep.
    hint: [u8; 256],
}

impl Drb {
    /// Row of `page`; equivalent to `find_u64(&pages, page)` (tags unique).
    #[inline]
    fn row_of(&self, page: u64) -> Option<usize> {
        if self.pages.get(self.last_hit) == Some(&page) {
            return Some(self.last_hit);
        }
        let h = self.hint[bucket_of(page)] as usize;
        if h > 0 && self.pages.get(h - 1) == Some(&page) {
            return Some(h - 1);
        }
        find_u64(&self.pages, page)
    }

    /// Records `row` as the freshest home of `page` for both fast probes.
    #[inline]
    fn remember(&mut self, page: u64, row: usize) {
        self.last_hit = row;
        if row < 255 {
            self.hint[bucket_of(page)] = row as u8 + 1;
        }
    }

    /// Detaches `row` from the recency list.
    fn unlink(&mut self, row: usize) {
        let (p, n) = (self.link_prev[row], self.link_next[row]);
        if p == NO_ROW {
            self.head = n;
        } else {
            self.link_next[p as usize] = n;
        }
        if n == NO_ROW {
            self.tail = p;
        } else {
            self.link_prev[n as usize] = p;
        }
    }

    /// Appends `row` at the tail (the newest slot). Exactly one page is
    /// touched per trigger, so stamps are unique and no tie walk exists:
    /// list order is stamp order, and the head is the oldest-stamp row
    /// (first occurrence on ties, vacuously).
    fn link_at_tail(&mut self, row: usize) {
        self.link_prev[row] = self.tail;
        self.link_next[row] = NO_ROW;
        if self.tail == NO_ROW {
            self.head = row as u16;
        } else {
            self.link_next[self.tail as usize] = row as u16;
        }
        self.tail = row as u16;
    }

    /// Moves a touched row to the newest slot.
    #[inline]
    fn touch(&mut self, row: usize) {
        if self.tail == row as u16 {
            return;
        }
        self.unlink(row);
        self.link_at_tail(row);
    }

    /// The eviction victim: the recency-list head, in O(1).
    fn victim(&self) -> usize {
        debug_assert_ne!(self.head, NO_ROW);
        self.head as usize
    }
}

/// The VLDP engine.
///
/// # Example
///
/// ```
/// use droplet_prefetch::{AccessEvent, EventKind, Prefetcher, VldpConfig, VldpPrefetcher};
/// use droplet_trace::{DataType, VirtAddr};
/// let mut pf = VldpPrefetcher::new(VldpConfig::paper());
/// let mut out = Vec::new();
/// for i in 0..6u64 {
///     pf.on_access(&AccessEvent {
///         vaddr: VirtAddr::new(0x40_0000 + i * 2 * 64), // +2-line stride
///         kind: EventKind::L1Miss,
///         is_structure: false,
///         dtype: DataType::Property,
///     }, &mut out);
/// }
/// assert!(!out.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct VldpPrefetcher {
    cfg: VldpConfig,
    drb: Drb,
    /// OPT: first line-offset in page → predicted first delta.
    opt: Vec<Option<i8>>,
    /// DPTs indexed by history length − 1.
    dpt: Vec<DeltaTable>,
    /// Miss counter driving the LRU stamps. `u32` keeps the stamp columns
    /// half the width of the key columns; overflow (> 2³²−1 L1 misses in
    /// one run) panics rather than corrupting recency order.
    clock: u32,
    issued: u64,
}

impl VldpPrefetcher {
    /// Creates an idle VLDP.
    ///
    /// # Panics
    ///
    /// Panics if any table capacity or the level count is zero, or if
    /// `levels` exceeds `MAX_LEVELS`.
    pub fn new(cfg: VldpConfig) -> Self {
        assert!(
            cfg.drb_pages > 0 && cfg.opt_entries > 0 && cfg.dpt_entries > 0 && cfg.levels > 0,
            "degenerate VLDP config"
        );
        assert!(
            cfg.levels <= MAX_LEVELS,
            "VLDP levels {} exceeds MAX_LEVELS {MAX_LEVELS}",
            cfg.levels
        );
        assert!(
            cfg.drb_pages < NO_ROW as usize,
            "DRB capacity must fit u16 recency links"
        );
        VldpPrefetcher {
            drb: Drb {
                pages: Vec::with_capacity(cfg.drb_pages),
                data: Vec::with_capacity(cfg.drb_pages),
                link_prev: Vec::with_capacity(cfg.drb_pages),
                link_next: Vec::with_capacity(cfg.drb_pages),
                head: NO_ROW,
                tail: NO_ROW,
                last_hit: usize::MAX,
                hint: [0; 256],
            },
            opt: vec![None; cfg.opt_entries],
            dpt: (0..cfg.levels)
                .map(|_| DeltaTable::new(cfg.dpt_entries))
                .collect(),
            cfg,
            clock: 0,
            issued: 0,
        }
    }

    fn lines_per_page() -> i64 {
        (PAGE_BYTES / LINE_BYTES) as i64
    }

    /// OPT slot of a first line-offset — a mask at the usual power-of-two
    /// table size, so the hot path carries no integer division.
    #[inline]
    fn opt_index(&self, offset: usize) -> usize {
        let n = self.cfg.opt_entries;
        if n.is_power_of_two() {
            offset & (n - 1)
        } else {
            offset % n
        }
    }

    /// Longest-history-first DPT lookup. `history.len` never exceeds
    /// `cfg.levels` (pushes are capped there), so the history's own packed
    /// key is the longest probe key.
    fn predict(&mut self, history: &History) -> Option<i8> {
        let clock = self.clock;
        let longest = (history.len as usize).min(self.cfg.levels);
        if longest == 0 {
            return None;
        }
        let mut key = history.key();
        for len in (1..=longest).rev() {
            if let Some(d) = self.dpt[len - 1].predict(key, clock) {
                return Some(d);
            }
            key = shorten(key);
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
        if offset < 0 || offset >= Self::lines_per_page() {
            return false;
        }
        let lines_per_page = Self::lines_per_page() as u64;
        out.push(PrefetchRequest {
            vline: page * lines_per_page + offset as u64,
            dtype: ev.dtype,
            into_l3_queue: false,
        });
        self.issued += 1;
        true
    }
}

impl Prefetcher for VldpPrefetcher {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        self.clock = self
            .clock
            .checked_add(1)
            .expect("VLDP LRU clock overflow: > u32::MAX L1 misses in one run");
        let clock = self.clock;
        let page = ev.page();
        let offset = ev.line_in_page() as i64;

        match self.drb.row_of(page) {
            None => {
                // First access to the page: consult the OPT.
                let opt_idx = self.opt_index(offset as usize);
                if let Some(d) = self.opt[opt_idx] {
                    self.emit(page, offset + d as i64, ev, out);
                }
                let data = DrbData {
                    last_offset: offset as i8,
                    first_offset: offset as i8,
                    history: History::default(),
                    accesses: 1,
                };
                if self.drb.pages.len() < self.cfg.drb_pages {
                    let row = self.drb.pages.len();
                    self.drb.remember(page, row);
                    self.drb.pages.push(page);
                    self.drb.data.push(data);
                    self.drb.link_prev.push(NO_ROW);
                    self.drb.link_next.push(NO_ROW);
                    self.drb.link_at_tail(row);
                } else {
                    let victim = self.drb.victim();
                    self.drb.unlink(victim);
                    self.drb.pages[victim] = page;
                    self.drb.data[victim] = data;
                    self.drb.link_at_tail(victim);
                    self.drb.remember(page, victim);
                }
            }
            Some(i) => {
                self.drb.remember(page, i);
                self.drb.touch(i);
                let (first_offset, second_access, delta, mut history) = {
                    let e = &mut self.drb.data[i];
                    let delta = offset as i8 - e.last_offset;
                    if delta == 0 {
                        return; // same line again; nothing to learn
                    }
                    e.last_offset = offset as i8;
                    if e.accesses < 3 {
                        e.accesses += 1;
                    }
                    (e.first_offset, e.accesses == 2, delta, e.history)
                };

                // Second access trains the OPT for this first-offset class.
                if second_access {
                    let opt_idx = self.opt_index(first_offset as usize);
                    self.opt[opt_idx] = Some(delta);
                }

                // Train every DPT with the observed history → delta pair.
                let longest = (history.len as usize).min(self.cfg.levels);
                if longest > 0 {
                    let mut key = history.key();
                    for len in (1..=longest).rev() {
                        self.dpt[len - 1].update(key, delta, clock);
                        key = shorten(key);
                    }
                }

                // Append the new delta to the page's history.
                history.push_capped(delta, self.cfg.levels);
                self.drb.data[i].history = history;

                // Cascaded prediction: walk forward up to `degree` steps.
                let mut cur = offset;
                let mut h = history;
                for _ in 0..self.cfg.degree {
                    let Some(d) = self.predict(&h) else { break };
                    cur += d as i64;
                    if !self.emit(page, cur, ev, out) {
                        break;
                    }
                    h.push_capped(d, self.cfg.levels);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "vldp"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::{DataType, VirtAddr};

    fn miss(page: u64, offset: u64) -> AccessEvent {
        AccessEvent {
            vaddr: VirtAddr::new(page * PAGE_BYTES + offset * LINE_BYTES),
            kind: EventKind::L1Miss,
            is_structure: false,
            dtype: DataType::Property,
        }
    }

    fn drive(pf: &mut VldpPrefetcher, accesses: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::new();
        for &(p, o) in accesses {
            pf.on_access(&miss(p, o), &mut out);
        }
        out.iter().map(|r| r.vline).collect()
    }

    #[test]
    fn constant_stride_is_learned_within_a_page() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        let got = drive(&mut pf, &[(9, 0), (9, 2), (9, 4), (9, 6)]);
        // After training the +2 delta, predictions run ahead: 8, 10, …
        assert!(got.contains(&(9 * 64 + 8)), "{got:?}");
    }

    #[test]
    fn longer_histories_win_over_shorter() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        // Pattern per page: +1, +3 alternating. History [1,3] → 1, [3,1] → 3.
        drive(&mut pf, &[(1, 0), (1, 1), (1, 4), (1, 5), (1, 8), (1, 9)]);
        // New page replays the same pattern; after (2,0),(2,1),(2,4) the
        // history [1,3] should predict +1 → offset 5 (not the DPT-1 answer).
        let got = drive(&mut pf, &[(2, 0), (2, 1), (2, 4)]);
        assert!(got.contains(&(2 * 64 + 5)), "{got:?}");
    }

    #[test]
    fn opt_predicts_on_first_access_of_a_new_page() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        // Page 5: first offset 0, then +4 → trains OPT[0] = +4.
        drive(&mut pf, &[(5, 0), (5, 4)]);
        // Fresh page first-touched at offset 0 predicts offset 4 immediately.
        let got = drive(&mut pf, &[(6, 0)]);
        assert_eq!(got, vec![6 * 64 + 4]);
    }

    #[test]
    fn predictions_never_cross_page_bounds() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        let got = drive(&mut pf, &[(3, 59), (3, 61), (3, 63)]);
        assert!(got.iter().all(|&l| l / 64 == 3), "{got:?}");
        assert!(got.iter().all(|&l| l % 64 < 64));
    }

    #[test]
    fn drb_capacity_bounded_by_lru() {
        let mut pf = VldpPrefetcher::new(VldpConfig {
            drb_pages: 2,
            ..VldpConfig::paper()
        });
        drive(&mut pf, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(pf.drb.pages.len(), 2);
        assert!(pf.drb.pages.iter().all(|&p| p != 1));
    }

    #[test]
    fn irregular_deltas_yield_poor_predictions() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        let got = drive(
            &mut pf,
            &[(7, 0), (7, 13), (7, 5), (7, 40), (7, 22), (7, 61)],
        );
        // Nothing repeats, so at most stale-history noise comes out.
        assert!(got.len() <= 2, "{got:?}");
    }

    #[test]
    fn same_line_repeat_is_ignored() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        let got = drive(&mut pf, &[(8, 3), (8, 3), (8, 3)]);
        assert!(got.is_empty());
        assert_eq!(pf.issued(), 0);
        assert_eq!(pf.name(), "vldp");
    }

    #[test]
    fn opt_trains_only_on_the_second_access() {
        let mut pf = VldpPrefetcher::new(VldpConfig::paper());
        // Page 4: offsets 0, 4, 5, 9 — OPT[0] must hold +4 (second access),
        // not be retrained by the later +1/+4 deltas.
        drive(&mut pf, &[(4, 0), (4, 4), (4, 5), (4, 9)]);
        let got = drive(&mut pf, &[(11, 0)]);
        assert_eq!(got, vec![11 * 64 + 4]);
    }

    #[test]
    fn packed_keys_preserve_equality_and_order() {
        // Check around the delta boundaries: packing preserves zero-padded
        // array equality and lexicographic order.
        let cases: Vec<Vec<i8>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![-1],
            vec![63],
            vec![-63],
            vec![1, -1],
            vec![-1, 1],
            vec![1, 0],
            vec![0, 1],
            vec![63, -63, 63],
            vec![-63, 63, -63],
            vec![2, 2, 2],
            vec![2, 2, 2, -5],
        ];
        let pad = |s: &[i8]| {
            let mut k = [0i64; MAX_LEVELS];
            for (slot, &d) in k.iter_mut().zip(s) {
                *slot = d as i64;
            }
            k
        };
        for a in &cases {
            for b in &cases {
                let (pa, pb) = (pack_suffix(a), pack_suffix(b));
                assert_eq!(pa == pb, pad(a) == pad(b), "{a:?} vs {b:?}");
                assert_eq!(pa.cmp(&pb), pad(a).cmp(&pad(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn shorten_matches_packing_the_shorter_suffix() {
        let h = [3i8, -7, 22, 63];
        for len in 1..=MAX_LEVELS {
            let key = pack_suffix(&h[MAX_LEVELS - len..]);
            for shorter in (1..len).rev() {
                let derived = (0..len - shorter).fold(key, |k, _| shorten(k));
                assert_eq!(derived, pack_suffix(&h[MAX_LEVELS - shorter..]));
            }
        }
    }

    #[test]
    fn incremental_history_key_matches_repacking_from_scratch() {
        // The lane math of `History::push_capped` must agree with the
        // reference bounded-Vec semantics (push, drop-oldest at cap) fed
        // through `pack_suffix`, for every cap and for delta sequences
        // crossing the sign and magnitude extremes.
        let deltas: [i8; 9] = [1, -1, 63, -63, 7, 0, -128, 127, 5];
        for cap in 1..=MAX_LEVELS {
            let mut h = History::default();
            let mut reference: Vec<i8> = Vec::new();
            assert_eq!(h.key(), pack_suffix(&reference));
            for &d in &deltas {
                h.push_capped(d, cap);
                reference.push(d);
                if reference.len() > cap {
                    reference.remove(0);
                }
                assert_eq!(
                    h.key(),
                    pack_suffix(&reference),
                    "cap {cap} after {reference:?}"
                );
                assert_eq!(h.len as usize, reference.len());
            }
        }
    }

    #[test]
    fn delta_table_eviction_prefers_oldest_then_smallest_key() {
        let mut t = DeltaTable::new(2);
        t.update(pack_suffix(&[5]), 1, 1);
        t.update(pack_suffix(&[3]), 2, 1); // tied LRU stamp with [5]
        t.update(pack_suffix(&[7]), 3, 2); // evicts the smaller key, [3]
        assert!(t.predict(pack_suffix(&[5]), 3).is_some());
        assert!(t.predict(pack_suffix(&[3]), 3).is_none());
        assert_eq!(t.predict(pack_suffix(&[7]), 3), Some(3));
    }
}
