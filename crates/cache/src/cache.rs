//! A set-associative, write-back cache with pluggable replacement and
//! prefetch bookkeeping.
//!
//! Lines are identified by their (physical) line index. Fills may carry a
//! future `ready_at` cycle: the tag is allocated immediately (MSHR-style)
//! but a demand hit before `ready_at` is a *late prefetch hit* and exposes
//! the residual latency — this is how DROPLET's timeliness advantage over a
//! monolithic L1 prefetcher (Section VII-B) becomes measurable.
//!
//! Replacement is selected by [`CacheConfig::policy`]: the default
//! [`ReplacementPolicy::Lru`] keeps the original stamp-LRU fast path
//! bit-identical, while the RRIP family reinterprets the same dense stamp
//! array as per-way RRPVs (see `crate::policy` for the exact semantics).

use crate::config::CacheConfig;
use crate::policy::{
    ship_signature, DuelRole, ReplacementPolicy, BRRIP_LONG_PERIOD, PSEL_INIT, PSEL_MAX, RRPV_LONG,
    RRPV_MAX, SHCT_ENTRIES, SHCT_INIT, SHCT_MAX,
};
use crate::stats::CacheStats;
use droplet_trace::{find_u64, Cycle, DataType};

/// Sentinel tag for an invalid way. Physical line indices are derived from
/// frame numbers a demand-populated page table assigns sequentially from 1,
/// so no real line ever reaches `u64::MAX`.
const TAG_INVALID: u64 = u64::MAX;

/// Per-line payload, index-parallel with the tag array. The tag (line
/// index and validity, folded into one `u64` via [`TAG_INVALID`]) lives in
/// a separate dense array so the way-matching scan — the innermost loop of
/// every touch/fill/probe — streams 8 bytes per way instead of the whole
/// record.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    /// Cycle at which the data is actually present.
    ready_at: Cycle,
    dtype: DataType,
    dirty: bool,
    /// Filled by a prefetcher (vs the demand path).
    prefetched: bool,
    /// Has seen at least one demand access since fill.
    used: bool,
    /// System-level accuracy tag: `Some(dtype)` while an outstanding
    /// prefetch to this line awaits its first demand use. Replaces an
    /// external `HashMap<line, DataType>` side table — the tag travels with
    /// the line and is reclaimed through [`EvictedLine::tracked`], so the
    /// demand path never hashes.
    tracked: Option<DataType>,
    /// SHiP region signature recorded at fill ([`ReplacementPolicy::Ship`]
    /// only; 0 otherwise).
    sig: u16,
    /// SHiP outcome bit: the line has seen a demand re-reference since
    /// fill, so its signature was already trained up. Distinct from `used`,
    /// which also flips on demand refresh-fills of prefetched lines.
    ship_reused: bool,
}

impl LineMeta {
    const EMPTY: LineMeta = LineMeta {
        ready_at: 0,
        dtype: DataType::Structure,
        dirty: false,
        prefetched: false,
        used: false,
        tracked: None,
        sig: 0,
        ship_reused: false,
    };
}

/// Test-only fault injection for the conformance suite.
///
/// The differential conformance tests (`crates/conformance`) must prove they
/// can *catch* a replacement-policy bug, not just pass on correct code.
/// These mutations plant such bugs behind a runtime flag that defaults to
/// [`CacheMutation::None`]; nothing in the simulator ever sets it. The LRU
/// mutations live on the fill path only, and [`CacheMutation::RripPromoteFlip`]
/// sits inside the RRIP-only promotion branch, so the disabled checks stay
/// off the LRU hot hit path entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMutation {
    /// Production behaviour.
    #[default]
    None,
    /// Victim selection is flipped: a fill into a full set evicts the
    /// *most* recently used way instead of the LRU way.
    LruFlip,
    /// Refreshing an already-resident line during [`SetAssocCache::fill`]
    /// does not bump its recency stamp — the classic "forgot to touch on
    /// refresh" LRU bug, observable only via later eviction choices.
    StaleRefresh,
    /// RRIP-family hit promotion is inverted: a demand hit writes
    /// [`RRPV_MAX`] instead of 0, so hot lines look dead to the victim
    /// scan — the "promotion forgot which direction RRPVs grow" bug.
    RripPromoteFlip,
    /// A SHiP fill keeps the signature left behind by the slot's previous
    /// occupant instead of recording the incoming line's signature, so all
    /// later SHCT training credits the wrong region.
    ShipStaleSignature,
}

/// Result of a demand hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// Cycle at which the data can be forwarded (≥ `now` for in-flight lines).
    pub ready_at: Cycle,
    /// This hit was the first demand use of a prefetched line.
    pub first_prefetch_use: bool,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line index.
    pub line: u64,
    /// Needs a write-back.
    pub dirty: bool,
    /// Was brought in by a prefetcher.
    pub prefetched: bool,
    /// Saw at least one demand use.
    pub used: bool,
    /// Data type recorded at fill time.
    pub dtype: DataType,
    /// Accuracy tag still pending at eviction (the prefetch was wasted).
    pub tracked: Option<DataType>,
}

/// Parameters of a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillInfo {
    /// Data type of the filled line.
    pub dtype: DataType,
    /// `true` when a prefetcher (not the demand path) performed the fill.
    pub prefetched: bool,
    /// When the data arrives (tag allocated immediately).
    pub ready_at: Cycle,
    /// Fill the line already dirty (demand store allocation).
    pub dirty: bool,
    /// Install a system-level accuracy tag (see `LineMeta::tracked`).
    pub track: bool,
}

impl FillInfo {
    /// A demand fill whose data is ready at `ready_at`.
    pub fn demand(dtype: DataType, ready_at: Cycle) -> Self {
        FillInfo {
            dtype,
            prefetched: false,
            ready_at,
            dirty: false,
            track: false,
        }
    }

    /// A prefetch fill whose data arrives at `ready_at`.
    pub fn prefetch(dtype: DataType, ready_at: Cycle) -> Self {
        FillInfo {
            dtype,
            prefetched: true,
            ready_at,
            dirty: false,
            track: false,
        }
    }

    /// Marks the fill dirty (store allocation).
    #[must_use]
    pub fn dirty(mut self) -> Self {
        self.dirty = true;
        self
    }

    /// Installs the system-level accuracy tag along with the fill.
    #[must_use]
    pub fn tracked(mut self) -> Self {
        self.track = true;
        self
    }
}

/// A set-associative cache with a pluggable replacement policy
/// (true LRU by default).
///
/// # Example
///
/// ```
/// use droplet_cache::{CacheConfig, FillInfo, SetAssocCache};
/// use droplet_trace::DataType;
/// let mut c = SetAssocCache::new(CacheConfig::l1d());
/// c.fill(7, FillInfo::prefetch(DataType::Property, 100));
/// // A demand access at cycle 50 hits, but the data is not there yet.
/// let hit = c.touch(7, 50, DataType::Property, false).unwrap();
/// assert_eq!(hit.ready_at, 100);
/// assert!(hit.first_prefetch_use);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    set_mask: u64,
    assoc: usize,
    /// Copy of `cfg.policy`, hoisted out of the config for the hot paths.
    policy: ReplacementPolicy,
    /// Way tags of all sets in one flat allocation: set `s` occupies
    /// `tags[s * assoc .. (s + 1) * assoc]`. A way holds its resident line
    /// index, or [`TAG_INVALID`].
    tags: Vec<u64>,
    /// Replacement state, index-parallel with `tags`. Under LRU these are
    /// recency stamps (larger = more recently touched; the minimum stamp of
    /// a set is its LRU way, and a hit is one in-place stamp store — no
    /// per-access allocation or element shifting as with reorder-on-touch
    /// LRU lists). Under the RRIP family the same array holds 2-bit RRPVs
    /// (smaller = sooner re-reference predicted). Kept as a dense array
    /// (not a `LineMeta` field) so the fill path's victim scan streams
    /// 8 bytes per way.
    stamps: Vec<u64>,
    /// Per-way payload, index-parallel with `tags`.
    meta: Vec<LineMeta>,
    /// Monotonic recency clock; bumped on every touch/fill.
    tick: u64,
    /// Flat-array indices of the last two distinct demand hits, most recent
    /// first. Graph traces touch the same line repeatedly (8 neighbor IDs or
    /// ranks per 64 B line) and *alternate* between regions (offsets →
    /// neighbors → ranks), so [`SetAssocCache::touch`] checks these ways
    /// first and skips the set scan when one still matches. Self-validating:
    /// a fill or invalidation rewrites the tag, which makes the check fail —
    /// no hooks needed, and a memo hit performs the same stamp/stat updates
    /// as a scan hit.
    memo: [usize; 2],
    /// Number of resident lines carrying an accuracy tag; lets the demand
    /// path skip the tag probe entirely when no prefetches are in flight.
    tracked_count: usize,
    /// Counting presence filter over a multiplicative hash of resident
    /// line indices: a zero counter *proves* the line is absent, letting
    /// miss-dominated probes — inclusion back-invalidations into private
    /// caches that almost never hold the line, touches of caches with high
    /// miss rates, coherence snoops — skip the set scan entirely. Nonzero
    /// counters fall through to the exact tag scan, so the filter is pure
    /// acceleration: hit/miss outcomes are bit-identical with or without
    /// it. Sized at 2× the line count (min 64) so `u32` counters cannot
    /// overflow and the all-miss fast path stays one load + compare.
    presence: Vec<u32>,
    /// `64 − log2(presence.len())`: the multiply-shift hash shift.
    presence_shift: u32,
    /// Conformance-suite fault injection; [`CacheMutation::None`] in
    /// production, only ever set via [`SetAssocCache::set_test_mutation`].
    mutation: CacheMutation,
    /// DRRIP policy-selection counter (≥ [`PSEL_INIT`] ⇒ followers run
    /// BRRIP). Initialized to the midpoint; untouched by other policies.
    psel: u16,
    /// Deterministic BRRIP bimodal counter: every
    /// [`BRRIP_LONG_PERIOD`]-th bimodal insertion goes long.
    brrip_ctr: u64,
    /// SHiP signature history counter table ([`SHCT_ENTRIES`] 2-bit
    /// counters); empty unless the policy is [`ReplacementPolicy::Ship`].
    shct: Vec<u8>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and policy.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let shct = match cfg.policy {
            ReplacementPolicy::Ship => vec![SHCT_INIT; SHCT_ENTRIES],
            _ => Vec::new(),
        };
        let presence_len = (num_sets * cfg.assoc * 2).next_power_of_two().max(64);
        SetAssocCache {
            set_mask: num_sets as u64 - 1,
            assoc: cfg.assoc,
            policy: cfg.policy,
            tags: vec![TAG_INVALID; num_sets * cfg.assoc],
            stamps: vec![0; num_sets * cfg.assoc],
            meta: vec![LineMeta::EMPTY; num_sets * cfg.assoc],
            tick: 0,
            memo: [0, 0],
            tracked_count: 0,
            presence: vec![0; presence_len],
            presence_shift: 64 - presence_len.trailing_zeros(),
            mutation: CacheMutation::None,
            psel: PSEL_INIT,
            brrip_ctr: 0,
            shct,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents) — used at the end of cache warm-up.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The flat-array span of the set `line` maps to.
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line & self.set_mask) as usize * self.assoc;
        base..base + self.assoc
    }

    /// The presence-filter bucket of `line` (Fibonacci multiply-shift, so
    /// dense line runs from different regions spread across the counters).
    #[inline]
    fn presence_bucket(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.presence_shift) as usize
    }

    /// `false` proves `line` is not resident (skip the scan); `true` means
    /// "possibly resident" and the caller runs the exact tag scan.
    #[inline]
    fn maybe_resident(&self, line: u64) -> bool {
        self.presence[self.presence_bucket(line)] != 0
    }

    /// Records `line` becoming resident.
    #[inline]
    fn presence_add(&mut self, line: u64) {
        let b = self.presence_bucket(line);
        self.presence[b] += 1;
    }

    /// Records `line` leaving the cache (eviction or invalidation).
    #[inline]
    fn presence_remove(&mut self, line: u64) {
        let b = self.presence_bucket(line);
        self.presence[b] -= 1;
    }

    /// Checks residency without touching LRU state or statistics (the
    /// coherence-engine probe the MPP uses to avoid redundant DRAM
    /// prefetches, Section V-A).
    pub fn contains(&self, line: u64) -> bool {
        // Invalid ways hold `TAG_INVALID`, which no real line equals, so a
        // plain tag compare suffices.
        self.maybe_resident(line) && find_u64(&self.tags[self.set_range(line)], line).is_some()
    }

    /// A demand access to `line` at cycle `now`. Returns hit info, or
    /// `None` on a miss. Updates replacement state, usefulness bits, and
    /// statistics.
    pub fn touch(
        &mut self,
        line: u64,
        now: Cycle,
        dtype: DataType,
        is_store: bool,
    ) -> Option<HitInfo> {
        self.stats.demand_accesses.bump(dtype);
        let stamp = self.tick;
        // A matching tag can only live in `line`'s own set, so the memo
        // needs no set check to be sound.
        let way = if self.tags[self.memo[0]] == line {
            self.memo[0]
        } else if self.tags[self.memo[1]] == line {
            self.memo.swap(0, 1);
            self.memo[0]
        } else {
            if !self.maybe_resident(line) {
                return None;
            }
            let range = self.set_range(line);
            let hit = find_u64(&self.tags[range.clone()], line)?;
            self.memo = [range.start + hit, self.memo[0]];
            self.memo[0]
        };
        if self.policy == ReplacementPolicy::Lru {
            self.stamps[way] = stamp;
        } else {
            // Hit promotion: near-immediate re-reference predicted.
            self.stamps[way] = if self.mutation == CacheMutation::RripPromoteFlip {
                RRPV_MAX
            } else {
                0
            };
            if self.policy == ReplacementPolicy::Ship && !self.meta[way].ship_reused {
                // First demand re-reference trains the signature up.
                self.meta[way].ship_reused = true;
                let sig = self.meta[way].sig as usize;
                let c = &mut self.shct[sig];
                *c = (*c + 1).min(SHCT_MAX);
            }
        }
        let entry = &mut self.meta[way];
        let first_prefetch_use = entry.prefetched && !entry.used;
        entry.used = true;
        entry.dirty |= is_store;
        let ready_at = entry.ready_at.max(now);
        self.tick += 1;
        self.stats.demand_hits.bump(dtype);
        if first_prefetch_use {
            self.stats.prefetch_first_uses.bump(dtype);
        }
        if ready_at > now {
            self.stats.late_prefetch_hits.bump(dtype);
        }
        Some(HitInfo {
            ready_at,
            first_prefetch_use,
        })
    }

    /// Fills `line`, evicting the policy's victim from its set if full. If
    /// the line is already resident the existing entry is refreshed instead
    /// (its `ready_at` keeps the earlier of the two arrival times).
    pub fn fill(&mut self, line: u64, info: FillInfo) -> Option<EvictedLine> {
        if info.prefetched {
            self.stats.prefetch_fills.bump(info.dtype);
        } else {
            self.stats.demand_fills.bump(info.dtype);
        }
        let stamp = self.tick;
        self.tick += 1;
        let lru = self.policy == ReplacementPolicy::Lru;
        // What a refresh of a resident line writes: the fresh recency stamp
        // under LRU, RRPV 0 (re-reference observed) under the RRIP family.
        let refresh_val = if lru { stamp } else { 0 };
        let range = self.set_range(line);
        // One fused tag scan resolves all three cases: refresh a resident
        // line, or pick the victim way (first invalid, else minimum stamp =
        // LRU; the RRIP victim scan below reuses the same sliced array).
        // The fill path is dominated by misses installing into full sets,
        // so fusing the scans keeps it one pass over the dense tag/stamp
        // arrays; only the chosen way touches the payload array.
        let mut invalid_idx = None;
        let mut lru_idx = 0;
        let mut lru_stamp = u64::MAX;
        // Pre-slice the set's tags and stamps: the compiler then knows both
        // loops below are in bounds (`assoc` == slice length), dropping the
        // per-way bounds checks from the hottest loop in the simulator.
        let set_tags = &self.tags[range.clone()];
        let set_stamps = &mut self.stamps[range.clone()];
        for i in 0..self.assoc {
            let t = set_tags[i];
            if t == TAG_INVALID {
                invalid_idx.get_or_insert(i);
                continue;
            }
            if t == line {
                if self.mutation != CacheMutation::StaleRefresh {
                    set_stamps[i] = refresh_val;
                }
                let w = &mut self.meta[range.start + i];
                w.ready_at = w.ready_at.min(info.ready_at);
                w.dirty |= info.dirty;
                // First-writer-wins, like an `or_insert` on the old side
                // table: a refresh never overwrites an existing tag.
                if info.track && w.tracked.is_none() {
                    w.tracked = Some(info.dtype);
                    self.tracked_count += 1;
                }
                // A demand fill of a previously prefetched line counts as
                // a use.
                if !info.prefetched && w.prefetched && !w.used {
                    w.used = true;
                    self.stats.prefetch_first_uses.bump(w.dtype);
                }
                return None;
            }
            let s = set_stamps[i];
            if s < lru_stamp {
                lru_stamp = s;
                lru_idx = i;
            }
        }
        let victim_idx = match invalid_idx {
            Some(i) => i,
            None if !lru => self.rrip_victim(range.clone()),
            None if self.mutation == CacheMutation::LruFlip => {
                // Injected bug: evict the MRU way instead of the LRU way.
                (0..self.assoc)
                    .max_by_key(|&i| self.stamps[range.start + i])
                    .unwrap()
            }
            None => lru_idx,
        };
        let way = range.start + victim_idx;
        let evicted = match invalid_idx {
            Some(_) => None,
            None => {
                let victim = self.meta[way];
                if victim.prefetched && !victim.used {
                    self.stats.prefetch_unused_evictions.bump(victim.dtype);
                }
                if self.policy == ReplacementPolicy::Ship && !victim.ship_reused {
                    // Evicted dead: train the signature down.
                    let c = &mut self.shct[victim.sig as usize];
                    *c = c.saturating_sub(1);
                }
                Some(EvictedLine {
                    line: self.tags[way],
                    dirty: victim.dirty,
                    prefetched: victim.prefetched,
                    used: victim.used,
                    dtype: victim.dtype,
                    tracked: victim.tracked,
                })
            }
        };
        // Victim training above precedes the insertion prediction below, so
        // a line whose signature was just demoted sees its own demotion.
        let (insert_val, sig) = if lru {
            (stamp, 0)
        } else {
            let sig = if self.policy != ReplacementPolicy::Ship {
                0
            } else if self.mutation == CacheMutation::ShipStaleSignature {
                // Injected bug: inherit the slot's previous signature.
                self.meta[way].sig
            } else {
                ship_signature(line)
            };
            (self.insertion_rrpv(line, &info), sig)
        };
        if let Some(ev) = &evicted {
            self.presence_remove(ev.line);
        }
        self.presence_add(line);
        self.tags[way] = line;
        self.stamps[way] = insert_val;
        self.meta[way] = LineMeta {
            ready_at: info.ready_at,
            dtype: info.dtype,
            dirty: info.dirty,
            prefetched: info.prefetched,
            used: false,
            tracked: info.track.then_some(info.dtype),
            sig,
            ship_reused: false,
        };
        if info.track {
            self.tracked_count += 1;
        }
        if let Some(ev) = &evicted {
            if ev.tracked.is_some() {
                self.tracked_count -= 1;
            }
        }
        evicted
    }

    /// RRIP victim selection over a full set: the lowest-indexed way at
    /// [`RRPV_MAX`], aging every way by +1 until one qualifies (at most
    /// [`RRPV_MAX`] rounds, since every RRPV is ≤ [`RRPV_MAX`]).
    #[cold]
    fn rrip_victim(&mut self, range: std::ops::Range<usize>) -> usize {
        let set_stamps = &mut self.stamps[range];
        loop {
            for (i, s) in set_stamps.iter().enumerate() {
                if *s >= RRPV_MAX {
                    return i;
                }
            }
            for s in set_stamps.iter_mut() {
                *s += 1;
            }
        }
    }

    /// Insertion RRPV for a new line under the RRIP family, advancing the
    /// policy's adaptive state (PSEL / bimodal counter) as a side effect.
    fn insertion_rrpv(&mut self, line: u64, info: &FillInfo) -> u64 {
        let effective = match self.policy {
            ReplacementPolicy::Drrip => {
                let num_sets = self.set_mask as usize + 1;
                let set = (line & self.set_mask) as usize;
                let role = DuelRole::of_set(set, num_sets);
                // Demand miss-fills into leader sets train the selector
                // against the leader's own policy.
                if !info.prefetched {
                    match role {
                        DuelRole::SrripLeader => self.psel = (self.psel + 1).min(PSEL_MAX),
                        DuelRole::BrripLeader => self.psel = self.psel.saturating_sub(1),
                        DuelRole::Follower => {}
                    }
                }
                match role {
                    DuelRole::SrripLeader => ReplacementPolicy::Srrip,
                    DuelRole::BrripLeader => ReplacementPolicy::Brrip,
                    DuelRole::Follower if self.psel >= PSEL_INIT => ReplacementPolicy::Brrip,
                    DuelRole::Follower => ReplacementPolicy::Srrip,
                }
            }
            p => p,
        };
        match effective {
            ReplacementPolicy::Srrip => RRPV_LONG,
            ReplacementPolicy::Brrip => {
                self.brrip_ctr += 1;
                if self.brrip_ctr.is_multiple_of(BRRIP_LONG_PERIOD) {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
            ReplacementPolicy::Ship => {
                if self.shct[ship_signature(line) as usize] == 0 {
                    RRPV_MAX
                } else {
                    RRPV_LONG
                }
            }
            // `Lru` never reaches here; `Drrip` resolved above.
            _ => unreachable!(),
        }
    }

    /// Removes `line` (inclusion back-invalidation), returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
        if !self.maybe_resident(line) {
            return None;
        }
        let range = self.set_range(line);
        let hit = find_u64(&self.tags[range.clone()], line)?;
        let way = range.start + hit;
        self.presence_remove(line);
        self.tags[way] = TAG_INVALID;
        let victim = self.meta[way];
        self.stats.inclusion_invalidations += 1;
        if victim.prefetched && !victim.used {
            self.stats.prefetch_unused_evictions.bump(victim.dtype);
        }
        if victim.tracked.is_some() {
            self.tracked_count -= 1;
        }
        Some(EvictedLine {
            line,
            dirty: victim.dirty,
            prefetched: victim.prefetched,
            used: victim.used,
            dtype: victim.dtype,
            tracked: victim.tracked,
        })
    }

    /// Consumes the accuracy tag of `line`, if any. A pure tag operation:
    /// no LRU or statistics side effects, so the demand path can settle
    /// outstanding-prefetch accounting on every access (even L1 hits)
    /// without perturbing cache state.
    pub fn take_tracked(&mut self, line: u64) -> Option<DataType> {
        if self.tracked_count == 0 || !self.maybe_resident(line) {
            return None;
        }
        let range = self.set_range(line);
        let hit = find_u64(&self.tags[range.clone()], line)?;
        let tag = self.meta[range.start + hit].tracked.take();
        if tag.is_some() {
            self.tracked_count -= 1;
        }
        tag
    }

    /// Installs an accuracy tag on an already-resident `line` (the copy-up
    /// path of a prefetch that hit in this cache). First-writer-wins like
    /// [`FillInfo::tracked`]; returns whether the line was resident.
    pub fn mark_tracked(&mut self, line: u64, dtype: DataType) -> bool {
        if !self.maybe_resident(line) {
            return false;
        }
        let range = self.set_range(line);
        match find_u64(&self.tags[range.clone()], line) {
            Some(hit) => {
                let w = &mut self.meta[range.start + hit];
                if w.tracked.is_none() {
                    w.tracked = Some(dtype);
                    self.tracked_count += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Whether any resident line carries an accuracy tag — the O(1) gate
    /// the demand path checks before probing.
    pub fn has_tracked(&self) -> bool {
        self.tracked_count > 0
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }

    /// Arms a [`CacheMutation`] — conformance-suite use only. The injected
    /// bugs exist so the differential tests can prove they catch and shrink
    /// real replacement-policy regressions.
    #[doc(hidden)]
    pub fn set_test_mutation(&mut self, mutation: CacheMutation) {
        self.mutation = mutation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways of 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            name: "tiny",
            size_bytes: 512,
            assoc: 2,
            tag_latency: 1,
            data_latency: 2,
            policy: ReplacementPolicy::Lru,
        })
    }

    const P: DataType = DataType::Property;
    const S: DataType = DataType::Structure;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(c.touch(0, 0, P, false).is_none());
        assert!(c.fill(0, FillInfo::demand(P, 5)).is_none());
        let hit = c.touch(0, 10, P, false).unwrap();
        assert_eq!(hit.ready_at, 10);
        assert!(!hit.first_prefetch_use);
        assert_eq!(c.stats().demand_hits.get(P), 1);
        assert_eq!(c.stats().demand_accesses.get(P), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, FillInfo::demand(P, 0));
        c.fill(4, FillInfo::demand(P, 0));
        c.touch(0, 1, P, false); // refresh 0; 4 becomes LRU
        let ev = c.fill(8, FillInfo::demand(P, 0)).unwrap();
        assert_eq!(ev.line, 4);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn late_prefetch_exposes_residual_latency() {
        let mut c = tiny();
        c.fill(3, FillInfo::prefetch(S, 100));
        let hit = c.touch(3, 40, S, false).unwrap();
        assert_eq!(hit.ready_at, 100);
        assert!(hit.first_prefetch_use);
        assert_eq!(c.stats().late_prefetch_hits.get(S), 1);
        assert_eq!(c.stats().prefetch_first_uses.get(S), 1);
        // A second touch is no longer a first use.
        let hit2 = c.touch(3, 200, S, false).unwrap();
        assert!(!hit2.first_prefetch_use);
        assert_eq!(hit2.ready_at, 200);
    }

    #[test]
    fn unused_prefetch_eviction_counts_as_inaccurate() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(S, 0));
        c.fill(4, FillInfo::demand(P, 0));
        c.fill(8, FillInfo::demand(P, 0)); // evicts prefetched line 0
        assert_eq!(c.stats().prefetch_unused_evictions.get(S), 1);
        assert_eq!(c.stats().prefetch_accuracy(S), 0.0);
    }

    #[test]
    fn refill_of_resident_line_keeps_earliest_ready() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(P, 100));
        assert!(c.fill(0, FillInfo::demand(P, 50)).is_none());
        let hit = c.touch(0, 60, P, false).unwrap();
        assert_eq!(hit.ready_at, 60);
        // Demand fill of a prefetched, unused line counted as a use.
        assert_eq!(c.stats().prefetch_first_uses.get(P), 1);
    }

    #[test]
    fn store_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(0, FillInfo::demand(P, 0));
        c.touch(0, 1, P, true);
        c.fill(4, FillInfo::demand(P, 0));
        let ev = c.fill(8, FillInfo::demand(P, 0)).unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(S, 0));
        let ev = c.invalidate(0).unwrap();
        assert_eq!(ev.line, 0);
        assert!(!c.contains(0));
        assert_eq!(c.stats().inclusion_invalidations, 1);
        assert_eq!(c.stats().prefetch_unused_evictions.get(S), 1);
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn contains_is_side_effect_free() {
        let mut c = tiny();
        c.fill(0, FillInfo::demand(P, 0));
        let before = *c.stats();
        assert!(c.contains(0));
        assert!(!c.contains(9));
        assert_eq!(
            c.stats().demand_accesses.total(),
            before.demand_accesses.total()
        );
    }

    #[test]
    fn tracked_tag_lifecycle() {
        let mut c = tiny();
        assert!(!c.has_tracked());
        c.fill(0, FillInfo::prefetch(S, 10).tracked());
        assert!(c.has_tracked());
        // Consuming the tag is one-shot and side-effect free on stats.
        let before = *c.stats();
        assert_eq!(c.take_tracked(0), Some(S));
        assert_eq!(c.take_tracked(0), None);
        assert!(!c.has_tracked());
        assert_eq!(
            c.stats().demand_accesses.total(),
            before.demand_accesses.total()
        );
    }

    #[test]
    fn tracked_tag_first_writer_wins() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(S, 0).tracked());
        // Refresh with a different dtype must not overwrite the tag.
        c.fill(0, FillInfo::prefetch(P, 0).tracked());
        assert!(c.mark_tracked(0, P)); // resident, but tag already set
        assert_eq!(c.take_tracked(0), Some(S));
        assert!(!c.mark_tracked(9, P)); // not resident
    }

    #[test]
    fn eviction_reports_pending_tag() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(S, 0).tracked());
        c.fill(4, FillInfo::demand(P, 0));
        let ev = c.fill(8, FillInfo::demand(P, 0)).unwrap();
        assert_eq!(ev.line, 0);
        assert_eq!(ev.tracked, Some(S));
        assert!(!c.has_tracked());
    }

    #[test]
    fn invalidate_reports_pending_tag() {
        let mut c = tiny();
        c.fill(0, FillInfo::prefetch(S, 0));
        assert!(c.mark_tracked(0, S));
        let ev = c.invalidate(0).unwrap();
        assert_eq!(ev.tracked, Some(S));
        assert!(!c.has_tracked());
    }

    #[test]
    fn occupancy_tracks_fills() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        for l in 0..8 {
            c.fill(l, FillInfo::demand(P, 0));
        }
        assert_eq!(c.occupancy(), 8); // full: 4 sets × 2 ways
        c.fill(8, FillInfo::demand(P, 0));
        assert_eq!(c.occupancy(), 8);
    }
}
