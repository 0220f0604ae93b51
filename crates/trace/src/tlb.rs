//! A small fully-associative LRU TLB model.
//!
//! Used twice in the reproduction: as the core-side L1D TLB (whose entries
//! carry the extra structure bit, Fig. 9(b) ❶) and as the near-memory MTLB
//! inside the MPP (Section V-C3), which caches only property-page mappings
//! and participates in shootdowns via [`Tlb::invalidate_matching`].
//!
//! Recency is tracked with per-slot u64 stamps from a monotonic tick (the
//! same scheme as the packed set-associative cache): a hit is one in-place
//! stamp store, and eviction picks the minimum-stamp slot. The previous
//! implementation kept a reorder-on-touch `Vec` (MRU at the back), which
//! cost an O(capacity) element shift on *every* hit — measurable at 64–128
//! entries when the TLB sits on the per-op demand path. The stamp scheme is
//! pinned to the reorder-on-touch semantics by the conformance suite's
//! `TlbHarness`, which replays it in lockstep against `RefTlb`.

use crate::page::PageEntry;
use crate::scan::{find_u64, min_index_u64};

/// A fully-associative, true-LRU TLB over virtual page numbers.
///
/// The three per-slot attributes live in parallel arrays
/// (structure-of-arrays): the lookup scan touches only the dense `vpns`
/// array (8 bytes per slot instead of a 32-byte record), and the
/// eviction-victim scan touches only `stamps`. At 64 entries that is the
/// difference between streaming 512 B and 2 KiB per demand access.
///
/// # Example
///
/// ```
/// use droplet_trace::{PageEntry, Tlb};
/// let mut tlb = Tlb::new(2);
/// let e = PageEntry { frame: 7, structure: false };
/// assert!(tlb.access(1, || e).is_none()); // cold miss
/// assert!(tlb.access(1, || e).is_some()); // hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Resident virtual page numbers; the only array the lookup scans.
    vpns: Vec<u64>,
    /// Recency stamps; larger = more recently touched. Stamps are unique
    /// (one tick per touch), so the minimum identifies the LRU slot.
    stamps: Vec<u64>,
    /// Cached translations, index-parallel with `vpns`.
    entries: Vec<PageEntry>,
    /// Monotonic recency clock; bumped on every access.
    tick: u64,
    /// Slots of the last two distinct hits, most recent first. Graph
    /// traversal repeats a page (consecutive lines of one neighbor list)
    /// and alternates between regions (offsets → neighbors → ranks): slot
    /// 0 catches consecutive repeats of a page, and the two slots together
    /// catch the alternation where one cannot. The memo is
    /// self-validating (the slot's VPN is re-checked on every use), so
    /// evictions and `swap_remove` need no invalidation hooks, and a memo
    /// hit still refreshes the stamp: behaviour is identical to the scan,
    /// it just skips the search.
    memo: [usize; 2],
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Creates a TLB with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            capacity,
            vpns: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            tick: 0,
            memo: [usize::MAX, usize::MAX],
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Looks up `vpn`. On a hit returns the cached entry (refreshing LRU).
    /// On a miss, calls `walk` to obtain the entry, inserts it (evicting the
    /// LRU entry if full), and returns `None` so the caller can charge the
    /// page-walk latency.
    #[inline]
    pub fn access(&mut self, vpn: u64, walk: impl FnOnce() -> PageEntry) -> Option<PageEntry> {
        let (entry, hit) = self.access_entry(vpn, walk);
        hit.then_some(entry)
    }

    /// Like [`Tlb::access`], but returns the entry in both cases along with
    /// the hit flag — the demand path needs the translation regardless, and
    /// re-probing after a miss would cost a second scan.
    #[inline]
    pub fn access_entry(
        &mut self,
        vpn: u64,
        walk: impl FnOnce() -> PageEntry,
    ) -> (PageEntry, bool) {
        self.access_or_walk(vpn, || Some(walk()))
            .expect("infallible walk")
    }

    /// Like [`Tlb::access_entry`], but with a fallible walk: when `walk`
    /// returns `None` (a page fault), the TLB is left completely untouched —
    /// no stats, no recency bump, no insertion — exactly as if the lookup
    /// had been a side-effect-free probe. This is the MTLB's drop-on-fault
    /// policy (Section V-C3) in one scan instead of a probe + re-access.
    #[inline]
    pub fn access_or_walk(
        &mut self,
        vpn: u64,
        walk: impl FnOnce() -> Option<PageEntry>,
    ) -> Option<(PageEntry, bool)> {
        let stamp = self.tick;
        for k in 0..2 {
            let i = self.memo[k];
            if self.vpns.get(i) == Some(&vpn) {
                self.tick += 1;
                self.memo = [i, self.memo[1 - k]];
                self.stamps[i] = stamp;
                self.hits += 1;
                return Some((self.entries[i], true));
            }
        }
        if let Some(i) = find_u64(&self.vpns, vpn) {
            self.tick += 1;
            self.memo = [i, self.memo[0]];
            self.stamps[i] = stamp;
            self.hits += 1;
            return Some((self.entries[i], true));
        }
        let entry = walk()?;
        self.tick += 1;
        self.misses += 1;
        let idx = if self.vpns.len() < self.capacity {
            self.vpns.push(vpn);
            self.stamps.push(stamp);
            self.entries.push(entry);
            self.vpns.len() - 1
        } else {
            // Miss in a full TLB: a second scan (over the stamps only)
            // finds the minimum-stamp (LRU) victim.
            let lru_idx = min_index_u64(&self.stamps);
            self.vpns[lru_idx] = vpn;
            self.stamps[lru_idx] = stamp;
            self.entries[lru_idx] = entry;
            lru_idx
        };
        self.memo = [idx, self.memo[0]];
        Some((entry, false))
    }

    /// Probes without updating LRU or stats.
    pub fn probe(&self, vpn: u64) -> Option<PageEntry> {
        find_u64(&self.vpns, vpn).map(|i| self.entries[i])
    }

    /// Invalidates a single page, returning whether it was present.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        if let Some(pos) = find_u64(&self.vpns, vpn) {
            self.vpns.swap_remove(pos);
            self.stamps.swap_remove(pos);
            self.entries.swap_remove(pos);
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Invalidates all entries matching a predicate, returning how many were
    /// dropped. This models the shootdown optimization of Section V-C3: the
    /// MTLB caches only property mappings, so during a shootdown it only
    /// processes invalidations whose TLB extra bit is `0` (non-structure).
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(u64, &PageEntry) -> bool) -> usize {
        // Order-preserving lockstep compaction of the three arrays.
        let mut kept = 0;
        for i in 0..self.vpns.len() {
            if !pred(self.vpns[i], &self.entries[i]) {
                self.vpns[kept] = self.vpns[i];
                self.stamps[kept] = self.stamps[i];
                self.entries[kept] = self.entries[i];
                kept += 1;
            }
        }
        let dropped = self.vpns.len() - kept;
        self.vpns.truncate(kept);
        self.stamps.truncate(kept);
        self.entries.truncate(kept);
        self.invalidations += dropped as u64;
        dropped
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.vpns.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.vpns.is_empty()
    }

    /// (hits, misses, invalidations) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }

    /// Hit rate over all accesses so far, or 0 if never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(frame: u64) -> PageEntry {
        PageEntry {
            frame,
            structure: frame.is_multiple_of(2),
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4);
        assert!(t.access(10, || e(1)).is_none());
        assert_eq!(t.access(10, || unreachable!()).unwrap().frame, 1);
        assert_eq!(t.stats(), (1, 1, 0));
    }

    #[test]
    fn access_entry_returns_walked_entry_on_miss() {
        let mut t = Tlb::new(2);
        let (entry, hit) = t.access_entry(3, || e(9));
        assert!(!hit);
        assert_eq!(entry.frame, 9);
        let (entry, hit) = t.access_entry(3, || unreachable!());
        assert!(hit);
        assert_eq!(entry.frame, 9);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2);
        t.access(1, || e(1));
        t.access(2, || e(2));
        t.access(1, || unreachable!()); // refresh 1; 2 becomes LRU
        t.access(3, || e(3)); // evicts 2
        assert!(t.probe(1).is_some());
        assert!(t.probe(2).is_none());
        assert!(t.probe(3).is_some());
    }

    #[test]
    fn invalidate_single() {
        let mut t = Tlb::new(4);
        t.access(5, || e(5));
        assert!(t.invalidate(5));
        assert!(!t.invalidate(5));
        assert!(t.probe(5).is_none());
        assert_eq!(t.stats().2, 1);
    }

    #[test]
    fn shootdown_filters_by_structure_bit() {
        let mut t = Tlb::new(8);
        for vpn in 0..6 {
            t.access(vpn, || e(vpn)); // even frames marked structure
        }
        // Drop only non-structure entries, like the MTLB shootdown rule.
        let dropped = t.invalidate_matching(|_, entry| !entry.structure);
        assert_eq!(dropped, 3);
        assert_eq!(t.len(), 3);
        assert!(t.probe(1).is_none());
        assert!(t.probe(2).is_some());
    }

    #[test]
    fn probe_does_not_touch_stats() {
        let mut t = Tlb::new(2);
        t.access(1, || e(1));
        let before = t.stats();
        let _ = t.probe(1);
        let _ = t.probe(9);
        assert_eq!(t.stats(), before);
    }

    #[test]
    fn hit_rate_math() {
        let mut t = Tlb::new(2);
        assert_eq!(t.hit_rate(), 0.0);
        t.access(1, || e(1));
        t.access(1, || unreachable!());
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn refill_after_invalidate_reuses_capacity() {
        let mut t = Tlb::new(2);
        t.access(1, || e(1));
        t.access(2, || e(2));
        t.invalidate(1);
        t.access(3, || e(3)); // fits in the freed slot, 2 survives
        assert!(t.probe(2).is_some());
        assert!(t.probe(3).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn failed_walk_leaves_tlb_untouched() {
        let mut t = Tlb::new(2);
        t.access(1, || e(1));
        let stats = t.stats();
        assert_eq!(t.access_or_walk(9, || None), None);
        // A fault is invisible: stats, contents, and recency all unchanged.
        assert_eq!(t.stats(), stats);
        assert_eq!(t.len(), 1);
        t.access(2, || e(2));
        t.access(3, || e(3)); // evicts 1, proving 9 never aged anything
        assert!(t.probe(2).is_some());
        assert!(t.probe(3).is_some());
    }

    #[test]
    fn access_or_walk_hits_like_access() {
        let mut t = Tlb::new(2);
        t.access(4, || e(4));
        let (entry, hit) = t.access_or_walk(4, || unreachable!()).unwrap();
        assert!(hit);
        assert_eq!(entry.frame, 4);
        let (entry, hit) = t.access_or_walk(5, || Some(e(5))).unwrap();
        assert!(!hit);
        assert_eq!(entry.frame, 5);
        assert_eq!(t.stats(), (1, 2, 0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    proptest! {
        /// `access_entry` agrees with `access` on the hit flag and always
        /// returns the walked/cached entry.
        #[test]
        fn access_entry_is_access_plus_entry(
            ops in prop::collection::vec(0u64..16, 1..200),
        ) {
            let mut a = Tlb::new(4);
            let mut b = Tlb::new(4);
            for &vpn in &ops {
                let (entry, hit) = a.access_entry(vpn, || e(vpn));
                let want = b.access(vpn, || e(vpn));
                prop_assert_eq!(hit, want.is_some());
                prop_assert_eq!(entry, want.unwrap_or_else(|| e(vpn)));
            }
            prop_assert_eq!(a.stats(), b.stats());
        }
    }
}
