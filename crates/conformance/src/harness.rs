//! Per-structure harnesses: the op vocabulary of each optimized structure,
//! its observation type (results + derived state + counters, compared for
//! exact equality every step), and the fuzzer lowering that turns a
//! [`TraceGen`] event stream into that vocabulary.

use crate::diff::Harness;
use crate::fuzz::TraceGen;
use crate::reference::{model_for, CacheModel, RefMshr, RefPageTable, RefTlb};
use droplet_cache::{
    CacheConfig, CacheMutation, CacheStats, EvictedLine, FillInfo, HitInfo, ReplacementPolicy,
    SetAssocCache,
};
use droplet_cpu::MshrFile;
use droplet_prefetch::{AccessEvent, PrefetchRequest, Prefetcher};
use droplet_trace::{
    AddressSpace, Cycle, DataType, PageEntry, PageTable, PhysAddr, Tlb, VirtAddr, PAGE_BYTES,
};
use proptest::TestRng;
use std::fmt::Debug;

/// A small, eviction-heavy cache geometry: every fuzzed stream exercises
/// victim selection constantly.
pub fn small_cache_config() -> CacheConfig {
    CacheConfig {
        name: "conformance",
        size_bytes: 16 * 2 * 64, // 16 sets × 2 ways
        assoc: 2,
        tag_latency: 1,
        data_latency: 2,
        policy: ReplacementPolicy::Lru,
    }
}

/// [`small_cache_config`] under a different replacement policy (16 sets
/// keeps both DRRIP leader constituencies populated).
pub fn small_policy_config(policy: ReplacementPolicy) -> CacheConfig {
    small_cache_config().with_policy(policy)
}

/// [`small_cache_config`] with 4 ways per set: a victim scan that stops
/// short of ways 2 and up agrees with the reference in any 2-way set, and
/// only a wider set tells them apart.
pub fn wide_cache_config() -> CacheConfig {
    CacheConfig {
        size_bytes: 16 * 4 * 64, // 16 sets × 4 ways
        assoc: 4,
        ..small_cache_config()
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// One cache operation.
#[derive(Debug, Clone, Copy)]
pub enum CacheOp {
    /// Demand access.
    Touch {
        /// Line index.
        line: u64,
        /// Access cycle.
        now: Cycle,
        /// Access data type.
        dtype: DataType,
        /// Store (sets dirty).
        is_store: bool,
    },
    /// Demand or prefetch fill.
    Fill {
        /// Line index.
        line: u64,
        /// Fill parameters.
        info: FillInfo,
    },
    /// Inclusion back-invalidation.
    Invalidate {
        /// Line index.
        line: u64,
    },
    /// Consume the accuracy tag.
    TakeTracked {
        /// Line index.
        line: u64,
    },
    /// Install an accuracy tag on a resident line.
    MarkTracked {
        /// Line index.
        line: u64,
        /// Tag data type.
        dtype: DataType,
    },
}

/// The op's direct result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheResult {
    /// `touch` outcome.
    Hit(Option<HitInfo>),
    /// `fill` / `invalidate` outcome.
    Evicted(Option<EvictedLine>),
    /// `take_tracked` outcome.
    Took(Option<DataType>),
    /// `mark_tracked` outcome.
    Marked(bool),
}

/// Everything observable after one cache op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheObs {
    /// The op's direct result.
    pub result: CacheResult,
    /// Residency of the op's line afterwards.
    pub contains: bool,
    /// Total resident lines.
    pub occupancy: usize,
    /// Any accuracy tag pending.
    pub has_tracked: bool,
    /// Full statistics snapshot.
    pub stats: CacheStats,
}

/// Production [`SetAssocCache`] vs the reference model its configured
/// policy calls for (`RefCache` for LRU, `RefRripCache` otherwise),
/// optionally with an armed [`CacheMutation`] on the production side (the
/// suite's self-test).
pub struct CacheHarness {
    cfg: CacheConfig,
    mutation: CacheMutation,
    prod: SetAssocCache,
    model: Box<dyn CacheModel>,
}

impl CacheHarness {
    /// A harness over the given geometry and policy; `mutation` arms a
    /// production-side injected bug ([`CacheMutation::None`] for
    /// conformance runs).
    pub fn new(cfg: CacheConfig, mutation: CacheMutation) -> Self {
        let mut h = CacheHarness {
            prod: SetAssocCache::new(cfg.clone()),
            model: model_for(&cfg),
            cfg,
            mutation,
        };
        h.reset();
        h
    }
}

impl Harness for CacheHarness {
    type Op = CacheOp;
    type Obs = CacheObs;

    fn reset(&mut self) {
        self.prod = SetAssocCache::new(self.cfg.clone());
        self.prod.set_test_mutation(self.mutation);
        self.model = model_for(&self.cfg);
    }

    fn apply(&mut self, op: &CacheOp) -> (CacheObs, CacheObs) {
        let line = match *op {
            CacheOp::Touch { line, .. }
            | CacheOp::Fill { line, .. }
            | CacheOp::Invalidate { line }
            | CacheOp::TakeTracked { line }
            | CacheOp::MarkTracked { line, .. } => line,
        };
        let (got, want) = match *op {
            CacheOp::Touch {
                line,
                now,
                dtype,
                is_store,
            } => (
                CacheResult::Hit(self.prod.touch(line, now, dtype, is_store)),
                CacheResult::Hit(self.model.touch(line, now, dtype, is_store)),
            ),
            CacheOp::Fill { line, info } => (
                CacheResult::Evicted(self.prod.fill(line, info)),
                CacheResult::Evicted(self.model.fill(line, info)),
            ),
            CacheOp::Invalidate { line } => (
                CacheResult::Evicted(self.prod.invalidate(line)),
                CacheResult::Evicted(self.model.invalidate(line)),
            ),
            CacheOp::TakeTracked { line } => (
                CacheResult::Took(self.prod.take_tracked(line)),
                CacheResult::Took(self.model.take_tracked(line)),
            ),
            CacheOp::MarkTracked { line, dtype } => (
                CacheResult::Marked(self.prod.mark_tracked(line, dtype)),
                CacheResult::Marked(self.model.mark_tracked(line, dtype)),
            ),
        };
        (
            CacheObs {
                result: got,
                contains: self.prod.contains(line),
                occupancy: self.prod.occupancy(),
                has_tracked: self.prod.has_tracked(),
                stats: *self.prod.stats(),
            },
            CacheObs {
                result: want,
                contains: self.model.contains(line),
                occupancy: self.model.occupancy(),
                has_tracked: self.model.has_tracked(),
                stats: *self.model.stats(),
            },
        )
    }

    fn dump(&self) -> (String, String) {
        (format!("{:#?}", self.prod), format!("{:#?}", self.model))
    }
}

/// Lowers a fuzzed event stream into cache ops: typed touches and fills,
/// refresh pressure on recently seen lines, invalidations, and accuracy-tag
/// traffic.
pub fn gen_cache_ops(rng: &mut TestRng, n: usize) -> Vec<CacheOp> {
    let mut gen = TraceGen::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut now: Cycle = 0;
    (0..n)
        .map(|_| {
            now += rng.below(4);
            let ev = gen.event(rng);
            let line = ev.line();
            if !recent.contains(&line) {
                if recent.len() == 16 {
                    recent.remove(0);
                }
                recent.push(line);
            }
            let recent_line = recent[rng.below(recent.len() as u64) as usize];
            match rng.below(20) {
                0..=7 => CacheOp::Touch {
                    line,
                    now,
                    dtype: ev.dtype,
                    is_store: rng.below(4) == 0,
                },
                8 => CacheOp::Touch {
                    line: recent_line,
                    now,
                    dtype: ev.dtype,
                    is_store: false,
                },
                9..=12 => {
                    let ready_at = now + rng.below(100);
                    let mut info = if rng.below(2) == 0 {
                        FillInfo::demand(ev.dtype, ready_at)
                    } else {
                        FillInfo::prefetch(ev.dtype, ready_at)
                    };
                    if rng.below(4) == 0 {
                        info = info.dirty();
                    }
                    if rng.below(3) == 0 {
                        info = info.tracked();
                    }
                    CacheOp::Fill { line, info }
                }
                // Refill of a recently seen line: the refresh path.
                13..=14 => CacheOp::Fill {
                    line: recent_line,
                    info: FillInfo::prefetch(ev.dtype, now + rng.below(50)).tracked(),
                },
                15..=16 => CacheOp::Invalidate { line: recent_line },
                17 => CacheOp::TakeTracked { line: recent_line },
                _ => CacheOp::MarkTracked {
                    line: recent_line,
                    dtype: ev.dtype,
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------------

/// One TLB operation.
#[derive(Debug, Clone, Copy)]
pub enum TlbOp {
    /// Access with an infallible walk.
    Access(u64),
    /// Access whose walk faults (must leave the TLB untouched).
    Fault(u64),
    /// Side-effect-free probe.
    Probe(u64),
    /// Single-page invalidation.
    Invalidate(u64),
    /// MTLB shootdown rule: drop non-structure entries.
    ShootNonStructure,
    /// Range shootdown: drop vpns below the operand.
    ShootBelow(u64),
}

/// The op's direct result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// `access_or_walk` outcome: entry + hit flag, or fault.
    Accessed(Option<(PageEntry, bool)>),
    /// `probe` outcome.
    Probed(Option<PageEntry>),
    /// `invalidate` outcome.
    Invalidated(bool),
    /// `invalidate_matching` drop count.
    Shot(usize),
}

/// Everything observable after one TLB op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbObs {
    /// The op's direct result.
    pub result: TlbResult,
    /// Resident entries afterwards.
    pub len: usize,
    /// (hits, misses, invalidations).
    pub stats: (u64, u64, u64),
}

/// Deterministic walked entry for a vpn; every third page carries the
/// structure bit so shootdown predicates discriminate.
fn tlb_entry_of(vpn: u64) -> PageEntry {
    PageEntry {
        frame: vpn * 3 + 7,
        structure: vpn.is_multiple_of(3),
    }
}

/// Production stamp-LRU [`Tlb`] vs [`RefTlb`].
pub struct TlbHarness {
    capacity: usize,
    prod: Tlb,
    model: RefTlb,
}

impl TlbHarness {
    /// A harness over a TLB of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        TlbHarness {
            capacity,
            prod: Tlb::new(capacity),
            model: RefTlb::new(capacity),
        }
    }
}

impl Harness for TlbHarness {
    type Op = TlbOp;
    type Obs = TlbObs;

    fn reset(&mut self) {
        self.prod = Tlb::new(self.capacity);
        self.model = RefTlb::new(self.capacity);
    }

    fn apply(&mut self, op: &TlbOp) -> (TlbObs, TlbObs) {
        let (got, want) = match *op {
            TlbOp::Access(vpn) => (
                TlbResult::Accessed(self.prod.access_or_walk(vpn, || Some(tlb_entry_of(vpn)))),
                TlbResult::Accessed(self.model.access_or_walk(vpn, || Some(tlb_entry_of(vpn)))),
            ),
            TlbOp::Fault(vpn) => (
                TlbResult::Accessed(self.prod.access_or_walk(vpn, || None)),
                TlbResult::Accessed(self.model.access_or_walk(vpn, || None)),
            ),
            TlbOp::Probe(vpn) => (
                TlbResult::Probed(self.prod.probe(vpn)),
                TlbResult::Probed(self.model.probe(vpn)),
            ),
            TlbOp::Invalidate(vpn) => (
                TlbResult::Invalidated(self.prod.invalidate(vpn)),
                TlbResult::Invalidated(self.model.invalidate(vpn)),
            ),
            TlbOp::ShootNonStructure => (
                TlbResult::Shot(self.prod.invalidate_matching(|_, e| !e.structure)),
                TlbResult::Shot(self.model.invalidate_matching(|_, e| !e.structure)),
            ),
            TlbOp::ShootBelow(vpn) => (
                TlbResult::Shot(self.prod.invalidate_matching(|v, _| v < vpn)),
                TlbResult::Shot(self.model.invalidate_matching(|v, _| v < vpn)),
            ),
        };
        (
            TlbObs {
                result: got,
                len: self.prod.len(),
                stats: self.prod.stats(),
            },
            TlbObs {
                result: want,
                len: self.model.len(),
                stats: self.model.stats(),
            },
        )
    }

    fn dump(&self) -> (String, String) {
        (format!("{:#?}", self.prod), format!("{:#?}", self.model))
    }
}

/// Lowers a fuzzed event stream into TLB ops over its page universe.
pub fn gen_tlb_ops(rng: &mut TestRng, n: usize) -> Vec<TlbOp> {
    let mut gen = TraceGen::new();
    (0..n)
        .map(|_| {
            let vpn = gen.event(rng).page();
            match rng.below(16) {
                0..=9 => TlbOp::Access(vpn),
                10 => TlbOp::Fault(vpn),
                11..=12 => TlbOp::Probe(vpn),
                13 => TlbOp::Invalidate(vpn),
                14 => TlbOp::ShootNonStructure,
                _ => TlbOp::ShootBelow(vpn),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// MSHR
// ---------------------------------------------------------------------------

/// One MSHR operation.
#[derive(Debug, Clone, Copy)]
pub enum MshrOp {
    /// Claim the earliest-free slot, re-arming it to `complete_at`.
    Allocate(Cycle),
    /// Occupancy query at a cycle.
    BusyAt(Cycle),
}

/// Observation: `(earliest_free, query)` where `query` is `len` after an
/// allocation or the busy count for a query op. `earliest_free` is checked
/// after *every* op, so the free-time multisets cannot drift silently.
pub type MshrObs = (Cycle, usize);

/// Production min-heap [`MshrFile`] vs linear-scan [`RefMshr`].
pub struct MshrHarness {
    entries: usize,
    prod: MshrFile,
    model: RefMshr,
}

impl MshrHarness {
    /// A harness over a file of `entries` slots.
    pub fn new(entries: usize) -> Self {
        MshrHarness {
            entries,
            prod: MshrFile::new(entries),
            model: RefMshr::new(entries),
        }
    }
}

impl Harness for MshrHarness {
    type Op = MshrOp;
    type Obs = MshrObs;

    fn reset(&mut self) {
        self.prod = MshrFile::new(self.entries);
        self.model = RefMshr::new(self.entries);
    }

    fn apply(&mut self, op: &MshrOp) -> (MshrObs, MshrObs) {
        match *op {
            MshrOp::Allocate(complete_at) => {
                self.prod.allocate(complete_at);
                self.model.allocate(complete_at);
                (
                    (self.prod.earliest_free(), self.prod.len()),
                    (self.model.earliest_free(), self.model.len()),
                )
            }
            MshrOp::BusyAt(now) => (
                (self.prod.earliest_free(), self.prod.busy_at(now)),
                (self.model.earliest_free(), self.model.busy_at(now)),
            ),
        }
    }

    fn dump(&self) -> (String, String) {
        (format!("{:#?}", self.prod), format!("{:#?}", self.model))
    }
}

/// Adversarial allocation pattern: completion times jump forward and
/// backward so heap order and scan order disagree as much as possible.
pub fn gen_mshr_ops(rng: &mut TestRng, n: usize) -> Vec<MshrOp> {
    let mut now: Cycle = 0;
    (0..n)
        .map(|_| {
            now += rng.below(20);
            if rng.below(5) == 0 {
                MshrOp::BusyAt(now + rng.below(200))
            } else {
                // Mix far-future, near, and already-past completion times.
                let complete_at = match rng.below(4) {
                    0 => now.saturating_sub(rng.below(50)),
                    1..=2 => now + rng.below(100),
                    _ => now + 200 + rng.below(500),
                };
                MshrOp::Allocate(complete_at)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Page table
// ---------------------------------------------------------------------------

/// One page-table operation over a raw virtual address.
#[derive(Debug, Clone, Copy)]
pub enum PageOp {
    /// Demand translation (counts a walk).
    Translate(u64),
    /// Setup pre-touch (no walk counted).
    Populate(u64),
    /// Probe without populating.
    Lookup(u64),
}

/// The op's direct result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageResult {
    /// Physical address + entry.
    Xlated(PhysAddr, PageEntry),
    /// Populate has no result.
    Populated,
    /// Lookup outcome.
    Found(Option<PageEntry>),
}

/// Everything observable after one page-table op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageObs {
    /// The op's direct result.
    pub result: PageResult,
    /// Mapped pages afterwards.
    pub mapped: usize,
    /// Counted walks afterwards.
    pub walks: u64,
}

/// The fixed address space the page-table harness translates against:
/// structure, property, and intermediate regions with their byte sizes.
pub fn page_space() -> (AddressSpace, Vec<(u64, u64)>) {
    let mut space = AddressSpace::new();
    let mut regions = Vec::new();
    for (name, dtype, pages) in [
        ("neighbors", DataType::Structure, 16u64),
        ("offsets", DataType::Structure, 4),
        ("ranks", DataType::Property, 8),
        ("frontier", DataType::Intermediate, 4),
    ] {
        let r = space.alloc(name, dtype, pages * PAGE_BYTES);
        regions.push((r.base().raw(), pages * PAGE_BYTES));
    }
    (space, regions)
}

/// Production dense/spill [`PageTable`] vs [`RefPageTable`].
pub struct PageHarness {
    space: AddressSpace,
    prod: PageTable,
    model: RefPageTable,
}

impl PageHarness {
    /// A harness translating against [`page_space`].
    pub fn new() -> Self {
        PageHarness {
            space: page_space().0,
            prod: PageTable::new(),
            model: RefPageTable::new(),
        }
    }
}

impl Default for PageHarness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness for PageHarness {
    type Op = PageOp;
    type Obs = PageObs;

    fn reset(&mut self) {
        self.prod = PageTable::new();
        self.model = RefPageTable::new();
    }

    fn apply(&mut self, op: &PageOp) -> (PageObs, PageObs) {
        let (got, want) = match *op {
            PageOp::Translate(raw) => {
                let va = VirtAddr::new(raw);
                let (pa, e) = self.prod.translate(va, &self.space);
                let (pb, f) = self.model.translate(va, &self.space);
                (PageResult::Xlated(pa, e), PageResult::Xlated(pb, f))
            }
            PageOp::Populate(raw) => {
                let va = VirtAddr::new(raw);
                self.prod.populate(va, &self.space);
                self.model.populate(va, &self.space);
                (PageResult::Populated, PageResult::Populated)
            }
            PageOp::Lookup(raw) => {
                let va = VirtAddr::new(raw);
                (
                    PageResult::Found(self.prod.lookup(va)),
                    PageResult::Found(self.model.lookup(va)),
                )
            }
        };
        (
            PageObs {
                result: got,
                mapped: self.prod.mapped_pages(),
                walks: self.prod.translations(),
            },
            PageObs {
                result: want,
                mapped: self.model.mapped_pages(),
                walks: self.model.translations(),
            },
        )
    }

    fn dump(&self) -> (String, String) {
        (format!("{:#?}", self.prod), format!("{:#?}", self.model))
    }
}

/// Addresses spanning every page-table path: region interiors (dense
/// window), guard pages past region ends, and low addresses below the space
/// base (the spill map).
pub fn gen_page_ops(rng: &mut TestRng, n: usize) -> Vec<PageOp> {
    let (_, regions) = page_space();
    (0..n)
        .map(|_| {
            let raw = match rng.below(8) {
                // Interior of a region (dense window).
                0..=5 => {
                    let (base, bytes) = regions[rng.below(regions.len() as u64) as usize];
                    base + rng.below(bytes)
                }
                // Just past a region's end: its guard page (no region, still
                // translatable, structure bit false).
                6 => {
                    let (base, bytes) = regions[rng.below(regions.len() as u64) as usize];
                    base + bytes + rng.below(PAGE_BYTES)
                }
                // Below the space base: the spill map.
                _ => rng.below(64 * PAGE_BYTES),
            };
            match rng.below(8) {
                0..=4 => PageOp::Translate(raw),
                5 => PageOp::Populate(raw),
                _ => PageOp::Lookup(raw),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Prefetchers
// ---------------------------------------------------------------------------

/// One prefetcher operation.
#[derive(Debug, Clone, Copy)]
pub enum PfOp {
    /// Observe one access event.
    Access(AccessEvent),
    /// Flip the data-aware mode (stream prefetcher only; a no-op pair on
    /// engines without the switch).
    SetDataAware(bool),
}

/// Everything observable after one prefetcher op: the requests emitted for
/// this event, the lifetime issue counter, and the mode flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfObs {
    /// Requests emitted by this op.
    pub reqs: Vec<PrefetchRequest>,
    /// Lifetime requests issued.
    pub issued: u64,
    /// Current data-aware mode.
    pub data_aware: bool,
}

/// Any production engine vs its reference predictor, both behind the
/// production `Prefetcher` trait.
pub struct PrefetchHarness<P, R> {
    make: Box<dyn Fn() -> (P, R)>,
    prod: P,
    model: R,
}

impl<P: Prefetcher + Debug, R: Prefetcher + Debug> PrefetchHarness<P, R> {
    /// A harness whose `make` closure builds a fresh (production, reference)
    /// pair; called on every reset.
    pub fn new(make: impl Fn() -> (P, R) + 'static) -> Self {
        let (prod, model) = make();
        PrefetchHarness {
            make: Box::new(make),
            prod,
            model,
        }
    }
}

impl<P: Prefetcher + Debug, R: Prefetcher + Debug> Harness for PrefetchHarness<P, R> {
    type Op = PfOp;
    type Obs = PfObs;

    fn reset(&mut self) {
        let (prod, model) = (self.make)();
        self.prod = prod;
        self.model = model;
    }

    fn apply(&mut self, op: &PfOp) -> (PfObs, PfObs) {
        let mut got = Vec::new();
        let mut want = Vec::new();
        match *op {
            PfOp::Access(ev) => {
                self.prod.on_access(&ev, &mut got);
                self.model.on_access(&ev, &mut want);
            }
            PfOp::SetDataAware(on) => {
                self.prod.set_data_aware(on);
                self.model.set_data_aware(on);
            }
        }
        (
            PfObs {
                reqs: got,
                issued: self.prod.issued(),
                data_aware: self.prod.is_data_aware(),
            },
            PfObs {
                reqs: want,
                issued: self.model.issued(),
                data_aware: self.model.is_data_aware(),
            },
        )
    }

    fn dump(&self) -> (String, String) {
        (format!("{:#?}", self.prod), format!("{:#?}", self.model))
    }
}

/// Lowers a fuzzed event stream into prefetcher ops; `with_mode_switch`
/// sprinkles data-aware flips (for the stream engine's runtime switch).
pub fn gen_pf_ops(rng: &mut TestRng, n: usize, with_mode_switch: bool) -> Vec<PfOp> {
    let mut gen = TraceGen::new();
    (0..n)
        .map(|_| {
            if with_mode_switch && rng.below(64) == 0 {
                PfOp::SetDataAware(rng.below(2) == 1)
            } else {
                PfOp::Access(gen.event(rng))
            }
        })
        .collect()
}
