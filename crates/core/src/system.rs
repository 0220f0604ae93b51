//! The full-system simulator: one detailed core in front of the Table I
//! memory hierarchy, with the configured prefetcher wired in exactly as
//! Fig. 8 describes — streamer at the L2 (or L1 for the monolithic
//! variant), MPP at the memory controller behind the MRB's C-bit, property
//! prefetches checked against the coherence engine before touching DRAM.

use crate::config::{PrefetcherKind, SystemConfig};
use droplet_cache::{CacheStats, FillInfo, SetAssocCache, TypedCounter};
use droplet_cpu::{AccessResponse, CoreEngine, CoreResult, MemorySystem, MshrFile, ServiceLevel};
use droplet_gap::TraceBundle;
use droplet_mem::{Dram, DramStats, Mrb, MrbEntry};
use droplet_obs::{fnv1a, ObsRecorder, ObsSnapshot, RunJournal, RunManifest};
use droplet_prefetch::{
    AccessEvent, EventKind, GhbPrefetcher, Mpp, MppCandidate, MppStats, PrefetchRequest,
    Prefetcher, StreamPrefetcher, VldpPrefetcher,
};
use droplet_trace::{
    Cycle, DataType, MemOp, OpId, PageTable, SliceSource, Tlb, TraceSource, VirtAddr, PAGE_BYTES,
};

/// Orchestration-level statistics not owned by any single component.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemStats {
    /// Core-side prefetch requests dropped for unmapped pages.
    pub prefetch_unmapped_drops: u64,
    /// Core-side prefetch requests already resident at their fill level.
    pub prefetch_redundant: u64,
    /// MPP property prefetches found on-chip and copied LLC → L2.
    pub mpp_copied_from_llc: u64,
    /// MPP property prefetches already in the destination L2 (or L1).
    pub mpp_redundant: u64,
    /// Dirty-line write-backs issued to DRAM.
    pub writebacks: u64,
    /// DTLB misses observed on the demand path.
    pub dtlb_misses: u64,
    /// Prefetched lines demanded while on chip (Fig. 14 numerator).
    pub prefetch_useful: TypedCounter,
    /// Prefetched lines evicted off-chip without any demand use.
    pub prefetch_wasted: TypedCounter,
    /// Adaptive DROPLET only: the mode the controller locked into
    /// (`Some(true)` = stayed data-aware, `Some(false)` = fell back to the
    /// streamMPP1 arrangement, `None` = not adaptive / still probing).
    pub adaptive_locked_data_aware: Option<bool>,
}

impl SystemStats {
    /// Line-level prefetch accuracy for `dtype`: the fraction of prefetched
    /// lines that saw a demand use anywhere on chip before leaving the chip
    /// (the Fig. 14 metric).
    pub fn prefetch_accuracy(&self, dtype: droplet_trace::DataType) -> f64 {
        let used = self.prefetch_useful.get(dtype);
        let bad = self.prefetch_wasted.get(dtype);
        if used + bad == 0 {
            0.0
        } else {
            used as f64 / (used + bad) as f64
        }
    }
}

/// The simulated system; implements [`MemorySystem`] for the core model.
pub struct System<'a> {
    cfg: SystemConfig,
    bundle: &'a TraceBundle,
    page_table: PageTable,
    dtlb: Tlb,
    l1: SetAssocCache,
    l2: Option<SetAssocCache>,
    l3: SetAssocCache,
    dram: Dram,
    mrb: Mrb,
    core_pf: Option<Box<dyn Prefetcher>>,
    mpp: Option<Mpp>,
    stats: SystemStats,
    pf_buf: Vec<PrefetchRequest>,
    mpp_buf: Vec<MppCandidate>,
    /// In-flight demand misses (MSHR occupancy).
    mshr: MshrFile,
    /// Demand-promotion latency cap; derived from `cfg` only, computed once.
    promote_budget: Cycle,
    /// Probing controller for the adaptive DROPLET extension.
    adaptive: Option<AdaptiveState>,
    /// Epoch sampler, present only when `cfg.obs` is set. Boxed so the
    /// disabled case costs one pointer in the `System` and a single
    /// `is_some` branch per demand access.
    obs: Option<Box<ObsRecorder>>,
    /// Retire-clock cycle at which the measurement window opened (0 until
    /// `warmup_done` runs).
    warmup_boundary: Cycle,
    /// Whether prefetch engines (and the adaptive controller) are live.
    /// `false` until `warmup_done`: warm-up is demand-only, which makes the
    /// warmed state a pure function of the warmup-relevant configuration
    /// ([`SystemConfig::warmup_key`]) and lets forked sweeps share one
    /// snapshot across every prefetcher configuration.
    pf_enabled: bool,
}

/// Epoch-probing state for adaptive DROPLET (Section VII-B extension):
/// measure mean demand-miss service latency with the data-aware streamer,
/// then with the conventional streamer, then lock the faster mode.
#[derive(Debug, Clone, Copy)]
struct AdaptiveState {
    epoch_misses: u64,
    misses: u64,
    latency_sum: u64,
    /// 0 = probing data-aware, 1 = probing conventional, 2 = locked.
    phase: u8,
    probe_data_aware_avg: f64,
}

impl<'a> System<'a> {
    /// Builds the system for one workload. All graph pages are pre-touched
    /// (the paper runs the graph-reading phase before the ROI), so page
    /// mappings exist; the small DTLB still produces realistic miss
    /// behaviour. The pre-touch uses the non-counting [`PageTable::populate`]
    /// path, so the walk counter reflects demand walks only.
    pub fn new(cfg: SystemConfig, bundle: &'a TraceBundle) -> Self {
        let mut page_table = PageTable::new();
        for region in bundle.space.regions() {
            let mut addr = region.base();
            while addr < region.end() {
                page_table.populate(addr, &bundle.space);
                addr = addr.add_bytes(PAGE_BYTES);
            }
        }

        let core_pf = build_core_pf(&cfg);
        let mpp = build_mpp(&cfg, bundle);

        let cfg_mshrs = cfg.mshrs.max(1);
        let promote_budget = demand_promotion_budget(&cfg);
        let adaptive_state = build_adaptive(&cfg);
        let obs = cfg.obs.map(|c| Box::new(ObsRecorder::new(c)));
        System {
            dtlb: Tlb::new(cfg.dtlb_entries),
            l1: SetAssocCache::new(cfg.l1.clone()),
            l2: cfg.l2.clone().map(SetAssocCache::new),
            l3: SetAssocCache::new(cfg.l3.clone()),
            dram: Dram::new(cfg.dram.clone()),
            mrb: Mrb::new(cfg.mrb_entries),
            core_pf,
            mpp,
            cfg,
            bundle,
            page_table,
            promote_budget,
            stats: SystemStats::default(),
            pf_buf: Vec::with_capacity(64),
            mpp_buf: Vec::with_capacity(64),
            mshr: MshrFile::new(cfg_mshrs),
            adaptive: adaptive_state,
            obs,
            warmup_boundary: 0,
            pf_enabled: false,
        }
    }

    /// Captures everything that evolved during warm-up into an owned,
    /// `'static` snapshot. Meant to be taken at the warm-up boundary
    /// (before `warmup_done`); [`crate::fork::WarmupSnapshot::resume`] then
    /// restores it under any configuration sharing the same
    /// [`SystemConfig::warmup_key`].
    pub fn snapshot(&self) -> SystemSnapshot {
        debug_assert!(
            !self.pf_enabled,
            "snapshots are taken at the warm-up boundary, before prefetch goes live"
        );
        debug_assert!(
            self.mrb.is_empty(),
            "MRB must be empty at the warm-up boundary under demand-only warm-up"
        );
        SystemSnapshot {
            cfg: self.cfg.clone(),
            page_table: self.page_table.clone(),
            dtlb: self.dtlb.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            l3: self.l3.clone(),
            dram: self.dram.clone(),
            mshr: self.mshr.clone(),
            stats: self.stats,
            warmup_boundary: self.warmup_boundary,
        }
    }

    /// Rebuilds a warmed system from `snap` under `cfg`, swapping in the
    /// fork-safe knobs (prefetcher wiring, adaptive controller, obs). Any
    /// `mutation` other than [`ForkMutation::None`] injects a
    /// snapshot-restore fault, for the conformance self-test that proves
    /// the fork-vs-scratch differ catches incomplete snapshots.
    ///
    /// Bit-exactness argument: warm-up is demand-only, so at the boundary
    /// (a) the predictors, MPP, and adaptive controller are pristine, and
    /// the fork builds them fresh from `cfg` — exactly what a from-scratch
    /// run holds there; (b) the MRB is empty, so it is rebuilt at the
    /// fork's `mrb_entries`; (c) the sampler never ran, so it starts fresh.
    /// Only demand-path state — caches, the DTLB with its hit memo, page
    /// table, DRAM, MSHRs — is restored from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disagrees with the snapshot's configuration on any
    /// warmup-relevant field ([`SystemConfig::warmup_key`]); such sweeps
    /// must fall back to full replay.
    #[doc(hidden)]
    pub fn fork_mutated(
        snap: &SystemSnapshot,
        cfg: &SystemConfig,
        bundle: &'a TraceBundle,
        mutation: ForkMutation,
    ) -> Self {
        assert_eq!(
            snap.cfg.warmup_key(),
            cfg.warmup_key(),
            "fork requires identical warmup-relevant configuration"
        );
        let dtlb = match mutation {
            ForkMutation::SkipDtlb => Tlb::new(cfg.dtlb_entries),
            _ => snap.dtlb.clone(),
        };
        let l1 = match mutation {
            ForkMutation::SkipL1 => SetAssocCache::new(cfg.l1.clone()),
            _ => snap.l1.clone(),
        };
        System {
            dtlb,
            l1,
            l2: snap.l2.clone(),
            l3: snap.l3.clone(),
            dram: snap.dram.clone(),
            mrb: Mrb::new(cfg.mrb_entries),
            core_pf: build_core_pf(cfg),
            mpp: build_mpp(cfg, bundle),
            cfg: cfg.clone(),
            bundle,
            page_table: snap.page_table.clone(),
            promote_budget: demand_promotion_budget(cfg),
            stats: snap.stats,
            pf_buf: Vec::with_capacity(64),
            mpp_buf: Vec::with_capacity(64),
            mshr: snap.mshr.clone(),
            adaptive: build_adaptive(cfg),
            obs: cfg.obs.map(|c| Box::new(ObsRecorder::new(c))),
            warmup_boundary: snap.warmup_boundary,
            pf_enabled: false,
        }
    }

    /// A cheap observable fingerprint of demand-path state, for the
    /// lockstep fork-vs-scratch differ: any restore omission that can
    /// change timing shows up here within a few operations.
    pub fn probe(&self) -> SystemProbe {
        SystemProbe {
            dtlb_misses: self.stats.dtlb_misses,
            l1_demand_hits: self.l1.stats().demand_hits.total(),
            dram_demand_accesses: self.dram.stats().demand_accesses,
        }
    }

    /// Orchestration statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The L1 cache (for inspection in tests).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The L2 cache, if configured.
    pub fn l2(&self) -> Option<&SetAssocCache> {
        self.l2.as_ref()
    }

    /// The shared L3.
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// The DRAM model.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The MPP, when the configuration has one.
    pub fn mpp(&self) -> Option<&Mpp> {
        self.mpp.as_ref()
    }

    fn dtype_of_line(&self, vline: u64) -> Option<DataType> {
        self.bundle
            .space
            .data_type(VirtAddr::new(vline * droplet_trace::LINE_BYTES))
    }

    /// Fills `pline` into the L3, maintaining inclusion (back-invalidating
    /// L1/L2 copies of the victim) and writing back dirty victims.
    fn fill_l3(&mut self, pline: u64, info: FillInfo, now: Cycle) {
        if let Some(victim) = self.l3.fill(pline, info) {
            // A tracked prefetched line leaving the chip without a demand
            // use is a wasted (inaccurate) prefetch. The tag rides on the
            // evicted line itself (no side table to consult).
            if let Some(dt) = victim.tracked {
                self.stats.prefetch_wasted.bump(dt);
            }
            let mut dirty = victim.dirty;
            if let Some(l2) = self.l2.as_mut() {
                if let Some(v2) = l2.invalidate(victim.line) {
                    dirty |= v2.dirty;
                }
            }
            if let Some(v1) = self.l1.invalidate(victim.line) {
                dirty |= v1.dirty;
            }
            if dirty {
                self.stats.writebacks += 1;
                self.dram.request(victim.line, now, false);
            }
        }
    }

    /// Processes core-side prefetch requests produced on the demand path.
    fn process_prefetch_requests(&mut self, now: Cycle) {
        if self.pf_buf.is_empty() {
            return;
        }
        let reqs = std::mem::take(&mut self.pf_buf);
        let mono = self.cfg.prefetcher.monolithic_l1();
        for req in &reqs {
            // A line past its region's end lies in no region, so the tail
            // of a region's last page drops as unmapped too.
            let vaddr = VirtAddr::new(req.vline * droplet_trace::LINE_BYTES);
            let translated = self
                .bundle
                .space
                .region_of(vaddr)
                .and_then(|region| Some((region.dtype(), self.page_table.lookup(vaddr)?)));
            let Some((dtype, entry)) = translated else {
                self.stats.prefetch_unmapped_drops += 1;
                continue;
            };
            let pline =
                (entry.frame * PAGE_BYTES + vaddr.page_offset()) / droplet_trace::LINE_BYTES;

            // Redundant if already resident at the fill destination.
            let resident = if mono {
                self.l1.contains(pline)
            } else {
                self.l2.as_ref().is_some_and(|l2| l2.contains(pline))
            };
            if resident {
                self.stats.prefetch_redundant += 1;
                continue;
            }

            // Data-aware requests enter the L3 request queue directly;
            // conventional requests looked up the L2 first (the residency
            // check above). Both pay the L3 tag check.
            let fetched = self.install_prefetch(pline, dtype, now, self.cfg.l3.tag_latency);
            if let Some(complete_at) = fetched {
                // Track in the MRB; the C-bit marks data-aware streamer
                // requests, i.e. structure prefetches (Section V-C1).
                self.mrb.insert(MrbEntry {
                    pline,
                    vline: req.vline,
                    c_bit: req.into_l3_queue,
                    core: 0,
                    complete_at,
                });
            }
        }
        self.pf_buf = reqs;
        self.pf_buf.clear();
    }

    /// Installs one prefetched line, issued at cycle `at` by a source that
    /// pays `l3_tag` cycles for the LLC tag check. The inclusive LLC is the
    /// coherence engine: a resident line is copied up from it (and gains
    /// its accuracy tag there); otherwise the line is fetched from DRAM and
    /// filled into the LLC with the tag. Either way it then fills the L2,
    /// and the L1 for the monolithic variant. Returns the DRAM completion
    /// cycle, or `None` when the LLC supplied the line.
    fn install_prefetch(
        &mut self,
        pline: u64,
        dtype: DataType,
        at: Cycle,
        l3_tag: Cycle,
    ) -> Option<Cycle> {
        let (ready, fetched) = if self.l3.mark_tracked(pline, dtype) {
            (at + l3_tag + self.cfg.l3.data_latency, None)
        } else {
            let complete_at = self.dram.request(pline, at + l3_tag, true).complete_at;
            self.fill_l3(pline, FillInfo::prefetch(dtype, complete_at).tracked(), at);
            (complete_at, Some(complete_at))
        };
        if let Some(l2) = self.l2.as_mut() {
            l2.fill(pline, FillInfo::prefetch(dtype, ready));
        }
        if self.cfg.prefetcher.monolithic_l1() {
            // The L1 copy carries the accuracy bit that gates the demand
            // hit path's L3 tag probe.
            self.l1
                .fill(pline, FillInfo::prefetch(dtype, ready).tracked());
        }
        fetched
    }

    /// Drains completed DRAM fills from the MRB and lets the MPP react to
    /// structure prefetch arrivals (Fig. 8 ❷ → ❸).
    fn drain_mrb(&mut self, now: Cycle) {
        if self.mpp.is_none() {
            // No MPP to notify: completions only free buffer capacity.
            self.mrb.discard_completed(now);
            return;
        }
        let done = self.mrb.drain_completed(now);
        if done.is_empty() && self.mpp_buf.is_empty() {
            return;
        }
        for entry in done {
            let is_structure_prefetch = if self.cfg.prefetcher.mpp_recognizes_structure() {
                // MPP1: recognize by address range.
                self.dtype_of_line(entry.vline) == Some(DataType::Structure)
            } else {
                entry.c_bit
            };
            if !is_structure_prefetch {
                continue;
            }
            // DROPLET reacts the moment the line reaches the MC; the
            // monolithic L1 variant must wait for the refill path to carry
            // the line up to the L1 before the PAG can scan it.
            let trigger_at = if self.cfg.prefetcher.monolithic_l1() {
                let l2_lat = self.cfg.l2.as_ref().map_or(0, |c| c.data_latency);
                entry.complete_at + self.cfg.l3.data_latency + l2_lat + self.cfg.l1.data_latency
            } else {
                entry.complete_at
            };
            let mpp = self.mpp.as_mut().expect("guarded above");
            mpp.on_structure_fill(
                entry.vline,
                entry.core,
                &self.bundle.funcmem,
                &self.page_table,
                trigger_at,
                &mut self.mpp_buf,
            );
        }
        self.process_mpp_candidates();
    }

    /// Routes MPP property prefetch candidates: coherence check, then
    /// LLC→L2 copy or DRAM fetch (Fig. 8 green path).
    fn process_mpp_candidates(&mut self) {
        let cands = std::mem::take(&mut self.mpp_buf);
        let mono = self.cfg.prefetcher.monolithic_l1();
        for cand in &cands {
            if let Some(mpp) = self.mpp.as_mut() {
                mpp.on_candidate_complete();
            }
            let pl = cand.pline;
            let in_dest = if mono {
                self.l1.contains(pl)
            } else {
                self.l2.as_ref().is_some_and(|l2| l2.contains(pl)) || self.l1.contains(pl)
            };
            if in_dest {
                self.stats.mpp_redundant += 1;
                continue;
            }
            // The MPP sits at the memory controller: no L3 tag latency.
            if self
                .install_prefetch(pl, DataType::Property, cand.ready_at, 0)
                .is_none()
            {
                self.stats.mpp_copied_from_llc += 1;
            }
        }
        self.mpp_buf = cands;
        self.mpp_buf.clear();
    }

    /// Adaptive DROPLET: account one demand miss and run the epoch logic.
    /// Inert during warm-up (probing epochs count measured misses only).
    fn adaptive_observe_miss(&mut self, latency: Cycle) {
        if !self.pf_enabled {
            return;
        }
        let Some(mut st) = self.adaptive else {
            return;
        };
        if st.phase == 2 {
            return;
        }
        st.misses += 1;
        st.latency_sum += latency;
        if st.misses >= st.epoch_misses {
            let avg = st.latency_sum as f64 / st.misses as f64;
            if st.phase == 0 {
                st.probe_data_aware_avg = avg;
                st.phase = 1;
                if let Some(pf) = self.core_pf.as_mut() {
                    pf.set_data_aware(false);
                }
            } else {
                let keep_data_aware = st.probe_data_aware_avg <= avg;
                if let Some(pf) = self.core_pf.as_mut() {
                    pf.set_data_aware(keep_data_aware);
                }
                st.phase = 2;
                self.stats.adaptive_locked_data_aware = Some(keep_data_aware);
            }
            st.misses = 0;
            st.latency_sum = 0;
        }
        self.adaptive = Some(st);
    }

    fn feed_prefetcher(&mut self, ev: AccessEvent) {
        // Demand-only warm-up: engines observe nothing before the boundary,
        // so the warmed state (and hence a fork snapshot) is independent of
        // the prefetcher configuration.
        if !self.pf_enabled {
            return;
        }
        if let Some(pf) = self.core_pf.as_mut() {
            pf.on_access(&ev, &mut self.pf_buf);
        }
    }
}

/// An owned (`'static`) capture of everything in a [`System`] that evolved
/// during warm-up: page table, DTLB (its hit memo included), all cache
/// tags+stamps+meta, DRAM and MSHR state, and statistics. `System` keeps no
/// translation memo of its own. Taken with [`System::snapshot`] at the
/// warm-up boundary; any configuration sharing the parent's
/// [`SystemConfig::warmup_key`] can fork from it
/// ([`crate::fork::WarmupSnapshot::resume`]).
///
/// Deliberately *not* captured: the prefetch engine, MPP and adaptive
/// controller (warm-up never feeds them, so a fork builds them fresh), the
/// MRB (only prefetch paths fill it, so it is provably empty at the
/// boundary and is rebuilt at the fork's capacity), the sampler
/// (measurement-only; `warmup_done` re-anchors it), and the transient
/// prefetch/candidate buffers (always empty between accesses).
#[derive(Clone)]
pub struct SystemSnapshot {
    cfg: SystemConfig,
    page_table: PageTable,
    dtlb: Tlb,
    l1: SetAssocCache,
    l2: Option<SetAssocCache>,
    l3: SetAssocCache,
    dram: Dram,
    mshr: MshrFile,
    stats: SystemStats,
    warmup_boundary: Cycle,
}

impl SystemSnapshot {
    /// The parent's simulated-machine hash (for `forked_from` manifests).
    pub fn parent_config_hash(&self) -> u64 {
        config_hash(&self.cfg)
    }
}

/// An injected snapshot-restore fault: skip one field when forking, so the
/// conformance self-test can prove the lockstep fork-vs-scratch differ
/// detects incomplete snapshots. Mirrors `CacheMutation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForkMutation {
    /// Faithful restore (production behavior).
    #[default]
    None,
    /// Forget the warmed DTLB (fork starts translation-cold).
    SkipDtlb,
    /// Forget the warmed L1 (fork starts with a cold L1).
    SkipL1,
}

/// Observable demand-path counters exposed by [`System::probe`] for the
/// lockstep differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemProbe {
    /// Demand DTLB misses so far.
    pub dtlb_misses: u64,
    /// L1 demand hits so far (all data types).
    pub l1_demand_hits: u64,
    /// DRAM demand accesses so far.
    pub dram_demand_accesses: u64,
}

/// The core-side prefetch engine `cfg` asks for (pristine).
fn build_core_pf(cfg: &SystemConfig) -> Option<Box<dyn Prefetcher>> {
    match cfg.prefetcher {
        PrefetcherKind::None => None,
        PrefetcherKind::NextLine => Some(Box::new(droplet_prefetch::NextLinePrefetcher::new(2))),
        PrefetcherKind::Ghb => Some(Box::new(GhbPrefetcher::new(cfg.ghb.clone()))),
        PrefetcherKind::Vldp => Some(Box::new(VldpPrefetcher::new(cfg.vldp.clone()))),
        PrefetcherKind::Stream
        | PrefetcherKind::StreamMpp1
        | PrefetcherKind::Droplet
        | PrefetcherKind::MonoDropletL1
        | PrefetcherKind::AdaptiveDroplet => {
            Some(Box::new(StreamPrefetcher::new(cfg.stream.clone())))
        }
    }
}

/// The MPP `cfg` asks for, programmed with `bundle`'s property targets.
fn build_mpp(cfg: &SystemConfig, bundle: &TraceBundle) -> Option<Mpp> {
    cfg.prefetcher.has_mpp().then(|| {
        let mut targets = vec![droplet_prefetch::PropertyTarget {
            base: bundle.property_base,
            elem_bytes: bundle.prop_elem_bytes,
            len: bundle.prop_len,
        }];
        for &(base, elem_bytes, len) in &bundle.extra_property_targets {
            targets.push(droplet_prefetch::PropertyTarget {
                base,
                elem_bytes,
                len,
            });
        }
        Mpp::new_multi(cfg.mpp.clone(), targets)
    })
}

/// The adaptive-DROPLET probing state `cfg` asks for (fresh).
fn build_adaptive(cfg: &SystemConfig) -> Option<AdaptiveState> {
    (cfg.prefetcher == PrefetcherKind::AdaptiveDroplet).then(|| AdaptiveState {
        epoch_misses: cfg.adaptive_epoch_misses.max(1),
        misses: 0,
        latency_sum: 0,
        phase: 0,
        probe_data_aware_avg: 0.0,
    })
}

/// The worst-case latency a *demand* access would pay if it re-issued
/// to DRAM right now with demand priority. A demand hit on a line whose
/// in-flight (deprioritized) prefetch completes later than this is
/// promoted: real MSHRs upgrade the pending request to demand priority.
/// A pure function of the configuration, computed once at system build.
fn demand_promotion_budget(cfg: &SystemConfig) -> Cycle {
    let l2 = cfg.l2.as_ref().map_or(0, |c| c.tag_latency);
    cfg.l1.tag_latency
        + l2
        + cfg.l3.tag_latency
        + cfg.l3.data_latency
        + cfg.dram.device_latency
        + cfg.dram.bus_occupancy
        + cfg.dram.bank_occupancy
}

impl MemorySystem for System<'_> {
    fn access(&mut self, op: &MemOp, id: OpId, now: Cycle) -> AccessResponse {
        let response = self.access_inner(op, id, now);
        // Zero-overhead gate: with observability off this is one always-
        // not-taken branch; on, the sampler only *reads* statistics, so
        // simulated timing is identical either way.
        if self.obs.is_some() {
            self.obs_op(op, now);
        }
        response
    }

    fn warmup_done(&mut self, now: Cycle) {
        self.l1.reset_stats();
        if let Some(l2) = self.l2.as_mut() {
            l2.reset_stats();
        }
        self.l3.reset_stats();
        self.dram.reset_stats();
        if let Some(mpp) = self.mpp.as_mut() {
            mpp.reset_stats();
        }
        let locked = self.stats.adaptive_locked_data_aware;
        self.stats = SystemStats::default();
        self.stats.adaptive_locked_data_aware = locked;
        // In-flight prefetch tracking persists across the warm-up boundary:
        // lines prefetched late in warm-up and used in the window count.

        // `now` is the retire clock at the boundary — the same clock
        // `CoreResult::cycles` is measured on — recorded so utilization
        // windows line up with the core's measurement window.
        self.warmup_boundary = now;
        // Warm-up is demand-only; the prefetch machinery goes live here.
        self.pf_enabled = true;
        if self.obs.is_some() {
            // Anchor the sampler at the just-reset statistics; the MRB's
            // lifetime counters are the only non-zero baseline values.
            let baseline = self.obs_snapshot(now);
            if let Some(obs) = self.obs.as_mut() {
                obs.reset(baseline);
            }
        }
    }
}

impl System<'_> {
    /// The demand-path body of [`MemorySystem::access`]; split out so the
    /// sampling hook in the trait method stays off the fast path.
    fn access_inner(&mut self, op: &MemOp, _id: OpId, now: Cycle) -> AccessResponse {
        self.drain_mrb(now);

        let vaddr = op.addr();
        let is_store = !op.is_load();
        let dtype = op.dtype();

        // Address translation through the DTLB, lazily: the page table is
        // walked only on a DTLB miss.
        let mut t0 = now;
        let page_table = &mut self.page_table;
        let space = &self.bundle.space;
        let (entry, hit) = self
            .dtlb
            .access_entry(vaddr.page_number(), || page_table.translate(vaddr, space).1);
        if !hit {
            self.stats.dtlb_misses += 1;
            t0 += self.cfg.tlb_walk_latency;
        }
        let pl = (entry.frame * PAGE_BYTES + vaddr.page_offset()) / droplet_trace::LINE_BYTES;
        let is_structure = entry.structure;
        let mono = self.cfg.prefetcher.monolithic_l1();

        let promote = self.promote_budget;

        // --- L1 ---
        if let Some(hit) = self.l1.touch(pl, t0, dtype, is_store) {
            let complete = (hit.ready_at.max(t0) + self.cfg.l1.data_latency).min(t0 + promote);
            if mono {
                // Only the monolithic-L1 variants fill prefetches into the
                // L1, so only their hits can be the first demand touch of a
                // tracked line. The L1 copy carries its own accuracy bit
                // (set by the same fills that tag the L3), so the common
                // case stays inside the set the touch above just warmed and
                // the cold L3 tag probe runs only when the bit is present.
                if self.l1.take_tracked(pl).is_some() {
                    if let Some(dt) = self.l3.take_tracked(pl) {
                        self.stats.prefetch_useful.bump(dt);
                    }
                }
                if is_structure {
                    // The monolithic L1 streamer also sees its hits as
                    // feedback.
                    self.feed_prefetcher(AccessEvent {
                        vaddr,
                        kind: EventKind::L2Hit,
                        is_structure,
                        dtype,
                    });
                    self.process_prefetch_requests(now);
                }
            }
            return AccessResponse {
                complete_at: complete,
                level: ServiceLevel::L1,
            };
        }

        self.miss_tail(vaddr, pl, is_structure, t0, now, dtype, is_store)
    }

    /// The L1-miss tail of the demand path: prefetch-accuracy settling,
    /// L2-queue snoop, MSHR stall, the L2/L3/DRAM descent, demand fills,
    /// and prefetch issue (`t0` is the post-translation start time, `now`
    /// the issue cycle). Out of line so [`System::access_inner`]'s L1-hit
    /// path stays small. The seven arguments are the demand-path
    /// registers at the split point.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn miss_tail(
        &mut self,
        vaddr: VirtAddr,
        pl: u64,
        is_structure: bool,
        mut t0: Cycle,
        now: Cycle,
        dtype: DataType,
        is_store: bool,
    ) -> AccessResponse {
        let promote = self.promote_budget;
        let mono = self.cfg.prefetcher.monolithic_l1();

        // Settle prefetch-accuracy tracking: the first demand touch of a
        // tracked line means the prefetch was useful. For everyone but the
        // monolithic-L1 variants prefetch fills stop at the L2, so that
        // first touch always lands here on the L1-miss path (hits skip the
        // probe entirely); the monolithic case still needs it for lines
        // whose L1 copy was evicted while the L3 tag stayed alive.
        if let Some(dt) = self.l3.take_tracked(pl) {
            self.stats.prefetch_useful.bump(dt);
        }

        // L1 miss: the miss address (with its TLB structure bit) enters the
        // L2 request queue, which the core-side prefetcher snoops.
        self.feed_prefetcher(AccessEvent {
            vaddr,
            kind: EventKind::L1Miss,
            is_structure,
            dtype,
        });

        // Allocate an MSHR: at most `mshrs` demand misses may be in
        // flight; a full file stalls the new miss until a slot frees.
        let free_at = self.mshr.earliest_free();
        if free_at > t0 {
            t0 = free_at;
        }

        let t1 = t0 + self.cfg.l1.tag_latency;
        let (response, fill_ready) = 'path: {
            // --- L2 --- (absent in the Fig. 4b leftmost bar)
            let mut t2 = t1;
            if let Some(l2) = self.l2.as_mut() {
                let (l2_tag, l2_data) = (l2.config().tag_latency, l2.config().data_latency);
                if let Some(hit) = l2.touch(pl, t1, dtype, is_store) {
                    let complete = (hit.ready_at.max(t1) + l2_data).min(t1 + promote);
                    // DROPLET's data-aware streamer trains on L2 structure
                    // hits (Fig. 9(b)).
                    let live_data_aware =
                        self.core_pf.as_ref().is_some_and(|pf| pf.is_data_aware());
                    if is_structure && live_data_aware && !mono {
                        self.feed_prefetcher(AccessEvent {
                            vaddr,
                            kind: EventKind::L2Hit,
                            is_structure,
                            dtype,
                        });
                    }
                    let f = FillInfo::demand(dtype, complete);
                    self.l1.fill(pl, if is_store { f.dirty() } else { f });
                    break 'path (
                        AccessResponse {
                            complete_at: complete,
                            level: ServiceLevel::L2,
                        },
                        None,
                    );
                }
                t2 = t1 + l2_tag;
            }
            // --- L3 ---
            if let Some(hit) = self.l3.touch(pl, t2, dtype, is_store) {
                let complete = (hit.ready_at.max(t2) + self.cfg.l3.data_latency).min(t2 + promote);
                break 'path (
                    AccessResponse {
                        complete_at: complete,
                        level: ServiceLevel::L3,
                    },
                    Some(complete),
                );
            }
            let resp = self.dram.request(pl, t2 + self.cfg.l3.tag_latency, false);
            (
                AccessResponse {
                    complete_at: resp.complete_at,
                    level: ServiceLevel::Dram,
                },
                Some(resp.complete_at),
            )
        };

        self.mshr.allocate(response.complete_at);
        self.adaptive_observe_miss(response.complete_at.saturating_sub(now));

        // Demand fills on the refill path (inclusive hierarchy).
        if let Some(ready) = fill_ready {
            if response.level == ServiceLevel::Dram {
                self.fill_l3(pl, FillInfo::demand(dtype, ready), now);
            }
            if let Some(l2) = self.l2.as_mut() {
                l2.fill(pl, FillInfo::demand(dtype, ready));
            }
            let f = FillInfo::demand(dtype, ready);
            self.l1.fill(pl, if is_store { f.dirty() } else { f });
        }

        self.process_prefetch_requests(now);
        response
    }

    /// Counts one retired demand op for the sampler and snapshots the
    /// system at epoch boundaries. Out-of-line so the `access` fast path
    /// pays only the `is_some` branch when sampling is off.
    #[inline(never)]
    fn obs_op(&mut self, op: &MemOp, now: Cycle) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        if obs.on_op(1 + u64::from(op.pre_compute())) {
            obs.record(self.obs_snapshot(now));
        }
        self.obs = Some(obs);
    }

    /// A read-only snapshot of every statistics block. Nothing simulated is
    /// touched here — which is why digests match with sampling on and off.
    fn obs_snapshot(&self, cycle: Cycle) -> ObsSnapshot {
        let (mrb_inserted, mrb_overflowed) = self.mrb.stats();
        ObsSnapshot {
            ops: 0,
            instructions: 0,
            cycle,
            l1: *self.l1.stats(),
            l2: self.l2.as_ref().map(|c| *c.stats()),
            l3: *self.l3.stats(),
            dram: *self.dram.stats(),
            mrb_len: self.mrb.len() as u64,
            mrb_inserted,
            mrb_overflowed,
            mpp: self.mpp.as_ref().map(|m| *m.stats()),
            prefetch_useful: self.stats.prefetch_useful,
            prefetch_wasted: self.stats.prefetch_wasted,
            writebacks: self.stats.writebacks,
        }
    }

    /// Retire-clock cycle at which the measurement window opened.
    pub fn warmup_boundary(&self) -> Cycle {
        self.warmup_boundary
    }

    /// Closes the sampler at the end-of-run retire cycle and takes the run
    /// journal; `None` when observability is off.
    pub fn take_journal(&mut self, end_cycle: Cycle) -> Option<RunJournal> {
        let mut obs = self.obs.take()?;
        obs.flush_final(self.obs_snapshot(end_cycle));
        Some(obs.into_journal())
    }

    /// Subscribes `stream` to the epoch sampler: measurement-window epochs
    /// are pushed as JSONL lines while the run simulates (the
    /// `droplet-serve` streaming path). A no-op when observability is off —
    /// callers wanting live epochs must set [`SystemConfig::obs`] first.
    /// Subscribing never changes simulated behavior or digests.
    pub fn attach_obs_stream(&mut self, stream: std::sync::Arc<droplet_obs::EpochStream>) {
        if let Some(obs) = self.obs.as_mut() {
            obs.set_stream(stream);
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Core-side timing results.
    pub core: CoreResult,
    /// Per-level cache statistics (measurement window).
    pub l1: CacheStats,
    /// L2 statistics, when an L2 is configured.
    pub l2: Option<CacheStats>,
    /// Shared-LLC statistics.
    pub l3: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// MPP statistics, when the configuration has an MPP.
    pub mpp: Option<MppStats>,
    /// Orchestration statistics.
    pub sys: SystemStats,
    /// Whether prefetches land in the L1 (monolithic variant).
    pub prefetch_home_is_l1: bool,
    /// Retire-clock cycle at which the measurement window opened (so the
    /// window is `[warmup_boundary_cycle, warmup_boundary_cycle +
    /// core.cycles)`).
    pub warmup_boundary_cycle: Cycle,
    /// Warm-up ops the caller requested.
    pub warmup_ops_requested: u64,
    /// Warm-up ops actually applied after the half-trace clamp. When this
    /// differs from the request the run is *half-warm* — check
    /// [`RunResult::warmup_clamped`] before quoting its numbers.
    pub warmup_ops_applied: u64,
    /// Whether the half-trace clamp shortened the requested warm-up.
    pub warmup_clamped: bool,
    /// Reproducibility manifest (config hash, warm-up clamp, wall time…).
    pub manifest: RunManifest,
    /// Epoch journal, present when the configuration enabled sampling.
    pub journal: Option<RunJournal>,
}

impl RunResult {
    /// LLC demand misses per kilo instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.l3.mpki(self.core.instructions)
    }

    /// LLC demand MPKI for one data type (Fig. 13).
    pub fn llc_mpki_of(&self, dtype: DataType) -> f64 {
        if self.core.instructions == 0 {
            0.0
        } else {
            self.l3.demand_misses().get(dtype) as f64 * 1000.0 / self.core.instructions as f64
        }
    }

    /// L2 demand hit rate (Fig. 4b / Fig. 12); 0 when no L2 is configured.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.as_ref().map_or(0.0, CacheStats::hit_rate)
    }

    /// Bus accesses per kilo instruction (Fig. 15).
    pub fn bpki(&self) -> f64 {
        self.dram.bpki(self.core.instructions)
    }

    /// DRAM bandwidth utilization over the measurement window (Fig. 3a).
    ///
    /// Windowed on the retire clock from the warm-up boundary to the end
    /// of the run, then clipped by [`DramStats::window_utilization`] to
    /// when DRAM was actually active: a post-warm-up hit run before the
    /// first burst (`first_request_at`) is cache behavior, not idle DRAM
    /// bandwidth, and bursts draining past the last retire still count.
    pub fn bandwidth_utilization(&self) -> f64 {
        self.dram.window_utilization(
            self.warmup_boundary_cycle,
            self.warmup_boundary_cycle + self.core.cycles,
        )
    }

    /// Fraction of `dtype` demand references serviced by DRAM (Fig. 4c).
    pub fn offchip_fraction(&self, dtype: DataType) -> f64 {
        let refs = self.l1.demand_accesses.get(dtype);
        if refs == 0 {
            0.0
        } else {
            self.l3.demand_misses().get(dtype) as f64 / refs as f64
        }
    }

    /// Where demand accesses of `dtype` were serviced: fractions for
    /// [L1, L2, L3, DRAM] (Fig. 7).
    pub fn service_breakdown(&self, dtype: DataType) -> [f64; 4] {
        let total = self.l1.demand_accesses.get(dtype);
        if total == 0 {
            return [0.0; 4];
        }
        let l1h = self.l1.demand_hits.get(dtype);
        let l2h = self.l2.as_ref().map_or(0, |s| s.demand_hits.get(dtype));
        let l3h = self.l3.demand_hits.get(dtype);
        let dram = self.l3.demand_misses().get(dtype);
        let t = total as f64;
        [
            l1h as f64 / t,
            l2h as f64 / t,
            l3h as f64 / t,
            dram as f64 / t,
        ]
    }

    /// Prefetch accuracy for `dtype` (Fig. 14): the fraction of prefetched
    /// lines demanded while on chip, over those plus the lines evicted
    /// off-chip unused.
    pub fn prefetch_accuracy(&self, dtype: DataType) -> f64 {
        self.sys.prefetch_accuracy(dtype)
    }

    /// FNV-1a digest over every deterministic field of the result — all
    /// simulated statistics plus the warm-up boundary, excluding manifest
    /// lineage, wall time, and the journal (which add sampling-cadence and
    /// timing noise). Two runs of the same (trace, config, warm-up) always
    /// digest equal regardless of threading, forking, chunking, or
    /// observability; the fork-determinism and serve dedupe suites pin
    /// this.
    pub fn digest(&self) -> u64 {
        let repr = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
            self.core,
            self.l1,
            self.l2,
            self.l3,
            self.dram,
            self.mpp,
            self.sys,
            self.warmup_boundary_cycle,
            self.warmup_ops_applied,
        );
        fnv1a(repr.as_bytes())
    }
}

/// FNV-1a hash over the *simulated* machine: the configuration with the
/// observability option cleared, so sampled and unsampled runs of the same
/// machine share a hash. This is the hash every [`RunManifest`] records and
/// the identity `droplet-serve` keys its in-flight dedupe and on-disk
/// result store on.
pub fn config_hash(cfg: &SystemConfig) -> u64 {
    let mut machine = cfg.clone();
    machine.obs = None;
    fnv1a(format!("{machine:?}").as_bytes())
}

/// Replays `bundle` against a system configured by `cfg`, with the first
/// `warmup_ops` operations excluded from statistics.
///
/// A warm-up longer than the trace is clamped so the measurement window
/// still covers at least half of it; the clamp is surfaced in
/// [`RunResult::warmup_clamped`] and the manifest rather than applied
/// silently.
///
/// # Example
///
/// See the crate-level example.
pub fn run_workload(bundle: &TraceBundle, cfg: &SystemConfig, warmup_ops: usize) -> RunResult {
    run_workload_from(&mut SliceSource::new(&bundle.ops), bundle, cfg, warmup_ops)
}

/// [`run_workload`] over an arbitrary [`TraceSource`] — the zero-copy
/// replay path. `source` supplies the op stream (e.g. a block-decoded
/// columnar artifact, see [`droplet_trace::ColumnarSource`]); `bundle`
/// still supplies everything the system needs besides the ops themselves
/// (address space, functional memory, property layout). The source must
/// carry the same op stream as `bundle` was built with — replaying a
/// different stream against mismatched functional memory is not detected
/// here; [`droplet_trace::ColumnarSource::digest`] exists so callers can
/// check before replaying.
///
/// Results are bit-identical to [`run_workload`]: both drive the same
/// chunk-resumable engine, and the engine's state is a pure function of
/// the ops applied so far, independent of chunking.
pub fn run_workload_from(
    source: &mut dyn TraceSource,
    bundle: &TraceBundle,
    cfg: &SystemConfig,
    warmup_ops: usize,
) -> RunResult {
    run_workload_with_stream(source, bundle, cfg, warmup_ops, None)
}

/// [`run_workload_from`] with an optional live [`EpochStream`] subscribed
/// before the first op: measurement epochs are pushed to the stream as the
/// run progresses, and the stream is finished when the result is
/// assembled. Requires [`SystemConfig::obs`] to be set for any lines to
/// flow; results are bit-identical to the unstreamed runners either way.
///
/// [`EpochStream`]: droplet_obs::EpochStream
pub fn run_workload_with_stream(
    source: &mut dyn TraceSource,
    bundle: &TraceBundle,
    cfg: &SystemConfig,
    warmup_ops: usize,
    stream: Option<std::sync::Arc<droplet_obs::EpochStream>>,
) -> RunResult {
    let wall = std::time::Instant::now();
    let total = source.op_count();
    let mut engine = CoreEngine::new(cfg.core);
    let mut system = System::new(cfg.clone(), bundle);
    if let Some(stream) = stream {
        system.attach_obs_stream(stream);
    }
    let applied = (warmup_ops as u64).min(total / 2);
    feed_warmup(&mut engine, source, &mut system, applied);
    let core_result = feed_measure(&mut engine, source, &mut system, applied, total);
    assemble_result(
        system,
        core_result,
        RunShape {
            warmup_requested: warmup_ops as u64,
            warmup_applied: applied,
            trace_ops: total,
            forked_from: None,
            warmup_shared: None,
        },
        wall,
    )
}

/// Streams `[0, until)` from `source` into the engine's warm-up span.
pub(crate) fn feed_warmup(
    engine: &mut CoreEngine,
    source: &mut dyn TraceSource,
    system: &mut System<'_>,
    until: u64,
) {
    let mut pos = 0u64;
    while pos < until {
        let want = usize::try_from(until - pos).unwrap_or(usize::MAX);
        let run = source.next_block(pos, want);
        if run.is_empty() {
            break; // source shorter than promised; nothing left to feed
        }
        engine.warmup(run, system);
        pos += run.len() as u64;
    }
}

/// Opens the measurement window and streams `[from, total)` through it.
pub(crate) fn feed_measure(
    engine: &mut CoreEngine,
    source: &mut dyn TraceSource,
    system: &mut System<'_>,
    from: u64,
    total: u64,
) -> CoreResult {
    let mut m = engine.open_window(system);
    let mut pos = from;
    while pos < total {
        let run = source.next_block(pos, usize::MAX);
        if run.is_empty() {
            break;
        }
        engine.measure_chunk(run, system, &mut m);
        pos += run.len() as u64;
    }
    engine.finish(m)
}

/// How a finished run came to be: warm-up accounting plus fork lineage.
pub(crate) struct RunShape {
    pub warmup_requested: u64,
    pub warmup_applied: u64,
    /// Ops in the replayed trace (the source's count, not the bundle's).
    pub trace_ops: u64,
    /// Parent snapshot's config hash, for forked runs.
    pub forked_from: Option<u64>,
    /// Inherited warm-up op count, for forked runs.
    pub warmup_shared: Option<u64>,
}

/// Drains the finished `system` into a [`RunResult`] with its manifest —
/// the single assembly path shared by [`run_workload`] and the forked
/// runner ([`crate::fork::run_forked`]), so fork and full runs can never
/// drift in what they report.
pub(crate) fn assemble_result(
    mut system: System<'_>,
    core_result: CoreResult,
    shape: RunShape,
    wall: std::time::Instant,
) -> RunResult {
    let cfg = &system.cfg;
    let boundary = system.warmup_boundary;
    let config_hash = config_hash(cfg);
    let prefetcher = cfg.prefetcher.name().to_string();
    let policies = format!(
        "{}/{}/{}",
        cfg.l1.policy.name(),
        cfg.l2.as_ref().map_or("-", |c| c.policy.name()),
        cfg.l3.policy.name()
    );
    let trace_ops = shape.trace_ops;
    let epoch_ops = cfg.obs.map(|o| o.epoch_ops);
    let prefetch_home_is_l1 = cfg.prefetcher.monolithic_l1();
    let journal = system.take_journal(boundary + core_result.cycles);
    let manifest = RunManifest {
        config_hash,
        prefetcher,
        policies,
        workload: None,
        trace_ops,
        warmup_requested: shape.warmup_requested,
        warmup_applied: shape.warmup_applied,
        warmup_clamped: shape.warmup_applied != shape.warmup_requested,
        warmup_boundary_cycle: boundary,
        threads: None,
        seed: std::env::var("DROPLET_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok()),
        epoch_ops,
        epochs: journal.as_ref().map(|j| j.epoch_count() as u64),
        wall_ms: wall.elapsed().as_secs_f64() * 1000.0,
        forked_from: shape.forked_from,
        warmup_shared: shape.warmup_shared,
        // Driver-level context the library can't see; drivers that run a
        // trace cache fill these in before journaling.
        trace_cache_len: None,
        trace_cache_bytes: None,
    };
    RunResult {
        core: core_result,
        l1: *system.l1.stats(),
        l2: system.l2.as_ref().map(|c| *c.stats()),
        l3: *system.l3.stats(),
        dram: *system.dram.stats(),
        mpp: system.mpp.as_ref().map(|m| *m.stats()),
        sys: system.stats,
        prefetch_home_is_l1,
        warmup_boundary_cycle: boundary,
        warmup_ops_requested: shape.warmup_requested,
        warmup_ops_applied: shape.warmup_applied,
        warmup_clamped: shape.warmup_applied != shape.warmup_requested,
        manifest,
        journal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_gap::Algorithm;
    use droplet_graph::{Dataset, DatasetScale};
    use std::sync::Arc;

    fn bundle(algo: Algorithm) -> TraceBundle {
        let g = if algo.needs_weights() {
            Arc::new(Dataset::Kron.build_weighted(DatasetScale::Tiny))
        } else {
            Arc::new(Dataset::Kron.build(DatasetScale::Tiny))
        };
        algo.trace(&g, 200_000)
    }

    #[test]
    fn baseline_run_produces_consistent_stats() {
        let b = bundle(Algorithm::Pr);
        let r = run_workload(&b, &SystemConfig::baseline(), 1_000);
        assert!(r.core.cycles > 0);
        assert!(r.core.instructions > 0);
        // Every L1 demand access is either a hit or descends the hierarchy.
        let l1 = &r.l1;
        let l2 = r.l2.as_ref().unwrap();
        assert_eq!(
            l1.demand_misses().total(),
            l2.demand_accesses.total(),
            "L1 misses must equal L2 accesses"
        );
        assert_eq!(l2.demand_misses().total(), r.l3.demand_accesses.total());
        // DRAM demand accesses = L3 misses + writebacks.
        assert_eq!(
            r.dram.demand_accesses,
            r.l3.demand_misses().total() + r.sys.writebacks
        );
        assert_eq!(r.dram.prefetch_accesses, 0);
    }

    #[test]
    fn droplet_speeds_up_pagerank() {
        let b = bundle(Algorithm::Pr);
        let base = run_workload(&b, &SystemConfig::baseline(), 1_000);
        let drop = run_workload(
            &b,
            &SystemConfig::baseline().with_prefetcher(PrefetcherKind::Droplet),
            1_000,
        );
        assert!(
            drop.core.cycles < base.core.cycles,
            "DROPLET {} vs baseline {}",
            drop.core.cycles,
            base.core.cycles
        );
        // The MPP actually issued property prefetches.
        let mpp = drop.mpp.unwrap();
        assert!(mpp.candidates > 0);
        assert!(drop.dram.prefetch_accesses > 0);
    }

    #[test]
    fn droplet_raises_l2_hit_rate() {
        let b = bundle(Algorithm::Pr);
        let base = run_workload(&b, &SystemConfig::baseline(), 1_000);
        let drop = run_workload(
            &b,
            &SystemConfig::baseline().with_prefetcher(PrefetcherKind::Droplet),
            1_000,
        );
        assert!(
            drop.l2_hit_rate() > base.l2_hit_rate() + 0.05,
            "L2 hit rate: {} vs {}",
            drop.l2_hit_rate(),
            base.l2_hit_rate()
        );
    }

    #[test]
    fn all_prefetcher_kinds_run_without_slowdown_catastrophe() {
        let b = bundle(Algorithm::Bfs);
        let base = run_workload(&b, &SystemConfig::baseline(), 1_000);
        for kind in PrefetcherKind::EVALUATED {
            let r = run_workload(&b, &SystemConfig::baseline().with_prefetcher(kind), 1_000);
            assert!(
                r.core.cycles < base.core.cycles * 13 / 10,
                "{kind} catastrophically slow: {} vs {}",
                r.core.cycles,
                base.core.cycles
            );
        }
    }

    #[test]
    fn no_l2_configuration_works() {
        let b = bundle(Algorithm::Cc);
        let r = run_workload(&b, &SystemConfig::baseline().with_l2(None), 1_000);
        assert!(r.l2.is_none());
        assert_eq!(r.l2_hit_rate(), 0.0);
        assert!(r.core.cycles > 0);
        assert_eq!(r.l1.demand_misses().total(), r.l3.demand_accesses.total());
    }

    #[test]
    fn service_breakdown_sums_to_one() {
        let b = bundle(Algorithm::Sssp);
        let r = run_workload(&b, &SystemConfig::baseline(), 1_000);
        for dt in DataType::ALL {
            let parts = r.service_breakdown(dt);
            let sum: f64 = parts.iter().sum();
            if r.l1.demand_accesses.get(dt) > 0 {
                assert!((sum - 1.0).abs() < 1e-9, "{dt}: {parts:?}");
            }
        }
    }

    #[test]
    fn bigger_llc_reduces_mpki() {
        let b = bundle(Algorithm::Pr);
        let small = run_workload(&b, &SystemConfig::baseline(), 1_000);
        let big = run_workload(&b, &SystemConfig::baseline().with_llc_megabytes(64), 1_000);
        assert!(big.llc_mpki() <= small.llc_mpki());
    }

    #[test]
    fn prefetching_consumes_extra_bandwidth() {
        let b = bundle(Algorithm::Pr);
        let base = run_workload(&b, &SystemConfig::baseline(), 1_000);
        let drop = run_workload(
            &b,
            &SystemConfig::baseline().with_prefetcher(PrefetcherKind::Droplet),
            1_000,
        );
        // With near-perfect accuracy a prefetched line simply replaces the
        // demand burst for the same line, so BPKI can even dip slightly
        // below baseline; it must stay in the neighbourhood and the
        // prefetch traffic itself must exist.
        assert!(
            drop.bpki() > base.bpki() * 0.85,
            "{} vs {}",
            drop.bpki(),
            base.bpki()
        );
        assert!(drop.dram.prefetch_accesses > 0);
    }

    #[test]
    fn mono_variant_prefetches_into_l1() {
        let b = bundle(Algorithm::Pr);
        let r = run_workload(
            &b,
            &SystemConfig::baseline().with_prefetcher(PrefetcherKind::MonoDropletL1),
            1_000,
        );
        assert!(r.prefetch_home_is_l1);
        assert!(
            r.l1.prefetch_fills.total() > 0,
            "monolithic variant must fill the L1"
        );
    }
}
