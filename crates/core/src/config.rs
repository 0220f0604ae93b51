//! Whole-system configuration: the Table I baseline plus the six prefetcher
//! configurations of Section VII-A.

use droplet_cache::{CacheConfig, ReplacementPolicy};
use droplet_cpu::CoreConfig;
use droplet_graph::DatasetScale;
use droplet_mem::DramConfig;
use droplet_obs::ObsConfig;
use droplet_prefetch::{GhbConfig, MppConfig, StreamConfig, VldpConfig};

/// The prefetcher configuration under evaluation (paper Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching: the normalization baseline of Fig. 11.
    None,
    /// Next-2-line prefetcher at the L2: a sanity baseline below the
    /// paper's evaluated set.
    NextLine,
    /// G/DC global-history-buffer prefetcher at the L2.
    Ghb,
    /// Variable Length Delta Prefetcher at the L2.
    Vldp,
    /// Conventional L2 streamer snooping all L1 misses.
    Stream,
    /// Conventional streamer + MPP1 (MPP that recognizes structure lines by
    /// address range, since the streamer is not data-aware).
    StreamMpp1,
    /// DROPLET: data-aware structure-only streamer + decoupled MC-side MPP.
    Droplet,
    /// Data-aware streamer + MPP1 implemented monolithically at the L1 —
    /// the arrangement closest to Ainsworth & Jones \[40\].
    MonoDropletL1,
    /// The Section VII-B extension: DROPLET that adaptively turns the
    /// streamer's data-awareness off (becoming streamMPP1) when a probing
    /// epoch shows the conventional mode servicing demand misses faster —
    /// the "no worse than streamMPP1 for BFS and road" design.
    AdaptiveDroplet,
}

impl PrefetcherKind {
    /// The six evaluated configurations, in the paper's legend order.
    pub const EVALUATED: [PrefetcherKind; 6] = [
        PrefetcherKind::Ghb,
        PrefetcherKind::Vldp,
        PrefetcherKind::Stream,
        PrefetcherKind::StreamMpp1,
        PrefetcherKind::Droplet,
        PrefetcherKind::MonoDropletL1,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "baseline",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Ghb => "GHB",
            PrefetcherKind::Vldp => "VLDP",
            PrefetcherKind::Stream => "stream",
            PrefetcherKind::StreamMpp1 => "streamMPP1",
            PrefetcherKind::Droplet => "DROPLET",
            PrefetcherKind::MonoDropletL1 => "monoDROPLETL1",
            PrefetcherKind::AdaptiveDroplet => "DROPLET-adaptive",
        }
    }

    /// Whether the configuration includes an MPP (of either variant).
    pub fn has_mpp(self) -> bool {
        matches!(
            self,
            PrefetcherKind::StreamMpp1
                | PrefetcherKind::Droplet
                | PrefetcherKind::MonoDropletL1
                | PrefetcherKind::AdaptiveDroplet
        )
    }

    /// Whether the MPP variant recognizes structure lines by address range
    /// (MPP1) rather than relying on the MRB C-bit.
    pub fn mpp_recognizes_structure(self) -> bool {
        // The adaptive variant must recognize structure lines by range:
        // in conventional mode its streamer requests carry no C-bit.
        matches!(
            self,
            PrefetcherKind::StreamMpp1
                | PrefetcherKind::MonoDropletL1
                | PrefetcherKind::AdaptiveDroplet
        )
    }

    /// Whether all prefetching is wired monolithically at the L1.
    pub fn monolithic_l1(self) -> bool {
        matches!(self, PrefetcherKind::MonoDropletL1)
    }
}

impl std::fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full system configuration (paper Table I + Table V).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// L1D geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry; `None` models the "no private L2" point of
    /// Fig. 4b.
    pub l2: Option<CacheConfig>,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// Page-walk latency charged on a DTLB miss (cycles).
    pub tlb_walk_latency: u64,
    /// The prefetcher configuration under test.
    pub prefetcher: PrefetcherKind,
    /// Streamer parameters (used by Stream/StreamMPP1/DROPLET/mono).
    pub stream: StreamConfig,
    /// GHB parameters.
    pub ghb: GhbConfig,
    /// VLDP parameters.
    pub vldp: VldpConfig,
    /// MPP parameters.
    pub mpp: MppConfig,
    /// Memory-request-buffer capacity.
    pub mrb_entries: usize,
    /// L1 miss-status-holding registers: the cap on outstanding demand
    /// misses per core (10 on the Nehalem-class machines SNIPER validates
    /// against). This — together with the load-load chains — is what makes
    /// a 4× instruction window nearly useless (Fig. 3).
    pub mshrs: usize,
    /// Probing-epoch length (in demand L1 misses) for the adaptive
    /// DROPLET extension.
    pub adaptive_epoch_misses: u64,
    /// Epoch-sampling observability (`None` = off, the default). Purely a
    /// measurement option: it never changes simulated behavior, and it is
    /// excluded from the manifest's config hash.
    pub obs: Option<ObsConfig>,
}

impl SystemConfig {
    /// The Table I baseline with no prefetching.
    pub fn baseline() -> Self {
        SystemConfig {
            core: CoreConfig::baseline(),
            l1: CacheConfig::l1d(),
            l2: Some(CacheConfig::l2()),
            l3: CacheConfig::l3(),
            dram: DramConfig::ddr3(),
            dtlb_entries: 64,
            tlb_walk_latency: 30,
            prefetcher: PrefetcherKind::None,
            stream: StreamConfig::conventional(),
            ghb: GhbConfig::paper(),
            vldp: VldpConfig::paper(),
            mpp: MppConfig::paper(),
            mrb_entries: 256,
            mshrs: 10,
            adaptive_epoch_misses: 50_000,
            obs: None,
        }
    }

    /// A copy of this configuration with `kind` selected, the streamer
    /// mode adjusted to match (data-aware for DROPLET and the monolithic
    /// variant). Borrows so sweep loops can derive many configurations
    /// from one base without cloning at every call site.
    #[must_use]
    pub fn with_prefetcher(&self, kind: PrefetcherKind) -> Self {
        let mut cfg = self.clone();
        cfg.prefetcher = kind;
        // Flip the streamer mode but keep sizing (tracker count etc.) so
        // scaled-down configurations stay scaled.
        cfg.stream.data_aware = matches!(
            kind,
            PrefetcherKind::Droplet
                | PrefetcherKind::MonoDropletL1
                | PrefetcherKind::AdaptiveDroplet
        );
        cfg
    }

    /// Replaces the L3 with a CACTI-latency-scaled LLC of `megabytes`
    /// (the Fig. 4a sweep).
    #[must_use]
    pub fn with_llc_megabytes(mut self, megabytes: u64) -> Self {
        self.l3 = CacheConfig::l3_sized(megabytes);
        self
    }

    /// Replaces the private L2 (the Fig. 4b sweep); `None` removes it.
    #[must_use]
    pub fn with_l2(mut self, l2: Option<CacheConfig>) -> Self {
        self.l2 = l2;
        self
    }

    /// Swaps the LLC replacement policy (the policy-laboratory study).
    /// Flows into `warmup_key`/`config_hash` via the cache config's Debug
    /// form, so differently-policied runs never share a fork warm-up.
    #[must_use]
    pub fn with_l3_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.l3 = self.l3.with_policy(policy);
        self
    }

    /// Swaps the L2 replacement policy; a no-op when the L2 is removed.
    #[must_use]
    pub fn with_l2_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.l2 = self.l2.map(|c| c.with_policy(policy));
        self
    }

    /// Swaps the L1D replacement policy.
    #[must_use]
    pub fn with_l1_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.l1 = self.l1.with_policy(policy);
        self
    }

    /// Enables epoch-sampling observability with the given configuration.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Scales the instruction window (ROB) by `factor` — the Fig. 3
    /// experiment. The load/store queues keep their Table I sizes: the
    /// paper varies the window, not the whole core, and the fixed queues
    /// are part of why extra window exposes so little MLP.
    #[must_use]
    pub fn with_window_scale(mut self, factor: u32) -> Self {
        self.core.rob *= factor;
        self
    }

    /// A fingerprint of every field that influences simulated state *during
    /// warm-up* — the partition that decides when two sweep points may
    /// share one warmed snapshot ([`crate::fork`]).
    ///
    /// Warm-up is demand-only: the prefetch engine, the MPP, and the
    /// adaptive controller are built by `warmup_done`, so the
    /// **fork-safe** fields — `prefetcher`, `stream`, `ghb`, `vldp`, `mpp`,
    /// `mrb_entries` (the MRB is only filled by prefetch paths, hence empty
    /// at the boundary), `adaptive_epoch_misses`, and `obs` (measurement
    /// only, reset at the boundary) — are excluded. Everything else is
    /// **warmup-relevant** and hashed.
    ///
    /// The exhaustive destructuring below is the compile-time check: adding
    /// a field to `SystemConfig` breaks this function until the new field is
    /// explicitly classified into one of the two lists.
    pub fn warmup_key(&self) -> u64 {
        let SystemConfig {
            // Warmup-relevant: shape demand-path state before the boundary.
            core,
            l1,
            l2,
            l3,
            dram,
            dtlb_entries,
            tlb_walk_latency,
            mshrs,
            // Fork-safe: no warmed state depends on them (see above).
            prefetcher: _,
            stream: _,
            ghb: _,
            vldp: _,
            mpp: _,
            mrb_entries: _,
            adaptive_epoch_misses: _,
            obs: _,
        } = self;
        let repr = format!(
            "{core:?}|{l1:?}|{l2:?}|{l3:?}|{dram:?}|{dtlb_entries}|{tlb_walk_latency}|{mshrs}"
        );
        droplet_obs::fnv1a(repr.as_bytes())
    }

    /// A hierarchy scaled down ~512× for tests and examples on tiny
    /// datasets: the capacity *ratios* of Table I are preserved (structure
    /// working sets exceed the LLC, property working sets exceed the L2),
    /// so the paper's qualitative behaviours reproduce in milliseconds.
    pub fn test_scale() -> Self {
        Self::shrunk([1024, 8 * 1024, 16 * 1024], 4, 16, 10_000)
    }

    /// The base machine for graphs of `scale`: the Table I baseline at Sim
    /// scale, [`SystemConfig::test_scale`] at Tiny scale, and a hierarchy
    /// shrunk ~32× for Small graphs (~32 K vertices). All three use the
    /// conventional streamer and no prefetcher.
    pub fn for_scale(scale: DatasetScale) -> Self {
        match scale {
            DatasetScale::Sim => Self::baseline(),
            DatasetScale::Tiny => Self::test_scale(),
            DatasetScale::Small => Self::shrunk([4 * 1024, 32 * 1024, 256 * 1024], 16, 64, 25_000),
        }
    }

    /// The Table I baseline with L1/L2/L3 capacities of `cache_bytes` (the
    /// associativities and latencies stay) and the prefetch machinery
    /// scaled down with them.
    fn shrunk(
        cache_bytes: [u64; 3],
        stream_trackers: usize,
        mpp_entries: usize,
        adaptive_epoch_misses: u64,
    ) -> Self {
        let mut cfg = Self::baseline();
        let [l1, l2, l3] = cache_bytes;
        cfg.l1.size_bytes = l1;
        cfg.l2 = cfg.l2.map(|c| CacheConfig {
            size_bytes: l2,
            ..c
        });
        cfg.l3.size_bytes = l3;
        // Small datasets have few pages; scale the stream trackers down too
        // so tracker contention (Section V-B1) stays observable.
        cfg.stream.trackers = stream_trackers;
        // Prefetch lookahead must scale with L2 turnover, or timely lines
        // die before use in the miniature hierarchy.
        cfg.stream.distance = 8;
        cfg.stream.degree = 2;
        // Scale the MPP's VAB/PAB occupancy bound with the hierarchy so
        // outstanding property prefetches cannot thrash the whole LLC.
        cfg.mpp.vab_entries = mpp_entries;
        cfg.mpp.pab_entries = mpp_entries;
        cfg.adaptive_epoch_misses = adaptive_epoch_misses;
        cfg
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_i() {
        let c = SystemConfig::baseline();
        assert_eq!(c.core.rob, 128);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l2.as_ref().unwrap().size_bytes, 256 * 1024);
        assert_eq!(c.l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.prefetcher, PrefetcherKind::None);
        assert_eq!(c.mrb_entries, 256);
    }

    #[test]
    fn with_prefetcher_sets_streamer_mode() {
        let d = SystemConfig::baseline().with_prefetcher(PrefetcherKind::Droplet);
        assert!(d.stream.data_aware);
        let s = SystemConfig::baseline().with_prefetcher(PrefetcherKind::StreamMpp1);
        assert!(!s.stream.data_aware);
        let m = SystemConfig::baseline().with_prefetcher(PrefetcherKind::MonoDropletL1);
        assert!(m.stream.data_aware);
        assert!(m.prefetcher.monolithic_l1());
    }

    #[test]
    fn kind_predicates() {
        assert!(PrefetcherKind::Droplet.has_mpp());
        assert!(!PrefetcherKind::Droplet.mpp_recognizes_structure());
        assert!(PrefetcherKind::StreamMpp1.mpp_recognizes_structure());
        assert!(!PrefetcherKind::Stream.has_mpp());
        assert_eq!(PrefetcherKind::EVALUATED.len(), 6);
        assert_eq!(PrefetcherKind::Droplet.to_string(), "DROPLET");
    }

    #[test]
    fn sweep_builders_apply() {
        let c = SystemConfig::baseline()
            .with_llc_megabytes(32)
            .with_l2(None)
            .with_window_scale(4);
        assert_eq!(c.l3.size_bytes, 32 * 1024 * 1024);
        assert!(c.l2.is_none());
        assert_eq!(c.core.rob, 512);
    }
}
