//! Cache geometry and latency configuration (paper Table I + CACTI-derived
//! latencies for the swept LLC capacities of Fig. 4a).

use crate::policy::ReplacementPolicy;
use droplet_trace::LINE_BYTES;

/// Geometry and timing of one cache level.
///
/// # Example
///
/// ```
/// use droplet_cache::CacheConfig;
/// let l2 = CacheConfig::l2();
/// assert_eq!(l2.size_bytes, 256 * 1024);
/// assert_eq!(l2.num_sets(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", "L3").
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Cycles to access the tag array.
    pub tag_latency: u64,
    /// Cycles to access the data array (charged on hits and fills).
    pub data_latency: u64,
    /// Replacement policy of this level ([`ReplacementPolicy::Lru`] is the
    /// paper baseline). Part of the config's `Debug` form, so it flows into
    /// `SystemConfig::warmup_key` and the manifest config hash without any
    /// extra plumbing.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// LLC `(tag, data)` latencies by doubling step from the baseline
    /// capacity (×1/×2/×4/×8): the CACTI-style growth of the Fig. 4a sweep,
    /// where larger arrays are slower to access.
    pub const LLC_LATENCIES: [(u64, u64); 4] = [(10, 30), (11, 35), (13, 41), (15, 48)];

    /// The baseline 32 KB, 8-way L1D (4-cycle data, 1-cycle tag).
    pub fn l1d() -> Self {
        CacheConfig {
            name: "L1D",
            size_bytes: 32 * 1024,
            assoc: 8,
            tag_latency: 1,
            data_latency: 4,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The baseline 256 KB, 8-way private L2 (8-cycle data, 3-cycle tag).
    pub fn l2() -> Self {
        CacheConfig {
            name: "L2",
            size_bytes: 256 * 1024,
            assoc: 8,
            tag_latency: 3,
            data_latency: 8,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The baseline 8 MB, 16-way shared L3 (30-cycle data, 10-cycle tag).
    pub fn l3() -> Self {
        Self::l3_sized(8)
    }

    /// An L3 of `megabytes` capacity with the latencies of its doubling
    /// step from 8 MB ([`CacheConfig::LLC_LATENCIES`]).
    ///
    /// # Panics
    ///
    /// Panics if `megabytes` is not one of 8, 16, 32, 64.
    pub fn l3_sized(megabytes: u64) -> Self {
        let step = (0..Self::LLC_LATENCIES.len())
            .find(|&s| 8 << s == megabytes)
            .unwrap_or_else(|| panic!("no latency model for a {megabytes} MB LLC"));
        let (tag, data) = Self::LLC_LATENCIES[step];
        CacheConfig {
            name: "L3",
            size_bytes: megabytes * 1024 * 1024,
            assoc: 16,
            tag_latency: tag,
            data_latency: data,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Returns the same geometry under a different replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `assoc`-way sets of 64 B lines, or set count not a power of two).
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.assoc as u64),
            "{}: {} lines not divisible by associativity {}",
            self.name,
            lines,
            self.assoc
        );
        let sets = (lines / self.assoc as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "{}: set count must be a power of two",
            self.name
        );
        sets
    }

    /// Total lines of capacity.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_geometries_match_table_i() {
        assert_eq!(CacheConfig::l1d().num_sets(), 64);
        assert_eq!(CacheConfig::l2().num_sets(), 512);
        assert_eq!(CacheConfig::l3().num_sets(), 8192);
        assert_eq!(CacheConfig::l3().data_latency, 30);
    }

    #[test]
    fn llc_sweep_latencies_grow() {
        let lat: Vec<u64> = [8, 16, 32, 64]
            .iter()
            .map(|&mb| CacheConfig::l3_sized(mb).data_latency)
            .collect();
        assert!(lat.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "no latency model")]
    fn unknown_llc_size_rejected() {
        let _ = CacheConfig::l3_sized(128);
    }

    #[test]
    fn line_count() {
        assert_eq!(CacheConfig::l1d().num_lines(), 512);
    }

    #[test]
    fn constructors_default_to_lru_and_with_policy_swaps_it() {
        for cfg in [CacheConfig::l1d(), CacheConfig::l2(), CacheConfig::l3()] {
            assert_eq!(cfg.policy, ReplacementPolicy::Lru);
        }
        let srrip = CacheConfig::l3().with_policy(ReplacementPolicy::Srrip);
        assert_eq!(srrip.policy, ReplacementPolicy::Srrip);
        assert_ne!(srrip, CacheConfig::l3());
        // The policy is visible in Debug output (warmup_key relies on this).
        assert!(format!("{srrip:?}").contains("Srrip"));
    }
}
