//! Hardware-overhead accounting (paper Section V-D).
//!
//! The paper's McPAT area numbers are out of scope for a simulator
//! reproduction; the *storage* arithmetic — which is what the overhead
//! argument rests on — is reproduced exactly: the extra page-table bit
//! (64 B per 4 KB paging structure, 1.56 %), the extra L2-request-queue bit
//! (4 B on a 32-entry queue, 1.54 %), the MPP's ≈7.7 KB of buffers, and the
//! MRB's 64 B core-ID field.

use crate::config::SystemConfig;
use droplet_mem::Mrb;
use droplet_trace::PageTable;

/// Storage-overhead summary for a DROPLET configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Extra bytes per 4 KB x86-64 paging structure.
    pub page_table_bytes: u64,
    /// Relative overhead on the paging structure.
    pub page_table_ratio: f64,
    /// Extra bytes on the L2 request queue (one bit per entry).
    pub l2_queue_bytes: u64,
    /// Relative overhead on the queue (assuming 8 B entries as in \[57\]).
    pub l2_queue_ratio: f64,
    /// MPP buffer storage in bytes (VAB + PAB + MTLB + registers).
    pub mpp_bytes: u64,
    /// MRB core-ID field bytes for a quad-core system.
    pub mrb_core_id_bytes: u64,
}

/// L2 request-queue entries assumed by the paper ([56]).
const L2_QUEUE_ENTRIES: u64 = 32;

/// Computes the Section V-D storage overheads for `cfg`.
pub fn overheads(cfg: &SystemConfig) -> OverheadReport {
    let page_table_ratio = PageTable::extra_bit_overhead_ratio();
    let page_table_bytes = 64; // 512 entries × 1 bit
    let l2_queue_bytes = L2_QUEUE_ENTRIES / 8; // one bit per entry
                                               // Each queue entry holds a miss address + status ≈ 8 B ⇒ 1/65 ≈ 1.54 %.
    let l2_queue_ratio = 1.0 / 65.0;
    let mpp_bytes = cfg.mpp.storage_bytes() + 2 * 8; // + two 64-bit registers
    let mrb_core_id_bytes = Mrb::core_id_storage_bytes(cfg.mrb_entries, 4);
    OverheadReport {
        page_table_bytes,
        page_table_ratio,
        l2_queue_bytes,
        l2_queue_ratio,
        mpp_bytes,
        mrb_core_id_bytes,
    }
}

impl std::fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "page table: +{} B per 4 KB structure ({:.2}%)",
            self.page_table_bytes,
            100.0 * self.page_table_ratio
        )?;
        writeln!(
            f,
            "L2 request queue: +{} B ({:.2}%)",
            self.l2_queue_bytes,
            100.0 * self.l2_queue_ratio
        )?;
        writeln!(f, "MPP buffers + registers: {} B", self.mpp_bytes)?;
        write!(f, "MRB core-ID field: {} B", self.mrb_core_id_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let r = overheads(&SystemConfig::baseline());
        assert_eq!(r.page_table_bytes, 64);
        assert!((r.page_table_ratio * 100.0 - 1.5625).abs() < 1e-9);
        assert_eq!(r.l2_queue_bytes, 4);
        assert!((r.l2_queue_ratio * 100.0 - 1.54).abs() < 0.01);
        // VAB + PAB + MTLB ≈ 7.7 KB.
        assert!((7_000..9_100).contains(&r.mpp_bytes), "{}", r.mpp_bytes);
        assert_eq!(r.mrb_core_id_bytes, 64);
    }

    #[test]
    fn display_mentions_all_components() {
        let text = overheads(&SystemConfig::baseline()).to_string();
        for needle in ["page table", "L2 request queue", "MPP", "MRB"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
