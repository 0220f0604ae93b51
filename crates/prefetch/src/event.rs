//! The event/request vocabulary shared by all core-side prefetch engines.

use droplet_trace::{DataType, VirtAddr, LINE_BYTES, PAGE_BYTES};

/// What kind of cache event the prefetcher is observing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An L1 miss arriving at the L2 request queue (the conventional
    /// streamer's training input).
    L1Miss,
    /// A hit in the L2 cache (the data-aware streamer additionally trains on
    /// L2 *structure* hits, Fig. 9(b)).
    L2Hit,
}

/// One observed access, in virtual address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// The accessed virtual address.
    pub vaddr: VirtAddr,
    /// Whether this was an L1 miss or an L2 hit.
    pub kind: EventKind,
    /// The extra bit from the TLB entry: the page holds structure data.
    pub is_structure: bool,
    /// Data type of the access (for request labeling; engines other than
    /// the data-aware streamer must not make decisions from it).
    pub dtype: DataType,
}

impl AccessEvent {
    /// The virtual line index of the access.
    pub fn line(&self) -> u64 {
        self.vaddr.line_index()
    }

    /// The virtual page number of the access.
    pub fn page(&self) -> u64 {
        self.vaddr.page_number()
    }

    /// Line offset within the page (0..64 at 4 KiB pages / 64 B lines).
    pub fn line_in_page(&self) -> u64 {
        (self.vaddr.raw() % PAGE_BYTES) / LINE_BYTES
    }
}

/// A prefetch produced by a core-side engine, in virtual line space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Virtual line index to prefetch.
    pub vline: u64,
    /// Data type the engine believes it is fetching (used for accuracy
    /// accounting; resolved against the allocator by the system).
    pub dtype: DataType,
    /// `true` for requests from a data-aware streamer, which are enqueued
    /// in the L3 request queue instead of the L2 queue (Fig. 9(b) ❸) and
    /// carry the C-bit through the memory controller.
    pub into_l3_queue: bool,
}

/// A reactive core-side prefetch engine.
///
/// `Send + Sync` lets a system holding a boxed engine run on the sweep
/// worker pool; engines are plain lookup tables, so every implementation
/// satisfies both automatically. Engines are never cloned: warm-up never
/// feeds them, so a forked sweep cell builds its engine fresh from its
/// configuration at the warm-up boundary.
pub trait Prefetcher: Send + Sync {
    /// Observes one access and appends any prefetch requests to `out`.
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>);

    /// Short engine name for reports.
    fn name(&self) -> &'static str;

    /// Requests issued so far.
    fn issued(&self) -> u64;

    /// Runtime mode switch for engines with a data-aware filter (the
    /// adaptive-DROPLET extension of Section VII-B). Default: no-op.
    fn set_data_aware(&mut self, on: bool) {
        let _ = on;
    }

    /// Whether the engine is currently in data-aware mode.
    fn is_data_aware(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_geometry_helpers() {
        let ev = AccessEvent {
            vaddr: VirtAddr::new(PAGE_BYTES * 3 + 130),
            kind: EventKind::L1Miss,
            is_structure: true,
            dtype: DataType::Structure,
        };
        assert_eq!(ev.page(), 3);
        assert_eq!(ev.line_in_page(), 2);
        assert_eq!(ev.line(), (PAGE_BYTES * 3 + 130) / LINE_BYTES);
    }
}
