//! A next-N-line prefetcher — the simplest hardware prefetcher, included as
//! a sanity baseline below the paper's evaluated set: on every L1 miss it
//! fetches the next `degree` sequential lines, page-bounded.
//!
//! Graph property accesses are address-random, so next-line prefetching
//! mostly converts one miss into one miss plus wasted bandwidth — which is
//! exactly why the paper starts from a *stream* prefetcher (confirmation
//! before volume) rather than this design.

use crate::event::{AccessEvent, EventKind, PrefetchRequest, Prefetcher};
use droplet_trace::{LINE_BYTES, PAGE_BYTES};

/// The next-line engine.
///
/// # Example
///
/// ```
/// use droplet_prefetch::{AccessEvent, EventKind, NextLinePrefetcher, Prefetcher};
/// use droplet_trace::{DataType, VirtAddr};
/// let mut pf = NextLinePrefetcher::new(2);
/// let mut out = Vec::new();
/// pf.on_access(&AccessEvent {
///     vaddr: VirtAddr::new(0x1000),
///     kind: EventKind::L1Miss,
///     is_structure: false,
///     dtype: DataType::Property,
/// }, &mut out);
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].vline, 0x1000 / 64 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher {
    degree: u64,
    issued: u64,
}

impl NextLinePrefetcher {
    /// Creates a next-`degree`-line prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: u64) -> Self {
        assert!(degree > 0, "degree must be positive");
        NextLinePrefetcher { degree, issued: 0 }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        let line = ev.line();
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        let page_last = (ev.page() + 1) * lines_per_page - 1;
        for step in 1..=self.degree {
            let next = line + step;
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
        "next-line"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::{DataType, VirtAddr};

    fn miss(line: u64) -> AccessEvent {
        AccessEvent {
            vaddr: VirtAddr::new(line * LINE_BYTES),
            kind: EventKind::L1Miss,
            is_structure: false,
            dtype: DataType::Structure,
        }
    }

    #[test]
    fn fetches_next_lines() {
        let mut pf = NextLinePrefetcher::new(3);
        let mut out = Vec::new();
        pf.on_access(&miss(100), &mut out);
        assert_eq!(
            out.iter().map(|r| r.vline).collect::<Vec<_>>(),
            vec![101, 102, 103]
        );
        assert_eq!(pf.issued(), 3);
        assert_eq!(pf.name(), "next-line");
    }

    #[test]
    fn stops_at_page_boundary() {
        let mut pf = NextLinePrefetcher::new(4);
        let mut out = Vec::new();
        // Line 63 is the last of page 0.
        pf.on_access(&miss(62), &mut out);
        assert_eq!(out.iter().map(|r| r.vline).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn ignores_hits() {
        let mut pf = NextLinePrefetcher::new(2);
        let mut out = Vec::new();
        let mut ev = miss(10);
        ev.kind = EventKind::L2Hit;
        pf.on_access(&ev, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let _ = NextLinePrefetcher::new(0);
    }
}
