//! The L2 stream prefetcher (paper Section V-B, following the streamer of
//! Srinath et al. \[53\]): 64 trackers, prefetch distance 16, stops at page
//! boundaries, and needs two additional miss addresses to confirm a stream
//! direction before prefetching.
//!
//! Two operating modes:
//!
//! - **conventional** — snoops *all* L1-miss addresses. As Section V-B1
//!   explains, property/intermediate accesses waste trackers and produce
//!   random streams, which the evaluation quantifies.
//! - **data-aware** (DROPLET) — triggered only by structure addresses
//!   (recognized via the TLB extra bit), additionally trained by L2
//!   structure *hits*, and its requests are buffered in the L3 request
//!   queue because new structure lines are serviced by DRAM anyway.

use crate::event::{AccessEvent, EventKind, PrefetchRequest, Prefetcher};
use droplet_trace::{find_u64, min_index_u64, DataType, LINE_BYTES, PAGE_BYTES};

/// Stream prefetcher parameters (paper Table V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of simultaneous stream trackers.
    pub trackers: usize,
    /// Prefetch distance in lines ahead of the trigger.
    pub distance: u64,
    /// Maximum lines issued per trigger event.
    pub degree: u64,
    /// DROPLET mode: structure-only training, L2-hit feedback, L3-queue
    /// insertion.
    pub data_aware: bool,
}

impl StreamConfig {
    /// The conventional streamer of Table V.
    pub fn conventional() -> Self {
        StreamConfig {
            trackers: 64,
            distance: 16,
            degree: 4,
            data_aware: false,
        }
    }

    /// DROPLET's data-aware structure streamer.
    pub fn data_aware() -> Self {
        StreamConfig {
            data_aware: true,
            ..Self::conventional()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrackerState {
    /// Allocated; watching for two consistent direction confirmations.
    Training,
    /// Stream confirmed; issuing prefetches.
    Monitoring,
}

#[derive(Debug, Clone, Copy)]
struct Tracker {
    state: TrackerState,
    /// Last observed line (global virtual line index).
    last_line: u64,
    /// +1 or −1 once a tentative direction exists.
    dir: i64,
    /// Direction confirmations so far (2 required).
    confirmations: u8,
    /// Next line to prefetch.
    next_prefetch: u64,
    /// Data type observed at allocation (labels this stream's requests).
    dtype: DataType,
}

/// The stream prefetch engine.
///
/// # Example
///
/// ```
/// use droplet_prefetch::{AccessEvent, EventKind, Prefetcher, StreamConfig, StreamPrefetcher};
/// use droplet_trace::{DataType, VirtAddr};
///
/// let mut pf = StreamPrefetcher::new(StreamConfig::conventional());
/// let mut out = Vec::new();
/// for i in 0..4u64 {
///     let ev = AccessEvent {
///         vaddr: VirtAddr::new(0x10_0000 + i * 64),
///         kind: EventKind::L1Miss,
///         is_structure: false,
///         dtype: DataType::Property,
///     };
///     pf.on_access(&ev, &mut out);
/// }
/// assert!(!out.is_empty(), "a confirmed ascending stream prefetches ahead");
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    cfg: StreamConfig,
    /// Monitored virtual page per tracker. Kept as a dense column (one
    /// cache line per 8 trackers) so the per-event lookup is a chunked
    /// [`find_u64`] instead of a pointer-striding struct scan: trackers are
    /// page-bounded, so this is the only field every event must search.
    pages: Vec<u64>,
    /// LRU stamp per tracker — its own column for the same reason; the
    /// allocation path picks victims with [`min_index_u64`].
    lru: Vec<u64>,
    /// The cold per-tracker state, parallel to `pages`/`lru`.
    trackers: Vec<Tracker>,
    /// Index of the last tracker touched: graph traversals are bursty
    /// within a page, so most events re-hit it and skip the scan.
    last_idx: usize,
    clock: u64,
    issued: u64,
    triggers: u64,
}

impl StreamPrefetcher {
    /// Creates an idle streamer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero trackers or zero distance.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(
            cfg.trackers > 0 && cfg.distance > 0,
            "degenerate stream config"
        );
        StreamPrefetcher {
            pages: Vec::with_capacity(cfg.trackers),
            lru: Vec::with_capacity(cfg.trackers),
            trackers: Vec::with_capacity(cfg.trackers),
            last_idx: usize::MAX,
            cfg,
            clock: 0,
            issued: 0,
            triggers: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Trigger events that produced at least one request.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    fn accepts(&self, ev: &AccessEvent) -> bool {
        if self.cfg.data_aware {
            // Structure-only; trains on L1 misses and on L2 structure hits.
            ev.is_structure
        } else {
            // Conventional: snoops the L2 request queue (L1 misses) only.
            ev.kind == EventKind::L1Miss
        }
    }

    fn page_bounds(page: u64) -> (u64, u64) {
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        (page * lines_per_page, (page + 1) * lines_per_page - 1)
    }

    fn emit(
        &mut self,
        t: &mut Tracker,
        page: u64,
        trigger_line: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let (lo, hi) = Self::page_bounds(page);
        let mut emitted = 0;
        while emitted < self.cfg.degree {
            let next = t.next_prefetch;
            // Keep the prefetch window within `distance` of the trigger.
            let ahead = next.abs_diff(trigger_line);
            if ahead > self.cfg.distance || next < lo || next > hi {
                break;
            }
            out.push(PrefetchRequest {
                vline: next,
                dtype: t.dtype,
                into_l3_queue: self.cfg.data_aware,
            });
            self.issued += 1;
            emitted += 1;
            let stepped = t.next_prefetch as i64 + t.dir;
            if stepped < lo as i64 || stepped > hi as i64 {
                t.next_prefetch = if t.dir > 0 { hi } else { lo };
                break;
            }
            t.next_prefetch = stepped as u64;
        }
        if emitted > 0 {
            self.triggers += 1;
        }
    }
}

impl Prefetcher for StreamPrefetcher {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if !self.accepts(ev) {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let line = ev.line();
        let page = ev.page();

        let found = match self.last_idx {
            memo if memo < self.pages.len() && self.pages[memo] == page => Some(memo),
            _ => find_u64(&self.pages, page),
        };
        if let Some(idx) = found {
            self.last_idx = idx;
            self.lru[idx] = clock;
            let mut t = self.trackers[idx];
            match t.state {
                TrackerState::Training => {
                    let step = line as i64 - t.last_line as i64;
                    if step != 0 {
                        let dir = step.signum();
                        if t.confirmations == 0 || dir == t.dir {
                            t.dir = dir;
                            t.confirmations += 1;
                        } else {
                            // Direction flip: restart training from here.
                            t.dir = dir;
                            t.confirmations = 1;
                        }
                        t.last_line = line;
                        if t.confirmations >= 2 {
                            t.state = TrackerState::Monitoring;
                            t.next_prefetch = (line as i64 + t.dir).max(0) as u64;
                            self.emit(&mut t, page, line, out);
                        }
                    }
                }
                TrackerState::Monitoring => {
                    // Advance the stream head monotonically with the access.
                    let ahead = (line as i64 - t.last_line as i64) * t.dir;
                    if ahead > 0 && ahead <= 2 * self.cfg.distance as i64 {
                        t.last_line = line;
                        if (t.next_prefetch as i64 - line as i64) * t.dir <= 0 {
                            t.next_prefetch = (line as i64 + t.dir).max(0) as u64;
                        }
                        self.emit(&mut t, page, line, out);
                    } else if ahead != 0 {
                        // The access fell outside the monitored window — a
                        // restarted or different stream over this page.
                        // A real streamer would allocate a fresh tracker;
                        // re-arm this one from the new position.
                        t.state = TrackerState::Training;
                        t.dir = 0;
                        t.confirmations = 0;
                        t.last_line = line;
                        t.next_prefetch = line;
                    }
                }
            }
            self.trackers[idx] = t;
            return;
        }

        // Allocate a tracker for this page (L1 misses allocate; in
        // data-aware mode structure L2 hits may also allocate, which lets
        // streams resume after the streamer itself made the page resident).
        let t = Tracker {
            state: TrackerState::Training,
            last_line: line,
            dir: 0,
            confirmations: 0,
            next_prefetch: line,
            dtype: ev.dtype,
        };
        if self.trackers.len() < self.cfg.trackers {
            self.last_idx = self.trackers.len();
            self.pages.push(page);
            self.lru.push(clock);
            self.trackers.push(t);
        } else {
            // Unique stamps (one bump per accepted event) mean no ties, and
            // `min_index_u64` keeps min_by_key's first-minimum rule anyway.
            let victim = min_index_u64(&self.lru);
            self.pages[victim] = page;
            self.lru[victim] = clock;
            self.trackers[victim] = t;
            self.last_idx = victim;
        }
    }

    fn name(&self) -> &'static str {
        if self.cfg.data_aware {
            "data-aware-stream"
        } else {
            "stream"
        }
    }

    fn issued(&self) -> u64 {
        self.issued
    }

    fn set_data_aware(&mut self, on: bool) {
        if self.cfg.data_aware != on {
            self.cfg.data_aware = on;
            // Mode changes invalidate trained streams: property pages may
            // now be legal (or not) to track.
            self.pages.clear();
            self.lru.clear();
            self.trackers.clear();
            self.last_idx = usize::MAX;
        }
    }

    fn is_data_aware(&self) -> bool {
        self.cfg.data_aware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::VirtAddr;

    fn miss(line: u64, structure: bool) -> AccessEvent {
        AccessEvent {
            vaddr: VirtAddr::new(line * LINE_BYTES),
            kind: EventKind::L1Miss,
            is_structure: structure,
            dtype: if structure {
                DataType::Structure
            } else {
                DataType::Property
            },
        }
    }

    fn l2_hit(line: u64, structure: bool) -> AccessEvent {
        AccessEvent {
            kind: EventKind::L2Hit,
            ..miss(line, structure)
        }
    }

    fn drive(pf: &mut StreamPrefetcher, events: &[AccessEvent]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for ev in events {
            pf.on_access(ev, &mut out);
        }
        out
    }

    #[test]
    fn needs_two_confirmations_before_prefetching() {
        let mut pf = StreamPrefetcher::new(StreamConfig::conventional());
        let base = 64; // line 64 = page 1 start
        let out = drive(&mut pf, &[miss(base, false), miss(base + 1, false)]);
        assert!(out.is_empty(), "one extra miss is not enough");
        let out = drive(&mut pf, &[miss(base + 2, false)]);
        assert!(!out.is_empty());
        assert_eq!(out[0].vline, base + 3);
        assert!(!out[0].into_l3_queue);
    }

    #[test]
    fn descending_streams_work() {
        let mut pf = StreamPrefetcher::new(StreamConfig::conventional());
        let base = 64 * 3 + 40;
        let out = drive(
            &mut pf,
            &[
                miss(base, false),
                miss(base - 1, false),
                miss(base - 2, false),
            ],
        );
        assert!(!out.is_empty());
        assert_eq!(out[0].vline, base - 3);
    }

    #[test]
    fn direction_flips_restart_training() {
        let mut pf = StreamPrefetcher::new(StreamConfig::conventional());
        let base = 64 * 5 + 10;
        let out = drive(
            &mut pf,
            &[
                miss(base, false),
                miss(base + 1, false),
                miss(base - 1, false), // flip
                miss(base + 3, false), // flip again: 1 confirmation
            ],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn prefetches_stop_at_page_boundary() {
        let mut pf = StreamPrefetcher::new(StreamConfig {
            degree: 16,
            ..StreamConfig::conventional()
        });
        // Page 1 spans lines 64..=127; start near its end.
        let out = drive(
            &mut pf,
            &[miss(124, false), miss(125, false), miss(126, false)],
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.vline <= 127), "{out:?}");
    }

    #[test]
    fn monitoring_keeps_the_window_ahead() {
        let mut pf = StreamPrefetcher::new(StreamConfig {
            degree: 2,
            ..StreamConfig::conventional()
        });
        let base = 64 * 8;
        let mut all = drive(
            &mut pf,
            &[
                miss(base, false),
                miss(base + 1, false),
                miss(base + 2, false),
            ],
        );
        all.extend(drive(&mut pf, &[miss(base + 3, false)]));
        // No duplicates, all ahead of the trigger, within distance 16.
        let mut lines: Vec<u64> = all.iter().map(|r| r.vline).collect();
        let unique = {
            let mut l = lines.clone();
            l.sort_unstable();
            l.dedup();
            l.len()
        };
        assert_eq!(unique, lines.len(), "duplicate prefetches: {lines:?}");
        lines.sort_unstable();
        assert!(*lines.last().unwrap() <= base + 3 + 16);
    }

    #[test]
    fn data_aware_ignores_non_structure() {
        let mut pf = StreamPrefetcher::new(StreamConfig::data_aware());
        let out = drive(
            &mut pf,
            &[miss(64, false), miss(65, false), miss(66, false)],
        );
        assert!(out.is_empty());
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn data_aware_trains_on_structure_and_targets_l3_queue() {
        let mut pf = StreamPrefetcher::new(StreamConfig::data_aware());
        let out = drive(&mut pf, &[miss(64, true), miss(65, true), l2_hit(66, true)]);
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.into_l3_queue));
        assert!(out.iter().all(|r| r.dtype == DataType::Structure));
        assert_eq!(pf.name(), "data-aware-stream");
    }

    #[test]
    fn conventional_ignores_l2_hits() {
        let mut pf = StreamPrefetcher::new(StreamConfig::conventional());
        let out = drive(
            &mut pf,
            &[l2_hit(64, true), l2_hit(65, true), l2_hit(66, true)],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn tracker_capacity_is_bounded_with_lru_replacement() {
        let mut pf = StreamPrefetcher::new(StreamConfig {
            trackers: 2,
            ..StreamConfig::conventional()
        });
        // Touch three different pages; the first tracker is evicted.
        drive(&mut pf, &[miss(64, false)]);
        drive(&mut pf, &[miss(128, false)]);
        drive(&mut pf, &[miss(192, false)]);
        assert_eq!(pf.trackers.len(), 2);
        assert!(pf.pages.iter().all(|&p| p != 1));
    }

    #[test]
    fn wasted_trackers_reduce_structure_coverage() {
        // Section V-B1's argument: random property misses steal trackers
        // from structure streams. With 1 tracker, interleaved random
        // property pages evict the structure stream before confirmation.
        let mut aware = StreamPrefetcher::new(StreamConfig {
            trackers: 1,
            ..StreamConfig::data_aware()
        });
        let mut conv = StreamPrefetcher::new(StreamConfig {
            trackers: 1,
            ..StreamConfig::conventional()
        });
        let mut aware_out = Vec::new();
        let mut conv_out = Vec::new();
        for i in 0..16u64 {
            let s = miss(64 + i, true);
            let noise = miss(64 * (100 + i * 7), false); // scattered pages
            for (pf, out) in [(&mut aware, &mut aware_out), (&mut conv, &mut conv_out)] {
                pf.on_access(&s, out);
                pf.on_access(&noise, out);
            }
        }
        let aware_structure = aware_out.len();
        let conv_structure = conv_out
            .iter()
            .filter(|r| r.dtype == DataType::Structure)
            .count();
        assert!(aware_structure > conv_structure);
        assert_eq!(conv_structure, 0, "noise evicts the lone tracker");
    }
}
