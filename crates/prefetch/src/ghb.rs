//! G/DC (Global / Delta Correlation) prefetching with a Global History
//! Buffer (Nesbit & Smith \[39\]) — the paper's `GHB` comparison point:
//! a 512-entry index table and a 512-entry history buffer (Table V).
//!
//! On each L1 miss the global miss-address history is extended; the index
//! table maps the last *delta pair* to the previous history position where
//! that pair occurred, and the deltas that followed it then predict the next
//! addresses.

use crate::event::{AccessEvent, EventKind, PrefetchRequest, Prefetcher};
use droplet_trace::FxHashMap;

/// GHB parameters (paper Table V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhbConfig {
    /// Index-table capacity (delta-pair keys).
    pub index_entries: usize,
    /// History-buffer capacity (global miss addresses).
    pub ghb_entries: usize,
    /// Predictions issued per trigger.
    pub degree: usize,
}

impl GhbConfig {
    /// The Table V configuration: 512-entry index table and buffer.
    pub fn paper() -> Self {
        GhbConfig {
            index_entries: 512,
            ghb_entries: 512,
            degree: 4,
        }
    }
}

/// The G/DC GHB prefetcher.
///
/// # Example
///
/// ```
/// use droplet_prefetch::{AccessEvent, EventKind, GhbConfig, GhbPrefetcher, Prefetcher};
/// use droplet_trace::{DataType, VirtAddr};
/// let mut pf = GhbPrefetcher::new(GhbConfig::paper());
/// let mut out = Vec::new();
/// // A repeating +1,+1 delta pattern becomes predictable.
/// for i in 0..8u64 {
///     pf.on_access(&AccessEvent {
///         vaddr: VirtAddr::new(i * 64),
///         kind: EventKind::L1Miss,
///         is_structure: false,
///         dtype: DataType::Structure,
///     }, &mut out);
/// }
/// assert!(!out.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    cfg: GhbConfig,
    /// Ring of global miss lines; absolute position → `ring[pos % len]`.
    ring: Vec<u64>,
    /// Next absolute position to write.
    head: u64,
    /// Delta-pair → most recent absolute position *after* which the pair was
    /// completed (i.e. position of the miss that completed the pair). Keyed
    /// with the fast deterministic hasher: the map is only ever probed by
    /// key (eviction order comes from `index_fifo`), so the hasher choice
    /// cannot change decisions, only hashing cost.
    index: FxHashMap<(i64, i64), u64>,
    /// FIFO order of keys for index-capacity eviction.
    index_fifo: std::collections::VecDeque<(i64, i64)>,
    last_line: Option<u64>,
    last_delta: Option<i64>,
    issued: u64,
}

impl GhbPrefetcher {
    /// Creates an empty GHB.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero.
    pub fn new(cfg: GhbConfig) -> Self {
        assert!(
            cfg.index_entries > 0 && cfg.ghb_entries > 1 && cfg.degree > 0,
            "degenerate GHB config"
        );
        GhbPrefetcher {
            ring: vec![0; cfg.ghb_entries],
            head: 0,
            index: FxHashMap::with_capacity_and_hasher(cfg.index_entries, Default::default()),
            index_fifo: std::collections::VecDeque::with_capacity(cfg.index_entries),
            cfg,
            last_line: None,
            last_delta: None,
            issued: 0,
        }
    }

    fn ring_get(&self, pos: u64) -> Option<u64> {
        // Valid if still within the ring window.
        if pos < self.head && self.head - pos <= self.ring.len() as u64 {
            Some(self.ring[(pos % self.ring.len() as u64) as usize])
        } else {
            None
        }
    }

    fn push_line(&mut self, line: u64) -> u64 {
        let pos = self.head;
        let len = self.ring.len() as u64;
        self.ring[(pos % len) as usize] = line;
        self.head += 1;
        pos
    }

    fn index_insert(&mut self, key: (i64, i64), pos: u64) {
        if !self.index.contains_key(&key) {
            if self.index.len() == self.cfg.index_entries {
                if let Some(old) = self.index_fifo.pop_front() {
                    self.index.remove(&old);
                }
            }
            self.index_fifo.push_back(key);
        }
        self.index.insert(key, pos);
    }
}

impl Prefetcher for GhbPrefetcher {
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if ev.kind != EventKind::L1Miss {
            return;
        }
        let line = ev.line();
        let delta = self.last_line.map(|l| line as i64 - l as i64);

        // Look up the previous occurrence of the current delta pair, then
        // push the current miss (so the walk below can see it), predict by
        // replaying the deltas that followed the previous occurrence, and
        // finally point the index at the current occurrence.
        let key_and_prev = match (self.last_delta, delta) {
            (Some(d2), Some(d1)) => {
                let key = (d2, d1);
                (Some(key), self.index.get(&key).copied())
            }
            _ => (None, None),
        };

        let pos_cur = self.push_line(line);

        if let Some(prev_pos) = key_and_prev.1 {
            let mut addr = line as i64;
            for pos in prev_pos..prev_pos + self.cfg.degree as u64 {
                let (Some(cur), Some(next)) = (self.ring_get(pos), self.ring_get(pos + 1)) else {
                    break;
                };
                let d = next as i64 - cur as i64;
                addr += d;
                if addr < 0 {
                    break;
                }
                out.push(PrefetchRequest {
                    vline: addr as u64,
                    dtype: ev.dtype,
                    into_l3_queue: false,
                });
                self.issued += 1;
            }
        }

        if let Some(key) = key_and_prev.0 {
            self.index_insert(key, pos_cur);
        }
        self.last_delta = delta;
        self.last_line = Some(line);
    }

    fn name(&self) -> &'static str {
        "ghb-gdc"
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplet_trace::{DataType, VirtAddr, LINE_BYTES};

    fn miss(line: u64) -> AccessEvent {
        AccessEvent {
            vaddr: VirtAddr::new(line * LINE_BYTES),
            kind: EventKind::L1Miss,
            is_structure: false,
            dtype: DataType::Structure,
        }
    }

    fn drive(pf: &mut GhbPrefetcher, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            pf.on_access(&miss(l), &mut out);
        }
        out.iter().map(|r| r.vline).collect()
    }

    #[test]
    fn repeating_delta_pattern_predicts_ahead() {
        let mut pf = GhbPrefetcher::new(GhbConfig {
            degree: 2,
            ..GhbConfig::paper()
        });
        // Pattern +3,+1 repeating: 0,3,4,7,8,11,12…
        let got = drive(&mut pf, &[0, 3, 4, 7, 8, 11, 12]);
        // After seeing (…,+3,+1) again at line 8, predicts 8+3=11, 11+1=12.
        assert!(got.contains(&11), "{got:?}");
        assert!(got.contains(&12), "{got:?}");
    }

    #[test]
    fn random_stream_rarely_predicts() {
        let mut pf = GhbPrefetcher::new(GhbConfig::paper());
        // Deltas never repeat as pairs.
        let got = drive(&mut pf, &[0, 100, 7, 350, 22, 901, 41, 1300]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn l2_hits_are_ignored() {
        let mut pf = GhbPrefetcher::new(GhbConfig::paper());
        let mut out = Vec::new();
        for i in 0..8 {
            let mut ev = miss(i);
            ev.kind = EventKind::L2Hit;
            pf.on_access(&ev, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn history_window_expires_old_positions() {
        let mut pf = GhbPrefetcher::new(GhbConfig {
            index_entries: 8,
            ghb_entries: 4,
            degree: 2,
        });
        // Establish a pattern, then flood the ring so its positions expire.
        drive(&mut pf, &[0, 3, 4]);
        drive(&mut pf, &[1000, 2000, 3000, 4000, 5000]);
        // The old (3,1) pair's position is stale; prediction walks nothing.
        let got = drive(&mut pf, &[10, 13, 14]);
        // Predictions (if any) must come from live ring data, i.e. deltas of
        // the flood, not the expired prefix.
        assert!(got.iter().all(|&l| l > 14), "{got:?}");
    }

    #[test]
    fn index_capacity_is_bounded() {
        let mut pf = GhbPrefetcher::new(GhbConfig {
            index_entries: 4,
            ghb_entries: 64,
            degree: 1,
        });
        // Many distinct delta pairs.
        let lines: Vec<u64> = (0..40u64).map(|i| i * i * 3 % 997).collect();
        drive(&mut pf, &lines);
        assert!(pf.index.len() <= 4);
        assert_eq!(pf.index.len(), pf.index_fifo.len());
    }

    #[test]
    fn name_and_counters() {
        let pf = GhbPrefetcher::new(GhbConfig::paper());
        assert_eq!(pf.name(), "ghb-gdc");
        assert_eq!(pf.issued(), 0);
    }
}
