//! The trace fuzzer: seeded random, data-type-tagged access streams shaped
//! like graph-workload traffic rather than uniform noise.
//!
//! A generated stream interleaves four burst modes:
//!
//! - **structure streams** — sequential line runs through structure pages
//!   (CSR offset/neighbor scans), ascending or descending;
//! - **property chases** — dependency chains where each address is a hash of
//!   the previous line (rank lookups indexed by just-loaded neighbor IDs),
//!   landing across the whole property region;
//! - **hot-page reuse** — skewed re-touching of a small hot property set
//!   (power-law vertices);
//! - **scratch bursts** — short bursts in a small intermediate working set
//!   (frontier queues).
//!
//! Events carry the full tag set ([`AccessEvent`]): data type, the TLB
//! structure bit, and an occasional `L2Hit` kind so data-aware engines see
//! their training feedback. The page universe is deliberately small so every
//! downstream structure (cache sets, TLB, DRB, trackers) sees heavy
//! eviction pressure.

use droplet_prefetch::{AccessEvent, EventKind};
use droplet_trace::{DataType, VirtAddr, LINE_BYTES, PAGE_BYTES};
use proptest::TestRng;

/// First structure page; structure spans [`STRUCT_PAGES`] pages from here.
const STRUCT_BASE: u64 = 0;
/// Number of structure pages.
const STRUCT_PAGES: u64 = 8;
/// First property page.
const PROP_BASE: u64 = STRUCT_BASE + STRUCT_PAGES;
/// Number of property pages (the first [`HOT_PAGES`] of them are "hot").
const PROP_PAGES: u64 = 32;
/// Size of the skewed hot property set.
const HOT_PAGES: u64 = 4;
/// First intermediate page.
const SCRATCH_BASE: u64 = PROP_BASE + PROP_PAGES;
/// Number of intermediate pages.
const SCRATCH_PAGES: u64 = 4;

const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// SplitMix64 finalizer: the dependency-chain address mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Sequential run through structure lines.
    StructStream { cur: u64, dir: i64 },
    /// Dependency chain: next address hashes the previous line.
    PropChase,
    /// Skewed reuse of the hot property pages.
    HotProp,
    /// Short bursts in a small intermediate working set.
    Scratch { page: u64 },
}

/// The seeded trace generator. All state advances deterministically from
/// the [`TestRng`] passed to [`TraceGen::event`].
#[derive(Debug)]
pub struct TraceGen {
    mode: Mode,
    steps_left: u32,
    last_line: u64,
}

impl Default for TraceGen {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceGen {
    /// A generator positioned before its first burst.
    pub fn new() -> Self {
        TraceGen {
            mode: Mode::PropChase,
            steps_left: 0,
            last_line: 0,
        }
    }

    fn pick_mode(&mut self, rng: &mut TestRng) {
        self.mode = match rng.below(8) {
            0..=2 => {
                let page = STRUCT_BASE + rng.below(STRUCT_PAGES);
                let cur = page * LINES_PER_PAGE + rng.below(LINES_PER_PAGE);
                let dir = if rng.below(4) == 0 { -1 } else { 1 };
                Mode::StructStream { cur, dir }
            }
            3..=4 => Mode::PropChase,
            5..=6 => Mode::HotProp,
            _ => Mode::Scratch {
                page: SCRATCH_BASE + rng.below(SCRATCH_PAGES),
            },
        };
        self.steps_left = 3 + rng.below(20) as u32;
    }

    /// Draws the next tagged access event.
    pub fn event(&mut self, rng: &mut TestRng) -> AccessEvent {
        if self.steps_left == 0 {
            self.pick_mode(rng);
        }
        self.steps_left -= 1;

        let struct_last = (STRUCT_BASE + STRUCT_PAGES) * LINES_PER_PAGE - 1;
        let (line, dtype) = match &mut self.mode {
            Mode::StructStream { cur, dir } => {
                let line = *cur;
                let stepped = *cur as i64 + *dir;
                if stepped < STRUCT_BASE as i64 * LINES_PER_PAGE as i64
                    || stepped > struct_last as i64
                {
                    *dir = -*dir; // bounce off the region edge
                } else {
                    *cur = stepped as u64;
                }
                (line, DataType::Structure)
            }
            Mode::PropChase => {
                let h = mix(self.last_line);
                let page = PROP_BASE + h % PROP_PAGES;
                let line = page * LINES_PER_PAGE + (h >> 8) % LINES_PER_PAGE;
                (line, DataType::Property)
            }
            Mode::HotProp => {
                let page = PROP_BASE + rng.below(HOT_PAGES);
                (
                    page * LINES_PER_PAGE + rng.below(LINES_PER_PAGE),
                    DataType::Property,
                )
            }
            Mode::Scratch { page } => (
                *page * LINES_PER_PAGE + rng.below(16),
                DataType::Intermediate,
            ),
        };
        self.last_line = line;

        AccessEvent {
            vaddr: VirtAddr::new(line * LINE_BYTES),
            kind: if rng.below(8) == 0 {
                EventKind::L2Hit
            } else {
                EventKind::L1Miss
            },
            is_structure: dtype == DataType::Structure,
            dtype,
        }
    }

    /// A fresh stream of `n` events.
    pub fn events(rng: &mut TestRng, n: usize) -> Vec<AccessEvent> {
        let mut g = TraceGen::new();
        (0..n).map(|_| g.event(rng)).collect()
    }
}
