//! Differential conformance suite for the optimized memory hierarchy.
//!
//! The hot demand path earned its speed through aggressive rewrites: packed
//! stamp-LRU caches, an SoA TLB with self-validating memos, a heap MSHR, a
//! dense packed page table, and hand-rolled prefetch engines. Golden digests
//! pin those rewrites on a handful of fixed workloads, but they cannot say
//! *which* component diverged, nor exercise inputs the fixed workloads never
//! produce. This crate closes that gap with three layers (DESIGN.md §12):
//!
//! 1. **Reference models** ([`reference`](mod@reference)) — small, obviously-correct
//!    re-implementations of each optimized structure's contract: a
//!    reorder-on-touch `Vec`-LRU set-associative cache, a reorder-on-touch
//!    TLB, a linear-scan MSHR, a `HashMap` page table, and per-prefetcher
//!    reference predictors (GHB, VLDP, stream, next-line) built from plain
//!    association lists and unbounded histories.
//! 2. **Differential engine** ([`diff`]) — replays one randomized operation
//!    stream through the production structure and its reference model in
//!    lockstep, reporting the first diverging step with both state dumps,
//!    plus a delta-debugging shrinker that minimizes any diverging stream.
//! 3. **Trace fuzzer** ([`fuzz`], [`harness`]) — seeded random generation of
//!    data-type-tagged access streams (sequential structure runs, skewed
//!    hot-page property reuse, dependency chains, intermediate bursts) and
//!    their lowerings to per-structure operation streams.
//!
//! Every fuzzed stream is deterministic in its seed, and every panic message
//! prints the `DROPLET_TEST_SEED` perturbation in effect, so any failure —
//! including ones found under exploratory seeds in CI — replays exactly.

pub mod diff;
pub mod fork;
pub mod fuzz;
pub mod harness;
pub mod reference;

pub use diff::{fuzz_and_verify, run_lockstep, shrink, Divergence, FuzzReport, Harness};
pub use fork::ForkHarness;
pub use fuzz::TraceGen;
