//! **DROPLET** — a from-scratch reproduction of *"Analysis and Optimization
//! of the Memory Hierarchy for Graph Processing Workloads"* (HPCA 2019):
//! the data-aware, physically-decoupled graph prefetcher, together with the
//! full simulation substrate it is evaluated on.
//!
//! The crate wires the workspace's substrates into a full system:
//! data-type-tagged workload traces ([`droplet_gap`]), an out-of-order core
//! model ([`droplet_cpu`]), a three-level inclusive cache hierarchy
//! ([`droplet_cache`]), a DRAM + memory-controller model ([`droplet_mem`]),
//! and the six evaluated prefetcher configurations ([`droplet_prefetch`]).
//!
//! # Quickstart
//!
//! ```
//! use droplet::{PrefetcherKind, SystemConfig, run_workload};
//! use droplet_gap::Algorithm;
//! use droplet_graph::{Dataset, DatasetScale};
//! use std::sync::Arc;
//!
//! let g = Arc::new(Dataset::Kron.build(DatasetScale::Tiny));
//! let bundle = Algorithm::Pr.trace(&g, 60_000);
//!
//! let base = run_workload(&bundle, &SystemConfig::baseline(), 10_000);
//! let drop = run_workload(
//!     &bundle,
//!     &SystemConfig::baseline().with_prefetcher(PrefetcherKind::Droplet),
//!     10_000,
//! );
//! // DROPLET never slows the run down on this streaming workload.
//! assert!(drop.core.cycles <= base.core.cycles * 11 / 10);
//! ```

pub mod config;
pub mod datasets;
pub mod experiments;
pub mod fork;
mod once_map;
pub mod overhead;
pub mod pool;
pub mod report;
pub mod specparse;
pub mod system;
pub mod trace_cache;

pub use config::{PrefetcherKind, SystemConfig};
pub use datasets::WorkloadSpec;
pub use fork::{
    run_forked, run_forked_from, run_sweep, warm_snapshot, warm_snapshot_from, SweepCell,
    WarmupSnapshot,
};
pub use pool::JobPool;
pub use specparse::SpecError;
pub use system::{
    config_hash, run_workload, run_workload_from, run_workload_with_stream, ForkMutation,
    RunResult, System, SystemProbe, SystemSnapshot, SystemStats,
};
pub use trace_cache::TraceCache;

// Re-export the substrate crates so downstream users need only `droplet`.
pub use droplet_cache as cache;
pub use droplet_cpu as cpu;
pub use droplet_gap as gap;
pub use droplet_graph as graph;
pub use droplet_mem as mem;
pub use droplet_obs as obs;
pub use droplet_prefetch as prefetch;
pub use droplet_trace as trace;
