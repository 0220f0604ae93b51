//! The out-of-order core timing model for the DROPLET reproduction.
//!
//! An event-driven replacement for SNIPER's interval core model, operating
//! on data-type-tagged memory traces: dispatch/retire bandwidth, ROB /
//! load-queue / store-queue occupancy limits, address-dependency
//! serialization (producer→consumer loads issue back to back), cycle-stack
//! attribution (Fig. 1), memory-level-parallelism measurement (Fig. 3), and
//! the load-load dependency-chain profiler (Figs. 5 and 6).
//!
//! # Example
//!
//! ```
//! use droplet_cpu::{AccessResponse, CoreConfig, CoreEngine, MemorySystem, ServiceLevel};
//! use droplet_trace::{AccessKind, DataType, MemOp, OpId, VirtAddr};
//!
//! /// A memory system where everything takes 4 cycles in the L1.
//! struct FlatL1;
//! impl MemorySystem for FlatL1 {
//!     fn access(&mut self, _op: &MemOp, _id: OpId, now: u64) -> AccessResponse {
//!         AccessResponse { complete_at: now + 4, level: ServiceLevel::L1 }
//!     }
//!     fn warmup_done(&mut self, _now: u64) {}
//! }
//!
//! let trace: Vec<MemOp> = (0..100)
//!     .map(|i| MemOp::new(VirtAddr::new(i * 64), AccessKind::Load,
//!                         DataType::Structure, None, OpId(i), 3))
//!     .collect();
//! // Warm up on the first 20 ops, then measure the rest.
//! let mut engine = CoreEngine::new(CoreConfig::baseline());
//! engine.warmup(&trace[..20], &mut FlatL1);
//! let mut window = engine.open_window(&mut FlatL1);
//! engine.measure_chunk(&trace[20..], &mut FlatL1, &mut window);
//! let result = engine.finish(window);
//! assert!(result.cycles > 0);
//! assert_eq!(result.instructions, 320);
//! ```

pub mod core;
pub mod depchain;
pub mod mlp;
pub mod mshr;
pub mod stack;

pub use crate::core::{
    AccessResponse, CoreConfig, CoreEngine, CoreResult, MeasureState, MemorySystem, ServiceLevel,
};
pub use depchain::{analyze_chains, ChainReport};
pub use mlp::{mlp_of_intervals, MlpStats};
pub use mshr::MshrFile;
pub use stack::CycleStack;
