//! Foundational types for the DROPLET reproduction: simulated virtual/physical
//! addresses, graph data types, memory operations, the data-aware region
//! allocator (the paper's "specialized malloc"), the page table carrying the
//! extra *structure* bit, a TLB model, and the functional-memory trait the
//! MC-side property prefetcher (MPP) uses to scan structure cachelines.
//!
//! Everything in the workspace builds on this crate; it has no dependencies.
//!
//! # Example
//!
//! ```
//! use droplet_trace::{AddressSpace, DataType, LINE_BYTES};
//!
//! let mut space = AddressSpace::new();
//! let neigh = space.alloc("neighbors", DataType::Structure, 1 << 20);
//! let prop = space.alloc("scores", DataType::Property, 1 << 16);
//! assert_eq!(space.data_type(neigh.base()), Some(DataType::Structure));
//! assert_eq!(space.data_type(prop.base()), Some(DataType::Property));
//! assert_eq!(LINE_BYTES, 64);
//! ```

pub mod addr;
pub mod columnar;
pub mod funcmem;
pub mod hash;
pub mod layout;
pub mod mmap;
pub mod op;
pub mod page;
pub mod scan;
pub mod source;
pub mod tlb;
pub mod tracer;

pub use addr::{PhysAddr, VirtAddr, LINES_PER_PAGE, LINE_BYTES, PAGE_BYTES};
pub use columnar::{ColumnarError, ColumnarReader};
pub use funcmem::FunctionalMemory;
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use layout::{AddressSpace, ArrayRegion, Region, RegionId};
pub use mmap::MappedFile;
pub use op::{AccessKind, Cycle, DataType, MemOp, OpId};
pub use page::{PageEntry, PageTable};
pub use scan::{find_u64, min_index_u64};
pub use source::{open_columnar, ColumnarSource, SliceSource, TraceSource};
pub use tlb::Tlb;
pub use tracer::{CountingTracer, Tracer, VecTracer};
