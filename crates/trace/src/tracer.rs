//! The [`Tracer`] trait that traced workloads emit memory operations into,
//! plus the two standard implementations: [`VecTracer`] (records the full
//! trace for replay through timing models) and [`CountingTracer`] (cheap
//! aggregate statistics only).
//!
//! Traced algorithms call [`Tracer::load`] / [`Tracer::store`] for every
//! modeled memory access and [`Tracer::compute`] for intervening non-memory
//! work. Loads whose *address* was produced by an earlier load (the
//! `property[structure[i]]` idiom) pass that producer's [`OpId`], which is
//! how the paper's load-load dependency chains (Observation #2/#3) are
//! recorded.

use crate::addr::VirtAddr;
use crate::layout::AddressSpace;
use crate::op::{AccessKind, DataType, MemOp, OpId};

/// Sink for the memory operations of a traced workload.
///
/// Implementations decide what to retain. The trace *budget* mechanism
/// mirrors the paper's 600 M-instruction region of interest: once
/// [`Tracer::is_full`] reports `true`, workloads abandon the run early
/// (their functional result is then partial, which is fine for timing
/// studies and rejected by correctness tests, which run without a budget).
pub trait Tracer {
    /// Records a load of `addr` whose address depends on `producer`.
    /// Returns this op's id for use as a downstream producer.
    fn load(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId;

    /// Records a store to `addr` whose address depends on `producer`.
    fn store(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId;

    /// Records `n` non-memory instructions preceding the next memory op.
    fn compute(&mut self, n: u32);

    /// Whether the op budget has been exhausted (workloads should bail out).
    fn is_full(&self) -> bool;

    /// Ops recorded so far.
    fn len(&self) -> u64;

    /// Whether no ops have been recorded.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A tracer that resolves data types through an [`AddressSpace`] and stores
/// the whole trace for replay.
///
/// # Example
///
/// ```
/// use droplet_trace::{AddressSpace, DataType, Tracer, VecTracer};
/// let mut space = AddressSpace::new();
/// let prop = space.alloc_array("p", DataType::Property, 4, 16);
/// let neigh = space.alloc_array("n", DataType::Structure, 4, 16);
/// let mut t = VecTracer::new(space, u64::MAX);
/// let s = t.load(neigh.addr_of(0), DataType::Structure, None);
/// t.load(prop.addr_of(3), DataType::Property, Some(s));
/// assert_eq!(t.ops().len(), 2);
/// assert!(t.ops()[1].producer_back().is_some());
/// ```
#[derive(Debug)]
pub struct VecTracer {
    space: AddressSpace,
    ops: Vec<MemOp>,
    pending_compute: u32,
    budget: u64,
    total_instructions: u64,
}

impl VecTracer {
    /// Creates a tracer with an op `budget` (use `u64::MAX` for unlimited).
    pub fn new(space: AddressSpace, budget: u64) -> Self {
        VecTracer {
            space,
            ops: Vec::new(),
            pending_compute: 0,
            budget,
            total_instructions: 0,
        }
    }

    /// Records one op. `push`, `load` and `store` are `#[inline]` so the
    /// whole per-op path folds into each traced kernel's loop; called out
    /// of line, it costs more than the append itself.
    #[inline]
    fn push(
        &mut self,
        addr: VirtAddr,
        kind: AccessKind,
        dtype: DataType,
        producer: Option<OpId>,
    ) -> OpId {
        debug_assert_eq!(
            self.space.data_type(addr),
            Some(dtype),
            "traced access at {addr} disagrees with the region allocator about its data type",
        );
        let id = OpId(self.ops.len() as u64);
        let pre = self.pending_compute.min(u32::from(u16::MAX)) as u16;
        self.pending_compute = 0;
        self.total_instructions += u64::from(pre) + 1;
        self.ops
            .push(MemOp::new(addr, kind, dtype, producer, id, pre));
        id
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// Consumes the tracer, yielding the trace and its address space.
    pub fn into_parts(self) -> (Vec<MemOp>, AddressSpace) {
        (self.ops, self.space)
    }

    /// The address space used for data-type resolution.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Total instructions recorded (memory ops + compute).
    pub fn instructions(&self) -> u64 {
        self.total_instructions
    }
}

impl Tracer for VecTracer {
    #[inline]
    fn load(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId {
        self.push(addr, AccessKind::Load, dtype, producer)
    }

    #[inline]
    fn store(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId {
        self.push(addr, AccessKind::Store, dtype, producer)
    }

    fn compute(&mut self, n: u32) {
        self.pending_compute = self.pending_compute.saturating_add(n);
    }

    fn is_full(&self) -> bool {
        self.ops.len() as u64 >= self.budget
    }

    fn len(&self) -> u64 {
        self.ops.len() as u64
    }
}

/// A tracer that keeps only aggregate per-type counts; useful for workload
/// sanity checks and for sizing runs without holding a trace in memory.
#[derive(Debug, Default)]
pub struct CountingTracer {
    loads: [u64; 3],
    stores: [u64; 3],
    dependent_loads: u64,
    instructions: u64,
}

impl CountingTracer {
    /// Creates a zeroed counting tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads observed for `dtype`.
    pub fn loads(&self, dtype: DataType) -> u64 {
        self.loads[dtype.index()]
    }

    /// Stores observed for `dtype`.
    pub fn stores(&self, dtype: DataType) -> u64 {
        self.stores[dtype.index()]
    }

    /// Loads that carried a producer link.
    pub fn dependent_loads(&self) -> u64 {
        self.dependent_loads
    }

    /// Total instructions (memory + compute).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

impl Tracer for CountingTracer {
    fn load(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId {
        let _ = addr;
        self.loads[dtype.index()] += 1;
        if producer.is_some() {
            self.dependent_loads += 1;
        }
        self.instructions += 1;
        OpId(self.len() - 1)
    }

    fn store(&mut self, addr: VirtAddr, dtype: DataType, producer: Option<OpId>) -> OpId {
        let _ = (addr, producer);
        self.stores[dtype.index()] += 1;
        self.instructions += 1;
        OpId(self.len() - 1)
    }

    fn compute(&mut self, n: u32) {
        self.instructions += u64::from(n);
    }

    fn is_full(&self) -> bool {
        false
    }

    fn len(&self) -> u64 {
        self.loads.iter().sum::<u64>() + self.stores.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (AddressSpace, VirtAddr, VirtAddr) {
        let mut s = AddressSpace::new();
        let n = s.alloc("n", DataType::Structure, 4096);
        let p = s.alloc("p", DataType::Property, 4096);
        (s, n.base(), p.base())
    }

    #[test]
    fn vec_tracer_records_dependencies_and_compute() {
        let (s, n, p) = space();
        let mut t = VecTracer::new(s, u64::MAX);
        t.compute(5);
        let a = t.load(n, DataType::Structure, None);
        t.compute(2);
        let b = t.load(p, DataType::Property, Some(a));
        t.store(p, DataType::Property, Some(b));
        assert_eq!(t.len(), 3);
        assert_eq!(t.ops()[0].pre_compute(), 5);
        assert_eq!(t.ops()[1].pre_compute(), 2);
        assert_eq!(t.ops()[1].producer(OpId(1)), Some(OpId(0)));
        assert_eq!(t.instructions(), 3 + 7);
    }

    #[test]
    fn vec_tracer_budget() {
        let (s, n, _) = space();
        let mut t = VecTracer::new(s, 2);
        assert!(!t.is_full());
        t.load(n, DataType::Structure, None);
        t.load(n, DataType::Structure, None);
        assert!(t.is_full());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disagrees")]
    fn vec_tracer_validates_data_types() {
        let (s, n, _) = space();
        let mut t = VecTracer::new(s, u64::MAX);
        t.load(n, DataType::Property, None);
    }

    #[test]
    fn counting_tracer_aggregates() {
        let (_, n, p) = space();
        let mut t = CountingTracer::new();
        let a = t.load(n, DataType::Structure, None);
        t.load(p, DataType::Property, Some(a));
        t.store(p, DataType::Property, None);
        t.compute(10);
        assert_eq!(t.loads(DataType::Structure), 1);
        assert_eq!(t.loads(DataType::Property), 1);
        assert_eq!(t.stores(DataType::Property), 1);
        assert_eq!(t.dependent_loads(), 1);
        assert_eq!(t.instructions(), 13);
        assert!(!t.is_full());
        assert!(!t.is_empty());
    }
}
