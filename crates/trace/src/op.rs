//! Memory operations and the graph data-type taxonomy.
//!
//! The paper's characterization (Section II-A) divides all application data
//! into three types: *structure* (the neighbor-ID array of the CSR),
//! *property* (the vertex-data array), and *intermediate* (everything else).
//! Every memory operation in a trace carries its data type plus an optional
//! producer link encoding the load-load dependency chains that Section IV
//! identifies as the MLP bottleneck.

use crate::addr::VirtAddr;

/// A simulation clock value, in core cycles.
pub type Cycle = u64;

/// The paper's three application data types (Section II-A).
///
/// # Example
///
/// ```
/// use droplet_trace::DataType;
/// assert_eq!(DataType::ALL.len(), 3);
/// assert_eq!(DataType::Structure.to_string(), "structure");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// The neighbor-ID array of the CSR (including edge weights when present).
    Structure,
    /// The vertex-data array(s), indirectly indexed through structure data.
    Property,
    /// Any other data: offsets, worklists, frontiers, bins, stacks.
    Intermediate,
}

impl DataType {
    /// All three data types, in a stable order suitable for table columns.
    pub const ALL: [DataType; 3] = [
        DataType::Structure,
        DataType::Property,
        DataType::Intermediate,
    ];

    /// A stable small index (0..3) for per-type stat arrays.
    pub const fn index(self) -> usize {
        match self {
            DataType::Structure => 0,
            DataType::Property => 1,
            DataType::Intermediate => 2,
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::Structure => "structure",
            DataType::Property => "property",
            DataType::Intermediate => "intermediate",
        };
        f.write_str(s)
    }
}

/// Whether a memory operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read.
    Load,
    /// A demand write (write-allocate in the simulated hierarchy).
    Store,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// Identifier of a memory operation within one trace: its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl OpId {
    /// The raw trace position.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Sentinel meaning "no producer" in the compact encoding.
const NO_PRODUCER: u32 = u32::MAX;

/// Bits of the packed word holding the virtual address.
const ADDR_BITS: u32 = 44;
/// Mask of the address bits (the low [`ADDR_BITS`] of the packed word).
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
/// The store bit: set for [`AccessKind::Store`].
const STORE_BIT: u64 = 1 << ADDR_BITS;
/// Shift of the 2-bit [`DataType::index`] field.
const DTYPE_SHIFT: u32 = ADDR_BITS + 1;
/// Shift of the 16-bit pre-compute count: the top of the word, so reading
/// it back is one shift.
const PRE_SHIFT: u32 = 48;

/// One memory operation of a traced workload.
///
/// Kept deliberately compact (12 bytes, 4-byte aligned) because perf-scale
/// traces hold millions of these. One `u64` packs the virtual address in
/// its low 44 bits, the store bit (bit 44), the data type (bits 45–46) and
/// the pre-compute count (bits 48–63); a `u32` beside it holds the producer
/// link as a backward distance: the producer is the op `producer_back`
/// positions earlier in the trace.
///
/// Traced addresses must lie below [`MemOp::ADDR_LIMIT`] (2^44). The
/// address space allocates from 2^32 and refuses a region that would reach
/// the limit, and the columnar decoder rejects an address at or past it.
///
/// # Example
///
/// ```
/// use droplet_trace::{AccessKind, DataType, MemOp, OpId, VirtAddr};
/// let op = MemOp::new(
///     VirtAddr::new(0x1000),
///     AccessKind::Load,
///     DataType::Property,
///     Some(OpId(5)),
///     OpId(9),
///     3,
/// );
/// assert_eq!(op.producer(OpId(9)), Some(OpId(5)));
/// assert_eq!(op.pre_compute(), 3);
/// assert_eq!(std::mem::size_of::<MemOp>(), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct MemOp {
    /// Address, store bit, data type and pre-compute count (see above).
    word: u64,
    /// Backward distance to the producer op; `NO_PRODUCER` if independent.
    producer_back: u32,
}

impl MemOp {
    /// Exclusive upper bound of a traced virtual address: 2^44.
    pub const ADDR_LIMIT: u64 = 1 << ADDR_BITS;

    /// Creates an op at trace position `id` with an optional `producer`
    /// (an earlier op this op's address depends on) and `pre_compute`
    /// non-memory instructions preceding it.
    ///
    /// # Panics
    ///
    /// Panics if `producer` is not strictly earlier than `id`, or farther
    /// than `u32::MAX - 1` ops back, or if `addr` is at or past
    /// [`MemOp::ADDR_LIMIT`].
    pub fn new(
        addr: VirtAddr,
        kind: AccessKind,
        dtype: DataType,
        producer: Option<OpId>,
        id: OpId,
        pre_compute: u16,
    ) -> Self {
        assert!(
            addr.raw() < Self::ADDR_LIMIT,
            "address {addr} at or past the 44-bit trace limit"
        );
        let producer_back = match producer {
            None => NO_PRODUCER,
            Some(p) => {
                assert!(p.0 < id.0, "producer {p} must precede op {id}");
                let back = id.0 - p.0;
                assert!(back < u64::from(NO_PRODUCER), "producer too far back");
                back as u32
            }
        };
        Self::pack(addr, kind, dtype, producer_back, pre_compute)
    }

    /// Packs already-validated fields: `addr` below [`MemOp::ADDR_LIMIT`],
    /// `producer_back` in the in-memory encoding.
    const fn pack(
        addr: VirtAddr,
        kind: AccessKind,
        dtype: DataType,
        producer_back: u32,
        pre_compute: u16,
    ) -> Self {
        let store = match kind {
            AccessKind::Load => 0,
            AccessKind::Store => STORE_BIT,
        };
        MemOp {
            word: addr.raw()
                | store
                | (dtype.index() as u64) << DTYPE_SHIFT
                | (pre_compute as u64) << PRE_SHIFT,
            producer_back,
        }
    }

    /// Reassembles an op from its stored columns (the columnar trace
    /// codec's decode path). `producer_back` is the raw backward distance
    /// with `0` meaning "no producer" — exactly the on-disk encoding, so
    /// the codec never re-derives absolute producer ids. The caller has
    /// checked `addr` against [`MemOp::ADDR_LIMIT`].
    pub(crate) const fn from_columns(
        addr: VirtAddr,
        kind: AccessKind,
        dtype: DataType,
        producer_back: u32,
        pre_compute: u16,
    ) -> Self {
        debug_assert!(addr.raw() < Self::ADDR_LIMIT);
        let producer_back = if producer_back == 0 {
            NO_PRODUCER
        } else {
            producer_back
        };
        Self::pack(addr, kind, dtype, producer_back, pre_compute)
    }

    /// The raw backward producer distance as stored by the columnar codec:
    /// `0` when independent, the distance otherwise.
    pub(crate) const fn producer_back_or_zero(&self) -> u32 {
        if self.producer_back == NO_PRODUCER {
            0
        } else {
            self.producer_back
        }
    }

    /// The virtual address accessed.
    pub const fn addr(&self) -> VirtAddr {
        VirtAddr::new(self.word & ADDR_MASK)
    }

    /// Load or store.
    pub const fn kind(&self) -> AccessKind {
        if self.is_load() {
            AccessKind::Load
        } else {
            AccessKind::Store
        }
    }

    /// Returns `true` for loads.
    pub const fn is_load(&self) -> bool {
        self.word & STORE_BIT == 0
    }

    /// The graph data type of the accessed address.
    pub const fn dtype(&self) -> DataType {
        match (self.word >> DTYPE_SHIFT) & 0b11 {
            0 => DataType::Structure,
            1 => DataType::Property,
            _ => DataType::Intermediate,
        }
    }

    /// The producer op this op's *address* depends on, given this op's own
    /// trace position `id`.
    pub fn producer(&self, id: OpId) -> Option<OpId> {
        self.producer_back()
            .map(|back| OpId(id.0 - u64::from(back)))
    }

    /// Backward distance to the producer, if any.
    pub fn producer_back(&self) -> Option<u32> {
        let back = self.producer_back;
        (back != NO_PRODUCER).then_some(back)
    }

    /// Non-memory instructions executed immediately before this op; used for
    /// instruction counting (MPKI, BPKI, IPC).
    pub const fn pre_compute(&self) -> u16 {
        (self.word >> PRE_SHIFT) as u16
    }
}

/// Prints the logical fields, not the packed word: `addr`, `producer_back`
/// (`u32::MAX` when independent), `pre_compute`, `kind` and `dtype`.
impl std::fmt::Debug for MemOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let producer_back = self.producer_back;
        f.debug_struct("MemOp")
            .field("addr", &self.addr())
            .field("producer_back", &producer_back)
            .field("pre_compute", &self.pre_compute())
            .field("kind", &self.kind())
            .field("dtype", &self.dtype())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(producer: Option<OpId>, id: OpId) -> MemOp {
        MemOp::new(
            VirtAddr::new(64),
            AccessKind::Load,
            DataType::Structure,
            producer,
            id,
            0,
        )
    }

    #[test]
    fn data_type_indices_are_distinct() {
        let mut seen = [false; 3];
        for t in DataType::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
    }

    #[test]
    fn producer_roundtrip() {
        let o = op(Some(OpId(3)), OpId(10));
        assert_eq!(o.producer(OpId(10)), Some(OpId(3)));
        assert_eq!(o.producer_back(), Some(7));
    }

    #[test]
    fn no_producer() {
        let o = op(None, OpId(10));
        assert_eq!(o.producer(OpId(10)), None);
        assert_eq!(o.producer_back(), None);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn producer_must_precede() {
        let _ = op(Some(OpId(10)), OpId(10));
    }

    #[test]
    fn op_is_compact() {
        assert_eq!(std::mem::size_of::<MemOp>(), 12);
        assert!(std::mem::align_of::<MemOp>() <= 4);
    }

    #[test]
    fn packing_roundtrips_every_field_extreme() {
        let id = OpId(u64::from(u32::MAX));
        let mut ops = Vec::new();
        for addr in [0, MemOp::ADDR_LIMIT - 1] {
            for kind in [AccessKind::Load, AccessKind::Store] {
                for dtype in DataType::ALL {
                    for pre in [0, u16::MAX] {
                        for back in [None, Some(1), Some(u32::MAX - 1)] {
                            let producer = back.map(|b| OpId(id.0 - u64::from(b)));
                            let op =
                                MemOp::new(VirtAddr::new(addr), kind, dtype, producer, id, pre);
                            assert_eq!(op.addr().raw(), addr);
                            assert_eq!(op.kind(), kind);
                            assert_eq!(op.is_load(), kind == AccessKind::Load);
                            assert_eq!(op.dtype(), dtype);
                            assert_eq!(op.pre_compute(), pre);
                            assert_eq!(op.producer_back(), back);
                            assert_eq!(op.producer(id), producer);
                            ops.push((op, (addr, kind, dtype, pre, back)));
                        }
                    }
                }
            }
        }
        assert_eq!(ops.len(), 2 * 2 * 3 * 2 * 3);
        for (a, fa) in &ops {
            for (b, fb) in &ops {
                assert_eq!(a == b, fa == fb, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "44-bit trace limit")]
    fn address_past_the_limit_panics() {
        let _ = MemOp::new(
            VirtAddr::new(MemOp::ADDR_LIMIT),
            AccessKind::Load,
            DataType::Structure,
            None,
            OpId(0),
            0,
        );
    }

    #[test]
    fn debug_prints_the_unpacked_field_list() {
        let linked = MemOp::new(
            VirtAddr::new(0x1_0000_2040),
            AccessKind::Store,
            DataType::Property,
            Some(OpId(5)),
            OpId(9),
            3,
        );
        assert_eq!(
            format!("{linked:?}"),
            "MemOp { addr: VirtAddr(4294975552), producer_back: 4, \
             pre_compute: 3, kind: Store, dtype: Property }"
        );
        let independent = op(None, OpId(1));
        assert_eq!(
            format!("{independent:?}"),
            "MemOp { addr: VirtAddr(64), producer_back: 4294967295, \
             pre_compute: 0, kind: Load, dtype: Structure }"
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(AccessKind::Load.to_string(), "load");
        assert_eq!(AccessKind::Store.to_string(), "store");
        assert_eq!(OpId(4).to_string(), "op#4");
        assert_eq!(DataType::Intermediate.to_string(), "intermediate");
    }
}
