//! The data-aware region allocator — the paper's "specialized malloc"
//! (Section VI, *System support for address identification*).
//!
//! Graph frameworks allocate each logical array (offsets, neighbor IDs,
//! vertex properties, worklists) through this allocator. Every allocation is
//! page-aligned and tagged with its [`DataType`], which is what lets the
//! simulated OS label page-table entries with the extra structure bit and
//! lets the MPP know the property array's base address and element size.

use crate::addr::{VirtAddr, PAGE_BYTES};
use crate::op::{DataType, MemOp};

/// Identifier of a region within an [`AddressSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// One contiguous, page-aligned allocation.
#[derive(Debug, Clone)]
pub struct Region {
    id: RegionId,
    name: String,
    dtype: DataType,
    base: VirtAddr,
    bytes: u64,
}

impl Region {
    /// The region's identifier within its address space.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The human-readable name given at allocation time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph data type of every byte in this region.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// First virtual address of the region.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Size in bytes (as requested; the footprint is rounded up to pages).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One past the last usable address.
    pub fn end(&self) -> VirtAddr {
        self.base.add_bytes(self.bytes)
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// A typed view of a region as an array of fixed-size elements.
///
/// # Example
///
/// ```
/// use droplet_trace::{AddressSpace, DataType};
/// let mut space = AddressSpace::new();
/// let scores = space.alloc_array("scores", DataType::Property, 8, 1000);
/// assert_eq!(scores.addr_of(1).raw(), scores.base().raw() + 8);
/// assert_eq!(scores.index_of(scores.addr_of(41)), Some(41));
/// ```
#[derive(Debug, Clone)]
pub struct ArrayRegion {
    region: Region,
    elem_bytes: u64,
    len: u64,
}

impl ArrayRegion {
    /// The underlying region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Size of each element in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First virtual address.
    pub fn base(&self) -> VirtAddr {
        self.region.base()
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr_of(&self, i: u64) -> VirtAddr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.region.base().add_bytes(i * self.elem_bytes)
    }

    /// The element index containing `addr`, if the address is in range.
    pub fn index_of(&self, addr: VirtAddr) -> Option<u64> {
        if !self.region.contains(addr) {
            return None;
        }
        Some((addr.raw() - self.region.base().raw()) / self.elem_bytes)
    }
}

/// The simulated application virtual address space.
///
/// Allocations are laid out sequentially from a fixed base, separated by one
/// guard page, mimicking how a real allocator gives each large graph array
/// its own pages (which is what makes per-page data-type tagging possible).
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    regions: Vec<Region>,
    next_base: u64,
}

/// Base virtual address of the first allocation. `pub(crate)` so the page
/// table can index its dense slot array relative to this base.
pub(crate) const SPACE_BASE: u64 = 0x0001_0000_0000;

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            next_base: SPACE_BASE,
        }
    }

    /// Allocates `bytes` bytes tagged as `dtype`; page-aligned.
    ///
    /// This is the simulation analogue of the paper's specialized `malloc`:
    /// allocating with [`DataType::Structure`] is what sets the extra bit in
    /// the page-table entries of the returned range.
    ///
    /// # Panics
    ///
    /// Panics, naming the region, if its pages would end at or past
    /// [`MemOp::ADDR_LIMIT`], the bound every traced address must stay under.
    pub fn alloc(&mut self, name: &str, dtype: DataType, bytes: u64) -> Region {
        let end = bytes
            .max(1)
            .checked_next_multiple_of(PAGE_BYTES)
            .and_then(|footprint| self.next_base.checked_add(footprint))
            .filter(|&end| end < MemOp::ADDR_LIMIT)
            .unwrap_or_else(|| {
                panic!("region {name:?} ({bytes} bytes) would reach the 44-bit address limit")
            });
        let region = Region {
            id: RegionId(self.regions.len()),
            name: name.to_string(),
            dtype,
            base: VirtAddr::new(self.next_base),
            bytes,
        };
        // One guard page between regions keeps page-granular tags unambiguous.
        self.next_base = end + PAGE_BYTES;
        self.regions.push(region.clone());
        region
    }

    /// Allocates an array of `len` elements of `elem_bytes` each.
    pub fn alloc_array(
        &mut self,
        name: &str,
        dtype: DataType,
        elem_bytes: u64,
        len: u64,
    ) -> ArrayRegion {
        let bytes = elem_bytes.checked_mul(len.max(1)).unwrap_or_else(|| {
            panic!("region {name:?} ({len} x {elem_bytes} bytes) overflows u64")
        });
        let region = self.alloc(name, dtype, bytes);
        ArrayRegion {
            region,
            elem_bytes,
            len: len.max(1),
        }
    }

    /// All regions allocated so far, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_of(&self, addr: VirtAddr) -> Option<&Region> {
        // Regions are sorted by base; binary search on base then bound check.
        let idx = self
            .regions
            .partition_point(|r| r.base().raw() <= addr.raw());
        if idx == 0 {
            return None;
        }
        let r = &self.regions[idx - 1];
        r.contains(addr).then_some(r)
    }

    /// The data type of `addr`, if it falls in any region.
    pub fn data_type(&self, addr: VirtAddr) -> Option<DataType> {
        self.region_of(addr).map(Region::dtype)
    }

    /// Whether the page holding `addr` is tagged as structure data.
    ///
    /// Page-granular by construction: regions are page-aligned with guard
    /// pages, so a page never mixes data types.
    pub fn is_structure_page(&self, addr: VirtAddr) -> bool {
        self.data_type(addr) == Some(DataType::Structure)
    }

    /// Total bytes requested across all regions.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(Region::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", DataType::Structure, 100);
        let b = s.alloc("b", DataType::Property, 5000);
        assert_eq!(a.base().raw() % PAGE_BYTES, 0);
        assert_eq!(b.base().raw() % PAGE_BYTES, 0);
        assert!(a.end().raw() <= b.base().raw());
        // Guard page separates them.
        assert!(b.base().raw() - a.base().raw() >= PAGE_BYTES * 2);
    }

    #[test]
    fn region_lookup() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", DataType::Structure, 4096);
        let b = s.alloc("b", DataType::Property, 4096);
        assert_eq!(s.data_type(a.base()), Some(DataType::Structure));
        assert_eq!(
            s.data_type(a.base().add_bytes(4095)),
            Some(DataType::Structure)
        );
        assert_eq!(s.data_type(b.base()), Some(DataType::Property));
        // Guard page belongs to nobody.
        assert_eq!(s.data_type(a.base().add_bytes(4096)), None);
        assert_eq!(s.data_type(VirtAddr::new(0)), None);
    }

    #[test]
    fn structure_page_tagging() {
        let mut s = AddressSpace::new();
        let a = s.alloc("neighbors", DataType::Structure, 8192);
        let p = s.alloc("prop", DataType::Property, 4096);
        assert!(s.is_structure_page(a.base()));
        assert!(s.is_structure_page(a.base().add_bytes(8191)));
        assert!(!s.is_structure_page(p.base()));
    }

    #[test]
    fn array_region_addressing() {
        let mut s = AddressSpace::new();
        let arr = s.alloc_array("offsets", DataType::Intermediate, 8, 10);
        assert_eq!(arr.len(), 10);
        assert!(!arr.is_empty());
        assert_eq!(arr.addr_of(0), arr.base());
        assert_eq!(arr.addr_of(9).raw(), arr.base().raw() + 72);
        assert_eq!(arr.index_of(arr.addr_of(7)), Some(7));
        assert_eq!(arr.index_of(VirtAddr::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_checked() {
        let mut s = AddressSpace::new();
        let arr = s.alloc_array("x", DataType::Property, 4, 4);
        let _ = arr.addr_of(4);
    }

    #[test]
    fn zero_len_array_still_valid() {
        let mut s = AddressSpace::new();
        let arr = s.alloc_array("empty", DataType::Property, 4, 0);
        assert_eq!(arr.len(), 1); // clamped to one element footprint
        assert!(s.region_of(arr.base()).is_some());
    }

    #[test]
    fn region_may_end_just_below_the_address_limit() {
        let mut s = AddressSpace::new();
        let bytes = MemOp::ADDR_LIMIT - SPACE_BASE - PAGE_BYTES;
        let r = s.alloc("huge", DataType::Property, bytes);
        assert_eq!(r.end().raw(), MemOp::ADDR_LIMIT - PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "region \"neighbors\"")]
    fn region_reaching_the_address_limit_panics_with_its_name() {
        let mut s = AddressSpace::new();
        let bytes = MemOp::ADDR_LIMIT - SPACE_BASE;
        s.alloc("neighbors", DataType::Structure, bytes);
    }

    #[test]
    #[should_panic(expected = "region \"offsets\"")]
    fn region_size_overflow_panics_instead_of_wrapping() {
        let mut s = AddressSpace::new();
        s.alloc("offsets", DataType::Intermediate, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "region \"scores\"")]
    fn array_size_overflow_panics_instead_of_wrapping() {
        let mut s = AddressSpace::new();
        s.alloc_array("scores", DataType::Property, 8, u64::MAX / 4);
    }

    #[test]
    fn total_bytes_sums_requests() {
        let mut s = AddressSpace::new();
        s.alloc("a", DataType::Structure, 100);
        s.alloc("b", DataType::Property, 200);
        assert_eq!(s.total_bytes(), 300);
    }
}
