//! Host memory system: address-space layout and access-cost model.
//!
//! Workload models need real addresses so that the L2 [`Cache`] sees
//! realistic conflict behaviour. [`AddressSpace`] is a bump allocator that
//! hands out named regions (kernel socket buffers, user buffers, MPEG frame
//! buffers, …). [`MemorySystem`] combines the cache with L2/DRAM latencies
//! and turns buffer touches into both time costs and miss counts — the
//! "memory pressure" the paper's offloading argument is about.

use crate::cache::{AccessKind, Cache, CacheConfig};
use hydra_sim::time::SimDuration;

/// A contiguous range of simulated physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    base: u64,
    len: usize,
}

impl Region {
    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length region.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of byte `offset` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn at(&self, offset: usize) -> u64 {
        assert!(offset < self.len, "Region::at: offset out of bounds");
        self.base + offset as u64
    }

    /// A sub-range `[offset, offset + len)` of this region.
    ///
    /// # Panics
    ///
    /// Panics if the sub-range exceeds the region.
    pub fn slice(&self, offset: usize, len: usize) -> Region {
        assert!(
            offset + len <= self.len,
            "Region::slice: sub-range out of bounds"
        );
        Region {
            base: self.base + offset as u64,
            len,
        }
    }
}

/// A bump allocator over the simulated physical address space.
///
/// # Examples
///
/// ```
/// use hydra_hw::mem::AddressSpace;
///
/// let mut a = AddressSpace::new();
/// let r1 = a.alloc("skb", 1500);
/// let r2 = a.alloc("user-buf", 4096);
/// assert!(r2.base() >= r1.base() + 1500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    next: u64,
    regions: Vec<(String, Region)>,
}

/// Alignment applied to every allocation (one typical page).
const REGION_ALIGN: u64 = 4096;

impl AddressSpace {
    /// Creates an empty address space starting at a non-zero base.
    pub fn new() -> Self {
        AddressSpace {
            // Skip page zero so that address 0 can act as a sentinel.
            next: REGION_ALIGN,
            regions: Vec::new(),
        }
    }

    /// Allocates a page-aligned region with a diagnostic name.
    pub fn alloc(&mut self, name: &str, len: usize) -> Region {
        let base = self.next;
        let span = (len as u64).div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.next += span.max(REGION_ALIGN);
        let region = Region { base, len };
        self.regions.push((name.to_owned(), region));
        region
    }

    /// All allocations in order, with their names.
    pub fn regions(&self) -> &[(String, Region)] {
        &self.regions
    }

    /// Total bytes allocated (excluding alignment padding).
    pub fn allocated_bytes(&self) -> usize {
        self.regions.iter().map(|(_, r)| r.len).sum()
    }
}

/// Latency parameters of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemLatency {
    /// Time to satisfy an access from L2.
    pub l2_hit: SimDuration,
    /// Additional time for a DRAM fill on L2 miss.
    pub dram: SimDuration,
}

impl MemLatency {
    /// Typical 2006-era host: ~12 ns L2, ~90 ns DRAM.
    pub fn paper_host() -> Self {
        MemLatency {
            l2_hit: SimDuration::from_nanos(12),
            dram: SimDuration::from_nanos(90),
        }
    }
}

/// The host memory subsystem: L2 cache + latencies + traffic accounting.
///
/// # Examples
///
/// ```
/// use hydra_hw::cache::{AccessKind, CacheConfig};
/// use hydra_hw::mem::{AddressSpace, MemLatency, MemorySystem};
///
/// let mut space = AddressSpace::new();
/// let buf = space.alloc("buf", 4096);
/// let mut mem = MemorySystem::new(CacheConfig::paper_l2(), MemLatency::paper_host());
/// let cost = mem.touch(buf, AccessKind::Read);
/// assert!(cost.as_nanos() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cache: Cache,
    latency: MemLatency,
    bytes_touched: u64,
}

impl MemorySystem {
    /// Creates a memory system with an empty cache.
    pub fn new(cache: CacheConfig, latency: MemLatency) -> Self {
        MemorySystem {
            cache: Cache::new(cache),
            latency,
            bytes_touched: 0,
        }
    }

    /// The underlying cache model.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Exclusive access to the underlying cache model (e.g. to reset stats
    /// between experiment phases).
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// Total bytes moved through [`MemorySystem::touch`]/`touch_at`.
    pub fn bytes_touched(&self) -> u64 {
        self.bytes_touched
    }

    /// Touches a whole region, returning the time cost of the line fills.
    pub fn touch(&mut self, region: Region, kind: AccessKind) -> SimDuration {
        self.touch_at(region.base(), region.len(), kind)
    }

    /// Touches `[addr, addr + len)`, returning the time cost.
    ///
    /// Every covered line costs one `l2_hit`; lines that miss cost `dram`
    /// on top.
    pub fn touch_at(&mut self, addr: u64, len: usize, kind: AccessKind) -> SimDuration {
        if len == 0 {
            return SimDuration::ZERO;
        }
        self.bytes_touched += len as u64;
        let shift = self.cache.line_shift();
        let lines = ((addr + len as u64 - 1) >> shift) - (addr >> shift) + 1;
        let misses = self.cache.touch_range(addr, len, kind);
        self.latency.l2_hit * lines + self.latency.dram * misses
    }

    /// Models a CPU copy of `len` bytes from `src` to `dst`: reads the
    /// source, writes the destination, returns the combined memory time.
    ///
    /// This is the per-copy cost that `sendfile` (one copy eliminated) and
    /// offloading (all copies eliminated) avoid.
    pub fn copy(&mut self, src: Region, dst: Region, len: usize) -> SimDuration {
        let n = len.min(src.len()).min(dst.len());
        self.touch_at(src.base(), n, AccessKind::Read)
            + self.touch_at(dst.base(), n, AccessKind::Write)
    }

    /// Models a device DMA into or out of host memory: the transfer
    /// invalidates covered cache lines (hardware coherence) but does **not**
    /// pollute the cache — this is the key asymmetry that makes offloaded
    /// I/O invisible to the host L2. Returns the number of lines
    /// invalidated.
    pub fn dma_transfer(&mut self, region: Region) -> u64 {
        self.cache.invalidate_range(region.base(), region.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(
            CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 64,
                ways: 2,
            },
            MemLatency {
                l2_hit: SimDuration::from_nanos(10),
                dram: SimDuration::from_nanos(100),
            },
        )
    }

    #[test]
    fn region_slicing() {
        let mut a = AddressSpace::new();
        let r = a.alloc("r", 1000);
        let s = r.slice(100, 50);
        assert_eq!(s.base(), r.base() + 100);
        assert_eq!(s.len(), 50);
        assert_eq!(r.at(0), r.base());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let mut a = AddressSpace::new();
        let r = a.alloc("r", 10);
        let _ = r.slice(5, 6);
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc("a", 5000);
        let r2 = a.alloc("b", 100);
        assert_eq!(r1.base() % 4096, 0);
        assert_eq!(r2.base() % 4096, 0);
        assert!(r2.base() >= r1.base() + 5000);
        assert_eq!(a.allocated_bytes(), 5100);
        assert_eq!(a.regions().len(), 2);
    }

    #[test]
    fn cold_touch_costs_dram_warm_touch_does_not() {
        let mut a = AddressSpace::new();
        let r = a.alloc("buf", 640); // 10 lines
        let mut m = mem();
        let cold = m.touch(r, AccessKind::Read);
        // 10 lines * (10 + 100) ns
        assert_eq!(cold, SimDuration::from_nanos(1100));
        let warm = m.touch(r, AccessKind::Read);
        assert_eq!(warm, SimDuration::from_nanos(100));
        assert_eq!(m.bytes_touched(), 1280);
    }

    #[test]
    fn touch_counts_lines_as_the_division_form_does() {
        let line = 64u64;
        for addr in [0u64, 1, 63, 64, 65, 127, 4095, 4097, 0x4000_0000 + 17] {
            for len in [1usize, 2, 63, 64, 65, 127, 128, 129, 1500, 4096] {
                let mut m = mem();
                let spent = m.touch_at(addr, len, AccessKind::Read);
                let misses = m.cache().stats().misses;
                let lines = (addr + len as u64 - 1) / line - addr / line + 1;
                let want = SimDuration::from_nanos(10 * lines + 100 * misses);
                assert_eq!(spent, want, "touch_at({addr:#x}, {len})");
                // Warm: every line hits and costs one `l2_hit`.
                let warm = m.touch_at(addr, len, AccessKind::Read);
                assert_eq!(warm, SimDuration::from_nanos(10 * lines), "warm {addr:#x}");
            }
        }
    }

    #[test]
    fn empty_touch_is_free() {
        let mut m = mem();
        assert_eq!(m.touch_at(0, 0, AccessKind::Read), SimDuration::ZERO);
    }

    #[test]
    fn copy_touches_both_buffers() {
        let mut a = AddressSpace::new();
        let src = a.alloc("src", 1024);
        let dst = a.alloc("dst", 1024);
        let mut m = mem();
        m.copy(src, dst, 1024);
        // Both buffers resident afterwards.
        assert!(m.cache().contains(src.base()));
        assert!(m.cache().contains(dst.base()));
        assert_eq!(m.cache().stats().misses, 32);
    }

    #[test]
    fn copy_respects_shorter_buffer() {
        let mut a = AddressSpace::new();
        let src = a.alloc("src", 64);
        let dst = a.alloc("dst", 4096);
        let mut m = mem();
        m.copy(src, dst, 4096);
        // Only one line read + one line written.
        assert_eq!(m.cache().stats().misses, 2);
    }

    #[test]
    fn dma_does_not_pollute_cache() {
        let mut a = AddressSpace::new();
        let app = a.alloc("app", 1024);
        let dma_buf = a.alloc("dma", 4096);
        let mut m = mem();
        m.touch(app, AccessKind::Read);
        let resident = m.cache().resident_lines();
        m.dma_transfer(dma_buf);
        // DMA brought nothing into the cache.
        assert_eq!(m.cache().resident_lines(), resident);
        // And the app buffer still hits.
        m.cache_mut().reset_stats();
        m.touch(app, AccessKind::Read);
        assert_eq!(m.cache().stats().misses, 0);
    }

    #[test]
    fn dma_invalidates_resident_lines() {
        let mut a = AddressSpace::new();
        let buf = a.alloc("buf", 256);
        let mut m = mem();
        m.touch(buf, AccessKind::Read);
        assert_eq!(m.dma_transfer(buf), 4);
        assert!(!m.cache().contains(buf.base()));
    }

    #[test]
    fn streaming_pollutes_cache() {
        // The "simple server" effect: repeatedly copying fresh packet
        // buffers through the cache evicts the application's working set.
        let mut a = AddressSpace::new();
        let working_set = a.alloc("app", 4 * 1024);
        let mut m = mem();
        m.touch(working_set, AccessKind::Read);
        let warm_misses = m.cache().stats().misses;

        // Stream 64 kB of packet data through the 8 kB cache.
        let stream = a.alloc("stream", 64 * 1024);
        m.touch(stream, AccessKind::Read);

        m.cache_mut().reset_stats();
        m.touch(working_set, AccessKind::Read);
        let after = m.cache().stats().misses;
        assert!(
            after > warm_misses / 2,
            "streaming should have evicted the working set ({after} misses)"
        );
    }
}
