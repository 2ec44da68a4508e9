//! Dynamic Offcode loading strategies.
//!
//! Paper §4.2 weighs two designs and HYDRA supports both:
//!
//! 1. **Host-side linking** — the host calls the device's
//!    `AllocateOffcodeMemory`, links the object at the returned address,
//!    and transfers a ready image. Cheap for the device, all link work on
//!    the host.
//! 2. **Device-side loading** — the host ships the relocatable object
//!    as-is and the device's loader (itself a pseudo-Offcode) performs the
//!    link. Costs device cycles and extra device memory for the object
//!    file and symbol tables.
//!
//! Both paths produce the same [`LinkedImage`]; [`LoadPlan`] records where
//! the work landed so the `offload_pipeline` example can compare them.

use crate::linker::{ExportTable, LinkError, LinkedImage, Linker};
use crate::object::HofObject;

/// A first-fit allocator for a device's Offcode memory region,
/// implementing the `AllocateOffcodeMemory` interface the device loader
/// exports. Every block is 16-byte aligned and at least 16 bytes long,
/// so each address names one block. Until a block is freed, each
/// address is the next one after the last block handed out.
///
/// # Examples
///
/// ```
/// use hydra_link::loader::DeviceMemoryAllocator;
///
/// let mut alloc = DeviceMemoryAllocator::new(0x1_0000, 64 * 1024);
/// let base = alloc.allocate(4096).unwrap();
/// assert_eq!(base, 0x1_0000);
/// assert_eq!(alloc.free(base), Some(4096));
/// assert_eq!(alloc.available(), 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceMemoryAllocator {
    base: u64,
    capacity: u64,
    used: u64,
    /// Live blocks as `(address, aligned length)`, sorted by address.
    blocks: Vec<(u64, u64)>,
}

/// Error when a device cannot satisfy an Offcode memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still available.
    pub available: u64,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// The length of the block a `size`-byte request takes: rounded up to
/// the 16-byte alignment, and at least one 16-byte unit.
fn block_len(size: u64) -> u64 {
    size.max(1).div_ceil(16) * 16
}

impl DeviceMemoryAllocator {
    /// Creates an allocator over `[base, base + capacity)`.
    pub fn new(base: u64, capacity: u64) -> Self {
        DeviceMemoryAllocator {
            base,
            capacity,
            used: 0,
            blocks: Vec::new(),
        }
    }

    /// Bytes not allocated.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Bytes handed out and not yet freed.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Allocates `size` bytes (16-byte aligned, at least 16) in the
    /// lowest gap that fits, returning the base address.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfDeviceMemory`] when no gap is large enough.
    pub fn allocate(&mut self, size: u64) -> Result<u64, OutOfDeviceMemory> {
        let len = block_len(size);
        let mut addr = self.base;
        let mut at = self.blocks.len();
        for (i, &(start, held)) in self.blocks.iter().enumerate() {
            if start - addr >= len {
                at = i;
                break;
            }
            addr = start + held;
        }
        if at == self.blocks.len() && self.base + self.capacity - addr < len {
            return Err(OutOfDeviceMemory {
                requested: size,
                available: self.available(),
            });
        }
        self.blocks.insert(at, (addr, len));
        self.used += len;
        Ok(addr)
    }

    /// Frees the block that starts at `addr`, returning its aligned
    /// length, or `None` if no live block starts there (never
    /// allocated, or already freed).
    pub fn free(&mut self, addr: u64) -> Option<u64> {
        let i = self.blocks.binary_search_by_key(&addr, |&(a, _)| a).ok()?;
        let (_, len) = self.blocks.remove(i);
        self.used -= len;
        Some(len)
    }
}

/// Which strategy loaded the Offcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadStrategy {
    /// Link on the host, ship the finished image.
    HostSideLink,
    /// Ship the object file, link on the device.
    DeviceSideLink,
}

/// Cost accounting of a completed load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPlan {
    /// Strategy used.
    pub strategy: LoadStrategy,
    /// Host CPU work, in abstract link-units (relocations processed plus
    /// bytes laid out; convert to cycles with the host's per-unit cost).
    pub host_work_units: u64,
    /// Device CPU work in the same units.
    pub device_work_units: u64,
    /// Bytes that crossed the bus.
    pub transfer_bytes: u64,
    /// Device memory consumed (image + any transient object storage).
    pub device_memory_bytes: u64,
    /// Relocations the linker patched (wherever the link ran).
    pub relocations_applied: u64,
    /// Base address of the device-memory block the load reserved; hand
    /// it to [`DeviceMemoryAllocator::free`] to return the block.
    pub reserved_base: u64,
    /// Length of that block, which for a device-side load also covers
    /// the staged object files.
    pub reserved_bytes: u64,
}

fn link_work_units(objects: &[HofObject]) -> u64 {
    let relocs = relocation_count(objects);
    let syms: u64 = objects.iter().map(|o| o.symbols.len() as u64).sum();
    let bytes: u64 = objects.iter().map(|o| u64::from(o.load_size())).sum();
    // Weights: symbols require table insertion/lookup, relocations a patch,
    // layout a copy per byte (dominated by memcpy throughput).
    syms * 50 + relocs * 20 + bytes / 8
}

fn relocation_count(objects: &[HofObject]) -> u64 {
    objects.iter().map(|o| o.relocations.len() as u64).sum()
}

/// Reserves `bytes` of device memory and links `objects` at the image
/// base `image_base` picks inside the block. A link error frees the
/// block again, so a refused load changes no allocator state. Returns
/// the image and the block's base address and length.
fn reserve_and_link(
    objects: &[HofObject],
    allocator: &mut DeviceMemoryAllocator,
    exports: &ExportTable,
    bytes: u64,
    image_base: impl FnOnce(u64) -> u64,
) -> Result<(LinkedImage, u64, u64), LoadError> {
    let base = allocator.allocate(bytes)?;
    match Linker::new().link(objects, image_base(base), exports) {
        Ok(image) => Ok((image, base, block_len(bytes))),
        Err(e) => {
            allocator.free(base);
            Err(e.into())
        }
    }
}

/// Loads an Offcode using host-side linking.
///
/// # Errors
///
/// Fails if the device is out of memory or the link fails.
pub fn load_host_side(
    objects: &[HofObject],
    allocator: &mut DeviceMemoryAllocator,
    exports: &ExportTable,
) -> Result<(LinkedImage, LoadPlan), LoadError> {
    let total: u64 = objects.iter().map(|o| u64::from(o.load_size())).sum();
    // Alignment padding between objects is bounded by 16 per object.
    let bytes = total + 16 * objects.len() as u64;
    let (image, reserved_base, reserved_bytes) =
        reserve_and_link(objects, allocator, exports, bytes, |base| base)?;
    let plan = LoadPlan {
        strategy: LoadStrategy::HostSideLink,
        host_work_units: link_work_units(objects),
        device_work_units: image.bytes.len() as u64 / 64, // just the copy-in
        transfer_bytes: image.bytes.len() as u64,
        device_memory_bytes: image.memory_size,
        relocations_applied: relocation_count(objects),
        reserved_base,
        reserved_bytes,
    };
    Ok((image, plan))
}

/// Loads an Offcode by shipping the object files and linking on the
/// device.
///
/// # Errors
///
/// Fails if the device is out of memory or the link fails.
pub fn load_device_side(
    objects: &[HofObject],
    allocator: &mut DeviceMemoryAllocator,
    exports: &ExportTable,
) -> Result<(LinkedImage, LoadPlan), LoadError> {
    // The device must hold the encoded objects *and* the final image.
    let encoded: u64 = objects.iter().map(|o| o.encode().len() as u64).sum();
    let total: u64 = objects.iter().map(|o| u64::from(o.load_size())).sum();
    let bytes = encoded + total + 16 * objects.len() as u64;
    // The image region begins after the staged object files.
    let (image, reserved_base, reserved_bytes) =
        reserve_and_link(objects, allocator, exports, bytes, |base| {
            (base + encoded).div_ceil(16) * 16
        })?;
    let plan = LoadPlan {
        strategy: LoadStrategy::DeviceSideLink,
        host_work_units: encoded / 64, // just streaming the file out
        device_work_units: link_work_units(objects),
        transfer_bytes: encoded,
        device_memory_bytes: encoded + image.memory_size,
        relocations_applied: relocation_count(objects),
        reserved_base,
        reserved_bytes,
    };
    Ok((image, plan))
}

/// Errors from either loading path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Device memory exhausted.
    Memory(OutOfDeviceMemory),
    /// Link failure.
    Link(LinkError),
}

impl From<OutOfDeviceMemory> for LoadError {
    fn from(e: OutOfDeviceMemory) -> Self {
        LoadError::Memory(e)
    }
}

impl From<LinkError> for LoadError {
    fn from(e: LinkError) -> Self {
        LoadError::Link(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Memory(e) => write!(f, "{e}"),
            LoadError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Section, Symbol, SymbolKind};

    fn sample_objects() -> Vec<HofObject> {
        vec![HofObject::new("m")
            .with_section(Section::text(vec![0x90; 4096]))
            .with_section(Section::bss(1024))
            .with_symbol(Symbol {
                name: "entry".into(),
                kind: SymbolKind::Defined {
                    section: 0,
                    offset: 0,
                },
            })]
    }

    #[test]
    fn allocator_alignment_and_exhaustion() {
        let mut a = DeviceMemoryAllocator::new(0x100, 64);
        assert_eq!(a.allocate(10).unwrap(), 0x100);
        assert_eq!(a.allocate(10).unwrap(), 0x110); // 16-aligned
        assert_eq!(a.available(), 32);
        let err = a.allocate(100).unwrap_err();
        assert_eq!(err.available, 32);
        assert_eq!(a.free(0x100), Some(16));
        assert_eq!(a.free(0x100), None, "double free");
        assert_eq!(a.free(0x108), None, "not a block start");
        assert_eq!(a.available(), 48);
        // First fit: the freed hole at the bottom is reused.
        assert_eq!(a.allocate(16).unwrap(), 0x100);
        assert_eq!(a.free(0x110), Some(16));
        assert_eq!(a.free(0x100), Some(16));
        assert_eq!(a.available(), 64);
    }

    #[test]
    fn allocator_first_fit_skips_holes_too_small() {
        let mut a = DeviceMemoryAllocator::new(0, 96);
        let blocks: Vec<u64> = (0..3).map(|_| a.allocate(32).unwrap()).collect();
        assert_eq!(blocks, [0, 32, 64]);
        a.free(32);
        assert_eq!(a.allocate(48).unwrap_err().available, 32, "no gap fits");
        assert_eq!(a.allocate(20).unwrap(), 32);
        assert_eq!(a.available(), 0);
    }

    #[test]
    fn both_strategies_produce_equivalent_symbols() {
        let objs = sample_objects();
        let exports = ExportTable::new();
        let mut a1 = DeviceMemoryAllocator::new(0x10_000, 1 << 20);
        let mut a2 = DeviceMemoryAllocator::new(0x10_000, 1 << 20);
        let (img1, plan1) = load_host_side(&objs, &mut a1, &exports).unwrap();
        let (img2, plan2) = load_device_side(&objs, &mut a2, &exports).unwrap();
        // Same bytes modulo the base shift.
        assert_eq!(img1.bytes, img2.bytes);
        assert_eq!(plan1.strategy, LoadStrategy::HostSideLink);
        assert_eq!(plan2.strategy, LoadStrategy::DeviceSideLink);
        assert!(img1.symbol("entry").is_some());
        assert!(img2.symbol("entry").is_some());
    }

    #[test]
    fn host_side_puts_work_on_host() {
        let objs = sample_objects();
        let mut a = DeviceMemoryAllocator::new(0, 1 << 20);
        let (_, plan) = load_host_side(&objs, &mut a, &ExportTable::new()).unwrap();
        assert!(plan.host_work_units > plan.device_work_units);
    }

    #[test]
    fn device_side_puts_work_on_device() {
        let objs = sample_objects();
        let mut a = DeviceMemoryAllocator::new(0, 1 << 20);
        let (_, plan) = load_device_side(&objs, &mut a, &ExportTable::new()).unwrap();
        assert!(plan.device_work_units > plan.host_work_units);
    }

    #[test]
    fn device_side_needs_more_device_memory() {
        let objs = sample_objects();
        let mut a1 = DeviceMemoryAllocator::new(0, 1 << 20);
        let mut a2 = DeviceMemoryAllocator::new(0, 1 << 20);
        let (_, p1) = load_host_side(&objs, &mut a1, &ExportTable::new()).unwrap();
        let (_, p2) = load_device_side(&objs, &mut a2, &ExportTable::new()).unwrap();
        assert!(p2.device_memory_bytes > p1.device_memory_bytes);
        // The plan reports the whole reservation, staging included.
        assert_eq!(p1.reserved_bytes, a1.used());
        assert_eq!(p2.reserved_bytes, a2.used());
        assert!(p2.reserved_bytes > p1.reserved_bytes);
        assert_eq!(a2.free(p2.reserved_base), Some(p2.reserved_bytes));
    }

    #[test]
    fn transfer_bytes_differ_between_strategies() {
        // Host-side ships the materialized image (no BSS); device-side
        // ships the encoded object (with headers/symbols but also no BSS
        // contents).
        let objs = sample_objects();
        let mut a1 = DeviceMemoryAllocator::new(0, 1 << 20);
        let mut a2 = DeviceMemoryAllocator::new(0, 1 << 20);
        let (img, p1) = load_host_side(&objs, &mut a1, &ExportTable::new()).unwrap();
        let (_, p2) = load_device_side(&objs, &mut a2, &ExportTable::new()).unwrap();
        assert_eq!(p1.transfer_bytes, img.bytes.len() as u64);
        assert!(p2.transfer_bytes > 0);
    }

    #[test]
    fn oom_surfaces_as_load_error() {
        let objs = sample_objects();
        let mut tiny = DeviceMemoryAllocator::new(0, 128);
        assert!(matches!(
            load_host_side(&objs, &mut tiny, &ExportTable::new()),
            Err(LoadError::Memory(_))
        ));
    }

    #[test]
    fn link_errors_surface() {
        let obj = HofObject::new("m")
            .with_section(Section::text(vec![0; 8]))
            .with_symbol(Symbol {
                name: "missing".into(),
                kind: SymbolKind::Undefined,
            })
            .with_relocation(crate::object::Relocation {
                section: 0,
                offset: 0,
                symbol: 0,
                addend: 0,
                kind: crate::object::RelocKind::Abs64,
            });
        for load in [load_host_side, load_device_side] {
            let mut a = DeviceMemoryAllocator::new(0, 1 << 20);
            assert!(matches!(
                load(std::slice::from_ref(&obj), &mut a, &ExportTable::new()),
                Err(LoadError::Link(LinkError::Unresolved(_)))
            ));
            assert_eq!(a.available(), 1 << 20, "a refused load reserves nothing");
        }
    }
}
