//! The runtime's device registry.
//!
//! Deployment (paper §3.4) "determines the mapping between the Offcode
//! device requirements and the physical devices that are installed in the
//! specific host". [`DeviceDescriptor`] is what the runtime knows about
//! one installed device — class, identity, processor, Offcode memory, and
//! the firmware exports available for linking. [`DeviceRegistry`] holds
//! the installed set and hands the verifier's [`hydra_verify::DeviceTable`]
//! mirror of it, whose rule matches ODF device-class specs for the whole
//! runtime.

use hydra_hw::cpu::CpuSpec;
use hydra_link::linker::ExportTable;
use hydra_odf::odf::class_ids;

/// Identifier of an installed device. Id 0 is always the host CPU.
///
/// Dense `u32` ids: device tables throughout the runtime are plain
/// `Vec`s indexed by [`DeviceId::idx`], so the send/recv hot path does
/// array indexing instead of hash lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The host CPU pseudo-device.
    pub const HOST: DeviceId = DeviceId(0);

    /// True for the host pseudo-device.
    pub fn is_host(&self) -> bool {
        self.0 == 0
    }

    /// The id as a `Vec` index into device-side tables.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_host() {
            f.write_str("host")
        } else {
            write!(f, "dev{}", self.0)
        }
    }
}

/// What the runtime knows about one installed device.
#[derive(Debug, Clone)]
pub struct DeviceDescriptor {
    /// Device class id (see [`class_ids`]).
    pub class: u32,
    /// Diagnostic name ("3Com 3C985B", "host").
    pub name: String,
    /// Bus attachment ("pci", "agp"); `None` for the host.
    pub bus: Option<String>,
    /// MAC layer for network devices.
    pub mac: Option<String>,
    /// Vendor string.
    pub vendor: Option<String>,
    /// The device's processor.
    pub cpu: CpuSpec,
    /// Bytes of memory available for Offcodes.
    pub offcode_memory: u64,
    /// Firmware exports Offcodes can link against.
    pub exports: ExportTable,
}

impl DeviceDescriptor {
    /// The host CPU as a deployment target.
    pub fn host() -> Self {
        let mut exports = ExportTable::new();
        exports.insert("hydra_heap_alloc", 0xFFFF_0000);
        exports.insert("hydra_heap_free", 0xFFFF_0010);
        exports.insert("hydra_runtime_get_offcode", 0xFFFF_0020);
        exports.insert("hydra_channel_write", 0xFFFF_0030);
        exports.insert("hydra_channel_read", 0xFFFF_0040);
        DeviceDescriptor {
            class: class_ids::HOST_CPU,
            name: "host".into(),
            bus: None,
            mac: None,
            vendor: None,
            cpu: CpuSpec::pentium4(),
            offcode_memory: 256 * 1024 * 1024,
            exports,
        }
    }

    /// A programmable NIC modelled on the testbed's 3Com 3C985B.
    pub fn programmable_nic() -> Self {
        let mut d = DeviceDescriptor::host();
        d.class = class_ids::NETWORK;
        d.name = "3Com 3C985B programmable NIC".into();
        d.bus = Some("pci".into());
        d.mac = Some("ethernet".into());
        d.vendor = Some("3COM".into());
        d.cpu = CpuSpec::xscale();
        d.offcode_memory = 2 * 1024 * 1024;
        d
    }

    /// The emulated "smart disk" (a programmable controller exporting a
    /// block device; the paper emulated it with a second programmable NIC).
    pub fn smart_disk() -> Self {
        let mut d = DeviceDescriptor::host();
        d.class = class_ids::STORAGE;
        d.name = "smart disk controller".into();
        d.bus = Some("pci".into());
        d.mac = None;
        d.vendor = Some("3COM".into());
        d.cpu = CpuSpec::xscale();
        d.offcode_memory = 2 * 1024 * 1024;
        d
    }

    /// A GPU with an MPEG decode engine and a framebuffer.
    pub fn gpu() -> Self {
        let mut d = DeviceDescriptor::host();
        d.class = class_ids::GPU;
        d.name = "GPU".into();
        d.bus = Some("agp".into());
        d.mac = None;
        d.vendor = None;
        d.cpu = CpuSpec::gpu_core();
        d.offcode_memory = 16 * 1024 * 1024;
        d
    }

    /// The device as `hydra-verify` sees it: the fields device-class
    /// matching and the capacity pass read.
    fn info(&self) -> hydra_verify::DeviceInfo {
        hydra_verify::DeviceInfo {
            class: self.class,
            name: self.name.clone(),
            bus: self.bus.clone(),
            mac: self.mac.clone(),
            vendor: self.vendor.clone(),
            offcode_memory: self.offcode_memory,
        }
    }
}

/// The set of devices installed in one host, indexed by [`DeviceId`].
///
/// Index 0 is always the host CPU — the fallback target the runtime uses
/// when no device matches (paper §3.4).
///
/// # Examples
///
/// ```
/// use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
///
/// let mut reg = DeviceRegistry::new();
/// let nic = reg.install(DeviceDescriptor::programmable_nic());
/// assert!(!nic.is_host());
/// assert_eq!(reg.len(), 2); // host + NIC
/// ```
#[derive(Debug, Clone)]
pub struct DeviceRegistry {
    devices: Vec<DeviceDescriptor>,
    /// `devices` as the verifier sees them, index for index.
    table: hydra_verify::DeviceTable,
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceRegistry {
    /// Creates a registry containing only the host CPU.
    pub fn new() -> Self {
        let host = DeviceDescriptor::host();
        DeviceRegistry {
            table: hydra_verify::DeviceTable {
                devices: vec![host.info()],
            },
            devices: vec![host],
        }
    }

    /// Installs a device, returning its id.
    pub fn install(&mut self, device: DeviceDescriptor) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.table.devices.push(device.info());
        self.devices.push(device);
        id
    }

    /// Number of deployment targets (including the host).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: the host is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The descriptor for a device.
    ///
    /// # Panics
    ///
    /// Panics if the id is not installed.
    pub fn get(&self, id: DeviceId) -> &DeviceDescriptor {
        &self.devices[id.idx()]
    }

    /// Iterates over `(id, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &DeviceDescriptor)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i as u32), d))
    }

    /// The registry as `hydra-verify`'s [`hydra_verify::DeviceTable`]
    /// (same order). Device-class matching is the table's
    /// [`hydra_verify::DeviceTable::compatibility`]; the table is kept
    /// in step by [`DeviceRegistry::install`], so borrowing it is free.
    pub fn table(&self) -> &hydra_verify::DeviceTable {
        &self.table
    }

    /// An owned copy of [`DeviceRegistry::table`].
    pub fn verify_table(&self) -> hydra_verify::DeviceTable {
        self.table.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_odf::odf::DeviceClassSpec;

    fn nic_spec() -> DeviceClassSpec {
        DeviceClassSpec {
            id: class_ids::NETWORK,
            name: "Network Device".into(),
            bus: Some("pci".into()),
            mac: Some("ethernet".into()),
            vendor: Some("3COM".into()),
        }
    }

    #[test]
    fn host_is_device_zero() {
        let reg = DeviceRegistry::new();
        assert_eq!(reg.len(), 1);
        assert!(DeviceId::HOST.is_host());
        assert_eq!(reg.get(DeviceId::HOST).class, class_ids::HOST_CPU);
    }

    #[test]
    fn matching_honors_all_specified_attrs() {
        let nic = DeviceDescriptor::programmable_nic().info();
        assert!(nic.matches(&nic_spec()));
        let mut wrong_vendor = nic_spec();
        wrong_vendor.vendor = Some("Intel".into());
        assert!(!nic.matches(&wrong_vendor));
    }

    #[test]
    fn unspecified_attrs_are_wildcards() {
        let nic = DeviceDescriptor::programmable_nic().info();
        let loose = DeviceClassSpec {
            id: class_ids::NETWORK,
            name: "any nic".into(),
            bus: None,
            mac: None,
            vendor: None,
        };
        assert!(nic.matches(&loose));
    }

    #[test]
    fn class_mismatch_fails() {
        let gpu = DeviceDescriptor::gpu().info();
        assert!(!gpu.matches(&nic_spec()));
    }

    #[test]
    fn registry_matching_and_compatibility() {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic());
        reg.install(DeviceDescriptor::smart_disk());
        reg.install(DeviceDescriptor::gpu());
        let compat = reg.table().compatibility(&[nic_spec()]);
        assert_eq!(compat, vec![true, true, false, false]);
    }

    #[test]
    fn host_always_compatible() {
        let reg = DeviceRegistry::new();
        let compat = reg.table().compatibility(&[]);
        assert_eq!(compat, vec![true]);
    }

    #[test]
    fn device_display() {
        assert_eq!(DeviceId::HOST.to_string(), "host");
        assert_eq!(DeviceId(3).to_string(), "dev3");
    }
}
