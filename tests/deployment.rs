//! Integration: the full deployment pipeline across crates — XML ODFs in,
//! running offcodes out, with resources cleaned up on teardown.

use bytes::Bytes;
use hydra::core::call::{Call, Value};
use hydra::core::channel::ChannelConfig;
use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::error::RuntimeError;
use hydra::core::offcode::{Offcode, OffcodeCtx};
use hydra::core::runtime::{Lifecycle, Runtime, RuntimeConfig};
use hydra::hw::cpu::Cycles;
use hydra::odf::odf::{Guid, OdfDocument};
use hydra::sim::time::SimTime;

#[derive(Debug)]
struct Echo {
    guid: Guid,
    name: String,
}

impl Offcode for Echo {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        ctx.charge(Cycles::new(10));
        Ok(call.args.first().cloned().unwrap_or(Value::Unit))
    }
}

fn machine() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    reg
}

/// Every device's free Offcode memory, in device order.
fn free_memory(rt: &Runtime) -> Vec<u64> {
    rt.devices()
        .iter()
        .map(|(d, _)| rt.free_memory(d))
        .collect()
}

/// The paper's Figure 4 ODF drives a real deployment.
#[test]
fn xml_odf_to_running_offcode() {
    let socket_odf = r"<offcode>
      <package>
        <bindname>hydra.net.utils.Socket</bindname>
        <GUID>7070714</GUID>
      </package>
      <sw-env>
        <import>
          <file>/offcodes/checksum.xdf</file>
          <bindname>hydra.net.utils.Checksum</bindname>
          <reference type=Pull pri=0/>
          <GUID>6060843</GUID>
        </import>
      </sw-env>
      <targets>
        <device-class id=0x0001>
          <name>Network Device</name>
          <bus>pci</bus>
          <mac>ethernet</mac>
          <vendor>3COM</vendor>
        </device-class>
      </targets>
    </offcode>";
    let checksum_odf = r"<offcode>
      <package>
        <bindname>hydra.net.utils.Checksum</bindname>
        <GUID>6060843</GUID>
      </package>
      <targets>
        <device-class id=0x0001><name>Network Device</name></device-class>
      </targets>
    </offcode>";

    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    for xml in [socket_odf, checksum_odf] {
        let odf = OdfDocument::parse(xml).expect("paper ODF parses");
        let guid = odf.guid;
        let name = odf.bind_name.clone();
        rt.register_offcode(odf, move || {
            Box::new(Echo {
                guid,
                name: name.clone(),
            })
        })
        .expect("fresh GUIDs");
    }

    let socket = rt
        .create_offcode(Guid(7070714), SimTime::ZERO)
        .expect("deploys");
    let checksum = rt.get_offcode(Guid(6060843)).expect("import deployed too");
    // Pull constraint: same device, and it is the NIC.
    assert_eq!(rt.device_of(socket), Some(DeviceId(1)));
    assert_eq!(rt.device_of(socket), rt.device_of(checksum));
    for d in rt.deployments() {
        assert_eq!(d.state, Lifecycle::Started);
    }
}

#[test]
fn invoke_and_channel_paths_agree() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    let odf = OdfDocument::new("echo", Guid(5)).with_target(hydra::odf::odf::DeviceClassSpec {
        id: hydra::odf::odf::class_ids::GPU,
        name: "GPU".into(),
        bus: None,
        mac: None,
        vendor: None,
    });
    rt.register_offcode(odf, || {
        Box::new(Echo {
            guid: Guid(5),
            name: "echo".into(),
        })
    })
    .expect("registers");
    let id = rt.create_offcode(Guid(5), SimTime::ZERO).expect("deploys");
    let device = rt.device_of(id).expect("placed");
    assert_eq!(device, DeviceId(3));

    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(device))
        .expect("provider exists");
    rt.connect_offcode(chan, id).expect("connects");
    let call = Call::new(Guid(5), "echo")
        .with_arg(Value::Bytes(Bytes::from_static(b"payload")))
        .with_return_id(1);
    let at = rt.send_call(chan, &call, SimTime::ZERO).expect("sends");
    let dispatched = rt.pump(at);
    let direct = rt.invoke(id, &call, at).expect("invokes");
    assert_eq!(dispatched.len(), 1);
    assert_eq!(dispatched[0].result.as_ref().ok(), Some(&direct));
    // Work booked on the GPU only.
    assert!(rt.device_work(DeviceId(3)).get() > 0);
    assert_eq!(rt.device_work(DeviceId::HOST).get(), 0);
}

#[test]
fn teardown_cascades_resources() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.register_offcode(OdfDocument::new("a", Guid(1)), || {
        Box::new(Echo {
            guid: Guid(1),
            name: "a".into(),
        })
    })
    .expect("registers");
    let free_before = free_memory(&rt);
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).expect("deploys");
    let device = rt.device_of(id).expect("placed");
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::oob(device))
        .expect("channel");
    let channels_before = rt.executive().len();
    rt.connect_offcode(chan, id).expect("connects");
    assert_ne!(free_memory(&rt), free_before, "the image holds memory");
    assert!(rt.teardown(id));
    assert_eq!(free_memory(&rt), free_before, "image memory returned");
    assert_eq!(
        rt.executive().len(),
        channels_before - 1,
        "the OOB channel is destroyed, the caller's stays"
    );
    // The instance is gone; further use errors cleanly.
    assert!(matches!(
        rt.invoke(id, &Call::new(Guid(1), "x"), SimTime::ZERO),
        Err(RuntimeError::NoSuchInstance(_))
    ));
    // Re-deployment works after teardown.
    let id2 = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("redeploys");
    assert_ne!(id, id2);
}

#[test]
fn host_fallback_when_devices_are_full() {
    let mut reg = DeviceRegistry::new();
    let mut nic = DeviceDescriptor::programmable_nic();
    nic.offcode_memory = 100; // too small for any offcode
    reg.install(nic);
    // The static verifier would reject this up front (HV020: the NIC is
    // overcommitted); disable it to reach the load-time fallback path.
    let config = RuntimeConfig {
        verify_deployments: false,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(reg, config);
    let odf = OdfDocument::new("big", Guid(9)).with_target(hydra::odf::odf::DeviceClassSpec {
        id: hydra::odf::odf::class_ids::NETWORK,
        name: "nic".into(),
        bus: None,
        mac: None,
        vendor: None,
    });
    rt.register_offcode(odf, || {
        Box::new(Echo {
            guid: Guid(9),
            name: "big".into(),
        })
    })
    .expect("registers");
    let id = rt
        .create_offcode(Guid(9), SimTime::ZERO)
        .expect("falls back");
    assert_eq!(rt.device_of(id), Some(DeviceId::HOST));
}

/// §5's motivating scenario: "in multi-user environments, reusing the
/// same Offcode in several applications may substantially complicate the
/// offloading layout design." Two applications import the same Checksum
/// Offcode; the second deployment must reuse the first instance rather
/// than duplicate it.
#[test]
fn two_applications_share_one_offcode_instance() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    let shared_class = hydra::odf::odf::DeviceClassSpec {
        id: hydra::odf::odf::class_ids::NETWORK,
        name: "nic".into(),
        bus: None,
        mac: None,
        vendor: None,
    };
    let shared = OdfDocument::new("shared.Checksum", Guid(100)).with_target(shared_class.clone());
    let app_a = OdfDocument::new("app.A", Guid(1))
        .with_target(shared_class.clone())
        .with_import(hydra::odf::odf::Import {
            file: String::new(),
            bind_name: "shared.Checksum".into(),
            guid: Guid(100),
            constraint: hydra::odf::odf::ConstraintKind::Pull,
            priority: 0,
        });
    let app_b = OdfDocument::new("app.B", Guid(2))
        .with_target(shared_class)
        .with_import(hydra::odf::odf::Import {
            file: String::new(),
            bind_name: "shared.Checksum".into(),
            guid: Guid(100),
            constraint: hydra::odf::odf::ConstraintKind::Link,
            priority: 0,
        });
    for (odf, guid, name) in [
        (shared, Guid(100), "shared.Checksum"),
        (app_a, Guid(1), "app.A"),
        (app_b, Guid(2), "app.B"),
    ] {
        let name = name.to_owned();
        rt.register_offcode(odf, move || {
            Box::new(Echo {
                guid,
                name: name.clone(),
            })
        })
        .expect("fresh GUIDs");
    }
    let a = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("app A deploys");
    let shared_after_a = rt.get_offcode(Guid(100)).expect("shared deployed");
    let b = rt
        .create_offcode(Guid(2), SimTime::ZERO)
        .expect("app B deploys");
    let shared_after_b = rt.get_offcode(Guid(100)).expect("still deployed");
    // One shared instance, not two.
    assert_eq!(shared_after_a, shared_after_b);
    assert_eq!(rt.deployments().len(), 3);
    assert_ne!(a, b);
    // A's Pull held: app A sits with the shared instance.
    assert_eq!(rt.device_of(a), rt.device_of(shared_after_a));
}

#[derive(Debug)]
struct StatefulCounter {
    count: u64,
}

impl Offcode for StatefulCounter {
    fn guid(&self) -> Guid {
        Guid(0xC0DE)
    }
    fn bind_name(&self) -> &'static str {
        "test.Counter"
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        match call.operation.as_str() {
            "incr" => {
                self.count += 1;
                Ok(Value::U64(self.count))
            }
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
    fn snapshot(&self) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(&self.count.to_le_bytes()))
    }
    fn restore(&mut self, state: Bytes) -> Result<(), RuntimeError> {
        let raw: [u8; 8] = state[..]
            .try_into()
            .map_err(|_| RuntimeError::Rejected("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(raw);
        Ok(())
    }
}

/// Migration with state: the FarGo-heritage relocation (§7) carried over
/// the snapshot/restore hooks.
#[test]
fn migration_preserves_offcode_state() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    let odf = OdfDocument::new("test.Counter", Guid(0xC0DE))
        .with_target(hydra::odf::odf::DeviceClassSpec {
            id: hydra::odf::odf::class_ids::NETWORK,
            name: "nic".into(),
            bus: None,
            mac: None,
            vendor: None,
        })
        .with_target(hydra::odf::odf::DeviceClassSpec {
            id: hydra::odf::odf::class_ids::GPU,
            name: "gpu".into(),
            bus: None,
            mac: None,
            vendor: None,
        });
    rt.register_offcode(odf, || Box::new(StatefulCounter { count: 0 }))
        .expect("registers");
    let id = rt
        .create_offcode(Guid(0xC0DE), SimTime::ZERO)
        .expect("deploys");
    assert_eq!(rt.device_of(id), Some(DeviceId(1)), "starts on the NIC");
    let incr = Call::new(Guid(0xC0DE), "incr");
    for _ in 0..5 {
        rt.invoke(id, &incr, SimTime::ZERO).expect("counts");
    }
    // Migrate NIC -> GPU.
    let id2 = rt
        .migrate(id, DeviceId(3), SimTime::from_millis(1))
        .expect("gpu is a compatible target");
    assert_eq!(rt.device_of(id2), Some(DeviceId(3)));
    assert!(
        matches!(
            rt.invoke(id, &incr, SimTime::from_millis(1)),
            Err(RuntimeError::NoSuchInstance(_))
        ),
        "old instance is gone"
    );
    // State survived: the next increment continues from 5.
    assert_eq!(
        rt.invoke(id2, &incr, SimTime::from_millis(1))
            .expect("counts"),
        Value::U64(6)
    );
}

#[test]
fn migration_to_incompatible_device_is_rejected() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    let odf = OdfDocument::new("test.Counter", Guid(0xC0DE)).with_target(
        hydra::odf::odf::DeviceClassSpec {
            id: hydra::odf::odf::class_ids::NETWORK,
            name: "nic".into(),
            bus: None,
            mac: None,
            vendor: None,
        },
    );
    rt.register_offcode(odf, || Box::new(StatefulCounter { count: 0 }))
        .expect("registers");
    let id = rt
        .create_offcode(Guid(0xC0DE), SimTime::ZERO)
        .expect("deploys");
    // The smart disk is not in the ODF's target classes.
    assert!(matches!(
        rt.migrate(id, DeviceId(2), SimTime::ZERO),
        Err(RuntimeError::Migrate(
            hydra::core::error::MigrateError::IncompatibleTarget { .. }
        ))
    ));
    // Still deployed and functional at the original site.
    assert_eq!(rt.device_of(id), Some(DeviceId(1)));
}

#[test]
fn non_migratable_offcodes_stay_put() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.register_offcode(OdfDocument::new("echo", Guid(1)), || {
        Box::new(Echo {
            guid: Guid(1),
            name: "echo".into(),
        })
    })
    .expect("registers");
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).expect("deploys");
    assert!(matches!(
        rt.migrate(id, DeviceId(1), SimTime::ZERO),
        Err(RuntimeError::Migrate(
            hydra::core::error::MigrateError::NotMigratable { .. }
        ))
    ));
    assert!(rt.device_of(id).is_some(), "untouched on refusal");
}

#[test]
fn channel_to_wrong_device_is_rejected() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.register_offcode(
        OdfDocument::new("echo", Guid(1)).with_target(hydra::odf::odf::DeviceClassSpec {
            id: hydra::odf::odf::class_ids::NETWORK,
            name: "nic".into(),
            bus: None,
            mac: None,
            vendor: None,
        }),
        || {
            Box::new(Echo {
                guid: Guid(1),
                name: "echo".into(),
            })
        },
    )
    .expect("registers");
    let id = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("deploys to nic");
    // A channel whose far endpoint is the GPU cannot connect a NIC Offcode.
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(DeviceId(3)))
        .expect("channel");
    assert!(matches!(
        rt.connect_offcode(chan, id),
        Err(RuntimeError::Rejected(_))
    ));
}

/// Figure 3's `GetOffcode(rt, "hydra.ChannelExecutive", ...)` pattern:
/// runtime services are reachable as pseudo-Offcodes by bind name.
#[test]
fn pseudo_offcodes_are_reachable_by_name() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.install_pseudo_offcodes(SimTime::ZERO).expect("installs");
    let heap_guid = rt.lookup_bind_name("hydra.Heap").expect("registered");
    let heap = rt.get_offcode(heap_guid).expect("deployed");
    // Allocate 64 bytes through the pseudo-Offcode.
    let alloc = Call::new(heap_guid, "alloc").with_arg(Value::U64(64));
    let Value::U64(addr) = rt.invoke(heap, &alloc, SimTime::ZERO).expect("allocates") else {
        panic!("alloc returns an address");
    };
    assert!(addr > 0);
    let rt_guid = rt.lookup_bind_name("hydra.Runtime").expect("registered");
    let info = rt.get_offcode(rt_guid).expect("deployed");
    let version = rt
        .invoke(info, &Call::new(rt_guid, "version"), SimTime::ZERO)
        .expect("responds");
    assert!(matches!(version, Value::Str(s) if s.contains("hydra")));
}
