//! The HYDRA runtime: depot, deployment pipeline, invocation.
//!
//! This is the paper's §3.4/§4 machinery end to end. Applications register
//! Offcode implementations (with their ODFs) in the **depot**, then call
//! [`Runtime::create_offcode`]. The runtime gathers the transitive import
//! closure, builds the offloading layout graph, resolves placement with
//! the exact ILP, links each Offcode's object file at a device-allocated
//! base address (falling back to the host CPU when a device cannot take
//! it, per §3.4), constructs OOB channels, and drives the two-phase
//! `initialize`/`start` protocol. Each instance holds what it was given
//! (its device memory reservation, its OOB channel, its receive
//! endpoints), and [`Runtime::teardown`] gives all of it back.
//!
//! Channels come from the Channel Executive
//! ([`Runtime::executive_mut`]), as in the paper's Figure 3. They are
//! one-directional sender → connected Offcode(s); return values travel
//! through the `Call`'s return descriptor (the runtime hands them back
//! from [`Runtime::invoke`] and [`Runtime::pump`]).
//!
//! The runtime is split by concern behind the one [`Runtime`] type:
//! `deploy` holds the depot, the import closure, link/load with the host
//! fallback, the lifecycle phases and teardown; `dispatch` the
//! channel-connection table, calls and the pump; `recovery` the health
//! pulse, failure recovery and migration; `certify` the verifier, the
//! certifier and the gate that lets a certification stand in for the
//! deploy-time verify.

mod certify;
mod deploy;
mod dispatch;
mod recovery;
#[cfg(test)]
mod tests;

pub use dispatch::DispatchResult;
pub use recovery::RecoveryReport;

use std::cell::OnceCell;
use std::collections::HashMap;

use hydra_hw::cpu::Cycles;
use hydra_link::loader::{DeviceMemoryAllocator, LoadPlan, LoadStrategy};
use hydra_link::object::HofObject;
use hydra_obs::{MetricsSnapshot, Recorder};
use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::fault::FaultInjector;

use crate::channel::{AdaptivePolicy, ChannelConfig, ChannelExecutive, ChannelId};
use crate::device::{DeviceId, DeviceRegistry};
use crate::error::RuntimeError;
use crate::health::HealthMonitor;
use crate::layout::Objective;
use crate::offcode::{Offcode, OffcodeId};

use certify::Gate;
use dispatch::Connections;

/// The runtime settings a caller chooses. Everything else is fixed:
/// deployment solves the §5 ILP, recovery repairs that solution, the
/// health monitor runs on the [`crate::health`] constants, and a caller
/// that wants the quantitative passes as a gate calls
/// [`Runtime::certify_deployment`], checks its report, then
/// [`Runtime::create_offcode`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Layout objective.
    pub objective: Objective,
    /// Offcode loading strategy (§4.2).
    pub load_strategy: LoadStrategy,
    /// Run the static verifier (`hydra-verify`) as a pre-flight gate in
    /// [`Runtime::create_offcode`] and reject deployments with
    /// error-severity diagnostics before anything is linked. On by
    /// default; the escape hatch exists for tests that deliberately
    /// deploy broken sets to exercise runtime fallback paths.
    pub verify_deployments: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            objective: Objective::MaximizeOffloading,
            load_strategy: LoadStrategy::HostSideLink,
            verify_deployments: true,
        }
    }
}

/// Lifecycle state of a deployed Offcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lifecycle {
    /// Linked and placed; `initialize` not yet called.
    Loaded,
    /// `initialize` succeeded.
    Initialized,
    /// `start` succeeded; fully operational.
    Started,
}

struct DepotEntry {
    odf: OdfDocument,
    factory: Box<dyn Fn() -> Box<dyn Offcode>>,
    /// Filled on first use by [`DepotEntry::object`].
    object: OnceCell<HofObject>,
}

impl DepotEntry {
    /// The Offcode's relocatable object, built once per depot entry from
    /// a factory instance on first use. Verification, certification and
    /// every link/load (deploy, migration, host fallback) read this one
    /// copy, which [`Offcode::object_file`]'s contract makes sound.
    fn object(&self) -> &HofObject {
        self.object.get_or_init(|| (self.factory)().object_file())
    }
}

impl std::fmt::Debug for DepotEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepotEntry")
            .field("odf", &self.odf.bind_name)
            .finish_non_exhaustive()
    }
}

/// A deployed instance's public record.
#[derive(Debug)]
pub struct Deployment {
    /// The instance id.
    pub id: OffcodeId,
    /// Where it landed.
    pub device: DeviceId,
    /// Its lifecycle state.
    pub state: Lifecycle,
    /// Its default out-of-band channel.
    pub oob: ChannelId,
    /// The load-cost accounting.
    pub plan: LoadPlan,
}

#[derive(Debug)]
struct Instance {
    offcode: Box<dyn Offcode>,
    guid: Guid,
    device: DeviceId,
    state: Lifecycle,
    oob: ChannelId,
    /// The load's accounting, including the device memory block it
    /// reserved, which teardown frees.
    plan: LoadPlan,
}

/// The HYDRA runtime.
///
/// # Examples
///
/// See `examples/quickstart.rs` for the full Figure-3 flow; the unit
/// tests deploy multi-Offcode applications with constraints.
#[derive(Debug)]
pub struct Runtime {
    devices: DeviceRegistry,
    config: RuntimeConfig,
    executive: ChannelExecutive,
    // The Guid-keyed maps below are the API boundary (depot, ODF,
    // verify); everything on the invoke/pump hot path uses dense
    // integer ids into the Vec tables that follow.
    depot: HashMap<Guid, DepotEntry>,
    bind_names: HashMap<String, Guid>,
    /// Instance table indexed by [`OffcodeId::idx`]. Slot 0 stays empty
    /// and teardown retires a slot without recycling it, so the next id
    /// is always the table's length.
    instances: Vec<Option<Instance>>,
    deployed_by_guid: HashMap<Guid, OffcodeId>,
    /// The last certification's verdict, keyed by root and closure.
    gate: Gate,
    allocators: Vec<DeviceMemoryAllocator>,
    connections: Connections,
    /// Cycles charged per device, indexed by [`DeviceId::idx`].
    device_work: Vec<Cycles>,
    recorder: Recorder,
    health: HealthMonitor,
    injectors: Vec<Option<FaultInjector>>,
}

impl Runtime {
    fn instance(&self, id: OffcodeId) -> Option<&Instance> {
        self.instances.get(id.idx()).and_then(Option::as_ref)
    }

    fn instance_mut(&mut self, id: OffcodeId) -> Option<&mut Instance> {
        self.instances.get_mut(id.idx()).and_then(Option::as_mut)
    }

    /// Live instances in ascending id order.
    fn iter_instances(&self) -> impl Iterator<Item = (OffcodeId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|inst| (OffcodeId(i as u32), inst)))
    }

    /// Creates a runtime over a set of installed devices.
    pub fn new(devices: DeviceRegistry, config: RuntimeConfig) -> Self {
        let allocators: Vec<DeviceMemoryAllocator> = devices
            .iter()
            .map(|(_, d)| DeviceMemoryAllocator::new(0x1_0000, d.offcode_memory))
            .collect();
        let recorder = Recorder::new();
        let mut executive = ChannelExecutive::with_default_providers();
        executive.set_recorder(recorder.clone());
        let health = HealthMonitor::new(allocators.len());
        let injectors = (0..allocators.len()).map(|_| None).collect();
        Runtime {
            devices,
            config,
            executive,
            depot: HashMap::new(),
            bind_names: HashMap::new(),
            instances: vec![None], // ids start at 1; slot 0 stays empty
            deployed_by_guid: HashMap::new(),
            gate: Gate::default(),
            device_work: vec![Cycles::ZERO; allocators.len()],
            allocators,
            connections: Connections::default(),
            recorder,
            health,
            injectors,
        }
    }

    /// The runtime's observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// An ordering-stable report of everything recorded so far: pipeline
    /// stage spans, channel counters/histograms, solver and loader
    /// statistics — plus every live channel's [`CostProfile`] and
    /// provider-selection state, so the observed channel prices and the
    /// executive's online decisions are auditable from one snapshot.
    /// Identical runs render identical snapshots (see
    /// `tests/obs_determinism.rs`).
    ///
    /// [`CostProfile`]: crate::channel::CostProfile
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.recorder.snapshot();
        snap.channels = self
            .executive
            .ids()
            .into_iter()
            .filter_map(|id| self.executive.get(id))
            .map(|ch| {
                let p = ch.cost_profile();
                hydra_obs::ChannelProfileSample {
                    label: ch.id().to_string(),
                    provider: ch.provider_name().to_owned(),
                    adaptive: ch.is_adaptive(),
                    switches: ch.provider_switches(),
                    messages: p.messages(),
                    bytes: p.bytes(),
                    doorbells: p.doorbells(),
                    launch_overhead_ns: p.launch_overhead_ns(),
                    ewma_latency_ns: p.ewma_latency_ns(),
                    throughput_bytes_per_sec: p.throughput_bytes_per_sec().unwrap_or(0),
                    buckets: p
                        .size_buckets()
                        .map(|(bucket, h)| hydra_obs::ProfileBucketSample {
                            bucket_bytes: bucket,
                            count: h.count(),
                            p50_ns: h.p50().unwrap_or(0),
                            p99_ns: h.p99().unwrap_or(0),
                        })
                        .collect(),
                }
            })
            .collect();
        snap
    }

    /// The flight recorder's causal event chains rendered as Chrome
    /// trace-event JSON — load the output in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev). Sim-time microseconds on the
    /// timeline, one "process" track per device, flow arrows stitching
    /// each message's send → hop → recv chain across devices. Identical
    /// runs export byte-identical JSON.
    pub fn trace_export(&self) -> String {
        hydra_obs::chrome_trace(&self.recorder.snapshot())
    }

    /// The device registry.
    pub fn devices(&self) -> &DeviceRegistry {
        &self.devices
    }

    /// The channel executive (e.g. to read per-channel cost profiles).
    pub fn executive(&self) -> &ChannelExecutive {
        &self.executive
    }

    /// The channel executive: the application's `CreateChannel` (Figure
    /// 3), and where device-specific providers are registered.
    pub fn executive_mut(&mut self) -> &mut ChannelExecutive {
        &mut self.executive
    }

    /// `self.executive_mut().create_channel(config)`, which every caller
    /// but the repository benchmark (`perfbench/`) uses instead.
    ///
    /// # Errors
    ///
    /// Fails if no provider supports the configuration.
    pub fn create_channel(&mut self, config: ChannelConfig) -> Result<ChannelId, RuntimeError> {
        Ok(self.executive.create_channel(config)?)
    }

    /// `self.executive_mut().create_channel_adaptive(config, policy)`,
    /// which every caller but the repository benchmark (`perfbench/`)
    /// uses instead.
    ///
    /// # Errors
    ///
    /// Fails if no provider supports the configuration.
    pub fn create_channel_adaptive(
        &mut self,
        config: ChannelConfig,
        policy: AdaptivePolicy,
    ) -> Result<ChannelId, RuntimeError> {
        Ok(self.executive.create_channel_adaptive(config, policy)?)
    }

    /// Bytes of `device`'s Offcode memory not reserved by a live
    /// instance (0 for an unknown device).
    pub fn free_memory(&self, device: DeviceId) -> u64 {
        self.allocators
            .get(device.idx())
            .map_or(0, DeviceMemoryAllocator::available)
    }

    /// Resolves a bind name to a depot GUID (`hydra.Runtime`'s
    /// `GetOffcode` by name).
    pub fn lookup_bind_name(&self, bind_name: &str) -> Option<Guid> {
        self.bind_names.get(bind_name).copied()
    }

    /// The deployed instance implementing `guid`, if any.
    pub fn get_offcode(&self, guid: Guid) -> Option<OffcodeId> {
        self.deployed_by_guid.get(&guid).copied()
    }

    /// The device hosting a deployed instance.
    pub fn device_of(&self, id: OffcodeId) -> Option<DeviceId> {
        self.instance(id).map(|i| i.device)
    }

    /// Public deployment records, ordered by instance id (the table's
    /// natural order).
    pub fn deployments(&self) -> Vec<Deployment> {
        self.iter_instances()
            .map(|(id, inst)| Deployment {
                id,
                device: inst.device,
                state: inst.state,
                oob: inst.oob,
                plan: inst.plan,
            })
            .collect()
    }

    /// Cycles charged per device so far.
    pub fn device_work(&self, device: DeviceId) -> Cycles {
        self.device_work
            .get(device.idx())
            .copied()
            .unwrap_or(Cycles::ZERO)
    }
}
