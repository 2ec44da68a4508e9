//! The HYDRA runtime: depot, deployment pipeline, invocation.
//!
//! This is the paper's §3.4/§4 machinery end to end. Applications register
//! Offcode implementations (with their ODFs) in the **depot**, then call
//! [`Runtime::create_offcode`]. The runtime gathers the transitive import
//! closure, builds the offloading layout graph, resolves placement with
//! the exact ILP, links each Offcode's object file at a device-allocated
//! base address (falling back to the host CPU when a device cannot take
//! it, per §3.4), constructs OOB channels, registers everything in the
//! hierarchical resource tree, and drives the two-phase
//! `initialize`/`start` protocol.
//!
//! Channels created here are one-directional sender → connected
//! Offcode(s); return values travel through the `Call`'s return
//! descriptor (the runtime hands them back from [`Runtime::invoke`] and
//! [`Runtime::pump`]).

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;

use bytes::Bytes;
use hydra_hw::cpu::Cycles;
use hydra_link::loader::{
    load_device_side, load_host_side, DeviceMemoryAllocator, LoadError, LoadPlan, LoadStrategy,
};
use hydra_link::object::HofObject;
use hydra_obs::{MetricsSnapshot, Recorder, SpanId};
use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::fault::{FaultInjector, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};

use crate::call::{Call, Value};
use crate::channel::{BatchSendOutcome, ChannelConfig, ChannelError, ChannelExecutive, ChannelId};
use crate::device::{DeviceId, DeviceRegistry};
use crate::error::{MigrateError, MigrateLeg, RuntimeError};
use crate::health::{DeviceHealth, HealthMonitor};
use crate::layout::{GraphDelta, LayoutGraph, NodeIdx, Objective, Placement};
use crate::offcode::{Offcode, OffcodeCtx, OffcodeId};
use crate::resource::{ResourceId, ResourceKind, ResourceManager};

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
    /// a factory instance on first use. Verification, certification,
    /// link/load and the migration precheck all read this one copy,
    /// which [`Offcode::object_file`]'s contract makes sound.
    fn object(&self) -> &HofObject {
        self.object.get_or_init(|| (self.factory)().object_file())
    }
}

/// The structural verdict of the last [`Runtime::certify_deployment`],
/// which [`Runtime::create_offcode`]'s gate reuses for the same root and
/// closure while nothing its passes read has changed.
///
/// The four structural passes read the closure's ODFs and depot objects
/// and the device table. The devices are fixed at [`Runtime::new`], and
/// every depot insert and deployed-set change bumps
/// [`Runtime::generation`]. The provider table is not an input: only the
/// quantitative passes, which the gate does not run, read it.
#[derive(Debug)]
struct GateVerdict {
    root: Guid,
    order: Vec<Guid>,
    generation: u64,
    /// The four structural passes' report.
    report: hydra_verify::Report,
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
    resource: ResourceId,
    plan: LoadPlan,
}

/// A value returned through a channel dispatch (see [`Runtime::pump`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchResult {
    /// The Offcode that handled the call.
    pub handler: OffcodeId,
    /// The call's return descriptor id.
    pub return_id: u64,
    /// The returned value (or the error, stringified).
    pub result: Result<Value, String>,
}

/// The HYDRA runtime.
///
/// # Examples
///
/// See `examples/quickstart.rs` for the full Figure-3 flow; the unit
/// tests below deploy multi-Offcode applications with constraints.
#[derive(Debug)]
pub struct Runtime {
    devices: DeviceRegistry,
    config: RuntimeConfig,
    executive: ChannelExecutive,
    resources: ResourceManager,
    app_root: ResourceId,
    // The Guid-keyed maps below are the API boundary (depot, ODF,
    // verify); everything on the invoke/pump hot path uses dense
    // integer ids into the Vec tables that follow.
    depot: HashMap<Guid, DepotEntry>,
    bind_names: HashMap<String, Guid>,
    /// Instance table indexed by [`OffcodeId::idx`]. Ids are handed out
    /// monotonically from 1 (slot 0 is permanently empty); teardown
    /// retires a slot without recycling it.
    instances: Vec<Option<Instance>>,
    deployed_by_guid: HashMap<Guid, OffcodeId>,
    /// Bumped by every change to `depot` or `deployed_by_guid`, the
    /// mutable inputs of a deployment closure's verification.
    generation: u64,
    /// The last certification's verdicts (see [`GateVerdict`]).
    gate: RefCell<Option<GateVerdict>>,
    allocators: Vec<DeviceMemoryAllocator>,
    /// Receiver bindings per channel, indexed by [`ChannelId::idx`].
    connections: Vec<Option<Vec<(usize, OffcodeId)>>>,
    /// Cycles charged per device, indexed by [`DeviceId::idx`].
    device_work: Vec<Cycles>,
    next_offcode: u32,
    recorder: Recorder,
    health: HealthMonitor,
    injectors: Vec<Option<FaultInjector>>,
}

/// What failure recovery did for one fail-stopped device (see
/// [`Runtime::on_device_failure`]). All vectors are sorted so identical
/// runs produce identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The device that failed.
    pub device: DeviceId,
    /// Bind names of every Offcode the recovery had to move (those on the
    /// failed device plus constraint-dragged peers), sorted.
    pub displaced: Vec<String>,
    /// Snapshot migrations performed: (guid, where it landed), in the
    /// order they ran.
    pub migrated: Vec<(Guid, DeviceId)>,
    /// How many displaced Offcodes ended up on the host.
    pub host_fallbacks: usize,
    /// Offcodes without snapshot support that were redeployed fresh.
    pub redeployed: Vec<Guid>,
    /// Whether the achieved placement satisfies the recovery layout graph
    /// (false only if a cascade of load failures bent the constraints).
    pub constraints_ok: bool,
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

    /// The (possibly fresh) binding list of a channel.
    fn connections_entry(&mut self, chan: ChannelId) -> &mut Vec<(usize, OffcodeId)> {
        let i = chan.idx();
        if self.connections.len() <= i {
            self.connections.resize_with(i + 1, || None);
        }
        self.connections[i].get_or_insert_with(Vec::new)
    }

    /// Creates a runtime over a set of installed devices.
    pub fn new(devices: DeviceRegistry, config: RuntimeConfig) -> Self {
        let mut resources = ResourceManager::new();
        let app_root = resources.register_root(ResourceKind::Other, "oa-application");
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
            resources,
            app_root,
            depot: HashMap::new(),
            bind_names: HashMap::new(),
            instances: vec![None], // ids start at 1; slot 0 stays empty
            deployed_by_guid: HashMap::new(),
            generation: 0,
            gate: RefCell::new(None),
            device_work: vec![Cycles::ZERO; allocators.len()],
            allocators,
            connections: Vec::new(),
            next_offcode: 1,
            recorder,
            health,
            injectors,
        }
    }

    /// Installs a deterministic fault schedule: one injector per device,
    /// split from the plan's seed. Scenario code that also drives device
    /// *models* derives its own injectors from the same plan, so the
    /// runtime's health view and the models' behavior agree tick for tick.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for (k, slot) in self.injectors.iter_mut().enumerate() {
            let injector = plan.injector(k);
            *slot = if injector.is_inert() {
                None
            } else {
                Some(injector)
            };
        }
    }

    /// The health monitor's current verdict for a device.
    pub fn device_health(&self, device: DeviceId) -> DeviceHealth {
        self.health.state(device)
    }

    /// One health tick. Collects heartbeats from every device that has
    /// not fail-stopped (a crashed device goes silent and earns a
    /// `fault.heartbeat_missed` count), propagates ring-exhaustion faults
    /// into channel capacity, escalates missed deadlines through the
    /// Healthy → Suspect → Failed state machine, and runs
    /// [`Runtime::on_device_failure`] for every device that crosses into
    /// Failed. Call it on a cadence of [`crate::health::HEARTBEAT_EVERY`].
    ///
    /// # Errors
    ///
    /// Propagates recovery failures; see [`Runtime::on_device_failure`].
    pub fn pulse(&mut self, now: SimTime) -> Result<Vec<RecoveryReport>, RuntimeError> {
        for k in 1..self.injectors.len() {
            let silent = self.injectors[k]
                .as_ref()
                .is_some_and(|f| f.crashed(now) || f.stall_penalty(now) > SimDuration::ZERO);
            let device = DeviceId(k as u32);
            if silent {
                // Crashed devices go dark; a stalled device is alive but
                // too wedged to service its heartbeat deadline, so both
                // miss the beat and let the Suspect escalation run.
                self.recorder
                    .counter_incr("fault.heartbeat_missed", &device.to_string());
            } else {
                self.health.beat(device, now);
            }
        }
        for chan in self.executive.ids() {
            let Some((target, live_ring)) = self
                .executive
                .get(chan)
                .map(|c| (c.config().target, c.open_endpoints() > 0))
            else {
                continue;
            };
            // Wedged slots belong to the live descriptor ring: a channel
            // whose endpoints all closed (teardown, Offcode migration)
            // rebuilds its ring and must not inherit the wedge, and an
            // injector whose fault window produced zero wedged slots
            // sweeps any count a previous pulse propagated.
            let wedged = if live_ring {
                self.injectors
                    .get(target.idx())
                    .and_then(Option::as_ref)
                    .map_or(0, |f| f.wedged_slots(now))
            } else {
                0
            };
            if let Some(ch) = self.executive.get_mut(chan) {
                ch.set_wedged_slots(wedged);
                if wedged > 0 {
                    self.recorder
                        .counter_incr("fault.ring_wedged", &target.to_string());
                }
            }
        }
        let transitions = self.health.poll(now);
        let mut reports = Vec::new();
        for t in transitions {
            match t.to {
                DeviceHealth::Suspect => self
                    .recorder
                    .counter_incr("fault.device_suspect", &t.device.to_string()),
                DeviceHealth::Failed => reports.push(self.on_device_failure(t.device, now)?),
                DeviceHealth::Healthy => self
                    .recorder
                    .counter_incr("fault.device_recovered", &t.device.to_string()),
            }
        }
        Ok(reports)
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

    /// The channel executive (e.g. to register device-specific providers).
    pub fn executive_mut(&mut self) -> &mut ChannelExecutive {
        &mut self.executive
    }

    /// The resource tree.
    pub fn resources(&self) -> &ResourceManager {
        &self.resources
    }

    /// Registers and deploys the standard pseudo-Offcodes (`hydra.Heap`,
    /// `hydra.Runtime` — paper §4) so applications can `GetOffcode` them
    /// by bind name, exactly like the paper's Figure 3 obtains
    /// `hydra.ChannelExecutive`.
    ///
    /// # Errors
    ///
    /// Fails if the pseudo GUIDs are already taken or deployment fails.
    pub fn install_pseudo_offcodes(&mut self, now: SimTime) -> Result<(), RuntimeError> {
        self.register_offcode(crate::pseudo::HeapOffcode::odf(), || {
            Box::new(crate::pseudo::HeapOffcode::new(1 << 20))
        })?;
        self.register_offcode(crate::pseudo::RuntimeInfoOffcode::odf(), || {
            Box::new(crate::pseudo::RuntimeInfoOffcode::new())
        })?;
        self.create_offcode(crate::pseudo::HEAP_GUID, now)?;
        self.create_offcode(crate::pseudo::RUNTIME_GUID, now)?;
        Ok(())
    }

    /// Registers an Offcode implementation with its ODF in the depot.
    ///
    /// # Errors
    ///
    /// Rejects duplicate GUIDs.
    pub fn register_offcode(
        &mut self,
        odf: OdfDocument,
        factory: impl Fn() -> Box<dyn Offcode> + 'static,
    ) -> Result<(), RuntimeError> {
        if self.depot.contains_key(&odf.guid) {
            return Err(RuntimeError::Rejected(format!(
                "guid {} already in depot",
                odf.guid
            )));
        }
        self.bind_names.insert(odf.bind_name.clone(), odf.guid);
        self.depot.insert(
            odf.guid,
            DepotEntry {
                odf,
                factory: Box::new(factory),
                object: OnceCell::new(),
            },
        );
        self.generation += 1;
        Ok(())
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

    /// The `CreateOffcode` API: deploys the Offcode identified by `guid`
    /// together with the transitive closure of its imports, returning the
    /// root instance id.
    ///
    /// Already-deployed Offcodes in the closure are reused (the paper's
    /// component-reuse motivation); their placement is left untouched.
    ///
    /// # Errors
    ///
    /// Fails if any Offcode in the closure is missing from the depot, the
    /// layout is unsatisfiable, loading fails even after the host
    /// fallback, or an `initialize`/`start` hook rejects. On failure all
    /// partially deployed instances are rolled back.
    pub fn create_offcode(&mut self, guid: Guid, now: SimTime) -> Result<OffcodeId, RuntimeError> {
        if let Some(existing) = self.deployed_by_guid.get(&guid) {
            return Ok(*existing);
        }
        // 1. Transitive closure, root first (DFS, de-duplicated).
        let (order, odfs) = self.deployment_closure(guid)?;
        let root_label = self.depot[&guid].odf.bind_name.clone();
        self.recorder
            .span("deploy.closure", &root_label, now, order.len() as u64);

        // 2. Static pre-flight verification (on by default): reject
        // provably broken deployments before anything is linked. A
        // certification of this very closure ran the same structural
        // passes over the same inputs, so its verdict stands in for
        // running them again.
        if self.config.verify_deployments {
            let report = match self.cached_gate(guid, &order) {
                Some(report) => {
                    self.record_verify_report(guid, now, &report);
                    report
                }
                None => self.run_verifier(guid, &order, &odfs, now),
            };
            if report.has_errors() {
                let rendered: Vec<String> = report.errors().map(ToString::to_string).collect();
                return Err(RuntimeError::Verification(rendered.join("; ")));
            }
        }

        // 3. Layout graph over the not-yet-deployed closure. Imports that
        // point outside the set (already deployed) are dropped from the
        // graph: their constraints were satisfied at their own deployment.
        let graph = LayoutGraph::from_odfs(&odfs, &self.devices)?;
        self.recorder.span(
            "deploy.layout",
            &root_label,
            now,
            (graph.nodes().len() + graph.edges().len()) as u64,
        );

        // 4. Resolve placement with the exact ILP. Also run the greedy
        // heuristic on the same graph so the snapshot can compare
        // solution quality and modeled solve effort (the deterministic
        // stand-in for "solve time").
        let (placement, stats) = graph.resolve_ilp_with_stats(&self.config.objective)?;
        if stats.presolved {
            self.recorder.counter_incr("solver.presolved", "ilp");
        }
        self.recorder
            .counter_add("solver.nodes_explored", "ilp", stats.nodes);
        self.recorder
            .counter_add("solver.bounds_pruned", "ilp", stats.pruned);
        self.recorder.counter_add(
            "solver.offloaded",
            "ilp",
            placement.offloaded_count() as u64,
        );
        let greedy = graph.resolve_greedy(&self.config.objective);
        self.recorder.counter_add(
            "solver.offloaded",
            "greedy",
            greedy.offloaded_count() as u64,
        );
        self.recorder.span("deploy.solve", "ilp", now, stats.nodes);
        graph.check(&placement)?;

        // 5. Load + instantiate each, with host fallback on device OOM.
        let mut created: Vec<OffcodeId> = Vec::new();
        let result = self.deploy_all(&order, &placement, now, &mut created);
        match result {
            Ok(()) => Ok(*created.first().expect("closure is non-empty")),
            Err(e) => {
                // Roll back everything created in this call.
                for id in created {
                    self.teardown(id);
                }
                Err(e)
            }
        }
    }

    /// The not-yet-deployed transitive import closure of `guid`, root
    /// first, plus the closure's ODFs with imports narrowed to the set
    /// (imports of already-deployed Offcodes were satisfied at their own
    /// deployment).
    fn deployment_closure(
        &self,
        guid: Guid,
    ) -> Result<(Vec<Guid>, Vec<OdfDocument>), RuntimeError> {
        let mut order: Vec<Guid> = Vec::new();
        let mut stack = vec![guid];
        while let Some(g) = stack.pop() {
            if order.contains(&g) || self.deployed_by_guid.contains_key(&g) {
                continue;
            }
            let entry = self.depot.get(&g).ok_or(RuntimeError::NotInDepot(g))?;
            order.push(g);
            for imp in &entry.odf.imports {
                stack.push(imp.guid);
            }
        }
        let odfs = self.narrowed_odfs(&order);
        Ok((order, odfs))
    }

    /// The depot ODFs of `set`, in its order, each with its imports
    /// narrowed to `set`: imports that point outside it were satisfied
    /// elsewhere (at their own deployment, or are not being re-laid out).
    fn narrowed_odfs(&self, set: &[Guid]) -> Vec<OdfDocument> {
        set.iter()
            .map(|g| {
                let mut odf = self.depot[g].odf.clone();
                odf.imports.retain(|imp| set.contains(&imp.guid));
                odf
            })
            .collect()
    }

    /// Runs the static verifier over a closure, feeding pass statistics
    /// into the observability recorder. Demands are the real load sizes
    /// of the depot's objects, not the ODF estimates.
    fn run_verifier(
        &self,
        root: Guid,
        order: &[Guid],
        odfs: &[OdfDocument],
        now: SimTime,
    ) -> hydra_verify::Report {
        let demands: Vec<u64> = order
            .iter()
            .map(|g| u64::from(self.depot[g].object().load_size()))
            .collect();
        let roots = [root];
        let report = hydra_verify::verify(&hydra_verify::VerifyInput {
            odfs,
            devices: self.devices.table(),
            demands: Some(&demands),
            roots: Some(&roots),
        });
        self.record_verify_report(root, now, &report);
        report
    }

    /// Runs the full certification (structural passes plus flow bounds
    /// and ring-race analysis) over a closure, with the service table
    /// exported straight from the live channel executive, and keeps the
    /// structural report for the gate. Demands are the depot objects'
    /// load sizes, as in `run_verifier`.
    fn run_certifier(
        &self,
        root: Guid,
        order: &[Guid],
        odfs: &[OdfDocument],
        now: SimTime,
    ) -> hydra_verify::Certification {
        let services = self.executive.service_table();
        let demands: Vec<u64> = order
            .iter()
            .map(|g| u64::from(self.depot[g].object().load_size()))
            .collect();
        let roots = [root];
        let input = hydra_verify::CertifyInput {
            verify: hydra_verify::VerifyInput {
                odfs,
                devices: self.devices.table(),
                demands: Some(&demands),
                roots: Some(&roots),
            },
            services: &services,
            overlay: None,
        };
        let structural = hydra_verify::structural(&input.verify);
        let report = structural.report.clone();
        let cert = hydra_verify::certify_structural(structural, &input);
        self.record_verify_report(root, now, &cert.report);
        *self.gate.borrow_mut() = Some(GateVerdict {
            root,
            order: order.to_vec(),
            generation: self.generation,
            report,
        });
        cert
    }

    /// The gate's verdict on `root`'s closure `order` from the last
    /// certification, if it certified this closure and none of the
    /// passes' inputs has changed since (see [`GateVerdict`]).
    fn cached_gate(&self, root: Guid, order: &[Guid]) -> Option<hydra_verify::Report> {
        let gate = self.gate.borrow();
        let verdict = gate.as_ref()?;
        let current =
            verdict.root == root && verdict.generation == self.generation && verdict.order == order;
        current.then(|| verdict.report.clone())
    }

    /// Feeds a verification/certification report's pass statistics into
    /// the observability recorder.
    fn record_verify_report(&self, root: Guid, now: SimTime, report: &hydra_verify::Report) {
        let root_label = self
            .depot
            .get(&root)
            .map_or_else(String::new, |e| e.odf.bind_name.clone());
        let total_work: u64 = report.passes.iter().map(|p| p.work_units).sum();
        self.recorder
            .span("deploy.verify", &root_label, now, total_work);
        for pass in &report.passes {
            self.recorder
                .counter_add("verify.pass_work", pass.name, pass.work_units);
            self.recorder
                .counter_add("verify.diagnostics", pass.name, pass.diagnostics as u64);
        }
        self.recorder.counter_add(
            "verify.errors",
            "",
            report.count(hydra_verify::Severity::Error) as u64,
        );
        self.recorder.counter_add(
            "verify.warnings",
            "",
            report.count(hydra_verify::Severity::Warning) as u64,
        );
    }

    /// Certifies the deployment closure of `guid` without deploying
    /// anything: the combined six-pass report plus the quantitative
    /// certificate (per-ring queue/latency bounds, per-chain latency,
    /// per-device utilization), costed from the live executive's
    /// provider table.
    ///
    /// # Errors
    ///
    /// Fails only if an Offcode in the closure is missing from the
    /// depot.
    pub fn certify_deployment(
        &self,
        guid: Guid,
        now: SimTime,
    ) -> Result<hydra_verify::Certification, RuntimeError> {
        let (order, odfs) = self.deployment_closure(guid)?;
        Ok(self.run_certifier(guid, &order, &odfs, now))
    }

    fn deploy_all(
        &mut self,
        order: &[Guid],
        placement: &Placement,
        now: SimTime,
        created: &mut Vec<OffcodeId>,
    ) -> Result<(), RuntimeError> {
        let link_span = self.recorder.span("deploy.link_load", "", now, 0);
        for (n, &g) in order.iter().enumerate() {
            let device = placement.0[n];
            let id = self.deploy_one(g, device, Some((link_span, now)))?;
            created.push(id);
            let plan = self.instance(id).expect("just deployed").plan;
            self.recorder
                .add_span_work(link_span, plan.host_work_units + plan.device_work_units);
        }
        self.recorder
            .span("deploy.channels", "", now, created.len() as u64);
        // Phase 1: initialize leaves first (imports precede importers in
        // reverse order).
        self.recorder
            .span("deploy.initialize", "", now, created.len() as u64);
        for &id in created.iter().rev() {
            self.run_phase(id, now, Phase::Initialize)?;
        }
        // Phase 2: start, same order.
        self.recorder
            .span("deploy.start", "", now, created.len() as u64);
        for &id in created.iter().rev() {
            self.run_phase(id, now, Phase::Start)?;
        }
        Ok(())
    }

    /// Links and loads `guid`'s depot object at exactly `device` and
    /// instantiates the Offcode — no host fallback, nothing registered.
    /// The migration path uses this to validate the target *before*
    /// destroying the source instance.
    fn load_at(
        &mut self,
        guid: Guid,
        device: DeviceId,
    ) -> Result<(Box<dyn Offcode>, LoadPlan), LoadError> {
        let entry = &self.depot[&guid];
        let objects = std::slice::from_ref(entry.object());
        let allocator = &mut self.allocators[device.idx()];
        let exports = &self.devices.get(device).exports;
        let (_, plan) = match self.config.load_strategy {
            LoadStrategy::HostSideLink => load_host_side(objects, allocator, exports),
            LoadStrategy::DeviceSideLink => load_device_side(objects, allocator, exports),
        }?;
        Ok(((entry.factory)(), plan))
    }

    fn deploy_one(
        &mut self,
        guid: Guid,
        device: DeviceId,
        span_parent: Option<(SpanId, SimTime)>,
    ) -> Result<OffcodeId, RuntimeError> {
        // Try the chosen device; fall back to the host on OOM (§3.4).
        let (device, offcode, plan) = match self.load_at(guid, device) {
            Ok((offcode, plan)) => (device, offcode, plan),
            Err(LoadError::Memory(_)) if !device.is_host() => {
                self.recorder.counter_incr("deploy.host_fallback", "");
                let entry = &self.depot[&guid];
                let (_, plan) = load_host_side(
                    std::slice::from_ref(entry.object()),
                    &mut self.allocators[DeviceId::HOST.idx()],
                    &self.devices.get(DeviceId::HOST).exports,
                )?;
                (DeviceId::HOST, (entry.factory)(), plan)
            }
            Err(e) => return Err(e.into()),
        };
        self.register_loaded(guid, device, offcode, plan, span_parent)
    }

    /// Registers an already-loaded Offcode as a live instance: accounting
    /// counters, resource subtree, OOB channel, instance table entry.
    fn register_loaded(
        &mut self,
        guid: Guid,
        device: DeviceId,
        offcode: Box<dyn Offcode>,
        plan: LoadPlan,
        span_parent: Option<(SpanId, SimTime)>,
    ) -> Result<OffcodeId, RuntimeError> {
        let bind_name = self.depot[&guid].odf.bind_name.clone();
        let strategy_label = match plan.strategy {
            LoadStrategy::HostSideLink => "host-side",
            LoadStrategy::DeviceSideLink => "device-side",
        };
        self.recorder.counter_incr("load.strategy", strategy_label);
        self.recorder
            .counter_add("link.relocations_applied", "", plan.relocations_applied);
        self.recorder
            .counter_add("link.transfer_bytes", "", plan.transfer_bytes);
        if let Some((parent, at)) = span_parent {
            self.recorder.child_span(
                parent,
                "deploy.offcode",
                &bind_name,
                at,
                plan.host_work_units + plan.device_work_units,
            );
        }

        let id = OffcodeId(self.next_offcode);
        self.next_offcode += 1;
        let resource = self
            .resources
            .register(ResourceKind::Offcode, &bind_name, self.app_root)
            .expect("app root is live");
        self.resources
            .register(
                ResourceKind::Memory,
                &format!("{bind_name}.image"),
                resource,
            )
            .expect("offcode resource is live");
        let oob = self.executive.create_channel(ChannelConfig::oob(device))?;
        let ep = self
            .executive
            .get_mut(oob)
            .expect("channel just created")
            .connect_endpoint()
            .expect("first endpoint");
        self.connections_entry(oob).push((ep, id));
        self.resources
            .register(ResourceKind::Channel, &format!("{bind_name}.oob"), resource)
            .expect("offcode resource is live");

        debug_assert_eq!(self.instances.len(), id.idx(), "ids are monotonic");
        self.instances.push(Some(Instance {
            offcode,
            guid,
            device,
            state: Lifecycle::Loaded,
            oob,
            resource,
            plan,
        }));
        self.deployed_by_guid.insert(guid, id);
        self.generation += 1;
        Ok(id)
    }

    fn run_phase(&mut self, id: OffcodeId, now: SimTime, phase: Phase) -> Result<(), RuntimeError> {
        let inst = self
            .instance_mut(id)
            .ok_or(RuntimeError::NoSuchInstance(id.0))?;
        let expected = match phase {
            Phase::Initialize => Lifecycle::Loaded,
            Phase::Start => Lifecycle::Initialized,
        };
        if inst.state != expected {
            return Err(RuntimeError::BadState("phase out of order"));
        }
        let mut ctx = OffcodeCtx::new(now, inst.device);
        let r = match phase {
            Phase::Initialize => inst.offcode.initialize(&mut ctx),
            Phase::Start => inst.offcode.start(&mut ctx),
        };
        let device = inst.device;
        let charged = ctx.charged();
        let outbox = ctx.take_outbox();
        match r {
            Ok(()) => {
                inst.state = match phase {
                    Phase::Initialize => Lifecycle::Initialized,
                    Phase::Start => Lifecycle::Started,
                };
                self.book_work(device, charged);
                self.deliver_outbox(outbox, now);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn book_work(&mut self, device: DeviceId, work: Cycles) {
        self.device_work[device.idx()] += work;
    }

    fn deliver_outbox(&mut self, outbox: Vec<(ChannelId, Bytes)>, now: SimTime) {
        for (chan, data) in outbox {
            if let Some(ch) = self.executive.get_mut(chan) {
                // Errors (ring full on a reliable channel) are surfaced as
                // drop statistics; a production system would back-pressure.
                let _ = ch.send(now, data);
            }
        }
    }

    /// Creates a channel (the application-side `CreateChannel`).
    ///
    /// # Errors
    ///
    /// Fails if no provider supports the configuration.
    pub fn create_channel(&mut self, config: ChannelConfig) -> Result<ChannelId, RuntimeError> {
        Ok(self.executive.create_channel(config)?)
    }

    /// Creates a channel pinned to a named provider (benchmarking /
    /// explicit placement; see
    /// [`ChannelExecutive::create_channel_forced`]).
    ///
    /// # Errors
    ///
    /// Fails if no provider of that name supports the configuration.
    pub fn create_channel_forced(
        &mut self,
        config: ChannelConfig,
        provider: &str,
    ) -> Result<ChannelId, RuntimeError> {
        Ok(self.executive.create_channel_forced(config, provider)?)
    }

    /// Creates a cost-adaptive channel whose provider is re-selected
    /// online per message-size bucket from its live cost profile (see
    /// [`ChannelExecutive::create_channel_adaptive`]).
    ///
    /// # Errors
    ///
    /// Fails if no provider supports the configuration.
    pub fn create_channel_adaptive(
        &mut self,
        config: ChannelConfig,
        policy: crate::channel::AdaptivePolicy,
    ) -> Result<ChannelId, RuntimeError> {
        Ok(self.executive.create_channel_adaptive(config, policy)?)
    }

    /// Connects a deployed Offcode as a receiver on a channel (the
    /// channel's `ConnectOffcode`).
    ///
    /// # Errors
    ///
    /// Fails for unknown channels/instances or over-connected unicast
    /// channels.
    pub fn connect_offcode(
        &mut self,
        channel: ChannelId,
        id: OffcodeId,
    ) -> Result<(), RuntimeError> {
        let Some(inst) = self.instance(id) else {
            return Err(RuntimeError::NoSuchInstance(id.0));
        };
        let device = inst.device;
        let resource = inst.resource;
        let ch = self
            .executive
            .get_mut(channel)
            .ok_or(RuntimeError::Channel(ChannelError::NoSuchChannel(channel)))?;
        if ch.config().target != device {
            return Err(RuntimeError::Rejected(format!(
                "channel targets {} but {id} runs on {device}",
                ch.config().target
            )));
        }
        let ep = ch.connect_endpoint()?;
        self.connections_entry(channel).push((ep, id));
        self.resources
            .register(ResourceKind::Channel, &format!("{channel}"), resource)
            .expect("instance resource is live");
        Ok(())
    }

    /// Sends an encoded call from the application side of a channel.
    ///
    /// # Errors
    ///
    /// Propagates channel errors (unknown channel, ring full).
    pub fn send_call(
        &mut self,
        channel: ChannelId,
        call: &Call,
        now: SimTime,
    ) -> Result<SimTime, RuntimeError> {
        let ch = self
            .executive
            .get_mut(channel)
            .ok_or(RuntimeError::Channel(ChannelError::NoSuchChannel(channel)))?;
        Ok(ch.send(now, call.encode())?)
    }

    /// Sends a batch of encoded calls from the application side of a
    /// channel in one provider operation (single doorbell), returning
    /// the per-message delivery schedule and fault counts.
    ///
    /// # Errors
    ///
    /// Fails only when the channel does not exist; per-message capacity
    /// faults are reported in the returned [`BatchSendOutcome`].
    pub fn send_call_batch(
        &mut self,
        channel: ChannelId,
        calls: &[Call],
        now: SimTime,
    ) -> Result<BatchSendOutcome, RuntimeError> {
        let ch = self
            .executive
            .get_mut(channel)
            .ok_or(RuntimeError::Channel(ChannelError::NoSuchChannel(channel)))?;
        let encoded: Vec<_> = calls.iter().map(Call::encode).collect();
        Ok(ch.send_batch(now, &encoded))
    }

    /// Synchronously invokes a deployed Offcode (the proxy's transparent
    /// invocation path collapses to this once the Call reaches the
    /// target device).
    ///
    /// # Errors
    ///
    /// Propagates the Offcode's own error.
    pub fn invoke(
        &mut self,
        id: OffcodeId,
        call: &Call,
        now: SimTime,
    ) -> Result<Value, RuntimeError> {
        let inst = self
            .instance_mut(id)
            .ok_or(RuntimeError::NoSuchInstance(id.0))?;
        if inst.state != Lifecycle::Started {
            return Err(RuntimeError::BadState("offcode not started"));
        }
        let device = inst.device;
        let mut ctx = OffcodeCtx::new(now, device);
        let result = inst.offcode.handle_call(&mut ctx, call);
        let charged = ctx.charged();
        let outbox = ctx.take_outbox();
        self.book_work(device, charged);
        self.deliver_outbox(outbox, now);
        result
    }

    /// Delivers every visible channel message to its connected Offcodes,
    /// cascading until quiescent (bounded). Returns the dispatch results
    /// in delivery order.
    pub fn pump(&mut self, now: SimTime) -> Vec<DispatchResult> {
        let mut results = Vec::new();
        for _round in 0..64 {
            let mut progressed = false;
            // Sweep the dense connection table in ascending channel-id
            // order (invokes cannot add channels mid-round).
            for ci in 0..self.connections.len() {
                let Some(bindings) = self.connections[ci].clone() else {
                    continue;
                };
                let chan = ChannelId(ci as u32);
                for (ep, id) in bindings {
                    while let Some(msg) =
                        self.executive.get_mut(chan).and_then(|ch| ch.recv(now, ep))
                    {
                        progressed = true;
                        let result = match Call::decode(msg.data) {
                            Err(e) => Err(RuntimeError::from(e).to_string()),
                            Ok(call) => {
                                let return_id = call.return_id;
                                let r = self.invoke(id, &call, now).map_err(|e| e.to_string());
                                results.push(DispatchResult {
                                    handler: id,
                                    return_id,
                                    result: r,
                                });
                                continue;
                            }
                        };
                        results.push(DispatchResult {
                            handler: id,
                            return_id: 0,
                            result,
                        });
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        results
    }

    /// Migrates a deployed Offcode to another device, carrying its state
    /// through [`Offcode::snapshot`]/[`Offcode::restore`].
    ///
    /// The move is transactional. Everything that can be checked without
    /// destroying the source — snapshot support, ODF compatibility, the
    /// hydra-verify capacity precheck against the target's *live* free
    /// memory, and the actual link/load at the target — happens first;
    /// any failure there returns a [`MigrateError`] with the original
    /// instance untouched. Only then is the source torn down. If a
    /// post-teardown leg (restore or a phase hook) fails, the Offcode is
    /// redeployed on the host with its snapshot restored
    /// ([`MigrateError::FellBack`]); the instance is lost only if that
    /// host fallback fails too ([`MigrateError::Unrecoverable`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchInstance`] for unknown ids; otherwise
    /// [`RuntimeError::Migrate`] as above.
    pub fn migrate(
        &mut self,
        id: OffcodeId,
        target: DeviceId,
        now: SimTime,
    ) -> Result<OffcodeId, RuntimeError> {
        let inst = self
            .instance(id)
            .ok_or(RuntimeError::NoSuchInstance(id.0))?;
        let guid = inst.guid;
        let bind_name = self.depot[&guid].odf.bind_name.clone();
        let Some(state) = inst.offcode.snapshot() else {
            return Err(MigrateError::NotMigratable { bind_name }.into());
        };
        // Validate the target against the ODF's device classes.
        let odf = &self.depot[&guid].odf;
        let compat = self.devices.table().compatibility(&odf.targets);
        if target.idx() >= compat.len() || !compat[target.idx()] {
            return Err(MigrateError::IncompatibleTarget { bind_name, target }.into());
        }
        if let Err(detail) = self.precheck_migration_capacity(guid, target) {
            return Err(MigrateError::InsufficientCapacity {
                bind_name,
                target,
                detail,
            }
            .into());
        }
        // Reserve the target: link and load there with no fallback, so a
        // load failure leaves the source instance running.
        let (offcode, plan) = match self.load_at(guid, target) {
            Ok(loaded) => loaded,
            Err(e) => {
                return Err(MigrateError::TargetLoadFailed {
                    bind_name,
                    target,
                    detail: e.to_string(),
                }
                .into())
            }
        };
        // Point of no return: the source is destroyed, the reserved copy
        // takes over.
        self.teardown(id);
        self.recorder.counter_incr("deploy.migrations", "");
        let new_id = match self.register_loaded(guid, target, offcode, plan, None) {
            Ok(new_id) => new_id,
            Err(e) => {
                return self.migrate_fallback(guid, &bind_name, state, MigrateLeg::Load, &e, now)
            }
        };
        match self.finish_migration(new_id, state.clone(), now) {
            Ok(()) => Ok(new_id),
            Err((leg, detail)) => {
                self.teardown(new_id);
                self.migrate_fallback(guid, &bind_name, state, leg, &detail, now)
            }
        }
    }

    /// Restore + two-phase startup on a freshly registered migration
    /// target. Returns which leg failed so the caller can fall back.
    fn finish_migration(
        &mut self,
        id: OffcodeId,
        state: Bytes,
        now: SimTime,
    ) -> Result<(), (MigrateLeg, String)> {
        let inst = self.instance_mut(id).expect("just registered");
        inst.offcode
            .restore(state)
            .map_err(|e| (MigrateLeg::Restore, e.to_string()))?;
        self.run_phase(id, now, Phase::Initialize)
            .map_err(|e| (MigrateLeg::Initialize, e.to_string()))?;
        self.run_phase(id, now, Phase::Start)
            .map_err(|e| (MigrateLeg::Start, e.to_string()))?;
        Ok(())
    }

    /// Post-teardown rescue: redeploy on the host, restore the snapshot,
    /// and report [`MigrateError::FellBack`] — or
    /// [`MigrateError::Unrecoverable`] if even the host path fails.
    fn migrate_fallback(
        &mut self,
        guid: Guid,
        bind_name: &str,
        state: Bytes,
        leg: MigrateLeg,
        detail: &impl std::fmt::Display,
        now: SimTime,
    ) -> Result<OffcodeId, RuntimeError> {
        self.recorder.counter_incr("recover.host_fallback", "");
        let unrecoverable = |detail: String| {
            RuntimeError::from(MigrateError::Unrecoverable {
                bind_name: bind_name.to_owned(),
                leg,
                detail,
            })
        };
        let fallback = self
            .deploy_one(guid, DeviceId::HOST, None)
            .map_err(|e| unrecoverable(format!("{detail}; host fallback: {e}")))?;
        if let Err((fleg, fdetail)) = self.finish_migration(fallback, state, now) {
            self.teardown(fallback);
            return Err(unrecoverable(format!(
                "{detail}; host fallback {fleg}: {fdetail}"
            )));
        }
        Err(MigrateError::FellBack {
            bind_name: bind_name.to_owned(),
            leg,
            detail: detail.to_string(),
            fallback,
        }
        .into())
    }

    /// The hydra-verify capacity pass, narrowed to this one Offcode
    /// pinned on `target`, whose budget is the allocator's *live* free
    /// space (the registry's static table reflects total memory, not what
    /// is left after earlier deployments).
    fn precheck_migration_capacity(&self, guid: Guid, target: DeviceId) -> Result<(), String> {
        if target.is_host() {
            return Ok(()); // the host is the fallback, never pre-rejected
        }
        let full = self.devices.table();
        let mut target_info = full.devices[target.idx()].clone();
        target_info.offcode_memory = self.allocators[target.idx()].available();
        let table = hydra_verify::DeviceTable {
            devices: vec![full.devices[0].clone(), target_info],
        };
        let roots = [guid];
        let odfs = self.narrowed_odfs(&roots);
        let demands = [u64::from(self.depot[&guid].object().load_size())];
        let report = hydra_verify::verify(&hydra_verify::VerifyInput {
            odfs: &odfs,
            devices: &table,
            demands: Some(&demands),
            roots: Some(&roots),
        });
        if report.has_errors() {
            let rendered: Vec<String> = report.errors().map(ToString::to_string).collect();
            return Err(rendered.join("; "));
        }
        Ok(())
    }

    /// Failure recovery: quiesce everything on `failed`, re-run the
    /// layout solver over the surviving devices (failed devices masked,
    /// non-migratable healthy instances pinned where they run, so Gang
    /// and Pull constraints are honored against reality), then migrate
    /// snapshot-able Offcodes to their new homes — the host is the last
    /// resort — and redeploy the rest fresh.
    ///
    /// [`Runtime::pulse`] calls this automatically when the health
    /// monitor declares a device Failed; it is public so scenario code
    /// that detects a crash out-of-band can trigger recovery directly.
    ///
    /// # Errors
    ///
    /// Rejects the host (it cannot fail-stop in this model); propagates
    /// layout failures and unrecoverable migrations.
    pub fn on_device_failure(
        &mut self,
        failed: DeviceId,
        now: SimTime,
    ) -> Result<RecoveryReport, RuntimeError> {
        if failed.is_host() {
            return Err(RuntimeError::Rejected("the host cannot fail-stop".into()));
        }
        self.health.mark_failed(failed);
        let label = failed.to_string();
        self.recorder.counter_incr("fault.device_failed", &label);

        // Already sorted by id: iter_instances walks the dense table in
        // ascending order.
        let deployed: Vec<(OffcodeId, Guid, DeviceId)> = self
            .iter_instances()
            .map(|(id, inst)| (id, inst.guid, inst.device))
            .collect();
        let on_failed = deployed.iter().filter(|&&(_, _, d)| d == failed).count();
        let span = self
            .recorder
            .span("recover.device", &label, now, on_failed as u64);
        if on_failed == 0 {
            return Ok(RecoveryReport {
                device: failed,
                displaced: Vec::new(),
                migrated: Vec::new(),
                host_fallbacks: 0,
                redeployed: Vec::new(),
                constraints_ok: true,
            });
        }

        // Re-layout over all live instances: imports narrowed to the set,
        // every failed device masked, healthy non-migratable instances
        // pinned to their current home.
        let in_set: Vec<Guid> = deployed.iter().map(|&(_, g, _)| g).collect();
        let odfs = self.narrowed_odfs(&in_set);
        let mut graph = LayoutGraph::from_odfs(&odfs, &self.devices)?;
        for k in 1..self.allocators.len() {
            let device = DeviceId(k as u32);
            if self.health.is_failed(device) {
                graph.mask_device(device)?;
            }
        }
        for (n, &(id, _, dev)) in deployed.iter().enumerate() {
            let migratable = self
                .instance(id)
                .expect("deployed list is live")
                .offcode
                .snapshot()
                .is_some();
            if dev != failed && !migratable && !self.health.is_failed(dev) {
                graph.pin_node(NodeIdx(n), dev);
            }
        }
        // Incremental repair: warm-start from where everything is
        // deployed right now and re-solve only the component the failure
        // actually disturbed (with a proven-equal fallback to the full
        // ILP inside).
        let prev = Placement(deployed.iter().map(|&(_, _, d)| d).collect());
        let (placement, stats) = graph.repair(
            &prev,
            &GraphDelta::MaskDevice(failed),
            &self.config.objective,
        )?;
        self.recorder
            .counter_add("recover.repaired_nodes", &label, stats.repaired_nodes);
        self.recorder
            .counter_add("recover.warm_start_hits", &label, stats.warm_start_hits);
        self.recorder
            .counter_add("solver.nodes_explored", "repair", stats.nodes);
        self.recorder
            .counter_add("solver.bounds_pruned", "repair", stats.pruned);
        graph.check(&placement)?;

        let mut displaced = Vec::new();
        let mut migrated = Vec::new();
        let mut redeployed = Vec::new();
        let mut host_fallbacks = 0usize;
        for (n, &(id, guid, dev)) in deployed.iter().enumerate() {
            let want = placement.0[n];
            if want == dev && dev != failed {
                continue;
            }
            displaced.push(self.depot[&guid].odf.bind_name.clone());
            let migratable = self
                .instance(id)
                .expect("deployed list is live")
                .offcode
                .snapshot()
                .is_some();
            if migratable {
                let landed = match self.migrate(id, want, now) {
                    Ok(_) => want,
                    Err(RuntimeError::Migrate(MigrateError::InsufficientCapacity { .. }))
                        if !want.is_host() =>
                    {
                        // The survivor is full: the host is the last resort.
                        self.migrate(id, DeviceId::HOST, now)?;
                        DeviceId::HOST
                    }
                    Err(RuntimeError::Migrate(MigrateError::FellBack { .. })) => DeviceId::HOST,
                    Err(e) => return Err(e),
                };
                self.recorder.counter_incr("recover.migrations", "");
                let bind = self.depot[&guid].odf.bind_name.as_str();
                let ctx =
                    self.recorder
                        .trace_begin("recover.migrate", bind, u64::from(dev.0), now, 0);
                self.recorder
                    .trace_recv(ctx, "recover.landed", bind, u64::from(landed.0), now, 0);
                if landed.is_host() {
                    host_fallbacks += 1;
                }
                migrated.push((guid, landed));
            } else {
                // No snapshot support: state is lost, a fresh instance is
                // the only option.
                self.teardown(id);
                let new_id = self.deploy_one(guid, want, None)?;
                self.run_phase(new_id, now, Phase::Initialize)?;
                self.run_phase(new_id, now, Phase::Start)?;
                self.recorder.counter_incr("recover.redeployed", "");
                let final_dev = self.instance(new_id).expect("just deployed").device;
                let bind = self.depot[&guid].odf.bind_name.as_str();
                let ctx =
                    self.recorder
                        .trace_begin("recover.redeploy", bind, u64::from(dev.0), now, 0);
                self.recorder.trace_recv(
                    ctx,
                    "recover.landed",
                    bind,
                    u64::from(final_dev.0),
                    now,
                    0,
                );
                if final_dev.is_host() {
                    host_fallbacks += 1;
                }
                redeployed.push(guid);
            }
        }
        self.recorder.add_span_work(span, migrated.len() as u64);

        let achieved = Placement(
            deployed
                .iter()
                .map(|&(_, g, _)| {
                    self.deployed_by_guid
                        .get(&g)
                        .and_then(|&id| self.instance(id))
                        .map_or(DeviceId::HOST, |inst| inst.device)
                })
                .collect(),
        );
        let constraints_ok = graph.check(&achieved).is_ok();
        displaced.sort();
        Ok(RecoveryReport {
            device: failed,
            displaced,
            migrated,
            host_fallbacks,
            redeployed,
            constraints_ok,
        })
    }

    /// Tears down a deployed Offcode: releases its resource subtree,
    /// destroys its channels, closes its endpoints on every channel it
    /// was connected to as a receiver, and forgets the instance. Sweeping
    /// the endpoints matters: a surviving sender must not keep queueing
    /// into a dead receiver's slot, and the connection table must not
    /// keep orphaned keys ([`Runtime::audit_connections`] checks both).
    pub fn teardown(&mut self, id: OffcodeId) -> bool {
        let Some(inst) = self.instances.get_mut(id.idx()).and_then(Option::take) else {
            return false;
        };
        self.deployed_by_guid.remove(&inst.guid);
        self.generation += 1;
        let _ = self.resources.release(inst.resource);
        self.executive.destroy(inst.oob);
        if let Some(slot) = self.connections.get_mut(inst.oob.idx()) {
            *slot = None;
        }
        // Sweep the dense table in ascending channel-id order.
        for ci in 0..self.connections.len() {
            let Some(bindings) = self.connections[ci].as_mut() else {
                continue;
            };
            let chan = ChannelId(ci as u32);
            let executive = &mut self.executive;
            bindings.retain(|&(ep, oc)| {
                if oc == id {
                    if let Some(ch) = executive.get_mut(chan) {
                        ch.close_endpoint(ep);
                    }
                    false
                } else {
                    true
                }
            });
            if bindings.is_empty() {
                self.connections[ci] = None;
            }
        }
        true
    }

    /// Invariant sweep over the channel-connection table; an empty result
    /// means no orphans. Reported problems (sorted): empty binding lists,
    /// bindings for destroyed channels, bindings pointing at dead
    /// instances, bindings whose endpoint is closed, and wedged
    /// descriptor-ring slots outliving their ring (a channel with zero
    /// open endpoints has no live ring to wedge).
    pub fn audit_connections(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for chan in self.executive.ids() {
            let Some(ch) = self.executive.get(chan) else {
                continue;
            };
            if ch.wedged_slots() > 0 && ch.open_endpoints() == 0 {
                problems.push(format!(
                    "{chan}: {} wedged slot(s) on a torn-down ring",
                    ch.wedged_slots()
                ));
            }
        }
        for (ci, slot) in self.connections.iter().enumerate() {
            let Some(bindings) = slot else { continue };
            let chan = ChannelId(ci as u32);
            if bindings.is_empty() {
                problems.push(format!("{chan}: empty binding list"));
                continue;
            }
            let Some(ch) = self.executive.get(chan) else {
                problems.push(format!("{chan}: bindings for destroyed channel"));
                continue;
            };
            for &(ep, id) in bindings {
                if self.instance(id).is_none() {
                    problems.push(format!(
                        "{chan}: endpoint {ep} bound to dead instance #{}",
                        id.0
                    ));
                }
                if !ch.endpoint_open(ep) {
                    problems.push(format!("{chan}: endpoint {ep} is closed but still bound"));
                }
            }
        }
        problems.sort();
        problems
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Initialize,
    Start,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceDescriptor;
    use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Import};

    fn class(id: u32) -> DeviceClassSpec {
        DeviceClassSpec {
            id,
            name: format!("class-{id}"),
            bus: None,
            mac: None,
            vendor: None,
        }
    }

    #[derive(Debug)]
    struct Counter {
        guid: Guid,
        name: String,
        initialized: bool,
        started: bool,
        count: u64,
    }

    impl Counter {
        fn boxed(guid: u64, name: &str) -> Box<dyn Offcode> {
            Box::new(Counter {
                guid: Guid(guid),
                name: name.to_owned(),
                initialized: false,
                started: false,
                count: 0,
            })
        }
    }

    impl Offcode for Counter {
        fn guid(&self) -> Guid {
            self.guid
        }
        fn bind_name(&self) -> &str {
            &self.name
        }
        fn initialize(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
            self.initialized = true;
            Ok(())
        }
        fn start(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
            if !self.initialized {
                return Err(RuntimeError::BadState("start before initialize"));
            }
            self.started = true;
            Ok(())
        }
        fn handle_call(
            &mut self,
            ctx: &mut OffcodeCtx,
            call: &Call,
        ) -> Result<Value, RuntimeError> {
            ctx.charge(Cycles::new(1_000));
            match call.operation.as_str() {
                "incr" => {
                    self.count += 1;
                    Ok(Value::U64(self.count))
                }
                "get" => Ok(Value::U64(self.count)),
                other => Err(RuntimeError::UnknownOperation(other.to_owned())),
            }
        }
    }

    fn full_registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic()); // dev1
        reg.install(DeviceDescriptor::smart_disk()); // dev2
        reg.install(DeviceDescriptor::gpu()); // dev3
        reg
    }

    fn runtime() -> Runtime {
        Runtime::new(full_registry(), RuntimeConfig::default())
    }

    #[test]
    fn deploys_single_offcode_to_matching_device() {
        let mut rt = runtime();
        let odf = OdfDocument::new("t.Checksum", Guid(1)).with_target(class(class_ids::NETWORK));
        rt.register_offcode(odf, || Counter::boxed(1, "t.Checksum"))
            .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        assert_eq!(rt.device_of(id), Some(DeviceId(1)));
        let deps = rt.deployments();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].state, Lifecycle::Started);
    }

    #[test]
    fn create_is_idempotent_per_guid() {
        let mut rt = runtime();
        rt.register_offcode(OdfDocument::new("a", Guid(1)), || Counter::boxed(1, "a"))
            .unwrap();
        let id1 = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let id2 = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(rt.deployments().len(), 1);
    }

    #[test]
    fn deploys_import_closure_with_constraints() {
        let mut rt = runtime();
        let streamer = OdfDocument::new("t.Streamer", Guid(1))
            .with_target(class(class_ids::NETWORK))
            .with_import(Import {
                file: String::new(),
                bind_name: "t.Decoder".into(),
                guid: Guid(2),
                constraint: ConstraintKind::Gang,
                priority: 0,
            });
        let decoder = OdfDocument::new("t.Decoder", Guid(2))
            .with_target(class(class_ids::GPU))
            .with_import(Import {
                file: String::new(),
                bind_name: "t.Display".into(),
                guid: Guid(3),
                constraint: ConstraintKind::Pull,
                priority: 0,
            });
        let display = OdfDocument::new("t.Display", Guid(3)).with_target(class(class_ids::GPU));
        rt.register_offcode(streamer, || Counter::boxed(1, "t.Streamer"))
            .unwrap();
        rt.register_offcode(decoder, || Counter::boxed(2, "t.Decoder"))
            .unwrap();
        rt.register_offcode(display, || Counter::boxed(3, "t.Display"))
            .unwrap();

        let root = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        assert_eq!(rt.deployments().len(), 3);
        assert_eq!(rt.device_of(root), Some(DeviceId(1))); // NIC
        let dec = rt.get_offcode(Guid(2)).unwrap();
        let dis = rt.get_offcode(Guid(3)).unwrap();
        // Pull: decoder and display together on the GPU.
        assert_eq!(rt.device_of(dec), Some(DeviceId(3)));
        assert_eq!(rt.device_of(dis), Some(DeviceId(3)));
    }

    #[test]
    fn missing_import_fails_cleanly() {
        let mut rt = runtime();
        let a = OdfDocument::new("a", Guid(1)).with_import(Import {
            file: String::new(),
            bind_name: "ghost".into(),
            guid: Guid(99),
            constraint: ConstraintKind::Link,
            priority: 0,
        });
        rt.register_offcode(a, || Counter::boxed(1, "a")).unwrap();
        assert_eq!(
            rt.create_offcode(Guid(1), SimTime::ZERO),
            Err(RuntimeError::NotInDepot(Guid(99)))
        );
        assert!(rt.deployments().is_empty());
    }

    #[test]
    fn oom_falls_back_to_host() {
        let mut reg = DeviceRegistry::new();
        let mut tiny_nic = DeviceDescriptor::programmable_nic();
        tiny_nic.offcode_memory = 64; // cannot hold anything
        reg.install(tiny_nic);
        // Pre-flight verification would reject this deployment up front
        // (HV020); switch it off to exercise the load-time fallback path.
        let config = RuntimeConfig {
            verify_deployments: false,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(reg, config);
        let odf = OdfDocument::new("t.Big", Guid(1)).with_target(class(class_ids::NETWORK));
        rt.register_offcode(odf, || Counter::boxed(1, "t.Big"))
            .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        assert_eq!(rt.device_of(id), Some(DeviceId::HOST));
    }

    #[test]
    fn verifier_gate_rejects_overcommitted_deployment() {
        let mut reg = DeviceRegistry::new();
        let mut tiny_nic = DeviceDescriptor::programmable_nic();
        tiny_nic.offcode_memory = 64;
        reg.install(tiny_nic);
        let mut rt = Runtime::new(reg, RuntimeConfig::default());
        let odf = OdfDocument::new("t.Big", Guid(1)).with_target(class(class_ids::NETWORK));
        rt.register_offcode(odf, || Counter::boxed(1, "t.Big"))
            .unwrap();
        match rt.create_offcode(Guid(1), SimTime::ZERO) {
            Err(RuntimeError::Verification(msg)) => assert!(msg.contains("HV020"), "{msg}"),
            other => panic!("expected verification rejection, got {other:?}"),
        }
        assert!(rt.deployments().is_empty());
        let snap = rt.metrics_snapshot();
        assert_eq!(snap.counter("verify.errors", ""), Some(1));
        assert!(snap.counter("verify.diagnostics", "capacity").unwrap() >= 1);
    }

    #[test]
    fn verify_deployment_reports_without_deploying() {
        let mut rt = runtime();
        let a = OdfDocument::new("a", Guid(1))
            .with_target(class(class_ids::NETWORK))
            .with_import(Import {
                file: String::new(),
                bind_name: "b".into(),
                guid: Guid(2),
                constraint: ConstraintKind::Gang,
                priority: 0,
            });
        let b = OdfDocument::new("b", Guid(2))
            .with_target(class(class_ids::NETWORK))
            .with_import(Import {
                file: String::new(),
                bind_name: "a".into(),
                guid: Guid(1),
                constraint: ConstraintKind::Gang,
                priority: 0,
            });
        rt.register_offcode(a, || Counter::boxed(1, "a")).unwrap();
        rt.register_offcode(b, || Counter::boxed(1, "b")).unwrap();
        let report = rt
            .certify_deployment(Guid(1), SimTime::ZERO)
            .unwrap()
            .report;
        assert!(report.has_errors());
        assert!(report
            .errors()
            .any(|d| d.code == hydra_verify::HvCode::GangCycle));
        // Nothing was deployed, but the pass metrics were recorded.
        assert!(rt.deployments().is_empty());
        let snap = rt.metrics_snapshot();
        assert!(snap.counter_total("verify.pass_work") > 0);
        assert_eq!(snap.spans_named("deploy.verify").len(), 1);
        // The gate acts on the same report.
        assert!(matches!(
            rt.create_offcode(Guid(1), SimTime::ZERO),
            Err(RuntimeError::Verification(_))
        ));
    }

    #[test]
    fn clean_deployment_passes_verifier_gate() {
        let mut rt = runtime();
        rt.register_offcode(
            OdfDocument::new("ok", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "ok"),
        )
        .unwrap();
        let report = rt
            .certify_deployment(Guid(1), SimTime::ZERO)
            .unwrap()
            .report;
        assert!(!report.has_errors());
        assert!(rt.create_offcode(Guid(1), SimTime::ZERO).is_ok());
    }

    #[test]
    fn invoke_routes_to_offcode_and_books_work() {
        let mut rt = runtime();
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let call = Call::new(Guid(1), "incr");
        assert_eq!(rt.invoke(id, &call, SimTime::ZERO).unwrap(), Value::U64(1));
        assert_eq!(rt.invoke(id, &call, SimTime::ZERO).unwrap(), Value::U64(2));
        assert_eq!(rt.device_work(DeviceId(1)), Cycles::new(2_000));
        assert!(matches!(
            rt.invoke(id, &Call::new(Guid(1), "nope"), SimTime::ZERO),
            Err(RuntimeError::UnknownOperation(_))
        ));
    }

    #[test]
    fn channel_dispatch_via_pump() {
        let mut rt = runtime();
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let chan = rt
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        rt.connect_offcode(chan, id).unwrap();
        let call = Call::new(Guid(1), "incr").with_return_id(42);
        let deliver_at = rt.send_call(chan, &call, SimTime::ZERO).unwrap();
        // Nothing visible before delivery.
        assert!(rt.pump(SimTime::ZERO).is_empty());
        let results = rt.pump(deliver_at);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].handler, id);
        assert_eq!(results[0].return_id, 42);
        assert_eq!(results[0].result, Ok(Value::U64(1)));
    }

    #[test]
    fn batched_calls_dispatch_via_pump() {
        let mut rt = runtime();
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let chan = rt
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        rt.connect_offcode(chan, id).unwrap();
        let calls: Vec<Call> = (0..4)
            .map(|i| Call::new(Guid(1), "incr").with_return_id(i))
            .collect();
        let outcome = rt.send_call_batch(chan, &calls, SimTime::ZERO).unwrap();
        assert_eq!(outcome.accepted(), 4);
        assert_eq!(outcome.rejected + outcome.dropped, 0);
        let results = rt.pump(outcome.complete_at);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.return_id, i as u64);
            assert_eq!(r.result, Ok(Value::U64(i as u64 + 1)));
        }
    }

    #[test]
    fn teardown_releases_resources_and_instances() {
        let mut rt = runtime();
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let live_before = rt.resources().len();
        assert!(rt.teardown(id));
        assert!(!rt.teardown(id));
        assert!(rt.resources().len() < live_before);
        assert_eq!(rt.get_offcode(Guid(1)), None);
        assert!(matches!(
            rt.invoke(id, &Call::new(Guid(1), "incr"), SimTime::ZERO),
            Err(RuntimeError::NoSuchInstance(_))
        ));
    }

    #[test]
    fn device_side_loading_strategy_works() {
        let mut rt = Runtime::new(
            full_registry(),
            RuntimeConfig {
                load_strategy: LoadStrategy::DeviceSideLink,
                ..RuntimeConfig::default()
            },
        );
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let dep = rt.deployments().into_iter().find(|d| d.id == id).unwrap();
        assert_eq!(dep.plan.strategy, LoadStrategy::DeviceSideLink);
    }

    #[test]
    fn trace_export_spans_devices_and_respects_flight_capacity() {
        let mut rt = Runtime::new(full_registry(), RuntimeConfig::default());
        rt.recorder().set_flight_capacity(8);
        assert_eq!(rt.recorder().flight_capacity(), 8);
        rt.register_offcode(
            OdfDocument::new("c", Guid(1)).with_target(class(class_ids::NETWORK)),
            || Counter::boxed(1, "c"),
        )
        .unwrap();
        let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let chan = rt
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        rt.connect_offcode(chan, id).unwrap();
        let call = Call::new(Guid(1), "incr");
        let deliver_at = rt.send_call(chan, &call, SimTime::ZERO).unwrap();
        rt.pump(deliver_at);
        let json = rt.trace_export();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"channel.recv\""));
        // Host (pid 0) and the NIC (pid 1) both appear as processes.
        assert!(json.contains("\"args\":{\"name\":\"host\"}"));
        assert!(json.contains("\"args\":{\"name\":\"device-1\"}"));
        assert_eq!(json, rt.trace_export(), "export is stable");
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut rt = runtime();
        rt.register_offcode(OdfDocument::new("a", Guid(1)), || Counter::boxed(1, "a"))
            .unwrap();
        assert!(rt
            .register_offcode(OdfDocument::new("b", Guid(1)), || Counter::boxed(1, "b"))
            .is_err());
    }

    /// `create_offcode`'s gate reusing the last certification.
    mod gate {
        use super::*;
        use proptest::prelude::*;

        fn register(
            rt: &mut Runtime,
            guid: u64,
            target: u32,
            imports: &[(u64, ConstraintKind)],
        ) -> Result<(), RuntimeError> {
            let name = format!("g.N{guid}");
            let mut odf = OdfDocument::new(name.clone(), Guid(guid)).with_target(class(target));
            for &(to, constraint) in imports {
                odf = odf.with_import(Import {
                    file: String::new(),
                    bind_name: format!("g.N{to}"),
                    guid: Guid(to),
                    constraint,
                    priority: 0,
                });
            }
            rt.register_offcode(odf, move || Counter::boxed(guid, &name))
        }

        /// Guid 1 Pull-imports 2; 3 stands alone.
        fn with_set() -> Runtime {
            let mut rt = runtime();
            let nic = class_ids::NETWORK;
            register(&mut rt, 1, nic, &[(2, ConstraintKind::Pull)]).unwrap();
            register(&mut rt, 2, nic, &[]).unwrap();
            register(&mut rt, 3, nic, &[]).unwrap();
            rt
        }

        /// Whether the gate would reuse a verdict for `root`'s closure now.
        fn hit(rt: &Runtime, root: u64) -> bool {
            let (order, _) = rt.deployment_closure(Guid(root)).unwrap();
            rt.cached_gate(Guid(root), &order).is_some()
        }

        fn certify(rt: &Runtime, root: u64) {
            rt.certify_deployment(Guid(root), SimTime::ZERO).unwrap();
        }

        #[test]
        fn certification_serves_the_next_gate_with_fresh_counters() {
            let mut cached = with_set();
            let mut fresh = with_set();
            for rt in [&mut cached, &mut fresh] {
                certify(rt, 1);
            }
            assert!(hit(&cached, 1));
            assert!(!hit(&cached, 3), "another root's closure is not served");
            fresh.gate.replace(None);
            let a = cached.create_offcode(Guid(1), SimTime::ZERO).unwrap();
            let b = fresh.create_offcode(Guid(1), SimTime::ZERO).unwrap();
            assert_eq!(a, b);
            assert_eq!(cached.metrics_snapshot(), fresh.metrics_snapshot());
        }

        #[test]
        fn register_invalidates_the_gate() {
            let mut rt = with_set();
            certify(&rt, 1);
            assert!(hit(&rt, 1));
            register(&mut rt, 4, class_ids::NETWORK, &[]).unwrap();
            assert!(!hit(&rt, 1));
        }

        #[test]
        fn deploy_invalidates_the_gate() {
            let mut rt = with_set();
            certify(&rt, 1);
            assert!(hit(&rt, 1));
            rt.create_offcode(Guid(3), SimTime::ZERO).unwrap();
            assert!(!hit(&rt, 1));
        }

        #[test]
        fn teardown_invalidates_the_gate() {
            let mut rt = with_set();
            let id = rt.create_offcode(Guid(3), SimTime::ZERO).unwrap();
            certify(&rt, 1);
            assert!(hit(&rt, 1));
            assert!(rt.teardown(id));
            assert!(!hit(&rt, 1));
        }

        #[test]
        fn provider_change_leaves_the_gate_hit() {
            // The structural passes never read the provider table.
            let mut rt = with_set();
            certify(&rt, 1);
            crate::providers::install_extras(rt.executive_mut());
            assert!(hit(&rt, 1));
        }

        /// Registers Offcode `guid` of a random five-Offcode set: it may
        /// import any other with a random constraint and runs on a
        /// random device class, so closures overlap and some verdicts
        /// carry errors.
        fn random_set(rt: &mut Runtime, bits: u64, guid: u64) -> Result<(), RuntimeError> {
            let mut b = bits.rotate_left(guid as u32 * 13);
            let mut imports = Vec::new();
            for to in (1..=5).filter(|&to| to != guid) {
                let kind = match b & 15 {
                    0 => Some(ConstraintKind::Pull),
                    1 => Some(ConstraintKind::Gang),
                    2 => Some(ConstraintKind::AsymGang),
                    3 => Some(ConstraintKind::Link),
                    _ => None,
                };
                b >>= 4;
                imports.extend(kind.map(|k| (to, k)));
            }
            let target = [class_ids::NETWORK, class_ids::STORAGE, class_ids::GPU][(b % 3) as usize];
            register(rt, guid, target, &imports)
        }

        /// Applies one encoded operation; `fresh` empties the gate before
        /// every `create_offcode`. Returns the operation's outcome.
        fn apply(rt: &mut Runtime, bits: u64, op: u32, fresh: bool) -> String {
            let guid = u64::from(op / 8 % 5) + 1;
            let now = SimTime::ZERO;
            let create = |rt: &mut Runtime| {
                if fresh {
                    rt.gate.replace(None);
                }
                format!("{:?}", rt.create_offcode(Guid(guid), now))
            };
            match op % 8 {
                0 => format!("{:?}", random_set(rt, bits, guid)),
                1 => format!("{:?}", rt.certify_deployment(Guid(guid), now)),
                2 => create(rt),
                3 | 4 => {
                    let c = format!("{:?}", rt.certify_deployment(Guid(guid), now));
                    c + &create(rt)
                }
                5 => format!("{:?}", rt.get_offcode(Guid(guid)).map(|id| rt.teardown(id))),
                6 => {
                    // Leaves the verdict standing on the cached side.
                    crate::providers::install_extras(rt.executive_mut());
                    String::new()
                }
                _ => {
                    let target = DeviceId(op / 40 % 4);
                    let moved = rt
                        .get_offcode(Guid(guid))
                        .map(|id| rt.migrate(id, target, now));
                    format!("{moved:?}")
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn cached_gate_matches_a_fresh_gate(
                bits in any::<u64>(),
                ops in proptest::collection::vec(any::<u32>(), 1..40),
            ) {
                let mut cached = runtime();
                let mut fresh = runtime();
                for guid in 1..=5 {
                    if bits >> (58 + guid) & 1 == 1 || bits & 3 != 0 {
                        random_set(&mut cached, bits, guid).unwrap();
                        random_set(&mut fresh, bits, guid).unwrap();
                    }
                }
                for &op in &ops {
                    let a = apply(&mut cached, bits, op, false);
                    let b = apply(&mut fresh, bits, op, true);
                    prop_assert_eq!(&a, &b, "op {}", op);
                    prop_assert_eq!(cached.metrics_snapshot(), fresh.metrics_snapshot());
                }
            }
        }
    }
}
