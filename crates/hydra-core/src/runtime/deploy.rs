//! Deployment: the depot, the import closure, link/load with the §3.4
//! host fallback, the two-phase `initialize`/`start` lifecycle, and
//! teardown.

use std::cell::OnceCell;

use hydra_link::loader::{load_device_side, load_host_side, LoadError, LoadPlan, LoadStrategy};
use hydra_obs::SpanId;
use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::time::SimTime;

use super::{DepotEntry, Instance, Lifecycle, Runtime};
use crate::channel::ChannelConfig;
use crate::device::DeviceId;
use crate::error::RuntimeError;
use crate::layout::{LayoutGraph, Placement};
use crate::offcode::{Offcode, OffcodeId};

/// One of the two lifecycle phases (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Initialize,
    Start,
}

impl Runtime {
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
        Ok(())
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
        // 1. Transitive closure, root first (DFS, de-duplicated). Its
        // narrowed ODFs come from the gate when a certification of this
        // very closure kept them.
        let order = self.deployment_closure(guid)?;
        let root_label = self.depot[&guid].odf.bind_name.clone();
        self.recorder
            .span("deploy.closure", &root_label, now, order.len() as u64);
        let (odfs, certified) = match self.gate.take(guid, &order) {
            Some((odfs, outcome)) => (odfs, Some(outcome)),
            None => (self.narrowed_odfs(&order), None),
        };

        // 2. Static pre-flight verification (on by default): reject
        // provably broken deployments before anything is linked.
        if self.config.verify_deployments {
            self.verify_gate(guid, &order, &odfs, certified, now)?;
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
    /// first. [`Runtime::narrowed_odfs`] gives its ODFs (imports of
    /// already-deployed Offcodes were satisfied at their own deployment).
    pub(super) fn deployment_closure(&self, guid: Guid) -> Result<Vec<Guid>, RuntimeError> {
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
        Ok(order)
    }

    /// The depot ODFs of `set`, in its order, each with its imports
    /// narrowed to `set`: imports that point outside it were satisfied
    /// elsewhere (at their own deployment, or are not being re-laid out).
    pub(super) fn narrowed_odfs(&self, set: &[Guid]) -> Vec<OdfDocument> {
        set.iter()
            .map(|g| {
                let mut odf = self.depot[g].odf.clone();
                odf.imports.retain(|imp| set.contains(&imp.guid));
                odf
            })
            .collect()
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

    /// Links and loads `guid`'s depot object at exactly `device` with
    /// `strategy` and instantiates the Offcode — no host fallback,
    /// nothing registered. The migration path uses this to reserve the
    /// target *before* destroying the source instance: a refused load
    /// (out of memory or a link error) changes no allocator state.
    pub(super) fn load_at(
        &mut self,
        guid: Guid,
        device: DeviceId,
        strategy: LoadStrategy,
    ) -> Result<(Box<dyn Offcode>, LoadPlan), LoadError> {
        let entry = &self.depot[&guid];
        let objects = std::slice::from_ref(entry.object());
        let allocator = &mut self.allocators[device.idx()];
        let exports = &self.devices.get(device).exports;
        let (_, plan) = match strategy {
            LoadStrategy::HostSideLink => load_host_side(objects, allocator, exports),
            LoadStrategy::DeviceSideLink => load_device_side(objects, allocator, exports),
        }?;
        Ok(((entry.factory)(), plan))
    }

    pub(super) fn deploy_one(
        &mut self,
        guid: Guid,
        device: DeviceId,
        span_parent: Option<(SpanId, SimTime)>,
    ) -> Result<OffcodeId, RuntimeError> {
        // Try the chosen device; fall back to the host on OOM (§3.4),
        // where the image is always linked host-side.
        let strategy = self.config.load_strategy;
        let (device, (offcode, plan)) = match self.load_at(guid, device, strategy) {
            Ok(loaded) => (device, loaded),
            Err(LoadError::Memory(_)) if !device.is_host() => {
                self.recorder.counter_incr("deploy.host_fallback", "");
                let host = DeviceId::HOST;
                (host, self.load_at(guid, host, LoadStrategy::HostSideLink)?)
            }
            Err(e) => return Err(e.into()),
        };
        self.register_loaded(guid, device, offcode, plan, span_parent)
    }

    /// Registers an already-loaded Offcode as a live instance: accounting
    /// counters, OOB channel, instance table entry. The instance takes
    /// over the load's memory reservation; if it cannot be registered,
    /// the reservation is freed.
    pub(super) fn register_loaded(
        &mut self,
        guid: Guid,
        device: DeviceId,
        offcode: Box<dyn Offcode>,
        plan: LoadPlan,
        span_parent: Option<(SpanId, SimTime)>,
    ) -> Result<OffcodeId, RuntimeError> {
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
                &self.depot[&guid].odf.bind_name,
                at,
                plan.host_work_units + plan.device_work_units,
            );
        }

        let id = OffcodeId(self.instances.len() as u32);
        let oob = match self.executive.create_channel(ChannelConfig::oob(device)) {
            Ok(oob) => oob,
            Err(e) => {
                self.allocators[device.idx()].free(plan.reserved_base);
                return Err(e.into());
            }
        };
        let ep = self
            .executive
            .get_mut(oob)
            .expect("channel just created")
            .connect_endpoint()
            .expect("first endpoint");
        self.connections.bind(oob, ep, id);

        self.instances.push(Some(Instance {
            offcode,
            guid,
            device,
            state: Lifecycle::Loaded,
            oob,
            plan,
        }));
        self.deployed_by_guid.insert(guid, id);
        Ok(id)
    }

    /// Runs one lifecycle phase hook on instance `id`, which must be in
    /// the state the phase follows.
    pub(super) fn run_phase(
        &mut self,
        id: OffcodeId,
        now: SimTime,
        phase: Phase,
    ) -> Result<(), RuntimeError> {
        let (expected, next) = match phase {
            Phase::Initialize => (Lifecycle::Loaded, Lifecycle::Initialized),
            Phase::Start => (Lifecycle::Initialized, Lifecycle::Started),
        };
        self.run_hook(id, now, |inst, ctx| {
            if inst.state != expected {
                return Err(RuntimeError::BadState("phase out of order"));
            }
            match phase {
                Phase::Initialize => inst.offcode.initialize(ctx),
                Phase::Start => inst.offcode.start(ctx),
            }?;
            inst.state = next;
            Ok(())
        })
    }

    /// Tears down a deployed Offcode and returns everything it holds:
    /// its device memory reservation goes back to the device's allocator
    /// ([`Runtime::free_memory`] rises by the plan's `reserved_bytes`),
    /// its OOB channel is destroyed, its endpoint on every channel it
    /// was connected to as a receiver is closed, and the instance is
    /// forgotten. Returns `false` for an unknown or already torn-down
    /// id. Sweeping the endpoints matters: a surviving sender must not
    /// keep queueing into a dead receiver's slot, and the connection
    /// table must not keep orphaned keys ([`Runtime::audit_connections`]
    /// checks both). Deploy rollback, migration and recovery's redeploy
    /// all release through here.
    pub fn teardown(&mut self, id: OffcodeId) -> bool {
        let Some(inst) = self.instances.get_mut(id.idx()).and_then(Option::take) else {
            return false;
        };
        self.deployed_by_guid.remove(&inst.guid);
        let freed = self.allocators[inst.device.idx()].free(inst.plan.reserved_base);
        debug_assert_eq!(freed, Some(inst.plan.reserved_bytes));
        self.executive.destroy(inst.oob);
        self.connections.sweep(id, inst.oob, &mut self.executive);
        true
    }
}
