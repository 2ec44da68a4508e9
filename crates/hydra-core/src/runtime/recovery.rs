//! Recovery: the health pulse, failure recovery by repair and
//! migration, and the transactional migration itself with its host
//! fallback.

use bytes::Bytes;
use hydra_link::loader::LoadError;
use hydra_odf::odf::Guid;
use hydra_sim::fault::FaultPlan;
use hydra_sim::time::{SimDuration, SimTime};

use super::deploy::Phase;
use super::Runtime;
use crate::device::DeviceId;
use crate::error::{MigrateError, MigrateLeg, RuntimeError};
use crate::health::DeviceHealth;
use crate::layout::{GraphDelta, LayoutGraph, NodeIdx, Placement};
use crate::offcode::OffcodeId;

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

    /// Migrates a deployed Offcode to another device, carrying its state
    /// through [`Offcode::snapshot`]/[`Offcode::restore`].
    ///
    /// The move is transactional. Everything that can be checked without
    /// destroying the source — snapshot support, ODF compatibility, and
    /// the actual link/load at the target, whose allocator alone decides
    /// whether the image fits — happens first; any failure there returns
    /// a [`MigrateError`] with the original instance untouched. Only then
    /// is the source torn down. If a post-teardown leg (restore or a
    /// phase hook) fails, the Offcode is redeployed on the host with its
    /// snapshot restored ([`MigrateError::FellBack`]); the instance is
    /// lost only if that host fallback fails too
    /// ([`MigrateError::Unrecoverable`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchInstance`] for unknown ids; otherwise
    /// [`RuntimeError::Migrate`] as above.
    ///
    /// [`Offcode::snapshot`]: crate::offcode::Offcode::snapshot
    /// [`Offcode::restore`]: crate::offcode::Offcode::restore
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
        let odf = &self.depot[&guid].odf;
        let bind_name = odf.bind_name.clone();
        let Some(state) = inst.offcode.snapshot() else {
            return Err(MigrateError::NotMigratable { bind_name }.into());
        };
        // Validate the target against the ODF's device classes.
        if !self.devices.table().compatible(&odf.targets, target.idx()) {
            return Err(MigrateError::IncompatibleTarget { bind_name, target }.into());
        }
        // Reserve the target: link and load there with no fallback, so a
        // load failure leaves the source instance running.
        let (offcode, plan) = match self.load_at(guid, target, self.config.load_strategy) {
            Ok(loaded) => loaded,
            Err(LoadError::Memory(e)) => {
                return Err(MigrateError::InsufficientCapacity {
                    bind_name,
                    target,
                    detail: e.to_string(),
                }
                .into())
            }
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

    /// Failure recovery: quiesce everything on `failed`, repair the
    /// layout over the surviving devices (failed devices masked,
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
        let migratable: Vec<bool> = deployed
            .iter()
            .map(|&(id, _, _)| {
                let inst = self.instance(id).expect("deployed list is live");
                inst.offcode.snapshot().is_some()
            })
            .collect();

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
        for (n, &(_, _, dev)) in deployed.iter().enumerate() {
            if dev != failed && !migratable[n] && !self.health.is_failed(dev) {
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
            let (move_kind, landed) = if migratable[n] {
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
                migrated.push((guid, landed));
                ("recover.migrate", landed)
            } else {
                // No snapshot support: state is lost, a fresh instance is
                // the only option.
                self.teardown(id);
                let new_id = self.deploy_one(guid, want, None)?;
                self.run_phase(new_id, now, Phase::Initialize)?;
                self.run_phase(new_id, now, Phase::Start)?;
                self.recorder.counter_incr("recover.redeployed", "");
                redeployed.push(guid);
                let landed = self.instance(new_id).expect("just deployed").device;
                ("recover.redeploy", landed)
            };
            let bind = self.depot[&guid].odf.bind_name.as_str();
            let ctx = self
                .recorder
                .trace_begin(move_kind, bind, u64::from(dev.0), now, 0);
            self.recorder
                .trace_recv(ctx, "recover.landed", bind, u64::from(landed.0), now, 0);
            host_fallbacks += usize::from(landed.is_host());
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
}
