//! `deploy_recover`: the control plane, as a closed loop with one caller.
//!
//! Each operation is one seeded random application of 4–16 Offcodes
//! (Gang/Pull/AsymGang imports, `<footprint>`, `<traffic>`), handed to the
//! program as ODF XML text, taken through its whole lifecycle on a fresh
//! runtime over a registry with two devices of each class: parse,
//! register, `certify_deployment`, `create_offcode`, a few `invoke`s, a
//! crash of the device hosting the most Offcodes, `pulse` until recovery
//! (repair + migrate + redeploy) completes, `audit_connections`, then
//! teardown. Placement maximises offloaded bus value under per-device
//! capacities, so both the scratch solve and the warm-started repair have
//! real choices to make. A pool of applications is generated at setup
//! and cycled.

use std::time::Instant;

use bytes::Bytes;
use hydra_core::call::{Call, Value};
use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra_core::error::RuntimeError;
use hydra_core::layout::{GraphDelta, LayoutGraph, NodeIdx, Objective, Placement};
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_link::loader::{load_host_side, DeviceMemoryAllocator};
use hydra_odf::odf::{
    class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra_sim::fault::{FaultKind, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};

use crate::report::Outcome;
use crate::support::{peak_rss_mib, Digest, Dist, Rng, SetupClock};
use crate::trace::Tracer;
use crate::RunConfig;

/// Applications generated at setup and cycled through.
const POOL: usize = 13 * 80;
/// Health pulses (1 ms apart) allowed for detection and recovery.
const MAX_PULSES: u64 = 16;
/// Per-device bus capacity in Offcodes (host, NIC×2, disk×2, GPU×2).
const CAPACITIES: [f64; 7] = [0.0, 8.0, 8.0, 5.0, 5.0, 6.0, 6.0];

fn registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for d in [
        DeviceDescriptor::programmable_nic(),
        DeviceDescriptor::programmable_nic(),
        DeviceDescriptor::smart_disk(),
        DeviceDescriptor::smart_disk(),
        DeviceDescriptor::gpu(),
        DeviceDescriptor::gpu(),
    ] {
        reg.install(d);
    }
    reg
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        objective: Objective::MaximizeBusUsage {
            capacities: CAPACITIES.to_vec(),
        },
        ..RuntimeConfig::default()
    }
}

/// One generated application.
#[derive(Debug, Clone)]
struct App {
    /// ODF XML of Offcode `i` (GUID `i + 1`); the root is GUID 1.
    texts: Vec<String>,
    /// Offcodes without snapshot support (redeployed, not migrated).
    stateless: Vec<bool>,
    /// Calls each Offcode receives before the crash.
    invokes: Vec<u64>,
    crash_at_ms: u64,
}

fn class(id: u32) -> DeviceClassSpec {
    DeviceClassSpec {
        id,
        name: format!("class-{id}"),
        bus: None,
        mac: None,
        vendor: None,
    }
}

fn import(to: usize, constraint: ConstraintKind) -> Import {
    Import {
        file: String::new(),
        bind_name: format!("app.N{to}"),
        guid: Guid(to as u64 + 1),
        constraint,
        priority: 0,
    }
}

/// A verify-clean, solvable application (after `valid_set` in
/// `tests/verify_proptests.rs`): every Offcode can run on a NIC, so every
/// Pull has a common device, and imports only point forward, so the
/// constraint graph is acyclic. The imports form a tree rooted at GUID 1,
/// so the whole set is the root's deployment closure.
fn generate(rng: &mut Rng, n: usize) -> App {
    let mut odfs: Vec<OdfDocument> = (0..n)
        .map(|i| {
            let mut odf = OdfDocument::new(format!("app.N{i}"), Guid(i as u64 + 1))
                .with_target(class(class_ids::NETWORK));
            match rng.below(3) {
                0 => {}
                1 => odf.targets.push(class(class_ids::STORAGE)),
                _ => odf.targets.push(class(class_ids::GPU)),
            }
            odf.with_footprint(rng.range(1, 8) * 8 * 1024)
                .with_traffic(TrafficSpec {
                    rate_per_sec: rng.range(20, 200),
                    burst: rng.range(1, 4),
                    max_bytes: 64 << rng.below(5),
                })
        })
        .collect();
    // One importer per Offcode: two importers of one Offcode that may be
    // placed apart would share its descriptor ring unordered, which
    // certification rightly refuses (HV050). Pull groups stay within three
    // Offcodes, and the last Offcode (a leaf) hangs off an AsymGang edge,
    // so it can always be offloaded alone and the crash has a victim.
    let mut group = (0..n).collect::<Vec<usize>>();
    for to in 1..n {
        let from = rng.below(to as u64) as usize;
        let mut kind = match rng.below(5) {
            0 => ConstraintKind::Pull,
            1 | 2 => ConstraintKind::Gang,
            _ => ConstraintKind::AsymGang,
        };
        if kind == ConstraintKind::Pull {
            if group.iter().filter(|&&g| g == group[from]).count() < 3 {
                group[to] = group[from];
            } else {
                kind = ConstraintKind::Gang;
            }
        }
        if to == n - 1 {
            kind = ConstraintKind::AsymGang;
            group[to] = to;
        }
        odfs[from].imports.push(import(to, kind));
    }
    App {
        texts: odfs.iter().map(OdfDocument::to_xml).collect(),
        stateless: (0..n).map(|_| rng.below(4) == 0).collect(),
        invokes: (0..n).map(|_| rng.range(1, 3)).collect(),
        crash_at_ms: rng.range(1, 3),
    }
}

/// An application Offcode that counts its calls; the stateful ones carry
/// the count through migration.
#[derive(Debug)]
struct Member {
    guid: Guid,
    name: String,
    count: u64,
    stateful: bool,
}

impl Offcode for Member {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        if call.operation != "get" {
            self.count += 1;
        }
        Ok(Value::U64(self.count))
    }
    fn snapshot(&self) -> Option<Bytes> {
        self.stateful
            .then(|| Bytes::copy_from_slice(&self.count.to_le_bytes()))
    }
    fn restore(&mut self, state: Bytes) -> Result<(), RuntimeError> {
        let raw: [u8; 8] = state
            .as_ref()
            .try_into()
            .map_err(|_| RuntimeError::Rejected("bad snapshot length".into()))?;
        self.count = u64::from_le_bytes(raw);
        Ok(())
    }
}

fn member(odf: &OdfDocument, stateful: bool) -> Member {
    Member {
        guid: odf.guid,
        name: odf.bind_name.clone(),
        count: 0,
        stateful,
    }
}

/// Host-time and outcome of one lifecycle.
#[derive(Debug, Default)]
struct Life {
    wall_ns: f64,
    deploy_ns: f64,
    recover_ns: f64,
    create_ns: f64,
    sim_ms: u64,
    digest: u64,
    migrated: u64,
    redeployed: u64,
    host_fallbacks: u64,
    pass_work: u64,
}

/// What the traced run needs to replay the composite runtime calls.
struct ReplayInput {
    odfs: Vec<OdfDocument>,
    placement: Vec<DeviceId>,
    victim: DeviceId,
}

const T0: SimTime = SimTime::ZERO;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// Runs one application through its lifecycle, checking every outcome.
fn lifecycle(
    app: &App,
    reg: &DeviceRegistry,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(Life, ReplayInput), String> {
    let started = Instant::now();
    let mut life = Life::default();
    let n = app.texts.len();
    tracer.enter("bench.lifecycle", op);

    tracer.enter("odf.parse", op);
    let parsed: Result<Vec<OdfDocument>, _> =
        app.texts.iter().map(|t| OdfDocument::parse(t)).collect();
    tracer.exit(app.texts.iter().map(|t| t.len() as u64).sum());
    let odfs = parsed.map_err(|e| format!("ODF parse: {e}"))?;

    tracer.enter("runtime.new", op);
    let mut rt = Runtime::new(reg.clone(), config());
    tracer.exit(1);
    tracer.enter("runtime.register_offcode", op);
    for (i, odf) in odfs.iter().enumerate() {
        let proto = member(odf, !app.stateless[i]);
        rt.register_offcode(odf.clone(), move || {
            Box::new(Member {
                name: proto.name.clone(),
                ..proto
            })
        })
        .map_err(|e| format!("register: {e}"))?;
    }
    tracer.exit(n as u64);

    tracer.enter("verify.certify", op);
    let cert = rt.certify_deployment(Guid(1), T0);
    tracer.exit(1);
    let cert = cert.map_err(|e| format!("certify: {e}"))?;
    if cert.report.has_errors() {
        return Err(format!(
            "certification refused: {}",
            cert.report.render_human()
        ));
    }
    life.pass_work = cert.report.passes.iter().map(|p| p.work_units).sum();

    let t = Instant::now();
    tracer.enter("runtime.create_offcode", op);
    let created = rt.create_offcode(Guid(1), T0);
    tracer.exit(1);
    life.create_ns = t.elapsed().as_nanos() as f64;
    created.map_err(|e| format!("create_offcode: {e}"))?;
    life.deploy_ns = started.elapsed().as_nanos() as f64;

    let mut d = Digest::default();
    let mut ids = Vec::with_capacity(n);
    let mut placement = Vec::with_capacity(n);
    for g in 1..=n as u64 {
        let id = rt
            .get_offcode(Guid(g))
            .ok_or(format!("guid {g} not deployed"))?;
        let dev = rt.device_of(id).ok_or("deployed instance without device")?;
        d.word(u64::from(dev.0));
        ids.push(id);
        placement.push(dev);
    }
    tracer.enter("runtime.invoke", op);
    let mut calls = 0;
    for (i, &id) in ids.iter().enumerate() {
        for _ in 0..app.invokes[i] {
            rt.invoke(id, &Call::new(Guid(i as u64 + 1), "frame"), T0)
                .map_err(|e| format!("invoke: {e}"))?;
            calls += 1;
        }
    }
    tracer.exit(calls);

    // Crash the device hosting the most Offcodes (lowest id on a tie).
    let mut load = vec![0u32; reg.len()];
    for dev in &placement {
        load[dev.idx()] += 1;
    }
    let victim = (1..load.len())
        .max_by_key(|&k| (load[k], std::cmp::Reverse(k)))
        .filter(|&k| load[k] > 0)
        .map(|k| DeviceId(k as u32))
        .ok_or("nothing was offloaded")?;
    let plan = FaultPlan::new(op).with_event(ms(app.crash_at_ms), victim.idx(), FaultKind::Crash);
    tracer.enter("runtime.install_fault_plan", op);
    rt.install_fault_plan(&plan);
    tracer.exit(1);

    let mut reports = Vec::new();
    for tick in 1..=MAX_PULSES {
        let t = Instant::now();
        tracer.enter("runtime.pulse", op);
        let pulsed = rt.pulse(ms(tick));
        tracer.exit(1);
        let pulsed = pulsed.map_err(|e| format!("pulse: {e}"))?;
        if !pulsed.is_empty() {
            life.recover_ns = t.elapsed().as_nanos() as f64;
            life.sim_ms = tick;
            reports = pulsed;
            break;
        }
    }
    let [report] = reports.as_slice() else {
        return Err(format!("expected one recovery, got {}", reports.len()));
    };
    if report.device != victim || !report.constraints_ok {
        return Err(format!("bad recovery report {report:?}"));
    }
    let audit = rt.audit_connections();
    if !audit.is_empty() {
        return Err(format!("connection audit: {audit:?}"));
    }
    d.word(u64::from(report.device.0));
    for name in &report.displaced {
        d.text(name);
    }
    for (g, dev) in &report.migrated {
        d.word(g.0);
        d.word(u64::from(dev.0));
    }
    for g in &report.redeployed {
        d.word(g.0);
    }
    d.word(report.host_fallbacks as u64);
    life.migrated = report.migrated.len() as u64;
    life.redeployed = report.redeployed.len() as u64;
    life.host_fallbacks = report.host_fallbacks as u64;

    // Every Offcode survived off the failed device; stateful ones kept
    // their call counts, redeployed ones start over.
    let after = ms(MAX_PULSES + 1);
    let mut live = Vec::with_capacity(n);
    for g in 1..=n as u64 {
        let id = rt.get_offcode(Guid(g)).ok_or(format!("guid {g} lost"))?;
        let dev = rt.device_of(id).ok_or("instance without device")?;
        if dev == victim {
            return Err(format!("guid {g} still on failed {victim}"));
        }
        let count = match rt.invoke(id, &Call::new(Guid(g), "get"), after) {
            Ok(Value::U64(c)) => c,
            other => return Err(format!("get on guid {g}: {other:?}")),
        };
        let want = if report.redeployed.contains(&Guid(g)) {
            0
        } else {
            app.invokes[g as usize - 1]
        };
        if count != want {
            return Err(format!("guid {g} counted {count} calls, expected {want}"));
        }
        d.word(u64::from(dev.0));
        live.push(id);
    }

    tracer.enter("runtime.teardown", op);
    for &id in &live {
        rt.teardown(id);
    }
    tracer.exit(live.len() as u64);
    if !rt.deployments().is_empty() {
        return Err("teardown left instances behind".into());
    }
    tracer.exit(0);
    life.wall_ns = started.elapsed().as_nanos() as f64;
    life.digest = d.0;
    Ok((
        life,
        ReplayInput {
            odfs,
            placement,
            victim,
        },
    ))
}

/// Per-layer replay totals of the traced run.
#[derive(Debug, Default)]
struct Replays {
    ops: u64,
    create_ns: f64,
    recover_ns: f64,
    verify_ns: f64,
    solve_ns: f64,
    greedy_ns: f64,
    load_ns: f64,
    repair_ns: f64,
    solves: u64,
    nodes: u64,
    presolved: u64,
    repair_nodes: u64,
    warm_hits: u64,
}

/// Replays the phases `create_offcode` and the recovery pulse compose —
/// verify, exact solve (plus the greedy comparison the runtime runs
/// beside it), per-Offcode link/load, warm-started repair — through
/// their public functions on the lifecycle's own inputs, so each phase's
/// host time is isolated.
fn replay(
    input: &ReplayInput,
    app: &App,
    reg: &DeviceRegistry,
    tracer: &mut Tracer,
    r: &mut Replays,
    op: u64,
) {
    // The runtime's deployment order: depth-first from the root.
    let mut order: Vec<usize> = Vec::new();
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        if order.contains(&i) {
            continue;
        }
        order.push(i);
        stack.extend(
            input.odfs[i]
                .imports
                .iter()
                .map(|imp| imp.guid.0 as usize - 1),
        );
    }
    let odfs: Vec<OdfDocument> = order.iter().map(|&i| input.odfs[i].clone()).collect();
    let members: Vec<Member> = order
        .iter()
        .map(|&i| member(&input.odfs[i], !app.stateless[i]))
        .collect();
    let demands: Vec<u64> = members
        .iter()
        .map(|m| u64::from(m.object_file().load_size()))
        .collect();
    let objective = config().objective;
    let table = reg.verify_table();

    let t = Instant::now();
    tracer.enter("replay.verify", op);
    let report = hydra_verify::verify(&hydra_verify::VerifyInput {
        odfs: &odfs,
        devices: &table,
        demands: Some(&demands),
        roots: Some(&[Guid(1)]),
    });
    tracer.exit(1);
    r.verify_ns += t.elapsed().as_nanos() as f64;
    debug_assert!(!report.has_errors());

    let graph = LayoutGraph::from_odfs(&odfs, reg).expect("generated set builds a graph");
    let t = Instant::now();
    tracer.enter("ilp.solve", op);
    let solved = graph.resolve_ilp_with_stats(&objective);
    tracer.exit(1);
    r.solve_ns += t.elapsed().as_nanos() as f64;
    if let Ok((_, stats)) = solved {
        r.solves += 1;
        r.nodes += stats.nodes;
        r.presolved += u64::from(stats.presolved);
    }
    let t = Instant::now();
    tracer.enter("layout.greedy", op);
    let _ = graph.resolve_greedy(&objective);
    tracer.exit(1);
    r.greedy_ns += t.elapsed().as_nanos() as f64;

    for (k, m) in members.iter().enumerate() {
        let dev = input.placement[order[k]];
        let desc = reg.get(dev);
        let mut alloc = DeviceMemoryAllocator::new(0x1_0000, desc.offcode_memory);
        let object = m.object_file();
        let t = Instant::now();
        tracer.enter("link.load", op);
        let loaded = load_host_side(std::slice::from_ref(&object), &mut alloc, &desc.exports);
        tracer.exit(1);
        r.load_ns += t.elapsed().as_nanos() as f64;
        debug_assert!(loaded.is_ok());
    }

    // The recovery layout: every live instance in instance-id (deploy)
    // order, the victim masked, healthy stateless instances pinned.
    let mut graph = LayoutGraph::from_odfs(&odfs, reg).expect("generated set builds a graph");
    graph
        .mask_device(input.victim)
        .expect("victim is not the host");
    let prev = Placement(order.iter().map(|&i| input.placement[i]).collect());
    for (k, &i) in order.iter().enumerate() {
        if app.stateless[i] && prev.0[k] != input.victim {
            graph.pin_node(NodeIdx(k), prev.0[k]);
        }
    }
    let t = Instant::now();
    tracer.enter("ilp.repair", op);
    let repaired = graph.repair(&prev, &GraphDelta::MaskDevice(input.victim), &objective);
    tracer.exit(1);
    r.repair_ns += t.elapsed().as_nanos() as f64;
    if let Ok((_, stats)) = repaired {
        r.repair_nodes += stats.nodes;
        r.warm_hits += u64::from(stats.warm_start_hits > 0);
    }
    r.ops += 1;
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Sizes cycle through 4..=16 so every seed's pool has the same size
    // mix; only structure, classes and traffic are random.
    let make_pool = || {
        let mut rng = Rng::new(cfg.seed).split(0xde91_0001);
        (0..POOL)
            .map(|i| generate(&mut rng, 4 + i % 13))
            .collect::<Vec<App>>()
    };
    let mut setup = SetupClock::new();
    let (pool, reg) = setup.time(|| (make_pool(), registry()));

    // Each application's quietest (minimum) host time over the passes:
    // the machine's speed drifts in phases of seconds, and noise only
    // ever adds time. Traced passes keep their own minima.
    let mut life = vec![f64::INFINITY; POOL];
    let mut deploy = vec![f64::INFINITY; POOL];
    let mut recover = vec![f64::INFINITY; POOL];
    let mut traced_life = vec![f64::INFINITY; POOL];
    let mut sim_ms = vec![0u64; POOL];
    let mut traced_wall = 0.0;
    let mut first_pass: Vec<Option<u64>> = vec![None; POOL];
    let mut replays = Replays::default();
    let (mut migrated, mut redeployed, mut host_fallbacks, mut pass_work) = (0, 0, 0, 0);
    let started = Instant::now();
    let mut op = 0u64;
    // Whole passes over the pool, so traced and untraced passes (which
    // alternate in the traced run) see the same applications.
    while (op as usize) < POOL || started.elapsed() < cfg.measure || !op.is_multiple_of(POOL as u64)
    {
        let i = op as usize % POOL;
        let pass = op / POOL as u64;
        let traced = cfg.traced && pass % 2 == 1;
        tracer.set_on(traced);
        out.attempted += 1;
        match lifecycle(&pool[i], &reg, tracer, op) {
            Ok((got, input)) => {
                if pass == 0 {
                    first_pass[i] = Some(got.digest);
                } else if first_pass[i].is_some_and(|d| d != got.digest) {
                    out.failed += 1;
                    out.problems
                        .push(format!("application {i}: digest changed on replay"));
                }
                sim_ms[i] = got.sim_ms;
                if traced {
                    traced_life[i] = traced_life[i].min(got.wall_ns);
                    traced_wall += got.wall_ns;
                    replays.create_ns += got.create_ns;
                    replays.recover_ns += got.recover_ns;
                    replay(&input, &pool[i], &reg, tracer, &mut replays, op);
                } else {
                    life[i] = life[i].min(got.wall_ns);
                    deploy[i] = deploy[i].min(got.deploy_ns);
                    recover[i] = recover[i].min(got.recover_ns);
                }
                migrated += got.migrated;
                redeployed += got.redeployed;
                host_fallbacks += got.host_fallbacks;
                pass_work += got.pass_work;
            }
            Err(e) => {
                tracer.close_all();
                out.failed += 1;
                out.problems.push(format!("application {i}: {e}"));
            }
        }
        tracer.set_on(false);
        op += 1;
        if op.is_multiple_of(POOL as u64) {
            setup.maybe_repeat(|| (make_pool(), registry()));
        }
    }
    out.problems.truncate(8);

    let mut d = Digest::default();
    for v in &first_pass {
        d.word(v.unwrap_or(0));
    }
    out.notes.push(format!("output digest {:#018x}", d.0));
    if let Some(expected) = cfg.expected("deploy_recover") {
        if expected != d.0 {
            out.failed += 1;
            out.problems
                .push(format!("digest {:#018x} != expected {expected:#018x}", d.0));
        }
    }

    let measured = |v: &[f64]| {
        let mut dist = Dist::default();
        for &x in v.iter().filter(|x| x.is_finite()) {
            dist.push(x);
        }
        dist
    };
    let (life_d, deploy_d, recover_d) = (measured(&life), measured(&deploy), measured(&recover));
    let us = |dist: &Dist, q: f64| dist.quantile(q).map_or(f64::NAN, |v| v / 1e3);
    let secs = life_d.sum() * 1e-9;
    let sim_total: u64 = (0..POOL)
        .filter(|&i| life[i].is_finite())
        .map(|i| sim_ms[i])
        .sum();
    let (setup_s, reps) = setup.median();
    out.set("setup_s", setup_s, reps);
    out.set("peak_rss_mib", peak_rss_mib(), 1);
    out.set("sim_ms_per_s", sim_total as f64 / secs, life_d.len());
    out.set("units_per_s", life_d.len() as f64 / secs, life_d.len());
    out.set("lat_p50_us", us(&deploy_d, 0.5), deploy_d.len());
    out.set("lat_tail_us", us(&deploy_d, 0.99), deploy_d.len());
    out.aliases
        .push(("deploys_per_s", "units_per_s", out.figures["units_per_s"]));
    out.aliases
        .push(("deploy_p50_us", "lat_p50_us", out.figures["lat_p50_us"]));
    out.aliases
        .push(("deploy_p99_us", "lat_tail_us", out.figures["lat_tail_us"]));
    for (alias, q) in [("recover_p50_us", 0.5), ("recover_p99_us", 0.99)] {
        let fig = crate::report::Figure {
            value: us(&recover_d, q),
            samples: recover_d.len(),
        };
        out.aliases.push((alias, "recovery pulse", fig));
    }

    if cfg.traced {
        let all = out.attempted.max(1) as f64;
        let r = &replays;
        let n = r.ops.max(1) as f64;
        let loads = tracer.total("link.load");
        out.notes.push(
            "runtime.create_offcode.self_ns and runtime.recover.ns are remainders: the \
             replayed verify/solve/greedy/load (resp. repair) time is subtracted"
                .into(),
        );
        out.set(
            "runtime.create_offcode.self_ns",
            (r.create_ns - r.verify_ns - r.solve_ns - r.greedy_ns - r.load_ns) / n,
            r.ops,
        );
        let teardown = tracer.total("runtime.teardown");
        out.set(
            "runtime.teardown.ns",
            teardown.self_ns as f64 / teardown.count.max(1) as f64,
            teardown.count,
        );
        out.set(
            "runtime.recover.ns",
            (r.recover_ns - r.repair_ns) / n,
            r.ops,
        );
        out.set(
            "runtime.recover.p99_ns",
            recover_d.quantile(0.99).unwrap_or(f64::NAN),
            recover_d.len(),
        );
        out.set("runtime.migrated", migrated as f64 / all, out.attempted);
        out.set("runtime.redeployed", redeployed as f64 / all, out.attempted);
        out.set(
            "runtime.host_fallbacks",
            host_fallbacks as f64 / all,
            out.attempted,
        );
        out.set("ilp.solve.ns", r.solve_ns / n, r.ops);
        out.set(
            "ilp.nodes",
            r.nodes as f64 / r.solves.max(1) as f64,
            r.solves,
        );
        out.set(
            "ilp.ns_per_node",
            r.solve_ns / r.nodes.max(1) as f64,
            r.nodes,
        );
        out.set(
            "ilp.presolved_frac",
            r.presolved as f64 / r.solves.max(1) as f64,
            r.solves,
        );
        out.set("ilp.repair.ns", r.repair_ns / n, r.ops);
        out.set("ilp.repair.nodes", r.repair_nodes as f64 / n, r.ops);
        out.set("ilp.warm_start_hit_frac", r.warm_hits as f64 / n, r.ops);
        let certify = tracer.total("verify.certify");
        out.set("verify.certify.ns", certify.ns_per_unit(), certify.count);
        out.set("verify.pass_work", pass_work as f64 / all, out.attempted);
        let parse = tracer.total("odf.parse");
        out.set(
            "odf.parse.ns_per_kib",
            parse.self_ns as f64 / (parse.units.max(1) as f64 / 1024.0),
            parse.count,
        );
        out.set("link.load.ns", loads.ns_per_unit(), loads.count);

        // Residual: lifecycle wall time not covered by a bracketed call.
        let inside: u64 = [
            "odf.parse",
            "runtime.new",
            "runtime.register_offcode",
            "verify.certify",
            "runtime.create_offcode",
            "runtime.invoke",
            "runtime.install_fault_plan",
            "runtime.pulse",
            "runtime.teardown",
        ]
        .iter()
        .map(|s| tracer.total(s).self_ns)
        .sum();
        out.set(
            "residual.frac",
            (traced_wall - inside as f64) / traced_wall,
            r.ops,
        );
        let traced_d = measured(&traced_life);
        out.set(
            "trace.overhead_frac",
            traced_d.sum() / life_d.sum() - 1.0,
            traced_d.len().min(life_d.len()),
        );
    }
    out
}
