//! `tivo_pc`: the paper's own workload (§6, Table 4 and Figures 9–10).
//!
//! Each cycle runs the user-space and the offloaded client (`run_client`)
//! and the simple and the offloaded server (`run_server`) on the paper's
//! 1 KiB / 5 ms stream for a fixed simulated duration. This loads the
//! engine, the device models, the hardware models (cache, bus, CPU) and
//! the network models, and never touches `Runtime`, channels or the
//! recorder. The traced run adds the idle client as the background-only
//! baseline.

use std::time::Instant;

use hydra_sim::engine::SchedulerKind;
use hydra_sim::stats::Samples;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;
use hydra_tivo::{
    run_client, run_server, ClientConfig, ClientKind, ClientRun, ServerConfig, ServerKind,
};

use crate::report::Outcome;
use crate::support::{peak_rss_mib, Digest, Rng, SetupClock};
use crate::trace::Tracer;
use crate::RunConfig;

/// Simulated length of every scenario run.
const DURATION: SimDuration = SimDuration::from_secs(3);
/// Utilization / L2 sampling window: short enough that a run closes
/// several, so the cache and CPU models reach the output digest.
const WINDOW: SimDuration = SimDuration::from_millis(500);
/// Simulated length of each scenario's warm-up run at setup.
const WARMUP: SimDuration = SimDuration::from_millis(100);

/// The four scenarios a cycle runs, with their per-layer metric names.
const SCENARIOS: [Scenario; 4] = [
    Scenario::Client(ClientKind::UserSpace, "tivo.client_userspace"),
    Scenario::Client(ClientKind::Offloaded, "tivo.client_offloaded"),
    Scenario::Server(ServerKind::Simple, "tivo.server_simple"),
    Scenario::Server(ServerKind::Offloaded, "tivo.server_offloaded"),
];
const IDLE: Scenario = Scenario::Client(ClientKind::Idle, "tivo.client_idle");

#[derive(Debug, Clone, Copy)]
enum Scenario {
    Client(ClientKind, &'static str),
    Server(ServerKind, &'static str),
}

/// What one scenario run produced, reduced to the checked figures.
#[derive(Debug)]
struct Ran {
    packets: u64,
    digest: u64,
    problem: Option<String>,
}

fn summary_bits(d: &mut Digest, s: &Samples) {
    if s.is_empty() {
        d.word(0);
        return;
    }
    let sum = s.summary();
    for v in [sum.mean, sum.min, sum.max, s.percentile(99.0)] {
        d.word(v.to_bits());
    }
}

fn check_client(run: &ClientRun, duration: SimDuration) -> Option<String> {
    let expected = duration.as_nanos() / SimDuration::from_millis(5).as_nanos();
    match run.kind {
        ClientKind::Idle => {
            (run.packets != 0).then(|| format!("idle client saw {} packets", run.packets))
        }
        kind => {
            if run.packets != expected {
                Some(format!(
                    "{kind:?}: {} packets, expected {expected}",
                    run.packets
                ))
            } else if run.frames_decoded == 0 || run.bytes_stored == 0 {
                Some(format!("{kind:?}: nothing decoded or stored"))
            } else if kind == ClientKind::Offloaded && run.bus_transactions != run.packets * 4 {
                Some(format!(
                    "offloaded client: {} bus transactions for {} packets",
                    run.bus_transactions, run.packets
                ))
            } else {
                None
            }
        }
    }
}

fn run_scenario(s: Scenario, seed: u64, duration: SimDuration) -> Ran {
    let mut d = Digest::default();
    match s {
        Scenario::Client(kind, _) => {
            let mut cfg = ClientConfig::paper(kind, seed);
            cfg.duration = duration;
            cfg.sample_period = WINDOW;
            let run = run_client(cfg);
            for v in [
                run.packets,
                run.frames_decoded,
                run.bytes_stored,
                run.bus_transactions,
            ] {
                d.word(v);
            }
            summary_bits(&mut d, &run.cpu_util);
            summary_bits(&mut d, &run.l2_miss_rate);
            Ran {
                packets: run.packets,
                digest: d.0,
                problem: check_client(&run, duration),
            }
        }
        Scenario::Server(kind, _) => {
            let mut cfg = ServerConfig::paper(kind, seed);
            cfg.duration = duration;
            cfg.sample_period = WINDOW;
            let run = run_server(cfg);
            d.word(run.packets_delivered);
            summary_bits(&mut d, &run.jitter_ms);
            summary_bits(&mut d, &run.cpu_util);
            summary_bits(&mut d, &run.l2_miss_rate);
            let problem = (run.packets_delivered == 0 || run.jitter_ms.is_empty())
                .then(|| format!("{kind:?} server delivered nothing"));
            Ran {
                packets: run.packets_delivered,
                digest: d.0,
                problem,
            }
        }
    }
}

fn span_name(s: Scenario) -> &'static str {
    match s {
        Scenario::Client(_, n) | Scenario::Server(_, n) => n,
    }
}

/// The engine alone under a client run's event cadences (1 ms background
/// tick, 5 ms stream, 5 s sampling window), with empty handlers: the
/// host cost `hydra-sim` itself adds to a TiVoPC run.
fn engine_replay(duration: SimDuration) -> Sim<u64> {
    let end = SimTime::ZERO + duration;
    let mut sim = Sim::with_scheduler(0u64, SchedulerKind::Calendar);
    for (start, period) in [
        (SimDuration::ZERO, SimDuration::from_millis(1)),
        (SimDuration::from_millis(5), SimDuration::from_millis(5)),
        (SimDuration::from_secs(5), SimDuration::from_secs(5)),
    ] {
        sim.every(SimTime::ZERO + start, period, move |sim| {
            *sim.model_mut() += 1;
            sim.now() < end
        });
    }
    sim.run_until(end);
    sim
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = Rng::new(cfg.seed).split(0x7170_0001).next_u64();
    // Set-up is a warm-up: every scenario once, briefly, so lazy set-up
    // and caches are done before timing.
    let warm_up = || {
        for s in SCENARIOS {
            let _ = run_scenario(s, seed, WARMUP);
        }
    };
    let mut setup = SetupClock::new();
    setup.time(warm_up);

    // Each scenario's quietest (minimum) host time over the cycles: the
    // machine's speed drifts in phases of seconds, and noise only ever
    // adds time. Traced cycles keep their own minima.
    let mut quiet = [f64::INFINITY; SCENARIOS.len()];
    let mut quiet_traced = [f64::INFINITY; SCENARIOS.len()];
    let mut packets = [0u64; SCENARIOS.len()];
    let mut reference: Vec<u64> = Vec::new();
    let mut traced_wall = 0.0;
    let mut cycles = 0u64;
    let started = Instant::now();
    let mut cycle = 0u64;
    while cycle < 2 || started.elapsed() < cfg.measure {
        let traced = cfg.traced && cycle % 2 == 1;
        tracer.set_on(traced);
        let t = Instant::now();
        for (k, &s) in SCENARIOS.iter().enumerate() {
            let r = Instant::now();
            tracer.enter(span_name(s), cycle);
            let ran = run_scenario(s, seed, DURATION);
            tracer.exit(1);
            let ns = r.elapsed().as_nanos() as f64;
            let slot = if traced {
                &mut quiet_traced[k]
            } else {
                &mut quiet[k]
            };
            *slot = slot.min(ns);
            packets[k] = ran.packets;
            out.attempted += 1;
            if let Some(p) = ran.problem {
                out.failed += 1;
                out.problems.push(p);
            } else if cycle == 0 {
                reference.push(ran.digest);
            } else if reference.get(k) != Some(&ran.digest) {
                out.failed += 1;
                out.problems
                    .push(format!("{}: digest changed on replay", span_name(s)));
            }
        }
        if traced {
            tracer.enter(span_name(IDLE), cycle);
            let ran = run_scenario(IDLE, seed, DURATION);
            tracer.exit(1);
            traced_wall += t.elapsed().as_nanos() as f64;
            out.attempted += 1;
            if let Some(p) = ran.problem {
                out.failed += 1;
                out.problems.push(p);
            }
        } else {
            cycles += 1;
        }
        tracer.set_on(false);
        cycle += 1;
        setup.maybe_repeat(warm_up);
    }
    out.problems.truncate(8);

    let mut d = Digest::default();
    for &v in &reference {
        d.word(v);
    }
    out.notes.push(format!("output digest {:#018x}", d.0));
    if let Some(expected) = cfg.expected("tivo_pc") {
        if expected != d.0 {
            out.failed += 1;
            out.problems
                .push(format!("digest {:#018x} != expected {expected:#018x}", d.0));
        }
    }

    let quiet_s: f64 = quiet.iter().sum::<f64>() * 1e-9;
    let sim_ms = DURATION.as_nanos() as f64 / 1e6;
    let mut sorted = quiet;
    sorted.sort_by(f64::total_cmp);
    let median = (sorted[1] + sorted[2]) / 2.0;
    let slowest = sorted[3];
    let (setup_s, reps) = setup.median();
    out.set("setup_s", setup_s, reps);
    out.set("peak_rss_mib", peak_rss_mib(), 1);
    out.set(
        "sim_ms_per_s",
        sim_ms * SCENARIOS.len() as f64 / quiet_s,
        cycles,
    );
    out.set(
        "units_per_s",
        packets.iter().sum::<u64>() as f64 / quiet_s,
        cycles,
    );
    // The step is one scenario run; a cycle has four, so the median
    // lies between the middle two and the tail is the slowest.
    out.set("lat_p50_us", median / 1e3, cycles);
    out.set("lat_tail_us", slowest / 1e3, cycles);
    out.aliases
        .push(("pkts_per_s", "units_per_s", out.figures["units_per_s"]));
    out.aliases
        .push(("run_p50_us", "lat_p50_us", out.figures["lat_p50_us"]));
    out.aliases
        .push(("run_max_us", "lat_tail_us", out.figures["lat_tail_us"]));

    if cfg.traced {
        for s in SCENARIOS.iter().copied().chain([IDLE]) {
            let name = span_name(s);
            let tot = tracer.total(name);
            let metric = match name {
                "tivo.client_userspace" => "tivo.client_userspace.host_ns_per_sim_ms",
                "tivo.client_offloaded" => "tivo.client_offloaded.host_ns_per_sim_ms",
                "tivo.server_simple" => "tivo.server_simple.host_ns_per_sim_ms",
                "tivo.server_offloaded" => "tivo.server_offloaded.host_ns_per_sim_ms",
                _ => "tivo.client_idle.host_ns_per_sim_ms",
            };
            out.set(metric, tot.ns_per_unit() / sim_ms, tot.count);
        }
        let t = Instant::now();
        tracer.set_on(true);
        tracer.enter("sim.run", 0);
        let sim = engine_replay(DURATION);
        tracer.exit(0);
        tracer.set_on(false);
        let engine_ns = t.elapsed().as_nanos() as f64;
        let events = sim.events_executed();
        out.notes.push(
            "sim.* come from replaying a client run's event cadences on the engine alone".into(),
        );
        out.set("sim.events", events as f64, 1);
        out.set("sim.ns_per_event", engine_ns / events.max(1) as f64, events);
        out.set("sim.sched_grows", sim.sched_stats().grows as f64, 1);
        out.set("sim.sched_shrinks", sim.sched_stats().shrinks as f64, 1);
        let inside: u64 = SCENARIOS
            .iter()
            .copied()
            .chain([IDLE])
            .map(|s| tracer.total(span_name(s)).self_ns)
            .sum();
        out.set(
            "residual.frac",
            (traced_wall - inside as f64) / traced_wall,
            cycle - cycles,
        );
        out.set(
            "trace.overhead_frac",
            quiet_traced.iter().sum::<f64>() / quiet.iter().sum::<f64>() - 1.0,
            (cycle - cycles).min(cycles),
        );
    }
    out
}
