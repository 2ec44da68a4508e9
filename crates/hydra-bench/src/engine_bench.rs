//! Engine-core benchmarks: scheduler hold model, end-to-end event churn,
//! and the demo deployment's batched message loop.
//!
//! Unlike [`crate::channel_bench`] this report mixes two kinds of
//! numbers:
//!
//! * **sim fields** — op counts, pop-stream checksums, simulated elapsed
//!   time. Fully deterministic; the artifact gate byte-diffs them across
//!   runs and against the committed `BENCH_engine.json`.
//! * **wall-clock fields** — real `std::time::Instant` measurements of
//!   the same workloads. Machine-dependent by nature, so every such key
//!   carries a `wall_` prefix and the gates strip those lines
//!   ([`crate::report::sim_fields`]) before any byte comparison; the
//!   calendar-vs-heap speedup is instead checked as a *ratio* with a
//!   wide tolerance band through the `hydra_obs` budget machinery.
//!
//! The headline scenario is the classic **hold model** (Vaucher &
//! Duval): keep [`HOLD_PENDING`] events in the scheduler and repeatedly
//! pop the earliest and push a replacement at a jittered future instant.
//! It isolates raw scheduler cost at a realistic steady-state size —
//! exactly where the calendar queue's O(1) amortized push/pop beats the
//! binary heap's O(log n) — and both schedulers must produce the *same*
//! pop stream (pinned by the `checksum` field).

use std::time::Instant;

use bytes::Bytes;
use hydra_core::channel::{BatchSendOutcome, ChannelConfig};
use hydra_core::device::DeviceId;
use hydra_obs::{MetricsSnapshot, Recorder};
use hydra_sim::engine::{SchedEntry, SchedStats, Scheduler};
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::{BinaryHeapScheduler, CalendarQueue, EventId, SchedulerKind, Sim, SlabKey};
use hydra_tivo::demo::demo_deployment;

use crate::report::{self, num, text, Report};

/// Events resident in the scheduler during the hold model. Deep enough
/// that the heap's O(log n) pays ~18 cache-missing levels per op while
/// the calendar stays O(1).
pub const HOLD_PENDING: usize = 262_144;

/// Pop-push operations per hold-model run.
pub const HOLD_OPS: usize = 262_144;

/// Self-rescheduling timers in the end-to-end churn simulation.
pub const CHURN_TIMERS: u64 = 1024;

/// Global event target the churn timers run until.
pub const CHURN_TARGET_EVENTS: u64 = 65_536;

/// Messages pushed through the demo deployment's bench channel.
pub const DEMO_MESSAGES: usize = 8192;

/// Messages per doorbell in the demo loop.
pub const DEMO_BATCH: usize = 32;

/// Payload bytes per demo message.
pub const DEMO_MSG_BYTES: usize = 256;

/// Wall-clock repetitions; the minimum is reported to damp noise.
pub const WALL_REPS: usize = 3;

/// One hold-model run: deterministic pop-stream facts plus wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldResult {
    /// Scenario name (`churn_heap` / `churn_calendar`).
    pub name: &'static str,
    /// Pop-push operations performed.
    pub ops: u64,
    /// Events resident throughout.
    pub pending: u64,
    /// Wrapping sum of every popped `(at, seq)` — identical across
    /// schedulers iff the pop streams are identical.
    pub checksum: u64,
    /// Best-of-[`WALL_REPS`] wall-clock time for the run.
    pub wall_elapsed_ns: u64,
    /// Scheduler introspection from the final rep (resize churn,
    /// high-water occupancy, calendar geometry). Deterministic for a
    /// given workload, but reported under `wall_sched_*` keys so
    /// calendar sizing heuristics can evolve without breaking the
    /// byte gate.
    pub sched: SchedStats,
}

impl HoldResult {
    /// Scheduler operations per wall-clock second.
    #[must_use]
    pub fn wall_events_per_sec(&self) -> u64 {
        per_sec(self.ops, self.wall_elapsed_ns)
    }
}

/// One end-to-end churn simulation run on a full [`Sim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnResult {
    /// Scenario name (`sim_churn_heap` / `sim_churn_calendar`).
    pub name: &'static str,
    /// Events executed (timer ticks + cancellation dummies).
    pub events: u64,
    /// Simulated time consumed — deterministic.
    pub sim_elapsed_ns: u64,
    /// Wall-clock time for the run.
    pub wall_elapsed_ns: u64,
    /// Scheduler introspection after the run (see
    /// [`HoldResult::sched`]).
    pub sched: SchedStats,
}

impl ChurnResult {
    /// Executed events per wall-clock second.
    #[must_use]
    pub fn wall_events_per_sec(&self) -> u64 {
        per_sec(self.events, self.wall_elapsed_ns)
    }
}

/// The demo deployment's batched send/recv loop measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemoResult {
    /// Messages sent and drained.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Simulated time consumed — deterministic.
    pub sim_elapsed_ns: u64,
    /// Best-of-[`WALL_REPS`] wall-clock time for the loop.
    pub wall_elapsed_ns: u64,
}

impl DemoResult {
    /// Wall-clock nanoseconds per message through the batched path.
    #[must_use]
    pub fn wall_ns_per_message(&self) -> u64 {
        self.wall_elapsed_ns / self.messages.max(1)
    }
}

/// Everything `BENCH_engine.json` is rendered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineBench {
    /// Hold-model runs: `[heap, calendar]`.
    pub hold: [HoldResult; 2],
    /// End-to-end churn runs: `[heap, calendar]`.
    pub churn: [ChurnResult; 2],
    /// The demo deployment message loop.
    pub demo: DemoResult,
}

impl EngineBench {
    /// Calendar-vs-heap hold-model speedup, ×100 (so `200` = 2×).
    #[must_use]
    pub fn wall_speedup_x100(&self) -> u64 {
        let heap = self.hold[0].wall_events_per_sec().max(1);
        self.hold[1].wall_events_per_sec() * 100 / heap
    }
}

fn per_sec(count: u64, wall_ns: u64) -> u64 {
    (u128::from(count) * 1_000_000_000 / u128::from(wall_ns.max(1))) as u64
}

/// Deterministic xorshift64 — the bench's only randomness source.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs every engine scenario and returns the full measurement set.
#[must_use]
pub fn run_engine_bench() -> EngineBench {
    EngineBench {
        hold: [
            run_hold("churn_heap", BinaryHeapScheduler::new),
            run_hold("churn_calendar", CalendarQueue::new),
        ],
        churn: [
            run_churn("sim_churn_heap", SchedulerKind::BinaryHeap),
            run_churn("sim_churn_calendar", SchedulerKind::Calendar),
        ],
        demo: run_demo(),
    }
}

fn run_hold<S: Scheduler>(name: &'static str, make: impl Fn() -> S) -> HoldResult {
    let mut best_wall = u64::MAX;
    let mut checksum = 0u64;
    let mut sched_stats = SchedStats::default();
    for _ in 0..WALL_REPS {
        let mut sched = make();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let key = SlabKey { slot: 0, gen: 0 };
        let mut seq = 0u64;
        let mut at = 0u64;
        for _ in 0..HOLD_PENDING {
            // Pre-fill with clustered timestamps so same-instant bursts
            // exist from the start (jitter of 0 is possible).
            at += xorshift(&mut rng) % 512;
            sched.push(SchedEntry {
                at: SimTime::from_nanos(at),
                seq,
                key,
            });
            seq += 1;
        }
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..HOLD_OPS {
            let popped = sched.pop().expect("hold model never drains");
            sum = sum
                .wrapping_add(popped.at.as_nanos())
                .wrapping_mul(31)
                .wrapping_add(popped.seq);
            let hold = xorshift(&mut rng) % 4096;
            sched.push(SchedEntry {
                at: popped.at + SimDuration::from_nanos(hold),
                seq,
                key,
            });
            seq += 1;
        }
        best_wall = best_wall.min(start.elapsed().as_nanos() as u64);
        checksum = sum;
        sched_stats = sched.stats();
        assert_eq!(sched.len(), HOLD_PENDING, "hold model keeps size fixed");
    }
    HoldResult {
        name,
        ops: HOLD_OPS as u64,
        pending: HOLD_PENDING as u64,
        checksum,
        wall_elapsed_ns: best_wall,
        sched: sched_stats,
    }
}

struct ChurnModel {
    fired: u64,
    dummy: Option<EventId>,
}

fn run_churn(name: &'static str, kind: SchedulerKind) -> ChurnResult {
    let mut sim = Sim::with_scheduler(
        ChurnModel {
            fired: 0,
            dummy: None,
        },
        kind,
    );
    for i in 0..CHURN_TIMERS {
        // Clustered phases and harmonically related periods: plenty of
        // same-instant bursts, exactly what the FIFO tie-break protects.
        let phase = SimTime::from_nanos(i % 97);
        let period = SimDuration::from_nanos(800 + (i % 64) * 25);
        sim.every(phase, period, move |s| {
            s.model_mut().fired += 1;
            let fired = s.model().fired;
            if fired % 32 == 0 {
                // Cancellation churn: retire the previous far-future
                // dummy and park a new one, so the slab's stale-key
                // path stays hot in steady state.
                if let Some(old) = s.model_mut().dummy.take() {
                    s.cancel(old);
                }
                let at = s.now().saturating_add(SimDuration::from_millis(500));
                let id = s.schedule_at(at, |_| {});
                s.model_mut().dummy = Some(id);
            }
            fired < CHURN_TARGET_EVENTS
        });
    }
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_nanos() as u64;
    ChurnResult {
        name,
        events: sim.events_executed(),
        sim_elapsed_ns: sim.now().as_nanos(),
        wall_elapsed_ns: wall,
        sched: sim.sched_stats(),
    }
}

fn run_demo() -> DemoResult {
    let mut best_wall = u64::MAX;
    let mut sim_elapsed = 0u64;
    for _ in 0..WALL_REPS {
        let mut rt = demo_deployment();
        let exec = rt.executive_mut();
        let chan = exec
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .expect("bench channel on the NIC");
        let ch = exec.get_mut(chan).expect("channel is live");
        let ep = ch.connect_endpoint().expect("fresh channel has room");
        let payload = Bytes::from(vec![0x5Au8; DEMO_MSG_BYTES]);
        let batch: Vec<Bytes> = vec![payload; DEMO_BATCH];
        // One reused outcome: after warm-up the steady-state loop does
        // no heap allocation — payload handles are refcounted clones
        // flowing through `send_batch_into`.
        let mut outcome = BatchSendOutcome {
            delivered_at: Vec::new(),
            rejected: 0,
            dropped: 0,
            complete_at: SimTime::ZERO,
            retries: 0,
        };
        let start = Instant::now();
        let mut now = SimTime::ZERO;
        let mut sent = 0usize;
        let mut drained = 0usize;
        while sent < DEMO_MESSAGES {
            let n = DEMO_BATCH.min(DEMO_MESSAGES - sent);
            ch.send_batch_into(now, &batch[..n], &mut outcome);
            assert_eq!(outcome.accepted(), n, "drained channel accepts the batch");
            now = outcome.complete_at;
            drained += ch.recv_batch(now, ep, usize::MAX).len();
            sent += n;
        }
        best_wall = best_wall.min(start.elapsed().as_nanos() as u64);
        assert_eq!(drained, DEMO_MESSAGES, "every message delivered");
        sim_elapsed = now.as_nanos();
    }
    DemoResult {
        messages: DEMO_MESSAGES as u64,
        bytes: (DEMO_MESSAGES * DEMO_MSG_BYTES) as u64,
        sim_elapsed_ns: sim_elapsed,
        wall_elapsed_ns: best_wall,
    }
}

/// Renders the `BENCH_engine.json` report through the shared
/// [`crate::report`] serializer: `"schema": 1`, one key per line,
/// `wall_` prefix on every nondeterministic field.
#[must_use]
pub fn render_json(bench: &EngineBench) -> String {
    let mut rep = Report {
        bench: "engine",
        config: vec![
            num("hold_pending", HOLD_PENDING as u64),
            num("hold_ops", HOLD_OPS as u64),
            num("churn_timers", CHURN_TIMERS),
            num("churn_target_events", CHURN_TARGET_EVENTS),
            num("demo_messages", DEMO_MESSAGES as u64),
            num("demo_batch", DEMO_BATCH as u64),
            num("demo_bytes_per_message", DEMO_MSG_BYTES as u64),
        ],
        scenarios: Vec::new(),
    };
    for h in &bench.hold {
        rep.scenarios.push(vec![
            text("name", h.name),
            num("ops", h.ops),
            num("pending", h.pending),
            num("checksum", h.checksum),
            num("wall_elapsed_ns", h.wall_elapsed_ns),
            num("wall_events_per_sec", h.wall_events_per_sec()),
            num("wall_sched_grows", h.sched.grows),
            num("wall_sched_shrinks", h.sched.shrinks),
            num("wall_sched_max_pending", h.sched.max_pending),
            num("wall_sched_buckets", h.sched.buckets),
            num("wall_sched_bucket_width_ns", h.sched.bucket_width_ns),
        ]);
    }
    for c in &bench.churn {
        rep.scenarios.push(vec![
            text("name", c.name),
            num("events", c.events),
            num("sim_elapsed_ns", c.sim_elapsed_ns),
            num("wall_elapsed_ns", c.wall_elapsed_ns),
            num("wall_events_per_sec", c.wall_events_per_sec()),
            num("wall_sched_grows", c.sched.grows),
            num("wall_sched_shrinks", c.sched.shrinks),
            num("wall_sched_max_pending", c.sched.max_pending),
            num("wall_sched_buckets", c.sched.buckets),
            num("wall_sched_bucket_width_ns", c.sched.bucket_width_ns),
        ]);
    }
    rep.scenarios.push(vec![
        text("name", "demo_send_batch"),
        num("messages", bench.demo.messages),
        num("bytes", bench.demo.bytes),
        num("sim_elapsed_ns", bench.demo.sim_elapsed_ns),
        num("wall_elapsed_ns", bench.demo.wall_elapsed_ns),
        num("wall_ns_per_message", bench.demo.wall_ns_per_message()),
    ]);
    rep.scenarios.push(vec![
        text("name", "speedup"),
        num("wall_calendar_vs_heap_x100", bench.wall_speedup_x100()),
    ]);
    report::render(&rep)
}

/// Re-expresses the measurements as a [`MetricsSnapshot`] so the budget
/// comparator can gate them: deterministic counters get zero-tolerance
/// budget lines, the wall-clock speedup ratio gets a wide band.
#[must_use]
pub fn engine_snapshot(bench: &EngineBench) -> MetricsSnapshot {
    let rec = Recorder::new();
    for h in &bench.hold {
        rec.counter_add("bench.ops", h.name, h.ops);
        rec.counter_add("bench.checksum", h.name, h.checksum);
    }
    for c in &bench.churn {
        rec.counter_add("bench.events", c.name, c.events);
        rec.counter_add("bench.sim_elapsed_ns", c.name, c.sim_elapsed_ns);
    }
    rec.counter_add("bench.messages", "demo_send_batch", bench.demo.messages);
    rec.counter_add(
        "bench.sim_elapsed_ns",
        "demo_send_batch",
        bench.demo.sim_elapsed_ns,
    );
    rec.counter_add(
        "bench.wall_speedup_x100",
        "churn",
        bench.wall_speedup_x100(),
    );
    rec.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{read_u64, sim_fields};

    #[test]
    fn sim_fields_are_deterministic_across_runs() {
        let a = run_engine_bench();
        let b = run_engine_bench();
        assert_eq!(
            sim_fields(&render_json(&a)),
            sim_fields(&render_json(&b)),
            "everything outside wall_ lines must be byte-identical"
        );
    }

    #[test]
    fn both_schedulers_pop_the_same_hold_stream() {
        let bench = run_engine_bench();
        assert_eq!(
            bench.hold[0].checksum, bench.hold[1].checksum,
            "heap and calendar must pop identical (at, seq) streams"
        );
        assert_eq!(bench.churn[0].events, bench.churn[1].events);
        assert_eq!(bench.churn[0].sim_elapsed_ns, bench.churn[1].sim_elapsed_ns);
    }

    #[test]
    fn sched_introspection_lands_in_the_report() {
        let bench = run_engine_bench();
        // Hold model: the heap only tracks its high-water mark; the
        // calendar additionally reports geometry and resize churn.
        assert_eq!(bench.hold[0].sched.max_pending, HOLD_PENDING as u64);
        assert_eq!(bench.hold[0].sched.buckets, 0);
        assert!(bench.hold[1].sched.max_pending >= HOLD_PENDING as u64);
        assert!(
            bench.hold[1].sched.grows >= 1,
            "pre-fill grows the calendar"
        );
        assert!(bench.hold[1].sched.buckets > 0);
        let json = render_json(&bench);
        assert!(json.contains("\"wall_sched_max_pending\""));
        assert!(json.contains("\"wall_sched_buckets\""));
    }

    #[test]
    fn report_carries_schema_and_headline_fields() {
        let bench = run_engine_bench();
        let json = render_json(&bench);
        assert_eq!(
            read_u64(&json, "schema"),
            Some(report::SCHEMA_VERSION.into())
        );
        assert_eq!(read_u64(&json, "ops"), Some(HOLD_OPS as u64));
        assert_eq!(
            read_u64(&json, "wall_calendar_vs_heap_x100"),
            Some(bench.wall_speedup_x100())
        );
        assert!(json.contains("\"name\": \"demo_send_batch\""));
    }

    #[test]
    fn snapshot_mirrors_the_deterministic_fields() {
        let bench = run_engine_bench();
        let snap = engine_snapshot(&bench);
        assert_eq!(
            snap.counter("bench.checksum", "churn_calendar"),
            Some(bench.hold[1].checksum)
        );
        assert_eq!(
            snap.counter("bench.messages", "demo_send_batch"),
            Some(bench.demo.messages)
        );
    }
}
