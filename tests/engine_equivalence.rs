//! Differential proof that the calendar-queue scheduler is observably
//! identical to the `BinaryHeap` reference oracle.
//!
//! Every committed byte-identical artifact — metrics snapshots, Chrome
//! traces, fault-recovery reports, `BENCH_*.json` — rides on the engine
//! executing events in exactly the order the heap always did. These
//! property tests drive both schedulers with the *same* randomized
//! schedules (same-timestamp bursts, cancellations, nested scheduling,
//! fault-plan events on the demo deployment) and demand identical
//! observable behavior at every layer: raw pop order, execution logs,
//! snapshot bytes, trace bytes.

use proptest::prelude::*;

use hydra::core::call::Call;
use hydra::odf::odf::Guid;
use hydra::sim::engine::{SchedEntry, Scheduler};
use hydra::sim::fault::{FaultKind, FaultPlan};
use hydra::sim::time::{SimDuration, SimTime};
use hydra::sim::{BinaryHeapScheduler, CalendarQueue, EventId, SchedulerKind, Sim, SlabKey};
use hydra::tivo::demo::demo_deployment;

// -------------------------------------------------------------------
// Layer 1: raw Scheduler contract — identical pop streams.
// -------------------------------------------------------------------

/// One step of a raw scheduler workload: push a burst at an offset from
/// the last popped time, then pop a few.
#[derive(Debug, Clone)]
struct RawStep {
    /// Nanoseconds ahead of the current minimum to push at. Small range
    /// on purpose: collisions (same-instant bursts) must be common.
    offset: u64,
    /// How many entries to push at that instant.
    burst: usize,
    /// How many entries to pop afterwards.
    pops: usize,
}

/// The vendored proptest has no tuple strategies, so each step is one
/// random word decoded field-by-field (deterministically).
fn decode_raw(word: u64) -> RawStep {
    RawStep {
        offset: word % 5_000,
        burst: 1 + (word / 5_000 % 3) as usize,
        pops: (word / 15_000 % 4) as usize,
    }
}

fn raw_steps() -> impl Strategy<Value = Vec<RawStep>> {
    proptest::collection::vec(any::<u64>(), 1..120)
        .prop_map(|words| words.into_iter().map(decode_raw).collect())
}

fn drive_raw<S: Scheduler>(sched: &mut S, steps: &[RawStep]) -> Vec<(SimTime, u64)> {
    let key = SlabKey { slot: 0, gen: 0 };
    let mut seq = 0u64;
    let mut floor = 0u64; // monotone lower bound, like Sim's clock
    let mut popped = Vec::new();
    for step in steps {
        for _ in 0..step.burst {
            sched.push(SchedEntry {
                at: SimTime::from_nanos(floor + step.offset),
                seq,
                key,
            });
            seq += 1;
        }
        for _ in 0..step.pops {
            if let Some(e) = sched.pop() {
                floor = e.at.as_nanos();
                popped.push((e.at, e.seq));
            }
        }
    }
    while let Some(e) = sched.pop() {
        popped.push((e.at, e.seq));
    }
    popped
}

proptest! {
    #[test]
    fn raw_pop_streams_are_identical(steps in raw_steps()) {
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::new();
        let a = drive_raw(&mut heap, &steps);
        let b = drive_raw(&mut cal, &steps);
        prop_assert_eq!(a, b, "pop order must match the reference oracle");
    }
}

// -------------------------------------------------------------------
// Layer 2: full Sim — identical execution logs under bursts,
// cancellations, and nested same-instant scheduling.
// -------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SimOp {
    /// Schedule `burst` events at `now + offset_ns`, each logging its
    /// own tag. `nested` of them schedule a follow-up at the same
    /// instant from inside their own execution.
    Schedule {
        offset_ns: u64,
        burst: usize,
        nested: bool,
    },
    /// Cancel the `pick`-th previously returned [`EventId`] (modulo the
    /// number of live handles). Double-cancels are exercised naturally
    /// because handles are not removed from the list.
    Cancel { pick: usize },
}

/// One random word per op, decoded deterministically: one op in five is
/// a cancel, the rest schedule bursts (half of them nesting).
fn decode_sim_op(word: u64) -> SimOp {
    if word.is_multiple_of(5) {
        SimOp::Cancel {
            pick: (word / 5 % 64) as usize,
        }
    } else {
        SimOp::Schedule {
            offset_ns: word / 5 % 2_000,
            burst: 1 + (word / 10_000 % 3) as usize,
            nested: (word / 30_000).is_multiple_of(2),
        }
    }
}

fn sim_ops() -> impl Strategy<Value = Vec<SimOp>> {
    proptest::collection::vec(any::<u64>(), 1..80)
        .prop_map(|words| words.into_iter().map(decode_sim_op).collect())
}

fn drive_sim(kind: SchedulerKind, ops: &[SimOp]) -> (Vec<u64>, u64, u64) {
    let mut sim = Sim::with_scheduler(Vec::<u64>::new(), kind);
    let mut handles: Vec<EventId> = Vec::new();
    let mut tag = 0u64;
    for op in ops {
        match *op {
            SimOp::Schedule {
                offset_ns,
                burst,
                nested,
            } => {
                for b in 0..burst {
                    let my_tag = tag;
                    tag += 1;
                    let at = sim.now() + SimDuration::from_nanos(offset_ns);
                    let id = sim.schedule_at(at, move |s| {
                        s.model_mut().push(my_tag);
                        if nested && b == 0 {
                            // Same-instant follow-up from inside an
                            // event: must run after everything already
                            // queued for this instant.
                            s.schedule_now(move |s| s.model_mut().push(my_tag | (1 << 60)));
                        }
                    });
                    handles.push(id);
                }
            }
            SimOp::Cancel { pick } => {
                if !handles.is_empty() {
                    let id = handles[pick % handles.len()];
                    sim.cancel(id);
                }
            }
        }
        // Interleave execution with scheduling so cancels race events.
        sim.step();
    }
    sim.run();
    (
        sim.model().clone(),
        sim.now().as_nanos(),
        sim.events_executed(),
    )
}

proptest! {
    #[test]
    fn randomized_schedules_execute_identically(ops in sim_ops()) {
        let heap = drive_sim(SchedulerKind::BinaryHeap, &ops);
        let cal = drive_sim(SchedulerKind::Calendar, &ops);
        prop_assert_eq!(heap, cal, "execution log, clock, and event count must match");
    }
}

// -------------------------------------------------------------------
// Layer 3: the demo deployment — identical MetricsSnapshot bytes and
// Chrome-trace bytes when the runtime is driven from a Sim under a
// randomized fault plan.
// -------------------------------------------------------------------

fn drive_deployment(kind: SchedulerKind, crash_ms: u64, device: u32) -> (String, String, u64) {
    let mut sim = Sim::with_scheduler(demo_deployment(), kind);
    let plan = FaultPlan::new(42).with_event(
        SimTime::ZERO + SimDuration::from_millis(crash_ms),
        device as usize,
        FaultKind::Crash,
    );
    sim.model_mut().install_fault_plan(&plan);
    for tick in 0..=8u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(tick);
        // A same-instant burst per tick: health pulse, then an invoke on
        // the streamer, then a nested pump — FIFO order within the tick
        // is exactly what recovery traces depend on.
        sim.schedule_at(at, move |s| {
            let _ = s.model_mut().pulse(at);
        });
        sim.schedule_at(at, move |s| {
            if let Some(id) = s.model().get_offcode(Guid(1)) {
                let _ = s.model_mut().invoke(id, &Call::new(Guid(1), "frame"), at);
            }
            s.schedule_now(move |s| {
                s.model_mut().pump(at);
            });
        });
    }
    sim.run();
    let executed = sim.events_executed();
    let rt = sim.into_model();
    (
        rt.metrics_snapshot().to_string(),
        rt.trace_export(),
        executed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn demo_deployment_is_scheduler_independent(crash_ms in 1u64..7, device in 1u32..4) {
        let heap = drive_deployment(SchedulerKind::BinaryHeap, crash_ms, device);
        let cal = drive_deployment(SchedulerKind::Calendar, crash_ms, device);
        prop_assert_eq!(heap.2, cal.2, "event counts must match");
        prop_assert_eq!(&heap.0, &cal.0, "MetricsSnapshot bytes must match");
        prop_assert_eq!(&heap.1, &cal.1, "Chrome trace bytes must match");
    }
}

#[test]
fn committed_fault_plan_is_scheduler_independent() {
    // The committed NIC-crash schedule (the `repro -- faults` artifact), as a
    // plain deterministic pin alongside the property tests.
    let heap = drive_deployment(SchedulerKind::BinaryHeap, 2, 1);
    let cal = drive_deployment(SchedulerKind::Calendar, 2, 1);
    assert_eq!(heap, cal);
    assert!(
        heap.1.contains("traceEvents"),
        "trace export is the Chrome trace-event JSON"
    );
}
