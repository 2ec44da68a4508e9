//! The engine-core performance regression gate (tier 1): the `bench
//! engine` row of `hydra_bench::ARTIFACTS`.
//!
//! `budgets/bench_engine.json` is the committed baseline for the
//! scheduler hold model, the end-to-end churn simulation, and the demo
//! deployment's batched message loop; `BENCH_engine.json` at the
//! workspace root is the committed rendering of the report. The report
//! mixes deterministic sim fields with `wall_`-prefixed wall-clock
//! measurements, so the replay check compares the sim fields and only
//! the keys of the wall lines. The calendar-vs-heap speedup is gated as
//! a ratio: the *committed* report must show at least 2x, and live runs
//! must never show the calendar losing to the heap.

mod gate;

use gate::{assert_no_failures, read, row};
use hydra_bench::report::{read_u64, SCHEMA_VERSION};

fn engine() -> usize {
    row(&["bench", "engine"])
}

#[test]
fn engine_results_stay_within_committed_baseline() {
    assert_no_failures(&gate::budget_failures(engine()));
}

#[test]
fn sim_fields_are_byte_identical_across_runs_and_match_committed() {
    assert_no_failures(&gate::replay_failures(engine()));
}

/// The acceptance bar lives in the committed artifact, not in a live
/// measurement: the checked-in release-build run must show the calendar
/// queue at >= 2x the heap's hold-model throughput.
#[test]
fn committed_report_pins_the_headline_speedup() {
    let committed = read("BENCH_engine.json");
    assert_eq!(
        read_u64(&committed, "schema"),
        Some(u64::from(SCHEMA_VERSION))
    );
    let x100 = read_u64(&committed, "wall_calendar_vs_heap_x100")
        .expect("committed report carries the speedup ratio");
    assert!(
        x100 >= 200,
        "committed BENCH_engine.json must show >= 2x calendar-vs-heap ({x100} < 200)"
    );
}

/// Lenient floor for live runs (debug builds, loaded machines): both
/// sides of the ratio are measured in the same process, so load cancels
/// and the calendar must at least match the heap.
#[test]
fn live_calendar_run_never_loses_to_the_heap() {
    let fresh = &gate::fresh(engine()).stdout;
    let x100 = read_u64(fresh, "wall_calendar_vs_heap_x100").expect("speedup field");
    assert!(
        x100 >= 100,
        "calendar queue fell behind the binary heap ({x100} < 100)"
    );
}

#[test]
fn gate_fails_when_baseline_is_perturbed_beyond_tolerance() {
    gate::assert_perturbed_lines_trip_alone(engine());
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    gate::assert_half_tolerance_drift_passes(engine());
}
