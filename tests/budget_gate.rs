//! The metrics-budget regression gate (tier 1): the `metrics` row of
//! `hydra_bench::ARTIFACTS`.
//!
//! `budgets/demo_deployment.json` is the committed baseline for the demo
//! deployment's counters. Because every snapshot is deterministic, the
//! gate is tight: a change that alters channel traffic, provider
//! selection, solver effort or loader work beyond the per-counter
//! tolerances fails here instead of drifting silently.

mod gate;

use gate::{assert_no_failures, row};
use hydra::obs::check_budget;

fn metrics() -> usize {
    row(&["metrics"])
}

#[test]
fn demo_deployment_stays_within_committed_budget() {
    assert_eq!(gate::budget(metrics()).name, "demo-deployment");
    assert_no_failures(&gate::budget_failures(metrics()));
}

#[test]
fn gate_fails_when_a_counter_drifts_beyond_tolerance() {
    gate::assert_perturbed_lines_trip_alone(metrics());
}

/// Beyond the half-tolerance drift every budget gets: the demo's
/// channel traffic sits a full tolerance clear of its floor.
#[test]
fn gate_tolerance_absorbs_small_drift() {
    gate::assert_half_tolerance_drift_passes(metrics());
    let mut spec = gate::budget(metrics());
    let bytes = spec
        .counters
        .iter_mut()
        .find(|c| c.name == "channel.bytes")
        .expect("baseline budgets channel.bytes");
    bytes.expect += bytes.tolerance;
    assert!(check_budget(gate::snapshot(metrics()), &spec).is_empty());
}

#[test]
fn vanished_instrumentation_reads_as_zero_and_fails() {
    gate::assert_vanished_counter_fails(metrics());
}
