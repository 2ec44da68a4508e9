//! The artifact gate (tier 1): one table, every committed result.
//!
//! Each row of `hydra_bench::ARTIFACTS` names a `repro` invocation, the
//! file its stdout is committed as, an optional budget baseline, and the
//! diagnostic codes it must report. The gate calls `hydra_bench::run` —
//! the function the `repro` binary wraps — and checks every row the same
//! way: two runs agree, the output matches the committed file, the
//! budget holds and provably bites, and the outcome is the declared one.
//! `wall_` lines carry host time, so they are compared by key only.
//! Fresh outputs land under `$CARGO_TARGET_TMPDIR/artifact_gate/` for
//! inspection. The checks live in `gate/`; the topic gates
//! (`bench_gate.rs`, `stats_gate.rs`, …) name them for single rows next
//! to the properties a byte-diff cannot express, and `report_manifest.rs`
//! ties every committed file to a row.

mod gate;

use std::fs;
use std::path::PathBuf;

use gate::{assert_no_failures, fresh};
use hydra_bench::ARTIFACTS;

#[test]
fn every_row_is_deterministic_and_matches_its_committed_output() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("artifact_gate");
    let mut failures = Vec::new();
    for (i, row) in ARTIFACTS.iter().enumerate() {
        let dest = out_dir.join(row.output);
        fs::create_dir_all(dest.parent().expect("output has a parent")).expect("tmpdir");
        fs::write(&dest, &fresh(i).stdout).expect("fresh output writes");
        failures.extend(gate::replay_failures(i));
    }
    assert_no_failures(&failures);
}

#[test]
fn every_row_ends_with_its_declared_outcome() {
    let failures: Vec<String> = (0..ARTIFACTS.len())
        .flat_map(gate::outcome_failures)
        .collect();
    assert_no_failures(&failures);
}

#[test]
fn every_budget_holds() {
    let failures: Vec<String> = gate::budgeted().flat_map(gate::budget_failures).collect();
    assert_no_failures(&failures);
}

/// Perturbs the baselines instead of the code: every budget line, made
/// exact and moved just outside its band, trips alone; every baseline
/// raised by half its tolerance still passes; a counter nobody records
/// reads as zero and fails.
#[test]
fn every_budget_bites() {
    for i in gate::budgeted() {
        gate::assert_perturbed_lines_trip_alone(i);
        gate::assert_half_tolerance_drift_passes(i);
        gate::assert_vanished_counter_fails(i);
    }
}
