//! The sim-time channel bench gate (tier 1): the `bench channel` row of
//! `hydra_bench::ARTIFACTS`.
//!
//! `budgets/bench_channel.json` is the committed baseline for the
//! channel data-path benchmarks, and `BENCH_channel.json` at the
//! workspace root is the committed rendering of the report itself.
//! Because every benchmark runs in simulated time, both are exact: a
//! code change that slows the batched (or single) path beyond the
//! per-scenario tolerances fails here instead of drifting silently.

mod gate;

use gate::{assert_no_failures, read, row, scenarios};
use hydra_bench::report::read_u64;

fn bench() -> usize {
    row(&["bench", "channel"])
}

#[test]
fn bench_results_stay_within_committed_baseline() {
    assert_no_failures(&gate::budget_failures(bench()));
}

#[test]
fn report_is_byte_identical_across_runs_and_matches_committed() {
    assert_no_failures(&gate::replay_failures(bench()));
    let fresh = &gate::fresh(bench()).stdout;
    assert_eq!(
        *fresh,
        read("BENCH_channel.json"),
        "pure sim time: whole file"
    );
}

/// The committed report (which the replay check proves current) shows
/// batching at eight and up beating single-message throughput.
#[test]
fn batched_throughput_beats_single_at_batch_eight_and_up() {
    let report = read("BENCH_channel.json");
    let field = |s: &str, key: &str| read_u64(s, key).expect(key);
    let single = scenarios(&report)
        .find(|s| field(s, "batch_size") == 1)
        .expect("single scenario runs");
    let single_tput = field(single, "throughput_bytes_per_sec");
    let batched: Vec<&str> = scenarios(&report)
        .filter(|s| field(s, "batch_size") >= 8)
        .collect();
    assert!(!batched.is_empty(), "batch >= 8 scenarios run");
    for s in batched {
        let tput = field(s, "throughput_bytes_per_sec");
        assert!(
            tput > single_tput,
            "batch {} must beat single-message throughput ({tput} <= {single_tput})",
            field(s, "batch_size")
        );
    }
}

#[test]
fn gate_fails_when_baseline_is_perturbed_beyond_tolerance() {
    gate::assert_perturbed_lines_trip_alone(bench());
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    gate::assert_half_tolerance_drift_passes(bench());
}
