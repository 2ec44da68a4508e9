//! The telemetry-timeline regression gate (tier 1): the `stats` and
//! `stats faulted` rows of `hydra_bench::ARTIFACTS`.
//!
//! `budgets/demo_stats.json` is the committed baseline for the stats
//! scenario's counters — message traffic on both channels plus the
//! busy-time totals every utilization window is carved from. Message
//! counts are exact (tolerance 0); busy-time counters carry ~10%
//! tolerance so device timing models can be re-tuned without touching
//! this file. The rendered timelines are byte-diffed against
//! `artifacts/stats.json` and `artifacts/stats_faulted.json`.

mod gate;

use gate::{assert_no_failures, row};
use hydra::devices::{DEVICE_BUSY_NS, LINK_BUSY_NS};

#[test]
fn stats_scenario_stays_within_committed_budget() {
    let stats = row(&["stats"]);
    assert_eq!(gate::budget(stats).name, "demo-stats");
    assert_no_failures(&gate::budget_failures(stats));
}

#[test]
fn stats_report_is_byte_identical_across_runs() {
    let mut failures = gate::replay_failures(row(&["stats"]));
    failures.extend(gate::replay_failures(row(&["stats", "faulted"])));
    assert_no_failures(&failures);
}

#[test]
fn every_window_reports_utilization_and_every_channel_a_profile() {
    let fresh = gate::fresh(row(&["stats"]));
    let snap = fresh.run.snapshot.as_ref().expect("stats run has metrics");
    assert_eq!(snap.windows.len(), 10, "ten 1 ms windows over 10 ms");
    for (i, w) in snap.windows.iter().enumerate() {
        assert_eq!(w.index as usize, i);
        if i > 0 {
            assert_eq!(
                w.start_nanos,
                snap.windows[i - 1].end_nanos,
                "windows are contiguous"
            );
        }
        assert!(
            w.utilization_permille(DEVICE_BUSY_NS, "host").unwrap_or(0) > 0,
            "window {i}: the periodic host load registers"
        );
    }
    // The wire-occupancy counter reconciles: window deltas never exceed
    // the end-of-run total (the remainder landed after the last tick).
    let summed: u64 = snap
        .windows
        .iter()
        .map(|w| w.delta(LINK_BUSY_NS, "device-2"))
        .sum();
    let total = snap.counter(LINK_BUSY_NS, "device-2").unwrap_or(0);
    assert!(summed <= total && total > 0, "{summed} <= {total}");
    // Both channels render a cost profile with at least one size bucket.
    assert!(fresh.stdout.contains("\"provider\": \"zero-copy-dma\""));
    assert!(fresh.stdout.contains("\"provider\": \"kernel-copy\""));
}
