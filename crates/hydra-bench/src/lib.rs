//! # hydra-bench — benchmark harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run -p hydra-bench --bin repro`)
//!   regenerates every table and figure of the paper on the simulated
//!   testbed and prints them in paper format; `--full` runs the paper's
//!   10-minute durations;
//! * the **report benches** in [`BENCHES`] (`repro -- bench <name>`)
//!   regenerate the committed sim-time `BENCH_*.json` reports that the
//!   gate tests diff.
//!
//! What the code itself costs in host time is measured by the separate
//! `perfbench` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod channel_bench;
pub mod crossover_bench;
pub mod engine_bench;
pub mod lint;
pub mod report;

/// The bench manifest: every `repro -- bench <name>` selector paired
/// with the committed report it regenerates at the workspace root.
///
/// This is the single source of truth the stale-report failsafe keys
/// on: a committed `BENCH_*.json` with no manifest row (or a manifest
/// row [`run_bench`] cannot dispatch) fails `tests/report_manifest.rs`
/// and the CI report-manifest job.
pub const BENCHES: &[(&str, &str)] = &[
    ("channel", "BENCH_channel.json"),
    ("engine", "BENCH_engine.json"),
    ("crossover", "BENCH_crossover.json"),
];

/// Runs the named bench and renders its report JSON, or `None` for a
/// name outside [`BENCHES`]. The `repro` binary's `bench` sub-command
/// dispatches through here, so the manifest and the CLI cannot drift.
#[must_use]
pub fn run_bench(name: &str) -> Option<String> {
    match name {
        "channel" => Some(channel_bench::render_json(
            &channel_bench::run_channel_bench(),
        )),
        "engine" => Some(engine_bench::render_json(&engine_bench::run_engine_bench())),
        "crossover" => Some(crossover_bench::render_json(
            &crossover_bench::run_crossover_bench(),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The BENCH_*.json convention is deliberately case-sensitive — it
    // mirrors the shell glob the CI report-manifest job walks.
    #[allow(clippy::case_sensitive_file_extension_comparisons)]
    fn every_manifest_row_dispatches_and_unknown_names_do_not() {
        for (name, report_file) in BENCHES {
            assert!(
                report_file.starts_with("BENCH_") && report_file.ends_with(".json"),
                "{report_file}: committed reports follow the BENCH_*.json convention"
            );
            // Dispatch must recognize the name; running the bench here
            // would be slow, so the full round-trip lives in
            // tests/report_manifest.rs.
            assert!(
                matches!(*name, "channel" | "engine" | "crossover"),
                "{name}: run_bench() match arm missing for manifest row"
            );
        }
        assert_eq!(run_bench("no-such-bench"), None);
    }
}
