//! # hydra-bench — benchmark harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run -p hydra-bench --bin repro`)
//!   regenerates every table and figure of the paper on the simulated
//!   testbed and prints them in paper format; `--full` runs the paper's
//!   10-minute durations;
//! * the **committed artifacts** in [`ARTIFACTS`]: the sim-time
//!   `BENCH_*.json` reports (`repro -- bench <name>`) and the `metrics`,
//!   `trace`, `stats`, `faults`, `lint` and `certify` outputs under
//!   `artifacts/`, each regenerated through [`run`] — the function the
//!   binary wraps — and diffed by the root `artifact_gate` test.
//!
//! What the code itself costs in host time is measured by the separate
//! `perfbench` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod channel_bench;
mod cli;
pub mod crossover_bench;
pub mod engine_bench;
pub mod lint;
pub mod report;

pub use cli::{run, Run};

/// One committed artifact: the `repro` run that regenerates it and what
/// the gate demands of that run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifact {
    /// The `repro` arguments (what follows `--` on the command line).
    pub argv: &'static [&'static str],
    /// The committed stdout of the run, relative to the workspace root.
    pub output: &'static str,
    /// The budget baseline the run's snapshot must stay within.
    pub budget: Option<&'static str>,
    /// Diagnostic codes the run must report; empty means it must succeed.
    pub codes: &'static [&'static str],
}

impl Artifact {
    const fn new(argv: &'static [&'static str], output: &'static str) -> Self {
        Artifact {
            argv,
            output,
            budget: None,
            codes: &[],
        }
    }

    const fn with_budget(self, budget: &'static str) -> Self {
        Artifact {
            budget: Some(budget),
            ..self
        }
    }

    const fn failing_with(self, codes: &'static [&'static str]) -> Self {
        Artifact { codes, ..self }
    }
}

/// Every committed artifact, and the single source of truth the root
/// `artifact_gate` test walks. For each row the gate runs [`run`] twice
/// and requires identical output, equal to the committed file (outside
/// `wall_` lines, whose keys must still match), the budget to hold with
/// teeth, and exactly the declared outcome. Every `BENCH_*.json`,
/// `artifacts/` output, `budgets/` baseline and `fixtures/` file must be
/// named by exactly one row, so a new committed report is one row here
/// plus its file.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact::new(&["bench", "channel"], "BENCH_channel.json")
        .with_budget("budgets/bench_channel.json"),
    Artifact::new(&["bench", "engine"], "BENCH_engine.json")
        .with_budget("budgets/bench_engine.json"),
    Artifact::new(&["bench", "crossover"], "BENCH_crossover.json")
        .with_budget("budgets/bench_crossover.json"),
    Artifact::new(&["metrics"], "artifacts/metrics.txt")
        .with_budget("budgets/demo_deployment.json"),
    Artifact::new(&["trace"], "artifacts/trace.json"),
    Artifact::new(&["stats"], "artifacts/stats.json").with_budget("budgets/demo_stats.json"),
    Artifact::new(&["stats", "faulted"], "artifacts/stats_faulted.json"),
    Artifact::new(&["faults"], "artifacts/faults.json").with_budget("budgets/demo_recovery.json"),
    Artifact::new(
        &["faults", "fixtures/faults/nic_crash.faults", "trace"],
        "artifacts/faults_trace.json",
    ),
    Artifact::new(&["lint"], "artifacts/lint.json"),
    Artifact::new(
        &["lint", "fixtures/gang_cycle.xml"],
        "artifacts/lint_gang_cycle.json",
    )
    .failing_with(&["HV010"]),
    Artifact::new(
        &["lint", "fixtures/disjoint_pull.xml"],
        "artifacts/lint_disjoint_pull.json",
    )
    .failing_with(&["HV012"]),
    Artifact::new(
        &["lint", "fixtures/overcommit.xml"],
        "artifacts/lint_overcommit.json",
    )
    .failing_with(&["HV020"]),
    Artifact::new(&["certify"], "artifacts/certify.json"),
    Artifact::new(
        &["certify", "fixtures/certify/queue_overflow.xml"],
        "artifacts/certify_queue_overflow.json",
    )
    .failing_with(&["HV040"]),
    Artifact::new(
        &["certify", "fixtures/certify/utilization_overrun.xml"],
        "artifacts/certify_utilization_overrun.json",
    )
    .failing_with(&["HV042"]),
    Artifact::new(
        &["certify", "fixtures/certify/ring_write_race.xml"],
        "artifacts/certify_ring_write_race.json",
    )
    .failing_with(&["HV050"]),
];
