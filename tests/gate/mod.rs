//! The checks every gate test shares. Each takes one row of
//! `hydra_bench::ARTIFACTS` (by index): `artifact_gate.rs` applies them
//! to every row, and the topic gates (`bench_gate.rs`, `stats_gate.rs`,
//! …) apply them to the rows they own, next to the properties a
//! byte-diff cannot express. Each test binary runs a row at most once
//! here; `replay_failures` adds the second run.

#![allow(dead_code)] // each test binary uses a subset

use std::fs;
use std::io;
use std::path::Path;
use std::sync::{LazyLock, OnceLock};

use hydra::obs::{check_budget, parse_budget, BudgetSpec, CounterBudget, MetricsSnapshot};
use hydra_bench::report::sim_fields;
use hydra_bench::{run, Run, ARTIFACTS};

pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The index of the row invoked with exactly `argv`.
pub fn row(argv: &[&str]) -> usize {
    ARTIFACTS
        .iter()
        .position(|a| a.argv == argv)
        .unwrap_or_else(|| panic!("no artifact row runs {argv:?}"))
}

/// One `repro` run, with its stdout captured.
#[derive(Debug)]
pub struct Captured {
    pub stdout: String,
    pub run: Run,
}

/// Runs `repro` in-process through `hydra_bench::run`.
pub fn capture(argv: &[&str]) -> Captured {
    let mut out = Vec::new();
    let run = run(argv, &mut out, &mut io::sink()).expect("writes to memory succeed");
    let stdout = String::from_utf8(out).expect("stdout is UTF-8");
    Captured { stdout, run }
}

/// The first run of every row, shared by all the tests of one binary.
static RUNS: LazyLock<Vec<OnceLock<Captured>>> =
    LazyLock::new(|| ARTIFACTS.iter().map(|_| OnceLock::new()).collect());

pub fn fresh(index: usize) -> &'static Captured {
    RUNS[index].get_or_init(|| capture(ARTIFACTS[index].argv))
}

/// The row's committed budget baseline.
pub fn budget(index: usize) -> BudgetSpec {
    let path = ARTIFACTS[index].budget.expect("row has a budget");
    parse_budget(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `wall_` keys of a report, in order — host-time values differ
/// between runs, the set of keys does not.
fn wall_keys(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|l| l.split_once("\"wall_").map(|(_, rest)| rest))
        .filter_map(|rest| rest.split_once('"').map(|(key, _)| key))
        .collect()
}

/// Equal outside `wall_` values; byte-equal for pure sim-time reports.
pub fn same_report(a: &str, b: &str) -> bool {
    sim_fields(a) == sim_fields(b) && wall_keys(a) == wall_keys(b)
}

pub fn assert_no_failures(failures: &[String]) {
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A second run agrees with the first, and both match the committed file.
pub fn replay_failures(index: usize) -> Vec<String> {
    let row = &ARTIFACTS[index];
    let (a, b) = (fresh(index), capture(row.argv));
    let mut failures = Vec::new();
    if !same_report(&a.stdout, &b.stdout) || a.run.ok != b.run.ok {
        failures.push(format!("repro -- {}: two runs differ", row.argv.join(" ")));
    }
    if !same_report(&a.stdout, &read(row.output)) {
        failures.push(format!(
            "{} is stale: regenerate with \
             `cargo run --release -p hydra-bench --bin repro -- {} > {}`",
            row.output,
            row.argv.join(" "),
            row.output
        ));
    }
    failures
}

/// The run succeeds, or fails reporting each of the row's codes as an
/// error.
pub fn outcome_failures(index: usize) -> Vec<String> {
    let row = &ARTIFACTS[index];
    let fresh = fresh(index);
    let argv = row.argv.join(" ");
    let mut failures = Vec::new();
    if fresh.run.ok != row.codes.is_empty() {
        failures.push(format!("repro -- {argv}: ok = {}", fresh.run.ok));
    }
    for code in row.codes {
        if !fresh
            .stdout
            .contains(&format!("\"code\":\"{code}\",\"severity\":\"error\""))
        {
            failures.push(format!("repro -- {argv}: error {code} no longer fires"));
        }
    }
    failures
}

/// The run's snapshot stays within the row's committed budget.
pub fn budget_failures(index: usize) -> Vec<String> {
    let path = ARTIFACTS[index].budget.unwrap_or_default();
    check_budget(snapshot(index), &budget(index))
        .into_iter()
        .map(|v| format!("{path}: {v}"))
        .collect()
}

pub fn snapshot(index: usize) -> &'static MetricsSnapshot {
    fresh(index)
        .run
        .snapshot
        .as_ref()
        .expect("budgeted run has metrics")
}

/// Perturbs the baseline instead of the code: every budget line, made
/// exact and moved just outside its band, trips alone.
pub fn assert_perturbed_lines_trip_alone(index: usize) {
    let (spec, snap) = (budget(index), snapshot(index));
    let path = ARTIFACTS[index].budget.unwrap_or_default();
    for (i, line) in spec.counters.iter().enumerate() {
        let mut perturbed = spec.clone();
        perturbed.counters[i].expect += line.tolerance + 1;
        perturbed.counters[i].tolerance = 0;
        let violations = check_budget(snap, &perturbed);
        assert_eq!(
            violations.len(),
            1,
            "{path}: perturbing line {i} must trip it alone: {violations:?}"
        );
        assert_eq!(
            (&violations[0].name, &violations[0].label),
            (&line.name, &line.label),
            "{path}: the perturbed line {i} trips"
        );
    }
}

/// Every budget baseline raised by half its tolerance — one line at a
/// time and all at once — still passes, so the committed values sit at
/// least half a tolerance above the floor of their band.
pub fn assert_half_tolerance_drift_passes(index: usize) {
    let (spec, snap) = (budget(index), snapshot(index));
    let path = ARTIFACTS[index].budget.unwrap_or_default();
    let mut all = spec.clone();
    for (i, line) in spec.counters.iter().enumerate() {
        let mut drifted = spec.clone();
        drifted.counters[i].expect += line.tolerance / 2;
        all.counters[i].expect += line.tolerance / 2;
        let violations = check_budget(snap, &drifted);
        assert!(
            violations.is_empty(),
            "{path}: line {i} raised half a tolerance must pass: {violations:?}"
        );
    }
    let violations = check_budget(snap, &all);
    assert!(violations.is_empty(), "{path}: {violations:?}");
}

/// A counter nobody records reads as zero and fails.
pub fn assert_vanished_counter_fails(index: usize) {
    let mut vanished = budget(index);
    vanished.counters.push(CounterBudget {
        name: "no.such.counter".into(),
        label: None,
        expect: 7,
        tolerance: 0,
    });
    let violations = check_budget(snapshot(index), &vanished);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].actual, 0, "a missing counter reads as zero");
}

/// The `scenarios` entries of a rendered bench report, one slice each
/// (the last runs on to the end of the report).
pub fn scenarios(report: &str) -> impl Iterator<Item = &str> {
    report.split("\"name\":").skip(1)
}

/// Every row that names a budget, by index.
pub fn budgeted() -> impl Iterator<Item = usize> {
    (0..ARTIFACTS.len()).filter(|&i| ARTIFACTS[i].budget.is_some())
}
