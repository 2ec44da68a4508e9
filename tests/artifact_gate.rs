//! The artifact gate (tier 1): one table, every committed result.
//!
//! Each row of `hydra_bench::ARTIFACTS` names a `repro` invocation, the
//! file its stdout is committed as, an optional budget baseline, and the
//! diagnostic codes it must report. The gate calls `hydra_bench::run` —
//! the function the `repro` binary wraps — and checks every row the same
//! way: two runs agree, the output matches the committed file, the
//! budget holds and provably bites, and the outcome is the declared one.
//! `wall_` lines carry host time, so they are compared by key only.
//! Every committed report, output, budget and fixture must belong to
//! exactly one row, so a file without a row fails instead of rotting.
//! Fresh outputs land under `$CARGO_TARGET_TMPDIR/artifact_gate/` for
//! inspection.
//!
//! The rest of this file holds the properties a byte diff cannot
//! express: orderings and bands read off the committed reports (which
//! the replay check proves current), the certificate differentials, and
//! the repair-versus-scratch search effort. Each row runs once, shared by
//! every test here, plus once more for the replay check.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{LazyLock, OnceLock};

use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::layout::{GraphDelta, LayoutGraph, Objective};
use hydra::devices::{DEVICE_BUSY_NS, LINK_BUSY_NS};
use hydra::obs::{
    check_budget, parse_budget, sustained_busy_permille, BudgetSpec, CounterBudget, MetricsSnapshot,
};
use hydra::tivo::certify::{
    certify_service_table, certify_set, demo_certify_odfs, observe_declared, stats_observation,
    tivo_certify_odfs, Observation,
};
use hydra::tivo::faults::fault_demo_odfs;
use hydra::tivo::stats::stats_demo_plan;
use hydra::verify::{Certification, CertifyInput, FaultOverlay, VerifyInput};
use hydra_bench::certify::run_certify;
use hydra_bench::crossover_bench::SIZES;
use hydra_bench::report::{read_u64, sim_fields, SCHEMA_VERSION};
use hydra_bench::{run, Run, ARTIFACTS};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The index of the row invoked with exactly `argv`.
fn row(argv: &[&str]) -> usize {
    ARTIFACTS
        .iter()
        .position(|a| a.argv == argv)
        .unwrap_or_else(|| panic!("no artifact row runs {argv:?}"))
}

/// One `repro` run, with its stdout captured.
struct Captured {
    stdout: String,
    run: Run,
}

/// Runs `repro` in-process through `hydra_bench::run`.
fn capture(argv: &[&str]) -> Captured {
    let mut out = Vec::new();
    let run = run(argv, &mut out, &mut io::sink()).expect("writes to memory succeed");
    let stdout = String::from_utf8(out).expect("stdout is UTF-8");
    Captured { stdout, run }
}

/// The first run of every row, shared by all the tests of this binary.
static RUNS: LazyLock<Vec<OnceLock<Captured>>> =
    LazyLock::new(|| ARTIFACTS.iter().map(|_| OnceLock::new()).collect());

fn fresh(index: usize) -> &'static Captured {
    RUNS[index].get_or_init(|| capture(ARTIFACTS[index].argv))
}

/// The row's committed budget baseline.
fn budget(index: usize) -> BudgetSpec {
    let path = ARTIFACTS[index].budget.expect("row has a budget");
    parse_budget(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn snapshot(index: usize) -> &'static MetricsSnapshot {
    fresh(index)
        .run
        .snapshot
        .as_ref()
        .expect("budgeted run has metrics")
}

/// Every row that names a budget, by index.
fn budgeted() -> impl Iterator<Item = usize> {
    (0..ARTIFACTS.len()).filter(|&i| ARTIFACTS[i].budget.is_some())
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
fn same_report(a: &str, b: &str) -> bool {
    sim_fields(a) == sim_fields(b) && wall_keys(a) == wall_keys(b)
}

fn assert_no_failures(failures: &[String]) {
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A second run agrees with the first, and both match the committed file.
fn replay_failures(index: usize) -> Vec<String> {
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
fn outcome_failures(index: usize) -> Vec<String> {
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
fn budget_failures(index: usize) -> Vec<String> {
    let path = ARTIFACTS[index].budget.unwrap_or_default();
    check_budget(snapshot(index), &budget(index))
        .into_iter()
        .map(|v| format!("{path}: {v}"))
        .collect()
}

/// Every budget line, made exact and moved just outside its band, trips
/// alone.
fn assert_perturbed_lines_trip_alone(index: usize) {
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
fn assert_half_tolerance_drift_passes(index: usize) {
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
fn assert_vanished_counter_fails(index: usize) {
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

/// Every committed file a row owns: `BENCH_*` at the workspace root and
/// everything under `artifacts/`, `budgets/` and `fixtures/`.
fn committed_files() -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(root())
        .expect("root lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_"))
        .collect();
    let mut dirs: Vec<PathBuf> = ["artifacts", "budgets", "fixtures"]
        .map(|d| root().join(d))
        .into();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).expect("directory lists") {
            let path = entry.expect("entry reads").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path.strip_prefix(root()).expect("under the root");
                files.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    files
}

// ---- the table-wide checks -------------------------------------------

#[test]
fn every_row_is_deterministic_and_matches_its_committed_output() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("artifact_gate");
    let mut failures = Vec::new();
    for (i, row) in ARTIFACTS.iter().enumerate() {
        let dest = out_dir.join(row.output);
        fs::create_dir_all(dest.parent().expect("output has a parent")).expect("tmpdir");
        fs::write(&dest, &fresh(i).stdout).expect("fresh output writes");
        failures.extend(replay_failures(i));
    }
    assert_no_failures(&failures);
}

#[test]
fn every_row_ends_with_its_declared_outcome() {
    let failures: Vec<String> = (0..ARTIFACTS.len()).flat_map(outcome_failures).collect();
    assert_no_failures(&failures);
}

#[test]
fn every_budget_holds() {
    let failures: Vec<String> = budgeted().flat_map(budget_failures).collect();
    assert_no_failures(&failures);
}

/// Perturbs the baselines instead of the code: every budget line, made
/// exact and moved just outside its band, trips alone; every baseline
/// raised by half its tolerance still passes; a counter nobody records
/// reads as zero and fails.
#[test]
fn every_budget_bites() {
    for i in budgeted() {
        assert_perturbed_lines_trip_alone(i);
        assert_half_tolerance_drift_passes(i);
        assert_vanished_counter_fails(i);
    }
}

/// Each committed file is named by exactly one row: as its output, its
/// budget, or one of its arguments (the rest, like `faulted`, match
/// nothing committed).
#[test]
fn every_committed_report_has_a_manifest_row() {
    let mut named: BTreeMap<&str, usize> = BTreeMap::new();
    for row in ARTIFACTS {
        for file in row
            .argv
            .iter()
            .copied()
            .chain([row.output])
            .chain(row.budget)
        {
            *named.entry(file).or_default() += 1;
        }
    }
    for file in committed_files() {
        let rows = named.get(file.as_str()).copied().unwrap_or(0);
        assert_eq!(rows, 1, "{file} is named by {rows} artifact rows");
    }
}

/// Beyond the half-tolerance drift every budget gets: the demo's channel
/// traffic sits a full tolerance clear of its floor.
#[test]
fn gate_tolerance_absorbs_small_drift() {
    let metrics = row(&["metrics"]);
    let mut spec = budget(metrics);
    let bytes = spec
        .counters
        .iter_mut()
        .find(|c| c.name == "channel.bytes")
        .expect("baseline budgets channel.bytes");
    bytes.expect += bytes.tolerance;
    assert!(check_budget(snapshot(metrics), &spec).is_empty());
}

// ---- bench channel / crossover / engine ------------------------------

/// The `scenarios` entries of a rendered bench report, one slice each
/// (the last runs on to the end of the report).
fn scenarios(report: &str) -> impl Iterator<Item = &str> {
    report.split("\"name\":").skip(1)
}

fn field(scenario: &str, key: &str) -> u64 {
    read_u64(scenario, key).expect(key)
}

/// Batching at eight and up beats single-message throughput.
#[test]
fn batched_throughput_beats_single_at_batch_eight_and_up() {
    let report = read("BENCH_channel.json");
    assert_eq!(report, sim_fields(&report), "pure sim time: no wall_ lines");
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

/// The two crossover points are gated as bands: PIO must stop winning
/// somewhere in the small-message range, and synchronous DMA must take
/// over somewhere in the bulk range.
#[test]
fn committed_report_pins_the_crossover_structure() {
    let committed = read("BENCH_crossover.json");
    assert_eq!(
        committed,
        sim_fields(&committed),
        "pure sim time: no wall_ lines"
    );
    assert_eq!(
        read_u64(&committed, "schema"),
        Some(u64::from(SCHEMA_VERSION))
    );
    let pio_to_db = read_u64(&committed, "pio_to_doorbell_bytes")
        .expect("committed report carries the first crossover point");
    let db_to_dma = read_u64(&committed, "doorbell_to_dma_bytes")
        .expect("committed report carries the second crossover point");
    let smallest = SIZES[0] as u64;
    let largest = *SIZES.last().unwrap() as u64;
    assert!(
        pio_to_db > smallest,
        "PIO must win at least the smallest size ({pio_to_db} <= {smallest})"
    );
    assert!(
        db_to_dma > pio_to_db,
        "the doorbell-batched ring must own a middle band ({db_to_dma} <= {pio_to_db})"
    );
    assert!(
        db_to_dma < largest,
        "DMA must win before the largest size ({db_to_dma} >= {largest})"
    );
    // The repriced layout exercise gave the NIC slot to the bulk node.
    assert_eq!(read_u64(&committed, "bulk_device"), Some(1));
    assert_eq!(read_u64(&committed, "chatty_device"), Some(0));
}

/// At every size the adaptive channel costs no more than the worst
/// forced provider.
#[test]
fn adaptive_channel_never_costs_more_than_the_worst_static_provider() {
    let committed = read("BENCH_crossover.json");
    for &size in SIZES {
        // Provider runs only; the report's summary entries follow them.
        let (adaptive, forced): (Vec<&str>, Vec<&str>) = scenarios(&committed)
            .filter(|s| s.contains("\"provider\":"))
            .filter(|s| field(s, "bytes_per_message") == size as u64)
            .partition(|s| s.contains("\"provider\": \"adaptive\""));
        let adaptive = adaptive
            .first()
            .map(|s| field(s, "elapsed_ns"))
            .expect("adaptive run per size");
        let worst = forced
            .iter()
            .map(|s| field(s, "elapsed_ns"))
            .max()
            .expect("forced runs per size");
        assert!(
            adaptive <= worst,
            "{size} B: adaptive {adaptive} ns > worst static {worst} ns"
        );
    }
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
    let fresh = &fresh(row(&["bench", "engine"])).stdout;
    let x100 = read_u64(fresh, "wall_calendar_vs_heap_x100").expect("speedup field");
    assert!(
        x100 >= 100,
        "calendar queue fell behind the binary heap ({x100} < 100)"
    );
}

// ---- faults: repair versus scratch -----------------------------------

fn demo_registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    reg
}

/// The demo's recovery re-layout must search strictly less than a
/// from-scratch solve of the identical post-failure problem, at equal
/// objective value. The repair path proves its spliced candidate
/// optimal against the LP-relaxation bound, so the common single-device
/// failure pays zero branch-and-bound nodes.
#[test]
fn recovery_repair_searches_strictly_less_than_scratch() {
    let reg = demo_registry();
    let mut g = LayoutGraph::from_odfs(&fault_demo_odfs(), &reg).expect("demo graph builds");
    let obj = Objective::MaximizeOffloading;
    let prev = g.resolve_ilp(&obj).expect("pre-fault layout");
    g.mask_device(DeviceId(1)).expect("NIC maskable");

    let (repaired, repair_stats) = g
        .repair(&prev, &GraphDelta::MaskDevice(DeviceId(1)), &obj)
        .expect("repair succeeds");
    let (scratch, scratch_stats) = g
        .resolve_ilp_with_stats(&obj)
        .expect("scratch solve succeeds");

    assert_eq!(
        repaired.offloaded_count(),
        scratch.offloaded_count(),
        "repair must be objective-equal to scratch"
    );
    assert!(
        repair_stats.nodes < scratch_stats.nodes,
        "repair explored {} nodes, scratch {} — repair must search strictly less",
        repair_stats.nodes,
        scratch_stats.nodes
    );
    assert_eq!(
        repair_stats.repaired_nodes, 3,
        "the gang/pull pipeline is the dirty component; the archiver stays frozen"
    );
}

// ---- stats -----------------------------------------------------------

#[test]
fn every_window_reports_utilization_and_every_channel_a_profile() {
    let fresh = fresh(row(&["stats"]));
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

// ---- certify: the static bounds against replayed traffic -------------

fn certify(name: &str, overlay: Option<&FaultOverlay>) -> Certification {
    let (odfs, _) = certify_set(name).expect("built-in set");
    let table = demo_registry().verify_table();
    let services = certify_service_table();
    hydra::verify::certify(&CertifyInput {
        verify: VerifyInput {
            odfs: &odfs,
            devices: &table,
            demands: None,
            roots: None,
        },
        services: &services,
        overlay,
    })
}

/// Asserts every observed per-ring and per-device value sits inside the
/// certificate's static bounds.
fn assert_bracketed(name: &str, cert: &Certification, obs: &Observation) {
    assert!(!obs.channels.is_empty(), "{name}: the replay drove traffic");
    for ch in &obs.channels {
        let bound = cert
            .certificate
            .channel(&ch.ring)
            .unwrap_or_else(|| panic!("{name}: ring {} is certified", ch.ring));
        let latency = bound
            .latency_bound_ns
            .unwrap_or_else(|| panic!("{name}: ring {} is stable", ch.ring));
        assert!(
            ch.p99_ns <= latency,
            "{name}: {} observed p99 {} ns escapes bound {latency} ns",
            ch.ring,
            ch.p99_ns
        );
        assert!(
            ch.peak_depth <= bound.queue_bound,
            "{name}: {} observed depth {} escapes bound {}",
            ch.ring,
            ch.peak_depth,
            bound.queue_bound
        );
    }
    for d in &cert.certificate.devices {
        let label = if d.index == 0 {
            "host".to_owned()
        } else {
            format!("device-{}", d.index)
        };
        let observed =
            sustained_busy_permille(&obs.snapshot, DEVICE_BUSY_NS, &label, obs.horizon_ns);
        assert!(
            observed <= d.permille,
            "{name}: {label} observed {observed} permille escapes bound {}",
            d.permille
        );
    }
}

/// The built-in declared-traffic sets certify end-to-end chains over
/// stable rings only; that they certify error free is the `certify`
/// row's declared outcome.
#[test]
fn builtin_sets_certify_error_free() {
    for r in &run_certify(&[]) {
        assert!(
            !r.certification.certificate.chains.is_empty(),
            "{} certifies end-to-end chains",
            r.name
        );
        assert!(
            r.certification
                .certificate
                .channels
                .iter()
                .all(|c| c.stable && c.latency_bound_ns.is_some()),
            "{} has only stable rings",
            r.name
        );
    }
}

/// Replaying each set's declared arrival curves against real channels
/// never observes more than the certificate allows.
#[test]
fn demo_and_tivo_replays_are_bracketed() {
    for (name, odfs) in [("demo", demo_certify_odfs()), ("tivo", tivo_certify_odfs())] {
        let cert = certify(name, None);
        assert!(!cert.report.has_errors(), "{name} certifies clean");
        assert_bracketed(name, &cert, &observe_declared(&odfs));
    }
}

/// The stats scenario's full telemetry stays inside the certificate,
/// clean and — against the overlay-widened certificate — under its
/// committed fault plan.
#[test]
fn stats_telemetry_is_bracketed_clean_and_faulted() {
    let clean_cert = certify("stats", None);
    assert!(!clean_cert.report.has_errors());
    assert_bracketed("stats/clean", &clean_cert, &stats_observation(None));

    let (_, overlay) = certify_set("stats").expect("built-in set");
    let overlay = overlay.expect("stats commits to a fault plan");
    let faulted_cert = certify("stats", Some(&overlay));
    assert!(!faulted_cert.report.has_errors());
    let plan = stats_demo_plan();
    assert_bracketed(
        "stats/faulted",
        &faulted_cert,
        &stats_observation(Some(&plan)),
    );

    // The overlay only ever widens.
    let (clean, faulted) = (&clean_cert.certificate, &faulted_cert.certificate);
    for (c, f) in clean.channels.iter().zip(&faulted.channels) {
        assert!(
            f.latency_bound_ns >= c.latency_bound_ns,
            "{} widens",
            c.bind_name
        );
    }
    for (c, f) in clean.devices.iter().zip(&faulted.devices) {
        assert!(f.permille >= c.permille, "{} widens", c.name);
    }
}
