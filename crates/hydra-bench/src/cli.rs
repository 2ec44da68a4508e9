//! The `repro` command line, as a library function.
//!
//! [`run`] takes the arguments after the program name and the two
//! streams to print to, and returns whether it succeeded. The `repro`
//! binary passes its locked stdout and stderr, so each paper experiment
//! prints as soon as it finishes; the artifact gate passes buffers, so
//! it checks exactly the code path the CLI runs.

use std::fmt::Write as _;
use std::io::{self, Write};

use hydra_obs::MetricsSnapshot;
use hydra_sim::fault::FaultPlan;
use hydra_sim::time::SimDuration;
use hydra_tivo::demo::demo_deployment;
use hydra_tivo::experiments::{
    fig1, fig10_tab3, fig9_tab2, ilp_vs_greedy, tab4_client, SuiteConfig,
};
use hydra_tivo::faults::{fault_demo_plan, run_fault_demo};
use hydra_tivo::onload::compare_designs;
use hydra_tivo::playback::{run_record_playback, PlaybackConfig};
use hydra_tivo::stats::{run_stats_demo, stats_demo_plan};
use hydra_tivo::storage::{build_corpus, run_search, SearchKind};
use hydra_tivo::toe::{run_bulk_receive, TcpPlacement};
use hydra_tivo::virtualization::vm_demux_comparison;

use crate::{certify, channel_bench, crossover_bench, engine_bench, lint};

/// The outcome of one `repro` invocation; what it printed went to the
/// streams passed to [`run`].
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Exit status: `true` maps to success.
    pub ok: bool,
    /// The metrics the run recorded, for the sub-commands a budget can
    /// gate (`metrics`, `bench`, `stats`, `faults`).
    pub snapshot: Option<MetricsSnapshot>,
}

impl Run {
    fn success(snapshot: Option<MetricsSnapshot>) -> Self {
        Run { ok: true, snapshot }
    }
}

/// An unknown selector: the message, then the usage text, on stderr.
fn usage_error(err: &mut dyn Write, message: &str) -> io::Result<Run> {
    write!(err, "repro: {message}\n\n{}", usage())?;
    Ok(Run::default())
}

/// Every selector the binary understands, with its one-line description.
const SELECTORS: &[(&str, &str)] = &[
    ("fig1", "the GHz/Gbps TCP processing model (Figure 1)"),
    ("fig9", "server jitter CDFs + Table 2 (alias: tab2)"),
    ("tab2", "alias for fig9"),
    ("fig10", "server CPU/L2 utilization + Table 3 (alias: tab3)"),
    ("tab3", "alias for fig10"),
    ("tab4", "user-space vs offloaded client, incl. client L2"),
    ("ilp", "exact ILP layout vs greedy heuristic"),
    ("playback", "record + playback through the smart disk"),
    ("vmdemux", "§8 extension: VM packet demultiplexing"),
    ("onload", "§1.1 offload vs onload comparison"),
    ("toe", "§1.1 TOE vs host TCP bulk receive"),
    ("search", "§8 extension: disk-side content search"),
    ("metrics", "demo deployment's observability snapshot"),
    (
        "trace",
        "demo deployment's Chrome trace-event JSON (pipe into Perfetto)",
    ),
    (
        "bench",
        "bench [channel|engine|crossover]: benchmark report JSON (BENCH_*.json)",
    ),
    (
        "lint",
        "static deployment verification (JSON on stdout, non-zero on errors)",
    ),
    (
        "certify",
        "certify [set|path...]: quantitative bound certification (JSON on stdout, non-zero on errors)",
    ),
    (
        "faults",
        "replay a fault schedule on the demo deployment (JSON on stdout)",
    ),
    (
        "stats",
        "stats [faulted] [trace]: windowed telemetry timeline + channel cost profiles (JSON on stdout)",
    ),
];

/// The `bench <name>` reports: each renders its JSON and the snapshot
/// its budget gates. Plain `bench` means the first one.
type BenchReport = fn() -> (String, MetricsSnapshot);
const BENCH_REPORTS: &[(&str, BenchReport)] = &[
    ("channel", || {
        let results = channel_bench::run_channel_bench();
        (
            channel_bench::render_json(&results),
            channel_bench::bench_snapshot(&results),
        )
    }),
    ("engine", || {
        let bench = engine_bench::run_engine_bench();
        (
            engine_bench::render_json(&bench),
            engine_bench::engine_snapshot(&bench),
        )
    }),
    ("crossover", || {
        let report = crossover_bench::run_crossover_bench();
        (
            crossover_bench::render_json(&report),
            crossover_bench::bench_snapshot(&report),
        )
    }),
];

/// The `--help` text.
fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--full] [selector...]\n\n\
         With no selector every experiment runs. Flags:\n\
         \x20 --full    paper-length 600 s runs (default 60 s)\n\
         \x20 --help    this text\n\nSelectors:\n",
    );
    for (name, what) in SELECTORS {
        out.push_str(&format!("  {name:<9} {what}\n"));
    }
    out
}

/// Runs `repro` with the given arguments (program name excluded),
/// printing to `out` and `err` what the binary prints to stdout and
/// stderr. An error means a stream could not be written.
///
/// `lint`, `certify`, `faults`, `stats` and `bench` are sub-commands
/// when they come first: the rest of the arguments belong to them, and
/// stdout carries nothing but their JSON, ready to redirect into a
/// committed artifact. Any other selectors pick paper experiments, which
/// print under a banner; `trace` alone prints only the trace JSON.
///
/// # Errors
///
/// The first write to `out` or `err` that fails.
pub fn run(args: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    if args.iter().any(|a| *a == "--help" || *a == "-h") {
        out.write_all(usage().as_bytes())?;
        return Ok(Run::success(None));
    }
    let full = args.contains(&"--full");
    let selected: Vec<&str> = args
        .iter()
        .copied()
        .filter(|a| !a.starts_with("--"))
        .collect();
    let rest = selected.get(1..).unwrap_or_default();
    match selected.first() {
        Some(&"lint") => lint_cmd(rest, out, err),
        Some(&"certify") => certify_cmd(rest, out, err),
        Some(&"faults") => faults_cmd(rest, out, err),
        Some(&"stats") => stats_cmd(rest, out, err),
        Some(&"bench") => bench_cmd(rest, out, err),
        _ => run_experiments(&selected, full, out, err),
    }
}

/// `lint [path...]`: canonical JSON on stdout, human-readable findings
/// on stderr, failure iff any error-severity diagnostic fired.
fn lint_cmd(paths: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    let results = lint::run_lint(paths);
    err.write_all(lint::render_human(&results).as_bytes())?;
    writeln!(out, "{}", lint::render_json(&results))?;
    let ok = !lint::any_errors(&results);
    Ok(Run { ok, snapshot: None })
}

/// `certify [set|path...]` mirrors `lint` for the quantitative passes:
/// each argument names a built-in set (`demo`, `tivo`, `stats`) or a
/// deployment file. Stdout carries the report plus bound certificate.
fn certify_cmd(args: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    let results = certify::run_certify(args);
    err.write_all(certify::render_human(&results).as_bytes())?;
    writeln!(out, "{}", certify::render_json(&results))?;
    let ok = !certify::any_errors(&results);
    Ok(Run { ok, snapshot: None })
}

/// `faults [schedule-path] [trace]` replays a fault schedule (the
/// committed NIC-crash plan by default, or one `.faults` file) on the
/// fault demo deployment and prints the canonical recovery JSON, or
/// with `trace` the recovery flight-recorder export.
fn faults_cmd(rest: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    let want_trace = rest.contains(&"trace");
    let paths: Vec<&str> = rest.iter().copied().filter(|a| *a != "trace").collect();
    if paths.len() > 1 {
        let message = format!("unknown faults selector '{}'", rest.join(" "));
        return usage_error(err, &message);
    }
    let plan = match paths.first() {
        None => Ok(fault_demo_plan()),
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_plan(path, &text)),
    };
    replay_faults(plan, want_trace, out, err)
}

/// The `.faults` text read from `path` as a plan, or the message
/// `faults` prints when it does not parse.
fn parse_plan(path: &str, text: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(text).map_err(|e| format!("bad fault schedule {path}: {e}"))
}

/// The second half of `faults`: replays `plan` on the fault demo and
/// prints its JSON (or trace), or prints why there is no plan.
fn replay_faults(
    plan: Result<FaultPlan, String>,
    want_trace: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<Run> {
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            writeln!(err, "repro: {e}")?;
            return Ok(Run::default());
        }
    };
    let (rt, json) = run_fault_demo(&plan);
    if want_trace {
        writeln!(out, "{}", rt.trace_export())?;
    } else {
        out.write_all(json.as_bytes())?;
    }
    Ok(Run::success(Some(rt.metrics_snapshot())))
}

/// `stats [faulted] [trace]` drives the telemetry scenario (1 ms
/// windows over a 10 ms mixed workload) and prints the canonical
/// timeline + cost-profile JSON. `faulted` replays it under the
/// committed crash/stall plan; `trace` prints the scenario's Chrome
/// trace export instead, whose windowed tracks render as Perfetto
/// counter graphs.
fn stats_cmd(rest: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    if rest.iter().any(|a| *a != "trace" && *a != "faulted") {
        return usage_error(err, &format!("unknown stats selector '{}'", rest.join(" ")));
    }
    let plan = rest.contains(&"faulted").then(stats_demo_plan);
    let (snap, json) = run_stats_demo(plan.as_ref());
    if rest.contains(&"trace") {
        writeln!(out, "{}", hydra_obs::export::chrome_trace(&snap))?;
    } else {
        out.write_all(json.as_bytes())?;
    }
    Ok(Run::success(Some(snap)))
}

/// `bench [<name>]` prints one report of [`BENCH_REPORTS`] with no
/// banner. Plain `bench` keeps its historical meaning (the channel
/// report).
fn bench_cmd(rest: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> io::Result<Run> {
    let name = match rest {
        [] => "channel",
        [one] => one,
        _ => "",
    };
    match BENCH_REPORTS.iter().find(|(n, _)| *n == name) {
        Some((_, report)) => {
            let (json, snap) = report();
            out.write_all(json.as_bytes())?;
            Ok(Run::success(Some(snap)))
        }
        None => {
            let known: Vec<&str> = BENCH_REPORTS.iter().map(|(n, _)| *n).collect();
            let (asked, known) = (rest.join(" "), known.join(", "));
            usage_error(
                err,
                &format!("unknown bench selector '{asked}' (known: {known})"),
            )
        }
    }
}

/// The paper experiments in print order: the selectors that pick each,
/// and the text it prints once it has run.
type Experiment = fn(&SuiteConfig) -> String;
const EXPERIMENTS: &[(&[&str], Experiment)] = &[
    (&["fig1"], |_| format!("{}\n\n", fig1())),
    (&["fig9", "tab2"], |cfg| format!("{}\n\n", fig9_tab2(cfg))),
    (&["fig10", "tab3"], |cfg| format!("{}\n\n", fig10_tab3(cfg))),
    (&["tab4"], |cfg| format!("{}\n\n", tab4_client(cfg))),
    (&["ilp"], |cfg| {
        format!("{}\n\n", ilp_vs_greedy(cfg.seed, 40))
    }),
    (&["playback"], playback),
    (&["vmdemux"], vmdemux),
    (&["onload"], onload),
    (&["toe"], toe),
    (&["search"], search),
    (&["bench"], bench_summary),
];

/// The paper experiments, printed under a banner in a fixed order as
/// each finishes; no selector at all runs every one.
fn run_experiments(
    selected: &[&str],
    full: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<Run> {
    let known = |name: &str| SELECTORS.iter().any(|(s, _)| *s == name);
    if let Some(bad) = selected.iter().find(|s| !known(s)) {
        return usage_error(err, &format!("unknown selector '{bad}'"));
    }
    // `trace` alone emits pure JSON — no banner, no prose — so the
    // output pipes straight into a .json file for Perfetto.
    if selected == ["trace"] {
        writeln!(out, "{}", demo_deployment().trace_export())?;
        return Ok(Run::success(None));
    }
    let want = |name: &str| selected.is_empty() || selected.contains(&name);
    let cfg = if full {
        SuiteConfig::paper_full()
    } else {
        SuiteConfig::default()
    };
    writeln!(
        out,
        "HYDRA reproduction — simulated testbed, {} s runs, seed {}",
        cfg.duration.as_secs_f64(),
        cfg.seed
    )?;
    writeln!(out, "(paper: Weinsberg et al., ASPLOS 2008)\n")?;
    for (names, experiment) in EXPERIMENTS {
        if names.iter().any(|n| want(n)) {
            out.write_all(experiment(&cfg).as_bytes())?;
        }
    }
    let mut snapshot = None;
    if want("metrics") || want("trace") {
        let rt = demo_deployment();
        if want("metrics") {
            let snap = rt.metrics_snapshot();
            writeln!(
                out,
                "Observability — deployment pipeline + channel metrics snapshot"
            )?;
            writeln!(out, "{snap}")?;
            snapshot = Some(snap);
        }
        if want("trace") {
            writeln!(
                out,
                "Causal trace — Chrome trace-event JSON (load in Perfetto):"
            )?;
            writeln!(out, "{}", rt.trace_export())?;
        }
    }
    Ok(Run::success(snapshot))
}

fn playback(_: &SuiteConfig) -> String {
    let run =
        run_record_playback(PlaybackConfig::default()).expect("playback pipeline must round-trip");
    let s = run.playback_gaps_ms.summary();
    format!(
        "Record + playback (TiVo feature, §1/§6.3)\n\
         \x20 {} frames recorded to NAS ({} bytes), {} played back\n\
         \x20 playback pacing: median {:.2} ms, std {:.3} ms; worst PSNR {:.1} dB\n\n",
        25, run.bytes_recorded, run.frames_played, s.median, s.std_dev, run.worst_psnr_db
    )
}

fn vmdemux(cfg: &SuiteConfig) -> String {
    let mut out =
        String::from("§8 extension — VM packet demultiplexing (host bridge vs NIC Offcode)\n");
    for run in vm_demux_comparison(cfg.seed, SimDuration::from_secs(10)) {
        let _ = writeln!(out, "  {run}");
    }
    out + "\n"
}

fn onload(_: &SuiteConfig) -> String {
    let mut out = String::from("§1.1 — offload vs onload (1 kB packets at 100k pps)\n");
    for p in compare_designs(1024, 100_000.0) {
        let _ = writeln!(out, "  {p}");
    }
    out + "\n"
}

fn toe(cfg: &SuiteConfig) -> String {
    let mut out = String::from("§1.1 — TOE vs host TCP (200 kB bulk receive, 2% segment loss)\n");
    let data: Vec<u8> = (0..200_000usize).map(|i| (i % 249) as u8).collect();
    for placement in TcpPlacement::all() {
        let run = run_bulk_receive(placement, &data, 0.02, cfg.seed);
        assert_eq!(run.delivered, data, "TCP must deliver exactly");
        let _ = writeln!(out, "  {run}");
    }
    out + "\n"
}

fn search(cfg: &SuiteConfig) -> String {
    let mut out =
        String::from("§8 extension — disk-side content search (512 kB corpus, 6 signatures)\n");
    let needle = b"\x7fVIRUS_SIGNATURE";
    let corpus = build_corpus(512 * 1024, needle, 6, cfg.seed);
    for kind in SearchKind::all() {
        let _ = writeln!(out, "  {}", run_search(kind, &corpus, needle, cfg.seed));
    }
    out + "\n"
}

/// The `bench` selector among the experiments: a prose summary of the
/// channel and engine reports.
fn bench_summary(_: &SuiteConfig) -> String {
    let mut out = String::from("Channel data path — single vs batched (sim time)\n");
    for r in channel_bench::run_channel_bench() {
        let _ = writeln!(
            out,
            "  {:<8} {} msgs x {} B: {} ns ({} B/s, {} ns/msg)",
            r.name,
            r.messages,
            channel_bench::MSG_BYTES,
            r.elapsed_ns,
            r.throughput_bytes_per_sec,
            r.ns_per_message
        );
    }
    out.push_str("\nEngine core — calendar queue vs binary heap (wall clock)\n");
    let eng = engine_bench::run_engine_bench();
    for h in &eng.hold {
        let _ = writeln!(
            out,
            "  {:<16} {} ops @ {} pending: {} events/s",
            h.name,
            h.ops,
            h.pending,
            h.wall_events_per_sec()
        );
    }
    let _ = writeln!(
        out,
        "  speedup x100: {} (demo batched path: {} ns/msg)\n",
        eng.wall_speedup_x100(),
        eng.demo.wall_ns_per_message()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NIC_CRASH: &str = include_str!("../../../fixtures/faults/nic_crash.faults");

    /// Runs `faults` on `text` as if read from a file: a plan that does
    /// not parse must fail with one `repro:` line and no output, and one
    /// that parses must replay to one JSON object. Returns whether it
    /// parsed.
    fn replay_text(text: &str) -> bool {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let plan = parse_plan("hostile.faults", text);
        let parsed = plan.is_ok();
        let run = replay_faults(plan, false, &mut out, &mut err).expect("buffers accept writes");
        let (out, err) = (
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        );
        assert_eq!(run.ok, parsed, "{text}\n{err}");
        if parsed {
            assert!(err.is_empty(), "{err}");
            assert!(run.snapshot.is_some());
            assert!(out.starts_with("{\n") && out.ends_with("}\n"), "{out}");
            assert!(
                out.contains("\"schedule\"") && out.contains("\"audit\""),
                "{out}"
            );
            assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
        } else {
            assert!(out.is_empty(), "{out}");
            assert!(
                err.starts_with("repro: bad fault schedule hostile.faults"),
                "{err}"
            );
            assert_eq!(err.lines().count(), 1, "{err}");
        }
        parsed
    }

    /// Times from the start of the run to the end of simulated time.
    const TIMES: [&str; 6] = [
        "0ns",
        "500us",
        "2ms",
        "40ms",
        "18446744073s",
        "18446744073709551615ns",
    ];
    const KINDS: [&str; 4] = ["crash", "stall 3ms", "loss-burst 4", "ring-exhaustion 2"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The committed NIC-crash plan with bytes replaced, inserted or
        /// cut, or, one time in two, with digits of its numbers
        /// replaced, which more often keeps the plan parsable and moves
        /// the seed, the time or the device: no panic, whatever the
        /// text.
        #[test]
        fn mutated_fault_plans_never_panic(
            in_number in any::<bool>(),
            positions in proptest::collection::vec(any::<usize>(), 1..4),
            len in 0usize..4,
            junk in "[0-9a-z# \n-]{0,5}",
            digits in "[0-9]{1,3}",
        ) {
            let mut bytes = NIC_CRASH.as_bytes().to_vec();
            for at in positions {
                let (at, len, with) = if in_number {
                    let numbers: Vec<usize> =
                        (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
                    (numbers[at % numbers.len()], 1, &digits)
                } else {
                    (at % (bytes.len() + 1), len, &junk)
                };
                let end = (at + len).min(bytes.len());
                bytes.splice(at..end, with.bytes());
            }
            replay_text(&String::from_utf8_lossy(&bytes));
        }

        /// Grammar-shaped plans: crashes (and other faults) of every
        /// device, the host and devices past the demo's three included,
        /// at times up to the end of simulated time. Every one parses,
        /// and its recovery runs through `LayoutGraph::repair` under an
        /// arbitrary crash set.
        #[test]
        fn grammar_shaped_fault_plans_replay_to_json(
            seed in any::<u64>(),
            events in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let mut text = format!("seed {seed}\n");
            for e in events {
                let device = e % 6;
                let at = TIMES[(e >> 8) as usize % TIMES.len()];
                let kind = if e >> 16 & 1 == 0 { "crash" } else { KINDS[(e >> 17) as usize % KINDS.len()] };
                text.push_str(&format!("at {at} device {device} {kind}\n"));
            }
            prop_assert!(replay_text(&text), "{}", text);
        }
    }

    /// Every programmable device of the demo crashing at once: each
    /// Offcode falls back to the host.
    #[test]
    fn crashing_every_device_replays_to_json() {
        let text = "seed 1\nat 1ms device 1 crash\nat 1ms device 2 crash\nat 1ms device 3 crash\n";
        assert!(replay_text(text));
    }
}
