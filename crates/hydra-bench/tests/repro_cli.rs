//! CLI contract of the `repro` binary: selector listing, unknown-selector
//! failure, and the pure-JSON `bench` output that `BENCH_channel.json`
//! is a capture of.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_lists_every_selector_including_bench() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for selector in ["fig1", "fig9", "metrics", "trace", "bench"] {
        assert!(text.contains(selector), "--help must list '{selector}'");
    }
}

#[test]
fn unknown_selector_exits_nonzero_with_usage_on_stderr() {
    let out = repro(&["no-such-figure"]);
    assert!(!out.status.success(), "unknown selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown selector 'no-such-figure'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}

#[test]
fn bench_alone_emits_pure_deterministic_json() {
    let a = repro(&["bench"]);
    assert!(a.status.success());
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(text.starts_with('{'), "no banner before the JSON");
    assert!(text.contains("\"schema\": 1"));
    assert!(text.contains("\"bench\": \"channel\""));
    assert!(text.contains("\"name\": \"batch8\""));
    let b = repro(&["bench"]);
    assert_eq!(a.stdout, b.stdout, "byte-identical across runs");
}

#[test]
fn bench_channel_subselector_matches_bare_bench() {
    let bare = repro(&["bench"]);
    let explicit = repro(&["bench", "channel"]);
    assert!(explicit.status.success());
    assert_eq!(
        bare.stdout, explicit.stdout,
        "`bench` and `bench channel` are the same report"
    );
}

#[test]
fn bench_engine_emits_json_with_stable_sim_fields() {
    let a = repro(&["bench", "engine"]);
    assert!(a.status.success());
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(text.starts_with('{'), "no banner before the JSON");
    assert!(text.contains("\"schema\": 1"));
    assert!(text.contains("\"bench\": \"engine\""));
    assert!(text.contains("\"name\": \"churn_calendar\""));
    assert!(
        text.contains("\"wall_elapsed_ns\""),
        "wall-clock fields carry the wall_ prefix"
    );
    // Wall-clock lines differ run to run; everything else must not.
    let b = repro(&["bench", "engine"]);
    let sim_only = |bytes: &[u8]| -> String {
        let mut out = String::new();
        for l in String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.contains("\"wall_"))
        {
            out.push_str(l);
            out.push('\n');
        }
        out
    };
    assert_eq!(
        sim_only(&a.stdout),
        sim_only(&b.stdout),
        "sim fields byte-identical across runs"
    );
}

#[test]
fn stats_emits_pure_deterministic_timeline_json() {
    let a = repro(&["stats"]);
    assert!(a.status.success());
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(text.starts_with('{'), "no banner before the JSON");
    assert!(text.contains("\"schema\": 1"));
    assert!(text.contains("\"window_ns\": 1000000"));
    assert!(
        text.contains("\"label\": \"device-1\""),
        "NIC utilization row"
    );
    assert!(text.contains("\"label\": \"host\""), "host utilization row");
    assert!(
        text.contains("\"p50_ns\""),
        "latency quantiles by size bucket"
    );
    assert!(text.contains("\"p99_ns\""));
    assert!(text.contains("\"bucket_bytes\": 16384"), "bulk size class");
    let b = repro(&["stats"]);
    assert_eq!(a.stdout, b.stdout, "byte-identical across runs");
}

#[test]
fn stats_faulted_is_deterministic_and_differs_from_clean() {
    let clean = repro(&["stats"]);
    let a = repro(&["stats", "faulted"]);
    assert!(a.status.success());
    let b = repro(&["stats", "faulted"]);
    assert_eq!(a.stdout, b.stdout, "faulted run byte-identical across runs");
    assert_ne!(
        a.stdout, clean.stdout,
        "the fault plan perturbs the timeline"
    );
}

#[test]
fn stats_trace_renders_perfetto_counter_tracks() {
    let a = repro(&["stats", "trace"]);
    assert!(a.status.success());
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(text.starts_with('{'), "no banner before the JSON");
    assert!(
        text.contains("\"ph\":\"C\""),
        "sampled windows become Perfetto counter events"
    );
    assert!(text.contains("device.busy_ns"), "utilization counter track");
    assert!(
        text.contains("channel.queue_depth"),
        "queue-depth counter track"
    );
    let b = repro(&["stats", "trace"]);
    assert_eq!(a.stdout, b.stdout, "byte-identical across runs");
    let faulted = repro(&["stats", "faulted", "trace"]);
    assert!(faulted.status.success());
    assert_ne!(
        faulted.stdout, a.stdout,
        "the fault plan perturbs the trace"
    );
}

#[test]
fn unknown_stats_subselector_exits_nonzero_with_usage() {
    let out = repro(&["stats", "no-such-mode"]);
    assert!(!out.status.success(), "unknown stats selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown stats selector 'no-such-mode'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}

#[test]
fn help_lists_stats_selector() {
    let out = repro(&["--help"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stats"), "--help must list 'stats'");
    assert!(text.contains("telemetry timeline"));
}

#[test]
fn unknown_bench_subselector_exits_nonzero_with_usage() {
    let out = repro(&["bench", "no-such-bench"]);
    assert!(!out.status.success(), "unknown bench selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown bench selector 'no-such-bench'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}

#[test]
fn faults_rejects_extra_arguments_with_usage() {
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/faults/nic_crash.faults"
    );
    for extra in [vec![plan, "bogus"], vec![plan, plan, "trace"]] {
        let mut args = vec!["faults"];
        args.extend(extra);
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?}: extra schedule must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown faults selector"), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "usage goes to stderr");
        assert!(out.stdout.is_empty(), "nothing on stdout on failure");
    }
}

/// Plans whose stall windows reach past the end of simulated time, or
/// whose wedged ring slots sum past `usize::MAX`, run to completion
/// instead of overflowing.
#[test]
fn faults_survives_plans_at_the_limits_of_its_integers() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let plans = [
        "at 18446744073709551615ns device 1 stall 1s",
        "at 1ms device 1 stall 18446744073709551615ns",
        "at 1ms device 1 ring-exhaustion 18446744073709551615\n\
         at 2ms device 1 ring-exhaustion 18446744073709551615",
    ];
    for (i, event) in plans.into_iter().enumerate() {
        let path = dir.join(format!("hostile_{i}.faults"));
        std::fs::write(&path, format!("seed 1\n{event}\n")).expect("plan writes");
        let out = repro(&["faults", path.to_str().expect("UTF-8 path")]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{event}: {err}");
        let json = String::from_utf8(out.stdout).expect("UTF-8");
        assert!(
            json.starts_with('{') && json.trim_end().ends_with('}'),
            "{event}: {json}"
        );
        assert!(json.contains("\"schedule\""), "{event}: {json}");
    }
}

/// A document nested far past the XML parser's depth bound is an
/// `HV009` parse error for `lint` and `certify`, not a stack overflow.
#[test]
fn deeply_nested_xml_is_a_parse_error_not_an_abort() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested_100000.xml");
    let levels = 100_000;
    std::fs::write(&path, "<a>".repeat(levels) + &"</a>".repeat(levels)).expect("file writes");
    for cmd in ["lint", "certify"] {
        let out = repro(&[cmd, path.to_str().expect("UTF-8 path")]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(err.contains("HV009"), "{cmd}: {err}");
        let json = String::from_utf8(out.stdout).expect("UTF-8");
        assert!(json.contains("HV009"), "{cmd}: {json}");
        assert!(json.contains("deeper than"), "{cmd}: {json}");
    }
}

/// A clean deployment followed by a comment or PI that never closes is
/// an `HV009` parse error for `lint` and `certify`, not "clean".
#[test]
fn unterminated_trailing_comment_or_pi_is_a_parse_error() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/certify/ring_write_race.xml"
    );
    let clean = std::fs::read_to_string(fixture).expect("fixture reads");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, tail) in ["<!-- never closed", "<?pi never closed"]
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("unterminated_tail_{i}.xml"));
        std::fs::write(&path, format!("{clean}\n{tail}")).expect("file writes");
        for cmd in ["lint", "certify"] {
            let out = repro(&[cmd, path.to_str().expect("UTF-8 path")]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {tail}: {err}");
            assert!(err.contains("HV009"), "{cmd} {tail}: {err}");
            let json = String::from_utf8(out.stdout).expect("UTF-8");
            assert!(json.contains("HV009"), "{cmd} {tail}: {json}");
            assert!(json.contains("unterminated"), "{cmd} {tail}: {json}");
        }
    }
}
