//! The quantitative-certification gate (tier 1): the `certify` rows of
//! `hydra_bench::ARTIFACTS`, plus the differential the committed report
//! cannot express.
//!
//! Four contracts:
//!
//! 1. the built-in declared-traffic sets (`demo`, `tivo`, `stats`)
//!    certify with zero errors and a byte-stable canonical JSON report,
//!    equal to the committed `artifacts/certify.json`;
//! 2. each committed `fixtures/certify/*.xml` failure case fires
//!    exactly its designated diagnostic code (HV040 queue overflow,
//!    HV042 utilization overrun, HV050 ring-write race);
//! 3. the **differential**: replaying each set's declared arrival
//!    curves against real channels never observes a p99 latency or
//!    peak queue depth above the certificate's static bounds;
//! 4. the stats scenario's full telemetry — clean *and* under its
//!    committed fault plan — stays bracketed by the (overlay-widened)
//!    certificate: per-ring p99/depth and per-device busy permille.

mod gate;

use gate::{assert_no_failures, row};
use hydra::core::device::{DeviceDescriptor, DeviceRegistry};
use hydra::devices::DEVICE_BUSY_NS;
use hydra::obs::sustained_busy_permille;
use hydra::tivo::certify::{
    certify_service_table, certify_set, demo_certify_odfs, observe_declared, stats_observation,
    tivo_certify_odfs, Observation,
};
use hydra::tivo::stats::stats_demo_plan;
use hydra::verify::{Certification, CertifyInput, FaultOverlay, VerifyInput};
use hydra_bench::certify::{any_errors, run_certify};
use hydra_bench::ARTIFACTS;

fn certify(name: &str, overlay: Option<&FaultOverlay>) -> Certification {
    let (odfs, _) = certify_set(name).expect("built-in set");
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    let table = reg.verify_table();
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

#[test]
fn builtin_sets_certify_error_free() {
    assert_no_failures(&gate::outcome_failures(row(&["certify"])));
    let results = run_certify(&[]);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(
            !r.certification.report.has_errors(),
            "{} must certify clean:\n{}",
            r.name,
            r.certification.report.render_human()
        );
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
    assert!(!any_errors(&results));
}

#[test]
fn certify_json_is_byte_stable() {
    let certify = row(&["certify"]);
    assert_no_failures(&gate::replay_failures(certify));
    let json = &gate::fresh(certify).stdout;
    for marker in [
        "\"certificate\"",
        "\"queue_bound\"",
        "\"latency_bound_ns\"",
        "\"permille\"",
        "\"chains\"",
    ] {
        assert!(json.contains(marker), "report carries {marker}");
    }
}

#[test]
fn committed_fixtures_fire_their_designated_codes() {
    let cases = [
        ("fixtures/certify/queue_overflow.xml", "HV040"),
        ("fixtures/certify/utilization_overrun.xml", "HV042"),
        ("fixtures/certify/ring_write_race.xml", "HV050"),
    ];
    for (path, code) in cases {
        let fixture = row(&["certify", path]);
        assert_eq!(ARTIFACTS[fixture].codes, [code], "{path} expects {code}");
        assert_no_failures(&gate::outcome_failures(fixture));
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
