//! Property tests for the quantitative certification passes:
//!
//! * certification of any well-formed declared-traffic chain is
//!   **deterministic** — two runs emit byte-identical reports and
//!   certificates;
//! * for any chain the certifier accepts, replaying the declared
//!   arrival curves against real channels observes p99 latencies and
//!   queue depths **inside** the certified bounds (the differential,
//!   property-sized);
//! * seeded overload mutations always fire the matching diagnostic:
//!   an oversized burst fires `HV040`, an unserviceable rate `HV041`.

use hydra::core::device::{DeviceDescriptor, DeviceRegistry};
use hydra::odf::odf::{
    class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra::tivo::certify::{certify_service_table, observe_declared};
use hydra::verify::{Certification, CertifyInput, HvCode, VerifyInput};
use proptest::prelude::*;

fn certify(odfs: &[OdfDocument]) -> Certification {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    let table = reg.verify_table();
    let services = certify_service_table();
    hydra::verify::certify(&CertifyInput {
        verify: VerifyInput {
            odfs,
            devices: &table,
            demands: None,
            roots: None,
        },
        services: &services,
        overlay: None,
    })
}

/// One hop of a generated pipeline: the writer's declared curve plus
/// the serving node's target class (`None` = host-only).
#[derive(Debug, Clone)]
struct Hop {
    rate_per_sec: u64,
    burst: u64,
    max_bytes: u64,
    target: Option<u32>,
}

/// Derives one hop from a random seed (the vendored proptest has no
/// tuple strategies, so composite values unpack a `u64`).
fn hop(seed: u64) -> Hop {
    Hop {
        rate_per_sec: 500 + seed % 4_500,
        burst: 1 + (seed >> 16) % 2,
        max_bytes: [64, 1_024, 16_384][((seed >> 32) % 3) as usize],
        target: [
            None,
            Some(class_ids::NETWORK),
            Some(class_ids::STORAGE),
            Some(class_ids::GPU),
        ][((seed >> 48) % 4) as usize],
    }
}

/// A linear pipeline `chain.0 -> chain.1 -> ...`: every node but the
/// last declares its curve toward the next. Single-writer rings with
/// modest rates, so the set always certifies clean.
fn chain(seeds: &[u64]) -> Vec<OdfDocument> {
    let n = seeds.len();
    seeds
        .iter()
        .map(|&s| hop(s))
        .enumerate()
        .map(|(i, h)| {
            let mut odf = OdfDocument::new(format!("chain.{i}"), Guid(0x4000 + i as u64));
            if let Some(id) = h.target {
                odf = odf.with_target(DeviceClassSpec::numbered(id));
            }
            if i + 1 < n {
                odf = odf
                    .with_traffic(TrafficSpec {
                        rate_per_sec: h.rate_per_sec,
                        burst: h.burst,
                        max_bytes: h.max_bytes,
                    })
                    .with_import(Import {
                        file: String::new(),
                        bind_name: format!("chain.{}", i + 1),
                        guid: Guid(0x4000 + (i + 1) as u64),
                        constraint: ConstraintKind::Link,
                        priority: 0,
                    });
            }
            odf
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn certification_is_deterministic(seeds in proptest::collection::vec(any::<u64>(), 2..5)) {
        let odfs = chain(&seeds);
        let a = certify(&odfs);
        let b = certify(&odfs);
        prop_assert_eq!(a.report.to_json(), b.report.to_json());
        prop_assert_eq!(a.certificate.to_json(), b.certificate.to_json());
    }

    #[test]
    fn accepted_chains_bracket_their_replay(seeds in proptest::collection::vec(any::<u64>(), 2..4)) {
        let odfs = chain(&seeds);
        let cert = certify(&odfs);
        prop_assert!(!cert.report.has_errors(), "modest chains certify clean");
        let obs = observe_declared(&odfs);
        for ch in &obs.channels {
            let bound = cert.certificate.channel(&ch.ring).expect("certified ring");
            let latency = bound.latency_bound_ns.expect("stable ring");
            prop_assert!(
                ch.p99_ns <= latency,
                "{}: observed p99 {} escapes bound {}", ch.ring, ch.p99_ns, latency
            );
            prop_assert!(
                ch.peak_depth <= bound.queue_bound,
                "{}: observed depth {} escapes bound {}", ch.ring, ch.peak_depth, bound.queue_bound
            );
        }
    }

    #[test]
    fn oversized_bursts_always_fire_hv040(
        seeds in proptest::collection::vec(any::<u64>(), 2..4),
        burst in 100u64..400,
    ) {
        let mut odfs = chain(&seeds);
        let t = odfs[0].traffic.expect("writer declares traffic");
        odfs[0] = odfs[0].clone().with_traffic(TrafficSpec { burst, ..t });
        let cert = certify(&odfs);
        prop_assert!(
            cert.report.errors().any(|d| d.code == HvCode::QueueBoundExceedsRing),
            "burst {} must overflow the 64-entry ring:\n{}",
            burst,
            cert.report.render_human()
        );
    }

    #[test]
    fn unserviceable_rates_always_fire_hv041(seeds in proptest::collection::vec(any::<u64>(), 2..4)) {
        let mut odfs = chain(&seeds);
        let t = odfs[0].traffic.expect("writer declares traffic");
        odfs[0] = odfs[0].clone().with_traffic(TrafficSpec {
            rate_per_sec: 1_000_000,
            max_bytes: 16_384,
            ..t
        });
        let cert = certify(&odfs);
        prop_assert!(
            cert.report.errors().any(|d| d.code == HvCode::UnstableChannel),
            "a 1M msg/s 16 KiB feed cannot be stable:\n{}",
            cert.report.render_human()
        );
    }
}
