//! Certification scenarios: declared-traffic ODF sets and the
//! bound-vs-observed differential replay.
//!
//! `repro -- certify` runs `hydra-verify`'s quantitative passes over
//! three built-in deployments. The sets here are the regular demo and
//! TiVo-client ODF graphs annotated with `<traffic>` declarations
//! (arrival curves), plus a synthetic `stats` set shaped after the
//! telemetry scenario in [`crate::stats`], so the static certificate can
//! be checked against that scenario's observed timelines.
//!
//! The module also carries the empirical half of the differential
//! harness:
//!
//! - [`observe_declared`] replays a declared-traffic set against real
//!   Figure-3 channels at exactly the declared rates and payload sizes,
//!   then reports per-ring observed p99 latency and peak queue depth —
//!   numbers the certificate's bounds must bracket.
//! - [`stats_observation`] extracts the same observed values from the
//!   full `repro -- stats` scenario (clean or faulted), mapping its two
//!   channels onto the synthetic set's rings.
//! - [`stats_overlay`] converts the committed stats fault plan into the
//!   disruption budget that widens the faulted certificate.

use bytes::Bytes;
use hydra_core::channel::{ChannelConfig, ChannelExecutive, CHANNEL_QUEUE_DEPTH};
use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_obs::{peak_level, MetricsSnapshot, Sampler};
use hydra_odf::odf::{
    class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra_sim::fault::{FaultKind, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;
use hydra_verify::{FaultOverlay, ServiceTable};

use crate::stats::{run_stats_observed, stats_horizon};

/// Recovery allowance charged per [`FaultKind::Crash`] event: the
/// disruption budget assumes the crashed device is effectively lost for
/// this long (re-deployment, failover) within the observation horizon.
const CRASH_RECOVERY_NS: u64 = 1_000_000;

/// Charge per lost frame / exhausted ring slot when converting the
/// remaining fault kinds into disruption time.
const PER_UNIT_FAULT_NS: u64 = 10_000;

fn link(guid: Guid, bind_name: &str) -> Import {
    Import {
        file: String::new(),
        bind_name: bind_name.into(),
        guid,
        constraint: ConstraintKind::Link,
        priority: 0,
    }
}

fn traffic(rate_per_sec: u64, burst: u64, max_bytes: u64) -> TrafficSpec {
    TrafficSpec {
        rate_per_sec,
        burst,
        max_bytes,
    }
}

/// The demo deployment ([`crate::demo::demo_odfs`]) with declared
/// arrival curves: the streamer and decoder each sustain 5 000 calls/s
/// in bursts of two 1 500-byte messages toward their import.
#[must_use]
pub fn demo_certify_odfs() -> Vec<OdfDocument> {
    crate::demo::demo_odfs()
        .into_iter()
        .map(|odf| {
            if odf.imports.is_empty() {
                odf
            } else {
                odf.with_traffic(traffic(5_000, 2, 1_500))
            }
        })
        .collect()
}

/// The TiVo client deployment ([`crate::components::tivo_client_odfs`])
/// with declared arrival curves: the GUI issues rare small control
/// calls; the streaming pipeline sustains 3 000 calls/s of 16 KiB
/// payloads in bursts of two.
#[must_use]
pub fn tivo_certify_odfs() -> Vec<OdfDocument> {
    crate::components::tivo_client_odfs()
        .into_iter()
        .map(|odf| match odf.bind_name.as_str() {
            "tivo.Gui" => odf.with_traffic(traffic(200, 1, 512)),
            "tivo.Streamer.Net" | "tivo.Streamer.Disk" | "tivo.Decoder" => {
                odf.with_traffic(traffic(3_000, 2, 16_384))
            }
            _ => odf,
        })
        .collect()
}

/// A synthetic deployment shaped after the `repro -- stats` telemetry
/// scenario: one bulk source feeding a NIC-resident sink that fans out
/// to GPU / disk / host backends (the 16 KiB / 1 KiB / 64 B size
/// classes), a small-payload control path into the disk, and a periodic
/// host-load chain. Its certificate's NIC-ring and control-ring bounds
/// are the ones the stats scenario's observed telemetry must respect.
#[must_use]
pub fn stats_certify_odfs() -> Vec<OdfDocument> {
    let source = OdfDocument::new("stats.Source", Guid(0x9001))
        .with_traffic(traffic(10_000, 2, 16_384))
        .with_import(link(Guid(0x9002), "stats.NicSink"));
    let nic_sink = OdfDocument::new("stats.NicSink", Guid(0x9002))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_traffic(traffic(4_000, 2, 16_384))
        .with_import(link(Guid(0x9003), "stats.GpuSink"))
        .with_import(link(Guid(0x9004), "stats.DiskSink"))
        .with_import(link(Guid(0x9005), "stats.HostSink"));
    let gpu_sink = OdfDocument::new("stats.GpuSink", Guid(0x9003))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU));
    let disk_sink = OdfDocument::new("stats.DiskSink", Guid(0x9004))
        .with_target(DeviceClassSpec::numbered(class_ids::STORAGE));
    let host_sink = OdfDocument::new("stats.HostSink", Guid(0x9005));
    let ctl_source = OdfDocument::new("stats.CtlSource", Guid(0x9006))
        .with_traffic(traffic(2_000, 1, 32))
        .with_import(link(Guid(0x9007), "stats.CtlSink"));
    let ctl_sink = OdfDocument::new("stats.CtlSink", Guid(0x9007))
        .with_target(DeviceClassSpec::numbered(class_ids::STORAGE));
    let host_load = OdfDocument::new("stats.HostLoad", Guid(0x9008))
        .with_traffic(traffic(2_000, 1, 16_384))
        .with_import(link(Guid(0x9009), "stats.HostSpin"));
    let host_spin = OdfDocument::new("stats.HostSpin", Guid(0x9009));
    vec![
        source, nic_sink, gpu_sink, disk_sink, host_sink, ctl_source, ctl_sink, host_load,
        host_spin,
    ]
}

/// The service table certification runs against: exported from a
/// Channel Executive carrying the full provider family (defaults plus
/// the PIO / doorbell-batch extras), so the analysis prices messages
/// with exactly the cost tables the runtime bids with.
#[must_use]
pub fn certify_service_table() -> ServiceTable {
    let mut exec = ChannelExecutive::with_default_providers();
    hydra_core::providers::install_extras(&mut exec);
    exec.service_table()
}

/// Converts a committed fault plan into the disruption budget that
/// widens a certificate: stalls charge their duration, crashes charge a
/// fixed recovery allowance, loss bursts and ring exhaustion charge per
/// lost unit. Amortized over the stats scenario horizon.
#[must_use]
pub fn stats_overlay(plan: &FaultPlan) -> FaultOverlay {
    let disruptions = plan
        .events()
        .iter()
        .map(|e| {
            let ns = match e.kind {
                FaultKind::Stall { duration } => duration.as_nanos(),
                FaultKind::Crash => CRASH_RECOVERY_NS,
                FaultKind::LossBurst { frames } => u64::from(frames) * PER_UNIT_FAULT_NS,
                FaultKind::RingExhaustion { slots } => slots as u64 * PER_UNIT_FAULT_NS,
            };
            (e.device, ns)
        })
        .collect();
    FaultOverlay {
        disruptions,
        horizon_ns: stats_horizon().as_nanos(),
    }
}

/// Resolves a built-in certification set by name: the ODFs plus the
/// fault overlay the set is certified under (only `stats` commits to a
/// fault plan). Returns `None` for unknown names.
#[must_use]
pub fn certify_set(name: &str) -> Option<(Vec<OdfDocument>, Option<FaultOverlay>)> {
    match name {
        "demo" => Some((demo_certify_odfs(), None)),
        "tivo" => Some((tivo_certify_odfs(), None)),
        "stats" => Some((
            stats_certify_odfs(),
            Some(stats_overlay(&crate::stats::stats_demo_plan())),
        )),
        _ => None,
    }
}

/// One ring's observed telemetry from a replay or the stats scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedChannel {
    /// Bind name of the serving Offcode (the certificate's ring key).
    pub ring: String,
    /// The channel's metric label (`chan#N`).
    pub label: String,
    /// Worst observed p99 send latency across the size buckets.
    pub p99_ns: u64,
    /// Peak queue depth any telemetry window edge caught.
    pub peak_depth: u64,
}

/// The observed side of the differential harness: the full metrics
/// snapshot plus the per-ring latency/depth extracts.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The run's frozen telemetry.
    pub snapshot: MetricsSnapshot,
    /// Per-ring observed values, in channel-creation order.
    pub channels: Vec<ObservedChannel>,
    /// The run horizon in nanoseconds (busy-permille denominator).
    pub horizon_ns: u64,
}

struct ReplayModel {
    rt: Runtime,
}

fn device_for(odf: &OdfDocument) -> DeviceId {
    match odf.targets.first().map(|t| t.id) {
        Some(class_ids::NETWORK) => DeviceId(1),
        Some(class_ids::STORAGE) => DeviceId(2),
        Some(class_ids::GPU) => DeviceId(3),
        _ => DeviceId(0),
    }
}

/// Replays a declared-traffic ODF set against real channels: every ring
/// (imported Offcode) gets a Figure-3 channel on its first target-class
/// device, and every import edge drives it at exactly the writer's
/// declared curve — `burst` messages of `max_bytes` every
/// `burst/rate` seconds, drained at the next tick. Undeclared writers
/// fall back to the analysis defaults (1 000 msg/s, burst 1, 1 KiB), so
/// the replay and the certificate price the same traffic.
///
/// Runs for 10 ms with 1 ms telemetry windows and returns the observed
/// per-ring p99 latency and peak queue depth the certificate must
/// bracket.
#[must_use]
pub fn observe_declared(odfs: &[OdfDocument]) -> Observation {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    let mut rt = Runtime::new(reg, RuntimeConfig::default());

    let mut imported = vec![false; odfs.len()];
    let mut edges = Vec::new();
    for (wi, odf) in odfs.iter().enumerate() {
        for imp in &odf.imports {
            if let Some(ri) = odfs.iter().position(|o| o.guid == imp.guid) {
                imported[ri] = true;
                edges.push((wi, ri));
            }
        }
    }
    let mut rings = Vec::new();
    for (ri, odf) in odfs.iter().enumerate() {
        if !imported[ri] {
            continue;
        }
        let exec = rt.executive_mut();
        let id = exec
            .create_channel(ChannelConfig::figure3(device_for(odf)))
            .expect("replay channel");
        let ep = exec
            .get_mut(id)
            .expect("fresh channel is live")
            .connect_endpoint()
            .expect("fresh channel has room");
        rings.push((ri, id, ep));
    }

    let rec = rt.recorder().clone();
    let horizon = SimTime::from_millis(10);
    let mut sim = Sim::new(ReplayModel { rt });
    Sampler::new(SimDuration::from_millis(1), horizon).install(&mut sim, &rec);
    for (wi, ri) in edges {
        let Some(&(_, id, ep)) = rings.iter().find(|(r, _, _)| *r == ri) else {
            continue;
        };
        let t = odfs[wi].traffic.unwrap_or(TrafficSpec {
            rate_per_sec: 1_000,
            burst: 1,
            max_bytes: 1_024,
        });
        let period_ns = t
            .burst
            .saturating_mul(1_000_000_000)
            .checked_div(t.rate_per_sec)
            .unwrap_or(1_000_000);
        let period = SimDuration::from_nanos(period_ns.max(1));
        let payload = Bytes::from(vec![0x42u8; usize::try_from(t.max_bytes).unwrap_or(1_024)]);
        let burst = t.burst;
        sim.every(SimTime::ZERO + period, period, move |sim| {
            let now = sim.now();
            let m = sim.model_mut();
            let ch = m.rt.executive_mut().get_mut(id).expect("replay channel");
            let _ = ch.recv_batch(now, ep, usize::MAX);
            for _ in 0..burst {
                let _ = ch.send(now, payload.clone());
            }
            now.saturating_add(period) <= horizon
        });
    }
    sim.run();

    let model = sim.into_model();
    let snap = model.rt.metrics_snapshot();
    let exec = model.rt.executive();
    let channels = rings
        .iter()
        .map(|&(ri, id, _)| {
            let ch = exec.get(id).expect("replay channel is live");
            let p99 = ch
                .cost_profile()
                .size_buckets()
                .map(|(_, h)| h.p99().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let label = format!("chan#{}", id.0);
            let peak_depth = peak_level(&snap, CHANNEL_QUEUE_DEPTH, &label);
            ObservedChannel {
                ring: odfs[ri].bind_name.clone(),
                label,
                p99_ns: p99,
                peak_depth,
            }
        })
        .collect();
    Observation {
        snapshot: snap,
        channels,
        horizon_ns: horizon.as_nanos(),
    }
}

/// The observed side of the stats differential: runs the full
/// `repro -- stats` scenario (optionally under its fault plan) and maps
/// its two channels onto the synthetic certification set's rings — the
/// bulk channel is `stats.NicSink`'s ring, the OOB control channel is
/// `stats.CtlSink`'s.
#[must_use]
pub fn stats_observation(plan: Option<&FaultPlan>) -> Observation {
    let (snapshot, observed) = run_stats_observed(plan);
    let rings = ["stats.NicSink", "stats.CtlSink"];
    let channels = observed
        .into_iter()
        .zip(rings)
        .map(|(obs, ring)| {
            let peak_depth = peak_level(&snapshot, CHANNEL_QUEUE_DEPTH, &obs.label);
            ObservedChannel {
                ring: ring.to_owned(),
                label: obs.label,
                p99_ns: obs.p99_ns,
                peak_depth,
            }
        })
        .collect();
    Observation {
        snapshot,
        channels,
        horizon_ns: stats_horizon().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_verify::{Certification, CertifyInput, VerifyInput};

    fn certify(name: &str) -> Certification {
        let (odfs, overlay) = certify_set(name).expect("built-in set");
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic());
        reg.install(DeviceDescriptor::smart_disk());
        reg.install(DeviceDescriptor::gpu());
        let table = reg.verify_table();
        let services = certify_service_table();
        hydra_verify::certify(&CertifyInput {
            verify: VerifyInput {
                odfs: &odfs,
                devices: &table,
                demands: None,
                roots: None,
            },
            services: &services,
            overlay: overlay.as_ref(),
        })
    }

    #[test]
    fn builtin_certify_sets_are_error_free() {
        for name in ["demo", "tivo", "stats"] {
            let cert = certify(name);
            assert!(
                !cert.report.has_errors(),
                "{name} must certify clean: {}",
                cert.report.render_human()
            );
            assert!(!cert.certificate.channels.is_empty(), "{name} has rings");
            assert!(!cert.certificate.chains.is_empty(), "{name} has chains");
        }
    }

    #[test]
    fn stats_overlay_widens_but_stays_bounded() {
        let base = {
            let (odfs, _) = certify_set("stats").expect("set");
            let mut reg = DeviceRegistry::new();
            reg.install(DeviceDescriptor::programmable_nic());
            reg.install(DeviceDescriptor::smart_disk());
            reg.install(DeviceDescriptor::gpu());
            let table = reg.verify_table();
            let services = certify_service_table();
            hydra_verify::certify(&CertifyInput {
                verify: VerifyInput {
                    odfs: &odfs,
                    devices: &table,
                    demands: None,
                    roots: None,
                },
                services: &services,
                overlay: None,
            })
        };
        let faulted = certify("stats");
        let clean_nic = base
            .certificate
            .channel("stats.NicSink")
            .and_then(|c| c.latency_bound_ns)
            .expect("clean NIC ring bound");
        let faulted_nic = faulted
            .certificate
            .channel("stats.NicSink")
            .and_then(|c| c.latency_bound_ns)
            .expect("faulted NIC ring bound");
        assert!(faulted_nic > clean_nic, "the overlay widens the NIC bound");
        for d in &faulted.certificate.devices {
            assert!(d.permille <= 1000, "{} stays a valid permille", d.name);
        }
    }

    #[test]
    fn replay_honors_declared_rings() {
        let odfs = demo_certify_odfs();
        let obs = observe_declared(&odfs);
        // Two rings: the decoder's and the display's.
        assert_eq!(obs.channels.len(), 2);
        assert!(obs.channels.iter().any(|c| c.ring == "tivo.Decoder"));
        assert!(obs.channels.iter().all(|c| c.p99_ns > 0), "traffic flowed");
    }

    #[test]
    fn observed_demo_telemetry_is_bracketed() {
        let cert = certify("demo");
        let obs = observe_declared(&demo_certify_odfs());
        for ch in &obs.channels {
            let bound = cert.certificate.channel(&ch.ring).expect("certified ring");
            assert!(
                ch.p99_ns <= bound.latency_bound_ns.expect("stable ring"),
                "{}: observed p99 {} within bound",
                ch.ring,
                ch.p99_ns
            );
            assert!(ch.peak_depth <= bound.queue_bound);
        }
    }
}
