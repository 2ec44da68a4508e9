//! The shared telemetry-timeline scenario behind `repro -- stats`.
//!
//! Where [`demo`](crate::demo) exercises end-of-run aggregates, this
//! scenario exists to exercise the *windowed* telemetry stack: a
//! [`Sampler`] ticking every millisecond inside the DES engine while a
//! mixed workload keeps every device model busy — bursty varied-size
//! traffic on a Figure-3 bulk channel into the NIC, small control calls
//! on an OOB channel, block writes through the smart disk's NAS link,
//! GPU hardware decodes, and periodic host OS work. Each closed window
//! then carries per-device `device.busy_ns` / `link.busy_ns` deltas
//! (utilization) and per-channel `channel.queue_depth` levels, and the
//! channels accumulate live [`CostProfile`]s (size-bucketed latency
//! digests, EWMA, launch-overhead counters).
//!
//! [`run_stats_demo`] renders all of that as one canonical hand-rolled
//! JSON report. Everything is driven by sim time and deterministic
//! models, so two invocations — with or without a fault plan — are
//! byte-identical; the root `artifact_gate` test diffs `repro -- stats`
//! and `repro -- stats faulted` against their committed outputs.

use bytes::Bytes;
use hydra_core::channel::{ChannelConfig, ChannelId, CostProfile, CHANNEL_QUEUE_DEPTH};
use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_devices::disk::SmartDiskModel;
use hydra_devices::gpu::GpuModel;
use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_devices::{DEVICE_BUSY_NS, LINK_BUSY_NS};
use hydra_hw::mem::Region;
use hydra_media::codec::{CodecConfig, EncodedFrame, Encoder, GopConfig};
use hydra_media::frame::SyntheticVideo;
use hydra_net::nfs::{NasServer, NasTiming};
use hydra_obs::{json_str, MetricsSnapshot, Sampler};
use hydra_sim::fault::{FaultKind, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

/// Telemetry window width: 1 ms.
pub fn stats_window() -> SimDuration {
    SimDuration::from_millis(1)
}

/// Scenario horizon: 10 ms of sim time, i.e. ten closed windows.
pub fn stats_horizon() -> SimTime {
    SimTime::from_millis(10)
}

/// The fault plan `repro -- stats` runs under when asked for the faulted
/// variant, and the one the gate tests replay: the NIC crashes at 4 ms,
/// the GPU stalls at 2 ms, and the disk wedges late.
pub fn stats_demo_plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_event(
            SimTime::from_millis(2),
            3,
            FaultKind::Stall {
                duration: SimDuration::from_micros(400),
            },
        )
        .with_event(SimTime::from_millis(4), 1, FaultKind::Crash)
        .with_event(SimTime::from_millis(7), 2, FaultKind::Crash)
}

/// Everything the scenario mutates from inside sim events.
struct StatsModel {
    rt: Runtime,
    bulk: ChannelId,
    oob: ChannelId,
    bulk_ep: usize,
    oob_ep: usize,
    host: HostModel,
    nic: NicModel,
    disk: SmartDiskModel,
    gpu: GpuModel,
    nas: NasServer,
    frames: Vec<EncodedFrame>,
    copy_src: Region,
    copy_dst: Region,
    bursts: u64,
    blocks: u64,
}

fn build(plan: Option<&FaultPlan>) -> StatsModel {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    let mut rt = Runtime::new(reg, RuntimeConfig::default());

    let rec = rt.recorder().clone();
    let exec = rt.executive_mut();
    let bulk = exec
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .expect("bulk channel on the NIC");
    let oob = exec
        .create_channel(ChannelConfig::oob(DeviceId(2)))
        .expect("control channel on the disk");
    let bulk_ep = exec
        .get_mut(bulk)
        .expect("bulk channel is live")
        .connect_endpoint()
        .expect("fresh channel has room");
    let oob_ep = exec
        .get_mut(oob)
        .expect("oob channel is live")
        .connect_endpoint()
        .expect("fresh channel has room");

    let mut host = HostModel::paper_host(7);
    host.set_recorder(rec.clone());
    let copy_src = host.space.alloc("stats-src", 64 * 1024);
    let copy_dst = host.space.alloc("stats-dst", 64 * 1024);
    let mut nic = NicModel::new_3c985b(11);
    nic.set_recorder(rec.clone(), 1);
    let mut disk = SmartDiskModel::new();
    disk.set_recorder(rec.clone(), 2);
    let mut gpu = GpuModel::new();
    gpu.set_recorder(rec, 3);
    let mut nas = NasServer::new(NasTiming::typical());
    disk.open(&mut nas, "/stats/telemetry.dat");
    if let Some(p) = plan {
        nic.install_faults(p.injector(1));
        disk.install_faults(p.injector(2));
        gpu.install_faults(p.injector(3));
    }

    let video = SyntheticVideo::new(64, 48);
    let raw: Vec<_> = (0..4).map(|i| video.frame(i)).collect();
    let frames = Encoder::new(CodecConfig {
        quantizer: 4,
        gop: GopConfig::ipp(),
    })
    .encode_sequence(&raw);

    StatsModel {
        rt,
        bulk,
        oob,
        bulk_ep,
        oob_ep,
        host,
        nic,
        disk,
        gpu,
        nas,
        frames,
        copy_src,
        copy_dst,
        bursts: 0,
        blocks: 0,
    }
}

/// Bulk traffic every 200 µs: drain what last burst left on the channel
/// (so window edges catch a non-zero queue depth), push the drained
/// bytes through the device datapath, then send the next burst with the
/// payload size cycling through three power-of-two latency buckets.
fn schedule_traffic(sim: &mut Sim<StatsModel>, until: SimTime) {
    let period = SimDuration::from_micros(200);
    sim.every(SimTime::ZERO + period, period, move |sim| {
        let now = sim.now();
        let m = sim.model_mut();

        let msgs = {
            let ch = m.rt.executive_mut().get_mut(m.bulk).expect("bulk channel");
            ch.recv_batch(now, m.bulk_ep, usize::MAX)
        };
        for msg in &msgs {
            if m.nic.rx_frame(now, msg.data.len()).is_none() {
                continue; // NIC down or frame lost: nothing reaches the backends.
            }
            if msg.data.len() >= 16 * 1024 {
                let frame = &m.frames[(m.bursts % m.frames.len() as u64) as usize];
                let _ = m.gpu.hw_decode_faulted(now, frame);
            } else if msg.data.len() >= 1024 {
                if m.disk
                    .write_block(now, &mut m.nas, m.blocks, msg.data.clone())
                    .is_ok()
                {
                    m.blocks += 1;
                }
            } else {
                m.host.syscall(now);
            }
        }

        m.bursts += 1;
        let len = match m.bursts % 3 {
            0 => 16 * 1024,
            1 => 64,
            _ => 1024,
        };
        let payload = Bytes::from(vec![0x5Au8; len]);
        let ch = m.rt.executive_mut().get_mut(m.bulk).expect("bulk channel");
        for _ in 0..2 {
            let _ = ch.send(now, payload.clone());
        }
        now.saturating_add(period) <= until
    });
}

/// Small control calls every 500 µs on the OOB channel, drained at their
/// delivery instant, plus the host-side submit/dispatch cost.
fn schedule_control(sim: &mut Sim<StatsModel>, until: SimTime) {
    let period = SimDuration::from_micros(500);
    sim.every(SimTime::ZERO + period, period, move |sim| {
        let now = sim.now();
        let m = sim.model_mut();
        m.host.syscall(now);
        let ch = m.rt.executive_mut().get_mut(m.oob).expect("oob channel");
        if let Ok(at) = ch.send(now, Bytes::from_static(&[0xC0; 32])) {
            let _ = ch.recv_batch(at, m.oob_ep, usize::MAX);
        }
        m.host.context_switch(now);
        now.saturating_add(period) <= until
    });
}

/// Background host load every 1 ms (offset 300 µs so it never lands on a
/// window edge): timer tick, an interrupt, and a 16 KiB kernel copy.
fn schedule_host_load(sim: &mut Sim<StatsModel>, until: SimTime) {
    let period = SimDuration::from_millis(1);
    sim.every(
        SimTime::ZERO + SimDuration::from_micros(300),
        period,
        move |sim| {
            let now = sim.now();
            let m = sim.model_mut();
            m.host.background_tick(now);
            m.host.interrupt(now);
            m.host.cpu_copy(now, m.copy_src, m.copy_dst, 16 * 1024);
            now.saturating_add(period) <= until
        },
    );
}

/// Drives the scenario to its horizon and returns the settled model.
fn run_scenario(plan: Option<&FaultPlan>) -> StatsModel {
    let until = stats_horizon();
    let mut sim = Sim::new(build(plan));
    let rec = sim.model().rt.recorder().clone();
    Sampler::new(stats_window(), until).install(&mut sim, &rec);
    schedule_traffic(&mut sim, until);
    schedule_control(&mut sim, until);
    schedule_host_load(&mut sim, until);
    sim.run();
    sim.into_model()
}

/// Runs the telemetry scenario (optionally under a [`FaultPlan`]) and
/// returns the populated metrics snapshot plus the canonical JSON stats
/// report. Byte-identical across identical invocations.
#[must_use]
pub fn run_stats_demo(plan: Option<&FaultPlan>) -> (MetricsSnapshot, String) {
    let model = run_scenario(plan);
    let snap = model.rt.metrics_snapshot();
    let exec = model.rt.executive();
    let channels: Vec<(ChannelId, &str, &CostProfile)> = [model.bulk, model.oob]
        .into_iter()
        .map(|id| {
            let ch = exec.get(id).expect("scenario channel is live");
            (id, ch.provider_name(), ch.cost_profile())
        })
        .collect();
    let json = render_stats(&snap, stats_window(), &channels);
    (snap, json)
}

/// Observed worst-case latency for one scenario channel, for the
/// bound-vs-observed differential harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsChannelObs {
    /// The channel's metric label (`chan#0` = bulk, `chan#1` = OOB).
    pub label: String,
    /// The worst p99 send latency across the channel's size buckets.
    pub p99_ns: u64,
}

/// Runs the telemetry scenario and returns the snapshot plus each
/// channel's observed worst p99 latency — the empirical side the static
/// certificate's per-ring latency bounds must bracket.
#[must_use]
pub fn run_stats_observed(plan: Option<&FaultPlan>) -> (MetricsSnapshot, Vec<StatsChannelObs>) {
    let model = run_scenario(plan);
    let snap = model.rt.metrics_snapshot();
    let exec = model.rt.executive();
    let channels = [model.bulk, model.oob]
        .into_iter()
        .map(|id| {
            let ch = exec.get(id).expect("scenario channel is live");
            let p99 = ch
                .cost_profile()
                .size_buckets()
                .map(|(_, h)| h.p99().unwrap_or(0))
                .max()
                .unwrap_or(0);
            StatsChannelObs {
                label: format!("chan#{}", id.0),
                p99_ns: p99,
            }
        })
        .collect();
    (snap, channels)
}

/// Renders the canonical stats report: one object per window with
/// per-device utilization rows (busy-time deltas in permille of the
/// window) and per-channel queue-depth levels, followed by one cost
/// profile per channel with size-bucketed latency quantiles.
fn render_stats(
    snap: &MetricsSnapshot,
    window: SimDuration,
    channels: &[(ChannelId, &str, &CostProfile)],
) -> String {
    let mut out = String::from("{\n\"schema\": 1,\n");
    out.push_str(&format!("\"window_ns\": {},\n", window.as_nanos()));
    out.push_str("\"windows\": [\n");
    for (wi, w) in snap.windows.iter().enumerate() {
        if wi > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"index\": {}, \"start_ns\": {}, \"end_ns\": {}, \"utilization\": [",
            w.index, w.start_nanos, w.end_nanos
        ));
        let mut first = true;
        for t in &w.counters {
            if t.name != DEVICE_BUSY_NS && t.name != LINK_BUSY_NS {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": {}, \"label\": {}, \"busy_ns\": {}, \"permille\": {}}}",
                json_str(t.name),
                json_str(&t.label),
                t.delta,
                w.utilization_permille(t.name, &t.label).unwrap_or(0)
            ));
        }
        out.push_str("], \"queues\": [");
        let mut first = true;
        for l in &w.levels {
            if l.name != CHANNEL_QUEUE_DEPTH {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"label\": {}, \"depth\": {}}}",
                json_str(&l.label),
                l.value
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n],\n\"channels\": [\n");
    for (ci, (id, provider, p)) in channels.iter().enumerate() {
        if ci > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\": {}, \"provider\": {}, \"messages\": {}, \"bytes\": {}, \
             \"doorbells\": {}, \"launch_overhead_ns\": {}, \"ewma_latency_ns\": {}, \
             \"throughput_bytes_per_sec\": {}, \"size_buckets\": [",
            id.0,
            json_str(provider),
            p.messages(),
            p.bytes(),
            p.doorbells(),
            p.launch_overhead_ns(),
            p.ewma_latency_ns(),
            p.throughput_bytes_per_sec().unwrap_or(0),
        ));
        let mut first = true;
        for (bucket, h) in p.size_buckets() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"bucket_bytes\": {}, \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
                 \"p99_ns\": {}}}",
                bucket,
                h.count(),
                h.p50().unwrap_or(0),
                h.p95().unwrap_or(0),
                h.p99().unwrap_or(0),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_demo_is_byte_identical_across_runs() {
        let (_, a) = run_stats_demo(None);
        let (_, b) = run_stats_demo(None);
        assert_eq!(a, b, "clean run must be deterministic");
        let plan = stats_demo_plan();
        let (_, fa) = run_stats_demo(Some(&plan));
        let (_, fb) = run_stats_demo(Some(&plan));
        assert_eq!(fa, fb, "faulted run must be deterministic");
        assert_ne!(a, fa, "the fault plan must actually perturb the timeline");
    }

    #[test]
    fn stats_demo_reports_every_telemetry_dimension() {
        let (snap, json) = run_stats_demo(None);
        assert_eq!(snap.windows.len(), 10, "1 ms windows over a 10 ms run");
        // Every device label shows up as a busy-time utilization row.
        for label in ["host", "device-1", "device-2", "device-3"] {
            assert!(
                snap.counter(DEVICE_BUSY_NS, label).unwrap_or(0) > 0,
                "{label} accumulated busy time"
            );
            assert!(json.contains(&format!("\"label\": \"{label}\"")));
        }
        // The disk's NAS wire occupancy rides along.
        assert!(snap.counter(LINK_BUSY_NS, "device-2").unwrap_or(0) > 0);
        // Some window caught the bulk channel with messages still queued.
        assert!(
            snap.windows
                .iter()
                .any(|w| w.level(CHANNEL_QUEUE_DEPTH, "chan#0").unwrap_or(0) > 0),
            "a window edge catches a non-empty bulk queue"
        );
        // And at least one window shows real (non-zero) utilization.
        assert!(
            snap.windows
                .iter()
                .any(|w| w.utilization_permille(DEVICE_BUSY_NS, "host").unwrap_or(0) > 0),
            "host utilization registers inside a window"
        );
        for marker in [
            "\"window_ns\": 1000000",
            "\"utilization\"",
            "\"queues\"",
            "\"bucket_bytes\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"launch_overhead_ns\"",
            "\"throughput_bytes_per_sec\"",
        ] {
            assert!(json.contains(marker), "report carries {marker}");
        }
    }

    #[test]
    fn cost_profiles_separate_the_size_classes() {
        let (_, json) = run_stats_demo(None);
        // The traffic generator cycles 64 B / 1 KiB / 16 KiB payloads, so
        // the bulk channel's profile must carry all three buckets.
        for bucket in [
            "\"bucket_bytes\": 64",
            "\"bucket_bytes\": 1024",
            "\"bucket_bytes\": 16384",
        ] {
            assert!(json.contains(bucket), "bulk profile carries {bucket}");
        }
        // The OOB control channel's 32 B calls land in their own bucket.
        assert!(json.contains("\"bucket_bytes\": 32"));
    }

    #[test]
    fn faulted_timeline_loses_nic_utilization_after_the_crash() {
        let plan = stats_demo_plan();
        let (snap, _) = run_stats_demo(Some(&plan));
        let series = snap.time_series(DEVICE_BUSY_NS, "device-1");
        assert_eq!(series.points.len(), 10);
        // The NIC crashes at 4 ms: it burned cycles before, none after.
        let before: u64 = series.points[..4].iter().map(|&(_, v)| v).sum();
        let after: u64 = series.points[5..].iter().map(|&(_, v)| v).sum();
        assert!(before > 0, "NIC was busy before the crash");
        assert_eq!(after, 0, "a crashed NIC burns no firmware cycles");
    }
}
