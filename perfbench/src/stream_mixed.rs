//! `stream_mixed`: the data plane under an open-loop, sim-time load.
//!
//! One `Sim` world on the demo three-device runtime (NIC, smart disk,
//! GPU), the shape of `hydra_tivo::stats` with an unbounded horizon. A
//! generator tick fires every 100 µs of sim time whether or not earlier
//! bursts have drained. Each tick drains the bulk channel and walks every
//! drained message through the device models (NIC rx, then GPU decode,
//! disk block write or a host syscall by size), sends the next
//! `send_batch_into` burst (64 B / 1 KiB / 16 KiB; one burst in eight
//! overfills the ring so the retry path runs), a 32 B OOB send + recv,
//! one send on a cost-adaptive channel sweeping 64 B–64 KiB, and a
//! `send_call` + `pump` to the deployed demo trio. Host background work
//! and a 1 ms telemetry window run alongside.
//!
//! The host side is a batch job: the world runs in 100 ms sim segments;
//! after each, a monitoring scrape snapshots the metrics, folds them into
//! the output digest and resets the recorder. The deploy pipeline runs
//! only at setup.

use std::time::Instant;

use bytes::Bytes;
use hydra_core::call::{Call, Value};
use hydra_core::channel::{
    AdaptivePolicy, BatchSendOutcome, ChannelConfig, ChannelId, RetryPolicy,
};
use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra_core::error::RuntimeError;
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_devices::disk::SmartDiskModel;
use hydra_devices::gpu::GpuModel;
use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_hw::cache::AccessKind;
use hydra_hw::mem::Region;
use hydra_media::codec::{CodecConfig, EncodedFrame, Encoder, GopConfig};
use hydra_media::frame::SyntheticVideo;
use hydra_net::nfs::{NasServer, NasTiming};
use hydra_obs::{MetricsSnapshot, Recorder};
use hydra_odf::odf::Guid;
use hydra_sim::engine::SchedulerKind;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

use crate::report::Outcome;
use crate::support::{peak_rss_mib, Digest, Dist, Rng, SetupClock};
use crate::trace::Tracer;
use crate::RunConfig;

const TICK: SimDuration = SimDuration::from_micros(100);
/// Generator ticks per segment; the traffic plan repeats every segment.
const SEGMENT_TICKS: u64 = 1000;
const WARMUP_SEGMENTS: u64 = 1;
/// Segments replayed on the reference scheduler; the digest after the
/// last of them is the one recorded for the committed seeds.
const CHECK_SEGMENTS: u64 = 3;
/// The bulk ring's capacity (the Figure-3 configuration).
const RING: u64 = 64;
const SIZES: [usize; 3] = [64, 1024, 16 * 1024];
/// Block slots the disk cycles through.
const DISK_SLOTS: u64 = 64;

fn segment() -> SimDuration {
    TICK * SEGMENT_TICKS
}

/// What the generator does on one tick.
#[derive(Debug, Clone, Copy)]
struct TickPlan {
    burst_len: usize,
    /// Index into [`SIZES`].
    burst_size: usize,
    /// Adaptive-channel payload, as a power-of-two shift of 64 B.
    adaptive_shift: usize,
    oob: bool,
    call: bool,
}

/// The seeded traffic plan: one segment's worth of ticks.
fn plan(seed: u64) -> Vec<TickPlan> {
    let mut rng = Rng::new(seed).split(0x5eed_0001);
    (0..SEGMENT_TICKS)
        .map(|i| {
            let (burst_size, burst_len) = if i % 8 == 7 {
                // Overfill: more than a whole ring of small messages.
                (rng.below(2) as usize, (RING + rng.range(8, 24)) as usize)
            } else {
                let size = (i % 3) as usize;
                let len = if size == 2 {
                    rng.range(1, 2)
                } else {
                    rng.range(2, 10)
                };
                (size, len as usize)
            };
            TickPlan {
                burst_len,
                burst_size,
                adaptive_shift: rng.below(11) as usize,
                oob: rng.below(2) == 0,
                call: rng.below(4) != 0,
            }
        })
        .collect()
}

/// A demo-trio Offcode that counts the calls it handles.
#[derive(Debug)]
struct Sink {
    guid: Guid,
    name: &'static str,
    calls: u64,
}

impl Offcode for Sink {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        self.calls += 1;
        Ok(Value::U64(self.calls))
    }
}

/// Running totals the digest and the failure count read.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    attempted: u64,
    delivered: u64,
    dispatched: u64,
    retries: u64,
    rejected: u64,
    dropped: u64,
    dispatch_errors: u64,
    device_errors: u64,
}

struct World {
    rt: Runtime,
    rec: Recorder,
    bulk: ChannelId,
    bulk_ep: usize,
    oob: ChannelId,
    oob_ep: usize,
    adaptive: ChannelId,
    adaptive_ep: usize,
    calls: ChannelId,
    host: HostModel,
    nic: NicModel,
    disk: SmartDiskModel,
    gpu: GpuModel,
    nas: NasServer,
    frames: Vec<EncodedFrame>,
    copy_src: Region,
    copy_dst: Region,
    touch: Region,
    plan: Vec<TickPlan>,
    payloads: [Bytes; 3],
    adaptive_payloads: Vec<Bytes>,
    oob_payload: Bytes,
    batch: Vec<Bytes>,
    out: BatchSendOutcome,
    tick: u64,
    blocks: u64,
    counts: Counts,
    tracer: Tracer,
    /// Quietest host ns of each tick position of the plan, over the
    /// segments recorded so far.
    tick_min: Vec<f64>,
    record_ticks: bool,
}

fn build(seed: u64, scheduler: SchedulerKind) -> Sim<World> {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    for odf in hydra_tivo::demo::demo_odfs() {
        let guid = odf.guid;
        let name: &'static str = match guid.0 {
            1 => "tivo.Streamer",
            2 => "tivo.Decoder",
            _ => "tivo.Display",
        };
        rt.register_offcode(odf, move || {
            Box::new(Sink {
                guid,
                name,
                calls: 0,
            })
        })
        .expect("fresh depot");
    }
    let root = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("demo trio deploys");
    let root_dev = rt.device_of(root).expect("root deployed");
    let calls = rt
        .create_channel(ChannelConfig::figure3(root_dev))
        .expect("call channel");
    rt.connect_offcode(calls, root).expect("connect streamer");

    let retry = RetryPolicy::new(16, SimDuration::from_micros(1), SimDuration::from_millis(4));
    let bulk = rt
        .create_channel(ChannelConfig::figure3(DeviceId(1)).with_retry(retry))
        .expect("bulk channel on the NIC");
    let oob = rt
        .create_channel(ChannelConfig::oob(DeviceId(2)))
        .expect("control channel on the disk");
    let adaptive = rt
        .create_channel_adaptive(
            ChannelConfig::figure3(DeviceId(3)).with_retry(retry),
            AdaptivePolicy::default(),
        )
        .expect("adaptive channel on the GPU");
    let rec = rt.recorder().clone();
    let exec = rt.executive_mut();
    let mut connect = |id: ChannelId| {
        exec.get_mut(id)
            .expect("channel is live")
            .connect_endpoint()
            .expect("fresh channel has room")
    };
    let (bulk_ep, oob_ep, adaptive_ep) = (connect(bulk), connect(oob), connect(adaptive));

    let mut host = HostModel::paper_host(seed);
    host.set_recorder(rec.clone());
    let copy_src = host.space.alloc("bench-src", 64 * 1024);
    let copy_dst = host.space.alloc("bench-dst", 64 * 1024);
    let touch = host.space.alloc("bench-touch", 1024 * 1024);
    let mut nic = NicModel::new_3c985b(seed ^ 0x11);
    nic.set_recorder(rec.clone(), 1);
    let mut disk = SmartDiskModel::new();
    disk.set_recorder(rec.clone(), 2);
    let mut gpu = GpuModel::new();
    gpu.set_recorder(rec.clone(), 3);
    let mut nas = NasServer::new(NasTiming::typical());
    disk.open(&mut nas, "/bench/stream.dat");

    let video = SyntheticVideo::new(64, 48);
    let raw: Vec<_> = (0..4).map(|i| video.frame(i)).collect();
    let frames = Encoder::new(CodecConfig {
        quantizer: 4,
        gop: GopConfig::ipp(),
    })
    .encode_sequence(&raw);

    let fill = (Rng::new(seed).next_u64() & 0xFF) as u8;
    let world = World {
        rt,
        rec: rec.clone(),
        bulk,
        bulk_ep,
        oob,
        oob_ep,
        adaptive,
        adaptive_ep,
        calls,
        host,
        nic,
        disk,
        gpu,
        nas,
        frames,
        copy_src,
        copy_dst,
        touch,
        plan: plan(seed),
        payloads: SIZES.map(|n| Bytes::from(vec![fill; n])),
        adaptive_payloads: (0..11).map(|s| Bytes::from(vec![fill; 64 << s])).collect(),
        oob_payload: Bytes::from(vec![fill ^ 0xC0; 32]),
        batch: Vec::with_capacity(RING as usize * 2),
        out: BatchSendOutcome {
            delivered_at: Vec::new(),
            rejected: 0,
            dropped: 0,
            complete_at: SimTime::ZERO,
            retries: 0,
        },
        tick: 0,
        blocks: 0,
        counts: Counts::default(),
        tracer: Tracer::new(),
        tick_min: vec![f64::INFINITY; SEGMENT_TICKS as usize],
        record_ticks: false,
    };

    let mut sim = Sim::with_scheduler(world, scheduler);
    sim.every(SimTime::ZERO + TICK, TICK, |sim| {
        generator_tick(sim);
        true
    });
    sim.every(
        SimTime::ZERO + SimDuration::from_micros(300),
        SimDuration::from_millis(1),
        |sim| {
            host_load(sim);
            true
        },
    );
    // The 1 ms telemetry window (what `hydra_obs::Sampler` installs),
    // scheduled here so the benchmark can bracket the window close.
    sim.every(
        SimTime::ZERO + SimDuration::from_millis(1),
        SimDuration::from_millis(1),
        |sim| {
            let now = sim.now();
            let w = sim.model_mut();
            w.tracer.enter("obs.sample_window", w.tick);
            w.rec.sample_window(now);
            w.tracer.exit(1);
            true
        },
    );
    sim
}

fn generator_tick(sim: &mut Sim<World>) {
    let now = sim.now();
    let w = sim.model_mut();
    let started = Instant::now();
    let op = w.tick;
    let pos = (w.tick % SEGMENT_TICKS) as usize;
    let p = w.plan[pos];
    w.tracer.enter("bench.tick", op);

    // Drain what the bulk channel has delivered and walk it through the
    // device datapath.
    w.tracer.enter("channel.recv", op);
    let msgs =
        w.rt.executive_mut()
            .get_mut(w.bulk)
            .expect("bulk channel")
            .recv_batch(now, w.bulk_ep, usize::MAX);
    w.tracer.exit(msgs.len() as u64);
    w.counts.delivered += msgs.len() as u64;
    for msg in &msgs {
        let len = msg.data.len();
        w.tracer.enter("devices.nic.rx", op);
        let rx = w.nic.rx_frame(now, len);
        w.tracer.exit(1);
        if rx.is_none() {
            w.counts.device_errors += 1;
            continue;
        }
        if len >= 16 * 1024 {
            let frame = &w.frames[(w.blocks % w.frames.len() as u64) as usize];
            w.tracer.enter("devices.gpu.hw_decode", op);
            let decoded = w.gpu.hw_decode_faulted(now, frame);
            w.tracer.exit(1);
            if decoded.is_none() {
                w.counts.device_errors += 1;
            }
        } else if len >= 1024 {
            w.tracer.enter("devices.disk.write_block", op);
            // A ring of block slots: the NAS keeps the file in memory.
            let slot = w.blocks % DISK_SLOTS;
            let written = w.disk.write_block(now, &mut w.nas, slot, msg.data.clone());
            w.tracer.exit(1);
            match written {
                Ok(_) => w.blocks += 1,
                Err(_) => w.counts.device_errors += 1,
            }
        } else {
            w.tracer.enter("devices.host.syscall", op);
            w.host.syscall(now);
            w.tracer.exit(1);
        }
    }

    // The next bulk burst, one doorbell.
    w.batch.clear();
    let payload = &w.payloads[p.burst_size];
    w.batch.extend((0..p.burst_len).map(|_| payload.clone()));
    w.tracer.enter("channel.batch", op);
    w.rt.executive_mut()
        .get_mut(w.bulk)
        .expect("bulk channel")
        .send_batch_into(now, &w.batch, &mut w.out);
    w.tracer.exit(p.burst_len as u64);
    w.counts.attempted += p.burst_len as u64;
    w.counts.retries += w.out.retries;
    w.counts.rejected += w.out.rejected as u64;
    w.counts.dropped += w.out.dropped as u64;

    if p.oob {
        let ch = w.rt.executive_mut().get_mut(w.oob).expect("oob channel");
        w.tracer.enter("channel.send", op);
        let sent = ch.send(now, w.oob_payload.clone());
        w.tracer.exit(1);
        w.counts.attempted += 1;
        match sent {
            Ok(at) => {
                w.tracer.enter("channel.recv", op);
                let got = ch.recv(at, w.oob_ep);
                w.tracer.exit(1);
                if got.is_some() {
                    w.counts.delivered += 1;
                } else {
                    w.counts.dropped += 1;
                }
            }
            Err(_) => w.counts.rejected += 1,
        }
    }

    let ch =
        w.rt.executive_mut()
            .get_mut(w.adaptive)
            .expect("adaptive channel");
    w.tracer.enter("channel.send", op);
    let sent = ch.send(now, w.adaptive_payloads[p.adaptive_shift].clone());
    w.tracer.exit(1);
    w.counts.attempted += 1;
    if sent.is_err() {
        w.counts.rejected += 1;
    }
    w.tracer.enter("channel.recv", op);
    let got = ch.recv_batch(now, w.adaptive_ep, usize::MAX);
    w.tracer.exit(got.len() as u64);
    w.counts.delivered += got.len() as u64;

    if p.call {
        let call = Call::new(Guid(1), "frame").with_return_id(op);
        w.tracer.enter("runtime.send_call", op);
        let sent = w.rt.send_call(w.calls, &call, now);
        w.tracer.exit(1);
        w.counts.attempted += 1;
        if sent.is_err() {
            w.counts.rejected += 1;
        }
    }
    w.tracer.enter("runtime.pump", op);
    let results = w.rt.pump(now);
    w.tracer.exit(results.len() as u64);
    w.counts.dispatched += results.len() as u64;
    w.counts.dispatch_errors += results.iter().filter(|r| r.result.is_err()).count() as u64;

    w.tracer.exit(0);
    if w.record_ticks {
        let ns = started.elapsed().as_nanos() as f64;
        w.tick_min[pos] = w.tick_min[pos].min(ns);
    }
    w.tick += 1;
}

/// Background host work every 1 ms: timer tick, an interrupt, a 16 KiB
/// kernel copy, and an 8 KiB read over a 1 MiB region (four times the
/// modelled L2), so the cache model sees misses.
fn host_load(sim: &mut Sim<World>) {
    let now = sim.now();
    let w = sim.model_mut();
    let op = w.tick;
    w.tracer.enter("bench.host_load", op);
    w.tracer.enter("devices.host.background_tick", op);
    w.host.background_tick(now);
    w.tracer.exit(1);
    w.tracer.enter("devices.host.interrupt", op);
    w.host.interrupt(now);
    w.tracer.exit(1);
    w.tracer.enter("devices.host.cpu_copy", op);
    w.host.cpu_copy(now, w.copy_src, w.copy_dst, 16 * 1024);
    w.tracer.exit(16);
    let len = 8 * 1024;
    let at = (op.wrapping_mul(0x9E37_79B9) as usize % (w.touch.len() / len)) * len;
    let lines = (len / w.host.mem.cache().config().line_bytes) as u64;
    w.tracer.enter("hw.cache.touch", op);
    w.host.mem.touch(w.touch.slice(at, len), AccessKind::Read);
    w.tracer.exit(lines);
    w.tracer.exit(0);
}

/// Folds one segment's sim-time results into the digest: channel stats
/// and cost-profile totals, the canonical snapshot counters, device
/// statistics and the engine's clock and event count.
fn fold_digest(d: &mut Digest, sim: &Sim<World>, snap: &MetricsSnapshot) {
    let w = sim.model();
    d.word(sim.now().as_nanos());
    d.word(sim.events_executed());
    for id in [w.bulk, w.oob, w.adaptive, w.calls] {
        let ch = w.rt.executive().get(id).expect("bench channel");
        let s = ch.stats();
        let p = ch.cost_profile();
        for v in [
            s.sent,
            s.received,
            s.dropped,
            s.bytes,
            p.messages(),
            p.bytes(),
            p.doorbells(),
            p.launch_overhead_ns(),
            p.ewma_latency_ns(),
            ch.provider_switches(),
        ] {
            d.word(v);
        }
        d.text(ch.provider_name());
    }
    for c in &snap.counters {
        d.text(c.name);
        d.text(&c.label);
        d.word(c.value);
    }
    d.text(&format!(
        "{:?}{:?}{:?}{:?}",
        w.nic.stats(),
        w.gpu.stats(),
        w.disk.stats(),
        w.host.mem.cache().stats()
    ));
    d.word(w.blocks);
}

/// Conservation checks on every bench channel: everything accepted was
/// either received or is still queued, and the cost profile saw every
/// accepted message.
fn check_channels(sim: &Sim<World>, problems: &mut Vec<String>) {
    let w = sim.model();
    for (id, ep) in [
        (w.bulk, w.bulk_ep),
        (w.oob, w.oob_ep),
        (w.adaptive, w.adaptive_ep),
        (w.calls, 0),
    ] {
        let ch = w.rt.executive().get(id).expect("bench channel");
        let s = ch.stats();
        if s.sent != s.received + ch.backlog(ep) as u64 {
            problems.push(format!(
                "{id}: sent {} != received {} + queued {}",
                s.sent,
                s.received,
                ch.backlog(ep)
            ));
        }
        if ch.cost_profile().messages() != s.sent {
            problems.push(format!(
                "{id}: cost profile saw {} of {} messages",
                ch.cost_profile().messages(),
                s.sent
            ));
        }
    }
}

/// One segment's host-side measurements.
#[derive(Debug, Clone, Copy)]
struct Segment {
    wall_ns: f64,
    units: u64,
    events: u64,
    traced: bool,
}

/// Observability totals gathered at each scrape.
#[derive(Debug, Default)]
struct Scrapes {
    retry_wait_ns: u64,
    flight_dropped: u64,
    series: u64,
}

/// Runs the world to the end of segment `k`, then scrapes it: snapshot,
/// digest fold, recorder reset.
fn run_segment(sim: &mut Sim<World>, k: u64, digest: &mut Digest, scrapes: &mut Scrapes) {
    let end = SimTime::ZERO + segment() * (k + 1);
    sim.model_mut().tracer.enter("sim.run", k);
    sim.run_until(end);
    let w = sim.model_mut();
    w.tracer.exit(0);
    w.tracer.enter("obs.snapshot", k);
    let snap = w.rt.metrics_snapshot();
    w.tracer.exit(1);
    w.tracer.enter("bench.scrape", k);
    scrapes.retry_wait_ns += snap
        .histograms
        .iter()
        .filter(|h| h.name == "channel.retry_wait_ns")
        .map(|h| h.sum)
        .sum::<u64>();
    scrapes.flight_dropped += snap.events_dropped;
    scrapes.series = (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as u64;
    fold_digest(digest, sim, &snap);
    let w = sim.model_mut();
    w.rec.reset();
    w.tracer.exit(0);
}

/// The digests after each of the first [`CHECK_SEGMENTS`] segments of a
/// fresh world on `scheduler`.
fn reference_digests(seed: u64, scheduler: SchedulerKind) -> Vec<u64> {
    let mut sim = build(seed, scheduler);
    let mut digest = Digest::default();
    let mut scrapes = Scrapes::default();
    (0..CHECK_SEGMENTS)
        .map(|k| {
            run_segment(&mut sim, k, &mut digest, &mut scrapes);
            digest.0
        })
        .collect()
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupClock::new();
    let mut sim = setup.time(|| build(cfg.seed, SchedulerKind::Calendar));
    sim.model_mut().tracer = std::mem::replace(tracer, Tracer::new());

    let mut digest = Digest::default();
    let mut digests = Vec::new();
    let mut scrapes = Scrapes::default();
    let mut segments: Vec<Segment> = Vec::new();
    let mut measure_start = Instant::now();
    let mut k = 0;
    while k < CHECK_SEGMENTS.max(WARMUP_SEGMENTS) || measure_start.elapsed() < cfg.measure {
        let warm = k < WARMUP_SEGMENTS;
        let traced = cfg.traced && !warm && k % 2 == 1;
        let before = (sim.model().counts, sim.events_executed());
        let w = sim.model_mut();
        w.record_ticks = !warm && !traced;
        w.tracer.set_on(traced);
        let t = Instant::now();
        run_segment(&mut sim, k, &mut digest, &mut scrapes);
        let wall_ns = t.elapsed().as_nanos() as f64;
        sim.model_mut().tracer.set_on(false);
        if k < CHECK_SEGMENTS {
            digests.push(digest.0);
        }
        let c = sim.model().counts;
        if !warm {
            segments.push(Segment {
                wall_ns,
                units: c.delivered + c.dispatched - before.0.delivered - before.0.dispatched,
                events: sim.events_executed() - before.1,
                traced,
            });
        }
        setup.maybe_repeat(|| build(cfg.seed, SchedulerKind::Calendar));
        k += 1;
        if k == WARMUP_SEGMENTS {
            measure_start = Instant::now();
        }
    }
    check_channels(&sim, &mut out.problems);

    // Output check: the same inputs on the reference (binary-heap)
    // scheduler must reproduce every checkpoint digest, and a recorded
    // seed must reproduce its committed digest.
    let reference = reference_digests(cfg.seed, SchedulerKind::BinaryHeap);
    if reference != digests {
        out.problems.push(format!(
            "digest differs from the binary-heap replay: {digests:x?} vs {reference:x?}"
        ));
    }
    let last = *digests.last().expect("checkpoint digests");
    out.notes.push(format!("output digest {last:#018x}"));
    if let Some(expected) = cfg.expected("stream_mixed") {
        if expected != last {
            out.problems
                .push(format!("digest {last:#018x} != expected {expected:#018x}"));
        }
    }

    let w = sim.model();
    let c = w.counts;
    out.attempted = c.attempted;
    out.failed = c.rejected + c.dropped + c.dispatch_errors + c.device_errors;
    if !out.problems.is_empty() {
        out.failed += 1;
    }

    // The machine's speed drifts in phases of seconds, and noise only
    // ever adds time, so each repeated item counts at its quietest: the
    // fastest segment, and each tick position's fastest tick.
    let untraced: Vec<&Segment> = segments.iter().filter(|s| !s.traced).collect();
    let n = untraced.len() as u64;
    let quiet_wall_s = untraced
        .iter()
        .map(|s| s.wall_ns)
        .fold(f64::INFINITY, f64::min)
        * 1e-9;
    let units = untraced.iter().map(|s| s.units).sum::<u64>() as f64 / n as f64;
    let seg_ms = segment().as_nanos() as f64 / 1e6;
    let mut ticks = Dist::default();
    for &ns in &w.tick_min {
        ticks.push(ns);
    }
    let us = |q: f64| ticks.quantile(q).map_or(f64::NAN, |v| v / 1e3);
    let (setup_s, reps) = setup.median();
    out.set("setup_s", setup_s, reps);
    out.set("peak_rss_mib", peak_rss_mib(), 1);
    out.set("sim_ms_per_s", seg_ms / quiet_wall_s, n);
    out.set("units_per_s", units / quiet_wall_s, n);
    out.set("lat_p50_us", us(0.5), ticks.len());
    out.set("lat_tail_us", us(0.99), ticks.len());
    for (alias, of) in [
        ("msgs_per_s", "units_per_s"),
        ("tick_p50_us", "lat_p50_us"),
        ("tick_p99_us", "lat_tail_us"),
    ] {
        out.aliases.push((alias, of, out.figures[of]));
    }

    if cfg.traced {
        layer_figures(&mut out, &sim, &segments, &scrapes);
    }
    *tracer = std::mem::replace(&mut sim.model_mut().tracer, Tracer::new());
    out
}

fn layer_figures(out: &mut Outcome, sim: &Sim<World>, segments: &[Segment], scrapes: &Scrapes) {
    let w = sim.model();
    let t = &w.tracer;
    let c = w.counts;
    let traced: Vec<&Segment> = segments.iter().filter(|s| s.traced).collect();
    let events: u64 = traced.iter().map(|s| s.events).sum();
    let engine = t.total("sim.run");
    out.set("sim.events", events as f64, traced.len() as u64);
    out.set(
        "sim.ns_per_event",
        engine.self_ns as f64 / events.max(1) as f64,
        events,
    );
    let sched = sim.sched_stats();
    out.set("sim.sched_grows", sched.grows as f64, 1);
    out.set("sim.sched_shrinks", sched.shrinks as f64, 1);

    let span = |out: &mut Outcome, metric: &'static str, name: &str| {
        let tot = t.total(name);
        out.set(metric, tot.ns_per_unit(), tot.count);
    };
    span(out, "channel.send.ns_per_msg", "channel.send");
    span(out, "channel.batch.ns_per_msg", "channel.batch");
    span(out, "channel.recv.ns_per_msg", "channel.recv");
    span(out, "runtime.send_call.ns", "runtime.send_call");
    span(out, "runtime.pump.ns_per_dispatch", "runtime.pump");
    span(out, "obs.snapshot.ns", "obs.snapshot");
    span(out, "obs.sample_window.ns", "obs.sample_window");
    span(
        out,
        "devices.host.background_tick.ns",
        "devices.host.background_tick",
    );
    span(
        out,
        "devices.host.cpu_copy.ns_per_kib",
        "devices.host.cpu_copy",
    );
    span(out, "devices.nic.rx.ns", "devices.nic.rx");
    span(out, "devices.gpu.hw_decode.ns", "devices.gpu.hw_decode");
    span(
        out,
        "devices.disk.write_block.ns",
        "devices.disk.write_block",
    );
    span(out, "hw.cache.touch.ns_per_line", "hw.cache.touch");

    let (mut doorbells, mut messages) = (0, 0);
    for id in [w.bulk, w.oob, w.adaptive, w.calls] {
        let p =
            w.rt.executive()
                .get(id)
                .expect("bench channel")
                .cost_profile();
        doorbells += p.doorbells();
        messages += p.messages();
    }
    out.set(
        "channel.delivered_frac",
        (c.delivered + c.dispatched) as f64 / c.attempted.max(1) as f64,
        c.attempted,
    );
    out.set("channel.retries", c.retries as f64, 1);
    out.set("channel.rejected", c.rejected as f64, 1);
    out.set("channel.dropped", c.dropped as f64, 1);
    out.set("channel.retry_wait_ns", scrapes.retry_wait_ns as f64, 1);
    out.set(
        "channel.doorbells_per_msg",
        doorbells as f64 / messages.max(1) as f64,
        messages,
    );
    let adaptive = w.rt.executive().get(w.adaptive).expect("adaptive channel");
    out.set(
        "channel.adaptive.switches",
        adaptive.provider_switches() as f64,
        1,
    );
    out.set("obs.series", scrapes.series as f64, 1);
    out.set("obs.flight_dropped", scrapes.flight_dropped as f64, 1);
    out.set(
        "hw.cache.miss_rate",
        w.host.mem.cache().stats().miss_rate(),
        1,
    );

    let traced_wall: f64 = traced.iter().map(|s| s.wall_ns).sum();
    out.set(
        "residual.frac",
        (traced_wall - t.layer_self_ns() as f64) / traced_wall,
        traced.len() as u64,
    );
    let quiet = |traced: bool| {
        segments
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.wall_ns)
            .fold(f64::INFINITY, f64::min)
    };
    out.set(
        "trace.overhead_frac",
        quiet(true) / quiet(false) - 1.0,
        traced.len() as u64,
    );
}
