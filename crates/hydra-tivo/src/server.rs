//! The Video Server experiment (paper §6.4).
//!
//! Three implementations of the same streaming server — the paper's
//! Figure 7, paths 1–3 — paced at one 1 kB chunk every 5 ms:
//!
//! 1. **Simple** — a user-space loop: `read()` the chunk from the NAS
//!    over NFS into a user buffer, `send()` it over a UDP socket. Two
//!    copies, two syscalls, context switches, tick-quantized `sleep`.
//! 2. **Sendfile** — the zero-copy kernel path: the NIC's scatter-gather
//!    engine sends straight from the kernel buffer the NAS data was
//!    DMA'd into; no user-space copy, fewer context switches.
//! 3. **Offloaded** — a HYDRA Offcode on the programmable NIC: the File
//!    Offcode reads from the NAS, the Broadcast Offcode transmits, pacing
//!    comes from the NIC's microsecond firmware timer. The host CPU and
//!    its L2 cache never see the stream.
//!
//! The run measures what the paper measures: client-side inter-arrival
//! jitter (Figure 9 / Table 2), server CPU utilization sampled every 5 s
//! (Table 3), and the server's L2 miss *rate* normalized against an idle
//! machine (Figure 10).

use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_hw::cache::{AccessKind, CacheStats};
use hydra_hw::cpu::Cycles;
use hydra_hw::mem::Region;
use hydra_net::link::{Link, LinkSpec};
use hydra_net::nfs::{NasServer, NfsRequest, NfsResponse};
use hydra_net::udp::FlowMeter;
use hydra_sim::stats::Samples;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

/// Which server implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// No streaming at all: the Table 3 "Idle" baseline.
    Idle,
    /// User-space read+send loop.
    Simple,
    /// The `sendfile` zero-copy kernel path.
    Sendfile,
    /// HYDRA Offcodes on the programmable NIC.
    Offloaded,
}

impl ServerKind {
    /// All four scenarios in table order.
    pub fn all() -> [ServerKind; 4] {
        [
            ServerKind::Idle,
            ServerKind::Simple,
            ServerKind::Sendfile,
            ServerKind::Offloaded,
        ]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServerKind::Idle => "Idle",
            ServerKind::Simple => "Simple Server",
            ServerKind::Sendfile => "Sendfile Server",
            ServerKind::Offloaded => "Offloaded Server",
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which implementation.
    pub kind: ServerKind,
    /// Chunk size (paper: 1 kB).
    pub packet_bytes: usize,
    /// Pacing period (paper: 5 ms).
    pub period: SimDuration,
    /// Simulated run length (paper: 10 minutes).
    pub duration: SimDuration,
    /// Utilization/L2 sampling period (paper: 5 s).
    pub sample_period: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl ServerConfig {
    /// The paper's configuration for one scenario, with a shorter default
    /// run (60 s) that yields stable statistics; pass
    /// `duration: SimDuration::from_secs(600)` for the full 10 minutes.
    pub fn paper(kind: ServerKind, seed: u64) -> Self {
        ServerConfig {
            kind,
            packet_bytes: 1024,
            period: SimDuration::from_millis(5),
            duration: SimDuration::from_secs(60),
            sample_period: SimDuration::from_secs(5),
            seed,
        }
    }
}

/// Results of one server run.
#[derive(Debug, Clone)]
pub struct ServerRun {
    /// The scenario.
    pub kind: ServerKind,
    /// Client-side inter-arrival gaps, milliseconds (Figure 9 / Table 2).
    pub jitter_ms: Samples,
    /// CPU utilization per 5 s window (Table 3), as fractions.
    pub cpu_util: Samples,
    /// L2 misses per second per 5 s window (Figure 10, before
    /// normalization).
    pub l2_miss_rate: Samples,
    /// Packets that reached the client.
    pub packets_delivered: u64,
    /// The host L2's counters at the end of the run.
    pub l2: CacheStats,
}

/// Calibration constants for the user-space kernel path. These stand in
/// for everything the simulator does not model instruction-by-instruction
/// (VFS, socket layer, scheduler work); see DESIGN.md §2.
mod calib {
    use hydra_hw::cpu::Cycles;

    /// Kernel+libc path cycles per Simple-server cycle (two syscalls'
    /// worth of VFS/socket-layer work plus process wakeup). Calibrated so
    /// the Simple server's utilization lands near Table 3's 7.5%.
    pub const SIMPLE_PATH: Cycles = Cycles::new(760_000);
    /// Kernel path cycles per Sendfile cycle (single in-kernel splice),
    /// calibrated toward Table 3's 6.2%.
    pub const SENDFILE_PATH: Cycles = Cycles::new(470_000);
    /// Socket/NFS metadata bytes touched per packet (beyond payload).
    pub const META_BYTES: usize = 1024;
}

struct World {
    host: HostModel,
    nic: NicModel,
    /// Server NIC → switch → client path (one way).
    downlink: Link,
    /// NAS round-trip path (dedicated storage network, as in a machine
    /// room; the NIC is the initiator either way).
    nas_link: Link,
    nas: NasServer,
    movie: hydra_net::nfs::FileHandle,
    meter: FlowMeter,
    cfg: ServerConfig,
    // Buffers.
    kernel_bufs: Vec<Region>,
    user_buf: Region,
    skb_buf: Region,
    meta_buf: Region,
    kb_next: usize,
    seq: u64,
    offset: u64,
    // Windowed sampling state.
    cpu_util: Samples,
    l2_rate: Samples,
    last_busy_secs: f64,
    last_misses: u64,
    last_sample_at: SimTime,
}

impl World {
    fn new(cfg: ServerConfig) -> Self {
        let mut host = HostModel::paper_host(cfg.seed);
        if cfg.kind == ServerKind::Sendfile {
            // The sendfile loop is paced by an in-kernel timer: same tick
            // quantization, but without the extra-tick overshoot and with
            // less run-queue noise than a user-space sleep.
            host.timer = hydra_hw::os::TimerModel::linux_kernel_path();
        }
        let nic = NicModel::new_3c985b(cfg.seed);
        let mut nas = NasServer::default();
        // Preload enough movie bytes for the whole run.
        let cycles = cfg.duration.as_nanos() / cfg.period.as_nanos().max(1) + 16;
        let movie = nas.preload(
            "/movies/feature.mpg",
            vec![0x5A; cycles as usize * cfg.packet_bytes],
        );
        let kernel_bufs = (0..16)
            .map(|i| host.space.alloc(&format!("nfs-kbuf{i}"), cfg.packet_bytes))
            .collect();
        let user_buf = host.space.alloc("user-buf", cfg.packet_bytes);
        let skb_buf = host.space.alloc("skb", cfg.packet_bytes + 256);
        let meta_buf = host.space.alloc("socket-meta", 64 * 1024);
        World {
            host,
            nic,
            downlink: Link::new(LinkSpec::gigabit()),
            nas_link: Link::new(LinkSpec::gigabit()),
            nas,
            movie,
            meter: FlowMeter::new(),
            cfg,
            kernel_bufs,
            user_buf,
            skb_buf,
            meta_buf,
            kb_next: 0,
            seq: 0,
            offset: 0,
            cpu_util: Samples::new(),
            l2_rate: Samples::new(),
            last_busy_secs: 0.0,
            last_misses: 0,
            last_sample_at: SimTime::ZERO,
        }
    }

    /// Reads the next chunk from the NAS, returning `(kernel buffer,
    /// response-arrival instant)`. The NIC DMAs the response into a
    /// rotating kernel buffer, which invalidates those cache lines.
    fn nfs_read_chunk(&mut self, now: SimTime) -> (Region, SimTime) {
        let req = NfsRequest::Read {
            fh: self.movie,
            offset: self.offset,
            len: self.cfg.packet_bytes as u32,
        };
        self.offset += self.cfg.packet_bytes as u64;
        let req_out = self.nas_link.transmit(now, 96);
        let (resp, service) = self.nas.handle(&req);
        let bytes = match &resp {
            NfsResponse::Data(d) => d.len(),
            _ => 0,
        };
        let resp_in = self.nas_link.transmit(req_out + service, bytes + 64);
        let kbuf = self.kernel_bufs[self.kb_next];
        self.kb_next = (self.kb_next + 1) % self.kernel_bufs.len();
        // NIC DMA into host memory: coherent invalidation, no pollution.
        self.host.mem.dma_transfer(kbuf);
        (kbuf, resp_in)
    }

    /// Books the per-packet kernel metadata touches (socket structures,
    /// NFS rpc bookkeeping) at a rotating offset so they conflict
    /// realistically.
    fn touch_metadata(&mut self, bytes: usize) {
        let at = (self.seq as usize * 1536) % (64 * 1024 - bytes);
        let slice = self.meta_buf.slice(at, bytes);
        self.host.mem.touch(slice, AccessKind::Write);
    }

    /// Delivers the packet to the client and records the arrival.
    fn deliver(&mut self, tx_done: SimTime) {
        // Switch store-and-forward latency plus the client link.
        let arrival = self.downlink.transmit(tx_done, self.cfg.packet_bytes + 42);
        self.meter.on_arrival(arrival, self.seq);
        self.seq += 1;
    }

    fn take_window_sample(&mut self, now: SimTime) {
        let span = now.duration_since(self.last_sample_at).as_secs_f64();
        if span <= 0.0 {
            return;
        }
        let busy = self.host.cpu.utilization(now) * now.as_secs_f64();
        let util = (busy - self.last_busy_secs) / span;
        self.cpu_util.record(util.clamp(0.0, 1.0));
        let misses = self.host.mem.cache().stats().misses;
        self.l2_rate
            .record((misses - self.last_misses) as f64 / span);
        self.last_busy_secs = busy;
        self.last_misses = misses;
        self.last_sample_at = now;
    }
}

/// One Simple-server cycle starting at wakeup instant `w`; returns when
/// the application finished and goes back to sleep.
fn simple_cycle(world: &mut World, w: SimTime) -> SimTime {
    // Wake the process: context switch in.
    let cs = world.host.context_switch(w);
    // read() syscall: RPC to the NAS; the process blocks, the response
    // arrives by DMA and an interrupt.
    let sys1 = world.host.syscall(cs.end);
    let (kbuf, resp_at) = world.nfs_read_chunk(sys1.end);
    let irq = world.host.interrupt(resp_at.max(sys1.end));
    // Copy kernel buffer (cache-cold after DMA) to the user buffer.
    let copy1 = world
        .host
        .cpu_copy(irq.end, kbuf, world.user_buf, world.cfg.packet_bytes);
    // send() syscall: copy user buffer into an skb, checksum it.
    let sys2 = world.host.syscall(copy1.end);
    let copy2 = world.host.cpu_copy(
        sys2.end,
        world.user_buf,
        world.skb_buf,
        world.cfg.packet_bytes,
    );
    let csum = world.host.compute_over(
        copy2.end,
        world.skb_buf,
        Cycles::new(world.cfg.packet_bytes as u64 / 2),
        AccessKind::Read,
    );
    world.touch_metadata(calib::META_BYTES);
    // The remaining kernel path (VFS, socket layer, wakeups).
    let path = world.host.cpu.reserve(csum.end, calib::SIMPLE_PATH);
    // NIC DMAs the skb out and transmits.
    let (host_ref, nic_ref) = (&mut world.host, &mut world.nic);
    let xfer = nic_ref.dma_from_host(path.end, &mut host_ref.bus, world.skb_buf);
    host_ref.mem.dma_transfer(world.skb_buf);
    let tx = world.nic.tx_process(xfer.end, world.cfg.packet_bytes);
    world.deliver(tx.end);
    path.end
}

/// One Sendfile cycle: no user-space copy, single kernel splice.
fn sendfile_cycle(world: &mut World, w: SimTime) -> SimTime {
    let sys = world.host.syscall(w);
    let (kbuf, resp_at) = world.nfs_read_chunk(sys.end);
    let irq = world.host.interrupt(resp_at.max(sys.end));
    // sendfile: initialize the socket buffer descriptor to point at the
    // kernel buffer — header-only CPU touches, no payload copy.
    world.touch_metadata(calib::META_BYTES);
    let path = world.host.cpu.reserve(irq.end, calib::SENDFILE_PATH);
    let (host_ref, nic_ref) = (&mut world.host, &mut world.nic);
    let xfer = nic_ref.dma_from_host(path.end, &mut host_ref.bus, kbuf);
    host_ref.mem.dma_transfer(kbuf);
    let tx = world.nic.tx_process(xfer.end, world.cfg.packet_bytes);
    world.deliver(tx.end);
    path.end
}

/// One Offloaded cycle, run entirely on the NIC at firmware-timer instant
/// `t`: the File Offcode fetches the chunk from the NAS, the Broadcast
/// Offcode transmits it. The host is never involved.
fn offloaded_cycle(world: &mut World, t: SimTime) {
    // File Offcode: NFS read issued by the NIC itself.
    let req = NfsRequest::Read {
        fh: world.movie,
        offset: world.offset,
        len: world.cfg.packet_bytes as u32,
    };
    world.offset += world.cfg.packet_bytes as u64;
    let fw1 = world.nic.offcode_work(t, 96, Cycles::new(800));
    let req_out = world.nas_link.transmit(fw1.end, 96);
    let (_resp, service) = world.nas.handle(&req);
    let resp_in = world
        .nas_link
        .transmit(req_out + service, world.cfg.packet_bytes + 64);
    // Broadcast Offcode: packetize and transmit from NIC local memory.
    let fw2 = world
        .nic
        .offcode_work(resp_in, world.cfg.packet_bytes, Cycles::new(600));
    let tx = world.nic.tx_process(fw2.end, world.cfg.packet_bytes);
    world.deliver(tx.end);
}

/// Runs one server scenario to completion.
pub fn run_server(cfg: ServerConfig) -> ServerRun {
    let kind = cfg.kind;
    let duration = cfg.duration;
    let sample_period = cfg.sample_period;
    let end = SimTime::ZERO + duration;
    let mut sim = Sim::new(World::new(cfg));

    // Background OS load on the host, always.
    sim.every(SimTime::ZERO, SimDuration::from_millis(1), move |sim| {
        let now = sim.now();
        sim.model_mut().host.background_tick(now);
        now < end
    });

    // Periodic window sampling.
    sim.every(SimTime::ZERO + sample_period, sample_period, move |sim| {
        let now = sim.now();
        sim.model_mut().take_window_sample(now);
        now < end
    });

    // The streaming workload.
    match kind {
        ServerKind::Idle => {}
        ServerKind::Simple | ServerKind::Sendfile => {
            fn cycle(sim: &mut Sim<World>, kind: ServerKind, end: SimTime) {
                let w = sim.now();
                let done = match kind {
                    ServerKind::Simple => simple_cycle(sim.model_mut(), w),
                    ServerKind::Sendfile => sendfile_cycle(sim.model_mut(), w),
                    _ => unreachable!("only user-space kinds reach here"),
                };
                // Relative sleep: the loop sleeps `period` after finishing,
                // so tick quantization and overshoot accumulate into the
                // inter-packet gap.
                let target = done + sim.model().cfg.period;
                let wake = sim.model_mut().host.wakeup(target);
                if wake < end {
                    sim.schedule_at(wake.max(sim.now()), move |sim| cycle(sim, kind, end));
                }
            }
            let first = sim.model_mut().host.wakeup(SimTime::from_millis(5));
            sim.schedule_at(first, move |sim| cycle(sim, kind, end));
        }
        ServerKind::Offloaded => {
            fn cycle(sim: &mut Sim<World>, n: u64, end: SimTime) {
                let period = sim.model().cfg.period;
                // Absolute pacing on the firmware timer: no drift.
                let target = SimTime::ZERO + period * (n + 1);
                let fire = sim.model_mut().nic.timer_fire(target);
                if fire < end {
                    sim.schedule_at(fire.max(sim.now()), move |sim| {
                        let t = sim.now();
                        offloaded_cycle(sim.model_mut(), t);
                        cycle(sim, n + 1, end);
                    });
                }
            }
            cycle(&mut sim, 0, end);
        }
    }

    sim.run_until(end);
    let world = sim.into_model();
    ServerRun {
        kind,
        jitter_ms: world.meter.gaps_ms().clone(),
        cpu_util: world.cpu_util,
        l2_miss_rate: world.l2_rate,
        packets_delivered: world.meter.received(),
        l2: world.host.mem.cache().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn short(kind: ServerKind, secs: u64) -> ServerRun {
        let mut cfg = ServerConfig::paper(kind, 42);
        cfg.duration = SimDuration::from_secs(secs);
        run_server(cfg)
    }

    /// The 30 s run of `kind`, run once and shared by every test that
    /// reads it.
    fn run30(kind: ServerKind) -> &'static ServerRun {
        static RUNS: [OnceLock<ServerRun>; 4] = [const { OnceLock::new() }; 4];
        let i = ServerKind::all()
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is listed");
        RUNS[i].get_or_init(|| short(kind, 30))
    }

    #[test]
    fn idle_server_floor_matches_paper() {
        let run = run30(ServerKind::Idle);
        let u = run.cpu_util.summary().mean;
        assert!((u - 0.029).abs() < 0.012, "idle utilization {u}");
        assert_eq!(run.packets_delivered, 0);
    }

    #[test]
    fn jitter_ordering_matches_figure_9() {
        let simple = run30(ServerKind::Simple);
        let sendfile = run30(ServerKind::Sendfile);
        let offloaded = run30(ServerKind::Offloaded);
        let s = simple.jitter_ms.summary();
        let f = sendfile.jitter_ms.summary();
        let o = offloaded.jitter_ms.summary();
        // Medians: ~7 / ~6 / ~5 ms.
        assert!((s.median - 7.0).abs() < 0.6, "simple median {}", s.median);
        assert!((f.median - 6.0).abs() < 0.6, "sendfile median {}", f.median);
        assert!(
            (o.median - 5.0).abs() < 0.05,
            "offloaded median {}",
            o.median
        );
        // Std devs strictly ordered, offloaded an order of magnitude lower.
        assert!(
            s.std_dev > f.std_dev,
            "simple {} vs sendfile {}",
            s.std_dev,
            f.std_dev
        );
        assert!(
            o.std_dev < f.std_dev / 5.0,
            "offloaded std {} not well below sendfile {}",
            o.std_dev,
            f.std_dev
        );
    }

    #[test]
    fn cpu_ordering_matches_table_3() {
        let idle = run30(ServerKind::Idle).cpu_util.summary().mean;
        let simple = run30(ServerKind::Simple).cpu_util.summary().mean;
        let sendfile = run30(ServerKind::Sendfile).cpu_util.summary().mean;
        let offloaded = run30(ServerKind::Offloaded).cpu_util.summary().mean;
        assert!(simple > sendfile, "simple {simple} vs sendfile {sendfile}");
        assert!(
            sendfile > idle + 0.005,
            "sendfile {sendfile} vs idle {idle}"
        );
        assert!(
            (offloaded - idle).abs() < 0.004,
            "offloaded {offloaded} should equal idle {idle}"
        );
    }

    #[test]
    fn l2_ordering_matches_figure_10() {
        let idle = run30(ServerKind::Idle).l2_miss_rate.summary().mean;
        let simple = run30(ServerKind::Simple).l2_miss_rate.summary().mean;
        let sendfile = run30(ServerKind::Sendfile).l2_miss_rate.summary().mean;
        let offloaded = run30(ServerKind::Offloaded).l2_miss_rate.summary().mean;
        let n_simple = simple / idle;
        let n_sendfile = sendfile / idle;
        let n_offloaded = offloaded / idle;
        assert!(
            (1.02..1.2).contains(&n_simple),
            "simple normalized {n_simple}"
        );
        assert!(
            n_sendfile < n_simple,
            "sendfile {n_sendfile} < simple {n_simple}"
        );
        assert!(
            (n_offloaded - 1.0).abs() < 0.02,
            "offloaded normalized {n_offloaded}"
        );
    }

    #[test]
    fn offloaded_throughput_matches_bitrate() {
        let run = run30(ServerKind::Offloaded);
        // 5 ms pacing for 30 s = ~6000 packets.
        assert!(
            (5900..=6001).contains(&(run.packets_delivered as i64)),
            "delivered {}",
            run.packets_delivered
        );
    }

    #[test]
    fn user_space_servers_drift_slower() {
        // The paper's simple server averages 7 ms between packets — it
        // delivers fewer packets than the offloaded one in the same time.
        let simple = run30(ServerKind::Simple);
        let offloaded = run30(ServerKind::Offloaded);
        assert!(simple.packets_delivered < offloaded.packets_delivered * 8 / 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = short(ServerKind::Simple, 10);
        let b = short(ServerKind::Simple, 10);
        assert_eq!(a.jitter_ms.values(), b.jitter_ms.values());
        assert_eq!(a.packets_delivered, b.packets_delivered);
    }
}
