//! The Video Client experiment (paper §6.4, Table 4).
//!
//! The client of Figure 7's right-hand side receives the 1 kB / 5 ms UDP
//! stream and must (a) store it for later playback and (b) decode and
//! display it live. Two implementations:
//!
//! * **User-space** — the conventional path: NIC DMAs each packet into a
//!   kernel ring, interrupt, `recv()` copy to user space, `write()` back
//!   down through the NFS client to store it, software MPEG decode on the
//!   host CPU, and a bus blit of every raw frame to the GPU.
//! * **Offloaded** — the full HYDRA layout of Figure 8: the NIC's
//!   Streamer forwards each packet over the bus to the GPU (Decoder +
//!   Display Offcodes, hardware decode into the framebuffer) and to the
//!   smart disk (File Offcode, stored via the disk's private NFS path).
//!   "There are no components left on the host processor."
//!
//! Measured: client CPU utilization (Table 4) and L2 misses (the text's
//! "the non-offloaded client generates 12% more misses").

use std::sync::{Arc, Mutex, PoisonError};

use hydra_devices::disk::SmartDiskModel;
use hydra_devices::gpu::GpuModel;
use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_hw::cache::{AccessKind, CacheStats};
use hydra_hw::cpu::Cycles;
use hydra_hw::irq::IrqDecision;
use hydra_hw::mem::Region;
use hydra_media::codec::{CodecConfig, EncodedFrame, Encoder, GopConfig};
use hydra_media::cost::DecodeCostModel;
use hydra_media::frame::SyntheticVideo;
use hydra_media::stream::Chunker;
use hydra_net::nfs::NasServer;
use hydra_sim::stats::Samples;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

/// Which client implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// No playback: the Table 4 "Idle Client" baseline.
    Idle,
    /// Conventional user-space client.
    UserSpace,
    /// Fully offloaded HYDRA client.
    Offloaded,
}

impl ClientKind {
    /// All three scenarios in table order.
    pub fn all() -> [ClientKind; 3] {
        [
            ClientKind::Idle,
            ClientKind::UserSpace,
            ClientKind::Offloaded,
        ]
    }

    /// The label used in Table 4.
    pub fn label(&self) -> &'static str {
        match self {
            ClientKind::Idle => "Idle Client",
            ClientKind::UserSpace => "User-space Client",
            ClientKind::Offloaded => "Offloaded Client",
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Which implementation.
    pub kind: ClientKind,
    /// Stream chunk size (paper: 1 kB).
    pub packet_bytes: usize,
    /// Chunk arrival period (paper: 5 ms).
    pub period: SimDuration,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Sampling period for utilization/L2 windows.
    pub sample_period: SimDuration,
    /// Video geometry (QCIF by default).
    pub width: usize,
    /// Video height.
    pub height: usize,
    /// Host I/O interconnect generation. The paper's footnote 2: on PCIe
    /// the NIC-to-peer forward is a single transaction; on classic PCI it
    /// crosses the host bridge twice.
    pub bus: hydra_hw::bus::BusSpec,
    /// RNG seed.
    pub seed: u64,
}

impl ClientConfig {
    /// The paper's setup with a 60 s default run.
    pub fn paper(kind: ClientKind, seed: u64) -> Self {
        ClientConfig {
            kind,
            packet_bytes: 1024,
            period: SimDuration::from_millis(5),
            duration: SimDuration::from_secs(60),
            sample_period: SimDuration::from_secs(5),
            width: 176,
            height: 144,
            bus: hydra_hw::bus::BusSpec::pci64(),
            seed,
        }
    }

    /// The same client on a PCIe interconnect (footnote 2's what-if).
    pub fn paper_pcie(kind: ClientKind, seed: u64) -> Self {
        ClientConfig {
            bus: hydra_hw::bus::BusSpec::pcie_x4(),
            ..Self::paper(kind, seed)
        }
    }
}

/// Results of one client run.
#[derive(Debug, Clone)]
pub struct ClientRun {
    /// The scenario.
    pub kind: ClientKind,
    /// CPU utilization per sample window (Table 4), fractions.
    pub cpu_util: Samples,
    /// L2 misses per second per window.
    pub l2_miss_rate: Samples,
    /// Packets processed.
    pub packets: u64,
    /// Frames decoded (by host or GPU, depending on the scenario).
    pub frames_decoded: u64,
    /// Frames stored to the recording (blocks × block size).
    pub bytes_stored: u64,
    /// Host-bus transactions over the run (footnote 2's currency).
    pub bus_transactions: u64,
    /// The host L2's counters at the end of the run.
    pub l2: CacheStats,
}

/// Calibration constants for the user-space client's kernel paths; see
/// DESIGN.md §2.
mod calib {
    use hydra_hw::cpu::Cycles;

    /// recv() path cycles per packet (interrupt bottom half, socket
    /// lookup, wakeup).
    pub const RECV_PATH: Cycles = Cycles::new(210_000);
    /// write()-to-NFS path cycles per packet.
    pub const WRITE_PATH: Cycles = Cycles::new(175_000);
    /// Software-decode dispatch overhead per frame beyond the codec model.
    pub const DECODE_DISPATCH: Cycles = Cycles::new(40_000);
}

/// The stream the server loops, in decode order: 50 frames of
/// [`SyntheticVideo`] at the client's geometry, coded IBBP at quantizer 6.
///
/// This is the fresh render and encode, the only one there is: every run
/// reads the stream from a tape recorded once per process from this
/// function's output, and this function stays the tape's oracle.
pub fn stream_frames(cfg: &ClientConfig) -> Vec<EncodedFrame> {
    let video = SyntheticVideo::new(cfg.width, cfg.height);
    let raw: Vec<_> = (0..50).map(|i| video.frame(i)).collect();
    Encoder::new(CodecConfig {
        quantizer: 6,
        gop: GopConfig::ibbp(),
    })
    .encode_sequence(&raw)
}

/// One chunk of the recorded stream: what the client sees of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapeChunk {
    /// Payload bytes.
    len: usize,
    /// The index into [`Tape::frames`] of the frame this chunk completes.
    completes: Option<usize>,
}

/// The recorded stream, immutable once built: the encoded frames and, for
/// each chunk in wire order, its length and the frame it completes.
#[derive(Debug)]
struct Tape {
    frames: Vec<EncodedFrame>,
    chunks: Vec<TapeChunk>,
}

/// What a tape depends on: `(width, height, packet_bytes)`.
type TapeKey = (usize, usize, usize);

/// Every tape recorded in this process, one per key.
static TAPES: Mutex<Vec<(TapeKey, Arc<Tape>)>> = Mutex::new(Vec::new());

impl Tape {
    /// Encodes the stream and chunks it; see DESIGN.md §18.
    fn record(cfg: &ClientConfig) -> Self {
        let frames = stream_frames(cfg);
        let mut chunker = Chunker::new(cfg.packet_bytes);
        let chunks = frames
            .iter()
            .flat_map(|f| chunker.chunk_frame(f))
            .map(|c| TapeChunk {
                len: c.data.len(),
                completes: (c.offset as usize + c.data.len() == c.total_len as usize)
                    .then(|| c.frame_id as usize % frames.len()),
            })
            .collect();
        Tape { frames, chunks }
    }

    /// The tape for `cfg`'s key, recorded on first use. The encode runs
    /// outside the lock; if two threads race on a cold key, both encode
    /// and the first insert wins (their tapes are identical). The table
    /// is never left half-written, so a poisoned lock is recovered.
    fn shared(cfg: &ClientConfig) -> Arc<Tape> {
        let key = (cfg.width, cfg.height, cfg.packet_bytes);
        let tapes = || TAPES.lock().unwrap_or_else(PoisonError::into_inner);
        let find = |tapes: &[(TapeKey, Arc<Tape>)]| {
            tapes
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, t)| Arc::clone(t))
        };
        if let Some(tape) = find(&tapes()) {
            return tape;
        }
        let fresh = Arc::new(Tape::record(cfg));
        let mut tapes = tapes();
        if let Some(tape) = find(&tapes) {
            return tape;
        }
        tapes.push((key, Arc::clone(&fresh)));
        fresh
    }
}

/// One run's position on the shared looping stream.
#[derive(Debug, Clone)]
struct StreamSource {
    tape: Arc<Tape>,
    next: usize,
}

impl StreamSource {
    fn new(cfg: &ClientConfig) -> Self {
        StreamSource {
            tape: Tape::shared(cfg),
            next: 0,
        }
    }

    /// The next arriving chunk's length, looping forever, and the frame
    /// that *completes* with this chunk, if any.
    fn next_chunk(&mut self) -> (usize, Option<&EncodedFrame>) {
        let chunk = self.tape.chunks[self.next];
        self.next = (self.next + 1) % self.tape.chunks.len();
        (chunk.len, chunk.completes.map(|i| &self.tape.frames[i]))
    }
}

struct World {
    host: HostModel,
    nic: NicModel,
    gpu: GpuModel,
    disk: SmartDiskModel,
    disk_nas: NasServer,
    /// One zeroed block, shared by every stored block (a clone is O(1)).
    zero_block: bytes::Bytes,
    cfg: ClientConfig,
    // Host buffers (user-space path).
    rx_bufs: Vec<Region>,
    rx_next: usize,
    user_buf: Region,
    skb_buf: Region,
    frame_ref: Region,
    frame_cur: Region,
    meta_buf: Region,
    // Recording accumulation into 4 kB blocks.
    pending_block_bytes: usize,
    next_block: u64,
    // Stats.
    packets: u64,
    frames_decoded: u64,
    bytes_stored: u64,
    cpu_util: Samples,
    l2_rate: Samples,
    last_busy_secs: f64,
    last_misses: u64,
    last_sample_at: SimTime,
    irq_deadline_pending: bool,
    /// Arrival-jitter stream, independent of the host's own RNG so the
    /// background (idle) activity is identical across scenarios.
    jitter_rng: hydra_sim::rng::DetRng,
}

impl World {
    fn new(cfg: ClientConfig) -> Self {
        let jitter_rng = hydra_sim::rng::DetRng::new(cfg.seed).split(0xA221);
        let mut host = HostModel::paper_host(cfg.seed ^ 0xC11E);
        host.bus = hydra_hw::bus::Bus::new(cfg.bus);
        let rx_bufs = (0..32)
            .map(|i| host.space.alloc(&format!("rx{i}"), cfg.packet_bytes))
            .collect();
        let user_buf = host.space.alloc("user", 64 * 1024);
        let skb_buf = host.space.alloc("skb", cfg.packet_bytes + 256);
        let raw_bytes = cfg.width * cfg.height;
        let frame_ref = host.space.alloc("frame-ref", raw_bytes);
        let frame_cur = host.space.alloc("frame-cur", raw_bytes);
        let meta_buf = host.space.alloc("meta", 64 * 1024);
        let mut disk = SmartDiskModel::new();
        let mut disk_nas = NasServer::default();
        disk.open(&mut disk_nas, "/dvr/recording");
        World {
            host,
            nic: NicModel::new_3c985b(cfg.seed),
            gpu: GpuModel::new(),
            disk,
            disk_nas,
            zero_block: bytes::Bytes::from(vec![0u8; hydra_devices::disk::BLOCK_BYTES]),
            cfg,
            rx_bufs,
            rx_next: 0,
            user_buf,
            skb_buf,
            frame_ref,
            frame_cur,
            meta_buf,
            pending_block_bytes: 0,
            next_block: 0,
            packets: 0,
            frames_decoded: 0,
            bytes_stored: 0,
            cpu_util: Samples::new(),
            l2_rate: Samples::new(),
            last_busy_secs: 0.0,
            last_misses: 0,
            last_sample_at: SimTime::ZERO,
            irq_deadline_pending: false,
            jitter_rng,
        }
    }

    fn take_window_sample(&mut self, now: SimTime) {
        let span = now.duration_since(self.last_sample_at).as_secs_f64();
        if span <= 0.0 {
            return;
        }
        let busy = self.host.cpu.utilization(now) * now.as_secs_f64();
        self.cpu_util
            .record(((busy - self.last_busy_secs) / span).clamp(0.0, 1.0));
        let misses = self.host.mem.cache().stats().misses;
        self.l2_rate
            .record((misses - self.last_misses) as f64 / span);
        self.last_busy_secs = busy;
        self.last_misses = misses;
        self.last_sample_at = now;
    }

    /// Appends `len` stream bytes to the recording, flushing whole blocks
    /// through the smart disk (offloaded path) at `now`.
    fn disk_store(&mut self, now: SimTime, len: usize) {
        self.pending_block_bytes += len;
        while self.pending_block_bytes >= hydra_devices::disk::BLOCK_BYTES {
            self.pending_block_bytes -= hydra_devices::disk::BLOCK_BYTES;
            let idx = self.next_block;
            self.next_block += 1;
            if self
                .disk
                .write_block(now, &mut self.disk_nas, idx, self.zero_block.clone())
                .is_ok()
            {
                self.bytes_stored += hydra_devices::disk::BLOCK_BYTES as u64;
            }
        }
    }
}

/// One packet through the user-space client.
fn user_space_packet(
    world: &mut World,
    arrival: SimTime,
    len: usize,
    completes: Option<&EncodedFrame>,
) {
    // NIC receive + DMA into the kernel ring.
    let rx = world.nic.rx_process(arrival, len);
    let kbuf = world.rx_bufs[world.rx_next];
    world.rx_next = (world.rx_next + 1) % world.rx_bufs.len();
    let (host, nic) = (&mut world.host, &mut world.nic);
    let (xfer, irq) = nic.dma_to_host(rx.end, &mut host.bus, kbuf);
    host.mem.dma_transfer(kbuf);
    let visible = match irq {
        IrqDecision::Fire { .. } => {
            let r = world.host.interrupt(xfer.end);
            r.end
        }
        IrqDecision::Hold { deadline } => {
            // The coalescing timer will fire; model its CPU cost once.
            if !world.irq_deadline_pending {
                world.irq_deadline_pending = true;
                let r = world.host.interrupt(deadline);
                world.irq_deadline_pending = false;
                r.end.max(xfer.end)
            } else {
                deadline.max(xfer.end)
            }
        }
    };
    // recv(): syscall + copy kernel -> user. The application reuses one
    // receive buffer, so the user side stays cache-warm.
    let sys = world.host.syscall(visible);
    let user_slice = world.user_buf.slice(0, len);
    let copy = world.host.cpu_copy(sys.end, kbuf, user_slice, len);
    let recv_path = world.host.cpu.reserve(copy.end, calib::RECV_PATH);
    // write() to the NFS recording: copy user -> skb, checksum, DMA out.
    let sys2 = world.host.syscall(recv_path.end);
    let copy2 = world
        .host
        .cpu_copy(sys2.end, user_slice, world.skb_buf, len);
    let csum = world.host.compute_over(
        copy2.end,
        world.skb_buf,
        Cycles::new(len as u64 / 2),
        AccessKind::Read,
    );
    let write_path = world.host.cpu.reserve(csum.end, calib::WRITE_PATH);
    let (host, nic) = (&mut world.host, &mut world.nic);
    let out = nic.dma_from_host(write_path.end, &mut host.bus, world.skb_buf);
    host.mem.dma_transfer(world.skb_buf);
    world.bytes_stored += len as u64;
    // Metadata traffic for both syscalls.
    let meta_at = (world.packets as usize * 768) % (64 * 1024 - 512);
    let meta = world.meta_buf.slice(meta_at, 512);
    world.host.mem.touch(meta, AccessKind::Write);
    let mut t = out.end;
    // If a frame completed: software decode + blit to the GPU.
    if let Some(frame) = completes {
        let cycles = DecodeCostModel::software().cycles(frame);
        // The decoder only reconstructs coded blocks; skipped blocks stay
        // in place in the reference, so the memory traffic scales with
        // the coded fraction of the frame.
        let raw = world.cfg.width * world.cfg.height;
        let coded = (raw as u64 * u64::from(frame.coded_blocks)
            / u64::from(frame.total_blocks().max(1))) as usize;
        let wr = world.host.compute_over(
            t,
            world.frame_cur.slice(0, coded.max(64)),
            Cycles::new(cycles) + calib::DECODE_DISPATCH,
            AccessKind::Write,
        );
        std::mem::swap(&mut world.frame_ref, &mut world.frame_cur);
        // Blit the raw frame across the bus to the GPU framebuffer.
        let raw = world.cfg.width * world.cfg.height;
        let blit = world.host.bus.transfer(wr.end, raw);
        world.gpu.blit_raw(blit.end, frame.display_index, raw);
        world.gpu.display();
        world.frames_decoded += 1;
        t = blit.end;
    }
    let _ = t;
    world.packets += 1;
}

/// One packet through the offloaded client.
fn offloaded_packet(
    world: &mut World,
    arrival: SimTime,
    len: usize,
    completes: Option<&EncodedFrame>,
) {
    // NIC Streamer Offcode: classify and forward to both peers.
    let rx = world.nic.rx_process(arrival, len);
    let work = world.nic.offcode_work(rx.end, len, Cycles::new(400));
    let (host, nic) = (&mut world.host, &mut world.nic);
    // One bus crossing to the GPU...
    let to_gpu = nic.forward_to_peer(work.end, &mut host.bus, len);
    // ...and one to the smart disk.
    let to_disk = nic.forward_to_peer(work.end, &mut host.bus, len);
    // Smart disk stores asynchronously via its own NFS path.
    world.disk_store(to_disk.end, len);
    // GPU-side Decoder Offcode: hardware decode when a frame completes.
    if let Some(frame) = completes {
        world.gpu.hw_decode(to_gpu.end, frame);
        world.gpu.display();
        world.frames_decoded += 1;
    }
    world.packets += 1;
}

/// Runs one client scenario to completion.
pub fn run_client(cfg: ClientConfig) -> ClientRun {
    let kind = cfg.kind;
    let duration = cfg.duration;
    let sample_period = cfg.sample_period;
    let period = cfg.period;
    let end = SimTime::ZERO + duration;
    // The idle client receives no stream, so it never encodes one.
    let source = (kind != ClientKind::Idle).then(|| StreamSource::new(&cfg));
    let mut sim = Sim::new(World::new(cfg));

    sim.every(SimTime::ZERO, SimDuration::from_millis(1), move |sim| {
        let now = sim.now();
        sim.model_mut().host.background_tick(now);
        now < end
    });
    sim.every(SimTime::ZERO + sample_period, sample_period, move |sim| {
        let now = sim.now();
        sim.model_mut().take_window_sample(now);
        now < end
    });

    if let Some(mut source) = source {
        sim.every(SimTime::ZERO + period, period, move |sim| {
            let now = sim.now();
            // Arrival jitter from the (offloaded) server: tens of µs.
            let jitter = sim.model_mut().jitter_rng.next_below(60);
            let arrival = now + SimDuration::from_micros(jitter);
            let (len, completes) = source.next_chunk();
            match kind {
                ClientKind::UserSpace => {
                    user_space_packet(sim.model_mut(), arrival, len, completes);
                }
                ClientKind::Offloaded => {
                    offloaded_packet(sim.model_mut(), arrival, len, completes);
                }
                ClientKind::Idle => unreachable!("idle schedules no stream"),
            }
            now < end
        });
    }

    sim.run_until(end);
    let world = sim.into_model();
    ClientRun {
        kind,
        cpu_util: world.cpu_util,
        l2_miss_rate: world.l2_rate,
        packets: world.packets,
        frames_decoded: world.frames_decoded,
        bytes_stored: world.bytes_stored,
        bus_transactions: world.host.bus.transactions(),
        l2: world.host.mem.cache().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn short(kind: ClientKind, secs: u64) -> ClientRun {
        let mut cfg = ClientConfig::paper(kind, 7);
        cfg.duration = SimDuration::from_secs(secs);
        run_client(cfg)
    }

    /// The 30 s run of `kind`, run once and shared by every test that
    /// reads it.
    fn run30(kind: ClientKind) -> &'static ClientRun {
        static RUNS: [OnceLock<ClientRun>; 3] = [const { OnceLock::new() }; 3];
        let i = ClientKind::all()
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is listed");
        RUNS[i].get_or_init(|| short(kind, 30))
    }

    #[test]
    fn idle_client_matches_baseline() {
        let run = run30(ClientKind::Idle);
        let u = run.cpu_util.summary().mean;
        assert!((u - 0.029).abs() < 0.012, "idle utilization {u}");
        assert_eq!(run.packets, 0);
    }

    #[test]
    fn cpu_ordering_matches_table_4() {
        let idle = run30(ClientKind::Idle).cpu_util.summary().mean;
        let user = run30(ClientKind::UserSpace).cpu_util.summary().mean;
        let off = run30(ClientKind::Offloaded).cpu_util.summary().mean;
        assert!(user > idle + 0.02, "user {user} vs idle {idle}");
        assert!(
            (off - idle).abs() < 0.004,
            "offloaded {off} should equal idle {idle}"
        );
    }

    #[test]
    fn l2_user_space_penalty_near_12_percent() {
        let idle = run30(ClientKind::Idle).l2_miss_rate.summary().mean;
        let user = run30(ClientKind::UserSpace).l2_miss_rate.summary().mean;
        let off = run30(ClientKind::Offloaded).l2_miss_rate.summary().mean;
        let n_user = user / idle;
        let n_off = off / idle;
        assert!(
            (1.05..1.25).contains(&n_user),
            "user-space normalized {n_user}"
        );
        assert!((n_off - 1.0).abs() < 0.02, "offloaded normalized {n_off}");
    }

    #[test]
    fn both_clients_decode_and_store() {
        let user = short(ClientKind::UserSpace, 20);
        let off = short(ClientKind::Offloaded, 20);
        assert!(user.frames_decoded > 0);
        assert!(off.frames_decoded > 0);
        assert!(user.bytes_stored > 0);
        assert!(off.bytes_stored > 0);
        // Same stream: same packet count and similar decode counts.
        assert_eq!(user.packets, off.packets);
        assert!(user.frames_decoded.abs_diff(off.frames_decoded) <= 1);
    }

    #[test]
    fn offloaded_work_lands_on_devices() {
        let mut cfg = ClientConfig::paper(ClientKind::Offloaded, 7);
        cfg.duration = SimDuration::from_secs(10);
        let kind = cfg.kind;
        let end = SimTime::ZERO + cfg.duration;
        // Re-run inline so we can inspect the world.
        let mut source = StreamSource::new(&cfg);
        let mut sim = Sim::new(World::new(cfg));
        let period = SimDuration::from_millis(5);
        sim.every(SimTime::ZERO + period, period, move |sim| {
            let now = sim.now();
            let (len, f) = source.next_chunk();
            match kind {
                ClientKind::Offloaded => offloaded_packet(sim.model_mut(), now, len, f),
                _ => unreachable!(),
            }
            now < end
        });
        sim.run_until(end);
        let w = sim.into_model();
        assert!(w.gpu.stats().frames_decoded > 0);
        assert_eq!(w.gpu.stats().frames_blitted, 0, "no host blits");
        assert!(w.disk.stats().blocks_written > 0);
        assert!(w.nic.stats().peer_bytes > 0);
        assert_eq!(w.nic.stats().host_dma_bytes, 0, "no host DMA");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = short(ClientKind::UserSpace, 10);
        let b = short(ClientKind::UserSpace, 10);
        assert_eq!(a.cpu_util.values(), b.cpu_util.values());
        assert_eq!(a.frames_decoded, b.frames_decoded);
    }

    fn geometry(width: usize, height: usize, packet_bytes: usize) -> ClientConfig {
        ClientConfig {
            packet_bytes,
            width,
            height,
            ..ClientConfig::paper(ClientKind::UserSpace, 7)
        }
    }

    /// The shared tape equals a fresh `stream_frames` plus `Chunker` pass:
    /// every frame field for field, and every chunk's length and the frame
    /// it completes (the last chunk of each frame's slice), in order.
    #[test]
    fn tape_matches_fresh_encode_and_chunking() {
        for (width, height) in [(176, 144), (48, 32)] {
            let fresh = stream_frames(&geometry(width, height, 1024));
            for packet_bytes in [1, 7, 100, 1024, 1500, 65536] {
                let tape = Tape::shared(&geometry(width, height, packet_bytes));
                assert_eq!(tape.frames, fresh, "{width}x{height}/{packet_bytes}");
                let mut chunker = Chunker::new(packet_bytes);
                let mut expected = Vec::new();
                for (i, frame) in fresh.iter().enumerate() {
                    let chunks = chunker.chunk_frame(frame);
                    let n = chunks.len();
                    expected.extend(chunks.iter().enumerate().map(|(j, c)| TapeChunk {
                        len: c.data.len(),
                        completes: (j + 1 == n).then_some(i),
                    }));
                }
                assert_eq!(tape.chunks, expected, "{width}x{height}/{packet_bytes}");
            }
        }
    }

    /// The key is the geometry and packet size only: seed, kind, bus and
    /// duration all share one tape.
    #[test]
    fn tape_is_shared_across_seeds_kinds_buses_and_durations() {
        let base = StreamSource::new(&ClientConfig::paper(ClientKind::UserSpace, 7)).tape;
        for seed in [1, 7, 0xDEAD_BEEF] {
            for kind in ClientKind::all() {
                for mut cfg in [
                    ClientConfig::paper(kind, seed),
                    ClientConfig::paper_pcie(kind, seed),
                ] {
                    for secs in [1, 60] {
                        cfg.duration = SimDuration::from_secs(secs);
                        let tape = StreamSource::new(&cfg).tape;
                        assert!(Arc::ptr_eq(&tape, &base), "{kind:?} seed {seed} {secs} s");
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_keys_get_distinct_tapes() {
        let paper = Tape::shared(&geometry(176, 144, 1024));
        let packet = Tape::shared(&geometry(176, 144, 1500));
        let small = Tape::shared(&geometry(48, 32, 1024));
        assert!(!Arc::ptr_eq(&paper, &packet));
        assert!(!Arc::ptr_eq(&paper, &small));
        assert_ne!(paper.chunks, packet.chunks);
        assert_ne!(paper.frames, small.frames);
    }

    /// Four threads, released together, race to record one cold key (no
    /// other test uses 512-byte packets); each run equals a sequential
    /// run of the same configuration.
    #[test]
    fn concurrent_runs_match_a_sequential_run() {
        let cfg = ClientConfig {
            duration: SimDuration::from_secs(1),
            ..geometry(176, 144, 512)
        };
        let start = std::sync::Barrier::new(4);
        let summary = |run: ClientRun| {
            (
                run.cpu_util.values().to_vec(),
                run.l2_miss_rate.values().to_vec(),
                run.packets,
                run.frames_decoded,
                run.bytes_stored,
                run.bus_transactions,
                run.l2,
            )
        };
        let parallel: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        summary(run_client(cfg.clone()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let sequential = summary(run_client(cfg.clone()));
        assert!(sequential.2 > 0, "the client received no packets");
        for run in parallel {
            assert_eq!(run, sequential);
        }
    }

    #[test]
    fn pcie_halves_offloaded_peer_transactions() {
        // Footnote 2: a NIC-to-peer packet is one transaction on PCIe but
        // two (through the host bridge) on classic PCI.
        let mut pci = ClientConfig::paper(ClientKind::Offloaded, 7);
        pci.duration = SimDuration::from_secs(10);
        let mut pcie = ClientConfig::paper_pcie(ClientKind::Offloaded, 7);
        pcie.duration = SimDuration::from_secs(10);
        let run_pci = run_client(pci);
        let run_pcie = run_client(pcie);
        assert_eq!(run_pci.packets, run_pcie.packets);
        // Two peer forwards per packet: PCI = 4 transactions, PCIe = 2.
        assert_eq!(run_pci.bus_transactions, run_pci.packets * 4);
        assert_eq!(run_pcie.bus_transactions, run_pcie.packets * 2);
    }
}
