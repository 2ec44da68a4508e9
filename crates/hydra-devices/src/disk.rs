//! The "smart disk" model.
//!
//! The paper emulated a programmable disk controller with a second
//! programmable NIC exporting a block device whose blocks actually live on
//! a NAS reached over NFS (§6.1). [`SmartDiskModel`] reproduces exactly
//! that: an XScale-class controller CPU, a block API, and an NFS-lite
//! client bound to a [`NasServer`] over a private link. Offcodes hosted on
//! the controller (the playback Streamer, the File Offcode) do their work
//! here without touching the host.
//!
//! [`NasServer`]: hydra_net::nfs::NasServer

use bytes::Bytes;
use hydra_hw::cpu::{Cpu, CpuSpec, Cycles, Reservation};
use hydra_net::link::{Link, LinkSpec};
use hydra_net::nfs::{FileHandle, NasServer, NfsError, NfsRequest, NfsResponse};
use hydra_obs::{Recorder, TraceCtx};
use hydra_sim::fault::FaultInjector;
use hydra_sim::time::SimTime;

use crate::trace::{busy_if, hop_if, DeviceTracer, LINK_BUSY_NS};

/// Block size of the exported block device.
pub const BLOCK_BYTES: usize = 4096;

/// Lifetime statistics of the smart disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Blocks written through the controller.
    pub blocks_written: u64,
    /// Blocks read through the controller.
    pub blocks_read: u64,
    /// NFS round trips issued to the NAS.
    pub nfs_round_trips: u64,
    /// Operations refused because the controller crashed (injected).
    pub io_faulted: u64,
    /// Injected controller stalls absorbed.
    pub fault_stalls: u64,
}

/// Errors from the smart disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The backing NAS rejected an operation.
    Nfs(NfsError),
    /// No backing file is open.
    NotOpen,
    /// An injected fault has fail-stopped the controller.
    DeviceFailed,
}

impl From<NfsError> for DiskError {
    fn from(e: NfsError) -> Self {
        DiskError::Nfs(e)
    }
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Nfs(e) => write!(f, "nas: {e}"),
            DiskError::NotOpen => f.write_str("no backing file open"),
            DiskError::DeviceFailed => f.write_str("disk controller has fail-stopped"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A completed disk operation: when it finished and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOp {
    /// Controller-CPU reservation for the operation.
    pub controller: Reservation,
    /// Instant the data is durable on (or available from) the NAS.
    pub complete_at: SimTime,
}

/// The programmable "smart disk": block device over NFS.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hydra_devices::disk::SmartDiskModel;
/// use hydra_net::nfs::NasServer;
/// use hydra_sim::time::SimTime;
///
/// let mut nas = NasServer::default();
/// let mut disk = SmartDiskModel::new();
/// disk.open(&mut nas, "/dvr/stream0");
/// let op = disk.write_block(SimTime::ZERO, &mut nas, 0, Bytes::from_static(b"gop")).unwrap();
/// assert!(op.complete_at > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SmartDiskModel {
    /// The controller's embedded CPU.
    pub cpu: Cpu,
    /// The private link to the NAS (one direction; round trips double it).
    pub nas_link: Link,
    backing: Option<FileHandle>,
    stats: DiskStats,
    /// Controller firmware cost per block (checksums, mapping).
    per_block: Cycles,
    tracer: Option<DeviceTracer>,
    faults: Option<FaultInjector>,
}

impl Default for SmartDiskModel {
    fn default() -> Self {
        Self::new()
    }
}

impl SmartDiskModel {
    /// Creates a controller with a gigabit NAS path.
    pub fn new() -> Self {
        SmartDiskModel {
            cpu: Cpu::new(CpuSpec::xscale()),
            nas_link: Link::new(LinkSpec::gigabit()),
            backing: None,
            stats: DiskStats::default(),
            per_block: Cycles::new(2_000),
            tracer: None,
            faults: None,
        }
    }

    /// Couples this controller to a shared flight recorder under trace
    /// pid `device`, enabling the `*_traced` block operations.
    pub fn set_recorder(&mut self, recorder: Recorder, device: u64) {
        self.tracer = Some(DeviceTracer::new(recorder, device));
    }

    /// Installs a fault injector; block operations then fail with
    /// [`DiskError::DeviceFailed`] once a crash strikes, and stall
    /// windows busy the controller CPU before an operation's own cycles.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Whether an injected crash has fail-stopped the controller by `now`.
    pub fn is_crashed(&self, now: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed(now))
    }

    /// Fault gate shared by the block operations: refuses I/O after a
    /// crash and absorbs any active stall window.
    fn fault_gate(&mut self, now: SimTime) -> Result<(), DiskError> {
        let Some(f) = &self.faults else { return Ok(()) };
        if f.crashed(now) {
            self.stats.io_faulted += 1;
            return Err(DiskError::DeviceFailed);
        }
        let stall = f.stall_penalty(now);
        if !stall.is_zero() {
            self.stats.fault_stalls += 1;
            let wasted = self.cpu.spec().cycles_in(stall);
            let r = self.cpu.reserve(now, wasted);
            busy_if(&self.tracer, r.start, r.end);
        }
        Ok(())
    }

    /// The statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Opens (creating if needed) the backing file on the NAS.
    pub fn open(&mut self, nas: &mut NasServer, path: &str) -> FileHandle {
        let (resp, _) = nas.handle(&NfsRequest::Create {
            path: path.to_owned(),
        });
        let NfsResponse::Handle(fh) = resp else {
            unreachable!("create never fails in NFS-lite")
        };
        self.backing = Some(fh);
        fh
    }

    /// Attaches to an existing NAS file (for playback of a prior
    /// recording).
    ///
    /// # Errors
    ///
    /// Fails if the path does not exist.
    pub fn open_existing(
        &mut self,
        nas: &mut NasServer,
        path: &str,
    ) -> Result<FileHandle, DiskError> {
        let (resp, _) = nas.handle(&NfsRequest::Lookup {
            path: path.to_owned(),
        });
        match resp {
            NfsResponse::Handle(fh) => {
                self.backing = Some(fh);
                Ok(fh)
            }
            NfsResponse::Error(e) => Err(e.into()),
            _ => unreachable!("lookup returns handle or error"),
        }
    }

    fn nfs_round_trip(
        &mut self,
        start: SimTime,
        nas: &mut NasServer,
        req: &NfsRequest,
        wire_bytes: usize,
    ) -> (NfsResponse, SimTime) {
        // Request on the wire, service at the NAS, response back.
        let wire_before = self.nas_link.busy_nanos();
        let arrive = self.nas_link.transmit(start, wire_bytes.max(64));
        let (resp, service) = nas.handle(req);
        let resp_bytes = match &resp {
            NfsResponse::Data(d) => d.len() + 64,
            _ => 64,
        };
        let done = self.nas_link.transmit(arrive + service, resp_bytes);
        self.stats.nfs_round_trips += 1;
        if let Some(t) = &self.tracer {
            t.counter_add(LINK_BUSY_NS, self.nas_link.busy_nanos() - wire_before);
        }
        (resp, done)
    }

    /// Writes one block at block index `idx`.
    ///
    /// # Errors
    ///
    /// Fails if no backing file is open or the NAS rejects the write.
    pub fn write_block(
        &mut self,
        now: SimTime,
        nas: &mut NasServer,
        idx: u64,
        data: Bytes,
    ) -> Result<DiskOp, DiskError> {
        self.fault_gate(now)?;
        let fh = self.backing.ok_or(DiskError::NotOpen)?;
        let controller = self.cpu.reserve(now, self.per_block);
        busy_if(&self.tracer, controller.start, controller.end);
        let wire = data.len() + 96;
        let req = NfsRequest::Write {
            fh,
            offset: idx * BLOCK_BYTES as u64,
            data,
        };
        let (resp, complete_at) = self.nfs_round_trip(controller.end, nas, &req, wire);
        match resp {
            NfsResponse::Written(_) => {
                self.stats.blocks_written += 1;
                Ok(DiskOp {
                    controller,
                    complete_at,
                })
            }
            NfsResponse::Error(e) => Err(e.into()),
            _ => unreachable!("write returns written or error"),
        }
    }

    /// Writes `blocks` consecutive blocks starting at block index `start`
    /// as one batched operation: a single controller reservation covering
    /// the whole batch and one NFS round trip carrying the concatenated
    /// payload, instead of one reservation and one round trip per block.
    ///
    /// # Errors
    ///
    /// Fails if no backing file is open or the NAS rejects the write; an
    /// empty batch is a no-op completing at `now`.
    pub fn write_blocks(
        &mut self,
        now: SimTime,
        nas: &mut NasServer,
        start: u64,
        blocks: &[Bytes],
    ) -> Result<DiskOp, DiskError> {
        self.fault_gate(now)?;
        let fh = self.backing.ok_or(DiskError::NotOpen)?;
        if blocks.is_empty() {
            return Ok(DiskOp {
                controller: self.cpu.reserve(now, Cycles::ZERO),
                complete_at: now,
            });
        }
        let controller = self.cpu.reserve(now, self.per_block * blocks.len() as u64);
        busy_if(&self.tracer, controller.start, controller.end);
        let mut data = Vec::with_capacity(blocks.iter().map(Bytes::len).sum());
        for b in blocks {
            data.extend_from_slice(b);
        }
        let wire = data.len() + 96;
        let req = NfsRequest::Write {
            fh,
            offset: start * BLOCK_BYTES as u64,
            data: Bytes::from(data),
        };
        let (resp, complete_at) = self.nfs_round_trip(controller.end, nas, &req, wire);
        match resp {
            NfsResponse::Written(_) => {
                self.stats.blocks_written += blocks.len() as u64;
                Ok(DiskOp {
                    controller,
                    complete_at,
                })
            }
            NfsResponse::Error(e) => Err(e.into()),
            _ => unreachable!("write returns written or error"),
        }
    }

    /// Reads one block at block index `idx`.
    ///
    /// # Errors
    ///
    /// Fails if no backing file is open or the NAS rejects the read.
    pub fn read_block(
        &mut self,
        now: SimTime,
        nas: &mut NasServer,
        idx: u64,
    ) -> Result<(Bytes, DiskOp), DiskError> {
        self.fault_gate(now)?;
        let fh = self.backing.ok_or(DiskError::NotOpen)?;
        let controller = self.cpu.reserve(now, self.per_block);
        busy_if(&self.tracer, controller.start, controller.end);
        let req = NfsRequest::Read {
            fh,
            offset: idx * BLOCK_BYTES as u64,
            len: BLOCK_BYTES as u32,
        };
        let (resp, complete_at) = self.nfs_round_trip(controller.end, nas, &req, 96);
        match resp {
            NfsResponse::Data(d) => {
                self.stats.blocks_read += 1;
                Ok((
                    d,
                    DiskOp {
                        controller,
                        complete_at,
                    },
                ))
            }
            NfsResponse::Error(e) => Err(e.into()),
            _ => unreachable!("read returns data or error"),
        }
    }

    /// [`SmartDiskModel::write_block`] extending a causal chain: records
    /// a `disk.write` hop once the block is durable on the NAS.
    ///
    /// # Errors
    ///
    /// As [`SmartDiskModel::write_block`]; a failed write terminates the
    /// chain with a `disk.write_failed` drop event.
    pub fn write_block_traced(
        &mut self,
        now: SimTime,
        nas: &mut NasServer,
        idx: u64,
        data: Bytes,
        ctx: TraceCtx,
    ) -> Result<(DiskOp, TraceCtx), DiskError> {
        let bytes = data.len() as u64;
        match self.write_block(now, nas, idx, data) {
            Ok(op) => {
                let ctx = hop_if(
                    &self.tracer,
                    ctx,
                    "disk.write",
                    "nas",
                    op.complete_at,
                    bytes,
                );
                Ok((op, ctx))
            }
            Err(e) => {
                if let Some(t) = &self.tracer {
                    t.drop_event(ctx, "disk.write_failed", "nas", now, bytes);
                }
                Err(e)
            }
        }
    }

    /// [`SmartDiskModel::read_block`] extending a causal chain: records a
    /// `disk.read` hop once the data is back from the NAS.
    ///
    /// # Errors
    ///
    /// As [`SmartDiskModel::read_block`]; a failed read terminates the
    /// chain with a `disk.read_failed` drop event.
    pub fn read_block_traced(
        &mut self,
        now: SimTime,
        nas: &mut NasServer,
        idx: u64,
        ctx: TraceCtx,
    ) -> Result<(Bytes, DiskOp, TraceCtx), DiskError> {
        match self.read_block(now, nas, idx) {
            Ok((data, op)) => {
                let bytes = data.len() as u64;
                let ctx = hop_if(&self.tracer, ctx, "disk.read", "nas", op.complete_at, bytes);
                Ok((data, op, ctx))
            }
            Err(e) => {
                if let Some(t) = &self.tracer {
                    t.drop_event(ctx, "disk.read_failed", "nas", now, 0);
                }
                Err(e)
            }
        }
    }

    /// Runs Offcode work on the controller CPU (e.g. the playback
    /// Streamer's pacing loop).
    pub fn offcode_work(&mut self, now: SimTime, work: Cycles) -> Reservation {
        let r = self.cpu.reserve(now, work);
        busy_if(&self.tracer, r.start, r.end);
        r
    }

    /// Size of the backing file, if open.
    pub fn backing_size(&self, nas: &NasServer) -> Option<u64> {
        self.backing.and_then(|fh| nas.file_size(fh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_sim::time::SimDuration;

    #[test]
    fn write_then_read_round_trips() {
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.open(&mut nas, "/dvr/s0");
        let payload = Bytes::from(vec![7u8; BLOCK_BYTES]);
        let w = disk
            .write_block(SimTime::ZERO, &mut nas, 3, payload.clone())
            .unwrap();
        let (data, r) = disk.read_block(w.complete_at, &mut nas, 3).unwrap();
        assert_eq!(data, payload);
        assert!(r.complete_at > w.complete_at);
        assert_eq!(disk.stats().blocks_written, 1);
        assert_eq!(disk.stats().blocks_read, 1);
        assert_eq!(disk.stats().nfs_round_trips, 2);
    }

    #[test]
    fn batched_write_is_one_round_trip_and_reads_back() {
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.open(&mut nas, "/dvr/batched");
        let blocks: Vec<Bytes> = (0..4u8)
            .map(|i| Bytes::from(vec![i; BLOCK_BYTES]))
            .collect();
        let op = disk
            .write_blocks(SimTime::ZERO, &mut nas, 2, &blocks)
            .unwrap();
        assert_eq!(disk.stats().blocks_written, 4);
        assert_eq!(
            disk.stats().nfs_round_trips,
            1,
            "single doorbell to the NAS"
        );
        for (i, want) in blocks.iter().enumerate() {
            let (data, _) = disk
                .read_block(op.complete_at, &mut nas, 2 + i as u64)
                .unwrap();
            assert_eq!(&data, want);
        }
        // A sequential disk pays one round trip per block for the same data.
        let mut seq = SmartDiskModel::new();
        seq.open(&mut nas, "/dvr/seq");
        let mut last = SimTime::ZERO;
        for (i, b) in blocks.iter().enumerate() {
            last = seq
                .write_block(last, &mut nas, i as u64, b.clone())
                .unwrap()
                .complete_at;
        }
        assert_eq!(seq.stats().nfs_round_trips, 4);
        assert!(op.complete_at < last, "batched write completes earlier");
        // Empty batch: no NAS traffic, completes immediately.
        let trips_before = disk.stats().nfs_round_trips;
        let at = last + SimDuration::from_millis(1);
        let op = disk.write_blocks(at, &mut nas, 0, &[]).unwrap();
        assert_eq!(disk.stats().nfs_round_trips, trips_before);
        assert_eq!(op.complete_at, at);
    }

    #[test]
    fn unopened_disk_rejects_io() {
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        assert_eq!(
            disk.write_block(SimTime::ZERO, &mut nas, 0, Bytes::new()),
            Err(DiskError::NotOpen)
        );
        assert!(matches!(
            disk.read_block(SimTime::ZERO, &mut nas, 0),
            Err(DiskError::NotOpen)
        ));
    }

    #[test]
    fn open_existing_finds_prior_recording() {
        let mut nas = NasServer::default();
        let mut writer = SmartDiskModel::new();
        writer.open(&mut nas, "/dvr/movie");
        writer
            .write_block(SimTime::ZERO, &mut nas, 0, Bytes::from_static(b"x"))
            .unwrap();
        let mut reader = SmartDiskModel::new();
        reader.open_existing(&mut nas, "/dvr/movie").unwrap();
        assert!(reader.backing_size(&nas).unwrap() > 0);
        assert!(matches!(
            reader.open_existing(&mut nas, "/dvr/nope"),
            Err(DiskError::Nfs(NfsError::NotFound))
        ));
    }

    #[test]
    fn controller_work_serializes_with_io() {
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.open(&mut nas, "/f");
        let r1 = disk.offcode_work(SimTime::ZERO, Cycles::new(60_000)); // 100us at 600MHz
        let op = disk
            .write_block(SimTime::ZERO, &mut nas, 0, Bytes::from_static(b"y"))
            .unwrap();
        assert!(op.controller.start >= r1.end);
    }

    #[test]
    fn traced_write_and_read_extend_the_chain() {
        let rec = Recorder::new();
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.set_recorder(rec.clone(), 2);
        disk.open(&mut nas, "/dvr/s0");
        let ctx = rec.trace_begin("channel.send", "", 0, SimTime::ZERO, BLOCK_BYTES as u64);
        let (op, ctx) = disk
            .write_block_traced(
                SimTime::ZERO,
                &mut nas,
                0,
                Bytes::from(vec![1u8; BLOCK_BYTES]),
                ctx,
            )
            .unwrap();
        let (_, _, _ctx) = disk
            .read_block_traced(op.complete_at, &mut nas, 0, ctx)
            .unwrap();
        let snap = rec.snapshot();
        let hops = snap.events_kind("hop");
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].name, "disk.write");
        assert_eq!(hops[1].name, "disk.read");
        assert_eq!(hops[1].parent, Some(hops[0].id));
        assert!(hops.iter().all(|h| h.device == 2));
    }

    #[test]
    fn failed_traced_write_drops_the_chain() {
        let rec = Recorder::new();
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new(); // never opened
        disk.set_recorder(rec.clone(), 2);
        let ctx = rec.trace_begin("channel.send", "", 0, SimTime::ZERO, 4);
        assert!(disk
            .write_block_traced(SimTime::ZERO, &mut nas, 0, Bytes::from_static(b"xyzw"), ctx)
            .is_err());
        let snap = rec.snapshot();
        let drops = snap.events_kind("drop");
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].name, "disk.write_failed");
    }

    #[test]
    fn crashed_controller_refuses_io_and_stall_delays_it() {
        use hydra_sim::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new(11)
            .with_event(
                SimTime::from_micros(10),
                2,
                FaultKind::Stall {
                    duration: SimDuration::from_micros(50),
                },
            )
            .with_event(SimTime::from_millis(1), 2, FaultKind::Crash);
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.install_faults(plan.injector(2));
        disk.open(&mut nas, "/dvr/faulty");
        let payload = Bytes::from(vec![1u8; BLOCK_BYTES]);
        // Inside the stall window: the controller absorbs the remaining
        // window before the block's own cycles.
        let op = disk
            .write_block(SimTime::from_micros(10), &mut nas, 0, payload.clone())
            .unwrap();
        assert!(op.controller.start >= SimTime::from_micros(60));
        assert_eq!(disk.stats().fault_stalls, 1);
        // After the crash: every operation is refused, forever.
        assert_eq!(
            disk.write_block(SimTime::from_millis(1), &mut nas, 1, payload),
            Err(DiskError::DeviceFailed)
        );
        assert!(matches!(
            disk.read_block(SimTime::from_secs(1), &mut nas, 0),
            Err(DiskError::DeviceFailed)
        ));
        assert!(matches!(
            disk.write_blocks(SimTime::from_secs(1), &mut nas, 0, &[]),
            Err(DiskError::DeviceFailed)
        ));
        assert!(disk.is_crashed(SimTime::from_millis(1)));
        assert_eq!(disk.stats().io_faulted, 3);
    }

    #[test]
    fn busy_time_covers_controller_and_nas_wire() {
        let rec = Recorder::new();
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.set_recorder(rec.clone(), 2);
        disk.open(&mut nas, "/dvr/busy");
        let w = disk
            .write_block(
                SimTime::ZERO,
                &mut nas,
                0,
                Bytes::from(vec![9u8; BLOCK_BYTES]),
            )
            .unwrap();
        let (_, r) = disk.read_block(w.complete_at, &mut nas, 0).unwrap();
        let work = disk.offcode_work(r.complete_at, Cycles::new(6_000));
        let controller_ns = (w.controller.end.as_nanos() - w.controller.start.as_nanos())
            + (r.controller.end.as_nanos() - r.controller.start.as_nanos())
            + (work.end.as_nanos() - work.start.as_nanos());
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(crate::trace::DEVICE_BUSY_NS, "device-2"),
            Some(controller_ns)
        );
        assert_eq!(
            snap.counter(LINK_BUSY_NS, "device-2"),
            Some(disk.nas_link.busy_nanos()),
            "wire occupancy mirrors the link's own accounting"
        );
        assert!(disk.nas_link.busy_nanos() > 0);
    }

    #[test]
    fn reads_of_sparse_blocks_return_short_data() {
        let mut nas = NasServer::default();
        let mut disk = SmartDiskModel::new();
        disk.open(&mut nas, "/f");
        let (data, _) = disk.read_block(SimTime::ZERO, &mut nas, 9).unwrap();
        assert!(data.is_empty());
    }
}
