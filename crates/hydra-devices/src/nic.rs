//! The programmable NIC model.
//!
//! Modelled on the testbed's 3Com 3C985B: an XScale-class processor next
//! to the MAC, local SRAM, a bus-master DMA engine, and interrupt
//! coalescing toward the host. The NIC can host Offcodes — that is the
//! whole point — and the model exposes both the *conventional* path
//! (frame → DMA to host ring → interrupt) and the *offloaded* path
//! (frame → local Offcode work → forward over the bus to a peer device or
//! the wire, host untouched).

use hydra_hw::bus::{Bus, BusXfer};
use hydra_hw::cpu::{Cpu, CpuSpec, Cycles, Reservation};
use hydra_hw::dma::{DmaDirection, DmaEngine};
use hydra_hw::irq::{CoalescePolicy, IrqCoalescer, IrqDecision};
use hydra_hw::mem::Region;
use hydra_hw::os::TimerModel;
use hydra_obs::{Recorder, TraceCtx};
use hydra_sim::fault::FaultInjector;
use hydra_sim::time::SimTime;

use crate::trace::{busy_if, hop_if, DeviceTracer};

/// Fixed MAC/firmware costs of the NIC datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicCosts {
    /// Firmware cycles per received frame (MAC handling, filtering).
    pub rx_frame: Cycles,
    /// Firmware cycles per transmitted frame.
    pub tx_frame: Cycles,
    /// Firmware cycles per payload byte touched by an Offcode on the NIC.
    pub offcode_per_byte: Cycles,
}

impl Default for NicCosts {
    fn default() -> Self {
        NicCosts {
            rx_frame: Cycles::new(600),
            tx_frame: Cycles::new(500),
            offcode_per_byte: Cycles::new(1),
        }
    }
}

/// Lifetime statistics of a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NicStats {
    /// Frames received from the wire.
    pub rx_frames: u64,
    /// Frames sent to the wire.
    pub tx_frames: u64,
    /// Bytes DMA'd to/from host memory.
    pub host_dma_bytes: u64,
    /// Bytes forwarded device-to-device over the bus.
    pub peer_bytes: u64,
    /// Frames lost to injected faults (crash or loss-burst).
    pub rx_faulted: u64,
    /// Injected firmware stalls absorbed by the receive path.
    pub fault_stalls: u64,
}

/// A programmable NIC.
///
/// # Examples
///
/// ```
/// use hydra_devices::nic::NicModel;
/// use hydra_sim::time::SimTime;
///
/// let mut nic = NicModel::new_3c985b(7);
/// let done = nic.rx_process(SimTime::ZERO, 1024);
/// assert!(done.end > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NicModel {
    /// The NIC's embedded processor.
    pub cpu: Cpu,
    /// Its DMA engine (bus master).
    pub dma: DmaEngine,
    /// Interrupt coalescing toward the host.
    pub coalescer: IrqCoalescer,
    /// Its firmware timer (microsecond-class, used by offloaded pacing
    /// loops — the source of the offloaded server's tiny jitter).
    pub timer: TimerModel,
    costs: NicCosts,
    stats: NicStats,
    rng: hydra_sim::rng::DetRng,
    tracer: Option<DeviceTracer>,
    faults: Option<FaultInjector>,
}

impl NicModel {
    /// The testbed NIC with default costs and typical coalescing.
    pub fn new_3c985b(seed: u64) -> Self {
        NicModel {
            cpu: Cpu::new(CpuSpec::xscale()),
            dma: DmaEngine::new(),
            coalescer: IrqCoalescer::new(CoalescePolicy::typical_nic()),
            timer: TimerModel::device_firmware(),
            costs: NicCosts::default(),
            stats: NicStats::default(),
            rng: hydra_sim::rng::DetRng::new(seed ^ 0x3c98_5b00),
            tracer: None,
            faults: None,
        }
    }

    /// Couples this NIC to a shared flight recorder under trace pid
    /// `device` — the `*_traced` methods then extend causal chains with
    /// firmware/DMA hop events.
    pub fn set_recorder(&mut self, recorder: Recorder, device: u64) {
        self.tracer = Some(DeviceTracer::new(recorder, device));
    }

    /// Installs a fault injector (the per-device view of a
    /// [`hydra_sim::fault::FaultPlan`]); the fault-aware entry points
    /// ([`NicModel::rx_frame`] and friends) then consult it.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Whether an injected crash has fail-stopped the NIC by `now`.
    pub fn is_crashed(&self, now: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed(now))
    }

    /// Descriptor-ring slots wedged by injected ring-exhaustion faults at
    /// `now` (zero without an injector). The channel layer subtracts this
    /// from the usable ring.
    pub fn wedged_ring_slots(&self, now: SimTime) -> usize {
        self.faults.as_ref().map_or(0, |f| f.wedged_slots(now))
    }

    /// The statistics.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Processes a received frame in firmware (MAC + filtering), returning
    /// the reservation on the NIC CPU.
    pub fn rx_process(&mut self, now: SimTime, bytes: usize) -> Reservation {
        self.stats.rx_frames += 1;
        let _ = bytes; // MAC cost is per frame; payload moves by DMA.
        let r = self.cpu.reserve(now, self.costs.rx_frame);
        busy_if(&self.tracer, r.start, r.end);
        r
    }

    /// Fault-aware receive: like [`NicModel::rx_process`] but consults the
    /// installed [`FaultInjector`] first. Returns `None` when the frame is
    /// lost — the NIC has crashed or a loss-burst is eating frames. An
    /// active stall window busies the firmware for the remaining window
    /// before the frame's own cycles are charged.
    pub fn rx_frame(&mut self, now: SimTime, bytes: usize) -> Option<Reservation> {
        if let Some(f) = &mut self.faults {
            if f.crashed(now) || f.drop_frame(now) {
                self.stats.rx_faulted += 1;
                return None;
            }
            let stall = f.stall_penalty(now);
            if !stall.is_zero() {
                self.stats.fault_stalls += 1;
                let wasted = self.cpu.spec().cycles_in(stall);
                let r = self.cpu.reserve(now, wasted);
                busy_if(&self.tracer, r.start, r.end);
            }
        }
        Some(self.rx_process(now, bytes))
    }

    /// Processes a frame for transmission, returning the NIC CPU
    /// reservation (the wire time is the link's business).
    pub fn tx_process(&mut self, now: SimTime, bytes: usize) -> Reservation {
        self.stats.tx_frames += 1;
        let _ = bytes;
        let r = self.cpu.reserve(now, self.costs.tx_frame);
        busy_if(&self.tracer, r.start, r.end);
        r
    }

    /// DMAs a payload into host memory (the conventional receive path),
    /// then reports the completion to the coalescer. Returns the bus
    /// transfer and the interrupt decision.
    pub fn dma_to_host(
        &mut self,
        now: SimTime,
        bus: &mut Bus,
        region: Region,
    ) -> (BusXfer, IrqDecision) {
        let xfer = self.dma.transfer(bus, now, region, DmaDirection::ToHost);
        self.stats.host_dma_bytes += region.len() as u64;
        let decision = self.coalescer.on_completion(xfer.end);
        (xfer, decision)
    }

    /// DMAs a batch of payloads into host memory as one vectored
    /// scatter-gather transfer: a single doorbell, one interrupt-coalescer
    /// completion for the whole batch instead of one per region.
    ///
    /// Returns `None` for an empty batch.
    pub fn dma_to_host_batch(
        &mut self,
        now: SimTime,
        bus: &mut Bus,
        regions: &[Region],
    ) -> Option<(BusXfer, IrqDecision)> {
        let xfer = self
            .dma
            .scatter_gather(bus, now, regions, DmaDirection::ToHost)?;
        self.stats.host_dma_bytes += xfer.bytes as u64;
        let decision = self.coalescer.on_completion(xfer.end);
        Some((xfer, decision))
    }

    /// DMAs a payload from host memory (the conventional transmit path).
    pub fn dma_from_host(&mut self, now: SimTime, bus: &mut Bus, region: Region) -> BusXfer {
        let xfer = self.dma.transfer(bus, now, region, DmaDirection::FromHost);
        self.stats.host_dma_bytes += region.len() as u64;
        xfer
    }

    /// Forwards a payload directly to a peer device over the bus (the
    /// offloaded path: NIC → GPU / NIC → disk without host involvement).
    /// `hops` is [`Bus::peer_to_peer_hops`] of the interconnect.
    pub fn forward_to_peer(&mut self, now: SimTime, bus: &mut Bus, bytes: usize) -> BusXfer {
        let hops = bus.peer_to_peer_hops();
        let mut xfer = bus.transfer(now, bytes);
        for _ in 1..hops {
            xfer = bus.transfer(xfer.end, bytes);
        }
        self.stats.peer_bytes += bytes as u64;
        xfer
    }

    /// Runs Offcode work over a payload on the NIC CPU (e.g. the Streamer
    /// extracting MPEG payloads): per-byte firmware cost plus declared
    /// extra cycles.
    pub fn offcode_work(&mut self, now: SimTime, bytes: usize, extra: Cycles) -> Reservation {
        let work = self.costs.offcode_per_byte * bytes as u64 + extra;
        let r = self.cpu.reserve(now, work);
        busy_if(&self.tracer, r.start, r.end);
        r
    }

    /// The firmware timer's actual fire time for a target instant — the
    /// offloaded server's pacing source.
    pub fn timer_fire(&mut self, target: SimTime) -> SimTime {
        self.timer
            .wakeup(target, &mut self.rng)
            .max(self.cpu.busy_until())
    }

    /// [`NicModel::rx_process`] extending a causal chain: records a
    /// `nic.rx` hop at the reservation's end (when firmware is done with
    /// the frame). Without a recorder installed the context passes
    /// through unchanged.
    pub fn rx_process_traced(
        &mut self,
        now: SimTime,
        bytes: usize,
        ctx: TraceCtx,
    ) -> (Reservation, TraceCtx) {
        let r = self.rx_process(now, bytes);
        let ctx = hop_if(&self.tracer, ctx, "nic.rx", "firmware", r.end, bytes as u64);
        (r, ctx)
    }

    /// [`NicModel::forward_to_peer`] extending a causal chain: records a
    /// `nic.forward` hop when the last bus transaction lands at the peer.
    pub fn forward_to_peer_traced(
        &mut self,
        now: SimTime,
        bus: &mut Bus,
        bytes: usize,
        ctx: TraceCtx,
    ) -> (BusXfer, TraceCtx) {
        let xfer = self.forward_to_peer(now, bus, bytes);
        let ctx = hop_if(
            &self.tracer,
            ctx,
            "nic.forward",
            "peer",
            xfer.end,
            bytes as u64,
        );
        (xfer, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_hw::bus::BusSpec;
    use hydra_hw::mem::AddressSpace;

    #[test]
    fn rx_tx_charge_nic_cpu() {
        let mut nic = NicModel::new_3c985b(1);
        let r1 = nic.rx_process(SimTime::ZERO, 1024);
        let r2 = nic.tx_process(SimTime::ZERO, 1024);
        assert!(r2.start >= r1.end, "NIC firmware serializes");
        assert_eq!(nic.stats().rx_frames, 1);
        assert_eq!(nic.stats().tx_frames, 1);
    }

    #[test]
    fn dma_to_host_raises_coalesced_interrupts() {
        let mut nic = NicModel::new_3c985b(2);
        let mut bus = Bus::new(BusSpec::pci64());
        let mut space = AddressSpace::new();
        let buf = space.alloc("pkt", 1024);
        let mut fires = 0;
        for _ in 0..16 {
            let (_, d) = nic.dma_to_host(SimTime::ZERO, &mut bus, buf);
            if matches!(d, IrqDecision::Fire { .. }) {
                fires += 1;
            }
        }
        // Default policy: 8 frames per interrupt.
        assert_eq!(fires, 2);
        assert_eq!(nic.stats().host_dma_bytes, 16 * 1024);
    }

    #[test]
    fn batched_dma_coalesces_completions() {
        let mut batched = NicModel::new_3c985b(2);
        let mut single = NicModel::new_3c985b(2);
        let mut bus_b = Bus::new(BusSpec::pci64());
        let mut bus_s = Bus::new(BusSpec::pci64());
        let mut space = AddressSpace::new();
        let bufs: Vec<_> = (0..8)
            .map(|i| space.alloc(&format!("pkt{i}"), 1024))
            .collect();
        let (xfer, _) = batched
            .dma_to_host_batch(SimTime::ZERO, &mut bus_b, &bufs)
            .unwrap();
        assert_eq!(xfer.bytes, 8 * 1024);
        assert_eq!(batched.stats().host_dma_bytes, 8 * 1024);
        // One vectored completion vs. eight: the coalescer sees 1 event,
        // so the default fire-every-8 policy does not fire.
        assert_eq!(batched.coalescer.completions(), 1);
        for buf in &bufs {
            single.dma_to_host(SimTime::ZERO, &mut bus_s, *buf);
        }
        assert_eq!(single.coalescer.completions(), 8);
        assert!(batched
            .dma_to_host_batch(SimTime::ZERO, &mut bus_b, &[])
            .is_none());
    }

    #[test]
    fn peer_forwarding_counts_hops() {
        let mut nic = NicModel::new_3c985b(3);
        let mut pci = Bus::new(BusSpec::pci64());
        let x_pci = nic.forward_to_peer(SimTime::ZERO, &mut pci, 1024);
        let mut nic2 = NicModel::new_3c985b(3);
        let mut pcie = Bus::new(BusSpec::pcie_x4());
        let x_pcie = nic2.forward_to_peer(SimTime::ZERO, &mut pcie, 1024);
        assert_eq!(pci.transactions(), 2, "PCI needs two hops");
        assert_eq!(pcie.transactions(), 1, "PCIe peer-to-peer is one hop");
        assert!(x_pci.end > x_pcie.end);
    }

    #[test]
    fn offcode_work_scales_with_bytes() {
        let mut nic = NicModel::new_3c985b(4);
        let r_small = nic.offcode_work(SimTime::ZERO, 100, Cycles::ZERO);
        let d_small = r_small.end.duration_since(r_small.start);
        let r_big = nic.offcode_work(r_small.end, 10_000, Cycles::ZERO);
        let d_big = r_big.end.duration_since(r_big.start);
        assert!(d_big > d_small * 50);
    }

    #[test]
    fn traced_rx_and_forward_extend_the_chain() {
        let rec = Recorder::new();
        let mut nic = NicModel::new_3c985b(6);
        nic.set_recorder(rec.clone(), 1);
        let mut bus = Bus::new(BusSpec::pcie_x4());
        let ctx = rec.trace_begin("wire.frame", "", 0, SimTime::ZERO, 1024);
        let (r, ctx) = nic.rx_process_traced(SimTime::ZERO, 1024, ctx);
        let (_, _ctx) = nic.forward_to_peer_traced(r.end, &mut bus, 1024, ctx);
        let snap = rec.snapshot();
        let hops = snap.events_kind("hop");
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].name, "nic.rx");
        assert_eq!(hops[1].name, "nic.forward");
        assert_eq!(hops[1].parent, Some(hops[0].id), "chain is connected");
        assert!(hops.iter().all(|h| h.device == 1));
    }

    #[test]
    fn untraced_nic_records_nothing() {
        let rec = Recorder::new();
        let mut nic = NicModel::new_3c985b(7);
        let ctx = rec.trace_begin("wire.frame", "", 0, SimTime::ZERO, 64);
        let (_, out) = nic.rx_process_traced(SimTime::ZERO, 64, ctx);
        assert_eq!(out, ctx, "no tracer: context passes through");
        assert_eq!(rec.snapshot().events.len(), 1);
    }

    #[test]
    fn firmware_busy_time_sums_rx_tx_offcode() {
        let rec = Recorder::new();
        let mut nic = NicModel::new_3c985b(11);
        nic.set_recorder(rec.clone(), 1);
        let mut busy = 0;
        for r in [
            nic.rx_process(SimTime::ZERO, 1024),
            nic.tx_process(SimTime::ZERO, 1024),
            nic.offcode_work(SimTime::ZERO, 4096, Cycles::new(1_000)),
        ] {
            busy += r.end.as_nanos() - r.start.as_nanos();
        }
        assert_eq!(
            rec.snapshot()
                .counter(crate::trace::DEVICE_BUSY_NS, "device-1"),
            Some(busy)
        );
    }

    #[test]
    fn fault_injector_drops_and_stalls_rx() {
        use hydra_sim::fault::{FaultKind, FaultPlan};
        use hydra_sim::time::SimDuration;
        let plan = FaultPlan::new(9)
            .with_event(
                SimTime::from_micros(10),
                1,
                FaultKind::LossBurst { frames: 2 },
            )
            .with_event(
                SimTime::from_micros(50),
                1,
                FaultKind::Stall {
                    duration: SimDuration::from_micros(40),
                },
            )
            .with_event(SimTime::from_millis(1), 1, FaultKind::Crash);
        let mut nic = NicModel::new_3c985b(8);
        nic.install_faults(plan.injector(1));
        // Before any fault: frames flow.
        assert!(nic.rx_frame(SimTime::ZERO, 512).is_some());
        // The burst eats exactly two frames.
        assert!(nic.rx_frame(SimTime::from_micros(10), 512).is_none());
        assert!(nic.rx_frame(SimTime::from_micros(10), 512).is_none());
        let after_burst = nic.rx_frame(SimTime::from_micros(20), 512);
        assert!(after_burst.is_some());
        assert_eq!(nic.stats().rx_faulted, 2);
        // Inside the stall window firmware pays the remaining window
        // before the frame's own cycles.
        let stalled = nic.rx_frame(SimTime::from_micros(50), 512).unwrap();
        assert!(stalled.end >= SimTime::from_micros(90));
        assert_eq!(nic.stats().fault_stalls, 1);
        // After the crash nothing flows, ever.
        assert!(nic.is_crashed(SimTime::from_millis(1)));
        assert!(nic.rx_frame(SimTime::from_millis(1), 512).is_none());
        assert!(nic.rx_frame(SimTime::from_secs(10), 512).is_none());
    }

    #[test]
    fn faultless_nic_behaves_as_before() {
        let mut plain = NicModel::new_3c985b(1);
        let mut faulty = NicModel::new_3c985b(1);
        faulty.install_faults(FaultInjector::inert(1));
        let a = plain.rx_frame(SimTime::ZERO, 1024).unwrap();
        let b = faulty.rx_frame(SimTime::ZERO, 1024).unwrap();
        assert_eq!(a.end, b.end);
        assert_eq!(plain.wedged_ring_slots(SimTime::ZERO), 0);
    }

    #[test]
    fn firmware_timer_is_tight() {
        let mut nic = NicModel::new_3c985b(5);
        let target = SimTime::from_millis(5);
        let fire = nic.timer_fire(target);
        assert!(fire >= target);
        assert!(fire.duration_since(target) < hydra_sim::time::SimDuration::from_micros(200));
    }
}
