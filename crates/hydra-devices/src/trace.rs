//! Device-side causal tracing.
//!
//! A [`DeviceTracer`] couples a shared [`Recorder`] with the device's
//! trace "pid", so device models can extend the causal chain a channel
//! message carries ([`hydra_obs::TraceCtx`]) with *hop* events for their
//! own datapath stages: NIC firmware work, DMA descriptor-ring
//! transfers, GPU decode, disk block I/O. The tracer is optional on
//! every model — untraced call sites behave exactly as before.
//!
//! The tracer resolves its device label and its [`DEVICE_BUSY_NS`]
//! counter handle once, at construction, so the busy-time charge every
//! device operation makes is a single recorder slot write.

use hydra_obs::{CounterId, Recorder, TraceCtx};
use hydra_sim::time::{SimDuration, SimTime};

/// The canonical busy-time counter every device model feeds: windowed
/// deltas of `device.busy_ns{<device label>}` divided by the window
/// width are the per-device utilization timeline.
pub const DEVICE_BUSY_NS: &str = "device.busy_ns";

/// Wire-occupancy counter for links owned by a device (e.g. the smart
/// disk's private NAS path): serialization nanoseconds clocked onto the
/// wire, labeled with the owning device's label.
pub const LINK_BUSY_NS: &str = "link.busy_ns";

/// A device model's handle into the shared flight recorder.
#[derive(Debug, Clone)]
pub struct DeviceTracer {
    recorder: Recorder,
    pid: u64,
    label: String,
    busy: CounterId,
}

impl DeviceTracer {
    /// Couples a recorder with this device's trace pid (its
    /// `DeviceId.0`; 0 is the host).
    pub fn new(recorder: Recorder, pid: u64) -> Self {
        let label = if pid == 0 {
            "host".to_owned()
        } else {
            format!("device-{pid}")
        };
        let busy = recorder.counter_id(DEVICE_BUSY_NS, &label);
        DeviceTracer {
            recorder,
            pid,
            label,
            busy,
        }
    }

    /// The device's trace pid.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Charges `dur` of busy time to this device's
    /// [`DEVICE_BUSY_NS`] utilization counter.
    pub fn busy(&self, dur: SimDuration) {
        self.recorder.add(self.busy, dur.as_nanos());
    }

    /// Adds to a counter labeled with this device's label.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.recorder.counter_add(name, &self.label, delta);
    }

    /// Sets an instantaneous level track (queue depth, ring occupancy)
    /// labeled with this device's label.
    pub fn level_set(&self, name: &'static str, value: u64) {
        self.recorder.level_set(name, &self.label, value);
    }

    /// Records a datapath *hop* on this device, returning the advanced
    /// context.
    pub fn hop(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: &str,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.recorder
            .trace_hop(ctx, name, label, self.pid, at, bytes)
    }

    /// Terminates a chain with a *drop* event on this device (payload
    /// lost inside the device datapath).
    pub fn drop_event(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: &str,
        at: SimTime,
        bytes: u64,
    ) {
        self.recorder
            .trace_drop(ctx, name, label, self.pid, at, bytes);
    }
}

/// Charges the busy span `start..end` to an optional tracer's
/// [`DEVICE_BUSY_NS`] counter: a `None` tracer is a no-op, so models can
/// account utilization unconditionally.
pub fn busy_if(tracer: &Option<DeviceTracer>, start: SimTime, end: SimTime) {
    if let Some(t) = tracer {
        t.busy(end.saturating_duration_since(start));
    }
}

/// Advances `ctx` through an optional tracer: a `None` tracer is a
/// no-op, so models can thread contexts unconditionally.
pub fn hop_if(
    tracer: &Option<DeviceTracer>,
    ctx: TraceCtx,
    name: &'static str,
    label: &str,
    at: SimTime,
    bytes: u64,
) -> TraceCtx {
    match tracer {
        Some(t) => t.hop(ctx, name, label, at, bytes),
        None => ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_if_without_tracer_is_identity() {
        let rec = Recorder::new();
        let ctx = rec.trace_begin("send", "", 0, SimTime::ZERO, 1);
        let out = hop_if(&None, ctx, "hop", "", SimTime::ZERO, 1);
        assert_eq!(out, ctx);
        assert_eq!(rec.snapshot().events.len(), 1);
    }

    #[test]
    fn hop_records_on_device_pid() {
        let rec = Recorder::new();
        let tracer = DeviceTracer::new(rec.clone(), 3);
        let ctx = rec.trace_begin("send", "", 0, SimTime::ZERO, 8);
        let out = tracer.hop(ctx, "nic.rx", "wire", SimTime::from_micros(1), 8);
        assert_ne!(out.parent, ctx.parent);
        let snap = rec.snapshot();
        let hops = snap.events_kind("hop");
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].device, 3);
        assert_eq!(hops[0].label, "wire");
    }

    #[test]
    fn busy_time_lands_on_the_device_label() {
        let rec = Recorder::new();
        let tracer = DeviceTracer::new(rec.clone(), 3);
        tracer.busy(SimDuration::from_micros(5));
        busy_if(
            &Some(tracer.clone()),
            SimTime::from_micros(10),
            SimTime::from_micros(12),
        );
        busy_if(&None, SimTime::ZERO, SimTime::from_micros(99));
        tracer.level_set("device.ring_depth", 7);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(DEVICE_BUSY_NS, "device-3"), Some(7_000));
        rec.sample_window(SimTime::from_micros(20));
        let snap = rec.snapshot();
        assert_eq!(
            snap.windows[0].level("device.ring_depth", "device-3"),
            Some(7)
        );
    }

    #[test]
    fn drop_event_terminates_chain() {
        let rec = Recorder::new();
        let tracer = DeviceTracer::new(rec.clone(), 2);
        let ctx = rec.trace_begin("send", "", 0, SimTime::ZERO, 8);
        tracer.drop_event(ctx, "disk.lost", "", SimTime::from_micros(2), 8);
        let snap = rec.snapshot();
        assert_eq!(snap.events_kind("drop").len(), 1);
        assert_eq!(snap.events_kind("drop")[0].device, 2);
    }
}
