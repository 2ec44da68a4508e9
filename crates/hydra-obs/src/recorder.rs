//! The [`Recorder`]: a clonable handle to a metrics registry.
//!
//! Every instrumentation point in the runtime holds a clone of one
//! `Recorder`; all clones feed the same registry. The handle is cheap to
//! clone (an `Rc`) and interior-mutable, so instrumented code does not
//! need `&mut` plumbing.
//!
//! # Interned slots
//!
//! Each metric family — counters, high-water gauges, level tracks,
//! histograms — stores its values in a dense `Vec` of slots, each with a
//! *touched* bit, behind a sorted `(name, label) → slot` index. Hot paths
//! resolve a key once into a typed handle ([`Recorder::counter_id`],
//! [`Recorder::gauge_id`], [`Recorder::level_id`],
//! [`Recorder::hist_id`]) and from then on update through it: a slot
//! write, with no lookup and no allocation. The string API
//! ([`Recorder::counter_add`] and friends) is the same write behind an
//! index lookup, so both forms land in one slot. A key is visible — in
//! snapshots and telemetry windows — exactly when its slot has been
//! updated since the last [`Recorder::reset`] (a zero-delta update
//! counts), and renderings walk the sorted index, so they come out in
//! `(name, label)` order whatever order the slots were created in.
//! Trace-event labels are interned the same way
//! ([`Recorder::trace_label`]).
//!
//! # Single-threaded by design
//!
//! The registry sits behind an `Rc<RefCell<…>>`, not a lock: one
//! simulation world runs on one thread, and its recorder is never shared
//! across threads (`Recorder` is not `Send`).
//! A sharded simulation would give each shard its own registry and merge
//! the per-shard snapshots, rather than contend on one lock.
//!
//! # Determinism
//!
//! Nothing in here reads the wall clock. Span timestamps are the
//! simulation instants the caller passes in, span "durations" are modeled
//! work units supplied by the caller, and all iteration for snapshots runs
//! over sorted indexes so two identical executions render byte-identical
//! reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hydra_sim::time::SimTime;

use crate::histogram::Histogram;
use crate::snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SpanSample, TraceEventSample,
};
use crate::timeline::{WindowLevelSample, WindowSample, WindowTrackSample};
use crate::trace::{FlightRecorder, IntoTraceLabel, TraceCtx, TraceLabel};

/// Identifier of a recorded span, usable as a parent for child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Handle to one counter slot, from [`Recorder::counter_id`].
///
/// Handles index the registry of the recorder that minted them and stay
/// valid across [`Recorder::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Handle to one high-water gauge slot, from [`Recorder::gauge_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(usize);

/// Handle to one level-track slot, from [`Recorder::level_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelId(usize);

/// Handle to one histogram slot, from [`Recorder::hist_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(usize);

/// One completed span: a named step with a sim-time stamp and a modeled
/// amount of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Sequence number (record order).
    pub seq: u64,
    /// The parent span, for per-item child spans.
    pub parent: Option<SpanId>,
    /// Static span name, e.g. `"deploy.solve"`.
    pub name: &'static str,
    /// Instance label, e.g. a bind name or GUID.
    pub label: String,
    /// Simulation instant the step ran at.
    pub at: SimTime,
    /// Modeled work units attributed to the step. Simulation time does
    /// not advance inside the deployment pipeline, so spans carry work
    /// units instead of elapsed-time durations.
    pub work_units: u64,
}

/// One metric family: dense value slots, their touched bits, and the
/// sorted `(name, label) → slot` index renderings walk.
#[derive(Debug, Default)]
struct Family<T> {
    index: BTreeMap<&'static str, BTreeMap<Box<str>, usize>>,
    slots: Vec<T>,
    touched: Vec<bool>,
}

impl<T: Default> Family<T> {
    /// The slot of `name{label}`, created untouched on first sight.
    fn resolve(&mut self, name: &'static str, label: &str) -> usize {
        let labels = self.index.entry(name).or_default();
        if let Some(&slot) = labels.get(label) {
            return slot;
        }
        let slot = self.slots.len();
        labels.insert(label.into(), slot);
        self.slots.push(T::default());
        self.touched.push(false);
        slot
    }

    /// Marks `slot` touched and hands out its value for the update.
    fn touch(&mut self, slot: usize) -> &mut T {
        self.touched[slot] = true;
        &mut self.slots[slot]
    }

    /// [`Family::resolve`] then [`Family::touch`]: the string API.
    fn entry(&mut self, name: &'static str, label: &str) -> &mut T {
        let slot = self.resolve(name, label);
        self.touch(slot)
    }

    /// Touched slots as `(name, label, slot)`, in `(name, label)` order.
    fn touched(&self) -> impl Iterator<Item = (&'static str, &str, usize)> + '_ {
        self.index
            .iter()
            .flat_map(|(&name, labels)| labels.iter().map(move |(l, &slot)| (name, &**l, slot)))
            .filter(|&(_, _, slot)| self.touched[slot])
    }

    /// Zeroes every slot and clears its touched bit; slots (and so the
    /// handles pointing at them) survive.
    fn reset(&mut self) {
        self.slots.fill_with(T::default);
        self.touched.fill(false);
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: Family<u64>,
    gauges: Family<u64>,
    levels: Family<u64>,
    histograms: Family<Histogram>,
    spans: Vec<SpanRecord>,
    flight: FlightRecorder,
    windows: Vec<WindowSample>,
    /// Counter values at the previous window's closing edge, by slot.
    window_base: Vec<u64>,
    /// The previous window's closing edge in nanoseconds: where the next
    /// window starts. Survives [`Recorder::reset`].
    window_edge: u64,
}

/// A clonable handle to a shared metrics registry.
///
/// # Examples
///
/// ```
/// use hydra_obs::Recorder;
/// use hydra_sim::time::SimTime;
///
/// let rec = Recorder::new();
/// rec.counter_add("demo.events", "alpha", 2);
/// let events = rec.counter_id("demo.events", "alpha");
/// rec.add(events, 1);
/// rec.observe("demo.size", "alpha", 100);
/// let root = rec.span("demo.step", "run-1", SimTime::ZERO, 10);
/// rec.child_span(root, "demo.substep", "item", SimTime::ZERO, 3);
/// let snap = rec.snapshot();
/// assert_eq!(snap.counter("demo.events", "alpha"), Some(3));
/// assert_eq!(snap.spans.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Rc<RefCell<Registry>>,
}

impl Recorder {
    /// A fresh recorder with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Resolves the counter `name{label}` to a handle for
    /// [`Recorder::add`]. Resolving alone does not make the counter
    /// visible; the first update does.
    pub fn counter_id(&self, name: &'static str, label: &str) -> CounterId {
        CounterId(self.with(|r| r.counters.resolve(name, label)))
    }

    /// Resolves the high-water gauge `name{label}` to a handle for
    /// [`Recorder::raise`].
    pub fn gauge_id(&self, name: &'static str, label: &str) -> GaugeId {
        GaugeId(self.with(|r| r.gauges.resolve(name, label)))
    }

    /// Resolves the level track `name{label}` to a handle for
    /// [`Recorder::set`].
    pub fn level_id(&self, name: &'static str, label: &str) -> LevelId {
        LevelId(self.with(|r| r.levels.resolve(name, label)))
    }

    /// Resolves the histogram `name{label}` to a handle for
    /// [`Recorder::record`].
    pub fn hist_id(&self, name: &'static str, label: &str) -> HistId {
        HistId(self.with(|r| r.histograms.resolve(name, label)))
    }

    /// Interns a trace-event label for the `trace_*` calls.
    pub fn trace_label(&self, label: &str) -> TraceLabel {
        self.with(|r| r.flight.intern(label))
    }

    /// Adds `delta` to the counter behind `id`.
    pub fn add(&self, id: CounterId, delta: u64) {
        self.with(|r| *r.counters.touch(id.0) += delta);
    }

    /// Raises the high-water gauge behind `id` to `value` if larger.
    pub fn raise(&self, id: GaugeId, value: u64) {
        self.with(|r| {
            let g = r.gauges.touch(id.0);
            *g = (*g).max(value);
        });
    }

    /// Sets the level track behind `id`.
    pub fn set(&self, id: LevelId, value: u64) {
        self.with(|r| *r.levels.touch(id.0) = value);
    }

    /// Records one observation in the histogram behind `id`.
    pub fn record(&self, id: HistId, value: u64) {
        self.with(|r| r.histograms.touch(id.0).record(value));
    }

    /// Adds `delta` to the counter `name{label}`.
    pub fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| *r.counters.entry(name, label) += delta);
    }

    /// Increments the counter `name{label}` by one.
    pub fn counter_incr(&self, name: &'static str, label: &str) {
        self.counter_add(name, label, 1);
    }

    /// Raises the high-water gauge `name{label}` to `value` if larger.
    pub fn gauge_max(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| {
            let g = r.gauges.entry(name, label);
            *g = (*g).max(value);
        });
    }

    /// Sets the instantaneous level track `name{label}` (queue depth,
    /// ring occupancy). Unlike [`Recorder::gauge_max`], levels move both
    /// ways; the [`Sampler`](crate::Sampler) reads them at each window's
    /// closing edge.
    pub fn level_set(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| *r.levels.entry(name, label) = value);
    }

    /// Raises the level track `name{label}` by `delta`.
    pub fn level_add(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| *r.levels.entry(name, label) += delta);
    }

    /// Lowers the level track `name{label}` by `delta`, saturating at 0.
    pub fn level_sub(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| {
            let l = r.levels.entry(name, label);
            *l = l.saturating_sub(delta);
        });
    }

    /// Records one observation in the histogram `name{label}`.
    pub fn observe(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| r.histograms.entry(name, label).record(value));
    }

    /// Closes one telemetry window at sim instant `at`: records every
    /// counter's delta since the previous window plus the current value
    /// of every level track. The window opens where the previous one
    /// closed, even across a [`Recorder::reset`]. Normally called by an
    /// installed [`Sampler`](crate::Sampler) tick, not by hand.
    pub fn sample_window(&self, at: SimTime) {
        self.with(|r| {
            let base = &r.window_base;
            let counters = r
                .counters
                .touched()
                .filter_map(|(name, label, slot)| {
                    let total = r.counters.slots[slot];
                    let delta = total - base.get(slot).copied().unwrap_or(0);
                    (delta != 0).then(|| WindowTrackSample {
                        name,
                        label: label.to_owned(),
                        delta,
                        total,
                    })
                })
                .collect();
            let levels = r
                .levels
                .touched()
                .map(|(name, label, slot)| WindowLevelSample {
                    name,
                    label: label.to_owned(),
                    value: r.levels.slots[slot],
                })
                .collect();
            r.window_base.clone_from(&r.counters.slots);
            let start_nanos = std::mem::replace(&mut r.window_edge, at.as_nanos());
            r.windows.push(WindowSample {
                index: r.windows.len() as u64,
                start_nanos,
                end_nanos: at.as_nanos(),
                counters,
                levels,
            });
        });
    }

    /// Records a root span.
    pub fn span(
        &self,
        name: &'static str,
        label: impl Into<String>,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.record_span(None, name, label.into(), at, work_units)
    }

    /// Records a span nested under `parent`.
    pub fn child_span(
        &self,
        parent: SpanId,
        name: &'static str,
        label: impl Into<String>,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.record_span(Some(parent), name, label.into(), at, work_units)
    }

    fn record_span(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        label: String,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.with(|r| {
            let seq = r.spans.len() as u64;
            r.spans.push(SpanRecord {
                seq,
                parent,
                name,
                label,
                at,
                work_units,
            });
            SpanId(seq)
        })
    }

    /// Adds `extra` work units to an already-recorded span (for stages
    /// whose cost is only known after their children ran).
    pub fn add_span_work(&self, id: SpanId, extra: u64) {
        self.with(|r| {
            if let Some(s) = r.spans.get_mut(id.0 as usize) {
                s.work_units += extra;
            }
        });
    }

    /// Resizes the flight-recorder ring (events evicted by a shrink count
    /// as dropped, so the loss stays visible).
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.with(|r| r.flight.set_capacity(capacity));
    }

    /// The flight recorder's configured capacity.
    pub fn flight_capacity(&self) -> usize {
        self.with(|r| r.flight.capacity())
    }

    /// Starts a new causal trace with a root *send* event, returning the
    /// [`TraceCtx`] to stamp onto the in-flight message. `label` is a
    /// `&str` or a [`TraceLabel`] from [`Recorder::trace_label`], as in
    /// every `trace_*` call.
    pub fn trace_begin(
        &self,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| r.flight.begin(name, label, device, at, bytes))
    }

    /// Records an intermediate *hop* (provider queue, DMA descriptor ring,
    /// device firmware step) continuing `ctx`; returns the advanced
    /// context.
    pub fn trace_hop(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| r.flight.hop(ctx, name, label, device, at, bytes))
    }

    /// Closes `ctx` with a *recv* event; returns the context positioned at
    /// the recv so post-receive device work can keep chaining.
    pub fn trace_recv(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| r.flight.recv(ctx, name, label, device, at, bytes))
    }

    /// Closes `ctx` with a *drop* event (message lost or rejected).
    pub fn trace_drop(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) {
        self.with(|r| r.flight.drop_event(ctx, name, label, device, at, bytes));
    }

    /// Renders an ordering-stable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|r| MetricsSnapshot {
            counters: r
                .counters
                .touched()
                .map(|(name, label, slot)| CounterSample {
                    name,
                    label: label.to_owned(),
                    value: r.counters.slots[slot],
                })
                .collect(),
            gauges: r
                .gauges
                .touched()
                .map(|(name, label, slot)| GaugeSample {
                    name,
                    label: label.to_owned(),
                    value: r.gauges.slots[slot],
                })
                .collect(),
            histograms: r
                .histograms
                .touched()
                .map(|(name, label, slot)| {
                    let h = &r.histograms.slots[slot];
                    HistogramSample {
                        name,
                        label: label.to_owned(),
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        buckets: h.nonzero_buckets(),
                    }
                })
                .collect(),
            spans: r
                .spans
                .iter()
                .map(|s| SpanSample {
                    seq: s.seq,
                    parent: s.parent.map(|p| p.0),
                    name: s.name,
                    label: s.label.clone(),
                    at_nanos: s.at.as_nanos(),
                    work_units: s.work_units,
                })
                .collect(),
            events: r
                .flight
                .events()
                .map(|e| TraceEventSample {
                    id: e.id.0,
                    trace: e.trace.0,
                    parent: e.parent.map(|p| p.0),
                    kind: e.kind.as_str(),
                    name: e.name,
                    label: r.flight.label(e.label).to_owned(),
                    device: e.device,
                    at_nanos: e.at.as_nanos(),
                    bytes: e.bytes,
                })
                .collect(),
            events_dropped: r.flight.dropped(),
            windows: r.windows.clone(),
            channels: Vec::new(),
        })
    }

    /// Clears everything recorded (e.g. between benchmark iterations):
    /// every metric reads as never updated again, and spans, trace events
    /// and windows are gone. Handles, interned trace labels, the flight
    /// recorder's configured capacity and the next window's start edge
    /// survive the reset.
    pub fn reset(&self) {
        self.with(|r| {
            r.counters.reset();
            r.gauges.reset();
            r.levels.reset();
            r.histograms.reset();
            r.spans.clear();
            r.flight.reset();
            r.windows.clear();
            r.window_base.fill(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_registry() {
        let a = Recorder::new();
        let b = a.clone();
        a.counter_incr("c", "x");
        b.counter_incr("c", "x");
        assert_eq!(a.snapshot().counter("c", "x"), Some(2));
    }

    #[test]
    fn gauge_keeps_high_water() {
        let r = Recorder::new();
        r.gauge_max("g", "", 5);
        r.gauge_max("g", "", 3);
        r.gauge_max("g", "", 9);
        assert_eq!(r.snapshot().gauge("g", ""), Some(9));
    }

    #[test]
    fn spans_nest_and_accumulate_work() {
        let r = Recorder::new();
        let root = r.span("root", "", SimTime::ZERO, 0);
        let child = r.child_span(root, "child", "i0", SimTime::from_micros(5), 7);
        r.add_span_work(root, 7);
        let snap = r.snapshot();
        assert_eq!(snap.spans[0].work_units, 7);
        assert_eq!(snap.spans[1].parent, Some(root.0));
        assert_eq!(snap.spans[1].seq, child.0);
        assert_eq!(snap.spans[1].at_nanos, 5_000);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.counter_incr("c", "x");
        r.observe("h", "x", 1);
        r.span("s", "", SimTime::ZERO, 1);
        r.trace_begin("t", "", 0, SimTime::ZERO, 0);
        r.set_flight_capacity(7);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty() && snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(r.flight_capacity(), 7, "capacity survives reset");
    }

    #[test]
    fn first_window_after_reset_starts_at_the_previous_edge() {
        // 0.5 ms of busy time in every 1 ms window, with a mid-run reset.
        let r = Recorder::new();
        for ms in 1..=100 {
            r.counter_add("device.busy_ns", "device-1", 500_000);
            r.sample_window(SimTime::from_millis(ms));
        }
        r.reset();
        r.counter_add("device.busy_ns", "device-1", 500_000);
        r.sample_window(SimTime::from_millis(101));
        let snap = r.snapshot();
        let w = &snap.windows[0];
        assert_eq!((w.start_nanos, w.end_nanos), (100_000_000, 101_000_000));
        assert_eq!(
            w.utilization_permille("device.busy_ns", "device-1"),
            Some(500)
        );
    }

    #[test]
    fn handles_and_strings_share_slots_and_survive_reset() {
        let r = Recorder::new();
        let sent = r.counter_id("c", "x");
        let idle = r.counter_id("c", "idle");
        let depth = r.level_id("l", "x");
        r.add(sent, 2);
        r.counter_add("c", "x", 3);
        r.set(depth, 4);
        r.level_sub("l", "x", 1);
        r.sample_window(SimTime::from_micros(1));
        let snap = r.snapshot();
        assert_eq!(snap.counter("c", "x"), Some(5));
        assert_eq!(snap.counter("c", "idle"), None, "resolved but untouched");
        assert_eq!(snap.windows[0].level("l", "x"), Some(3));
        r.reset();
        r.add(idle, 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c", "x"), None);
        assert_eq!(snap.counter("c", "idle"), Some(0), "a zero delta touches");
        r.add(sent, 1);
        assert_eq!(r.snapshot().counter("c", "x"), Some(1));
    }

    #[test]
    fn interned_trace_labels_survive_reset() {
        let r = Recorder::new();
        let dma = r.trace_label("dma");
        assert_eq!(r.trace_label("dma"), dma);
        r.trace_begin("e", dma, 0, SimTime::ZERO, 0);
        r.reset();
        let ctx = r.trace_begin("e", dma, 0, SimTime::ZERO, 0);
        r.trace_hop(ctx, "h", "dma", 1, SimTime::ZERO, 0);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert!(snap.events.iter().all(|e| e.label == "dma"));
    }

    #[test]
    fn trace_chain_lands_in_snapshot() {
        let r = Recorder::new();
        let ctx = r.trace_begin("channel.send", "dma", 0, SimTime::ZERO, 64);
        let ctx = r.trace_hop(ctx, "provider.ring", "dma", 1, SimTime::from_micros(2), 64);
        r.trace_recv(ctx, "channel.recv", "dma", 1, SimTime::from_micros(4), 64);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].kind, "send");
        assert_eq!(snap.events[1].parent, Some(snap.events[0].id));
        assert_eq!(snap.events[2].parent, Some(snap.events[1].id));
        assert_eq!(snap.events[2].at_nanos, 4_000);
    }

    #[test]
    fn flight_overflow_is_visible_in_snapshot() {
        let r = Recorder::new();
        r.set_flight_capacity(2);
        for _ in 0..5 {
            r.trace_begin("e", "", 0, SimTime::ZERO, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3);
    }
}
