//! Causal trace propagation: [`TraceCtx`] and the [`FlightRecorder`].
//!
//! A HYDRA request hops between host and programmable devices over
//! channels, which is exactly where per-process profiling goes blind. A
//! [`TraceCtx`] is a tiny, fully deterministic causal stamp — a trace id
//! plus the id of the most recent event on that trace — that instrumented
//! code carries along with a message: it is minted at `send`, threaded
//! through provider queues and DMA descriptor rings as *hop* events, and
//! closed at `recv` (or a *drop* event when the message is lost).
//!
//! Events land in the [`FlightRecorder`], a bounded ring. When the ring is
//! full the **oldest** event is discarded and a dropped-events counter is
//! bumped, so loss is always visible in the snapshot rather than silent.
//! Event labels are interned ([`TraceLabel`]): an event is plain data,
//! so recording one into a warm ring and evicting one allocate and free
//! nothing. Labels resolve back to strings only when a snapshot renders.
//!
//! # Determinism
//!
//! Trace and event ids are per-recorder sequence numbers; timestamps are
//! caller-supplied [`SimTime`]s. Nothing reads the wall clock or an RNG,
//! so two identical executions produce identical event chains (and
//! byte-identical Chrome-trace exports — see [`crate::export`]).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use hydra_sim::time::SimTime;

/// Identifier of one causal trace (one logical request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of one recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u64);

/// The causal stamp carried by an in-flight message: which trace it
/// belongs to and which event it was last seen at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace this message belongs to.
    pub trace: TraceId,
    /// The most recent event on the trace (the parent of the next one).
    pub parent: EventId,
}

/// What happened at one point of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// A message entered the system (channel `send`).
    Send,
    /// The message crossed an intermediate stage: a provider queue, a DMA
    /// descriptor ring, a device firmware step.
    Hop,
    /// The message reached a receiver (channel `recv`).
    Recv,
    /// The message was lost (ring full, fault injection, rejection).
    Drop,
}

impl TraceEventKind {
    /// Stable lowercase name, used by the renderings.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Send => "send",
            TraceEventKind::Hop => "hop",
            TraceEventKind::Recv => "recv",
            TraceEventKind::Drop => "drop",
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An interned trace-event label: an index into its
/// [`FlightRecorder`]'s label table. Interning is append-only, so a
/// label stays valid for the recorder's whole life, resets included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceLabel(u32);

/// A trace-event label as the trace APIs accept it: a `&str`, interned
/// on use, or a [`TraceLabel`] interned ahead of time (the hot-path
/// form — no lookup at all).
pub trait IntoTraceLabel {
    /// The interned label on `flight`.
    fn into_trace_label(self, flight: &mut FlightRecorder) -> TraceLabel;
}

impl IntoTraceLabel for &str {
    fn into_trace_label(self, flight: &mut FlightRecorder) -> TraceLabel {
        flight.intern(self)
    }
}

impl IntoTraceLabel for TraceLabel {
    fn into_trace_label(self, _flight: &mut FlightRecorder) -> TraceLabel {
        self
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally unique (per recorder) event id, in record order.
    pub id: EventId,
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// The causally preceding event, if any (`None` for trace roots).
    pub parent: Option<EventId>,
    /// What happened.
    pub kind: TraceEventKind,
    /// Static event name, e.g. `"channel.send"` or `"nic.peer_forward"`.
    pub name: &'static str,
    /// Instance label, e.g. the winning provider's name (resolve with
    /// [`FlightRecorder::label`]).
    pub label: TraceLabel,
    /// The device the event happened on (0 = host); the Chrome-trace
    /// exporter uses this as the "pid".
    pub device: u64,
    /// Simulation instant of the event.
    pub at: SimTime,
    /// Payload bytes associated with the event (0 when not applicable).
    pub bytes: u64,
}

/// Default flight-recorder capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// A bounded ring of trace events with drop-oldest overflow.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    next_event: u64,
    next_trace: u64,
    dropped: u64,
    /// Interned labels, indexed by [`TraceLabel`].
    labels: Vec<Box<str>>,
    label_ids: BTreeMap<Box<str>, TraceLabel>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            next_event: 0,
            next_trace: 0,
            dropped: 0,
            labels: Vec::new(),
            label_ids: BTreeMap::new(),
        }
    }

    /// Interns `label`, returning its id (the same id every time).
    pub fn intern(&mut self, label: &str) -> TraceLabel {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = TraceLabel(u32::try_from(self.labels.len()).expect("fewer than 2^32 labels"));
        self.labels.push(label.into());
        self.label_ids.insert(label.into(), id);
        id
    }

    /// The string an interned label stands for.
    pub fn label(&self, label: TraceLabel) -> &str {
        &self.labels[label.0 as usize]
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the ring, evicting oldest events if it shrinks below the
    /// current length (evictions count as dropped).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Starts a new trace with a root *send* event, returning the context
    /// to stamp onto the message.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        let trace = TraceId(self.next_trace);
        self.next_trace += 1;
        let label = label.into_trace_label(self);
        let id = self.push(
            trace,
            None,
            TraceEventKind::Send,
            name,
            label,
            device,
            at,
            bytes,
        );
        TraceCtx { trace, parent: id }
    }

    /// Records an intermediate hop continuing `ctx`, returning the
    /// advanced context.
    pub fn hop(
        &mut self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        let label = label.into_trace_label(self);
        let id = self.push(
            ctx.trace,
            Some(ctx.parent),
            TraceEventKind::Hop,
            name,
            label,
            device,
            at,
            bytes,
        );
        TraceCtx {
            trace: ctx.trace,
            parent: id,
        }
    }

    /// Closes `ctx` with a *recv* event, returning the context positioned
    /// at that event (so post-receive device work can keep chaining).
    pub fn recv(
        &mut self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        let label = label.into_trace_label(self);
        let id = self.push(
            ctx.trace,
            Some(ctx.parent),
            TraceEventKind::Recv,
            name,
            label,
            device,
            at,
            bytes,
        );
        TraceCtx {
            trace: ctx.trace,
            parent: id,
        }
    }

    /// Closes `ctx` with a *drop* event (message lost or rejected).
    pub fn drop_event(
        &mut self,
        ctx: TraceCtx,
        name: &'static str,
        label: impl IntoTraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) {
        let label = label.into_trace_label(self);
        self.push(
            ctx.trace,
            Some(ctx.parent),
            TraceEventKind::Drop,
            name,
            label,
            device,
            at,
            bytes,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        trace: TraceId,
        parent: Option<EventId>,
        kind: TraceEventKind,
        name: &'static str,
        label: TraceLabel,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> EventId {
        let id = EventId(self.next_event);
        self.next_event += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            id,
            trace,
            parent,
            kind,
            name,
            label,
            device,
            at,
            bytes,
        });
        id
    }

    /// Clears all events and counters (between benchmark iterations) and
    /// releases the ring's memory; it regrows as events arrive. Interned
    /// labels survive, so pre-resolved [`TraceLabel`]s stay valid.
    pub fn reset(&mut self) {
        self.events = VecDeque::new();
        self.next_event = 0;
        self.next_trace = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_hop_recv_forms_a_linked_chain() {
        let mut fr = FlightRecorder::default();
        let ctx = fr.begin("channel.send", "dma", 0, SimTime::ZERO, 64);
        let ctx = fr.hop(ctx, "provider.ring", "dma", 1, SimTime::from_micros(3), 64);
        let end = fr.recv(ctx, "channel.recv", "dma", 1, SimTime::from_micros(5), 64);
        let ev: Vec<&TraceEvent> = fr.events().collect();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].parent, None);
        assert_eq!(ev[1].parent, Some(ev[0].id));
        assert_eq!(ev[2].parent, Some(ev[1].id));
        assert!(ev.iter().all(|e| e.trace == ctx.trace));
        assert_eq!(end.parent, ev[2].id);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn wraparound_drops_oldest_and_counts_exactly() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            fr.begin("e", "", 0, SimTime::from_nanos(i), i);
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6, "exactly len - capacity events dropped");
        // The survivors are the newest four, in order.
        let ids: Vec<u64> = fr.events().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let mut fr = FlightRecorder::with_capacity(8);
        for _ in 0..8 {
            fr.begin("e", "", 0, SimTime::ZERO, 0);
        }
        fr.set_capacity(3);
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 5);
    }

    #[test]
    fn drop_event_closes_a_trace() {
        let mut fr = FlightRecorder::default();
        let ctx = fr.begin("channel.send", "p", 0, SimTime::ZERO, 1);
        fr.drop_event(ctx, "channel.drop", "p", 2, SimTime::ZERO, 1);
        let ev: Vec<&TraceEvent> = fr.events().collect();
        assert_eq!(ev[1].kind, TraceEventKind::Drop);
        assert_eq!(ev[1].parent, Some(ev[0].id));
    }

    #[test]
    fn reset_restarts_sequences() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.begin("e", "", 0, SimTime::ZERO, 0);
        fr.begin("e", "", 0, SimTime::ZERO, 0);
        fr.begin("e", "", 0, SimTime::ZERO, 0);
        fr.reset();
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 0);
        let ctx = fr.begin("e", "", 0, SimTime::ZERO, 0);
        assert_eq!(ctx.trace, TraceId(0));
        assert_eq!(ctx.parent, EventId(0));
    }
}
