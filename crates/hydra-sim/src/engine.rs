//! The discrete-event engine.
//!
//! [`Sim`] owns a user model `M` and a time-ordered event queue. Events are
//! boxed closures that receive `&mut Sim<M>` and may mutate the model,
//! schedule further events, or cancel pending ones. Ties in time are broken
//! by insertion order, which makes whole-system runs bit-for-bit
//! deterministic for a given seed.
//!
//! # Engine internals
//!
//! The hot loop is split in two:
//!
//! * event **closures** live in a generation-stamped [`Slab`], so the
//!   steady state recycles the same slots instead of allocating queue
//!   nodes, and cancellation is an O(1) slab removal (no `HashSet` on the
//!   pop path);
//! * event **ordering** is delegated to a [`Scheduler`], keyed by small
//!   `Copy` [`SchedEntry`] records. Two implementations exist: the
//!   original [`BinaryHeapScheduler`] (kept as the reference oracle — see
//!   `tests/engine_equivalence.rs` at the workspace root) and the default
//!   [`CalendarQueue`], a bucketed calendar scheduler with an automatic
//!   resize policy that makes push/pop O(1) for the large pending-event
//!   populations the fleet-scale workloads produce.
//!
//! ## The FIFO tie-break contract
//!
//! Events scheduled for the same instant execute in **insertion order**
//! (ascending [`SchedEntry::seq`]). Every [`Scheduler`] implementation
//! must honor this; `scheduler_fifo_contract` in this module's tests and
//! `crates/hydra-sim/tests/tie_break.rs` pin it so a future scheduler
//! swap cannot silently reorder replays.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::slab::{Slab, SlabKey};
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
///
/// Internally a packed [`SlabKey`]: the id addresses one specific
/// occupancy of an event slot, so ids stay unique even though slots are
/// recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

type EventFn<M> = Box<dyn FnOnce(&mut Sim<M>)>;

/// The ordering key of one scheduled event. The closure itself lives in
/// the engine's slab; schedulers only shuffle these small `Copy` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEntry {
    /// Absolute due instant.
    pub at: SimTime,
    /// Global insertion sequence — the FIFO tie-break at equal `at`.
    pub seq: u64,
    /// Slab key of the event's closure.
    pub key: SlabKey,
}

impl SchedEntry {
    fn order_key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A pending-event priority queue ordered by `(at, seq)` ascending.
///
/// The engine guarantees `push` is only called with `at` no earlier than
/// the most recently popped entry's time (events cannot be scheduled in
/// the past). Implementations must pop in strict `(at, seq)` order —
/// equal-time events FIFO by sequence — and may keep internal cursor
/// state between calls (`peek` therefore takes `&mut self`).
pub trait Scheduler: fmt::Debug {
    /// Enqueues an entry.
    fn push(&mut self, entry: SchedEntry);

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<SchedEntry>;

    /// The earliest entry without removing it.
    fn peek(&mut self) -> Option<SchedEntry>;

    /// Number of queued entries (including entries whose event was
    /// cancelled but not yet reaped).
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self-profile counters accumulated since construction. The default
    /// is all-zero for schedulers that keep none.
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// A scheduler's self-profile: occupancy high-water and, for the
/// calendar queue, how the resize policy behaved. Deterministic for a
/// deterministic schedule — the engine benchmark surfaces these as
/// `wall_sched_*` report fields so CI's byte-diff stays indifferent to
/// cross-version policy tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Times the structure doubled its bucket count.
    pub grows: u64,
    /// Times the structure halved its bucket count.
    pub shrinks: u64,
    /// Largest number of simultaneously queued entries.
    pub max_pending: u64,
    /// Current bucket count (0 for the binary heap).
    pub buckets: u64,
    /// Current bucket width in nanoseconds (0 for the binary heap).
    pub bucket_width_ns: u64,
}

/// Which [`Scheduler`] a [`Sim`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The original binary-heap scheduler — the reference oracle.
    BinaryHeap,
    /// The bucketed calendar queue (default).
    #[default]
    Calendar,
}

// ---------------------------------------------------------------------
// Reference scheduler: the original BinaryHeap implementation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry(SchedEntry);

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, with FIFO order among events scheduled for the same
        // instant.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// The original `BinaryHeap`-backed scheduler: O(log n) push/pop.
///
/// Kept as the **reference oracle** for the calendar queue — the
/// differential tests drive both with identical schedules and assert
/// identical pop order.
#[derive(Debug, Default)]
pub struct BinaryHeapScheduler {
    heap: BinaryHeap<HeapEntry>,
    max_pending: u64,
}

impl BinaryHeapScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for BinaryHeapScheduler {
    fn push(&mut self, entry: SchedEntry) {
        self.heap.push(HeapEntry(entry));
        self.max_pending = self.max_pending.max(self.heap.len() as u64);
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        self.heap.pop().map(|e| e.0)
    }

    fn peek(&mut self) -> Option<SchedEntry> {
        self.heap.peek().map(|e| e.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            max_pending: self.max_pending,
            ..SchedStats::default()
        }
    }
}

// ---------------------------------------------------------------------
// Calendar queue scheduler.
// ---------------------------------------------------------------------

/// A bucketed calendar-queue scheduler (Brown 1988): the time axis is
/// divided into fixed-width buckets addressed modulo the bucket count,
/// like the days of a wall calendar. Push hashes an event to its bucket
/// and insertion-sorts it there; pop scans forward from the current
/// bucket, taking only events that fall inside the bucket's *current
/// year* window. With the resize policy keeping roughly one event per
/// bucket, both operations are O(1) — against the reference heap's
/// O(log n) — which is what the `BENCH_engine.json` churn workload
/// measures.
///
/// **Resize policy:** the queue doubles its bucket count when the
/// population exceeds twice the bucket count and halves it when the
/// population falls below a quarter (never under [`MIN_BUCKETS`]). At
/// each resize the bucket width is re-derived from the average gap of
/// the (up to) 64 events nearest the head, rounded down to a power of
/// two so bucket indexing stays a shift-and-mask; sampling the head
/// keeps a handful of far-future outliers from inflating the width. All
/// of it is pure integer arithmetic on deterministic inputs, so replays
/// stay byte-identical.
///
/// **Tie-break:** each bucket is kept sorted descending by `(at, seq)`
/// (minimum at the back, so pop is `Vec::pop`); equal-time events in one
/// bucket therefore leave in insertion (`seq`) order, and equal-time
/// events always share a bucket. This preserves the engine's FIFO
/// contract exactly.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Each bucket sorted descending by `(at, seq)`: minimum at the back.
    buckets: Vec<Vec<SchedEntry>>,
    /// `log2` of the bucket width in nanoseconds.
    width_shift: u32,
    /// Live entry count.
    len: usize,
    /// Index of the bucket the scan cursor is on.
    cur: usize,
    /// Absolute nanosecond start of `cur`'s active (current-year) window.
    day_start: u64,
    /// Resize-policy self-profile (grows/shrinks/occupancy high-water).
    stats: SchedStats,
}

/// Smallest bucket count the resize policy will shrink to.
pub const MIN_BUCKETS: usize = 8;

/// Largest bucket width the resize policy will derive (2^40 ns ≈ 18 min
/// of simulated time per bucket).
const MAX_WIDTH_SHIFT: u32 = 40;

/// How many head-of-queue events the resize policy samples when
/// re-deriving the bucket width (Brown 1988 samples the head so that
/// far-future outliers cannot distort the width).
const HEAD_SAMPLE: usize = 64;

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty calendar queue with the default geometry (the resize
    /// policy adapts it to the workload).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width_shift: 10, // 1.024 µs buckets until the first resize
            len: 0,
            cur: 0,
            day_start: 0,
            stats: SchedStats::default(),
        }
    }

    /// Current bucket count (exposed for the resize-policy tests).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in nanoseconds (exposed for the
    /// resize-policy tests).
    pub fn bucket_width_ns(&self) -> u64 {
        1u64 << self.width_shift
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    fn bucket_of(&self, ns: u64) -> usize {
        ((ns >> self.width_shift) as usize) & self.mask()
    }

    /// Points the scan cursor at the bucket containing `ns`.
    fn set_position(&mut self, ns: u64) {
        self.day_start = ns & !(self.bucket_width_ns() - 1);
        self.cur = self.bucket_of(ns);
    }

    fn insert_raw(&mut self, entry: SchedEntry) {
        let ns = entry.at.as_nanos();
        if self.len == 0 || ns < self.day_start {
            // First event, or an event behind the cursor (possible after
            // a peek advanced it): rewind so the scan cannot miss it.
            self.set_position(ns);
        }
        let b = self.bucket_of(ns);
        let bucket = &mut self.buckets[b];
        let key = entry.order_key();
        let i = bucket.partition_point(|e| e.order_key() > key);
        bucket.insert(i, entry);
        self.len += 1;
    }

    /// Rebuilds the calendar with `count` buckets and a width derived
    /// from the average gap of the events **nearest the head**.
    ///
    /// Sampling the head (as Brown 1988 does) instead of using the full
    /// `(max − min) / len` span matters: a few far-future outliers —
    /// parked timeouts, watchdogs — would otherwise inflate the width
    /// until every near-term event collapsed into a single bucket,
    /// turning push into an O(n) insertion sort.
    fn resize(&mut self, count: usize) {
        let mut all: Vec<SchedEntry> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        if all.is_empty() {
            return;
        }
        let sample = all.len().min(HEAD_SAMPLE);
        if sample < all.len() {
            // Deterministic partition: no RNG in std's selection.
            all.select_nth_unstable_by_key(sample - 1, |e| e.at);
        }
        let head_min = all[..sample]
            .iter()
            .map(|e| e.at.as_nanos())
            .min()
            .expect("sample is non-empty");
        let head_max = all[..sample]
            .iter()
            .map(|e| e.at.as_nanos())
            .max()
            .expect("sample is non-empty");
        let gap = ((head_max - head_min) / sample as u64).max(1);
        self.width_shift = gap.ilog2().min(MAX_WIDTH_SHIFT);
        self.buckets = vec![Vec::new(); count];
        self.len = 0;
        self.set_position(head_min);
        for entry in all {
            self.insert_raw(entry);
        }
    }

    /// The scan shared by pop and peek: find the earliest entry, leaving
    /// the cursor on its bucket. Returns the bucket index holding it.
    fn scan(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let width = self.bucket_width_ns();
        let mask = self.mask();
        let mut cur = self.cur;
        let mut day_start = self.day_start;
        for _ in 0..self.buckets.len() {
            let day_end = day_start.saturating_add(width);
            if let Some(e) = self.buckets[cur].last() {
                if e.at.as_nanos() < day_end {
                    self.cur = cur;
                    self.day_start = day_start;
                    return Some(cur);
                }
            }
            cur = (cur + 1) & mask;
            day_start = day_start.saturating_add(width);
        }
        // A full revolution without a hit: every event is at least one
        // calendar year away. Jump straight to the global minimum.
        let (bucket, at) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.last().map(|e| (i, e)))
            .min_by_key(|(_, e)| e.order_key())
            .map(|(i, e)| (i, e.at.as_nanos()))
            .expect("len > 0 but no bucket has entries");
        self.set_position(at);
        debug_assert_eq!(self.cur, bucket);
        Some(bucket)
    }
}

impl Scheduler for CalendarQueue {
    fn push(&mut self, entry: SchedEntry) {
        self.insert_raw(entry);
        self.stats.max_pending = self.stats.max_pending.max(self.len as u64);
        if self.len > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
            self.stats.grows += 1;
        }
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        let bucket = self.scan()?;
        let entry = self.buckets[bucket].pop().expect("scan found an entry");
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len * 4 < self.buckets.len() {
            self.resize(self.buckets.len() / 2);
            self.stats.shrinks += 1;
        }
        Some(entry)
    }

    fn peek(&mut self) -> Option<SchedEntry> {
        let bucket = self.scan()?;
        self.buckets[bucket].last().copied()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            buckets: self.buckets.len() as u64,
            bucket_width_ns: self.bucket_width_ns(),
            ..self.stats
        }
    }
}

/// Static-dispatch wrapper so the hot loop pays no virtual call.
#[derive(Debug)]
enum AnyScheduler {
    Heap(BinaryHeapScheduler),
    Calendar(CalendarQueue),
}

impl AnyScheduler {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::BinaryHeap => AnyScheduler::Heap(BinaryHeapScheduler::new()),
            SchedulerKind::Calendar => AnyScheduler::Calendar(CalendarQueue::new()),
        }
    }

    fn kind(&self) -> SchedulerKind {
        match self {
            AnyScheduler::Heap(_) => SchedulerKind::BinaryHeap,
            AnyScheduler::Calendar(_) => SchedulerKind::Calendar,
        }
    }
}

impl Scheduler for AnyScheduler {
    fn push(&mut self, entry: SchedEntry) {
        match self {
            AnyScheduler::Heap(s) => s.push(entry),
            AnyScheduler::Calendar(s) => s.push(entry),
        }
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        match self {
            AnyScheduler::Heap(s) => s.pop(),
            AnyScheduler::Calendar(s) => s.pop(),
        }
    }

    fn peek(&mut self) -> Option<SchedEntry> {
        match self {
            AnyScheduler::Heap(s) => s.peek(),
            AnyScheduler::Calendar(s) => s.peek(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyScheduler::Heap(s) => s.len(),
            AnyScheduler::Calendar(s) => s.len(),
        }
    }

    fn stats(&self) -> SchedStats {
        match self {
            AnyScheduler::Heap(s) => s.stats(),
            AnyScheduler::Calendar(s) => s.stats(),
        }
    }
}

/// A discrete-event simulator that owns the user model `M`.
///
/// # Examples
///
/// ```
/// use hydra_sim::{Sim, time::SimDuration};
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule_in(SimDuration::from_millis(1), |sim| {
///     *sim.model_mut() += 1;
/// });
/// sim.run();
/// assert_eq!(*sim.model(), 1);
/// assert_eq!(sim.now().as_millis(), 1);
/// ```
pub struct Sim<M> {
    model: M,
    now: SimTime,
    sched: AnyScheduler,
    events: Slab<EventFn<M>>,
    next_seq: u64,
    executed: u64,
}

impl<M: fmt::Debug> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.events.len())
            .field("executed", &self.executed)
            .field("scheduler", &self.sched.kind())
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl<M> Sim<M> {
    /// Creates a simulator at time zero around the given model, on the
    /// default [`CalendarQueue`] scheduler.
    pub fn new(model: M) -> Self {
        Self::with_scheduler(model, SchedulerKind::default())
    }

    /// Creates a simulator on an explicit scheduler — the differential
    /// tests run the same workload on both kinds and demand identical
    /// behavior.
    pub fn with_scheduler(model: M, kind: SchedulerKind) -> Self {
        Sim {
            model,
            now: SimTime::ZERO,
            sched: AnyScheduler::new(kind),
            events: Slab::new(),
            next_seq: 0,
            executed: 0,
        }
    }

    /// The scheduler's self-profile (resize counts, occupancy
    /// high-water, current geometry) — see [`SchedStats`].
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (cancelled events are reaped
    /// immediately and never counted).
    pub fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// Schedules `action` to run at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Sim<M>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "schedule_at: instant {at} is before now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.events.insert(Box::new(action));
        self.sched.push(SchedEntry { at, seq, key });
        EventId(key.pack())
    }

    /// Schedules `action` to run after the relative delay `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Sim<M>) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, action)
    }

    /// Schedules `action` to run "now", after all already-queued events at
    /// the current instant.
    pub fn schedule_now(&mut self, action: impl FnOnce(&mut Sim<M>) + 'static) -> EventId {
        self.schedule_at(self.now, action)
    }

    /// Cancels a pending event. Returns `true` if the event had not yet run
    /// or been cancelled. O(1): the closure leaves the slab immediately;
    /// the scheduler's stale key is skipped when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.events.remove(SlabKey::unpack(id.0)).is_some()
    }

    /// Executes the next pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(entry) = self.sched.pop() else {
                return false;
            };
            let Some(action) = self.events.remove(entry.key) else {
                continue; // cancelled; its slot may already be reused
            };
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            self.executed += 1;
            action(self);
            return true;
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the event queue drains or the clock would pass `deadline`.
    ///
    /// Events scheduled exactly at `deadline` are executed; afterwards the
    /// clock rests at `deadline` (or earlier, if the queue drained first).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            // Peek for the next live event, reaping cancelled heads.
            let next_at = loop {
                match self.sched.peek() {
                    None => break None,
                    Some(entry) if !self.events.contains(entry.key) => {
                        self.sched.pop();
                    }
                    Some(entry) => break Some(entry.at),
                }
            };
            match next_at {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => {
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }

    /// Schedules a periodic action starting at `start` with the given
    /// period. The action returns `true` to keep the cycle alive and
    /// `false` to stop.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (the simulation would never advance).
    pub fn every(
        &mut self,
        start: SimTime,
        period: SimDuration,
        action: impl FnMut(&mut Sim<M>) -> bool + 'static,
    ) -> EventId {
        assert!(!period.is_zero(), "every: period must be non-zero");
        fn tick<M>(
            sim: &mut Sim<M>,
            period: SimDuration,
            action: impl FnMut(&mut Sim<M>) -> bool + 'static,
        ) {
            let mut action = action;
            if action(sim) {
                sim.schedule_in(period, move |sim| tick(sim, period, action));
            }
        }
        self.schedule_at(start, move |sim| tick(sim, period, action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every unit test below runs on both schedulers: the contract is the
    /// engine's, not one implementation's.
    fn both(f: impl Fn(SchedulerKind)) {
        f(SchedulerKind::BinaryHeap);
        f(SchedulerKind::Calendar);
    }

    #[test]
    fn events_run_in_time_order() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(Vec::new(), kind);
            sim.schedule_at(SimTime::from_millis(3), |s| s.model_mut().push(3));
            sim.schedule_at(SimTime::from_millis(1), |s| s.model_mut().push(1));
            sim.schedule_at(SimTime::from_millis(2), |s| s.model_mut().push(2));
            sim.run();
            assert_eq!(sim.model(), &[1, 2, 3]);
            assert_eq!(sim.now(), SimTime::from_millis(3));
        });
    }

    #[test]
    fn ties_break_fifo() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(Vec::new(), kind);
            let t = SimTime::from_millis(1);
            for i in 0..10 {
                sim.schedule_at(t, move |s| s.model_mut().push(i));
            }
            sim.run();
            assert_eq!(sim.model(), &(0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn scheduler_fifo_contract() {
        // The raw Scheduler contract, independent of Sim: equal-time
        // entries pop in push (seq) order, on both implementations.
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::new();
        let t = SimTime::from_micros(7);
        for seq in 0..32u64 {
            let entry = SchedEntry {
                at: t,
                seq,
                key: SlabKey {
                    slot: seq as u32,
                    gen: 0,
                },
            };
            heap.push(entry);
            cal.push(entry);
        }
        for seq in 0..32u64 {
            assert_eq!(heap.pop().unwrap().seq, seq, "heap FIFO at equal time");
            assert_eq!(cal.pop().unwrap().seq, seq, "calendar FIFO at equal time");
        }
    }

    #[test]
    fn events_can_schedule_events() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(0u64, kind);
            sim.schedule_in(SimDuration::from_millis(1), |s| {
                *s.model_mut() += 1;
                s.schedule_in(SimDuration::from_millis(1), |s| {
                    *s.model_mut() += 10;
                });
            });
            sim.run();
            assert_eq!(*sim.model(), 11);
            assert_eq!(sim.now(), SimTime::from_millis(2));
            assert_eq!(sim.events_executed(), 2);
        });
    }

    #[test]
    fn cancel_prevents_execution() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(0u64, kind);
            let id = sim.schedule_in(SimDuration::from_millis(1), |s| *s.model_mut() += 1);
            assert!(sim.cancel(id));
            assert!(!sim.cancel(id), "double cancel reports false");
            sim.run();
            assert_eq!(*sim.model(), 0);
            assert_eq!(sim.events_executed(), 0);
        });
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Sim<()> = Sim::new(());
        assert!(!sim.cancel(EventId(12345)));
    }

    #[test]
    fn cancel_after_execution_is_false_even_when_slot_is_reused() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(0u64, kind);
            let id = sim.schedule_at(SimTime::from_millis(1), |s| *s.model_mut() += 1);
            sim.run();
            // The slot is free again; a new event may take it.
            let id2 = sim.schedule_at(SimTime::from_millis(2), |s| *s.model_mut() += 10);
            assert!(!sim.cancel(id), "stale id must not cancel the new event");
            assert!(sim.cancel(id2));
            sim.run();
            assert_eq!(*sim.model(), 1);
        });
    }

    #[test]
    fn run_until_stops_at_deadline() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(Vec::new(), kind);
            for ms in [1u64, 2, 3, 4, 5] {
                sim.schedule_at(SimTime::from_millis(ms), move |s| s.model_mut().push(ms));
            }
            sim.run_until(SimTime::from_millis(3));
            assert_eq!(sim.model(), &[1, 2, 3]);
            assert_eq!(sim.now(), SimTime::from_millis(3));
            assert_eq!(sim.events_pending(), 2);
            sim.run();
            assert_eq!(sim.model(), &[1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        both(|kind| {
            let mut sim: Sim<()> = Sim::with_scheduler((), kind);
            sim.run_until(SimTime::from_secs(9));
            assert_eq!(sim.now(), SimTime::from_secs(9));
        });
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(0u64, kind);
            let id = sim.schedule_at(SimTime::from_millis(1), |s| *s.model_mut() += 1);
            sim.schedule_at(SimTime::from_millis(2), |s| *s.model_mut() += 10);
            sim.cancel(id);
            sim.run_until(SimTime::from_millis(5));
            assert_eq!(*sim.model(), 10);
        });
    }

    #[test]
    fn schedule_behind_a_peeked_cursor_still_pops_first() {
        // run_until peeks (advancing the calendar cursor to a far-future
        // bucket); a later schedule at an earlier instant must still pop
        // before it.
        both(|kind| {
            let mut sim = Sim::with_scheduler(Vec::new(), kind);
            sim.schedule_at(SimTime::from_millis(100), |s| s.model_mut().push(100u64));
            sim.run_until(SimTime::from_millis(1)); // peeks, pops nothing
            sim.schedule_at(SimTime::from_millis(50), |s| s.model_mut().push(50));
            sim.run();
            assert_eq!(sim.model(), &[50, 100]);
        });
    }

    #[test]
    fn periodic_until_false() {
        both(|kind| {
            let mut sim = Sim::with_scheduler(0u64, kind);
            sim.every(SimTime::from_millis(5), SimDuration::from_millis(5), |s| {
                *s.model_mut() += 1;
                *s.model() < 4
            });
            sim.run();
            assert_eq!(*sim.model(), 4);
            assert_eq!(sim.now(), SimTime::from_millis(20));
        });
    }

    #[test]
    fn calendar_resize_policy_tracks_population() {
        let mut cal = CalendarQueue::new();
        let key = SlabKey { slot: 0, gen: 0 };
        for seq in 0..1024u64 {
            cal.push(SchedEntry {
                at: SimTime::from_nanos(seq * 800),
                seq,
                key,
            });
        }
        assert!(
            cal.bucket_count() >= 512,
            "grown to ~one event per bucket, got {}",
            cal.bucket_count()
        );
        for _ in 0..1020 {
            cal.pop();
        }
        assert!(
            cal.bucket_count() <= MIN_BUCKETS * 2,
            "shrunk back down, got {}",
            cal.bucket_count()
        );
        assert_eq!(cal.len(), 4);
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        // Events a calendar "year" apart force the direct-search jump.
        let mut cal = CalendarQueue::new();
        let key = SlabKey { slot: 0, gen: 0 };
        let times: Vec<u64> = (0..6).map(|i| i * i * 1_000_000_000 + 13).collect();
        for (seq, &ns) in times.iter().enumerate() {
            cal.push(SchedEntry {
                at: SimTime::from_nanos(ns),
                seq: seq as u64,
                key,
            });
        }
        let mut popped = Vec::new();
        while let Some(e) = cal.pop() {
            popped.push(e.at.as_nanos());
        }
        assert_eq!(popped, times);
    }

    #[test]
    fn sched_stats_track_growth_and_occupancy() {
        let mut sim: Sim<()> = Sim::with_scheduler((), SchedulerKind::Calendar);
        for i in 0..100u64 {
            sim.schedule_at(SimTime::from_micros(i), |_| {});
        }
        let stats = sim.sched_stats();
        assert_eq!(stats.max_pending, 100);
        assert!(stats.grows >= 1, "100 pending forces at least one double");
        assert!(stats.buckets > MIN_BUCKETS as u64);
        assert!(stats.bucket_width_ns > 0);
        sim.run();
        let drained = sim.sched_stats();
        assert!(drained.shrinks >= 1, "draining shrinks the calendar");
        assert_eq!(drained.max_pending, 100, "high-water survives the drain");

        // The heap oracle keeps occupancy only.
        let mut heap: Sim<()> = Sim::with_scheduler((), SchedulerKind::BinaryHeap);
        for i in 0..10u64 {
            heap.schedule_at(SimTime::from_micros(i), |_| {});
        }
        let hs = heap.sched_stats();
        assert_eq!(hs.max_pending, 10);
        assert_eq!(
            (hs.grows, hs.shrinks, hs.buckets, hs.bucket_width_ns),
            (0, 0, 0, 0)
        );
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime::from_millis(5), |_| {});
        sim.run();
        sim.schedule_at(SimTime::from_millis(1), |_| {});
    }
}
