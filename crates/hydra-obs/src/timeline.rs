//! Deterministic windowed telemetry: the sim-time [`Sampler`] and the
//! fixed-width windows it materializes.
//!
//! End-of-run aggregates (counters, histograms) answer "how much in
//! total?"; the fleet experiments need "how much *when*?". A [`Sampler`]
//! schedules a periodic tick inside the DES engine
//! ([`hydra_sim::Sim::every`]); each tick closes one window by
//! snapshotting every counter's delta since the previous tick plus the
//! instantaneous value of every *level* track (queue depths, ring
//! occupancy — see [`Recorder::level_set`](crate::Recorder::level_set)).
//!
//! # Window semantics
//!
//! * Windows are half-open `(start, end]` in sim time and contiguous:
//!   window `i+1` starts exactly where window `i` ended; window 0 starts
//!   at [`SimTime::ZERO`]. A [`Recorder::reset`] clears the windows but
//!   keeps the edge, so the first window after it starts where the last
//!   one before it ended.
//! * A counter appears in a window iff its value changed during the
//!   window; the recorded delta carries the running total alongside, so
//!   the sum of deltas over all windows plus the post-final-window
//!   residue always reconciles with the end-of-run snapshot (the
//!   conservation property the proptests pin).
//! * Levels are sampled *at* the window's closing edge — they are
//!   instantaneous gauges, not integrals.
//!
//! # Determinism
//!
//! Ticks are ordinary DES events, so they interleave with model events
//! under the engine's FIFO `(time, seq)` contract; window contents
//! follow the recorder's sorted `(name, label)` index. Two identical runs therefore render
//! byte-identical timelines — the root `artifact_gate` test diffs
//! `repro -- stats` against its committed output on exactly that.

use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

use crate::recorder::Recorder;
use crate::snapshot::MetricsSnapshot;

/// One counter track inside a window: the change over the window and
/// the running total at its closing edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTrackSample {
    /// Metric name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Increase over this window.
    pub delta: u64,
    /// Running total at the window's closing edge.
    pub total: u64,
}

/// One level (instantaneous gauge) sampled at a window's closing edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowLevelSample {
    /// Metric name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Level at the window's closing edge.
    pub value: u64,
}

/// One closed telemetry window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSample {
    /// Window number, from 0.
    pub index: u64,
    /// Window start (exclusive) in nanoseconds.
    pub start_nanos: u64,
    /// Window end (inclusive; the sampling instant) in nanoseconds.
    pub end_nanos: u64,
    /// Counters that changed during the window, sorted by `(name, label)`.
    pub counters: Vec<WindowTrackSample>,
    /// Every level track, sorted by `(name, label)`.
    pub levels: Vec<WindowLevelSample>,
}

impl WindowSample {
    /// Window width in nanoseconds.
    pub fn width_nanos(&self) -> u64 {
        self.end_nanos - self.start_nanos
    }

    /// The window's delta for counter `name{label}` (0 when unchanged).
    pub fn delta(&self, name: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|t| t.name == name && t.label == label)
            .map_or(0, |t| t.delta)
    }

    /// The level `name{label}` at the window's closing edge.
    pub fn level(&self, name: &str, label: &str) -> Option<u64> {
        self.levels
            .iter()
            .find(|l| l.name == name && l.label == label)
            .map(|l| l.value)
    }

    /// Busy-fraction of the window in permille, reading a `*_ns`
    /// busy-time counter: `delta(name{label}) · 1000 / width`, capped at
    /// 1000. `None` for a zero-width window.
    pub fn utilization_permille(&self, name: &str, label: &str) -> Option<u64> {
        let width = self.width_nanos();
        if width == 0 {
            return None;
        }
        let busy = u128::from(self.delta(name, label));
        #[allow(clippy::cast_possible_truncation)] // capped at 1000
        Some(((busy * 1000 / u128::from(width)) as u64).min(1000))
    }
}

/// One metric extracted across every window: `(end_nanos, value)`
/// points in window order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Metric name.
    pub name: String,
    /// Instance label.
    pub label: String,
    /// `(window end in nanoseconds, value)` per window. For counters the
    /// value is the per-window delta; for levels the sampled level.
    pub points: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Extracts one counter's per-window deltas as a [`TimeSeries`]
    /// (windows where the counter did not change contribute 0).
    pub fn time_series(&self, name: &str, label: &str) -> TimeSeries {
        TimeSeries {
            name: name.to_owned(),
            label: label.to_owned(),
            points: self
                .windows
                .iter()
                .map(|w| (w.end_nanos, w.delta(name, label)))
                .collect(),
        }
    }

    /// Extracts one level track as a [`TimeSeries`] (windows without the
    /// track contribute 0).
    pub fn level_series(&self, name: &str, label: &str) -> TimeSeries {
        TimeSeries {
            name: name.to_owned(),
            label: label.to_owned(),
            points: self
                .windows
                .iter()
                .map(|w| (w.end_nanos, w.level(name, label).unwrap_or(0)))
                .collect(),
        }
    }
}

/// Schedules the periodic telemetry tick inside a [`Sim`] and closes
/// one window per tick on a shared [`Recorder`].
///
/// # Examples
///
/// ```
/// use hydra_obs::{Recorder, Sampler};
/// use hydra_sim::time::{SimDuration, SimTime};
/// use hydra_sim::Sim;
///
/// let rec = Recorder::new();
/// let mut sim: Sim<()> = Sim::new(());
/// Sampler::new(SimDuration::from_millis(1), SimTime::from_millis(3)).install(&mut sim, &rec);
/// sim.run();
/// assert_eq!(rec.snapshot().windows.len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    period: SimDuration,
    until: SimTime,
}

impl Sampler {
    /// A sampler closing a window every `period`, ticking up to and
    /// including `until`.
    ///
    /// # Panics
    ///
    /// Panics on a zero period (windows must have width).
    pub fn new(period: SimDuration, until: SimTime) -> Self {
        assert!(!period.is_zero(), "sampler period must be non-zero");
        Sampler { period, until }
    }

    /// The window width.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Installs the periodic tick on `sim`, closing windows on
    /// `recorder`. The first window closes at `period`; ticks stop after
    /// the last instant ≤ `until`.
    pub fn install<M: 'static>(&self, sim: &mut Sim<M>, recorder: &Recorder) {
        let rec = recorder.clone();
        let period = self.period;
        let until = self.until;
        sim.every(SimTime::ZERO + period, period, move |sim| {
            rec.sample_window(sim.now());
            sim.now().saturating_add(period) <= until
        });
    }
}

/// Renders a snapshot's windows as canonical CSV: header plus one row
/// per track per window, `kind` distinguishing counter deltas from
/// sampled levels. Byte-stable across identical runs.
#[must_use]
pub fn timeline_csv(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("window,start_nanos,end_nanos,kind,name,label,value,total\n");
    for w in &snapshot.windows {
        for t in &w.counters {
            out.push_str(&format!(
                "{},{},{},delta,{},{},{},{}\n",
                w.index,
                w.start_nanos,
                w.end_nanos,
                csv_field(t.name),
                csv_field(&t.label),
                t.delta,
                t.total
            ));
        }
        for l in &w.levels {
            out.push_str(&format!(
                "{},{},{},level,{},{},{},{}\n",
                w.index,
                w.start_nanos,
                w.end_nanos,
                csv_field(l.name),
                csv_field(&l.label),
                l.value,
                l.value
            ));
        }
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_contiguous_and_carry_deltas() {
        let rec = Recorder::new();
        rec.counter_add("c", "x", 5);
        rec.sample_window(SimTime::from_millis(1));
        rec.counter_add("c", "x", 3);
        rec.counter_add("d", "", 2);
        rec.sample_window(SimTime::from_millis(2));
        rec.sample_window(SimTime::from_millis(3));
        let snap = rec.snapshot();
        assert_eq!(snap.windows.len(), 3);
        assert_eq!(snap.windows[0].start_nanos, 0);
        assert_eq!(snap.windows[0].end_nanos, 1_000_000);
        assert_eq!(snap.windows[1].start_nanos, 1_000_000);
        assert_eq!(snap.windows[0].delta("c", "x"), 5);
        assert_eq!(snap.windows[1].delta("c", "x"), 3);
        assert_eq!(snap.windows[1].counters[0].total, 8);
        assert_eq!(snap.windows[1].delta("d", ""), 2);
        // Quiet window: no counter tracks at all.
        assert!(snap.windows[2].counters.is_empty());
        // Conservation: deltas sum to the final totals.
        let summed: u64 = snap.windows.iter().map(|w| w.delta("c", "x")).sum();
        assert_eq!(Some(summed), snap.counter("c", "x"));
    }

    #[test]
    fn levels_sample_the_instantaneous_value() {
        let rec = Recorder::new();
        rec.level_set("q", "ring", 4);
        rec.sample_window(SimTime::from_millis(1));
        rec.level_add("q", "ring", 3);
        rec.level_sub("q", "ring", 5);
        rec.sample_window(SimTime::from_millis(2));
        let snap = rec.snapshot();
        assert_eq!(snap.windows[0].level("q", "ring"), Some(4));
        assert_eq!(snap.windows[1].level("q", "ring"), Some(2));
        let series = snap.level_series("q", "ring");
        assert_eq!(series.points, vec![(1_000_000, 4), (2_000_000, 2)]);
    }

    #[test]
    fn level_sub_saturates_at_zero() {
        let rec = Recorder::new();
        rec.level_add("q", "", 1);
        rec.level_sub("q", "", 9);
        rec.sample_window(SimTime::from_millis(1));
        assert_eq!(rec.snapshot().windows[0].level("q", ""), Some(0));
    }

    #[test]
    fn utilization_is_busy_fraction_in_permille() {
        let rec = Recorder::new();
        rec.counter_add("device.busy_ns", "device-1", 250_000);
        rec.sample_window(SimTime::from_millis(1));
        let snap = rec.snapshot();
        assert_eq!(
            snap.windows[0].utilization_permille("device.busy_ns", "device-1"),
            Some(250)
        );
        // Over-subscribed windows cap at 1000.
        rec.counter_add("device.busy_ns", "device-1", 9_000_000);
        rec.sample_window(SimTime::from_millis(2));
        assert_eq!(
            rec.snapshot().windows[1].utilization_permille("device.busy_ns", "device-1"),
            Some(1000)
        );
    }

    #[test]
    fn sampler_ticks_on_the_engine_clock() {
        let rec = Recorder::new();
        let mut sim: Sim<u64> = Sim::new(0);
        Sampler::new(SimDuration::from_millis(2), SimTime::from_millis(10)).install(&mut sim, &rec);
        let r2 = rec.clone();
        sim.every(
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            move |sim| {
                r2.counter_add("work", "", 1);
                sim.now() < SimTime::from_millis(7)
            },
        );
        sim.run();
        let snap = rec.snapshot();
        assert_eq!(snap.windows.len(), 5, "ticks at 2,4,6,8,10 ms");
        // Same-instant events run in schedule order (the engine's FIFO
        // tie-break): the sampler tick at 2 ms was scheduled before the
        // work event rescheduled itself onto 2 ms, so that increment
        // falls into the *next* window. Work fires at 1..=7 ms, 7 total.
        let series = snap.time_series("work", "");
        assert_eq!(
            series.points,
            vec![
                (2_000_000, 1),
                (4_000_000, 2),
                (6_000_000, 2),
                (8_000_000, 2),
                (10_000_000, 0)
            ]
        );
    }

    #[test]
    fn csv_dump_is_canonical() {
        let rec = Recorder::new();
        rec.counter_add("c", "x", 5);
        rec.level_set("q", "", 2);
        rec.sample_window(SimTime::from_micros(10));
        let csv = timeline_csv(&rec.snapshot());
        assert_eq!(
            csv,
            "window,start_nanos,end_nanos,kind,name,label,value,total\n\
             0,0,10000,delta,c,x,5,5\n\
             0,0,10000,level,q,,2,2\n"
        );
        assert_eq!(csv_field("a,b"), "\"a,b\"");
    }
}
