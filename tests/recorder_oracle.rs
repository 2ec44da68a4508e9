//! Differential oracle for the interned-slot [`Recorder`].
//!
//! Random operation sequences drive one recorder through its two entry
//! points, interleaved: pre-resolved handles (`counter_id` + `add`, …,
//! interned trace labels) and the string API (`counter_add`, …). The
//! same sequence drives a plain `BTreeMap`-keyed reference model that
//! mirrors the documented semantics: a key exists once updated (zero
//! deltas included) and until the next `reset`; windows carry counter
//! deltas plus every level; a window opens where the previous one
//! closed, resets included. Snapshot JSON and timeline CSV must agree
//! after every step. Handles are minted lazily and kept across resets,
//! and some are minted without ever being used, so stale and untouched
//! handles are covered.

use std::collections::{BTreeMap, VecDeque};

use hydra_obs::{
    timeline_csv, CounterId, CounterSample, GaugeId, GaugeSample, HistId, Histogram,
    HistogramSample, LevelId, MetricsSnapshot, Recorder, TraceCtx, TraceEventSample, TraceLabel,
    WindowLevelSample, WindowSample, WindowTrackSample,
};
use hydra_sim::time::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

const NAMES: [&str; 2] = ["a.metric", "b.metric"];
const LABELS: [&str; 3] = ["", "x", "y,z"];
const FLIGHT: usize = 6;

type Key = (&'static str, String);

/// The reference: `BTreeMap`s keyed by `(name, label)`, rebuilt by reset.
#[derive(Default)]
struct Model {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    levels: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Histogram>,
    events: VecDeque<TraceEventSample>,
    next_event: u64,
    next_trace: u64,
    dropped: u64,
    windows: Vec<WindowSample>,
    base: BTreeMap<Key, u64>,
    edge: u64,
}

impl Model {
    fn event(&mut self, trace: Option<TraceCtx>, kind: &'static str, label: &str, at: u64) {
        let id = self.next_event;
        self.next_event += 1;
        let trace_id = trace.map_or_else(
            || {
                self.next_trace += 1;
                self.next_trace - 1
            },
            |c| c.trace.0,
        );
        if self.events.len() == FLIGHT {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEventSample {
            id,
            trace: trace_id,
            parent: trace.map(|c| c.parent.0),
            kind,
            name: "t",
            label: label.to_owned(),
            device: 1,
            at_nanos: at,
            bytes: 8,
        });
    }

    fn sample(&mut self, at: u64) {
        let counters = self
            .counters
            .iter()
            .filter_map(|((name, label), &total)| {
                let delta = total - self.base.get(&(*name, label.clone())).copied().unwrap_or(0);
                (delta != 0).then(|| WindowTrackSample {
                    name,
                    label: label.clone(),
                    delta,
                    total,
                })
            })
            .collect();
        let levels = self
            .levels
            .iter()
            .map(|((name, label), &value)| WindowLevelSample {
                name,
                label: label.clone(),
                value,
            })
            .collect();
        self.base = self.counters.clone();
        let start_nanos = std::mem::replace(&mut self.edge, at);
        self.windows.push(WindowSample {
            index: self.windows.len() as u64,
            start_nanos,
            end_nanos: at,
            counters,
            levels,
        });
    }

    fn reset(&mut self) {
        *self = Model {
            edge: self.edge,
            ..Model::default()
        };
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|((name, label), &value)| CounterSample {
                    name,
                    label: label.clone(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|((name, label), &value)| GaugeSample {
                    name,
                    label: label.clone(),
                    value,
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|((name, label), h)| HistogramSample {
                    name,
                    label: label.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.nonzero_buckets(),
                })
                .collect(),
            events: self.events.iter().cloned().collect(),
            events_dropped: self.dropped,
            windows: self.windows.clone(),
            ..MetricsSnapshot::default()
        }
    }
}

/// Handles minted so far, by `(name, label)` slot; kept across resets.
#[derive(Default)]
struct Handles {
    counters: BTreeMap<(usize, usize), CounterId>,
    gauges: BTreeMap<(usize, usize), GaugeId>,
    levels: BTreeMap<(usize, usize), LevelId>,
    hists: BTreeMap<(usize, usize), HistId>,
    labels: BTreeMap<usize, TraceLabel>,
}

/// Decodes one random word into an operation and applies it to both
/// the recorder and the model.
fn apply(
    rec: &Recorder,
    model: &mut Model,
    h: &mut Handles,
    ctx: &mut Option<TraceCtx>,
    now: &mut u64,
    word: u64,
) {
    let (n, l) = (((word >> 8) % 2) as usize, ((word >> 12) % 3) as usize);
    let (name, label) = (NAMES[n], LABELS[l]);
    let key = (name, label.to_owned());
    let by_handle = (word >> 16) & 1 == 1;
    // Mostly small values so zero deltas and saturation are common.
    let value = match (word >> 20) % 8 {
        7 => word >> 40,
        v => v % 4,
    };
    match word % 13 {
        0 | 1 => {
            if by_handle {
                let id = *h
                    .counters
                    .entry((n, l))
                    .or_insert_with(|| rec.counter_id(name, label));
                rec.add(id, value);
            } else {
                rec.counter_add(name, label, value);
            }
            *model.counters.entry(key).or_insert(0) += value;
        }
        2 => {
            if by_handle {
                let id = *h
                    .gauges
                    .entry((n, l))
                    .or_insert_with(|| rec.gauge_id(name, label));
                rec.raise(id, value);
            } else {
                rec.gauge_max(name, label, value);
            }
            let g = model.gauges.entry(key).or_insert(0);
            *g = (*g).max(value);
        }
        3 => {
            if by_handle {
                let id = *h
                    .levels
                    .entry((n, l))
                    .or_insert_with(|| rec.level_id(name, label));
                rec.set(id, value);
            } else {
                rec.level_set(name, label, value);
            }
            model.levels.insert(key, value);
        }
        4 => {
            rec.level_add(name, label, value);
            *model.levels.entry(key).or_insert(0) += value;
        }
        5 => {
            rec.level_sub(name, label, value);
            let v = model.levels.entry(key).or_insert(0);
            *v = v.saturating_sub(value);
        }
        6 => {
            if by_handle {
                let id = *h
                    .hists
                    .entry((n, l))
                    .or_insert_with(|| rec.hist_id(name, label));
                rec.record(id, value);
            } else {
                rec.observe(name, label, value);
            }
            model.hists.entry(key).or_default().record(value);
        }
        7 => {
            // Mint without touching: must stay invisible until used.
            h.counters
                .entry((n, l))
                .or_insert_with(|| rec.counter_id(name, label));
            h.gauges
                .entry((n, l))
                .or_insert_with(|| rec.gauge_id(name, label));
            h.levels
                .entry((n, l))
                .or_insert_with(|| rec.level_id(name, label));
            h.hists
                .entry((n, l))
                .or_insert_with(|| rec.hist_id(name, label));
        }
        8 | 9 => {
            let at = SimTime::from_nanos(*now);
            let tl = *h.labels.entry(l).or_insert_with(|| rec.trace_label(label));
            *ctx = match (*ctx, (word >> 24) % 3) {
                (None, _) => {
                    model.event(None, "send", label, *now);
                    Some(if by_handle {
                        rec.trace_begin("t", tl, 1, at, 8)
                    } else {
                        rec.trace_begin("t", label, 1, at, 8)
                    })
                }
                (Some(c), 0) => {
                    model.event(Some(c), "drop", label, *now);
                    rec.trace_drop(c, "t", tl, 1, at, 8);
                    None
                }
                (Some(c), 1) => {
                    model.event(Some(c), "recv", label, *now);
                    Some(rec.trace_recv(c, "t", label, 1, at, 8))
                }
                (Some(c), _) => {
                    model.event(Some(c), "hop", label, *now);
                    Some(rec.trace_hop(c, "t", tl, 1, at, 8))
                }
            };
        }
        10 | 11 => {
            *now += 1 + value;
            rec.sample_window(SimTime::from_nanos(*now));
            model.sample(*now);
        }
        _ => {
            rec.reset();
            model.reset();
            // Sequence numbers restart, so an open trace is gone.
            *ctx = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn handles_and_strings_match_the_btreemap_reference(words in vec(any::<u64>(), 1..160)) {
        let rec = Recorder::new();
        rec.set_flight_capacity(FLIGHT);
        let mut model = Model::default();
        let mut handles = Handles::default();
        let mut ctx = None;
        let mut now = 0;
        for &word in &words {
            apply(&rec, &mut model, &mut handles, &mut ctx, &mut now, word);
            let (got, want) = (rec.snapshot(), model.snapshot());
            prop_assert_eq!(got.to_json(), want.to_json());
            prop_assert_eq!(timeline_csv(&got), timeline_csv(&want));
        }
    }
}

#[test]
fn a_handle_minted_before_reset_lands_in_the_same_key_after_it() {
    let rec = Recorder::new();
    let sent = rec.counter_id("channel.sent", "dma");
    rec.counter_id("channel.sent", "never");
    rec.add(sent, 3);
    rec.reset();
    assert_eq!(rec.snapshot().counter("channel.sent", "dma"), None);
    rec.add(sent, 0);
    rec.counter_add("channel.sent", "dma", 2);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("channel.sent", "dma"), Some(2));
    assert_eq!(snap.counter("channel.sent", "never"), None);
    assert_eq!(snap.counters.len(), 1);
}
