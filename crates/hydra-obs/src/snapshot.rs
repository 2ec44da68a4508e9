//! The serializable, ordering-stable metrics report.
//!
//! A [`MetricsSnapshot`] is a plain-data rendering of a
//! [`Recorder`](crate::Recorder)'s registry: counters, gauges and
//! histograms sorted by `(name, label)`, spans in record order. Both the
//! `Display` form and [`MetricsSnapshot::to_json`] are hand-rolled and
//! deterministic — two identical executions produce byte-identical text,
//! which the determinism tests assert.

use std::fmt;

use crate::histogram::quantile_from_buckets;
use crate::timeline::WindowSample;

/// One counter value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// One high-water gauge value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Largest value observed.
    pub value: u64,
}

/// One histogram rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Observation count.
    pub count: u64,
    /// Observation sum (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty power-of-two buckets as `(inclusive bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSample {
    /// Estimates the `pct`-th percentile (`0..=100`) by bucket-bound
    /// interpolation, matching [`crate::Histogram::quantile`]; `None`
    /// when empty.
    pub fn quantile(&self, pct: u64) -> Option<u64> {
        quantile_from_buckets(
            self.buckets.iter().copied(),
            self.count,
            self.min,
            self.max,
            pct,
        )
    }

    /// Median estimate ([`HistogramSample::quantile`] at 50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(50)
    }

    /// 95th-percentile estimate ([`HistogramSample::quantile`] at 95).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(95)
    }

    /// 99th-percentile estimate ([`HistogramSample::quantile`] at 99).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(99)
    }
}

/// One span rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSample {
    /// Record order.
    pub seq: u64,
    /// Parent span's `seq`, if nested.
    pub parent: Option<u64>,
    /// Static span name.
    pub name: &'static str,
    /// Instance label.
    pub label: String,
    /// Simulation timestamp in nanoseconds.
    pub at_nanos: u64,
    /// Modeled work units.
    pub work_units: u64,
}

/// One causal trace event rendering (see [`crate::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventSample {
    /// Event id (record order across all traces).
    pub id: u64,
    /// The trace (logical request) this event belongs to.
    pub trace: u64,
    /// The causally preceding event's id, if any.
    pub parent: Option<u64>,
    /// Event kind: `"send"`, `"hop"`, `"recv"` or `"drop"`.
    pub kind: &'static str,
    /// Static event name.
    pub name: &'static str,
    /// Instance label (e.g. the provider name).
    pub label: String,
    /// Device the event happened on (0 = host).
    pub device: u64,
    /// Simulation timestamp in nanoseconds.
    pub at_nanos: u64,
    /// Payload bytes associated with the event.
    pub bytes: u64,
}

/// One size bucket of a channel's live cost profile: payloads in
/// `(bucket/2, bucket]` bytes with their observed-latency quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileBucketSample {
    /// Bucket upper bound in bytes (power of two).
    pub bucket_bytes: u64,
    /// Messages observed in this bucket.
    pub count: u64,
    /// Median observed latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile observed latency in nanoseconds.
    pub p99_ns: u64,
}

/// One channel's live cost profile, as published by the runtime into
/// its metrics snapshot: the observed price of the channel (per size
/// bucket) next to the provider decision history, so online selection
/// is auditable from the same report as everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelProfileSample {
    /// The channel's stable label (`chan#N`).
    pub label: String,
    /// The currently active provider.
    pub provider: String,
    /// Whether the channel re-selects its provider online.
    pub adaptive: bool,
    /// Epoch-boundary provider switches performed so far.
    pub switches: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Doorbells rung.
    pub doorbells: u64,
    /// Accumulated fixed launch charges, in nanoseconds.
    pub launch_overhead_ns: u64,
    /// EWMA of observed latency, in nanoseconds.
    pub ewma_latency_ns: u64,
    /// Observed throughput over the active span (0 until known).
    pub throughput_bytes_per_sec: u64,
    /// Observed latency quantiles per size bucket, ascending.
    pub buckets: Vec<ProfileBucketSample>,
}

/// A full metrics report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by `(name, label)`.
    pub counters: Vec<CounterSample>,
    /// High-water gauges, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
    /// Spans, in record order.
    pub spans: Vec<SpanSample>,
    /// Flight-recorder trace events, in record order (oldest retained
    /// first — the ring drops oldest on overflow).
    pub events: Vec<TraceEventSample>,
    /// Events the bounded flight recorder had to evict; non-zero means
    /// `events` is a suffix of the true history.
    pub events_dropped: u64,
    /// Telemetry windows closed by the sampler, in time order (empty
    /// unless a [`crate::Sampler`] ran or
    /// [`crate::Recorder::sample_window`] was called).
    pub windows: Vec<WindowSample>,
    /// Live per-channel cost profiles, ascending by label (empty unless
    /// the producer publishes them — the runtime's `metrics_snapshot`
    /// does).
    pub channels: Vec<ChannelProfileSample>,
}

impl MetricsSnapshot {
    /// Looks up a counter value.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
    }

    /// Sums every counter with `name`, across labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str, label: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label == label)
            .map(|g| g.value)
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
    }

    /// All spans with `name`, in record order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanSample> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// All trace events of one trace, in record order.
    pub fn trace_events(&self, trace: u64) -> Vec<&TraceEventSample> {
        self.events.iter().filter(|e| e.trace == trace).collect()
    }

    /// All trace events of a given kind (`"send"`, `"hop"`, `"recv"`,
    /// `"drop"`), in record order.
    pub fn events_kind(&self, kind: &str) -> Vec<&TraceEventSample> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Renders the snapshot as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"label\":{},\"value\":{}}}",
                json_str(c.name),
                json_str(&c.label),
                c.value
            ));
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"label\":{},\"value\":{}}}",
                json_str(g.name),
                json_str(&g.label),
                g.value
            ));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_str(h.name),
                json_str(&h.label),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{le},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "{{\"seq\":{},\"parent\":{},\"name\":{},\"label\":{},\"at_nanos\":{},\"work_units\":{}}}",
                s.seq,
                parent,
                json_str(s.name),
                json_str(&s.label),
                s.at_nanos,
                s.work_units
            ));
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match e.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "{{\"id\":{},\"trace\":{},\"parent\":{},\"kind\":{},\"name\":{},\"label\":{},\"device\":{},\"at_nanos\":{},\"bytes\":{}}}",
                e.id,
                e.trace,
                parent,
                json_str(e.kind),
                json_str(e.name),
                json_str(&e.label),
                e.device,
                e.at_nanos,
                e.bytes
            ));
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"start_nanos\":{},\"end_nanos\":{},\"counters\":[",
                w.index, w.start_nanos, w.end_nanos
            ));
            for (j, t) in w.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"label\":{},\"delta\":{},\"total\":{}}}",
                    json_str(t.name),
                    json_str(&t.label),
                    t.delta,
                    t.total
                ));
            }
            out.push_str("],\"levels\":[");
            for (j, l) in w.levels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"label\":{},\"value\":{}}}",
                    json_str(l.name),
                    json_str(&l.label),
                    l.value
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"channels\":[");
        for (i, ch) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"provider\":{},\"adaptive\":{},\"switches\":{},\"messages\":{},\"bytes\":{},\"doorbells\":{},\"launch_overhead_ns\":{},\"ewma_latency_ns\":{},\"throughput_bytes_per_sec\":{},\"buckets\":[",
                json_str(&ch.label),
                json_str(&ch.provider),
                ch.adaptive,
                ch.switches,
                ch.messages,
                ch.bytes,
                ch.doorbells,
                ch.launch_overhead_ns,
                ch.ewma_latency_ns,
                ch.throughput_bytes_per_sec
            ));
            for (j, b) in ch.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"bucket_bytes\":{},\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                    b.bucket_bytes, b.count, b.p50_ns, b.p99_ns
                ));
            }
            out.push_str("]}");
        }
        out.push_str(&format!("],\"events_dropped\":{}}}", self.events_dropped));
        out
    }
}

/// A JSON string literal for `s`, quotes included: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` get their short escapes, and
/// every other control character a `\u` escape. Every JSON renderer in
/// the workspace escapes its strings through this one function.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics snapshot")?;
        if !self.counters.is_empty() {
            writeln!(f, "  counters:")?;
            for c in &self.counters {
                writeln!(f, "    {}{{{}}} = {}", c.name, c.label, c.value)?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "  gauges (high-water):")?;
            for g in &self.gauges {
                writeln!(f, "    {}{{{}}} = {}", g.name, g.label, g.value)?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "  histograms:")?;
            for h in &self.histograms {
                writeln!(
                    f,
                    "    {}{{{}}}: count={} sum={} min={} max={}",
                    h.name, h.label, h.count, h.sum, h.min, h.max
                )?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "  spans:")?;
            for s in &self.spans {
                let indent = if s.parent.is_some() { "      " } else { "    " };
                writeln!(
                    f,
                    "{indent}[{}] {} ({}) at={}ns work={}",
                    s.seq, s.name, s.label, s.at_nanos, s.work_units
                )?;
            }
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            writeln!(f, "  trace events (flight recorder):")?;
            for e in &self.events {
                let parent = match e.parent {
                    Some(p) => format!("<-{p}"),
                    None => "root".to_owned(),
                };
                writeln!(
                    f,
                    "    [{}] t{} {} {} ({}) dev={} at={}ns bytes={} {}",
                    e.id, e.trace, e.kind, e.name, e.label, e.device, e.at_nanos, e.bytes, parent
                )?;
            }
            if self.events_dropped > 0 {
                writeln!(f, "    ({} older events dropped)", self.events_dropped)?;
            }
        }
        if !self.windows.is_empty() {
            writeln!(f, "  telemetry windows:")?;
            for w in &self.windows {
                writeln!(
                    f,
                    "    [{}] {}..{} ns: {} counter tracks, {} levels",
                    w.index,
                    w.start_nanos,
                    w.end_nanos,
                    w.counters.len(),
                    w.levels.len()
                )?;
            }
        }
        if !self.channels.is_empty() {
            writeln!(f, "  channel cost profiles:")?;
            for ch in &self.channels {
                writeln!(
                    f,
                    "    {} via {}{}: msgs={} bytes={} doorbells={} launch={}ns ewma={}ns switches={}",
                    ch.label,
                    ch.provider,
                    if ch.adaptive { " (adaptive)" } else { "" },
                    ch.messages,
                    ch.bytes,
                    ch.doorbells,
                    ch.launch_overhead_ns,
                    ch.ewma_latency_ns,
                    ch.switches
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_str("r\rt\tu\u{1f}é"), "\"r\\rt\\tu\\u001fé\"");
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = MetricsSnapshot::default();
        assert_eq!(
            s.to_json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],\"spans\":[],\"events\":[],\"windows\":[],\"channels\":[],\"events_dropped\":0}"
        );
    }

    #[test]
    fn lookup_helpers() {
        let s = MetricsSnapshot {
            counters: vec![
                CounterSample {
                    name: "c",
                    label: "a".into(),
                    value: 2,
                },
                CounterSample {
                    name: "c",
                    label: "b".into(),
                    value: 3,
                },
            ],
            ..Default::default()
        };
        assert_eq!(s.counter("c", "a"), Some(2));
        assert_eq!(s.counter("c", "z"), None);
        assert_eq!(s.counter_total("c"), 5);
    }
}
