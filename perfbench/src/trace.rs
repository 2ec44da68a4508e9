//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public function: name, start, end, the enclosing span and an
//! operation id. Self time (duration minus the time covered by child
//! spans) is folded into per-name totals as each span closes, so every
//! span counts however long the run; the span log itself keeps the first
//! [`LOG_CAP`] spans and is written out when the benchmark ends.
//!
//! Names starting with `bench.` mark the benchmark's own glue code; their
//! self time is what the attribution residual is made of.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in the written-out log.
pub const LOG_CAP: usize = 1 << 17;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start: u64,
    child_ns: u64,
    log: u32,
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    op: u64,
}

/// Per-name aggregate over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub self_ns: u64,
    /// Work units the caller attributed (messages, KiB, cache lines…).
    pub units: u64,
}

impl Total {
    /// Self nanoseconds per unit (per span when no units were given).
    pub fn ns_per_unit(&self) -> f64 {
        let base = if self.units > 0 {
            self.units
        } else {
            self.count
        };
        if base == 0 {
            0.0
        } else {
            self.self_ns as f64 / base as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    log: Vec<SpanRec>,
    unlogged: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            open: Vec::new(),
            log: Vec::new(),
            unlogged: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Switches recording on or off; only between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        let log = if self.log.len() < LOG_CAP {
            self.log.push(SpanRec {
                name,
                start,
                end: start,
                parent: self.open.last().map_or(NONE, |o| o.log),
                op,
            });
            (self.log.len() - 1) as u32
        } else {
            self.unlogged += 1;
            NONE
        };
        self.open.push(Open {
            name,
            start,
            child_ns: 0,
            log,
        });
    }

    /// Closes the innermost span, attributing `units` of work to it.
    pub fn exit(&mut self, units: u64) {
        if !self.on {
            return;
        }
        let end = self.now();
        let o = self.open.pop().expect("exit without enter");
        let dur = end - o.start;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.self_ns += dur.saturating_sub(o.child_ns);
        t.units += units;
        if o.log != NONE {
            self.log[o.log as usize].end = end;
        }
    }

    /// Closes every open span, as after an operation that failed midway.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit(0);
        }
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time of every span bracketing a layer call (all but glue).
    pub fn layer_self_ns(&self) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// The span log as JSON lines, plus a closing line with the per-name
    /// totals and the number of spans past the log's capacity.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.log.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start, s.end, s.op
            );
        }
        let totals: Vec<String> = self
            .totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"self_ns\": {}, \"units\": {}}}",
                    t.count, t.self_ns, t.units
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"unlogged_spans\": {}, \"totals\": {{{}}}}}",
            self.unlogged,
            totals.join(", ")
        );
        out
    }
}
