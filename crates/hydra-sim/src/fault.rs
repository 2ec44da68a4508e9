//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] is a sim-time schedule of device faults — crashes,
//! transient firmware stalls, link loss-bursts, and descriptor-ring
//! exhaustion — that device models consume through per-device
//! [`FaultInjector`]s. Everything is a pure function of the plan's seed
//! and event list: the stall jitter is drawn from a [`DetRng`] stream
//! split per device *at construction time*, so two injectors built from
//! the same plan behave byte-identically no matter how they are queried.
//!
//! Plans have a canonical text form (see [`FaultPlan::parse`] /
//! [`FaultPlan::render`]) so a schedule can be committed to the repo and
//! replayed by CI:
//!
//! ```text
//! # NIC dies two milliseconds in.
//! seed 42
//! at 500us device 1 stall 200us
//! at 1ms device 1 loss-burst 3
//! at 2ms device 1 crash
//! ```

use std::fmt;

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Extra stall time drawn per stall event, as a fraction of the declared
/// duration: jitter is uniform in `[0, duration / JITTER_DIVISOR]`.
const JITTER_DIVISOR: u64 = 8;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device dies and never comes back (fail-stop).
    Crash,
    /// The device's firmware stalls: work arriving inside the stall
    /// window pays the remaining window (plus deterministic jitter) as
    /// extra latency.
    Stall {
        /// Nominal length of the stall window.
        duration: SimDuration,
    },
    /// The next `frames` receive frames are lost on the wire.
    LossBurst {
        /// How many consecutive frames to drop.
        frames: u32,
    },
    /// `slots` descriptor-ring slots are wedged from this instant on,
    /// shrinking the usable ring.
    RingExhaustion {
        /// How many ring slots become unusable.
        slots: usize,
    },
}

impl FaultKind {
    /// Stable keyword used in the schedule text form.
    fn keyword(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall { .. } => "stall",
            FaultKind::LossBurst { .. } => "loss-burst",
            FaultKind::RingExhaustion { .. } => "ring-exhaustion",
        }
    }
}

/// One scheduled fault: `kind` strikes `device` at sim-time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// Registry index of the afflicted device.
    pub device: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A schedule-parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// 1-based line number in the schedule text.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault schedule line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FaultParseError {}

/// A deterministic sim-time fault schedule for a whole device registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given jitter seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The jitter seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, sorted by `(at, device)` insertion-stably.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event, keeping the schedule sorted by `(at, device)`.
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self
            .events
            .partition_point(|e| (e.at, e.device) <= (event.at, event.device));
        self.events.insert(pos, event);
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with_event(mut self, at: SimTime, device: usize, kind: FaultKind) -> Self {
        self.push(FaultEvent { at, device, kind });
        self
    }

    /// Parses the canonical text form. Blank lines and `#` comments are
    /// ignored; the grammar per line is either `seed <n>` or
    /// `at <dur> device <n> crash|stall <dur>|loss-burst <n>|ring-exhaustion <n>`
    /// where `<dur>` is an integer with an `ns`/`us`/`ms`/`s` suffix.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, FaultParseError> {
        let mut plan = FaultPlan::new(0);
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let bad = |message: String| FaultParseError { line, message };
            let stripped = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let tokens: Vec<&str> = stripped.split_whitespace().collect();
            if tokens.is_empty() {
                continue;
            }
            match tokens[0] {
                "seed" => {
                    let [_, value] = tokens[..] else {
                        return Err(bad("expected `seed <n>`".into()));
                    };
                    plan.seed = value
                        .parse()
                        .map_err(|_| bad(format!("bad seed {value:?}")))?;
                }
                "at" => {
                    if tokens.len() < 5 || tokens[2] != "device" {
                        return Err(bad("expected `at <dur> device <n> <fault> [arg]`".into()));
                    }
                    let at = SimTime::ZERO + parse_duration(tokens[1]).map_err(&bad)?;
                    let device: usize = tokens[3]
                        .parse()
                        .map_err(|_| bad(format!("bad device index {:?}", tokens[3])))?;
                    let kind = match (tokens[4], tokens.get(5)) {
                        ("crash", None) => FaultKind::Crash,
                        ("stall", Some(d)) => FaultKind::Stall {
                            duration: parse_duration(d).map_err(&bad)?,
                        },
                        ("loss-burst", Some(n)) => FaultKind::LossBurst {
                            frames: n
                                .parse()
                                .map_err(|_| bad(format!("bad frame count {n:?}")))?,
                        },
                        ("ring-exhaustion", Some(n)) => FaultKind::RingExhaustion {
                            slots: n
                                .parse()
                                .map_err(|_| bad(format!("bad slot count {n:?}")))?,
                        },
                        (other, _) => {
                            return Err(bad(format!("unknown or malformed fault {other:?}")));
                        }
                    };
                    if tokens.len()
                        > if matches!(kind, FaultKind::Crash) {
                            5
                        } else {
                            6
                        }
                    {
                        return Err(bad("trailing tokens after fault".into()));
                    }
                    plan.push(FaultEvent { at, device, kind });
                }
                other => {
                    return Err(bad(format!("unknown directive {other:?}")));
                }
            }
        }
        Ok(plan)
    }

    /// Renders the canonical text form; `parse(render())` round-trips.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("seed {}\n", self.seed);
        for e in &self.events {
            out.push_str(&format!(
                "at {} device {} {}",
                render_duration(e.at.duration_since(SimTime::ZERO)),
                e.device,
                e.kind.keyword()
            ));
            match e.kind {
                FaultKind::Crash => {}
                FaultKind::Stall { duration } => {
                    out.push(' ');
                    out.push_str(&render_duration(duration));
                }
                FaultKind::LossBurst { frames } => {
                    out.push_str(&format!(" {frames}"));
                }
                FaultKind::RingExhaustion { slots } => {
                    out.push_str(&format!(" {slots}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Builds the injector for one device. All jitter is drawn here, from
    /// a stream split off `(seed, device)`, so the injector's answers are
    /// pure functions of `now` (except the explicitly stateful loss-burst
    /// credits).
    #[must_use]
    pub fn injector(&self, device: usize) -> FaultInjector {
        let mut rng = DetRng::new(self.seed).split(device as u64);
        let mut crash_at = None;
        let mut stalls = Vec::new();
        let mut bursts = Vec::new();
        let mut rings = Vec::new();
        for e in self.events.iter().filter(|e| e.device == device) {
            match e.kind {
                FaultKind::Crash => {
                    if crash_at.is_none() {
                        crash_at = Some(e.at);
                    }
                }
                FaultKind::Stall { duration } => {
                    let jitter_bound = duration.as_nanos() / JITTER_DIVISOR;
                    let jitter = SimDuration::from_nanos(if jitter_bound == 0 {
                        0
                    } else {
                        rng.next_below(jitter_bound + 1)
                    });
                    // A hostile plan may place the window at the end of
                    // time; the stall then simply never ends.
                    let end = e.at.saturating_add(duration).saturating_add(jitter);
                    stalls.push((e.at, end));
                }
                FaultKind::LossBurst { frames } => {
                    bursts.push((e.at, frames));
                }
                FaultKind::RingExhaustion { slots } => {
                    rings.push((e.at, slots));
                }
            }
        }
        FaultInjector {
            device,
            crash_at,
            stalls,
            bursts,
            rings,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn parse_duration(token: &str) -> Result<SimDuration, String> {
    let (digits, mult) = if let Some(d) = token.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = token.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = token.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = token.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        return Err(format!("duration {token:?} needs an ns/us/ms/s suffix"));
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration {token:?}"))?;
    let nanos = value
        .checked_mul(mult)
        .ok_or_else(|| format!("duration {token:?} overflows u64 nanoseconds"))?;
    Ok(SimDuration::from_nanos(nanos))
}

fn render_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0ns".into()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// The per-device view of a [`FaultPlan`], queried by a device model on
/// its hot paths. Built by [`FaultPlan::injector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjector {
    device: usize,
    crash_at: Option<SimTime>,
    /// Half-open stall windows `[start, end)`, jitter already applied.
    stalls: Vec<(SimTime, SimTime)>,
    /// Loss bursts as `(start, remaining credits)`.
    bursts: Vec<(SimTime, u32)>,
    /// Ring exhaustion as `(start, wedged slots)`.
    rings: Vec<(SimTime, usize)>,
}

impl FaultInjector {
    /// An injector that never fires (for devices outside the plan).
    #[must_use]
    pub fn inert(device: usize) -> Self {
        FaultPlan::new(0).injector(device)
    }

    /// Which device this injector watches.
    #[must_use]
    pub fn device(&self) -> usize {
        self.device
    }

    /// Whether the device has fail-stopped by `now`.
    #[must_use]
    pub fn crashed(&self, now: SimTime) -> bool {
        self.crash_at.is_some_and(|at| at <= now)
    }

    /// When the device crashes, if the plan ever kills it.
    #[must_use]
    pub fn crash_time(&self) -> Option<SimTime> {
        self.crash_at
    }

    /// Extra latency work arriving at `now` must absorb: the remainder of
    /// the longest active stall window (zero outside all windows).
    #[must_use]
    pub fn stall_penalty(&self, now: SimTime) -> SimDuration {
        self.stalls
            .iter()
            .filter(|&&(start, end)| start <= now && now < end)
            .map(|&(_, end)| end.duration_since(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Consumes one loss-burst credit if a burst that started at or
    /// before `now` still has frames left; `true` means the caller must
    /// drop the frame. This is the injector's only stateful query.
    pub fn drop_frame(&mut self, now: SimTime) -> bool {
        for (start, remaining) in &mut self.bursts {
            if *start <= now && *remaining > 0 {
                *remaining -= 1;
                return true;
            }
        }
        false
    }

    /// How many descriptor-ring slots are wedged at `now` (summed over
    /// all ring-exhaustion events that have struck, saturating: no ring
    /// has `usize::MAX` slots to lose).
    #[must_use]
    pub fn wedged_slots(&self, now: SimTime) -> usize {
        self.rings
            .iter()
            .filter(|&&(start, _)| start <= now)
            .fold(0, |sum, &(_, slots)| sum.saturating_add(slots))
    }

    /// Whether any fault at all is active or pending — lets hot paths
    /// skip fault bookkeeping entirely for inert injectors.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.crash_at.is_none()
            && self.stalls.is_empty()
            && self.bursts.is_empty()
            && self.rings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> FaultPlan {
        FaultPlan::new(42)
            .with_event(SimTime::from_millis(2), 1, FaultKind::Crash)
            .with_event(
                SimTime::from_micros(500),
                1,
                FaultKind::Stall {
                    duration: SimDuration::from_micros(200),
                },
            )
            .with_event(
                SimTime::from_millis(1),
                1,
                FaultKind::LossBurst { frames: 3 },
            )
            .with_event(
                SimTime::from_millis(1),
                3,
                FaultKind::RingExhaustion { slots: 8 },
            )
    }

    #[test]
    fn events_stay_sorted() {
        let plan = demo_plan();
        let keys: Vec<(SimTime, usize)> = plan.events().iter().map(|e| (e.at, e.device)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn render_parse_round_trip() {
        let plan = demo_plan();
        let text = plan.render();
        let back = FaultPlan::parse(&text).expect("canonical text parses");
        assert_eq!(back, plan);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let text = "# a schedule\n\nseed 7\nat 1ms device 2 crash # boom\n";
        let plan = FaultPlan::parse(text).expect("parses");
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.events(),
            &[FaultEvent {
                at: SimTime::from_millis(1),
                device: 2,
                kind: FaultKind::Crash
            }]
        );
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = FaultPlan::parse("seed 1\nat 1ms device 2 melt\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("melt"), "{}", err.message);
        let err = FaultPlan::parse("at 1m device 2 crash\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("suffix"), "{}", err.message);
    }

    #[test]
    fn overflowing_durations_are_rejected() {
        for text in [
            "seed 1\nat 20000000000s device 1 crash\n",
            "seed 1\nat 1ms device 1 stall 18446744073709552ms\n",
            "seed 1\nat 18446744073709552us device 1 crash\n",
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("overflows"), "{}", err.message);
        }
        // The largest representable durations still parse.
        let plan = FaultPlan::parse("at 18446744073s device 1 stall 18446744073709ms\n")
            .expect("in range");
        assert_eq!(
            plan.events()[0].at,
            SimTime::from_millis(18_446_744_073_000)
        );
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = demo_plan();
        let a = plan.injector(1);
        let b = plan.injector(1);
        assert_eq!(a, b);
        // Different seed → different stall jitter (with overwhelming
        // probability for this seed pair).
        let other = FaultPlan::parse(&demo_plan().render().replacen("42", "43", 1))
            .expect("parses")
            .injector(1);
        assert_eq!(other.crash_time(), a.crash_time());
    }

    #[test]
    fn stall_windows_saturate_at_the_end_of_time() {
        let at_end = FaultPlan::parse("seed 1\nat 18446744073709551615ns device 1 stall 1s\n")
            .expect("parses")
            .injector(1);
        assert!(at_end.stall_penalty(SimTime::MAX).is_zero(), "empty window");
        let endless = FaultPlan::parse("seed 1\nat 1ms device 1 stall 18446744073709551615ns\n")
            .expect("parses")
            .injector(1);
        assert_eq!(
            endless.stall_penalty(SimTime::from_millis(2)),
            SimTime::MAX.duration_since(SimTime::from_millis(2)),
            "the window runs to the end of time"
        );
    }

    #[test]
    fn wedged_slots_saturate() {
        let plan = "seed 1\nat 1ms device 1 ring-exhaustion 18446744073709551615\n\
                    at 2ms device 1 ring-exhaustion 18446744073709551615\n";
        let inj = FaultPlan::parse(plan).expect("parses").injector(1);
        assert_eq!(inj.wedged_slots(SimTime::from_millis(2)), usize::MAX);
    }

    #[test]
    fn crash_and_stall_queries() {
        let inj = demo_plan().injector(1);
        assert!(!inj.crashed(SimTime::from_micros(1_999)));
        assert!(inj.crashed(SimTime::from_millis(2)));
        assert_eq!(inj.crash_time(), Some(SimTime::from_millis(2)));
        // Inside the stall window the penalty is positive and shrinks as
        // `now` advances; outside it is zero.
        let p0 = inj.stall_penalty(SimTime::from_micros(500));
        let p1 = inj.stall_penalty(SimTime::from_micros(600));
        assert!(p0 >= SimDuration::from_micros(200));
        assert!(p1 < p0);
        assert!(p0 <= SimDuration::from_micros(200 + 200 / 8));
        assert!(inj.stall_penalty(SimTime::from_micros(100)).is_zero());
        assert!(inj.stall_penalty(SimTime::from_millis(1)).is_zero());
    }

    #[test]
    fn loss_burst_credits_are_consumed() {
        let mut inj = demo_plan().injector(1);
        let t = SimTime::from_millis(1);
        assert!(!inj.drop_frame(SimTime::from_micros(999)));
        assert!(inj.drop_frame(t));
        assert!(inj.drop_frame(t));
        assert!(inj.drop_frame(t));
        assert!(!inj.drop_frame(t));
    }

    #[test]
    fn ring_exhaustion_accumulates() {
        let plan = demo_plan().with_event(
            SimTime::from_millis(3),
            3,
            FaultKind::RingExhaustion { slots: 4 },
        );
        let inj = plan.injector(3);
        assert_eq!(inj.wedged_slots(SimTime::ZERO), 0);
        assert_eq!(inj.wedged_slots(SimTime::from_millis(1)), 8);
        assert_eq!(inj.wedged_slots(SimTime::from_millis(3)), 12);
    }

    #[test]
    fn inert_injector() {
        let inj = FaultInjector::inert(5);
        assert!(inj.is_inert());
        assert!(!inj.crashed(SimTime::from_secs(100)));
        assert!(!demo_plan().injector(1).is_inert());
    }
}
