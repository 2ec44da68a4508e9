//! Property tests for the `.faults` text form: [`FaultPlan::parse`]
//! never panics, whatever the text, and every plan survives
//! `parse(render(plan))` unchanged.

use hydra_sim::fault::{FaultKind, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Tokens the grammar knows, near misses, and durations at and past the
/// edge of `u64` nanoseconds.
const TOKENS: [&str; 28] = [
    "seed",
    "at",
    "device",
    "crash",
    "stall",
    "loss-burst",
    "ring-exhaustion",
    "#",
    "0",
    "1",
    "7",
    "1ms",
    "500us",
    "3s",
    "0ns",
    "18446744073709551615ns",
    "18446744073709551616ns",
    "18446744073s",
    "20000000000s",
    "18446744073709552us",
    "18446744073709551615",
    "-1",
    "1.5ms",
    "ms",
    "s",
    "x",
    "melt",
    "\u{e9}\u{1f4a5}",
];

/// Durations, counts and faults for the slots of a well-formed line:
/// each list's first `VALID_*` entries are valid, the rest near misses.
const DURATIONS: [&str; 9] = [
    "0ns",
    "250us",
    "2ms",
    "18446744073s",
    "18446744073709551615ns",
    "20000000000s",
    "18446744073709552us",
    "5m",
    "ms",
];
const VALID_DURATIONS: usize = 5;
const COUNTS: [&str; 6] = ["0", "3", "18446744073709551615", "4294967296", "-2", "x"];
const VALID_COUNTS: usize = 2;
const FAULTS: [&str; 6] = [
    "crash",
    "stall",
    "loss-burst",
    "ring-exhaustion",
    "melt",
    "crash!",
];
const VALID_FAULTS: usize = 4;

/// Text of one line per pick: a `seed` line, an `at` line whose slots
/// are drawn from the lists above (each slot a near miss one time in
/// eight), a comment, or a soup of up to six tokens.
fn lines(picks: &[u64]) -> String {
    let mut text = String::new();
    for &p in picks {
        let bits = |shift: u32, n: usize| ((p >> shift) % n as u64) as usize;
        let slot = |list: &[&'static str], valid: usize, shift: u32| {
            if bits(shift, 8) == 0 {
                list[valid + bits(shift + 3, list.len() - valid)]
            } else {
                list[bits(shift + 3, valid)]
            }
        };
        match p % 5 {
            0 => text.push_str(&format!("seed {}", slot(&COUNTS, VALID_COUNTS, 4))),
            1 | 2 => {
                let fault = slot(&FAULTS, VALID_FAULTS, 10);
                text.push_str(&format!(
                    "at {} device {} {fault}",
                    slot(&DURATIONS, VALID_DURATIONS, 16),
                    slot(&COUNTS, VALID_COUNTS, 22)
                ));
                match fault {
                    "stall" => {
                        let duration = slot(&DURATIONS, VALID_DURATIONS, 28);
                        text.push_str(&format!(" {duration}"));
                    }
                    "loss-burst" | "ring-exhaustion" => {
                        text.push_str(&format!(" {}", slot(&COUNTS, VALID_COUNTS, 34)));
                    }
                    _ => {}
                }
                if p >> 60 == 0 {
                    text.push_str(" trailing");
                }
            }
            3 => text.push_str("# a comment, with at 1ms device 1 crash"),
            _ => {
                for i in 0..bits(8, 7) {
                    text.push_str(TOKENS[bits(12 + 5 * i as u32, TOKENS.len())]);
                    text.push(' ');
                }
            }
        }
        text.push(if (p >> 62) == 0 { '\t' } else { '\n' });
    }
    text
}

/// A plan with one event per `raw` value: the time, device and fault
/// kind are drawn from its bits, at scales from nanoseconds to the end
/// of time.
fn plan(seed: u64, raw: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &r in raw {
        let scale = [1, 1_000, 1_000_000, 1_000_000_000][(r % 4) as usize];
        let at = if r % 11 == 0 {
            SimTime::MAX
        } else {
            SimTime::ZERO + SimDuration::from_nanos((r >> 8) % 1_000_000 * scale)
        };
        let kind = match (r >> 40) % 4 {
            0 => FaultKind::Crash,
            1 => FaultKind::Stall {
                duration: SimDuration::from_nanos(r.rotate_left(17) >> ((r >> 2) % 64)),
            },
            2 => FaultKind::LossBurst {
                frames: (r >> 13) as u32,
            },
            _ => FaultKind::RingExhaustion {
                slots: (r >> 5) as usize,
            },
        };
        plan = plan.with_event(at, ((r >> 48) % 8) as usize, kind);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Grammar-shaped lines parse to a plan or a line-numbered error,
    /// never a panic; a parsed plan round-trips.
    #[test]
    fn grammar_shaped_text_never_panics(picks in proptest::collection::vec(any::<u64>(), 0..8)) {
        let text = lines(&picks);
        match FaultPlan::parse(&text) {
            Ok(plan) => prop_assert_eq!(FaultPlan::parse(&plan.render()), Ok(plan)),
            Err(e) => prop_assert!(e.line >= 1 && e.line <= text.lines().count()),
        }
    }

    /// Arbitrary printable text (newlines included) never panics.
    #[test]
    fn arbitrary_text_never_panics(text in "[ -~\n\t]{0,160}") {
        let _ = FaultPlan::parse(&text);
    }

    /// `parse(render(plan)) == plan`, and rendering is canonical.
    #[test]
    fn rendered_plans_parse_back(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let plan = plan(seed, &raw);
        let text = plan.render();
        let back = FaultPlan::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&plan), "{}", text);
        prop_assert_eq!(back.map(|p| p.render()), Ok(text));
    }
}
