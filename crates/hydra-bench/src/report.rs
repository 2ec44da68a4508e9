//! Shared serializer for the committed `BENCH_*.json` reports.
//!
//! Every bench report (`BENCH_channel.json`, `BENCH_engine.json`,
//! `BENCH_crossover.json`) goes through [`render`], so they share one
//! wire format:
//!
//! * a leading `"schema"` version field ([`SCHEMA_VERSION`]), so a
//!   future layout change can be detected instead of silently
//!   mis-diffed;
//! * **one key per line** inside every object. That layout is what lets
//!   the artifact gate byte-diff only the *deterministic* fields of a
//!   report: wall-clock keys carry a `wall_` prefix, and `grep -v '"wall_'` (or
//!   [`sim_fields`]) strips exactly those lines, leaving a byte-stable
//!   rest;
//! * integers and strings only — no floats, no locale, no hash-order.
//!
//! The workspace vendors no serde, so values are pre-rendered JSON
//! fragments built with [`num`] / [`text`].

use std::fmt::Write as _;

use hydra_obs::json_str;

/// Version of the report layout. Bump when the shape changes.
pub const SCHEMA_VERSION: u32 = 1;

/// One `"key": value` line; the value is already-rendered JSON.
pub type Field = (&'static str, String);

/// Renders an integer field.
#[must_use]
pub fn num(key: &'static str, value: u64) -> Field {
    (key, value.to_string())
}

/// Renders a string field.
#[must_use]
pub fn text(key: &'static str, value: &str) -> Field {
    (key, json_str(value))
}

/// A bench report: name, flat config object, list of scenario objects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Report name (the `"bench"` field).
    pub bench: &'static str,
    /// The `"config"` object, in emission order.
    pub config: Vec<Field>,
    /// The `"scenarios"` array, one field list per scenario.
    pub scenarios: Vec<Vec<Field>>,
}

fn push_fields(out: &mut String, fields: &[Field], indent: &str) {
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        let _ = writeln!(out, "{indent}\"{key}\": {value}{comma}");
    }
}

/// Renders the report: stable key order, one key per line, trailing
/// newline — two runs with identical field values are byte-identical.
#[must_use]
pub fn render(report: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"bench\": \"{}\",", report.bench);
    out.push_str("  \"config\": {\n");
    push_fields(&mut out, &report.config, "    ");
    out.push_str("  },\n  \"scenarios\": [\n");
    for (i, scenario) in report.scenarios.iter().enumerate() {
        out.push_str("    {\n");
        push_fields(&mut out, scenario, "      ");
        out.push_str(if i + 1 == report.scenarios.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Strips every line holding a `wall_`-prefixed key — the report's
/// nondeterministic wall-clock measurements — leaving only the fields
/// two runs must reproduce byte-for-byte; `grep -v '"wall_'` is the
/// same filter in a shell.
#[must_use]
pub fn sim_fields(rendered: &str) -> String {
    let mut out = String::with_capacity(rendered.len());
    for line in rendered.lines().filter(|line| !line.contains("\"wall_")) {
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Reads a named integer field back out of a rendered report (the first
/// occurrence). Lets gates assert on committed headline numbers without
/// a JSON parser.
#[must_use]
pub fn read_u64(rendered: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = rendered.split(&needle).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            bench: "sample",
            config: vec![num("items", 3), text("mode", "fast")],
            scenarios: vec![
                vec![
                    text("name", "a"),
                    num("events", 10),
                    num("wall_elapsed_ns", 12345),
                ],
                vec![text("name", "b"), num("events", 20)],
            ],
        }
    }

    #[test]
    fn round_trips_schema_and_fields() {
        let rendered = render(&sample());
        assert_eq!(read_u64(&rendered, "schema"), Some(SCHEMA_VERSION.into()));
        assert_eq!(read_u64(&rendered, "events"), Some(10));
        assert_eq!(read_u64(&rendered, "wall_elapsed_ns"), Some(12345));
        assert!(rendered.contains("\"bench\": \"sample\""));
        assert!(rendered.contains("\"mode\": \"fast\""));
    }

    #[test]
    fn sim_fields_drops_exactly_the_wall_lines() {
        let rendered = render(&sample());
        let filtered = sim_fields(&rendered);
        assert!(!filtered.contains("wall_elapsed_ns"));
        assert!(filtered.contains("\"events\": 10"));
        // Deterministic rest is unchanged by re-rendering with a
        // different wall-clock measurement.
        let mut other = sample();
        other.scenarios[0][2] = num("wall_elapsed_ns", 999);
        assert_eq!(filtered, sim_fields(&render(&other)));
        assert_ne!(rendered, render(&other));
    }

    #[test]
    fn one_key_per_line_keeps_grep_filter_valid_json_shape() {
        let rendered = render(&sample());
        for (key, _) in &sample().config {
            assert_eq!(
                rendered
                    .lines()
                    .filter(|l| l.contains(&format!("\"{key}\"")))
                    .count(),
                1
            );
        }
        assert!(rendered.ends_with("}\n"));
    }
}
