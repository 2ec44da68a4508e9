//! The diagnostics model: stable error codes, severities, source
//! locations, and the deterministic [`Report`] the passes fill in.
//!
//! Every finding a pass can make has a stable `HVxxx` code with a fixed
//! severity, so CI gates, tests, and suppression lists can match on the
//! code rather than on message text. A [`Report`] renders both as
//! human-readable lines and as canonical JSON: diagnostics are sorted by
//! (code, location, message) and every map is ordered, so identical
//! inputs produce byte-identical output.

use hydra_obs::json_str;
use hydra_odf::odf::Guid;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks deployment.
    Info,
    /// Suspicious but deployable; the resolver will cope (usually by
    /// silently falling back to the host).
    Warning,
    /// Provably broken: deployment is rejected by the pre-flight gate.
    Error,
}

impl Severity {
    /// The lowercase rendering used in JSON and human output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The catalog of verifier findings. Codes are append-only: a code's
/// number, meaning, and severity never change once released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HvCode {
    /// HV001 — two ODFs in the set share a GUID.
    DuplicateGuid,
    /// HV002 — an import references a GUID that is not in the set.
    DanglingImport,
    /// HV003 — an ODF imports its own GUID.
    SelfImport,
    /// HV004 — two ODFs in the set share a bind name.
    DuplicateBindName,
    /// HV005 — an ODF imports the same peer GUID more than once with the
    /// same constraint kind.
    DuplicateImport,
    /// HV006 — an ODF declares no target device classes: it can only ever
    /// run on the host CPU.
    HostOnlyTargets,
    /// HV007 — a declared device-class spec matches no installed device.
    UnsatisfiableTargetSpec,
    /// HV008 — an ODF declares targets, but none of them matches any
    /// installed device: every deployment will silently use the host.
    NoFeasibleDevice,
    /// HV009 — a fixture/manifest file could not be parsed as ODF XML.
    ParseError,
    /// HV010 — a cycle of Gang/AsymGang constraints: the offload-coupling
    /// relation is circular, so no import order satisfies the two-phase
    /// initialize/start protocol and the gang can wedge as a unit.
    GangCycle,
    /// HV011 — parallel edges between the same Offcode pair carry
    /// different constraint kinds; the strictest silently wins.
    ConflictingEdges,
    /// HV012 — a Pull edge whose endpoints share no feasible non-host
    /// device: the constraint is only satisfiable by pinning both to the
    /// host, defeating the declared offload intent.
    DisjointPull,
    /// HV013 — a Gang edge where one endpoint has no feasible device
    /// (after constraint propagation), dragging the other to the host.
    GangForcedHost,
    /// HV020 — the Offcodes that can *only* run on one device together
    /// demand more memory than the device has: someone is guaranteed to
    /// fall back to the host, silently.
    DeviceOvercommit,
    /// HV021 — the worst-case demand of every Offcode compatible with a
    /// device exceeds its capacity (overcommit possible, not guaranteed).
    PotentialOvercommit,
    /// HV022 — an Offcode's own footprint exceeds the capacity of every
    /// device it targets: it will always load on the host.
    OversizedOffcode,
    /// HV030 — a directed cycle in the synchronous wait-for graph built
    /// from import edges: a static deadlock once every member blocks on
    /// its downstream call.
    ChannelDeadlock,
    /// HV031 — an Offcode in the set is not reachable from any deployment
    /// root: it will never be instantiated by this set.
    UnreachableOffcode,
    /// HV040 — the worst-case queue depth derived from the declared
    /// arrival curves exceeds the descriptor-ring capacity: ring
    /// exhaustion is statically provable.
    QueueBoundExceedsRing,
    /// HV041 — a channel's aggregate arrival rate exceeds its worst-case
    /// service rate: the backlog grows without bound, so no finite queue
    /// or latency bound exists.
    UnstableChannel,
    /// HV042 — a device's certified sustained utilization exceeds 1000‰:
    /// the declared load cannot be served even with a perfect schedule.
    UtilizationOverrun,
    /// HV043 — a device's certified sustained utilization exceeds 800‰:
    /// deployable, but any widening (faults, bursts) tips it over.
    UtilizationHigh,
    /// HV044 — an Offcode with outgoing calls declares no `<traffic>`
    /// element; certification substituted the conservative default curve.
    DefaultedTraffic,
    /// HV050 — two Offcodes post to the same descriptor ring with no
    /// ordering edge between them and placements that can differ: the
    /// writers can interleave mid-descriptor.
    RingWriteRace,
    /// HV051 — unordered writers share a ring but every placement pins
    /// them to the same device: posts serialize in steady state, yet a
    /// migration transient can alias the live endpoint.
    MigrationAliasRace,
}

impl HvCode {
    /// The stable `HVxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            HvCode::DuplicateGuid => "HV001",
            HvCode::DanglingImport => "HV002",
            HvCode::SelfImport => "HV003",
            HvCode::DuplicateBindName => "HV004",
            HvCode::DuplicateImport => "HV005",
            HvCode::HostOnlyTargets => "HV006",
            HvCode::UnsatisfiableTargetSpec => "HV007",
            HvCode::NoFeasibleDevice => "HV008",
            HvCode::ParseError => "HV009",
            HvCode::GangCycle => "HV010",
            HvCode::ConflictingEdges => "HV011",
            HvCode::DisjointPull => "HV012",
            HvCode::GangForcedHost => "HV013",
            HvCode::DeviceOvercommit => "HV020",
            HvCode::PotentialOvercommit => "HV021",
            HvCode::OversizedOffcode => "HV022",
            HvCode::ChannelDeadlock => "HV030",
            HvCode::UnreachableOffcode => "HV031",
            HvCode::QueueBoundExceedsRing => "HV040",
            HvCode::UnstableChannel => "HV041",
            HvCode::UtilizationOverrun => "HV042",
            HvCode::UtilizationHigh => "HV043",
            HvCode::DefaultedTraffic => "HV044",
            HvCode::RingWriteRace => "HV050",
            HvCode::MigrationAliasRace => "HV051",
        }
    }

    /// The code's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            HvCode::DuplicateGuid
            | HvCode::DanglingImport
            | HvCode::SelfImport
            | HvCode::ParseError
            | HvCode::GangCycle
            | HvCode::DisjointPull
            | HvCode::DeviceOvercommit
            | HvCode::ChannelDeadlock
            | HvCode::QueueBoundExceedsRing
            | HvCode::UnstableChannel
            | HvCode::UtilizationOverrun
            | HvCode::RingWriteRace => Severity::Error,
            HvCode::DuplicateBindName
            | HvCode::DuplicateImport
            | HvCode::UnsatisfiableTargetSpec
            | HvCode::NoFeasibleDevice
            | HvCode::ConflictingEdges
            | HvCode::GangForcedHost
            | HvCode::PotentialOvercommit
            | HvCode::OversizedOffcode
            | HvCode::UnreachableOffcode
            | HvCode::UtilizationHigh
            | HvCode::MigrationAliasRace => Severity::Warning,
            HvCode::HostOnlyTargets | HvCode::DefaultedTraffic => Severity::Info,
        }
    }

    /// A one-line summary of what the code means.
    pub fn title(self) -> &'static str {
        match self {
            HvCode::DuplicateGuid => "duplicate GUID",
            HvCode::DanglingImport => "unresolved import",
            HvCode::SelfImport => "self-import",
            HvCode::DuplicateBindName => "duplicate bind name",
            HvCode::DuplicateImport => "duplicate import",
            HvCode::HostOnlyTargets => "host-only target set",
            HvCode::UnsatisfiableTargetSpec => "unsatisfiable device-class spec",
            HvCode::NoFeasibleDevice => "no feasible device",
            HvCode::ParseError => "manifest parse error",
            HvCode::GangCycle => "gang constraint cycle",
            HvCode::ConflictingEdges => "conflicting constraint edges",
            HvCode::DisjointPull => "pull endpoints share no device",
            HvCode::GangForcedHost => "gang forces peer to host",
            HvCode::DeviceOvercommit => "device class overcommitted",
            HvCode::PotentialOvercommit => "device class potentially overcommitted",
            HvCode::OversizedOffcode => "offcode exceeds every target's memory",
            HvCode::ChannelDeadlock => "synchronous channel deadlock cycle",
            HvCode::UnreachableOffcode => "unreachable offcode",
            HvCode::QueueBoundExceedsRing => "worst-case queue exceeds ring capacity",
            HvCode::UnstableChannel => "arrival rate exceeds worst-case service rate",
            HvCode::UtilizationOverrun => "device utilization bound over 1000 permille",
            HvCode::UtilizationHigh => "device utilization bound over 800 permille",
            HvCode::DefaultedTraffic => "traffic curve defaulted",
            HvCode::RingWriteRace => "unordered writers share a descriptor ring",
            HvCode::MigrationAliasRace => "migration can alias a live ring endpoint",
        }
    }
}

/// Where a diagnostic points: an ODF bind name, a graph node or edge, or
/// a device-table entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Loc {
    /// The whole manifest set.
    Set,
    /// One ODF, by bind name.
    Odf {
        /// Bind name of the manifest.
        bind_name: String,
    },
    /// One import inside an ODF.
    Import {
        /// Bind name of the importer.
        bind_name: String,
        /// Bind name (or GUID rendering) of the imported peer.
        import: String,
    },
    /// A node of the layout graph.
    Node {
        /// The node's index in the graph.
        index: usize,
        /// The node's bind name.
        bind_name: String,
    },
    /// An edge of the layout graph.
    Edge {
        /// Source bind name.
        from: String,
        /// Destination bind name.
        to: String,
    },
    /// A device-table entry.
    Device {
        /// The device's index in the table.
        index: usize,
        /// The device's diagnostic name.
        name: String,
    },
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Set => f.write_str("<set>"),
            Loc::Odf { bind_name } => write!(f, "odf:{bind_name}"),
            Loc::Import { bind_name, import } => write!(f, "odf:{bind_name}/import:{import}"),
            Loc::Node { index, bind_name } => write!(f, "node#{index}:{bind_name}"),
            Loc::Edge { from, to } => write!(f, "edge:{from}->{to}"),
            Loc::Device { index, name } => write!(f, "device#{index}:{name}"),
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code (which also fixes the severity).
    pub code: HvCode,
    /// The GUID of the Offcode the finding is primarily about, when one
    /// exists. Used as the second sort key so multi-pass output stays
    /// byte-stable even when passes are reordered.
    pub subject: Option<Guid>,
    /// Where it points.
    pub loc: Loc,
    /// The specific finding, human-readable.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: HvCode, loc: Loc, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            subject: None,
            loc,
            message: message.into(),
        }
    }

    /// Attaches the GUID of the Offcode this finding is about.
    pub fn for_subject(mut self, guid: Guid) -> Self {
        self.subject = Some(guid);
        self
    }

    /// The diagnostic's severity (derived from the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} at {}: {}",
            self.severity(),
            self.code.code(),
            self.code.title(),
            self.loc,
            self.message
        )
    }
}

/// Per-pass accounting, surfaced into `hydra-obs` by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// The pass name (`manifest`, `constraints`, `capacity`, `channels`,
    /// `flow`, `rings`).
    pub name: &'static str,
    /// Diagnostics the pass emitted.
    pub diagnostics: usize,
    /// Modeled work: nodes + edges + specs the pass visited.
    pub work_units: u64,
}

/// The verifier's output: every diagnostic from every pass, plus the
/// per-pass statistics, in a deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings, sorted by (code, location, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pass accounting, in pass execution order.
    pub passes: Vec<PassStat>,
}

impl Report {
    /// Merges a pass's diagnostics into the report and records its stat.
    pub fn absorb(&mut self, name: &'static str, work_units: u64, mut diags: Vec<Diagnostic>) {
        self.passes.push(PassStat {
            name,
            diagnostics: diags.len(),
            work_units,
        });
        self.diagnostics.append(&mut diags);
        self.normalize();
    }

    /// Restores the canonical ordering (sorted, deduplicated). The key is
    /// (code, subject guid, location, message): subject-less diagnostics
    /// sort ahead of subject-bearing ones within a code.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let ka = (a.code, a.subject.map(|g| g.0), &a.loc, &a.message);
            let kb = (b.code, b.subject.map(|g| g.0), &b.loc, &b.message);
            ka.cmp(&kb)
        });
        self.diagnostics.dedup();
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// A one-line summary ("2 errors, 1 warning" or "clean").
    pub fn summary(&self) -> String {
        let e = self.count(Severity::Error);
        let w = self.count(Severity::Warning);
        if e == 0 && w == 0 {
            "clean".to_owned()
        } else {
            format!("{e} error(s), {w} warning(s)")
        }
    }

    /// Renders the report as stable, human-readable lines.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!("verify: {}\n", self.summary()));
        out
    }

    /// Renders the report as canonical JSON. Identical reports render to
    /// byte-identical strings: diagnostics are pre-sorted, all fields are
    /// emitted in a fixed order, and strings are escaped deterministically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let subject = match d.subject {
                None => String::new(),
                Some(g) => format!("\"subject\":{},", g.0),
            };
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",{}\"loc\":{},\"message\":{}}}",
                d.code.code(),
                d.severity(),
                subject,
                json_str(&d.loc.to_string()),
                json_str(&d.message)
            ));
        }
        out.push_str("],\"passes\":[");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"diagnostics\":{},\"work_units\":{}}}",
                p.name, p.diagnostics, p.work_units
            ));
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            HvCode::DuplicateGuid,
            HvCode::DanglingImport,
            HvCode::SelfImport,
            HvCode::DuplicateBindName,
            HvCode::DuplicateImport,
            HvCode::HostOnlyTargets,
            HvCode::UnsatisfiableTargetSpec,
            HvCode::NoFeasibleDevice,
            HvCode::ParseError,
            HvCode::GangCycle,
            HvCode::ConflictingEdges,
            HvCode::DisjointPull,
            HvCode::GangForcedHost,
            HvCode::DeviceOvercommit,
            HvCode::PotentialOvercommit,
            HvCode::OversizedOffcode,
            HvCode::ChannelDeadlock,
            HvCode::UnreachableOffcode,
            HvCode::QueueBoundExceedsRing,
            HvCode::UnstableChannel,
            HvCode::UtilizationOverrun,
            HvCode::UtilizationHigh,
            HvCode::DefaultedTraffic,
            HvCode::RingWriteRace,
            HvCode::MigrationAliasRace,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(!c.title().is_empty());
        }
    }

    #[test]
    fn report_orders_and_counts() {
        let mut r = Report::default();
        r.absorb(
            "manifest",
            3,
            vec![
                Diagnostic::new(HvCode::GangCycle, Loc::Set, "b"),
                Diagnostic::new(HvCode::DuplicateGuid, Loc::Set, "a"),
                Diagnostic::new(HvCode::DuplicateGuid, Loc::Set, "a"),
            ],
        );
        assert_eq!(r.diagnostics.len(), 2, "duplicates collapse");
        assert_eq!(r.diagnostics[0].code, HvCode::DuplicateGuid);
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 2);
        assert_eq!(r.summary(), "2 error(s), 0 warning(s)");
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = Report::default();
        r.absorb(
            "manifest",
            1,
            vec![Diagnostic::new(
                HvCode::ParseError,
                Loc::Set,
                "bad \"quote\"\nnewline",
            )],
        );
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\"quote\\\""));
        assert!(a.contains("\\n"));
        assert!(a.contains("\"errors\":1"));
    }

    #[test]
    fn clean_report_summary() {
        let r = Report::default();
        assert_eq!(r.summary(), "clean");
        assert!(!r.has_errors());
    }

    #[test]
    fn ordering_is_pass_order_independent() {
        // The same findings absorbed in opposite pass order must render
        // byte-identically: the sort key is (code, subject, loc, message),
        // never discovery order.
        let d1 =
            Diagnostic::new(HvCode::QueueBoundExceedsRing, Loc::Set, "ring b").for_subject(Guid(9));
        let d2 =
            Diagnostic::new(HvCode::QueueBoundExceedsRing, Loc::Set, "ring a").for_subject(Guid(2));
        let d3 = Diagnostic::new(HvCode::RingWriteRace, Loc::Set, "pair").for_subject(Guid(1));

        let mut fwd = Report::default();
        fwd.absorb("flow", 1, vec![d1.clone(), d2.clone()]);
        fwd.absorb("rings", 1, vec![d3.clone()]);

        let mut rev = Report::default();
        rev.absorb("flow", 1, vec![d3, d2, d1]);

        assert_eq!(fwd.diagnostics, rev.diagnostics);
        assert_eq!(fwd.diagnostics[0].subject, Some(Guid(2)));
        let json = fwd.to_json();
        assert!(json.contains("\"subject\":2"));
    }
}
