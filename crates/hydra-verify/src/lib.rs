//! Static deployment verifier for the HYDRA reproduction.
//!
//! `hydra-verify` analyses a set of ODF manifests plus a device table
//! *before* anything is linked or offloaded, and reports findings as
//! stable `HVxxx` diagnostics (see [`diag::HvCode`] for the catalog).
//! Six passes run in a fixed order; [`verify`] runs the first four, the
//! structural ones, and [`certify`] all six:
//!
//! 1. **manifest** — GUID/bind-name collisions, dangling/self/duplicate
//!    imports, target sets no installed device satisfies;
//! 2. **constraints** — Gang/AsymGang import cycles (SCC), contradictory
//!    parallel edges, Pull edges with disjoint feasible devices, gangs
//!    that drag an offloadable peer to the host;
//! 3. **capacity** — worst-case memory demand per device vs the device
//!    table (overcommit the greedy resolver would silently absorb);
//! 4. **channels** — the synchronous wait-for graph: static deadlock
//!    cycles and Offcodes unreachable from any deployment root;
//! 5. **flow** — arrival/service-curve propagation into per-ring queue
//!    and latency bounds, per-chain latency and per-device utilization
//!    (the [`Certificate`]);
//! 6. **rings** — unordered writers sharing a descriptor ring.
//!
//! The crate sits *below* `hydra-core` so the runtime can call
//! [`verify`] as a pre-flight gate; it therefore works on structural
//! mirrors ([`input::DeviceTable`], [`input::GraphView`]) rather than
//! runtime types. [`structural`] builds one [`input::GraphView`] per
//! deployment and every pass reads it: a GUID→node map, sorted
//! successor and importer lists, and per-node compatible device sets as
//! bitsets ([`index::DeviceSets`]). A pass builds a location, a name or a
//! message only for a finding it emits, so a clean deployment allocates
//! little beyond the index and the certificate. [`precheck::Precheck`] —
//! a sound narrowing fixpoint over feasible device sets — doubles as the
//! ILP infeasibility pre-check: when it proves the all-host placement is
//! the only feasible one, the branch-and-bound solve is skipped entirely.
//!
//! Output is deterministic end to end: diagnostics are sorted and
//! deduplicated, and [`diag::Report::to_json`] renders byte-identical
//! JSON for identical inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod flow;
pub mod index;
pub mod input;
pub mod precheck;
pub mod service;

mod capacity;
mod channels;
mod constraints;
mod manifest;
mod race;

use hydra_odf::odf::{Guid, OdfDocument};

pub use diag::{Diagnostic, HvCode, Loc, PassStat, Report, Severity};
pub use flow::{Certificate, ChainBound, ChannelBound, DeviceBound, FaultOverlay};
pub use input::{DeviceInfo, DeviceTable, GraphView};
pub use precheck::Precheck;
pub use service::{ServiceModel, ServiceTable};

/// Everything the verifier needs about a deployment.
#[derive(Debug, Clone, Copy)]
pub struct VerifyInput<'a> {
    /// The deployment set: every ODF that would be resolved together.
    pub odfs: &'a [OdfDocument],
    /// The installed devices (index 0 = host).
    pub devices: &'a DeviceTable,
    /// Per-ODF worst-case memory demand in bytes, parallel to `odfs`.
    /// `None` falls back to each ODF's declared footprint (or a default
    /// estimate) — the runtime passes real linked-object sizes here.
    pub demands: Option<&'a [u64]>,
    /// Deployment roots by GUID; `None` infers the nodes nothing imports.
    pub roots: Option<&'a [Guid]>,
}

/// The outcome of the four structural passes, plus the graph view and
/// feasibility fixpoint they built, which certification's quantitative
/// passes reuse.
#[derive(Debug)]
pub struct Structural<'a> {
    /// The manifest, constraints, capacity and channels findings.
    pub report: Report,
    /// The deployment's constraint graph and its index.
    pub view: GraphView<'a>,
    /// The narrowed per-node feasible device sets.
    pub pre: Precheck,
}

/// Runs the four structural passes (manifest, constraints, capacity,
/// channels) in order: the shared front of [`verify`] and [`certify`].
pub fn structural<'a>(input: &VerifyInput<'a>) -> Structural<'a> {
    let mut report = Report {
        diagnostics: Vec::new(),
        passes: Vec::with_capacity(6),
    };
    let view = GraphView::from_odfs(input.odfs, input.devices, input.demands);

    let (diags, work) = manifest::run(input.odfs, &view, input.devices);
    report.absorb("manifest", work, diags);

    let pre = Precheck::narrow(&view);

    let (diags, work) = constraints::run(&view, &pre);
    report.absorb("constraints", work + pre.rounds, diags);

    let (diags, work) = capacity::run(&view, input.devices);
    report.absorb("capacity", work, diags);

    let (diags, work) = channels::run(&view, input.roots);
    report.absorb("channels", work, diags);

    Structural { report, view, pre }
}

/// Runs every verifier pass over the deployment and returns the combined
/// report. Never panics on malformed sets: imports that do not resolve
/// are reported by the manifest pass and skipped by the graph passes.
pub fn verify(input: &VerifyInput<'_>) -> Report {
    structural(input).report
}

/// Everything quantitative certification needs beyond [`VerifyInput`].
#[derive(Debug, Clone, Copy)]
pub struct CertifyInput<'a> {
    /// The structural verification input.
    pub verify: VerifyInput<'a>,
    /// The provider service curves and device constants — exported by
    /// the Channel Executive so analysis and runtime share one cost
    /// table.
    pub services: &'a ServiceTable,
    /// A committed fault plan's disruption budget; widens the
    /// certificate's latency/utilization bounds without changing the
    /// diagnostics.
    pub overlay: Option<&'a FaultOverlay>,
}

/// A certification result: the combined report of all six passes plus
/// the quantitative certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certification {
    /// Every diagnostic from the structural and quantitative passes.
    pub report: Report,
    /// The derived queue/latency/utilization bounds.
    pub certificate: Certificate,
}

/// Runs the four structural passes plus the quantitative **flow** pass
/// (arrival/service-curve propagation: HV040–HV044) and the **rings**
/// pass (ring-sharing race detection: HV050–HV051), returning the
/// combined report and the bound certificate.
pub fn certify(input: &CertifyInput<'_>) -> Certification {
    certify_structural(structural(&input.verify), input)
}

/// Finishes a certification from the structural passes' outcome on
/// `input.verify`: runs the flow and rings passes over its graph view and
/// fixpoint and appends their findings to its report.
pub fn certify_structural(structural: Structural<'_>, input: &CertifyInput<'_>) -> Certification {
    let Structural {
        mut report,
        view,
        pre,
    } = structural;

    let (diags, work, certificate) = flow::run(
        &view,
        &pre,
        input.services,
        input.verify.devices,
        input.verify.roots,
        input.overlay,
    );
    report.absorb("flow", work, diags);

    let (diags, work) = race::run(&view, &pre);
    report.absorb("rings", work, diags);

    Certification {
        report,
        certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Import};

    fn table() -> DeviceTable {
        DeviceTable {
            devices: vec![
                DeviceInfo {
                    class: class_ids::HOST_CPU,
                    name: "host".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 256 << 20,
                },
                DeviceInfo {
                    class: class_ids::NETWORK,
                    name: "nic".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 2 << 20,
                },
                DeviceInfo {
                    class: class_ids::GPU,
                    name: "gpu".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 16 << 20,
                },
            ],
        }
    }

    fn import(name: &str, guid: Guid, kind: ConstraintKind) -> Import {
        Import {
            file: String::new(),
            bind_name: name.into(),
            guid,
            constraint: kind,
            priority: 0,
        }
    }

    fn clean_set() -> Vec<OdfDocument> {
        vec![
            OdfDocument::new("app.Source", Guid(1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
                .with_import(import("app.Sink", Guid(2), ConstraintKind::Pull)),
            OdfDocument::new("app.Sink", Guid(2))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        ]
    }

    #[test]
    fn clean_deployment_verifies_clean() {
        let odfs = clean_set();
        let report = verify(&VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: None,
            roots: None,
        });
        assert!(!report.has_errors(), "{}", report.render_human());
        assert_eq!(report.passes.len(), 4);
        assert_eq!(
            report.passes.iter().map(|p| p.name).collect::<Vec<_>>(),
            vec!["manifest", "constraints", "capacity", "channels"]
        );
    }

    #[test]
    fn gang_back_edge_fires_hv010() {
        let mut odfs = clean_set();
        odfs[0].imports[0].constraint = ConstraintKind::Gang;
        odfs[1] = odfs[1]
            .clone()
            .with_import(import("app.Source", Guid(1), ConstraintKind::Gang));
        let report = verify(&VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: None,
            roots: None,
        });
        assert!(report.errors().any(|d| d.code == HvCode::GangCycle));
    }

    #[test]
    fn disjoint_pull_fires_hv012() {
        let mut odfs = clean_set();
        odfs[1].targets = vec![DeviceClassSpec::numbered(class_ids::GPU)];
        let report = verify(&VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: None,
            roots: None,
        });
        assert!(report.errors().any(|d| d.code == HvCode::DisjointPull));
    }

    #[test]
    fn overcommit_fires_hv020() {
        let odfs: Vec<OdfDocument> = (0..3)
            .map(|i| {
                OdfDocument::new(format!("fat.{i}"), Guid(10 + i))
                    .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
                    .with_footprint(1 << 20)
            })
            .collect();
        let report = verify(&VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: None,
            roots: None,
        });
        assert!(report.errors().any(|d| d.code == HvCode::DeviceOvercommit));
    }

    #[test]
    fn explicit_demands_override_footprints() {
        let odfs = clean_set();
        // Two offcodes pinned to the 2 MiB NIC, 1.5 MiB each.
        let demands = vec![3 << 19, 3 << 19];
        let report = verify(&VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: Some(&demands),
            roots: None,
        });
        assert!(report.errors().any(|d| d.code == HvCode::DeviceOvercommit));
    }

    #[test]
    fn report_json_is_byte_identical_across_runs() {
        let odfs = clean_set();
        let input = VerifyInput {
            odfs: &odfs,
            devices: &table(),
            demands: None,
            roots: None,
        };
        assert_eq!(verify(&input).to_json(), verify(&input).to_json());
    }

    #[test]
    fn certify_runs_six_passes_and_emits_bounds() {
        use hydra_odf::odf::TrafficSpec;
        let mut odfs = clean_set();
        odfs[0] = odfs[0].clone().with_traffic(TrafficSpec {
            rate_per_sec: 5_000,
            burst: 2,
            max_bytes: 1_500,
        });
        let services = ServiceTable::conservative_default();
        let cert = certify(&CertifyInput {
            verify: VerifyInput {
                odfs: &odfs,
                devices: &table(),
                demands: None,
                roots: None,
            },
            services: &services,
            overlay: None,
        });
        assert!(!cert.report.has_errors(), "{}", cert.report.render_human());
        assert_eq!(
            cert.report
                .passes
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>(),
            vec![
                "manifest",
                "constraints",
                "capacity",
                "channels",
                "flow",
                "rings"
            ]
        );
        let bound = cert.certificate.channel("app.Sink").unwrap();
        assert!(bound.stable);
        assert!(bound.latency_bound_ns.is_some());
    }
}
