//! Certification: the static verifier as `create_offcode`'s pre-flight
//! gate, the full certification, and the [`Gate`] that lets the last
//! certification's verdict stand in for the gate's own verify.

use std::cell::RefCell;

use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::time::SimTime;
use hydra_verify::{Certification, CertifyInput, Report, Severity, VerifyInput};

use super::Runtime;
use crate::error::RuntimeError;

/// The structural verdict of the last [`Runtime::certify_deployment`],
/// which [`Runtime::create_offcode`]'s gate reuses for the same root and
/// closure.
///
/// The verdict is keyed by `(root, order)` and never goes stale: every
/// input of the four structural passes is fixed by that key. They read
/// `order`'s ODFs narrowed to `order` (the depot never replaces or
/// removes an entry), demands from `order`'s depot objects (each built
/// once), the device table (fixed at [`Runtime::new`]) and `[root]`. A
/// change to the deployed set that matters changes `order` itself. The
/// provider table is not an input: only the quantitative passes, which
/// the gate does not run, read it.
#[derive(Debug, Default)]
pub(super) struct Gate(RefCell<Option<Verdict>>);

#[derive(Debug)]
struct Verdict {
    root: Guid,
    order: Vec<Guid>,
    /// The four structural passes' report.
    report: Report,
}

impl Gate {
    /// Keeps `report` as the verdict on `root`'s closure `order`.
    fn store(&self, root: Guid, order: &[Guid], report: Report) {
        *self.0.borrow_mut() = Some(Verdict {
            root,
            order: order.to_vec(),
            report,
        });
    }

    /// The stored verdict on `root`'s closure `order`, if one was stored
    /// for exactly that closure.
    pub(super) fn lookup(&self, root: Guid, order: &[Guid]) -> Option<Report> {
        let verdict = self.0.borrow();
        let verdict = verdict.as_ref()?;
        (verdict.root == root && verdict.order == order).then(|| verdict.report.clone())
    }
}

impl Runtime {
    /// Calls `f` with the verifier's input for `root`'s closure `order`
    /// and its narrowed `odfs`: the registry's device table, and the real
    /// load sizes of the depot's objects as demands, not the ODF
    /// estimates.
    fn with_verify_input<T>(
        &self,
        root: Guid,
        order: &[Guid],
        odfs: &[OdfDocument],
        f: impl FnOnce(VerifyInput<'_>) -> T,
    ) -> T {
        let demands: Vec<u64> = order
            .iter()
            .map(|g| u64::from(self.depot[g].object().load_size()))
            .collect();
        let roots = [root];
        f(VerifyInput {
            odfs,
            devices: self.devices.table(),
            demands: Some(&demands),
            roots: Some(&roots),
        })
    }

    /// `create_offcode`'s pre-flight gate: rejects `root`'s closure if
    /// the four structural passes report an error. A certification of
    /// this very closure ran the same passes over the same inputs, so
    /// its verdict stands in for running them again.
    pub(super) fn verify_gate(
        &self,
        root: Guid,
        order: &[Guid],
        odfs: &[OdfDocument],
        now: SimTime,
    ) -> Result<(), RuntimeError> {
        let report = match self.gate.lookup(root, order) {
            Some(report) => report,
            None => self.with_verify_input(root, order, odfs, |input| hydra_verify::verify(&input)),
        };
        self.record_verify_report(root, now, &report);
        if report.has_errors() {
            let rendered: Vec<String> = report.errors().map(ToString::to_string).collect();
            return Err(RuntimeError::Verification(rendered.join("; ")));
        }
        Ok(())
    }

    /// Feeds a verification/certification report's pass statistics into
    /// the observability recorder.
    fn record_verify_report(&self, root: Guid, now: SimTime, report: &Report) {
        let root_label = self
            .depot
            .get(&root)
            .map_or_else(String::new, |e| e.odf.bind_name.clone());
        let total_work: u64 = report.passes.iter().map(|p| p.work_units).sum();
        self.recorder
            .span("deploy.verify", &root_label, now, total_work);
        for pass in &report.passes {
            self.recorder
                .counter_add("verify.pass_work", pass.name, pass.work_units);
            self.recorder
                .counter_add("verify.diagnostics", pass.name, pass.diagnostics as u64);
        }
        self.recorder
            .counter_add("verify.errors", "", report.count(Severity::Error) as u64);
        self.recorder.counter_add(
            "verify.warnings",
            "",
            report.count(Severity::Warning) as u64,
        );
    }

    /// Certifies the deployment closure of `guid` without deploying
    /// anything: the combined six-pass report plus the quantitative
    /// certificate (per-ring queue/latency bounds, per-chain latency,
    /// per-device utilization), costed from the live executive's
    /// provider table. The structural report is kept for the gate.
    ///
    /// # Errors
    ///
    /// Fails only if an Offcode in the closure is missing from the
    /// depot.
    pub fn certify_deployment(
        &self,
        guid: Guid,
        now: SimTime,
    ) -> Result<Certification, RuntimeError> {
        let (order, odfs) = self.deployment_closure(guid)?;
        let services = self.executive.service_table();
        let (cert, structural_report) = self.with_verify_input(guid, &order, &odfs, |verify| {
            let structural = hydra_verify::structural(&verify);
            let report = structural.report.clone();
            let input = CertifyInput {
                verify,
                services: &services,
                overlay: None,
            };
            (hydra_verify::certify_structural(structural, &input), report)
        });
        self.record_verify_report(guid, now, &cert.report);
        self.gate.store(guid, &order, structural_report);
        Ok(cert)
    }
}
