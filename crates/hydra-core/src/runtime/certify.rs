//! Certification: the static verifier as `create_offcode`'s pre-flight
//! gate, the full certification, and the [`Gate`] that lets the last
//! certification's verdict stand in for the gate's own verify.

use std::cell::RefCell;

use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::time::SimTime;
use hydra_verify::{Certification, CertifyInput, PassStat, Report, Severity, VerifyInput};

use super::Runtime;
use crate::error::RuntimeError;

/// The structural verdict of the last [`Runtime::certify_deployment`],
/// with the narrowed closure it was reached on, which
/// [`Runtime::create_offcode`] takes for the same root and closure
/// instead of verifying and copying the closure again.
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
    /// `order`'s depot ODFs with imports narrowed to `order`: the
    /// closure the passes read.
    odfs: Vec<OdfDocument>,
    /// What the gate reads of the four structural passes' report.
    outcome: GateOutcome,
}

/// What the gate records and decides from a structural report: the pass
/// statistics, the error and warning counts, and the rendered errors,
/// present only when there are errors.
#[derive(Debug)]
pub(super) struct GateOutcome {
    passes: Vec<PassStat>,
    errors: usize,
    warnings: usize,
    rendered_errors: Option<String>,
}

impl GateOutcome {
    /// The outcome of `report`.
    fn of(report: &Report) -> Self {
        let errors = report.count(Severity::Error);
        let rendered_errors = (errors > 0).then(|| {
            let rendered: Vec<String> = report.errors().map(ToString::to_string).collect();
            rendered.join("; ")
        });
        GateOutcome {
            passes: report.passes.clone(),
            errors,
            warnings: report.count(Severity::Warning),
            rendered_errors,
        }
    }
}

impl Verdict {
    fn is_for(&self, root: Guid, order: &[Guid]) -> bool {
        self.root == root && self.order == order
    }
}

impl Gate {
    /// Keeps `outcome` as the verdict on `root`'s closure `order`, whose
    /// narrowed ODFs are `odfs`.
    fn store(&self, root: Guid, order: Vec<Guid>, odfs: Vec<OdfDocument>, outcome: GateOutcome) {
        *self.0.borrow_mut() = Some(Verdict {
            root,
            order,
            odfs,
            outcome,
        });
    }

    /// Hands out the stored closure ODFs and outcome if they were stored
    /// for exactly `root`'s closure `order`, emptying the gate; on a miss
    /// the gate keeps what it holds.
    pub(super) fn take(
        &mut self,
        root: Guid,
        order: &[Guid],
    ) -> Option<(Vec<OdfDocument>, GateOutcome)> {
        let slot = self.0.get_mut();
        if !slot.as_ref()?.is_for(root, order) {
            return None;
        }
        let verdict = slot.take()?;
        Some((verdict.odfs, verdict.outcome))
    }

    /// Whether [`Gate::take`] would hit for `root`'s closure `order`.
    #[cfg(test)]
    pub(super) fn holds(&self, root: Guid, order: &[Guid]) -> bool {
        self.0
            .borrow()
            .as_ref()
            .is_some_and(|v| v.is_for(root, order))
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
    /// the four structural passes report an error. `certified` is the
    /// outcome a certification of this very closure reached with the same
    /// passes over the same inputs; it stands in for running them again.
    pub(super) fn verify_gate(
        &self,
        root: Guid,
        order: &[Guid],
        odfs: &[OdfDocument],
        certified: Option<GateOutcome>,
        now: SimTime,
    ) -> Result<(), RuntimeError> {
        let outcome = certified.unwrap_or_else(|| {
            self.with_verify_input(root, order, odfs, |input| {
                GateOutcome::of(&hydra_verify::verify(&input))
            })
        });
        self.record_verify_report(root, now, &outcome.passes, outcome.errors, outcome.warnings);
        match outcome.rendered_errors {
            Some(rendered) => Err(RuntimeError::Verification(rendered)),
            None => Ok(()),
        }
    }

    /// Feeds a verification/certification report's pass statistics and
    /// error and warning counts into the observability recorder.
    fn record_verify_report(
        &self,
        root: Guid,
        now: SimTime,
        passes: &[PassStat],
        errors: usize,
        warnings: usize,
    ) {
        let root_label = self
            .depot
            .get(&root)
            .map_or_else(String::new, |e| e.odf.bind_name.clone());
        let total_work: u64 = passes.iter().map(|p| p.work_units).sum();
        self.recorder
            .span("deploy.verify", &root_label, now, total_work);
        for pass in passes {
            self.recorder
                .counter_add("verify.pass_work", pass.name, pass.work_units);
            self.recorder
                .counter_add("verify.diagnostics", pass.name, pass.diagnostics as u64);
        }
        self.recorder
            .counter_add("verify.errors", "", errors as u64);
        self.recorder
            .counter_add("verify.warnings", "", warnings as u64);
    }

    /// Certifies the deployment closure of `guid` without deploying
    /// anything: the combined six-pass report plus the quantitative
    /// certificate (per-ring queue/latency bounds, per-chain latency,
    /// per-device utilization), costed from the live executive's
    /// provider table. The gate's outcome of the structural report and
    /// the narrowed closure are kept for the gate.
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
        let order = self.deployment_closure(guid)?;
        let odfs = self.narrowed_odfs(&order);
        let services = self.executive.service_table();
        let (cert, outcome) = self.with_verify_input(guid, &order, &odfs, |verify| {
            let structural = hydra_verify::structural(&verify);
            let outcome = GateOutcome::of(&structural.report);
            let input = CertifyInput {
                verify,
                services: &services,
                overlay: None,
            };
            (
                hydra_verify::certify_structural(structural, &input),
                outcome,
            )
        });
        let report = &cert.report;
        self.record_verify_report(
            guid,
            now,
            &report.passes,
            report.count(Severity::Error),
            report.count(Severity::Warning),
        );
        self.gate.store(guid, order, odfs, outcome);
        Ok(cert)
    }
}
