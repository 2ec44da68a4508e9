//! `repro -- certify` — quantitative deployment certification.
//!
//! Where [`lint`](crate::lint) runs the structural verifier passes,
//! this sub-command runs the full six-pass certification: structure
//! plus the flow pass (arrival/service-curve propagation into
//! worst-case queue-depth, latency and utilization bounds, HV040–HV044)
//! and the ring-sharing race pass (HV050–HV051). Service curves come
//! from [`hydra_tivo::certify_service_table`] — the Channel Executive's
//! own exported cost tables — so the certificate and the runtime can
//! never disagree on message costs.
//!
//! With no arguments the three built-in sets (`demo`, `tivo`, `stats`)
//! are certified; the `stats` set carries its committed fault plan's
//! disruption overlay, so its bounds are already widened for the
//! faulted variant. Arguments name either a built-in set or a
//! deployment-file path (the `lint` file format). Output is canonical
//! JSON — diagnostics plus the bound certificate — byte-identical
//! across runs over the same inputs.

use hydra_obs::json_str;
use hydra_tivo::certify::{certify_service_table, certify_set};
use hydra_verify::{Certification, CertifyInput, Severity, VerifyInput};

use crate::lint::{check_deployment_file, testbed_table};

/// One certified deployment: a name (built-in set or file path) and the
/// six-pass certification for it.
#[derive(Debug, Clone)]
pub struct CertifyResult {
    /// Built-in set name (`demo`, `tivo`, `stats`) or the file path as
    /// given on the command line.
    pub name: String,
    /// The combined report and bound certificate.
    pub certification: Certification,
}

pub(crate) fn certify_odfs(
    odfs: &[hydra_odf::odf::OdfDocument],
    overlay: Option<&hydra_verify::FaultOverlay>,
) -> Certification {
    let table = testbed_table();
    let services = certify_service_table();
    hydra_verify::certify(&CertifyInput {
        verify: VerifyInput {
            odfs,
            devices: &table,
            demands: None,
            roots: None,
        },
        services: &services,
        overlay,
    })
}

/// Certifies one deployment file from disk. Unreadable files and parse
/// failures become `HV009` diagnostics in a `parse` pass, never a
/// panic; whatever parsed is still certified.
pub fn certify_file(path: &str) -> CertifyResult {
    CertifyResult {
        name: path.to_owned(),
        certification: check_deployment_file(
            path,
            |odfs| certify_odfs(odfs, None),
            |c| &mut c.report,
        ),
    }
}

/// Certifies the built-in declared-traffic sets: the demo pipeline, the
/// TiVo client, and the synthetic stats-scenario set (under its
/// committed fault overlay).
#[must_use]
pub fn certify_builtin() -> Vec<CertifyResult> {
    ["demo", "tivo", "stats"]
        .into_iter()
        .map(|name| {
            let (odfs, overlay) = certify_set(name).expect("built-in certify set");
            CertifyResult {
                name: name.to_owned(),
                certification: certify_odfs(&odfs, overlay.as_ref()),
            }
        })
        .collect()
}

/// Certifies the named built-in sets and/or deployment files; with no
/// arguments, all three built-in sets.
#[must_use]
pub fn run_certify(args: &[&str]) -> Vec<CertifyResult> {
    if args.is_empty() {
        return certify_builtin();
    }
    args.iter()
        .map(|arg| match certify_set(arg) {
            Some((odfs, overlay)) => CertifyResult {
                name: (*arg).to_owned(),
                certification: certify_odfs(&odfs, overlay.as_ref()),
            },
            None => certify_file(arg),
        })
        .collect()
}

/// True when any certified deployment has an error-severity diagnostic
/// — the condition under which `repro -- certify` exits non-zero.
#[must_use]
pub fn any_errors(results: &[CertifyResult]) -> bool {
    results.iter().any(|r| r.certification.report.has_errors())
}

/// Renders the combined results as canonical JSON — the diagnostics
/// report plus the quantitative certificate per deployment,
/// deterministic for a given input set.
#[must_use]
pub fn render_json(results: &[CertifyResult]) -> String {
    let mut out = String::from("{\"deployments\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"summary\":{},\"report\":{},\"certificate\":{}}}",
            json_str(&r.name),
            json_str(&r.certification.report.summary()),
            r.certification.report.to_json(),
            r.certification.certificate.to_json()
        ));
    }
    let errors: usize = results
        .iter()
        .map(|r| r.certification.report.count(Severity::Error))
        .sum();
    let warnings: usize = results
        .iter()
        .map(|r| r.certification.report.count(Severity::Warning))
        .sum();
    out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
    out
}

/// Renders the results as human-readable lines: the verifier findings
/// followed by the certificate's per-ring and per-device bounds.
#[must_use]
pub fn render_human(results: &[CertifyResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("== {} ==\n", r.name));
        out.push_str(&r.certification.report.render_human());
        for c in &r.certification.certificate.channels {
            let latency = c
                .latency_bound_ns
                .map_or_else(|| "unbounded".to_owned(), |v| format!("{v} ns"));
            out.push_str(&format!(
                "ring {}: writers {}, queue <= {}/{}, latency <= {}\n",
                c.bind_name, c.writers, c.queue_bound, c.ring_capacity, latency
            ));
        }
        for d in &r.certification.certificate.devices {
            out.push_str(&format!(
                "device {} ({}): utilization <= {} permille\n",
                d.index, d.name, d.permille
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_sets_certify_clean() {
        let results = certify_builtin();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                !r.certification.report.has_errors(),
                "{} must certify clean: {}",
                r.name,
                r.certification.report.render_human()
            );
            assert!(!r.certification.certificate.channels.is_empty());
        }
    }

    #[test]
    fn certify_json_is_deterministic() {
        assert_eq!(
            render_json(&certify_builtin()),
            render_json(&certify_builtin())
        );
    }

    #[test]
    fn named_sets_and_missing_files_dispatch() {
        let results = run_certify(&["demo", "/nonexistent/deployment.xml"]);
        assert_eq!(results.len(), 2);
        assert!(!results[0].certification.report.has_errors());
        assert!(results[1].certification.report.has_errors());
        assert!(any_errors(&results));
    }

    #[test]
    fn human_rendering_carries_the_bounds() {
        let text = render_human(&run_certify(&["demo"]));
        assert!(text.contains("ring tivo.Decoder"));
        assert!(text.contains("utilization <="));
    }
}
