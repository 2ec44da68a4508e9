//! `repro -- lint` — static verification of deployments.
//!
//! With no arguments the built-in deployments are linted (the
//! observability demo plus the TiVo client and server ODF sets), each
//! against the full simulated testbed (host + programmable NIC + smart
//! disk + GPU). With paths, each file is parsed as either a single
//! `<offcode>` ODF or a `<deployment>` wrapper holding several
//! `<offcode>` children, and linted as one ODF set. Files that fail to
//! parse produce an `HV009` error diagnostic instead of aborting the
//! run.
//!
//! Output is the verifier's canonical JSON, wrapped per deployment, and
//! byte-identical across runs over the same inputs.

use std::fs;

use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
use hydra_obs::json_str;
use hydra_odf::odf::{DeploymentFile, OdfDocument};
use hydra_verify::{Diagnostic, HvCode, Loc, Report, Severity, VerifyInput};

/// One linted deployment: a name (built-in target or file path) and the
/// verifier's report for it.
#[derive(Debug, Clone)]
pub struct LintResult {
    /// Built-in target name (`demo`, `tivo-client`, `tivo-server`) or
    /// the fixture path as given on the command line.
    pub name: String,
    /// The verifier's findings for this deployment.
    pub report: Report,
}

/// The full simulated testbed every deployment is linted against: host
/// CPU, programmable NIC, smart disk, and GPU — the same registry the
/// demo deployment and the paper's experiments use.
pub(crate) fn testbed_table() -> hydra_verify::DeviceTable {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    reg.verify_table()
}

fn verify_set(odfs: &[OdfDocument]) -> Report {
    let table = testbed_table();
    hydra_verify::verify(&VerifyInput {
        odfs,
        devices: &table,
        demands: None,
        roots: None,
    })
}

/// Parses a lint input file: either a single `<offcode>` document or a
/// `<deployment>` element wrapping several of them. Documents that fail
/// to parse become `HV009` diagnostics; the rest are still verified.
fn parse_deployment_file(text: &str) -> (Vec<OdfDocument>, Vec<Diagnostic>) {
    let mut odfs = Vec::new();
    let mut diags = Vec::new();
    match DeploymentFile::parse(text) {
        Err(e) => diags.push(Diagnostic::new(
            HvCode::ParseError,
            Loc::Set,
            format!("not well-formed XML: {e}"),
        )),
        Ok(DeploymentFile::Wrapped(offcodes)) => {
            for (i, odf) in offcodes.into_iter().enumerate() {
                match odf {
                    Ok(odf) => odfs.push(odf),
                    Err(e) => diags.push(Diagnostic::new(
                        HvCode::ParseError,
                        Loc::Odf {
                            bind_name: format!("offcode[{i}]"),
                        },
                        format!("invalid ODF: {e}"),
                    )),
                }
            }
            if odfs.is_empty() && diags.is_empty() {
                diags.push(Diagnostic::new(
                    HvCode::ParseError,
                    Loc::Set,
                    "<deployment> holds no <offcode> elements".to_owned(),
                ));
            }
        }
        Ok(DeploymentFile::Single(odf)) => match odf {
            Ok(odf) => odfs.push(odf),
            Err(e) => diags.push(Diagnostic::new(
                HvCode::ParseError,
                Loc::Set,
                format!("invalid ODF: {e}"),
            )),
        },
    }
    (odfs, diags)
}

/// Reads and parses the deployment file at `path`, runs `check` on
/// whatever parsed, and folds an unreadable file or parse failures into
/// the checked result's report (reached through `report`) as `HV009`
/// diagnostics in a `parse` pass — never a panic. Shared by `lint` and
/// `certify`.
pub(crate) fn check_deployment_file<T>(
    path: &str,
    check: impl FnOnce(&[OdfDocument]) -> T,
    report: impl FnOnce(&mut T) -> &mut Report,
) -> T {
    let parsed = match fs::read_to_string(path) {
        Ok(text) => parse_deployment_file(&text),
        Err(e) => (
            Vec::new(),
            vec![Diagnostic::new(
                HvCode::ParseError,
                Loc::Set,
                format!("cannot read file: {e}"),
            )],
        ),
    };
    check_parsed(parsed, check, report)
}

/// Runs `check` on the ODFs that parsed and folds the parse diagnostics
/// into its report (reached through `report`) as a `parse` pass.
fn check_parsed<T>(
    (odfs, parse_diags): (Vec<OdfDocument>, Vec<Diagnostic>),
    check: impl FnOnce(&[OdfDocument]) -> T,
    report: impl FnOnce(&mut T) -> &mut Report,
) -> T {
    let mut checked = check(&odfs);
    if !parse_diags.is_empty() {
        report(&mut checked).absorb("parse", 1, parse_diags);
    }
    checked
}

/// Lints one file from disk. Unreadable files and parse failures are
/// reported as `HV009` diagnostics in a `parse` pass, never a panic.
pub fn lint_file(path: &str) -> LintResult {
    LintResult {
        name: path.to_owned(),
        report: check_deployment_file(path, verify_set, |r| r),
    }
}

/// Lints the built-in deployments: the observability demo and the TiVo
/// client/server ODF sets.
pub fn lint_builtin() -> Vec<LintResult> {
    let targets: [(&str, Vec<OdfDocument>); 3] = [
        ("demo", hydra_tivo::demo::demo_odfs()),
        ("tivo-client", hydra_tivo::components::tivo_client_odfs()),
        ("tivo-server", hydra_tivo::components::tivo_server_odfs()),
    ];
    targets
        .into_iter()
        .map(|(name, odfs)| LintResult {
            name: name.to_owned(),
            report: verify_set(&odfs),
        })
        .collect()
}

/// Lints either the given fixture paths or, with none, the built-in
/// deployments.
pub fn run_lint(paths: &[&str]) -> Vec<LintResult> {
    if paths.is_empty() {
        lint_builtin()
    } else {
        paths.iter().map(|p| lint_file(p)).collect()
    }
}

/// True when any linted deployment has an error-severity diagnostic —
/// the condition under which `repro -- lint` exits non-zero.
pub fn any_errors(results: &[LintResult]) -> bool {
    results.iter().any(|r| r.report.has_errors())
}

/// Renders the combined results as canonical JSON — deterministic for a
/// given input set, ready for CI artifacts.
pub fn render_json(results: &[LintResult]) -> String {
    let mut out = String::from("{\"deployments\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"summary\":{},\"report\":{}}}",
            json_str(&r.name),
            json_str(&r.report.summary()),
            r.report.to_json()
        ));
    }
    let errors: usize = results
        .iter()
        .map(|r| r.report.count(Severity::Error))
        .sum();
    let warnings: usize = results
        .iter()
        .map(|r| r.report.count(Severity::Warning))
        .sum();
    out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
    out
}

/// Renders the combined results as human-readable lines (stderr side of
/// the CLI; stdout carries the JSON).
pub fn render_human(results: &[LintResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("== {} ==\n", r.name));
        out.push_str(&r.report.render_human());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{self, certify_odfs, CertifyResult};
    use proptest::prelude::*;

    #[test]
    fn builtin_deployments_are_clean() {
        let results = lint_builtin();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                !r.report.has_errors(),
                "{} must lint clean: {}",
                r.name,
                r.report.render_human()
            );
        }
    }

    #[test]
    fn builtin_lint_is_deterministic() {
        assert_eq!(render_json(&lint_builtin()), render_json(&lint_builtin()));
    }

    #[test]
    fn missing_file_yields_hv009() {
        let r = lint_file("/nonexistent/deployment.xml");
        assert!(r.report.has_errors());
        assert!(r.report.errors().any(|d| d.code == HvCode::ParseError));
    }

    #[test]
    fn deployment_wrapper_parses_multiple_offcodes() {
        let (odfs, diags) = parse_deployment_file(
            "<deployment>\
               <offcode><package><bindname>a</bindname><GUID>1</GUID></package></offcode>\
               <offcode><package><bindname>b</bindname><GUID>2</GUID></package></offcode>\
             </deployment>",
        );
        assert_eq!(odfs.len(), 2);
        assert!(diags.is_empty());
    }

    #[test]
    fn bad_xml_and_empty_deployment_yield_hv009() {
        let (odfs, diags) = parse_deployment_file("<not closed");
        assert!(odfs.is_empty());
        assert_eq!(diags.len(), 1);
        let (odfs, diags) = parse_deployment_file("<deployment></deployment>");
        assert!(odfs.is_empty());
        assert_eq!(diags[0].code, HvCode::ParseError);
    }

    const ODF_A: &str =
        "<offcode><package><bindname>a</bindname><GUID>1</GUID></package></offcode>";
    const ODF_B: &str =
        "<offcode><package><bindname>b</bindname><GUID>2</GUID></package></offcode>";

    fn hv009(loc: Loc, message: &str) -> Diagnostic {
        Diagnostic::new(HvCode::ParseError, loc, message.to_owned())
    }

    fn offcode(i: usize) -> Loc {
        Loc::Odf {
            bind_name: format!("offcode[{i}]"),
        }
    }

    #[test]
    fn deployment_indexes_direct_offcodes_in_order_and_ignores_the_rest() {
        let text = format!(
            "<deployment>\
               <note><offcode><package/></offcode></note>\
               {ODF_A}\
               <!-- between -->text\
               <offcode><package><bindname>c</bindname></package></offcode>\
               <group>{ODF_A}</group>\
               {ODF_B}\
               <offcode/>\
             </deployment>"
        );
        let (odfs, diags) = parse_deployment_file(&text);
        let names: Vec<&str> = odfs.iter().map(|o| o.bind_name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(
            diags,
            [
                hv009(offcode(1), "invalid ODF: odf: missing package/GUID"),
                hv009(offcode(3), "invalid ODF: odf: missing package"),
            ]
        );
    }

    #[test]
    fn deployment_without_offcode_children_is_one_set_diagnostic() {
        let holds_none = hv009(Loc::Set, "<deployment> holds no <offcode> elements");
        for text in [
            "<deployment/>",
            "<deployment> <!-- none --> </deployment>",
            "<deployment><note><offcode/></note><odf/></deployment>",
        ] {
            assert_eq!(
                parse_deployment_file(text),
                (Vec::new(), vec![holds_none.clone()]),
                "{text}"
            );
        }
    }

    #[test]
    fn root_that_is_neither_deployment_nor_offcode_is_an_invalid_odf() {
        let (odfs, diags) = parse_deployment_file(&format!("<manifest>{ODF_A}</manifest>"));
        assert!(odfs.is_empty());
        assert_eq!(
            diags,
            [hv009(
                Loc::Set,
                "invalid ODF: odf: invalid root element: 'manifest'"
            )]
        );
        // A single `<offcode>` root is read as it is.
        let (odfs, diags) = parse_deployment_file(ODF_B);
        assert_eq!((odfs.len(), diags.len()), (1, 0));
    }

    #[test]
    fn out_of_range_priority_or_class_id_yields_hv009() {
        let reference = "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <sw-env><import><bindname>y</bindname><GUID>2</GUID>\
             <reference type=Pull pri=300/></import></sw-env></offcode>";
        let class = "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <targets><device-class id=0x100000001><name>nic</name></device-class></targets>\
             </offcode>";
        for (text, message) in [
            (reference, "invalid ODF: odf: invalid reference/pri: '300'"),
            (
                class,
                "invalid ODF: odf: invalid device-class/id: '0x100000001'",
            ),
        ] {
            let (odfs, diags) = parse_deployment_file(text);
            assert!(odfs.is_empty());
            assert_eq!(diags, [hv009(Loc::Set, message)]);
            assert_eq!(diags[0].code.code(), "HV009");
        }
    }

    /// The deployments under `fixtures/` and `fixtures/certify/`.
    fn fixture_deployments() -> Vec<String> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        let mut texts = Vec::new();
        for dir in [root.to_owned(), format!("{root}/certify")] {
            let mut paths: Vec<_> = fs::read_dir(&dir)
                .expect("fixtures directory")
                .map(|entry| entry.expect("fixture entry").path())
                .filter(|path| path.extension().is_some_and(|e| e == "xml"))
                .collect();
            paths.sort();
            texts.extend(
                paths
                    .iter()
                    .map(|p| fs::read_to_string(p).expect("fixture reads")),
            );
        }
        texts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A byte-mutated fixture goes through the `lint` and `certify`
        /// file paths, parse to rendered JSON, without a panic, and each
        /// document that fails to parse is one `HV009` in both reports
        /// and reaches their JSON.
        #[test]
        fn mutated_deployment_files_never_panic_and_fail_as_hv009(
            which in any::<usize>(),
            in_number in any::<bool>(),
            positions in proptest::collection::vec(any::<usize>(), 1..4),
            len in 0usize..12,
            junk in prop_oneof!["[<>/=&;#x!?\"' a-c\n-]{0,6}", "[0-9a-cx-]{1,3}"],
        ) {
            let fixtures = fixture_deployments();
            prop_assert!(fixtures.len() >= 6, "fixtures found: {}", fixtures.len());
            let mut bytes = fixtures[which % fixtures.len()].clone().into_bytes();
            // Replace `len` bytes with `junk` at each position or, one time
            // in two, a digit of a number, which more often keeps the XML
            // whole and breaks an ODF instead.
            for at in positions {
                let (at, len) = if in_number {
                    let digits: Vec<usize> =
                        (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
                    (digits[at % digits.len()], 1)
                } else {
                    (at % (bytes.len() + 1), len)
                };
                let end = (at + len).min(bytes.len());
                bytes.splice(at..end, junk.bytes());
            }
            let text = String::from_utf8_lossy(&bytes);
            let failures = match DeploymentFile::parse(&text) {
                Err(_) => 1,
                Ok(DeploymentFile::Single(odf)) => usize::from(odf.is_err()),
                Ok(DeploymentFile::Wrapped(odfs)) if odfs.is_empty() => 1,
                Ok(DeploymentFile::Wrapped(odfs)) => odfs.iter().filter(|o| o.is_err()).count(),
            };
            let lint = check_parsed(parse_deployment_file(&text), verify_set, |r| r);
            let certified = check_parsed(
                parse_deployment_file(&text),
                |odfs| certify_odfs(odfs, None),
                |c| &mut c.report,
            );
            for report in [&lint, &certified.report] {
                let hv009 = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.code == HvCode::ParseError)
                    .count();
                prop_assert_eq!(hv009, failures, "{}", text);
            }
            let rendered = [
                render_json(&[LintResult {
                    name: "mutated".into(),
                    report: lint,
                }]),
                certify::render_json(&[CertifyResult {
                    name: "mutated".into(),
                    certification: certified,
                }]),
            ];
            for json in rendered {
                prop_assert_eq!(json.contains("\"code\":\"HV009\""), failures > 0);
            }
        }
    }
}
