//! Manifest lints: per-ODF and per-set checks that need no layout graph —
//! GUID/bind-name collisions, dangling or duplicate imports, and target
//! sets that no installed device can satisfy.

use hydra_odf::odf::{class_ids, OdfDocument};

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::{DeviceTable, GraphView};

/// Runs the manifest pass over `odfs` and their graph `view` (which
/// resolves GUIDs, the first ODF with a GUID winning); returns
/// (diagnostics, work units).
pub(crate) fn run(
    odfs: &[OdfDocument],
    view: &GraphView<'_>,
    table: &DeviceTable,
) -> (Vec<Diagnostic>, u64) {
    let mut diags = Vec::new();
    let mut work = odfs.len() as u64;
    let odf_loc = |odf: &OdfDocument| Loc::Odf {
        bind_name: odf.bind_name.clone(),
    };

    for (i, odf) in odfs.iter().enumerate() {
        let first = view.node(odf.guid).expect("every node's GUID resolves");
        if first != i {
            diags.push(Diagnostic::new(
                HvCode::DuplicateGuid,
                odf_loc(odf),
                format!("{} already used by '{}'", odf.guid, odfs[first].bind_name),
            ));
        }
    }
    // By (bind name, position): the first ODF with a name leads its run.
    let mut by_name: Vec<usize> = (0..odfs.len()).collect();
    by_name.sort_unstable_by_key(|&i| (odfs[i].bind_name.as_str(), i));
    let mut lead = 0;
    for at in 1..by_name.len() {
        let (first, odf) = (&odfs[by_name[lead]], &odfs[by_name[at]]);
        if odf.bind_name == first.bind_name {
            diags.push(Diagnostic::new(
                HvCode::DuplicateBindName,
                odf_loc(odf),
                format!("bind name also declared by the ODF with {}", first.guid),
            ));
        } else {
            lead = at;
        }
    }

    for odf in odfs {
        for (k, imp) in odf.imports.iter().enumerate() {
            work += 1;
            let loc = || Loc::Import {
                bind_name: odf.bind_name.clone(),
                import: imp.bind_name.clone(),
            };
            if imp.guid == odf.guid {
                diags.push(Diagnostic::new(
                    HvCode::SelfImport,
                    loc(),
                    format!("imports its own {}", imp.guid),
                ));
            } else if view.node(imp.guid).is_none() {
                diags.push(Diagnostic::new(
                    HvCode::DanglingImport,
                    loc(),
                    format!("{} is not in the deployment set", imp.guid),
                ));
            }
            let earlier = &odf.imports[..k];
            if earlier
                .iter()
                .any(|e| e.guid == imp.guid && e.constraint == imp.constraint)
            {
                diags.push(Diagnostic::new(
                    HvCode::DuplicateImport,
                    loc(),
                    format!("repeated {} import of {}", imp.constraint, imp.guid),
                ));
            }
        }
    }

    for odf in odfs {
        let mut offloadable = odf.targets.iter().filter(|t| t.id != class_ids::HOST_CPU);
        if offloadable.clone().next().is_none() {
            diags.push(Diagnostic::new(
                HvCode::HostOnlyTargets,
                odf_loc(odf),
                "no non-host target device classes declared",
            ));
            continue;
        }
        let mut any_feasible = false;
        for spec in &mut offloadable {
            work += 1;
            if table.feasible_count(spec) == 0 {
                diags.push(Diagnostic::new(
                    HvCode::UnsatisfiableTargetSpec,
                    odf_loc(odf),
                    format!(
                        "device class '{}' (id 0x{:04x}) matches no installed device",
                        spec.name, spec.id
                    ),
                ));
            } else {
                any_feasible = true;
            }
        }
        if !any_feasible {
            diags.push(Diagnostic::new(
                HvCode::NoFeasibleDevice,
                odf_loc(odf),
                "none of the declared target classes matches an installed device; every deployment will use the host",
            ));
        }
    }

    (diags, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DeviceInfo;
    use hydra_odf::odf::{ConstraintKind, DeviceClassSpec, Guid, Import};

    fn table() -> DeviceTable {
        DeviceTable {
            devices: vec![
                DeviceInfo {
                    class: class_ids::HOST_CPU,
                    name: "host".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 20,
                },
                DeviceInfo {
                    class: class_ids::NETWORK,
                    name: "nic".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 20,
                },
            ],
        }
    }

    fn import(guid: Guid, kind: ConstraintKind) -> Import {
        Import {
            file: String::new(),
            bind_name: format!("peer-{}", guid.0),
            guid,
            constraint: kind,
            priority: 0,
        }
    }

    fn check(odfs: &[OdfDocument]) -> (Vec<Diagnostic>, u64) {
        let table = table();
        run(odfs, &GraphView::from_odfs(odfs, &table, None), &table)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<HvCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn duplicate_guid_and_bind_name_flagged() {
        let odfs = vec![
            OdfDocument::new("a", Guid(1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
            OdfDocument::new("a", Guid(1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        ];
        let (diags, _) = check(&odfs);
        assert!(codes(&diags).contains(&HvCode::DuplicateGuid));
        assert!(codes(&diags).contains(&HvCode::DuplicateBindName));
    }

    #[test]
    fn dangling_self_and_duplicate_imports_flagged() {
        let odfs = vec![OdfDocument::new("a", Guid(1))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
            .with_import(import(Guid(99), ConstraintKind::Link))
            .with_import(import(Guid(1), ConstraintKind::Pull))
            .with_import(import(Guid(2), ConstraintKind::Gang))
            .with_import(import(Guid(2), ConstraintKind::Gang))]
        .into_iter()
        .chain([OdfDocument::new("b", Guid(2))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))])
        .collect::<Vec<_>>();
        let (diags, _) = check(&odfs);
        let c = codes(&diags);
        assert!(c.contains(&HvCode::DanglingImport));
        assert!(c.contains(&HvCode::SelfImport));
        assert!(c.contains(&HvCode::DuplicateImport));
    }

    #[test]
    fn target_lints_fire_by_tier() {
        let odfs = vec![
            OdfDocument::new("hostish", Guid(1)),
            OdfDocument::new("ghost", Guid(2))
                .with_target(DeviceClassSpec::numbered(class_ids::GPU)),
            OdfDocument::new("ok", Guid(3))
                .with_target(DeviceClassSpec::numbered(class_ids::GPU))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        ];
        let (diags, _) = check(&odfs);
        let for_odf = |name: &str| {
            diags
                .iter()
                .filter(|d| matches!(&d.loc, Loc::Odf { bind_name } if bind_name == name))
                .map(|d| d.code)
                .collect::<Vec<_>>()
        };
        assert_eq!(for_odf("hostish"), vec![HvCode::HostOnlyTargets]);
        assert_eq!(
            for_odf("ghost"),
            vec![HvCode::UnsatisfiableTargetSpec, HvCode::NoFeasibleDevice]
        );
        assert_eq!(for_odf("ok"), vec![HvCode::UnsatisfiableTargetSpec]);
    }

    #[test]
    fn clean_set_produces_no_diagnostics() {
        let odfs = vec![
            OdfDocument::new("a", Guid(1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
                .with_import(import(Guid(2), ConstraintKind::Pull)),
            OdfDocument::new("peer-2", Guid(2))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        ];
        let (diags, work) = check(&odfs);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(work > 0);
    }
}
