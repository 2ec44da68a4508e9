//! Manifest lints: per-ODF and per-set checks that need no layout graph —
//! GUID/bind-name collisions, dangling or duplicate imports, and target
//! sets that no installed device can satisfy.

use std::collections::BTreeMap;

use hydra_odf::odf::{class_ids, Guid, OdfDocument};

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::DeviceTable;

/// Runs the manifest pass; returns (diagnostics, work units).
pub(crate) fn run(odfs: &[OdfDocument], table: &DeviceTable) -> (Vec<Diagnostic>, u64) {
    let mut diags = Vec::new();
    let mut work = 0u64;

    let mut by_guid: BTreeMap<Guid, &str> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Guid> = BTreeMap::new();
    for odf in odfs {
        work += 1;
        if let Some(first) = by_guid.get(&odf.guid) {
            diags.push(Diagnostic::new(
                HvCode::DuplicateGuid,
                Loc::Odf {
                    bind_name: odf.bind_name.clone(),
                },
                format!("{} already used by '{first}'", odf.guid),
            ));
        } else {
            by_guid.insert(odf.guid, &odf.bind_name);
        }
        if let Some(first) = by_name.get(odf.bind_name.as_str()) {
            diags.push(Diagnostic::new(
                HvCode::DuplicateBindName,
                Loc::Odf {
                    bind_name: odf.bind_name.clone(),
                },
                format!("bind name also declared by the ODF with {first}"),
            ));
        } else {
            by_name.insert(&odf.bind_name, odf.guid);
        }
    }

    for odf in odfs {
        let mut seen: Vec<(Guid, &str)> = Vec::new();
        for imp in &odf.imports {
            work += 1;
            let loc = Loc::Import {
                bind_name: odf.bind_name.clone(),
                import: imp.bind_name.clone(),
            };
            if imp.guid == odf.guid {
                diags.push(Diagnostic::new(
                    HvCode::SelfImport,
                    loc.clone(),
                    format!("imports its own {}", imp.guid),
                ));
            } else if !by_guid.contains_key(&imp.guid) {
                diags.push(Diagnostic::new(
                    HvCode::DanglingImport,
                    loc.clone(),
                    format!("{} is not in the deployment set", imp.guid),
                ));
            }
            if seen.contains(&(imp.guid, imp.constraint.as_str())) {
                diags.push(Diagnostic::new(
                    HvCode::DuplicateImport,
                    loc,
                    format!("repeated {} import of {}", imp.constraint, imp.guid),
                ));
            } else {
                seen.push((imp.guid, imp.constraint.as_str()));
            }
        }
    }

    for odf in odfs {
        let loc = Loc::Odf {
            bind_name: odf.bind_name.clone(),
        };
        let offloadable: Vec<_> = odf
            .targets
            .iter()
            .filter(|t| t.id != class_ids::HOST_CPU)
            .collect();
        if offloadable.is_empty() {
            diags.push(Diagnostic::new(
                HvCode::HostOnlyTargets,
                loc.clone(),
                "no non-host target device classes declared",
            ));
            continue;
        }
        let mut any_feasible = false;
        for spec in &offloadable {
            work += 1;
            if table.feasible_count(spec) == 0 {
                diags.push(Diagnostic::new(
                    HvCode::UnsatisfiableTargetSpec,
                    loc.clone(),
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
                loc,
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
    use hydra_odf::odf::{ConstraintKind, DeviceClassSpec, Import};

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
        let (diags, _) = run(&odfs, &table());
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
        let (diags, _) = run(&odfs, &table());
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
        let (diags, _) = run(&odfs, &table());
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
        let (diags, work) = run(&odfs, &table());
        assert!(diags.is_empty(), "{diags:?}");
        assert!(work > 0);
    }
}
