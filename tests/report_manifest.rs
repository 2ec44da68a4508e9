//! The stale-report failsafe (tier 1): every committed report, output,
//! budget and fixture must belong to exactly one row of
//! `hydra_bench::ARTIFACTS`, every row's files must be committed, and
//! every `bench` row must dispatch through `hydra_bench::run`. A report
//! someone adds without a row — or one left behind after its row is
//! removed — fails here instead of rotting silently.

mod gate;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use gate::{read, root};
use hydra_bench::report::{read_u64, SCHEMA_VERSION};
use hydra_bench::ARTIFACTS;

/// Every committed file the gates own: `BENCH_*` at the workspace root
/// and everything under `artifacts/`, `budgets/` and `fixtures/`.
fn committed_files() -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(root())
        .expect("root lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_"))
        .collect();
    let mut dirs: Vec<PathBuf> = ["artifacts", "budgets", "fixtures"]
        .map(|d| root().join(d))
        .into();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).expect("directory lists") {
            let path = entry.expect("entry reads").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path.strip_prefix(root()).expect("under the root");
                files.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    files
}

/// Each committed file is named by exactly one row: as its output, its
/// budget, or one of its arguments (the rest, like `faulted`, match
/// nothing committed).
#[test]
fn every_committed_report_has_a_manifest_row() {
    let mut named: BTreeMap<&str, usize> = BTreeMap::new();
    for row in ARTIFACTS {
        for file in row
            .argv
            .iter()
            .copied()
            .chain([row.output])
            .chain(row.budget)
        {
            *named.entry(file).or_default() += 1;
        }
    }
    for file in committed_files() {
        let rows = named.get(file.as_str()).copied().unwrap_or(0);
        assert_eq!(rows, 1, "{file} is named by {rows} artifact rows");
    }
}

#[test]
fn every_manifest_row_has_its_artifacts_committed() {
    for row in ARTIFACTS {
        for file in [row.output].into_iter().chain(row.budget) {
            assert!(root().join(file).is_file(), "{file} is not committed");
        }
        if row.argv[0] == "bench" {
            assert_eq!(
                read_u64(&read(row.output), "schema"),
                Some(u64::from(SCHEMA_VERSION)),
                "{}: committed report schema is not version {SCHEMA_VERSION}",
                row.output
            );
        }
    }
}

#[test]
fn every_manifest_row_dispatches_through_run_bench() {
    for (i, row) in ARTIFACTS.iter().enumerate() {
        if row.argv[0] != "bench" {
            continue;
        }
        let fresh = gate::fresh(i);
        assert!(
            fresh.run.ok,
            "repro -- {} must dispatch",
            row.argv.join(" ")
        );
        assert_eq!(
            read_u64(&fresh.stdout, "schema"),
            Some(u64::from(SCHEMA_VERSION)),
            "repro -- {} renders the shared schema",
            row.argv.join(" ")
        );
    }
    let unknown = gate::capture(&["bench", "nonexistent"]);
    assert!(!unknown.run.ok && unknown.stdout.is_empty(), "{unknown:?}");
}
