//! Source-level regression lints: no `HashMap<Guid, …>` on hot paths,
//! one enqueue site on the channel send side, and no string building in
//! the channel's per-message modules or the ILP solver's search.
//!
//! GUID-keyed `HashMap`s hash a `u64` on every lookup and iterate in
//! nondeterministic order — both properties this codebase has had to
//! engineer out of the send/recv/dispatch paths (dense-id `Vec` tables
//! in the channel executive, `BTreeMap`s where ordered iteration leaks
//! into reports). This lint pins the status quo: the only permitted
//! `HashMap<Guid` uses are the runtime's *control-plane* tables (the
//! Offcode depot and the deployed-instance index, touched per
//! deployment, not per message) and the layout builder (runs once per
//! solve). Adding one anywhere else — in particular in `channel.rs`,
//! `call.rs`, or any per-message module — fails this test and should be
//! a dense index or `BTreeMap` instead.
//!
//! Single sends, batch prefixes and retried overflow messages all ring
//! their doorbell and enter the endpoint queues through
//! `Channel::enqueue_run`. A second doorbell charge or queue push under
//! `channel/` means a send path grew its own copy again, free to drift
//! from the others.
//!
//! The per-message channel modules update the recorder through handles
//! resolved when the channel is created, so they never need to build a
//! label. The ILP's simplex and branch-and-bound run once per search
//! node on every deploy and recovery; variables and rows carry name
//! tags, rendered only when a caller displays one, so the search never
//! needs a string either. `.to_owned()`, `.to_string()`, `format!` or
//! `String::from` in the non-test code of any of these files means a
//! per-message or per-node allocation crept back in.

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to hold `HashMap<Guid` — control-plane only.
const ALLOWLIST: &[&str] = &[
    "crates/hydra-core/src/runtime/mod.rs",
    "crates/hydra-core/src/layout.rs",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn guid_keyed_hashmaps_stay_off_the_hot_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    assert!(sources.len() > 50, "the crate tree was scanned");

    let mut violations = Vec::new();
    for path in sources {
        let rel = path
            .strip_prefix(root)
            .expect("source under workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path).expect("source file is readable");
        for (i, line) in text.lines().enumerate() {
            if line.contains("HashMap<Guid") && !ALLOWLIST.contains(&rel.as_str()) {
                violations.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "GUID-keyed HashMaps on non-allowlisted paths (use a dense index \
         or BTreeMap, or extend the allowlist with a control-plane \
         justification):\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_allowlist_is_not_stale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ALLOWLIST {
        let text = fs::read_to_string(root.join(rel)).expect("allowlisted file exists");
        assert!(
            text.contains("HashMap<Guid"),
            "{rel} no longer uses HashMap<Guid — drop it from the allowlist"
        );
    }
}

#[test]
fn the_channel_send_side_has_one_enqueue_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates/hydra-core/src/channel"), &mut sources);
    assert!(sources.len() >= 5, "the channel layer was scanned");

    for needle in ["profile.doorbell(", "push_back(ChannelMessage"] {
        let mut sites = Vec::new();
        for path in &sources {
            let text = fs::read_to_string(path).expect("source file is readable");
            for (i, line) in text.lines().enumerate() {
                if line.contains(needle) {
                    sites.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
        assert_eq!(
            sites.len(),
            1,
            "`{needle}` must occur exactly once under channel/ (in \
             Channel::enqueue_run); found:\n{}",
            sites.join("\n")
        );
    }
}

#[test]
fn the_per_message_channel_modules_build_no_strings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let channel = ["delivery", "batching", "reliability", "observe"]
        .map(|file| format!("crates/hydra-core/src/channel/{file}.rs"));
    let ilp = ["simplex", "branch"].map(|file| format!("crates/hydra-ilp/src/{file}.rs"));
    for rel in channel.iter().chain(&ilp) {
        let text = fs::read_to_string(root.join(rel)).expect("linted module is readable");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in code.lines().enumerate() {
            let line = line.trim();
            if line.starts_with("//") {
                continue;
            }
            for needle in [".to_owned()", ".to_string()", "format!", "String::from"] {
                if line.contains(needle) {
                    violations.push(format!("{rel}:{}: {line}", i + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "string building on the per-message channel paths or in the ILP \
         search (resolve a recorder handle at channel creation, or name \
         with a tag, instead):\n{}",
        violations.join("\n")
    );
}
