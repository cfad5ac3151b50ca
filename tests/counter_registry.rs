//! Counter-registry audit: every counter a production code path emits
//! must be documented in DESIGN.md's "Counter registry" table, and every
//! table row must correspond to a real emitter.
//!
//! The scan is textual but conservative: it walks every `.rs` file under
//! `crates/*/src` and `src/`, truncates each file at its first
//! `#[cfg(test)]` line (the workspace convention puts tests at the end
//! of the file), skips comment lines, and extracts counter-name string
//! literals from the two emission idioms:
//!
//! - `counter = "name"` (the `telemetry_bundle!` field syntax), and
//! - `.counter("name")` (direct recorder calls).
//!
//! Dynamically-built names (`format!`) would be invisible to this scan;
//! the workspace has none, and introducing one should come with a
//! rethink of this audit rather than a silent hole.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extracts every string literal following `pattern` on this line.
fn literals_after<'a>(line: &'a str, pattern: &str) -> Vec<&'a str> {
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(pattern) {
        rest = &rest[at + pattern.len()..];
        if let Some(end) = rest.find('"') {
            found.push(&rest[..end]);
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    found
}

/// Counter names emitted by production (pre-`#[cfg(test)]`) code,
/// mapped to the files that emit them.
fn emitted_counters() -> BTreeMap<String, BTreeSet<String>> {
    let root = repo_root();
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            rust_files_under(&entry.path().join("src"), &mut files);
        }
    }
    rust_files_under(&root.join("src"), &mut files);
    assert!(
        files.len() > 20,
        "workspace scan found only {} .rs files — layout changed?",
        files.len()
    );

    let mut emitted: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for path in files {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .display()
            .to_string();
        for line in text.lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("#[cfg(test)") {
                break; // tests-at-end convention: nothing below is production
            }
            if trimmed.starts_with("//") {
                continue;
            }
            for name in literals_after(line, "counter = \"") {
                emitted
                    .entry(name.to_string())
                    .or_default()
                    .insert(rel.clone());
            }
            for name in literals_after(line, ".counter(\"") {
                emitted
                    .entry(name.to_string())
                    .or_default()
                    .insert(rel.clone());
            }
        }
    }
    emitted
}

/// Counter names documented in DESIGN.md's "Counter registry" table.
fn documented_counters() -> BTreeSet<String> {
    let design = fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md readable");
    let section = design
        .split("### Counter registry")
        .nth(1)
        .expect("DESIGN.md has a '### Counter registry' section");
    let mut names = BTreeSet::new();
    for line in section.lines() {
        // Table rows look like: | `anneal.accepted` | solver | ... |
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        if let Some(end) = rest.find('`') {
            names.insert(rest[..end].to_string());
        }
    }
    assert!(
        names.len() >= 30,
        "registry table parse found only {} rows — format changed?",
        names.len()
    );
    names
}

#[test]
fn every_emitted_counter_is_documented() {
    let emitted = emitted_counters();
    let documented = documented_counters();
    let missing: Vec<String> = emitted
        .iter()
        .filter(|(name, _)| !documented.contains(*name))
        .map(|(name, files)| format!("  {name} (emitted in {files:?})"))
        .collect();
    assert!(
        missing.is_empty(),
        "counters emitted by production code but absent from DESIGN.md's \
         Counter registry table:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_documented_counter_has_an_emitter() {
    let emitted = emitted_counters();
    let documented = documented_counters();
    let stale: Vec<&String> = documented
        .iter()
        .filter(|name| !emitted.contains_key(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md Counter registry rows with no production emitter \
         (stale docs?): {stale:?}"
    );
}

#[test]
fn scan_sees_the_known_families() {
    // Sanity-check the extraction itself: one representative per family.
    let emitted = emitted_counters();
    for name in [
        "anneal.cache_miss.cold",
        "circuits.built",
        "rates.full_evals",
        "chaos.faults_detected",
        "chaos.attack.waves",
        "oracle.invariant_checked",
        "slo.trips",
    ] {
        assert!(emitted.contains_key(name), "scan failed to find {name}");
    }
    // And that test-only fixtures stayed invisible.
    for name in [
        "demo.items",
        "inner.ops",
        "outer.hits",
        "update.ops",
        "hits",
        "x",
    ] {
        assert!(
            !emitted.contains_key(name),
            "scan leaked test-only counter fixture {name}"
        );
    }
}
