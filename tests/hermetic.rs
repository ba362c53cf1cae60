//! Hermeticity guard: the workspace must build with no registry access.
//!
//! The build environment has no network, so any dependency that is not a
//! `path` dependency breaks `cargo` at resolution time — before a single
//! test can run. This test walks every `Cargo.toml` in the repository and
//! fails if any dependency section names a crate that is not vendored
//! in-tree, turning "someone added serde back" from a broken build into a
//! readable test failure. The manifest parser is the one `mscope-lint
//! source` runs (`hermetic-deps`), so the two guards cannot disagree.

use mscope_lint::source::lint_manifest;
use std::fs;
use std::path::{Path, PathBuf};

fn manifest_paths() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let dir = entry.expect("readable dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(
        out.len() >= 9,
        "expected the root + 8 crate manifests, found {}",
        out.len()
    );
    out
}

/// Every manifest's `hermetic-deps` findings, rendered `file:line: …`,
/// split into (banned crates, other non-hermetic entries).
fn manifest_violations() -> (Vec<String>, Vec<String>) {
    let (mut banned, mut registry) = (Vec::new(), Vec::new());
    for manifest in manifest_paths() {
        let text = fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
        for f in lint_manifest(&manifest.display().to_string(), &text) {
            if f.message.starts_with("banned crate") {
                banned.push(f.to_string());
            } else {
                registry.push(f.to_string());
            }
        }
    }
    (banned, registry)
}

/// A dependency entry is hermetic iff it resolves in-tree: a `path`
/// dependency or a `workspace = true` reference (the workspace table is
/// itself checked and contains only path entries).
#[test]
fn every_dependency_is_a_path_dependency() {
    let (_, violations) = manifest_violations();
    assert!(
        violations.is_empty(),
        "non-path dependencies found — these need a registry and break the \
         offline build:\n  {}",
        violations.join("\n  ")
    );
}

/// The historical offenders must never come back in any form (even as a
/// path dependency to a vendored copy — the workspace replaces them).
#[test]
fn banned_crates_never_reappear() {
    let (violations, _) = manifest_violations();
    assert!(
        violations.is_empty(),
        "banned crates declared:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn no_cargo_lock_registry_sources() {
    let lock = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    if !lock.is_file() {
        return; // nothing resolved yet — trivially hermetic
    }
    let text = fs::read_to_string(&lock).expect("lockfile readable");
    let registry_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("source = \"registry"))
        .collect();
    assert!(
        registry_lines.is_empty(),
        "Cargo.lock pins registry packages:\n  {}",
        registry_lines.join("\n  ")
    );
}
