//! Integration: `mscope-lint all` over the real workspace is clean.
//!
//! This is the same gate CI runs — every deny-level rule (pattern/decl
//! validity, schema conflicts, SQL-vs-schema, hermetic-deps, the trace
//! front's TR001–TR008 scenario proofs, the determinism front's DT002
//! and DT006 discipline checks, and the performance front's PF001) must
//! hold at HEAD. The
//! rules clippy enforces are CI's Clippy step; `clippy_rules.rs` holds
//! their fixtures.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn run_all_over_the_real_workspace_is_clean() {
    let report = mscope_lint::run(&workspace_root(), "all", None).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "deny findings at HEAD:\n{}",
        report.render_text()
    );
}

#[test]
fn source_front_alone_is_clean() {
    let report = mscope_lint::run(&workspace_root(), "source", None).expect("lint run succeeds");
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn declaration_front_alone_is_clean() {
    let report =
        mscope_lint::run(&workspace_root(), "declarations", None).expect("lint run succeeds");
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn det_front_alone_is_clean() {
    let report = mscope_lint::run(&workspace_root(), "det", None).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "determinism findings at HEAD:\n{}",
        report.render_text()
    );
}

#[test]
fn perf_front_alone_is_clean() {
    // The performance front's contract: every hot-loop allocation at HEAD
    // has been hoisted or carries a reviewed `// perf:` justification.
    let report = mscope_lint::run(&workspace_root(), "perf", None).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "performance findings at HEAD:\n{}",
        report.render_text()
    );
}

#[test]
fn trace_front_proves_every_preset_clean() {
    let root = workspace_root();
    let report = mscope_lint::run(&root, "trace", None).expect("trace run succeeds");
    assert_eq!(
        report.findings.len(),
        0,
        "trace findings at HEAD:\n{}",
        report.render_text()
    );
    for (name, _) in mscope_ntier::SystemConfig::presets() {
        let per = mscope_lint::run(&root, "trace", Some(name)).expect("per-scenario run succeeds");
        assert!(per.is_clean(), "{name}:\n{}", per.render_text());
    }
    // Unknown scenarios are an invocation error, not an empty report.
    assert!(mscope_lint::run(&root, "trace", Some("ghost")).is_err());
}

#[test]
fn binary_is_clean_at_head_and_rejects_strict() {
    let lint = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_mscope-lint"))
            .args(args)
            .arg("--root")
            .arg(workspace_root())
            .output()
            .expect("mscope-lint runs")
    };
    let out = lint(&["all", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report: mscope_lint::Report =
        mscope_serdes::from_str(&String::from_utf8_lossy(&out.stdout)).expect("JSON report");
    assert!(report.findings.is_empty(), "{report:?}");
    // `--strict` once made stale allowlist entries deny; it is gone.
    let out = lint(&["all", "--strict"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized argument `--strict`"));
}
