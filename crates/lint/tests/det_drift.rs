//! Negative fixtures for the determinism front: every DT rule must fire
//! on a deliberately-violating snippet and stay silent on its disciplined
//! counterpart. Mirrors `trace_drift.rs` — if a refactor of `det.rs`
//! weakens a rule, the exact rule ID names what broke. Each rule also
//! fires on its planted regression: an edit of a shipping site that
//! changed output bytes while every test suite stayed green. The rules
//! clippy enforces (DT001, DT003, DT004, DT005, DT008) have their
//! fixtures in `clippy_rules.rs`.
//!
//! The closing test proves the real workspace is 0-deny on this front at
//! HEAD, so the fixtures are drills, not grandfathered reality.

use std::path::PathBuf;

/// Rule IDs of the determinism-front findings [`mscope_lint::lint_file`]
/// reports for a fixture at `rel` (the crate name is derived from the
/// path, as the workspace walk does).
fn det_rules(rel: &str, src: &str) -> Vec<String> {
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .expect("fixture paths are crate-relative");
    mscope_lint::lint_file(krate, rel, src)
        .into_iter()
        .map(|f| f.rule)
        .filter(|r| r.starts_with("DT"))
        .collect()
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

// ---------------------------------------------------------------------
// DT002 — float reductions inside worker closures
// ---------------------------------------------------------------------

#[test]
fn dt002_fires_on_undocumented_float_reduction_in_worker_span() {
    let dirty = "fn shard_sums(cols: &[Vec<f64>]) -> Vec<f64> {\n\
                     parallel_map(cols.len(), 4, |i| cols[i].iter().sum::<f64>())\n\
                 }\n";
    assert_eq!(det_rules("crates/sim/src/fake.rs", dirty), ["DT002"]);
}

#[test]
fn dt002_fires_on_the_planted_worker_count_split() {
    // The planted regression: a whole-table SUM split into one chunk per
    // worker. The chunks follow the worker count, so the sum's rounding
    // does too — `SUM(x)` over 5,000 non-integral floats read differently
    // at one worker and at two, with every suite green.
    let planted = "fn sum(rows: &[usize], s: &[Value], workers: usize) -> f64 {\n\
                       let chunk = rows.len().div_ceil(workers).max(1);\n\
                       let parts = parallel_map(rows.len().div_ceil(chunk), workers, |c| {\n\
                           rows[c * chunk..((c + 1) * chunk).min(rows.len())]\n\
                               .iter()\n\
                               .filter_map(|&r| s[r].as_f64())\n\
                               .sum::<f64>()\n\
                       });\n\
                       parts.iter().sum()\n\
                   }\n";
    assert_eq!(
        det_rules("crates/warehouse/src/vector.rs", planted),
        ["DT002"]
    );
}

#[test]
fn dt002_accepts_a_documented_merge_order() {
    let clean = "fn shard_sums(cols: &[Vec<f64>]) -> Vec<f64> {\n\
                     // Each job sums its own column in row order and\n\
                     // partials merge in job order — deterministic at any\n\
                     // worker count.\n\
                     parallel_map(cols.len(), 4, |i| cols[i].iter().sum::<f64>())\n\
                 }\n";
    assert_eq!(det_rules("crates/sim/src/fake.rs", clean), [""; 0]);
}

// ---------------------------------------------------------------------
// DT006 — timestamp sorts without a tie-break
// ---------------------------------------------------------------------

#[test]
fn dt006_fires_on_bare_timestamp_sort() {
    let dirty = "fn merge(mut evs: Vec<Ev>) -> Vec<Ev> {\n\
                     evs.sort_by_key(|e| e.time);\n\
                     evs\n\
                 }\n";
    assert_eq!(det_rules("crates/ntier/src/fake.rs", dirty), ["DT006"]);
}

#[test]
fn dt006_fires_on_the_planted_unstable_merge() {
    // The planted regression: the partitioned simulator's merge of its
    // cells' lifecycle streams, made unstable. Events of different cells
    // that share a timestamp changed order, so a partitioned run's
    // lifecycle stream changed bytes, with every suite green.
    let planted = "fn merge(cells: Vec<Cell>) -> Vec<LifecycleEvent> {\n\
                       // Concatenate cell-major, then restore the global\n\
                       // total order.\n\
                       let mut lifecycle = Vec::new();\n\
                       for c in cells {\n\
                           lifecycle.extend(c.lifecycle);\n\
                       }\n\
                       lifecycle.sort_unstable_by_key(|e| e.time);\n\
                       lifecycle\n\
                   }\n";
    assert_eq!(det_rules("crates/ntier/src/engine.rs", planted), ["DT006"]);
}

#[test]
fn dt006_accepts_composite_keys_then_chains_and_documented_stability() {
    let composite = "fn merge(mut evs: Vec<Ev>) -> Vec<Ev> {\n\
                         evs.sort_by_key(|e| (e.time, e.seq));\n\
                         evs\n\
                     }\n";
    assert_eq!(det_rules("crates/ntier/src/fake.rs", composite), [""; 0]);
    let chained = "fn merge(mut evs: Vec<Ev>) -> Vec<Ev> {\n\
                       evs.sort_by(|a, b| a.time.cmp(&b.time).then(a.id.cmp(&b.id)));\n\
                       evs\n\
                   }\n";
    assert_eq!(det_rules("crates/ntier/src/fake.rs", chained), [""; 0]);
    let documented = "fn merge(mut evs: Vec<Ev>) -> Vec<Ev> {\n\
                          // Stable sort over cell-major input: ties keep\n\
                          // the deterministic cell order.\n\
                          evs.sort_by_key(|e| e.time);\n\
                          evs\n\
                      }\n";
    assert_eq!(det_rules("crates/ntier/src/fake.rs", documented), [""; 0]);
    // Non-time keys are out of scope entirely.
    let ids = "fn order(mut evs: Vec<Ev>) { evs.sort_by_key(|e| e.id); }\n";
    assert_eq!(det_rules("crates/ntier/src/fake.rs", ids), [""; 0]);
}

// ---------------------------------------------------------------------
// Scope and reality
// ---------------------------------------------------------------------

#[test]
fn non_identity_gated_crates_are_exempt() {
    let src = "fn t(mut evs: Vec<Ev>) -> Vec<Ev> { evs.sort_by_key(|e| e.time); evs }\n";
    assert_eq!(det_rules("crates/warehouse/src/fake.rs", src), ["DT006"]);
    assert_eq!(
        mscope_lint::lint_file("bench", "crates/bench/src/fake.rs", src),
        vec![]
    );
}

#[test]
fn test_modules_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n\
               fn t(mut evs: Vec<Ev>) { evs.sort_by_key(|e| e.time); }\n\
               }\n";
    assert_eq!(det_rules("crates/warehouse/src/fake.rs", src), [""; 0]);
}

#[test]
fn det_front_is_zero_deny_at_head() {
    let report = mscope_lint::run(&workspace_root(), "det", None).expect("det run succeeds");
    assert!(
        report.is_clean(),
        "the determinism front must hold at HEAD — fix the site:\n{}",
        report.render_text()
    );
}
