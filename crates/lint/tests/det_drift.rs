//! Negative fixtures for the determinism front: every DT rule must fire
//! on a deliberately-violating snippet and stay silent on its disciplined
//! counterpart. Mirrors `trace_drift.rs` — if a refactor of `det.rs`
//! weakens a rule, the exact rule ID names what broke. The rules clippy
//! enforces (DT003, DT004, DT005, DT008) have their fixtures in
//! `clippy_rules.rs`.
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
// DT001 — hash iteration reaching output paths
// ---------------------------------------------------------------------

#[test]
fn dt001_fires_on_hash_iteration_escaping_unsorted() {
    let dirty = "use std::collections::HashMap;\n\
                 fn render(by_id: &HashMap<u64, String>) -> String {\n\
                     let mut out = String::new();\n\
                     for (_id, row) in by_id {\n\
                         out.push_str(row);\n\
                     }\n\
                     out\n\
                 }\n";
    assert_eq!(det_rules("crates/monitors/src/fake.rs", dirty), ["DT001"]);
}

#[test]
fn dt001_accepts_sort_before_emit_and_btree_recollection() {
    let sorted = "use std::collections::HashMap;\n\
                  fn render(by_id: &HashMap<u64, String>) -> Vec<u64> {\n\
                      let mut ids: Vec<u64> = by_id.keys().copied().collect();\n\
                      ids.sort_unstable();\n\
                      ids\n\
                  }\n";
    assert_eq!(det_rules("crates/monitors/src/fake.rs", sorted), [""; 0]);
    let btree = "use std::collections::{BTreeMap, HashMap};\n\
                 fn order(m: HashMap<u64, f64>) -> BTreeMap<u64, f64> {\n\
                     m.into_iter().collect::<BTreeMap<_, _>>()\n\
                 }\n";
    assert_eq!(det_rules("crates/warehouse/src/fake.rs", btree), [""; 0]);
}

#[test]
fn dt001_sees_impl_for_hash_self_consumption() {
    let dirty = "impl ToJson for HashMap<String, u64> {\n\
                     fn to_json(&self) -> Json {\n\
                         Json::arr(self.iter().map(|(k, v)| pair(k, v)))\n\
                     }\n\
                 }\n";
    assert_eq!(det_rules("crates/serdes/src/fake.rs", dirty), ["DT001"]);
    // The shipped discipline: collect pairs, sort, then emit.
    let sorted = "impl ToJson for HashMap<String, u64> {\n\
                      fn to_json(&self) -> Json {\n\
                          let mut pairs: Vec<_> = self.iter().collect();\n\
                          pairs.sort_by(|a, b| a.0.cmp(b.0));\n\
                          Json::arr(pairs)\n\
                      }\n\
                  }\n";
    assert_eq!(det_rules("crates/serdes/src/fake.rs", sorted), [""; 0]);
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
    let src = "fn t(m: &HashMap<u64, u64>) -> Vec<u64> { m.keys().copied().collect() }\n";
    assert_eq!(det_rules("crates/warehouse/src/fake.rs", src), ["DT001"]);
    assert_eq!(
        mscope_lint::lint_file("bench", "crates/bench/src/fake.rs", src),
        vec![]
    );
}

#[test]
fn test_modules_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n\
               fn t(m: &HashMap<u64, u64>) { for v in m.values() { sink(v); } }\n\
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
