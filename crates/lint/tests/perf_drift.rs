//! Negative fixtures for the performance front: every PF rule must fire
//! on a deliberately-violating snippet and stay silent on its disciplined
//! counterpart. Mirrors `det_drift.rs` — if a refactor of `perf.rs`
//! weakens a rule, the exact rule ID names what broke.
//!
//! The closing gate lives in `workspace_clean.rs`
//! (`perf_front_alone_is_clean`): the real workspace is 0-deny on this
//! front at HEAD, so these fixtures are drills, not grandfathered
//! reality.

use mscope_lint::{Finding, Severity};
use std::path::PathBuf;

/// The performance-front findings [`mscope_lint::lint_file`] reports for
/// a fixture at `rel` (the crate name is derived from the path, as the
/// workspace walk does).
fn perf_findings(rel: &str, src: &str) -> Vec<Finding> {
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .expect("fixture paths are crate-relative");
    mscope_lint::lint_file(krate, rel, src)
        .into_iter()
        .filter(|f| f.rule.starts_with("PF"))
        .collect()
}

/// Rule IDs of [`perf_findings`].
fn perf_rules(rel: &str, src: &str) -> Vec<String> {
    perf_findings(rel, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// The one deny finding a fixture must produce, message included.
fn deny(rule: &str, file: &str, line: u64, message: &str) -> Vec<Finding> {
    vec![Finding {
        rule: rule.to_string(),
        severity: Severity::Deny,
        file: file.to_string(),
        line,
        message: message.to_string(),
    }]
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

// ---------------------------------------------------------------------
// PF001 — allocation in hot loops
// ---------------------------------------------------------------------

#[test]
fn pf001_fires_on_per_iteration_allocation() {
    let dirty = "fn render(samples: &[Sample]) -> String {\n\
                 let mut out = String::with_capacity(samples.len() * 32);\n\
                 for s in samples {\n\
                     out.push_str(&format!(\"{} {}\\n\", s.time, s.value));\n\
                 }\n\
                 out\n}\n";
    assert_eq!(
        perf_findings("crates/monitors/src/fake.rs", dirty),
        deny(
            "PF001",
            "crates/monitors/src/fake.rs",
            4,
            "allocation `format!` inside a hot-path loop with no `// perf:` justification — hoist it, borrow, or document why the allocation is right: `out.push_str(&format!(\"{} {}\\n\", s.time, s.value));`"
        )
    );
}

#[test]
fn pf001_accepts_cold_error_spans() {
    // Error construction only runs when the hot path has already failed.
    let cold = "fn load(rows: &[Row]) -> Result<(), DbError> {\n\
                for r in rows {\n\
                    validate(r).map_err(|e| DbError::BadRow(format!(\"row {}: {e}\", r.id)))?;\n\
                }\n\
                Ok(())\n}\n";
    assert_eq!(perf_rules("crates/warehouse/src/fake.rs", cold), [""; 0]);
}

#[test]
fn pf001_accepts_terminal_return_and_break() {
    // A `return`/`break` statement ends the loop — its allocation runs at
    // most once per loop *execution*, never per iteration.
    let ret = "fn first_big(xs: &[u64]) -> Option<String> {\n\
               for x in xs {\n\
                   if *x > 9 { return Some(format!(\"big {x}\")); }\n\
               }\n\
               None\n}\n";
    assert_eq!(perf_rules("crates/sim/src/fake.rs", ret), [""; 0]);
    let brk = "fn find(xs: &[u64]) -> String {\n\
               let mut hit = String::new();\n\
               for x in xs {\n\
                   if *x > 9 { break hit; }\n\
               }\n\
               hit\n}\n";
    assert_eq!(perf_rules("crates/sim/src/fake.rs", brk), [""; 0]);
}

#[test]
fn pf001_accepts_a_perf_justification_comment() {
    let justified = "fn flows(rows: &[Row]) -> Vec<Flow> {\n\
                     let mut out = Vec::with_capacity(rows.len());\n\
                     for r in rows {\n\
                         // perf: flows own their ids — one allocation per\n\
                         // emitted flow is the materialization contract.\n\
                         out.push(Flow { id: r.id.to_string() });\n\
                     }\n\
                     out\n}\n";
    assert_eq!(
        perf_rules("crates/analysis/src/fake.rs", justified),
        [""; 0]
    );
}

#[test]
fn pf001_fires_on_a_fresh_wallclock_string_per_iteration() {
    // `wallclock` returns a new `String`; `push_wallclock` appends in
    // place, and `parse_wallclock` allocates nothing.
    let dirty = "fn render(out: &mut String, samples: &[Sample]) {\n\
                 for s in samples {\n\
                     let _ = writeln!(out, \"{} {}\", mscope_sim::wallclock(s.time), s.value);\n\
                 }\n}\n";
    assert_eq!(perf_rules("crates/monitors/src/fake.rs", dirty), ["PF001"]);
    let clean = "fn render(out: &mut String, lines: &[&str], samples: &[Sample]) {\n\
                 for s in samples {\n\
                     push_wallclock(out, s.time);\n\
                     let _ = writeln!(out, \" {}\", s.value);\n\
                 }\n\
                 for l in lines {\n\
                     let _ = mscope_sim::parse_wallclock(l);\n\
                 }\n}\n";
    assert_eq!(perf_rules("crates/monitors/src/fake.rs", clean), [""; 0]);
}

// ---------------------------------------------------------------------
// PF002 — collect-then-reiterate churn
// ---------------------------------------------------------------------

#[test]
fn pf002_fires_on_single_reiteration_of_a_collect() {
    let dirty = "fn total(xs: &[u64]) -> u64 {\n\
                 let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect();\n\
                 let mut acc = 0;\n\
                 for d in doubled { acc += d; }\n\
                 acc\n}\n";
    assert_eq!(perf_rules("crates/transform/src/fake.rs", dirty), ["PF002"]);
}

#[test]
fn pf002_accepts_slice_apis_and_multiple_uses() {
    // Materializing for a `&[&str]` API is not churn…
    let slice_use = "fn project(t: &Table, cols: &[String]) -> Result<Table, E> {\n\
                     let names: Vec<&str> = cols.iter().map(String::as_str).collect();\n\
                     t.select(&names)\n}\n";
    assert_eq!(
        perf_rules("crates/warehouse/src/fake.rs", slice_use),
        [""; 0]
    );
    // …and neither is using the Vec more than once.
    let two_uses = "fn stats(xs: &[f64]) -> (usize, f64) {\n\
                    let v: Vec<f64> = xs.iter().copied().collect();\n\
                    let n = v.len();\n\
                    (n, v.iter().sum::<f64>())\n}\n";
    assert_eq!(perf_rules("crates/sim/src/fake.rs", two_uses), [""; 0]);
}

// ---------------------------------------------------------------------
// PF003 — unsized growth in bounded loops
// ---------------------------------------------------------------------

#[test]
fn pf003_fires_on_fresh_empty_growth_in_a_for_loop() {
    let dirty = "fn ids(rows: &[Row]) -> Vec<u64> {\n\
                 let mut out = Vec::new();\n\
                 for r in rows { out.push(r.id); }\n\
                 out\n}\n";
    assert_eq!(perf_rules("crates/monitors/src/fake.rs", dirty), ["PF003"]);
}

#[test]
fn pf003_accepts_presizing_and_unbounded_loops() {
    let capacity = "fn ids(rows: &[Row]) -> Vec<u64> {\n\
                    let mut out = Vec::with_capacity(rows.len());\n\
                    for r in rows { out.push(r.id); }\n\
                    out\n}\n";
    assert_eq!(perf_rules("crates/monitors/src/fake.rs", capacity), [""; 0]);
    let reserve = "fn ids(rows: &[Row], out: &mut Vec<u64>) {\n\
                   let mut tmp = Vec::new();\n\
                   tmp.reserve(rows.len());\n\
                   for r in rows { tmp.push(r.id); }\n\
                   out.extend(tmp);\n}\n";
    assert_eq!(perf_rules("crates/monitors/src/fake.rs", reserve), [""; 0]);
    // A `while` loop has no static bound to pre-size from.
    let unbounded = "fn drain(it: &mut I) -> Vec<u64> {\n\
                     let mut out = Vec::new();\n\
                     while let Some(x) = it.next() { out.push(x); }\n\
                     out\n}\n";
    assert_eq!(
        perf_rules("crates/monitors/src/fake.rs", unbounded),
        [""; 0]
    );
}

// ---------------------------------------------------------------------
// PF004 — zone-map bypass
// ---------------------------------------------------------------------

#[test]
fn pf004_fires_on_row_wise_scans_outside_the_engine() {
    let rows = "fn count(t: &Table) -> usize {\n\
                let mut n = 0;\n\
                for row in t.iter_rows() { n += row.len(); }\n\
                n\n}\n";
    assert_eq!(
        perf_findings("crates/analysis/src/fake.rs", rows),
        deny(
            "PF004",
            "crates/analysis/src/fake.rs",
            3,
            "row-wise `Table` access bypasses the zone-map engine — route the scan through `CompiledPredicate`/`window_agg_where` or justify with `// perf:`: `for row in t.iter_rows() { n += row.len(); }`"
        )
    );
    let cells = "fn sum(t: &Table) -> i64 {\n\
                 let mut acc = 0;\n\
                 for i in 0..t.row_count() {\n\
                     acc += t.cell(i, \"v\").unwrap().as_i64().unwrap();\n\
                 }\n\
                 acc\n}\n";
    assert_eq!(
        perf_findings("crates/warehouse/src/fake.rs", cells),
        deny(
            "PF004",
            "crates/warehouse/src/fake.rs",
            4,
            "row-wise `Table` access bypasses the zone-map engine — route the scan through `CompiledPredicate`/`window_agg_where` or justify with `// perf:`: `acc += t.cell(i, \"v\").unwrap().as_i64().unwrap();`"
        )
    );
}

#[test]
fn pf004_exempts_the_engine_probes_and_foreign_crates() {
    let rows = "fn count(t: &Table) -> usize {\n\
                let mut n = 0;\n\
                for row in t.iter_rows() { n += row.len(); }\n\
                n\n}\n";
    // Row-wise access *is* the implementation inside the compiled engine…
    assert_eq!(perf_rules("crates/warehouse/src/engine.rs", rows), [""; 0]);
    // …and crates that don't hold Tables are out of scope.
    assert_eq!(perf_rules("crates/transform/src/fake.rs", rows), [""; 0]);
    // A single out-of-loop probe is not a scan.
    let probe = "fn peek(t: &Table) -> Option<&Value> { t.cell(0, \"x\") }\n";
    assert_eq!(perf_rules("crates/analysis/src/fake.rs", probe), [""; 0]);
}

// ---------------------------------------------------------------------
// PF006 — per-row predicate/index construction
// ---------------------------------------------------------------------

#[test]
fn pf006_fires_on_compilation_inside_a_loop() {
    let dirty = "fn probe(t: &Table, ids: &[Vec<String>]) -> usize {\n\
                 let mut n = 0;\n\
                 for id in ids {\n\
                     let idx = KeyIndex::build(id.clone());\n\
                     n += idx.len();\n\
                 }\n\
                 n\n}\n";
    assert!(perf_rules("crates/analysis/src/fake.rs", dirty).contains(&"PF006".to_string()));
    // The selection constructor builds the same index.
    let over = "fn probe(col: &[Value], sels: &[Vec<usize>]) -> usize {\n\
                let mut n = 0;\n\
                for sel in sels {\n\
                    n += KeyIndex::over(col, sel.iter().copied()).len();\n\
                }\n\
                n\n}\n";
    assert_eq!(
        perf_findings("crates/warehouse/src/fake.rs", over),
        deny(
            "PF006",
            "crates/warehouse/src/fake.rs",
            4,
            "`KeyIndex::over` inside a loop — compilation binds column slices once per query; hoist it out of the iteration: `n += KeyIndex::over(col, sel.iter().copied()).len();`"
        )
    );
    // The pair-space entry (join residual, HAVING) binds slices the same way.
    let pairs =
        "fn residuals(preds: &[Predicate], resolve: &R, pairs: &[(usize, usize)]) -> usize {\n\
                 let mut n = 0;\n\
                 for p in preds {\n\
                     let node = Node::compile(p, resolve);\n\
                     n += pairs.iter().filter(|&&r| node.eval(r)).count();\n\
                 }\n\
                 n\n}\n";
    assert_eq!(perf_rules("crates/warehouse/src/fake.rs", pairs), ["PF006"]);
}

#[test]
fn pf006_accepts_hoisted_or_justified_construction() {
    let hoisted = "fn probe(t: &Table, p: &Predicate, rows: &[usize]) -> usize {\n\
                   let c = CompiledPredicate::compile(t, p);\n\
                   let mut n = 0;\n\
                   for r in rows { n += usize::from(c.matches(*r)); }\n\
                   n\n}\n";
    assert_eq!(perf_rules("crates/warehouse/src/fake.rs", hoisted), [""; 0]);
    let justified = "fn deep(tables: &[Table]) -> Vec<KeyIndex> {\n\
                     let mut out = Vec::with_capacity(tables.len());\n\
                     for t in tables {\n\
                         // perf: one index per deeper-tier *table*, built\n\
                         // once per reconstruction, not per row.\n\
                         out.push(KeyIndex::build(ids(t)));\n\
                     }\n\
                     out\n}\n";
    assert_eq!(
        perf_rules("crates/analysis/src/fake.rs", justified),
        [""; 0]
    );
}

// ---------------------------------------------------------------------
// PF007 — nested-loop joins
// ---------------------------------------------------------------------

#[test]
fn pf007_fires_on_nested_row_loops() {
    let dirty = "fn join(a: &Table, b: &Table) -> usize {\n\
                 let mut n = 0;\n\
                 for i in 0..a.row_count() {\n\
                     for j in 0..b.row_count() {\n\
                         if key(a, i) == key(b, j) { n += 1; }\n\
                     }\n\
                 }\n\
                 n\n}\n";
    assert_eq!(perf_rules("crates/warehouse/src/fake.rs", dirty), ["PF007"]);
}

#[test]
fn pf007_accepts_the_engine_and_single_sided_loops() {
    let dirty = "fn join(a: &Table, b: &Table) -> usize {\n\
                 let mut n = 0;\n\
                 for i in 0..a.row_count() {\n\
                     for j in 0..b.row_count() {\n\
                         if key(a, i) == key(b, j) { n += 1; }\n\
                     }\n\
                 }\n\
                 n\n}\n";
    assert_eq!(perf_rules("crates/warehouse/src/engine.rs", dirty), [""; 0]);
    // An inner loop over a small fixed set is not a table join.
    let one_side = "fn scan(a: &Table, keys: &[u64]) -> usize {\n\
                    let mut n = 0;\n\
                    for i in 0..a.row_count() {\n\
                        for k in keys { if *k == i as u64 { n += 1; } }\n\
                    }\n\
                    n\n}\n";
    assert_eq!(
        perf_rules("crates/warehouse/src/fake.rs", one_side),
        [""; 0]
    );
}

// ---------------------------------------------------------------------
// PF008 — sorting inside a loop
// ---------------------------------------------------------------------

#[test]
fn pf008_fires_on_per_iteration_sorts() {
    let dirty = "fn normalize(groups: &mut [Vec<u64>]) {\n\
                 for g in groups.iter_mut() { g.sort_unstable(); }\n\
                 }\n";
    assert_eq!(
        perf_findings("crates/sim/src/fake.rs", dirty),
        deny(
            "PF008",
            "crates/sim/src/fake.rs",
            2,
            "`.sort_unstable()` inside a loop re-sorts every iteration — sort once after the loop or keep the data sorted by construction: `for g in groups.iter_mut() { g.sort_unstable(); }`"
        )
    );
}

#[test]
fn pf008_accepts_one_sort_after_the_loop_or_a_justification() {
    let outside = "fn gather(rows: &[Row]) -> Vec<u64> {\n\
                   let mut all = Vec::with_capacity(rows.len());\n\
                   for r in rows { all.push(r.id); }\n\
                   all.sort_unstable();\n\
                   all\n}\n";
    assert_eq!(perf_rules("crates/sim/src/fake.rs", outside), [""; 0]);
    let justified = "fn per_column(cols: &mut [Vec<Key>]) {\n\
                     for keys in cols.iter_mut() {\n\
                         // perf: one sort per described column — distinct\n\
                         // counting needs any total order per column.\n\
                         keys.sort_unstable();\n\
                     }\n\
                     }\n";
    assert_eq!(
        perf_rules("crates/warehouse/src/fake.rs", justified),
        [""; 0]
    );
}

// ---------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------

#[test]
fn cold_crates_and_test_modules_are_exempt() {
    let src = "fn f(xs: &[u64]) -> Vec<String> {\n\
               let mut out = Vec::new();\n\
               for x in xs { out.push(format!(\"{x}\")); }\n\
               out\n}\n";
    // `lint` and `bench` inspect and time the product; they are not it.
    assert!(mscope_lint::lint_file("lint", "crates/lint/src/fake.rs", src).is_empty());
    assert!(mscope_lint::lint_file("bench", "crates/bench/src/fake.rs", src).is_empty());
    let test_only = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
    assert_eq!(
        perf_rules("crates/warehouse/src/fake.rs", &test_only),
        [""; 0]
    );
}

#[test]
fn one_finding_per_rule_and_line() {
    // Two needles on one line must not double-report.
    let dirty = "fn f(rows: &[Row]) -> Vec<(String, String)> {\n\
                 let mut out = Vec::with_capacity(rows.len());\n\
                 for r in rows { out.push((r.a.to_string(), r.b.to_string())); }\n\
                 out\n}\n";
    assert_eq!(perf_rules("crates/transform/src/fake.rs", dirty), ["PF001"]);
}

#[test]
fn perf_front_reports_are_deny_severity_with_location() {
    let dirty = "fn ids(rows: &[Row]) -> Vec<u64> {\n\
                 let mut out = Vec::new();\n\
                 for r in rows { out.push(r.id); }\n\
                 out\n}\n";
    let findings = perf_findings("crates/monitors/src/fake.rs", dirty);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.rule, "PF003");
    assert_eq!(f.severity, mscope_lint::Severity::Deny);
    assert_eq!(f.file, "crates/monitors/src/fake.rs");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("out.push(r.id)"), "{}", f.message);
}

#[test]
fn run_perf_walks_the_real_workspace() {
    // The front runs end-to-end over the repository (the 0-deny gate
    // itself lives in workspace_clean.rs).
    let report = mscope_lint::run(&workspace_root(), "perf", None).expect("perf run succeeds");
    assert!(report.findings.iter().all(|f| f.rule.starts_with("PF")));
}
