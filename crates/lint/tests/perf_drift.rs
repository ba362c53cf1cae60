//! Negative fixtures for the performance front: every PF rule must fire
//! on a deliberately-violating snippet and on its planted regression, and
//! stay silent on each disciplined counterpart. Mirrors `det_drift.rs` —
//! if a refactor of `perf.rs` weakens a rule, the rule ID names what
//! broke.
//! The rules clippy enforces (PF001's `.clone()` needle, PF002, PF005)
//! have their fixtures in `clippy_rules.rs`.
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
fn pf001_fires_on_the_planted_per_line_copy() {
    // The planted regression: the staged parser's record loop copying the
    // log line once per pattern it tries. `batch_rubbos` `job_s` rose
    // +6.8 % (5/5 pairs, past the parent's interquartile range) while
    // clippy, every test and every `bench_delta` ratio stayed green.
    let planted = "fn staged_line(&self, spec: &ParserSpec, st: &mut StagedState, line: &str) {\n\
                       for pat in &spec.records {\n\
                           let owned = line.to_owned();\n\
                           if pat.match_ranges(&owned, &mut st.ranges, &mut st.failed) {\n\
                               return;\n\
                           }\n\
                       }\n\
                   }\n";
    assert_eq!(
        perf_rules("crates/transform/src/declare.rs", planted),
        ["PF001"]
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
fn pf004_fires_on_the_planted_row_wise_queue_fold() {
    // The planted regression: the queue fold reading an event table's
    // `ua`/`ud` through `iter_rows()`, which copies every cell of every
    // row. `query_mix` `job_s` rose +412 % (5/5 pairs) while clippy, every
    // test and every `bench_delta` ratio stayed green.
    let planted = "fn event_intervals(table: &Table) -> Result<impl Iterator<Item = (i64, Option<i64>)> + '_, String> {\n\
                       let ua = table.schema().index_of(\"ua\").ok_or_else(|| missing(table, \"ua\"))?;\n\
                       let ud = table.schema().index_of(\"ud\").ok_or_else(|| missing(table, \"ud\"))?;\n\
                       Ok(table\n\
                           .iter_rows()\n\
                           .filter_map(move |r| Some((r[ua].as_i64()?, r[ud].as_i64()))))\n\
                   }\n";
    assert_eq!(
        perf_rules("crates/analysis/src/queue.rs", planted),
        ["PF004"]
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
fn pf006_fires_on_the_planted_per_row_compile() {
    // The planted regression: the block scan compiling the predicate once
    // per row of every block its zone maps cannot decide. `query_mix`
    // `job_s` rose +48.5 % (5/5 pairs, past the parent's interquartile
    // range) while clippy, every test and every `bench_delta` ratio stayed
    // green.
    let planted = "fn mixed(&self, s: usize, e: usize) -> Vec<usize> {\n\
                       let mut hits = Vec::new();\n\
                       for i in s..e {\n\
                           let node = Node::compile(&self.pred, &|c| self.resolve(c));\n\
                           if node.eval(i) {\n\
                               hits.push(i);\n\
                           }\n\
                       }\n\
                       hits\n\
                   }\n";
    assert_eq!(
        perf_rules("crates/warehouse/src/engine.rs", planted),
        ["PF006"]
    );
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
fn pf008_fires_on_the_planted_per_probe_sort() {
    // The planted regression: the hash join's probe loop re-sorting the
    // pairs found so far after every probe row. `query_mix` `job_s` rose
    // +51.7 % (5/5 pairs, past the parent's interquartile range) while
    // clippy, every test and every `bench_delta` ratio stayed green.
    let planted = "fn join_pairs(lcol: &[Value], rcol: &[Value], index: &KeyIndex, probe: Rows) -> Vec<(usize, usize)> {\n\
                       let mut out = Vec::with_capacity(probe.len().min(index.len()));\n\
                       for li in probe {\n\
                           out.extend(index.rows(rcol, &lcol[li]).iter().map(|&ri| (li, ri)));\n\
                           out.sort_unstable();\n\
                       }\n\
                       out\n\
                   }\n";
    assert_eq!(
        perf_rules("crates/warehouse/src/vector.rs", planted),
        ["PF008"]
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
fn run_perf_walks_the_real_workspace() {
    // The front runs end-to-end over the repository (the 0-deny gate
    // itself lives in workspace_clean.rs).
    let report = mscope_lint::run(&workspace_root(), "perf", None).expect("perf run succeeds");
    assert!(report.findings.iter().all(|f| f.rule.starts_with("PF")));
}
