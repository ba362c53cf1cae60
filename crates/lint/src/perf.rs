//! Front 5: the hot-path performance discipline scanner.
//!
//! The benches and the end-to-end A/B measure the hot paths; this front
//! keeps the four text rules whose planted violation slowed an end-to-end
//! workload while clippy, the test suites and every `bench_delta` ratio
//! stayed green (EXPERIMENTS.md, the planted-regression table). Each is
//! a needle with a scope, one row of a table evaluated over the scrubbed,
//! test-masked source model of [`crate::source`] and its loop bodies.
//!
//! Rules (deny-level, scoped to the hot-path crates [`PERF_HOT_CRATES`]):
//!
//! * `PF001` — an allocation (`clone()`, `to_string()`, `to_owned()`,
//!   `format!`, `String::from`, `vec!`, `wallclock(`) inside a loop body.
//!   Error construction (`Err(…)`, `map_err(…)`, `ok_or*(…)`,
//!   `unwrap_or_else(…)` spans) is cold by definition and exempt, and so
//!   is a `return`/`break` statement — a terminal statement runs at most
//!   once per loop *execution*, so its allocation is O(1), not O(n).
//!   Anything else needs a word-start `// perf:` justification comment.
//!   Planted: a `to_owned()` of each log line in the staged parser's
//!   record loop cost `batch_rubbos` +6.8 % `job_s`.
//! * `PF004` — zone-map bypass: row-wise `Table` access (`iter_rows()`,
//!   per-row `.cell(…)` in a loop) in warehouse/analysis non-test code
//!   outside the engine files — scans must route through
//!   `CompiledPredicate`/`window_agg_where` so block skipping and typed
//!   column slices apply. Planted: the queue fold reading its `ua`/`ud`
//!   columns through `iter_rows()` cost `query_mix` +412 % `job_s`.
//! * `PF006` — per-row predicate or index construction:
//!   `CompiledPredicate::compile`/`Node::compile`/`KeyIndex::build`/
//!   `KeyIndex::over` inside a loop body — compilation binds column
//!   slices once per *query* and must be hoisted out of row/iteration
//!   loops. Planted: the block scan compiling its predicate once per row
//!   of every undecided block cost `query_mix` +48.5 % `job_s`.
//! * `PF008` — a sort inside a loop body: re-sorting per iteration is
//!   O(n·m log m) where one sort after the loop (or a sorted merge)
//!   almost always works. Planted: the hash join's probe loop re-sorting
//!   its pairs after every probe row cost `query_mix` +51.7 % `job_s`.
//!
//! `// perf:` comments are the justification hatch: the comment must say
//! *why* the allocation or access pattern is right (bounded size, cold
//! path, correctness), the same way the determinism front accepts
//! documented merge orders.
//!
//! The front's other rules are clippy's or retired (DESIGN.md §7): PF002
//! is `clippy::needless_collect`, PF005 a `disallowed-methods` entry, and
//! PF001's `.clone()` needle is also `clippy::redundant_clone`, which sees
//! only the clones it can prove redundant. PF003 and PF007 are retired;
//! their IDs are not reused.

use crate::source::{
    comment_evidence, is_ident, loop_bodies, one_per_line, span_end, word_start, FileCtx,
};
use crate::Finding;
use std::ops::Range;

/// Crates on the measured hot paths: analysis queries, monitor rendering,
/// the simulator support layer, the transform fan-out, and the warehouse
/// query engine. `ntier` is covered by the sim-scale bench and the
/// determinism front; `bench` and `lint` time and inspect, they are not
/// the product path.
pub const PERF_HOT_CRATES: &[&str] = &["analysis", "monitors", "sim", "transform", "warehouse"];

/// The compiled-engine homes: row-wise access *is* the implementation in
/// the scan engine and its vectorized executor (PF004 exempts them).
pub const ENGINE_FILES: &[&str] = &[
    "crates/warehouse/src/engine.rs",
    "crates/warehouse/src/vector.rs",
];

/// Crates whose `Table` access must route through the compiled engine
/// (PF004).
const TABLE_CRATES: &[&str] = &["analysis", "warehouse"];

/// The justification-comment token every hatch shares.
const PERF_TOKEN: &[&str] = &["perf:"];

/// Lines of raw source above a hit searched for the justification.
const PERF_WINDOW: usize = 4;

/// One rule: a needle, a scope and a message. Every hit may be justified
/// by a `// perf:` comment on its line or [`PERF_WINDOW`] lines above it,
/// and a needle that begins with an identifier character must begin a
/// word, so neither `push_wallclock(` nor `parse_wallclock(` is
/// `wallclock(`.
struct PerfRule {
    /// Rule ID.
    rule: &'static str,
    /// Crates it applies to.
    crates: &'static [&'static str],
    /// Workspace-relative files exempt from it.
    exempt: &'static [&'static str],
    /// Substrings of the masked text that are hits, in report order.
    needles: &'static [&'static str],
    /// A hit counts only inside a loop body.
    in_loop: bool,
    /// Hits inside cold error-construction spans and terminal
    /// `return`/`break` statements are exempt.
    cold_exempt: bool,
    /// The finding's message, before the quoted source line: `{call}` is
    /// the needle without its trailing `(`.
    message: &'static str,
}

const ROW_WISE: &str = "row-wise `Table` access bypasses the zone-map engine — route the scan through `CompiledPredicate`/`window_agg_where` or justify with `// perf:`";

/// Every rule, in report order.
const RULES: &[PerfRule] = &[
    PerfRule {
        rule: "PF001",
        crates: PERF_HOT_CRATES,
        exempt: &[],
        // `wallclock(` is the timestamp formatter that returns a fresh
        // `String`; `push_wallclock` appends in place.
        needles: &[
            ".clone()",
            ".to_string()",
            ".to_owned()",
            "format!",
            "String::from(",
            "vec!",
            "wallclock(",
        ],
        in_loop: true,
        cold_exempt: true,
        message: "allocation `{call}` inside a hot-path loop with no `// perf:` justification — hoist it, borrow, or document why the allocation is right",
    },
    PerfRule {
        rule: "PF004",
        crates: TABLE_CRATES,
        exempt: ENGINE_FILES,
        needles: &[".iter_rows()"],
        in_loop: false,
        cold_exempt: false,
        message: ROW_WISE,
    },
    // A single `.cell(` probe is not a scan; one in a loop is.
    PerfRule {
        rule: "PF004",
        crates: TABLE_CRATES,
        exempt: ENGINE_FILES,
        needles: &[".cell("],
        in_loop: true,
        cold_exempt: false,
        message: ROW_WISE,
    },
    PerfRule {
        rule: "PF006",
        crates: PERF_HOT_CRATES,
        exempt: &[],
        needles: &[
            "CompiledPredicate::compile(",
            "Node::compile(",
            "KeyIndex::build(",
            "KeyIndex::over(",
        ],
        in_loop: true,
        cold_exempt: false,
        message: "`{call}` inside a loop — compilation binds column slices once per query; hoist it out of the iteration",
    },
    PerfRule {
        rule: "PF008",
        crates: PERF_HOT_CRATES,
        exempt: &[],
        needles: &[
            ".sort()",
            ".sort_by(",
            ".sort_by_key(",
            ".sort_by_cached_key(",
            ".sort_unstable()",
            ".sort_unstable_by(",
            ".sort_unstable_by_key(",
        ],
        in_loop: true,
        cold_exempt: false,
        message: "`{call}` inside a loop re-sorts every iteration — sort once after the loop or keep the data sorted by construction",
    },
];

/// Call spans that are cold by definition: error construction never runs
/// on the measured path, so allocating inside it is free.
const COLD_CALLS: &[&str] = &[
    "Err(",
    "map_err(",
    "ok_or_else(",
    "ok_or(",
    "unwrap_or_else(",
];

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Performance-front findings for one file: every rule of [`RULES`] whose
/// scope holds the file, rule by rule, needle by needle, then one per
/// (rule, line). Crates outside [`PERF_HOT_CRATES`] are exempt.
pub(crate) fn findings(file: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let rules = RULES.iter().filter(|r| {
        r.crates.contains(&file.krate.as_str()) && !r.exempt.contains(&file.rel.as_str())
    });
    let loops = loop_bodies(&file.masked);
    let cold = cold_spans(&file.masked);
    for rule in rules {
        for needle in rule.needles {
            let word = is_ident(needle.as_bytes()[0]);
            for (at, _) in file.masked.match_indices(needle) {
                if (word && !word_start(&file.masked, at))
                    || (rule.in_loop && !loops.iter().any(|body| body.contains(&at)))
                    || (rule.cold_exempt
                        && (cold.iter().any(|r| r.contains(&at))
                            || terminal_statement(&file.masked, at)))
                    || comment_evidence(&file.text, at, PERF_WINDOW, PERF_TOKEN)
                {
                    continue;
                }
                let what = rule.message.replace("{call}", needle.trim_end_matches('('));
                file.push(&mut out, rule.rule, at, &what);
            }
        }
    }
    one_per_line(&mut out);
    out
}

/// Paren spans following the cold-call needles (word-bounded, since every
/// cold needle starts with an identifier character).
fn cold_spans(masked: &str) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for call in COLD_CALLS {
        for (at, _) in masked.match_indices(call) {
            if word_start(masked, at) {
                let open = at + call.len() - 1;
                out.push(open..span_end(masked, open));
            }
        }
    }
    out
}

/// `true` when the statement containing `at` is a `return` or `break`
/// expression. A terminal statement executes at most once per enclosing
/// loop *execution* (it ends the final iteration), so an allocation
/// there is O(1) — the violation-detail `format!` in a `return
/// Some(Violation { … })` never runs on the measured path.
fn terminal_statement(masked: &str, at: usize) -> bool {
    let stmt_start = masked[..at].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let stmt = masked[stmt_start..at].trim_start();
    ["return", "break"].iter().any(|kw| {
        stmt.strip_prefix(kw)
            .is_some_and(|rest| rest.is_empty() || !is_ident(rest.as_bytes()[0]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<String> {
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("warehouse");
        findings(&FileCtx::new(rel, krate, src.to_string()))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn pf001_exempts_error_paths_and_perf_comments() {
        let dirty = "fn f(rows: &[Row]) -> Vec<String> {\n\
                     let mut out = Vec::with_capacity(rows.len());\n\
                     for r in rows { out.push(r.name.to_string()); }\n\
                     out\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", dirty), ["PF001"]);
        let cold = "fn f(rows: &[Row]) -> Result<(), E> {\n\
                    for r in rows {\n\
                        check(r).map_err(|e| format!(\"{e} at {}\", r.id.to_string()))?;\n\
                    }\n    Ok(())\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", cold), [""; 0]);
        let justified = "fn f(rows: &[Row]) -> Vec<String> {\n\
                         let mut out = Vec::with_capacity(rows.len());\n\
                         // perf: output rows are owned by contract\n\
                         for r in rows { out.push(r.name.to_string()); }\n\
                         out\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", justified), [""; 0]);
        // A `return`/`break` statement ends the loop: its allocation runs
        // at most once per loop execution, never per iteration.
        let terminal = "fn f(xs: &[u64]) -> String {\n\
                        for x in xs {\n\
                            if *x > 9 { return format!(\"big {x}\"); }\n\
                        }\n\
                        String::new()\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", terminal), [""; 0]);
        let mid_loop = "fn f(xs: &[u64]) -> u64 {\n\
                        let mut n = 0;\n\
                        for x in xs { let s = x.to_string(); n += s.len() as u64; }\n\
                        n\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", mid_loop), ["PF001"]);
    }

    #[test]
    fn pf004_flags_row_wise_access_outside_engine() {
        let dirty = "fn scan(t: &Table) -> usize {\n\
                     let mut n = 0;\n\
                     for row in t.iter_rows() { n += row.len(); }\n\
                     n\n}\n";
        assert_eq!(rules("crates/analysis/src/x.rs", dirty), ["PF004"]);
        assert_eq!(rules("crates/warehouse/src/engine.rs", dirty), [""; 0]);
        assert_eq!(rules("crates/warehouse/src/vector.rs", dirty), [""; 0]);
        // Other hot crates don't hold Tables; out of scope.
        assert_eq!(rules("crates/sim/src/x.rs", dirty), [""; 0]);
        let probe = "fn probe(t: &Table) -> Option<&Value> { t.cell(0, \"x\") }\n";
        assert_eq!(rules("crates/analysis/src/x.rs", probe), [""; 0]);
    }

    #[test]
    fn pf006_wants_compilation_hoisted() {
        let dirty = "fn f(t: &Table, preds: &[Predicate]) -> usize {\n\
                     let mut n = 0;\n\
                     for p in preds {\n\
                         let c = CompiledPredicate::compile(t, p);\n\
                         n += c.matching_rows().len();\n\
                     }\n    n\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", dirty), ["PF006"]);
        let hoisted = "fn f(t: &Table, p: &Predicate) -> usize {\n\
                       let c = CompiledPredicate::compile(t, p);\n\
                       c.matching_rows().len()\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", hoisted), [""; 0]);
    }

    #[test]
    fn pf008_flags_sorting_per_iteration() {
        let dirty = "fn f(groups: &mut [Vec<u64>]) {\n\
                     for g in groups.iter_mut() { g.sort_unstable(); }\n\
                     }\n";
        assert_eq!(rules("crates/analysis/src/x.rs", dirty), ["PF008"]);
        let outside = "fn f(mut all: Vec<u64>) -> Vec<u64> {\n\
                       all.sort_unstable();\n\
                       all\n}\n";
        assert_eq!(rules("crates/analysis/src/x.rs", outside), [""; 0]);
        let justified = "fn f(groups: &mut [Vec<u64>]) {\n\
                         // perf: per-group sorts are tiny (≤4 elements) and\n\
                         // independent; one global sort would need a regroup\n\
                         for g in groups.iter_mut() { g.sort_unstable(); }\n\
                         }\n";
        assert_eq!(rules("crates/analysis/src/x.rs", justified), [""; 0]);
    }

    #[test]
    fn exempt_crates_and_test_code_stay_silent() {
        let src = "fn f(xs: &[u64]) -> Vec<String> {\n\
                   let mut out = Vec::new();\n\
                   for x in xs { out.push(format!(\"{x}\")); }\n\
                   out\n}\n";
        assert!(rules("crates/ntier/src/x.rs", src).is_empty());
        assert!(rules("crates/bench/src/x.rs", src).is_empty());
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(rules("crates/warehouse/src/x.rs", &test_only).is_empty());
    }
}
