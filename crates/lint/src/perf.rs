//! Front 5: the hot-path performance discipline scanner.
//!
//! milliScope's value proposition is sub-millisecond-overhead monitoring
//! at production scale, and the ROADMAP demands the hot paths — transform
//! fan-out, the sharded simulator, the compiled query engine — run as
//! fast as the hardware allows. The BENCH gates catch a regression after
//! the fact, and only on benchmarked shapes; this front encodes the
//! *discipline* statically, over the same scrubbed/test-masked source
//! model as the source and determinism fronts plus the loop-span walker
//! ([`crate::source`]), so clone churn or a zone-map bypass is a lint
//! failure before anything runs.
//!
//! Rules (all deny-level, scoped to the hot-path crates
//! [`PERF_HOT_CRATES`]; `PF001`, `PF004`, `PF006` and `PF008` are rows of
//! `needle::NEEDLE_RULES`); every rule's escape hatch is precise and local:
//!
//! * `PF001` — an allocation (`clone()`, `to_string()`, `to_owned()`,
//!   `format!`, `String::from`, `vec!`, `wallclock(`) inside a loop body. Error
//!   construction (`Err(…)`, `map_err(…)`, `ok_or_else(…)` spans) is cold
//!   by definition and exempt, and so is a `return`/`break` statement —
//!   a terminal statement runs at most once per loop *execution*, so its
//!   allocation is O(1), not O(n). Anything else needs a word-start
//!   `// perf:` justification comment.
//! * `PF002` — collect-then-reiterate churn: a `let` binding built with
//!   `.collect::<Vec<…>>()` (or an annotated `: Vec<…> = ….collect()`)
//!   whose only later use is a single re-iteration — the iterator could
//!   have flowed through without materializing.
//! * `PF003` — `Vec::push`/`String::push_str` in a `for` loop (statically
//!   bounded iteration) into a fresh `Vec::new()`/`String::new()` binding
//!   when the enclosing function never calls `with_capacity`/`reserve`:
//!   the growth reallocations are avoidable by pre-sizing.
//! * `PF004` — zone-map bypass: row-wise `Table` access (`iter_rows()`,
//!   per-row `.cell(…)` in a loop) in warehouse/analysis non-test code
//!   outside the engine files — scans must route through
//!   `CompiledPredicate`/`window_agg_where` so block skipping and typed
//!   column slices apply.
//! * `PF005` (clippy) — a call of the `Table::{filter_naive,
//!   inner_join_naive}` oracles outside tests: a `disallowed-methods`
//!   entry in the identity-gated crates' `clippy.toml`, since the oracles
//!   exist for property tests and benches, never as the production path.
//! * `PF006` — per-row predicate or index construction:
//!   `CompiledPredicate::compile`/`Node::compile`/`KeyIndex::build`/
//!   `KeyIndex::over` inside a loop body — compilation binds column
//!   slices once per *query* and must be hoisted out of row/iteration
//!   loops.
//! * `PF007` — a nested-loop join: two nested loops whose headers both
//!   iterate row-indexed data (`iter_rows`/`row_count`/`matching_rows`)
//!   outside the engine files — O(n·m) over table-sized collections; use
//!   `KeyIndex`.
//! * `PF008` — `sort`/`sort_by` inside a loop body: re-sorting per
//!   iteration is O(n·m log m) where one sort after the loop (or a
//!   sorted merge) almost always works.
//!
//! `// perf:` comments are the uniform justification hatch (PF001, PF003,
//! PF004, PF006, PF007, PF008): the comment must say *why* the allocation
//! or access pattern is right (bounded size, cold path, correctness), the
//! same way the determinism front accepts documented merge orders.

use crate::needle::{self, one_per_line};
use crate::source::{
    comment_evidence, enclosing_fn, enclosing_loop, find_word, is_loop_subject, span_end,
    trailing_ident, FileCtx, LoopSpan,
};
use crate::Finding;
use std::ops::Range;

/// Crates on the measured hot paths: analysis queries, monitor rendering,
/// the simulator support layer, the transform fan-out, and the warehouse
/// query engine. `ntier` is covered by the sim-scale bench and the
/// determinism front; `bench` and `lint` time and inspect, they are not
/// the product path.
pub const PERF_HOT_CRATES: &[&str] = &["analysis", "monitors", "sim", "transform", "warehouse"];

/// The compiled-engine homes: row-wise access and nested row loops *are*
/// the implementation in the scan engine and its vectorized executor
/// (PF004, PF007 exempt them).
pub const ENGINE_FILES: &[&str] = &[
    "crates/warehouse/src/engine.rs",
    "crates/warehouse/src/vector.rs",
];

/// Crates whose `Table` access must route through the compiled engine
/// (PF004, PF007).
pub(crate) const TABLE_CRATES: &[&str] = &["analysis", "warehouse"];

/// Tokens marking a loop header as iterating row-indexed data (PF007).
const ROW_TOKENS: &[&str] = &["iter_rows", "row_count", "matching_rows"];

/// The justification-comment token every hatch shares.
pub(crate) const PERF_TOKEN: &[&str] = &["perf:"];

/// Lines of raw source above a hit searched for the justification.
pub(crate) const PERF_WINDOW: usize = 4;

/// `true` when a `// perf:` justification covers the hit at `at`.
fn justified(ctx: &FileCtx, at: usize) -> bool {
    comment_evidence(&ctx.text, at, PERF_WINDOW, PERF_TOKEN)
}

// ---------------------------------------------------------------------
// PF002 — collect-then-reiterate churn
// ---------------------------------------------------------------------

/// A `let`-bound `.collect()` into a `Vec`: binding name plus the offset
/// just past the collect call.
struct VecCollect {
    name: String,
    after: usize,
}

fn vec_collects(masked: &str) -> Vec<VecCollect> {
    let mut out = Vec::new();
    for (at, _) in masked.match_indices(".collect") {
        let rest = &masked[at + ".collect".len()..];
        let turbo_vec = rest.starts_with("::<Vec");
        if !turbo_vec && !rest.starts_with('(') {
            continue;
        }
        // The binding: `let [mut] name … = ` on the statement's first line.
        let line_start = masked[..at].rfind('\n').map_or(0, |q| q + 1);
        let stmt = &masked[line_start..at];
        let Some(eq) = stmt.find('=') else { continue };
        let lhs = stmt[..eq].trim_end();
        if !stmt.trim_start().starts_with("let ") {
            continue;
        }
        // Without a Vec turbofish, the let's type annotation must say Vec.
        if !turbo_vec && !lhs.contains("Vec<") {
            continue;
        }
        let name = trailing_ident(lhs.trim_end_matches(':').trim_end());
        // An annotated `let v: Vec<&str> = …`: the trailing ident of the
        // annotation is the type, so take the ident before the `:`.
        let name = if lhs.contains(':') {
            trailing_ident(lhs.split(':').next().unwrap_or(""))
        } else {
            name
        };
        if name.is_empty() {
            continue;
        }
        // Past the collect's call parens.
        let open = at
            + ".collect".len()
            + if turbo_vec {
                rest.find('(').unwrap_or(0)
            } else {
                0
            };
        out.push(VecCollect {
            name: name.to_string(),
            after: span_end(masked, open),
        });
    }
    out
}

fn pf002(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for c in vec_collects(&ctx.masked) {
        let fn_end = enclosing_fn(&ctx.fns, c.after).map_or(ctx.masked.len(), |s| s.end);
        let uses: Vec<usize> = find_word(&ctx.masked[..fn_end], &c.name)
            .into_iter()
            .filter(|&u| u >= c.after)
            .collect();
        let [only] = uses[..] else { continue };
        let after_use = &ctx.masked[only + c.name.len()..];
        let reiterated = after_use.starts_with(".iter()")
            || after_use.starts_with(".into_iter()")
            || is_loop_subject(&ctx.masked, only);
        if !reiterated || justified(ctx, only) {
            continue;
        }
        ctx.push(
            findings,
            "PF002",
            only,
            &format!(
                "`{}` is collected into a Vec and then iterated exactly once — drop the `.collect()` and let the iterator flow through",
                c.name
            ),
        );
    }
}

// ---------------------------------------------------------------------
// PF003 — unsized growth in bounded loops
// ---------------------------------------------------------------------

/// `true` when `name` is bound to a fresh empty growable collection
/// inside `span` (`let [mut] name = Vec::new()` and friends).
fn fresh_empty_binding(masked: &str, span: &Range<usize>, name: &str) -> bool {
    find_word(&masked[span.clone()], name).iter().any(|&p| {
        let at = span.start + p;
        let rest = masked[at + name.len()..].trim_start();
        let Some(rhs) = rest.strip_prefix('=') else {
            return false;
        };
        let rhs = rhs.trim_start();
        [
            "Vec::new()",
            "String::new()",
            "Vec::default()",
            "String::default()",
        ]
        .iter()
        .any(|f| rhs.starts_with(f))
            && masked[..at].trim_end().ends_with("mut")
    })
}

fn pf003(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for needle in [".push(", ".push_str("] {
        for (at, _) in ctx.masked.match_indices(needle) {
            // Statically bounded iteration: the innermost enclosing loop
            // must be a `for`.
            let Some(lp) = enclosing_loop(&ctx.loops, at) else {
                continue;
            };
            if !ctx.masked[lp.header.clone()]
                .trim_start()
                .starts_with("for")
            {
                continue;
            }
            let receiver = trailing_ident(&ctx.masked[..at]);
            if receiver.is_empty() {
                continue;
            }
            let Some(f) = enclosing_fn(&ctx.fns, at) else {
                continue;
            };
            if !fresh_empty_binding(&ctx.masked, &f, receiver) {
                continue; // a long-lived or pre-sized buffer, not growth churn
            }
            let body = &ctx.masked[f.clone()];
            if body.contains("with_capacity") || body.contains(".reserve(") {
                continue;
            }
            if justified(ctx, at) {
                continue;
            }
            ctx.push(
                findings,
                "PF003",
                at,
                &format!(
                    "`{receiver}{}…)` grows a fresh empty collection inside a bounded `for` loop and the function never pre-sizes — use `with_capacity`/`reserve`",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// PF007 — nested-loop joins over row-indexed data
// ---------------------------------------------------------------------

fn pf007(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if !TABLE_CRATES.contains(&ctx.krate.as_str()) || ENGINE_FILES.contains(&ctx.rel.as_str()) {
        return;
    }
    let row_header = |lp: &LoopSpan| {
        let h = &ctx.masked[lp.header.clone()];
        ROW_TOKENS.iter().any(|t| h.contains(t))
    };
    for inner in ctx.loops.iter().filter(|l| l.depth > 0) {
        if !row_header(inner) {
            continue;
        }
        let outer_rows = ctx
            .loops
            .iter()
            .filter(|o| o.body.contains(&inner.kw))
            .any(row_header);
        if !outer_rows || justified(ctx, inner.kw) {
            continue;
        }
        ctx.push(
            findings,
            "PF007",
            inner.kw,
            "nested loops both iterate row-indexed data — an O(n·m) join; build a `KeyIndex` on one side instead",
        );
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Performance-front findings for one file: PF001–PF004 and PF006–PF008
/// (PF001, PF004, PF006 and PF008 from [`needle::NEEDLE_RULES`]), one per
/// (rule, line).
/// Crates outside [`PERF_HOT_CRATES`] are exempt.
pub(crate) fn findings(file: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if PERF_HOT_CRATES.contains(&file.krate.as_str()) {
        pf002(file, &mut out);
        pf003(file, &mut out);
        pf007(file, &mut out);
        out.extend(needle::findings(file));
        one_per_line(&mut out);
    }
    out
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
    fn pf002_sees_single_reiteration_but_not_slice_use() {
        let dirty = "fn f(xs: &[u64]) -> u64 {\n\
                     let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect();\n\
                     let mut acc = 0;\n\
                     for d in doubled { acc += d; }\n\
                     acc\n}\n";
        assert_eq!(rules("crates/sim/src/x.rs", dirty), ["PF002"]);
        let slice_use = "fn f(cols: &[String]) -> Result<Table, E> {\n\
                         let refs: Vec<&str> = cols.iter().map(String::as_str).collect();\n\
                         base.select(&refs)\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", slice_use), [""; 0]);
        let two_uses = "fn f(xs: &[u64]) -> u64 {\n\
                        let v: Vec<u64> = xs.iter().copied().collect();\n\
                        let n = v.len();\n\
                        v.iter().sum::<u64>() + n as u64\n}\n";
        assert_eq!(rules("crates/sim/src/x.rs", two_uses), [""; 0]);
    }

    #[test]
    fn pf003_wants_capacity_for_bounded_growth() {
        let dirty = "fn f(xs: &[u64]) -> Vec<u64> {\n\
                     let mut out = Vec::new();\n\
                     for x in xs { out.push(x + 1); }\n\
                     out\n}\n";
        assert_eq!(rules("crates/transform/src/x.rs", dirty), ["PF003"]);
        let sized = "fn f(xs: &[u64]) -> Vec<u64> {\n\
                     let mut out = Vec::with_capacity(xs.len());\n\
                     for x in xs { out.push(x + 1); }\n\
                     out\n}\n";
        assert_eq!(rules("crates/transform/src/x.rs", sized), [""; 0]);
        // `while` loops have no static bound; PF003 stays quiet.
        let unbounded = "fn f(it: &mut I) -> Vec<u64> {\n\
                         let mut out = Vec::new();\n\
                         while let Some(x) = it.next() { out.push(x); }\n\
                         out\n}\n";
        assert_eq!(rules("crates/transform/src/x.rs", unbounded), [""; 0]);
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
    fn pf007_flags_nested_row_loops() {
        let dirty = "fn join(a: &Table, b: &Table) -> usize {\n\
                     let mut n = 0;\n\
                     for i in 0..a.row_count() {\n\
                         for j in 0..b.row_count() {\n\
                             if key(a, i) == key(b, j) { n += 1; }\n\
                         }\n\
                     }\n    n\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", dirty), ["PF007"]);
        assert_eq!(rules("crates/warehouse/src/engine.rs", dirty), [""; 0]);
        assert_eq!(rules("crates/warehouse/src/vector.rs", dirty), [""; 0]);
        let one_side = "fn scan(a: &Table, keys: &[u64]) -> usize {\n\
                        let mut n = 0;\n\
                        for i in 0..a.row_count() {\n\
                            for k in keys { if *k == i as u64 { n += 1; } }\n\
                        }\n    n\n}\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", one_side), [""; 0]);
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
