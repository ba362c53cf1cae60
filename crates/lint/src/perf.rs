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
//! [`PERF_HOT_CRATES`]); every rule's escape hatch is precise and local:
//!
//! * `PF001` — an allocation (`clone()`, `to_string()`, `to_owned()`,
//!   `format!`, `String::from`, `vec!`, `wallclock(`) inside a loop body. Error
//!   construction (`Err(…)`, `map_err(…)`, `ok_or_else(…)` spans) is cold
//!   by definition and exempt, and so is a `return`/`break` statement —
//!   a terminal statement runs at most once per loop *execution*, so its
//!   allocation is O(1), not O(n). Anything else needs a word-start
//!   `// perf:` justification comment or a `lint.allow` anchor.
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
//! * `PF005` — a `*_naive` oracle call reachable from non-test,
//!   non-bench code: the naive evaluators exist as identity oracles for
//!   property tests and benches, never as the production path.
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

use crate::source::{
    comment_evidence, crate_dirs, enclosing_fn, enclosing_loop, find_word, finding_at, fn_spans,
    is_ident, is_loop_subject, loop_spans, mask_tests, paren_span_end, rel_path, rust_files_under,
    scrub, trailing_ident, word_start, LoopSpan,
};
use crate::Finding;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;

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
const TABLE_CRATES: &[&str] = &["analysis", "warehouse"];

/// Allocation needles for PF001. `wallclock(` is the timestamp formatter
/// that returns a fresh `String`; `push_wallclock` appends in place.
const ALLOC_NEEDLES: &[&str] = &[
    ".clone()",
    ".to_string()",
    ".to_owned()",
    "format!",
    "String::from(",
    "vec!",
    "wallclock(",
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

/// Per-query construction that must be hoisted out of loops (PF006).
const HOIST_CALLS: &[&str] = &[
    "CompiledPredicate::compile(",
    "Node::compile(",
    "KeyIndex::build(",
    "KeyIndex::over(",
];

/// Tokens marking a loop header as iterating row-indexed data (PF007).
const ROW_TOKENS: &[&str] = &["iter_rows", "row_count", "matching_rows"];

/// Sort needles for PF008.
const SORT_NEEDLES: &[&str] = &[
    ".sort()",
    ".sort_by(",
    ".sort_by_key(",
    ".sort_by_cached_key(",
    ".sort_unstable()",
    ".sort_unstable_by(",
    ".sort_unstable_by_key(",
];

/// The justification-comment token every hatch shares.
const PERF_TOKEN: &[&str] = &["perf:"];

/// Lines of raw source above a hit searched for the justification.
const PERF_WINDOW: usize = 4;

// ---------------------------------------------------------------------
// Per-file context
// ---------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    krate: &'a str,
    text: &'a str,
    masked: &'a str,
    fns: &'a [Range<usize>],
    loops: &'a [LoopSpan],
    /// Paren spans of [`COLD_CALLS`] — allocation inside them is exempt.
    cold: &'a [Range<usize>],
}

impl FileCtx<'_> {
    fn push(&self, findings: &mut Vec<Finding>, rule: &str, at: usize, what: &str) {
        findings.push(finding_at(self.rel, self.text, rule, at, what));
    }

    fn justified(&self, at: usize) -> bool {
        comment_evidence(self.text, at, PERF_WINDOW, PERF_TOKEN)
    }

    fn in_loop(&self, at: usize) -> bool {
        enclosing_loop(self.loops, at).is_some()
    }

    fn in_cold_span(&self, at: usize) -> bool {
        self.cold.iter().any(|r| r.contains(&at))
    }
}

/// Paren spans following the cold-call needles (word-bounded where the
/// needle starts with an identifier character).
fn cold_spans(masked: &str) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for call in COLD_CALLS {
        let mut from = 0;
        while let Some(p) = masked[from..].find(call) {
            let at = from + p;
            from = at + call.len();
            if !word_start(masked, at) {
                continue;
            }
            let open = at + call.len() - 1;
            out.push(open..paren_span_end(masked, open));
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

// ---------------------------------------------------------------------
// PF001 — allocation in hot loops
// ---------------------------------------------------------------------

fn pf001(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for needle in ALLOC_NEEDLES {
        // A needle that starts a word must start one, so neither
        // `push_wallclock(` nor `parse_wallclock(` is `wallclock(`.
        let word = is_ident(needle.as_bytes()[0]);
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            if (word && !word_start(ctx.masked, at))
                || !ctx.in_loop(at)
                || ctx.in_cold_span(at)
                || terminal_statement(ctx.masked, at)
                || ctx.justified(at)
            {
                continue;
            }
            ctx.push(
                findings,
                "PF001",
                at,
                &format!(
                    "allocation `{}` inside a hot-path loop with no `// perf:` justification — hoist it, borrow, or document why the allocation is right",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
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
    let mut from = 0;
    while let Some(p) = masked[from..].find(".collect") {
        let at = from + p;
        from = at + ".collect".len();
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
            after: paren_span_end(masked, open),
        });
    }
    out
}

fn pf002(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for c in vec_collects(ctx.masked) {
        let fn_end = enclosing_fn(ctx.fns, c.after).map_or(ctx.masked.len(), |s| s.end);
        let uses: Vec<usize> = find_word(&ctx.masked[..fn_end], &c.name)
            .into_iter()
            .filter(|&u| u >= c.after)
            .collect();
        let [only] = uses[..] else { continue };
        let after_use = &ctx.masked[only + c.name.len()..];
        let reiterated = after_use.starts_with(".iter()")
            || after_use.starts_with(".into_iter()")
            || is_loop_subject(ctx.masked, only);
        if !reiterated || ctx.justified(only) {
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

fn pf003(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for needle in [".push(", ".push_str("] {
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            // Statically bounded iteration: the innermost enclosing loop
            // must be a `for`.
            let Some(lp) = enclosing_loop(ctx.loops, at) else {
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
            let Some(f) = enclosing_fn(ctx.fns, at) else {
                continue;
            };
            if !fresh_empty_binding(ctx.masked, &f, receiver) {
                continue; // a long-lived or pre-sized buffer, not growth churn
            }
            let body = &ctx.masked[f.clone()];
            if body.contains("with_capacity") || body.contains(".reserve(") {
                continue;
            }
            if ctx.justified(at) {
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
// PF004 — zone-map bypass (row-wise Table access)
// ---------------------------------------------------------------------

fn pf004(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !TABLE_CRATES.contains(&ctx.krate) || ENGINE_FILES.contains(&ctx.rel) {
        return;
    }
    const WHAT: &str = "row-wise `Table` access bypasses the zone-map engine — route the scan through `CompiledPredicate`/`window_agg_where` or justify with `// perf:`";
    let mut from = 0;
    while let Some(p) = ctx.masked[from..].find(".iter_rows()") {
        let at = from + p;
        from = at + ".iter_rows()".len();
        if ctx.justified(at) {
            continue;
        }
        ctx.push(findings, "PF004", at, WHAT);
    }
    let mut from = 0;
    while let Some(p) = ctx.masked[from..].find(".cell(") {
        let at = from + p;
        from = at + ".cell(".len();
        if !ctx.in_loop(at) || ctx.justified(at) {
            continue; // a single probe is not a scan
        }
        ctx.push(findings, "PF004", at, WHAT);
    }
}

// ---------------------------------------------------------------------
// PF005 — naive oracles on production paths
// ---------------------------------------------------------------------

fn pf005(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let bytes = ctx.masked.as_bytes();
    let mut from = 0;
    while let Some(p) = ctx.masked[from..].find("_naive(") {
        let at = from + p;
        from = at + "_naive(".len();
        // Walk back over the full identifier; skip definitions (`fn x_naive(`).
        let mut start = at;
        while start > 0 && is_ident(bytes[start - 1]) {
            start -= 1;
        }
        let pre = ctx.masked[..start].trim_end();
        if pre.ends_with("fn") && word_start(pre, pre.len() - 2) {
            continue;
        }
        let name = &ctx.masked[start..at + "_naive".len()];
        ctx.push(
            findings,
            "PF005",
            start,
            &format!(
                "`{name}` is an identity oracle for property tests and benches, not a production path — call the compiled equivalent"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// PF006 — per-row predicate/index construction
// ---------------------------------------------------------------------

fn pf006(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for call in HOIST_CALLS {
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(call) {
            let at = from + p;
            from = at + call.len();
            if !ctx.in_loop(at) || ctx.justified(at) {
                continue;
            }
            ctx.push(
                findings,
                "PF006",
                at,
                &format!(
                    "`{}` inside a loop — compilation binds column slices once per query; hoist it out of the iteration",
                    call.trim_end_matches('(')
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// PF007 — nested-loop joins over row-indexed data
// ---------------------------------------------------------------------

fn pf007(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !TABLE_CRATES.contains(&ctx.krate) || ENGINE_FILES.contains(&ctx.rel) {
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
        if !outer_rows || ctx.justified(inner.kw) {
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
// PF008 — sorting inside a loop
// ---------------------------------------------------------------------

fn pf008(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for needle in SORT_NEEDLES {
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            if !ctx.in_loop(at) || ctx.justified(at) {
                continue;
            }
            ctx.push(
                findings,
                "PF008",
                at,
                &format!(
                    "`{}` inside a loop re-sorts every iteration — sort once after the loop or keep the data sorted by construction",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Lints one Rust source text as non-test code of `crate_name` against
/// PF001–PF008. Crates outside [`PERF_HOT_CRATES`] are exempt. `rel` is
/// the workspace-relative path used both in findings and to recognize
/// [`ENGINE_FILES`]. Exposed for fixture tests; [`scan`] drives it over
/// the real workspace.
pub fn lint_perf_source(crate_name: &str, rel: &str, text: &str) -> Vec<Finding> {
    if !PERF_HOT_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    let (scrubbed, _lits) = scrub(text);
    let (masked, _ranges) = mask_tests(&scrubbed);
    let fns = fn_spans(&masked);
    let loops = loop_spans(&masked);
    let cold = cold_spans(&masked);
    let ctx = FileCtx {
        rel,
        krate: crate_name,
        text,
        masked: &masked,
        fns: &fns,
        loops: &loops,
        cold: &cold,
    };
    let mut findings = Vec::new();
    pf001(&ctx, &mut findings);
    pf002(&ctx, &mut findings);
    pf003(&ctx, &mut findings);
    pf004(&ctx, &mut findings);
    pf005(&ctx, &mut findings);
    pf006(&ctx, &mut findings);
    pf007(&ctx, &mut findings);
    pf008(&ctx, &mut findings);
    // One finding per (rule, line): overlapping needles must not
    // double-report.
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Scans every hot-path crate's `src/` for performance findings.
///
/// # Errors
///
/// I/O errors walking or reading files.
pub fn scan(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (name, dir) in crate_dirs(root)? {
        if !PERF_HOT_CRATES.contains(&name.as_str()) {
            continue;
        }
        for file in rust_files_under(&dir.join("src"))? {
            let text = fs::read_to_string(&file)?;
            findings.extend(lint_perf_source(&name, &rel_path(root, &file), &text));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<String> {
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("warehouse");
        lint_perf_source(krate, rel, src)
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
    fn pf005_flags_calls_not_definitions() {
        let call = "fn f(t: &Table, p: &Predicate) -> Table { t.filter_naive(p) }\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", call), ["PF005"]);
        let def = "pub fn filter_naive(t: &Table) -> Table { t.clone() }\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", def), [""; 0]);
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
        assert!(lint_perf_source("ntier", "crates/ntier/src/x.rs", src).is_empty());
        assert!(lint_perf_source("bench", "crates/bench/src/x.rs", src).is_empty());
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(lint_perf_source("warehouse", "crates/warehouse/src/x.rs", &test_only).is_empty());
    }
}
