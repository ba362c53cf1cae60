//! The needle rules, as one table.
//!
//! Four performance rules share one shape: a needle, a scope, an escape
//! hatch and a message. Each is a row of [`NEEDLE_RULES`], and
//! [`findings`] evaluates the rows over the shared source model
//! ([`FileCtx`]). Rules with real structure — `DT001`, `DT002`, `DT006`,
//! `PF002`, `PF003`, `PF007` and `hermetic-deps` — stay functions in their
//! fronts. Rules a path resolves (`no-unwrap`, `no-wallclock`, `DT003`,
//! `DT004`, `DT005`, `DT008` and `PF005`) are clippy's: see
//! `crates/clippy.toml`.
//!
//! The determinism and performance fronts keep one finding per (rule,
//! line), so overlapping needles report once.

use crate::perf::{ENGINE_FILES, PERF_HOT_CRATES, PERF_TOKEN, PERF_WINDOW, TABLE_CRATES};
use crate::source::{comment_evidence, enclosing_loop, is_ident, span_end, word_start, FileCtx};
use crate::Finding;
use std::ops::Range;

/// One needle rule.
struct NeedleRule {
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
    /// A needle that begins with an identifier character must begin a
    /// word, so neither `push_wallclock(` nor `parse_wallclock(` is
    /// `wallclock(`.
    word_start: bool,
    /// Comment tokens that justify a hit on its line or within `window`
    /// lines above it (none: no hatch).
    hatch: &'static [&'static str],
    /// See `hatch`.
    window: usize,
    /// Hits inside cold error-construction spans and terminal
    /// `return`/`break` statements are exempt.
    cold_exempt: bool,
    /// The finding's message, before the quoted source line: `{needle}` is
    /// the needle and `{call}` the needle without its trailing `(`.
    message: &'static str,
}

/// The defaults a row overrides: every file, anywhere, no hatch.
const ROW: NeedleRule = NeedleRule {
    rule: "",
    crates: &[],
    exempt: &[],
    needles: &[],
    in_loop: false,
    word_start: false,
    hatch: &[],
    window: 0,
    cold_exempt: false,
    message: "",
};

const ROW_WISE: &str = "row-wise `Table` access bypasses the zone-map engine — route the scan through `CompiledPredicate`/`window_agg_where` or justify with `// perf:`";

/// Every needle rule, in report order.
const NEEDLE_RULES: &[NeedleRule] = &[
    NeedleRule {
        rule: "PF001",
        crates: PERF_HOT_CRATES,
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
        word_start: true,
        hatch: PERF_TOKEN,
        window: PERF_WINDOW,
        cold_exempt: true,
        message: "allocation `{call}` inside a hot-path loop with no `// perf:` justification — hoist it, borrow, or document why the allocation is right",
        ..ROW
    },
    NeedleRule {
        rule: "PF004",
        crates: TABLE_CRATES,
        exempt: ENGINE_FILES,
        needles: &[".iter_rows()"],
        hatch: PERF_TOKEN,
        window: PERF_WINDOW,
        message: ROW_WISE,
        ..ROW
    },
    // A single `.cell(` probe is not a scan; one in a loop is.
    NeedleRule {
        rule: "PF004",
        crates: TABLE_CRATES,
        exempt: ENGINE_FILES,
        needles: &[".cell("],
        in_loop: true,
        hatch: PERF_TOKEN,
        window: PERF_WINDOW,
        message: ROW_WISE,
        ..ROW
    },
    NeedleRule {
        rule: "PF006",
        crates: PERF_HOT_CRATES,
        needles: &[
            "CompiledPredicate::compile(",
            "Node::compile(",
            "KeyIndex::build(",
            "KeyIndex::over(",
        ],
        in_loop: true,
        hatch: PERF_TOKEN,
        window: PERF_WINDOW,
        message: "`{call}` inside a loop — compilation binds column slices once per query; hoist it out of the iteration",
        ..ROW
    },
    NeedleRule {
        rule: "PF008",
        crates: PERF_HOT_CRATES,
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
        hatch: PERF_TOKEN,
        window: PERF_WINDOW,
        message: "`{call}` inside a loop re-sorts every iteration — sort once after the loop or keep the data sorted by construction",
        ..ROW
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

/// Findings of every row for one file, row by row, needle by needle, hit
/// by hit.
pub(crate) fn findings(file: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let rows = NEEDLE_RULES.iter().filter(|r| {
        r.crates.contains(&file.krate.as_str()) && !r.exempt.contains(&file.rel.as_str())
    });
    for row in rows {
        let cold = if row.cold_exempt {
            cold_spans(&file.masked)
        } else {
            Vec::new()
        };
        for needle in row.needles {
            let word = row.word_start && is_ident(needle.as_bytes()[0]);
            for (at, _) in file.masked.match_indices(needle) {
                if (word && !word_start(&file.masked, at))
                    || (row.in_loop && enclosing_loop(&file.loops, at).is_none())
                    || (row.cold_exempt
                        && (cold.iter().any(|r| r.contains(&at))
                            || terminal_statement(&file.masked, at)))
                    || (!row.hatch.is_empty()
                        && comment_evidence(&file.text, at, row.window, row.hatch))
                {
                    continue;
                }
                let what = row
                    .message
                    .replace("{needle}", needle)
                    .replace("{call}", needle.trim_end_matches('('));
                file.push(&mut out, row.rule, at, &what);
            }
        }
    }
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

/// Keeps one finding per (rule, line) — the first reported — in line
/// order, so overlapping needles on one line do not double-report.
pub(crate) fn one_per_line(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
}
