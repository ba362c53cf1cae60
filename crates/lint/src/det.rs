//! Front 4: the determinism discipline scanner.
//!
//! PRs 4–6 made every hot path parallel — transformer convert workers,
//! warehouse block scans, sharded simulator cells — under one contract:
//! **byte-identical output at any worker count**. That contract is proven
//! at runtime by property suites and the `sim-determinism` CI matrix, but
//! nothing stopped a refactor from quietly reintroducing order-dependent
//! output between two bench runs. This front encodes the discipline
//! statically, over the same scrubbed/test-masked source model as the
//! source front, so a violation is a lint failure before anything runs.
//!
//! Rules (all deny-level, all scoped to the identity-gated crates):
//!
//! * `DT001` — a `HashMap`/`HashSet` binding is iterated (`iter`, `keys`,
//!   `values`, `drain`, `for … in`) with no `.sort*` and no `BTree`
//!   re-collection later in the same function: hash iteration order is
//!   arbitrary, so it must never reach an output, serialization, or merge
//!   path. Use `BTreeMap`/`BTreeSet` or sort before emitting.
//! * `DT002` — a floating-point reduction (`sum::<f64>`, `fold` over
//!   `f64` identities) inside a worker fan-out argument span
//!   (`parallel_map(…)`, `.spawn(…)`) without a nearby
//!   comment documenting the deterministic merge order: float addition is
//!   non-associative, so the reduction order is part of the contract.
//! * `DT003` — raw `thread::spawn` / `thread::scope` / `thread::Builder`
//!   outside the sanctioned `WorkQueue` pools ([`SANCTIONED_POOL_FILES`]).
//!   Ad-hoc threads have no job-order merge discipline.
//! * `DT004` — `SimRng::split` / `SimRng::seed_from` outside the
//!   sanctioned RNG construction sites ([`SANCTIONED_RNG_FILES`]): every
//!   cell draws from exactly one stream split from the trial seed; a
//!   stray construction can alias another cell's stream.
//! * `DT005` — shared interior mutability (`Mutex`, `RwLock`, `RefCell`,
//!   `Cell`, `static mut`, `Ordering::Relaxed` atomics) outside the
//!   sanctioned pool files: capturable mutable state is how worker
//!   interleaving leaks into results.
//! * `DT006` — a `sort_by`/`sort_by_key` whose key involves a timestamp
//!   but has no tie-break (no composite key, no `.then*`) and no nearby
//!   `stable`/`tie`/`determin…` comment: concurrent records share
//!   timestamps, so a bare time sort leaves their relative order to the
//!   sort implementation.
//! * `DT007` — retired. It flagged `unsafe` in an identity-gated crate;
//!   every such crate now carries `#![forbid(unsafe_code)]`, so the
//!   compiler enforces it. The ID is not reused.
//! * `DT008` — `available_parallelism`/`num_cpus` outside the sanctioned
//!   plan-selection sites ([`SANCTIONED_PLAN_FILES`]): worker counts may
//!   pick the *plan*, never the *result*, so they must not be readable
//!   anywhere a record is built.

use crate::source::{
    brace_span_end, comment_evidence, crate_dirs, enclosing_fn, find_word, finding_at, fn_spans,
    is_ident, is_loop_subject, mask_tests, paren_span_end, rel_path, rust_files_under, scrub,
    trailing_ident, word_start,
};
use crate::Finding;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;

/// Crates bound by the byte-identity contract: everything that produces,
/// transforms, stores, or serializes records that land in digests, logs,
/// or query results. `bench` and `lint` itself are exempt — they time and
/// inspect, they do not emit record bytes.
pub const IDENTITY_GATED_CRATES: &[&str] = &[
    "analysis",
    "core",
    "monitors",
    "ntier",
    "serdes",
    "sim",
    "transform",
    "warehouse",
];

/// The sanctioned worker-pool implementations: the `WorkQueue`, the
/// `parallel_map` built on it — the one fan-out every parallel stage
/// calls — and the bounded `RecordStream` channel. Only these may spawn
/// threads or hold the shared slots/atomics that make job-order merging
/// work (DT003, DT005).
pub const SANCTIONED_POOL_FILES: &[&str] = &[
    "crates/sim/src/par.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/stream.rs",
];

/// Where `SimRng` streams may be constructed: the RNG itself, the
/// property-test harness that seeds trials, and the n-tier engine's
/// per-cell setup, which owns the seed → cell-stream discipline (DT004).
pub const SANCTIONED_RNG_FILES: &[&str] = &[
    "crates/ntier/src/engine.rs",
    "crates/sim/src/prop.rs",
    "crates/sim/src/rng.rs",
];

/// Where worker counts may be read from the machine: the two plan
/// selectors whose merge order is worker-count-invariant by construction
/// (DT008).
pub const SANCTIONED_PLAN_FILES: &[&str] = &[
    "crates/transform/src/pipeline.rs",
    "crates/warehouse/src/engine.rs",
];

/// Method suffixes that consume a hash collection in arbitrary order.
const HASH_CONSUMERS: &[&str] = &[
    ".iter()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Fan-out call sites whose argument spans are worker closures.
const FAN_OUT_CALLS: &[&str] = &["parallel_map(", ".spawn("];

/// Order-sensitive floating-point reduction needles.
const F64_REDUCTIONS: &[&str] = &[
    "sum::<f64>",
    "fold(0.0",
    "fold(0f64",
    "fold(f64::",
    "f64::NEG_INFINITY",
    "f64::INFINITY",
];

/// Comparator sorts whose key text is inspected for timestamps.
const KEYED_SORTS: &[&str] = &[
    "sort_by_key(",
    "sort_by(",
    "sort_unstable_by_key(",
    "sort_unstable_by(",
];

/// Substrings marking a sort key as time-valued.
const TIME_TOKENS: &[&str] = &["time", "client_send"];

// ---------------------------------------------------------------------
// Text helpers (shared with the perf front via `source`)
// ---------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    text: &'a str,
    masked: &'a str,
    fns: &'a [Range<usize>],
}

impl FileCtx<'_> {
    fn push(&self, findings: &mut Vec<Finding>, rule: &str, at: usize, what: &str) {
        findings.push(finding_at(self.rel, self.text, rule, at, what));
    }
}

// ---------------------------------------------------------------------
// DT001 — hash iteration reaching output/merge paths
// ---------------------------------------------------------------------

/// A name known to be hash-typed, valid within `scope`.
#[derive(Debug)]
struct HashBinding {
    name: String,
    scope: Range<usize>,
}

/// Collects hash-typed names from `name: HashMap<…>` (fields, params,
/// typed lets), `let name = HashMap::new()` / `.collect::<HashSet<…>>()`
/// forms, and `impl … for HashMap` blocks (where the binding is `self`,
/// scoped to the impl body).
fn hash_bindings(masked: &str, fns: &[Range<usize>]) -> Vec<HashBinding> {
    let mut out: Vec<HashBinding> = Vec::new();
    let mut add = |name: &str, scope: Range<usize>| {
        if !name.is_empty() && !out.iter().any(|b| b.name == name && b.scope == scope) {
            out.push(HashBinding {
                name: name.to_string(),
                scope,
            });
        }
    };
    for ty in ["HashMap", "HashSet"] {
        for at in find_word(masked, ty) {
            let pre = masked[..at].trim_end();
            // `impl ToJson for HashMap<…> { … }` — `self` is hash-typed
            // within the impl body.
            if pre.ends_with("for") && word_start(pre, pre.len() - 3) {
                if let Some(open_rel) = masked[at..].find('{') {
                    let open = at + open_rel;
                    add("self", open..brace_span_end(masked, open));
                }
                continue;
            }
            let scope = enclosing_fn(fns, at).unwrap_or(0..masked.len());
            // `name: HashMap<…>` with optional `&`/`&mut`/lifetime noise
            // between the colon and the type.
            let mut sig = pre;
            loop {
                if let Some(s) = sig.strip_suffix('&') {
                    sig = s.trim_end();
                } else if let Some(s) = sig.strip_suffix("mut") {
                    if word_start(s, s.len()) || s.is_empty() {
                        sig = s.trim_end();
                    } else {
                        break;
                    }
                } else if sig
                    .as_bytes()
                    .last()
                    .is_some_and(|&b| is_ident(b) || b == b'\'')
                    && sig
                        .rfind('\'')
                        .is_some_and(|q| sig[q + 1..].bytes().all(is_ident) && q + 1 < sig.len())
                {
                    // a lifetime like `'a`
                    sig = sig[..sig.rfind('\'').unwrap_or(0)].trim_end();
                } else {
                    break;
                }
            }
            if let Some(s) = sig.strip_suffix(':') {
                add(trailing_ident(s), scope);
                continue;
            }
            // `let [mut] name = …HashMap::new()…` / `= ….collect::<HashSet…`
            let line_start = masked[..at].rfind('\n').map_or(0, |p| p + 1);
            let line_pre = &masked[line_start..at];
            if let Some(eq) = line_pre.rfind('=') {
                let left = line_pre[..eq].trim_end();
                let left = left.strip_suffix("mut").map_or(left, str::trim_end);
                if line_pre.trim_start().starts_with("let ") {
                    add(trailing_ident(left), scope);
                }
            }
        }
    }
    out
}

fn dt001(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for binding in hash_bindings(ctx.masked, ctx.fns) {
        for at in find_word(ctx.masked, &binding.name) {
            if !binding.scope.contains(&at) {
                continue;
            }
            let after = &ctx.masked[at + binding.name.len()..];
            let consumed = HASH_CONSUMERS.iter().any(|c| after.starts_with(c))
                || is_loop_subject(ctx.masked, at);
            if !consumed {
                continue;
            }
            // Redeemed when the same function later sorts the result or
            // re-collects it into an ordered BTree collection.
            let fn_end = enclosing_fn(ctx.fns, at).map_or(ctx.masked.len(), |s| s.end);
            let tail = &ctx.masked[at..fn_end.max(at)];
            if tail.contains(".sort") || tail.contains("BTree") {
                continue;
            }
            ctx.push(
                findings,
                "DT001",
                at,
                &format!(
                    "hash-ordered iteration of `{}` escapes its function with no `.sort*`/BTree re-collection — hash order must never reach an output, serialization, or merge path",
                    binding.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// DT002 — float reductions inside worker closures
// ---------------------------------------------------------------------

fn dt002(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for call in FAN_OUT_CALLS {
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(call) {
            let at = from + p;
            let open = at + call.len() - 1; // the `(`
            let end = paren_span_end(ctx.masked, open);
            from = open + 1;
            let span = &ctx.masked[open..end];
            for red in F64_REDUCTIONS {
                let mut f2 = 0;
                while let Some(q) = span[f2..].find(red) {
                    let hit = open + f2 + q;
                    f2 += q + red.len();
                    if comment_evidence(ctx.text, hit, 6, &["determin", "order", "merge"]) {
                        continue;
                    }
                    ctx.push(
                        findings,
                        "DT002",
                        hit,
                        &format!(
                            "float reduction `{red}` inside a `{}…)` worker span with no comment documenting the deterministic merge order — float addition is non-associative",
                            call
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// DT003–DT006, DT008 — needle rules
// ---------------------------------------------------------------------

fn dt003(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if SANCTIONED_POOL_FILES.contains(&ctx.rel) {
        return;
    }
    for needle in ["thread::spawn", "thread::scope", "thread::Builder"] {
        for at in needle_hits(ctx.masked, needle) {
            ctx.push(
                findings,
                "DT003",
                at,
                &format!(
                    "`{needle}` outside the sanctioned WorkQueue pools ({}) — ad-hoc threads have no job-order merge discipline",
                    SANCTIONED_POOL_FILES.join(", ")
                ),
            );
        }
    }
}

fn dt004(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if SANCTIONED_RNG_FILES.contains(&ctx.rel) {
        return;
    }
    for needle in ["SimRng::split(", "SimRng::seed_from("] {
        for at in needle_hits(ctx.masked, needle) {
            ctx.push(
                findings,
                "DT004",
                at,
                &format!(
                    "`{}` outside the per-cell stream discipline ({}) — a cell must never draw from another cell's stream",
                    needle.trim_end_matches('('),
                    SANCTIONED_RNG_FILES.join(", ")
                ),
            );
        }
    }
}

fn dt005(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if SANCTIONED_POOL_FILES.contains(&ctx.rel) {
        return;
    }
    for needle in [
        "Mutex<",
        "Mutex::new",
        "RwLock<",
        "RwLock::new",
        "RefCell<",
        "RefCell::new",
        "Cell<",
        "Cell::new",
        "static mut",
        "Ordering::Relaxed",
    ] {
        for at in ctx
            .masked
            .match_indices(needle)
            .map(|(p, _)| p)
            .collect::<Vec<_>>()
        {
            // `Cell<` also matches `RefCell<`/`UnsafeCell<`; only skip the
            // double count for the Ref form, which has its own needle
            // (UnsafeCell must still fire, as Cell).
            if needle.starts_with("Cell") && ctx.masked[..at].ends_with("Ref") {
                continue;
            }
            ctx.push(
                findings,
                "DT005",
                at,
                &format!(
                    "shared interior mutability `{needle}` outside the sanctioned pool files — capturable mutable state lets worker interleaving leak into results"
                ),
            );
        }
    }
}

fn dt006(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for call in KEYED_SORTS {
        let mut from = 0;
        while let Some(p) = ctx.masked[from..].find(call) {
            let at = from + p;
            let open = at + call.len() - 1;
            let end = paren_span_end(ctx.masked, open);
            from = open + 1;
            let key = &ctx.masked[open..end];
            if !TIME_TOKENS.iter().any(|t| key.contains(t)) {
                continue;
            }
            // A composite key (comma after the closure params) or an
            // explicit `.then*` chain is a tie-break by construction.
            let body = key
                .find('|')
                .and_then(|a| key[a + 1..].find('|').map(|b| &key[a + 2 + b..]))
                .unwrap_or(key);
            if body.contains(',') || body.contains(".then") {
                continue;
            }
            if comment_evidence(
                ctx.text,
                at,
                14,
                &["stable", "tie-break", "ties", "determin"],
            ) {
                continue;
            }
            ctx.push(
                findings,
                "DT006",
                at,
                "timestamp sort with no tie-break key and no documented stable-order discipline — concurrent records share timestamps",
            );
        }
    }
}

fn dt008(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if SANCTIONED_PLAN_FILES.contains(&ctx.rel) {
        return;
    }
    for needle in ["available_parallelism", "num_cpus"] {
        for at in needle_hits(ctx.masked, needle) {
            ctx.push(
                findings,
                "DT008",
                at,
                &format!(
                    "`{needle}` outside the sanctioned plan selectors ({}) — worker counts may pick the plan, never the result",
                    SANCTIONED_PLAN_FILES.join(", ")
                ),
            );
        }
    }
}

/// Plain substring hits (rule needles carry their own punctuation
/// boundaries, e.g. a trailing `(` or `::`).
fn needle_hits(masked: &str, needle: &str) -> Vec<usize> {
    masked.match_indices(needle).map(|(p, _)| p).collect()
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Lints one Rust source text as non-test code of `crate_name` against
/// DT001–DT008. Crates outside [`IDENTITY_GATED_CRATES`] are exempt.
/// `rel` is the workspace-relative path used both in findings and to
/// recognize the sanctioned files. Exposed for fixture tests; [`scan`]
/// drives it over the real workspace.
pub fn lint_det_source(crate_name: &str, rel: &str, text: &str) -> Vec<Finding> {
    if !IDENTITY_GATED_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    let (scrubbed, _lits) = scrub(text);
    let (masked, _ranges) = mask_tests(&scrubbed);
    let fns = fn_spans(&masked);
    let ctx = FileCtx {
        rel,
        text,
        masked: &masked,
        fns: &fns,
    };
    let mut findings = Vec::new();
    dt001(&ctx, &mut findings);
    dt002(&ctx, &mut findings);
    dt003(&ctx, &mut findings);
    dt004(&ctx, &mut findings);
    dt005(&ctx, &mut findings);
    dt006(&ctx, &mut findings);
    dt008(&ctx, &mut findings);
    // One finding per (rule, line): overlapping needles (`Mutex<` in a
    // `Mutex::new` line) must not double-report.
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Scans every identity-gated crate's `src/` for determinism findings.
///
/// # Errors
///
/// I/O errors walking or reading files.
pub fn scan(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (name, dir) in crate_dirs(root)? {
        if !IDENTITY_GATED_CRATES.contains(&name.as_str()) {
            continue;
        }
        for file in rust_files_under(&dir.join("src"))? {
            let text = fs::read_to_string(&file)?;
            findings.extend(lint_det_source(&name, &rel_path(root, &file), &text));
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
        lint_det_source(krate, rel, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hash_bindings_cover_fields_params_lets_and_impls() {
        let src = "struct S { pending: HashMap<u64, R> }\n\
                   fn f(m: &HashMap<u64, f64>) {\n    let mut seen = HashSet::new();\n}\n\
                   impl ToJson for HashMap<String, V> { fn to_json(&self) {} }\n";
        let (scrubbed, _) = scrub(src);
        let (masked, _) = mask_tests(&scrubbed);
        let fns = fn_spans(&masked);
        let names: Vec<String> = hash_bindings(&masked, &fns)
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert!(names.contains(&"pending".to_string()), "{names:?}");
        assert!(names.contains(&"m".to_string()), "{names:?}");
        assert!(names.contains(&"seen".to_string()), "{names:?}");
        assert!(names.contains(&"self".to_string()), "{names:?}");
    }

    #[test]
    fn dt001_redeemed_by_sort_or_btree() {
        let dirty = "use std::collections::HashMap;\n\
                     fn emit(m: &HashMap<u64, f64>) -> Vec<u64> {\n\
                         m.keys().copied().collect()\n\
                     }\n";
        assert_eq!(rules("crates/warehouse/src/x.rs", dirty), vec!["DT001"]);
        let sorted = "use std::collections::HashMap;\n\
                      fn emit(m: &HashMap<u64, f64>) -> Vec<u64> {\n\
                          let mut ks: Vec<u64> = m.keys().copied().collect();\n\
                          ks.sort_unstable();\n\
                          ks\n\
                      }\n";
        assert!(rules("crates/warehouse/src/x.rs", sorted).is_empty());
        let btree = "use std::collections::HashMap;\n\
                     fn emit(m: HashMap<u64, f64>) -> BTreeMap<u64, f64> {\n\
                         m.into_iter().collect::<BTreeMap<_, _>>()\n\
                     }\n";
        assert!(rules("crates/warehouse/src/x.rs", btree).is_empty());
    }

    #[test]
    fn dt001_sees_for_loops_and_masks_tests() {
        let dirty = "fn g(set: &HashSet<u32>) -> u32 {\n\
                     let mut acc = 0;\n    for v in set { acc ^= v; }\n    acc\n}\n";
        assert_eq!(rules("crates/monitors/src/x.rs", dirty), vec!["DT001"]);
        let test_only = "#[cfg(test)]\nmod tests {\n\
                         fn g(set: &HashSet<u32>) { for v in set { use_it(v); } }\n}\n";
        assert!(rules("crates/monitors/src/x.rs", test_only).is_empty());
    }

    #[test]
    fn sanctioned_files_and_exempt_crates_stay_silent() {
        let src = "fn p() { std::thread::spawn(|| {}); let m = Mutex::new(0); }";
        assert!(lint_det_source("sim", "crates/sim/src/par.rs", src).is_empty());
        assert!(lint_det_source("bench", "crates/bench/src/x.rs", src).is_empty());
        let f = lint_det_source("sim", "crates/sim/src/other.rs", src);
        assert!(f.iter().any(|f| f.rule == "DT003"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "DT005"), "{f:?}");
    }
}
