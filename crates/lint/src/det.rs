//! Front 4: the determinism discipline scanner.
//!
//! Every parallel hot path — transformer workers, warehouse block scans,
//! sharded simulator cells — runs under one contract: **byte-identical
//! output at any worker count**. The runtime property suites and the
//! `sim-determinism` CI matrix prove it for the inputs they draw. This
//! front keeps the two rules whose planted violation changes output
//! bytes while every suite stays green (EXPERIMENTS.md, the
//! planted-regression table); it reads the scrubbed, test-masked source
//! model of [`crate::source`].
//!
//! Rules (deny-level, scoped to the identity-gated crates):
//!
//! * `DT002` — a floating-point reduction (`sum::<f64>`, `fold` over
//!   `f64` identities) inside a worker fan-out argument span
//!   (`parallel_map(…)`, `.spawn(…)`) without a nearby
//!   comment documenting the deterministic merge order: float addition is
//!   non-associative, so the reduction order is part of the contract.
//! * `DT006` — a `sort_by`/`sort_by_key` whose key involves a timestamp
//!   but has no tie-break (no composite key, no `.then*`) and no nearby
//!   `stable`/`tie`/`determin…` comment: concurrent records share
//!   timestamps, so a bare time sort leaves their relative order to the
//!   sort implementation.
//!
//! The other determinism rules resolve paths or types, so clippy enforces
//! them (DESIGN.md §7): `DT001` (hash-ordered iteration) is
//! `clippy::iter_over_hash_type` plus `disallowed-methods` entries for the
//! hash collections' iterating methods; `DT003`, `DT004`, `DT005` and
//! `DT008` are `disallowed-methods`/`disallowed-types` entries; each
//! sanctioned site carries an `#[expect(…, reason = "…")]`, which fails
//! clippy once it no longer fires. `DT007` (`unsafe` in an identity-gated
//! crate) is retired: every such crate carries `#![forbid(unsafe_code)]`.
//! Retired IDs are not reused.

use crate::source::{comment_evidence, one_per_line, span_end, FileCtx};
use crate::Finding;

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
// DT002 — float reductions inside worker closures
// ---------------------------------------------------------------------

fn dt002(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for call in FAN_OUT_CALLS {
        for (at, _) in ctx.masked.match_indices(call) {
            let open = at + call.len() - 1; // the `(`
            let span = &ctx.masked[open..span_end(&ctx.masked, open)];
            for red in F64_REDUCTIONS {
                for (q, _) in span.match_indices(red) {
                    let hit = open + q;
                    if comment_evidence(&ctx.text, hit, 6, &["determin", "order", "merge"]) {
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
// DT006 — timestamp sorts without a tie-break
// ---------------------------------------------------------------------

fn dt006(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for call in KEYED_SORTS {
        for (at, _) in ctx.masked.match_indices(call) {
            let open = at + call.len() - 1;
            let key = &ctx.masked[open..span_end(&ctx.masked, open)];
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
                &ctx.text,
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

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Determinism-front findings for one file: DT002 and DT006, one per
/// (rule, line), in line order. Crates outside [`IDENTITY_GATED_CRATES`]
/// are exempt.
pub(crate) fn findings(file: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if IDENTITY_GATED_CRATES.contains(&file.krate.as_str()) {
        dt002(file, &mut out);
        dt006(file, &mut out);
        one_per_line(&mut out);
    }
    out
}
