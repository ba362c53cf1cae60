//! Front 2: the workspace source scanner.
//!
//! A line/token level Rust scanner — no rustc internals. Comments, string
//! literals, and char literals are *scrubbed* (replaced by spaces,
//! preserving byte offsets and newlines) so rule needles never match inside
//! them; `#[cfg(test)]` modules and `#[test]` functions are then *masked*
//! by brace tracking so test code is exempt. String literals are collected
//! during scrubbing, which is also how the domain front finds `SELECT …`
//! queries to type-check.
//!
//! Rules:
//!
//! * `no-unwrap` — no `.unwrap()` / `.expect(` / `panic!` in non-test
//!   library code of the hot-path crates (`ntier`, `transform`,
//!   `warehouse`, `analysis`);
//! * `no-wallclock` — no `Instant::now` / `SystemTime::now` inside the
//!   wallclock-free crates (`sim` uses simulated time only; `transform`'s
//!   parallel pipeline must stay reproducible, so timing lives in the
//!   bench harness);
//! * `hermetic-deps` — every dependency entry in every manifest must
//!   resolve in-tree (`path = …` or `workspace = true`), and the
//!   historically banned registry crates must never reappear.

use crate::{Finding, Severity};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Crates whose library code must stay free of `unwrap`/`expect`/`panic!`.
pub const HOT_PATH_CRATES: &[&str] = &["ntier", "transform", "warehouse", "analysis"];

/// Crates where wall-clock reads are banned: the deterministic `sim` crate
/// (simulated time only), the `transform` crate, whose worker threads
/// must stay reproducible, and the `warehouse` crate, whose compiled
/// query engine must never self-time — timing belongs to the bench
/// harness, not the pipeline or the query path.
pub const WALLCLOCK_FREE_CRATES: &[&str] = &["sim", "transform", "warehouse"];

/// Registry crates that must never reappear in any manifest, even as path
/// dependencies to vendored copies (the workspace replaces them).
pub const BANNED_CRATES: &[&str] = &[
    "serde",
    "serde_json",
    "serde_derive",
    "rand",
    "proptest",
    "criterion",
];

/// Dependency-declaring TOML section headers.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// A string literal found in non-test source: `file:line` plus contents.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlLiteral {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the literal's opening quote.
    pub line: u64,
    /// Literal contents (unescaped enough for SQL: `\'`→`'`, `\"`→`"`,
    /// `\\`→`\`, `\n`→newline).
    pub text: String,
}

// ---------------------------------------------------------------------
// Scrubbing
// ---------------------------------------------------------------------

/// One collected string literal: byte offset of the opening quote plus the
/// (lightly unescaped) contents.
#[derive(Debug)]
pub(crate) struct StrLit {
    pub(crate) offset: usize,
    pub(crate) content: String,
}

/// Replaces comments, string literals, and char literals with spaces
/// (newlines kept, byte length preserved) and collects the string
/// literals. Works on bytes; multi-byte UTF-8 only ever appears *inside*
/// the regions being blanked, where it is replaced byte-for-byte.
pub(crate) fn scrub(src: &str) -> (String, Vec<StrLit>) {
    let b = src.as_bytes();
    let mut out = vec![0u8; b.len()];
    out.copy_from_slice(b);
    let mut lits = Vec::new();
    let blank = |out: &mut [u8], range: Range<usize>| {
        for i in range {
            if out[i] != b'\n' {
                out[i] = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |p| i + p);
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments, per Rust.
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // r"…", r#"…"#, br"…", … — find hash count then closer.
                let mut j = i + 1;
                if b[j] == b'r' {
                    j += 1; // the `br` case
                }
                let mut hashes = 0;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                let open = j; // at the opening quote
                j += 1;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let end = find_subslice(&b[j..], &closer).map_or(b.len(), |p| j + p);
                lits.push(StrLit {
                    offset: open,
                    content: src[open + 1..end].to_string(),
                });
                let stop = (end + closer.len()).min(b.len());
                blank(&mut out, i..stop);
                i = stop;
            }
            b'"' => {
                let (end, content) = take_quoted(src, b, i);
                lits.push(StrLit { offset: i, content });
                blank(&mut out, i..end);
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime. A literal is 'x' or '\…';
                // a lifetime has no closing quote right after its one
                // "payload" char.
                if b.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    let stop = (j + 1).min(b.len());
                    blank(&mut out, i..stop);
                    i = stop;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    blank(&mut out, i..i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime — leave it
                }
            }
            _ => i += 1,
        }
    }
    (String::from_utf8_lossy(&out).into_owned(), lits)
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"  r#"  br"  br#"  b"   — only the raw forms are handled here;
    // plain b"…" falls through to the `"` arm via this check failing.
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if b.get(j) != Some(&b'r') {
            return false;
        }
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
        // `r` must not be part of a longer identifier (e.g. `for"…"` is
        // impossible, but `var"` never happens either; the cheap guard is
        // that the byte before is not identifier-ish).
        && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
}

/// Consumes a `"…"` literal starting at `i`; returns (end-exclusive,
/// unescaped content).
fn take_quoted(src: &str, b: &[u8], i: usize) -> (usize, String) {
    let mut j = i + 1;
    let mut content = String::new();
    while j < b.len() {
        match b[j] {
            b'\\' => {
                match b.get(j + 1) {
                    Some(b'n') => content.push('\n'),
                    Some(b't') => content.push('\t'),
                    Some(&c @ (b'"' | b'\'' | b'\\')) => content.push(c as char),
                    _ => {} // other escapes are irrelevant to SQL extraction
                }
                j += 2;
            }
            b'"' => return (j + 1, content),
            _ => {
                // Copy the full UTF-8 character.
                let ch_len = src[j..].chars().next().map_or(1, char::len_utf8);
                content.push_str(&src[j..j + ch_len]);
                j += ch_len;
            }
        }
    }
    (b.len(), content)
}

fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

// ---------------------------------------------------------------------
// Test masking
// ---------------------------------------------------------------------

/// Byte ranges of `#[cfg(test)]` / `#[test]` items in scrubbed source,
/// found by scanning to the first `{` after the attribute and tracking
/// brace depth to its match.
fn test_ranges(scrubbed: &str) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(p) = scrubbed[from..].find(marker) {
            let at = from + p;
            let after = at + marker.len();
            if let Some(open_rel) = scrubbed[after..].find('{') {
                let open = after + open_rel;
                let mut depth = 0usize;
                let mut end = scrubbed.len();
                for (k, c) in scrubbed[open..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = open + k + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                ranges.push(at..end);
                from = end;
            } else {
                from = after;
            }
        }
    }
    ranges
}

fn in_ranges(ranges: &[Range<usize>], offset: usize) -> bool {
    ranges.iter().any(|r| r.contains(&offset))
}

/// Blanks the test ranges out of scrubbed source (newlines kept).
pub(crate) fn mask_tests(scrubbed: &str) -> (String, Vec<Range<usize>>) {
    let ranges = test_ranges(scrubbed);
    let mut out = scrubbed.as_bytes().to_vec();
    for r in &ranges {
        for i in r.clone() {
            if out[i] != b'\n' {
                out[i] = b' ';
            }
        }
    }
    (String::from_utf8_lossy(&out).into_owned(), ranges)
}

pub(crate) fn line_of(src: &str, offset: usize) -> u64 {
    src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count() as u64
        + 1
}

// ---------------------------------------------------------------------
// Source model: item spans
// ---------------------------------------------------------------------

/// End-exclusive offset of the `}` matching the `{` at `open` in scrubbed
/// text (falls back to the end of the text when unbalanced).
pub(crate) fn brace_span_end(scrubbed: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (k, c) in scrubbed[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return open + k + 1;
                }
            }
            _ => {}
        }
    }
    scrubbed.len()
}

/// End-exclusive offset of the `)` matching the `(` at `open` in scrubbed
/// text (falls back to the end of the text when unbalanced).
pub(crate) fn paren_span_end(scrubbed: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (k, c) in scrubbed[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return open + k + 1;
                }
            }
            _ => {}
        }
    }
    scrubbed.len()
}

/// Byte spans of `fn` items in scrubbed (and usually test-masked) source,
/// from the `fn` keyword through the matching close brace of the body —
/// signatures included, so parameter bindings fall inside their span.
/// Trait-method declarations without a body (`fn f(…);`) are skipped.
/// Spans of nested items overlap their parents; callers wanting the
/// *enclosing* function of an offset should take the smallest span
/// containing it.
pub(crate) fn fn_spans(scrubbed: &str) -> Vec<Range<usize>> {
    let bytes = scrubbed.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(p) = scrubbed[from..].find("fn ") {
        let at = from + p;
        from = at + 3;
        // `fn` must be its own word (`pub fn`, not `type DynFn `).
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            continue;
        }
        // Walk to the body `{`, skipping `;` nested in brackets or parens
        // (array return types, default const generics). Angle brackets are
        // not tracked — `->` would unbalance them, and generics contain
        // neither `;` nor `{`.
        let mut depth = 0i64;
        let mut k = at + 3;
        while k < bytes.len() {
            match bytes[k] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => {
                    spans.push(at..brace_span_end(scrubbed, k));
                    break;
                }
                b';' if depth <= 0 => break, // bodyless declaration
                _ => {}
            }
            k += 1;
        }
    }
    spans
}

/// The smallest (innermost) function span containing `offset`, if any.
pub(crate) fn enclosing_fn(spans: &[Range<usize>], offset: usize) -> Option<Range<usize>> {
    spans
        .iter()
        .filter(|s| s.contains(&offset))
        .min_by_key(|s| s.end - s.start)
        .cloned()
}

// ---------------------------------------------------------------------
// Source model: shared token helpers
// ---------------------------------------------------------------------

pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

pub(crate) fn word_start(text: &str, at: usize) -> bool {
    at == 0 || !is_ident(text.as_bytes()[at - 1])
}

pub(crate) fn word_end(text: &str, end: usize) -> bool {
    end >= text.len() || !is_ident(text.as_bytes()[end])
}

/// Offsets of word-bounded occurrences of `needle` in `text`.
pub(crate) fn find_word(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find(needle) {
        let at = from + p;
        if word_start(text, at) && word_end(text, at + needle.len()) {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// The trailing identifier of `s`, or `""`.
pub(crate) fn trailing_ident(s: &str) -> &str {
    let t = s.trim_end();
    let b = t.as_bytes();
    let mut i = t.len();
    while i > 0 && is_ident(b[i - 1]) {
        i -= 1;
    }
    &t[i..]
}

/// `true` when the word at `at` is the subject of a `for … in` loop
/// (allowing `&`/`&mut` in front).
pub(crate) fn is_loop_subject(masked: &str, at: usize) -> bool {
    let mut pre = masked[..at].trim_end();
    loop {
        if let Some(s) = pre.strip_suffix('&') {
            pre = s.trim_end();
        } else if let Some(s) = pre.strip_suffix("mut") {
            if word_start(s, s.len()) || s.is_empty() {
                pre = s.trim_end();
            } else {
                break;
            }
        } else {
            break;
        }
    }
    pre.ends_with("in") && word_start(pre, pre.len() - 2)
}

/// The deny finding the determinism and performance fronts report for
/// the hit at byte `at` of `text`: `what`, then the hit's trimmed source
/// line. `lint.allow` anchors match on this message text.
pub(crate) fn finding_at(rel: &str, text: &str, rule: &str, at: usize, what: &str) -> Finding {
    let line = line_of(text, at);
    let line_text = text
        .lines()
        .nth(line as usize - 1)
        .unwrap_or_default()
        .trim();
    Finding {
        rule: rule.to_string(),
        severity: Severity::Deny,
        file: rel.to_string(),
        line,
        message: format!("{what}: `{line_text}`"),
    }
}

/// `true` when a `//` comment containing any of `tokens` appears on the
/// hit's line or within `window` raw source lines above it. This is how a
/// rule accepts *documented* discipline: the comment is the evidence.
/// Tokens are prefix-matched at word starts, so `determin` accepts both
/// `deterministic` and `determinism` while `stable` rejects `unstable`.
pub(crate) fn comment_evidence(text: &str, at: usize, window: usize, tokens: &[&str]) -> bool {
    let line = line_of(text, at) as usize; // 1-based
    let lo = line.saturating_sub(window + 1);
    text.lines().skip(lo).take(line - lo).any(|l| {
        l.find("//").is_some_and(|c| {
            let comment = &l[c..];
            tokens.iter().any(|t| {
                comment
                    .match_indices(t)
                    .any(|(p, _)| word_start(comment, p))
            })
        })
    })
}

// ---------------------------------------------------------------------
// Source model: loop spans
// ---------------------------------------------------------------------

/// One `for`/`while`/`loop` in scrubbed (and usually test-masked) source:
/// the keyword offset, the header extent (keyword through the body's
/// opening `{`, exclusive), the body extent (open brace through its match,
/// exclusive), and the nesting depth (0 = not inside another loop body).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopSpan {
    /// Offset of the loop keyword.
    pub(crate) kw: usize,
    /// `for`/`while` header: everything between the keyword and the body.
    pub(crate) header: Range<usize>,
    /// Body extent, from the opening `{` to past its matching `}`.
    pub(crate) body: Range<usize>,
    /// How many other loop bodies contain this loop (0 = outermost).
    pub(crate) depth: usize,
}

/// Walks scrubbed source for `for`/`while`/`loop` constructs so rules can
/// reason about "inside a loop on a hot path". `impl Trait for Type`
/// (preceded by an identifier or `>`) and HRTB `for<'a>` are not loops
/// and are skipped; the body `{` is found at bracket/paren depth 0, so
/// closure blocks inside a header don't end it early.
pub(crate) fn loop_spans(masked: &str) -> Vec<LoopSpan> {
    let bytes = masked.as_bytes();
    let mut spans: Vec<LoopSpan> = Vec::new();
    for kw in ["for", "while", "loop"] {
        for at in find_word(masked, kw) {
            let after = at + kw.len();
            // `impl Display for Type` / `&dyn for<'a> Fn(…)`: the word
            // before a real loop keyword is never an identifier or `>`.
            let prev = masked[..at].trim_end().as_bytes().last();
            if kw == "for" && prev.is_some_and(|&b| is_ident(b) || b == b'>') {
                continue;
            }
            let next = masked[after..].trim_start().as_bytes().first();
            if kw == "for" && next == Some(&b'<') {
                continue; // higher-ranked trait bound, not a loop
            }
            if kw == "loop" && next != Some(&b'{') {
                continue; // e.g. a method or field named `loop_…` is
                          // already word-bounded out; this skips `loop`
                          // used as a macro ident fragment
            }
            // Scan to the body `{` at bracket depth 0; `;` or `}` first
            // means this isn't a loop after all.
            let mut depth = 0i64;
            let mut k = after;
            let mut open = None;
            while k < bytes.len() {
                match bytes[k] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth <= 0 => {
                        open = Some(k);
                        break;
                    }
                    b';' | b'}' if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let Some(open) = open else { continue };
            spans.push(LoopSpan {
                kw: at,
                header: at..open,
                body: open..brace_span_end(masked, open),
                depth: 0,
            });
        }
    }
    spans.sort_by_key(|s| s.kw);
    let depths: Vec<usize> = spans
        .iter()
        .map(|s| {
            spans
                .iter()
                .filter(|o| o.kw != s.kw && o.body.contains(&s.kw))
                .count()
        })
        .collect();
    for (s, d) in spans.iter_mut().zip(depths) {
        s.depth = d;
    }
    spans
}

/// The innermost loop whose *body* contains `offset`, if any.
pub(crate) fn enclosing_loop(spans: &[LoopSpan], offset: usize) -> Option<&LoopSpan> {
    spans
        .iter()
        .filter(|s| s.body.contains(&offset))
        .min_by_key(|s| s.body.end - s.body.start)
}

// ---------------------------------------------------------------------
// Rules over one file
// ---------------------------------------------------------------------

/// Lints one Rust source text as non-test library code of `crate_name`.
/// `rel` is the workspace-relative path used in findings. Exposed for
/// fixture tests; [`scan`] drives it over the real workspace.
pub fn lint_rust_source(crate_name: &str, rel: &str, text: &str) -> Vec<Finding> {
    let (scrubbed, _lits) = scrub(text);
    let (masked, _ranges) = mask_tests(&scrubbed);
    let mut findings = Vec::new();

    let mut needle_findings = |needles: &[&str], rule: &str, what: &str| {
        for needle in needles {
            let mut from = 0;
            while let Some(p) = masked[from..].find(needle) {
                let at = from + p;
                let line = line_of(text, at);
                // Quote the offending source line so allowlist needles can
                // pin to a specific call site (e.g. its expect message).
                let line_text = text
                    .lines()
                    .nth(line as usize - 1)
                    .unwrap_or_default()
                    .trim();
                findings.push(Finding {
                    rule: rule.to_string(),
                    severity: Severity::Deny,
                    file: rel.to_string(),
                    line,
                    message: format!("`{needle}` {what}: `{line_text}`"),
                });
                from = at + needle.len();
            }
        }
    };

    if HOT_PATH_CRATES.contains(&crate_name) {
        needle_findings(
            &[".unwrap()", ".expect(", "panic!"],
            "no-unwrap",
            "in non-test library code of a hot-path crate",
        );
    }
    if WALLCLOCK_FREE_CRATES.contains(&crate_name) {
        needle_findings(
            &["Instant::now", "SystemTime::now"],
            "no-wallclock",
            "in a wallclock-free crate (sim uses simulated time; transform must stay reproducible — time it from the bench harness)",
        );
    }
    findings
}

/// Lints one manifest text for non-hermetic or banned dependencies.
/// Exposed for fixture tests.
pub fn lint_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            let section = line.trim_matches(['[', ']']);
            in_dep_section = DEP_SECTIONS
                .iter()
                .any(|s| section == *s || section.ends_with(&format!(".{s}")));
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let hermetic = line.contains("path =")
            || line.contains("path=")
            || line.contains("workspace = true")
            || line.contains("workspace=true");
        let name = line
            .split(['=', '.'])
            .next()
            .map(str::trim)
            .unwrap_or_default()
            .trim_matches('"');
        if BANNED_CRATES.contains(&name) {
            findings.push(Finding {
                rule: "hermetic-deps".to_string(),
                severity: Severity::Deny,
                file: rel.to_string(),
                line: idx as u64 + 1,
                message: format!("banned crate `{name}` declared (the workspace replaces it)"),
            });
        } else if !hermetic {
            findings.push(Finding {
                rule: "hermetic-deps".to_string(),
                severity: Severity::Deny,
                file: rel.to_string(),
                line: idx as u64 + 1,
                message: format!(
                    "`{line}` is not a path/workspace dependency and needs a registry"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

pub(crate) fn rust_files_under(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

pub(crate) fn crate_dirs(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let path = entry?.path();
            if path.join("Cargo.toml").is_file() {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                out.push((name, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans the workspace for source-front findings (`no-unwrap`,
/// `no-wallclock`, `hermetic-deps`).
///
/// # Errors
///
/// I/O errors walking or reading files.
pub fn scan(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (name, dir) in crate_dirs(root)? {
        for file in rust_files_under(&dir.join("src"))? {
            let text = fs::read_to_string(&file)?;
            findings.extend(lint_rust_source(&name, &rel_path(root, &file), &text));
        }
    }
    // Manifests: the root plus every crate.
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(
        crate_dirs(root)?
            .into_iter()
            .map(|(_, d)| d.join("Cargo.toml")),
    );
    for m in manifests {
        if m.is_file() {
            let text = fs::read_to_string(&m)?;
            findings.extend(lint_manifest(&rel_path(root, &m), &text));
        }
    }
    Ok(findings)
}

/// Extracts `SELECT …` string literals from all *non-test* workspace
/// source: every crate's `src/`, the root `src/`, and `examples/`. Test
/// modules and `tests/` directories are exempt — they may query synthetic
/// tables on purpose.
///
/// # Errors
///
/// I/O errors walking or reading files.
pub fn sql_literals(root: &Path) -> io::Result<Vec<SqlLiteral>> {
    let mut dirs: Vec<PathBuf> = vec![root.join("src"), root.join("examples")];
    for (_, d) in crate_dirs(root)? {
        dirs.push(d.join("src"));
        dirs.push(d.join("examples"));
    }
    let mut out = Vec::new();
    for dir in dirs {
        for file in rust_files_under(&dir)? {
            let text = fs::read_to_string(&file)?;
            let (scrubbed, lits) = scrub(&text);
            let ranges = test_ranges(&scrubbed);
            let rel = rel_path(root, &file);
            for lit in lits {
                if in_ranges(&ranges, lit.offset) {
                    continue;
                }
                let trimmed = lit.content.trim_start();
                // A bare `"SELECT "` / `"EXPLAIN "` prefix with nothing
                // after it is a needle or fragment, not a checkable query;
                // so is a `format!` template — braces never occur in the
                // SQL dialect, only in placeholders awaiting interpolation.
                let prefixed = |kw: &str| {
                    trimmed.len() > kw.len()
                        && trimmed
                            .get(..kw.len())
                            .is_some_and(|p| p.eq_ignore_ascii_case(kw))
                };
                if (prefixed("select ") || prefixed("explain ")) && !trimmed.contains(['{', '}']) {
                    out.push(SqlLiteral {
                        file: rel.clone(),
                        line: line_of(&text, lit.offset),
                        text: lit.content.clone(),
                    });
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\n/* panic! */ let b = 'c';\n";
        let (s, lits) = scrub(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert!(s.contains("let a"));
        assert!(s.contains("let b"));
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].content, "x.unwrap()");
    }

    #[test]
    fn scrub_handles_raw_strings_escapes_and_lifetimes() {
        let src =
            "fn f<'a>(x: &'a str) { let r = r#\"SELECT \"q\" panic!\"#; let e = \"a\\\"b\"; }";
        let (s, lits) = scrub(src);
        assert!(!s.contains("panic"));
        assert!(s.contains("fn f<'a>"), "lifetimes untouched: {s}");
        assert_eq!(lits.len(), 2);
        assert_eq!(lits[0].content, "SELECT \"q\" panic!");
        assert_eq!(lits[1].content, "a\"b");
    }

    #[test]
    fn test_blocks_are_masked() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn b() { y.unwrap(); }\n}\n";
        let (scrubbed, _) = scrub(src);
        let (masked, ranges) = mask_tests(&scrubbed);
        assert_eq!(masked.matches(".unwrap()").count(), 1, "{masked}");
        assert_eq!(ranges.len(), 1);
    }

    #[test]
    fn loop_spans_cover_for_while_loop_with_depth() {
        let src = "fn f(rows: &[u64]) {\n\
                   for r in rows {\n\
                       let mut i = 0;\n\
                       while i < *r {\n\
                           loop { break; }\n\
                           i += 1;\n\
                       }\n\
                   }\n}\n";
        let spans = loop_spans(src);
        assert_eq!(spans.len(), 3, "{spans:?}");
        assert_eq!(spans[0].depth, 0);
        assert!(src[spans[0].header.clone()].contains("for r in rows"));
        assert_eq!(spans[1].depth, 1);
        assert!(src[spans[1].header.clone()].contains("while i"));
        assert_eq!(spans[2].depth, 2);
        // The innermost loop of an offset inside all three bodies.
        let brk = src.find("break").unwrap();
        let inner = enclosing_loop(&spans, brk).unwrap();
        assert_eq!(inner.depth, 2);
    }

    #[test]
    fn loop_spans_skip_impl_for_and_hrtb() {
        let src = "impl Display for Thing { fn fmt(&self) {} }\n\
                   fn g(f: &dyn for<'a> Fn(&'a str)) { f(\"x\"); }\n\
                   struct Loopy { loop_count: u64 }\n";
        let (scrubbed, _) = scrub(src);
        assert_eq!(loop_spans(&scrubbed), vec![]);
    }

    #[test]
    fn loop_spans_find_body_past_closure_parens() {
        let src = "fn f(v: Vec<u64>) {\n\
                   for x in v.iter().filter(|y| **y > 1) {\n\
                       use_it(x);\n\
                   }\n}\n";
        let spans = loop_spans(src);
        assert_eq!(spans.len(), 1);
        assert!(src[spans[0].body.clone()].contains("use_it"));
    }

    #[test]
    fn no_unwrap_fires_only_for_hot_crates_outside_tests() {
        let src = "fn a() { x.unwrap(); }\n#[test]\nfn t() { y.unwrap(); }\n";
        let f = lint_rust_source("warehouse", "crates/warehouse/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].severity, Severity::Deny);
        // Same text in a non-hot crate: clean.
        assert!(lint_rust_source("serdes", "crates/serdes/src/x.rs", src).is_empty());
        // Clean text in a hot crate: clean.
        assert!(lint_rust_source("ntier", "x.rs", "fn a() -> Option<u8> { None }").is_empty());
    }

    #[test]
    fn expect_and_panic_also_fire() {
        let src = "fn a() { b.expect(\"msg\"); panic!(\"boom\"); }";
        let rules: Vec<String> = lint_rust_source("transform", "x.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec!["no-unwrap", "no-unwrap"]);
    }

    #[test]
    fn wallclock_fires_only_in_wallclock_free_crates() {
        let src = "fn t() -> Instant { Instant::now() }";
        for krate in WALLCLOCK_FREE_CRATES {
            let path = format!("crates/{krate}/src/x.rs");
            let f = lint_rust_source(krate, &path, src);
            assert_eq!(f.len(), 1, "{krate}");
            assert_eq!(f[0].rule, "no-wallclock");
        }
        // The bench crate is where timing lives; it stays exempt.
        assert!(lint_rust_source("bench", "crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn manifest_rules_catch_registry_and_banned_deps() {
        let good = "[dependencies]\nmscope-sim.workspace = true\nfoo = { path = \"../foo\" }\n";
        assert!(lint_manifest("Cargo.toml", good).is_empty());
        let bad = "[dependencies]\nlibc = \"0.2\"\n";
        let f = lint_manifest("Cargo.toml", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hermetic-deps");
        assert_eq!(f[0].line, 2);
        let banned = "[dev-dependencies]\nserde = { path = \"../vendored/serde\" }\n";
        let f = lint_manifest("Cargo.toml", banned);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("banned"));
        // Non-dependency sections are ignored.
        let other = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n";
        assert!(lint_manifest("Cargo.toml", other).is_empty());
    }

    #[test]
    fn sql_literal_extraction_skips_tests_and_non_queries() {
        let dir = std::env::temp_dir().join("mscope-lint-sqlx");
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("lib.rs"),
            "fn q() { run(\"SELECT a FROM t\"); log(\"not sql\"); }\n\
             #[cfg(test)]\nmod tests { fn t() { run(\"SELECT b FROM fake\"); } }\n",
        )
        .unwrap();
        let lits = sql_literals(&dir).unwrap();
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert_eq!(lits[0].text, "SELECT a FROM t");
        assert_eq!(lits[0].line, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sql_literal_extraction_covers_explain() {
        let dir = std::env::temp_dir().join("mscope-lint-sqlexp");
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("lib.rs"),
            "fn q() { run(\"EXPLAIN SELECT a FROM t\"); probe(\"explain \"); }\n",
        )
        .unwrap();
        let lits = sql_literals(&dir).unwrap();
        assert_eq!(lits.len(), 1, "{lits:?}");
        assert_eq!(lits[0].text, "EXPLAIN SELECT a FROM t");
        fs::remove_dir_all(&dir).ok();
    }
}
