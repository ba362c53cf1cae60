//! The token-pattern engine behind parsing instructions.
//!
//! The paper's parsers are governed by declarative instructions: "these
//! parsers support adding semantics to files using either the sequence of
//! lines in a file or specific string tokens (expressed as regular
//! expressions)" (§III-B1). This module is the string-token half: a small
//! scanf-style matcher — literals, whitespace runs, named captures — that
//! is expressive enough for every monitor format in the suite while staying
//! fully inspectable (a pattern *is* the instruction, data not code).

use crate::error::TransformError;
use std::fmt;
use std::ops::Range;

/// Byte ranges of one match's captures, in token order — the scratch
/// [`Pattern::match_ranges`] fills, reusable across lines.
pub(crate) type CaptureRanges = Vec<Range<usize>>;

/// One token of a line pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Exact literal text.
    Lit(String),
    /// One or more whitespace characters.
    Ws,
    /// Named capture: consumes lazily until the next token matches (or to
    /// end of line if last).
    Cap(String),
    /// Named capture that must look like a wall-clock timestamp
    /// (`HH:MM:SS[.ffffff]`).
    Wall(String),
}
mscope_serdes::json_enum!(Tok { Lit(a), Ws, Cap(a), Wall(a) });

/// Convenience constructors.
impl Tok {
    /// Literal token.
    pub fn lit(s: &str) -> Tok {
        Tok::Lit(s.to_string())
    }
    /// Capture token.
    pub fn cap(name: &str) -> Tok {
        Tok::Cap(name.to_string())
    }
    /// Wall-clock capture token.
    pub fn wall(name: &str) -> Tok {
        Tok::Wall(name.to_string())
    }
}

/// A line pattern: a sequence of tokens that must match the entire line.
///
/// # Examples
///
/// ```
/// use mscope_transform::{Pattern, Tok};
///
/// let p = Pattern::new(vec![
///     Tok::wall("time"), Tok::Ws, Tok::lit("all"), Tok::Ws, Tok::cap("user"),
/// ]);
/// let caps = p.match_line("00:00:01.500000     all      12.34").unwrap();
/// assert_eq!(caps[0], ("time".to_string(), "00:00:01.500000".to_string()));
/// assert_eq!(caps[1].1, "12.34");
/// assert!(p.match_line("garbage").is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    toks: Vec<Tok>,
}
mscope_serdes::json_struct!(Pattern { toks });

impl Pattern {
    /// Builds a pattern from tokens.
    pub fn new(toks: Vec<Tok>) -> Pattern {
        Pattern { toks }
    }

    /// The tokens.
    pub fn tokens(&self) -> &[Tok] {
        &self.toks
    }

    /// Names of the captures, in order.
    pub fn capture_names(&self) -> Vec<&str> {
        self.names().collect()
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.toks.iter().filter_map(|t| match t {
            Tok::Cap(n) | Tok::Wall(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// Statically checks the pattern for the defect classes that
    /// historically slipped through to runtime: empty patterns, empty
    /// tokens, ambiguous adjacent wildcards, unreachable whitespace tokens,
    /// and duplicate capture names. Returns every violation as a
    /// `(rule-id, message)` pair; an empty vector means the pattern is
    /// well-formed.
    ///
    /// Rule IDs (documented in DESIGN.md §Static analysis):
    ///
    /// * `pattern-empty` — no tokens at all (matches only empty lines,
    ///   which the filter stage already handles);
    /// * `pattern-empty-token` — a literal or capture with an empty
    ///   string (a no-op token, or an unnameable field);
    /// * `pattern-adjacent-wildcards` — two captures with no delimiter
    ///   between them, so the split point is ambiguous;
    /// * `pattern-unreachable` — a whitespace token directly after
    ///   another (the first consumes the whole run, the second can never
    ///   match);
    /// * `pattern-duplicate-capture` — the same capture name twice, which
    ///   produces a duplicate field and fails schema inference at runtime.
    pub fn issues(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        if self.toks.is_empty() {
            out.push((
                "pattern-empty",
                "pattern has no tokens and can only match empty lines".to_string(),
            ));
        }
        let mut seen: Vec<&str> = Vec::with_capacity(self.toks.len());
        for (i, tok) in self.toks.iter().enumerate() {
            match tok {
                // perf: validation-time diagnostic — once per pattern, never per line.
                Tok::Lit(l) if l.is_empty() => out.push((
                    "pattern-empty-token",
                    format!("token {i} is an empty literal (a no-op)"),
                )),
                // perf: validation-time diagnostic — once per pattern, never per line.
                Tok::Cap(n) | Tok::Wall(n) if n.is_empty() => out.push((
                    "pattern-empty-token",
                    format!("token {i} is a capture with an empty name"),
                )),
                Tok::Cap(n) | Tok::Wall(n) => {
                    if seen.contains(&n.as_str()) {
                        out.push((
                            "pattern-duplicate-capture",
                            // perf: validation-time diagnostic — once per pattern.
                            format!("capture `{n}` appears more than once"),
                        ));
                    }
                    seen.push(n);
                }
                _ => {}
            }
            if i > 0 {
                let prev = &self.toks[i - 1];
                let is_cap = |t: &Tok| matches!(t, Tok::Cap(_) | Tok::Wall(_));
                if is_cap(prev) && is_cap(tok) {
                    out.push((
                        "pattern-adjacent-wildcards",
                        // perf: validation-time diagnostic — once per pattern.
                        format!("tokens {} and {i} are adjacent captures; the split between them is ambiguous", i - 1),
                    ));
                }
                if matches!(prev, Tok::Ws) && matches!(tok, Tok::Ws) {
                    out.push((
                        "pattern-unreachable",
                        // perf: validation-time diagnostic — once per pattern.
                        format!(
                            "token {i} is whitespace directly after whitespace and can never match"
                        ),
                    ));
                }
            }
        }
        out
    }

    /// [`Pattern::issues`] as a hard check: `Err` with the first violation
    /// as a typed [`TransformError::BadPattern`].
    ///
    /// # Errors
    ///
    /// [`TransformError::BadPattern`] naming the rule and the reason.
    pub fn validate(&self) -> Result<(), TransformError> {
        match self.issues().into_iter().next() {
            None => Ok(()),
            Some((rule, reason)) => Err(TransformError::BadPattern {
                pattern: self.to_string(),
                rule,
                reason,
            }),
        }
    }

    /// Attempts to match the whole line; returns `(name, value)` capture
    /// pairs on success.
    pub fn match_line(&self, line: &str) -> Option<Vec<(String, String)>> {
        let mut ranges = Vec::with_capacity(self.toks.len());
        if !self.match_ranges(line, &mut ranges, &mut FailedStates::default()) {
            return None;
        }
        // perf: the owned form, for callers outside the pipeline — the
        // drivers read the borrowed [`Pattern::captures`].
        let owned = |(name, value): (&str, &str)| (name.to_string(), value.to_string());
        Some(self.captures(line, &ranges).map(owned).collect())
    }

    /// Attempts to match the whole line, leaving in `ranges` where each
    /// capture lies in it — one range per capture token, in token order
    /// (empty when the line does not match). `failed` is scratch. Allocates
    /// nothing once both have grown to the longest line's needs.
    pub(crate) fn match_ranges(
        &self,
        line: &str,
        ranges: &mut CaptureRanges,
        failed: &mut FailedStates,
    ) -> bool {
        ranges.clear();
        failed.reset(self.toks.len(), line.len());
        self.match_from(0, line, 0, ranges, failed)
    }

    /// The `(name, value)` pairs of a successful [`Pattern::match_ranges`]
    /// over `line`, names borrowed from the pattern and values from the
    /// line.
    pub(crate) fn captures<'a>(
        &'a self,
        line: &'a str,
        ranges: &'a [Range<usize>],
    ) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.names()
            .zip(ranges)
            .map(move |(name, r)| (name, &line[r.clone()]))
    }

    /// Allocation-free backtracking core: does `toks[i..]` match `line`
    /// from byte offset `pos`? That answer depends on `(i, pos)` alone, so
    /// a state that failed once is remembered in `failed` and never tried
    /// again: a line costs at most `toks.len() × (line.len() + 1)` tries.
    /// A candidate capture is recorded as its byte range and popped on
    /// backtrack, so every capture token of a match holds exactly one
    /// range, lined up with [`Pattern::names`].
    fn match_from(
        &self,
        i: usize,
        line: &str,
        pos: usize,
        caps: &mut CaptureRanges,
        failed: &mut FailedStates,
    ) -> bool {
        let Some(tok) = self.toks.get(i) else {
            return pos == line.len();
        };
        let state = i * failed.stride + pos;
        if failed.contains(state) {
            return false;
        }
        #[cfg(test)]
        {
            failed.steps += 1;
        }
        let rest = &line[pos..];
        let matched = match tok {
            Tok::Lit(l) => {
                rest.starts_with(l.as_str())
                    && self.match_from(i + 1, line, pos + l.len(), caps, failed)
            }
            Tok::Ws => {
                let trimmed = rest.trim_start();
                // Needs at least one whitespace char.
                trimmed.len() < rest.len()
                    && self.match_from(i + 1, line, pos + rest.len() - trimmed.len(), caps, failed)
            }
            Tok::Cap(_) | Tok::Wall(_) => self.match_capture(i, line, pos, caps, failed),
        };
        if !matched {
            failed.insert(state);
        }
        matched
    }

    /// A capture token `toks[i]` at `pos`, extended lazily: its candidate
    /// ends, shortest first, are only the offsets where the next token can
    /// begin ([`next_end`]), and a `Wall` capture is shape-checked only
    /// there. Captures are never empty.
    fn match_capture(
        &self,
        i: usize,
        line: &str,
        pos: usize,
        caps: &mut CaptureRanges,
        failed: &mut FailedStates,
    ) -> bool {
        let rest = &line[pos..];
        let is_wall = matches!(self.toks[i], Tok::Wall(_));
        let next = self.toks.get(i + 1);
        let Some(first) = rest.chars().next() else {
            return false;
        };
        let mut from = first.len_utf8();
        while let Some(offset) = next_end(next, &rest[from..]) {
            let end = from + offset;
            if !is_wall || looks_like_wallclock(&rest[..end]) {
                caps.push(pos..pos + end);
                if self.match_from(i + 1, line, pos + end, caps, failed) {
                    return true;
                }
                caps.pop();
            }
            let Some(c) = rest[end..].chars().next() else {
                return false;
            };
            from = end + c.len_utf8();
        }
        false
    }
}

/// The offset in `s` of the first place the token after a capture can
/// begin — the capture's next candidate end: the next occurrence of a
/// literal, the next whitespace char, the end of the line when the capture
/// is last. A following capture (only an unvalidated pattern has one) can
/// begin anywhere, so every char boundary is a candidate.
fn next_end(next: Option<&Tok>, s: &str) -> Option<usize> {
    match next {
        None => Some(s.len()),
        Some(Tok::Lit(l)) => s.find(l.as_str()),
        Some(Tok::Ws) => s.find(char::is_whitespace),
        Some(Tok::Cap(_) | Tok::Wall(_)) => Some(0),
    }
}

/// The `(token index, byte offset)` states of one line that are known not
/// to match, as a bitset — scratch that [`Pattern::match_ranges`] resets
/// per line and callers keep across lines.
#[derive(Debug, Clone, Default)]
pub(crate) struct FailedStates {
    bits: Vec<u64>,
    /// States per token: the line's length plus one.
    stride: usize,
    /// Words of `bits` that may hold a set bit; only these need clearing.
    dirty: usize,
    /// States tried since the last reset.
    #[cfg(test)]
    steps: usize,
}

impl FailedStates {
    fn reset(&mut self, tokens: usize, line_len: usize) {
        self.bits[..self.dirty].fill(0);
        self.dirty = 0;
        self.stride = line_len + 1;
        let words = (tokens * self.stride).div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        #[cfg(test)]
        {
            self.steps = 0;
        }
    }

    fn contains(&self, state: usize) -> bool {
        self.bits[state / 64] & (1 << (state % 64)) != 0
    }

    fn insert(&mut self, state: usize) {
        self.bits[state / 64] |= 1 << (state % 64);
        self.dirty = self.dirty.max(state / 64 + 1);
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.toks {
            match t {
                Tok::Lit(l) => write!(f, "{l}")?,
                Tok::Ws => write!(f, " ")?,
                Tok::Cap(n) => write!(f, "<{n}>")?,
                Tok::Wall(n) => write!(f, "<{n}:wall>")?,
            }
        }
        Ok(())
    }
}

/// `true` if `s` looks like `HH:MM:SS` optionally followed by `.fraction`.
pub fn looks_like_wallclock(s: &str) -> bool {
    mscope_sim::parse_wallclock(s).is_some()
}

/// Builds the common `key=value` suffix tokens `ua= ud= ds= dr=` used by
/// every event-log pattern.
pub fn timestamp_suffix_tokens() -> Vec<Tok> {
    let mut toks = Vec::with_capacity(11);
    for (i, key) in ["ua", "ud", "ds", "dr"].iter().enumerate() {
        if i > 0 {
            toks.push(Tok::Ws);
        }
        // perf: pattern construction — four owned literals, once per
        // declared pattern, never per log line.
        toks.push(Tok::lit(&format!("{key}=")));
        toks.push(Tok::cap(key));
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_ws() {
        let p = Pattern::new(vec![Tok::lit("a"), Tok::Ws, Tok::lit("b")]);
        assert!(p.match_line("a b").is_some());
        assert!(p.match_line("a    b").is_some());
        assert!(p.match_line("ab").is_none());
        assert!(p.match_line("a b ").is_none(), "must match whole line");
    }

    #[test]
    fn capture_until_next_literal() {
        let p = Pattern::new(vec![Tok::lit("ID="), Tok::cap("id"), Tok::lit(" end")]);
        let caps = p.match_line("ID=00AB end").unwrap();
        assert_eq!(caps, vec![("id".to_string(), "00AB".to_string())]);
    }

    #[test]
    fn capture_at_end_takes_rest() {
        let p = Pattern::new(vec![Tok::lit("x="), Tok::cap("v")]);
        assert_eq!(p.match_line("x=hello world").unwrap()[0].1, "hello world");
        assert!(p.match_line("x=").is_none(), "captures are non-empty");
    }

    #[test]
    fn lazy_capture_backtracks() {
        // The first "/*" would be a greedy trap; lazy matching finds the
        // split that satisfies the rest of the pattern.
        let p = Pattern::new(vec![
            Tok::cap("sql"),
            Tok::lit("/*ID="),
            Tok::cap("id"),
            Tok::lit("*/"),
        ]);
        let caps = p.match_line("SELECT a /*x*/ FROM t /*ID=7F*/").unwrap();
        assert_eq!(caps[0].1, "SELECT a /*x*/ FROM t ");
        assert_eq!(caps[1].1, "7F");
    }

    #[test]
    fn wallclock_capture_is_shape_checked() {
        let p = Pattern::new(vec![Tok::wall("t")]);
        assert!(p.match_line("00:00:01.500000").is_some());
        assert!(p.match_line("12:59:59").is_some());
        assert!(p.match_line("Device:").is_none());
        assert!(p.match_line("1234").is_none());
    }

    #[test]
    fn wallclock_then_fields() {
        let p = Pattern::new(vec![Tok::wall("t"), Tok::Ws, Tok::cap("v")]);
        let caps = p.match_line("00:00:00.050000 42.5").unwrap();
        assert_eq!(caps[0].1, "00:00:00.050000");
        assert_eq!(caps[1].1, "42.5");
    }

    #[test]
    fn capture_names_listed() {
        let p = Pattern::new(vec![
            Tok::wall("t"),
            Tok::Ws,
            Tok::cap("a"),
            Tok::Ws,
            Tok::cap("b"),
        ]);
        assert_eq!(p.capture_names(), vec!["t", "a", "b"]);
    }

    #[test]
    fn suffix_tokens_match_rendered_suffix() {
        let mut toks = vec![Tok::lit("x")];
        toks.push(Tok::Ws);
        toks.extend(timestamp_suffix_tokens());
        let p = Pattern::new(toks);
        let caps = p
            .match_line("x ua=00:00:00.010000 ud=00:00:00.020000 ds=- dr=-")
            .unwrap();
        assert_eq!(caps.len(), 4);
        assert_eq!(caps[2], ("ds".to_string(), "-".to_string()));
    }

    #[test]
    fn validate_accepts_well_formed_patterns() {
        for p in [
            Pattern::new(vec![Tok::lit("ID="), Tok::cap("id")]),
            Pattern::new(vec![Tok::wall("t"), Tok::Ws, Tok::cap("v")]),
            Pattern::new(timestamp_suffix_tokens()),
        ] {
            assert!(p.issues().is_empty(), "{p} should be clean");
            p.validate().unwrap();
        }
    }

    #[test]
    fn empty_pattern_rejected() {
        let p = Pattern::new(vec![]);
        assert_eq!(p.issues()[0].0, "pattern-empty");
        assert!(matches!(
            p.validate(),
            Err(TransformError::BadPattern {
                rule: "pattern-empty",
                ..
            })
        ));
    }

    #[test]
    fn empty_tokens_rejected() {
        let p = Pattern::new(vec![Tok::lit(""), Tok::cap("x")]);
        assert_eq!(p.issues()[0].0, "pattern-empty-token");
        let p = Pattern::new(vec![Tok::cap("")]);
        assert_eq!(p.issues()[0].0, "pattern-empty-token");
    }

    #[test]
    fn adjacent_wildcards_rejected() {
        let p = Pattern::new(vec![Tok::cap("a"), Tok::cap("b")]);
        assert_eq!(p.issues()[0].0, "pattern-adjacent-wildcards");
        let p = Pattern::new(vec![Tok::lit("x"), Tok::wall("t"), Tok::cap("rest")]);
        assert_eq!(p.issues()[0].0, "pattern-adjacent-wildcards");
        // A delimiter between captures clears the ambiguity.
        let p = Pattern::new(vec![Tok::cap("a"), Tok::Ws, Tok::cap("b")]);
        assert!(p.issues().is_empty());
    }

    #[test]
    fn double_whitespace_rejected() {
        let p = Pattern::new(vec![Tok::lit("x"), Tok::Ws, Tok::Ws, Tok::cap("v")]);
        assert_eq!(p.issues()[0].0, "pattern-unreachable");
    }

    #[test]
    fn duplicate_capture_rejected() {
        let p = Pattern::new(vec![Tok::cap("id"), Tok::Ws, Tok::cap("id")]);
        assert_eq!(p.issues()[0].0, "pattern-duplicate-capture");
    }

    /// The matcher as it was first written — extend a capture one char at a
    /// time and re-run the whole tail at every end, no memo — kept as the
    /// oracle for the anchored, memoised one.
    fn match_bytewise(toks: &[Tok], line: &str, pos: usize, caps: &mut CaptureRanges) -> bool {
        let rest = &line[pos..];
        let Some((tok, tail_toks)) = toks.split_first() else {
            return rest.is_empty();
        };
        match tok {
            Tok::Lit(l) => {
                rest.starts_with(l.as_str()) && match_bytewise(tail_toks, line, pos + l.len(), caps)
            }
            Tok::Ws => {
                let trimmed = rest.trim_start();
                if trimmed.len() == rest.len() {
                    return false;
                }
                match_bytewise(tail_toks, line, pos + rest.len() - trimmed.len(), caps)
            }
            Tok::Cap(_) | Tok::Wall(_) => {
                let is_wall = matches!(tok, Tok::Wall(_));
                let mut end = 0usize;
                loop {
                    let candidate = &rest[..end];
                    if !candidate.is_empty() && (!is_wall || looks_like_wallclock(candidate)) {
                        caps.push(pos..pos + end);
                        if match_bytewise(tail_toks, line, pos + end, caps) {
                            return true;
                        }
                        caps.pop();
                    }
                    if end >= rest.len() {
                        return false;
                    }
                    end += rest[end..].chars().next().map_or(1, char::len_utf8);
                }
            }
        }
    }

    /// Pieces lines and literals are drawn from: pattern text, timestamps
    /// whole and partial, non-ASCII and Unicode whitespace.
    const PIECES: &[&str] = &[
        "a",
        "b",
        "=",
        "ID=",
        "*/",
        "ua=",
        " ",
        "  ",
        "\t",
        "\u{a0}",
        "\u{3000}",
        ":",
        ".",
        "1",
        "42",
        "00:00:01.500000",
        "12:59:59",
        "00:0",
        "1:2:",
        "00:00:07.",
        "é",
        "中",
        "🦀",
    ];

    #[test]
    fn anchored_matcher_agrees_with_the_bytewise_walk() {
        mscope_sim::prop::forall("anchored matcher = bytewise walk", 2000, |g| {
            // Unvalidated on purpose: adjacent captures, empty literals,
            // doubled whitespace and repeated names all occur.
            let toks = g.vec(0..=6, |g| match g.usize(0..=5) {
                0 => Tok::Ws,
                1 => Tok::cap("c"),
                2 => Tok::wall("w"),
                3 => Tok::lit(""),
                _ => Tok::lit(g.choose(PIECES)),
            });
            let p = Pattern::new(toks);
            let mut ranges = Vec::new();
            let mut failed = FailedStates::default();
            // One scratch across lines of different lengths, as the
            // drivers keep it.
            for _ in 0..4 {
                let line: String = g.vec(0..=7, |g| g.choose(PIECES)).concat();
                let got = p.match_ranges(&line, &mut ranges, &mut failed);
                let mut want_ranges = Vec::new();
                let want = match_bytewise(p.tokens(), &line, 0, &mut want_ranges);
                mscope_sim::prop_ensure!(
                    got == want && (!got || ranges == want_ranges),
                    "{p:?} on {line:?}: {got} {ranges:?} vs {want} {want_ranges:?}"
                );
                let bound = p.tokens().len() * (line.len() + 1);
                mscope_sim::prop_ensure!(failed.steps <= bound, "{} steps", failed.steps);
            }
            Ok(())
        });
    }

    #[test]
    fn repeated_anchors_cost_each_state_at_most_once() {
        // An Apache record line that ends in n `ud=` fields, then n `ds=`
        // fields and no `dr=`: the per-char walk retries every split of the
        // fields between the `ua`, `ud` and `ds` captures (cubic in n).
        let spec = crate::parsers::apache_event_spec();
        let p = &spec.records[0];
        let n = 2_100;
        let mut line = String::from(
            "127.0.0.1 - - [00:00:00.020000] \"GET /rubbos/ViewStory?ID=000000000003 \
             HTTP/1.1\" 200 1802 ua=00:00:00.010000",
        );
        line.push_str(&" ud=1".repeat(n));
        line.push_str(&" ds=1".repeat(n));
        line.push_str(" zz");
        assert!(line.len() >= 20_000);
        let mut ranges = Vec::new();
        let mut failed = FailedStates::default();
        assert!(!p.match_ranges(&line, &mut ranges, &mut failed));
        assert!(ranges.is_empty());
        let bound = p.tokens().len() * (line.len() + 1);
        assert!(
            failed.steps <= bound,
            "{} steps, bound {bound}",
            failed.steps
        );
        // The same line with its `dr=` still matches, lazily: `ud` and `ds`
        // take the shortest values that let the rest match.
        line.truncate(line.len() - " zz".len());
        line.push_str(" dr=-");
        assert!(p.match_ranges(&line, &mut ranges, &mut failed));
        let caps: Vec<_> = p.captures(&line, &ranges).collect();
        assert_eq!(caps[6], ("ua", "00:00:00.010000"));
        assert_eq!(caps[7].1.len(), "1".len() + (n - 1) * " ud=1".len());
        assert_eq!(caps[9], ("dr", "-"));
    }

    #[test]
    fn display_renders_template() {
        let p = Pattern::new(vec![
            Tok::lit("ID="),
            Tok::cap("id"),
            Tok::Ws,
            Tok::wall("t"),
        ]);
        assert_eq!(p.to_string(), "ID=<id> <t:wall>");
    }
}
