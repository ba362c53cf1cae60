//! Parsing declarations and their execution engine.
//!
//! The paper separates *what to parse* from *how to ingest it* (§III-B1):
//! mScopeDataTransformer "maintains a mapping between input log files and
//! their specific mScopeParser [… and] instructions for how the specified
//! mScopeParser should inject semantics into its input logs", supporting
//! both line-sequence instructions and string-token instructions.
//!
//! A [`ParsingDeclaration`] is that mapping entry: a file, a parser
//! ([`ParserKind`]), a destination table, and constant fields to inject
//! (node name, tier, …). Running a declaration over a file
//! (`for_each_entry`) yields its entries one at a time as borrowed
//! `(field, raw value)` pairs (`EntryFields`); that is what the drivers
//! load from. [`ParsingDeclaration::execute`] renders the same entries as
//! the annotated XML of §III-B2 — every log line wrapped in an `<entry>`
//! with semantic child tags — an export artifact, not a step of the load.

use crate::error::TransformError;
use crate::pattern::{CaptureRanges, FailedStates, Pattern, Tok};
use crate::xml::{self, XmlNode};
use mscope_db::{ColumnType, Value};
use std::ops::Range;

/// Cheap line classifiers used by filter stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineMatcher {
    /// Matches empty / whitespace-only lines.
    Blank,
    /// Matches lines starting with the prefix.
    Prefix(String),
    /// Matches lines containing the substring.
    Contains(String),
}
mscope_serdes::json_enum!(LineMatcher { Blank, Prefix(a), Contains(a) });

impl LineMatcher {
    /// Tests a line.
    pub fn matches(&self, line: &str) -> bool {
        match self {
            LineMatcher::Blank => line.trim().is_empty(),
            LineMatcher::Prefix(p) => line.starts_with(p.as_str()),
            LineMatcher::Contains(c) => line.contains(c.as_str()),
        }
    }
}

/// A staged, instruction-driven text parser.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserSpec {
    /// Human-readable parser name (e.g. `"SAR mScopeParser"`).
    pub name: String,
    /// Lines matching any of these are dropped before parsing (banners,
    /// repeated headers, blanks).
    pub filters: Vec<LineMatcher>,
    /// Patterns whose captures become sticky context merged into subsequent
    /// records (e.g. IOstat's standalone timestamp lines).
    pub context: Vec<Pattern>,
    /// Patterns that each produce one record per matching line.
    pub records: Vec<Pattern>,
    /// Line-sequence mode: blocks introduced by a marker line, with
    /// positional per-line patterns (`None` = skip that line).
    pub blocks: Option<BlockSpec>,
}
mscope_serdes::json_struct!(ParserSpec {
    name,
    filters,
    context,
    records,
    blocks
});

/// Line-sequence instructions: a marker pattern starts a block; the next
/// `lines.len()` lines are interpreted positionally.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Pattern recognizing (and capturing from) the block-start line.
    pub marker: Pattern,
    /// Positional patterns for the lines following the marker.
    pub lines: Vec<Option<Pattern>>,
}
mscope_serdes::json_struct!(BlockSpec { marker, lines });

/// Declarative mapping of an XML input to entries (the "direct XML" path a
/// modern SAR enables — paper §III-B2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlMapping {
    /// Element name that delimits one entry (e.g. `"timestamp"`).
    pub entry_element: String,
    /// `(attribute, field)` pairs read off the entry element itself.
    pub entry_attrs: Vec<(String, String)>,
    /// `(descendant element, attribute, field)` pairs read from within the
    /// entry.
    pub leaf_attrs: Vec<(String, String, String)>,
}
mscope_serdes::json_struct!(XmlMapping {
    entry_element,
    entry_attrs,
    leaf_attrs
});

/// How a file is parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum ParserKind {
    /// Multi-stage text parsing.
    Staged(ParserSpec),
    /// Direct XML mapping.
    XmlDirect(XmlMapping),
}
mscope_serdes::json_enum!(ParserKind { Staged(a), XmlDirect(a) });

/// One entry of the file → parser mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsingDeclaration {
    /// Path of the log file in the [`LogStore`](mscope_monitors::LogStore).
    pub path: String,
    /// Monitor that produced the file.
    pub monitor_id: String,
    /// Parser to apply.
    pub parser: ParserKind,
    /// Destination mScopeDB table.
    pub table: String,
    /// Constant `(field, value)` pairs injected into every entry (node
    /// name, tier index, …) — semantics the log itself does not carry.
    pub constants: Vec<(String, String)>,
}
mscope_serdes::json_struct!(ParsingDeclaration {
    path,
    monitor_id,
    parser,
    table,
    constants
});

/// One owned `(field, raw value)` pair: a declared constant, or a capture
/// that has to outlive its line.
pub(crate) type Field = (String, String);

/// One entry's fields, all borrowed: the declaration's constants, then the
/// pairs the engine holds (a record's sticky context, a block's lines, an
/// XML entry's attributes), then a record line's own captures — names from
/// its pattern, values slices of the line. [`EntryFields::iter`] is the
/// one place an entry's field order is decided.
pub(crate) struct EntryFields<'a> {
    constants: &'a [Field],
    held: &'a [Field],
    captured: Option<(&'a Pattern, &'a str, &'a [Range<usize>])>,
}

impl<'a> EntryFields<'a> {
    /// How many fields the entry has — what a collector reserves.
    pub(crate) fn len(&self) -> usize {
        let captured = self.captured.map_or(0, |(_, _, ranges)| ranges.len());
        self.constants.len() + self.held.len() + captured
    }

    /// The `(field, raw value)` pairs in their canonical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        let owned = self.constants.iter().chain(self.held);
        let captured = self.captured.iter();
        owned
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(captured.flat_map(|&(pat, line, ranges)| pat.captures(line, ranges)))
    }
}

/// What the staged engine carries from one line to the next: the 1-based
/// number of the last line seen, the sticky context, the open block
/// (`(captures so far, next positional line)`), and the matcher's scratch
/// for the line in hand — its capture ranges and failed states, reused so a
/// line allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct StagedState {
    line_no: usize,
    ctx: Vec<Field>,
    block: Option<(Vec<Field>, usize)>,
    ranges: CaptureRanges,
    failed: FailedStates,
}

/// Copies a borrowed pair that has to outlive its line: a block or context
/// line's capture. A record line's never are, and no driver copies an
/// entry: both append its text to a columnar sink while it is borrowed.
pub(crate) fn own((field, raw): (&str, &str)) -> Field {
    (field.to_string(), raw.to_string())
}

/// The XML rendering of one entry: an `<entry>` with one child per field.
fn entry_node(fields: &EntryFields<'_>) -> XmlNode {
    let mut entry = XmlNode::new("entry");
    entry.children.reserve(fields.len());
    entry
        .children
        .extend(fields.iter().map(|(k, v)| XmlNode::new(k).with_text(v)));
    entry
}

impl ParsingDeclaration {
    /// Executes the declaration over file contents, producing the annotated
    /// `<log>` document: the interchange artifact of the paper's Fig. 3, on
    /// demand. Nothing on the load path builds it.
    ///
    /// # Errors
    ///
    /// [`TransformError::UnparsedLine`] when a surviving line matches no
    /// instruction (format drift is an error, not silence); XML errors for
    /// the direct path.
    pub fn execute(&self, content: &str) -> Result<XmlNode, TransformError> {
        // Upper bound for a staged log: one entry per line. Record-style
        // logs (the common case) sit near it; block logs over-reserve by
        // the block length.
        let lines = match &self.parser {
            ParserKind::Staged(_) => content.lines().count(),
            ParserKind::XmlDirect(_) => 0,
        };
        let mut entries = Vec::with_capacity(lines);
        self.for_each_entry(content, &mut |fields| {
            entries.push(entry_node(&fields));
            Ok(())
        })?;
        let mut root = XmlNode::new("log")
            .attr("source", &self.path)
            .attr("monitor", &self.monitor_id)
            .attr("table", &self.table);
        root.children = entries;
        Ok(root)
    }

    /// Every entry of a finished file, in file order, through `emit` —
    /// what the batch driver feeds its sink and what `execute` wraps in
    /// XML. The first error, from the ladder or from `emit`, ends the walk.
    ///
    /// # Errors
    ///
    /// As [`ParsingDeclaration::execute`], plus whatever `emit` returns.
    pub(crate) fn for_each_entry(
        &self,
        content: &str,
        emit: &mut impl FnMut(EntryFields<'_>) -> Result<(), TransformError>,
    ) -> Result<(), TransformError> {
        match &self.parser {
            ParserKind::Staged(spec) => {
                // An open block at end of input is dropped, mirroring a
                // tool killed mid-record.
                let mut st = StagedState::default();
                for line in content.lines() {
                    self.staged_line(spec, &mut st, line, emit)?;
                }
            }
            ParserKind::XmlDirect(map) => {
                let doc = xml::parse(content).map_err(TransformError::Xml)?;
                for el in doc.find_all(&map.entry_element) {
                    self.xml_entry(map, el, emit)?;
                }
            }
        }
        Ok(())
    }

    /// One line through the staged ladder — filters → block → context →
    /// records → unparsed — calling `emit` for the entry the line
    /// completes, if it completes one. Batch feeds it `str::lines`;
    /// streaming feeds it each complete line as it arrives.
    ///
    /// # Errors
    ///
    /// [`TransformError::UnparsedLine`] when the line survives the filters
    /// and matches no instruction; otherwise what `emit` returns.
    pub(crate) fn staged_line(
        &self,
        spec: &ParserSpec,
        st: &mut StagedState,
        line: &str,
        emit: &mut impl FnMut(EntryFields<'_>) -> Result<(), TransformError>,
    ) -> Result<(), TransformError> {
        st.line_no += 1;
        let unparsed = |line_no| TransformError::UnparsedLine {
            file: self.path.clone(),
            line_no,
            line: line.to_string(),
        };
        if spec.filters.iter().any(|f| f.matches(line)) {
            return Ok(());
        }
        if let Some(bs) = &spec.blocks {
            if bs.marker.match_ranges(line, &mut st.ranges, &mut st.failed) {
                // A new block begins. Flushing an incomplete previous one
                // would hide truncation, so it is dropped.
                let held = bs.marker.captures(line, &st.ranges).map(own).collect();
                st.block = Some((held, 0));
                return Ok(());
            }
            if let Some((fields, idx)) = &mut st.block {
                let slot = bs.lines.get(*idx).ok_or_else(|| unparsed(st.line_no))?;
                if let Some(pat) = slot {
                    if !pat.match_ranges(line, &mut st.ranges, &mut st.failed) {
                        return Err(unparsed(st.line_no));
                    }
                    fields.extend(pat.captures(line, &st.ranges).map(own));
                }
                *idx += 1;
                if *idx < bs.lines.len() {
                    return Ok(());
                }
                let emitted = emit(EntryFields {
                    constants: &self.constants,
                    held: fields,
                    captured: None,
                });
                st.block = None;
                return emitted;
            }
        }
        for pat in &spec.context {
            if pat.match_ranges(line, &mut st.ranges, &mut st.failed) {
                for (k, v) in pat.captures(line, &st.ranges) {
                    st.ctx.retain(|(ck, _)| ck != k);
                    st.ctx.push(own((k, v)));
                }
                return Ok(());
            }
        }
        for pat in &spec.records {
            if pat.match_ranges(line, &mut st.ranges, &mut st.failed) {
                return emit(EntryFields {
                    constants: &self.constants,
                    held: &st.ctx,
                    captured: Some((pat, line, &st.ranges)),
                });
            }
        }
        Err(unparsed(st.line_no))
    }

    /// Maps one parsed entry element of the direct-XML path to its fields —
    /// the entry element's own attributes, then one attribute each from the
    /// first matching descendant — and hands the entry to `emit`.
    ///
    /// # Errors
    ///
    /// What `emit` returns.
    pub(crate) fn xml_entry(
        &self,
        map: &XmlMapping,
        el: &XmlNode,
        emit: &mut impl FnMut(EntryFields<'_>) -> Result<(), TransformError>,
    ) -> Result<(), TransformError> {
        let mut fields = Vec::with_capacity(map.entry_attrs.len() + map.leaf_attrs.len());
        for (attr, field) in &map.entry_attrs {
            if let Some(v) = el.get_attr(attr) {
                // perf: extracted fields own their values — one pair per
                // matched attribute.
                fields.push((field.clone(), v.to_string()));
            }
        }
        for (elem, attr, field) in &map.leaf_attrs {
            if let Some(v) = el.find_all(elem).first().and_then(|l| l.get_attr(attr)) {
                // perf: extracted fields own their values — one pair per
                // matched attribute.
                fields.push((field.clone(), v.to_string()));
            }
        }
        emit(EntryFields {
            constants: &self.constants,
            held: &fields,
            captured: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Static validation — the declaration front of `mscope-lint`.
// ---------------------------------------------------------------------------

/// Severity of a statically detected declaration issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory: legal but suspicious.
    Warn,
    /// Broken: the pipeline refuses to run the declaration.
    Deny,
}

/// One statically detected problem in a declaration set, found by [`check`].
#[derive(Debug, Clone)]
pub struct DeclIssue {
    /// Rule identifier (e.g. `decl-missing-request-id`), stable for
    /// allowlisting; see DESIGN.md §Static analysis.
    pub rule: &'static str,
    /// Whether the issue blocks execution.
    pub severity: Severity,
    /// The declaration (``path` → table`) at fault.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

/// The statically knowable column set of a declaration: constants first
/// (the order every entry lists them), then
/// pattern captures or XML fields. Constants and wall-clock captures carry
/// a concrete type; plain captures and XML attributes are
/// [`ColumnType::Null`] — "no value seen yet", the bottom of the inference
/// lattice, meaning the type is unknown until runtime.
pub fn declared_columns(decl: &ParsingDeclaration) -> Vec<(String, ColumnType)> {
    let mut cols: Vec<(String, ColumnType)> = Vec::new();
    let push = |cols: &mut Vec<(String, ColumnType)>, name: &str, ty: ColumnType| {
        if !cols.iter().any(|(n, _)| n == name) {
            cols.push((name.to_string(), ty));
        }
    };
    for (k, v) in &decl.constants {
        // Mirror the schema fold: a column that only ever infers Null is
        // given type Text.
        let ty = match Value::infer_type(v) {
            ColumnType::Null => ColumnType::Text,
            t => t,
        };
        push(&mut cols, k, ty);
    }
    let add_pattern = |cols: &mut Vec<(String, ColumnType)>, p: &Pattern| {
        for t in p.tokens() {
            match t {
                Tok::Wall(n) => push(cols, n, ColumnType::Timestamp),
                Tok::Cap(n) => push(cols, n, ColumnType::Null),
                _ => {}
            }
        }
    };
    match &decl.parser {
        ParserKind::Staged(spec) => {
            for p in spec.context.iter().chain(&spec.records) {
                add_pattern(&mut cols, p);
            }
            if let Some(bs) = &spec.blocks {
                add_pattern(&mut cols, &bs.marker);
                for p in bs.lines.iter().flatten() {
                    add_pattern(&mut cols, p);
                }
            }
        }
        ParserKind::XmlDirect(map) => {
            for (_, field) in &map.entry_attrs {
                push(&mut cols, field, ColumnType::Null);
            }
            for (_, _, field) in &map.leaf_attrs {
                push(&mut cols, field, ColumnType::Null);
            }
        }
    }
    cols
}

/// The wall-clock-anchored fields of a declaration: captures produced by
/// [`Tok::Wall`] tokens (typed [`ColumnType::Timestamp`] statically) plus,
/// for direct-XML declarations, fields the importer will infer as
/// timestamps from `HH:MM:SS.ffffff` attribute values. Used by the lint
/// trace front's clock-domain check: a declaration with no wall-anchored
/// field produces rows that cannot be aligned with any other monitor.
pub fn wall_fields(decl: &ParsingDeclaration) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |n: &str| {
        if !out.iter().any(|x| x == n) {
            out.push(n.to_string());
        }
    };
    match &decl.parser {
        ParserKind::Staged(spec) => {
            let pats = spec
                .context
                .iter()
                .chain(&spec.records)
                .chain(spec.blocks.iter().map(|b| &b.marker))
                .chain(spec.blocks.iter().flat_map(|b| b.lines.iter().flatten()));
            for p in pats {
                for t in p.tokens() {
                    if let Tok::Wall(n) = t {
                        push(n);
                    }
                }
            }
        }
        ParserKind::XmlDirect(map) => {
            // The XML path carries no static types; by convention the
            // entry element's captured attributes hold the wall clock
            // (sar's `<timestamp time="…">`). Report those so the trace
            // front can check the convention held.
            for (attr, field) in &map.entry_attrs {
                if attr == "time" || attr == "timestamp" {
                    push(field);
                }
            }
        }
    }
    out
}

/// Statically checks a declaration set. Per declaration: every pattern is
/// run through [`Pattern::issues`]; field sets that would collide in one
/// entry (`decl-duplicate-field`), rules that can never fire
/// (`decl-unreachable-rule`), empty field/element names
/// (`decl-empty-field`), and event tables that cannot carry the fixed-width
/// request ID needed for cross-tier joins (`decl-missing-request-id`) are
/// denied. Across declarations feeding one table, fields whose
/// narrowest-type lattice join degenerates to text are flagged
/// (`schema-conflict`).
pub fn check(decls: &[ParsingDeclaration]) -> Vec<DeclIssue> {
    let mut out = Vec::new();
    for d in decls {
        check_declaration(d, &mut out);
    }
    check_schema_conflicts(decls, &mut out);
    out
}

/// [`check`] as a hard gate: `Err` with the first deny-level issue as a
/// typed [`TransformError::BadDeclaration`]. Warn-level issues pass.
///
/// # Errors
///
/// [`TransformError::BadDeclaration`] naming the rule, declaration, and
/// reason.
pub fn validate(decls: &[ParsingDeclaration]) -> Result<(), TransformError> {
    for i in check(decls) {
        if i.severity == Severity::Deny {
            return Err(TransformError::BadDeclaration {
                rule: i.rule,
                subject: i.subject,
                reason: i.message,
            });
        }
    }
    Ok(())
}

fn subject_of(d: &ParsingDeclaration) -> String {
    format!("`{}` → {}", d.path, d.table)
}

fn deny(out: &mut Vec<DeclIssue>, rule: &'static str, subject: &str, message: String) {
    out.push(DeclIssue {
        rule,
        severity: Severity::Deny,
        subject: subject.to_string(),
        message,
    });
}

fn check_declaration(d: &ParsingDeclaration, out: &mut Vec<DeclIssue>) {
    let subj = subject_of(d);
    for (i, (k, _)) in d.constants.iter().enumerate() {
        if k.is_empty() {
            deny(
                out,
                "decl-empty-field",
                &subj,
                // perf: validation-time diagnostic — once per declaration.
                "constant with an empty field name".to_string(),
            );
        }
        if d.constants[..i].iter().any(|(prev, _)| prev == k) {
            deny(
                out,
                "decl-duplicate-field",
                &subj,
                // perf: validation-time diagnostic — once per declaration.
                format!("constant field `{k}` is declared twice"),
            );
        }
    }
    match &d.parser {
        ParserKind::Staged(spec) => check_staged(spec, d, &subj, out),
        ParserKind::XmlDirect(map) => check_xml(map, d, &subj, out),
    }
    if d.table.starts_with("event_") && !declared_columns(d).iter().any(|(n, _)| n == "request_id")
    {
        deny(
            out,
            "decl-missing-request-id",
            &subj,
            "event-log declaration captures no `request_id`; its rows cannot join across tiers"
                .to_string(),
        );
    }
}

fn check_staged(spec: &ParserSpec, d: &ParsingDeclaration, subj: &str, out: &mut Vec<DeclIssue>) {
    let n_block = spec.blocks.as_ref().map_or(0, |bs| 1 + bs.lines.len());
    let mut patterns: Vec<(String, &Pattern)> =
        Vec::with_capacity(spec.context.len() + spec.records.len() + n_block);
    for (i, p) in spec.context.iter().enumerate() {
        // perf: role labels for diagnostics — a handful per declaration.
        patterns.push((format!("context[{i}]"), p));
    }
    for (i, p) in spec.records.iter().enumerate() {
        // perf: role labels for diagnostics — a handful per declaration.
        patterns.push((format!("record[{i}]"), p));
    }
    if let Some(bs) = &spec.blocks {
        patterns.push(("block marker".to_string(), &bs.marker));
        for (i, p) in bs.lines.iter().enumerate() {
            if let Some(p) = p {
                // perf: role labels for diagnostics — a handful per declaration.
                patterns.push((format!("block line[{i}]"), p));
            }
        }
        if bs.lines.is_empty() {
            deny(
                out,
                "decl-unreachable-rule",
                subj,
                "block spec has no positional lines; every line after a marker is unparsable"
                    .to_string(),
            );
        }
    }

    let consts: Vec<&str> = d.constants.iter().map(|(k, _)| k.as_str()).collect();
    for (role, p) in &patterns {
        for (rule, msg) in p.issues() {
            // perf: validation-time diagnostic — once per declaration.
            deny(out, rule, subj, format!("{role} pattern `{p}`: {msg}"));
        }
        for n in p.capture_names() {
            if consts.contains(&n) {
                deny(
                    out,
                    "decl-duplicate-field",
                    subj,
                    // perf: validation-time diagnostic — once per declaration.
                    format!("{role} pattern `{p}` re-captures constant field `{n}`"),
                );
            }
        }
        // A rule whose lines the filter stage always drops can never fire:
        // a prefix filter covering the pattern's leading literal, or a
        // contains filter matching any literal the pattern requires.
        for f in &spec.filters {
            let shadowed = match f {
                LineMatcher::Prefix(pf) => matches!(
                    p.tokens().first(),
                    Some(Tok::Lit(l)) if l.starts_with(pf.as_str())
                ),
                LineMatcher::Contains(c) => p
                    .tokens()
                    .iter()
                    .any(|t| matches!(t, Tok::Lit(l) if l.contains(c.as_str()))),
                LineMatcher::Blank => false,
            };
            if shadowed {
                deny(
                    out,
                    "decl-unreachable-rule",
                    subj,
                    // perf: validation-time diagnostic — once per declaration.
                    format!("{role} pattern `{p}` only matches lines the filter {f:?} drops"),
                );
            }
        }
    }

    // Record-entry field collisions: entry = constants + sticky context +
    // record captures (constants are checked above).
    let ctx_caps: Vec<&str> = spec
        .context
        .iter()
        .flat_map(Pattern::capture_names)
        .collect();
    for (i, p) in spec.records.iter().enumerate() {
        for n in p.capture_names() {
            if ctx_caps.contains(&n) {
                deny(
                    out,
                    "decl-duplicate-field",
                    subj,
                    // perf: validation-time diagnostic — once per declaration.
                    format!("record[{i}] capture `{n}` collides with a context capture"),
                );
            }
        }
        if spec.records[..i].contains(p) {
            deny(
                out,
                "decl-unreachable-rule",
                subj,
                // perf: validation-time diagnostic — once per declaration.
                format!("record[{i}] `{p}` duplicates an earlier record rule"),
            );
        }
        if spec.context.contains(p) {
            deny(
                out,
                "decl-unreachable-rule",
                subj,
                // perf: validation-time diagnostic — once per declaration.
                format!(
                    "record[{i}] `{p}` is identical to a context pattern, which is tried first"
                ),
            );
        }
    }

    // Block-entry field collisions: entry = constants + marker + line caps.
    if let Some(bs) = &spec.blocks {
        let mut seen: Vec<&str> = Vec::new();
        let block_pats = std::iter::once(&bs.marker).chain(bs.lines.iter().flatten());
        for p in block_pats {
            for n in p.capture_names() {
                if seen.contains(&n) {
                    deny(
                        out,
                        "decl-duplicate-field",
                        subj,
                        // perf: validation-time diagnostic — once per declaration.
                        format!("block captures field `{n}` on more than one line"),
                    );
                }
                seen.push(n);
            }
        }
    }
}

fn check_xml(map: &XmlMapping, d: &ParsingDeclaration, subj: &str, out: &mut Vec<DeclIssue>) {
    if map.entry_element.is_empty() {
        deny(
            out,
            "decl-unreachable-rule",
            subj,
            "empty entry element name selects no entries".to_string(),
        );
    }
    let mut fields: Vec<&str> = d.constants.iter().map(|(k, _)| k.as_str()).collect();
    let named = map
        .entry_attrs
        .iter()
        .map(|(a, f)| (a.as_str(), f.as_str()))
        .chain(map.leaf_attrs.iter().map(|(e, a, f)| {
            if e.is_empty() {
                deny(
                    out,
                    "decl-empty-field",
                    subj,
                    format!("leaf mapping for field `{f}` names an empty element"),
                );
            }
            (a.as_str(), f.as_str())
        }))
        .collect::<Vec<_>>();
    for (attr, field) in named {
        if attr.is_empty() || field.is_empty() {
            deny(
                out,
                "decl-empty-field",
                subj,
                // perf: validation-time diagnostic — once per declaration.
                format!("XML mapping with empty attribute or field name (attr `{attr}`, field `{field}`)"),
            );
        }
        if fields.contains(&field) {
            deny(
                out,
                "decl-duplicate-field",
                subj,
                // perf: validation-time diagnostic — once per declaration.
                format!("XML mapping writes field `{field}` more than once per entry"),
            );
        }
        fields.push(field);
    }
}

/// Cross-declaration pass: two declarations feeding the same table must
/// agree on column types, or schema inference silently widens the column.
/// A join that degenerates to [`ColumnType::Text`] from non-text
/// contributors (e.g. one declaration's timestamp vs another's integer)
/// loses the numeric semantics every downstream query assumes.
/// Per-field fold state: name, join of known types, first contributor.
type FieldJoins = Vec<(String, ColumnType, String)>;

fn check_schema_conflicts(decls: &[ParsingDeclaration], out: &mut Vec<DeclIssue>) {
    let mut tables: Vec<(&str, FieldJoins)> = Vec::new();
    for d in decls {
        let cols = declared_columns(d);
        let idx = match tables.iter().position(|(t, _)| *t == d.table) {
            Some(i) => i,
            None => {
                tables.push((d.table.as_str(), Vec::new()));
                tables.len() - 1
            }
        };
        let entry = &mut tables[idx].1;
        for (name, ty) in cols {
            if ty == ColumnType::Null {
                continue; // unknown until runtime; nothing to conflict with
            }
            match entry.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, prev, first_subj)) => {
                    let joined = prev.unify(ty);
                    if prev.lossy_join(ty) {
                        out.push(DeclIssue {
                            rule: "schema-conflict",
                            severity: Severity::Deny,
                            subject: subject_of(d),
                            // perf: validation-time diagnostic — once per set.
                            message: format!(
                                "column `{}`.`{name}` is {ty} here but {prev} in {first_subj}; the lattice join degenerates to text",
                                d.table
                            ),
                        });
                    }
                    *prev = joined;
                }
                None => entry.push((name, ty, subject_of(d))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Tok;

    fn decl(parser: ParserKind) -> ParsingDeclaration {
        ParsingDeclaration {
            path: "test.log".into(),
            monitor_id: "m1".into(),
            parser,
            table: "t".into(),
            constants: vec![("node".into(), "apache0".into())],
        }
    }

    #[test]
    fn records_mode_with_filters() {
        let spec = ParserSpec {
            name: "test".into(),
            filters: vec![LineMatcher::Prefix("#".into()), LineMatcher::Blank],
            context: vec![],
            records: vec![Pattern::new(vec![
                Tok::cap("key"),
                Tok::lit("="),
                Tok::cap("val"),
            ])],
            blocks: None,
        };
        let doc = decl(ParserKind::Staged(spec))
            .execute("# header\n\na=1\nb=2\n")
            .unwrap();
        assert_eq!(doc.children.len(), 2);
        let e = &doc.children[0];
        assert_eq!(e.find("node").unwrap().text, "apache0", "constant injected");
        assert_eq!(e.find("key").unwrap().text, "a");
        assert_eq!(e.find("val").unwrap().text, "1");
        assert_eq!(doc.get_attr("table"), Some("t"));
    }

    #[test]
    fn unparsed_line_is_an_error() {
        let spec = ParserSpec {
            name: "strict".into(),
            filters: vec![],
            context: vec![],
            records: vec![Pattern::new(vec![Tok::lit("ok")])],
            blocks: None,
        };
        let err = decl(ParserKind::Staged(spec))
            .execute("ok\nBAD LINE\n")
            .unwrap_err();
        match err {
            TransformError::UnparsedLine { line_no, line, .. } => {
                assert_eq!(line_no, 2);
                assert_eq!(line, "BAD LINE");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn context_sticks_until_replaced() {
        let spec = ParserSpec {
            name: "ctx".into(),
            filters: vec![],
            context: vec![Pattern::new(vec![Tok::wall("time")])],
            records: vec![Pattern::new(vec![Tok::lit("v="), Tok::cap("v")])],
            blocks: None,
        };
        let doc = decl(ParserKind::Staged(spec))
            .execute("00:00:01.000000\nv=1\nv=2\n00:00:02.000000\nv=3\n")
            .unwrap();
        assert_eq!(doc.children.len(), 3);
        assert_eq!(
            doc.children[1].find("time").unwrap().text,
            "00:00:01.000000"
        );
        assert_eq!(
            doc.children[2].find("time").unwrap().text,
            "00:00:02.000000"
        );
    }

    #[test]
    fn block_mode_positional_lines() {
        let spec = ParserSpec {
            name: "blocks".into(),
            filters: vec![],
            context: vec![],
            records: vec![],
            blocks: Some(BlockSpec {
                marker: Pattern::new(vec![Tok::lit("=== "), Tok::cap("rec"), Tok::lit(" ===")]),
                lines: vec![
                    None,
                    Some(Pattern::new(vec![Tok::cap("a"), Tok::Ws, Tok::cap("b")])),
                ],
            }),
        };
        let doc = decl(ParserKind::Staged(spec))
            .execute("=== 1 ===\nheader junk\n10 20\n=== 2 ===\nheader junk\n30 40\n")
            .unwrap();
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.children[0].find("a").unwrap().text, "10");
        assert_eq!(doc.children[1].find("b").unwrap().text, "40");
        assert_eq!(doc.children[0].find("rec").unwrap().text, "1");
    }

    #[test]
    fn incomplete_trailing_block_dropped() {
        let spec = ParserSpec {
            name: "blocks".into(),
            filters: vec![],
            context: vec![],
            records: vec![],
            blocks: Some(BlockSpec {
                marker: Pattern::new(vec![Tok::lit("M")]),
                lines: vec![Some(Pattern::new(vec![Tok::cap("x")]))],
            }),
        };
        let doc = decl(ParserKind::Staged(spec)).execute("M\n1\nM\n").unwrap();
        assert_eq!(doc.children.len(), 1, "truncated final block is dropped");
    }

    #[test]
    fn xml_direct_mapping() {
        let map = XmlMapping {
            entry_element: "timestamp".into(),
            entry_attrs: vec![("time".into(), "time".into())],
            leaf_attrs: vec![("cpu".into(), "user".into(), "cpu_user".into())],
        };
        let xml_in = "<sysstat><host><statistics>\
            <timestamp time=\"00:00:01.000000\"><cpu-load><cpu number=\"all\" user=\"12.5\"/></cpu-load></timestamp>\
            <timestamp time=\"00:00:02.000000\"><cpu-load><cpu number=\"all\" user=\"14.0\"/></cpu-load></timestamp>\
            </statistics></host></sysstat>";
        let doc = decl(ParserKind::XmlDirect(map)).execute(xml_in).unwrap();
        assert_eq!(doc.children.len(), 2);
        assert_eq!(
            doc.children[0].find("time").unwrap().text,
            "00:00:01.000000"
        );
        assert_eq!(doc.children[1].find("cpu_user").unwrap().text, "14.0");
    }

    #[test]
    fn xml_direct_rejects_bad_xml() {
        let map = XmlMapping {
            entry_element: "t".into(),
            entry_attrs: vec![],
            leaf_attrs: vec![],
        };
        assert!(matches!(
            decl(ParserKind::XmlDirect(map)).execute("<broken"),
            Err(TransformError::Xml(_))
        ));
    }

    // --- static validation -------------------------------------------------

    fn record_decl(records: Vec<Pattern>) -> ParsingDeclaration {
        decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![],
            records,
            blocks: None,
        }))
    }

    fn rules_of(issues: &[DeclIssue]) -> Vec<&'static str> {
        issues.iter().map(|i| i.rule).collect()
    }

    #[test]
    fn clean_declaration_validates() {
        let d = record_decl(vec![Pattern::new(vec![Tok::lit("v="), Tok::cap("v")])]);
        assert!(check(std::slice::from_ref(&d)).is_empty());
        validate(&[d]).unwrap();
    }

    #[test]
    fn pattern_issues_surface_through_check() {
        let d = record_decl(vec![Pattern::new(vec![Tok::cap("a"), Tok::cap("b")])]);
        let issues = check(std::slice::from_ref(&d));
        assert_eq!(rules_of(&issues), vec!["pattern-adjacent-wildcards"]);
        assert!(matches!(
            validate(&[d]),
            Err(TransformError::BadDeclaration {
                rule: "pattern-adjacent-wildcards",
                ..
            })
        ));
    }

    #[test]
    fn capture_colliding_with_constant_denied() {
        // `node` is injected as a constant by `decl()`.
        let d = record_decl(vec![Pattern::new(vec![Tok::lit("n="), Tok::cap("node")])]);
        assert!(rules_of(&check(&[d])).contains(&"decl-duplicate-field"));
    }

    #[test]
    fn record_colliding_with_context_capture_denied() {
        let d = decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![Pattern::new(vec![Tok::wall("time")])],
            records: vec![Pattern::new(vec![Tok::lit("t="), Tok::cap("time")])],
            blocks: None,
        }));
        assert!(rules_of(&check(&[d])).contains(&"decl-duplicate-field"));
    }

    #[test]
    fn duplicate_record_rule_unreachable() {
        let p = Pattern::new(vec![Tok::lit("v="), Tok::cap("v")]);
        let d = record_decl(vec![p.clone(), p]);
        assert!(rules_of(&check(&[d])).contains(&"decl-unreachable-rule"));
    }

    #[test]
    fn filter_shadowed_rule_unreachable() {
        let d = decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![LineMatcher::Prefix("#".into())],
            context: vec![],
            records: vec![Pattern::new(vec![Tok::lit("# v="), Tok::cap("v")])],
            blocks: None,
        }));
        assert!(rules_of(&check(&[d])).contains(&"decl-unreachable-rule"));
    }

    #[test]
    fn empty_block_unreachable() {
        let d = decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![],
            records: vec![],
            blocks: Some(BlockSpec {
                marker: Pattern::new(vec![Tok::lit("M")]),
                lines: vec![],
            }),
        }));
        assert!(rules_of(&check(&[d])).contains(&"decl-unreachable-rule"));
    }

    #[test]
    fn block_capturing_field_twice_denied() {
        let d = decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![],
            records: vec![],
            blocks: Some(BlockSpec {
                marker: Pattern::new(vec![Tok::lit("M "), Tok::cap("x")]),
                lines: vec![Some(Pattern::new(vec![Tok::lit("x="), Tok::cap("x")]))],
            }),
        }));
        assert!(rules_of(&check(&[d])).contains(&"decl-duplicate-field"));
    }

    #[test]
    fn event_table_without_request_id_denied() {
        let mut d = record_decl(vec![Pattern::new(vec![Tok::lit("v="), Tok::cap("v")])]);
        d.table = "event_apache".into();
        assert_eq!(
            rules_of(&check(&[d.clone()])),
            vec!["decl-missing-request-id"]
        );
        d.parser = ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![],
            records: vec![Pattern::new(vec![Tok::lit("id="), Tok::cap("request_id")])],
            blocks: None,
        });
        assert!(
            check(&[d]).is_empty(),
            "request_id capture satisfies the rule"
        );
    }

    #[test]
    fn xml_mapping_duplicate_and_empty_fields_denied() {
        let d = decl(ParserKind::XmlDirect(XmlMapping {
            entry_element: "ts".into(),
            entry_attrs: vec![("time".into(), "t".into()), ("t2".into(), "t".into())],
            leaf_attrs: vec![("cpu".into(), "".into(), "u".into())],
        }));
        let rules = rules_of(&check(&[d]));
        assert!(rules.contains(&"decl-duplicate-field"));
        assert!(rules.contains(&"decl-empty-field"));
    }

    #[test]
    fn cross_declaration_type_conflict_flagged() {
        // Same table, same field name: one declaration captures it as a
        // wall-clock timestamp, the other injects an integer constant.
        let a = record_decl(vec![Pattern::new(vec![Tok::wall("when")])]);
        let mut b = record_decl(vec![Pattern::new(vec![Tok::lit("v="), Tok::cap("v")])]);
        b.path = "other.log".into();
        b.constants = vec![("when".into(), "7".into())];
        let issues = check(&[a, b]);
        assert_eq!(rules_of(&issues), vec!["schema-conflict"]);
        assert!(issues[0].message.contains("degenerates to text"));
    }

    #[test]
    fn declared_columns_types() {
        let mut d = decl(ParserKind::Staged(ParserSpec {
            name: "t".into(),
            filters: vec![],
            context: vec![],
            records: vec![Pattern::new(vec![
                Tok::wall("time"),
                Tok::Ws,
                Tok::cap("val"),
            ])],
            blocks: None,
        }));
        d.constants = vec![("tier".into(), "2".into()), ("node".into(), "a0".into())];
        let cols = declared_columns(&d);
        assert_eq!(
            cols,
            vec![
                ("tier".to_string(), ColumnType::Int),
                ("node".to_string(), ColumnType::Text),
                ("time".to_string(), ColumnType::Timestamp),
                ("val".to_string(), ColumnType::Null),
            ]
        );
    }
}
