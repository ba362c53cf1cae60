//! Streaming ingestion — the transformer's half of the spine.
//!
//! The batch pipeline ([`DataTransformer::run`]) needs every log file
//! complete before it starts. [`StreamingTransformer`] is the incremental
//! driver of the *same rules*: it tails the declared files of a growing
//! [`LogStore`], pushes exactly the complete new lines / XML entries
//! through the shared core each [`poll`](StreamingTransformer::poll), and
//! appends typed columns to the warehouse via [`Database::insert_columns`]
//! as they arrive, so the warehouse is queryable mid-run.
//!
//! What a line or an entry element *means* is not decided here. The staged
//! ladder and the XML entry mapper are
//! [`ParsingDeclaration::staged_line`] / [`ParsingDeclaration::xml_entry`],
//! schema inference, the raw cells waiting for their type and the typing
//! itself are the columnar sink batch fills too ([`RawColumns`]), and the
//! `monitors` / `log_files` registration is [`register_metadata`]. This
//! module owns only what batch has no counterpart for:
//!
//! * **Tailing.** A consumed-byte offset per declaration; a staged file
//!   advances by complete lines, an XML-direct file by complete
//!   `<entry…>…</entry>` spans extracted from the unconsumed suffix and
//!   parsed as standalone fragments. Each poll parses a file's new entries
//!   into a sink of its own and appends that to its table's, in
//!   declaration order at any worker count.
//! * **Raw retention.** Batch inference sees all values before choosing
//!   column types; streaming commits rows under the *running* join and may
//!   later learn it was too narrow (a column of all-digit hex request IDs
//!   infers `Int` until the first ID with a letter arrives). So the
//!   table's sink is not dropped at a flush: a column below `Text` keeps
//!   the raw text of its committed rows (the digits of a number and an
//!   offset — less than a typed cell), and a column that reaches `Text` —
//!   the top of the lattice, where the long strings are — lets it go at
//!   every flush.
//! * **Migration by rebuild.** When a chunk widens a column's type (or
//!   introduces a column), the committed prefix is rebuilt under the new
//!   schema — unchanged columns copied, changed and new ones re-typed by
//!   the sink from the text it kept — and swapped in with
//!   [`Database::replace_table`]. Batch types each cell once with the
//!   final type; streaming types the same raw text again with the same
//!   final type, in the same loop, so the values are byte-identical.
//!
//! ## Convergence with batch
//!
//! At [`finish`](StreamingTransformer::finish) the warehouse holds, table
//! for table, **exactly** the schema and cell values the batch pipeline
//! infers from the finished files. `finish` also re-parses each XML-direct
//! document whole, to surface the malformed-XML errors batch would have
//! raised and to verify the span extraction saw every entry.
//!
//! Row *order* is the one place streaming is allowed to differ: a table
//! fed by several files (one resource monitor per node) receives rows in
//! arrival-interleaved order rather than batch's file-concatenated order.
//! Tables fed by a single file — every event table — come out
//! byte-identical, rows included.

use crate::convert::RawColumns;
use crate::declare::{
    EntryFields, ParserKind, ParserSpec, ParsingDeclaration, StagedState, XmlMapping,
};
use crate::error::TransformError;
use crate::pipeline::{register_metadata, DataTransformer, TransformReport};
use crate::xml;
use mscope_db::{Database, DbError, Schema, Table};
use mscope_monitors::{LogFileMeta, LogStore};
use mscope_sim::parallel_map;

// ---------------------------------------------------------------------------
// Per-declaration incremental parser state
// ---------------------------------------------------------------------------

/// Incremental parse state for one declaration: how many bytes of the
/// declared file have been consumed and how many entries they held, plus
/// the staged engine's line-to-line carry-over.
#[derive(Debug, Clone, Default)]
struct DeclState {
    consumed: usize,
    entries: usize,
    staged: StagedState,
}

/// Consumes the unconsumed suffix of `content`, handing `sink` the entry of
/// every complete unit (line or XML entry span). With `at_end` the trailing
/// newline-less line is processed too (batch `str::lines` semantics).
fn advance(
    decl: &ParsingDeclaration,
    tags: &EntryTags,
    st: &mut DeclState,
    content: &str,
    at_end: bool,
    sink: &mut RawColumns,
) -> Result<(), TransformError> {
    match &decl.parser {
        ParserKind::Staged(spec) => advance_staged(decl, spec, st, content, at_end, sink),
        ParserKind::XmlDirect(map) => advance_xml(decl, map, tags, st, content, sink),
    }
}

fn advance_staged(
    decl: &ParsingDeclaration,
    spec: &ParserSpec,
    st: &mut DeclState,
    content: &str,
    at_end: bool,
    sink: &mut RawColumns,
) -> Result<(), TransformError> {
    let mut emit = |fields: EntryFields<'_>| sink.entry(&decl.path, fields.iter());
    let mut pos = st.consumed;
    while let Some(nl) = content[pos..].find('\n') {
        // A complete line: strip the newline and an optional \r, exactly
        // as `str::lines` does for the batch parser.
        let line = content[pos..pos + nl]
            .strip_suffix('\r')
            .unwrap_or(&content[pos..pos + nl]);
        pos += nl + 1;
        decl.staged_line(spec, &mut st.staged, line, &mut emit)?;
        st.consumed = pos;
    }
    if at_end && pos < content.len() {
        // The final newline-less line. `str::lines` keeps a lone trailing
        // \r here (it only strips \r before a \n), so no stripping.
        decl.staged_line(spec, &mut st.staged, &content[pos..], &mut emit)?;
        st.consumed = content.len();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental XML entry-span extraction
// ---------------------------------------------------------------------------

/// The `<name` and `</name>` an XML-direct declaration's entry spans are
/// found by, built once with the transformer; empty for a staged one.
#[derive(Debug, Default)]
struct EntryTags {
    open: String,
    close: String,
}

impl EntryTags {
    fn of(decl: &ParsingDeclaration) -> EntryTags {
        match &decl.parser {
            ParserKind::Staged(_) => EntryTags::default(),
            ParserKind::XmlDirect(map) => EntryTags {
                open: format!("<{}", map.entry_element),
                close: format!("</{}>", map.entry_element),
            },
        }
    }
}

enum Span {
    /// No entry element starts in the haystack.
    None,
    /// An entry element starts but is not yet complete — wait for more.
    Incomplete,
    /// A complete entry element occupies `[start, end)`.
    Complete(usize, usize),
}

/// Scans one tag starting at `b[at] == b'<'` to its closing `>` (quote
/// aware, so a `>` inside an attribute value does not end the tag).
/// Returns the index after `>` and whether the tag was self-closing, or
/// `None` when the buffer ends mid-tag.
fn scan_tag(b: &[u8], at: usize) -> Option<(usize, bool)> {
    let mut quote: Option<u8> = None;
    let mut last = b'<';
    let mut j = at;
    while j < b.len() {
        let c = b[j];
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                b'"' | b'\'' => quote = Some(c),
                b'>' => return Some((j + 1, last == b'/')),
                _ => {}
            },
        }
        if quote.is_none() && !c.is_ascii_whitespace() {
            last = c;
        }
        j += 1;
    }
    None
}

fn is_tag_delim(c: Option<&u8>) -> bool {
    matches!(c, Some(b' ' | b'\t' | b'\n' | b'\r' | b'>' | b'/'))
}

/// Finds the next complete `<name …>…</name>` (or self-closing
/// `<name …/>`) span in `hay`, tolerating prologue/epilogue text and
/// nested same-name elements.
fn find_entry_span(hay: &str, tags: &EntryTags) -> Span {
    let b = hay.as_bytes();
    let (open, close) = (tags.open.as_str(), tags.close.as_str());
    // Locate a candidate start: `<name` followed by a tag delimiter.
    let mut i = 0;
    let start = loop {
        match hay[i..].find(open) {
            None => return Span::None,
            Some(off) => {
                let s = i + off;
                let after = s + open.len();
                if after >= b.len() {
                    // Could still grow into `<name ` — wait for more bytes.
                    return Span::Incomplete;
                }
                if is_tag_delim(b.get(after)) {
                    break s;
                }
                i = s + 1;
            }
        }
    };
    // Walk tags until the candidate's subtree closes.
    let mut depth = 0usize;
    let mut j = start;
    while j < b.len() {
        if b[j] != b'<' {
            j += 1;
            continue;
        }
        if hay[j..].starts_with(close) {
            if depth <= 1 {
                return Span::Complete(start, j + close.len());
            }
            depth -= 1;
            j += close.len();
            continue;
        }
        let opens_entry = hay[j..].starts_with(open) && is_tag_delim(b.get(j + open.len()));
        let Some((tag_end, self_closing)) = scan_tag(b, j) else {
            return Span::Incomplete;
        };
        if opens_entry {
            if self_closing {
                if depth == 0 {
                    return Span::Complete(j, tag_end);
                }
            } else {
                depth += 1;
            }
        }
        j = tag_end;
    }
    Span::Incomplete
}

fn advance_xml(
    decl: &ParsingDeclaration,
    map: &XmlMapping,
    tags: &EntryTags,
    st: &mut DeclState,
    content: &str,
    sink: &mut RawColumns,
) -> Result<(), TransformError> {
    let mut emit = |fields: EntryFields<'_>| sink.entry(&decl.path, fields.iter());
    while let Span::Complete(start, end) = find_entry_span(&content[st.consumed..], tags) {
        let span = &content[st.consumed + start..st.consumed + end];
        let el = xml::parse(span).map_err(TransformError::Xml)?;
        decl.xml_entry(map, &el, &mut emit)?;
        st.consumed += end;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table sinks: the running schema + migration by rebuild
// ---------------------------------------------------------------------------

/// One destination table's columnar sink — its entries, its running schema
/// and the raw text that schema may yet re-type — and the warehouse table
/// kept converged with it.
#[derive(Debug, Default)]
struct TableSink {
    table: String,
    /// Declarations feeding this table (the report's `files` share).
    files: usize,
    created: bool,
    raw: RawColumns,
}

impl TableSink {
    /// Commits the rows that arrived since the last flush: migrates the
    /// warehouse table if the schema moved, then types the new rows
    /// column-wise and appends them.
    fn flush(&mut self, db: &mut Database) -> Result<(), TransformError> {
        if self.raw.rows() == self.raw.committed() {
            return Ok(());
        }
        let schema = self.raw.schema()?;
        if !self.created {
            db.ensure_table(&self.table, schema)
                .map_err(TransformError::Db)?;
            self.created = true;
        } else if db
            .require(&self.table)
            .map_err(TransformError::Db)?
            .schema()
            != &schema
        {
            self.migrate(db, schema)?;
        }
        let columns = self.raw.take_new(&self.table)?;
        db.insert_columns(&self.table, columns)
            .map_err(TransformError::Db)?;
        Ok(())
    }

    /// Rebuilds the committed prefix under a new schema and swaps it in.
    /// Unchanged columns are copied; a column whose type moved, or that is
    /// new, is typed again from the raw text the sink kept — producing the
    /// cells batch would have produced typing the same text under the
    /// final type in the first place.
    fn migrate(&mut self, db: &mut Database, new_schema: Schema) -> Result<(), TransformError> {
        let old = db.require(&self.table).map_err(TransformError::Db)?;
        if old.row_count() != self.raw.committed() {
            // Rows we did not ingest (a pre-existing table) cannot be
            // migrated — the same situation batch reports as a schema
            // mismatch between the inferred and the existing schema.
            return Err(TransformError::Db(DbError::SchemaMismatch {
                table: self.table.clone(),
                existing: old.schema().to_string(),
                incoming: new_schema.to_string(),
            }));
        }
        let was = old.schema();
        let mut columns = Vec::with_capacity(new_schema.len());
        for (ci, col) in new_schema.columns().iter().enumerate() {
            let kept = was
                .index_of(&col.name)
                .filter(|&oi| was.columns()[oi].ty == col.ty)
                .and_then(|_| old.column(&col.name));
            columns.push(match kept {
                Some(cells) => cells.to_vec(),
                None => self.raw.retype(&self.table, ci)?,
            });
        }
        let mut rebuilt = Table::new(self.table.clone(), new_schema);
        rebuilt.push_columns(columns).map_err(TransformError::Db)?;
        db.replace_table(rebuilt).map_err(TransformError::Db)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The streaming transformer
// ---------------------------------------------------------------------------

/// The incremental counterpart of [`DataTransformer::run`]: obtain one
/// from [`DataTransformer::stream`], call [`poll`](StreamingTransformer::poll) whenever the log store
/// has grown, and [`finish`](StreamingTransformer::finish) when the run
/// ends. See the module docs for the convergence guarantees.
#[derive(Debug)]
pub struct StreamingTransformer {
    declarations: Vec<ParsingDeclaration>,
    manifest: Vec<LogFileMeta>,
    tags: Vec<EntryTags>,
    states: Vec<DeclState>,
    sink_of: Vec<usize>,
    sinks: Vec<TableSink>,
}

impl StreamingTransformer {
    pub(crate) fn from_parts(
        declarations: Vec<ParsingDeclaration>,
        manifest: Vec<LogFileMeta>,
    ) -> StreamingTransformer {
        // Sinks in sorted table order — the order batch groups by table
        // (BTreeMap) and therefore the order the report lists: one sink per
        // run of equal table names, its index given to that run's files.
        let mut by_table: Vec<usize> = (0..declarations.len()).collect();
        by_table.sort_by_key(|&di| &declarations[di].table);
        let mut sink_of = vec![0; declarations.len()];
        let sinks = by_table
            .chunk_by(|&a, &b| declarations[a].table == declarations[b].table)
            .enumerate()
            .map(|(si, files)| {
                for &di in files {
                    sink_of[di] = si;
                }
                TableSink {
                    table: declarations[files[0]].table.clone(),
                    files: files.len(),
                    ..TableSink::default()
                }
            })
            .collect();
        StreamingTransformer {
            tags: declarations.iter().map(EntryTags::of).collect(),
            states: declarations.iter().map(|_| DeclState::default()).collect(),
            declarations,
            manifest,
            sink_of,
            sinks,
        }
    }

    /// Parses every declaration's unconsumed suffix into a sink of its
    /// own, appends those to their tables' sinks and flushes each table.
    /// The sinks (and the advanced states) come back in declaration order
    /// regardless of worker count, which is what makes the parallel path
    /// byte-identical to the serial one.
    fn ingest(
        &mut self,
        store: &LogStore,
        db: &mut Database,
        workers: usize,
        at_end: bool,
    ) -> Result<(), TransformError> {
        let (decls, tags, states) = (&self.declarations, &self.tags, &self.states);
        let results: Vec<(DeclState, Result<RawColumns, TransformError>)> =
            parallel_map(decls.len(), workers.max(1), |di| {
                let decl = &decls[di];
                let mut st = states[di].clone();
                let mut chunk = RawColumns::default();
                let r = match store.read(&decl.path) {
                    // A file that does not exist yet simply has no data;
                    // it is only an error if still absent at the end.
                    None if !at_end => Ok(()),
                    None => Err(TransformError::MissingFile(decl.path.clone())),
                    Some(content) => advance(decl, &tags[di], &mut st, content, at_end, &mut chunk),
                };
                st.entries += chunk.rows();
                (st, r.map(|()| chunk))
            });
        let mut first_err = None;
        for (di, (st, r)) in results.into_iter().enumerate() {
            self.states[di] = st;
            match r {
                Ok(chunk) => self.sinks[self.sink_of[di]].raw.append(chunk),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for sink in &mut self.sinks {
            sink.flush(db)?;
        }
        Ok(())
    }

    /// Ingests whatever new data the store holds, serially.
    ///
    /// # Errors
    ///
    /// Parse errors ([`TransformError::UnparsedLine`], XML errors) and
    /// warehouse errors; a declared file absent from the store is *not* an
    /// error here (the monitor may not have written yet), only at
    /// [`finish`](StreamingTransformer::finish).
    pub fn poll(&mut self, store: &LogStore, db: &mut Database) -> Result<(), TransformError> {
        self.poll_with(store, db, 1)
    }

    /// [`poll`](StreamingTransformer::poll) with the per-declaration parse
    /// stage fanned out over `workers` threads. The warehouse contents are
    /// byte-identical for any worker count: parsing is independent per
    /// declaration and results are applied in declaration order.
    ///
    /// # Errors
    ///
    /// As [`poll`](StreamingTransformer::poll).
    pub fn poll_with(
        &mut self,
        store: &LogStore,
        db: &mut Database,
        workers: usize,
    ) -> Result<(), TransformError> {
        self.ingest(store, db, workers, false)
    }

    /// Drains the final partial lines, validates the XML-direct documents,
    /// creates tables for zero-entry declarations, registers the monitor /
    /// log-file metadata (manifest order, as batch), and returns the same
    /// [`TransformReport`] the batch pipeline computes. Incomplete trailing
    /// blocks are dropped, mirroring batch end-of-file behaviour.
    ///
    /// # Errors
    ///
    /// [`TransformError::MissingFile`] for declared files absent from the
    /// store; parse/XML errors from the final drain; warehouse errors.
    pub fn finish(
        mut self,
        store: &LogStore,
        db: &mut Database,
    ) -> Result<TransformReport, TransformError> {
        self.ingest(store, db, 1, true)?;

        // The span extractor only ever sees complete entries; re-parse each
        // XML document once to surface malformed-XML errors exactly as
        // batch would, and to prove the extraction missed nothing.
        for (di, decl) in self.declarations.iter().enumerate() {
            if let ParserKind::XmlDirect(map) = &decl.parser {
                let content = store
                    .read(&decl.path)
                    .ok_or_else(|| TransformError::MissingFile(decl.path.clone()))?;
                let doc = xml::parse(content).map_err(TransformError::Xml)?;
                let in_doc = doc.find_all(&map.entry_element).len();
                if in_doc != self.states[di].entries {
                    return Err(TransformError::SchemaInference(format!(
                        "streaming extraction of `{}` saw {} entries but the document holds {}",
                        decl.path, self.states[di].entries, in_doc
                    )));
                }
            }
        }

        // Zero-entry tables still materialize (batch converts an empty
        // document set into an empty schema and ensures the table).
        for sink in &mut self.sinks {
            if !sink.created {
                db.ensure_table(&sink.table, sink.raw.schema()?)
                    .map_err(TransformError::Db)?;
                sink.created = true;
            }
        }

        register_metadata(&self.manifest, store, db)?;

        let mut report = TransformReport::default();
        for sink in &self.sinks {
            report.files += sink.files;
            report.entries += sink.raw.committed();
            // perf: one owned table name per loaded table, once at finish.
            report
                .tables
                .push((sink.table.clone(), sink.raw.committed()));
        }
        Ok(report)
    }
}

impl DataTransformer {
    /// Deploys this transformer in streaming mode, validating the
    /// declaration set up front exactly as [`DataTransformer::run`] does;
    /// the returned [`StreamingTransformer`] tails the log store
    /// incrementally and finishes into the same warehouse contents
    /// [`DataTransformer::run`] produces (see the `stream` module docs
    /// for the row-order caveat on multi-file tables).
    ///
    /// # Errors
    ///
    /// [`TransformError::BadDeclaration`] for the first deny-level issue.
    pub fn stream(&self) -> Result<StreamingTransformer, TransformError> {
        self.validate()?;
        Ok(StreamingTransformer::from_parts(
            self.declarations().to_vec(),
            self.manifest_entries().to_vec(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declare::ParserSpec;
    use crate::pattern::{Pattern, Tok};
    use mscope_db::{ColumnType, Value, ValueKey};
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;
    use std::collections::BTreeMap;

    fn artifacts(users: u32, secs: u64) -> mscope_monitors::MonitoringArtifacts {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        MonitorSuite::standard(&out.config).render(&out)
    }

    /// Feeds `full` into a fresh store `chunk` bytes per file per round,
    /// polling after every round, then finishes.
    fn run_streaming(
        art: &mscope_monitors::MonitoringArtifacts,
        chunk: usize,
        workers: usize,
    ) -> (Database, TransformReport) {
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut st = tr.stream().unwrap();
        let mut db = Database::new();
        let paths: Vec<String> = art.store.paths().iter().map(|p| p.to_string()).collect();
        let mut partial = LogStore::new();
        let mut offsets: BTreeMap<&str, usize> = BTreeMap::new();
        loop {
            let mut grew = false;
            for p in &paths {
                let full = art.store.read(p).unwrap();
                let off = offsets.entry(p.as_str()).or_insert(0);
                if *off >= full.len() {
                    continue;
                }
                let mut end = (*off + chunk).min(full.len());
                while !full.is_char_boundary(end) {
                    end += 1;
                }
                partial.append(p, &full[*off..end]);
                *off = end;
                grew = true;
            }
            if !grew {
                break;
            }
            st.poll_with(&partial, &mut db, workers).unwrap();
        }
        assert_eq!(&partial, &art.store);
        let report = st.finish(&partial, &mut db).unwrap();
        (db, report)
    }

    /// Tables fed by more than one declaration may legitimately interleave
    /// rows; canonicalize those to a sorted multiset for comparison.
    fn sorted_rows(t: &Table) -> Vec<Vec<ValueKey>> {
        let mut rows: Vec<Vec<ValueKey>> = t
            .iter_rows()
            .map(|r| r.iter().map(Value::key).collect())
            .collect();
        rows.sort();
        rows
    }

    fn assert_converged(streamed: &Database, batch: &Database, multi: &[&str], tag: &str) {
        assert_eq!(streamed.table_names(), batch.table_names(), "{tag}");
        for name in batch.table_names() {
            let b = batch.require(name).unwrap();
            let s = streamed.require(name).unwrap();
            assert_eq!(s.schema(), b.schema(), "{tag}: schema of {name}");
            if multi.contains(&name) {
                assert_eq!(sorted_rows(s), sorted_rows(b), "{tag}: rows of {name}");
            } else {
                assert_eq!(s, b, "{tag}: table {name}");
            }
        }
    }

    fn multi_file_tables(tr: &DataTransformer) -> Vec<String> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for d in tr.declarations() {
            *counts.entry(d.table.as_str()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(t, _)| t.to_string())
            .collect()
    }

    #[test]
    fn streaming_converges_with_batch_across_chunk_sizes() {
        let art = artifacts(40, 4);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut batch_db = Database::new();
        let batch_report = tr.run(&art.store, &mut batch_db).unwrap();
        let multi: Vec<String> = multi_file_tables(&tr);
        let multi_refs: Vec<&str> = multi.iter().map(String::as_str).collect();
        for chunk in [64usize, 4096] {
            let (db, report) = run_streaming(&art, chunk, 1);
            assert_eq!(report, batch_report, "chunk={chunk}");
            assert_converged(&db, &batch_db, &multi_refs, &format!("chunk={chunk}"));
        }
    }

    #[test]
    fn streaming_converges_one_byte_at_a_time() {
        // Byte-granular chunks on a small run: every line and XML span is
        // split mid-token at some point.
        let art = artifacts(10, 2);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut batch_db = Database::new();
        let batch_report = tr.run(&art.store, &mut batch_db).unwrap();
        let multi: Vec<String> = multi_file_tables(&tr);
        let multi_refs: Vec<&str> = multi.iter().map(String::as_str).collect();
        let (db, report) = run_streaming(&art, 1, 1);
        assert_eq!(report, batch_report);
        assert_converged(&db, &batch_db, &multi_refs, "chunk=1");
    }

    #[test]
    fn worker_fanout_is_byte_identical() {
        let art = artifacts(40, 4);
        let (db1, r1) = run_streaming(&art, 1024, 1);
        let (db4, r4) = run_streaming(&art, 1024, 4);
        assert_eq!(r1, r4);
        assert_eq!(db1.to_json().unwrap(), db4.to_json().unwrap());
    }

    // --- focused unit tests around schema migration -----------------------

    fn kv_decl(path: &str, table: &str) -> ParsingDeclaration {
        ParsingDeclaration {
            path: path.into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "kv".into(),
                filters: vec![crate::declare::LineMatcher::Blank],
                context: vec![],
                records: vec![Pattern::new(vec![
                    Tok::cap("k"),
                    Tok::lit("="),
                    Tok::cap("v"),
                ])],
                blocks: None,
            }),
            table: table.into(),
            constants: vec![("node".into(), "n0".into())],
        }
    }

    /// Batch oracle for a single declaration: execute + convert + load.
    fn batch_oracle(decl: &ParsingDeclaration, content: &str) -> Database {
        let doc = decl.execute(content).unwrap();
        let conv = crate::convert::convert_xml(std::slice::from_ref(&doc)).unwrap();
        let mut db = Database::new();
        crate::import::import_rows(&mut db, &decl.table, &conv.schema, conv.rows).unwrap();
        db
    }

    /// Streams `content` into the declaration byte by byte and returns the
    /// resulting warehouse (metadata registration skipped on both sides).
    fn stream_oracle(decl: &ParsingDeclaration, content: &str) -> Database {
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        for i in 0..content.len() {
            if content.is_char_boundary(i) && content.is_char_boundary(i + 1) {
                partial.append(&decl.path, &content[i..i + 1]);
                st.poll(&partial, &mut db).unwrap();
            } else if content.is_char_boundary(i) {
                let mut end = i + 1;
                while !content.is_char_boundary(end) {
                    end += 1;
                }
                partial.append(&decl.path, &content[i..end]);
                st.poll(&partial, &mut db).unwrap();
            }
        }
        st.finish(&partial, &mut db).unwrap();
        db
    }

    #[test]
    fn mid_stream_widenings_converge() {
        // Every lattice transition the running join can take, in one file:
        //  * `a`: Int → Float (late decimal)
        //  * `b`: Int → Text (hex id that starts all-digits)
        //  * `c`: all-null until a late timestamp arrives
        //  * `d`: null forever → Text at finish, dashes kept verbatim
        let decl = ParsingDeclaration {
            path: "wid.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "row".into(),
                filters: vec![crate::declare::LineMatcher::Blank],
                context: vec![],
                records: vec![Pattern::new(vec![
                    Tok::lit("r "),
                    Tok::cap("a"),
                    Tok::Ws,
                    Tok::cap("b"),
                    Tok::Ws,
                    Tok::cap("c"),
                    Tok::Ws,
                    Tok::cap("d"),
                ])],
                blocks: None,
            }),
            table: "wid".into(),
            constants: vec![],
        };
        let content = "\
r 5 123456 - -\n\
r 6 999999 - -\n\
r 2.5 12ab34 00:00:02.500000 -\n\
r 3 777 00:00:03.000000 -\n";
        let batch = batch_oracle(&decl, content);
        let streamed = stream_oracle(&decl, content);
        let b = batch.require("wid").unwrap();
        let s = streamed.require("wid").unwrap();
        assert_eq!(s, b);
        // And the final types are what batch infers.
        assert_eq!(b.schema().columns()[0].ty, ColumnType::Float, "a");
        assert_eq!(b.schema().columns()[1].ty, ColumnType::Text, "b");
        assert_eq!(b.schema().columns()[2].ty, ColumnType::Timestamp, "c");
        assert_eq!(b.schema().columns()[3].ty, ColumnType::Text, "d");
        // Int → Text kept the original digits verbatim…
        assert_eq!(s.cell(0, "b"), Some(&Value::Text("123456".into())));
        // …and the all-null column widened to Text with dashes verbatim.
        assert_eq!(s.cell(0, "d"), Some(&Value::Text("-".into())));
    }

    #[test]
    fn late_new_column_null_backfills() {
        // Two record patterns: `p x y` carries a `y` field, `p x` does
        // not — so `y` first appears mid-stream, after rows without it
        // were already committed and after the `node` constant, at `Text`
        // from its first row, has let the committed rows' text go.
        let decl = ParsingDeclaration {
            path: "late.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "late".into(),
                filters: vec![],
                context: vec![],
                records: vec![
                    Pattern::new(vec![Tok::lit("p "), Tok::cap("x"), Tok::Ws, Tok::cap("y")]),
                    Pattern::new(vec![Tok::lit("p "), Tok::cap("x")]),
                ],
                blocks: None,
            }),
            table: "late".into(),
            constants: vec![("node".into(), "n0".into())],
        };
        let content = "p 1\np 2\np 3 9\np 4 10\n";
        let batch = batch_oracle(&decl, content);
        let streamed = stream_oracle(&decl, content);
        assert_eq!(
            streamed.require("late").unwrap(),
            batch.require("late").unwrap()
        );
        let t = streamed.require("late").unwrap();
        assert_eq!(t.cell(0, "y"), Some(&Value::Null));
        assert_eq!(t.cell(2, "y"), Some(&Value::Int(9)));
        assert_eq!(t.cell(3, "node"), Some(&Value::Text("n0".into())));

        // Into a warehouse that already holds the table, the same schema
        // loads — until `y` arrives: rows this run did not load cannot be
        // migrated, which is the schema mismatch batch reports.
        let mut db = batch_oracle(&decl, "p 0\n");
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut partial = LogStore::new();
        partial.append(&decl.path, "p 1\np 2\n");
        st.poll(&partial, &mut db).unwrap();
        assert_eq!(db.require("late").unwrap().row_count(), 3);
        partial.append(&decl.path, "p 3 9\n");
        assert!(matches!(
            st.poll(&partial, &mut db),
            Err(TransformError::Db(DbError::SchemaMismatch { .. }))
        ));
    }

    #[test]
    fn unparsed_line_number_matches_batch() {
        let decl = kv_decl("bad.log", "kv");
        let content = "k=1\n\nk=2\nNOT A KV LINE\n";
        // Batch error:
        let be = decl.execute(content).unwrap_err();
        // Streaming error (fed in awkward 3-byte chunks):
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        let mut se = None;
        let mut i = 0;
        while i < content.len() {
            let end = (i + 3).min(content.len());
            partial.append(&decl.path, &content[i..end]);
            i = end;
            if let Err(e) = st.poll(&partial, &mut db) {
                se = Some(e);
                break;
            }
        }
        match (be, se.expect("streaming surfaced the bad line")) {
            (
                TransformError::UnparsedLine {
                    file: bf,
                    line_no: bn,
                    line: bl,
                },
                TransformError::UnparsedLine {
                    file: sf,
                    line_no: sn,
                    line: sl,
                },
            ) => {
                assert_eq!((bf, bn, bl), (sf, sn, sl));
            }
            other => panic!("unexpected error pair {other:?}"),
        }
    }

    #[test]
    fn incomplete_trailing_block_dropped_at_finish_only() {
        let decl = ParsingDeclaration {
            path: "blk.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "blocks".into(),
                filters: vec![],
                context: vec![],
                records: vec![],
                blocks: Some(crate::declare::BlockSpec {
                    marker: Pattern::new(vec![Tok::lit("M")]),
                    lines: vec![Some(Pattern::new(vec![Tok::lit("x="), Tok::cap("x")]))],
                }),
            }),
            table: "blk".into(),
            constants: vec![],
        };
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        // First poll ends mid-block; the block must survive to the next
        // poll (batch on the full file would complete it).
        partial.append("blk.log", "M\n");
        st.poll(&partial, &mut db).unwrap();
        partial.append("blk.log", "x=1\nM\n");
        st.poll(&partial, &mut db).unwrap();
        let report = st.finish(&partial, &mut db).unwrap();
        assert_eq!(report.entries, 1, "the trailing markered block is dropped");
        assert_eq!(
            db.require("blk").unwrap().cell(0, "x"),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn malformed_xml_surfaces_at_finish() {
        let decl = ParsingDeclaration {
            path: "x.xml".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::XmlDirect(XmlMapping {
                entry_element: "ts".into(),
                entry_attrs: vec![("t".into(), "t".into())],
                leaf_attrs: vec![],
            }),
            table: "x".into(),
            constants: vec![],
        };
        let mut st = StreamingTransformer::from_parts(vec![decl], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        partial.append("x.xml", "<root><ts t=\"1\"/><broken");
        st.poll(&partial, &mut db).unwrap();
        assert!(matches!(
            st.finish(&partial, &mut db),
            Err(TransformError::Xml(_))
        ));
    }

    #[test]
    fn missing_file_is_fine_until_finish() {
        let decl = kv_decl("late.log", "kv");
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let empty = LogStore::new();
        st.poll(&empty, &mut db).unwrap();
        let st2 = StreamingTransformer::from_parts(vec![decl], Vec::new());
        assert!(matches!(
            st2.finish(&empty, &mut db),
            Err(TransformError::MissingFile(_))
        ));
        let _ = st;
    }

    #[test]
    fn zero_entry_declaration_still_creates_table() {
        let decl = kv_decl("empty.log", "kv");
        let mut store = LogStore::new();
        store.append("empty.log", "");
        let st = StreamingTransformer::from_parts(vec![decl], Vec::new());
        let mut db = Database::new();
        let report = st.finish(&store, &mut db).unwrap();
        assert_eq!(report.tables, vec![("kv".to_string(), 0)]);
        assert!(db.table("kv").is_some());
        assert_eq!(db.require("kv").unwrap().row_count(), 0);
    }
}
