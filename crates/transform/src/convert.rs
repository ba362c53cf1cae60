//! mScope XMLtoCSV Converter (paper §III-B3): turns a table's worth of
//! annotated entries into an inferred schema plus typed cells, separating
//! the parsers' data annotation from warehouse schema creation.
//!
//! Schema inference is bottom-up exactly as described: the column set is
//! the **union** of all tags appearing in any entry (first-appearance
//! order), and each column's type is the **narrowest** type in the lattice
//! that admits every observed value.
//!
//! The paper's converter reads annotated XML and writes CSV text. Here both
//! are on-demand *export* artifacts
//! ([`ParsingDeclaration::execute`](crate::ParsingDeclaration::execute),
//! [`ConvertedTable::to_csv`]) and the load path touches neither: entries
//! collect, as borrowed `(field, raw value)` pairs, in one columnar
//! raw-cell sink ([`RawColumns`]) that folds the schema as they arrive
//! ([`SchemaFold`]) and then types each column whole ([`parse_cell`]). The
//! batch driver feeds the sink from the parsing ladder and loads its
//! columns as they are; [`convert_xml`] feeds it `<entry>` children and
//! transposes the columns into rows; the streaming driver feeds it chunk by
//! chunk and takes the new rows typed under the schema so far — one
//! inference, one typing.

use crate::csv::write_csv;
use crate::error::TransformError;
use crate::import::{normalize_cell, parse_cell};
use crate::xml::XmlNode;
use mscope_db::{Column, ColumnType, Schema, Value};
use std::ops::Range;

/// Result of converting one table's worth of annotated XML: the inferred
/// schema plus the typed rows ready for direct warehouse load.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertedTable {
    /// Inferred schema.
    pub schema: Schema,
    /// Typed rows, one per `<entry>`, cells in schema column order.
    /// Missing fields are [`Value::Null`].
    pub rows: Vec<Vec<Value>>,
}

impl ConvertedTable {
    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as CSV text (header row + one line per row) —
    /// the on-demand export artifact. Loading this text back with
    /// [`import_csv`](crate::import_csv) against the same schema
    /// reproduces the typed rows exactly.
    pub fn to_csv(&self) -> String {
        let mut grid: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        grid.push(
            self.schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        );
        for row in &self.rows {
            grid.push(row.iter().map(Value::render).collect());
        }
        write_csv(&grid)
    }
}

/// Running schema inference for one destination table — the one definition
/// of the fold both drivers apply to every entry: a field may appear once
/// per entry, the column set is the union of all fields in first-appearance
/// order, and a column's type is the lattice join of every observed
/// (normalized) value type. Batch folds all entries, then reads the schema
/// once; streaming reads it after every chunk.
#[derive(Debug, Default)]
struct SchemaFold {
    cols: Vec<FoldColumn>,
    entries: usize,
    /// Where the next field of the entry in hand is expected: the column
    /// after the previous field's. Entries of one log list their fields in
    /// one order, so the guess is nearly always right and a field costs one
    /// name comparison, not a search.
    next: usize,
}

/// One column of a [`SchemaFold`].
#[derive(Debug)]
struct FoldColumn {
    name: String,
    /// Join of the value types seen so far; `Null` while no non-null value
    /// has been seen.
    join: ColumnType,
    /// Ordinal of the last entry that carried this field.
    last_entry: usize,
}

impl FoldColumn {
    /// The warehouse type: a column never observed with a non-null value is
    /// widened to `Text`, so the warehouse can hold whatever later loads
    /// bring.
    fn ty(&self) -> ColumnType {
        match self.join {
            ColumnType::Null => ColumnType::Text,
            t => t,
        }
    }
}

/// The type a raw cell contributes to its column's join, under the same
/// trim/null rules the importer applies: a cell the importer would load as
/// Null must not widen the column.
fn cell_type(raw: &str) -> ColumnType {
    normalize_cell(raw).map_or(ColumnType::Null, Value::infer_type)
}

impl SchemaFold {
    /// Opens the next entry and returns its 0-based row number.
    fn begin_entry(&mut self) -> usize {
        self.entries += 1;
        self.next = 0;
        self.entries - 1
    }

    /// Folds one `(field, raw value)` pair of the open entry in and returns
    /// the index of the field's column; `owner` names the entry's origin in
    /// the error.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the field repeats within the
    /// entry (ambiguous annotation).
    fn field(&mut self, owner: &str, name: &str, raw: &str) -> Result<usize, TransformError> {
        let expected = self.cols.get(self.next).is_some_and(|c| c.name == name);
        let ci = if expected {
            self.next
        } else {
            let found = self.cols.iter().position(|c| c.name == name);
            found.unwrap_or(self.cols.len())
        };
        self.next = ci + 1;
        match self.cols.get_mut(ci) {
            Some(c) if c.last_entry == self.entries => {
                return Err(TransformError::SchemaInference(format!(
                    "duplicate field `{name}` within one entry of `{owner}`"
                )));
            }
            Some(c) => {
                c.last_entry = self.entries;
                // Text is the top of the lattice: no cell can move it, so
                // none is classified.
                if c.join != ColumnType::Text {
                    c.join = c.join.unify(cell_type(raw));
                }
            }
            // perf: one owned name per *distinct* column, not per field.
            None => self.cols.push(FoldColumn {
                name: name.to_string(),
                join: cell_type(raw),
                last_entry: self.entries,
            }),
        }
        Ok(ci)
    }

    /// Folds in one column of a fold that saw later entries, all its cells
    /// at once, and returns its index here: a new name joins the union, a
    /// known one widens by the other's join.
    fn absorb(&mut self, theirs: FoldColumn) -> usize {
        let found = self.cols.iter().position(|c| c.name == theirs.name);
        let ci = found.unwrap_or(self.cols.len());
        match self.cols.get_mut(ci) {
            Some(c) => c.join = c.join.unify(theirs.join),
            // Entry ordinals start at 1: stamp 0 is no open entry's.
            None => self.cols.push(FoldColumn {
                last_entry: 0,
                ..theirs
            }),
        }
        ci
    }

    /// The schema the entries folded so far load under.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the warehouse rejects the
    /// column set.
    fn schema(&self) -> Result<Schema, TransformError> {
        Schema::new(
            self.cols
                .iter()
                .map(|c| Column::new(c.name.clone(), c.ty()))
                .collect(),
        )
        .map_err(|e| TransformError::SchemaInference(e.to_string()))
    }
}

/// The columnar raw-cell sink: one destination table's entries, kept as
/// raw text column by column while the schema folds, then typed a column at
/// a time — the one place in the crate an untyped cell waits for its type,
/// as one string and one offset vector per column: no node, vector or
/// string per field. Batch inference
/// ([`DataTransformer::run_with`](crate::DataTransformer::run_with),
/// [`convert_xml`]) sees every value before it types any: it fills the sink
/// and calls [`finish`](RawColumns::finish). Streaming cannot wait: it
/// takes each chunk's rows typed under the schema so far
/// ([`take_new`](RawColumns::take_new)) and, when a later cell widens a
/// column, has the committed ones typed again from the text kept here
/// ([`retype`](RawColumns::retype)).
#[derive(Debug, Default)]
pub(crate) struct RawColumns {
    fold: SchemaFold,
    /// Parallel to `fold.cols`.
    cols: Vec<RawColumn>,
    /// Rows [`take_new`](RawColumns::take_new) has handed out.
    committed: usize,
}

/// One column of a [`RawColumns`] sink.
#[derive(Debug, Default)]
struct RawColumn {
    /// The raw text of the column's cells, concatenated in row order.
    text: String,
    /// Where each row's cell ends in `text`; it starts where the previous
    /// row's ends. A row that lacks the field holds a zero-length cell:
    /// [`parse_cell`] loads an empty cell as `Null` under every type, as a
    /// missing field loads. Rows since the column's last cell are filled in
    /// when its next one (or a typing) arrives. `ends[i]` is row
    /// `released + i`.
    ends: Vec<usize>,
    /// Leading rows whose text was let go once they were committed.
    released: usize,
}

impl RawColumn {
    /// Gives every row before `row` a cell: one the column has not heard
    /// from lacked the field.
    fn fill(&mut self, row: usize) {
        let kept = row - self.released;
        if self.ends.len() < kept {
            self.ends.resize(kept, self.text.len());
        }
    }

    /// Types the cells of `rows` under `col`'s type as it stands, one
    /// [`parse_cell`] per cell; rows that start in released text are an
    /// error, never an index out of range.
    fn typed(
        &mut self,
        table: &str,
        col: &FoldColumn,
        rows: Range<usize>,
    ) -> Result<Vec<Value>, TransformError> {
        let Some(first) = rows.start.checked_sub(self.released) else {
            return Err(TransformError::SchemaInference(format!(
                "typing `{table}` from row {} needs raw text column `{}` released up to row {}",
                rows.start, col.name, self.released
            )));
        };
        self.fill(rows.end);
        let ty = col.ty();
        let mut values = Vec::with_capacity(rows.len());
        let mut start = first.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        for &end in &self.ends[first..rows.end - self.released] {
            values.push(parse_cell(table, &col.name, ty, &self.text[start..end])?);
            start = end;
        }
        Ok(values)
    }
}

/// What a [`RawColumns`] sink finishes into: the inferred schema and one
/// typed vector per schema column, each `rows` long.
#[derive(Debug)]
pub(crate) struct TypedColumns {
    pub(crate) schema: Schema,
    pub(crate) columns: Vec<Vec<Value>>,
    pub(crate) rows: usize,
}

impl RawColumns {
    /// Takes one entry in: folds its fields into the schema and appends
    /// their raw text to their columns. `owner` names the entry's origin
    /// in the error.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if a field repeats within the
    /// entry.
    pub(crate) fn entry<'a>(
        &mut self,
        owner: &str,
        fields: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), TransformError> {
        let row = self.fold.begin_entry();
        for (name, raw) in fields {
            let ci = self.fold.field(owner, name, raw)?;
            let col = self.column(ci);
            col.fill(row);
            col.text.push_str(raw);
            col.ends.push(col.text.len());
        }
        Ok(())
    }

    /// The cells of fold column `ci`, which may be the one just added.
    fn column(&mut self, ci: usize) -> &mut RawColumn {
        if ci == self.cols.len() {
            self.cols.push(RawColumn::default());
        }
        &mut self.cols[ci]
    }

    /// Takes in, after this sink's entries, those of `chunk` — a sink that
    /// was only ever filled — as handing each of them to
    /// [`entry`](RawColumns::entry) here would have. Streaming parses every
    /// file's new lines into a sink of its own, on any worker, and appends
    /// those to their table's in declaration order.
    pub(crate) fn append(&mut self, chunk: RawColumns) {
        let rows = self.fold.entries;
        for (theirs, cells) in chunk.fold.cols.into_iter().zip(chunk.cols) {
            let ci = self.fold.absorb(theirs);
            let col = self.column(ci);
            col.fill(rows);
            let base = col.text.len();
            col.text.push_str(&cells.text);
            col.ends.extend(cells.ends.iter().map(|end| base + end));
        }
        self.fold.entries += chunk.fold.entries;
    }

    /// Entries taken in so far.
    pub(crate) fn rows(&self) -> usize {
        self.fold.entries
    }

    /// How many of them [`take_new`](RawColumns::take_new) has handed out.
    pub(crate) fn committed(&self) -> usize {
        self.committed
    }

    /// The schema the entries taken in so far load under; errors as
    /// [`SchemaFold::schema`].
    pub(crate) fn schema(&self) -> Result<Schema, TransformError> {
        self.fold.schema()
    }

    /// Types the rows that came in since the last call, column by column
    /// under the schema as it stands, and counts them committed. A column
    /// at `Text` — the top of the lattice: no later cell can re-type it —
    /// lets the text of every committed row go; any other column keeps it
    /// for [`retype`](RawColumns::retype).
    ///
    /// # Errors
    ///
    /// [`TransformError::BadCell`] if a cell fails to load as the type
    /// inferred for its column.
    pub(crate) fn take_new(&mut self, table: &str) -> Result<Vec<Vec<Value>>, TransformError> {
        let rows = self.fold.entries;
        let mut columns = Vec::with_capacity(self.cols.len());
        for (col, raw) in self.fold.cols.iter().zip(&mut self.cols) {
            columns.push(raw.typed(table, col, self.committed..rows)?);
            if col.join == ColumnType::Text {
                raw.text.clear();
                raw.ends.clear();
                raw.released = rows;
            }
        }
        self.committed = rows;
        Ok(columns)
    }

    /// Types the committed rows of column `ci` again, under its type as it
    /// stands now: what a table that loaded them under a narrower type — or
    /// before the column existed, all absent — migrates to. Errors as
    /// [`take_new`](RawColumns::take_new), and with
    /// [`TransformError::SchemaInference`] if the column let that text go.
    pub(crate) fn retype(&mut self, table: &str, ci: usize) -> Result<Vec<Value>, TransformError> {
        self.cols[ci].typed(table, &self.fold.cols[ci], 0..self.committed)
    }

    /// Types every column under its final lattice type; a column's raw
    /// text is freed as soon as it is typed. `table` names the destination
    /// in the error.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the warehouse rejects the
    /// column set; [`TransformError::BadCell`] if a cell fails to load as
    /// the type inferred for its column.
    pub(crate) fn finish(self, table: &str) -> Result<TypedColumns, TransformError> {
        let schema = self.fold.schema()?;
        let rows = self.fold.entries;
        let mut columns = Vec::with_capacity(self.cols.len());
        for (col, mut raw) in self.fold.cols.iter().zip(self.cols) {
            columns.push(raw.typed(table, col, 0..rows)?);
        }
        Ok(TypedColumns {
            schema,
            columns,
            rows,
        })
    }
}

/// Converts one or more annotated `<log>` documents (all destined for the
/// same table) into an inferred schema and typed rows — the row-major,
/// from-XML face of the sink the batch driver feeds directly.
///
/// Converting the documents together is what makes the column-set union and
/// type join span *all* inputs — two Apache replicas' logs cannot produce
/// conflicting schemas.
///
/// # Errors
///
/// [`TransformError::SchemaInference`] if an entry carries duplicate field
/// names (ambiguous annotation); [`TransformError::BadCell`] if a cell
/// fails to load as the type inferred for its column (internally
/// inconsistent pipeline — cannot happen while inference and loading share
/// [`normalize_cell`], but never loads silently-wrong data).
pub fn convert_xml(docs: &[XmlNode]) -> Result<ConvertedTable, TransformError> {
    let mut sink = RawColumns::default();
    for doc in docs {
        let source = doc.get_attr("source").unwrap_or("?");
        for entry in doc.children.iter().filter(|c| c.name == "entry") {
            let fields = entry.children.iter();
            sink.entry(source, fields.map(|f| (f.name.as_str(), f.text.as_str())))?;
        }
    }
    let table = docs.first().and_then(|d| d.get_attr("table"));
    let typed = sink.finish(table.unwrap_or("?"))?;
    // Transpose: every column is `rows` long, so each row draws one cell
    // from each.
    let mut columns: Vec<_> = typed.columns.into_iter().map(Vec::into_iter).collect();
    let rows = (0..typed.rows)
        .map(|_| {
            let mut row = Vec::with_capacity(columns.len());
            row.extend(columns.iter_mut().filter_map(Iterator::next));
            row
        })
        .collect();
    Ok(ConvertedTable {
        schema: typed.schema,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fields: &[(&str, &str)]) -> XmlNode {
        let mut e = XmlNode::new("entry");
        for (k, v) in fields {
            e.children.push(XmlNode::new(*k).with_text(*v));
        }
        e
    }

    fn doc(entries: Vec<XmlNode>) -> XmlNode {
        let mut d = XmlNode::new("log").attr("source", "t.log");
        d.children = entries;
        d
    }

    #[test]
    fn schema_is_union_of_tags() {
        let d = doc(vec![
            entry(&[("a", "1"), ("b", "x")]),
            entry(&[("a", "2"), ("c", "3.5")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        let names: Vec<&str> = out
            .schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(out.row_count(), 2);
        // Missing cells are typed nulls, rendered empty in the CSV export.
        assert_eq!(out.rows[1][1], Value::Null);
        assert!(out.to_csv().contains("2,,3.5"));
    }

    #[test]
    fn types_are_narrowest_that_admit_all() {
        let d = doc(vec![
            entry(&[("n", "1"), ("t", "00:00:01.000000"), ("s", "5")]),
            entry(&[("n", "2.5"), ("t", "00:00:02.000000"), ("s", "five")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        let ty = |name: &str| out.schema.columns()[out.schema.index_of(name).unwrap()].ty;
        assert_eq!(ty("n"), ColumnType::Float, "int ∪ float = float");
        assert_eq!(ty("t"), ColumnType::Timestamp);
        assert_eq!(ty("s"), ColumnType::Text, "int ∪ text = text");
        // Cells are loaded as the inferred types.
        assert_eq!(out.rows[0][0], Value::Float(1.0));
        assert_eq!(out.rows[0][1], Value::Timestamp(1_000_000));
        assert_eq!(out.rows[0][2], Value::Text("5".into()));
    }

    #[test]
    fn null_values_do_not_widen() {
        let d = doc(vec![
            entry(&[("ds", "-")]),
            entry(&[("ds", "00:00:01.000000")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Timestamp);
        assert_eq!(out.rows[0][0], Value::Null);
    }

    #[test]
    fn all_null_column_becomes_text() {
        let d = doc(vec![entry(&[("x", "-")])]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Text);
        // …and the dash, now a text cell, survives verbatim instead of
        // being mutated to Null by the loader.
        assert_eq!(out.rows[0][0], Value::Text("-".into()));
    }

    #[test]
    fn text_cells_survive_verbatim() {
        let d = doc(vec![
            entry(&[("s", " padded "), ("u", "plain")]),
            entry(&[("s", "-"), ("u", "words words")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.rows[0][0], Value::Text(" padded ".into()));
        assert_eq!(out.rows[1][0], Value::Text("-".into()));
        // The CSV export round-trips them losslessly too.
        let mut db = mscope_db::Database::new();
        crate::import::import_csv(&mut db, "t", &out.schema, &out.to_csv()).unwrap();
        let t = db.require("t").unwrap();
        assert_eq!(t.cell(0, "s"), Some(&Value::Text(" padded ".into())));
        assert_eq!(t.cell(1, "s"), Some(&Value::Text("-".into())));
    }

    #[test]
    fn union_spans_multiple_documents() {
        let d1 = doc(vec![entry(&[("a", "1")])]);
        let d2 = doc(vec![entry(&[("a", "x")])]);
        let out = convert_xml(&[d1, d2]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Text);
        assert_eq!(out.row_count(), 2);
    }

    #[test]
    fn duplicate_field_in_entry_rejected() {
        let d = doc(vec![entry(&[("a", "1"), ("a", "2")])]);
        assert!(matches!(
            convert_xml(&[d]),
            Err(TransformError::SchemaInference(_))
        ));
    }

    #[test]
    fn empty_input_yields_empty_schema() {
        let out = convert_xml(&[doc(vec![])]).unwrap();
        assert_eq!(out.row_count(), 0);
        assert!(out.schema.is_empty());
    }

    /// One raw cell of a column whose cells are mostly of `kind`.
    fn raw_cell(g: &mut mscope_sim::prop::Gen, kind: usize) -> String {
        let kind = match g.usize(0..=9) {
            0 => return "-".into(),
            1 => return String::new(),
            2 => g.usize(0..=3),
            _ => kind,
        };
        match kind {
            0 => format!(" {} ", g.i64(-50..=5000)),
            1 => format!("{:.3}", g.f64(0.0..90.0)),
            2 => format!("00:00:{:02}.{:06}", g.u64(0..=59), g.u64(0..=999_999)),
            _ => format!("tx {}", g.ident(3)),
        }
    }

    /// Drives a sink the way the streaming driver does — chunk-local sinks
    /// appended in order, `take_new` at the flush points, a stand-in table
    /// migrated with `retype` when the schema moved — and holds the result
    /// to the one-shot `finish` over the same entries.
    #[test]
    fn incremental_typing_is_one_shot_finish() {
        use std::cell::Cell;
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        // (a) a released column took more rows, (b) a new column arrived
        // after a release, (c) a committed column widened.
        let reached = [Cell::new(0), Cell::new(0), Cell::new(0)];
        let hit = |case: usize| reached[case].set(reached[case].get() + 1);
        mscope_sim::prop::forall("incremental typing is one-shot finish", 300, |g| {
            let kinds: Vec<usize> = NAMES.iter().map(|_| g.usize(0..=3)).collect();
            let entries = g.vec(1..=40, |g| {
                let mut fields = Vec::new();
                for (name, &kind) in NAMES.iter().zip(&kinds) {
                    if g.usize(0..=9) < 7 {
                        fields.push((*name, raw_cell(g, kind)));
                    }
                }
                fields
            });
            let feed = |sink: &mut RawColumns, e: &[(&str, String)]| {
                sink.entry("t.log", e.iter().map(|(k, v)| (*k, v.as_str())))
                    .map_err(|e| e.to_string())
            };
            let mut whole = RawColumns::default();
            for e in &entries {
                feed(&mut whole, e)?;
            }
            let want = whole.finish("t").map_err(|e| e.to_string())?;

            let mut sink = RawColumns::default();
            let mut chunk = RawColumns::default();
            let mut table: Option<(Schema, Vec<Vec<Value>>)> = None;
            for (i, e) in entries.iter().enumerate() {
                feed(&mut chunk, e)?;
                let last = i + 1 == entries.len();
                if !(last || g.bool()) {
                    continue;
                }
                sink.append(std::mem::take(&mut chunk));
                if !(last || g.bool()) {
                    continue;
                }
                let schema = sink.schema().map_err(|e| e.to_string())?;
                let released: Vec<bool> = sink.cols.iter().map(|c| c.released > 0).collect();
                if released.contains(&true) {
                    hit(0);
                }
                let (was, cols) = table.get_or_insert_with(|| (schema.clone(), Vec::new()));
                let mut moved = Vec::with_capacity(schema.len());
                for (ci, col) in schema.columns().iter().enumerate() {
                    let old = was.index_of(&col.name);
                    let kept = old.filter(|&oi| was.columns()[oi].ty == col.ty);
                    moved.push(match kept.and_then(|oi| cols.get_mut(oi)) {
                        Some(cells) => std::mem::take(cells),
                        None => {
                            match old {
                                Some(_) if sink.committed() > 0 => hit(2),
                                None if released.contains(&true) => hit(1),
                                _ => {}
                            }
                            sink.retype("t", ci).map_err(|e| e.to_string())?
                        }
                    });
                }
                (*was, *cols) = (schema, moved);
                // Released text asked for again is an error, not a panic.
                for (ci, _) in released.iter().enumerate().filter(|(_, r)| **r) {
                    mscope_sim::prop_ensure!(
                        matches!(
                            sink.retype("t", ci),
                            Err(TransformError::SchemaInference(_))
                        ),
                        "released column {ci} re-typed"
                    );
                }
                let new = sink.take_new("t").map_err(|e| e.to_string())?;
                for (cells, new) in cols.iter_mut().zip(new) {
                    cells.extend(new);
                }
            }
            let (schema, cols) = table.ok_or("no flush")?;
            mscope_sim::prop_ensure!(schema == want.schema, "{schema} vs {}", want.schema);
            mscope_sim::prop_ensure!(sink.committed() == want.rows, "rows");
            // Debug text: a NaN cell is not equal to itself.
            mscope_sim::prop_ensure!(
                format!("{cols:?}") == format!("{:?}", want.columns),
                "{cols:?} vs {:?}",
                want.columns
            );
            Ok(())
        });
        for (case, n) in reached.iter().enumerate() {
            assert!(n.get() > 0, "the generator never reached case {case}");
        }
    }

    #[test]
    fn csv_export_quotes_commas_in_text() {
        let d = doc(vec![entry(&[("sql", "SELECT a,b FROM t ")])]);
        let out = convert_xml(&[d]).unwrap();
        assert!(out.to_csv().contains("\"SELECT a,b FROM t \""));
    }
}
