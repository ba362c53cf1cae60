//! mScope XMLtoCSV Converter (paper §III-B3): turns a table's worth of
//! annotated entries into an inferred schema plus typed cells, separating
//! the parsers' data annotation from warehouse schema creation.
//!
//! Schema inference is bottom-up exactly as described: the column set is
//! the **union** of all tags appearing in any entry (first-appearance
//! order), and each column's type is the **narrowest** type in the lattice
//! that admits every observed value.
//!
//! The paper's converter reads annotated XML and writes CSV text. Here it
//! writes typed rows ([`ConvertedTable`]) and no CSV; the XML is an
//! on-demand *export* artifact
//! ([`ParsingDeclaration::execute`](crate::ParsingDeclaration::execute)),
//! and the load path builds no XML either: entries collect, as borrowed
//! `(field, raw value)` pairs, in one columnar sink ([`RawColumns`]) that
//! folds the schema as they arrive ([`SchemaFold`]) and reads each cell
//! once, under its column's type so far. A cell of a scalar column is kept
//! as its value for the load, a Text cell as its text until the column is
//! handed out, and a column whose type widens reads its kept text again
//! under the wider type. The batch driver feeds the sink from the parsing
//! ladder and loads its columns as they are; [`convert_xml`] feeds it
//! `<entry>` children and transposes the columns into rows; the streaming
//! driver feeds it chunk by chunk and takes the new rows typed under the
//! schema so far — one inference, one typing.

use crate::error::TransformError;
use crate::import::{normalize_cell, parse_cell, read_scalar, text_cell};
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

/// Reads one raw cell of a column whose join is `join`: the cell's value
/// under the join the column has after it — what [`parse_cell`] makes of
/// it under that type. That join is the value's type, or `join` for a
/// `Null` value. The cell is read with the one parser `join` names; only
/// the first non-null cell and a cell that parser misses climb the
/// inference ladder, and then the join widens. A Float must be finite:
/// `inf` reads as `f64` but infers as Text.
fn read_cell(join: ColumnType, raw: &str) -> Value {
    // The same trim/null rule the importer applies: a cell it loads as
    // Null does not widen the column.
    let Some(t) = normalize_cell(raw) else {
        return Value::Null;
    };
    match read_scalar(join, t) {
        Some(Value::Float(f)) if !f.is_finite() => {}
        Some(v) => return v,
        None => {}
    }
    // Below Text the widened join is the cell's own type: a join that
    // misses a cell is Null or lies under it (an i64 always reads as a
    // finite f64, so an Int cell never misses a Float column).
    let v = Value::infer(t);
    match join.unify(v.column_type()) {
        ColumnType::Text => text_cell(raw),
        _ => v,
    }
}

impl SchemaFold {
    /// Opens the next entry and returns its 0-based row number.
    fn begin_entry(&mut self) -> usize {
        self.entries += 1;
        self.next = 0;
        self.entries - 1
    }

    /// Folds one field of the open entry into the column union and
    /// returns the index of its column; `owner` names the entry's origin
    /// in the error. The caller folds the cell's type in
    /// ([`RawColumn::push`]).
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the field repeats within the
    /// entry (ambiguous annotation).
    fn field(&mut self, owner: &str, name: &str) -> Result<usize, TransformError> {
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
            Some(c) => c.last_entry = self.entries,
            // perf: one owned name per *distinct* column, not per field.
            None => self.cols.push(FoldColumn {
                name: name.to_string(),
                join: ColumnType::Null,
                last_entry: self.entries,
            }),
        }
        Ok(ci)
    }

    /// Folds in one column of a fold that saw later entries, all its cells
    /// at once: a new name joins the union, a known one widens by the
    /// other's join. Returns its index here and the join it had before.
    fn absorb(&mut self, theirs: FoldColumn) -> (usize, ColumnType) {
        let found = self.cols.iter().position(|c| c.name == theirs.name);
        let ci = found.unwrap_or(self.cols.len());
        match self.cols.get_mut(ci) {
            Some(c) => {
                let was = c.join;
                c.join = was.unify(theirs.join);
                (ci, was)
            }
            // Entry ordinals start at 1: stamp 0 is no open entry's.
            None => {
                self.cols.push(FoldColumn {
                    last_entry: 0,
                    ..theirs
                });
                (ci, ColumnType::Null)
            }
        }
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

/// The columnar sink: one destination table's entries, each cell read once
/// under its column's type so far and, in a column of a scalar type, kept
/// as a value until it is handed out — the one place in the crate an
/// untyped cell gets its type. Batch inference
/// ([`DataTransformer::run_with`](crate::DataTransformer::run_with),
/// [`convert_xml`]) sees every value before it loads any: it fills the
/// sink and calls [`finish`](RawColumns::finish). Streaming cannot wait: it
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
    /// While the column's join is a scalar type ([`holds_values`]): the
    /// cells of the rows not yet handed out, each under that join —
    /// `values[i]` is row `committed + i`. Rows since the column's last
    /// cell lacked the field and are filled in as `Null`, the value of a
    /// missing field under every type, when its next one (or a hand-out)
    /// arrives. Empty under `Null` and `Text`: those cells load verbatim
    /// from `text` at the hand-out, column by column.
    values: Vec<Value>,
    /// The raw text of the column's cells, concatenated in row order: what
    /// a `Null` or `Text` column hands out, what a widening reads again,
    /// and the committed cells a [`retype`](RawColumns::retype) reads.
    text: String,
    /// Where each row's cell ends in `text`; it starts where the previous
    /// row's ends. A row that lacks the field holds a zero-length cell:
    /// [`parse_cell`] loads an empty cell as `Null` under every type, as a
    /// missing field loads. `ends[i]` is row `released + i`.
    ends: Vec<usize>,
    /// Leading rows whose text was let go once they were committed.
    released: usize,
}

/// Whether a column whose join is `join` keeps its cells as values: a
/// scalar type does; under `Null` and `Text` a cell's value is its text.
fn holds_values(join: ColumnType) -> bool {
    !matches!(join, ColumnType::Null | ColumnType::Text)
}

impl RawColumn {
    /// Gives every row before `row` a cell in `text`: one the column has
    /// not heard from lacked the field.
    fn fill(&mut self, row: usize) {
        let kept = row - self.released;
        if self.ends.len() < kept {
            self.ends.resize(kept, self.text.len());
        }
    }

    /// The raw text of row `row`, which must be kept.
    fn raw(&self, row: usize) -> &str {
        let i = row - self.released;
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[i]]
    }

    /// Takes in the raw cell of row `row`, past every row the column holds,
    /// read under `join`, the column's join so far ([`read_cell`]), and
    /// returns the column's join with it.
    fn push(&mut self, row: usize, committed: usize, join: ColumnType, raw: &str) -> ColumnType {
        let mut to = join;
        if join != ColumnType::Text {
            let value = read_cell(join, raw);
            if !matches!(value, Value::Null) {
                to = value.column_type();
            }
            self.widen(join, to, committed);
            if holds_values(to) {
                if self.values.len() < row - committed {
                    self.values.resize(row - committed, Value::Null);
                }
                self.values.push(value);
            }
        }
        self.fill(row);
        self.text.push_str(raw);
        self.ends.push(self.text.len());
        to
    }

    /// Moves the column's join `from` → `to`: under a scalar type the
    /// cells since `committed` are read again from their text, and under
    /// `Text` no value is held.
    fn widen(&mut self, from: ColumnType, to: ColumnType, committed: usize) {
        if from == to {
            return;
        }
        if holds_values(to) {
            let held = committed..self.released + self.ends.len();
            self.values = held.map(|row| read_cell(to, self.raw(row))).collect();
        } else {
            self.values = Vec::new();
        }
    }

    /// The cells of `rows` as a text column loads them, verbatim.
    fn text_cells(&mut self, rows: Range<usize>) -> Vec<Value> {
        self.fill(rows.end);
        rows.map(|row| text_cell(self.raw(row))).collect()
    }

    /// Types the committed cells of `rows` under `col`'s type as it
    /// stands, one [`parse_cell`] per cell; rows that start in released
    /// text are an error, never an index out of range.
    fn retyped(
        &mut self,
        table: &str,
        col: &FoldColumn,
        rows: Range<usize>,
    ) -> Result<Vec<Value>, TransformError> {
        if rows.start < self.released {
            return Err(TransformError::SchemaInference(format!(
                "typing `{table}` from row {} needs raw text column `{}` released up to row {}",
                rows.start, col.name, self.released
            )));
        }
        self.fill(rows.end);
        let ty = col.ty();
        rows.map(|row| parse_cell(table, &col.name, ty, self.raw(row)))
            .collect()
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
    /// Takes one entry in: folds its fields into the schema and keeps them
    /// in their columns, as text and, under a scalar type, as values.
    /// `owner` names the entry's origin in the error.
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
            let ci = self.fold.field(owner, name)?;
            let (join, committed) = (self.fold.cols[ci].join, self.committed);
            self.fold.cols[ci].join = self.column(ci).push(row, committed, join, raw);
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
        let (rows, committed) = (self.fold.entries, self.committed);
        for (theirs, mut cells) in chunk.fold.cols.into_iter().zip(chunk.cols) {
            let their_join = theirs.join;
            let (ci, was) = self.fold.absorb(theirs);
            let join = self.fold.cols[ci].join;
            cells.widen(their_join, join, 0);
            let col = self.column(ci);
            col.widen(was, join, committed);
            if holds_values(join) {
                col.values.resize(rows - committed, Value::Null);
                col.values.append(&mut cells.values);
            }
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

    /// Hands out the rows that came in since the last call, column by
    /// column under the schema as it stands, and counts them committed. A
    /// column at `Text` — the top of the lattice: no later cell can re-type
    /// it — lets the text of every committed row go; any other column keeps
    /// it for [`retype`](RawColumns::retype).
    pub(crate) fn take_new(&mut self) -> Vec<Vec<Value>> {
        let (rows, committed) = (self.fold.entries, self.committed);
        let mut columns = Vec::with_capacity(self.cols.len());
        for (col, raw) in self.fold.cols.iter().zip(&mut self.cols) {
            // A column with no non-null cell yet loads as Text: its cells
            // verbatim, `-` and padding included.
            columns.push(if holds_values(col.join) {
                raw.values.resize(rows - committed, Value::Null);
                std::mem::take(&mut raw.values)
            } else {
                raw.text_cells(committed..rows)
            });
            if col.join == ColumnType::Text {
                raw.text.clear();
                raw.ends.clear();
                raw.released = rows;
            }
        }
        self.committed = rows;
        columns
    }

    /// Types the committed rows of column `ci` again, under its type as it
    /// stands now: what a table that loaded them under a narrower type — or
    /// before the column existed, all absent — migrates to.
    ///
    /// # Errors
    ///
    /// [`TransformError::BadCell`] if a cell fails to load as the type
    /// inferred for its column; [`TransformError::SchemaInference`] if the
    /// column let that text go.
    pub(crate) fn retype(&mut self, table: &str, ci: usize) -> Result<Vec<Value>, TransformError> {
        self.cols[ci].retyped(table, &self.fold.cols[ci], 0..self.committed)
    }

    /// Hands out every row not yet handed out — for a sink that was only
    /// ever filled, every row — with the schema they load under.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the warehouse rejects the
    /// column set.
    pub(crate) fn finish(mut self) -> Result<TypedColumns, TransformError> {
        let schema = self.fold.schema()?;
        let rows = self.fold.entries - self.committed;
        let columns = self.take_new();
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
/// names (ambiguous annotation).
pub fn convert_xml(docs: &[XmlNode]) -> Result<ConvertedTable, TransformError> {
    let mut sink = RawColumns::default();
    for doc in docs {
        let source = doc.get_attr("source").unwrap_or("?");
        for entry in doc.children.iter().filter(|c| c.name == "entry") {
            let fields = entry.children.iter();
            sink.entry(source, fields.map(|f| (f.name.as_str(), f.text.as_str())))?;
        }
    }
    let typed = sink.finish()?;
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
        // Missing cells are typed nulls.
        assert_eq!(
            out.rows[1],
            vec![Value::Int(2), Value::Null, Value::Float(3.5)]
        );
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
        // The importer loads them verbatim too.
        let mut db = mscope_db::Database::new();
        crate::import_rows(&mut db, "t", &out.schema, out.rows.clone()).unwrap();
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

    #[test]
    fn overflowing_wallclock_cell_loads_as_text() {
        let d = doc(vec![
            entry(&[("t", "00:00:01.000000")]),
            entry(&[("t", "6000000000:00:00")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Text);
        assert_eq!(out.rows[1][0], Value::Text("6000000000:00:00".into()));
    }

    /// Cells at and beside the edges of each parser and of the lattice.
    const HOSTILE: &[&str] = &[
        "+5",
        "-0",
        " 42 ",
        "9007199254740991",
        "9007199254740993",
        "9223372036854775807",
        "-9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "1e999",
        "inf",
        "NaN",
        "2.5",
        "00:61:00",
        "12",
        "6000000000:00:00",
        "TRUE",
    ];

    /// One raw cell of a column whose cells are mostly of `kind`.
    fn raw_cell(g: &mut mscope_sim::prop::Gen, kind: usize) -> String {
        let kind = match g.usize(0..=9) {
            0 => return "-".into(),
            1 => return String::new(),
            2 => return g.choose(HOSTILE).into(),
            3 => g.usize(0..=4),
            _ => kind,
        };
        match kind {
            0 => format!(" {} ", g.i64(-50..=5000)),
            1 => format!("{:.3}", g.f64(0.0..90.0)),
            2 => format!("00:00:{:02}.{:06}", g.u64(0..=59), g.u64(0..=999_999)),
            // A request ID: decimal until the first hex letter.
            3 => format!("{:08x}", g.u64(0..=0xffff)),
            _ => format!("tx {}", g.ident(3)),
        }
    }

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

    /// Entries over [`NAMES`], each column mostly of one kind, each field
    /// present seven times in ten.
    fn arb_entries(g: &mut mscope_sim::prop::Gen) -> Vec<Vec<(&'static str, String)>> {
        let kinds: Vec<usize> = NAMES.iter().map(|_| g.usize(0..=4)).collect();
        g.vec(1..=40, |g| {
            let mut fields = Vec::new();
            for (name, &kind) in NAMES.iter().zip(&kinds) {
                if g.usize(0..=9) < 7 {
                    fields.push((*name, raw_cell(g, kind)));
                }
            }
            fields
        })
    }

    fn feed(sink: &mut RawColumns, e: &[(&str, String)]) -> Result<(), String> {
        sink.entry("t.log", e.iter().map(|(k, v)| (*k, v.as_str())))
            .map_err(|e| e.to_string())
    }

    /// The fold the sink replaced: every cell's ladder type joined into its
    /// column's, then every cell typed under the final join by
    /// [`parse_cell`] — the oracle for reading each cell once.
    fn ladder_then_parse_cell(
        entries: &[Vec<(&str, String)>],
    ) -> Result<(Vec<Column>, Vec<Vec<Value>>), TransformError> {
        let mut cols: Vec<Column> = Vec::new();
        for e in entries {
            for (name, raw) in e {
                let ty = normalize_cell(raw).map_or(ColumnType::Null, Value::infer_type);
                match cols.iter_mut().find(|c| c.name == *name) {
                    Some(c) => c.ty = c.ty.unify(ty),
                    None => cols.push(Column::new(*name, ty)),
                }
            }
        }
        let mut columns = Vec::with_capacity(cols.len());
        for col in &mut cols {
            if col.ty == ColumnType::Null {
                col.ty = ColumnType::Text;
            }
            let cell = |e: &Vec<(&str, String)>| {
                let raw = e
                    .iter()
                    .find(|(k, _)| *k == col.name)
                    .map_or("", |(_, v)| v);
                parse_cell("t", &col.name, col.ty, raw)
            };
            columns.push(entries.iter().map(cell).collect::<Result<_, _>>()?);
        }
        Ok((cols, columns))
    }

    #[test]
    fn one_read_sink_is_ladder_then_parse_cell() {
        mscope_sim::prop::forall("one-read sink is ladder then parse_cell", 1000, |g| {
            let entries = arb_entries(g);
            let mut sink = RawColumns::default();
            for e in &entries {
                feed(&mut sink, e)?;
            }
            let got = sink.finish().map_err(|e| e.to_string())?;
            let (cols, want) = ladder_then_parse_cell(&entries).map_err(|e| e.to_string())?;
            mscope_sim::prop_ensure!(got.schema.columns() == cols, "{}", got.schema);
            // Debug text: `-0.0` and `0.0` are equal floats.
            mscope_sim::prop_ensure!(
                format!("{:?}", got.columns) == format!("{want:?}"),
                "{:?} vs {want:?}",
                got.columns
            );
            Ok(())
        });
    }

    /// Drives a sink the way the streaming driver does — chunk-local sinks
    /// appended in order, `take_new` at the flush points, a stand-in table
    /// migrated with `retype` when the schema moved — and holds the result
    /// to the one-shot `finish` over the same entries.
    #[test]
    fn incremental_typing_is_one_shot_finish() {
        use std::cell::Cell;
        // (0) a released column took more rows, (1) a new column arrived
        // after a release, (2) a committed column widened, (3) from Int to
        // Float, (4) from Int to Text, (5) a Float column met a cell that
        // reads as a non-finite f64.
        let reached: [Cell<usize>; 6] = Default::default();
        let hit = |case: usize| reached[case].set(reached[case].get() + 1);
        mscope_sim::prop::forall("incremental typing is one-shot finish", 300, |g| {
            let entries = arb_entries(g);
            let mut whole = RawColumns::default();
            for e in &entries {
                for (name, raw) in e {
                    let join = whole.fold.cols.iter().find(|c| c.name == *name);
                    let non_finite = raw.trim().parse::<f64>().is_ok_and(|f| !f.is_finite());
                    if non_finite && join.is_some_and(|c| c.join == ColumnType::Float) {
                        hit(5);
                    }
                }
                feed(&mut whole, e)?;
            }
            let want = whole.finish().map_err(|e| e.to_string())?;

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
                                Some(oi) if sink.committed() > 0 => {
                                    hit(2);
                                    match (was.columns()[oi].ty, col.ty) {
                                        (ColumnType::Int, ColumnType::Float) => hit(3),
                                        (ColumnType::Int, ColumnType::Text) => hit(4),
                                        _ => {}
                                    }
                                }
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
                for (cells, new) in cols.iter_mut().zip(sink.take_new()) {
                    cells.extend(new);
                }
            }
            let (schema, cols) = table.ok_or("no flush")?;
            mscope_sim::prop_ensure!(schema == want.schema, "{schema} vs {}", want.schema);
            mscope_sim::prop_ensure!(sink.committed() == want.rows, "rows");
            // Debug text: a NaN cell is not equal to itself, and `-0.0`
            // equals `0.0`.
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
    fn commas_in_text_survive_verbatim() {
        let d = doc(vec![entry(&[("sql", "SELECT a,b FROM t ")])]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::Text("SELECT a,b FROM t ".into())]]
        );
    }
}
