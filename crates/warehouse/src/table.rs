//! Schemas and columnar tables.

use crate::engine::{self, Side, SideCol, TableIndex, DEFAULT_BLOCK_ROWS};
use crate::value::{ColumnType, Value};
use crate::{DbError, KeyIndex};
use std::fmt;
use std::sync::OnceLock;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type per the inference lattice.
    pub ty: ColumnType,
}
mscope_serdes::json_struct!(Column { name, ty });

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}
mscope_serdes::json_struct!(Schema { columns });

impl Schema {
    /// Builds a schema from columns.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::DuplicateColumn`] if two columns share a name.
    pub fn new(columns: Vec<Column>) -> Result<Schema, DbError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(DbError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// A schema written out in this crate's source (the static metadata
    /// tables, `describe`, `EXPLAIN`): the names are distinct by
    /// inspection, so construction cannot fail.
    pub(crate) fn fixed(columns: &[(&str, ColumnType)]) -> Schema {
        debug_assert!(columns
            .iter()
            .enumerate()
            .all(|(i, c)| columns[..i].iter().all(|p| p.0 != c.0)));
        Schema {
            columns: columns.iter().map(|&(n, ty)| Column::new(n, ty)).collect(),
        }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Widens `column`'s type to also admit `ty` (lattice join); adds the
    /// column with type `ty` if it does not exist. Returns the column index.
    pub fn accommodate(&mut self, name: &str, ty: ColumnType) -> usize {
        match self.index_of(name) {
            Some(i) => {
                self.columns[i].ty = self.columns[i].ty.unify(ty);
                i
            }
            None => {
                self.columns.push(Column::new(name, ty));
                self.columns.len() - 1
            }
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

/// A columnar table: the unit of storage in mScopeDB.
///
/// # Examples
///
/// ```
/// use mscope_db::{Column, ColumnType, Schema, Table, Value};
///
/// let schema = Schema::new(vec![
///     Column::new("t", ColumnType::Int),
///     Column::new("util", ColumnType::Float),
/// ])?;
/// let mut table = Table::new("disk", schema);
/// table.push_row(vec![Value::Int(0), Value::Float(12.5)])?;
/// table.push_row(vec![Value::Int(50), Value::Float(99.0)])?;
/// assert_eq!(table.row_count(), 2);
/// # Ok::<(), mscope_db::DbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Column-major storage; all columns have equal length.
    cols: Vec<Vec<Value>>,
    /// Zone maps + sorted flags, maintained incrementally on append.
    /// Derived from `cols` — excluded from equality and serialization.
    index: TableIndex,
    /// One kept [`KeyIndex`] slot per column, filled by the first join,
    /// equality filter or flow reconstruction that probes the column and
    /// emptied by every writer. Writers take `&mut self`, so no reader can
    /// hold an index across a write. The slots themselves are made on
    /// first use, so a table nothing probes — a query result — allocates
    /// none. Derived like `index`.
    keys: OnceLock<Vec<OnceLock<KeyIndex>>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.name == other.name && self.schema == other.schema && self.cols == other.cols
    }
}

// Hand-written (not `json_struct!`) because `index` is derived state:
// the wire format stays exactly `{name, schema, cols}` and the index is
// rebuilt on load.
impl mscope_serdes::ToJson for Table {
    fn to_json(&self) -> mscope_serdes::Json {
        mscope_serdes::Json::Obj(vec![
            (
                "name".to_string(),
                mscope_serdes::ToJson::to_json(&self.name),
            ),
            (
                "schema".to_string(),
                mscope_serdes::ToJson::to_json(&self.schema),
            ),
            (
                "cols".to_string(),
                mscope_serdes::ToJson::to_json(&self.cols),
            ),
        ])
    }
}

impl mscope_serdes::FromJson for Table {
    fn from_json(v: &mscope_serdes::Json) -> Result<Self, mscope_serdes::JsonError> {
        let name: String = mscope_serdes::field(v, "name")?;
        let schema: Schema = mscope_serdes::field(v, "schema")?;
        let cols: Vec<Vec<Value>> = mscope_serdes::field(v, "cols")?;
        let index = TableIndex::build(&schema, &cols, DEFAULT_BLOCK_ROWS);
        Ok(Table {
            name,
            keys: OnceLock::new(),
            schema,
            cols,
            index,
        })
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let cols = vec![Vec::new(); schema.len()];
        let index = TableIndex::new(&schema, DEFAULT_BLOCK_ROWS);
        Table {
            name: name.into(),
            keys: OnceLock::new(),
            schema,
            cols,
            index,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// The error for a cell its column does not admit.
    fn mismatch(&self, c: &Column, v: &Value) -> DbError {
        DbError::TypeMismatch {
            table: self.name.clone(),
            column: c.name.clone(),
            expected: c.ty,
            got: v.column_type(),
        }
    }

    /// The check every row passes before it is appended: the schema's width,
    /// and each value admitted by its column's type.
    fn check_row(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.schema.len() {
            return Err(DbError::Arity {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !c.ty.admits(v.column_type()) {
                return Err(self.mismatch(c, v));
            }
        }
        Ok(())
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// [`DbError::Arity`] if the row width differs from the schema;
    /// [`DbError::TypeMismatch`] if a value is not admitted by its column's
    /// type.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        self.check_row(&row)?;
        self.drop_key_indexes();
        for (ci, (col, v)) in self.cols.iter_mut().zip(row).enumerate() {
            self.index.note(ci, col.last(), &v);
            col.push(v);
        }
        Ok(())
    }

    /// Appends a batch of rows all-or-nothing: every row is validated
    /// (arity and column types) *before* anything is appended, then the
    /// columns are extended in one pass with storage reserved up front.
    /// Returns the number of rows appended.
    ///
    /// This is the bulk-load path the Data Importer uses: one schema walk
    /// per batch instead of one per row, and no partially loaded table on
    /// error.
    ///
    /// # Errors
    ///
    /// [`DbError::Arity`] or [`DbError::TypeMismatch`] for the first
    /// offending row; the table is unchanged in that case.
    pub fn push_batch(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        for row in &rows {
            self.check_row(row)?;
        }
        let n = rows.len();
        self.drop_key_indexes();
        for col in &mut self.cols {
            col.reserve(n);
        }
        for row in rows {
            for (ci, (col, v)) in self.cols.iter_mut().zip(row).enumerate() {
                self.index.note(ci, col.last(), &v);
                col.push(v);
            }
        }
        Ok(n)
    }

    /// Appends whole columns all-or-nothing — [`Table::push_batch`] for a
    /// producer that already holds its cells column-major (the batch
    /// transformer types one column at a time), with no row vectors and no
    /// transpose. `cols[i]` extends schema column `i`; every column must
    /// carry the same number of cells, one per appended row. Validation
    /// and the zone-map / sorted-flag bookkeeping are the ones
    /// `push_batch` applies, so the table ends up in the same state either
    /// way; an empty table takes ownership of each column instead of
    /// copying it. Returns the number of rows appended (a table with no
    /// columns holds no rows).
    ///
    /// # Errors
    ///
    /// [`DbError::Arity`] when the number of columns differs from the
    /// schema's, or when a column's length differs from the first's
    /// (`expected` and `got` are then cell counts); [`DbError::TypeMismatch`]
    /// for the first cell, column by column, that its column does not
    /// admit. The table is unchanged in every case.
    pub fn push_columns(&mut self, cols: Vec<Vec<Value>>) -> Result<usize, DbError> {
        let arity = |expected, got| DbError::Arity {
            table: self.name.clone(),
            expected,
            got,
        };
        if cols.len() != self.schema.len() {
            return Err(arity(self.schema.len(), cols.len()));
        }
        let n = cols.first().map_or(0, Vec::len);
        for (col, c) in cols.iter().zip(self.schema.columns()) {
            if col.len() != n {
                return Err(arity(n, col.len()));
            }
            if let Some(v) = col.iter().find(|v| !c.ty.admits(v.column_type())) {
                return Err(self.mismatch(c, v));
            }
        }
        self.drop_key_indexes();
        for (ci, (stored, col)) in self.cols.iter_mut().zip(cols).enumerate() {
            let mut prev = stored.last();
            for v in &col {
                self.index.note(ci, prev, v);
                prev = Some(v);
            }
            if stored.is_empty() {
                *stored = col;
            } else {
                stored.extend(col);
            }
        }
        Ok(n)
    }

    /// A full column by name.
    pub fn column(&self, name: &str) -> Option<&[Value]> {
        self.schema.index_of(name).map(|i| self.cols[i].as_slice())
    }

    /// One cell.
    pub fn cell(&self, row: usize, col: &str) -> Option<&Value> {
        let ci = self.schema.index_of(col)?;
        self.cols[ci].get(row)
    }

    /// Materializes row `i` (clones the values).
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        if i >= self.row_count() {
            return None;
        }
        Some(self.cols.iter().map(|c| c[i].clone()).collect())
    }

    /// Iterates over materialized rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.row_count()).map(|i| self.cols.iter().map(|c| c[i].clone()).collect())
    }

    /// Builds a new table with the same schema containing the given row
    /// indices (used by the query layer).
    pub(crate) fn gather(&self, name: &str, rows: &[usize]) -> Table {
        let cols = engine::gather(&self.side_cols(Side::Left), rows, 1);
        let index = TableIndex::build(&self.schema, &cols, self.index.block_rows());
        Table {
            name: name.to_string(),
            keys: OnceLock::new(),
            schema: self.schema.clone(),
            cols,
            index,
        }
    }

    /// Internal constructor from parts (query layer).
    pub(crate) fn from_parts(name: String, schema: Schema, cols: Vec<Vec<Value>>) -> Table {
        debug_assert_eq!(schema.len(), cols.len());
        debug_assert!(cols.windows(2).all(|w| w[0].len() == w[1].len()));
        let index = TableIndex::build(&schema, &cols, DEFAULT_BLOCK_ROWS);
        Table {
            name,
            keys: OnceLock::new(),
            schema,
            cols,
            index,
        }
    }

    /// Every column, tagged as `side` of a row space (query engine's
    /// gather input).
    pub(crate) fn side_cols(&self, side: Side) -> Vec<SideCol<'_>> {
        self.cols.iter().map(|c| (side, c.as_slice())).collect()
    }

    /// Column `ci` by index (query engine's typed-slice access).
    pub(crate) fn col(&self, ci: usize) -> &[Value] {
        &self.cols[ci]
    }

    /// The table's block metadata (zone maps + sorted flags).
    pub(crate) fn table_index(&self) -> &TableIndex {
        &self.index
    }

    /// The kept [`KeyIndex`] over column `ci`, built on the first call
    /// after the table was created or last written.
    pub(crate) fn key_index_at(&self, ci: usize) -> &KeyIndex {
        let slots = self.keys.get_or_init(|| {
            std::iter::repeat_with(OnceLock::new)
                .take(self.cols.len())
                .collect()
        });
        slots[ci].get_or_init(|| KeyIndex::build(&self.cols[ci]))
    }

    /// The kept [`KeyIndex`] over column `col` (`None` if the column is
    /// missing), probed with that column ([`Table::column`]). It is built
    /// on the first call and kept until the table is next written, so
    /// repeated joins, equality filters and flow reconstructions over an
    /// unchanged table hash it once.
    pub fn key_index(&self, col: &str) -> Option<&KeyIndex> {
        self.schema.index_of(col).map(|ci| self.key_index_at(ci))
    }

    /// Drops every kept key index — the first step of each writer.
    fn drop_key_indexes(&mut self) {
        self.keys.take();
    }

    /// Rebuilds the block metadata with `block_rows` rows per zone-map
    /// block (clamped to ≥ 1). Queries are result-identical for any block
    /// size; this is a tuning/testing knob — the default is
    /// [`DEFAULT_BLOCK_ROWS`](crate::DEFAULT_BLOCK_ROWS).
    pub fn reindex(&mut self, block_rows: usize) {
        self.drop_key_indexes();
        self.index = TableIndex::build(&self.schema, &self.cols, block_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("b", ColumnType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(vec![
            Column::new("x", ColumnType::Int),
            Column::new("x", ColumnType::Text),
        ])
        .unwrap_err();
        assert!(matches!(err, DbError::DuplicateColumn(_)));
    }

    #[test]
    fn schema_accommodate_widens_and_appends() {
        let mut s = schema2();
        assert_eq!(s.accommodate("a", ColumnType::Float), 0);
        assert_eq!(s.columns()[0].ty, ColumnType::Float);
        assert_eq!(s.accommodate("c", ColumnType::Bool), 2);
        assert_eq!(s.len(), 3);
        // Text is sticky (top of lattice).
        s.accommodate("b", ColumnType::Int);
        assert_eq!(s.columns()[1].ty, ColumnType::Text);
    }

    #[test]
    fn push_and_read_rows() {
        let mut t = Table::new("t", schema2());
        t.push_row(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Text("y".into())])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, "a"), Some(&Value::Int(1)));
        assert_eq!(
            t.cell(1, "a"),
            Some(&Value::Null),
            "null admitted everywhere"
        );
        assert_eq!(t.column("b").unwrap().len(), 2);
        assert_eq!(t.row(1).unwrap()[1], Value::Text("y".into()));
        assert_eq!(t.row(5), None);
        assert_eq!(t.iter_rows().count(), 2);
    }

    #[test]
    fn push_batch_is_all_or_nothing() {
        let mut t = Table::new("t", schema2());
        let n = t
            .push_batch(vec![
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Null, Value::Text("y".into())],
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.row_count(), 2);
        // A bad row anywhere in the batch leaves the table untouched.
        let err = t.push_batch(vec![
            vec![Value::Int(2), Value::Text("z".into())],
            vec![Value::Float(0.5), Value::Text("w".into())],
        ]);
        assert!(matches!(err, Err(DbError::TypeMismatch { .. })));
        assert_eq!(t.row_count(), 2, "nothing half-loaded");
        assert!(matches!(
            t.push_batch(vec![vec![Value::Int(3)]]),
            Err(DbError::Arity { .. })
        ));
        assert_eq!(t.push_batch(Vec::new()).unwrap(), 0);
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = Table::new("t", schema2());
        assert!(matches!(
            t.push_row(vec![Value::Int(1)]),
            Err(DbError::Arity { .. })
        ));
        assert!(matches!(
            t.push_row(vec![Value::Float(1.5), Value::Text("x".into())]),
            Err(DbError::TypeMismatch { .. })
        ));
        // Int into a Float column is fine.
        let mut t2 = Table::new(
            "t2",
            Schema::new(vec![Column::new("f", ColumnType::Float)]).unwrap(),
        );
        t2.push_row(vec![Value::Int(3)]).unwrap();
    }

    #[test]
    fn schema_display() {
        assert_eq!(schema2().to_string(), "(a int, b text)");
    }
}

impl Table {
    /// Renders the table as aligned text for terminals: header row,
    /// separator, then up to `max_rows` data rows (0 = all), with a
    /// truncation note if rows were omitted.
    pub fn render_text(&self, max_rows: usize) -> String {
        let headers: Vec<String> = self
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let shown = if max_rows == 0 {
            self.row_count()
        } else {
            self.row_count().min(max_rows)
        };
        let rendered: Vec<Vec<String>> = (0..shown)
            .map(|i| self.cols.iter().map(|c| c[i].render()).collect())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        use std::fmt::Write as _;
        let line_width: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 1;
        let mut out = String::with_capacity(line_width * (shown + 3));
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        };
        write_row(&mut out, &headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&mut out, &sep);
        for row in &rendered {
            write_row(&mut out, row);
        }
        if shown < self.row_count() {
            let _ = writeln!(out, "… {} more rows", self.row_count() - shown);
        }
        out
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn render_text_aligns_and_truncates() {
        let schema = Schema::new(vec![
            Column::new("node", ColumnType::Text),
            Column::new("util", ColumnType::Float),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..5 {
            t.push_row(vec![
                Value::Text(format!("tier{i}-0")),
                Value::Float(i as f64 * 10.0),
            ])
            .unwrap();
        }
        let text = t.render_text(3);
        assert!(text.starts_with("   node  util\n"));
        assert!(text.contains("-----"));
        assert!(text.contains("… 2 more rows"));
        assert_eq!(text.lines().count(), 2 + 3 + 1);
        let full = t.render_text(0);
        assert!(!full.contains("more rows"));
        assert_eq!(full.lines().count(), 2 + 5);
    }
}

impl Table {
    /// Per-column exploration summary: a new table with one row per column
    /// of `self`, listing type, row count, nulls, distinct values, and (for
    /// numeric columns) min/max/mean — the first thing a researcher asks of
    /// an unfamiliar monitor table.
    pub fn describe(&self) -> Table {
        let schema = Schema::fixed(&[
            ("column", ColumnType::Text),
            ("type", ColumnType::Text),
            ("rows", ColumnType::Int),
            ("nulls", ColumnType::Int),
            ("distinct", ColumnType::Int),
            ("min", ColumnType::Float),
            ("max", ColumnType::Float),
            ("mean", ColumnType::Float),
        ]);
        let mut out: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
        for (col, values) in self.schema.columns().iter().zip(&self.cols) {
            let nulls = values.iter().filter(|v| v.is_null()).count();
            let distinct = {
                let mut keys: Vec<crate::value::ValueKey> = values.iter().map(Value::key).collect();
                // perf: one sort per described column — distinct-counting
                // needs any total order, and `ValueKey: Ord` is direct.
                keys.sort_unstable();
                keys.dedup();
                keys.len()
            };
            // Single streaming pass over the numeric view — no
            // intermediate `Vec<f64>`; fold order matches the old
            // collect-then-fold shape bit for bit (row order).
            let (mut n, mut sum) = (0usize, 0.0f64);
            let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in values.iter().filter_map(Value::as_f64) {
                n += 1;
                sum += v;
                mn = mn.min(v);
                mx = mx.max(v);
            }
            let (min, max, mean) = if n == 0 {
                (Value::Null, Value::Null, Value::Null)
            } else {
                (
                    Value::Float(mn),
                    Value::Float(mx),
                    Value::Float(sum / n as f64),
                )
            };
            // perf: describe emits one owned row of cells per column —
            // bounded by schema width, never by row count.
            let cells = [
                Value::Text(col.name.clone()),
                Value::Text(col.ty.to_string()),
                Value::Int(values.len() as i64),
                Value::Int(nulls as i64),
                Value::Int(distinct as i64),
                min,
                max,
                mean,
            ];
            for (o, cell) in out.iter_mut().zip(cells) {
                o.push(cell);
            }
        }
        Table::from_parts(format!("{}_describe", self.name), schema, out)
    }
}

#[cfg(test)]
mod describe_tests {
    use super::*;

    #[test]
    fn describe_summarizes_each_column() {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Int),
            Column::new("name", ColumnType::Text),
        ])
        .unwrap();
        let mut t = Table::new("m", schema);
        for i in 0..10 {
            t.push_row(vec![
                Value::Int(i),
                if i % 2 == 0 {
                    Value::Text("a".into())
                } else {
                    Value::Null
                },
            ])
            .unwrap();
        }
        let d = t.describe();
        assert_eq!(d.row_count(), 2);
        assert_eq!(d.cell(0, "column"), Some(&Value::Text("t".into())));
        assert_eq!(d.cell(0, "rows"), Some(&Value::Int(10)));
        assert_eq!(d.cell(0, "nulls"), Some(&Value::Int(0)));
        assert_eq!(d.cell(0, "distinct"), Some(&Value::Int(10)));
        assert_eq!(d.cell(0, "min"), Some(&Value::Float(0.0)));
        assert_eq!(d.cell(0, "max"), Some(&Value::Float(9.0)));
        assert_eq!(d.cell(0, "mean"), Some(&Value::Float(4.5)));
        // The text column: 5 nulls, 2 distinct (text + null), no numerics.
        assert_eq!(d.cell(1, "nulls"), Some(&Value::Int(5)));
        assert_eq!(d.cell(1, "distinct"), Some(&Value::Int(2)));
        assert_eq!(d.cell(1, "min"), Some(&Value::Null));
    }

    #[test]
    fn describe_empty_table() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Float)]).unwrap();
        let d = Table::new("empty", schema).describe();
        assert_eq!(d.row_count(), 1);
        assert_eq!(d.cell(0, "rows"), Some(&Value::Int(0)));
        assert_eq!(d.cell(0, "distinct"), Some(&Value::Int(0)));
    }
}
