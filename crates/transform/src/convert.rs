//! mScope XMLtoCSV Converter (paper §III-B3): turns annotated XML into an
//! inferred schema plus typed rows, separating the parsers' data annotation
//! from warehouse schema creation.
//!
//! Schema inference is bottom-up exactly as described: the column set is
//! the **union** of all tags appearing in any entry (first-appearance
//! order), and each column's type is the **narrowest** type in the lattice
//! that admits every observed value.
//!
//! Historically this stage emitted CSV text that the importer immediately
//! re-parsed. The conversion now goes straight to typed [`Value`] rows —
//! every cell is classified once, by [`normalize_cell`], for both
//! inference and loading — and CSV is an on-demand *export* artifact
//! ([`ConvertedTable::to_csv`]) that round-trips losslessly through
//! [`import_csv`](crate::import_csv).

use crate::csv::write_csv;
use crate::error::TransformError;
use crate::import::{normalize_cell, parse_cell};
use crate::xml::XmlNode;
use mscope_db::{Column, ColumnType, Schema, Value};

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
pub(crate) struct SchemaFold {
    cols: Vec<FoldColumn>,
    entries: usize,
}

/// One column of a [`SchemaFold`].
#[derive(Debug)]
pub(crate) struct FoldColumn {
    pub(crate) name: String,
    /// Join of the value types seen so far; `Null` while no non-null value
    /// has been seen.
    pub(crate) join: ColumnType,
    /// Ordinal of the last entry that carried this field.
    last_entry: usize,
}

impl FoldColumn {
    /// The warehouse type: a column never observed with a non-null value is
    /// widened to `Text`, so the warehouse can hold whatever later loads
    /// bring.
    pub(crate) fn ty(&self) -> ColumnType {
        match self.join {
            ColumnType::Null => ColumnType::Text,
            t => t,
        }
    }
}

impl SchemaFold {
    /// Folds one entry's `(field, raw value)` pairs in; `owner` names the
    /// entry's origin in the error.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if a field repeats within the
    /// entry (ambiguous annotation).
    pub(crate) fn observe<'a>(
        &mut self,
        owner: &str,
        fields: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), TransformError> {
        self.entries += 1;
        for (name, raw) in fields {
            // The same trim/null rules the importer applies: a cell the
            // importer would load as Null must not widen the column.
            let vt = match normalize_cell(raw) {
                None => ColumnType::Null,
                Some(t) => Value::infer(t).column_type(),
            };
            match self.cols.iter_mut().find(|c| c.name == name) {
                Some(c) if c.last_entry == self.entries => {
                    return Err(TransformError::SchemaInference(format!(
                        "duplicate field `{name}` within one entry of `{owner}`"
                    )));
                }
                Some(c) => {
                    c.join = c.join.unify(vt);
                    c.last_entry = self.entries;
                }
                // perf: one owned name per *distinct* column, not per field.
                None => self.cols.push(FoldColumn {
                    name: name.to_string(),
                    join: vt,
                    last_entry: self.entries,
                }),
            }
        }
        Ok(())
    }

    /// Entries folded so far.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// The columns, in first-appearance order.
    pub(crate) fn columns(&self) -> &[FoldColumn] {
        &self.cols
    }

    /// The schema the entries folded so far load under.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the warehouse rejects the
    /// column set.
    pub(crate) fn schema(&self) -> Result<Schema, TransformError> {
        Schema::new(
            self.cols
                .iter()
                .map(|c| Column::new(c.name.clone(), c.ty()))
                .collect(),
        )
        .map_err(|e| TransformError::SchemaInference(e.to_string()))
    }
}

/// Converts one or more annotated `<log>` documents (all destined for the
/// same table) into an inferred schema and typed rows.
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
/// inconsistent pipeline — cannot happen when inference and loading share
/// [`normalize_cell`], but never loads silently-wrong data).
pub fn convert_xml(docs: &[XmlNode]) -> Result<ConvertedTable, TransformError> {
    // Pass 1: the schema fold over every entry of every document.
    let mut fold = SchemaFold::default();
    for doc in docs {
        let source = doc.get_attr("source").unwrap_or("?");
        for entry in doc.children.iter().filter(|c| c.name == "entry") {
            let fields = entry.children.iter();
            fold.observe(source, fields.map(|f| (f.name.as_str(), f.text.as_str())))?;
        }
    }
    let schema = fold.schema()?;

    // Pass 2: typed rows, through the exact cell rules the CSV importer
    // uses, so the direct and export paths are value-identical.
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(fold.entries());
    for doc in docs {
        let source = doc.get_attr("source").unwrap_or("?");
        for entry in doc.children.iter().filter(|c| c.name == "entry") {
            let row = schema
                .columns()
                .iter()
                .map(|c| match entry.find(&c.name) {
                    Some(f) => parse_cell(source, &c.name, c.ty, &f.text),
                    None => Ok(Value::Null),
                })
                .collect::<Result<Vec<Value>, _>>()?;
            rows.push(row);
        }
    }
    Ok(ConvertedTable { schema, rows })
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

    #[test]
    fn csv_export_quotes_commas_in_text() {
        let d = doc(vec![entry(&[("sql", "SELECT a,b FROM t ")])]);
        let out = convert_xml(&[d]).unwrap();
        assert!(out.to_csv().contains("\"SELECT a,b FROM t \""));
    }
}
