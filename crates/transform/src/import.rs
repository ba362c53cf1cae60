//! mScope Data Importer (paper §III-B3, final stage): creates warehouse
//! tables from inferred schemas and loads the tuples.
//!
//! Every load is **typed**: no path re-reads text it already typed. The
//! batch driver hands the sink's typed columns to
//! [`Database::insert_columns`] as they are; [`import_rows`] is the same
//! load for the row-major output of [`convert_xml`](crate::convert_xml)
//! ([`Database::insert_batch`]), whose cells the same [`parse_cell`] rules
//! typed, so both paths load identical values.

use crate::error::TransformError;
use mscope_db::{ColumnType, Database, Schema, Value};

/// The one shared cell-normalization rule for *typed* (non-text) columns:
/// trims whitespace and maps an empty or `-` cell to `None` (the
/// SAR/IOstat "no sample" marker). Schema inference and cell loading both
/// route through this function, so the types inferred from a cell are
/// provably the types its loaded value carries.
///
/// Text columns deliberately do **not** use this at load time — a
/// legitimate `-` or padded string in a text column must load verbatim
/// (see [`parse_cell`]).
pub fn normalize_cell(raw: &str) -> Option<&str> {
    // A cell that starts and ends in a visible ASCII character has no
    // whitespace to trim: the common case skips the char-wise scan.
    let visible = |b: Option<&u8>| b.is_some_and(u8::is_ascii_graphic);
    let bytes = raw.as_bytes();
    let t = if visible(bytes.first()) && visible(bytes.last()) {
        raw
    } else {
        raw.trim()
    };
    if t.is_empty() || t == "-" {
        None
    } else {
        Some(t)
    }
}

/// Parses a raw cell into a value of the column's inferred type.
///
/// For numeric / timestamp / bool columns the cell is first routed through
/// [`normalize_cell`]: whitespace is trimmed and empty / `-` loads as
/// [`Value::Null`], matching the SAR and IOstat "no sample" conventions.
/// **Text columns load verbatim** — only a fully empty cell (how the sink
/// holds a missing field) becomes Null; `-`, padding, and interior
/// whitespace are all real data and are preserved exactly.
///
/// # Errors
///
/// [`TransformError::BadCell`] when the text cannot be read as the type —
/// the schema was inferred from this very data, so a failure here means the
/// pipeline is internally inconsistent and must not load silently-wrong
/// numbers.
pub fn parse_cell(
    table: &str,
    column: &str,
    ty: ColumnType,
    raw: &str,
) -> Result<Value, TransformError> {
    if let ColumnType::Null | ColumnType::Text = ty {
        return Ok(text_cell(raw));
    }
    let Some(t) = normalize_cell(raw) else {
        return Ok(Value::Null);
    };
    read_scalar(ty, t).ok_or_else(|| TransformError::BadCell {
        table: table.to_string(),
        column: column.to_string(),
        value: raw.to_string(),
        expected: ty,
    })
}

/// A raw cell loaded into a text column: verbatim, and Null only when it
/// is empty (how the sink holds a missing field).
pub(crate) fn text_cell(raw: &str) -> Value {
    if raw.is_empty() {
        Value::Null
    } else {
        Value::Text(raw.to_string())
    }
}

/// A normalized cell read as a value of the scalar type `ty` — the one
/// parser each type names, shared by [`parse_cell`] and the converter's
/// sink. `None` if `t` does not read as `ty`, or `ty` is not a scalar
/// type.
pub(crate) fn read_scalar(ty: ColumnType, t: &str) -> Option<Value> {
    match ty {
        ColumnType::Null | ColumnType::Text => None,
        ColumnType::Bool => match t {
            "true" | "TRUE" | "True" => Some(Value::Bool(true)),
            "false" | "FALSE" | "False" => Some(Value::Bool(false)),
            _ => None,
        },
        ColumnType::Int => t.parse().ok().map(Value::Int),
        ColumnType::Float => t.parse().ok().map(Value::Float),
        ColumnType::Timestamp => {
            mscope_sim::parse_wallclock(t).map(|ts| Value::Timestamp(ts.as_micros() as i64))
        }
    }
}

/// Creates (or verifies) the destination table and batch-loads typed rows —
/// the row-major, zero-round-trip importer path. Returns the number of
/// rows loaded; on any error nothing is loaded into the table.
///
/// # Errors
///
/// Warehouse errors: schema conflicts with an existing table, row arity or
/// type mismatches.
pub fn import_rows(
    db: &mut Database,
    table: &str,
    schema: &Schema,
    rows: Vec<Vec<Value>>,
) -> Result<usize, TransformError> {
    db.ensure_table(table, schema.clone())
        .map_err(TransformError::Db)?;
    db.insert_batch(table, rows).map_err(TransformError::Db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("t", ColumnType::Timestamp),
            Column::new("v", ColumnType::Float),
            Column::new("n", ColumnType::Text),
        ])
        .unwrap()
    }

    /// Types raw `(t, v, n)` cells with [`parse_cell`] under [`schema`] and
    /// loads them with [`import_rows`], as the sink and `convert_xml` do.
    fn load(db: &mut Database, cells: &[[&str; 3]]) -> Result<usize, TransformError> {
        let schema = schema();
        let mut rows = Vec::with_capacity(cells.len());
        for row in cells {
            let typed = row
                .iter()
                .zip(schema.columns())
                .map(|(raw, col)| parse_cell("m", &col.name, col.ty, raw))
                .collect::<Result<_, _>>()?;
            rows.push(typed);
        }
        import_rows(db, "m", &schema, rows)
    }

    #[test]
    fn loads_typed_rows() {
        let mut db = Database::new();
        let cells = [
            ["00:00:01.000000", "12.5", "apache0"],
            ["00:00:02.000000", "13.0", "apache0"],
        ];
        let n = load(&mut db, &cells).unwrap();
        assert_eq!(n, 2);
        let t = db.require("m").unwrap();
        assert_eq!(t.cell(0, "t"), Some(&Value::Timestamp(1_000_000)));
        assert_eq!(t.cell(1, "v"), Some(&Value::Float(13.0)));
    }

    #[test]
    fn numeric_nulls_load_as_null() {
        let mut db = Database::new();
        load(&mut db, &[["00:00:01.000000", "", "x"], ["-", " - ", "y"]]).unwrap();
        let t = db.require("m").unwrap();
        assert_eq!(t.cell(0, "v"), Some(&Value::Null));
        assert_eq!(t.cell(1, "t"), Some(&Value::Null));
        assert_eq!(t.cell(1, "v"), Some(&Value::Null), "padded dash is null");
    }

    #[test]
    fn text_cells_load_verbatim() {
        let mut db = Database::new();
        // `-` and padded strings are legitimate text values; only a fully
        // empty cell (a missing field) is null.
        let cells = [
            ["00:00:01.000000", "1.0", "-"],
            ["00:00:02.000000", "2.0", " x "],
            ["00:00:03.000000", "3.0", ""],
        ];
        load(&mut db, &cells).unwrap();
        let t = db.require("m").unwrap();
        assert_eq!(t.cell(0, "n"), Some(&Value::Text("-".into())));
        assert_eq!(t.cell(1, "n"), Some(&Value::Text(" x ".into())));
        assert_eq!(t.cell(2, "n"), Some(&Value::Null));
    }

    #[test]
    fn import_rows_direct_path() {
        let mut db = Database::new();
        let rows = vec![
            vec![
                Value::Timestamp(1_000_000),
                Value::Float(12.5),
                Value::Text("apache0".into()),
            ],
            vec![Value::Null, Value::Null, Value::Null],
        ];
        let n = import_rows(&mut db, "m", &schema(), rows).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.require("m").unwrap().row_count(), 2);
        // A type-mismatched batch loads nothing.
        let err = import_rows(
            &mut db,
            "m",
            &schema(),
            vec![vec![
                Value::Text("boom".into()),
                Value::Float(1.0),
                Value::Null,
            ]],
        );
        assert!(matches!(err, Err(TransformError::Db(_))));
        assert_eq!(db.require("m").unwrap().row_count(), 2);
    }

    #[test]
    fn bad_cell_rejected() {
        let mut db = Database::new();
        assert!(matches!(
            load(&mut db, &[["not-a-time", "1.0", "x"]]),
            Err(TransformError::BadCell { .. })
        ));
    }

    #[test]
    fn second_load_appends_when_schema_matches() {
        let mut db = Database::new();
        let cells = [["00:00:01.000000", "1.0", "x"]];
        load(&mut db, &cells).unwrap();
        load(&mut db, &cells).unwrap();
        assert_eq!(db.require("m").unwrap().row_count(), 2);
    }

    #[test]
    fn normalize_cell_rules() {
        assert_eq!(normalize_cell("42"), Some("42"));
        assert_eq!(normalize_cell("  42 "), Some("42"));
        assert_eq!(normalize_cell(""), None);
        assert_eq!(normalize_cell("   "), None);
        assert_eq!(normalize_cell("-"), None);
        assert_eq!(normalize_cell(" - "), None);
        assert_eq!(normalize_cell("-1"), Some("-1"), "negative number kept");
        // Whitespace beyond ASCII's visible range is trimmed too.
        assert_eq!(normalize_cell("\u{a0}42\u{2003}"), Some("42"));
        assert_eq!(normalize_cell("42\x0b"), Some("42"));
        assert_eq!(normalize_cell("\x0b-\t"), None);
    }

    #[test]
    fn parse_cell_all_types() {
        assert_eq!(
            parse_cell("t", "c", ColumnType::Int, "42").unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            parse_cell("t", "c", ColumnType::Bool, "true").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            parse_cell("t", "c", ColumnType::Float, "1e2").unwrap(),
            Value::Float(100.0)
        );
        assert_eq!(
            parse_cell("t", "c", ColumnType::Text, "hi").unwrap(),
            Value::Text("hi".into())
        );
        assert_eq!(
            parse_cell("t", "c", ColumnType::Text, "-").unwrap(),
            Value::Text("-".into())
        );
        assert_eq!(
            parse_cell("t", "c", ColumnType::Int, " - ").unwrap(),
            Value::Null
        );
        assert!(parse_cell("t", "c", ColumnType::Int, "x").is_err());
        assert!(parse_cell("t", "c", ColumnType::Bool, "2").is_err());
    }
}
