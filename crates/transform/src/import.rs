//! mScope Data Importer (paper §III-B3, final stage): creates warehouse
//! tables from inferred schemas and loads the tuples.
//!
//! Every load is **typed**: no path re-reads text it already typed. The
//! batch driver hands the sink's typed columns to
//! [`Database::insert_columns`] as they are; [`import_rows`] is the same
//! load for the row-major output of [`convert_xml`](crate::convert_xml)
//! ([`Database::insert_batch`]). [`import_csv`] remains for loading
//! exported CSV artifacts and foreign CSV files; it funnels through the
//! same [`parse_cell`] rules the sink types its columns with, so every
//! path loads identical values.

use crate::csv::parse_csv;
use crate::error::TransformError;
use mscope_db::{ColumnType, Database, Schema, Value};

/// The one shared cell-normalization rule for *typed* (non-text) columns:
/// trims ASCII whitespace and maps an empty or `-` cell to `None` (the
/// SAR/IOstat "no sample" marker). Schema inference and cell loading both
/// route through this function, so the types inferred from a cell are
/// provably the types its loaded value carries.
///
/// Text columns deliberately do **not** use this at load time — a
/// legitimate `-` or padded string in a text column must load verbatim
/// (see [`parse_cell`]).
pub fn normalize_cell(raw: &str) -> Option<&str> {
    let t = raw.trim();
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
/// **Text columns load verbatim** — only a fully empty cell (the CSV
/// rendering of a missing field) becomes Null; `-`, padding, and interior
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
        return Ok(if raw.is_empty() {
            Value::Null
        } else {
            Value::Text(raw.to_string())
        });
    }
    let Some(t) = normalize_cell(raw) else {
        return Ok(Value::Null);
    };
    let bad = || TransformError::BadCell {
        table: table.to_string(),
        column: column.to_string(),
        value: raw.to_string(),
        expected: ty,
    };
    match ty {
        ColumnType::Null | ColumnType::Text => Ok(Value::Text(raw.to_string())),
        ColumnType::Bool => match t {
            "true" | "TRUE" | "True" => Ok(Value::Bool(true)),
            "false" | "FALSE" | "False" => Ok(Value::Bool(false)),
            _ => Err(bad()),
        },
        ColumnType::Int => t.parse::<i64>().map(Value::Int).map_err(|_| bad()),
        ColumnType::Float => t.parse::<f64>().map(Value::Float).map_err(|_| bad()),
        ColumnType::Timestamp => mscope_sim::parse_wallclock(t)
            .map(|ts| Value::Timestamp(ts.as_micros() as i64))
            .ok_or_else(bad),
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

/// Creates (or verifies) the destination table and loads CSV rows — the
/// export / foreign-file path. Cells are typed with the same [`parse_cell`]
/// rules the direct path uses, then batch-loaded. Returns the number of
/// rows loaded.
///
/// # Errors
///
/// CSV parse errors, header/schema mismatches, cell parse failures, and
/// warehouse errors (schema conflicts with an existing table).
pub fn import_csv(
    db: &mut Database,
    table: &str,
    schema: &Schema,
    csv: &str,
) -> Result<usize, TransformError> {
    let rows = parse_csv(csv).map_err(TransformError::Csv)?;
    let Some((header, data)) = rows.split_first() else {
        // Nothing to load; still materialize the (possibly empty) table.
        db.ensure_table(table, schema.clone())
            .map_err(TransformError::Db)?;
        return Ok(0);
    };
    let expected: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    let got: Vec<&str> = header.iter().map(String::as_str).collect();
    if expected != got {
        return Err(TransformError::HeaderMismatch {
            table: table.to_string(),
            expected: expected.join(","),
            got: got.join(","),
        });
    }
    let mut typed = Vec::with_capacity(data.len());
    for row in data {
        if row.len() != schema.len() {
            return Err(TransformError::HeaderMismatch {
                table: table.to_string(),
                expected: format!("{} columns", schema.len()),
                got: format!("{} columns", row.len()),
            });
        }
        let values: Vec<Value> = row
            .iter()
            .zip(schema.columns())
            .map(|(raw, col)| parse_cell(table, &col.name, col.ty, raw))
            .collect::<Result<_, _>>()?;
        typed.push(values);
    }
    import_rows(db, table, schema, typed)
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

    #[test]
    fn loads_typed_rows() {
        let mut db = Database::new();
        let csv = "t,v,n\n00:00:01.000000,12.5,apache0\n00:00:02.000000,13.0,apache0\n";
        let n = import_csv(&mut db, "m", &schema(), csv).unwrap();
        assert_eq!(n, 2);
        let t = db.require("m").unwrap();
        assert_eq!(t.cell(0, "t"), Some(&Value::Timestamp(1_000_000)));
        assert_eq!(t.cell(1, "v"), Some(&Value::Float(13.0)));
    }

    #[test]
    fn numeric_nulls_load_as_null() {
        let mut db = Database::new();
        let csv = "t,v,n\n00:00:01.000000,,x\n-, - ,y\n";
        import_csv(&mut db, "m", &schema(), csv).unwrap();
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
        let csv =
            "t,v,n\n00:00:01.000000,1.0,-\n00:00:02.000000,2.0,\" x \"\n00:00:03.000000,3.0,\n";
        import_csv(&mut db, "m", &schema(), csv).unwrap();
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
    fn header_mismatch_rejected() {
        let mut db = Database::new();
        let csv = "wrong,header,row\n1,2,3\n";
        assert!(matches!(
            import_csv(&mut db, "m", &schema(), csv),
            Err(TransformError::HeaderMismatch { .. })
        ));
    }

    #[test]
    fn bad_cell_rejected() {
        let mut db = Database::new();
        let csv = "t,v,n\nnot-a-time,1.0,x\n";
        assert!(matches!(
            import_csv(&mut db, "m", &schema(), csv),
            Err(TransformError::BadCell { .. })
        ));
    }

    #[test]
    fn empty_csv_creates_empty_table() {
        let mut db = Database::new();
        let n = import_csv(&mut db, "m", &schema(), "").unwrap();
        assert_eq!(n, 0);
        assert_eq!(db.require("m").unwrap().row_count(), 0);
    }

    #[test]
    fn second_load_appends_when_schema_matches() {
        let mut db = Database::new();
        let csv = "t,v,n\n00:00:01.000000,1.0,x\n";
        import_csv(&mut db, "m", &schema(), csv).unwrap();
        import_csv(&mut db, "m", &schema(), csv).unwrap();
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
