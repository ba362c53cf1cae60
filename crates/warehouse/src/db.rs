//! The dynamic data warehouse itself.
//!
//! Per the paper (§III-C), mScopeDB keeps **four static tables** of
//! loading-metadata — experiments, nodes, monitors, and log files — plus
//! **dynamically created tables** for the monitoring data that
//! mScopeDataTransformer produces on the fly.

use crate::table::{Schema, Table};
use crate::value::{ColumnType, Value};
use crate::DbError;
use std::collections::BTreeMap;

/// Names of the four static metadata tables.
pub const STATIC_TABLES: [&str; 4] = ["experiments", "nodes", "monitors", "log_files"];

/// The mScopeDB warehouse: static metadata plus dynamic data tables.
///
/// # Examples
///
/// ```
/// use mscope_db::{Column, ColumnType, Database, Schema, Value};
///
/// let mut db = Database::new();
/// let schema = Schema::new(vec![
///     Column::new("time_us", ColumnType::Int),
///     Column::new("disk_util", ColumnType::Float),
/// ])?;
/// db.create_table("collectl_disk_mysql0", schema)?;
/// db.insert("collectl_disk_mysql0", vec![Value::Int(0), Value::Float(97.0)])?;
/// assert_eq!(db.table("collectl_disk_mysql0").unwrap().row_count(), 1);
/// # Ok::<(), mscope_db::DbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}
mscope_serdes::json_struct!(Database { tables });

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates a warehouse with the four static metadata tables already in
    /// place.
    pub fn new() -> Database {
        use ColumnType::{Int, Text};
        // One column list per name in `STATIC_TABLES`, in that order.
        let schemas: [&[(&str, ColumnType)]; 4] = [
            &[
                ("experiment_id", Int),
                ("name", Text),
                ("users", Int),
                ("duration_ms", Int),
                ("seed", Int),
            ],
            &[
                ("node", Text),
                ("tier", Int),
                ("kind", Text),
                ("cores", Int),
                ("workers", Int),
            ],
            &[
                ("monitor_id", Text),
                ("node", Text),
                ("tool", Text),
                ("kind", Text),
                ("period_ms", Int),
            ],
            &[
                ("path", Text),
                ("node", Text),
                ("monitor_id", Text),
                ("format", Text),
                ("bytes", Int),
            ],
        ];
        let tables = STATIC_TABLES
            .into_iter()
            .zip(schemas)
            .map(|(name, cols)| (name.to_string(), Table::new(name, Schema::fixed(cols))))
            .collect();
        Database { tables }
    }

    /// Creates a dynamic table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] if the name is taken (including by a static
    /// table).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    /// Creates the table if absent, or verifies the schema matches if
    /// present (idempotent ingest); returns whether it was created.
    ///
    /// # Errors
    ///
    /// [`DbError::SchemaMismatch`] if the table exists with a different
    /// schema.
    pub fn ensure_table(&mut self, name: &str, schema: Schema) -> Result<bool, DbError> {
        match self.tables.get(name) {
            None => {
                self.tables
                    .insert(name.to_string(), Table::new(name, schema));
                Ok(true)
            }
            Some(t) if *t.schema() == schema => Ok(false),
            Some(t) => Err(DbError::SchemaMismatch {
                table: name.to_string(),
                existing: t.schema().to_string(),
                incoming: schema.to_string(),
            }),
        }
    }

    /// Inserts a row into a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] or any [`Table::push_row`] error.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?
            .push_row(row)
    }

    /// Bulk insert with one table lookup and one validation pass for the
    /// whole batch ([`Table::push_batch`]): either every row lands or none
    /// does. Returns the number of rows inserted.
    ///
    /// This is the importer's hot path — per-row [`Database::insert`] pays
    /// a name lookup and a schema walk per tuple, which dominates load time
    /// for wide monitor tables.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`], or the first [`Table::push_batch`]
    /// validation error (table unchanged).
    pub fn insert_batch(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?
            .push_batch(rows)
    }

    /// [`Database::insert_batch`] for column-major input
    /// ([`Table::push_columns`]): one table lookup, one validation pass per
    /// column, and either every column lands or none does. Returns the
    /// number of rows inserted.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`], or the first [`Table::push_columns`]
    /// validation error (table unchanged).
    pub fn insert_columns(&mut self, table: &str, cols: Vec<Vec<Value>>) -> Result<usize, DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?
            .push_columns(cols)
    }

    /// Replaces a dynamic table wholesale, keeping the warehouse name ↔
    /// table invariant. This is the schema-migration primitive of the
    /// streaming ingester: when a later chunk widens an inferred column
    /// type (the batch pipeline would simply have inferred the wider type
    /// up front), the ingester rebuilds the table under the new schema and
    /// swaps it in here.
    ///
    /// # Errors
    ///
    /// [`DbError::BadQuery`] when the table is one of the static metadata
    /// tables ([`STATIC_TABLES`]) — their schemas are fixed by the paper's
    /// warehouse design and never migrate.
    pub fn replace_table(&mut self, table: Table) -> Result<(), DbError> {
        let name = table.name();
        if STATIC_TABLES.contains(&name) {
            return Err(DbError::BadQuery(format!(
                "static metadata table `{name}` cannot be replaced"
            )));
        }
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Looks up a table, erroring when absent (for query pipelines).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn require(&self, name: &str) -> Result<&Table, DbError> {
        self.table(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// All table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Names of dynamically created tables only.
    pub fn dynamic_table_names(&self) -> Vec<&str> {
        self.tables
            .keys()
            .map(String::as_str)
            .filter(|n| !STATIC_TABLES.contains(n))
            .collect()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::row_count).sum()
    }

    /// Registers an experiment in the static metadata.
    ///
    /// # Errors
    ///
    /// Propagates row-shape errors (should not occur with this signature).
    pub fn register_experiment(
        &mut self,
        id: i64,
        name: &str,
        users: i64,
        duration_ms: i64,
        seed: i64,
    ) -> Result<(), DbError> {
        self.insert(
            "experiments",
            vec![
                id.into(),
                name.into(),
                users.into(),
                duration_ms.into(),
                seed.into(),
            ],
        )
    }

    /// Registers a node in the static metadata.
    ///
    /// # Errors
    ///
    /// Propagates row-shape errors.
    pub fn register_node(
        &mut self,
        node: &str,
        tier: i64,
        kind: &str,
        cores: i64,
        workers: i64,
    ) -> Result<(), DbError> {
        self.insert(
            "nodes",
            vec![
                node.into(),
                tier.into(),
                kind.into(),
                cores.into(),
                workers.into(),
            ],
        )
    }

    /// Registers a monitor in the static metadata.
    ///
    /// # Errors
    ///
    /// Propagates row-shape errors.
    pub fn register_monitor(
        &mut self,
        monitor_id: &str,
        node: &str,
        tool: &str,
        kind: &str,
        period_ms: i64,
    ) -> Result<(), DbError> {
        self.insert(
            "monitors",
            vec![
                monitor_id.into(),
                node.into(),
                tool.into(),
                kind.into(),
                period_ms.into(),
            ],
        )
    }

    /// Registers a log file in the static metadata.
    ///
    /// # Errors
    ///
    /// Propagates row-shape errors.
    pub fn register_log_file(
        &mut self,
        path: &str,
        node: &str,
        monitor_id: &str,
        format: &str,
        bytes: i64,
    ) -> Result<(), DbError> {
        self.insert(
            "log_files",
            vec![
                path.into(),
                node.into(),
                monitor_id.into(),
                format.into(),
                bytes.into(),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    #[test]
    fn static_tables_exist() {
        let db = Database::new();
        for name in STATIC_TABLES {
            assert!(db.table(name).is_some(), "missing static table {name}");
        }
        assert!(db.dynamic_table_names().is_empty());
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn create_insert_query() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Int),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        db.create_table("m", schema.clone()).unwrap();
        assert!(matches!(
            db.create_table("m", schema.clone()),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(
            db.create_table("nodes", schema.clone()),
            Err(DbError::TableExists(_))
        ));
        let rows = (0..5).map(|i| vec![Value::Int(i), Value::Float(i as f64)]);
        assert_eq!(db.insert_batch("m", rows.collect()), Ok(5));
        assert_eq!(db.require("m").unwrap().row_count(), 5);
        assert!(matches!(db.require("zzz"), Err(DbError::NoSuchTable(_))));
        assert_eq!(db.dynamic_table_names(), vec!["m"]);
    }

    #[test]
    fn insert_batch_atomic_and_counted() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Int),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        db.create_table("m", schema).unwrap();
        let n = db
            .insert_batch(
                "m",
                (0..100)
                    .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
                    .collect(),
            )
            .unwrap();
        assert_eq!(n, 100);
        // One bad row rejects the whole batch.
        let err = db.insert_batch(
            "m",
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Text("x".into()), Value::Float(2.0)],
            ],
        );
        assert!(matches!(err, Err(DbError::TypeMismatch { .. })));
        assert_eq!(db.require("m").unwrap().row_count(), 100);
        assert!(matches!(
            db.insert_batch("ghost", vec![]),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn replace_table_swaps_dynamic_rejects_static() {
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        db.create_table("m", schema).unwrap();
        db.insert("m", vec![Value::Int(1)]).unwrap();
        // Swap in a rebuilt table under a wider schema (Int → Float).
        let wide = Schema::new(vec![Column::new("a", ColumnType::Float)]).unwrap();
        let mut t = Table::new("m", wide);
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Float(2.5)]).unwrap();
        db.replace_table(t).unwrap();
        let got = db.require("m").unwrap();
        assert_eq!(got.row_count(), 2);
        assert_eq!(got.cell(1, "a"), Some(&Value::Float(2.5)));
        // Replacing also creates when absent (the ingester's first swap
        // after an early migration may precede any ensure_table call).
        let fresh = Table::new("m2", Schema::default());
        db.replace_table(fresh).unwrap();
        assert!(db.table("m2").is_some());
        // Static metadata tables are immutable in shape.
        let bad = Table::new("monitors", Schema::default());
        assert!(matches!(db.replace_table(bad), Err(DbError::BadQuery(_))));
        assert_eq!(db.table("monitors").unwrap().schema().len(), 5);
    }

    #[test]
    fn chunked_appends_match_one_shot_load() {
        // The streaming ingester appends in chunks; the per-block zone maps
        // and the sorted-on-append flag must come out exactly as a one-shot
        // batch load leaves them (ISSUE: "sorted-on-append flag must
        // survive chunked appends").
        let schema = || {
            Schema::new(vec![
                Column::new("t", ColumnType::Timestamp),
                Column::new("v", ColumnType::Float),
            ])
            .unwrap()
        };
        let rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| {
                vec![
                    Value::Timestamp(i * 10),
                    Value::Float(((i % 97) as f64) / 3.0),
                ]
            })
            .collect();
        for chunk in [1usize, 64, 4096] {
            let mut db_chunked = Database::new();
            db_chunked.create_table("m", schema()).unwrap();
            for c in rows.chunks(chunk) {
                db_chunked.insert_batch("m", c.to_vec()).unwrap();
            }
            let mut db_batch = Database::new();
            db_batch.create_table("m", schema()).unwrap();
            db_batch.insert_batch("m", rows.clone()).unwrap();
            let chunked = db_chunked.require("m").unwrap();
            let batch = db_batch.require("m").unwrap();
            assert_eq!(chunked, batch, "chunk={chunk}");
            // Table equality excludes the index; compare it explicitly —
            // zone maps and the sorted flag must match the one-shot load.
            assert_eq!(chunked.table_index(), batch.table_index(), "chunk={chunk}");
            let t_idx = chunked.table_index().col(0).unwrap();
            assert!(t_idx.sorted(), "time column sorted through chunk={chunk}");
        }
        // An out-of-order row arriving mid-stream clears the flag across a
        // chunk boundary the same way the one-shot load does.
        let mut a = Database::new();
        a.create_table("m", schema()).unwrap();
        let mut shuffled = rows.clone();
        shuffled.swap(100, 4900);
        for c in shuffled.chunks(64) {
            a.insert_batch("m", c.to_vec()).unwrap();
        }
        let mut b = Database::new();
        b.create_table("m", schema()).unwrap();
        b.insert_batch("m", shuffled).unwrap();
        assert_eq!(a.require("m").unwrap(), b.require("m").unwrap());
        assert_eq!(
            a.require("m").unwrap().table_index(),
            b.require("m").unwrap().table_index()
        );
        assert!(!a
            .require("m")
            .unwrap()
            .table_index()
            .col(0)
            .unwrap()
            .sorted());
    }

    /// A random schema plus rows every column admits: nulls everywhere,
    /// Int cells in Float columns, a first column that is sorted half the
    /// time.
    fn arb_rows(g: &mut mscope_sim::prop::Gen) -> (Schema, Vec<Vec<Value>>) {
        use ColumnType::*;
        let types = g.vec(1..=4, |g| g.choose(&[Int, Float, Timestamp, Text, Bool]));
        let columns = types.iter().enumerate();
        let schema = Schema::new(
            columns
                .map(|(i, &ty)| Column::new(format!("c{i}"), ty))
                .collect(),
        )
        .expect("distinct names");
        let sorted = g.bool();
        let mut clock = 0i64;
        let rows = g.vec(0..=120, |g| {
            clock += g.i64(0..=40);
            let key = if sorted { clock } else { g.i64(-500..=500) };
            types
                .iter()
                .enumerate()
                .map(|(ci, ty)| {
                    let n = if ci == 0 { key } else { g.i64(-500..=500) };
                    match ty {
                        _ if g.usize(0..=7) == 0 => Value::Null,
                        Int => Value::Int(n),
                        Float if g.bool() => Value::Int(n),
                        Float => Value::Float(n as f64 / 4.0),
                        Timestamp => Value::Timestamp(n),
                        Bool => Value::Bool(n % 2 == 0),
                        Text | Null => Value::Text(format!("k{}", n % 7)),
                    }
                })
                .collect()
        });
        (schema, rows)
    }

    fn transpose(width: usize, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        (0..width)
            .map(|ci| rows.iter().map(|r| r[ci].clone()).collect())
            .collect()
    }

    #[test]
    fn push_columns_is_push_batch_across_appends() {
        mscope_sim::prop::forall("push_columns is push_batch", 192, |g| {
            let (schema, rows) = arb_rows(g);
            let width = schema.len();
            let (mut by_row, mut by_col) =
                (Table::new("t", schema.clone()), Table::new("t", schema));
            // Small blocks, so appends straddle zone-map block boundaries.
            let block = g.usize(1..=16);
            by_row.reindex(block);
            by_col.reindex(block);
            let mut rest = rows.as_slice();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(g.usize(1..=rest.len()));
                rest = tail;
                let n = by_row
                    .push_batch(chunk.to_vec())
                    .map_err(|e| e.to_string())?;
                let m = by_col
                    .push_columns(transpose(width, chunk))
                    .map_err(|e| e.to_string())?;
                mscope_sim::prop_ensure!(n == m, "appended {n} rows vs {m}");
            }
            mscope_sim::prop_ensure!(by_row == by_col, "cells differ");
            mscope_sim::prop_ensure!(
                by_row.table_index() == by_col.table_index(),
                "zone maps or sorted flags differ"
            );
            // …and the planner reads the same block verdicts off both.
            let explain = |t: &Table| {
                let mut db = Database::new();
                db.replace_table(t.clone()).map_err(|e| e.to_string())?;
                let plan = db
                    .query("EXPLAIN SELECT c0 FROM t WHERE c0 >= 0 AND c0 < 200")
                    .map_err(|e| e.to_string())?;
                let lines = plan.column("plan").expect("explain has a plan column");
                Ok::<_, String>(lines.iter().map(Value::render).collect::<Vec<_>>())
            };
            let (a, b) = (explain(&by_row)?, explain(&by_col)?);
            mscope_sim::prop_ensure!(a == b, "EXPLAIN differs: {a:?} vs {b:?}");
            Ok(())
        });
    }

    #[test]
    fn push_columns_is_all_or_nothing() {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Int),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        let mut db = Database::new();
        db.create_table("m", schema).unwrap();
        let ints = |r: std::ops::Range<i64>| r.map(Value::Int).collect::<Vec<_>>();
        assert_eq!(db.insert_columns("m", vec![ints(0..3), ints(0..3)]), Ok(3));
        let before = db.require("m").unwrap().clone();
        let index_before = before.table_index().clone();
        let unchanged = |db: &Database| {
            let t = db.require("m").unwrap();
            *t == before && *t.table_index() == index_before
        };
        // Ragged columns: the second is one cell short.
        let ragged = db.insert_columns("m", vec![ints(3..6), ints(3..5)]);
        assert_eq!(
            ragged,
            Err(DbError::Arity {
                table: "m".into(),
                expected: 3,
                got: 2
            })
        );
        assert!(unchanged(&db));
        // Wrong number of columns.
        for cols in [vec![ints(3..6)], vec![ints(3..6), ints(3..6), ints(3..6)]] {
            let got = cols.len();
            assert_eq!(
                db.insert_columns("m", cols),
                Err(DbError::Arity {
                    table: "m".into(),
                    expected: 2,
                    got
                })
            );
            assert!(unchanged(&db));
        }
        // A cell its column does not admit, behind a valid first column.
        let floats = vec![Value::Float(0.5), Value::Null, Value::Float(1.5)];
        let mismatch = db.insert_columns("m", vec![floats.clone(), floats.clone()]);
        assert_eq!(
            mismatch,
            Err(DbError::TypeMismatch {
                table: "m".into(),
                column: "t".into(),
                expected: ColumnType::Int,
                got: ColumnType::Float
            })
        );
        assert!(unchanged(&db));
        let text = vec![Value::Null, Value::Null, Value::Text("x".into())];
        assert!(matches!(
            db.insert_columns("m", vec![ints(3..6), text]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(unchanged(&db));
        assert!(matches!(
            db.insert_columns("ghost", vec![]),
            Err(DbError::NoSuchTable(_))
        ));
        // What push_batch admits, push_columns admits: Int cells in a
        // Float column, nulls anywhere, and an empty append.
        assert_eq!(db.insert_columns("m", vec![ints(3..6), ints(3..6)]), Ok(3));
        assert_eq!(db.insert_columns("m", vec![vec![], vec![]]), Ok(0));
        assert_eq!(db.require("m").unwrap().row_count(), 6);
    }

    #[test]
    fn ensure_table_idempotent() {
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        assert!(db.ensure_table("x", schema.clone()).unwrap());
        assert!(!db.ensure_table("x", schema).unwrap());
        let other = Schema::new(vec![Column::new("a", ColumnType::Text)]).unwrap();
        assert!(matches!(
            db.ensure_table("x", other),
            Err(DbError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn metadata_registration() {
        let mut db = Database::new();
        db.register_experiment(1, "scenario_db_io", 8000, 420_000, 42)
            .unwrap();
        db.register_node("mysql0", 3, "mysql", 2, 50).unwrap();
        db.register_monitor("collectl-mysql0", "mysql0", "collectl", "resource", 50)
            .unwrap();
        db.register_log_file(
            "/var/log/collectl/mysql0.csv",
            "mysql0",
            "collectl-mysql0",
            "csv",
            1024,
        )
        .unwrap();
        assert_eq!(db.table("experiments").unwrap().row_count(), 1);
        assert_eq!(db.table("nodes").unwrap().row_count(), 1);
        assert_eq!(db.table("monitors").unwrap().row_count(), 1);
        assert_eq!(db.table("log_files").unwrap().row_count(), 1);
        assert_eq!(db.total_rows(), 4);
    }

    #[test]
    fn insert_into_missing_table_errors() {
        let mut db = Database::new();
        assert!(matches!(
            db.insert("ghost", vec![Value::Int(1)]),
            Err(DbError::NoSuchTable(_))
        ));
    }
}

/// JSON persistence for the warehouse (a dynamic data warehouse should
/// survive the session that built it).
impl Database {
    /// Serializes the entire warehouse — static and dynamic tables — to
    /// JSON.
    ///
    /// # Errors
    ///
    /// Serialization failure (should not occur for valid warehouses).
    pub fn to_json(&self) -> Result<String, DbError> {
        Ok(mscope_serdes::to_string(self))
    }

    /// Restores a warehouse from [`Database::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`DbError::BadQuery`] on malformed input.
    pub fn from_json(json: &str) -> Result<Database, DbError> {
        mscope_serdes::from_str(json).map_err(|e| DbError::BadQuery(format!("deserialize: {e}")))
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::table::Column;

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut db = Database::new();
        db.register_node("mysql0", 3, "mysql", 2, 50).unwrap();
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Timestamp),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        db.create_table("m", schema).unwrap();
        db.insert("m", vec![Value::Timestamp(50_000), Value::Float(97.5)])
            .unwrap();
        db.insert("m", vec![Value::Null, Value::Float(1.25)])
            .unwrap();

        let json = db.to_json().unwrap();
        let back = Database::from_json(&json).unwrap();
        assert_eq!(back, db);
        assert_eq!(
            back.require("m").unwrap().cell(0, "v"),
            Some(&Value::Float(97.5))
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            Database::from_json("not json"),
            Err(DbError::BadQuery(_))
        ));
    }
}
