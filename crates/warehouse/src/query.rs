//! Query operations over [`Table`]s: predicates, windowed aggregation,
//! joins and sorting.
//!
//! This is the "advanced analysis" surface the paper attributes to mScopeDB
//! (§III-C): after mScopeDataTransformer loads everything into one place,
//! researchers slice disk utilization per tier, join event records by
//! request ID, and correlate series.
//!
//! A verb lives here only if shipping code calls it or it is a `*_naive`
//! reference oracle that tests compare against. Projection, grouping and
//! time-range slicing are SQL ([`Database::query`](crate::Database::query)
//! — `SELECT cols`, `GROUP BY`, `WHERE t >= a AND t < b`) or
//! [`Table::filter`] with [`Predicate::Between`], which binary-searches a
//! sorted column.
//!
//! Every aggregate in the warehouse — a window bucket of
//! [`Table::window_agg_where`], a SQL group or whole-table aggregate in
//! `vector.rs` — folds into the one accumulator defined here beside
//! [`AggFn`], so a windowed fold and a SQL aggregate over the same rows
//! agree to the bit.

use crate::engine::{self, CompiledPredicate, Side, SideCol};
use crate::table::{Column, Schema, Table};
use crate::value::{Value, ValueKey};
use crate::DbError;
use std::collections::{BTreeMap, HashMap};

/// A filter predicate over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Column equals value.
    Eq(String, Value),
    /// Column differs from value (nulls excluded).
    Ne(String, Value),
    /// Column < value.
    Lt(String, Value),
    /// Column ≤ value.
    Le(String, Value),
    /// Column > value.
    Gt(String, Value),
    /// Column ≥ value.
    Ge(String, Value),
    /// lo ≤ column < hi (half-open, the natural window form).
    Between(String, Value, Value),
    /// All of the sub-predicates hold.
    And(Vec<Predicate>),
    /// Any of the sub-predicates holds.
    Or(Vec<Predicate>),
    /// Sub-predicate does not hold.
    Not(Box<Predicate>),
}
mscope_serdes::json_enum!(Predicate {
    True,
    Eq(a, b),
    Ne(a, b),
    Lt(a, b),
    Le(a, b),
    Gt(a, b),
    Ge(a, b),
    Between(a, b, c),
    And(a),
    Or(a),
    Not(a),
});

impl Predicate {
    /// Evaluates against row `i` of `table`. Unknown columns make the
    /// comparison false (never an error — filters are exploratory).
    pub fn eval(&self, table: &Table, i: usize) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => Self::cmp(table, i, c, |o| o == std::cmp::Ordering::Equal, v),
            Predicate::Ne(c, v) => Self::cmp(table, i, c, |o| o != std::cmp::Ordering::Equal, v),
            Predicate::Lt(c, v) => Self::cmp(table, i, c, |o| o == std::cmp::Ordering::Less, v),
            Predicate::Le(c, v) => Self::cmp(table, i, c, |o| o != std::cmp::Ordering::Greater, v),
            Predicate::Gt(c, v) => Self::cmp(table, i, c, |o| o == std::cmp::Ordering::Greater, v),
            Predicate::Ge(c, v) => Self::cmp(table, i, c, |o| o != std::cmp::Ordering::Less, v),
            Predicate::Between(c, lo, hi) => {
                Self::cmp(table, i, c, |o| o != std::cmp::Ordering::Less, lo)
                    && Self::cmp(table, i, c, |o| o == std::cmp::Ordering::Less, hi)
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval(table, i)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(table, i)),
            Predicate::Not(p) => !p.eval(table, i),
        }
    }

    fn cmp(
        table: &Table,
        i: usize,
        col: &str,
        ok: impl Fn(std::cmp::Ordering) -> bool,
        v: &Value,
    ) -> bool {
        match table.cell(i, col) {
            Some(cell) if !cell.is_null() => ok(cell.total_cmp(v)),
            _ => false,
        }
    }
}

/// Aggregations for [`Table::window_agg`] and SQL aggregate projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Sum.
    Sum,
    /// Row count (value column still required, nulls skipped).
    Count,
    /// Last value in encounter order.
    Last,
}
mscope_serdes::json_enum!(AggFn {
    Mean,
    Max,
    Min,
    Sum,
    Count,
    Last
});

/// The one accumulator behind every aggregate. Fixed size, one pass: it
/// holds every statistic any [`AggFn`] finishes from, so no caller keeps a
/// per-bucket value vector. Values fold in encounter order: a left-fold
/// sum from `0.0` (so a bucket of only `-0.0` sums to `0.0`) and
/// `f64::min`/`max` from the infinities.
#[derive(Clone, Copy)]
pub(crate) struct Acc {
    n: usize,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    pub(crate) const NEW: Acc = Acc {
        n: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        last: 0.0,
    };

    /// Folds one numeric value.
    pub(crate) fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Counts an entry that carries no numeric value (SQL `COUNT(*)`, or
    /// `COUNT(col)` over a non-null text cell).
    pub(crate) fn count(&mut self) {
        self.n += 1;
    }

    /// The aggregate, or `None` when nothing was folded (`Count` is `0`).
    pub(crate) fn finish(self, agg: AggFn) -> Option<f64> {
        match agg {
            AggFn::Count => Some(self.n as f64),
            _ if self.n == 0 => None,
            AggFn::Mean => Some(self.sum / self.n as f64),
            AggFn::Max => Some(self.max),
            AggFn::Min => Some(self.min),
            AggFn::Sum => Some(self.sum),
            AggFn::Last => Some(self.last),
        }
    }
}

impl Table {
    /// Rows matching `pred`, as a new table. Runs on the compiled engine
    /// ([`CompiledPredicate`]): names bound once, an equality conjunct
    /// answered from the column's kept key index, else zone-map block
    /// skipping and sorted-column binary search, automatic parallel scan
    /// above [`PARALLEL_MIN_ROWS`](crate::PARALLEL_MIN_ROWS) candidate
    /// rows. Result-identical to [`Table::filter_naive`].
    pub fn filter(&self, pred: &Predicate) -> Table {
        let rows = CompiledPredicate::compile(self, pred).matching_rows_with(0);
        self.gather(self.name(), &rows)
    }

    /// Reference oracle: the original row-at-a-time scan through
    /// [`Predicate::eval`], kept for property tests and benchmarks.
    pub fn filter_naive(&self, pred: &Predicate) -> Table {
        let rows: Vec<usize> = (0..self.row_count())
            .filter(|&i| pred.eval(self, i))
            .collect();
        self.gather(self.name(), &rows)
    }

    /// Fixed-window aggregation: buckets rows by `time_col / window_us`,
    /// aggregates `value_col` per bucket, and returns `(bucket_start_us,
    /// aggregate)` pairs in time order. Rows with null time or value are
    /// skipped. This is the workhorse behind every per-interval figure.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for missing columns; [`DbError::BadQuery`]
    /// if `window_us` is not positive.
    pub fn window_agg(
        &self,
        time_col: &str,
        window_us: i64,
        value_col: &str,
        agg: AggFn,
    ) -> Result<Vec<(i64, f64)>, DbError> {
        self.window_agg_where(&Predicate::True, time_col, window_us, value_col, agg)
            .map(|(_, series)| series)
    }

    /// Fused filter + fixed-window aggregation: equivalent to
    /// `self.filter(pred).window_agg(time_col, window_us, value_col, agg)`
    /// but computes the matching row set once on the compiled engine and
    /// never materializes the filtered table. Returns the number of
    /// matching rows alongside the series (so callers can distinguish "no
    /// rows matched" from "rows matched but none were numeric").
    ///
    /// # Errors
    ///
    /// Same as [`Table::window_agg`], which is this with [`Predicate::True`].
    pub fn window_agg_where(
        &self,
        pred: &Predicate,
        time_col: &str,
        window_us: i64,
        value_col: &str,
        agg: AggFn,
    ) -> Result<(usize, Vec<(i64, f64)>), DbError> {
        if window_us <= 0 {
            return Err(DbError::BadQuery("window must be positive".into()));
        }
        let tci = self
            .schema()
            .index_of(time_col)
            .ok_or_else(|| DbError::NoSuchColumn(time_col.into()))?;
        let vci = self
            .schema()
            .index_of(value_col)
            .ok_or_else(|| DbError::NoSuchColumn(value_col.into()))?;
        let (tcol, vcol) = (self.col(tci), self.col(vci));
        let rows = CompiledPredicate::compile(self, pred).matching_rows_with(0);
        // BTreeMap (not HashMap) so bucket emission is key-ordered by
        // construction — hash order must never reach output. Values fold
        // in row order, which fixes Mean/Sum addition order and Last. A
        // bucket exists only once a value landed in it, so every emitted
        // window holds at least one non-null sample.
        let mut buckets: BTreeMap<i64, Acc> = BTreeMap::new();
        for &i in &rows {
            let (Some(t), Some(v)) = (tcol[i].as_i64(), vcol[i].as_f64()) else {
                continue;
            };
            buckets
                .entry(t.div_euclid(window_us) * window_us)
                .or_insert(Acc::NEW)
                .push(v);
        }
        let out: Vec<(i64, f64)> = buckets
            .into_iter()
            .filter_map(|(k, acc)| acc.finish(agg).map(|v| (k, v)))
            .collect();
        Ok((rows.len(), out))
    }

    /// Hash inner join on `self.left_col == other.right_col`. Output columns
    /// are all of `self`'s followed by all of `other`'s; a name collision on
    /// the right side is prefixed with `<other-table>_`. Null keys never
    /// match. The smaller table's kept key index ([`Table::key_index`])
    /// serves the join, so repeating it over unchanged tables hashes
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] if either key column is missing.
    pub fn inner_join(
        &self,
        other: &Table,
        left_col: &str,
        right_col: &str,
    ) -> Result<Table, DbError> {
        let (lci, rci, schema) = self.join_parts(other, left_col, right_col)?;
        // Both sides are whole tables, so the planner's rule for two
        // unfiltered scans applies: probe the smaller side's kept index
        // with every row of the larger ([`crate::vector::join_pairs`]
        // restores left-major output order either way), then materialize
        // the output with one typed per-column gather instead of a
        // row-at-a-time cell walk.
        let (lkey, rkey) = (self.col(lci), other.col(rci));
        let pairs = if self.row_count() < other.row_count() {
            let index = self.key_index_at(lci);
            crate::vector::join_pairs(lkey, rkey, true, index, 0..other.row_count())
        } else {
            let index = other.key_index_at(rci);
            crate::vector::join_pairs(lkey, rkey, false, index, 0..self.row_count())
        };
        let mut srcs: Vec<SideCol<'_>> = self.side_cols(Side::Left);
        srcs.extend(other.side_cols(Side::Right));
        let cols = engine::gather(&srcs, &pairs, 0);
        Ok(Table::from_parts(
            format!("{}_x_{}", self.name(), other.name()),
            schema,
            cols,
        ))
    }

    /// Reference oracle: the original join that rebuilds a
    /// [`ValueKey`]-keyed hash map and clones a key per probe. Kept for
    /// property tests and benchmarks; result-identical to
    /// [`Table::inner_join`].
    ///
    /// # Errors
    ///
    /// Same as [`Table::inner_join`].
    pub fn inner_join_naive(
        &self,
        other: &Table,
        left_col: &str,
        right_col: &str,
    ) -> Result<Table, DbError> {
        let (lci, rci, schema) = self.join_parts(other, left_col, right_col)?;
        let mut index: HashMap<ValueKey, Vec<usize>> = HashMap::new();
        for (i, v) in other.col(rci).iter().enumerate() {
            if !v.is_null() {
                index.entry(v.key()).or_default().push(i);
            }
        }
        let left_width = self.schema().len();
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
        for (li, lv) in self.col(lci).iter().enumerate() {
            if lv.is_null() {
                continue;
            }
            let Some(matches) = index.get(&lv.key()) else {
                continue;
            };
            for &ri in matches {
                for (ci, out) in cols.iter_mut().enumerate() {
                    let cell = if ci < left_width {
                        &self.col(ci)[li]
                    } else {
                        &other.col(ci - left_width)[ri]
                    };
                    // perf: reference oracle — kept byte-identical to the
                    // compiled join, including its owned-output clones.
                    out.push(cell.clone());
                }
            }
        }
        Ok(Table::from_parts(
            format!("{}_x_{}", self.name(), other.name()),
            schema,
            cols,
        ))
    }

    /// Shared join front: resolves both key columns and builds the output
    /// schema (right-side name collisions prefixed with the right table's
    /// name).
    fn join_parts(
        &self,
        other: &Table,
        left_col: &str,
        right_col: &str,
    ) -> Result<(usize, usize, Schema), DbError> {
        let lci = self
            .schema()
            .index_of(left_col)
            .ok_or_else(|| DbError::NoSuchColumn(left_col.into()))?;
        let rci = other
            .schema()
            .index_of(right_col)
            .ok_or_else(|| DbError::NoSuchColumn(right_col.into()))?;
        let mut columns = self.schema().columns().to_vec();
        for c in other.schema().columns() {
            let name = if self.schema().index_of(&c.name).is_some() {
                // perf: output-schema construction — once per join, bounded
                // by column count, never by row count.
                format!("{}_{}", other.name(), c.name)
            } else {
                // perf: same — one owned name per output column.
                c.name.clone()
            };
            columns.push(Column::new(name, c.ty));
        }
        let schema = Schema::new(columns).map_err(|_| {
            DbError::BadQuery(format!(
                "join of {} and {} produces duplicate column names",
                self.name(),
                other.name()
            ))
        })?;
        Ok((lci, rci, schema))
    }

    /// Sorts rows by a column (stable).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] if `col` is missing.
    pub fn order_by(&self, col: &str, ascending: bool) -> Result<Table, DbError> {
        let ci = self
            .schema()
            .index_of(col)
            .ok_or_else(|| DbError::NoSuchColumn(col.into()))?;
        let mut order: Vec<usize> = (0..self.row_count()).collect();
        engine::sort_rows(&mut order, (Side::Left, self.col(ci)), ascending);
        Ok(self.gather(self.name(), &order))
    }

    /// Borrowed numeric view of a column: lazily yields each value
    /// [`Value::as_f64`] accepts, skipping nulls/non-numerics, without
    /// materializing an intermediate `Vec`. A missing column yields
    /// nothing.
    pub fn numeric_values<'a>(&'a self, col: &str) -> impl Iterator<Item = f64> + 'a {
        self.column(col)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_f64)
    }

    /// Extracts a numeric column as `f64`s, skipping nulls/non-numerics.
    /// Prefer [`Table::numeric_values`] when a single streaming pass
    /// suffices — this materializes.
    pub fn numeric_column(&self, col: &str) -> Vec<f64> {
        self.numeric_values(col).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Int),
            Column::new("node", ColumnType::Text),
            Column::new("util", ColumnType::Float),
        ])
        .unwrap();
        let mut t = Table::new("disk", schema);
        for (time, node, util) in [
            (0i64, "db", 10.0),
            (50, "db", 95.0),
            (100, "db", 99.0),
            (0, "web", 5.0),
            (50, "web", 6.0),
            (100, "web", 4.0),
        ] {
            t.push_row(vec![
                Value::Int(time),
                Value::Text(node.into()),
                Value::Float(util),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn filter_and_select() {
        let t = sample_table();
        let db = t.filter(&Predicate::Eq("node".into(), Value::Text("db".into())));
        assert_eq!(db.row_count(), 3);
        let high = t.filter(&Predicate::Gt("util".into(), Value::Float(50.0)));
        assert_eq!(high.row_count(), 2);
    }

    #[test]
    fn predicate_combinators() {
        let t = sample_table();
        let p = Predicate::And(vec![
            Predicate::Eq("node".into(), Value::Text("db".into())),
            Predicate::Between("t".into(), Value::Int(0), Value::Int(100)),
        ]);
        assert_eq!(t.filter(&p).row_count(), 2);
        let q = Predicate::Or(vec![
            Predicate::Lt("util".into(), Value::Float(5.5)),
            Predicate::Ge("util".into(), Value::Float(99.0)),
        ]);
        assert_eq!(t.filter(&q).row_count(), 3);
        let n = Predicate::Not(Box::new(Predicate::Eq(
            "node".into(),
            Value::Text("db".into()),
        )));
        assert_eq!(t.filter(&n).row_count(), 3);
        // Missing column → false, not error.
        assert_eq!(
            t.filter(&Predicate::Eq("zzz".into(), Value::Int(1)))
                .row_count(),
            0
        );
    }

    #[test]
    fn window_agg_buckets() {
        let t = sample_table();
        let series = t.window_agg("t", 100, "util", AggFn::Max).unwrap();
        assert_eq!(series, vec![(0, 95.0), (100, 99.0)]);
        let counts = t.window_agg("t", 100, "util", AggFn::Count).unwrap();
        assert_eq!(counts, vec![(0, 4.0), (100, 2.0)]);
        assert!(t.window_agg("t", 0, "util", AggFn::Max).is_err());
        assert!(t.window_agg("nope", 10, "util", AggFn::Max).is_err());
    }

    #[test]
    fn window_agg_all_fns() {
        let t = sample_table();
        let mean = t.window_agg("t", 1000, "util", AggFn::Mean).unwrap();
        assert!((mean[0].1 - 36.5).abs() < 1e-9);
        let min = t.window_agg("t", 1000, "util", AggFn::Min).unwrap();
        assert_eq!(min[0].1, 4.0);
        let sum = t.window_agg("t", 1000, "util", AggFn::Sum).unwrap();
        assert!((sum[0].1 - 219.0).abs() < 1e-9);
        let last = t.window_agg("t", 1000, "util", AggFn::Last).unwrap();
        assert_eq!(last[0].1, 4.0);
    }

    #[test]
    fn inner_join_matches_keys() {
        let t = sample_table();
        let mut names = Table::new(
            "names",
            Schema::new(vec![
                Column::new("node", ColumnType::Text),
                Column::new("tier", ColumnType::Int),
            ])
            .unwrap(),
        );
        names
            .push_batch(vec![
                vec![Value::Text("db".into()), Value::Int(3)],
                vec![Value::Text("app".into()), Value::Int(1)],
            ])
            .unwrap();
        let joined = t.inner_join(&names, "node", "node").unwrap();
        assert_eq!(joined.row_count(), 3, "only db rows match");
        // Collided column is prefixed.
        assert!(joined.schema().index_of("names_node").is_some());
        assert!(joined.schema().index_of("tier").is_some());
        assert!(t.inner_join(&names, "nope", "node").is_err());
    }

    #[test]
    fn join_skips_null_keys() {
        let schema = Schema::new(vec![Column::new("k", ColumnType::Int)]).unwrap();
        let mut a = Table::new("a", schema.clone());
        a.push_batch(vec![vec![Value::Null], vec![Value::Int(1)]])
            .unwrap();
        let mut b = Table::new("b", schema);
        b.push_batch(vec![vec![Value::Null], vec![Value::Int(1)]])
            .unwrap();
        let j = a.inner_join(&b, "k", "k").unwrap();
        assert_eq!(j.row_count(), 1);
    }

    #[test]
    fn order_by_both_directions() {
        let t = sample_table();
        let asc = t.order_by("util", true).unwrap();
        assert_eq!(asc.cell(0, "util"), Some(&Value::Float(4.0)));
        let desc = t.order_by("util", false).unwrap();
        assert_eq!(desc.cell(0, "util"), Some(&Value::Float(99.0)));
        assert!(t.order_by("zzz", true).is_err());
    }

    #[test]
    fn numeric_column_skips_non_numeric() {
        let t = sample_table();
        assert_eq!(t.numeric_column("util").len(), 6);
        assert_eq!(t.numeric_column("node").len(), 0);
        assert_eq!(t.numeric_column("missing").len(), 0);
    }
}
