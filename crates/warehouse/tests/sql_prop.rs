//! SQL-level property tests: for random queries spanning predicates ×
//! JOIN × GROUP BY × HAVING × ORDER BY × LIMIT, the planner's vectorized
//! executor is result-identical to an independent tree-walking
//! interpreter built from the naive reference verbs — across block
//! sizes, worker counts, and with the planner switched on *and* off.
//! Every parallel/optimized leg must additionally be **byte-identical**
//! (serialized JSON) to the first leg, and every generated query must
//! pass the static checker.
//!
//! A second, hostile family — token soup and mutated valid queries — must
//! come back from both planner legs and the checker as `Ok` or a typed
//! [`DbError`], never a panic or a stack overflow.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use mscope_db::{
    sql, AggFn, Column, ColumnType, Database, DbError, Predicate, QueryOptions, Schema, Table,
    Value, ValueKey,
};
use mscope_serdes::{FromJson, ToJson};
use mscope_sim::prop::{forall, Gen};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Query specs: a generatable, SQL-renderable subset of the grammar
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn sql(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    fn pred(self, col: &str, v: Value) -> Predicate {
        let c = col.to_string();
        match self {
            Cmp::Eq => Predicate::Eq(c, v),
            Cmp::Ne => Predicate::Ne(c, v),
            Cmp::Lt => Predicate::Lt(c, v),
            Cmp::Le => Predicate::Le(c, v),
            Cmp::Gt => Predicate::Gt(c, v),
            Cmp::Ge => Predicate::Ge(c, v),
        }
    }
}

/// A renderable predicate tree over named columns with Int/Text literals.
#[derive(Debug, Clone)]
enum P {
    True,
    Cmp(String, Cmp, Value),
    And(Box<P>, Box<P>),
    Or(Box<P>, Box<P>),
    Not(Box<P>),
}

impl P {
    fn sql(&self) -> String {
        match self {
            // Rendered only as an absent WHERE clause.
            P::True => String::new(),
            P::Cmp(c, op, v) => {
                let lit = match v {
                    Value::Text(s) => format!("'{s}'"),
                    other => other.render(),
                };
                format!("{c} {} {lit}", op.sql())
            }
            P::And(a, b) => format!("({} AND {})", a.sql(), b.sql()),
            P::Or(a, b) => format!("({} OR {})", a.sql(), b.sql()),
            P::Not(a) => format!("NOT {}", a.sql()),
        }
    }

    fn pred(&self) -> Predicate {
        match self {
            P::True => Predicate::True,
            P::Cmp(c, op, v) => op.pred(c, v.clone()),
            P::And(a, b) => Predicate::And(vec![a.pred(), b.pred()]),
            P::Or(a, b) => Predicate::Or(vec![a.pred(), b.pred()]),
            P::Not(a) => Predicate::Not(Box::new(a.pred())),
        }
    }
}

/// One aggregate projection item: `COUNT(*)` (`col == "*"`) or
/// `<AGG>(col)`.
#[derive(Debug, Clone)]
struct AggSpec {
    agg: AggFn,
    col: String,
}

impl AggSpec {
    fn sql(&self) -> String {
        let kw = match self.agg {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Mean => "AVG",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
            AggFn::Last => "LAST",
        };
        format!("{kw}({})", self.col)
    }

    /// The result-column name, mirroring the warehouse naming rules
    /// (no collision fallback needed: generation keeps columns distinct).
    fn out_name(&self, whole_table: bool) -> String {
        let label = match self.agg {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Mean => "avg",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Last => "last",
        };
        match (self.col.as_str(), whole_table) {
            ("*", false) => "count".to_string(),
            ("*", true) => "count_*".to_string(),
            (c, false) => c.to_string(),
            (c, true) => format!("{label}_{c}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Spec {
    /// Non-aggregate projection; `None` = `*`. Ignored when `aggs` is
    /// non-empty (keys render instead).
    cols: Option<Vec<String>>,
    aggs: Vec<AggSpec>,
    table: String,
    join: Option<(String, String, String)>,
    pred: P,
    group_by: Vec<String>,
    having: Option<P>,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
}

impl Spec {
    fn sql(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        if self.aggs.is_empty() {
            match &self.cols {
                None => items.push("*".to_string()),
                Some(cs) => items.extend(cs.iter().cloned()),
            }
        } else {
            items.extend(self.group_by.iter().cloned());
            items.extend(self.aggs.iter().map(AggSpec::sql));
        }
        let mut s = format!("SELECT {} FROM {}", items.join(", "), self.table);
        if let Some((jt, lc, rc)) = &self.join {
            s.push_str(&format!(" JOIN {jt} ON {lc} = {rc}"));
        }
        let w = self.pred.sql();
        if !w.is_empty() {
            s.push_str(&format!(" WHERE {w}"));
        }
        if !self.group_by.is_empty() {
            s.push_str(&format!(" GROUP BY {}", self.group_by.join(", ")));
        }
        if let Some(h) = &self.having {
            s.push_str(&format!(" HAVING {}", h.sql()));
        }
        if let Some((c, asc)) = &self.order_by {
            s.push_str(&format!(" ORDER BY {c}{}", if *asc { "" } else { " DESC" }));
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        s
    }
}

// ---------------------------------------------------------------------
// Database generation
// ---------------------------------------------------------------------

/// `ev(ts, num, tag, x)` — timestamps sorted with probability ½ (so sort
/// elision fires sometimes), Int metric, short-alphabet text key and a
/// Float metric of 0.1 steps, all with nulls — and `dim(tag, w)`, a small
/// fan-out dimension table. Both are reindexed at arbitrary block sizes.
/// The steps of `x` are not exact in binary, so a sum over it depends on
/// the order of its additions, and one that followed the worker count
/// would change the bytes the property compares.
fn arb_db(g: &mut Gen) -> Database {
    let ev_schema = Schema::new(vec![
        Column::new("ts", ColumnType::Timestamp),
        Column::new("num", ColumnType::Int),
        Column::new("tag", ColumnType::Text),
        Column::new("x", ColumnType::Float),
    ])
    .expect("static schema is valid");
    let mut ev = Table::new("ev", ev_schema);
    let sorted = g.bool();
    let mut ts = 0i64;
    for _ in 0..g.usize(0..=120) {
        ts = if sorted {
            ts + g.i64(0..=5_000)
        } else {
            g.i64(0..=500_000)
        };
        let tsv = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Timestamp(ts)
        };
        let num = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Int(g.i64(-50..=50))
        };
        let tag = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Text(g.choose(&["a", "b", "c", "d"]).to_string())
        };
        let x = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Float(g.i64(-500..=500) as f64 / 10.0)
        };
        ev.push_row(vec![tsv, num, tag, x])
            .expect("row fits schema");
    }
    ev.reindex(g.choose(&[1usize, 3, 7, 16, 1024]));

    let dim_schema = Schema::new(vec![
        Column::new("tag", ColumnType::Text),
        Column::new("w", ColumnType::Int),
    ])
    .expect("static schema is valid");
    let mut dim = Table::new("dim", dim_schema);
    for _ in 0..g.usize(0..=8) {
        let tag = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Text(g.choose(&["a", "b", "c", "d", "e"]).to_string())
        };
        dim.push_row(vec![tag, Value::Int(g.i64(0..=9))])
            .expect("row fits schema");
    }
    dim.reindex(g.choose(&[1usize, 2, 64]));

    let mut db = Database::new();
    db.replace_table(ev).expect("ev is not static");
    db.replace_table(dim).expect("dim is not static");
    db
}

// ---------------------------------------------------------------------
// Query generation
// ---------------------------------------------------------------------

fn arb_literal(g: &mut Gen, col: &str) -> Value {
    if col.ends_with("tag") {
        Value::Text(g.choose(&["a", "b", "c", "e"]).to_string())
    } else if col == "x" {
        Value::Float(g.i64(-400..=400) as f64 / 10.0)
    } else {
        Value::Int(g.i64(-40..=40))
    }
}

fn arb_cmp(g: &mut Gen) -> Cmp {
    g.choose(&[Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge])
}

/// A predicate tree over `cols` (source-relation names), depth-bounded.
fn arb_p(g: &mut Gen, cols: &[&str], depth: usize) -> P {
    if depth == 0 || g.bool() {
        let col = g.choose(cols);
        P::Cmp(col.to_string(), arb_cmp(g), arb_literal(g, col))
    } else {
        match g.usize(0..=2) {
            0 => P::And(
                Box::new(arb_p(g, cols, depth - 1)),
                Box::new(arb_p(g, cols, depth - 1)),
            ),
            1 => P::Or(
                Box::new(arb_p(g, cols, depth - 1)),
                Box::new(arb_p(g, cols, depth - 1)),
            ),
            _ => P::Not(Box::new(arb_p(g, cols, depth - 1))),
        }
    }
}

fn arb_spec(g: &mut Gen) -> Spec {
    let join = g.bool();
    // Source-relation column names: `dim.tag` collides with `ev.tag` and
    // surfaces as `dim_tag`.
    let source: Vec<&str> = if join {
        vec!["ts", "num", "tag", "x", "dim_tag", "w"]
    } else {
        vec!["ts", "num", "tag", "x"]
    };
    let where_cols: Vec<&str> = if join {
        vec!["num", "tag", "x", "dim_tag", "w"]
    } else {
        vec!["num", "tag", "x"]
    };
    let numeric: Vec<&str> = if join {
        vec!["ts", "num", "x", "w"]
    } else {
        vec!["ts", "num", "x"]
    };

    let pred = if g.bool() {
        let depth = g.usize(0..=2);
        arb_p(g, &where_cols, depth)
    } else {
        P::True
    };

    let grouped = g.bool();
    let (mut group_by, mut aggs): (Vec<String>, Vec<AggSpec>) = (Vec::new(), Vec::new());
    let mut cols = None;
    if grouped {
        let keys: Vec<&str> = if join {
            vec!["tag", "num", "dim_tag", "w"]
        } else {
            vec!["tag", "num"]
        };
        group_by.push(g.choose(&keys).to_string());
        if g.bool() {
            let second = g.choose(&keys).to_string();
            if !group_by.contains(&second) {
                group_by.push(second);
            }
        }
        if g.bool() {
            aggs.push(AggSpec {
                agg: AggFn::Count,
                col: "*".to_string(),
            });
        }
        // Aggregate inputs: numeric columns not used as keys, each at
        // most once so output names never collide.
        for c in &numeric {
            if !group_by.iter().any(|k| k == c) && g.bool() && g.bool() {
                let agg = g.choose(&[AggFn::Sum, AggFn::Mean, AggFn::Min, AggFn::Max]);
                aggs.push(AggSpec {
                    agg,
                    col: (*c).to_string(),
                });
            }
        }
        if aggs.is_empty() {
            aggs.push(AggSpec {
                agg: AggFn::Count,
                col: "*".to_string(),
            });
        }
    } else if g.bool() {
        // Whole-table aggregate.
        aggs.push(AggSpec {
            agg: AggFn::Count,
            col: "*".to_string(),
        });
        if g.bool() {
            let c = g.choose(&numeric);
            let agg = g.choose(&[AggFn::Sum, AggFn::Mean, AggFn::Min, AggFn::Max]);
            aggs.push(AggSpec {
                agg,
                col: c.to_string(),
            });
        }
    } else if g.bool() {
        // Explicit projection: a distinct, non-empty subset.
        let mut cs: Vec<String> = Vec::new();
        for c in &source {
            if g.bool() {
                cs.push((*c).to_string());
            }
        }
        if cs.is_empty() {
            cs.push("num".to_string());
        }
        cols = Some(cs);
    }

    // Result-column names, for HAVING and ORDER BY.
    let whole_table = !aggs.is_empty() && group_by.is_empty();
    let result_cols: Vec<String> = if aggs.is_empty() {
        match &cols {
            None => source.iter().map(|s| s.to_string()).collect(),
            Some(cs) => cs.clone(),
        }
    } else {
        let agg_names: Vec<String> = aggs.iter().map(|a| a.out_name(whole_table)).collect();
        let mut out: Vec<String> = group_by
            .iter()
            .map(|k| {
                if agg_names.iter().any(|n| n == k) {
                    format!("{k}_key")
                } else {
                    k.clone()
                }
            })
            .collect();
        out.extend(agg_names);
        out
    };

    let having = if !group_by.is_empty() && g.bool() {
        let agg_names: Vec<&str> = result_cols[group_by.len()..]
            .iter()
            .map(String::as_str)
            .collect();
        let col = g.choose(&agg_names);
        // Aggregate outputs are Float; compare against small ints.
        Some(P::Cmp(
            col.to_string(),
            arb_cmp(g),
            Value::Int(g.i64(0..=5)),
        ))
    } else {
        None
    };

    // `count_*` is a valid result name but not a lexable identifier, so
    // it can never be an ORDER BY target.
    let sortable: Vec<&str> = result_cols
        .iter()
        .filter(|c| !c.contains('*'))
        .map(String::as_str)
        .collect();
    let order_by = if g.bool() && !sortable.is_empty() {
        Some((g.choose(&sortable).to_string(), g.bool()))
    } else {
        None
    };
    let limit = g.bool().then(|| g.usize(0..=7));

    Spec {
        cols,
        aggs,
        table: "ev".to_string(),
        join: join.then(|| ("dim".to_string(), "tag".to_string(), "tag".to_string())),
        pred,
        group_by,
        having,
        order_by,
        limit,
    }
}

// ---------------------------------------------------------------------
// The independent tree-walking interpreter (naive verbs only)
// ---------------------------------------------------------------------

fn fold_vals(agg: AggFn, vals: &[f64], count: usize, whole_table: bool) -> Option<f64> {
    match agg {
        AggFn::Count => Some(count as f64),
        AggFn::Sum => {
            if !vals.is_empty() {
                Some(vals.iter().sum())
            } else if whole_table {
                Some(0.0)
            } else {
                None
            }
        }
        AggFn::Mean => (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64),
        AggFn::Min => vals.iter().copied().reduce(f64::min),
        AggFn::Max => vals.iter().copied().reduce(f64::max),
        AggFn::Last => vals.last().copied(),
    }
}

fn naive_aggregate(cur: &Table, q: &Spec, name: &str) -> Result<Table, DbError> {
    let whole_table = q.group_by.is_empty();
    let agg_names: Vec<String> = q.aggs.iter().map(|a| a.out_name(whole_table)).collect();
    let key_names: Vec<String> = q
        .group_by
        .iter()
        .map(|k| {
            if agg_names.iter().any(|n| n == k) {
                format!("{k}_key")
            } else {
                k.clone()
            }
        })
        .collect();
    let mut columns: Vec<Column> = key_names
        .iter()
        .map(|k| Column::new(k.clone(), ColumnType::Text))
        .collect();
    columns.extend(
        agg_names
            .iter()
            .map(|n| Column::new(n.clone(), ColumnType::Float)),
    );
    let schema = Schema::new(columns)?;

    let kcols: Vec<&[Value]> = q
        .group_by
        .iter()
        .map(|k| cur.column(k).expect("key resolved"))
        .collect();
    let acols: Vec<Option<&[Value]>> = q
        .aggs
        .iter()
        .map(|a| (a.col != "*").then(|| cur.column(&a.col).expect("aggregate input resolved")))
        .collect();

    // first-seen groups: (first row, per-agg accepted values, per-agg
    // non-null count).
    let mut seen: HashMap<Vec<ValueKey>, usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<Vec<f64>>, Vec<usize>)> = Vec::new();
    'rows: for i in 0..cur.row_count() {
        let mut kt = Vec::with_capacity(kcols.len());
        for kc in &kcols {
            if kc[i].is_null() {
                continue 'rows;
            }
            kt.push(kc[i].key());
        }
        let gi = match seen.get(&kt) {
            Some(&gi) => gi,
            None => {
                groups.push((i, vec![Vec::new(); q.aggs.len()], vec![0; q.aggs.len()]));
                seen.insert(kt, groups.len() - 1);
                groups.len() - 1
            }
        };
        let (_, vals, counts) = &mut groups[gi];
        for (j, spec) in q.aggs.iter().enumerate() {
            match acols[j] {
                None => counts[j] += 1,
                Some(ac) => {
                    if spec.agg == AggFn::Count {
                        if !ac[i].is_null() {
                            counts[j] += 1;
                        }
                    } else if let Some(v) = ac[i].as_f64() {
                        vals[j].push(v);
                    }
                }
            }
        }
    }

    if whole_table {
        // One row, always emitted, over all rows (no key dropping).
        let (mut vals, mut counts) = (vec![Vec::new(); q.aggs.len()], vec![0usize; q.aggs.len()]);
        for i in 0..cur.row_count() {
            for (j, spec) in q.aggs.iter().enumerate() {
                match acols[j] {
                    None => counts[j] += 1,
                    Some(ac) => {
                        if spec.agg == AggFn::Count {
                            if !ac[i].is_null() {
                                counts[j] += 1;
                            }
                        } else if let Some(v) = ac[i].as_f64() {
                            vals[j].push(v);
                        }
                    }
                }
            }
        }
        let mut t = Table::new(name, schema);
        let row: Vec<Value> = q
            .aggs
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                fold_vals(spec.agg, &vals[j], counts[j], true).map_or(Value::Null, Value::Float)
            })
            .collect();
        t.push_row(row)?;
        return Ok(t);
    }

    // Emit groups sorted by original key values, stable over first-seen.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (groups[a].0, groups[b].0);
        kcols
            .iter()
            .map(|kc| kc[ra].total_cmp(&kc[rb]))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut t = Table::new(name, schema);
    for &gi in &order {
        let (first, vals, counts) = &groups[gi];
        let outs: Vec<Option<f64>> = q
            .aggs
            .iter()
            .enumerate()
            .map(|(j, spec)| fold_vals(spec.agg, &vals[j], counts[j], false))
            .collect();
        if outs.iter().all(Option::is_none) {
            continue;
        }
        let mut row: Vec<Value> = kcols
            .iter()
            .map(|kc| Value::Text(kc[*first].render()))
            .collect();
        row.extend(
            outs.into_iter()
                .map(|o| o.map_or(Value::Null, Value::Float)),
        );
        t.push_row(row)?;
    }
    Ok(t)
}

/// The oracle's own projection — row at a time through the public
/// accessors, so the interpreter shares no code with the engine it checks.
fn project(t: &Table, cols: &[String]) -> Result<Table, DbError> {
    let columns = cols
        .iter()
        .map(|c| {
            let ci = t
                .schema()
                .index_of(c)
                .ok_or_else(|| DbError::NoSuchColumn(c.clone()))?;
            Ok(t.schema().columns()[ci].clone())
        })
        .collect::<Result<Vec<Column>, DbError>>()?;
    let mut out = Table::new(t.name(), Schema::new(columns)?);
    for i in 0..t.row_count() {
        let row = cols
            .iter()
            .map(|c| t.cell(i, c).cloned().expect("projected column resolved"))
            .collect();
        out.push_row(row)?;
    }
    Ok(out)
}

/// Clause-by-clause evaluation with the naive reference verbs; the
/// oracle the planner legs must match byte for byte.
fn naive_eval(db: &Database, q: &Spec) -> Result<Table, DbError> {
    let left = db.require(&q.table)?;
    let base_name;
    let joined = match &q.join {
        Some((jt, lc, rc)) => {
            let right = db.require(jt)?;
            base_name = format!("{}_x_{jt}", q.table);
            left.inner_join_naive(right, lc, rc)?
        }
        None => {
            base_name = q.table.clone();
            left.filter_naive(&Predicate::True)
        }
    };
    let cur = joined.filter_naive(&q.pred.pred());

    let mut out = if !q.aggs.is_empty() {
        let name = if q.group_by.is_empty() {
            "result".to_string()
        } else {
            format!("{base_name}_by_{}", q.group_by[0])
        };
        naive_aggregate(&cur, q, &name)?
    } else {
        match &q.cols {
            None => cur,
            Some(cs) => project(&cur, cs)?,
        }
    };
    if let Some(h) = &q.having {
        out = out.filter_naive(&h.pred());
    }
    if let Some((c, asc)) = &q.order_by {
        out = out.order_by(c, *asc)?;
    }
    if let Some(n) = q.limit {
        let keep: Vec<usize> = (0..out.row_count().min(n)).collect();
        out = out.select_rows(&keep);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

#[test]
fn planner_matches_naive_interpreter() {
    forall("sql planner ≡ naive interpreter", 192, |g| {
        let db = arb_db(g);
        let q = arb_spec(g);
        let sql_text = q.sql();

        // Every generated query must pass the static checker.
        sql::check_against(&db, &sql_text)
            .map_err(|e| format!("checker rejected `{sql_text}`: {e}"))?;

        let expected =
            naive_eval(&db, &q).map_err(|e| format!("oracle errored on `{sql_text}`: {e}"))?;

        let mut first_json: Option<String> = None;
        for optimize in [true, false] {
            for workers in [0usize, 1, 2, 8] {
                let got = db
                    .query_opts(&sql_text, QueryOptions { workers, optimize })
                    .map_err(|e| {
                        format!("query (opt={optimize}, w={workers}) errored on `{sql_text}`: {e}")
                    })?;
                if got != expected {
                    return Err(format!(
                        "`{sql_text}` (opt={optimize}, w={workers}): {} rows vs oracle {} \
                         rows\ngot:\n{}\nexpected:\n{}",
                        got.row_count(),
                        expected.row_count(),
                        got.render_text(12),
                        expected.render_text(12)
                    ));
                }
                let j = got.to_json().to_string();
                match &first_json {
                    None => first_json = Some(j),
                    Some(f) => {
                        if *f != j {
                            return Err(format!(
                                "`{sql_text}` (opt={optimize}, w={workers}) not byte-identical \
                                 to first leg"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn explain_never_errors_and_is_stable() {
    forall("EXPLAIN is total and worker-independent", 96, |g| {
        let db = arb_db(g);
        let q = arb_spec(g);
        let sql_text = format!("EXPLAIN {}", q.sql());
        let mut first: Option<String> = None;
        for workers in [0usize, 3] {
            let plan = db
                .query_opts(
                    &sql_text,
                    QueryOptions {
                        workers,
                        optimize: true,
                    },
                )
                .map_err(|e| format!("`{sql_text}` errored: {e}"))?;
            if plan.name() != "explain" || plan.row_count() == 0 {
                return Err(format!(
                    "`{sql_text}`: want a non-empty `explain` table, got `{}` with {} rows",
                    plan.name(),
                    plan.row_count()
                ));
            }
            let j = plan.to_json().to_string();
            match &first {
                None => first = Some(j),
                Some(f) => {
                    if *f != j {
                        return Err(format!("`{sql_text}`: plan differs across worker counts"));
                    }
                }
            }
        }
        Ok(())
    });
}

/// Planner-off is a plan: `EXPLAIN` under `optimize: false` shows the
/// pinned choices that then execute, and differs from the planner's own
/// plan for the same query exactly where statistics would have decided.
#[test]
fn explain_planner_off_shows_the_pinned_plan() {
    let mut db = Database::new();
    let ev_schema = Schema::new(vec![
        Column::new("ts", ColumnType::Timestamp),
        Column::new("num", ColumnType::Int),
        Column::new("tag", ColumnType::Text),
    ])
    .expect("static schema is valid");
    let mut ev = Table::new("ev", ev_schema);
    for (ts, num, tag) in [(10, 1, "a"), (20, 2, "b")] {
        ev.push_row(vec![Value::Timestamp(ts), Value::Int(num), tag.into()])
            .expect("row fits schema");
    }
    let dim_schema = Schema::new(vec![
        Column::new("tag", ColumnType::Text),
        Column::new("w", ColumnType::Int),
    ])
    .expect("static schema is valid");
    let mut dim = Table::new("dim", dim_schema);
    for w in 0..12 {
        dim.push_row(vec![["a", "b", "c"][w % 3].into(), Value::Int(w as i64)])
            .expect("row fits schema");
    }
    db.replace_table(ev).expect("ev is not static");
    db.replace_table(dim).expect("dim is not static");

    let explain = |sql: &str, optimize: bool| -> Vec<String> {
        let opts = QueryOptions {
            workers: 0,
            optimize,
        };
        let plan = db
            .query_opts(&format!("EXPLAIN {sql}"), opts)
            .expect("explain runs");
        let lines = plan.column("plan").expect("plan column");
        lines.iter().map(Value::render).collect()
    };

    let join = "SELECT num, w FROM ev JOIN dim ON tag = tag WHERE num > 0 AND w < 5";
    let off = explain(join, false);
    assert!(off[0].starts_with("Scan ev rows=2 pred=true "), "{off:?}");
    assert!(off[1].starts_with("Scan dim rows=12 pred=true "), "{off:?}");
    assert!(
        off[2].starts_with("HashJoin ev.tag = dim.tag build=right"),
        "{off:?}"
    );
    assert_eq!(off[3], "Filter (num > 0 AND w < 5)", "{off:?}");
    assert_eq!(off.len(), 4, "{off:?}");
    // The planner pushes both conjuncts below the join and hashes the
    // smaller input.
    let on = explain(join, true);
    assert!(on[0].starts_with("Scan ev rows=2 pred=num > 0 "), "{on:?}");
    assert!(on[1].starts_with("Scan dim rows=12 pred=w < 5 "), "{on:?}");
    assert!(
        on[2].starts_with("HashJoin ev.tag = dim.tag build=left"),
        "{on:?}"
    );
    assert_eq!(on.len(), 3, "{on:?}");

    // `ts` is stored ascending: only the planner elides the sort.
    let sorted = "SELECT ts FROM ev ORDER BY ts";
    assert_eq!(
        explain(sorted, false).last().map(String::as_str),
        Some("Sort ts asc")
    );
    assert!(explain(sorted, true).concat().contains("elided"));
    // What EXPLAIN shows is what runs: both plans give the same rows.
    for sql in [join, sorted] {
        let opts = QueryOptions {
            workers: 0,
            optimize: false,
        };
        assert_eq!(
            db.query_opts(sql, opts).expect("query runs"),
            db.query(sql).expect("query runs"),
            "{sql}"
        );
    }
}

// ---------------------------------------------------------------------
// Kept key indexes: identity across filters, repeats and writes
// ---------------------------------------------------------------------

/// A join key of any type the warehouse stores, from a domain small
/// enough that duplicates and cross-type near-misses (`Int(1)`,
/// `Float(1.0)`, `Timestamp(1)`, `'1'`) are common, or null.
fn arb_key(g: &mut Gen) -> Value {
    let n = g.i64(0..=3);
    match g.usize(0..=5) {
        0 => Value::Null,
        1 | 2 => Value::Int(n),
        3 => Value::Float(n as f64),
        4 => Value::Timestamp(n),
        _ => Value::Text(n.to_string()),
    }
}

/// One row of `side(k, <val>)`: a mixed-type key and an Int the side's
/// filter reads.
fn arb_key_row(g: &mut Gen) -> Vec<Value> {
    vec![arb_key(g), Value::Int(g.i64(0..=9))]
}

/// `side(k text, <val> int)` with up to `max` random rows.
fn arb_key_table(g: &mut Gen, name: &str, val: &str, max: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("k", ColumnType::Text),
        Column::new(val, ColumnType::Int),
    ])
    .expect("static schema is valid");
    let mut t = Table::new(name, schema);
    let rows = g.vec(0..=max, arb_key_row);
    t.push_batch(rows).expect("rows fit the schema");
    t
}

/// `SELECT * FROM l JOIN r ON k = k` with each side filtered or not,
/// and the naive oracle: `inner_join_naive`, then the same filter.
fn kept_join_case(l_cut: Option<i64>, r_cut: Option<i64>) -> (String, Predicate) {
    let mut conds = Vec::new();
    let mut preds = Vec::new();
    if let Some(c) = l_cut {
        conds.push(format!("a < {c}"));
        preds.push(Predicate::Lt("a".into(), Value::Int(c)));
    }
    if let Some(c) = r_cut {
        conds.push(format!("b < {c}"));
        preds.push(Predicate::Lt("b".into(), Value::Int(c)));
    }
    let mut sql = "SELECT * FROM l JOIN r ON k = k".to_string();
    if !conds.is_empty() {
        sql = format!("{sql} WHERE {}", conds.join(" AND "));
    }
    let pred = match preds.len() {
        0 => Predicate::True,
        _ => Predicate::And(preds),
    };
    (sql, pred)
}

/// Every join leg over `db`'s current `l` and `r` against the naive join
/// of the same tables: planner on (twice, so the second call probes what
/// the first kept), planner off, and `Table::inner_join` for the
/// unfiltered case. `EXPLAIN` names a kept index exactly when the planner
/// is on and a side is unfiltered.
fn check_kept_joins(db: &Database, g: &mut Gen) -> Result<(), String> {
    let (l, r) = (
        db.require("l").map_err(|e| e.to_string())?,
        db.require("r").map_err(|e| e.to_string())?,
    );
    let naive = l.inner_join_naive(r, "k", "k").map_err(|e| e.to_string())?;
    let whole = l.inner_join(r, "k", "k").map_err(|e| e.to_string())?;
    if whole != naive {
        return Err(format!(
            "inner_join differs from the naive join:\n{}\nvs\n{}",
            whole.render_text(12),
            naive.render_text(12)
        ));
    }
    let cut = |g: &mut Gen| g.bool().then(|| g.i64(0..=10));
    let (l_cut, r_cut) = (cut(g), cut(g));
    let (sql_text, pred) = kept_join_case(l_cut, r_cut);
    let expected = naive.filter_naive(&pred);
    for (optimize, round) in [(true, 0), (false, 0), (true, 1)] {
        let opts = QueryOptions {
            workers: 0,
            optimize,
        };
        let got = db
            .query_opts(&sql_text, opts)
            .map_err(|e| format!("`{sql_text}` errored: {e}"))?;
        if got != expected {
            return Err(format!(
                "`{sql_text}` (opt={optimize}, round {round}): {} rows vs naive {}\ngot:\n{}\nexpected:\n{}",
                got.row_count(),
                expected.row_count(),
                got.render_text(12),
                expected.render_text(12)
            ));
        }
        let plan = db
            .query_opts(&format!("EXPLAIN {sql_text}"), opts)
            .map_err(|e| e.to_string())?;
        let join_line = plan
            .column("plan")
            .and_then(|c| {
                c.iter()
                    .find_map(|v| v.as_str().filter(|s| s.starts_with("HashJoin")))
            })
            .unwrap_or_default()
            .to_string();
        let want_kept = optimize && (l_cut.is_none() || r_cut.is_none());
        if join_line.contains(" kept ") != want_kept {
            return Err(format!("`{sql_text}` (opt={optimize}): {join_line}"));
        }
    }
    Ok(())
}

/// Writes to `l` or `r` through one of the warehouse's writers, picked at
/// random, so the next join must see rows no kept index was built over.
fn arb_write(db: &mut Database, g: &mut Gen) -> Result<(), String> {
    let (name, val) = g.choose(&[("l", "a"), ("r", "b")]);
    let result = match g.usize(0..=3) {
        0 => db.insert(name, arb_key_row(g)).map(|_| ()),
        1 => {
            let rows = g.vec(0..=4, arb_key_row);
            db.insert_batch(name, rows).map(|_| ())
        }
        2 => {
            let rows = g.vec(0..=4, arb_key_row);
            let mut cols = vec![Vec::new(), Vec::new()];
            for row in rows {
                for (col, v) in cols.iter_mut().zip(row) {
                    col.push(v);
                }
            }
            db.insert_columns(name, cols).map(|_| ())
        }
        _ => db.replace_table(arb_key_table(g, name, val, 12)),
    };
    result.map_err(|e| e.to_string())
}

/// A kept index is reused across joins and dropped by every write: over
/// random mixed-type keys with duplicates and nulls, each of the four
/// filtered/unfiltered side combinations gives the naive join's rows with
/// the planner on, off and on again, before and after random writes.
#[test]
fn kept_key_indexes_match_the_naive_join_across_writes() {
    forall("kept key index ≡ naive join across writes", 192, |g| {
        let mut db = Database::new();
        for (name, val) in [("l", "a"), ("r", "b")] {
            db.replace_table(arb_key_table(g, name, val, 12))
                .map_err(|e| e.to_string())?;
        }
        check_kept_joins(&db, g)?;
        for _ in 0..g.usize(1..=3) {
            arb_write(&mut db, g)?;
            check_kept_joins(&db, g)?;
        }
        Ok(())
    });
}

/// The writer-by-writer cases: join (keeping `r`'s index), write, join
/// again, and match a table built fresh with the same rows. The new row's
/// key `'9'` is in no kept index, so a stale one loses the match.
fn join_write_join(write: impl FnOnce(&mut Database)) {
    let key_table = |name: &str, val: &str, keys: &[&str]| {
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Text),
            Column::new(val, ColumnType::Int),
        ])
        .expect("static schema is valid");
        let mut t = Table::new(name, schema);
        for (i, k) in keys.iter().enumerate() {
            t.push_row(vec![Value::Text((*k).into()), Value::Int(i as i64)])
                .expect("row fits schema");
        }
        t
    };
    let mut db = Database::new();
    db.replace_table(key_table("l", "a", &["1", "9", "2"]))
        .expect("l installs");
    db.replace_table(key_table("r", "b", &["1", "2", "2"]))
        .expect("r installs");
    // The left side is filtered, so the planner probes `r`'s kept index.
    let sql_text = "SELECT * FROM l JOIN r ON k = k WHERE a < 5";
    let before = db.query(sql_text).expect("join runs");
    assert_eq!(before.row_count(), 3, "{}", before.render_text(0));
    write(&mut db);
    let after = db.query(sql_text).expect("join runs");
    let mut fresh = Database::new();
    for name in ["l", "r"] {
        let t = db.require(name).expect("table exists");
        let copy = Table::from_json(&t.to_json()).expect("table round-trips");
        fresh.replace_table(copy).expect("table installs");
    }
    assert_eq!(after, fresh.query(sql_text).expect("join runs"));
    assert_eq!(after.row_count(), 4, "{}", after.render_text(0));
}

#[test]
fn insert_drops_the_kept_index() {
    join_write_join(|db| {
        db.insert("r", vec!["9".into(), Value::Int(3)])
            .expect("row fits schema");
    });
}

#[test]
fn insert_batch_drops_the_kept_index() {
    join_write_join(|db| {
        db.insert_batch("r", vec![vec!["9".into(), Value::Int(3)]])
            .expect("rows fit schema");
    });
}

#[test]
fn insert_columns_drops_the_kept_index() {
    join_write_join(|db| {
        db.insert_columns("r", vec![vec!["9".into()], vec![Value::Int(3)]])
            .expect("columns fit schema");
    });
}

#[test]
fn replace_table_installs_a_table_with_no_kept_index() {
    join_write_join(|db| {
        let old = db.require("r").expect("r exists");
        let mut rows: Vec<Vec<Value>> = old.iter_rows().collect();
        rows.push(vec!["9".into(), Value::Int(3)]);
        let mut r = Table::new("r", old.schema().clone());
        r.push_batch(rows).expect("rows fit schema");
        db.replace_table(r).expect("r installs");
    });
}

/// `reindex` rebuilds the zone maps and, like every `&mut` writer, drops
/// the kept key indexes; `push_row` is the writer underneath `insert`.
/// The join runs through `Table::inner_join`, whose smaller side (`r`)
/// is probed through its kept index.
#[test]
fn reindex_and_push_row_drop_the_kept_index() {
    let schema =
        || Schema::new(vec![Column::new("k", ColumnType::Text)]).expect("static schema is valid");
    let mut l = Table::new("l", schema());
    let mut r = Table::new("r", schema());
    for k in ["1", "9", "2", "2"] {
        l.push_row(vec![k.into()]).expect("row fits schema");
    }
    for k in ["2", "1"] {
        r.push_row(vec![k.into()]).expect("row fits schema");
    }
    let join = |l: &Table, r: &Table| l.inner_join(r, "k", "k").expect("join runs");
    assert_eq!(join(&l, &r).row_count(), 3);
    for (nines, block_rows) in [(1, 1), (2, 3)] {
        r.reindex(block_rows);
        assert_eq!(
            join(&l, &r),
            l.inner_join_naive(&r, "k", "k").expect("join runs")
        );
        r.push_row(vec!["9".into()]).expect("row fits schema");
        let got = join(&l, &r);
        assert_eq!(got, l.inner_join_naive(&r, "k", "k").expect("join runs"));
        assert_eq!(got.row_count(), 3 + nines, "{}", got.render_text(0));
    }
}

// ---------------------------------------------------------------------
// Hostile input: token soup and mutated valid queries
// ---------------------------------------------------------------------

/// Splits generated SQL into mutation units: words, quoted literals and
/// single punctuation characters (generated literals hold no spaces).
fn tokens(sql: &str) -> Vec<String> {
    let spaced = sql
        .replace('(', " ( ")
        .replace(')', " ) ")
        .replace(',', " , ");
    spaced.split_whitespace().map(str::to_string).collect()
}

/// Nesting depths around the parser's cap (64) and far past it: 20 000
/// levels overflowed the stack before the cap existed.
const NESTINGS: [usize; 7] = [1, 8, 63, 64, 65, 200, 20_000];

const VOCAB: [&str; 44] = [
    "SELECT", "EXPLAIN", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AND", "OR", "NOT", "ASC", "DESC", "COUNT", "SUM", "AVG", "MIN", "MAX", "time", "NULL", "TRUE",
    "ev", "dim", "ts", "num", "tag", "dim_tag", "w", "ghost", "*", ",", ".", "(", ")", "=", "!=",
    "<", "<=", ">", ">=", "<>",
];

fn arb_hostile_literal(g: &mut Gen) -> String {
    match g.usize(0..=10) {
        0 => "99999999999999999999999999".to_string(),
        1 => "-9223372036854775808".to_string(),
        2 => "9223372036854775808".to_string(),
        3 => "1e999".to_string(),
        4 => "--5".to_string(),
        5 => "1.2.3e+-4".to_string(),
        6 => "'unterminated".to_string(),
        7 => format!("'{}'", g.string(0..=6).replace('\'', "''")),
        // Bare non-ASCII and stray punctuation: lexer errors.
        8 => g.string(1..=4),
        // An hour field whose microseconds overflow `i64`.
        9 => "time '6000000000:00:00'".to_string(),
        _ => g.i64(-1_000_000..=1_000_000).to_string(),
    }
}

/// Token soup, or a valid generated query with a few token-level edits
/// and optionally its WHERE wrapped in deep nesting.
fn arb_hostile_sql(g: &mut Gen) -> String {
    if g.usize(0..=3) == 0 {
        let n = g.usize(0..=40);
        let soup: Vec<String> = (0..n)
            .map(|_| {
                if g.usize(0..=5) == 0 {
                    arb_hostile_literal(g)
                } else {
                    g.choose(&VOCAB).to_string()
                }
            })
            .collect();
        return soup.join(" ");
    }
    let mut spec = arb_spec(g);
    if matches!(spec.pred, P::True) {
        spec.pred = P::Cmp("num".to_string(), Cmp::Gt, Value::Int(0));
    }
    let base = spec.sql();
    let sql = if g.bool() {
        // Nest the WHERE predicate `depth` levels in parentheses or NOTs.
        let depth = g.choose(&NESTINGS);
        let inner = spec.pred.sql();
        let nested = if g.bool() {
            format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
        } else {
            format!("{}{inner}", "NOT ".repeat(depth))
        };
        base.replacen(&inner, &nested, 1)
    } else {
        base
    };
    let mut toks = tokens(&sql);
    if g.usize(0..=3) == 0 {
        toks.insert(0, "EXPLAIN".to_string());
    }
    for _ in 0..g.usize(0..=2) {
        if toks.is_empty() {
            break;
        }
        let at = g.usize(0..=toks.len() - 1);
        match g.usize(0..=5) {
            0 => {
                toks.remove(at);
            }
            1 => toks.insert(at, toks[at].clone()),
            2 => {
                let other = g.usize(0..=toks.len() - 1);
                toks.swap(at, other);
            }
            3 => toks[at] = arb_hostile_literal(g),
            4 => toks[at] = g.choose(&VOCAB).to_string(),
            _ => toks.insert(at, g.choose(&VOCAB).to_string()),
        }
    }
    toks.join(" ")
}

/// Fixed seed (the property name) and case count: a failure names its
/// case seed and reproduces with `forall_seeded`. Inputs are bounded
/// (≤ 40 soup tokens, ≤ 20 000 nesting levels, ≤ 120-row tables), so the
/// run is too.
#[test]
fn hostile_sql_never_panics() {
    forall("hostile sql is Ok or a typed error", 1024, |g| {
        let db = arb_db(g);
        let sql_text = arb_hostile_sql(g);
        let shown: String = sql_text.chars().take(200).collect();
        let outcome = std::panic::catch_unwind(|| {
            let leg = |optimize| {
                let opts = QueryOptions {
                    workers: 0,
                    optimize,
                };
                db.query_opts(&sql_text, opts)
            };
            (leg(true), leg(false), sql::check_against(&db, &sql_text))
        });
        let Ok((on, off, checked)) = outcome else {
            return Err(format!("panicked on `{shown}`"));
        };
        // The planner legs accept and reject the same queries, with the
        // same answer; EXPLAIN output is the one place they may differ.
        match (&on, &off) {
            (Ok(a), Ok(b)) if a == b || a.name() == "explain" => {}
            (Err(a), Err(b)) if a == b => {}
            _ => {
                return Err(format!(
                    "planner legs disagree on `{shown}`: {on:?} vs {off:?}"
                ))
            }
        }
        // The checker resolves through the same pass as the planner, then
        // adds what execution tolerates: a WHERE/HAVING column that does
        // not exist (execution reads it as false) and impossible types.
        // It never accepts what execution rejects.
        match (&checked, &on) {
            (Ok(()), Ok(_)) => Ok(()),
            (Err(DbError::TypeMismatch { .. } | DbError::NoSuchColumn(_)), Ok(_)) => Ok(()),
            (Err(c), Err(e)) if c == e => Ok(()),
            _ => Err(format!(
                "checker and executor disagree on `{shown}`: {checked:?} vs {on:?}"
            )),
        }
    });
}
