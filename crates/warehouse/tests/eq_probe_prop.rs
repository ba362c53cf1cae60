//! Property tests for the equality probe: a scan whose predicate has a
//! `col = literal` conjunct may answer it from the table's kept key index
//! instead of reading every row. Over hostile columns — every cell type in
//! one text column, empty and `-` text, duplicated keys, nulls, sorted and
//! unsorted timestamps — the probe must select exactly the rows the
//! row-at-a-time [`Predicate::eval`] selects, at every worker count and
//! through SQL with the planner on and off, and no write may leave a
//! later equality query reading a stale index.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use mscope_db::{
    Column, ColumnType, CompiledPredicate, Database, Predicate, QueryOptions, Schema, Table, Value,
};
use mscope_sim::prop::{forall, Gen};
use mscope_sim::{wallclock, SimTime};

/// Text keys, including the two a log cell turns into null upstream.
const TEXTS: [&str; 4] = ["a", "b", "", "-"];

/// A cell of any type, over a domain small enough that keys repeat and
/// `Int(1)` meets `Float(1.0)`.
fn arb_cell(g: &mut Gen) -> Value {
    match g.usize(0..=6) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int(g.i64(0..=3)),
        3 => Value::Float(g.i64(0..=6) as f64 / 2.0),
        4 => Value::Timestamp(g.i64(0..=3) * 1000),
        _ => Value::Text(g.choose(&TEXTS).to_string()),
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("mix", ColumnType::Text),
        Column::new("tag", ColumnType::Text),
        Column::new("ts", ColumnType::Timestamp),
        Column::new("flag", ColumnType::Bool),
        Column::new("n", ColumnType::Int),
    ])
    .expect("static schema is valid")
}

/// `count` rows after `ts0`: `mix` holds any type, `tag` short text with
/// nulls, `ts` ascending when `sorted` (else drawn anywhere, nulls
/// included), `flag` and `n` small with nulls.
fn arb_rows(g: &mut Gen, count: usize, sorted: bool, ts0: &mut i64) -> Vec<Vec<Value>> {
    (0..count)
        .map(|_| {
            let ts = if sorted {
                *ts0 += g.i64(0..=1) * 1000;
                Value::Timestamp(*ts0)
            } else {
                maybe(g, |g| Value::Timestamp(g.i64(0..=3) * 1000))
            };
            vec![
                arb_cell(g),
                maybe(g, |g| Value::Text(g.choose(&TEXTS).to_string())),
                ts,
                maybe(g, |g| Value::Bool(g.bool())),
                maybe(g, |g| Value::Int(g.i64(0..=3))),
            ]
        })
        .collect()
}

/// Null one time in six, else what `make` draws.
fn maybe(g: &mut Gen, make: impl FnOnce(&mut Gen) -> Value) -> Value {
    if g.usize(0..=5) == 0 {
        Value::Null
    } else {
        make(g)
    }
}

/// A table named `t` of up to 300 rows, its zone maps rebuilt at a block
/// size that is often tiny, so a probe's rows span many blocks and the
/// parallel legs have chunks to split.
fn arb_table(g: &mut Gen) -> Table {
    let mut t = Table::new("t", schema());
    let (sorted, mut ts0) = (g.bool(), 0);
    let count = g.usize(0..=300);
    t.push_batch(arb_rows(g, count, sorted, &mut ts0))
        .expect("rows fit the schema");
    t.reindex(g.choose(&[1usize, 2, 7, 64, 1024]));
    t
}

/// A literal of every type a probe takes or refuses: text (`""` and `-`
/// among them), bool, timestamp, and the `Int`/`Float` that must scan.
fn arb_lit(g: &mut Gen) -> Value {
    match g.usize(0..=4) {
        0 => Value::Bool(g.bool()),
        1 => Value::Int(g.i64(0..=3)),
        2 => Value::Float(g.i64(0..=6) as f64 / 2.0),
        3 => Value::Timestamp(g.i64(0..=3) * 1000),
        _ => Value::Text(g.choose(&TEXTS).to_string()),
    }
}

fn arb_eq(g: &mut Gen) -> Predicate {
    let col = g.choose(&["mix", "tag", "ts", "flag", "n", "mix", "tag"]);
    Predicate::Eq(col.to_string(), arb_lit(g))
}

fn arb_range(g: &mut Gen) -> Predicate {
    if g.bool() {
        let lo = g.i64(0..=3) * 1000;
        Predicate::Between(
            "ts".into(),
            Value::Timestamp(lo),
            Value::Timestamp(lo + g.i64(0..=2) * 1000),
        )
    } else {
        Predicate::Ge("n".into(), Value::Int(g.i64(0..=3)))
    }
}

/// One of the shapes the probe rule distinguishes: a lone `Eq`, `Eq`
/// beside a range (either order) or beside `True`, two `Eq`s under `AND`
/// or `OR`, `NOT Eq`, `Eq` with an `Int` and with a `Float` literal, and
/// `Eq` on a column the table does not have.
fn arb_pred(g: &mut Gen) -> Predicate {
    match g.usize(0..=9) {
        0 | 1 => arb_eq(g),
        2 => Predicate::And(vec![arb_eq(g), arb_range(g)]),
        3 => Predicate::And(vec![arb_range(g), arb_eq(g)]),
        4 => Predicate::And(vec![Predicate::True, arb_eq(g)]),
        5 => Predicate::And(vec![arb_eq(g), arb_eq(g)]),
        6 => Predicate::Or(vec![arb_eq(g), arb_eq(g)]),
        7 => Predicate::Not(Box::new(arb_eq(g))),
        8 => {
            let col = g.choose(&["mix", "n", "ts"]).to_string();
            let lit = if g.bool() {
                Value::Int(g.i64(0..=3))
            } else {
                Value::Float(g.i64(0..=6) as f64 / 2.0)
            };
            Predicate::Eq(col, lit)
        }
        _ => Predicate::Eq("nope".into(), Value::Text("a".into())),
    }
}

fn naive_rows(t: &Table, pred: &Predicate) -> Vec<usize> {
    (0..t.row_count()).filter(|&i| pred.eval(t, i)).collect()
}

fn sql_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Timestamp(t) => format!("time '{}'", wallclock(SimTime::from_micros(*t as u64))),
        Value::Text(s) => format!("'{s}'"),
    }
}

/// The predicate as a WHERE clause: `Between` is the half-open pair it
/// means, and a `True` conjunct, which SQL cannot spell, is left out.
fn sql_pred(p: &Predicate) -> String {
    let join = |ps: &[Predicate], op: &str| {
        let parts: Vec<String> = ps
            .iter()
            .filter(|q| **q != Predicate::True)
            .map(sql_pred)
            .collect();
        format!("({})", parts.join(op))
    };
    match p {
        Predicate::Eq(c, v) => format!("{c} = {}", sql_lit(v)),
        Predicate::Ge(c, v) => format!("{c} >= {}", sql_lit(v)),
        Predicate::Between(c, lo, hi) => {
            format!("({c} >= {} AND {c} < {})", sql_lit(lo), sql_lit(hi))
        }
        Predicate::And(ps) => join(ps, " AND "),
        Predicate::Or(ps) => join(ps, " OR "),
        Predicate::Not(q) => format!("NOT {}", sql_pred(q)),
        other => unreachable!("arb_pred makes no {other:?}"),
    }
}

/// `d(k, w)`: one row per text key, so a join on `tag = k` keeps every
/// keyed row of `t` once.
fn dim() -> Table {
    let schema = Schema::new(vec![
        Column::new("k", ColumnType::Text),
        Column::new("w", ColumnType::Int),
    ])
    .expect("static schema is valid");
    let mut d = Table::new("d", schema);
    for (w, k) in TEXTS.iter().enumerate() {
        d.push_row(vec![Value::Text((*k).into()), Value::Int(w as i64)])
            .expect("row fits the schema");
    }
    d
}

#[test]
fn probed_scans_match_row_at_a_time_eval() {
    forall("equality probe ≡ Predicate::eval", 384, |g| {
        let t = arb_table(g);
        let pred = arb_pred(g);
        let want = naive_rows(&t, &pred);
        for workers in [0usize, 1, 2, 8] {
            let got = CompiledPredicate::compile(&t, &pred).matching_rows_with(workers);
            if got != want {
                return Err(format!(
                    "{pred:?} with {workers} workers over {} rows: {got:?} vs {want:?}",
                    t.row_count()
                ));
            }
        }
        if t.filter(&pred) != t.filter_naive(&pred) {
            return Err(format!("Table::filter diverged on {pred:?}"));
        }
        Ok(())
    });
}

#[test]
fn planner_on_and_off_agree_on_probed_sql() {
    forall("probed SQL: planner on ≡ planner off", 192, |g| {
        let t = arb_table(g);
        let pred = arb_pred(g);
        let mut db = Database::new();
        db.replace_table(t.clone()).map_err(|e| e.to_string())?;
        db.replace_table(dim()).map_err(|e| e.to_string())?;
        let workers = g.choose(&[0usize, 1, 3]);
        let on = QueryOptions {
            workers,
            optimize: true,
        };
        let off = QueryOptions {
            workers,
            optimize: false,
        };
        let scan = format!("SELECT * FROM t WHERE {}", sql_pred(&pred));
        // Planner off keeps the whole WHERE above the join, where no
        // index is probed; planner on pushes it into `t`'s scan.
        let join = format!(
            "SELECT * FROM t JOIN d ON tag = k WHERE {}",
            sql_pred(&pred)
        );
        for sql_text in [&scan, &join] {
            let a = db
                .query_opts(sql_text, on)
                .map_err(|e| format!("{sql_text}: {e}"))?;
            let b = db
                .query_opts(sql_text, off)
                .map_err(|e| format!("{sql_text}: {e}"))?;
            if a != b {
                return Err(format!(
                    "`{sql_text}`: {} rows planner on, {} off",
                    a.row_count(),
                    b.row_count()
                ));
            }
        }
        let got = db.query_opts(&scan, on).map_err(|e| e.to_string())?;
        if got != t.filter_naive(&pred) {
            return Err(format!("`{scan}` diverged from filter_naive"));
        }
        Ok(())
    });
}

/// The probe is really taken: a text equality on `tag` names the index
/// in `EXPLAIN`, and an `Int` literal, a sorted column and `OR` do not.
#[test]
fn explain_names_the_index_only_where_the_rule_allows() {
    let mut t = Table::new("t", schema());
    for i in 0..50i64 {
        let mix = [Value::Bool(true), Value::Int(1), "a".into(), Value::Null];
        let at = (i % 4) as usize;
        t.push_row(vec![
            mix[at].clone(),
            TEXTS[at].into(),
            Value::Timestamp(i * 1000),
            Value::Bool(i % 2 == 0),
            Value::Int(i % 4),
        ])
        .expect("row fits the schema");
    }
    let mut db = Database::new();
    db.replace_table(t).expect("t installs");
    let scan_line = |where_: &str| {
        let plan = db
            .query(&format!("EXPLAIN SELECT * FROM t WHERE {where_}"))
            .expect("explain runs");
        plan.column("plan").expect("plan column")[0].render()
    };
    for (where_, index) in [
        ("tag = 'a'", Some("tag")),
        ("n >= 1 AND mix = TRUE", Some("mix")),
        ("flag = FALSE", Some("flag")),
        ("mix = 1", None),
        ("mix = 1.5", None),
        ("ts = time '00:00:00.001000'", None),
        ("tag = 'a' OR tag = 'b'", None),
        ("NOT tag = 'a'", None),
        ("nope = 'a'", None),
    ] {
        let line = scan_line(where_);
        let shown = line
            .split(' ')
            .find_map(|w| w.strip_prefix("index="))
            .map(str::to_string);
        assert_eq!(shown.as_deref(), index, "{where_}: {line}");
    }
}

/// SQL equality query, `insert_columns` (the streaming ingest's writer),
/// the same query again: the second answer holds the written row.
#[test]
fn insert_columns_between_equality_queries_is_seen() {
    let mut t = Table::new("t", schema());
    t.push_row(vec![
        "a".into(),
        "a".into(),
        Value::Timestamp(0),
        Value::Bool(true),
        Value::Int(1),
    ])
    .expect("row fits the schema");
    let mut db = Database::new();
    db.replace_table(t).expect("t installs");
    let sql_text = "SELECT * FROM t WHERE tag = 'a'";
    assert_eq!(db.query(sql_text).expect("query runs").row_count(), 1);
    let row = [
        Value::Int(2),
        "a".into(),
        Value::Timestamp(5),
        Value::Bool(false),
        Value::Null,
    ];
    db.insert_columns("t", row.into_iter().map(|v| vec![v]).collect())
        .expect("columns fit the schema");
    let after = db.query(sql_text).expect("query runs");
    let t = db.require("t").expect("t exists");
    assert_eq!(after.row_count(), 2, "{}", after.render_text(0));
    assert_eq!(
        after,
        t.filter_naive(&Predicate::Eq("tag".into(), "a".into()))
    );
}

/// The table-level writers, each between two `Table::filter` calls on the
/// same equality, over random tables and rows.
#[test]
fn push_row_and_push_columns_between_equality_filters_are_seen() {
    forall("equality filter after a write", 128, |g| {
        let mut t = arb_table(g);
        let pred = Predicate::Eq("tag".into(), Value::Text(g.choose(&TEXTS).to_string()));
        for _ in 0..g.usize(1..=3) {
            if t.filter(&pred) != t.filter_naive(&pred) {
                return Err(format!("filter diverged before a write, {pred:?}"));
            }
            let mut ts0 = 0;
            let count = g.usize(0..=5);
            let rows = arb_rows(g, count, false, &mut ts0);
            if g.bool() {
                for row in rows {
                    t.push_row(row).map_err(|e| e.to_string())?;
                }
            } else {
                let mut cols = vec![Vec::new(); 5];
                for row in rows {
                    for (col, v) in cols.iter_mut().zip(row) {
                        col.push(v);
                    }
                }
                t.push_columns(cols).map_err(|e| e.to_string())?;
            }
            if t.filter(&pred) != t.filter_naive(&pred) {
                return Err(format!("filter read a stale index after a write, {pred:?}"));
            }
        }
        Ok(())
    });
}
