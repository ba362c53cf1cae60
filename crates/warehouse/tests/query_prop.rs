//! Property tests: the compiled, indexed query engine is result-identical
//! to the naive row-at-a-time oracles for arbitrary tables, predicate
//! trees, block sizes, and worker counts — including tables whose
//! timestamp column is *not* sorted, where the binary-search narrowing
//! must conservatively stand down.

use mscope_db::{
    AggFn, Column, ColumnType, CompiledPredicate, KeyIndex, Predicate, Schema, Table, Value,
};
use mscope_sim::prop::{forall, Gen};
use std::collections::{BTreeMap, BTreeSet};

/// Generates an event-shaped table with a timestamp column (sorted with
/// probability ½), an Int or Float metric column, and a short-alphabet
/// text key column, with nulls sprinkled everywhere the schema admits
/// them. Rebuilds the zone maps at an arbitrary (often tiny) block size
/// so block-boundary edge cases are exercised constantly.
fn arb_table(g: &mut Gen, name: &str) -> Table {
    let float_metric = g.bool();
    let schema = Schema::new(vec![
        Column::new("ts", ColumnType::Timestamp),
        Column::new(
            "num",
            if float_metric {
                ColumnType::Float
            } else {
                ColumnType::Int
            },
        ),
        Column::new("tag", ColumnType::Text),
    ])
    .expect("static schema is valid");
    let mut t = Table::new(name, schema);
    let sorted = g.bool();
    let nrows = g.usize(0..=200);
    let mut ts = 0i64;
    for _ in 0..nrows {
        ts = if sorted {
            ts + g.i64(0..=5_000)
        } else {
            g.i64(-100_000..=100_000)
        };
        let tsv = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Timestamp(ts)
        };
        let num = if g.bool() && g.bool() {
            Value::Null
        } else if float_metric {
            // Float columns admit Int cells: mix both so zone maps see
            // cross-type numeric comparisons.
            if g.bool() {
                Value::Float(g.f64(-100.0..100.0))
            } else {
                Value::Int(g.i64(-100..=100))
            }
        } else {
            Value::Int(g.i64(-100..=100))
        };
        let tag = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Text(g.choose(&["a", "b", "c", "d"]).to_string())
        };
        t.push_row(vec![tsv, num, tag]).expect("row fits schema");
    }
    t.reindex(g.choose(&[1usize, 2, 3, 7, 16, 64, 1024]));
    t
}

/// An arbitrary comparison value matched (or deliberately mismatched in
/// type) against the named column.
fn arb_value(g: &mut Gen, col: &str) -> Value {
    match col {
        "ts" => Value::Timestamp(g.i64(-100_000..=100_000)),
        "num" => {
            if g.bool() {
                Value::Int(g.i64(-100..=100))
            } else {
                Value::Float(g.f64(-100.0..100.0))
            }
        }
        _ => Value::Text(g.choose(&["a", "b", "c", "zz"]).to_string()),
    }
}

/// An arbitrary predicate tree of bounded depth. Occasionally names a
/// column the table does not have — a missing column must evaluate to
/// `false` (and flip under `Not`), never error or prune wrongly.
fn arb_pred(g: &mut Gen, depth: usize) -> Predicate {
    let leaf = depth == 0 || g.bool();
    if leaf {
        let col = g.choose(&["ts", "num", "tag", "nope"]).to_string();
        match g.usize(0..=7) {
            0 => Predicate::True,
            1 => Predicate::Eq(col.clone(), arb_value(g, &col)),
            2 => Predicate::Ne(col.clone(), arb_value(g, &col)),
            3 => Predicate::Lt(col.clone(), arb_value(g, &col)),
            4 => Predicate::Le(col.clone(), arb_value(g, &col)),
            5 => Predicate::Gt(col.clone(), arb_value(g, &col)),
            6 => Predicate::Ge(col.clone(), arb_value(g, &col)),
            _ => {
                let (a, b) = (arb_value(g, &col), arb_value(g, &col));
                Predicate::Between(col, a, b)
            }
        }
    } else {
        match g.usize(0..=2) {
            0 => Predicate::And(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            1 => Predicate::Or(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            _ => Predicate::Not(Box::new(arb_pred(g, depth - 1))),
        }
    }
}

#[test]
fn compiled_filter_matches_naive_oracle() {
    forall("filter ≡ filter_naive", 256, |g| {
        let t = arb_table(g, "events");
        let pred = arb_pred(g, 3);
        let expected = t.filter_naive(&pred);
        if t.filter(&pred) != expected {
            return Err(format!("filter diverged, pred {pred:?}"));
        }
        for workers in [0usize, 1, 2, 3, 8] {
            let rows = CompiledPredicate::compile(&t, &pred).matching_rows_with(workers);
            let got = t.select_rows(&rows);
            if got != expected {
                return Err(format!(
                    "matching_rows_with(workers={workers}) diverged on {} rows, \
                     pred {pred:?}: {} vs {} rows out",
                    t.row_count(),
                    got.row_count(),
                    expected.row_count()
                ));
            }
        }
        Ok(())
    });
}

/// Each case joins both ways round, so whichever table is smaller is the
/// hashed side once and the probed side once, and on both key shapes: the
/// short-alphabet text tags, and the numeric column whose Float cells mix
/// with Int ones (exact-type key equality, nulls never matching).
#[test]
fn compiled_join_matches_naive_oracle() {
    forall("inner_join ≡ inner_join_naive", 128, |g| {
        let left = arb_table(g, "left");
        let right = arb_table(g, "right");
        for key in ["tag", "num"] {
            for (a, b) in [(&left, &right), (&right, &left)] {
                match (a.inner_join(b, key, key), a.inner_join_naive(b, key, key)) {
                    (Ok(got), Ok(want)) if got == want => {}
                    (Ok(got), Ok(want)) => {
                        return Err(format!(
                            "{} ⋈ {} on {key} diverged: {} vs {} rows",
                            a.name(),
                            b.name(),
                            got.row_count(),
                            want.row_count()
                        ))
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => return Err(format!("join error mismatch: {got:?} vs {want:?}")),
                }
            }
        }
        Ok(())
    });
}

/// `KeyIndex` against a linear scan of the column: for every key present,
/// one absent and null, `rows` is exactly the positions a filter finds, in
/// column order. Columns mix `Int`, `Float` and `Text` cells over a small
/// alphabet (so keys repeat, and `Int(1)` sits beside `Float(1.0)`) with
/// nulls among them; the oracle compares through `ValueKey`, the naive
/// join's key form.
#[test]
fn key_index_rows_match_linear_filter() {
    forall("KeyIndex::rows ≡ linear filter", 256, |g| {
        let col = g.vec(0..=120, |g| match g.usize(0..=4) {
            0 => Value::Null,
            1 => Value::Int(g.i64(0..=3)),
            2 => Value::Float(g.i64(0..=3) as f64),
            3 => Value::Float(g.f64(-1.0..1.0)),
            _ => Value::Text(g.choose(&["a", "b", "c", ""]).to_string()),
        });
        let idx = KeyIndex::build(&col);
        let mut probes = col.clone();
        probes.extend([Value::Null, Value::Int(99), Value::Text("zz".into())]);
        for probe in &probes {
            let want: Vec<usize> = (0..col.len())
                .filter(|&i| !probe.is_null() && !col[i].is_null() && col[i].key() == probe.key())
                .collect();
            if idx.rows(&col, probe) != want {
                return Err(format!(
                    "rows({probe:?}) = {:?}, filter finds {want:?} in {col:?}",
                    idx.rows(&col, probe)
                ));
            }
            if let Value::Text(s) = probe {
                if idx.last_text(&col, s) != want.last().copied() {
                    return Err(format!("last_text({s:?}) ≠ last of {want:?}"));
                }
            }
        }
        let distinct: BTreeSet<_> = col
            .iter()
            .filter(|v| !v.is_null())
            .map(Value::key)
            .collect();
        if idx.len() != distinct.len() || idx.is_empty() != distinct.is_empty() {
            return Err(format!(
                "len {} / is_empty {} over {} distinct keys",
                idx.len(),
                idx.is_empty(),
                distinct.len()
            ));
        }
        Ok(())
    });
}

/// Independent window-fold oracle: every bucket keeps its values and each
/// aggregate is computed from the whole vector, sums adding left to right
/// from an explicit `0.0`. Shares nothing with the engine's accumulator.
fn window_agg_staged(t: &Table, window: i64, agg: AggFn) -> Vec<(i64, f64)> {
    let ts = t.column("ts").expect("arb_table has ts");
    let num = t.column("num").expect("arb_table has num");
    let mut buckets: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (t, v) in ts.iter().zip(num) {
        if let (Some(t), Some(v)) = (t.as_i64(), v.as_f64()) {
            buckets
                .entry(t.div_euclid(window) * window)
                .or_default()
                .push(v);
        }
    }
    buckets
        .into_iter()
        .map(|(start, vs)| {
            let sum = vs.iter().fold(0.0, |s, v| s + v);
            let v = match agg {
                AggFn::Count => vs.len() as f64,
                AggFn::Sum => sum,
                AggFn::Mean => sum / vs.len() as f64,
                AggFn::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                AggFn::Max => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggFn::Last => vs[vs.len() - 1],
            };
            (start, v)
        })
        .collect()
}

#[test]
fn fused_window_agg_matches_filter_then_agg() {
    forall("window_agg_where ≡ filter + staged fold", 128, |g| {
        let t = arb_table(g, "events");
        let pred = arb_pred(g, 2);
        let window = g.i64(1..=50_000).max(1);
        let filtered = t.filter_naive(&pred);
        let bits = |s: &[(i64, f64)]| -> Vec<(i64, u64)> {
            s.iter().map(|&(t, v)| (t, v.to_bits())).collect()
        };
        for agg in [
            AggFn::Count,
            AggFn::Sum,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::Last,
        ] {
            let (matched, fused) = t
                .window_agg_where(&pred, "ts", window, "num", agg)
                .map_err(|e| format!("fused path errored: {e:?}"))?;
            if matched != filtered.row_count() {
                return Err(format!(
                    "matched-row count {matched} ≠ filtered rows {}",
                    filtered.row_count()
                ));
            }
            let staged = window_agg_staged(&filtered, window, agg);
            if bits(&fused) != bits(&staged) {
                return Err(format!(
                    "{agg:?} diverged: fused {fused:?} vs staged {staged:?}"
                ));
            }
        }
        Ok(())
    });
}
