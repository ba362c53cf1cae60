//! Vectorized columnar execution for planned queries.
//!
//! The planner ([`plan`](crate::plan)) lowers SQL into a [`Plan`]; this
//! module runs it over column batches and selection vectors instead of
//! materialized intermediate tables:
//!
//! * filtering produces **selection vectors** (row indices / join pairs),
//!   never an intermediate [`Table`] — operators exchange indices and the
//!   output columns are gathered exactly once, at the end;
//! * a selection is a `Vec` of [`RowId`]s — `usize` below a FROM-only
//!   query, `(usize, usize)` below a join — and every stage after the
//!   scans ([`aggregate`], the residual and HAVING filters, ORDER BY,
//!   LIMIT, the gather) is one generic function monomorphised per row
//!   space, not a join copy and a single-table copy;
//! * [`join_pairs`] is build-side aware: the planner hashes whichever
//!   input the statistics estimate smaller, and the output pair list is
//!   restored to left-major order either way;
//! * [`aggregate`] folds COUNT/SUM/MIN/MAX/AVG in one pass over the typed
//!   slices into `query.rs`'s `Acc`, the accumulator the window fold uses;
//!   only SQL's own rules live here (what `COUNT` counts, whole-table `SUM`
//!   of nothing).
//!
//! [`run`] is the one plan entry point: there is no second interpreter
//! behind `QueryOptions::optimize = false`, only a [`Plan`] whose
//! statistics-driven choices the planner pinned to the syntactic shape.
//! Results are identical to the `*_naive` oracles and to the tree-walking
//! interpreter in `tests/sql_prop.rs`, which the property suites keep as
//! identity gates for both planner legs.

use crate::engine::{self, CompiledPredicate, KeyIndex, KeyRef, Node, RowId, Side, SideCol};
use crate::plan::Plan;
use crate::query::{Acc, AggFn};
use crate::table::Table;
use crate::value::Value;
use crate::{DbError, Predicate};
use std::cmp::Ordering;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Build-side-aware hash join over selection vectors
// ---------------------------------------------------------------------

/// Joins two selections on their key columns, indexing whichever side the
/// planner chose (`build_left`) with the engine's [`KeyIndex`], and returns
/// matching `(left_row, right_row)` pairs in **left-major** order (left
/// selection order, then right selection order) regardless of build side.
/// Null keys never match.
pub(crate) fn join_pairs<'a>(
    lcol: &'a [Value],
    lsel: &[usize],
    rcol: &'a [Value],
    rsel: &[usize],
    build_left: bool,
) -> Vec<(usize, usize)> {
    // Probe-side length is the lower bound on the output when keys are
    // near-unique — the common request_id-style join shape.
    let mut out = Vec::with_capacity(if build_left { rsel.len() } else { lsel.len() });
    if build_left {
        let index = KeyIndex::over(lcol, lsel.iter().copied());
        for &ri in rsel {
            out.extend(index.rows(&rcol[ri]).iter().map(|&li| (li, ri)));
        }
        // The probe ran right-major; the output contract is left-major.
        // Pairs are unique, so the unstable sort is deterministic.
        out.sort_unstable();
    } else {
        let index = KeyIndex::over(rcol, rsel.iter().copied());
        for &li in lsel {
            out.extend(index.rows(&lcol[li]).iter().map(|&ri| (li, ri)));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Batch aggregation
// ---------------------------------------------------------------------

/// Feeds one row's cell into an accumulator. `COUNT(*)` passes no cell
/// and counts the row; `COUNT(col)` counts non-null cells of any type
/// (SQL semantics); every other aggregate folds numeric cells only.
fn update(agg: AggFn, cell: Option<&Value>, acc: &mut Acc) {
    if agg == AggFn::Count {
        if cell.is_none_or(|c| !c.is_null()) {
            acc.count();
        }
        return;
    }
    if let Some(v) = cell.and_then(Value::as_f64) {
        acc.push(v);
    }
}

/// Vectorized grouped/whole-table aggregation over a selection, returning
/// the output columns: one per key, then one per aggregate.
///
/// `keys` and the optional per-aggregate sources are full columns of the
/// row space `rows` selects from. Groups form in first-seen row order
/// (borrowed keys, no per-row clone), accumulate in one streaming pass,
/// then sort by their original key tuples — the stable sort keeps
/// first-seen order for cross-type numeric ties, so output is
/// deterministic regardless of hash-map internals. Rows with any null
/// key are skipped; a group whose every aggregate finishes `None` is
/// dropped (the naive interpreter's rule); key cells render as
/// `Text`, aggregates as `Float`.
pub(crate) fn aggregate<R: RowId>(
    keys: &[SideCol<'_>],
    aggs: &[(AggFn, Option<SideCol<'_>>)],
    rows: &[R],
    whole_table: bool,
) -> Vec<Vec<Value>> {
    if whole_table {
        let mut accs = vec![Acc::NEW; aggs.len()];
        for &r in rows {
            for ((agg, src), acc) in aggs.iter().zip(accs.iter_mut()) {
                update(*agg, src.map(|(side, s)| &s[r.at(side)]), acc);
            }
        }
        return aggs
            .iter()
            .zip(&accs)
            .map(|(&(agg, _), &acc)| {
                // SQL's own rule: a whole-table SUM over nothing is 0.0,
                // where a window or a group of nothing has no value.
                let v = acc.finish(agg).or((agg == AggFn::Sum).then_some(0.0));
                vec![v.map_or(Value::Null, Value::Float)]
            })
            .collect();
    }

    // Group discovery: borrowed key tuples index into `groups`, which
    // remembers each group's first row (for the owned key render and the
    // deterministic tie-break) alongside its accumulators. `kr` is one
    // scratch tuple refilled per row; a lookup borrows it as a slice.
    let mut ords: HashMap<Vec<KeyRef<'_>>, usize> = HashMap::new();
    let mut groups: Vec<(R, Vec<Acc>)> = Vec::new();
    let mut kr: Vec<KeyRef<'_>> = Vec::with_capacity(keys.len());
    'rows: for &r in rows {
        kr.clear();
        for &(side, k) in keys {
            match KeyRef::of(&k[r.at(side)]) {
                Some(x) => kr.push(x),
                // A null in any key column: the row never groups.
                None => continue 'rows,
            }
        }
        let ord = match ords.get(kr.as_slice()) {
            Some(&o) => o,
            None => {
                // perf: one key tuple and one tiny accumulator vector per
                // *distinct* group, not per row.
                groups.push((r, vec![Acc::NEW; aggs.len()]));
                ords.insert(kr.clone(), groups.len() - 1);
                groups.len() - 1
            }
        };
        for ((agg, src), acc) in aggs.iter().zip(groups[ord].1.iter_mut()) {
            update(*agg, src.map(|(side, s)| &s[r.at(side)]), acc);
        }
    }

    // Emit groups sorted by their original key tuples. The sort is
    // stable over first-seen order, so cross-type ties (Int 1 vs Float
    // 1.0) break deterministically — hash order never reaches output.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&ga, &gb| {
        let (ra, rb) = (groups[ga].0, groups[gb].0);
        let mut o = Ordering::Equal;
        for &(side, k) in keys {
            o = k[ra.at(side)].total_cmp(&k[rb.at(side)]);
            if o != Ordering::Equal {
                break;
            }
        }
        o
    });

    let nkeys = keys.len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); nkeys + aggs.len()];
    for &g in &order {
        let (first, accs) = &groups[g];
        let vals: Vec<Option<f64>> = aggs
            .iter()
            .zip(accs)
            .map(|(&(agg, _), &acc)| acc.finish(agg))
            .collect();
        if vals.iter().all(Option::is_none) {
            continue;
        }
        for (&(side, k), col) in keys.iter().zip(cols.iter_mut()) {
            // Keys are stored in rendered text form so mixed-type key
            // columns stay queryable (the GROUP BY result contract).
            col.push(Value::Text(k[first.at(side)].render()));
        }
        for (v, col) in vals.iter().zip(cols[nkeys..].iter_mut()) {
            col.push(v.map_or(Value::Null, Value::Float));
        }
    }
    cols
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

/// Runs a plan — the only way a SQL query executes:
///
/// ```text
/// scan → [join → residual] → [aggregate → HAVING] → order → limit → gather
/// ```
///
/// The scans and the join are the only stages that know which row space
/// they produce; [`downstream`] takes either. A planner-off plan takes
/// the same pipeline with its choices pinned ([`plan`](crate::plan::plan)):
/// an all-`True` scan pair, the whole WHERE as the pair residual, build
/// side right.
pub(crate) fn run(plan: &Plan<'_>, workers: usize) -> Result<Table, DbError> {
    let res = &plan.res;
    let source = plan.source_cols()?;
    let lsel = CompiledPredicate::compile(plan.left, &plan.left_pred).matching_rows_with(workers);
    let Some((right, (lci, rci))) = plan.right.zip(res.join_keys) else {
        return downstream(plan, &source, lsel, workers);
    };
    let rsel = CompiledPredicate::compile(right, &plan.right_pred).matching_rows_with(workers);
    let (lkey, rkey) = (plan.left.col(lci), right.col(rci));
    let mut pairs = join_pairs(lkey, &lsel, rkey, &rsel, plan.build_left);
    if plan.residual != Predicate::True {
        // Mixed-side conjuncts (and, planner off, the whole WHERE) name
        // columns of the joined relation: no zone maps over pairs.
        let node = Node::compile(&plan.residual, &|name| {
            let si = res.source.iter().position(|s| s.name == name)?;
            Some((source[si], None))
        });
        pairs.retain(|&p| node.eval(p));
    }
    downstream(plan, &source, pairs, workers)
}

/// Everything after the scans, once for both row spaces: the projection
/// (or the aggregate and HAVING, whose output table is a one-table row
/// space over its own columns) and then the shared [`tail`].
fn downstream<R: RowId>(
    plan: &Plan<'_>,
    source: &[SideCol<'_>],
    rows: Vec<R>,
    workers: usize,
) -> Result<Table, DbError> {
    let res = &plan.res;
    let Some(aggn) = &res.aggregate else {
        let out: Vec<SideCol<'_>> = res.projection.iter().map(|&si| source[si]).collect();
        return tail(plan, &out, rows, workers);
    };
    let keys: Vec<SideCol<'_>> = aggn.keys.iter().map(|&si| source[si]).collect();
    let aggs: Vec<(AggFn, Option<SideCol<'_>>)> = aggn
        .aggs
        .iter()
        .map(|a| (a.agg, a.src.map(|si| source[si])))
        .collect();
    let grouped = aggregate(&keys, &aggs, &rows, aggn.whole_table);
    let out: Vec<SideCol<'_>> = grouped.iter().map(|c| (Side::Left, c.as_slice())).collect();
    let mut groups: Vec<usize> = (0..grouped.first().map_or(0, Vec::len)).collect();
    if let Some(h) = &plan.having {
        // HAVING names result columns, which `out` lists in result order.
        let node = Node::compile(h, &|name| Some((out[res.result.index_of(name)?], None)));
        groups.retain(|&g| node.eval(g));
    }
    tail(plan, &out, groups, workers)
}

/// ORDER BY → LIMIT → gather over `out`, the result's columns in result
/// order — the one place a query's output is sorted, cut and materialized.
fn tail<R: RowId>(
    plan: &Plan<'_>,
    out: &[SideCol<'_>],
    mut rows: Vec<R>,
    workers: usize,
) -> Result<Table, DbError> {
    let res = &plan.res;
    if let (Some((oc, asc)), false) = (&plan.order_by, plan.sort_elided) {
        // `resolve` checked the name against the result schema; a plan
        // that names another column is refused, never run unsorted.
        let ci = res.result.index_of(oc).ok_or_else(|| {
            DbError::BadQuery(format!("ORDER BY column `{oc}` is not in the result"))
        })?;
        engine::sort_rows(&mut rows, out[ci], *asc);
    }
    if let Some(n) = plan.limit {
        rows.truncate(n);
    }
    let data = engine::gather(out, &rows, workers);
    Ok(Table::from_parts(
        res.result_name.clone(),
        res.result.clone(),
        data,
    ))
}
