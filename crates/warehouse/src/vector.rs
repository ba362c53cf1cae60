//! Vectorized columnar execution for planned queries.
//!
//! The planner ([`plan`](crate::plan)) lowers SQL into a [`Plan`]; this
//! module runs it over column batches and selection vectors instead of
//! materialized intermediate tables:
//!
//! * filtering produces **selection vectors** (row indices / join pairs),
//!   never an intermediate [`Table`] — operators exchange indices and the
//!   output columns are gathered exactly once, at the end;
//! * [`gather_sel`]/[`gather_pair_cols`] materialize output columns
//!   whole-column-at-a-time, parallelized across columns over the shared
//!   [`parallel_map`] pool with the established
//!   deterministic merge (each output column is an independent job);
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

use crate::engine::{self, CmpOp, CompiledPredicate, KeyIndex, KeyRef};
use crate::plan::{Plan, Resolved, Side};
use crate::query::{Acc, AggFn};
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::{DbError, Predicate};
use mscope_sim::parallel_map;
use std::cmp::Ordering;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Columnar gather
// ---------------------------------------------------------------------

/// Gathers `sel` out of each column slice — one owned output column per
/// input slice, parallelized across columns (each column is an
/// independent job; `parallel_map` merges in column order, so output is
/// byte-identical for any worker count).
pub(crate) fn gather_sel(cols: &[&[Value]], sel: &[usize], workers: usize) -> Vec<Vec<Value>> {
    let cells = cols.len().saturating_mul(sel.len());
    let workers = engine::resolve_workers(workers, cells);
    parallel_map(cols.len(), workers, |ci| {
        let src = cols[ci];
        sel.iter().map(|&i| src[i].clone()).collect()
    })
}

/// [`gather_sel`] over join pairs: each output column names the side its
/// cells come from, and every pair contributes one cell per column.
pub(crate) fn gather_pair_cols(
    cols: &[(Side, &[Value])],
    pairs: &[(usize, usize)],
    workers: usize,
) -> Vec<Vec<Value>> {
    let cells = cols.len().saturating_mul(pairs.len());
    let workers = engine::resolve_workers(workers, cells);
    parallel_map(cols.len(), workers, |ci| {
        let (side, src) = cols[ci];
        pairs
            .iter()
            .map(|&(li, ri)| {
                src[match side {
                    Side::Left => li,
                    Side::Right => ri,
                }]
                .clone()
            })
            .collect()
    })
}

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
// Residual predicates over join pairs
// ---------------------------------------------------------------------

/// A predicate leaf resolved to a side-tagged column slice.
enum PNode<'t> {
    True,
    /// Unknown column — false for every pair (the exploratory-filter
    /// semantics of [`CompiledPredicate`]).
    False,
    Cmp {
        side: Side,
        col: &'t [Value],
        op: CmpOp,
        v: Value,
    },
    Between {
        side: Side,
        col: &'t [Value],
        lo: Value,
        hi: Value,
    },
    And(Vec<PNode<'t>>),
    Or(Vec<PNode<'t>>),
    Not(Box<PNode<'t>>),
}

/// A predicate compiled against a join's *pair space*: columns resolved
/// to `(side, slice)` so mixed-side conjuncts (the residual the planner
/// could not push below the join) evaluate without materializing the
/// joined table.
pub(crate) struct PairPredicate<'t> {
    node: PNode<'t>,
}

impl<'t> PairPredicate<'t> {
    pub(crate) fn compile<F>(pred: &Predicate, resolve: &F) -> PairPredicate<'t>
    where
        F: Fn(&str) -> Option<(Side, &'t [Value])>,
    {
        PairPredicate {
            node: PNode::compile(pred, resolve),
        }
    }

    pub(crate) fn eval(&self, li: usize, ri: usize) -> bool {
        self.node.eval(li, ri)
    }
}

impl<'t> PNode<'t> {
    fn compile<F>(pred: &Predicate, resolve: &F) -> PNode<'t>
    where
        F: Fn(&str) -> Option<(Side, &'t [Value])>,
    {
        let leaf = |c: &str, op: CmpOp, v: &Value| match resolve(c) {
            None => PNode::False,
            Some((side, col)) => PNode::Cmp {
                side,
                col,
                op,
                v: v.clone(),
            },
        };
        match pred {
            Predicate::True => PNode::True,
            Predicate::Eq(c, v) => leaf(c, CmpOp::Eq, v),
            Predicate::Ne(c, v) => leaf(c, CmpOp::Ne, v),
            Predicate::Lt(c, v) => leaf(c, CmpOp::Lt, v),
            Predicate::Le(c, v) => leaf(c, CmpOp::Le, v),
            Predicate::Gt(c, v) => leaf(c, CmpOp::Gt, v),
            Predicate::Ge(c, v) => leaf(c, CmpOp::Ge, v),
            Predicate::Between(c, lo, hi) => match resolve(c) {
                None => PNode::False,
                Some((side, col)) => PNode::Between {
                    side,
                    col,
                    lo: lo.clone(),
                    hi: hi.clone(),
                },
            },
            Predicate::And(ps) => {
                PNode::And(ps.iter().map(|p| PNode::compile(p, resolve)).collect())
            }
            Predicate::Or(ps) => PNode::Or(ps.iter().map(|p| PNode::compile(p, resolve)).collect()),
            Predicate::Not(p) => PNode::Not(Box::new(PNode::compile(p, resolve))),
        }
    }

    fn eval(&self, li: usize, ri: usize) -> bool {
        match self {
            PNode::True => true,
            PNode::False => false,
            PNode::Cmp { side, col, op, v } => {
                let c = &col[match side {
                    Side::Left => li,
                    Side::Right => ri,
                }];
                !c.is_null() && op.ok(c.total_cmp(v))
            }
            PNode::Between { side, col, lo, hi } => {
                let c = &col[match side {
                    Side::Left => li,
                    Side::Right => ri,
                }];
                !c.is_null()
                    && c.total_cmp(lo) != Ordering::Less
                    && c.total_cmp(hi) == Ordering::Less
            }
            PNode::And(ns) => ns.iter().all(|n| n.eval(li, ri)),
            PNode::Or(ns) => ns.iter().any(|n| n.eval(li, ri)),
            PNode::Not(n) => !n.eval(li, ri),
        }
    }
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

/// Vectorized grouped/whole-table aggregation over a selection.
///
/// `keys` and the optional per-aggregate source slices are full columns;
/// `rows` is the selection to aggregate. Groups form in first-seen row
/// order (borrowed keys, no per-row clone), accumulate in one streaming
/// pass, then sort by their original key tuples — the stable sort keeps
/// first-seen order for cross-type numeric ties, so output is
/// deterministic regardless of hash-map internals. Rows with any null
/// key are skipped; a group whose every aggregate finishes `None` is
/// dropped (the naive interpreter's rule); key cells render as
/// `Text`, aggregates as `Float`.
pub(crate) fn aggregate(
    keys: &[&[Value]],
    aggs: &[(AggFn, Option<&[Value]>)],
    rows: &[usize],
    whole_table: bool,
    name: &str,
    schema: &Schema,
) -> Table {
    if whole_table {
        let mut accs = vec![Acc::NEW; aggs.len()];
        for &i in rows {
            for ((agg, src), acc) in aggs.iter().zip(accs.iter_mut()) {
                update(*agg, src.map(|s| &s[i]), acc);
            }
        }
        let cols: Vec<Vec<Value>> = aggs
            .iter()
            .zip(&accs)
            .map(|(&(agg, _), &acc)| {
                // SQL's own rule: a whole-table SUM over nothing is 0.0,
                // where a window or a group of nothing has no value.
                let v = acc.finish(agg).or((agg == AggFn::Sum).then_some(0.0));
                vec![v.map_or(Value::Null, Value::Float)]
            })
            .collect();
        return Table::from_parts(name.to_string(), schema.clone(), cols);
    }

    // Group discovery: borrowed key tuples index into `groups`, which
    // remembers each group's first row (for the owned key render and the
    // deterministic tie-break) alongside its accumulators.
    let mut ords: HashMap<Vec<KeyRef<'_>>, usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
    'rows: for &i in rows {
        let mut kr = Vec::with_capacity(keys.len());
        for k in keys {
            match KeyRef::of(&k[i]) {
                Some(x) => kr.push(x),
                // A null in any key column: the row never groups.
                None => continue 'rows,
            }
        }
        let ord = match ords.get(&kr) {
            Some(&o) => o,
            None => {
                // perf: one tiny accumulator vector per *distinct* group,
                // not per row.
                groups.push((i, vec![Acc::NEW; aggs.len()]));
                ords.insert(kr, groups.len() - 1);
                groups.len() - 1
            }
        };
        let accs = &mut groups[ord].1;
        for ((agg, src), acc) in aggs.iter().zip(accs.iter_mut()) {
            update(*agg, src.map(|s| &s[i]), acc);
        }
    }

    // Emit groups sorted by their original key tuples. The sort is
    // stable over first-seen order, so cross-type ties (Int 1 vs Float
    // 1.0) break deterministically — hash order never reaches output.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&ga, &gb| {
        let (ra, rb) = (groups[ga].0, groups[gb].0);
        let mut o = Ordering::Equal;
        for k in keys {
            o = k[ra].total_cmp(&k[rb]);
            if o != Ordering::Equal {
                break;
            }
        }
        o
    });

    let nkeys = keys.len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
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
        for (k, col) in keys.iter().zip(cols.iter_mut()) {
            // Keys are stored in rendered text form so mixed-type key
            // columns stay queryable (the GROUP BY result contract).
            col.push(Value::Text(k[*first].render()));
        }
        for (v, col) in vals.iter().zip(cols[nkeys..].iter_mut()) {
            col.push(v.map_or(Value::Null, Value::Float));
        }
    }
    Table::from_parts(name.to_string(), schema.clone(), cols)
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

/// Side-tagged slice for a resolved source column. The planner only
/// resolves `Side::Right` columns when a join table exists; the empty
/// slice is an unreachable defensive fallback.
fn side_slice<'t>(
    res: &Resolved,
    left: &'t Table,
    right: Option<&'t Table>,
    si: usize,
) -> (Side, &'t [Value]) {
    let s = &res.source[si];
    let col = match s.side {
        Side::Left => left.col(s.ci),
        Side::Right => right.map_or(&[] as &[Value], |t| t.col(s.ci)),
    };
    (s.side, col)
}

/// Runs a plan — the only way a SQL query executes. Scans produce
/// selection vectors, the join exchanges row pairs, and output columns are
/// gathered once at the end. A planner-off plan takes the same pipeline
/// with its choices pinned ([`plan`](crate::plan::plan)): an all-`True`
/// scan pair, the whole WHERE as the pair residual, build side right.
pub(crate) fn run(plan: &Plan<'_>, workers: usize) -> Result<Table, DbError> {
    let res = &plan.res;
    let left = plan.left;
    let mut lsel = CompiledPredicate::compile(left, &plan.left_pred).matching_rows_with(workers);

    if let (Some(right), Some((lci, rci))) = (plan.right, res.join_keys) {
        let rsel = CompiledPredicate::compile(right, &plan.right_pred).matching_rows_with(workers);
        let mut pairs = join_pairs(left.col(lci), &lsel, right.col(rci), &rsel, plan.build_left);
        if plan.residual != Predicate::True {
            let resolve = |name: &str| {
                res.source
                    .iter()
                    .position(|s| s.name == name)
                    .map(|si| side_slice(res, left, Some(right), si))
            };
            let pp = PairPredicate::compile(&plan.residual, &resolve);
            pairs.retain(|&(li, ri)| pp.eval(li, ri));
        }

        if let Some(aggn) = &res.aggregate {
            // Projection pushdown: materialize only the key/aggregate
            // inputs, once, then stream over the batch.
            let cols: Vec<(Side, &[Value])> = plan
                .needed
                .iter()
                .map(|&si| side_slice(res, left, Some(right), si))
                .collect();
            let mat = gather_pair_cols(&cols, &pairs, workers);
            // The planner builds `needed` as the union of key and
            // aggregate inputs, so the lookup always hits; the default
            // is an unreachable defensive fallback.
            let pos = |si: usize| {
                plan.needed
                    .iter()
                    .position(|&x| x == si)
                    .unwrap_or_default()
            };
            let keys: Vec<&[Value]> = aggn
                .keys
                .iter()
                .map(|&si| mat[pos(si)].as_slice())
                .collect();
            let aggs: Vec<(AggFn, Option<&[Value]>)> = aggn
                .aggs
                .iter()
                .map(|a| (a.agg, a.src.map(|si| mat[pos(si)].as_slice())))
                .collect();
            let ident: Vec<usize> = (0..pairs.len()).collect();
            let t = aggregate(
                &keys,
                &aggs,
                &ident,
                aggn.whole_table,
                &res.result_name,
                &res.result,
            );
            return finish_aggregate(plan, t, workers);
        }

        if let Some((oc, asc)) = &plan.order_by {
            // `resolve` already proved the ORDER BY column is in the
            // projection, so the find always hits.
            let found = res
                .projection
                .iter()
                .copied()
                .find(|&si| res.source[si].name == *oc);
            if let (false, Some(si)) = (plan.sort_elided, found) {
                let (side, key) = side_slice(res, left, Some(right), si);
                // Stable sort over left-major pair order: equal keys keep
                // their deterministic join order.
                pairs.sort_by(|&(la, ra), &(lb, rb)| {
                    let (ia, ib) = match side {
                        Side::Left => (la, lb),
                        Side::Right => (ra, rb),
                    };
                    let o = key[ia].total_cmp(&key[ib]);
                    if *asc {
                        o
                    } else {
                        o.reverse()
                    }
                });
            }
        }
        if let Some(n) = plan.limit {
            pairs.truncate(n);
        }
        let cols: Vec<(Side, &[Value])> = res
            .projection
            .iter()
            .map(|&si| side_slice(res, left, Some(right), si))
            .collect();
        let data = gather_pair_cols(&cols, &pairs, workers);
        return Ok(Table::from_parts(
            res.result_name.clone(),
            res.result.clone(),
            data,
        ));
    }

    // Single-table pipeline.
    if let Some(aggn) = &res.aggregate {
        let keys: Vec<&[Value]> = aggn
            .keys
            .iter()
            .map(|&si| left.col(res.source[si].ci))
            .collect();
        let aggs: Vec<(AggFn, Option<&[Value]>)> = aggn
            .aggs
            .iter()
            .map(|a| (a.agg, a.src.map(|si| left.col(res.source[si].ci))))
            .collect();
        let t = aggregate(
            &keys,
            &aggs,
            &lsel,
            aggn.whole_table,
            &res.result_name,
            &res.result,
        );
        return finish_aggregate(plan, t, workers);
    }

    if let Some((oc, asc)) = &plan.order_by {
        // `resolve` already proved the ORDER BY column is in the
        // projection, so the find always hits.
        let found = res
            .projection
            .iter()
            .copied()
            .find(|&si| res.source[si].name == *oc);
        if let (false, Some(si)) = (plan.sort_elided, found) {
            let key = left.col(res.source[si].ci);
            // Stable sort over the ascending selection: equal keys keep
            // row order, matching the materializing path bit for bit.
            lsel.sort_by(|&a, &b| {
                let o = key[a].total_cmp(&key[b]);
                if *asc {
                    o
                } else {
                    o.reverse()
                }
            });
        }
    }
    if let Some(n) = plan.limit {
        lsel.truncate(n);
    }
    let cols: Vec<&[Value]> = res
        .projection
        .iter()
        .map(|&si| left.col(res.source[si].ci))
        .collect();
    let data = gather_sel(&cols, &lsel, workers);
    Ok(Table::from_parts(
        res.result_name.clone(),
        res.result.clone(),
        data,
    ))
}

/// HAVING → ORDER BY → LIMIT over a materialized aggregate table (always
/// small: one row per group).
fn finish_aggregate(plan: &Plan<'_>, mut t: Table, workers: usize) -> Result<Table, DbError> {
    if let Some(h) = &plan.having {
        let sel = CompiledPredicate::compile(&t, h).matching_rows_with(workers);
        t = t.gather(t.name(), &sel);
    }
    if let Some((oc, asc)) = &plan.order_by {
        if !plan.sort_elided {
            t = t.order_by(oc, *asc)?;
        }
    }
    if let Some(n) = plan.limit {
        if t.row_count() > n {
            let keep: Vec<usize> = (0..n).collect();
            t = t.gather(t.name(), &keep);
        }
    }
    Ok(t)
}
