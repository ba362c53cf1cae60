//! Compiled, indexed query execution over columnar tables.
//!
//! The naive [`Predicate::eval`](crate::Predicate::eval) path re-resolves
//! column names per row × per leaf (`Schema::index_of` is a linear scan).
//! This module is the fast path behind `Table::filter`/`select`/joins:
//!
//! * [`CompiledPredicate`] binds column names to column slices and clones
//!   each comparison value **once** per query;
//! * [`TableIndex`] keeps per-block zone maps (min/max/null counts per
//!   [`DEFAULT_BLOCK_ROWS`]-row block) over numeric and timestamp columns,
//!   plus a sorted flag maintained on append, so window predicates skip
//!   whole blocks and binary-search within the survivors;
//! * [`KeyIndex`] is the hash index over one key column behind every
//!   join and every equality filter: a [`Table`] keeps one per column it
//!   has been joined or equality-filtered on, and a join of two filtered
//!   selections builds a transient one;
//! * a scan has one of two access paths. A `col = literal` conjunct the
//!   kept index can answer exactly (a text, bool or timestamp literal on
//!   a column not sorted on append) is answered by a probe of that index,
//!   and the rest of the predicate is checked over the probe's rows only.
//!   Every other scan reads the blocks the sorted-column bounds and the
//!   zone maps leave, taking proven blocks whole;
//! * [`RowId`] is the row of whatever relation a query stage works on — a
//!   table row or a join's `(left, right)` pair — and `Node`, [`gather`]
//!   and [`sort_rows`] are each written once over it;
//! * block scans fan out through [`parallel_map`], whose in-job-order
//!   merge makes output byte-identical for any worker count.
//!
//! Everything here is result-identical to the naive evaluators, which the
//! query layer keeps as reference oracles (`filter_naive`,
//! `inner_join_naive`).

use crate::table::{Schema, Table};
use crate::value::{ColumnType, Value};
use crate::Predicate;
use mscope_sim::parallel_map;
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Rows per zone-map block. Small enough that a skipped block saves little
/// waste on the boundary, large enough that per-block metadata stays tiny
/// (two `Value`s and two counters per column per 1024 rows).
pub const DEFAULT_BLOCK_ROWS: usize = 1024;

/// Row-count threshold below which automatic worker selection stays
/// serial: thread spawn + merge overhead beats the scan itself on small
/// tables.
pub const PARALLEL_MIN_ROWS: usize = 1 << 16;

/// Per-block min/max/null statistics for one indexed column (a zone map
/// entry). `min`/`max` are over non-null values and are `Value::Null`
/// until one is seen.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockStat {
    min: Value,
    max: Value,
    nulls: usize,
    len: usize,
}

/// What a zone map can prove about a predicate over one whole block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No row in the block matches: skip it.
    AllFalse,
    /// Cannot decide from the stats: evaluate row by row.
    Mixed,
    /// Every row in the block matches: take it without evaluating.
    AllTrue,
}

fn combine_and(a: Verdict, b: Verdict) -> Verdict {
    use Verdict::*;
    match (a, b) {
        (AllFalse, _) | (_, AllFalse) => AllFalse,
        (AllTrue, AllTrue) => AllTrue,
        _ => Mixed,
    }
}

fn combine_or(a: Verdict, b: Verdict) -> Verdict {
    use Verdict::*;
    match (a, b) {
        (AllTrue, _) | (_, AllTrue) => AllTrue,
        (AllFalse, AllFalse) => AllFalse,
        _ => Mixed,
    }
}

fn negate(v: Verdict) -> Verdict {
    match v {
        Verdict::AllFalse => Verdict::AllTrue,
        Verdict::AllTrue => Verdict::AllFalse,
        Verdict::Mixed => Verdict::Mixed,
    }
}

impl BlockStat {
    fn empty() -> BlockStat {
        BlockStat {
            min: Value::Null,
            max: Value::Null,
            nulls: 0,
            len: 0,
        }
    }

    fn add(&mut self, v: &Value) {
        self.len += 1;
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        if self.min.is_null() || v.total_cmp(&self.min) == Ordering::Less {
            self.min = v.clone();
        }
        if self.max.is_null() || v.total_cmp(&self.max) == Ordering::Greater {
            self.max = v.clone();
        }
    }

    /// Verdict for `cell <op> v` over this block. Null cells never match,
    /// so `AllTrue` additionally requires a null-free block.
    fn verdict_cmp(&self, op: CmpOp, v: &Value) -> Verdict {
        if self.nulls == self.len {
            return Verdict::AllFalse;
        }
        use Ordering::{Equal, Greater, Less};
        let vs_min = v.total_cmp(&self.min);
        let vs_max = v.total_cmp(&self.max);
        let no_nulls = self.nulls == 0;
        match op {
            CmpOp::Eq => {
                if vs_min == Less || vs_max == Greater {
                    Verdict::AllFalse
                } else if no_nulls && vs_min == Equal && vs_max == Equal {
                    Verdict::AllTrue
                } else {
                    Verdict::Mixed
                }
            }
            CmpOp::Ne => {
                if vs_min == Equal && vs_max == Equal {
                    Verdict::AllFalse
                } else if no_nulls && (vs_min == Less || vs_max == Greater) {
                    Verdict::AllTrue
                } else {
                    Verdict::Mixed
                }
            }
            CmpOp::Lt => {
                if vs_min != Greater {
                    Verdict::AllFalse // v <= min: nothing is below v
                } else if no_nulls && vs_max == Greater {
                    Verdict::AllTrue // max < v
                } else {
                    Verdict::Mixed
                }
            }
            CmpOp::Le => {
                if vs_min == Less {
                    Verdict::AllFalse // v < min
                } else if no_nulls && vs_max != Less {
                    Verdict::AllTrue // max <= v
                } else {
                    Verdict::Mixed
                }
            }
            CmpOp::Gt => {
                if vs_max != Less {
                    Verdict::AllFalse // v >= max
                } else if no_nulls && vs_min == Less {
                    Verdict::AllTrue // min > v
                } else {
                    Verdict::Mixed
                }
            }
            CmpOp::Ge => {
                if vs_max == Greater {
                    Verdict::AllFalse // v > max
                } else if no_nulls && vs_min != Greater {
                    Verdict::AllTrue // min >= v
                } else {
                    Verdict::Mixed
                }
            }
        }
    }

    /// Verdict for the half-open window `lo <= cell < hi`.
    fn verdict_between(&self, lo: &Value, hi: &Value) -> Verdict {
        combine_and(
            self.verdict_cmp(CmpOp::Ge, lo),
            self.verdict_cmp(CmpOp::Lt, hi),
        )
    }
}

/// Zone maps and the sorted flag for one column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnIndex {
    blocks: Vec<BlockStat>,
    sorted: bool,
}

impl ColumnIndex {
    /// Only numeric and timestamp columns carry zone maps: their admitted
    /// values are totally ordered by `total_cmp` and are what window
    /// predicates range over. `None` for other types.
    fn for_type(ty: ColumnType) -> Option<ColumnIndex> {
        matches!(
            ty,
            ColumnType::Int | ColumnType::Float | ColumnType::Timestamp
        )
        .then(|| ColumnIndex {
            blocks: Vec::new(),
            sorted: true,
        })
    }

    fn note(&mut self, prev: Option<&Value>, v: &Value, block_rows: usize) {
        if let Some(p) = prev {
            if p.total_cmp(v) == Ordering::Greater {
                self.sorted = false;
            }
        }
        if self.blocks.last().is_none_or(|b| b.len >= block_rows) {
            self.blocks.push(BlockStat::empty());
        }
        if let Some(b) = self.blocks.last_mut() {
            b.add(v);
        }
    }

    /// `true` while every appended cell has been `>=` its predecessor
    /// under `total_cmp` (nulls sort first, so a null after data clears
    /// the flag — exactly the property binary search needs).
    pub(crate) fn sorted(&self) -> bool {
        self.sorted
    }

    fn block(&self, b: usize) -> Option<&BlockStat> {
        self.blocks.get(b)
    }
}

/// Per-table block metadata, maintained incrementally on append and
/// rebuilt wholesale by the query layer's gather/projection constructors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableIndex {
    block_rows: usize,
    cols: Vec<Option<ColumnIndex>>,
}

impl TableIndex {
    /// An empty index for a table with this schema.
    pub(crate) fn new(schema: &Schema, block_rows: usize) -> TableIndex {
        TableIndex {
            block_rows: block_rows.max(1),
            cols: schema
                .columns()
                .iter()
                .map(|c| ColumnIndex::for_type(c.ty))
                .collect(),
        }
    }

    /// Rebuilds the index from existing column data.
    pub(crate) fn build(schema: &Schema, cols: &[Vec<Value>], block_rows: usize) -> TableIndex {
        let mut idx = TableIndex::new(schema, block_rows);
        for (ci, col) in cols.iter().enumerate() {
            let mut prev: Option<&Value> = None;
            for v in col {
                idx.note(ci, prev, v);
                prev = Some(v);
            }
        }
        idx
    }

    /// Records one appended cell for column `ci`; `prev` is the cell that
    /// was last in that column before the append (for the sorted flag).
    pub(crate) fn note(&mut self, ci: usize, prev: Option<&Value>, v: &Value) {
        let block_rows = self.block_rows;
        if let Some(Some(cidx)) = self.cols.get_mut(ci) {
            cidx.note(prev, v, block_rows);
        }
    }

    pub(crate) fn block_rows(&self) -> usize {
        self.block_rows
    }

    pub(crate) fn col(&self, ci: usize) -> Option<&ColumnIndex> {
        self.cols.get(ci).and_then(Option::as_ref)
    }
}

/// Typed comparison operators for compiled leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn ok(self, o: Ordering) -> bool {
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }
}

/// Which input of a query a column lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The FROM table — and the only side of a one-table row space.
    Left,
    /// The JOIN table.
    Right,
}

/// One row of a query's source relation: a row index for a FROM-only
/// query, a `(left, right)` index pair below a join. Everything
/// downstream of the scans — predicates, aggregation, ORDER BY, the
/// gather — is written once over this trait and monomorphised per row
/// space, so the one-table instance ignores `side` without a branch.
pub(crate) trait RowId: Copy + Send + Sync {
    /// The row's index into a column of `side`.
    fn at(self, side: Side) -> usize;
}

impl RowId for usize {
    #[inline]
    fn at(self, _: Side) -> usize {
        self
    }
}

impl RowId for (usize, usize) {
    #[inline]
    fn at(self, side: Side) -> usize {
        match side {
            Side::Left => self.0,
            Side::Right => self.1,
        }
    }
}

/// A column of a row space: the side whose row index reads it, and its
/// cells.
pub(crate) type SideCol<'t> = (Side, &'t [Value]);

/// Gathers `rows` out of each column — one owned output column per input
/// column, parallelized across columns (each column is an independent
/// job; `parallel_map` merges in column order, so output is
/// byte-identical for any worker count).
pub(crate) fn gather<R: RowId>(
    cols: &[SideCol<'_>],
    rows: &[R],
    workers: usize,
) -> Vec<Vec<Value>> {
    let cells = cols.len().saturating_mul(rows.len());
    let workers = resolve_workers(workers, cells);
    parallel_map(cols.len(), workers, |ci| {
        let (side, src) = cols[ci];
        rows.iter().map(|r| src[r.at(side)].clone()).collect()
    })
}

/// Stable sort of `rows` by one key column: equal keys keep the order the
/// rows arrived in (row order for a scan, left-major for join pairs,
/// key-tuple order for aggregate output).
pub(crate) fn sort_rows<R: RowId>(rows: &mut [R], (side, key): SideCol<'_>, ascending: bool) {
    rows.sort_by(|&a, &b| {
        let o = key[a.at(side)].total_cmp(&key[b.at(side)]);
        if ascending {
            o
        } else {
            o.reverse()
        }
    });
}

/// A compiled predicate node: column names already resolved to
/// side-tagged slices. The one type that compiles a [`Predicate`] against
/// column slices — a table scan ([`CompiledPredicate`]), a join residual
/// over `(left, right)` pairs and HAVING over aggregate output all
/// evaluate it, each through its own [`RowId`].
pub(crate) enum Node<'t> {
    True,
    /// A leaf whose column does not exist — comparison is false for every
    /// row (matching the naive "filters are exploratory" semantics).
    False,
    Cmp {
        side: Side,
        col: &'t [Value],
        idx: Option<&'t ColumnIndex>,
        op: CmpOp,
        v: Value,
    },
    Between {
        side: Side,
        col: &'t [Value],
        idx: Option<&'t ColumnIndex>,
        lo: Value,
        hi: Value,
    },
    And(Vec<Node<'t>>),
    Or(Vec<Node<'t>>),
    Not(Box<Node<'t>>),
}

/// First index whose cell is `>= v` in a sorted column.
fn first_not_less(col: &[Value], v: &Value) -> usize {
    col.partition_point(|c| c.total_cmp(v) == Ordering::Less)
}

/// First index whose cell is `> v` in a sorted column.
fn first_greater(col: &[Value], v: &Value) -> usize {
    col.partition_point(|c| c.total_cmp(v) != Ordering::Greater)
}

impl<'t> Node<'t> {
    /// Compiles `pred`, resolving each column name through `resolve` to
    /// its side, its cells and — for a base-table scan — its zone maps. A
    /// row space without block metadata (join pairs, aggregate output)
    /// resolves with no index: `verdict` then reads `Mixed` and `bounds`
    /// the full range, which only [`CompiledPredicate`] asks for anyway.
    pub(crate) fn compile<F>(pred: &Predicate, resolve: &F) -> Node<'t>
    where
        F: Fn(&str) -> Option<(SideCol<'t>, Option<&'t ColumnIndex>)>,
    {
        let leaf = |c: &str, op: CmpOp, v: &Value| match resolve(c) {
            None => Node::False,
            Some(((side, col), idx)) => Node::Cmp {
                side,
                col,
                idx,
                op,
                v: v.clone(),
            },
        };
        match pred {
            Predicate::True => Node::True,
            Predicate::Eq(c, v) => leaf(c, CmpOp::Eq, v),
            Predicate::Ne(c, v) => leaf(c, CmpOp::Ne, v),
            Predicate::Lt(c, v) => leaf(c, CmpOp::Lt, v),
            Predicate::Le(c, v) => leaf(c, CmpOp::Le, v),
            Predicate::Gt(c, v) => leaf(c, CmpOp::Gt, v),
            Predicate::Ge(c, v) => leaf(c, CmpOp::Ge, v),
            Predicate::Between(c, lo, hi) => match resolve(c) {
                None => Node::False,
                Some(((side, col), idx)) => Node::Between {
                    side,
                    col,
                    idx,
                    lo: lo.clone(),
                    hi: hi.clone(),
                },
            },
            Predicate::And(ps) => Node::And(ps.iter().map(|p| Node::compile(p, resolve)).collect()),
            Predicate::Or(ps) => Node::Or(ps.iter().map(|p| Node::compile(p, resolve)).collect()),
            Predicate::Not(p) => Node::Not(Box::new(Node::compile(p, resolve))),
        }
    }

    /// Evaluates one row of the space the node was compiled against.
    pub(crate) fn eval<R: RowId>(&self, r: R) -> bool {
        match self {
            Node::True => true,
            Node::False => false,
            Node::Cmp {
                side, col, op, v, ..
            } => {
                let c = &col[r.at(*side)];
                !c.is_null() && op.ok(c.total_cmp(v))
            }
            Node::Between {
                side, col, lo, hi, ..
            } => {
                let c = &col[r.at(*side)];
                !c.is_null()
                    && c.total_cmp(lo) != Ordering::Less
                    && c.total_cmp(hi) == Ordering::Less
            }
            Node::And(ns) => ns.iter().all(|n| n.eval(r)),
            Node::Or(ns) => ns.iter().any(|n| n.eval(r)),
            Node::Not(n) => !n.eval(r),
        }
    }

    fn verdict(&self, b: usize) -> Verdict {
        match self {
            Node::True => Verdict::AllTrue,
            Node::False => Verdict::AllFalse,
            Node::Cmp { idx, op, v, .. } => idx
                .and_then(|ci| ci.block(b))
                .map_or(Verdict::Mixed, |s| s.verdict_cmp(*op, v)),
            Node::Between { idx, lo, hi, .. } => idx
                .and_then(|ci| ci.block(b))
                .map_or(Verdict::Mixed, |s| s.verdict_between(lo, hi)),
            Node::And(ns) => {
                let mut acc = Verdict::AllTrue;
                for n in ns {
                    acc = combine_and(acc, n.verdict(b));
                    if acc == Verdict::AllFalse {
                        break;
                    }
                }
                acc
            }
            Node::Or(ns) => {
                let mut acc = Verdict::AllFalse;
                for n in ns {
                    acc = combine_or(acc, n.verdict(b));
                    if acc == Verdict::AllTrue {
                        break;
                    }
                }
                acc
            }
            Node::Not(n) => negate(n.verdict(b)),
        }
    }

    /// Conservative `[lo, hi)` superset of matching rows, from binary
    /// search on sorted columns. Unsorted / unindexed leaves yield the
    /// full range.
    fn bounds(&self, n: usize) -> (usize, usize) {
        match self {
            Node::True => (0, n),
            Node::False => (0, 0),
            Node::Cmp {
                col, idx, op, v, ..
            } => {
                if !idx.is_some_and(ColumnIndex::sorted) {
                    return (0, n);
                }
                match op {
                    CmpOp::Eq => (first_not_less(col, v), first_greater(col, v)),
                    CmpOp::Lt => (0, first_not_less(col, v)),
                    CmpOp::Le => (0, first_greater(col, v)),
                    CmpOp::Gt => (first_greater(col, v), n),
                    CmpOp::Ge => (first_not_less(col, v), n),
                    CmpOp::Ne => (0, n),
                }
            }
            Node::Between {
                col, idx, lo, hi, ..
            } => {
                if !idx.is_some_and(ColumnIndex::sorted) {
                    return (0, n);
                }
                (first_not_less(col, lo), first_not_less(col, hi))
            }
            Node::And(ns) => ns.iter().fold((0, n), |(lo, hi), nd| {
                let (l2, h2) = nd.bounds(n);
                (lo.max(l2), hi.min(h2))
            }),
            Node::Or(ns) => {
                if ns.is_empty() {
                    return (0, 0);
                }
                ns.iter().fold((n, 0), |(lo, hi), nd| {
                    let (l2, h2) = nd.bounds(n);
                    (lo.min(l2), hi.max(h2))
                })
            }
            Node::Not(_) => (0, n),
        }
    }
}

/// A [`Predicate`](crate::Predicate) compiled against one table: column
/// names resolved to column slices, comparison values bound once, zone
/// maps and sorted-column bounds attached. Result-identical to the naive
/// row-at-a-time [`Predicate::eval`](crate::Predicate::eval).
///
/// **Equality probe.** When the predicate is `col = literal`, or a
/// top-level `AND` has such a conjunct, its rows come from the table's
/// kept [`KeyIndex`] over `col` instead of a scan. The literal must be
/// `Text`, `Bool` or `Timestamp`: only for those is the index's
/// exact-type key equality the same as `total_cmp == Equal` with nulls
/// excluded (`Int(1)` equals `Float(1.0)` under `total_cmp`, not in the
/// index), so `Int` and `Float` literals keep scanning. A column whose
/// sorted-on-append flag is set keeps its binary-search bounds instead.
/// The first such conjunct is probed; a lone one is the answer as it
/// stands, and any other conjunct is checked row by row over its group.
///
/// The index is built by the first equality query over the column after
/// the table was created or last written, and dropped by the next write
/// — the policy join keys follow. The build costs more than one scan: on
/// the `query_engine` bench's 150,000-row table it takes 7–9 ms, more
/// than a whole `filter_naive` pass. A column filtered once between
/// writes therefore pays more than it did; one filtered repeatedly pays
/// once. No workload here runs equality filters between writes: the
/// streaming spine's live reads are range queries.
///
/// # Examples
///
/// ```
/// use mscope_db::{Column, ColumnType, CompiledPredicate, Predicate, Schema, Table, Value};
///
/// let schema = Schema::new(vec![Column::new("t", ColumnType::Int)])?;
/// let mut table = Table::new("m", schema);
/// for i in 0..100 {
///     table.push_row(vec![Value::Int(i)])?;
/// }
/// let pred = Predicate::Between("t".into(), Value::Int(10), Value::Int(13));
/// let compiled = CompiledPredicate::compile(&table, &pred);
/// assert_eq!(compiled.matching_rows(), vec![10, 11, 12]);
/// # Ok::<(), mscope_db::DbError>(())
/// ```
pub struct CompiledPredicate<'t> {
    nrows: usize,
    block_rows: usize,
    node: Node<'t>,
    probe: Option<Probe<'t>>,
}

/// An equality conjunct answered from the table's kept [`KeyIndex`].
struct Probe<'t> {
    /// The probed column's index in the table.
    ci: usize,
    /// The rows whose cell equals the literal, ascending.
    rows: &'t [usize],
    /// The conjunct is the whole predicate: `rows` is the answer.
    lone: bool,
}

impl Probe<'_> {
    /// The probe's rows inside the sorted-column bounds `[lo, hi)`.
    fn within(&self, lo: usize, hi: usize) -> &[usize] {
        let s = self.rows.partition_point(|&i| i < lo);
        let e = self.rows.partition_point(|&i| i < hi);
        &self.rows[s..e]
    }
}

/// The equality conjunct [`CompiledPredicate`] probes, if `pred` has one
/// (see its docs for the rule): the column, the literal, and whether the
/// conjunct is the whole predicate.
fn eq_conjunct<'p>(table: &Table, pred: &'p Predicate) -> Option<(usize, &'p Value, bool)> {
    let probeable = |p: &'p Predicate| {
        let Predicate::Eq(c, v) = p else {
            return None;
        };
        if !matches!(v, Value::Text(_) | Value::Bool(_) | Value::Timestamp(_)) {
            return None;
        }
        let ci = table.schema().index_of(c)?;
        let sorted = table.table_index().col(ci).is_some_and(ColumnIndex::sorted);
        (!sorted).then_some((ci, v))
    };
    match pred {
        Predicate::And(ps) => ps.iter().enumerate().find_map(|(k, p)| {
            let (ci, v) = probeable(p)?;
            let lone = ps
                .iter()
                .enumerate()
                .all(|(j, q)| j == k || *q == Predicate::True);
            Some((ci, v, lone))
        }),
        p => probeable(p).map(|(ci, v)| (ci, v, true)),
    }
}

impl<'t> CompiledPredicate<'t> {
    /// Compiles `pred` against `table`. Cost is one `index_of` per leaf —
    /// paid once, not per row — plus, for an equality conjunct the kept
    /// key index can answer, one probe (and the index's build, the first
    /// time after a write).
    pub fn compile(table: &'t Table, pred: &Predicate) -> CompiledPredicate<'t> {
        let probe = eq_conjunct(table, pred).map(|(ci, v, lone)| Probe {
            ci,
            rows: table.key_index_at(ci).rows(table.col(ci), v),
            lone,
        });
        CompiledPredicate {
            nrows: table.row_count(),
            block_rows: table.table_index().block_rows(),
            node: Node::compile(pred, &|c| {
                let ci = table.schema().index_of(c)?;
                Some(((Side::Left, table.col(ci)), table.table_index().col(ci)))
            }),
            probe,
        }
    }

    /// Evaluates row `i` (must be a valid row index of the compiled
    /// table).
    pub fn eval(&self, i: usize) -> bool {
        self.node.eval(i)
    }

    fn bounds(&self) -> (usize, usize) {
        let (lo, hi) = self.node.bounds(self.nrows);
        (lo.min(self.nrows), hi.min(self.nrows))
    }

    /// All matching row indices, ascending (serial scan).
    pub fn matching_rows(&self) -> Vec<usize> {
        self.matching_rows_with(1)
    }

    /// All matching row indices, ascending. `workers` fans out a block
    /// scan; `0` picks the worker count automatically (serial below
    /// [`PARALLEL_MIN_ROWS`] candidate rows). **Every** worker count
    /// produces identical output, because blocks are merged in block
    /// order. An equality probe's rows are checked on the calling thread.
    pub fn matching_rows_with(&self, workers: usize) -> Vec<usize> {
        let (lo, hi) = self.bounds();
        if lo >= hi {
            return Vec::new();
        }
        if let Some(probe) = &self.probe {
            let rows = probe.within(lo, hi);
            if probe.lone {
                return rows.to_vec();
            }
            return rows
                .iter()
                .copied()
                .filter(|&i| self.node.eval(i))
                .collect();
        }
        let b0 = lo / self.block_rows;
        let b1 = (hi - 1) / self.block_rows + 1;
        let workers = resolve_workers(workers, hi - lo);
        let per_block = parallel_map(b1 - b0, workers, |rel| {
            let b = b0 + rel;
            let s = (b * self.block_rows).max(lo);
            let e = ((b + 1) * self.block_rows).min(hi);
            match self.node.verdict(b) {
                Verdict::AllFalse => Vec::new(),
                Verdict::AllTrue => (s..e).collect(),
                Verdict::Mixed => (s..e).filter(|&i| self.node.eval(i)).collect(),
            }
        });
        per_block.concat()
    }

    /// Estimates the scan's output without touching a cell: from
    /// sorted-column bounds plus per-block zone-map verdicts, or from the
    /// equality probe's row list when the scan takes one. Proven blocks
    /// (`AllTrue`/`AllFalse`) contribute exact counts, and so does a lone
    /// equality probe; `Mixed` blocks and a probe with other conjuncts are
    /// charged half their candidate rows. The planner uses this to pick
    /// hash-join build sides and to annotate `EXPLAIN`.
    pub(crate) fn estimate(&self) -> ScanEstimate {
        let total_blocks = self.nrows.div_ceil(self.block_rows);
        let (lo, hi) = self.bounds();
        let mut est = ScanEstimate {
            rows: 0,
            skipped: total_blocks,
            taken: 0,
            evaluated: 0,
            index: self.probe.as_ref().map(|p| p.ci),
        };
        if lo >= hi {
            return est;
        }
        if let Some(probe) = &self.probe {
            let rows = probe.within(lo, hi);
            // Rows ascend, so the blocks they touch are the runs of equal
            // block numbers.
            let touched = rows
                .chunk_by(|a, b| a / self.block_rows == b / self.block_rows)
                .count();
            est.skipped = total_blocks - touched;
            if probe.lone {
                est.taken = touched;
                est.rows = rows.len();
            } else {
                est.evaluated = touched;
                est.rows = rows.len().div_ceil(2);
            }
            return est;
        }
        let b0 = lo / self.block_rows;
        let b1 = (hi - 1) / self.block_rows + 1;
        est.skipped = total_blocks - (b1 - b0);
        for b in b0..b1 {
            let s = (b * self.block_rows).max(lo);
            let e = ((b + 1) * self.block_rows).min(hi);
            match self.node.verdict(b) {
                Verdict::AllFalse => est.skipped += 1,
                Verdict::AllTrue => {
                    est.taken += 1;
                    est.rows += e - s;
                }
                Verdict::Mixed => {
                    est.evaluated += 1;
                    est.rows += (e - s).div_ceil(2);
                }
            }
        }
        est
    }
}

/// Statistics-only cardinality estimate for one compiled scan (see
/// [`CompiledPredicate::estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanEstimate {
    /// Estimated matching rows.
    pub rows: usize,
    /// Blocks proven `AllFalse` (or excluded by sorted bounds) — skipped.
    pub skipped: usize,
    /// Blocks proven `AllTrue` — taken whole without evaluation.
    pub taken: usize,
    /// Blocks the scan must evaluate row by row.
    pub evaluated: usize,
    /// The column whose kept key index answers an equality conjunct,
    /// when the scan probes one instead of reading blocks.
    pub index: Option<usize>,
}

/// Resolves a requested scan worker count: `0` = auto (serial under
/// [`PARALLEL_MIN_ROWS`] rows, else the machine's parallelism).
#[expect(
    clippy::disallowed_methods,
    reason = "a plan selector: the merge order is worker-count-invariant (DT008)"
)]
pub(crate) fn resolve_workers(requested: usize, rows: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if rows < PARALLEL_MIN_ROWS {
        1
    } else {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4)
    }
}

/// Borrowed hashable key form of a non-null [`Value`] (floats by bit
/// pattern). Unlike [`ValueKey`](crate::ValueKey), probing never clones
/// text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyRef<'a> {
    Bool(bool),
    Int(i64),
    Float(u64),
    Timestamp(i64),
    Text(&'a str),
}

impl<'a> KeyRef<'a> {
    /// The key's hash under `s`, written in one call: text as its bytes,
    /// everything else as one word. Keys of different types may share a
    /// hash (`Int(1)` and `Timestamp(1)`); [`KeyIndex`] compares keys, so
    /// that costs a comparison, never a match.
    #[inline]
    fn hash_with(self, s: &impl BuildHasher) -> u64 {
        let mut h = s.build_hasher();
        match self {
            KeyRef::Text(t) => h.write(t.as_bytes()),
            KeyRef::Int(i) | KeyRef::Timestamp(i) => h.write_i64(i),
            KeyRef::Float(bits) => h.write_u64(bits),
            KeyRef::Bool(b) => h.write_u8(u8::from(b)),
        }
        h.finish()
    }

    /// `None` for null — null keys never join or group.
    pub(crate) fn of(v: &'a Value) -> Option<KeyRef<'a>> {
        match v {
            Value::Null => None,
            Value::Bool(b) => Some(KeyRef::Bool(*b)),
            Value::Int(i) => Some(KeyRef::Int(*i)),
            Value::Float(f) => Some(KeyRef::Float(f.to_bits())),
            Value::Timestamp(t) => Some(KeyRef::Timestamp(*t)),
            Value::Text(s) => Some(KeyRef::Text(s)),
        }
    }
}

/// A hash index over one key column — the one index behind the compiled
/// engine's joins and the analysis layer's `reconstruct_flows`.
///
/// The index owns no key: it maps each key's hash to a dense group id,
/// and a probe checks key equality against the column it was built from,
/// which every lookup takes as its first argument. Owning nothing of the
/// column is what lets a [`Table`] keep one per column it has been joined
/// on ([`Table::key_index`]) and lets a join build a transient one over a
/// filtered selection, with the same type and the same probe.
///
/// Key equality is exact-type (`Int(1)` and `Float(1.0)` are distinct,
/// like [`ValueKey`](crate::ValueKey)); null keys are never indexed and
/// never match.
///
/// The layout is flat: the map sends a key hash to a dense group id, and
/// the group's rows are `rows[offsets[g]..offsets[g + 1]]` in input
/// order, so a group's first row is its key's representative. The hash
/// is keyed per process ([`RandomState`]) because request IDs come from
/// log files; two distinct keys that share a 64-bit hash are chained, so
/// a collision costs a second comparison and never a wrong match. A build
/// hashes each row once and allocates the map, the two arrays and two
/// scratch lists — nothing per key.
///
/// # Examples
///
/// ```
/// use mscope_db::{KeyIndex, Value};
///
/// let col = vec![Value::Text("r1".into()), Value::Null, Value::Text("r1".into())];
/// let idx = KeyIndex::build(&col);
/// assert_eq!(idx.rows(&col, &Value::Text("r1".into())), &[0, 2]);
/// assert_eq!(idx.last_text(&col, "r1"), Some(2));
/// assert_eq!(idx.rows(&col, &Value::Null), &[] as &[usize]);
/// ```
#[derive(Clone)]
pub struct KeyIndex<S = RandomState> {
    hasher: S,
    /// Key hash → the first group whose key has that hash.
    heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    /// Group → the next group whose distinct key shares its hash. Empty
    /// unless two keys of the column collide in 64 bits.
    chain: HashMap<usize, usize>,
    offsets: Vec<usize>,
    rows: Vec<usize>,
}

/// The identity hasher for keys that already are [`RandomState`] hashes:
/// the map must not hash a key's hash a second time.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl<S> fmt::Debug for KeyIndex<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyIndex")
            .field("keys", &(self.offsets.len() - 1))
            .field("rows", &self.rows.len())
            .finish()
    }
}

impl KeyIndex {
    /// Indexes every non-null value of `col` by row index.
    pub fn build(col: &[Value]) -> KeyIndex {
        KeyIndex::over(col, 0..col.len())
    }

    /// Indexes the non-null values of `col` at the rows `sel` yields (each
    /// a valid index into `col`); a key's rows keep `sel`'s order.
    pub(crate) fn over(col: &[Value], sel: impl ExactSizeIterator<Item = usize>) -> KeyIndex {
        KeyIndex::over_with(col, sel, RandomState::new())
    }
}

impl<S: BuildHasher> KeyIndex<S> {
    /// [`KeyIndex::over`] with the key hash `hasher` (tests pass a
    /// degenerate one to force collisions).
    fn over_with(
        col: &[Value],
        sel: impl ExactSizeIterator<Item = usize>,
        hasher: S,
    ) -> KeyIndex<S> {
        // The one pass that hashes: a group id per keyed row, and each
        // group's first row, which the chain walk compares against. Every
        // buffer is sized once, so a build's heap peak is the map plus
        // four row-sized arrays, whatever the key distribution. The map
        // holds twice the selection while it fills and twice its group
        // count after, so it is at most half full and a probe that misses
        // — most probes of a small kept index — stops at its first group
        // of slots.
        let mut heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>> =
            HashMap::with_capacity_and_hasher(2 * sel.len(), BuildHasherDefault::default());
        let mut chain: HashMap<usize, usize> = HashMap::new();
        let mut first: Vec<usize> = Vec::with_capacity(sel.len());
        let mut keyed: Vec<(usize, usize)> = Vec::with_capacity(sel.len());
        for i in sel {
            let Some(k) = KeyRef::of(&col[i]) else {
                continue;
            };
            let next = first.len();
            let g = match heads.entry(k.hash_with(&hasher)) {
                Entry::Vacant(e) => *e.insert(next),
                Entry::Occupied(e) => {
                    // Walk the hash's chain for this key; a key not on it
                    // is a new group linked to the chain's tail.
                    let mut g = *e.get();
                    loop {
                        if KeyRef::of(&col[first[g]]) == Some(k) {
                            break g;
                        }
                        match chain.get(&g) {
                            Some(&n) => g = n,
                            None => {
                                chain.insert(g, next);
                                break next;
                            }
                        }
                    }
                }
            };
            if g == next {
                first.push(i);
            }
            keyed.push((g, i));
        }
        // A kept index lives until the next write: give back the slots a
        // low-cardinality column never filled. A unique-key build already
        // has this capacity, so it keeps its table with no rehash.
        heads.shrink_to(2 * heads.len());
        // Group `g`'s size counted into `offsets[g + 1]`, then the sizes
        // become group *starts*, still one slot up; the stable
        // scatter then advances `offsets[g + 1]` through group `g` and
        // leaves it on the group's end, which is where group `g + 1` starts.
        let mut offsets = vec![0usize; first.len() + 1];
        drop(first);
        for &(g, _) in &keyed {
            offsets[g + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            let size = *slot;
            *slot = start;
            start += size;
        }
        let mut rows = vec![0usize; keyed.len()];
        for (g, i) in keyed {
            rows[offsets[g + 1]] = i;
            offsets[g + 1] += 1;
        }
        KeyIndex {
            hasher,
            heads,
            chain,
            offsets,
            rows,
        }
    }

    /// The rows of key `k`, whose equality is checked against `col`, the
    /// column this index was built from.
    #[inline]
    fn group(&self, col: &[Value], k: KeyRef<'_>) -> &[usize] {
        let mut next = self.heads.get(&k.hash_with(&self.hasher)).copied();
        while let Some(g) = next {
            let rows = &self.rows[self.offsets[g]..self.offsets[g + 1]];
            if KeyRef::of(&col[rows[0]]) == Some(k) {
                return rows;
            }
            next = self.chain.get(&g).copied();
        }
        &[]
    }

    /// Row indices whose key equals `v`, ascending (empty for null or
    /// unseen keys). `col` is the column the index was built from.
    #[inline]
    pub fn rows(&self, col: &[Value], v: &Value) -> &[usize] {
        KeyRef::of(v).map_or(&[][..], |k| self.group(col, k))
    }

    /// The last row whose **text** key equals `s` — the "latest record
    /// wins" lookup `reconstruct_flows` uses for request IDs. `col` is
    /// the column the index was built from.
    #[inline]
    pub fn last_text(&self, col: &[Value], s: &str) -> Option<usize> {
        self.group(col, KeyRef::Text(s)).last().copied()
    }

    /// Number of distinct non-null keys.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when no non-null key was indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinClause, ParsedQuery, SelectItem};
    use crate::table::Column;
    use mscope_sim::prop::Gen;

    fn int_table(name: &str, vals: &[i64]) -> Table {
        let schema = Schema::new(vec![Column::new("t", ColumnType::Int)]).unwrap();
        let mut t = Table::new(name, schema);
        for &v in vals {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn sorted_flag_tracks_appends() {
        let t = int_table("s", &[1, 2, 2, 5]);
        assert!(t.table_index().col(0).unwrap().sorted());
        let u = int_table("u", &[1, 3, 2]);
        assert!(!u.table_index().col(0).unwrap().sorted());
    }

    #[test]
    fn null_after_data_clears_sorted_flag() {
        let schema = Schema::new(vec![Column::new("t", ColumnType::Int)]).unwrap();
        let mut t = Table::new("n", schema);
        t.push_row(vec![Value::Int(1)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        assert!(!t.table_index().col(0).unwrap().sorted());
    }

    #[test]
    fn block_verdicts_prune_and_accept() {
        let s = {
            let mut b = BlockStat::empty();
            for v in [10i64, 20, 30] {
                b.add(&Value::Int(v));
            }
            b
        };
        // Entirely below / above the block.
        assert_eq!(s.verdict_cmp(CmpOp::Eq, &Value::Int(5)), Verdict::AllFalse);
        assert_eq!(s.verdict_cmp(CmpOp::Lt, &Value::Int(5)), Verdict::AllFalse);
        assert_eq!(s.verdict_cmp(CmpOp::Lt, &Value::Int(31)), Verdict::AllTrue);
        assert_eq!(s.verdict_cmp(CmpOp::Ge, &Value::Int(10)), Verdict::AllTrue);
        assert_eq!(s.verdict_cmp(CmpOp::Ge, &Value::Int(11)), Verdict::Mixed);
        assert_eq!(
            s.verdict_between(&Value::Int(0), &Value::Int(31)),
            Verdict::AllTrue
        );
        assert_eq!(
            s.verdict_between(&Value::Int(31), &Value::Int(40)),
            Verdict::AllFalse
        );
        assert_eq!(
            s.verdict_between(&Value::Int(15), &Value::Int(40)),
            Verdict::Mixed
        );
    }

    #[test]
    fn nulls_block_all_true_but_not_all_false() {
        let mut b = BlockStat::empty();
        b.add(&Value::Int(1));
        b.add(&Value::Null);
        assert_eq!(b.verdict_cmp(CmpOp::Ge, &Value::Int(0)), Verdict::Mixed);
        assert_eq!(b.verdict_cmp(CmpOp::Gt, &Value::Int(1)), Verdict::AllFalse);
        let mut all_null = BlockStat::empty();
        all_null.add(&Value::Null);
        assert_eq!(
            all_null.verdict_cmp(CmpOp::Ne, &Value::Int(1)),
            Verdict::AllFalse
        );
    }

    #[test]
    fn compiled_matches_naive_on_sorted_and_unsorted() {
        for vals in [
            vec![1i64, 2, 3, 4, 5, 6, 7, 8],
            vec![5, 1, 9, 3, 7, 2, 8, 4],
        ] {
            let t = int_table("m", &vals);
            for pred in [
                Predicate::Between("t".into(), Value::Int(2), Value::Int(6)),
                Predicate::Not(Box::new(Predicate::Lt("t".into(), Value::Int(4)))),
                Predicate::Or(vec![
                    Predicate::Eq("t".into(), Value::Int(1)),
                    Predicate::Ge("t".into(), Value::Int(7)),
                ]),
                Predicate::Eq("missing".into(), Value::Int(1)),
                Predicate::Not(Box::new(Predicate::Eq("missing".into(), Value::Int(1)))),
            ] {
                let compiled = CompiledPredicate::compile(&t, &pred);
                let naive: Vec<usize> = (0..t.row_count()).filter(|&i| pred.eval(&t, i)).collect();
                assert_eq!(
                    compiled.matching_rows(),
                    naive,
                    "pred {pred:?} vals {vals:?}"
                );
            }
        }
    }

    #[test]
    fn matching_rows_identical_for_any_worker_count() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        let mut t = int_table("w", &vals);
        t.reindex(64); // many blocks so parallelism has work to split
        let pred = Predicate::Between("t".into(), Value::Int(100), Value::Int(700));
        let compiled = CompiledPredicate::compile(&t, &pred);
        let serial = compiled.matching_rows();
        for workers in [2, 3, 8] {
            assert_eq!(compiled.matching_rows_with(workers), serial);
        }
    }

    #[test]
    fn key_index_groups_rows_and_skips_nulls() {
        let col = vec![Value::Int(1), Value::Float(1.0), Value::Null, Value::Int(1)];
        let idx = KeyIndex::build(&col);
        assert_eq!(idx.rows(&col, &Value::Int(1)), &[0, 3]);
        assert_eq!(
            idx.rows(&col, &Value::Float(1.0)),
            &[1],
            "exact-type equality"
        );
        assert_eq!(idx.rows(&col, &Value::Null), &[] as &[usize]);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    /// Hashes every key to one value, so every distinct key collides.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            7
        }
    }

    #[test]
    fn key_index_chains_keys_whose_hashes_collide() {
        let col: Vec<Value> = ["a", "b", "a", "c", "b"]
            .iter()
            .map(|&s| Value::Text(s.into()))
            .chain([Value::Int(1), Value::Null, Value::Float(1.0)])
            .collect();
        let idx = KeyIndex::over_with(&col, 0..col.len(), BuildHasherDefault::<Collide>::default());
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.rows(&col, &Value::Text("a".into())), &[0, 2]);
        assert_eq!(idx.rows(&col, &Value::Text("b".into())), &[1, 4]);
        assert_eq!(idx.rows(&col, &Value::Text("c".into())), &[3]);
        assert_eq!(idx.rows(&col, &Value::Int(1)), &[5]);
        assert_eq!(idx.rows(&col, &Value::Float(1.0)), &[7]);
        assert_eq!(idx.rows(&col, &Value::Text("d".into())), &[] as &[usize]);
        assert_eq!(idx.last_text(&col, "b"), Some(4));
    }

    #[test]
    fn key_index_map_keeps_twice_its_groups() {
        // The shape of `event_apache.interaction`: 43,130 rows, 24 keys.
        let col: Vec<Value> = (0..43_130)
            .map(|i| Value::Text(format!("k{}", i % 24)))
            .collect();
        let idx = KeyIndex::build(&col);
        assert_eq!(idx.len(), 24);
        let slots = idx.heads.capacity();
        assert!((48..=96).contains(&slots), "{slots} slots for 24 keys");
        // Unique keys: the map keeps the capacity it was built with.
        let col: Vec<Value> = (0..5_000).map(Value::Int).collect();
        let idx = KeyIndex::build(&col);
        let built: HashMap<u64, usize, BuildHasherDefault<PreHashed>> =
            HashMap::with_capacity_and_hasher(2 * col.len(), BuildHasherDefault::default());
        assert_eq!(idx.heads.capacity(), built.capacity());
        assert_eq!(idx.rows(&col, &Value::Int(4_321)), &[4_321]);
    }

    /// A small cell of any type the pair-space tables hold; keys and
    /// comparison values share the domain so matches and ties are common.
    fn arb_value(g: &mut Gen) -> Value {
        match g.usize(0..=5) {
            0 => Value::Null,
            1 | 2 => Value::Int(g.i64(0..=4)),
            3 => Value::Float(g.i64(0..=8) as f64 / 2.0),
            _ => Value::Text(format!("t{}", g.usize(0..=2))),
        }
    }

    /// A random predicate over left-only (`a`), right-only (`b`), shared
    /// (`k`, `s`), collision-prefixed (`r_k`, `r_s`) and unknown names.
    fn arb_pred(g: &mut Gen, depth: usize) -> Predicate {
        let col = |g: &mut Gen| {
            g.choose(&["a", "b", "k", "s", "r_k", "r_s", "nope"])
                .to_string()
        };
        let kind = g.usize(0..=if depth == 0 { 7 } else { 10 });
        match kind {
            0 => Predicate::True,
            1 => Predicate::Eq(col(g), arb_value(g)),
            2 => Predicate::Ne(col(g), arb_value(g)),
            3 => Predicate::Lt(col(g), arb_value(g)),
            4 => Predicate::Le(col(g), arb_value(g)),
            5 => Predicate::Gt(col(g), arb_value(g)),
            6 => Predicate::Ge(col(g), arb_value(g)),
            7 => Predicate::Between(col(g), arb_value(g), arb_value(g)),
            8 => Predicate::And(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            9 => Predicate::Or(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            _ => Predicate::Not(Box::new(arb_pred(g, depth - 1))),
        }
    }

    /// `name(k Int, <own> Float, s Text)` with null keys and nulls anywhere.
    fn arb_side(g: &mut Gen, name: &str, own: &str) -> Table {
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new(own, ColumnType::Float),
            Column::new("s", ColumnType::Text),
        ])
        .expect("distinct names");
        let mut t = Table::new(name, schema);
        let rows = g.vec(0..=10, |g| {
            let cell = |g: &mut Gen, v: Value| if g.usize(0..=4) == 0 { Value::Null } else { v };
            let (k, f, s) = (g.i64(0..=3), g.i64(0..=8), g.usize(0..=2));
            vec![
                cell(g, Value::Int(k)),
                cell(g, Value::Float(f as f64 / 2.0)),
                cell(g, Value::Text(format!("t{s}"))),
            ]
        });
        t.push_batch(rows).expect("rows fit the schema");
        t
    }

    #[test]
    fn pair_space_node_and_gather_match_the_naive_join() {
        mscope_sim::prop::forall("pair space vs inner_join_naive", 256, |g| {
            let (l, r) = (arb_side(g, "l", "a"), arb_side(g, "r", "b"));
            let pred = arb_pred(g, 3);
            let joined = l
                .inner_join_naive(&r, "k", "k")
                .map_err(|e| e.to_string())?;

            // The pair space exactly as the executor sets it up: names and
            // sides through the planner's source relation, left-major pairs.
            let mut db = crate::Database::new();
            for t in [&l, &r] {
                db.replace_table(t.clone()).map_err(|e| e.to_string())?;
            }
            let q = ParsedQuery {
                explain: false,
                items: vec![SelectItem::Star],
                table: "l".into(),
                join: Some(JoinClause {
                    table: "r".into(),
                    left_qual: None,
                    left_col: "k".into(),
                    right_qual: None,
                    right_col: "k".into(),
                }),
                predicate: Predicate::True,
                group_by: Vec::new(),
                having: None,
                order_by: None,
                limit: None,
            };
            let plan = crate::plan::plan(&db, &q, g.bool()).map_err(|e| e.to_string())?;
            let source = plan.source_cols().map_err(|e| e.to_string())?;
            let (lt, rt) = (
                plan.left,
                plan.right.expect("a join plan has a right table"),
            );
            // Either side built, from the table's kept index or for this
            // join alone: the pairs must not depend on either choice.
            let build_left = g.bool();
            let (build, probe) = if build_left { (lt, rt) } else { (rt, lt) };
            let transient;
            let index = if g.bool() {
                build.key_index_at(0)
            } else {
                transient = KeyIndex::build(build.col(0));
                &transient
            };
            let probe_rows = 0..probe.row_count();
            let pairs =
                crate::vector::join_pairs(lt.col(0), rt.col(0), build_left, index, probe_rows);
            mscope_sim::prop_ensure!(
                pairs.len() == joined.row_count(),
                "{} pairs vs {} joined rows",
                pairs.len(),
                joined.row_count()
            );

            let node = Node::compile(&pred, &|name| {
                let si = plan.res.source.iter().position(|s| s.name == name)?;
                Some((source[si], None))
            });
            for (row, &pair) in pairs.iter().enumerate() {
                mscope_sim::prop_ensure!(
                    node.eval(pair) == pred.eval(&joined, row),
                    "{pred:?} differs on pair {pair:?} (joined row {row})"
                );
            }
            for workers in [1, 3] {
                let cols = gather(&source, &pairs, workers);
                for (ci, col) in cols.iter().enumerate() {
                    mscope_sim::prop_ensure!(
                        col.as_slice() == joined.col(ci),
                        "gathered column {ci} differs with {workers} workers"
                    );
                }
            }
            Ok(())
        });
    }
}
