//! Stats-driven query planning: the logical pipeline behind every SQL
//! query (`Scan → Filter → Join → Aggregate → Sort → Limit`) and the
//! statistics-guided choices that turn it into a physical plan.
//!
//! The parser ([`sql`](crate::sql)) produces a [`ParsedQuery`] — pure
//! syntax. [`resolve`] binds it against schemas (shared by the static
//! type-checker, so `sql::check_with` stays in lockstep with execution by
//! construction), and [`plan`] attaches live tables plus the statistics
//! the engine already maintains:
//!
//! * **predicate pushdown** — the WHERE tree splits into per-side
//!   conjuncts fused into each scan ([`CompiledPredicate`] zone-map block
//!   skipping); only mixed-side conjuncts survive as a join residual;
//! * **join build side** — [`CompiledPredicate::estimate`] (sorted-column
//!   bounds + per-block zone-map verdicts) estimates each input's
//!   cardinality and the hash index is built on the smaller one;
//! * **projection pushdown** — only columns the output (or an aggregate)
//!   references are ever gathered;
//! * **sort elision** — `ORDER BY <col> ASC` is dropped when the
//!   sorted-on-append flag already proves the scan order, or when the
//!   aggregate's own key order subsumes it.
//!
//! `EXPLAIN` renders the chosen physical plan ([`Plan::explain_table`]).
//! "Planner off" (`optimize = false`) is a plan, not a second executor:
//! [`plan`] pins each of those choices to the syntactic shape — whole
//! WHERE as the post-join residual, build side right, every source column
//! needed, no sort elision — and [`vector::run`](crate::vector::run) runs
//! the result like any other plan, so `EXPLAIN` describes what executes
//! on both legs.

use crate::db::Database;
use crate::engine::{CompiledPredicate, ScanEstimate, Side, SideCol};
use crate::query::{AggFn, Predicate};
use crate::table::{Column, Schema, Table};
use crate::value::{ColumnType, Value};
use crate::DbError;

// ---------------------------------------------------------------------
// Parsed syntax
// ---------------------------------------------------------------------

/// One projected item, as written.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectItem {
    /// `*`
    Star,
    /// A bare column.
    Col(String),
    /// `AGG(col)`; `col == "*"` only for `COUNT(*)`.
    Agg { agg: AggFn, col: String },
}

/// `JOIN <table> ON [<qual>.]<col> = [<qual>.]<col>`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinClause {
    pub table: String,
    pub left_qual: Option<String>,
    pub left_col: String,
    pub right_qual: Option<String>,
    pub right_col: String,
}

/// A parsed query — syntax only, nothing resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedQuery {
    pub explain: bool,
    pub items: Vec<SelectItem>,
    pub table: String,
    pub join: Option<JoinClause>,
    pub predicate: Predicate,
    pub group_by: Vec<String>,
    pub having: Option<Predicate>,
    pub order_by: Option<(String, bool)>,
    pub limit: Option<usize>,
}

// ---------------------------------------------------------------------
// Resolution (shared by planning and static checking)
// ---------------------------------------------------------------------

/// One column of the (possibly joined) source relation: its output name
/// (right-side collisions prefixed `<right-table>_`) and where its cells
/// live.
#[derive(Debug, Clone)]
pub(crate) struct SourceCol {
    pub name: String,
    pub side: Side,
    pub ci: usize,
    pub ty: ColumnType,
}

/// One aggregate output.
#[derive(Debug, Clone)]
pub(crate) struct AggItem {
    pub agg: AggFn,
    /// Source column index; `None` aggregates the row itself (`COUNT(*)`).
    pub src: Option<usize>,
    pub name: String,
}

/// The aggregation stage, when the projection contains aggregates.
#[derive(Debug, Clone)]
pub(crate) struct AggregateNode {
    /// Group-key source column indices, in GROUP BY order.
    pub keys: Vec<usize>,
    /// Output names for the keys (`<key>_key` when an aggregate output
    /// already claims the plain name).
    pub key_names: Vec<String>,
    pub aggs: Vec<AggItem>,
    /// No GROUP BY: one-row whole-table aggregate.
    pub whole_table: bool,
}

/// A [`ParsedQuery`] bound to schemas: source relation, aggregation or
/// projection, result schema and name. Pure — no table data touched —
/// so the lint-side schema oracle resolves queries identically to the
/// executor.
#[derive(Debug, Clone)]
pub(crate) struct Resolved {
    pub source: Vec<SourceCol>,
    pub aggregate: Option<AggregateNode>,
    /// Non-aggregate output: source column indices in projection order.
    pub projection: Vec<usize>,
    /// The result schema — what ORDER BY and HAVING see.
    pub result: Schema,
    pub result_name: String,
    /// Join key column indices `(left table, right table)`.
    pub join_keys: Option<(usize, usize)>,
}

/// The display label of an aggregate (`avg`, `count`, …) used in result
/// column names.
pub(crate) fn agg_label(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Mean => "avg",
        AggFn::Max => "max",
        AggFn::Min => "min",
        AggFn::Sum => "sum",
        AggFn::Count => "count",
        AggFn::Last => "last",
    }
}

/// Binds a parsed query against the FROM schema (and the JOIN schema when
/// present), producing the source relation, the aggregation/projection
/// stage, and the result schema. All naming and validation rules live
/// here, once.
///
/// # Errors
///
/// [`DbError::NoSuchColumn`] for unknown projection/key/ORDER BY columns;
/// [`DbError::BadQuery`] for structural errors (keyed aggregate without
/// GROUP BY, GROUP BY without an aggregate, HAVING without GROUP BY,
/// unknown ON qualifiers); [`DbError::DuplicateColumn`] when the result
/// schema collides.
pub(crate) fn resolve(
    q: &ParsedQuery,
    left_name: &str,
    left: &Schema,
    right: Option<(&str, &Schema)>,
) -> Result<Resolved, DbError> {
    let mut source: Vec<SourceCol> = left
        .columns()
        .iter()
        .enumerate()
        .map(|(ci, c)| SourceCol {
            name: c.name.clone(),
            side: Side::Left,
            ci,
            ty: c.ty,
        })
        .collect();
    let mut join_keys = None;
    let mut base_name = left_name.to_string();

    if let (Some(j), Some((rname, rschema))) = (q.join.as_ref(), right) {
        source.reserve(rschema.len());
        for (ci, c) in rschema.columns().iter().enumerate() {
            let name = if left.index_of(&c.name).is_some() {
                // perf: once per schema column, owned by the plan
                format!("{rname}_{}", c.name)
            } else {
                // perf: once per schema column, owned by the plan
                c.name.clone()
            };
            if source.iter().any(|s| s.name == name) {
                return Err(DbError::BadQuery(format!(
                    "join of {left_name} and {rname} produces duplicate column names"
                )));
            }
            source.push(SourceCol {
                name,
                side: Side::Right,
                ci,
                ty: c.ty,
            });
        }
        // ON key resolution, honoring optional qualifiers (and the
        // swapped `ON right.x = left.y` spelling).
        let (mut lq, mut lcol) = (j.left_qual.as_deref(), j.left_col.as_str());
        let (mut rq, mut rcol) = (j.right_qual.as_deref(), j.right_col.as_str());
        if (lq == Some(rname) || rq == Some(left_name)) && left_name != rname {
            std::mem::swap(&mut lq, &mut rq);
            std::mem::swap(&mut lcol, &mut rcol);
        }
        for (qual, expect) in [(lq, left_name), (rq, rname)] {
            if let Some(t) = qual {
                if t != expect {
                    return Err(DbError::BadQuery(format!(
                        "unknown table qualifier `{t}` in ON clause"
                    )));
                }
            }
        }
        let lci = left
            .index_of(lcol)
            .ok_or_else(|| DbError::NoSuchColumn(lcol.to_string()))?;
        let rci = rschema
            .index_of(rcol)
            .ok_or_else(|| DbError::NoSuchColumn(rcol.to_string()))?;
        join_keys = Some((lci, rci));
        base_name = format!("{left_name}_x_{rname}");
    }

    let find = |name: &str| source.iter().position(|s| s.name == name);
    let has_agg = q.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
    let has_star = q.items.iter().any(|i| matches!(i, SelectItem::Star));
    let plain: Vec<&String> = q
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Col(c) => Some(c),
            _ => None,
        })
        .collect();

    if !q.group_by.is_empty() && !has_agg {
        return Err(DbError::BadQuery(
            "GROUP BY requires an aggregate projection".into(),
        ));
    }
    if q.having.is_some() && q.group_by.is_empty() {
        return Err(DbError::BadQuery("HAVING requires GROUP BY".into()));
    }

    let mut aggregate = None;
    let mut projection = Vec::new();
    let mut result_cols: Vec<Column> = Vec::new();
    let mut result_name = base_name.clone();

    if has_agg {
        if has_star {
            return Err(DbError::BadQuery("cannot mix `*` with aggregates".into()));
        }
        if q.group_by.is_empty() && !plain.is_empty() {
            return Err(DbError::BadQuery(
                "keyed aggregate requires GROUP BY".into(),
            ));
        }
        for c in &plain {
            if !q.group_by.iter().any(|g| g == *c) {
                return Err(DbError::BadQuery(format!(
                    "projection column `{c}` must appear in GROUP BY"
                )));
            }
        }
        let whole_table = q.group_by.is_empty();
        let mut keys = Vec::with_capacity(q.group_by.len());
        for g in &q.group_by {
            let si = find(g).ok_or_else(|| DbError::NoSuchColumn(g.clone()))?;
            if keys.contains(&si) {
                return Err(DbError::BadQuery(format!("duplicate GROUP BY key `{g}`")));
            }
            keys.push(si);
        }
        let mut aggs: Vec<AggItem> = Vec::with_capacity(q.items.len());
        for item in &q.items {
            let SelectItem::Agg { agg, col } = item else {
                continue;
            };
            let (src, base) = if col == "*" {
                let n = if whole_table { "count_*" } else { "count" };
                // perf: once per projection item, owned by the plan
                (None, n.to_string())
            } else {
                let si = find(col).ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                let n = if whole_table {
                    // perf: once per projection item, owned by the plan
                    format!("{}_{col}", agg_label(*agg))
                } else {
                    // perf: once per projection item, owned by the plan
                    col.clone()
                };
                (Some(si), n)
            };
            // A second aggregate over the same column falls back to the
            // `<agg>_<col>` spelling; a collision past that is an error.
            // perf: cold rename path, at most once per projection item.
            let name = if aggs.iter().any(|a| a.name == base) {
                format!(
                    "{}_{}",
                    agg_label(*agg),
                    if col == "*" { "star" } else { col.as_str() }
                )
            } else {
                base
            };
            if aggs.iter().any(|a| a.name == name) {
                return Err(DbError::DuplicateColumn(name));
            }
            aggs.push(AggItem {
                agg: *agg,
                src,
                name,
            });
        }
        let key_names: Vec<String> = keys
            .iter()
            .map(|&si| {
                let k = &source[si].name;
                if aggs.iter().any(|a| a.name == *k) {
                    format!("{k}_key")
                } else {
                    k.clone()
                }
            })
            .collect();
        result_cols.reserve(key_names.len() + aggs.len());
        for kn in &key_names {
            // perf: once per result column — the schema owns its names.
            result_cols.push(Column::new(kn.clone(), ColumnType::Text));
        }
        for a in &aggs {
            // perf: once per result column — the schema owns its names.
            result_cols.push(Column::new(a.name.clone(), ColumnType::Float));
        }
        result_name = if whole_table {
            "result".to_string()
        } else {
            format!("{base_name}_by_{}", q.group_by[0])
        };
        aggregate = Some(AggregateNode {
            keys,
            key_names,
            aggs,
            whole_table,
        });
    } else {
        if has_star {
            projection = (0..source.len()).collect();
        } else {
            projection.reserve(plain.len());
            for c in &plain {
                let si = find(c).ok_or_else(|| DbError::NoSuchColumn((*c).clone()))?;
                projection.push(si);
            }
        }
        result_cols.reserve(projection.len());
        for &si in &projection {
            // perf: once per result column — the schema owns its names.
            result_cols.push(Column::new(source[si].name.clone(), source[si].ty));
        }
    }

    let result = Schema::new(result_cols)?;
    if let Some((oc, _)) = &q.order_by {
        if result.index_of(oc).is_none() {
            return Err(DbError::NoSuchColumn(oc.clone()));
        }
    }
    Ok(Resolved {
        source,
        aggregate,
        projection,
        result,
        result_name,
        join_keys,
    })
}

// ---------------------------------------------------------------------
// Predicate pushdown helpers
// ---------------------------------------------------------------------

/// Flattens nested ANDs into top-level conjuncts.
fn conjuncts(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts).collect(),
        _ => vec![p],
    }
}

/// Collects every column name a predicate mentions.
fn pred_cols<'p>(p: &'p Predicate, out: &mut Vec<&'p str>) {
    match p {
        Predicate::True => {}
        Predicate::Eq(c, _)
        | Predicate::Ne(c, _)
        | Predicate::Lt(c, _)
        | Predicate::Le(c, _)
        | Predicate::Gt(c, _)
        | Predicate::Ge(c, _)
        | Predicate::Between(c, _, _) => out.push(c),
        Predicate::And(ps) | Predicate::Or(ps) => {
            for q in ps {
                pred_cols(q, out);
            }
        }
        Predicate::Not(q) => pred_cols(q, out),
    }
}

/// Clones a predicate with every column name rewritten through `f`.
fn rename_pred(p: &Predicate, f: &impl Fn(&str) -> String) -> Predicate {
    match p {
        Predicate::True => Predicate::True,
        Predicate::Eq(c, v) => Predicate::Eq(f(c), v.clone()),
        Predicate::Ne(c, v) => Predicate::Ne(f(c), v.clone()),
        Predicate::Lt(c, v) => Predicate::Lt(f(c), v.clone()),
        Predicate::Le(c, v) => Predicate::Le(f(c), v.clone()),
        Predicate::Gt(c, v) => Predicate::Gt(f(c), v.clone()),
        Predicate::Ge(c, v) => Predicate::Ge(f(c), v.clone()),
        Predicate::Between(c, lo, hi) => Predicate::Between(f(c), lo.clone(), hi.clone()),
        Predicate::And(ps) => Predicate::And(ps.iter().map(|q| rename_pred(q, f)).collect()),
        Predicate::Or(ps) => Predicate::Or(ps.iter().map(|q| rename_pred(q, f)).collect()),
        Predicate::Not(q) => Predicate::Not(Box::new(rename_pred(q, f))),
    }
}

fn pack(mut v: Vec<Predicate>) -> Predicate {
    match v.len() {
        0 => Predicate::True,
        1 => v.remove(0),
        _ => Predicate::And(v),
    }
}

// ---------------------------------------------------------------------
// The physical plan
// ---------------------------------------------------------------------

/// A planned query: resolved structure, split predicates, the chosen
/// join build side, pushdown/elision decisions, and the scan estimates
/// that justified them (surfaced by `EXPLAIN`).
pub(crate) struct Plan<'a> {
    pub left: &'a Table,
    pub right: Option<&'a Table>,
    pub res: Resolved,
    /// Conjuncts fused into the left scan.
    pub left_pred: Predicate,
    /// Conjuncts fused into the right scan (right-table column names).
    pub right_pred: Predicate,
    /// Mixed-side conjuncts evaluated over join pairs.
    pub residual: Predicate,
    /// Hash the left input (statistics say it is smaller).
    pub build_left: bool,
    pub having: Option<Predicate>,
    pub order_by: Option<(String, bool)>,
    /// The sort is provably redundant and skipped.
    pub sort_elided: bool,
    pub limit: Option<usize>,
    /// Source columns the output or an aggregate reads (projection
    /// pushdown), ascending — what `EXPLAIN` lists per scan. The executor
    /// reads their cells in place through the row space and materializes
    /// only the result.
    pub needed: Vec<usize>,
    pub left_est: ScanEstimate,
    pub right_est: Option<ScanEstimate>,
}

/// Plans a parsed query against live tables. With `optimize = false`
/// every statistics-driven choice is pinned to the syntactic shape —
/// whole WHERE after the join, build side always right, no projection
/// pushdown, no sort elision — and the plan executes like any other.
///
/// # Errors
///
/// [`DbError::NoSuchTable`] for unknown tables, plus everything
/// [`resolve`] raises.
pub(crate) fn plan<'a>(
    db: &'a Database,
    q: &ParsedQuery,
    optimize: bool,
) -> Result<Plan<'a>, DbError> {
    let left = db.require(&q.table)?;
    let right = match &q.join {
        Some(j) => Some(db.require(&j.table)?),
        None => None,
    };
    let res = resolve(
        q,
        left.name(),
        left.schema(),
        right.map(|t| (t.name(), t.schema())),
    )?;

    // Predicate pushdown: classify each conjunct by the side(s) it
    // touches. Unknown columns stay on the left scan, where the compiled
    // engine's exploratory-filter semantics (always false) apply.
    let (mut lp, mut rp, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    if let (Some(right_t), true) = (right, optimize) {
        for c in conjuncts(&q.predicate) {
            let mut cols = Vec::new();
            pred_cols(c, &mut cols);
            let side_of = |name: &str| res.source.iter().find(|s| s.name == name).map(|s| s.side);
            let has_l = cols.iter().any(|n| side_of(n) == Some(Side::Left));
            let has_r = cols.iter().any(|n| side_of(n) == Some(Side::Right));
            if has_l && has_r {
                // perf: once per WHERE conjunct — each scan owns its
                // pushed-down predicate tree.
                residual.push(c.clone());
            } else if has_r {
                // Rewrite source-relation names back to the right table's
                // own column names so the conjunct compiles on that scan.
                let renamed = rename_pred(c, &|n: &str| {
                    res.source
                        .iter()
                        .find(|s| s.name == n && s.side == Side::Right)
                        // perf: once per WHERE conjunct, owned by the copy
                        .map(|s| right_t.schema().columns()[s.ci].name.clone())
                        .unwrap_or_else(|| n.to_string())
                });
                rp.push(renamed);
            } else {
                // perf: once per WHERE conjunct — each scan owns its
                // pushed-down predicate tree.
                lp.push(c.clone());
            }
        }
    } else if right.is_some() {
        // Planner off: the whole WHERE is the residual over join pairs.
        residual.push(q.predicate.clone());
    } else {
        lp.push(q.predicate.clone());
    }
    let (left_pred, right_pred, residual) = (pack(lp), pack(rp), pack(residual));

    let left_est = CompiledPredicate::compile(left, &left_pred).estimate();
    let mut build_left = false;
    let mut right_est = None;
    if let Some(rt) = right {
        let re = CompiledPredicate::compile(rt, &right_pred).estimate();
        build_left = optimize && left_est.rows < re.rows;
        right_est = Some(re);
    }

    // Projection pushdown: the columns the output or an aggregate reads.
    let needed: Vec<usize> = if !optimize {
        (0..res.source.len()).collect()
    } else if let Some(agg) = &res.aggregate {
        let mut v: Vec<usize> = agg.keys.clone();
        v.extend(agg.aggs.iter().filter_map(|a| a.src));
        v.sort_unstable();
        v.dedup();
        v
    } else {
        res.projection.clone()
    };

    // Sort elision: ORDER BY ASC is redundant when order is already
    // proven. Never elide DESC.
    let mut sort_elided = false;
    if let (true, Some((oc, true))) = (optimize, q.order_by.clone()) {
        if let Some(agg) = &res.aggregate {
            // Aggregate output is sorted by its key tuple; a stable sort
            // on the first key is the identity exactly when that key's
            // rendered (Text) order matches its original order.
            sort_elided = !agg.whole_table
                && agg.key_names.first() == Some(&oc)
                && agg
                    .keys
                    .first()
                    .is_some_and(|&si| res.source[si].ty == ColumnType::Text);
        } else if right.is_none() {
            // A base-table scan emits rows ascending; the sorted-on-append
            // flag proves the column is already in that order.
            if let Some(&si) = res.projection.iter().find(|&&si| res.source[si].name == oc) {
                sort_elided = left
                    .table_index()
                    .col(res.source[si].ci)
                    .is_some_and(|c| c.sorted());
            }
        }
    }

    Ok(Plan {
        left,
        right,
        res,
        left_pred,
        right_pred,
        residual,
        build_left,
        having: q.having.clone(),
        order_by: q.order_by.clone(),
        sort_elided,
        limit: q.limit,
        needed,
        left_est,
        right_est,
    })
}

// ---------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------

fn render_lit(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Text(s) => format!("'{s}'"),
        other => other.render(),
    }
}

/// Renders a predicate in SQL-ish form for EXPLAIN output.
pub(crate) fn render_pred(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".to_string(),
        Predicate::Eq(c, v) => format!("{c} = {}", render_lit(v)),
        Predicate::Ne(c, v) => format!("{c} != {}", render_lit(v)),
        Predicate::Lt(c, v) => format!("{c} < {}", render_lit(v)),
        Predicate::Le(c, v) => format!("{c} <= {}", render_lit(v)),
        Predicate::Gt(c, v) => format!("{c} > {}", render_lit(v)),
        Predicate::Ge(c, v) => format!("{c} >= {}", render_lit(v)),
        Predicate::Between(c, lo, hi) => {
            format!("{c} in [{}, {})", render_lit(lo), render_lit(hi))
        }
        Predicate::And(ps) => {
            let parts: Vec<String> = ps.iter().map(render_pred).collect();
            format!("({})", parts.join(" AND "))
        }
        Predicate::Or(ps) => {
            let parts: Vec<String> = ps.iter().map(render_pred).collect();
            format!("({})", parts.join(" OR "))
        }
        Predicate::Not(q) => format!("NOT {}", render_pred(q)),
    }
}

impl<'a> Plan<'a> {
    /// The source relation's columns as the executor reads them: one
    /// side-tagged slice per [`Resolved::source`] entry, so no later stage
    /// looks a table up again.
    ///
    /// # Errors
    ///
    /// [`DbError::BadQuery`] naming the column when the source relation
    /// lists a JOIN-side column and the plan holds no JOIN table —
    /// [`plan`] never builds one.
    pub(crate) fn source_cols(&self) -> Result<Vec<SideCol<'a>>, DbError> {
        let mut cols = Vec::with_capacity(self.res.source.len());
        for s in &self.res.source {
            let table = match (s.side, self.right) {
                (Side::Left, _) => self.left,
                (Side::Right, Some(right)) => right,
                (Side::Right, None) => {
                    return Err(DbError::BadQuery(format!(
                        "column `{}` belongs to a JOIN table the plan does not have",
                        s.name
                    )))
                }
            };
            cols.push((s.side, table.col(s.ci)));
        }
        Ok(cols)
    }

    /// One line per physical operator, in execution order.
    pub(crate) fn explain_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let scan_line = |t: &Table, pred: &Predicate, est: &ScanEstimate, side: Side| {
            let cols: Vec<&str> = self
                .needed
                .iter()
                .map(|&si| &self.res.source[si])
                .filter(|s| s.side == side)
                .map(|s| s.name.as_str())
                .collect();
            format!(
                "Scan {} rows={} pred={} est={} blocks[skip={} take={} eval={}] cols=[{}]",
                t.name(),
                t.row_count(),
                render_pred(pred),
                est.rows,
                est.skipped,
                est.taken,
                est.evaluated,
                cols.join(", ")
            )
        };
        lines.push(scan_line(
            self.left,
            &self.left_pred,
            &self.left_est,
            Side::Left,
        ));
        if let (Some(rt), Some(est), Some((lci, rci))) =
            (self.right, self.right_est.as_ref(), self.res.join_keys)
        {
            lines.push(scan_line(rt, &self.right_pred, est, Side::Right));
            lines.push(format!(
                "HashJoin {}.{} = {}.{} build={} (est {} vs {} rows)",
                self.left.name(),
                self.left.schema().columns()[lci].name,
                rt.name(),
                rt.schema().columns()[rci].name,
                if self.build_left { "left" } else { "right" },
                self.left_est.rows,
                est.rows,
            ));
            if self.residual != Predicate::True {
                lines.push(format!("Filter {}", render_pred(&self.residual)));
            }
        }
        if let Some(agg) = &self.res.aggregate {
            let keys: Vec<&str> = agg
                .keys
                .iter()
                .map(|&si| self.res.source[si].name.as_str())
                .collect();
            let aggs: Vec<String> = agg
                .aggs
                .iter()
                .map(|a| {
                    let src = a.src.map_or("*", |si| self.res.source[si].name.as_str());
                    format!("{}({src})", agg_label(a.agg))
                })
                .collect();
            lines.push(format!(
                "Aggregate keys=[{}] aggs=[{}]",
                keys.join(", "),
                aggs.join(", ")
            ));
        }
        if let Some(h) = &self.having {
            lines.push(format!("Having {}", render_pred(h)));
        }
        if let Some((oc, asc)) = &self.order_by {
            let mut line = format!("Sort {oc} {}", if *asc { "asc" } else { "desc" });
            if self.sort_elided {
                line.push_str(" (elided: input already sorted)");
            }
            lines.push(line);
        }
        if let Some(n) = self.limit {
            lines.push(format!("Limit {n}"));
        }
        lines
    }

    /// The `EXPLAIN` result: a one-column `plan` table, one operator per
    /// row.
    pub(crate) fn explain_table(&self) -> Table {
        let schema = Schema::fixed(&[("plan", ColumnType::Text)]);
        let col = self.explain_lines().into_iter().map(Value::Text).collect();
        Table::from_parts("explain".to_string(), schema, vec![col])
    }
}
