//! A small SQL subset over the warehouse — the interactive face of
//! mScopeDB's "unified interface … for advanced analysis" (paper §III-C).
//!
//! Supported grammar:
//!
//! ```text
//! [EXPLAIN] SELECT <projection> FROM <table>
//!        [JOIN <table> ON [<table>.]col = [<table>.]col]
//!        [WHERE <predicate>]
//!        [GROUP BY <column> [, <column> …]]
//!        [HAVING <predicate>]
//!        [ORDER BY <column> [ASC|DESC]]
//!        [LIMIT <n>]
//!
//! projection := * | item [, item …]
//! item       := col | AGG(col) | COUNT(*)
//! AGG        := COUNT | SUM | AVG | MIN | MAX
//! predicate  := disjunction of conjunctions with parentheses and NOT:
//!               a = 1 AND (b > 2.5 OR NOT c = 'text')
//! literal    := integer | float | 'single-quoted string'
//!             | time 'HH:MM:SS.ffffff' | TRUE | FALSE | NULL
//! comparison := = != <> < <= > >=
//! ```
//!
//! Parentheses and `NOT` nest at most 64 levels; a deeper predicate is a
//! [`DbError::BadQuery`], not a stack overflow.
//!
//! Identifiers and keywords are case-insensitive except quoted strings.
//! After a JOIN, columns are referred to by their *source-relation* names:
//! all of the left table's columns, then the right table's, with a
//! right-side name collision spelled `<right-table>_<col>`. `WHERE`,
//! `GROUP BY`, and the projection use those names; `HAVING` and
//! `ORDER BY` see the *result* schema (group keys render as text,
//! aggregates as floats).
//!
//! Parsing produces a `ParsedQuery` which the stats-driven planner
//! (module `plan`) lowers to a physical plan and the vectorized executor
//! (module `vector`) runs; `EXPLAIN` returns the plan itself as a
//! one-column table. The same resolution pass backs
//! [`check_with`], so the static checker and the executor agree by
//! construction.

use crate::db::Database;
use crate::plan::{JoinClause, ParsedQuery, SelectItem};
use crate::query::{AggFn, Predicate};
use crate::table::{Schema, Table};
use crate::value::{ColumnType, Value};
use crate::DbError;

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    Comma,
    Star,
    Dot,
    LParen,
    RParen,
    Op(String),
}

fn lex(input: &str) -> Result<Vec<Tok>, DbError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '*' => {
                chars.next();
                toks.push(Tok::Star);
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            // Doubled quote escapes a literal quote.
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => {
                            return Err(DbError::BadQuery("unterminated string literal".into()))
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            '=' => {
                chars.next();
                toks.push(Tok::Op("=".into()));
            }
            '!' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(DbError::BadQuery("expected `!=`".into()));
                }
                toks.push(Tok::Op("!=".into()));
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        toks.push(Tok::Op("<=".into()));
                    }
                    Some('>') => {
                        chars.next();
                        toks.push(Tok::Op("!=".into()));
                    }
                    _ => toks.push(Tok::Op("<".into())),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push(Tok::Op(">=".into()));
                } else {
                    toks.push(Tok::Op(">".into()));
                }
            }
            // A `.` straight after an identifier is a table qualifier
            // (`t.col`), not the start of a number.
            '.' if matches!(toks.last(), Some(Tok::Ident(_))) => {
                chars.next();
                toks.push(Tok::Dot);
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || d == '-'
                        || d == '+'
                    {
                        // Allow exponent forms; the parser re-validates.
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Num(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(s));
            }
            other => {
                return Err(DbError::BadQuery(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest parenthesis / `NOT` nesting a predicate may have. The parser
/// and every consumer of its tree (`check_with`, the planner's conjunct
/// split, `Node::compile` behind every scan, residual and HAVING, the
/// tree's own `Drop`) recurse once per level, so unbounded nesting in a
/// query string is a stack overflow — an abort no caller can catch.
/// Hand-written and generated queries nest a handful of levels.
const MAX_PREDICATE_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Open parentheses and `NOT`s around the predicate being parsed.
    depth: usize,
}

/// Lexes and parses one query.
fn parse(sql: &str) -> Result<ParsedQuery, DbError> {
    let toks = lex(sql)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
    }
    .parse()
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(DbError::BadQuery(format!("expected `{kw}`, got {other:?}"))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(DbError::BadQuery(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn parse(&mut self) -> Result<ParsedQuery, DbError> {
        let explain = if self.peek_kw("explain") {
            self.next();
            true
        } else {
            false
        };
        self.expect_kw("select")?;
        let items = self.items()?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let join = if self.peek_kw("join") {
            self.next();
            let jtable = self.ident()?;
            self.expect_kw("on")?;
            let (left_qual, left_col) = self.qualified()?;
            match self.next() {
                Some(Tok::Op(op)) if op == "=" => {}
                other => {
                    return Err(DbError::BadQuery(format!(
                        "expected `=` in ON clause, got {other:?}"
                    )))
                }
            }
            let (right_qual, right_col) = self.qualified()?;
            Some(JoinClause {
                table: jtable,
                left_qual,
                left_col,
                right_qual,
                right_col,
            })
        } else {
            None
        };
        let predicate = if self.peek_kw("where") {
            self.next();
            self.or_expr()?
        } else {
            Predicate::True
        };
        let group_by = if self.peek_kw("group") {
            self.next();
            self.expect_kw("by")?;
            let mut keys = vec![self.ident()?];
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.next();
                keys.push(self.ident()?);
            }
            keys
        } else {
            Vec::new()
        };
        let having = if self.peek_kw("having") {
            self.next();
            Some(self.or_expr()?)
        } else {
            None
        };
        let order_by = if self.peek_kw("order") {
            self.next();
            self.expect_kw("by")?;
            let col = self.ident()?;
            let asc = if self.peek_kw("desc") {
                self.next();
                false
            } else {
                if self.peek_kw("asc") {
                    self.next();
                }
                true
            };
            Some((col, asc))
        } else {
            None
        };
        let limit = if self.peek_kw("limit") {
            self.next();
            match self.next() {
                Some(Tok::Num(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| DbError::BadQuery(format!("bad LIMIT `{n}`")))?,
                ),
                other => {
                    return Err(DbError::BadQuery(format!(
                        "expected LIMIT count, got {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        if self.peek().is_some() {
            return Err(DbError::BadQuery(format!(
                "trailing tokens starting at {:?}",
                self.peek()
            )));
        }
        Ok(ParsedQuery {
            explain,
            items,
            table,
            join,
            predicate,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// `[table.]col` — an ON-clause key with an optional qualifier.
    fn qualified(&mut self) -> Result<(Option<String>, String), DbError> {
        let first = self.ident()?;
        if matches!(self.peek(), Some(Tok::Dot)) {
            self.next();
            Ok((Some(first), self.ident()?))
        } else {
            Ok((None, first))
        }
    }

    fn agg_kw(name: &str) -> Option<AggFn> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFn::Count),
            "sum" => Some(AggFn::Sum),
            "avg" => Some(AggFn::Mean),
            "min" => Some(AggFn::Min),
            "max" => Some(AggFn::Max),
            _ => None,
        }
    }

    /// The projection list: `*`, or a comma-separated mix of bare columns
    /// and `AGG(col)` / `COUNT(*)` items in any order.
    fn items(&mut self) -> Result<Vec<SelectItem>, DbError> {
        if matches!(self.peek(), Some(Tok::Star)) {
            self.next();
            return Ok(vec![SelectItem::Star]);
        }
        let mut items: Vec<SelectItem> = Vec::new();
        loop {
            let name = self.ident()?;
            if matches!(self.peek(), Some(Tok::LParen)) {
                let agg = Self::agg_kw(&name)
                    .ok_or_else(|| DbError::BadQuery(format!("unknown aggregate `{name}`")))?;
                self.next(); // (
                let col = match self.next() {
                    Some(Tok::Ident(c)) => c,
                    // perf: parse-time — one owned name per aggregate in
                    // the query text, never per row.
                    Some(Tok::Star) if agg == AggFn::Count => "*".to_string(),
                    other => {
                        return Err(DbError::BadQuery(format!(
                            "expected aggregate column, got {other:?}"
                        )))
                    }
                };
                match self.next() {
                    Some(Tok::RParen) => {}
                    other => return Err(DbError::BadQuery(format!("expected `)`, got {other:?}"))),
                }
                items.push(SelectItem::Agg { agg, col });
            } else {
                items.push(SelectItem::Col(name));
            }
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.next();
            } else {
                break;
            }
        }
        Ok(items)
    }

    // predicate := and_expr (OR and_expr)*
    fn or_expr(&mut self) -> Result<Predicate, DbError> {
        let first = self.and_expr()?;
        if !self.peek_kw("or") {
            return Ok(first);
        }
        let mut terms = vec![first];
        while self.peek_kw("or") {
            self.next();
            terms.push(self.and_expr()?);
        }
        Ok(Predicate::Or(terms))
    }

    fn and_expr(&mut self) -> Result<Predicate, DbError> {
        let first = self.unary_expr()?;
        if !self.peek_kw("and") {
            return Ok(first);
        }
        let mut terms = vec![first];
        while self.peek_kw("and") {
            self.next();
            terms.push(self.unary_expr()?);
        }
        Ok(Predicate::And(terms))
    }

    fn unary_expr(&mut self) -> Result<Predicate, DbError> {
        let not = self.peek_kw("not");
        if !not && !matches!(self.peek(), Some(Tok::LParen)) {
            return self.comparison();
        }
        self.next();
        if self.depth == MAX_PREDICATE_DEPTH {
            return Err(DbError::BadQuery(format!(
                "predicate nests deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let inner = if not {
            self.unary_expr().map(|p| Predicate::Not(Box::new(p)))
        } else {
            self.or_expr().and_then(|p| match self.next() {
                Some(Tok::RParen) => Ok(p),
                other => Err(DbError::BadQuery(format!("expected `)`, got {other:?}"))),
            })
        };
        self.depth -= 1;
        inner
    }

    fn comparison(&mut self) -> Result<Predicate, DbError> {
        let col = self.ident()?;
        let op = match self.next() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(DbError::BadQuery(format!(
                    "expected comparison, got {other:?}"
                )))
            }
        };
        let value = self.literal()?;
        Ok(match op.as_str() {
            "=" => Predicate::Eq(col, value),
            "!=" => Predicate::Ne(col, value),
            "<" => Predicate::Lt(col, value),
            "<=" => Predicate::Le(col, value),
            ">" => Predicate::Gt(col, value),
            ">=" => Predicate::Ge(col, value),
            other => return Err(DbError::BadQuery(format!("unknown operator `{other}`"))),
        })
    }

    fn literal(&mut self) -> Result<Value, DbError> {
        match self.next() {
            Some(Tok::Num(n)) => {
                if let Ok(i) = n.parse::<i64>() {
                    Ok(Value::Int(i))
                } else {
                    n.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| DbError::BadQuery(format!("bad number `{n}`")))
                }
            }
            Some(Tok::Str(s)) => Ok(Value::Text(s)),
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("null") => Ok(Value::Null),
            // `time 'HH:MM:SS.ffffff'` literal.
            Some(Tok::Ident(kw)) if kw.eq_ignore_ascii_case("time") => match self.next() {
                Some(Tok::Str(s)) => mscope_sim::parse_wallclock(&s)
                    .map(|t| Value::Timestamp(t.as_micros() as i64))
                    .ok_or_else(|| DbError::BadQuery(format!("bad time literal `{s}`"))),
                other => Err(DbError::BadQuery(format!(
                    "expected quoted time literal, got {other:?}"
                ))),
            },
            other => Err(DbError::BadQuery(format!(
                "expected literal, got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Options for [`Database::query_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Scan/gather worker count (`0` = auto: serial below
    /// [`PARALLEL_MIN_ROWS`](crate::PARALLEL_MIN_ROWS) rows). Results are
    /// byte-identical at every worker count.
    pub workers: usize,
    /// Let the planner make its statistics-driven choices (predicate and
    /// projection pushdown, join build side, sort elision). `false` pins
    /// each choice to the shape the query was written in — whole WHERE
    /// after the join, hash index on the right input, no elision — and
    /// runs that plan on the same executor; `EXPLAIN` shows it. Results
    /// are byte-identical either way; only the work differs.
    pub optimize: bool,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            workers: 0,
            optimize: true,
        }
    }
}

impl Database {
    /// Parses and executes a SQL-subset query, returning the result as a
    /// fresh [`Table`].
    ///
    /// The query is lowered through the stats-driven planner
    /// (module `plan`) and run on the vectorized columnar executor
    /// (module `vector`). Prefixing the query with `EXPLAIN` returns
    /// the chosen physical plan as a one-column `plan` table instead of
    /// executing it.
    ///
    /// # Errors
    ///
    /// [`DbError::BadQuery`] on syntax errors; [`DbError::NoSuchTable`] /
    /// [`DbError::NoSuchColumn`] on semantic errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_db::{Column, ColumnType, Database, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_table("disk", Schema::new(vec![
    ///     Column::new("node", ColumnType::Text),
    ///     Column::new("util", ColumnType::Float),
    /// ])?)?;
    /// db.insert("disk", vec!["mysql0".into(), Value::Float(99.0)])?;
    /// db.insert("disk", vec!["apache0".into(), Value::Float(2.0)])?;
    ///
    /// let hot = db.query("SELECT node FROM disk WHERE util > 90 ORDER BY node")?;
    /// assert_eq!(hot.row_count(), 1);
    /// assert_eq!(hot.cell(0, "node"), Some(&Value::Text("mysql0".into())));
    /// # Ok::<(), mscope_db::DbError>(())
    /// ```
    pub fn query(&self, sql: &str) -> Result<Table, DbError> {
        self.query_opts(sql, QueryOptions::default())
    }

    /// [`Database::query`] with explicit [`QueryOptions`] — worker count
    /// and planner on/off. Results are byte-identical across every
    /// combination; the options change only how the work is done.
    ///
    /// # Errors
    ///
    /// See [`Database::query`].
    pub fn query_opts(&self, sql: &str, opts: QueryOptions) -> Result<Table, DbError> {
        let q = parse(sql)?;
        let plan = crate::plan::plan(self, &q, opts.optimize)?;
        if q.explain {
            return Ok(plan.explain_table());
        }
        crate::vector::run(&plan, opts.workers)
    }
}

// ---------------------------------------------------------------------
// Static checking — the SQL front of `mscope-lint`.
// ---------------------------------------------------------------------

/// Statically checks a query against a schema oracle, without executing
/// anything: syntax, table existence, every referenced column, predicate
/// literal types, aggregate input types, and the `ORDER BY` column's
/// presence in the projection's *result* schema.
///
/// `schema_of` returns the (possibly merely predicted) schema for a table
/// name, or `None` if the table is unknown. A column typed
/// [`ColumnType::Null`] means "type unknown until runtime" and passes every
/// type-sensitive check — only membership is enforced for it.
///
/// The type rule mirrors [`Value::total_cmp`]: values of incomparable
/// types fall back to rank ordering, so a comparison whose column/literal
/// lattice join degenerates to [`ColumnType::Text`] (without both sides
/// *being* text) can never mean what the query author intended and is
/// rejected as [`DbError::TypeMismatch`].
///
/// # Errors
///
/// The same error a real execution would produce — [`DbError::BadQuery`],
/// [`DbError::NoSuchTable`], [`DbError::NoSuchColumn`] — plus
/// [`DbError::TypeMismatch`] for statically impossible comparisons and
/// non-numeric aggregations.
pub fn check_with<F>(sql: &str, schema_of: F) -> Result<(), DbError>
where
    F: Fn(&str) -> Option<Schema>,
{
    let q = parse(sql)?;
    let left = schema_of(&q.table).ok_or_else(|| DbError::NoSuchTable(q.table.clone()))?;
    let right = match &q.join {
        Some(j) => {
            let s = schema_of(&j.table).ok_or_else(|| DbError::NoSuchTable(j.table.clone()))?;
            Some((j.table.clone(), s))
        }
        None => None,
    };
    // `resolve` performs the same structural validation the executor does:
    // projection/key/ORDER BY membership, JOIN key and qualifier checks,
    // GROUP BY / HAVING shape, result-name collisions.
    let res = crate::plan::resolve(
        &q,
        &q.table,
        &left,
        right.as_ref().map(|(n, s)| (n.as_str(), s)),
    )?;

    // WHERE sees the source relation's output names (joined columns under
    // their collision-prefixed names).
    let src_ty = |name: &str| res.source.iter().find(|s| s.name == name).map(|s| s.ty);
    check_predicate(&q.predicate, &q.table, &src_ty)?;

    // Aggregate inputs must be numerically foldable (COUNT takes anything).
    if let Some(aggnode) = &res.aggregate {
        for a in &aggnode.aggs {
            if let Some(si) = a.src {
                let sc = &res.source[si];
                check_agg_input(&q.table, a.agg, &sc.name, sc.ty)?;
            }
        }
    }

    // HAVING sees the *result* schema: keys rendered as Text, aggregate
    // outputs as Float.
    if let Some(h) = &q.having {
        let result_ty = |name: &str| {
            res.result
                .index_of(name)
                .map(|i| res.result.columns()[i].ty)
        };
        check_predicate(h, &res.result_name, &result_ty)?;
    }
    Ok(())
}

/// [`check_with`] against the live schemas of a [`Database`].
///
/// # Errors
///
/// See [`check_with`].
pub fn check_against(db: &Database, sql: &str) -> Result<(), DbError> {
    check_with(sql, |t| db.table(t).map(|tab| tab.schema().clone()))
}

fn check_agg_input(table: &str, agg: AggFn, col: &str, ty: ColumnType) -> Result<(), DbError> {
    // COUNT accepts any type; the numeric folds silently skip values
    // `as_f64` rejects, so a text column would aggregate to nothing.
    if agg != AggFn::Count && ty == ColumnType::Text {
        return Err(DbError::TypeMismatch {
            table: table.to_string(),
            column: col.to_string(),
            expected: ColumnType::Float,
            got: ty,
        });
    }
    Ok(())
}

fn check_predicate<F>(p: &Predicate, table: &str, col_ty: &F) -> Result<(), DbError>
where
    F: Fn(&str) -> Option<ColumnType>,
{
    let cmp = |col: &str, v: &Value| -> Result<(), DbError> {
        let ct = col_ty(col).ok_or_else(|| DbError::NoSuchColumn(col.to_string()))?;
        let vt = v.column_type();
        if ct == ColumnType::Null || vt == ColumnType::Null {
            return Ok(()); // unknown column type / NULL literal: defer
        }
        if ct.unify(vt) == ColumnType::Text && !(ct == ColumnType::Text && vt == ColumnType::Text) {
            return Err(DbError::TypeMismatch {
                table: table.to_string(),
                column: col.to_string(),
                expected: ct,
                got: vt,
            });
        }
        Ok(())
    };
    match p {
        Predicate::True => Ok(()),
        Predicate::Eq(c, v)
        | Predicate::Ne(c, v)
        | Predicate::Lt(c, v)
        | Predicate::Le(c, v)
        | Predicate::Gt(c, v)
        | Predicate::Ge(c, v) => cmp(c, v),
        Predicate::Between(c, lo, hi) => {
            cmp(c, lo)?;
            cmp(c, hi)
        }
        Predicate::And(ps) | Predicate::Or(ps) => ps
            .iter()
            .try_for_each(|p| check_predicate(p, table, col_ty)),
        Predicate::Not(inner) => check_predicate(inner, table, col_ty),
    }
}

impl Table {
    /// Keeps only the given row indices (public sibling of the internal
    /// gather, used by LIMIT).
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        self.gather(self.name(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;

    fn db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("node", ColumnType::Text),
            Column::new("tier", ColumnType::Int),
            Column::new("util", ColumnType::Float),
            Column::new("time", ColumnType::Timestamp),
        ])
        .unwrap();
        db.create_table("disk", schema).unwrap();
        for (node, tier, util, us) in [
            ("apache0", 0, 2.0, 50_000),
            ("tomcat0", 1, 3.5, 50_000),
            ("mysql0", 3, 99.0, 50_000),
            ("mysql0", 3, 97.0, 100_000),
            ("mysql0", 3, 1.0, 150_000),
        ] {
            db.insert(
                "disk",
                vec![
                    Value::Text(node.into()),
                    Value::Int(tier),
                    Value::Float(util),
                    Value::Timestamp(us),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn select_star_and_where() {
        let db = db();
        let all = db.query("SELECT * FROM disk").unwrap();
        assert_eq!(all.row_count(), 5);
        assert_eq!(all.schema().len(), 4);
        let hot = db.query("SELECT * FROM disk WHERE util > 90").unwrap();
        assert_eq!(hot.row_count(), 2);
    }

    #[test]
    fn projection_and_order_limit() {
        let db = db();
        let t = db
            .query("SELECT node, util FROM disk ORDER BY util DESC LIMIT 2")
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.schema().len(), 2);
        assert_eq!(t.cell(0, "util"), Some(&Value::Float(99.0)));
        assert_eq!(t.cell(1, "util"), Some(&Value::Float(97.0)));
    }

    #[test]
    fn boolean_logic_and_parens() {
        let db = db();
        let t = db
            .query("SELECT node FROM disk WHERE tier = 3 AND (util > 98 OR util < 2)")
            .unwrap();
        assert_eq!(t.row_count(), 2);
        let n = db
            .query("SELECT node FROM disk WHERE NOT node = 'mysql0'")
            .unwrap();
        assert_eq!(n.row_count(), 2);
    }

    #[test]
    fn string_and_time_literals() {
        let db = db();
        let t = db
            .query("SELECT util FROM disk WHERE node = 'mysql0' AND time >= time '00:00:00.100000'")
            .unwrap();
        assert_eq!(t.row_count(), 2);
        // Escaped quote inside a string.
        let esc = db
            .query("SELECT * FROM disk WHERE node = 'o''brien'")
            .unwrap();
        assert_eq!(esc.row_count(), 0);
    }

    #[test]
    fn group_by_aggregates() {
        let db = db();
        let t = db
            .query("SELECT node, MAX(util) FROM disk GROUP BY node ORDER BY node")
            .unwrap();
        assert_eq!(t.row_count(), 3);
        // Keys sort ascending: apache0, mysql0, tomcat0.
        assert_eq!(t.cell(1, "util"), Some(&Value::Float(99.0)), "mysql0 max");
        let c = db
            .query("SELECT node, COUNT(*) FROM disk GROUP BY node ORDER BY node DESC")
            .unwrap();
        assert_eq!(c.cell(0, "node"), Some(&Value::Text("tomcat0".into())));
        assert_eq!(c.cell(1, "node"), Some(&Value::Text("mysql0".into())));
        assert_eq!(c.cell(1, "count").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn whole_table_aggregates() {
        let db = db();
        let t = db
            .query("SELECT AVG(util) FROM disk WHERE tier = 3")
            .unwrap();
        assert_eq!(t.row_count(), 1);
        let avg = t.cell(0, "avg_util").and_then(Value::as_f64).unwrap();
        assert!((avg - 65.666).abs() < 0.01);
        let c = db.query("SELECT COUNT(*) FROM disk").unwrap();
        assert_eq!(c.cell(0, "count_*").and_then(Value::as_f64), Some(5.0));
        // Aggregate over empty selection.
        let none = db
            .query("SELECT MAX(util) FROM disk WHERE tier = 99")
            .unwrap();
        assert_eq!(none.cell(0, "max_util"), Some(&Value::Null));
    }

    #[test]
    fn case_insensitivity_and_operators() {
        let db = db();
        // Keywords are case-insensitive; identifiers are case-sensitive, so
        // `NODE` is an unknown column.
        let err = db
            .query("select NODE from disk where util >= 97")
            .unwrap_err();
        assert!(
            matches!(err, DbError::NoSuchColumn(ref c) if c == "NODE"),
            "{err}"
        );
        let t = db.query("select node from disk where util <> 99").unwrap();
        assert_eq!(t.row_count(), 4);
        let le = db.query("SELECT node FROM disk WHERE util <= 2").unwrap();
        assert_eq!(le.row_count(), 2);
    }

    #[test]
    fn syntax_errors_are_bad_query() {
        let db = db();
        for bad in [
            "SELEC * FROM disk",
            "SELECT * FROM",
            "SELECT * FROM disk WHERE",
            "SELECT * FROM disk WHERE util >",
            "SELECT * FROM disk LIMIT x",
            "SELECT * FROM disk trailing garbage",
            "SELECT FOO(util) FROM disk",
            "SELECT node, MAX(util) FROM disk", // keyed agg without GROUP BY
            "SELECT node FROM disk GROUP BY node", // GROUP BY without agg
            "SELECT * FROM disk WHERE node = 'unterminated",
            // Past the widest timestamp: rejected, not overflowed.
            "SELECT * FROM disk WHERE time > time '6000000000:00:00'",
        ] {
            assert!(
                matches!(db.query(bad), Err(DbError::BadQuery(_))),
                "{bad} should be a syntax error, got {:?}",
                db.query(bad)
            );
        }
        assert!(matches!(
            db.query("SELECT * FROM ghost"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.query("SELECT ghost FROM disk"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn nesting_past_the_cap_is_bad_query() {
        let db = db();
        let nest = |open: &str, close: &str, n: usize| {
            format!(
                "SELECT node FROM disk WHERE {}util > 90{} AND (tier = 3)",
                open.repeat(n),
                close.repeat(n)
            )
        };
        let off = QueryOptions {
            workers: 0,
            optimize: false,
        };
        for (open, close) in [("(", ")"), ("NOT ", "")] {
            // At the cap the predicate still parses (an even NOT chain is
            // the identity), and the counter is back at zero for the
            // parenthesis that follows.
            let at = nest(open, close, MAX_PREDICATE_DEPTH);
            assert_eq!(db.query(&at).unwrap().row_count(), 2, "{open}");
            check_against(&db, &at).unwrap();
            // 20 000 levels overflowed the stack before the cap existed.
            for n in [MAX_PREDICATE_DEPTH + 1, 20_000] {
                let sql = nest(open, close, n);
                for got in [
                    db.query(&sql).map(drop),
                    db.query_opts(&sql, off).map(drop),
                    check_against(&db, &sql),
                ] {
                    assert!(
                        matches!(&got, Err(DbError::BadQuery(m)) if m.contains("nests deeper")),
                        "{open}×{n}: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn static_check_accepts_valid_queries() {
        let db = db();
        for sql in [
            "SELECT * FROM disk",
            "SELECT node, util FROM disk WHERE util > 90 ORDER BY util DESC LIMIT 3",
            "SELECT node, MAX(util) FROM disk GROUP BY node ORDER BY node",
            "SELECT node, COUNT(*) FROM disk GROUP BY node ORDER BY count",
            "SELECT AVG(util) FROM disk WHERE tier = 3",
            "SELECT util FROM disk WHERE time >= time '00:00:00.100000'",
        ] {
            check_against(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn static_check_rejects_missing_tables_and_columns() {
        let db = db();
        assert!(matches!(
            check_against(&db, "SELECT * FROM ghost"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            check_against(&db, "SELECT ghost FROM disk"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            check_against(&db, "SELECT node FROM disk WHERE ghost = 1"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            check_against(&db, "SELECT node, MAX(ghost) FROM disk GROUP BY node"),
            Err(DbError::NoSuchColumn(_))
        ));
        // ORDER BY must name a column of the *result*, not the base table.
        assert!(matches!(
            check_against(&db, "SELECT node FROM disk ORDER BY util"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            check_against(
                &db,
                "SELECT node, MAX(util) FROM disk GROUP BY node ORDER BY time"
            ),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn static_check_rejects_impossible_comparisons() {
        let db = db();
        // Timestamp column vs bare integer: total_cmp falls back to rank
        // ordering, so this would silently match everything.
        assert!(matches!(
            check_against(&db, "SELECT * FROM disk WHERE time >= 100000"),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            check_against(&db, "SELECT * FROM disk WHERE node = 3"),
            Err(DbError::TypeMismatch { .. })
        ));
        // Numeric aggregate over a text column aggregates nothing.
        assert!(matches!(
            check_against(&db, "SELECT tier, SUM(node) FROM disk GROUP BY tier"),
            Err(DbError::TypeMismatch { .. })
        ));
        // …but COUNT over text is fine, and NULL literals defer to runtime.
        check_against(&db, "SELECT tier, COUNT(node) FROM disk GROUP BY tier").unwrap();
        check_against(&db, "SELECT * FROM disk WHERE node != NULL").unwrap();
    }

    #[test]
    fn static_check_with_unknown_typed_schema() {
        // A predicted schema (from declarations) types unseen captures as
        // Null = unknown; type-sensitive checks must then defer.
        let schema = Schema::new(vec![
            Column::new("node", ColumnType::Text),
            Column::new("disk_util", ColumnType::Null),
        ])
        .unwrap();
        let oracle = |t: &str| (t == "collectl").then(|| schema.clone());
        check_with(
            "SELECT node, MAX(disk_util) FROM collectl GROUP BY node",
            oracle,
        )
        .unwrap();
        check_with("SELECT * FROM collectl WHERE disk_util > 90", oracle).unwrap();
        assert!(matches!(
            check_with("SELECT ghost FROM collectl", oracle),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn select_rows_limit_helper() {
        let db = db();
        let t = db.query("SELECT * FROM disk LIMIT 0").unwrap();
        assert_eq!(t.row_count(), 0);
        let t = db.query("SELECT * FROM disk LIMIT 100").unwrap();
        assert_eq!(t.row_count(), 5);
    }

    /// The disk fixture plus an `owner` dimension table keyed by node.
    fn db_with_owner() -> Database {
        let mut db = db();
        let schema = Schema::new(vec![
            Column::new("node", ColumnType::Text),
            Column::new("team", ColumnType::Text),
        ])
        .unwrap();
        db.create_table("owner", schema).unwrap();
        for (node, team) in [("apache0", "web"), ("mysql0", "data"), ("ghost0", "ops")] {
            db.insert(
                "owner",
                vec![Value::Text(node.into()), Value::Text(team.into())],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn join_on_plain_and_qualified() {
        let db = db_with_owner();
        // Unqualified ON: the first column resolves on the left table, the
        // second on the right. `owner.node` collides with `disk.node` and
        // surfaces prefixed.
        let t = db
            .query("SELECT * FROM disk JOIN owner ON node = node")
            .unwrap();
        assert_eq!(t.name(), "disk_x_owner");
        let names: Vec<&str> = t
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["node", "tier", "util", "time", "owner_node", "team"]
        );
        // apache0 matches once, mysql0's three readings each match once.
        assert_eq!(t.row_count(), 4);
        // Qualified ON names the same join and may swap sides.
        for sql in [
            "SELECT * FROM disk JOIN owner ON disk.node = owner.node",
            "SELECT * FROM disk JOIN owner ON owner.node = disk.node",
        ] {
            assert_eq!(&db.query(sql).unwrap(), &t, "{sql}");
        }
        // Projections reach across both sides, and join rows follow
        // left-table order.
        let teams = db
            .query("SELECT node, team FROM disk JOIN owner ON node = node WHERE util > 90")
            .unwrap();
        assert_eq!(teams.row_count(), 2);
        assert_eq!(teams.cell(0, "team"), Some(&Value::Text("data".into())));
    }

    #[test]
    fn multi_key_group_by_and_multiple_aggregates() {
        let db = db();
        let t = db
            .query(
                "SELECT node, tier, COUNT(*), AVG(util), MAX(util) FROM disk \
                 GROUP BY node, tier ORDER BY node",
            )
            .unwrap();
        let names: Vec<&str> = t
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        // First agg on `util` keeps the bare name; the second falls back
        // to its labeled form.
        assert_eq!(names, ["node", "tier", "count", "util", "max_util"]);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.cell(1, "node"), Some(&Value::Text("mysql0".into())));
        assert_eq!(t.cell(1, "tier"), Some(&Value::Text("3".into())));
        assert_eq!(t.cell(1, "count").and_then(Value::as_f64), Some(3.0));
        let avg = t.cell(1, "util").and_then(Value::as_f64).unwrap();
        assert!((avg - 65.666).abs() < 0.01);
        assert_eq!(t.cell(1, "max_util"), Some(&Value::Float(99.0)));
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        let t = db
            .query("SELECT node, MAX(util) FROM disk GROUP BY node HAVING util > 90")
            .unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.cell(0, "node"), Some(&Value::Text("mysql0".into())));
        // HAVING sees result columns (keys included), not source columns.
        let k = db
            .query("SELECT node, COUNT(*) FROM disk GROUP BY node HAVING node = 'apache0'")
            .unwrap();
        assert_eq!(k.row_count(), 1);
        assert!(matches!(
            check_against(
                &db,
                "SELECT node, COUNT(*) FROM disk GROUP BY node HAVING util > 90"
            ),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn explain_prints_the_physical_plan() {
        let db = db();
        let plan = db
            .query("EXPLAIN SELECT node, util FROM disk WHERE util > 90 ORDER BY util DESC LIMIT 2")
            .unwrap();
        assert_eq!(plan.name(), "explain");
        let lines: Vec<String> = plan
            .column("plan")
            .unwrap()
            .iter()
            .map(Value::render)
            .collect();
        assert_eq!(
            lines,
            [
                "Scan disk rows=5 pred=util > 90 est=3 blocks[skip=0 take=0 eval=1] \
                 cols=[node, util]",
                "Sort util desc",
                "Limit 2",
            ]
        );
        // The join plan names its build side, chosen from row estimates;
        // with both scans unfiltered it probes that side's kept index.
        let db = db_with_owner();
        let join = db
            .query("EXPLAIN SELECT team FROM disk JOIN owner ON node = node")
            .unwrap();
        let text = join
            .column("plan")
            .unwrap()
            .iter()
            .map(Value::render)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            text.contains("HashJoin disk.node = owner.node build=right kept"),
            "{text}"
        );
    }

    #[test]
    fn optimizer_off_and_worker_legs_are_identical() {
        let db = db_with_owner();
        for sql in [
            "SELECT * FROM disk WHERE util > 2 ORDER BY util LIMIT 3",
            "SELECT node, team FROM disk JOIN owner ON node = node WHERE tier = 3",
            "SELECT node, tier, AVG(util) FROM disk GROUP BY node, tier HAVING util > 1",
        ] {
            let reference = db.query(sql).unwrap();
            for optimize in [true, false] {
                for workers in [0, 1, 2, 8] {
                    let got = db
                        .query_opts(sql, QueryOptions { workers, optimize })
                        .unwrap();
                    assert_eq!(
                        mscope_serdes::to_string(&got),
                        mscope_serdes::to_string(&reference),
                        "{sql} (optimize={optimize}, workers={workers})"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_elision_matches_the_materialized_sort() {
        let db = db();
        // `time` is stored ascending, so the planner elides the sort; the
        // planner-off leg sorts for real. Both must agree exactly.
        let sql = "SELECT time, util FROM disk ORDER BY time LIMIT 4";
        let on = db.query(sql).unwrap();
        let off = db
            .query_opts(
                sql,
                QueryOptions {
                    workers: 0,
                    optimize: false,
                },
            )
            .unwrap();
        assert_eq!(on, off);
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
        let text = mscope_serdes::to_string(&plan);
        assert!(text.contains("elided: input already sorted"), "{text}");
        // Descending order over the same column is NOT elided.
        let desc = db
            .query("EXPLAIN SELECT time FROM disk ORDER BY time DESC")
            .unwrap();
        assert!(!mscope_serdes::to_string(&desc).contains("elided"));
        // Grouped results come out sorted by their first key, so ORDER BY
        // that key ascending is also free.
        let grouped = db
            .query("EXPLAIN SELECT node, COUNT(*) FROM disk GROUP BY node ORDER BY node")
            .unwrap();
        let text = mscope_serdes::to_string(&grouped);
        assert!(text.contains("elided"), "{text}");
    }

    #[test]
    fn executor_refuses_a_plan_that_names_columns_it_cannot_read() {
        let db = db_with_owner();
        let planned = |sql: &str| {
            let q = parse(sql).unwrap();
            crate::plan::plan(&db, &q, true).unwrap()
        };
        // `plan` never builds either of these; a hand-edited plan is
        // refused by name instead of read out of bounds or run unsorted.
        let mut no_right = planned("SELECT node, team FROM disk JOIN owner ON node = node");
        no_right.right = None;
        let err = crate::vector::run(&no_right, 1).unwrap_err();
        assert!(
            matches!(&err, DbError::BadQuery(m) if m.contains("`owner_node`")),
            "{err}"
        );
        let mut bad_sort = planned("SELECT node, util FROM disk ORDER BY util");
        bad_sort.order_by = Some(("tier".into(), true));
        let err = crate::vector::run(&bad_sort, 1).unwrap_err();
        assert!(
            matches!(&err, DbError::BadQuery(m) if m.contains("`tier`")),
            "{err}"
        );
    }
}
