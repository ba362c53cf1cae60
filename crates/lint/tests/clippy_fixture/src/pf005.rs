//! PF005: the reference oracles called from non-test code.

use mscope_db::{DbError, Predicate, Table};

pub fn scan(t: &Table, p: &Predicate) -> Table {
    t.filter_naive(p) //~ clippy::disallowed_methods
}

pub fn join(a: &Table, b: &Table) -> Result<Table, DbError> {
    a.inner_join_naive(b, "k", "k") //~ clippy::disallowed_methods
}

#[cfg(test)]
mod tests {
    use mscope_db::{Column, ColumnType, Predicate, Schema, Table};

    #[test]
    fn tests_may_call_the_oracles() {
        let schema = Schema::new(vec![Column::new("k", ColumnType::Int)]).unwrap();
        let t = Table::new("t", schema);
        assert_eq!(t.filter_naive(&Predicate::True), t.filter(&Predicate::True));
        assert_eq!(t.inner_join_naive(&t, "k", "k").unwrap().row_count(), 0);
    }
}
