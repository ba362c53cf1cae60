//! DT005's types: shared interior mutability outside the sanctioned pool.

use std::cell::{Cell, RefCell}; //~ clippy::disallowed_types
use std::sync::{Mutex, RwLock}; //~ clippy::disallowed_types

pub fn tally(hits: &Mutex<u64>) { //~ clippy::disallowed_types
    if let Ok(mut h) = hits.lock() {
        *h += 1;
    }
}

pub struct S {
    pub cache: RefCell<Vec<u64>>, //~ clippy::disallowed_types
    pub seen: Cell<u64>, //~ clippy::disallowed_types
    pub table: RwLock<Vec<u64>>, //~ clippy::disallowed_types
}

pub fn fresh_lock() -> u64 {
    let m = std::sync::Mutex::new(0u64); //~ clippy::disallowed_types
    m.into_inner().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_share() {
        let seen = std::cell::Cell::new(1);
        seen.set(2);
        assert_eq!(seen.get(), 2);
    }
}
