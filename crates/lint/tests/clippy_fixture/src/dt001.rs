//! DT001: hash iteration order reaching an output.

use std::collections::{HashMap, HashSet};

pub fn render(by_id: &HashMap<u64, String>) -> String {
    by_id.values().map(String::as_str).collect() //~ clippy::disallowed_methods
}

pub fn rows(by_id: &HashMap<u64, String>) -> usize {
    let mut n = 0;
    for (id, row) in by_id { //~ clippy::iter_over_hash_type
        n += row.len() + usize::from(*id > 9);
    }
    n
}

pub fn ids(by_id: &HashMap<u64, String>) -> Vec<u64> {
    by_id.keys().copied().collect() //~ clippy::disallowed_methods
}

pub fn members(seen: &HashSet<u64>) -> Vec<u64> {
    seen.iter().copied().collect() //~ clippy::disallowed_methods
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    #[test]
    fn tests_may_iterate_hash_collections() {
        let by_id = HashMap::from([(1u64, 2u64)]);
        let mut n = 0;
        for (k, v) in &by_id {
            n += k * v;
        }
        assert_eq!(by_id.keys().sum::<u64>() + n, 3);
        assert_eq!(HashSet::from([4u64]).iter().sum::<u64>(), 4);
    }
}
