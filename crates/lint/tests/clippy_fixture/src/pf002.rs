//! PF002: a collect whose only use iterates it again.

pub fn total(xs: &[u64]) -> u64 {
    let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect(); //~ clippy::needless_collect
    doubled.into_iter().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_collect_and_reiterate() {
        let doubled: Vec<u64> = [1u64, 2].iter().map(|x| x * 2).collect();
        assert_eq!(doubled.into_iter().sum::<u64>(), 6);
    }
}
