//! DT004: RNG streams constructed outside the per-cell discipline.

use mscope_sim::SimRng;

pub fn cell_rng(seed: u64, cell: u64) -> SimRng {
    SimRng::split(seed, cell + 1) //~ clippy::disallowed_methods
}

pub fn fresh(seed: u64) -> SimRng {
    SimRng::seed_from(seed) //~ clippy::disallowed_methods
}

#[cfg(test)]
mod tests {
    use mscope_sim::SimRng;

    #[test]
    fn tests_may_seed() {
        assert_eq!(SimRng::seed_from(3).next_u64(), SimRng::split(3, 0).next_u64());
    }
}
