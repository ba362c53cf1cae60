//! Deterministic random numbers and the distributions the workload and
//! service-time models need.
//!
//! Everything is seeded: the same seed yields the same experiment, which is
//! essential both for the test suite and for regenerating the paper's
//! figures reproducibly.

/// A seeded random number generator with the samplers used across the
/// simulator (exponential think times, log-normal service times, Zipf
/// content popularity, …).
///
/// The generator is a self-contained xoshiro256++ (Blackman & Vigna),
/// seeded through splitmix64 so that nearby seeds still produce unrelated
/// streams. Nothing outside this file contributes to the stream, which is
/// what makes the determinism contract auditable: the golden tests in
/// `tests/rng_golden.rs` pin the exact output for fixed seeds.
///
/// # Examples
///
/// ```
/// use mscope_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// The splitmix64 step: a strong 64-bit mixer used to expand one seed word
/// into the xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives the root generator of parallel stream `stream` for `seed`.
    ///
    /// Stream 0 is *defined* to be [`SimRng::seed_from`]`(seed)` itself, so
    /// a single-partition simulation draws exactly the stream it always
    /// did; higher streams are decorrelated through an extra splitmix64
    /// pass over the (seed, stream) pair. Unlike [`fork`](SimRng::fork),
    /// `split` is a pure function of its arguments — no parent draw order
    /// is involved — which is what makes per-shard streams reproducible at
    /// any thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_sim::SimRng;
    ///
    /// let mut base = SimRng::seed_from(7);
    /// let mut s0 = SimRng::split(7, 0);
    /// assert_eq!(base.next_u64(), s0.next_u64()); // stream 0 == seed_from
    ///
    /// let mut s1 = SimRng::split(7, 1);
    /// assert_ne!(s0.next_u64(), s1.next_u64()); // streams are unrelated
    /// ```
    #[expect(
        clippy::disallowed_methods,
        reason = "the RNG defines its streams (DT004)"
    )]
    pub fn split(seed: u64, stream: u64) -> SimRng {
        if stream == 0 {
            return SimRng::seed_from(seed);
        }
        let mut sm = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mixed = splitmix64(&mut sm);
        SimRng::seed_from(mixed ^ stream.rotate_left(17))
    }

    /// Derives an independent child generator; used to give each subsystem
    /// (workload, each injector, …) its own stream so adding draws in one
    /// subsystem does not perturb another.
    #[expect(
        clippy::disallowed_methods,
        reason = "the RNG defines its streams (DT004)"
    )]
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label in so forks with different labels diverge even when
        // taken at the same point of the parent stream.
        let s = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform float in `[0, 1)`: the top 53 bits of one draw.
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted: {lo} > {hi}");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform bounds inverted: {lo} > {hi}");
        let Some(range) = hi.checked_sub(lo).and_then(|r| r.checked_add(1)) else {
            // Full 64-bit range: every draw is already uniform.
            return self.next_u64();
        };
        // Debiased multiply-shift (Lemire): reject the draws that would
        // make some residues over-represented.
        let threshold = range.wrapping_neg() % range;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if (wide as u64) >= threshold {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Exponential sample with the given mean (`mean = 1/λ`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse transform; guard against ln(0).
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform01()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "normal sigma must be non-negative");
        mu + sigma * self.standard_normal()
    }

    /// Log-normal sample parameterized by the *target* mean and coefficient
    /// of variation of the resulting distribution (not of the underlying
    /// normal). This is the natural parameterization for service times:
    /// "mean 3 ms, CV 0.3". One draw from a [`LogNormal`] built on the spot;
    /// build it once to draw from the same distribution repeatedly.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `cv` is negative.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        LogNormal::from_mean_cv(mean, cv).sample(self)
    }

    /// Bounded Pareto sample on `[lo, hi]` with shape `alpha`; heavy-tailed
    /// sizes (e.g. response payload bytes).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo, "bounded pareto needs 0 < lo < hi");
        assert!(alpha > 0.0, "pareto alpha must be positive");
        let u = self.uniform01();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`, via inverse CDF
    /// over precomputed weights — fine for the small `n` (24 interaction
    /// types) we use it for.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf needs at least one element");
        let total: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut target = self.uniform01() * total;
        for k in 1..=n {
            target -= 1.0 / (k as f64).powf(s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Samples an index according to the given non-negative weights. One
    /// draw from a [`WeightedIndex`] over borrowed weights; build an owned
    /// one to draw from the same weights repeatedly.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        WeightedIndex::new(weights).sample(self)
    }
}

/// A log-normal distribution prepared from its target mean and coefficient
/// of variation: the two logarithms and the square root that turn those
/// into the underlying normal's parameters are taken once, here, and every
/// [`sample`](LogNormal::sample) is the same arithmetic on the same
/// operands as [`SimRng::lognormal_mean_cv`] — bit-identical draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mean: f64,
    cv: f64,
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Prepares the distribution with the given mean and CV.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `cv` is negative.
    pub fn from_mean_cv(mean: f64, cv: f64) -> LogNormal {
        assert!(mean > 0.0, "lognormal mean must be positive");
        assert!(cv >= 0.0, "lognormal cv must be non-negative");
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal {
            mean,
            cv,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws one sample. A zero CV is the constant `mean` and consumes no
    /// randomness.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.cv == 0.0 {
            return self.mean;
        }
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// A discrete distribution over indices, prepared from non-negative
/// weights: validated and summed (left to right) once, so a
/// [`sample`](WeightedIndex::sample) is one uniform draw and a walk.
/// Generic over the weight storage so one rule serves a borrowed slice
/// ([`SimRng::weighted_index`]) and an owned table.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex<W> {
    weights: W,
    total: f64,
}

impl<W: AsRef<[f64]>> WeightedIndex<W> {
    /// Validates and sums the weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn new(weights: W) -> WeightedIndex<W> {
        let w = weights.as_ref();
        assert!(!w.is_empty(), "weighted_index needs weights");
        let total: f64 = w
            .iter()
            .map(|w| {
                assert!(*w >= 0.0, "weights must be non-negative");
                *w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        WeightedIndex { weights, total }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let weights = self.weights.as_ref();
        let mut target = rng.uniform01() * self.total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_stream_zero_is_seed_from() {
        let mut a = SimRng::seed_from(0x5CC0_9E02);
        let mut b = SimRng::split(0x5CC0_9E02, 0);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_is_pure_and_streams_diverge() {
        // Pure: same (seed, stream) → same stream, no parent state involved.
        let mut a = SimRng::split(99, 3);
        let mut b = SimRng::split(99, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct streams (and distinct seeds) are unrelated.
        let firsts: Vec<u64> = (0..8).map(|s| SimRng::split(99, s).next_u64()).collect();
        let mut dedup = firsts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), firsts.len(), "stream collision: {firsts:?}");
        assert_ne!(
            SimRng::split(99, 1).next_u64(),
            SimRng::split(100, 1).next_u64()
        );
    }

    #[test]
    fn forks_diverge_by_label() {
        let mut root1 = SimRng::seed_from(1);
        let mut root2 = SimRng::seed_from(1);
        let mut f1 = root1.fork(10);
        let mut f2 = root2.fork(20);
        // Same parent state, different labels → different streams.
        assert_ne!(
            (0..8).map(|_| f1.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| f2.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let mean = 5.0;
        let s: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = s / n as f64;
        assert!((observed - mean).abs() / mean < 0.05, "observed {observed}");
    }

    #[test]
    fn lognormal_mean_cv_close() {
        let mut rng = SimRng::seed_from(4);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() / 3.0 < 0.05, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 0.5).abs() < 0.06, "cv {cv}");
        // Degenerate CV returns the mean exactly.
        assert_eq!(rng.lognormal_mean_cv(3.0, 0.0), 3.0);
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 4.0);
            assert!((2.0..4.0).contains(&x));
            let k = rng.uniform_u64(3, 6);
            assert!((3..=6).contains(&k));
        }
    }

    #[test]
    fn bounded_pareto_in_range() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            let x = rng.bounded_pareto(100.0, 10_000.0, 1.2);
            assert!((100.0..=10_000.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SimRng::seed_from(8);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > counts[9] * 3);
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SimRng::seed_from(9);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..8_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(10);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn weighted_index_all_zero_panics() {
        SimRng::seed_from(1).weighted_index(&[0.0, 0.0]);
    }
}
