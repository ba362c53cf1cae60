//! Order statistics: medians, interpolated percentiles, quartile spread,
//! and the rule that picks which tail percentile a sample can support.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the "percentile" is one or two outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the picker chooses from, lowest first, each with
/// the share of the sample that lies beyond it in parts per thousand
/// (integers, so "ten beyond" is decided exactly).
const LADDER: [(f64, usize); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// Linear-interpolated percentile `p` (0–100) of an unsorted sample; `0.0`
/// for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    mscope_sim::percentile(values, p).unwrap_or(0.0)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest ladder percentile that still has [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`; the median when none does.
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille / 1000 >= MIN_BEYOND)
        .map_or(50.0, |&(p, _)| p)
}

/// `(percentile, value)` at the highest percentile the sample supports.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = highest_supported_percentile(values.len());
    (p, percentile(values, p))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles `statistics.quantiles(values, n=4)` gives
/// (the exclusive method: rank `q·(n+1)`), so the self-check sees the same
/// spread the driver computes. `0.0` with fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |q: f64| -> f64 {
        let rank = q * (n + 1) as f64;
        let j = (rank.floor() as usize).clamp(1, n - 1);
        let frac = rank - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(0.75) - quartile(0.25)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // Fewer than 20 samples cannot support anything past the median.
        assert_eq!(highest_supported_percentile(0), 50.0);
        assert_eq!(highest_supported_percentile(7), 50.0);
        assert_eq!(highest_supported_percentile(19), 50.0);
        // p50 of 20 leaves exactly ten beyond; p75 needs 40.
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 99.0);
        assert!((x - 990.01).abs() < 1e-9, "{x}");
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
