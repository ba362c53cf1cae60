//! Small statistics toolkit: descriptive stats, percentiles, Pearson
//! correlation, and RMSE.
//!
//! Implemented in-repo (rather than pulling a stats crate) because the
//! analysis layer's correctness — e.g. the correlation behind the paper's
//! Figure 7 — is part of what this reproduction must demonstrate.

/// Descriptive statistics over a slice of `f64`.
///
/// # Examples
///
/// ```
/// use mscope_sim::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}
mscope_serdes::json_struct!(Summary {
    count,
    mean,
    std_dev,
    min,
    max
});

impl Summary {
    /// Computes a summary, or `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            count: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Percentile via linear interpolation on a *sorted* copy of the data;
/// `p` in `[0, 100]`. Returns `None` for empty data.
///
/// # Examples
///
/// ```
/// use mscope_sim::percentile;
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile(&xs, 50.0), Some(25.0));
/// assert_eq!(percentile(&xs, 100.0), Some(40.0));
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or data contains NaN.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile data"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Pearson product-moment correlation coefficient between two equal-length
/// series. Returns `None` if lengths differ, fewer than 2 points, or either
/// series has zero variance.
///
/// # Examples
///
/// ```
/// use mscope_sim::pearson;
/// let x = [1.0, 2.0, 3.0];
/// let y = [10.0, 20.0, 30.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Root-mean-square error between two equal-length series; `None` if lengths
/// differ or the series are empty. Used to quantify SysViz-vs-event-monitor
/// agreement (paper Fig. 9).
pub fn rmse(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.is_empty() {
        return None;
    }
    let ss: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    Some((ss / x.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 3.0, 2.0, 4.0]; // order must not matter
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0, 8.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[8.0, 6.0, 4.0, 2.0]).unwrap() + 1.0).abs() < 1e-12);
        // Zero variance → None.
        assert_eq!(pearson(&x, &[5.0; 4]), None);
        // Mismatched length → None.
        assert_eq!(pearson(&x, &[1.0]), None);
        assert_eq!(pearson(&[1.0], &[1.0]), None);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        // A symmetric pattern with no linear relationship.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 3.0, 1.0, 2.0];
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.5, "r = {r}");
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), Some(0.0));
        assert_eq!(rmse(&[0.0, 0.0], &[3.0, 4.0]), Some((12.5f64).sqrt()));
        assert_eq!(rmse(&[1.0], &[]), None);
    }
}
