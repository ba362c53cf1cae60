//! Service-level-objective analysis: the business framing of the paper's
//! motivation (its §I cites Amazon's "every 100 ms of latency costs 1 % of
//! sales"). An [`Slo`] turns the PIT series into compliance windows,
//! violation episodes, and an error-budget burn figure — and shows how a
//! handful of very short bottlenecks can consume an entire budget.

use crate::pit::PitSeries;

/// A latency service-level objective.
///
/// # Examples
///
/// ```
/// use mscope_analysis::{PitSeries, Slo};
///
/// let mut completions: Vec<(i64, f64)> = (0..100).map(|i| (i * 10_000, 5.0)).collect();
/// completions.push((500_000, 400.0)); // one VLRT request
/// let pit = PitSeries::from_completions(&completions, 50_000);
///
/// let slo = Slo { threshold_ms: 100.0, target: 0.999 };
/// let report = slo.evaluate(&pit);
/// assert!(report.violating_requests >= 1);
/// assert!(!report.is_met(), "one slow request in ~100 busts a 99.9% target");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Latency threshold in milliseconds.
    pub threshold_ms: f64,
    /// Required fraction of requests at or under the threshold (e.g.
    /// `0.999`).
    pub target: f64,
}
mscope_serdes::json_struct!(Slo {
    threshold_ms,
    target
});

/// The outcome of evaluating an [`Slo`] over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The evaluated objective.
    pub slo: Slo,
    /// Total requests observed.
    pub total_requests: u64,
    /// Requests over the threshold.
    pub violating_requests: u64,
    /// Achieved compliance fraction.
    pub compliance: f64,
    /// Windows containing at least one violation, `(start_us, violations)`.
    pub violation_windows: Vec<(i64, u64)>,
    /// Fraction of the error budget consumed (1.0 = exactly spent,
    /// >1.0 = SLO missed).
    pub budget_burn: f64,
}
mscope_serdes::json_struct!(SloReport {
    slo,
    total_requests,
    violating_requests,
    compliance,
    violation_windows,
    budget_burn,
});

impl SloReport {
    /// `true` when the objective was met.
    pub fn is_met(&self) -> bool {
        self.compliance >= self.slo.target
    }
}

impl Slo {
    /// Evaluates the objective against a PIT series.
    ///
    /// Violations are *estimated* from window statistics: if the window max
    /// exceeds the threshold at least one request violated; if the mean
    /// does too, all of them did; in between, a linear interpolation is
    /// used. (The event logs carry per-request truth; the PIT series is
    /// what a dashboard would retain.)
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target ≤ 1` and `threshold_ms > 0`.
    pub fn evaluate(&self, pit: &PitSeries) -> SloReport {
        assert!(self.threshold_ms > 0.0, "threshold must be positive");
        assert!(
            self.target > 0.0 && self.target <= 1.0,
            "target must be in (0, 1]"
        );
        let mut total = 0u64;
        let mut violating = 0u64;
        let mut violation_windows = Vec::with_capacity(pit.points.len());
        for p in &pit.points {
            total += p.count;
            if p.max_ms <= self.threshold_ms {
                continue;
            }
            // At least one; if even the mean violates, all of them do —
            // interpolate linearly in between.
            let est = if p.mean_ms > self.threshold_ms {
                p.count
            } else {
                let frac = ((p.max_ms - self.threshold_ms) / (p.max_ms - p.mean_ms).max(1e-9))
                    .clamp(0.0, 1.0);
                #[expect(
                    clippy::cast_sign_loss,
                    reason = "count ≥ 0 and frac is clamped to 0..=1"
                )]
                let est = (p.count as f64 * frac).ceil() as u64;
                est.max(1).min(p.count)
            };
            violating += est;
            violation_windows.push((p.start_us, est));
        }
        let compliance = if total == 0 {
            1.0
        } else {
            1.0 - violating as f64 / total as f64
        };
        let budget = (1.0 - self.target).max(1e-12);
        let burn = (1.0 - compliance) / budget;
        SloReport {
            slo: *self,
            total_requests: total,
            violating_requests: violating,
            compliance,
            violation_windows,
            budget_burn: burn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pit::PitSeries;

    fn pit_with_spike() -> PitSeries {
        let mut completions: Vec<(i64, f64)> = (0..1000).map(|i| (i * 5_000, 5.0)).collect();
        for k in 0..10 {
            completions.push((2_000_000 + k * 1_000, 300.0));
        }
        PitSeries::from_completions(&completions, 50_000)
    }

    #[test]
    fn clean_run_meets_slo() {
        let completions: Vec<(i64, f64)> = (0..500).map(|i| (i * 5_000, 5.0)).collect();
        let pit = PitSeries::from_completions(&completions, 50_000);
        let report = Slo {
            threshold_ms: 100.0,
            target: 0.999,
        }
        .evaluate(&pit);
        assert!(report.is_met());
        assert_eq!(report.violating_requests, 0);
        assert_eq!(report.compliance, 1.0);
        assert_eq!(report.budget_burn, 0.0);
        assert!(report.violation_windows.is_empty());
    }

    #[test]
    fn vsb_burst_busts_tight_slo() {
        let report = Slo {
            threshold_ms: 100.0,
            target: 0.999,
        }
        .evaluate(&pit_with_spike());
        assert!(!report.is_met());
        // All ten 300 ms requests land in one window whose mean also
        // violates → counted fully.
        assert!(
            report.violating_requests >= 10,
            "{}",
            report.violating_requests
        );
        assert!(report.budget_burn > 1.0, "burn {}", report.budget_burn);
        assert_eq!(report.violation_windows.len(), 1);
    }

    #[test]
    fn loose_slo_survives_the_same_burst() {
        let report = Slo {
            threshold_ms: 100.0,
            target: 0.95,
        }
        .evaluate(&pit_with_spike());
        assert!(
            report.is_met(),
            "a 95% target tolerates 10/1010 slow requests"
        );
        assert!(report.budget_burn < 1.0);
    }

    #[test]
    fn partial_window_violations_are_lower_bounded() {
        // One window: 9 fast requests + 1 slow one; mean stays low, so the
        // estimate must report at least the 1 provable violation.
        let mut completions: Vec<(i64, f64)> = (0..9).map(|i| (i * 1_000, 5.0)).collect();
        completions.push((9_000, 500.0));
        let pit = PitSeries::from_completions(&completions, 50_000);
        let report = Slo {
            threshold_ms: 100.0,
            target: 0.5,
        }
        .evaluate(&pit);
        assert!(report.violating_requests >= 1);
        assert!(report.violating_requests <= 10);
    }

    #[test]
    fn empty_series_is_trivially_met() {
        let report = Slo {
            threshold_ms: 100.0,
            target: 0.999,
        }
        .evaluate(&PitSeries::default());
        assert!(report.is_met());
        assert_eq!(report.total_requests, 0);
    }

    #[test]
    #[should_panic(expected = "target must be in")]
    fn bad_target_panics() {
        Slo {
            threshold_ms: 100.0,
            target: 1.5,
        }
        .evaluate(&PitSeries::default());
    }
}
