//! Detectors for the paper's phenomena: very long response time (VLRT)
//! episodes, very short bottlenecks (VSBs), and cross-tier queue pushback.

use crate::correlate::WindowSeries;
use crate::pit::PitSeries;

/// A contiguous VLRT episode: consecutive PIT windows whose max response
/// time exceeds `factor ×` the run average. VSBs manifest as episodes a few
/// hundred milliseconds long (paper §II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsbEpisode {
    /// Episode start (µs).
    pub start_us: i64,
    /// Episode end (µs, exclusive — end of the last offending window).
    pub end_us: i64,
    /// Largest PIT max inside the episode (ms).
    pub peak_ms: f64,
    /// Peak divided by the run's mean response time.
    pub ratio: f64,
}
mscope_serdes::json_struct!(VsbEpisode {
    start_us,
    end_us,
    peak_ms,
    ratio
});

impl VsbEpisode {
    /// Episode duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1000.0
    }
}

/// Groups the PIT series' VLRT windows into contiguous episodes
/// (windows separated by at most one quiet window merge).
pub fn detect_vsb(pit: &PitSeries, factor: f64) -> Vec<VsbEpisode> {
    let mean = pit.overall_mean_ms();
    if mean <= 0.0 {
        return Vec::new();
    }
    let offenders: Vec<(i64, f64)> = pit
        .points
        .iter()
        .filter(|p| p.max_ms > factor * mean)
        .map(|p| (p.start_us, p.max_ms))
        .collect();
    let mut episodes: Vec<VsbEpisode> = Vec::new();
    for (start, peak) in offenders {
        let end = start + pit.window_us;
        match episodes.last_mut() {
            // Merge when adjacent or separated by a single quiet window.
            Some(ep) if start - ep.end_us <= pit.window_us => {
                ep.end_us = end;
                if peak > ep.peak_ms {
                    ep.peak_ms = peak;
                    ep.ratio = peak / mean;
                }
            }
            _ => episodes.push(VsbEpisode {
                start_us: start,
                end_us: end,
                peak_ms: peak,
                ratio: peak / mean,
            }),
        }
    }
    episodes
}

/// One pushback episode: windows where the front tier's queue is elevated,
/// annotated with every tier simultaneously elevated.
#[derive(Debug, Clone, PartialEq)]
pub struct PushbackEpisode {
    /// Episode start (µs).
    pub start_us: i64,
    /// Episode end (µs, exclusive).
    pub end_us: i64,
    /// Tiers whose queues were elevated at some point in the episode.
    pub tiers_involved: Vec<usize>,
    /// The deepest (largest-index) involved tier — where the paper's
    /// methodology points the investigation next.
    pub deepest_tier: usize,
}
mscope_serdes::json_struct!(PushbackEpisode {
    start_us,
    end_us,
    tiers_involved,
    deepest_tier
});

impl PushbackEpisode {
    /// `true` when more than one tier was involved — the cross-tier
    /// pushback signature of Fig. 6, as opposed to a front-tier-local
    /// saturation (Fig. 8b's first peak).
    pub fn is_cross_tier(&self) -> bool {
        self.tiers_involved.len() > 1
    }
}

/// Median of a value set: the middle element for odd lengths, the average
/// of the two middle elements for even lengths (0 when empty). Taking only
/// the upper-middle element skews even-length medians — and therefore the
/// pushback elevation thresholds — high whenever the two middle values
/// differ.
pub(crate) fn median(mut vals: Vec<f64>) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(f64::total_cmp);
    let mid = vals.len() / 2;
    if vals.len().is_multiple_of(2) {
        (vals[mid - 1] + vals[mid]) / 2.0
    } else {
        vals[mid]
    }
}

/// Detects pushback from per-tier queue series (pipeline order, tier 0
/// first, identical windows). A tier is *elevated* in a window when its
/// queue exceeds `multiplier ×` (its own median + 1). Episodes are maximal
/// runs of windows where *any* tier is elevated.
///
/// Tier values are looked up with a merge-walk over the aligned window
/// sequences (the same shape as [`align`](crate::align)) — one cursor per
/// tier, advanced monotonically — instead of a per-window linear scan,
/// which was O(windows × tiers × windows). Series that are not in time
/// order (no workspace constructor produces those) fall back to the scan.
///
/// # Panics
///
/// Panics if `queues` is empty.
pub fn detect_pushback(queues: &[WindowSeries], multiplier: f64) -> Vec<PushbackEpisode> {
    assert!(!queues.is_empty(), "need at least one tier's queue series");
    // Per-tier elevation thresholds from each tier's own median.
    let thresholds: Vec<f64> = queues
        .iter()
        .map(|q| multiplier * (median(q.values()) + 1.0))
        .collect();
    let sorted = queues
        .iter()
        .all(|q| crate::correlate::is_time_sorted(&q.points));
    // One merge cursor per tier; each rests on the first point with
    // timestamp >= the front tier's current window.
    let mut cursors = vec![0usize; queues.len()];
    // Walk the front tier's windows; look up other tiers by timestamp.
    let mut episodes: Vec<PushbackEpisode> = Vec::new();
    let mut current: Option<PushbackEpisode> = None;
    for &(t, _) in &queues[0].points {
        let lookup = |q: &WindowSeries, j: &mut usize| -> Option<f64> {
            if sorted {
                while *j < q.points.len() && q.points[*j].0 < t {
                    *j += 1;
                }
                (*j < q.points.len() && q.points[*j].0 == t).then(|| q.points[*j].1)
            } else {
                q.points.iter().find(|&&(qt, _)| qt == t).map(|&(_, v)| v)
            }
        };
        let elevated: Vec<usize> = queues
            .iter()
            .zip(&mut cursors)
            .enumerate()
            .filter_map(|(ti, (q, j))| {
                let v = lookup(q, j)?;
                (v > thresholds[ti]).then_some(ti)
            })
            .collect();
        // `elevated` is in ascending tier order, so its last is the deepest.
        let Some(&deepest) = elevated.last() else {
            if let Some(ep) = current.take() {
                episodes.push(ep);
            }
            continue;
        };
        let window = window_width(&queues[0]);
        match &mut current {
            Some(ep) => {
                ep.end_us = t + window;
                for ti in elevated {
                    if !ep.tiers_involved.contains(&ti) {
                        ep.tiers_involved.push(ti);
                    }
                    ep.deepest_tier = ep.deepest_tier.max(ti);
                }
            }
            None => {
                current = Some(PushbackEpisode {
                    start_us: t,
                    end_us: t + window,
                    tiers_involved: elevated,
                    deepest_tier: deepest,
                });
            }
        }
    }
    if let Some(ep) = current.take() {
        episodes.push(ep);
    }
    episodes
}

fn window_width(s: &WindowSeries) -> i64 {
    s.points
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .find(|&d| d > 0)
        .unwrap_or(50_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pit::PitSeries;

    #[test]
    fn vsb_episode_grouping() {
        // 5 ms baseline with a 3-window episode and a separate 1-window one.
        let mut completions: Vec<(i64, f64)> = (0..400).map(|i| (i * 50_000, 5.0)).collect();
        completions.push((500_000, 200.0));
        completions.push((550_000, 220.0));
        completions.push((600_000, 180.0));
        completions.push((1_500_000, 170.0));
        let pit = PitSeries::from_completions(&completions, 50_000);
        let eps = detect_vsb(&pit, 20.0);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].start_us, 500_000);
        assert_eq!(eps[0].end_us, 650_000);
        assert_eq!(eps[0].peak_ms, 220.0);
        assert!((eps[0].duration_ms() - 150.0).abs() < 1e-9);
        assert!(eps[0].ratio > 20.0);
        assert_eq!(eps[1].start_us, 1_500_000);
    }

    #[test]
    fn vsb_merges_across_single_quiet_window() {
        let mut completions: Vec<(i64, f64)> = (0..400).map(|i| (i * 50_000, 5.0)).collect();
        completions.push((500_000, 200.0));
        // Window at 550_000 is quiet; next offender at 600_000 merges.
        completions.push((600_000, 210.0));
        let pit = PitSeries::from_completions(&completions, 50_000);
        let eps = detect_vsb(&pit, 20.0);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].end_us, 650_000);
    }

    #[test]
    fn no_vsb_in_quiet_run() {
        let completions: Vec<(i64, f64)> = (0..40).map(|i| (i * 50_000, 5.0)).collect();
        let pit = PitSeries::from_completions(&completions, 50_000);
        assert!(detect_vsb(&pit, 20.0).is_empty());
        assert!(detect_vsb(&PitSeries::default(), 20.0).is_empty());
    }

    fn queue(label: &str, vals: &[f64]) -> WindowSeries {
        WindowSeries::new(
            label,
            vals.iter()
                .enumerate()
                .map(|(i, &v)| (i as i64 * 50_000, v))
                .collect(),
        )
    }

    #[test]
    fn pushback_cross_tier_episode() {
        // Baseline 2 everywhere; windows 4-6 all tiers spike (DB-IO shape).
        let q0 = queue(
            "apache",
            &[2.0, 2.0, 2.0, 2.0, 50.0, 80.0, 40.0, 2.0, 2.0, 2.0, 2.0],
        );
        let q1 = queue(
            "tomcat",
            &[2.0, 2.0, 2.0, 2.0, 40.0, 70.0, 30.0, 2.0, 2.0, 2.0, 2.0],
        );
        let q2 = queue(
            "cjdbc",
            &[1.0, 1.0, 1.0, 1.0, 30.0, 60.0, 25.0, 1.0, 1.0, 1.0, 1.0],
        );
        let q3 = queue(
            "mysql",
            &[3.0, 3.0, 3.0, 3.0, 45.0, 50.0, 45.0, 3.0, 3.0, 3.0, 3.0],
        );
        let eps = detect_pushback(&[q0, q1, q2, q3], 3.0);
        assert_eq!(eps.len(), 1);
        assert!(eps[0].is_cross_tier());
        assert_eq!(eps[0].deepest_tier, 3);
        assert_eq!(eps[0].tiers_involved.len(), 4);
        assert_eq!(eps[0].start_us, 200_000);
        assert_eq!(eps[0].end_us, 350_000);
    }

    #[test]
    fn front_tier_only_episode_not_cross_tier() {
        // Fig. 8b first peak: only Apache's queue rises.
        let q0 = queue("apache", &[2.0, 2.0, 60.0, 70.0, 2.0, 2.0]);
        let q1 = queue("tomcat", &[2.0, 2.0, 2.5, 2.0, 2.0, 2.0]);
        let eps = detect_pushback(&[q0, q1], 3.0);
        assert_eq!(eps.len(), 1);
        assert!(!eps[0].is_cross_tier());
        assert_eq!(eps[0].deepest_tier, 0);
    }

    #[test]
    fn two_separate_peaks_two_episodes() {
        // Fig. 8b shape: Apache-only peak, then Apache+Tomcat peak.
        let q0 = queue("apache", &[2.0, 60.0, 2.0, 2.0, 70.0, 2.0]);
        let q1 = queue("tomcat", &[2.0, 2.0, 2.0, 2.0, 50.0, 2.0]);
        let eps = detect_pushback(&[q0, q1], 3.0);
        assert_eq!(eps.len(), 2);
        assert!(!eps[0].is_cross_tier());
        assert!(eps[1].is_cross_tier());
        assert_eq!(eps[1].tiers_involved, vec![0, 1]);
    }

    #[test]
    fn median_averages_even_length_windows() {
        // Odd length: the middle element.
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        // Even length: the average of the two middle elements, not the
        // upper-middle one (which would be 4.0 here).
        assert_eq!(median(vec![4.0, 1.0, 2.0, 8.0]), 3.0);
        assert_eq!(median(vec![1.0, 2.0]), 1.5);
        assert_eq!(median(Vec::new()), 0.0);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn even_length_median_no_longer_skews_thresholds() {
        // Six windows, sorted values [1, 1, 2, 10, 20, 30]: correct median
        // (2 + 10) / 2 = 6 → threshold 3×7 = 21, which flags the 30.0
        // window; the old upper-middle median 10 gave threshold 33 and
        // missed the episode entirely.
        let q0 = queue("apache", &[2.0, 10.0, 1.0, 30.0, 20.0, 1.0]);
        let eps = detect_pushback(&[q0], 3.0);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].start_us, 150_000);
        assert_eq!(eps[0].end_us, 200_000);
    }

    /// The pre-merge-walk reference: per-window linear lookup. Kept only to
    /// prove the merge-walk is episode-identical.
    fn detect_pushback_linear(queues: &[WindowSeries], multiplier: f64) -> Vec<PushbackEpisode> {
        let thresholds: Vec<f64> = queues
            .iter()
            .map(|q| multiplier * (median(q.values()) + 1.0))
            .collect();
        let mut episodes: Vec<PushbackEpisode> = Vec::new();
        let mut current: Option<PushbackEpisode> = None;
        for &(t, _) in &queues[0].points {
            let elevated: Vec<usize> = queues
                .iter()
                .enumerate()
                .filter_map(|(ti, q)| {
                    let v = q.points.iter().find(|&&(qt, _)| qt == t).map(|&(_, v)| v)?;
                    (v > thresholds[ti]).then_some(ti)
                })
                .collect();
            if elevated.is_empty() {
                if let Some(ep) = current.take() {
                    episodes.push(ep);
                }
                continue;
            }
            let window = window_width(&queues[0]);
            match &mut current {
                Some(ep) => {
                    ep.end_us = t + window;
                    for ti in elevated {
                        if !ep.tiers_involved.contains(&ti) {
                            ep.tiers_involved.push(ti);
                        }
                        ep.deepest_tier = ep.deepest_tier.max(ti);
                    }
                }
                None => {
                    let deepest = *elevated.iter().max().expect("non-empty");
                    current = Some(PushbackEpisode {
                        start_us: t,
                        end_us: t + window,
                        tiers_involved: elevated,
                        deepest_tier: deepest,
                    });
                }
            }
        }
        if let Some(ep) = current.take() {
            episodes.push(ep);
        }
        episodes
    }

    #[test]
    fn merge_walk_matches_linear_lookup_on_fixtures() {
        // Every fixture in this module, plus tiers with missing and
        // duplicated windows (first occurrence wins either way), plus an
        // unsorted series exercising the fallback path.
        let fixtures: Vec<Vec<WindowSeries>> = vec![
            vec![
                queue(
                    "apache",
                    &[2.0, 2.0, 2.0, 2.0, 50.0, 80.0, 40.0, 2.0, 2.0, 2.0, 2.0],
                ),
                queue(
                    "tomcat",
                    &[2.0, 2.0, 2.0, 2.0, 40.0, 70.0, 30.0, 2.0, 2.0, 2.0, 2.0],
                ),
                queue(
                    "cjdbc",
                    &[1.0, 1.0, 1.0, 1.0, 30.0, 60.0, 25.0, 1.0, 1.0, 1.0, 1.0],
                ),
                queue(
                    "mysql",
                    &[3.0, 3.0, 3.0, 3.0, 45.0, 50.0, 45.0, 3.0, 3.0, 3.0, 3.0],
                ),
            ],
            vec![
                queue("apache", &[2.0, 2.0, 60.0, 70.0, 2.0, 2.0]),
                queue("tomcat", &[2.0, 2.0, 2.5, 2.0, 2.0, 2.0]),
            ],
            vec![
                queue("apache", &[2.0, 60.0, 2.0, 2.0, 70.0, 2.0]),
                queue("tomcat", &[2.0, 2.0, 2.0, 2.0, 50.0, 2.0]),
            ],
            vec![queue("apache", &[2.0; 20]), queue("tomcat", &[1.0; 20])],
            // Sparse back tier: only every other window reported.
            vec![
                queue("apache", &[2.0, 50.0, 55.0, 2.0, 2.0, 2.0]),
                WindowSeries::new("tomcat", vec![(0, 2.0), (100_000, 45.0), (200_000, 2.0)]),
            ],
            // Duplicate timestamps: the first occurrence must win.
            vec![
                queue("apache", &[2.0, 50.0, 2.0]),
                WindowSeries::new(
                    "tomcat",
                    vec![(0, 2.0), (50_000, 40.0), (50_000, 2.0), (100_000, 2.0)],
                ),
            ],
            // Unsorted series: the merge-walk precondition fails, the
            // linear fallback must kick in.
            vec![
                WindowSeries::new("apache", vec![(100_000, 60.0), (0, 2.0), (50_000, 70.0)]),
                queue("tomcat", &[2.0, 50.0, 2.0]),
            ],
        ];
        for (i, qs) in fixtures.iter().enumerate() {
            assert_eq!(
                detect_pushback(qs, 3.0),
                detect_pushback_linear(qs, 3.0),
                "fixture {i} diverged"
            );
        }
    }

    #[test]
    fn quiet_queues_no_episodes() {
        let q0 = queue("apache", &[2.0; 20]);
        let q1 = queue("tomcat", &[1.0; 20]);
        assert!(detect_pushback(&[q0, q1], 3.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_queues_panics() {
        detect_pushback(&[], 3.0);
    }
}
