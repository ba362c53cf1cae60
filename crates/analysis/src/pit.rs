//! Point-in-Time (PIT) response time — the paper's headline metric
//! (Fig. 2, Fig. 8a).
//!
//! The PIT series buckets completed requests into fixed windows (50 ms in
//! the paper's plots) and reports the *maximum* and mean response time per
//! window. Very long response time (VLRT) episodes appear as windows whose
//! maximum is one to two orders of magnitude above the run's average —
//! invisible to coarser, averaged monitoring.

use crate::queue::{event_intervals, interval_is_valid};
use mscope_db::Table;
use std::collections::BTreeMap;

/// One PIT window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PitPoint {
    /// Window start (µs since run start).
    pub start_us: i64,
    /// Maximum response time completed in this window (ms).
    pub max_ms: f64,
    /// Mean response time in this window (ms).
    pub mean_ms: f64,
    /// Requests completed in this window.
    pub count: u64,
}
mscope_serdes::json_struct!(PitPoint {
    start_us,
    max_ms,
    mean_ms,
    count
});

/// The PIT response-time series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PitSeries {
    /// Window width (µs).
    pub window_us: i64,
    /// Points in time order (windows with no completions are omitted).
    pub points: Vec<PitPoint>,
}
mscope_serdes::json_struct!(PitSeries { window_us, points });

impl PitSeries {
    /// Builds the series from `(completion_time_us, response_time_ms)`
    /// pairs. Windows are keyed by completion time, like the paper's plots:
    /// window `k` starts at `k · window_us`, negative instants included
    /// (they floor). Windows with no completions are omitted, and so is a
    /// window whose start does not fit in `i64` (only an instant less than
    /// one window above `i64::MIN` can fall in one).
    ///
    /// This is the general constructor, for completions in any order over
    /// any span. [`PitSeries::from_event_table`] folds a front-tier table
    /// over a bounded range and gives the same windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is not positive.
    pub fn from_completions(completions: &[(i64, f64)], window_us: i64) -> PitSeries {
        assert!(window_us > 0, "window must be positive");
        // (max, sum, count) per window index, folded in completion order:
        // the sum adds left to right from 0.0, as the warehouse's window
        // fold does.
        let mut buckets: BTreeMap<i64, (f64, f64, u64)> = BTreeMap::new();
        for &(t, rt) in completions {
            let b = buckets
                .entry(t.div_euclid(window_us))
                .or_insert((f64::NEG_INFINITY, 0.0, 0));
            *b = (b.0.max(rt), b.1 + rt, b.2 + 1);
        }
        let points = buckets
            .into_iter()
            .filter_map(|(k, (max_ms, sum, count))| {
                Some(PitPoint {
                    start_us: k.checked_mul(window_us)?,
                    max_ms,
                    mean_ms: sum / count as f64,
                    count,
                })
            })
            .collect();
        PitSeries { window_us, points }
    }

    /// Builds the series over `[from_us, to_us)` from a front-tier event
    /// table: response time is `ud − ua` per record (the paper: Apache's
    /// native timestamps already give each request's response time), keyed
    /// by `ud`.
    ///
    /// Window `k` (start `k · window_us`) is kept iff `from_us ≤ k · w <
    /// to_us`, exactly what [`PitSeries::slice`] keeps of the whole-table
    /// series; a window that straddles `from_us` is dropped. The `ua`/`ud`
    /// columns are read in place in one pass, each row folded into one
    /// dense slot per window of the range, in row order (so every sum adds
    /// in the order [`PitSeries::from_completions`] adds it). The slot
    /// `Vec` holds `⌈to_us / w⌉ − ⌈from_us / w⌉` entries of 24 bytes — one
    /// per window of the range, as many as the queue series of the same
    /// range has points, give or take one.
    ///
    /// Rows with a null `ua` or `ud` are skipped, and so are the rows the
    /// queue series drops as corrupt: a negative `ua`, or `ud < ua`.
    ///
    /// # Errors
    ///
    /// Returns an error string if the table lacks `ua`/`ud` columns.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is not positive, or if the slots of the range
    /// cannot be allocated.
    pub fn from_event_table(
        table: &Table,
        window_us: i64,
        from_us: i64,
        to_us: i64,
    ) -> Result<PitSeries, String> {
        assert!(window_us > 0, "window must be positive");
        let rows = event_intervals(table)?;
        // Window `k` is in range iff `lo ≤ k < hi`.
        let ceil = |t: i64| t.div_euclid(window_us) + i64::from(t.rem_euclid(window_us) != 0);
        let (lo, hi) = (ceil(from_us), ceil(to_us));
        let len = usize::try_from(hi.saturating_sub(lo)).unwrap_or(0);
        let mut slots = vec![(f64::NEG_INFINITY, 0.0, 0u64); len];
        for (a, d) in rows {
            // A request with no `ud` has not completed.
            let Some(d) = d else {
                continue;
            };
            if !interval_is_valid(a, Some(d)) {
                continue;
            }
            // `k − lo` is negative before the range and `≥ len` after it.
            let Some(slot) = d
                .div_euclid(window_us)
                .checked_sub(lo)
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| slots.get_mut(i))
            else {
                continue;
            };
            // `0 ≤ a ≤ d`, so `d − a` cannot overflow.
            let rt = (d - a) as f64 / 1000.0;
            *slot = (slot.0.max(rt), slot.1 + rt, slot.2 + 1);
        }
        let points = slots
            .into_iter()
            .zip(lo..)
            .filter(|&((_, _, count), _)| count > 0)
            .map(|((max_ms, sum, count), k)| PitPoint {
                start_us: k * window_us,
                max_ms,
                mean_ms: sum / count as f64,
                count,
            })
            .collect();
        Ok(PitSeries { window_us, points })
    }

    /// Mean response time over all requests (ms), count-weighted.
    pub fn overall_mean_ms(&self) -> f64 {
        let total: u64 = self.points.iter().map(|p| p.count).sum();
        if total == 0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.mean_ms * p.count as f64)
            .sum::<f64>()
            / total as f64
    }

    /// The window with the largest maximum, if any.
    pub fn peak(&self) -> Option<&PitPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.max_ms.total_cmp(&b.max_ms))
    }

    /// Windows whose max exceeds `factor ×` the overall mean — the VLRT
    /// windows of Fig. 2 ("more than twenty times the average").
    pub fn vlrt_windows(&self, factor: f64) -> Vec<&PitPoint> {
        let mean = self.overall_mean_ms();
        if mean <= 0.0 {
            return Vec::new();
        }
        self.points
            .iter()
            .filter(|p| p.max_ms > factor * mean)
            .collect()
    }

    /// Restricts the series to `[from_us, to_us)`. Points are in
    /// ascending `start_us` order (the constructors guarantee it), so the
    /// two boundaries are binary-searched instead of scanning the series.
    pub fn slice(&self, from_us: i64, to_us: i64) -> PitSeries {
        let lo = self.points.partition_point(|p| p.start_us < from_us);
        let hi = self.points.partition_point(|p| p.start_us < to_us);
        PitSeries {
            window_us: self.window_us,
            points: self.points[lo..hi.max(lo)].to_vec(),
        }
    }

    /// `(start_us, max_ms)` pairs, the paper's plotted series.
    pub fn max_series(&self) -> Vec<(i64, f64)> {
        self.points.iter().map(|p| (p.start_us, p.max_ms)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::{Column, ColumnType, Schema, Value};

    #[test]
    fn buckets_and_stats() {
        let completions = vec![
            (10_000, 5.0),
            (40_000, 7.0),
            (60_000, 100.0), // second window: the VLRT
            (110_000, 6.0),
        ];
        let s = PitSeries::from_completions(&completions, 50_000);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].max_ms, 7.0);
        assert_eq!(s.points[0].mean_ms, 6.0);
        assert_eq!(s.points[1].max_ms, 100.0);
        let mean = s.overall_mean_ms();
        assert!((mean - 29.5).abs() < 1e-9);
        assert_eq!(s.peak().unwrap().start_us, 50_000);
    }

    #[test]
    fn vlrt_windows_detected() {
        let mut completions: Vec<(i64, f64)> = (0..100).map(|i| (i * 10_000, 5.0)).collect();
        completions.push((500_000, 300.0)); // 60x the 5 ms baseline
        let s = PitSeries::from_completions(&completions, 50_000);
        let vlrt = s.vlrt_windows(20.0);
        assert_eq!(vlrt.len(), 1);
        assert_eq!(vlrt[0].start_us, 500_000);
        // With an absurd factor nothing qualifies.
        assert!(s.vlrt_windows(1000.0).is_empty());
    }

    fn event_table(rows: &[(Option<i64>, Option<i64>)]) -> Table {
        let schema = Schema::new(vec![
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_apache", schema);
        let cell = |x: Option<i64>| x.map_or(Value::Null, Value::Timestamp);
        for &(a, d) in rows {
            t.push_row(vec![cell(a), cell(d)]).unwrap();
        }
        t
    }

    #[test]
    fn from_event_table_computes_rt() {
        let t = event_table(&[
            (Some(1_000), Some(6_000)),
            (Some(10_000), Some(12_000)),
            (None, Some(20_000)), // skipped
            (Some(20_000), None), // skipped
        ]);
        let s = PitSeries::from_event_table(&t, 50_000, 0, 50_000).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].max_ms, 5.0);
        let empty = Table::new("x", Schema::default());
        assert!(PitSeries::from_event_table(&empty, 1, 0, 1).is_err());
    }

    #[test]
    fn from_event_table_keeps_the_windows_that_start_in_range() {
        let t = event_table(&[
            (Some(0), Some(10_000)),  // window 0 starts before `from`
            (Some(0), Some(60_000)),  // window 1
            (Some(0), Some(149_999)), // window 2
            (Some(0), Some(150_000)), // window 3 starts at `to`
        ]);
        let s = PitSeries::from_event_table(&t, 50_000, 30_000, 150_000).unwrap();
        let starts: Vec<i64> = s.points.iter().map(|p| p.start_us).collect();
        assert_eq!(starts, [50_000, 100_000]);
        assert_eq!(
            s,
            PitSeries::from_completions(&[(60_000, 60.0), (149_999, 149.999)], 50_000)
        );
        assert!(PitSeries::from_event_table(&t, 50_000, 150_000, 150_000)
            .unwrap()
            .points
            .is_empty());
        assert!(PitSeries::from_event_table(&t, 50_000, 100_000, 0)
            .unwrap()
            .points
            .is_empty());
    }

    #[test]
    fn inverted_row_is_dropped_as_the_queue_drops_it() {
        let t = event_table(&[(Some(1_000), Some(6_000)), (Some(30_000), Some(5_000))]);
        let s = PitSeries::from_event_table(&t, 50_000, 0, 50_000).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].count, 1);
        assert_eq!(s.points[0].mean_ms, 5.0);
    }

    #[test]
    fn negative_arrival_near_i64_min_is_dropped_without_overflow() {
        let t = event_table(&[(Some(i64::MIN + 5), Some(1_000)), (Some(0), Some(2_000))]);
        let s = PitSeries::from_event_table(&t, 50_000, 0, 50_000).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].count, 1);
        assert_eq!(s.points[0].max_ms, 2.0);
    }

    #[test]
    fn window_whose_start_overflows_is_dropped() {
        let s = PitSeries::from_completions(&[(i64::MIN + 1, 1.0), (0, 2.0)], 50_000);
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].start_us, 0);
        // A window that starts exactly at `i64::MIN` fits and is kept.
        let s = PitSeries::from_completions(&[(i64::MIN + 1, 1.0)], 1 << 20);
        assert_eq!(s.points[0].start_us, i64::MIN);
        let s = PitSeries::from_completions(&[(i64::MAX, 3.0)], 50_000);
        assert_eq!(s.points[0].start_us, i64::MAX / 50_000 * 50_000);
    }

    #[test]
    fn slice_is_half_open() {
        let s = PitSeries::from_completions(&[(0, 1.0), (50_000, 1.0), (100_000, 1.0)], 50_000);
        let cut = s.slice(0, 100_000);
        assert_eq!(cut.points.len(), 2);
    }

    #[test]
    fn empty_series_behaves() {
        let s = PitSeries::from_completions(&[], 1000);
        assert_eq!(s.overall_mean_ms(), 0.0);
        assert!(s.peak().is_none());
        assert!(s.vlrt_windows(10.0).is_empty());
        assert!(s.max_series().is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        PitSeries::from_completions(&[], 0);
    }
}
