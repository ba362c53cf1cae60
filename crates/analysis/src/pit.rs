//! Point-in-Time (PIT) response time — the paper's headline metric
//! (Fig. 2, Fig. 8a).
//!
//! The PIT series buckets completed requests into fixed windows (50 ms in
//! the paper's plots) and reports the *maximum* and mean response time per
//! window. Very long response time (VLRT) episodes appear as windows whose
//! maximum is one to two orders of magnitude above the run's average —
//! invisible to coarser, averaged monitoring.

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
    /// pairs. Windows are keyed by completion time, like the paper's plots.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is not positive.
    pub fn from_completions(completions: &[(i64, f64)], window_us: i64) -> PitSeries {
        assert!(window_us > 0, "window must be positive");
        // (max, sum, count) per window, folded in completion order: the
        // sum adds left to right from 0.0, as the warehouse's window fold does.
        let mut buckets: BTreeMap<i64, (f64, f64, u64)> = BTreeMap::new();
        for &(t, rt) in completions {
            let b = buckets
                .entry(t.div_euclid(window_us) * window_us)
                .or_insert((f64::NEG_INFINITY, 0.0, 0));
            *b = (b.0.max(rt), b.1 + rt, b.2 + 1);
        }
        let points = buckets
            .into_iter()
            .map(|(start_us, (max_ms, sum, count))| PitPoint {
                start_us,
                max_ms,
                mean_ms: sum / count as f64,
                count,
            })
            .collect();
        PitSeries { window_us, points }
    }

    /// Builds the series from a front-tier event table: response time is
    /// `ud − ua` per record (the paper: Apache's native timestamps already
    /// give each request's response time).
    ///
    /// Rows with null `ua`/`ud` are skipped.
    ///
    /// # Errors
    ///
    /// Returns an error string if the table lacks `ua`/`ud` columns.
    pub fn from_event_table(table: &Table, window_us: i64) -> Result<PitSeries, String> {
        let ua = table
            .column("ua")
            .ok_or_else(|| format!("table `{}` has no `ua` column", table.name()))?;
        let ud = table
            .column("ud")
            .ok_or_else(|| format!("table `{}` has no `ud` column", table.name()))?;
        let completions: Vec<(i64, f64)> = ua
            .iter()
            .zip(ud)
            .filter_map(|(a, d)| {
                let a = a.as_i64()?;
                let d = d.as_i64()?;
                Some((d, (d - a) as f64 / 1000.0))
            })
            .collect();
        Ok(Self::from_completions(&completions, window_us))
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

    #[test]
    fn from_event_table_computes_rt() {
        let schema = Schema::new(vec![
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_apache", schema);
        t.push_row(vec![Value::Timestamp(1_000), Value::Timestamp(6_000)])
            .unwrap();
        t.push_row(vec![Value::Timestamp(10_000), Value::Timestamp(12_000)])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Timestamp(20_000)])
            .unwrap(); // skipped
        let s = PitSeries::from_event_table(&t, 50_000).unwrap();
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].count, 2);
        assert_eq!(s.points[0].max_ms, 5.0);
        assert!(PitSeries::from_event_table(&Table::new("x", Schema::default()), 1).is_err());
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
