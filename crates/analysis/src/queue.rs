//! Per-tier instantaneous queue length ("concurrent requests"), derived
//! from the four execution-boundary timestamps — the metric behind Figs. 6,
//! 8b, and 9.
//!
//! A request is *in* a tier from its Upstream Arrival to its Upstream
//! Departure; the instantaneous queue length is the number of requests in
//! that interval. Because the event monitors log every request (no
//! sampling), the derived series is exact — the property the paper
//! contrasts with sampling tracers.

use mscope_db::Table;
use mscope_sim::{SimDuration, SimTime};

/// Residence intervals `(arrival_us, departure_us)`; `None` departure means
/// the request was still resident when observation ended.
pub type Intervals = Vec<(i64, Option<i64>)>;

/// The `(arrival_us, departure_us)` pairs of an event table's `ua`/`ud`
/// columns, read in place: rows with null `ua` are skipped, null `ud` →
/// still resident.
fn event_intervals(table: &Table) -> Result<impl Iterator<Item = (i64, Option<i64>)> + '_, String> {
    let ua = table
        .column("ua")
        .ok_or_else(|| format!("table `{}` has no `ua` column", table.name()))?;
    let ud = table
        .column("ud")
        .ok_or_else(|| format!("table `{}` has no `ud` column", table.name()))?;
    Ok(ua
        .iter()
        .zip(ud)
        .filter_map(|(a, d)| Some((a.as_i64()?, d.as_i64()))))
}

/// Extracts residence intervals from an event table (needs `ua` and `ud`
/// columns; rows with null `ua` are skipped, null `ud` → still resident).
///
/// # Errors
///
/// Returns an error string if the required columns are missing.
pub fn intervals_from_event_table(table: &Table) -> Result<Intervals, String> {
    Ok(event_intervals(table)?.collect())
}

/// `true` when an interval is well-formed: a non-negative arrival and, if
/// departed, a departure no earlier than the arrival. Corrupt intervals
/// (negative timestamps from a clock bug, `departure < arrival` from a
/// mangled log line) used to be silently clamped to zero, which both
/// invented phantom arrivals at t=0 and let inverted intervals inflate the
/// queue forever; they are dropped instead, and the callers that care get
/// the dropped count from [`queue_series_checked`].
fn interval_is_valid(a: i64, d: Option<i64>) -> bool {
    a >= 0 && d.is_none_or(|d| d >= a)
}

/// Folds intervals into the queue-length series over `[start, end)`: one
/// `(window_start_us, length)` point per `window`, the length sampled at
/// the window's *end* (deltas at exactly that instant included) — the
/// "instantaneous queue length per interval" of Figs. 6/8b/9. Corrupt
/// intervals are dropped (see [`queue_series_checked`] for the count).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn queue_series(
    intervals: &Intervals,
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> Vec<(i64, f64)> {
    queue_series_checked(intervals, start, end, window).0
}

/// [`queue_series`] plus the number of corrupt intervals that were dropped
/// (negative arrival/departure micros, or `departure < arrival`).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn queue_series_checked(
    intervals: &Intervals,
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> (Vec<(i64, f64)>, usize) {
    fold(intervals.iter().copied(), start, end, window)
}

/// The step fold behind every queue series. Only the running sum at window
/// ends is read, so a ±1 delta at instant `t` is counted into the first
/// window whose end is `≥ t` and one prefix sum over the window slots gives
/// every sample: one pass over the intervals, nothing ordered.
fn fold(
    intervals: impl Iterator<Item = (i64, Option<i64>)>,
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> (Vec<(i64, f64)>, usize) {
    assert!(!window.is_zero(), "window must be non-zero");
    // One window per started `window` of `[start, end)`; none if it is empty.
    let windows =
        (end.as_micros().saturating_sub(start.as_micros())).div_ceil(window.as_micros()) as usize;
    let (start, window) = (start.as_micros() as i64, window.as_micros() as i64);
    // Window `k` ends at `start + (k + 1)·window`; a delta later than the
    // last end is never read.
    let slot = |t: i64| {
        if t <= start + window {
            0
        } else {
            ((t - start - 1) / window) as usize
        }
    };
    let mut net = vec![0i64; windows];
    let mut dropped = 0usize;
    for (a, d) in intervals {
        if !interval_is_valid(a, d) {
            dropped += 1;
            continue;
        }
        if let Some(n) = net.get_mut(slot(a)) {
            *n += 1;
        }
        if let Some(n) = d.and_then(|d| net.get_mut(slot(d))) {
            *n -= 1;
        }
    }
    let mut len = 0i64;
    let points = net
        .iter()
        .zip(0i64..)
        .map(|(&n, k)| {
            len += n;
            (start + k * window, len as f64)
        })
        .collect();
    (points, dropped)
}

/// Convenience: queue series straight from an event table's `ua`/`ud`
/// columns, with no interval list in between.
///
/// # Errors
///
/// As [`intervals_from_event_table`].
pub fn queue_from_event_table(
    table: &Table,
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> Result<Vec<(i64, f64)>, String> {
    Ok(fold(event_intervals(table)?, start, end, window).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::{Column, ColumnType, Schema, Value};

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn values(points: &[(i64, f64)]) -> Vec<f64> {
        points.iter().map(|&(_, v)| v).collect()
    }

    #[test]
    fn queue_counts_overlapping_intervals() {
        let intervals: Intervals = vec![
            (0, Some(30_000)),
            (10_000, Some(40_000)),
            (20_000, Some(25_000)),
        ];
        let s = queue_series(&intervals, ms(0), ms(50), SimDuration::from_millis(10));
        // Window ends at 10,20,30,40,50 ms → values 2,3,2,1,0... careful:
        // deltas at exactly the window end are included.
        assert_eq!(values(&s), &[2.0, 3.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn open_interval_never_departs() {
        let intervals: Intervals = vec![(0, None)];
        let s = queue_series(&intervals, ms(0), ms(30), SimDuration::from_millis(10));
        assert!(values(&s).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn negative_timestamps_are_dropped_not_clamped() {
        // A negative arrival used to clamp to t=0, inventing a phantom
        // resident request from the start of observation.
        let intervals: Intervals = vec![(-5_000, Some(30_000)), (10_000, Some(40_000))];
        let (s, dropped) =
            queue_series_checked(&intervals, ms(0), ms(50), SimDuration::from_millis(10));
        assert_eq!(dropped, 1);
        assert_eq!(values(&s), &[1.0, 1.0, 1.0, 0.0, 0.0]);
        // The undamaged interval alone gives the same series.
        let clean: Intervals = vec![(10_000, Some(40_000))];
        assert_eq!(
            queue_series(&clean, ms(0), ms(50), SimDuration::from_millis(10)),
            s
        );
    }

    #[test]
    fn inverted_intervals_are_dropped_not_permanent() {
        // departure < arrival used to push -1 before +1, permanently
        // deflating then inflating the queue; the interval is corrupt and
        // must not contribute at all.
        let intervals: Intervals = vec![(30_000, Some(10_000)), (0, Some(20_000))];
        let (s, dropped) =
            queue_series_checked(&intervals, ms(0), ms(50), SimDuration::from_millis(10));
        assert_eq!(dropped, 1);
        assert_eq!(values(&s), &[1.0, 0.0, 0.0, 0.0, 0.0]);
        // A negative departure on an open-ended-looking row is also corrupt.
        let neg_dep: Intervals = vec![(0, Some(-1))];
        let (s2, dropped2) =
            queue_series_checked(&neg_dep, ms(0), ms(20), SimDuration::from_millis(10));
        assert_eq!(dropped2, 1);
        assert!(values(&s2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn intervals_from_table() {
        let schema = Schema::new(vec![
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_mysql", schema);
        t.push_row(vec![Value::Timestamp(5), Value::Timestamp(10)])
            .unwrap();
        t.push_row(vec![Value::Timestamp(7), Value::Null]).unwrap();
        t.push_row(vec![Value::Null, Value::Null]).unwrap();
        let ints = intervals_from_event_table(&t).unwrap();
        assert_eq!(ints, vec![(5, Some(10)), (7, None)]);
        assert!(intervals_from_event_table(&Table::new("x", Schema::default())).is_err());
    }

    #[test]
    fn queue_from_table_end_to_end() {
        let schema = Schema::new(vec![
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_mysql", schema);
        t.push_row(vec![Value::Timestamp(1_000), Value::Timestamp(9_000)])
            .unwrap();
        let s = queue_from_event_table(&t, ms(0), ms(20), SimDuration::from_millis(5)).unwrap();
        assert_eq!(values(&s), &[1.0, 0.0, 0.0, 0.0]);
    }
}
