//! Deterministic parallel fan-out over an indexed job list.
//!
//! [`parallel_map`] is the one fan-out primitive the workspace's parallel
//! stages share (transformer convert, warehouse scan, and now the sharded
//! n-tier simulator): jobs `0..jobs` are dispensed from a [`WorkQueue`],
//! executed on scoped worker threads, and the results are returned **in job
//! order** regardless of which worker ran which job or in what order they
//! finished. The worker count is a pure execution knob — it changes
//! wall-clock time, never the result vector — which is the property the
//! simulator's byte-identity gates are built on.

use crate::queue::WorkQueue;
use std::sync::Mutex;

/// Runs `f(0), f(1), …, f(jobs - 1)` on up to `workers` scoped threads and
/// returns the results in job order.
///
/// With `workers <= 1` (or a single job) everything runs inline on the
/// calling thread — no threads are spawned, no locks are taken — so a
/// serial run is not merely equivalent to a 1-worker parallel run, it *is*
/// the plain loop. More workers than jobs is fine; the extras exit
/// immediately.
///
/// # Examples
///
/// ```
/// use mscope_sim::parallel_map;
///
/// let serial = parallel_map(8, 1, |i| i * i);
/// let parallel = parallel_map(8, 4, |i| i * i);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial[3], 9);
/// ```
pub fn parallel_map<R, F>(jobs: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    fan_out(jobs, workers, f)
}

/// The threaded half of [`parallel_map`]. Kept out of line so the serial
/// path above stays a plain loop the compiler inlines into its caller:
/// sub-millisecond warehouse queries take that path on every call, and
/// with the thread scope in the same body they measured 6–11 % slower.
#[inline(never)]
fn fan_out<R, F>(jobs: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let queue = WorkQueue::new(jobs);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs) {
            s.spawn(|| {
                while let Some(i) = queue.take() {
                    let out = f(i);
                    // A worker panic poisons the mutex but the value is
                    // intact; take the guard either way so surviving
                    // workers still record their results.
                    match slots.lock() {
                        Ok(mut g) => g[i] = Some(out),
                        Err(p) => p.into_inner()[i] = Some(out),
                    }
                }
            });
        }
    });
    let filled = match slots.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    filled.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_job_order() {
        for workers in [1, 2, 3, 8, 33] {
            let out = parallel_map(17, workers, |i| i as u64 * 3 + 1);
            let expect: Vec<u64> = (0..17).map(|i| i as u64 * 3 + 1).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn each_job_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map(200, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 200);
        assert_eq!(out.len(), 200);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }
}
