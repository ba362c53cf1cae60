//! The job dispenser behind [`parallel_map`](crate::parallel_map): an
//! atomic index counter over a fixed job list.
//!
//! Indices are handed out in strictly increasing, contiguous order, and a
//! worker always finishes a job it claimed, so every job `0..total` runs
//! exactly once whatever the worker count.

#![expect(
    clippy::disallowed_types,
    reason = "the pool's job counter: it hands out indices, and results merge in job order (DT005)"
)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// An atomic index dispenser over `total` jobs.
///
/// # Examples
///
/// ```
/// use mscope_sim::WorkQueue;
///
/// let q = WorkQueue::new(2);
/// assert_eq!(q.take(), Some(0));
/// assert_eq!(q.take(), Some(1));
/// assert_eq!(q.take(), None);
/// ```
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
}

impl WorkQueue {
    /// A queue over jobs `0..total`.
    pub fn new(total: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next job index, or `None` when the queue is drained. A
    /// claimed job must be completed — later jobs may already have been
    /// claimed by other workers.
    pub fn take(&self) -> Option<usize> {
        // Relaxed: the counter publishes no other data; results travel
        // through the caller's own synchronisation.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn dispenses_each_index_once_in_order() {
        let q = WorkQueue::new(5);
        let taken: Vec<usize> = std::iter::from_fn(|| q.take()).collect();
        assert_eq!(taken, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.take(), None, "drained");
    }

    #[test]
    fn concurrent_take_is_a_partition() {
        let q = WorkQueue::new(1000);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(i) = q.take() {
                        local.push(i);
                    }
                    match seen.lock() {
                        Ok(mut g) => g.extend(local),
                        Err(p) => p.into_inner().extend(local),
                    }
                });
            }
        });
        let mut all = match seen.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
