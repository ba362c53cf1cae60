//! The open-loop driver: chunks are *due* on a fixed schedule whether or
//! not the system keeps up, and every lag is timed from the due time.
//!
//! One step of the loop hands the system every chunk that is due and lets
//! it do one poll; the lag of each of those chunks is the time from when
//! it was due to when that poll returned. A stalled poll therefore
//! charges the chunks that became due behind it — the wait a stall
//! imposes on later input — instead of quietly slowing the generator
//! down, which is what a closed loop would do. The clock is injected so
//! the arithmetic is testable without sleeping.

use std::ops::Range;
use std::time::{Duration, Instant};

/// The time source the driver runs against.
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Blocks until at least `t` since the start.
    fn wait_until(&mut self, t: Duration);
}

/// The real clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    /// Spins instead of sleeping: a sleeping generator wakes when the
    /// scheduler gets round to it, and on a busy or virtualised host that
    /// lateness — not the system under test — would set the lag.
    fn wait_until(&mut self, t: Duration) {
        while self.0.elapsed() < t {
            std::hint::spin_loop();
        }
    }
}

/// `chunks` chunks, chunk `i` due at `i × interval`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval: Duration,
    /// Chunks to release.
    pub chunks: usize,
}

impl Schedule {
    /// The schedule that releases `chunk_records`-record chunks at
    /// `records_per_s`.
    pub fn at_rate(records_per_s: f64, chunk_records: usize, chunks: usize) -> Schedule {
        Schedule {
            interval: Duration::from_secs_f64(chunk_records as f64 / records_per_s),
            chunks,
        }
    }

    /// When chunk `i` is due.
    pub fn due(&self, i: usize) -> Duration {
        self.interval.mul_f64(i as f64)
    }

    /// How many chunks are due at `now` (chunk 0 is due at time zero).
    pub fn due_count(&self, now: Duration) -> usize {
        if self.interval.is_zero() {
            return self.chunks;
        }
        let n = (now.as_secs_f64() / self.interval.as_secs_f64()).floor() as usize + 1;
        n.min(self.chunks)
    }

    /// When the schedule ends: one interval after the last chunk is due,
    /// the instant a sustainable system has finished everything.
    pub fn end(&self) -> Duration {
        self.due(self.chunks)
    }
}

/// What one open-loop run observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopLog {
    /// Per chunk: seconds from its due time to the return of the poll
    /// that ingested it.
    pub lag_s: Vec<f64>,
    /// Per idle wake-up: seconds the generator woke after the due time it
    /// waited for.
    pub generator_late_s: Vec<f64>,
    /// Steps taken (one poll each).
    pub steps: usize,
    /// Chunks still unfinished when the schedule ended.
    pub end_backlog_chunks: usize,
    /// Seconds from schedule start to the last poll's return.
    pub elapsed_s: f64,
}

/// Runs `schedule` against `clock`. `step(range)` must hand the system
/// every chunk in `range` and then do exactly one poll.
///
/// # Errors
///
/// The first error `step` returns; the run stops there.
pub fn drive<C: Clock, E>(
    clock: &mut C,
    schedule: &Schedule,
    mut step: impl FnMut(Range<usize>) -> Result<(), E>,
) -> Result<OpenLoopLog, E> {
    let mut log = OpenLoopLog {
        lag_s: Vec::with_capacity(schedule.chunks),
        ..OpenLoopLog::default()
    };
    let end = schedule.end();
    let mut next = 0usize;
    while next < schedule.chunks {
        let mut due = schedule.due_count(clock.now());
        if due <= next {
            // Nothing is due: the generator idles until the next release,
            // and how late it wakes is its own error, reported separately.
            let target = schedule.due(next);
            clock.wait_until(target);
            let woke = clock.now();
            log.generator_late_s
                .push(woke.saturating_sub(target).as_secs_f64());
            due = schedule.due_count(woke).max(next + 1);
        }
        step(next..due)?;
        let done = clock.now();
        for i in next..due {
            log.lag_s
                .push(done.saturating_sub(schedule.due(i)).as_secs_f64());
            if done > end {
                log.end_backlog_chunks += 1;
            }
        }
        log.steps += 1;
        log.elapsed_s = done.as_secs_f64();
        next = due;
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when told to: `wait_until` jumps (plus an
    /// optional oversleep), and the step closure advances it by the poll
    /// cost through the shared handle.
    struct FakeClock {
        now: Rc<Cell<Duration>>,
        oversleep: Duration,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn wait_until(&mut self, t: Duration) {
            if t > self.now.get() {
                self.now.set(t + self.oversleep);
            }
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn run(
        schedule: Schedule,
        oversleep: Duration,
        poll_cost: impl Fn(usize) -> Duration,
    ) -> (OpenLoopLog, Vec<Range<usize>>) {
        let now = Rc::new(Cell::new(Duration::ZERO));
        let mut clock = FakeClock {
            now: Rc::clone(&now),
            oversleep,
        };
        let mut steps = Vec::new();
        let log = drive(&mut clock, &schedule, |r: Range<usize>| {
            now.set(now.get() + poll_cost(steps.len()));
            steps.push(r);
            Ok::<(), ()>(())
        })
        .unwrap();
        (log, steps)
    }

    #[test]
    fn schedule_arithmetic() {
        let s = Schedule::at_rate(1000.0, 10, 5);
        assert_eq!(s.interval, ms(10));
        assert_eq!(s.due(3), ms(30));
        assert_eq!(s.end(), ms(50));
        assert_eq!(s.due_count(Duration::ZERO), 1);
        assert_eq!(s.due_count(ms(9)), 1);
        assert_eq!(s.due_count(ms(10)), 2);
        assert_eq!(s.due_count(ms(1000)), 5);
    }

    #[test]
    fn a_system_that_keeps_up_lags_by_its_poll_time_only() {
        let s = Schedule {
            interval: ms(10),
            chunks: 4,
        };
        let (log, steps) = run(s, Duration::ZERO, |_| ms(3));
        assert_eq!(steps, vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(log.lag_s, vec![0.003; 4]);
        assert_eq!(log.end_backlog_chunks, 0);
        assert_eq!(log.steps, 4);
        assert!(log.generator_late_s.iter().all(|&l| l == 0.0));
        assert_eq!(log.elapsed_s, 0.033);
    }

    #[test]
    fn a_stalled_poll_charges_the_chunks_that_came_due_behind_it() {
        let s = Schedule {
            interval: ms(10),
            chunks: 5,
        };
        // The first poll stalls for 35 ms; chunks 1, 2 and 3 come due at
        // 10, 20 and 30 ms while it runs and are all handed to the second
        // poll, which returns at 37 ms.
        let (log, steps) = run(s, Duration::ZERO, |i| if i == 0 { ms(35) } else { ms(2) });
        assert_eq!(steps, vec![0..1, 1..4, 4..5]);
        let lag_ms: Vec<u64> = log.lag_s.iter().map(|l| (l * 1e3).round() as u64).collect();
        // Lag runs from the due time, not from when the generator got
        // round to releasing the chunk: 37-10, 37-20, 37-30.
        assert_eq!(lag_ms, vec![35, 27, 17, 7, 2]);
        assert_eq!(log.end_backlog_chunks, 0);
    }

    #[test]
    fn an_overloaded_system_ends_with_a_backlog() {
        let s = Schedule {
            interval: ms(10),
            chunks: 4,
        };
        // Every poll costs more than two intervals: the schedule ends at
        // 40 ms, the polls return at 25, 50 and 75 ms.
        let (log, steps) = run(s, Duration::ZERO, |_| ms(25));
        assert_eq!(steps, vec![0..1, 1..3, 3..4]);
        assert_eq!(log.end_backlog_chunks, 3);
        assert!(log.lag_s[3] > log.lag_s[0]);
    }

    #[test]
    fn generator_lateness_is_reported_and_still_charged_to_the_lag() {
        let s = Schedule {
            interval: ms(10),
            chunks: 3,
        };
        let (log, _) = run(s, ms(1), |_| ms(2));
        // Chunk 0 is due immediately (no wait); chunks 1 and 2 are waited
        // for and woken 1 ms late, and that millisecond is in their lag.
        assert_eq!(log.generator_late_s, vec![0.001, 0.001]);
        let lag_ms: Vec<u64> = log.lag_s.iter().map(|l| (l * 1e3).round() as u64).collect();
        assert_eq!(lag_ms, vec![2, 3, 3]);
    }

    #[test]
    fn a_failing_step_stops_the_run() {
        let s = Schedule {
            interval: ms(1),
            chunks: 3,
        };
        let mut clock = FakeClock {
            now: Rc::new(Cell::new(Duration::ZERO)),
            oversleep: Duration::ZERO,
        };
        let r = drive(&mut clock, &s, |_| Err::<(), &str>("poll failed"));
        assert_eq!(r, Err("poll failed"));
    }
}
