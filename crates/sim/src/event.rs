//! Deterministic discrete-event queue.
//!
//! The kernel is intentionally minimal: a time-ordered priority queue with
//! FIFO tie-breaking, plus a clock. Domain crates (the n-tier simulator)
//! define their own event payload type and drive the loop themselves, which
//! keeps this crate free of any knowledge about tiers, requests, or monitors.
//!
//! ## Two levels
//!
//! A simulation's pending events are mostly far away: every idle client of
//! a closed-loop workload has one think-time event seconds ahead, while the
//! events that fire next (network hops, CPU bursts) are scheduled a few
//! hundred microseconds before they run. Sifting both through one binary
//! heap makes every push and pop pay for the depth of the idle population.
//!
//! So time is cut into fixed-width buckets and only the *opened* ones —
//! every bucket up to the one the clock is in — are kept sorted, in a
//! small heap. An event for a later bucket is parked, unsorted, on the
//! chain of that bucket's slot in a ring; an event beyond the ring's span
//! waits in an overflow heap and moves into the ring as the ring turns.
//! When the sorted heap runs dry the next non-empty bucket is opened:
//! poured into the heap, its entries handed back for the next events
//! parked, whichever bucket they are for.
//!
//! Two invariants make this indistinguishable from one big heap:
//!
//! * every event in the sorted heap precedes the *horizon* (the start of
//!   the first unopened bucket), and every parked event is at or after it,
//!   so the heap's minimum is the global minimum whenever the heap is not
//!   empty;
//! * events of one instant share a bucket, so they are in the sorted heap
//!   together — whether they were poured or scheduled after the bucket was
//!   opened — and the heap orders them by sequence number. FIFO ties
//!   survive.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the bucket width in microseconds: 8.192 ms. At the event rate
/// of a loaded simulated tier pipeline (tens of thousands per simulated
/// second) an opened bucket holds a few hundred events, so the sorted heap
/// stays within the first cache levels.
///
/// A constant, not a parameter: the width moves cost between pouring and
/// sifting but never changes what is popped, and no caller has a reason
/// to pick differently from another.
const BUCKET_SHIFT: u32 = 13;
/// log2 of the number of ring slots: with [`BUCKET_SHIFT`] the ring spans
/// 67 s, beyond all but a sliver of a 7 s-mean exponential think time.
const RING_SHIFT: u32 = 13;
const RING_SLOTS: u64 = 1 << RING_SHIFT;
/// End of a chain of parked events.
const NIL: u32 = u32::MAX;

/// The bucket an instant falls in.
#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

/// An event scheduled for execution, as stored inside [`EventQueue`].
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // event surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A parked event and the next one of its bucket (or, once poured, of the
/// free list).
#[derive(Debug, Clone)]
struct Parked<E> {
    ev: Option<Scheduled<E>>,
    next: u32,
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant are delivered in the order they were
/// scheduled (FIFO), which — together with a seeded RNG — makes every
/// simulation run bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use mscope_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(10), "b");
/// q.schedule(SimTime::from_millis(5), "a");
/// q.schedule(SimTime::from_millis(10), "c");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Events of opened buckets, sorted: all precede the horizon.
    heap: BinaryHeap<Scheduled<E>>,
    /// The first unopened bucket; the horizon is its start.
    next_bucket: u64,
    /// Buckets `next_bucket .. next_bucket + RING_SLOTS`, bucket `b` in slot
    /// `b % RING_SLOTS`: the head of a chain through `slab` ([`NIL`] when
    /// empty). Allocated on first use.
    ring: Vec<u32>,
    /// Storage of every parked event. One vector for all buckets, its
    /// entries recycled through `free`: parking allocates nothing in steady
    /// state and the footprint is the most events ever parked at once. (A
    /// `Vec` per bucket either keeps each slot's capacity — ring slots ×
    /// the fullest bucket, resident — or frees thousands of small chunks
    /// that fragment the heap for whatever the process does next; both
    /// measured, EXPERIMENTS.md.)
    slab: Vec<Parked<E>>,
    /// Head of the chain of vacant `slab` entries.
    free: u32,
    /// Events parked in `ring`.
    parked: usize,
    /// Events at or beyond bucket `next_bucket + RING_SLOTS`.
    far: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_bucket: 0,
            ring: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            parked: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for execution at the absolute instant `at`.
    ///
    /// Scheduling into the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event fires "now" (the queue
    /// never travels backwards).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
        let ev = Scheduled {
            at: at.max(self.now),
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        let bucket = bucket_of(ev.at);
        if bucket < self.next_bucket {
            self.heap.push(ev);
        } else if bucket - self.next_bucket < RING_SLOTS {
            self.park(bucket, ev);
        } else {
            self.far.push(ev);
        }
    }

    /// Parks an event of a bucket inside the ring's span.
    fn park(&mut self, bucket: u64, ev: Scheduled<E>) {
        if self.ring.is_empty() {
            self.ring.resize(RING_SLOTS as usize, NIL);
        }
        let head = &mut self.ring[(bucket % RING_SLOTS) as usize];
        let node = Parked {
            ev: Some(ev),
            next: *head,
        };
        *head = if self.free == NIL {
            assert!(
                self.slab.len() < NIL as usize,
                "more than 2^32 parked events"
            );
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let vacant = self.free;
            self.free = std::mem::replace(&mut self.slab[vacant as usize], node).next;
            vacant
        };
        self.parked += 1;
    }

    /// Moves every overflow event the ring's span now covers into its slot.
    fn turn_ring(&mut self) {
        while let Some(first) = self.far.peek() {
            let bucket = bucket_of(first.at);
            if bucket - self.next_bucket >= RING_SLOTS {
                break;
            }
            let Some(ev) = self.far.pop() else { break };
            self.park(bucket, ev);
        }
    }

    /// Opens the next non-empty bucket into the (empty) sorted heap.
    /// Returns `false` when nothing is parked anywhere.
    fn open_next(&mut self) -> bool {
        if self.parked == 0 {
            // Nothing between the horizon and the overflow heap: turn the
            // ring straight to the overflow's first bucket.
            let Some(first) = self.far.peek() else {
                return false;
            };
            self.next_bucket = bucket_of(first.at);
            self.turn_ring();
        }
        // Something is parked, so a slot within one turn is non-empty.
        loop {
            let slot = (self.next_bucket % RING_SLOTS) as usize;
            let mut at = std::mem::replace(&mut self.ring[slot], NIL);
            self.next_bucket += 1;
            self.turn_ring();
            if at == NIL {
                continue;
            }
            while at != NIL {
                let node = &mut self.slab[at as usize];
                if let Some(ev) = node.ev.take() {
                    self.heap.push(ev);
                }
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = at;
                self.parked -= 1;
                at = next;
            }
            return true;
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Like [`pop`](EventQueue::pop), but leaves the next event in place
    /// (and the clock where it is) and returns `None` if that event is
    /// later than `end` — the loop condition of a run with a fixed horizon.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(SimTime::from_millis(5), "in");
    /// q.schedule(SimTime::from_millis(50), "out");
    /// let end = SimTime::from_millis(10);
    /// assert_eq!(q.pop_until(end), Some((SimTime::from_millis(5), "in")));
    /// assert_eq!(q.pop_until(end), None);
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        if self.heap.is_empty() && !self.open_next() {
            return None;
        }
        if self.heap.peek()?.at > end {
            return None;
        }
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        Some((ev.at, ev.payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(first) = self.heap.peek() {
            return Some(first.at);
        }
        if self.parked == 0 {
            return self.far.peek().map(|e| e.at);
        }
        let head = (self.next_bucket..self.next_bucket + RING_SLOTS)
            .map(|b| self.ring[(b % RING_SLOTS) as usize])
            .find(|&head| head != NIL)?;
        std::iter::successors(self.slab.get(head as usize), |node| {
            self.slab.get(node.next as usize)
        })
        .filter_map(|node| node.ev.as_ref())
        .map(|ev| ev.at)
        .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.parked + self.far.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress/work metric).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.schedule(SimTime::from_millis(10), ());
        q.schedule(SimTime::from_millis(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
    }

    #[test]
    fn schedule_while_draining() {
        // Events scheduled from inside the loop (the normal pattern) are
        // interleaved correctly.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 5 {
                q.schedule(t + SimDuration::from_millis(1), e + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.scheduled_count(), 1);
    }

    #[test]
    fn peek_and_len_see_parked_and_overflow_events() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros((RING_SLOTS + 3) << BUCKET_SHIFT);
        q.schedule(far, "far");
        assert_eq!((q.len(), q.peek_time()), (1, Some(far)));
        let near = SimTime::from_millis(40);
        q.schedule(near + SimDuration::from_micros(7), "later in the bucket");
        q.schedule(near, "near");
        assert_eq!((q.len(), q.peek_time()), (3, Some(near)));
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_until_stops_at_the_horizon_without_moving_the_clock() {
        let mut q = EventQueue::new();
        let end = SimTime::from_millis(10);
        q.schedule(SimTime::from_millis(3), 1);
        q.schedule(end, 2);
        q.schedule(end + SimDuration::from_micros(1), 3);
        assert_eq!(q.pop_until(end), Some((SimTime::from_millis(3), 1)));
        assert_eq!(q.pop_until(end), Some((end, 2)), "`end` itself is inside");
        assert_eq!(q.pop_until(end), None);
        assert_eq!((q.now(), q.len()), (end, 1));
        // The refused event is still there, and still in order with one
        // scheduled after the refusal.
        q.schedule(end, 4);
        assert_eq!(q.pop(), Some((end, 4)));
        assert_eq!(q.pop(), Some((end + SimDuration::from_micros(1), 3)));
        assert_eq!(q.pop_until(SimTime::MAX), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::prop::{forall, Gen};
    use crate::prop_ensure;
    use std::cmp::Reverse;

    /// Popping always yields non-decreasing timestamps, FIFO within an
    /// instant, and exactly the scheduled events — for any schedule.
    #[test]
    fn pops_sorted_and_complete() {
        forall("event queue pops sorted and complete", 256, |g| {
            let times = g.vec(1..=199, |g| g.u64(0..=9_999));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut popped = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, id)) = q.pop() {
                prop_ensure!(t >= last, "time went backwards");
                last = t;
                popped.push((t, id));
            }
            prop_ensure!(popped.len() == times.len(), "lost events");
            // FIFO within equal timestamps: ids ascending.
            for w in popped.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_ensure!(w[0].1 < w[1].1, "FIFO violated at {:?}", w[0].0);
                }
            }
            Ok(())
        });
    }

    /// A delay that lands where the two-level layout has a seam: the same
    /// instant, the rest of the open bucket, an exact bucket boundary, a
    /// parked bucket, the ring's last bucket and first bucket beyond it,
    /// and the deep overflow tail.
    fn seam_delay(g: &mut Gen, now: u64) -> u64 {
        let width = 1u64 << BUCKET_SHIFT;
        let span = RING_SLOTS << BUCKET_SHIFT;
        let to_boundary = width - now % width;
        match g.usize(0..=7) {
            0 => 0,
            1 => g.u64(0..=width),
            2 => to_boundary - 1,
            3 => to_boundary + width * g.u64(0..=3),
            4 => g.u64(0..=40 * width),
            5 => to_boundary + span - width * g.u64(0..=2) - g.u64(0..=1),
            6 => span + g.u64(0..=3 * width),
            _ => g.u64(span..=20 * span),
        }
    }

    /// The two-level queue against the structure it replaced: one binary
    /// heap over `(at, seq)`. Random interleavings of `schedule` and
    /// `pop`/`pop_until`, with delays drawn from [`seam_delay`], bursts at
    /// one instant, scheduling at `now` mid-drain, and queues that run
    /// empty and refill, must pop the same `(time, id)` sequence and agree
    /// on `len`, `peek_time`, `now` and `scheduled_count` after every step —
    /// and never hold more parked-event storage than events were pending.
    #[test]
    fn matches_a_single_binary_heap() {
        forall("two-level queue == one binary heap", 200, |g| {
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut most_pending = 0;
            let drain_bias = g.usize(1..=3);
            for _ in 0..g.usize(1..=400) {
                if g.usize(0..=3) >= drain_bias {
                    let at = now + seam_delay(g, now);
                    for _ in 0..g.usize(1..=3) {
                        q.schedule(SimTime::from_micros(at), next_id);
                        model.push(Reverse((at, next_id)));
                        next_id += 1;
                    }
                } else {
                    let end = if g.bool() {
                        u64::MAX
                    } else {
                        now + seam_delay(g, now)
                    };
                    let want = match model.peek() {
                        Some(&Reverse((at, _))) if at <= end => model.pop().map(|r| r.0),
                        _ => None,
                    };
                    let got = q.pop_until(SimTime::from_micros(end));
                    let got = got.map(|(t, id)| (t.as_micros(), id));
                    prop_ensure!(got == want, "popped {got:?}, the heap pops {want:?}");
                    if let Some((at, _)) = want {
                        now = at;
                    }
                }
                prop_ensure!(q.len() == model.len(), "len {} vs {}", q.len(), model.len());
                prop_ensure!(q.is_empty() == model.is_empty(), "is_empty");
                let first = model.peek().map(|r| SimTime::from_micros(r.0 .0));
                prop_ensure!(q.peek_time() == first, "peek {:?}", q.peek_time());
                prop_ensure!(q.now().as_micros() == now, "clock {:?}", q.now());
                prop_ensure!(q.scheduled_count() == next_id, "scheduled_count");
                // Poured entries are reused before the slab grows.
                most_pending = most_pending.max(model.len());
                prop_ensure!(
                    q.slab.len() <= most_pending,
                    "{} slab entries for at most {most_pending} pending events",
                    q.slab.len()
                );
            }
            while let Some(Reverse(want)) = model.pop() {
                let got = q.pop().map(|(t, id)| (t.as_micros(), id));
                prop_ensure!(got == Some(want), "drain popped {got:?}, want {want:?}");
            }
            prop_ensure!(q.pop().is_none() && q.is_empty(), "queue outlived the heap");
            Ok(())
        });
    }
}
