//! # mscope-sim — discrete-event simulation kernel
//!
//! The foundation of the milliScope reproduction: a deterministic
//! discrete-event engine plus the numeric toolkit the higher layers share.
//!
//! The paper (*milliScope*, ICDCS 2017) evaluates its monitoring framework
//! on a physical 4-tier testbed. This workspace substitutes a simulator for
//! that testbed (see `DESIGN.md` §2); this crate is the simulator's kernel
//! and deliberately knows nothing about tiers, requests, or monitors — those
//! live in `mscope-ntier` and above.
//!
//! ## What's here
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time.
//! * [`EventQueue`] — deterministic future-event list with FIFO tie-breaking.
//! * [`SimRng`] — seeded RNG with the distributions workload models need;
//!   [`LogNormal`] / [`WeightedIndex`] are the same samplers with their
//!   parameters prepared once, for draws repeated in a hot loop.
//! * [`Summary`], [`pearson`], [`percentile`], [`rmse`] —
//!   statistics used by the analysis layer and the figure benches.
//! * [`WorkQueue`] / [`parallel_map`] — atomic job dispenser and the
//!   job-ordered parallel fan-out built on it, shared by every parallel
//!   stage in the workspace (transformer convert, warehouse scan, and the
//!   sharded n-tier simulator). The streaming spine needs no channel: it
//!   replays a finished run in place, on the calling thread.
//! * [`Fnv64`] — order-sensitive stream digest used to prove two event
//!   streams identical without retaining them.
//! * [`prop`] — the in-tree property-testing harness (seeded generation,
//!   shrink-by-halving) the workspace's invariant tests run on.
//!
//! ## Example
//!
//! ```
//! use mscope_sim::{EventQueue, SimDuration, SimRng, SimTime};
//!
//! // A tiny arrival loop: schedule 3 arrivals, process each.
//! #[derive(Debug)]
//! enum Ev { Arrival(u32) }
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut q = EventQueue::new();
//! let mut t = SimTime::ZERO;
//! for i in 0..3 {
//!     t += SimDuration::from_millis_f64(rng.exponential(10.0));
//!     q.schedule(t, Ev::Arrival(i));
//! }
//! let mut served = 0;
//! while let Some((_, Ev::Arrival(_))) = q.pop() {
//!     served += 1;
//! }
//! assert_eq!(served, 3);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

mod digest;
mod event;
mod par;
pub mod prop;
mod queue;
mod rng;
mod stats;
mod time;

pub use digest::Fnv64;
pub use event::EventQueue;
pub use par::parallel_map;
pub use queue::WorkQueue;
pub use rng::{LogNormal, SimRng, WeightedIndex};
pub use stats::{pearson, percentile, rmse, Summary};
pub use time::{parse_wallclock, push_wallclock, wallclock, SimDuration, SimTime};
