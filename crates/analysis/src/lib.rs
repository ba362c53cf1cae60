//! # mscope-analysis — the analysis layer over mScopeDB
//!
//! Once mScopeDataTransformer has unified every monitor's logs into the
//! warehouse, this crate answers the paper's diagnostic questions:
//!
//! * [`PitSeries`] — Point-in-Time response time per window, whose maxima
//!   expose VLRT requests (Figs. 2, 8a);
//! * [`queue_from_event_table`] — exact per-tier instantaneous queue
//!   lengths derived from the four execution-boundary timestamps
//!   (Figs. 6, 8b, 9);
//! * [`reconstruct_flows`] — causal paths rebuilt by joining event tables
//!   on the propagated request ID, with happens-before validation and
//!   per-tier latency contributions (§IV-B, Fig. 5);
//! * [`detect_vsb`] / [`detect_pushback`] — very-short-bottleneck episodes
//!   and cross-tier queue pushback;
//! * [`rank_correlations`] — which resource series moves with the symptom
//!   (Fig. 7's disk-utilization ↔ queue-length correlation).
//!
//! ## Example
//!
//! ```
//! use mscope_analysis::PitSeries;
//!
//! // (completion_time_us, response_time_ms) pairs, e.g. from event logs:
//! // a steady 5 ms baseline plus one 250 ms outlier.
//! let mut completions: Vec<(i64, f64)> = (0..100).map(|i| (i * 10_000, 5.0)).collect();
//! completions.push((500_000, 250.0));
//! let pit = PitSeries::from_completions(&completions, 50_000);
//! let vlrt = pit.vlrt_windows(20.0);
//! assert_eq!(vlrt.len(), 1, "the 250 ms request stands out");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod correlate;
mod detect;
mod flow;
mod pit;
mod queue;
mod slo;

pub use breakdown::{error_rate, interaction_breakdown, tier_contribution, InteractionStats};
pub use correlate::{align, correlate, rank_correlations, CorrelationHit, WindowSeries};
pub use detect::{detect_pushback, detect_vsb, PushbackEpisode, VsbEpisode};
pub use flow::{reconstruct_flows, CausalViolation, FlowError, FlowHop, RequestFlow};
pub use pit::{PitPoint, PitSeries};
pub use queue::{
    intervals_from_event_table, queue_from_event_table, queue_series, queue_series_checked,
    Intervals,
};
pub use slo::{Slo, SloReport};
