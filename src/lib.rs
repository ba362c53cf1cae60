//! # milliScope — a millisecond-granularity monitoring framework for n-tier
//! web services
//!
//! A from-scratch Rust reproduction of *milliScope: a Fine-Grained
//! Monitoring Framework for Performance Debugging of n-Tier Web Services*
//! (Lai, Kimball, Zhu, Wang, Pu — ICDCS 2017).
//!
//! This crate is the facade: it re-exports the whole workspace so an
//! application can depend on `milliscope` alone. The pieces, bottom-up:
//!
//! | Crate | Paper artifact |
//! |---|---|
//! | [`sim`] | discrete-event kernel (time, events, RNG, statistics) |
//! | [`ntier`] | the simulated 4-tier RUBBoS testbed + VSB scenarios |
//! | [`monitors`] | event & resource mScopeMonitors, SysViz tap |
//! | [`transform`] | mScopeDataTransformer (parsers → typed columns → load) |
//! | [`db`] | mScopeDB dynamic data warehouse |
//! | [`analysis`] | PIT response time, queues, causal paths, detectors |
//! | [`core`] | `Experiment` → `MilliScope` → `diagnose` end to end |
//!
//! ## Quickstart
//!
//! ```
//! use milliscope::core::{DiagnoseOptions, Experiment, MilliScope};
//! use milliscope::core::scenarios::{calibrated_db_io, shorten};
//! use milliscope::sim::SimDuration;
//!
//! // Reproduce scenario A at test scale: DB log flush every ~3 s.
//! let cfg = shorten(calibrated_db_io(300, 3.0, 250.0), SimDuration::from_secs(15));
//! let output = Experiment::new(cfg)?.run();
//! let ms = MilliScope::ingest(&output)?;
//! let report = ms.diagnose(&DiagnoseOptions::default())?;
//! assert!(report.has_anomalies());
//! # Ok::<(), milliscope::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mscope_analysis as analysis;
pub use mscope_core as core;
pub use mscope_db as db;
pub use mscope_monitors as monitors;
pub use mscope_ntier as ntier;
pub use mscope_sim as sim;
pub use mscope_transform as transform;

/// Workspace version, for diagnostics.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_everything() {
        // Touch one symbol per subcrate so a broken re-export fails here.
        let _ = crate::sim::SimTime::ZERO;
        let _ = crate::ntier::TierKind::Apache;
        let _ = crate::monitors::LogStore::new();
        let _ = crate::transform::Tok::Ws;
        let _ = crate::db::Database::new();
        let _ = crate::analysis::PitSeries::default();
        let _ = crate::core::DiagnoseOptions::default();
        assert!(!crate::VERSION.is_empty());
    }
}
