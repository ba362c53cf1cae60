//! # mscope-core — the milliScope framework facade
//!
//! Ties the whole reproduction together, end to end, the way the paper's
//! Fig. 3 draws it:
//!
//! 1. [`Experiment`] runs the simulated n-tier system under a
//!    [`MonitorSuite`](mscope_monitors::MonitorSuite), producing native
//!    monitor logs (event + resource) and the passive SysViz trace.
//! 2. [`MilliScope::ingest`] pushes those logs through
//!    mScopeDataTransformer into mScopeDB.
//! 3. The [`MilliScope`] handle answers the paper's analysis questions —
//!    Point-in-Time response time, per-tier queue lengths, causal paths,
//!    resource series — and [`MilliScope::diagnose`] automates the §V
//!    methodology from anomaly to named root cause.
//!
//! ## Example: diagnosing a very short bottleneck
//!
//! ```
//! use mscope_core::{DiagnoseOptions, Experiment, MilliScope};
//! use mscope_ntier::SystemConfig;
//! use mscope_sim::SimDuration;
//!
//! // Scenario A: the database's commit-log flush stalls the whole pipeline.
//! let mut cfg = SystemConfig::scenario_db_io(300);
//! cfg.duration = SimDuration::from_secs(15);
//! cfg.warmup = SimDuration::from_secs(3);
//! cfg.tiers[3].log_flush.as_mut().unwrap().buffer_threshold = 256 << 10;
//! cfg.tiers[3].log_flush.as_mut().unwrap().flush_rate = 1.5e6;
//!
//! let output = Experiment::new(cfg)?.run();
//! let ms = MilliScope::ingest(&output)?;
//! let report = ms.diagnose(&DiagnoseOptions::default())?;
//! for ep in &report.episodes {
//!     println!("{:.0} ms episode: {}", ep.episode.duration_ms(),
//!              ep.root_cause.describe());
//! }
//! # Ok::<(), mscope_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(test, allow(clippy::cast_possible_wrap, clippy::cast_sign_loss))]
#![warn(missing_docs)]

mod bundle;
mod compare;
mod diagnose;
mod error;
mod experiment;
mod milliscope;
pub mod scenarios;
mod trace;

pub use bundle::{dump_bundle, ingest_bundle, CONFIG_FILE, MANIFEST_FILE};
pub use compare::RunComparison;
pub use diagnose::{DiagnoseOptions, DiagnosisReport, EpisodeDiagnosis, RootCause};
pub use error::CoreError;
pub use experiment::{Experiment, ExperimentOutput};
pub use milliscope::MilliScope;
pub use mscope_transform::RunOptions;
pub use trace::{export_chrome_trace, TraceExportOptions};
