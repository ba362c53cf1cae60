//! # mscope-monitors — event & resource mScopeMonitors, SysViz tap
//!
//! The monitoring layer of the milliScope reproduction (paper §III-A, §IV):
//!
//! * [`EventMonitor`] — per-node event mScopeMonitors that render the four
//!   execution-boundary timestamps (UA/UD/DS/DR) and the propagated request
//!   ID into each component server's *native* log format (Apache access
//!   log, Tomcat valve log, C-JDBC controller log, MySQL general query log
//!   with `/*ID=…*/` comments).
//! * [`ResourceMonitor`] — emulated SAR / IOstat / Collectl monitors that
//!   sample node counters at sub-second periods and write faithfully
//!   idiosyncratic text / CSV / XML logs.
//! * [`SysVizTap`] — the passive network-tap reconstructor standing in for
//!   Fujitsu SysViz, used as independent ground truth for accuracy
//!   validation (Fig. 9). It folds each wire message into its transaction
//!   as the message arrives.
//! * [`MonitorStream`] — the one driver of all three: feed it [`Record`]s
//!   as they arrive (e.g. a finished run replayed in place by
//!   [`merged_records`]) and finish into a [`LogStore`] of native logs,
//!   the manifest that seeds the transformer's parsing declarations, and
//!   the tap's trace.
//! * [`MonitorSuite`] — the deployment plan. [`MonitorSuite::render`]
//!   runs a finished run's records through one [`MonitorStream`].
//! * [`OverheadReport`] — the enabled-vs-disabled overhead comparison
//!   behind Figs. 10–11.
//!
//! ## Example
//!
//! ```
//! use mscope_monitors::MonitorSuite;
//! use mscope_ntier::{Simulator, SystemConfig};
//! use mscope_sim::SimDuration;
//!
//! let mut cfg = SystemConfig::rubbos_baseline(50);
//! cfg.duration = SimDuration::from_secs(4);
//! cfg.warmup = SimDuration::from_secs(1);
//! let out = Simulator::new(cfg)?.run();
//! let artifacts = MonitorSuite::standard(&out.config).render(&out);
//! assert!(artifacts.store.len() > 0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(
    clippy::iter_over_hash_type,
    clippy::needless_collect,
    clippy::redundant_clone
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::iter_over_hash_type,
        clippy::needless_collect,
        clippy::redundant_clone
    )
)]
#![warn(missing_docs)]

mod event;
mod logstore;
mod overhead;
mod resource;
mod shape;
mod stream;
mod suite;
mod sysviz;

pub use event::EventMonitor;
pub use logstore::LogStore;
pub use overhead::{NodeOverhead, OverheadReport};
pub use resource::{ResourceMonitor, Tool};
pub use shape::{
    event_clock_domain, event_rendered_fields, propagates_request_id, resource_clock_domain,
    resource_rendered_fields, ValueShape, CLOCK_DOMAIN,
};
pub use stream::{merge_records, merged_records, MonitorStream, Record, ResourceMonitorState};
pub use suite::{topology_nodes, LogFileMeta, MonitorKind, MonitorSuite, MonitoringArtifacts};
pub use sysviz::{SysVizSpan, SysVizTap, SysVizTrace, SysVizTransaction};
