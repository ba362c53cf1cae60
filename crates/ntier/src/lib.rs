//! # mscope-ntier — the simulated n-tier web service under test
//!
//! The milliScope paper (ICDCS 2017) evaluates its monitoring framework on a
//! physical 4-tier RUBBoS deployment (Apache → Tomcat → C-JDBC → MySQL).
//! This crate is the reproduction's stand-in for that testbed: a
//! deterministic discrete-event simulation of the same pipeline with
//! realistic queueing structure — bounded worker pools, synchronous
//! downstream calls that hold the caller's worker, multi-core CPUs, FCFS
//! disks, and a dirty-page memory model.
//!
//! It produces exactly the artifacts the real testbed would expose to
//! milliScope:
//!
//! * [`LifecycleEvent`]s — the four execution-boundary timestamps per
//!   request per tier (what event mScopeMonitors write to component logs);
//! * [`MessageEvent`]s — every wire message (what the SysViz network tap
//!   captures);
//! * [`ResourceSample`]s — periodic CPU/disk/memory/network counters (what
//!   SAR / IOstat / Collectl sample);
//! * [`RequestRecord`]s — ground truth for validation.
//!
//! Very short bottlenecks are first-class: the two headline scenarios from
//! the paper (§V) are built in as config presets —
//! [`SystemConfig::scenario_db_io`] (commit-log flush saturating the DB
//! disk) and [`SystemConfig::scenario_dirty_page`] (forced dirty-page
//! recycling saturating web/app CPUs) — plus the other root causes the
//! paper cites as [`InjectorSpec`] extensions (GC pauses, DVFS, hogs).
//!
//! ## Example
//!
//! ```
//! use mscope_ntier::{Simulator, SystemConfig};
//! use mscope_sim::SimDuration;
//!
//! let mut cfg = SystemConfig::rubbos_baseline(100);
//! cfg.duration = SimDuration::from_secs(5);
//! cfg.warmup = SimDuration::from_secs(2);
//! let out = Simulator::new(cfg)?.run();
//! println!("completed {} requests, mean RT {:.1} ms",
//!          out.stats.completed, out.stats.mean_rt_ms);
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

mod config;
mod engine;
mod record;
mod resources;
mod types;
mod workload;

pub use config::{
    ArrivalProcess, InjectorSpec, LogFlushConfig, MemoryConfig, MonitoringConfig, NetworkConfig,
    QueueDiscipline, SystemConfig, TierConfig, WorkloadConfig, WorkloadMix,
};
pub use engine::{Retention, RunDigest, RunOutput, RunStats, SimOptions, Simulator};
pub use record::{
    BoundaryKind, Endpoint, LifecycleEvent, MessageEvent, MsgKind, RequestRecord, ResourceSample,
    TierSpan,
};
pub use resources::{CpuModel, DiskModel, MemoryModel, PAGE_BYTES};
pub use types::{
    Interaction, InteractionSpec, NodeId, RequestId, RwKind, SessionId, TierId, TierKind,
    INTERACTIONS,
};
pub use workload::{Demand, Workload};
