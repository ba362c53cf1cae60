//! # mscope-db — the mScopeDB dynamic data warehouse
//!
//! The paper's mScopeDB (§III-C) persists all monitoring data in one place:
//! **four static tables** of loading-metadata (experiments, nodes, monitors,
//! log files) and **dynamically created tables** — one per monitor data
//! stream — whose schemas mScopeDataTransformer infers bottom-up from the
//! logs themselves.
//!
//! This crate implements that warehouse in-memory:
//!
//! * [`Value`] / [`ColumnType`] — cell values and the type-inference
//!   lattice ("narrowest type that stores all values wins");
//! * [`Schema`] / [`Table`] — columnar tables with checked inserts;
//! * query layer — [`Predicate`] filters, fixed-window aggregation
//!   ([`AggFn`]), hash joins and sorting as [`Table`] verbs; projection,
//!   grouping and everything else through the one SQL executor
//!   ([`Database::query`]);
//! * compiled engine — [`CompiledPredicate`] (names/values bound once per
//!   query), per-block zone maps with a sorted-timestamp flag,
//!   [`KeyIndex`] hash joins, and a deterministic parallel block scan;
//!   the naive row-at-a-time evaluators remain as reference oracles
//!   ([`Table::filter_naive`], [`Table::inner_join_naive`]);
//! * [`Database`] — the warehouse with static + dynamic tables.
//!
//! ## Example
//!
//! ```
//! use mscope_db::{AggFn, Column, ColumnType, Database, Predicate, Schema, Value};
//!
//! let mut db = Database::new();
//! db.create_table("disk", Schema::new(vec![
//!     Column::new("time_us", ColumnType::Int),
//!     Column::new("node", ColumnType::Text),
//!     Column::new("util", ColumnType::Float),
//! ])?)?;
//! db.insert("disk", vec![Value::Int(0), "mysql0".into(), Value::Float(99.0)])?;
//! db.insert("disk", vec![Value::Int(50_000), "mysql0".into(), Value::Float(97.0)])?;
//!
//! // Which node saturated its disk?
//! let hot = db.require("disk")?
//!     .filter(&Predicate::Gt("util".into(), Value::Float(90.0)));
//! assert_eq!(hot.row_count(), 2);
//!
//! // 100 ms windowed max.
//! let series = db.require("disk")?.window_agg("time_us", 100_000, "util", AggFn::Max)?;
//! assert_eq!(series, vec![(0, 99.0)]);
//! # Ok::<(), mscope_db::DbError>(())
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

mod db;
mod engine;
mod error;
mod plan;
mod query;
pub mod sql;
mod table;
mod value;
mod vector;

pub use db::{Database, STATIC_TABLES};
pub use engine::{CompiledPredicate, KeyIndex, DEFAULT_BLOCK_ROWS, PARALLEL_MIN_ROWS};
pub use error::DbError;
pub use query::{AggFn, Predicate};
pub use sql::QueryOptions;
pub use table::{Column, Schema, Table};
pub use value::{ColumnType, Value, ValueKey};
