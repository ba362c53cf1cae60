//! # mscope-transform — mScopeDataTransformer
//!
//! The multi-stage log transformation pipeline of the paper's §III-B and
//! Fig. 3, stage for stage:
//!
//! 1. **Parsing declaration** ([`declaration_for`], [`ParsingDeclaration`])
//!    — maps every log file to its mScopeParser plus instructions: either
//!    *line-sequence* rules (block formats like Collectl's brief mode) or
//!    *string-token* patterns ([`Pattern`], the in-repo scanf-style engine).
//! 2. **Adding semantics** — parsers turn each log line into an entry of
//!    semantic `(field, raw value)` pairs; the upgraded SAR's XML output
//!    takes the direct [`XmlMapping`] path instead.
//!    [`ParsingDeclaration::execute`] renders a file's entries as the
//!    paper's annotated XML ([`XmlNode`]: one `<entry>` per line, one child
//!    tag per field).
//! 3. **XML → typed rows** (the paper's XMLtoCSV converter) — bottom-up
//!    schema inference: column set = union of all tags, column type =
//!    narrowest lattice type admitting every value; produces typed cells
//!    directly. [`convert_xml`] is that stage over annotated XML
//!    ([`ConvertedTable`]). The paper's CSV text is not reproduced: it was
//!    an export no caller used.
//! 4. **Data import** ([`import_rows`]) — creates mScopeDB tables on the
//!    fly and batch-loads the tuples, registering monitor / log-file
//!    metadata in the static tables.
//!
//! Annotated XML is an **export artifact** here: the public stage
//! functions above still produce and consume it, and loading through them
//! is the oracle the driver's warehouse is held to, but the driver builds
//! none of it on its load path.
//!
//! One driver runs the stages, and it owns no rule.
//! [`StreamingTransformer`] tails a monitor manifest's files while they
//! grow: each poll feeds every file's new entries, as the parsers emit
//! them, into a columnar sink of its own, which types each cell as it
//! arrives under its column's type so far, and appends the typed rows to
//! their tables. The CPU-bound parse fans out per declaration over
//! `mscope_sim`'s worker pool; the warehouse loads stay serial and in
//! table order. [`DataTransformer`] holds the declarations, and its
//! [`run_with`](DataTransformer::run_with) is the batch ingest: one
//! at-end drain of that driver over finished files ([`RunOptions`] is the
//! worker count).
//!
//! What a line means (the staged ladder, the XML entry mapper, the order
//! of an entry's fields) is defined once in [`declare`]; what a table's
//! schema is (the inference fold) and how its cells are typed (the sink)
//! once beside [`convert_xml`]. The shared core hands each entry to an
//! `emit` callback as borrowed pairs — the driver appends them to a sink,
//! `execute` wraps them in an `<entry>`.
//!
//! ## Example
//!
//! ```
//! use mscope_db::Database;
//! use mscope_monitors::MonitorSuite;
//! use mscope_ntier::{Simulator, SystemConfig};
//! use mscope_sim::SimDuration;
//! use mscope_transform::DataTransformer;
//!
//! let mut cfg = SystemConfig::rubbos_baseline(40);
//! cfg.duration = SimDuration::from_secs(3);
//! cfg.warmup = SimDuration::from_secs(1);
//! let out = Simulator::new(cfg).map_err(Box::<dyn std::error::Error>::from)?.run();
//! let art = MonitorSuite::standard(&out.config).render(&out);
//!
//! let mut db = Database::new();
//! let report = DataTransformer::from_manifest(&art.manifest).run(&art.store, &mut db)?;
//! assert!(report.entries > 0);
//! assert!(db.table("event_apache").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(missing_docs)]

mod convert;
pub mod declare;
mod error;
mod import;
mod parsers;
mod pattern;
mod pipeline;
mod stream;
mod xml;

pub use convert::{convert_xml, ConvertedTable};
pub use declare::{BlockSpec, LineMatcher, ParserKind, ParserSpec, ParsingDeclaration, XmlMapping};
pub use error::TransformError;
pub use import::{import_rows, normalize_cell, parse_cell};
pub use parsers::{
    apache_event_spec, cjdbc_event_spec, collectl_brief_spec, collectl_csv_spec, declaration_for,
    generic_kv_spec, iostat_spec, mysql_event_spec, sar_mem_spec, sar_net_spec, sar_text_spec,
    sar_xml_mapping, table_name, tomcat_event_spec,
};
pub use pattern::{looks_like_wallclock, timestamp_suffix_tokens, Pattern, Tok};
pub use pipeline::{DataTransformer, RunOptions, TransformReport};
pub use stream::StreamingTransformer;
pub use xml::{escape, parse as parse_xml, unescape, XmlError, XmlNode};
