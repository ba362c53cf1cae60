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
//! 3. **XMLtoCSV conversion** — bottom-up schema inference: column set =
//!    union of all tags, column type = narrowest lattice type admitting
//!    every value; produces typed cells directly. [`convert_xml`] is that
//!    stage over annotated XML ([`ConvertedTable`]), with CSV as a second
//!    on-demand export ([`ConvertedTable::to_csv`]).
//! 4. **Data import** ([`import_rows`], [`import_csv`]) — creates mScopeDB
//!    tables on the fly and batch-loads the tuples, registering monitor /
//!    log-file metadata in the static tables.
//!
//! The paper's two interchange formats between those stages, annotated XML
//! and CSV, are **export artifacts** here: the public stage functions
//! above still produce and consume them (and load the same warehouse
//! through them), but neither driver builds either on its load path.
//!
//! Two drivers run the stages, and neither owns a rule:
//!
//! * [`DataTransformer`] is the batch driver: over a monitor manifest's
//!   finished files it feeds every entry of a destination table, as the
//!   parsers emit it, into one columnar raw-cell sink, types the sink's
//!   columns once the table's last entry is in, and loads the typed
//!   columns whole. The CPU-bound front fans out per table with
//!   `mscope_sim::parallel_map` ([`RunOptions`] is the worker count); the
//!   warehouse loads stay serial and deterministic.
//! * [`StreamingTransformer`] is the incremental driver: it tails the
//!   same files while they grow and converges on the same warehouse.
//!
//! What a line means (the staged ladder, the XML entry mapper, the order
//! of an entry's fields) is defined once in [`declare`]; what a table's
//! schema is (the inference fold) and how its cells are typed (the sink)
//! once beside [`convert_xml`]; the `monitors` / `log_files` registration
//! once beside [`DataTransformer`]. The shared core hands each entry to an
//! `emit` callback as borrowed pairs — batch and streaming append them to
//! a sink, `execute` wraps them in an `<entry>` — and each driver keeps
//! only what the other has no counterpart for.
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
#![warn(missing_docs)]

mod convert;
mod csv;
pub mod declare;
mod error;
mod import;
mod parsers;
mod pattern;
mod pipeline;
mod stream;
mod xml;

pub use convert::{convert_xml, ConvertedTable};
pub use csv::{parse_csv, quote_field, write_csv, CsvError};
pub use declare::{BlockSpec, LineMatcher, ParserKind, ParserSpec, ParsingDeclaration, XmlMapping};
pub use error::TransformError;
pub use import::{import_csv, import_rows, normalize_cell, parse_cell};
pub use parsers::{
    apache_event_spec, cjdbc_event_spec, collectl_brief_spec, collectl_csv_spec, declaration_for,
    generic_kv_spec, iostat_spec, mysql_event_spec, sar_mem_spec, sar_net_spec, sar_text_spec,
    sar_xml_mapping, table_name, tomcat_event_spec,
};
pub use pattern::{looks_like_wallclock, timestamp_suffix_tokens, Pattern, Tok};
pub use pipeline::{DataTransformer, RunOptions, TransformReport};
pub use stream::StreamingTransformer;
pub use xml::{escape, parse as parse_xml, unescape, XmlError, XmlNode};
