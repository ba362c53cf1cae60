//! The end-to-end mScopeDataTransformer pipeline (paper Fig. 3):
//! parsing declarations → mScopeParsers → schema inference → Data
//! Importer → mScopeDB. Of the paper's two interchange formats between
//! those stages, annotated XML is an export artifact here
//! ([`ParsingDeclaration::execute`]) and CSV is not written at all; the
//! load path builds neither.
//!
//! The CPU-heavy front of the pipeline — log read → parse → raw columns →
//! typed columns — is embarrassingly parallel across destination tables,
//! so [`DataTransformer::run`] fans the table groups out with
//! [`parallel_map`], then loads the typed columns into the warehouse
//! serially in deterministic table order. The report and the warehouse
//! contents are byte-identical whether the run used one worker or many.

use crate::convert::{RawColumns, TypedColumns};
use crate::declare::{self, ParsingDeclaration};
use crate::error::TransformError;
use crate::parsers::declaration_for;
use mscope_db::Database;
use mscope_monitors::{LogFileMeta, LogStore, MonitorKind};
use mscope_sim::parallel_map;
use std::collections::BTreeMap;

/// What one pipeline run produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformReport {
    /// Files parsed.
    pub files: usize,
    /// Entries extracted across all files.
    pub entries: usize,
    /// `(table, rows-loaded)` per destination table.
    pub tables: Vec<(String, usize)>,
}
mscope_serdes::json_struct!(TransformReport {
    files,
    entries,
    tables
});

/// Below this much declared log input, `workers: 0` (auto) runs the
/// convert stage serially: thread spawn and lock traffic cost more than
/// they save on small runs (the bench history shows parallel at ~1 MiB
/// *slower* than serial; the crossover is comfortably above that).
const AUTO_PARALLEL_MIN_BYTES: u64 = 4 << 20;

/// How a pipeline run executes. The default (`workers: 0`) sizes the
/// fan-out to the work: the machine's parallelism for large runs, serial
/// below [`AUTO_PARALLEL_MIN_BYTES`] of declared input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunOptions {
    /// Worker threads for the convert stage; `0` picks automatically —
    /// the machine's available parallelism (capped at the number of table
    /// groups), falling back to serial when the declared input is too
    /// small for the fan-out to pay for itself.
    pub workers: usize,
}

impl RunOptions {
    /// One worker.
    pub fn serial() -> RunOptions {
        RunOptions { workers: 1 }
    }
}

/// Runs the parse→convert front for one table group: every entry of every
/// file, in file order, goes from the parsing ladder straight into one
/// columnar sink, which types each cell as it arrives.
fn convert_group(
    decls: &[&ParsingDeclaration],
    store: &LogStore,
) -> Result<TypedColumns, TransformError> {
    let mut sink = RawColumns::default();
    for d in decls {
        let content = store
            .read(&d.path)
            .ok_or_else(|| TransformError::MissingFile(d.path.clone()))?;
        d.for_each_entry(content, &mut |fields| sink.entry(&d.path, fields.iter()))?;
    }
    sink.finish()
}

/// Populates the static metadata tables (`monitors`, `log_files`) from the
/// manifest, in manifest order — the last step of a run, batch or
/// streaming. A file that was declared but is absent from the store is an
/// error, not a healthy zero-byte log.
pub(crate) fn register_metadata(
    manifest: &[LogFileMeta],
    store: &LogStore,
    db: &mut Database,
) -> Result<(), TransformError> {
    for m in manifest {
        let kind = match m.kind {
            MonitorKind::Event => "event",
            MonitorKind::Resource => "resource",
        };
        // perf: one rendered node name per manifest entry, shared by
        // both registrations below.
        let node = m.node.to_string();
        db.register_monitor(&m.monitor_id, &node, &m.tool, kind, m.period_ms as i64)
            .map_err(TransformError::Db)?;
        let bytes = store
            .size(&m.path)
            .ok_or_else(|| TransformError::MissingFile(m.path.clone()))? as i64;
        db.register_log_file(&m.path, &node, &m.monitor_id, &m.format, bytes)
            .map_err(TransformError::Db)?;
    }
    Ok(())
}

/// The transformer: a set of parsing declarations derived from the monitor
/// manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DataTransformer {
    declarations: Vec<ParsingDeclaration>,
    manifest: Vec<LogFileMeta>,
}

impl DataTransformer {
    /// Builds declarations for every file in a monitor manifest — the
    /// "parsing declaration" stage.
    pub fn from_manifest(manifest: &[LogFileMeta]) -> DataTransformer {
        DataTransformer {
            declarations: manifest.iter().map(declaration_for).collect(),
            manifest: manifest.to_vec(),
        }
    }

    /// The declarations (file → parser mapping), for inspection.
    pub fn declarations(&self) -> &[ParsingDeclaration] {
        &self.declarations
    }

    /// The manifest this transformer was seeded from (drives the metadata
    /// tables at the end of a run, batch or streaming).
    pub fn manifest_entries(&self) -> &[LogFileMeta] {
        &self.manifest
    }

    /// Statically validates the declaration set without running anything —
    /// the check [`run`](DataTransformer::run) applies before touching the
    /// log store.
    ///
    /// # Errors
    ///
    /// [`TransformError::BadDeclaration`] for the first deny-level issue
    /// found by [`declare::check`].
    pub fn validate(&self) -> Result<(), TransformError> {
        declare::validate(&self.declarations)
    }

    /// Runs the full pipeline with default options. See
    /// [`DataTransformer::run_with`].
    ///
    /// # Errors
    ///
    /// The first error from any stage, in deterministic table order;
    /// nothing is half-loaded on error for the failing table, but
    /// previously completed tables remain.
    pub fn run(
        &self,
        store: &LogStore,
        db: &mut Database,
    ) -> Result<TransformReport, TransformError> {
        self.run_with(store, db, RunOptions::default())
    }

    /// Runs the full pipeline: every declared file goes through its
    /// parser; the entries of all files destined for the same table collect
    /// in one columnar sink (so schema inference unions across replicas)
    /// and are typed column by column; the typed columns are loaded as they
    /// are; and the static metadata tables (`monitors`, `log_files`) are
    /// populated. No annotated XML is built on the way; the public
    /// composition `execute` → `convert_xml` → `import_rows` loads the same
    /// warehouse through it.
    ///
    /// The convert stage fans out across `opts.workers` threads (one
    /// table group per job); the load stage is serial and iterates
    /// groups in table order, so the warehouse contents and the report are
    /// identical for any worker count.
    ///
    /// # Errors
    ///
    /// The first error from any stage, in deterministic table order;
    /// nothing is half-loaded on error for the failing table, but
    /// previously completed tables remain. Within one table group the
    /// order is file order (the manifest's), then line order: a file
    /// missing from the store ([`TransformError::MissingFile`]) or a line
    /// no instruction matches ([`TransformError::UnparsedLine`]) in an
    /// earlier file comes before anything in a later one, and every such
    /// error comes before the group's schema or load errors.
    pub fn run_with(
        &self,
        store: &LogStore,
        db: &mut Database,
        opts: RunOptions,
    ) -> Result<TransformReport, TransformError> {
        // Pre-validate: a malformed declaration fails here, with a rule ID
        // and reason, instead of deep inside a parse or import stage.
        self.validate()?;
        // Group declarations by destination table, in deterministic order.
        let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
        for d in &self.declarations {
            by_table.entry(&d.table).or_default().push(d);
        }
        let groups: Vec<(&str, Vec<&ParsingDeclaration>)> = by_table.into_iter().collect();

        // Convert stage: fan the groups out, or run inline for one worker.
        let declared_bytes: u64 = self
            .declarations
            .iter()
            .filter_map(|d| store.size(&d.path))
            .map(|b| b as u64)
            .sum();
        let workers = self.worker_count(opts, groups.len(), declared_bytes);
        // Every group is converted even behind a failing one, so the
        // error surfaced below is the first in table order for any worker
        // count.
        let results = parallel_map(groups.len(), workers, |i| {
            convert_group(&groups[i].1, store)
        });

        // Load stage: serial, in table order — this is what makes reports
        // and warehouse state deterministic despite the parallel front.
        let mut report = TransformReport::default();
        for ((table, decls), typed) in groups.iter().zip(results) {
            let TypedColumns {
                schema,
                columns,
                rows,
            } = typed?;
            report.files += decls.len();
            report.entries += rows;
            db.ensure_table(table, schema).map_err(TransformError::Db)?;
            let loaded = db
                .insert_columns(table, columns)
                .map_err(TransformError::Db)?;
            // perf: one owned table name per loaded table — bounded by the
            // manifest's table groups, never by row count.
            report.tables.push((table.to_string(), loaded));
        }

        register_metadata(&self.manifest, store, db)?;
        Ok(report)
    }

    /// Resolves the effective worker count: explicit, or — in auto mode —
    /// the machine's available parallelism for large inputs and serial
    /// below [`AUTO_PARALLEL_MIN_BYTES`], capped by the number of table
    /// groups either way.
    fn worker_count(&self, opts: RunOptions, groups: usize, declared_bytes: u64) -> usize {
        let requested = if opts.workers == 0 {
            if declared_bytes < AUTO_PARALLEL_MIN_BYTES {
                1
            } else {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(4)
            }
        } else {
            opts.workers
        };
        requested.min(groups).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;

    fn artifacts() -> (
        mscope_ntier::RunOutput,
        mscope_monitors::MonitoringArtifacts,
    ) {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        (out, art)
    }

    #[test]
    fn full_pipeline_loads_all_tables() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let report = tr.run(&art.store, &mut db).unwrap();
        assert_eq!(report.files, art.manifest.len());
        assert!(report.entries > 100, "entries {}", report.entries);
        // Expected dynamic tables.
        let names = db.dynamic_table_names();
        for expect in [
            "collectl",
            "sar",
            "sar_xml",
            "iostat",
            "event_apache",
            "event_tomcat",
            "event_cjdbc",
            "event_mysql",
        ] {
            assert!(names.contains(&expect), "missing table {expect}: {names:?}");
        }
        // Metadata registered.
        assert_eq!(
            db.table("monitors").unwrap().row_count(),
            art.manifest.len()
        );
        assert_eq!(
            db.table("log_files").unwrap().row_count(),
            art.manifest.len()
        );
    }

    #[test]
    fn parallel_and_serial_paths_are_byte_identical() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let variants = [
            RunOptions::default(),
            RunOptions::serial(),
            RunOptions { workers: 3 },
        ];
        let mut outputs = Vec::new();
        for opts in variants {
            let mut db = Database::new();
            let report = tr.run_with(&art.store, &mut db, opts).unwrap();
            outputs.push((report, db.to_json().unwrap()));
        }
        for (report, json) in &outputs[1..] {
            assert_eq!(report, &outputs[0].0, "report drift");
            assert_eq!(json, &outputs[0].1, "warehouse drift");
        }
    }

    #[test]
    fn event_table_contents_match_run() {
        let (out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let apache = db.require("event_apache").unwrap();
        // One row per line in the Apache access log.
        let lines = art
            .store
            .read("logs/tier0-0/access_log")
            .unwrap()
            .lines()
            .count();
        assert_eq!(apache.row_count(), lines);
        // Request IDs are 12-hex fixed width text.
        let ids = apache.column("request_id").unwrap();
        assert!(ids
            .iter()
            .all(|v| v.as_str().is_some_and(|s| s.len() == 12)));
        // ua column is timestamps (µs) and all within the run.
        assert_eq!(apache.numeric_values("ua").count(), lines);
        assert!(apache
            .numeric_values("ua")
            .all(|t| t >= 0.0 && t <= out.end_time.as_micros() as f64));
    }

    #[test]
    fn collectl_table_has_node_constant_per_tier() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let collectl = db.require("collectl").unwrap();
        let nodes: std::collections::BTreeSet<String> = collectl
            .column("node")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect();
        assert_eq!(nodes.len(), 4, "all four nodes present: {nodes:?}");
        // Disk util numeric and bounded.
        assert!(collectl
            .numeric_values("disk_util")
            .all(|u| (0.0..=100.0).contains(&u)));
    }

    #[test]
    fn sar_text_and_xml_agree() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let text = db.require("sar").unwrap();
        let xml = db.require("sar_xml").unwrap();
        assert_eq!(text.row_count(), xml.row_count());
        // Same cpu_user series modulo float formatting.
        let a = text.numeric_values("cpu_user");
        let b: Vec<f64> = xml.numeric_values("cpu_user").collect();
        assert_eq!(text.numeric_values("cpu_user").count(), b.len());
        for (x, y) in a.zip(&b) {
            assert!((x - y).abs() < 0.01, "{x} vs {y}");
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let empty = LogStore::new();
        assert!(matches!(
            tr.run(&empty, &mut db),
            Err(TransformError::MissingFile(_))
        ));
    }

    #[test]
    fn missing_file_is_an_error_in_parallel_mode_too() {
        let (_out, mut art) = artifacts();
        // Remove one file: the parse stage of its group must fail, and the
        // parallel run must surface that error, not a half-report.
        art.store.remove("logs/tier3-0/iostat.log");
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let err = tr
            .run_with(&art.store, &mut db, RunOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, TransformError::MissingFile(ref p) if p.contains("iostat")),
            "{err}"
        );
        // A second missing file in a later table group (`sar` sorts after
        // `iostat`): every worker count reports the first in table order.
        assert!(art.store.remove("logs/tier0-0/sar.log").is_some());
        for workers in [1, 2, 8] {
            let err = tr
                .run_with(&art.store, &mut Database::new(), RunOptions { workers })
                .unwrap_err();
            assert!(
                matches!(err, TransformError::MissingFile(ref p) if p.contains("iostat")),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_log_line_is_an_error() {
        let (_out, mut art) = artifacts();
        art.store
            .append_line("logs/tier0-0/access_log", "THIS IS NOT AN ACCESS LOG LINE");
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        assert!(matches!(
            tr.run(&art.store, &mut db),
            Err(TransformError::UnparsedLine { .. })
        ));
    }

    /// The pipeline as the public stage functions compose it — through the
    /// two export artifacts: annotated XML per file, typed rows per table.
    fn compose(
        tr: &DataTransformer,
        store: &LogStore,
        db: &mut Database,
    ) -> Result<TransformReport, TransformError> {
        use crate::{convert_xml, import_rows, ConvertedTable};
        tr.validate()?;
        let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
        for d in tr.declarations() {
            by_table.entry(&d.table).or_default().push(d);
        }
        let mut report = TransformReport::default();
        for (table, decls) in by_table {
            let mut docs = Vec::with_capacity(decls.len());
            for d in &decls {
                let content = store
                    .read(&d.path)
                    .ok_or_else(|| TransformError::MissingFile(d.path.clone()))?;
                docs.push(d.execute(content)?);
            }
            let ConvertedTable { schema, rows } = convert_xml(&docs)?;
            report.files += decls.len();
            report.entries += rows.len();
            let loaded = import_rows(db, table, &schema, rows)?;
            report.tables.push((table.to_string(), loaded));
        }
        register_metadata(tr.manifest_entries(), store, db)?;
        Ok(report)
    }

    /// Runs both paths over `store` and holds them to one outcome — report
    /// or error, and the warehouse either leaves behind — at every worker
    /// count. Returns the outcome, rendered.
    fn same_outcome(tr: &DataTransformer, store: &LogStore) -> Result<String, String> {
        let outcome = |r: Result<TransformReport, TransformError>, db: &Database| {
            let warehouse = db.to_json().map_err(|e| e.to_string())?;
            Ok::<_, String>((format!("{r:?}"), warehouse))
        };
        let mut db = Database::new();
        let composed = outcome(compose(tr, store, &mut db), &db)?;
        for workers in [1, 2, 8] {
            let mut db = Database::new();
            let ran = outcome(tr.run_with(store, &mut db, RunOptions { workers }), &db)?;
            mscope_sim::prop_ensure!(
                ran.0 == composed.0,
                "workers={workers}: run_with gave {} but execute → convert_xml → import_rows {}",
                ran.0,
                composed.0
            );
            mscope_sim::prop_ensure!(ran.1 == composed.1, "workers={workers}: warehouse drift");
        }
        Ok(composed.0)
    }

    #[test]
    fn run_with_is_the_public_composition() {
        mscope_sim::prop::forall("run_with is the public composition", 5, |g| {
            let users = g.u64(20..=70) as u32;
            let mut cfg = g.choose(&[
                SystemConfig::rubbos_baseline(users),
                SystemConfig::rubbos_replicated(users),
                SystemConfig::scenario_db_io(users),
                SystemConfig::scenario_dirty_page(users),
            ]);
            cfg.seed = g.u64(1..=u64::MAX);
            cfg.duration = SimDuration::from_secs(g.u64(3..=5));
            cfg.warmup = SimDuration::from_secs(1);
            cfg.workload.ramp_up = SimDuration::from_secs(1);
            let out = Simulator::new(cfg).map_err(|e| e.to_string())?.run();
            let art = MonitorSuite::standard(&out.config).render(&out);
            let tr = DataTransformer::from_manifest(&art.manifest);
            let clean = same_outcome(&tr, &art.store)?;
            mscope_sim::prop_ensure!(clean.starts_with("Ok("), "clean run failed: {clean}");

            // Two files of one table group, in manifest order.
            let collectl: Vec<&str> = tr
                .declarations()
                .iter()
                .filter(|d| d.table == "collectl")
                .map(|d| d.path.as_str())
                .collect();
            let (first, second) = (collectl[0], collectl[1]);
            let victim = g.choose(&art.store.paths()).to_string();

            // A corrupted line anywhere.
            let mut store = art.store.clone();
            store.append_line(&victim, "THIS LINE MATCHES NO INSTRUCTION <");
            let got = same_outcome(&tr, &store)?;
            mscope_sim::prop_ensure!(
                got.starts_with("Err(UnparsedLine") || got.starts_with("Err(Xml"),
                "corrupted `{victim}`: {got}"
            );
            // A removed file anywhere.
            let mut store = art.store.clone();
            store.remove(&victim);
            let got = same_outcome(&tr, &store)?;
            mscope_sim::prop_ensure!(got.starts_with("Err(MissingFile"), "{got}");
            // Inside one group, the earlier file's error wins whichever
            // kind it is.
            let mut store = art.store.clone();
            store.append_line(first, "garbage");
            store.remove(second);
            let got = same_outcome(&tr, &store)?;
            mscope_sim::prop_ensure!(got.starts_with("Err(UnparsedLine"), "{got}");
            let mut store = art.store.clone();
            store.remove(first);
            store.append_line(second, "garbage");
            let got = same_outcome(&tr, &store)?;
            mscope_sim::prop_ensure!(got.starts_with("Err(MissingFile"), "{got}");
            // …and within a file, the earlier line's.
            let mut store = art.store.clone();
            store.append_line(first, "garbage one");
            store.append_line(first, "garbage two");
            let got = same_outcome(&tr, &store)?;
            mscope_sim::prop_ensure!(got.contains("garbage one"), "{got}");

            // A duplicate field: validation refuses the declaration on both
            // paths, and behind validation the sink and `convert_xml`
            // refuse the first entry in the same words.
            let mut dup = tr.clone();
            let di = g.usize(0..=dup.declarations.len() - 1);
            let field = declare::declared_columns(&dup.declarations[di])
                .pop()
                .expect("every declaration has a column")
                .0;
            dup.declarations[di].constants.push((field, "7".into()));
            let got = same_outcome(&dup, &art.store)?;
            mscope_sim::prop_ensure!(got.starts_with("Err(BadDeclaration"), "{got}");
            let d = &dup.declarations[di];
            let content = art.store.read(&d.path).expect("rendered");
            let direct = convert_group(&[d], &art.store).map(|t| t.rows);
            let via_xml = d
                .execute(content)
                .and_then(|doc| crate::convert_xml(&[doc]))
                .map(|t| t.rows.len());
            mscope_sim::prop_ensure!(
                matches!(direct, Err(TransformError::SchemaInference(_)))
                    && format!("{direct:?}") == format!("{via_xml:?}"),
                "{direct:?} vs {via_xml:?}"
            );
            Ok(())
        });
    }

    #[test]
    fn disabled_event_monitors_yield_resource_tables_only() {
        let mut cfg = SystemConfig::rubbos_baseline(40);
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.monitoring.event_monitors = false;
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        assert!(db
            .dynamic_table_names()
            .iter()
            .all(|n| !n.starts_with("event_")));
    }

    #[test]
    fn event_mysql_ids_join_with_event_apache() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let apache = db.require("event_apache").unwrap();
        let mysql = db.require("event_mysql").unwrap();
        let joined = apache
            .inner_join(mysql, "request_id", "request_id")
            .unwrap();
        // Every MySQL-visiting request also went through Apache.
        assert_eq!(joined.row_count(), mysql.row_count());
        assert!(joined.row_count() > 10);
    }
}

#[cfg(test)]
mod sar_subsystem_tests {
    use super::*;
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;

    #[test]
    fn sar_mem_and_net_tables_load() {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        let mut db = Database::new();
        DataTransformer::from_manifest(&art.manifest)
            .run(&art.store, &mut db)
            .unwrap();
        let mem = db.require("sar_mem").unwrap();
        assert!(mem.row_count() > 10);
        // Dirty kB is 4x the page count in the collectl table at the same
        // node & time (sar-mem reports kbdirty, collectl reports pages).
        assert!(mem.numeric_values("mem_dirty_kb").all(|v| v >= 0.0));
        let net = db.require("sar_net").unwrap();
        assert_eq!(net.row_count(), mem.row_count());
        assert!(
            net.numeric_values("net_rx_kb").any(|v| v > 0.0),
            "traffic flowed"
        );
    }
}
