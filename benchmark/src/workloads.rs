//! What one child process does: build the seeded inputs (set-up), run the
//! workload's job through the public API of the crates under test, then
//! check the outputs against a reference.
//!
//! Every child is a fresh process, so the job runs on the heap state an
//! `mscope run` user pays for. The program under test runs single-threaded
//! (`RunOptions::serial()`, `workers = 1`, `shards = 1`) so wall time
//! measures the code and not the scheduler; the thread-scaled legs
//! (`auto`, `shardsN`) feed unbounded per-layer numbers only.
//!
//! An untraced child takes the fewest timestamps the end-to-end metrics
//! need. A traced child runs the same job with a span around every call
//! (root span `job`), then replays the part those calls hide — the batch
//! transform stage by stage, the streaming spine chunk by chunk — under a
//! second root, `replay`.

use crate::inputs::{self, Op, Reference, Sizes};
use crate::openloop::{self, Schedule, WallClock};
use crate::procfs::{self, ProcSample};
use crate::span::{self, Tracer};
use crate::stats;
use mscope_core::{DiagnoseOptions, DiagnosisReport, MilliScope, RootCause, RunOptions};
use mscope_db::{AggFn, Database, QueryOptions};
use mscope_monitors::{
    merge_records, LogFileMeta, LogStore, MonitorSuite, MonitoringArtifacts, Record,
};
use mscope_ntier::{Retention, RunOutput, SimOptions, Simulator, SystemConfig};
use mscope_sim::{Fnv64, SimDuration, SimTime};
use mscope_transform::{
    convert_xml, declaration_for, import_rows, ConvertedTable, DataTransformer, ParsingDeclaration,
    TransformReport,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What a child hands back to the parent: one JSON line on stdout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many returned `Err` or missed their reference.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Measurements by name.
    pub values: BTreeMap<String, f64>,
    /// Measurements a child took once per pass over its job, by name; the
    /// parent pools the passes of every child.
    pub series: BTreeMap<String, Vec<f64>>,
    /// "Where the time goes" rows (traced children only).
    pub ledger: Vec<span::LedgerRow>,
}
mscope_serdes::json_struct!(ChildReport {
    attempted,
    failed,
    failures,
    values,
    series,
    ledger,
});

/// Failure messages kept per child; the count is always exact.
const MAX_FAILURE_MESSAGES: usize = 12;

/// Analysis window (the paper's 50 ms plots).
const WINDOW: SimDuration = SimDuration::from_millis(50);

/// Serial SQL execution with the planner on.
const SERIAL_SQL: QueryOptions = QueryOptions {
    workers: 1,
    optimize: true,
};

/// The spans of a traced child; an untraced child records nothing.
struct Trace(Option<Tracer>);

/// Work counted at a stage boundary.
type Counts = Vec<(&'static str, u64)>;

impl Trace {
    /// Runs `f` — inside a span when tracing — and returns its result with
    /// its wall seconds.
    fn stage<R>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> R,
        count: impl FnOnce(&R) -> Counts,
    ) -> (R, f64) {
        let t = Instant::now();
        let r = match &mut self.0 {
            Some(tracer) => tracer.call(name, f, count),
            None => f(),
        };
        (r, t.elapsed().as_secs_f64())
    }

    /// Opens a root span.
    fn enter(&mut self, name: &str) -> Option<usize> {
        self.0.as_mut().map(|t| t.enter(name))
    }

    /// Closes a root span.
    fn exit(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.0.as_mut(), id) {
            t.exit(id, &[]);
        }
    }

    fn on(&self) -> bool {
        self.0.is_some()
    }
}

fn no_counts<R>(_: &R) -> Counts {
    Vec::new()
}

/// Work counted from a stage's `Ok` value; a stage that failed did none.
fn when_ok<T, E>(count: impl FnOnce(&T) -> Counts) -> impl FnOnce(&Result<T, E>) -> Counts {
    move |r| r.as_ref().map_or_else(|_| Vec::new(), count)
}

/// Low 48 bits of a hash: exact in an `f64`, so it survives the JSON hop
/// to the parent, which compares it across children of one seed.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> f64 {
    let mut h = Fnv64::new();
    for w in words {
        h.fold_u64(w);
    }
    (h.value() & ((1 << 48) - 1)) as f64
}

/// Book-keeping shared by every child.
struct Child {
    report: ChildReport,
    started: Instant,
    job: Option<(Instant, ProcSample)>,
}

impl Child {
    fn new() -> Child {
        Child {
            report: ChildReport::default(),
            started: Instant::now(),
            job: None,
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.report.values.insert(name.to_string(), value);
    }

    /// One checked outcome: counts as attempted, and as failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.report.attempted += 1;
        if !ok {
            self.report.failed += 1;
            if self.report.failures.len() < MAX_FAILURE_MESSAGES {
                self.report.failures.push(what());
            }
        }
    }

    /// Set-up is over; the measured job starts now. The peak-RSS mark is
    /// reset here, so what `end_job` reads is the job's own peak: what the
    /// job holds on entry (its inputs) plus what it allocates, and nothing
    /// set-up built and freed.
    fn begin_job(&mut self) {
        self.set("setup_s", self.started.elapsed().as_secs_f64());
        let reset = procfs::reset_peak_rss();
        self.check(reset.is_ok(), || {
            format!("resetting the peak-RSS mark: {reset:?}")
        });
        self.job = Some((Instant::now(), procfs::sample()));
    }

    /// The measured job is over: wall, CPU, faults and peak RSS are taken
    /// here, before any verification allocates. `measured_s` is the whole
    /// timed section; it equals `job_s` unless the workload repeats its
    /// job inside the child and reports each pass.
    fn end_job(&mut self) {
        let (t0, before) = self.job.take().expect("begin_job precedes end_job");
        let job_s = t0.elapsed().as_secs_f64();
        let after = procfs::sample();
        self.set("job_s", job_s);
        self.set("measured_s", job_s);
        let (user, sys) = (
            after.user_cpu_s - before.user_cpu_s,
            after.sys_cpu_s - before.sys_cpu_s,
        );
        self.set("proc.user_cpu_s", user);
        self.set("proc.sys_cpu_s", sys);
        self.set("cpu_s", user + sys);
        self.set(
            "proc.minor_faults",
            after.minor_faults - before.minor_faults,
        );
        self.set("proc.peak_rss_mib", after.peak_rss_mib);
    }
}

/// One simulated trial, timed.
fn simulate(
    cfg: &SystemConfig,
    shards: usize,
    retention: Retention,
) -> Result<(RunOutput, f64), String> {
    let sim = Simulator::new(cfg.clone())?;
    let t = Instant::now();
    let run = sim.run_with(&SimOptions { shards, retention });
    Ok((run, t.elapsed().as_secs_f64()))
}

fn set_ntier(c: &mut Child, run: &RunOutput, secs: f64) {
    c.set("ntier.run_s", secs);
    c.set("ntier.sim_events", run.stats.sim_events as f64);
    c.set("ntier.events_per_s", run.stats.sim_events as f64 / secs);
    c.set("ntier.records_out", inputs::record_count(run) as f64);
}

fn digest_words(run: &RunOutput) -> [u64; 4] {
    let d = run.digest;
    [d.requests, d.lifecycle, d.messages, d.samples]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// batch_rubbos
// ---------------------------------------------------------------------------

fn batch_rubbos(
    c: &mut Child,
    sizes: &Sizes,
    seed: u64,
    opts: RunOptions,
    tr: &mut Trace,
) -> Result<(), String> {
    let cfg = inputs::batch_config(sizes, seed);
    // Set-up: the reference digest of the same trial, which the job's own
    // simulation must reproduce.
    let (reference, _) = simulate(&cfg, 1, Retention::Digest)?;

    c.begin_job();
    let root = tr.enter("job");
    let (run, sim_s) = tr.stage(
        "ntier::Simulator::run",
        || Simulator::new(cfg.clone()).map(Simulator::run),
        when_ok(|r: &RunOutput| {
            vec![
                ("events", r.stats.sim_events),
                ("records", inputs::record_count(r) as u64),
            ]
        }),
    );
    let run = run?;
    let (art, render_s) = tr.stage(
        "monitors::MonitorSuite::render",
        || MonitorSuite::standard(&run.config).render(&run),
        |a| vec![("bytes", a.store.total_bytes() as u64)],
    );
    let MonitoringArtifacts {
        store,
        manifest,
        sysviz,
    } = art;
    let (ms, ingest_s) = tr.stage(
        "core::MilliScope::from_parts_with",
        || MilliScope::from_parts_with(run.config.clone(), &store, &manifest, sysviz, opts),
        when_ok(|m: &MilliScope| vec![("rows", m.transform_report().entries as u64)]),
    );
    let ms = ms.map_err(err)?;
    let (pit, pit_s) = tr.stage("core::MilliScope::pit", || ms.pit(WINDOW), no_counts);
    let (queues, queues_s) = tr.stage(
        "core::MilliScope::all_queues",
        || ms.all_queues(WINDOW),
        no_counts,
    );
    let (flows, flows_s) = tr.stage(
        "core::MilliScope::flows",
        || ms.flows(),
        when_ok(|f: &Vec<_>| vec![("flows", f.len() as u64)]),
    );
    let (diagnosis, diagnose_s) = tr.stage(
        "core::MilliScope::diagnose",
        || ms.diagnose(&DiagnoseOptions::default()),
        no_counts,
    );
    tr.exit(root);
    c.end_job();
    let (pit, queues, flows, diagnosis) = (
        pit.map_err(err)?,
        queues.map_err(err)?,
        flows.map_err(err)?,
        diagnosis.map_err(err)?,
    );

    let records = inputs::record_count(&run);
    let log_bytes = store.total_bytes();
    let report = ms.transform_report().clone();
    set_ntier(c, &run, sim_s);
    c.set("work_per_s", records as f64 / ingest_s);
    c.set("monitors.render_s", render_s);
    c.set("monitors.log_bytes", log_bytes as f64);
    c.set("monitors.render_bytes_per_s", log_bytes as f64 / render_s);
    c.set("core.from_parts_s", ingest_s);
    c.set("transform.entries", report.entries as f64);
    c.set("warehouse.rows", ms.db().total_rows() as f64);
    c.set("analysis.pit_ms", pit_s * 1e3);
    c.set("analysis.queues_ms", queues_s * 1e3);
    c.set("analysis.flows_ms", flows_s * 1e3);
    c.set("analysis.flows_per_s", flows.len() as f64 / flows_s);
    c.set("core.diagnose_ms", diagnose_s * 1e3);
    c.set("core.episodes", diagnosis.episodes.len() as f64);

    // Correctness gates.
    let logged = Reference::from_run(&run).front_rows();
    c.check(run.digest == reference.digest, || {
        "the job's simulation does not reproduce the reference digest".into()
    });
    let loaded: usize = report.tables.iter().map(|(_, n)| n).sum();
    c.check(
        report.entries == loaded && report.files == manifest.len(),
        || {
            format!(
                "transform report: {} entries, {loaded} rows loaded, {} of {} files",
                report.entries,
                report.files,
                manifest.len()
            )
        },
    );
    let completed = run.requests.iter().filter(|r| r.is_complete()).count();
    c.check(flows.len() == logged && flows.len() >= completed, || {
        format!(
            "{} flows for {logged} logged front-tier requests ({completed} completed)",
            flows.len()
        )
    });
    let flow_errors = flows.iter().filter(|f| !f.is_causally_ordered()).count();
    c.set("analysis.flow_errors", flow_errors as f64);
    c.check(flow_errors == 0, || {
        format!("{flow_errors} flows violate causal order")
    });
    c.check(
        !pit.points.is_empty() && queues.len() == run.config.tiers.len(),
        || "empty PIT series or missing queue series".into(),
    );
    c.check(diagnosis.episodes.is_empty(), || {
        format!(
            "{} episodes diagnosed on a healthy trial",
            diagnosis.episodes.len()
        )
    });
    c.set(
        "fingerprint",
        fingerprint(
            digest_words(&run)
                .into_iter()
                .chain([report.entries as u64, flows.len() as u64]),
        ),
    );

    if tr.on() {
        drop((ms, flows, pit, queues, run));
        batch_replay(c, tr, &store, &manifest, &report)?;
    }
    Ok(())
}

/// The batch transform again, stage by stage through the public
/// functions `DataTransformer::run_with` composes.
fn batch_replay(
    c: &mut Child,
    tr: &mut Trace,
    store: &LogStore,
    manifest: &[LogFileMeta],
    expected: &TransformReport,
) -> Result<(), String> {
    let root = tr.enter("replay");
    let mut db = Database::new();
    let declarations: Vec<ParsingDeclaration> = manifest
        .iter()
        .map(|m| {
            tr.stage(
                "transform::declaration_for",
                || declaration_for(m),
                no_counts,
            )
            .0
        })
        .collect();
    // Same grouping and order as the pipeline: by destination table.
    let mut groups: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
    for d in &declarations {
        groups.entry(&d.table).or_default().push(d);
    }
    let mut tables = Vec::new();
    for (table, decls) in groups {
        let mut docs = Vec::with_capacity(decls.len());
        for d in decls {
            let content = store
                .read(&d.path)
                .ok_or_else(|| format!("log `{}` missing from the store", d.path))?;
            let (doc, _) = tr.stage(
                "transform::ParsingDeclaration::execute",
                || d.execute(content),
                |_| vec![("bytes", content.len() as u64)],
            );
            docs.push(doc.map_err(err)?);
        }
        let (converted, _) = tr.stage(
            "transform::convert_xml",
            || convert_xml(&docs),
            when_ok(|t: &ConvertedTable| vec![("rows", t.row_count() as u64)]),
        );
        // Freeing the annotated XML trees is allocator work the pipeline
        // pays too; it gets its own span so coverage is honest about it.
        tr.stage("drop(annotated XML)", || drop(docs), no_counts);
        let ConvertedTable { schema, rows } = converted.map_err(err)?;
        let (loaded, _) = tr.stage(
            "transform::import_rows",
            || import_rows(&mut db, table, &schema, rows),
            when_ok(|&n| vec![("rows", n as u64)]),
        );
        tables.push((table.to_string(), loaded.map_err(err)?));
    }
    tr.exit(root);
    c.check(tables == expected.tables, || {
        format!(
            "replayed tables {tables:?} differ from the pipeline's {:?}",
            expected.tables
        )
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// stream_dbio
// ---------------------------------------------------------------------------

/// `true` when the diagnosis found episodes and blames disk IO on the
/// database node for the majority of them.
fn names_db_disk(report: &DiagnosisReport) -> bool {
    let hits = report
        .episodes
        .iter()
        .filter(|e| matches!(&e.root_cause, RootCause::DiskIo { node, .. } if node == "tier3-0"))
        .count();
    hits > 0 && hits * 2 > report.episodes.len()
}

/// The batch path over a finished run: render to completion, transform
/// the finished files serially.
fn batch_ingest(run: &RunOutput) -> Result<MilliScope, String> {
    let art = MonitorSuite::standard(&run.config).render(run);
    MilliScope::from_parts_with(
        run.config.clone(),
        &art.store,
        &art.manifest,
        art.sysviz,
        RunOptions::serial(),
    )
    .map_err(err)
}

fn stream_closed(c: &mut Child, sizes: &Sizes, seed: u64, tr: &mut Trace) -> Result<(), String> {
    let cfg = inputs::dbio_config(sizes, seed);
    // Set-up: the generated input, a finished run whose records the spine
    // replays.
    let (run, sim_s) = simulate(&cfg, 1, Retention::Full)?;
    let records = inputs::record_count(&run);

    c.begin_job();
    let root = tr.enter("job");
    let (ms, stream_s) = tr.stage(
        "core::MilliScope::run_streaming",
        || MilliScope::run_streaming(&run, sizes.chunk_records, 1),
        |_| vec![("records", records as u64)],
    );
    let ms = ms.map_err(err)?;
    let (diagnosis, diagnose_s) = tr.stage(
        "core::MilliScope::diagnose",
        || ms.diagnose(&DiagnoseOptions::default()),
        no_counts,
    );
    tr.exit(root);
    c.end_job();
    let diagnosis = diagnosis.map_err(err)?;

    let report = ms.transform_report().clone();
    set_ntier(c, &run, sim_s);
    c.set("work_per_s", records as f64 / stream_s);
    c.set("core.run_streaming_s", stream_s);
    c.set("core.diagnose_ms", diagnose_s * 1e3);
    c.set("core.episodes", diagnosis.episodes.len() as f64);
    c.set("transform.entries", report.entries as f64);
    c.set("warehouse.rows", ms.db().total_rows() as f64);

    let oracle = batch_ingest(&run)?;
    c.check(&report == oracle.transform_report(), || {
        "streaming transform report differs from the batch oracle".into()
    });
    c.check(ms.pit(WINDOW).ok() == oracle.pit(WINDOW).ok(), || {
        "streaming PIT series differs from the batch oracle".into()
    });
    c.check(
        ms.all_queues(WINDOW).ok() == oracle.all_queues(WINDOW).ok(),
        || "streaming queue series differ from the batch oracle".into(),
    );
    c.check(names_db_disk(&diagnosis), || {
        let causes: Vec<String> = diagnosis
            .episodes
            .iter()
            .map(|e| e.root_cause.describe())
            .collect();
        format!("diagnosis does not name disk IO on tier3-0: {causes:?}")
    });
    // Same words as the open-loop legs, so the parent can hold every
    // child of the seed to one fingerprint.
    c.set(
        "fingerprint",
        fingerprint(
            digest_words(&run)
                .into_iter()
                .chain([report.entries as u64]),
        ),
    );

    if tr.on() {
        drop((ms, oracle));
        stream_replay(c, tr, sizes, &run, &report)?;
    }
    Ok(())
}

/// The streaming spine again, chunk by chunk through the public pieces
/// `MilliScope::run_streaming` composes (on one thread: the replay times
/// the stages, not the channel).
fn stream_replay(
    c: &mut Child,
    tr: &mut Trace,
    sizes: &Sizes,
    run: &RunOutput,
    expected: &TransformReport,
) -> Result<(), String> {
    let root = tr.enter("replay");
    let (records, _) = tr.stage(
        "monitors::merge_records",
        || merge_records(run),
        |r| vec![("records", r.len() as u64)],
    );
    let suite = MonitorSuite::standard(&run.config);
    let manifest = suite.manifest(&run.config);
    let mut db = Database::new();
    let (ingester, _) = tr.stage(
        "transform::DataTransformer::stream",
        || DataTransformer::from_manifest(&manifest).stream(),
        no_counts,
    );
    let mut ingester = ingester.map_err(err)?;
    let (mut monitors, _) = tr.stage(
        "monitors::MonitorSuite::stream",
        || suite.stream(&run.config),
        no_counts,
    );
    for chunk in records.chunks(sizes.chunk_records) {
        tr.stage(
            "monitors::MonitorStream::observe_chunk",
            || monitors.observe_chunk(chunk),
            |()| vec![("records", chunk.len() as u64)],
        );
        tr.stage(
            "transform::StreamingTransformer::poll_with",
            || ingester.poll_with(monitors.store(), &mut db, 1),
            no_counts,
        )
        .0
        .map_err(err)?;
    }
    let (artifacts, _) = tr.stage(
        "monitors::MonitorStream::finish",
        || monitors.finish(),
        |a| vec![("bytes", a.store.total_bytes() as u64)],
    );
    let (report, _) = tr.stage(
        "transform::StreamingTransformer::finish",
        || ingester.finish(&artifacts.store, &mut db),
        when_ok(|r: &TransformReport| vec![("rows", r.entries as u64)]),
    );
    tr.exit(root);
    c.check(report.map_err(err)? == *expected, || {
        "replayed streaming report differs from run_streaming's".into()
    });
    Ok(())
}

/// The open loop: the benchmark composes the spine itself and releases
/// chunks on a fixed schedule, so a slow poll makes a backlog instead of
/// a slower generator.
fn stream_open(c: &mut Child, sizes: &Sizes, seed: u64, rate: f64) -> Result<(), String> {
    let cfg = inputs::dbio_config(sizes, seed);
    let (run, sim_s) = simulate(&cfg, 1, Retention::Full)?;
    let reference = Reference::from_run(&run);
    let records = merge_records(&run);
    let chunks: Vec<&[Record]> = records.chunks(sizes.chunk_records).collect();
    let suite = MonitorSuite::standard(&cfg);
    let manifest = suite.manifest(&cfg);
    let mut ingester = DataTransformer::from_manifest(&manifest)
        .stream()
        .map_err(err)?;
    let mut monitors = suite.stream(&cfg);
    let mut db = Database::new();
    let schedule = Schedule::at_rate(rate, sizes.chunk_records, chunks.len());
    let live_width = inputs::GROUP_WINDOW;

    c.begin_job();
    let mut clock = WallClock::start();
    let mut polls = 0usize;
    let mut live_ms = Vec::new();
    let mut live_rows: Vec<(SimTime, usize)> = Vec::new();
    let log = openloop::drive(&mut clock, &schedule, |due| {
        let newest = chunks[due.end - 1]
            .last()
            .map_or(SimTime::ZERO, Record::time);
        for chunk in &chunks[due] {
            monitors.observe_chunk(chunk);
        }
        ingester
            .poll_with(monitors.store(), &mut db, 1)
            .map_err(err)?;
        polls += 1;
        // A read beside the writes: the last five simulated seconds of
        // the table the polls are growing.
        if polls.is_multiple_of(sizes.live_query_every) && db.table("event_apache").is_some() {
            let lo_us = newest.as_micros().saturating_sub(live_width.as_micros());
            let lo = SimTime::from_micros(lo_us / 1000 * 1000);
            let t = Instant::now();
            let rows = db
                .query_opts(&inputs::window_sql(lo, live_width), SERIAL_SQL)
                .map_err(err)?
                .row_count();
            live_ms.push(ms_since(t));
            live_rows.push((lo, rows));
        }
        Ok::<(), String>(())
    })?;
    let artifacts = monitors.finish();
    let report = ingester.finish(&artifacts.store, &mut db).map_err(err)?;
    c.end_job();

    set_ntier(c, &run, sim_s);
    let lag_ms: Vec<f64> = log.lag_s.iter().map(|s| s * 1e3).collect();
    let late_ms: Vec<f64> = log.generator_late_s.iter().map(|s| s * 1e3).collect();
    for p in [50.0, 90.0, 99.0] {
        c.set(&format!("lag_p{p}_ms"), stats::percentile(&lag_ms, p));
    }
    c.set("end_backlog_chunks", log.end_backlog_chunks as f64);
    c.set("generator_late_ms_p99", stats::percentile(&late_ms, 99.0));
    c.set("warehouse.live_query_ms_p50", stats::median(&live_ms));

    let loaded: usize = report.tables.iter().map(|(_, n)| n).sum();
    c.check(
        report.entries == loaded && log.lag_s.len() == chunks.len(),
        || {
            format!(
                "open loop ingested {} entries into {loaded} rows",
                report.entries
            )
        },
    );
    let front = db.table("event_apache").map_or(0, |t| t.row_count());
    c.check(front == reference.front_rows(), || {
        format!(
            "event_apache holds {front} rows, the run logged {}",
            reference.front_rows()
        )
    });
    // A live read may see fewer rows than the finished table (requests
    // still in flight), never more, and the finished table must agree
    // with the run itself.
    for (lo, live) in live_rows {
        let expected = reference.front_rows_in(lo, live_width);
        let settled = db
            .query_opts(&inputs::window_sql(lo, live_width), SERIAL_SQL)
            .map(|t| t.row_count());
        c.check(settled == Ok(expected) && live <= expected, || {
            format!(
                "live window at {lo:?}: {live} rows live, {settled:?} settled, {expected} expected"
            )
        });
    }
    c.set(
        "fingerprint",
        fingerprint(
            digest_words(&run)
                .into_iter()
                .chain([report.entries as u64]),
        ),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------------

/// Runs one operation; the number it returns is what the reference check
/// compares (rows, series, flows or episodes).
fn execute(ms: &MilliScope, op: &Op, sql: Option<&str>) -> Result<usize, String> {
    match (op, sql) {
        (_, Some(sql)) => ms
            .db()
            .query_opts(sql, SERIAL_SQL)
            .map(|t| t.row_count())
            .map_err(err),
        (Op::Pit, _) => ms.pit(WINDOW).map(|p| p.points.len()).map_err(err),
        (Op::Queues, _) => ms.all_queues(WINDOW).map(|q| q.len()).map_err(err),
        (Op::Resource(i), _) => {
            let (tier, metric) = inputs::RESOURCE_QUERIES[*i];
            ms.resource(&format!("tier{tier}-0"), metric, WINDOW, AggFn::Max)
                .map(|s| s.points.len())
                .map_err(err)
        }
        (Op::Flows, _) => ms.flows().map(|f| f.len()).map_err(err),
        (Op::Diagnose, _) => ms
            .diagnose(&DiagnoseOptions::default())
            .map(|r| r.episodes.len())
            .map_err(err),
        _ => Err(format!("{} has no SQL text", op.class())),
    }
}

fn query_mix(c: &mut Child, sizes: &Sizes, seed: u64, tr: &mut Trace) -> Result<(), String> {
    let cfg = inputs::dbio_config(sizes, seed);
    // Set-up: ingest the trial in batch, derive the reference answers,
    // and run a separate 5 % of operations to fill caches.
    let (run, sim_s) = simulate(&cfg, 1, Retention::Full)?;
    let ms = batch_ingest(&run)?;
    let reference = Reference::from_run(&run);
    let tiers = run.config.tiers.len();
    set_ntier(c, &run, sim_s);
    drop(run);
    let warmup = (sizes.query_ops as f64 * inputs::WARMUP_SHARE).ceil() as usize;
    for op in inputs::op_sequence(seed, 1, &cfg, warmup) {
        execute(&ms, &op, op.sql().as_deref())?;
    }
    let ops = inputs::op_sequence(seed, 0, &cfg, sizes.query_ops);
    let sql: Vec<Option<String>> = ops.iter().map(Op::sql).collect();

    // The timed section repeats the sequence; every pass is one sample of
    // the closed-loop client's job, and the parent pools the passes of
    // every child.
    c.begin_job();
    let root = tr.enter("job");
    let mut op_s = Vec::with_capacity(ops.len() * inputs::QUERY_PASSES);
    let mut outcomes = Vec::with_capacity(ops.len() * inputs::QUERY_PASSES);
    let mut passes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..inputs::QUERY_PASSES {
        let (t, before) = (Instant::now(), procfs::sample());
        for (op, sql) in ops.iter().zip(&sql) {
            let (outcome, secs) = tr.stage(
                op.class(),
                || execute(&ms, op, sql.as_deref()),
                when_ok(|&n| vec![("rows", n as u64)]),
            );
            op_s.push(secs);
            outcomes.push(outcome);
        }
        let pass_s = t.elapsed().as_secs_f64();
        // CPU comes in 10 ms ticks: fine per pass, too coarse per operation.
        let cpu_s = procfs::sample().cpu_s() - before.cpu_s();
        let sql_ms: Vec<f64> = ops
            .iter()
            .zip(&op_s[op_s.len() - ops.len()..])
            .filter(|(op, _)| op.is_sql())
            .map(|(_, secs)| secs * 1e3)
            .collect();
        for (name, value) in [
            ("job_s", pass_s),
            ("work_per_s", ops.len() as f64 / pass_s),
            ("cpu_s", cpu_s),
            ("sql_p50_ms", stats::median(&sql_ms)),
            ("sql_p90_ms", stats::percentile(&sql_ms, 90.0)),
        ] {
            passes.entry(name).or_default().push(value);
        }
    }
    tr.exit(root);
    c.end_job();
    for (name, per_pass) in passes {
        c.report.series.insert(name.into(), per_pass);
    }

    c.set("warehouse.rows", ms.db().total_rows() as f64);
    // Per-class numbers pool every timed execution, all passes.
    let class_ms = |pick: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        ops.iter()
            .cycle()
            .zip(&op_s)
            .filter(|(op, _)| pick(op))
            .map(|(_, secs)| secs * 1e3)
            .collect()
    };
    // As far out as the sample can be read: p99 at 1 275 operations a pass.
    c.set(
        "warehouse.sql_tail_ms",
        stats::tail(&class_ms(&Op::is_sql)).1,
    );
    for (class, metric) in [
        ("sql_window", "warehouse.sql_window_ms_p50"),
        ("sql_topk", "warehouse.sql_topk_ms_p50"),
        ("sql_join", "warehouse.sql_join_ms_p50"),
        ("sql_group", "warehouse.sql_group_ms_p50"),
        ("pit", "analysis.pit_ms"),
        ("queues", "analysis.queues_ms"),
        ("resource", "analysis.resource_ms"),
        ("flows", "analysis.flows_ms"),
        ("diagnose", "core.diagnose_ms"),
    ] {
        c.set(metric, stats::median(&class_ms(&|op| op.class() == class)));
    }
    let analysis_ms =
        class_ms(&|op| matches!(op, Op::Pit | Op::Queues | Op::Resource(_) | Op::Flows));
    c.set("analysis.ops_ms_p50", stats::median(&analysis_ms));
    c.set("analysis.ops_ms_p95", stats::percentile(&analysis_ms, 95.0));
    let flows_ms = c.report.values["analysis.flows_ms"];
    if flows_ms > 0.0 {
        c.set(
            "analysis.flows_per_s",
            reference.front_rows() as f64 / (flows_ms / 1e3),
        );
    }

    // Every operation is a checked outcome: an `Err` fails, and so does a
    // result that misses the answer computed from the run itself.
    let mut words = Vec::with_capacity(outcomes.len());
    let mut episodes = 0;
    for (op, outcome) in ops.iter().cycle().zip(&outcomes) {
        let expected = match op {
            Op::Queues => Some(tiers),
            _ => reference.expected_rows(op),
        };
        let ok = match (outcome, expected) {
            (Ok(n), Some(want)) => *n == want,
            // Series over a live trial are never empty, and a DB-IO
            // trial always has episodes to diagnose; a join has no
            // independent count, so only its `Ok` is checked.
            (Ok(n), None) => matches!(op, Op::SqlJoin(_)) || *n > 0,
            (Err(_), _) => false,
        };
        c.check(ok, || {
            format!(
                "{} {op:?}: got {outcome:?}, expected {expected:?}",
                op.class()
            )
        });
        if let (Op::Diagnose, Ok(n)) = (op, outcome) {
            episodes = *n;
        }
        words.push(outcome.as_ref().map_or(u64::MAX, |&n| n as u64));
    }
    c.set("core.episodes", episodes as f64);
    c.set("fingerprint", fingerprint(words));
    Ok(())
}

// ---------------------------------------------------------------------------
// sim_scale
// ---------------------------------------------------------------------------

fn sim_scale(
    c: &mut Child,
    sizes: &Sizes,
    seed: u64,
    shards: usize,
    tr: &mut Trace,
) -> Result<(), String> {
    // Set-up: the shard-identity gate of `sim_scale.rs` on a small
    // partitioned trial — every stream byte-identical across shard
    // counts, digest retention reproducing full-retention digests. Small
    // enough (≈20 MiB at its peak) that what it leaves on the heap stays
    // under the job's own footprint.
    let small = inputs::scale_identity_config(seed);
    let (reference, _) = simulate(&small, 1, Retention::Full)?;
    let (sharded, _) = simulate(&small, 2, Retention::Full)?;
    let (digest_only, _) = simulate(&small, 2, Retention::Digest)?;
    c.check(
        sharded.digest == reference.digest
            && sharded.requests == reference.requests
            && sharded.lifecycle == reference.lifecycle
            && sharded.messages == reference.messages
            && sharded.samples == reference.samples,
        || "streams differ between 1 and 2 shards on the identity trial".into(),
    );
    c.check(
        digest_only.digest == reference.digest
            && digest_only.stats.completed == reference.stats.completed,
        || "digest retention does not reproduce the full-retention digests".into(),
    );
    drop((reference, sharded, digest_only));
    let cfg = inputs::scale_config(sizes, seed);

    c.begin_job();
    let root = tr.enter("job");
    let (out, sim_s) = tr.stage(
        "ntier::Simulator::run_with",
        || {
            Simulator::new(cfg.clone()).map(|s| {
                s.run_with(&SimOptions {
                    shards,
                    retention: Retention::Digest,
                })
            })
        },
        when_ok(|r: &RunOutput| vec![("events", r.stats.sim_events)]),
    );
    tr.exit(root);
    c.end_job();
    let out = out?;

    set_ntier(c, &out, sim_s);
    c.set("work_per_s", out.stats.sim_events as f64 / sim_s);
    c.check(out.stats.completed > 0 && out.stats.sim_events > 0, || {
        "the scale trial completed no requests".into()
    });
    // The digest is the cross-process, cross-shard identity: the parent
    // compares it between every child of this seed.
    c.set("fingerprint", fingerprint(digest_words(&out)));
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Per-layer numbers that come from the spans of a traced child.
fn fold_spans(c: &mut Child, tracer: &Tracer) {
    let spans = tracer.spans();
    let stages = span::by_stage(spans);
    // `(stage, seconds metric, rate metric and the unit it counts)`: a
    // stage that never ran sets nothing, and the parent reads zero.
    for (stage, secs_metric, rate) in [
        ("transform::declaration_for", "transform.declare_s", None),
        (
            "transform::ParsingDeclaration::execute",
            "transform.parse_s",
            Some(("transform.parse_bytes_per_s", "bytes")),
        ),
        (
            "transform::convert_xml",
            "transform.convert_s",
            Some(("transform.convert_rows_per_s", "rows")),
        ),
        (
            "transform::import_rows",
            "transform.load_s",
            Some(("transform.load_rows_per_s", "rows")),
        ),
        ("monitors::merge_records", "monitors.merge_records_s", None),
        (
            "monitors::MonitorStream::observe_chunk",
            "monitors.observe_s",
            None,
        ),
        (
            "transform::StreamingTransformer::finish",
            "transform.finish_s",
            None,
        ),
        ("job", "trace.job_s", None),
    ] {
        let Some(t) = stages.get(stage) else { continue };
        c.set(secs_metric, t.total_s);
        if let (Some((rate_metric, unit)), true) = (rate, t.total_s > 0.0) {
            let work = t.counts.get(unit).copied().unwrap_or(0);
            c.set(rate_metric, work as f64 / t.total_s);
        }
    }
    if let Some(polls) = stages.get("transform::StreamingTransformer::poll_with") {
        c.set("transform.poll_s", polls.total_s);
        c.set("transform.polls", polls.calls as f64);
        c.set("transform.poll_ms_p50", stats::median(&polls.each_ms));
        c.set(
            "transform.poll_ms_p99",
            stats::percentile(&polls.each_ms, 99.0),
        );
    }
    c.set("trace.coverage", span::coverage(spans));
    c.set("trace.spans", spans.len() as f64);
    c.report.ledger = span::ledger(spans);
}

/// Runs one child: `leg` picks the variant of `workload`, `traced` turns
/// the spans on. The Chrome trace of a traced child lands in `out_dir`.
pub fn run_child(
    workload: &str,
    leg: &str,
    sizes: &Sizes,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> ChildReport {
    let mut c = Child::new();
    let mut tr = Trace(traced.then(|| Tracer::new(seed)));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = match (workload, leg) {
        ("batch_rubbos", "job") => batch_rubbos(&mut c, sizes, seed, RunOptions::serial(), &mut tr),
        ("batch_rubbos", "auto") => {
            batch_rubbos(&mut c, sizes, seed, RunOptions::default(), &mut tr)
        }
        ("stream_dbio", "closed") => stream_closed(&mut c, sizes, seed, &mut tr),
        ("stream_dbio", rate) => match inputs::OPEN_LOOP_RATES.iter().find(|(l, _)| *l == rate) {
            Some(&(_, rps)) => stream_open(&mut c, sizes, seed, rps),
            None => Err(format!("unknown stream_dbio leg `{rate}`")),
        },
        ("query_mix", "ops") => query_mix(&mut c, sizes, seed, &mut tr),
        ("sim_scale", "shards1") => sim_scale(&mut c, sizes, seed, 1, &mut tr),
        ("sim_scale", "shardsN") => sim_scale(&mut c, sizes, seed, nproc, &mut tr),
        _ => Err(format!("unknown workload/leg `{workload}`/`{leg}`")),
    };
    if let Err(e) = outcome {
        c.check(false, || format!("{workload}/{leg} aborted: {e}"));
    }
    if let Some(tracer) = &tr.0 {
        fold_spans(&mut c, tracer);
        let path = out_dir.join(format!("trace_{workload}.json"));
        let text = mscope_serdes::to_string(&span::chrome_trace(tracer.spans(), workload));
        if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text))
        {
            c.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
    c.report
}
