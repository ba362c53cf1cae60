//! The milliScope handle: one ingested experiment, queryable end to end.

use crate::error::CoreError;
use crate::experiment::ExperimentOutput;
use mscope_analysis::{
    queue_from_event_table, FlowError, FlowTable, PitSeries, RequestFlow, WindowSeries,
};
use mscope_db::{AggFn, Database, Predicate, Table, Value};
use mscope_monitors::{merged_records, MonitorSuite, SysVizTrace};
use mscope_ntier::{RunOutput, SystemConfig, TierId, TierKind};
use mscope_sim::{SimDuration, SimTime};
use mscope_transform::{DataTransformer, RunOptions, TransformReport};
use std::sync::OnceLock;

/// A fully ingested experiment: native logs transformed, loaded into
/// mScopeDB, and exposed through the analysis vocabulary of the paper.
///
/// # Examples
///
/// ```
/// use mscope_core::{Experiment, MilliScope};
/// use mscope_ntier::SystemConfig;
/// use mscope_sim::SimDuration;
///
/// let mut cfg = SystemConfig::rubbos_baseline(50);
/// cfg.duration = SimDuration::from_secs(4);
/// cfg.warmup = SimDuration::from_secs(1);
/// let output = Experiment::new(cfg)?.run();
/// let ms = MilliScope::ingest(&output)?;
/// let pit = ms.pit(SimDuration::from_millis(50))?;
/// assert!(pit.overall_mean_ms() > 0.0);
/// # Ok::<(), mscope_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct MilliScope {
    db: Database,
    config: SystemConfig,
    sysviz: Option<SysVizTrace>,
    report: TransformReport,
    end_time: SimTime,
    /// The request-ID join of the event tables, built by the first
    /// [`flows`](MilliScope::flows) call and kept — a failed build too.
    /// Nothing invalidates it because no method takes `&mut self`: the
    /// event tables never change after construction. A future writer must
    /// take `&mut self` and reset this slot.
    flow_table: OnceLock<Result<FlowTable, FlowError>>,
}

impl MilliScope {
    /// Runs the full mScopeDataTransformer pipeline over an experiment's
    /// logs and loads everything into a fresh warehouse.
    ///
    /// # Errors
    ///
    /// Any transformation or load error.
    pub fn ingest(output: &ExperimentOutput) -> Result<MilliScope, CoreError> {
        Self::from_parts_with(
            output.run.config.clone(),
            &output.artifacts.store,
            &output.artifacts.manifest,
            output.artifacts.sysviz.clone(),
            RunOptions::default(),
        )
    }

    /// Builds a milliScope handle from raw parts — the offline-bundle path
    /// (see [`ingest_bundle`](crate::ingest_bundle)) and the live path both
    /// funnel through here. `opts` sets the pipeline's worker fan-out
    /// ([`RunOptions`]); the resulting warehouse is identical for every
    /// choice, only the wall-clock cost differs.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when the run's end or a tier's pool size does
    /// not fit `i64`; any transformation or load error.
    pub fn from_parts_with(
        cfg: SystemConfig,
        store: &mscope_monitors::LogStore,
        manifest: &[mscope_monitors::LogFileMeta],
        sysviz: Option<SysVizTrace>,
        opts: RunOptions,
    ) -> Result<MilliScope, CoreError> {
        let mut db = Database::new();
        register_run(&mut db, &cfg)?;
        let transformer = DataTransformer::from_manifest(manifest);
        let report = transformer.run_with(store, &mut db, opts)?;
        let end_time = cfg.end_time();
        Ok(MilliScope {
            db,
            config: cfg,
            sysviz,
            report,
            end_time,
            flow_table: OnceLock::new(),
        })
    }

    /// The underlying warehouse (read access for ad-hoc queries).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Statically checks a SQL query against this experiment's live
    /// schemas without executing it — the interactive face of
    /// `mscope-lint`'s SQL front. Catches unknown tables/columns,
    /// syntax errors, and statically impossible comparisons before a
    /// dashboard or notebook ships the query.
    ///
    /// # Errors
    ///
    /// [`CoreError::Db`] with the same error an execution would produce.
    pub fn check_query(&self, sql: &str) -> Result<(), CoreError> {
        mscope_db::sql::check_against(&self.db, sql)?;
        Ok(())
    }

    /// Statically proves a configuration can yield a sound end-to-end
    /// trace *before* running it — the library face of `mscope-lint
    /// trace`. The whole pipeline is abstractly interpreted: request-ID
    /// injection and propagation across every tier edge, UA/UD/DS/DR
    /// completeness and pairing, declaration→renderer→query type flow,
    /// clock-domain agreement, and sampling granularity against every
    /// phenomenon the configuration can produce.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if the configuration fails basic validation;
    /// [`CoreError::Scenario`] carrying the first deny-level trace finding
    /// otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_core::MilliScope;
    /// use mscope_ntier::SystemConfig;
    ///
    /// MilliScope::check_scenario(&SystemConfig::scenario_db_io(100))?;
    /// # Ok::<(), mscope_core::CoreError>(())
    /// ```
    pub fn check_scenario(cfg: &SystemConfig) -> Result<(), CoreError> {
        cfg.validate().map_err(CoreError::Config)?;
        let findings = mscope_lint::trace::check_scenario("adhoc", cfg);
        if let Some(f) = findings
            .iter()
            .find(|f| matches!(f.severity, mscope_lint::Severity::Deny))
        {
            return Err(CoreError::Scenario(format!(
                "[{}] {}: {}",
                f.rule, f.subject, f.message
            )));
        }
        Ok(())
    }

    /// What the transformation pipeline loaded.
    pub fn transform_report(&self) -> &TransformReport {
        &self.report
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The measured window `[warmup, warmup + duration)`.
    pub fn measured_range(&self) -> (SimTime, SimTime) {
        (SimTime::ZERO + self.config.warmup, self.end_time)
    }

    /// The independent SysViz trace, if the tap was enabled.
    pub fn sysviz(&self) -> Option<&SysVizTrace> {
        self.sysviz.as_ref()
    }

    /// The event table for a tier.
    ///
    /// # Errors
    ///
    /// [`CoreError::Analysis`] if the tier is out of range or the event
    /// monitors were disabled.
    pub fn event_table(&self, tier: usize) -> Result<&Table, CoreError> {
        let kind = self
            .config
            .tiers
            .get(tier)
            .map(|t| t.kind)
            .ok_or_else(|| CoreError::Analysis(format!("no tier {tier}")))?;
        self.db
            .table(&format!("event_{}", kind.name()))
            .ok_or_else(|| {
                CoreError::Analysis(format!(
                    "no event table for tier {tier} — were the event monitors enabled?"
                ))
            })
    }

    /// Point-in-Time response time at the front tier (Fig. 2 / Fig. 8a).
    ///
    /// # Errors
    ///
    /// Missing event table or columns, or a zero `window`.
    pub fn pit(&self, window: SimDuration) -> Result<PitSeries, CoreError> {
        let table = self.event_table(0)?;
        let full =
            PitSeries::from_event_table(table, window_us(window)?).map_err(CoreError::Analysis)?;
        // Warm-up is excluded, matching every other measured-window metric.
        let (start, end) = self.measured_range();
        #[expect(
            clippy::cast_possible_wrap,
            reason = "register_run admitted only a run whose end fits in i64 µs"
        )]
        let (start, end) = (start.as_micros() as i64, end.as_micros() as i64);
        Ok(full.slice(start, end))
    }

    /// Queue-length series for one tier over the measured window
    /// (Figs. 6, 8b, 9).
    ///
    /// # Errors
    ///
    /// Missing event table or columns, or a zero `window`.
    pub fn queue(&self, tier: usize, window: SimDuration) -> Result<WindowSeries, CoreError> {
        let table = self.event_table(tier)?;
        let (start, end) = self.measured_range();
        window_us(window)?;
        let points =
            queue_from_event_table(table, start, end, window).map_err(CoreError::Analysis)?;
        let kind = self.config.tiers[tier].kind;
        Ok(WindowSeries::new(format!("{kind} queue"), points))
    }

    /// Queue series for every tier, pipeline order.
    ///
    /// # Errors
    ///
    /// As [`MilliScope::queue`].
    pub fn all_queues(&self, window: SimDuration) -> Result<Vec<WindowSeries>, CoreError> {
        (0..self.config.tiers.len())
            .map(|t| self.queue(t, window))
            .collect()
    }

    /// The same queue series computed from the *SysViz* trace instead of
    /// the event monitors — the accuracy comparison of Fig. 9. `None`
    /// without the SysViz tap, or for a zero `window`.
    pub fn sysviz_queue(&self, tier: usize, window: SimDuration) -> Option<WindowSeries> {
        let trace = self.sysviz.as_ref()?;
        window_us(window).ok()?;
        let (start, end) = self.measured_range();
        #[expect(
            clippy::cast_possible_wrap,
            reason = "simulated instants of the run, before its end, which fits in i64 µs"
        )]
        let intervals: Vec<(i64, Option<i64>)> = trace
            .tier_intervals(TierId(tier))
            .into_iter()
            .map(|(a, d)| (a.as_micros() as i64, d.map(|d| d.as_micros() as i64)))
            .collect();
        let points = mscope_analysis::queue_series(&intervals, start, end, window);
        Some(WindowSeries::new(
            format!("sysviz tier{tier} queue"),
            points,
        ))
    }

    /// A resource metric series for one node from the Collectl table,
    /// windowed with `agg` (Figs. 4, 8c, 8d).
    ///
    /// Metric names are Collectl columns: `cpu_user`, `cpu_sys`,
    /// `cpu_iowait`, `cpu_idle`, `disk_util`, `disk_write_kb`,
    /// `disk_writes`, `mem_dirty`, `mem_used_kb`, `net_rx_kb`, `net_tx_kb`.
    ///
    /// # Errors
    ///
    /// Missing table, node, or column.
    pub fn resource(
        &self,
        node: &str,
        metric: &str,
        window: SimDuration,
        agg: AggFn,
    ) -> Result<WindowSeries, CoreError> {
        let table = self.db.require("collectl")?;
        // Fused filter + aggregate: the compiled predicate prunes blocks
        // and no intermediate per-node table is materialized.
        let pred = Predicate::Eq("node".into(), Value::Text(node.into()));
        let window_us = i64::try_from(window.as_micros()).map_err(|_| {
            mscope_db::DbError::BadQuery(format!("window {window:?} does not fit in i64 µs"))
        })?;
        let (matched, points) = table.window_agg_where(&pred, "time", window_us, metric, agg)?;
        if matched == 0 {
            return Err(CoreError::Analysis(format!(
                "no collectl rows for node `{node}`"
            )));
        }
        Ok(WindowSeries::new(format!("{node} {metric}"), points))
    }

    /// CPU busy (user+sys) series for a node, a common convenience. The
    /// two metrics pair on window start: a window has a point only when it
    /// holds a non-null sample, and a window either metric lacks is dropped.
    ///
    /// # Errors
    ///
    /// As [`MilliScope::resource`].
    pub fn cpu_busy(&self, node: &str, window: SimDuration) -> Result<WindowSeries, CoreError> {
        let user = self.resource(node, "cpu_user", window, AggFn::Mean)?;
        let sys = self.resource(node, "cpu_sys", window, AggFn::Mean)?;
        // `resource` points ascend strictly in window start.
        let points = user
            .points
            .iter()
            .filter_map(|&(t, u)| {
                let i = sys.points.binary_search_by_key(&t, |&(ts, _)| ts).ok()?;
                Some((t, u + sys.points[i].1))
            })
            .collect();
        Ok(WindowSeries::new(format!("{node} cpu_busy"), points))
    }

    /// Node names of a tier (`tier{i}-{r}`).
    pub fn tier_nodes(&self, tier: usize) -> Vec<String> {
        let Some(t) = self.config.tiers.get(tier) else {
            return Vec::new();
        };
        (0..t.replicas).map(|r| format!("tier{tier}-{r}")).collect()
    }

    /// Tier kinds in pipeline order.
    pub fn tier_kinds(&self) -> Vec<TierKind> {
        self.config.tiers.iter().map(|t| t.kind).collect()
    }

    /// Full causal-path reconstruction by joining the event tables on the
    /// propagated request ID (§IV-B). The first call joins the tables into
    /// a [`FlowTable`] and keeps it; every call copies the flows out of it.
    ///
    /// # Errors
    ///
    /// Missing event tables or columns, or timestamps the join cannot
    /// read; a join that failed once fails the same way every time.
    pub fn flows(&self) -> Result<Vec<RequestFlow>, CoreError> {
        let kept = match self.flow_table.get() {
            Some(kept) => kept,
            None => {
                let tables: Vec<&Table> = (0..self.config.tiers.len())
                    .map(|t| self.event_table(t))
                    .collect::<Result<_, _>>()?;
                self.flow_table.get_or_init(|| FlowTable::build(&tables))
            }
        };
        kept.as_ref()
            .map(FlowTable::flows)
            .map_err(|e| CoreError::Analysis(e.to_string()))
    }
}

/// The window guard for the analyses that bucket on `window` themselves
/// (`resource` gets the same refusal from the warehouse): `window` in the
/// `i64` microseconds the event tables are keyed on, refused when zero or
/// wider. `DiagnoseOptions` deserializes from JSON, so such a window can
/// arrive from outside the program and must be an error, not the folds'
/// `assert!`.
pub(crate) fn window_us(window: SimDuration) -> Result<i64, CoreError> {
    i64::try_from(window.as_micros())
        .ok()
        .filter(|&us| us > 0)
        .ok_or_else(|| {
            CoreError::Analysis("window must be positive and fit in i64 microseconds".into())
        })
}

/// Seeds a fresh warehouse with the static experiment/node rows every
/// ingestion path (batch or streaming) registers before any log rows land.
/// A bundle's config arrives from outside the program, so the run's end
/// must fit the `i64` microseconds the tables are keyed on, and each
/// tier's pool size the `i64` its row stores.
fn register_run(db: &mut Database, cfg: &SystemConfig) -> Result<(), CoreError> {
    cfg.warmup
        .as_micros()
        .checked_add(cfg.duration.as_micros())
        .and_then(|end| i64::try_from(end).ok())
        .ok_or_else(|| {
            CoreError::Config("warmup + duration must fit in i64 microseconds".into())
        })?;
    #[expect(
        clippy::cast_possible_wrap,
        reason = "as_millis is at most u64::MAX / 1000"
    )]
    let duration_ms = cfg.duration.as_millis() as i64;
    // The seed is stored bit for bit: any u64 is a valid seed.
    db.register_experiment(
        1,
        "milliscope-run",
        cfg.workload.users as i64,
        duration_ms,
        cfg.seed.cast_signed(),
    )?;
    for (ti, t) in cfg.tiers.iter().enumerate() {
        for replica in 0..t.replicas {
            let node = mscope_ntier::NodeId {
                tier: TierId(ti),
                replica,
            };
            let workers = i64::try_from(t.workers)
                .map_err(|_| CoreError::Config(format!("tier {ti} workers must fit in i64")))?;
            #[expect(
                clippy::cast_possible_wrap,
                reason = "a Vec index is at most isize::MAX"
            )]
            let tier = ti as i64;
            db.register_node(
                &node.to_string(),
                tier,
                t.kind.name(),
                t.cores as i64,
                workers,
            )?;
        }
    }
    Ok(())
}

/// Streaming ingestion — the live path of the spine. Instead of rendering
/// every log to completion and then transforming the finished files
/// ([`MilliScope::ingest`]), the monitors append to their logs record by
/// record and the transformer tails the growing log store, so the
/// warehouse fills *while the run plays*. One loop on the calling thread
/// does both, reading the run's records in place.
impl MilliScope {
    /// Replays a run's records through the full streaming spine:
    /// [`merged_records`] → monitors → incremental transformer →
    /// warehouse, under the suite the run's `monitoring` config deploys.
    /// Records are read in place in time order; after every `chunk` of
    /// them, and after the last, the transformer's parse stage fans out
    /// over `workers` threads. The resulting handle is equivalent to
    /// [`ingest`](MilliScope::ingest)ing the same run: identical transform
    /// report, schemas, and row multisets (tables fed by a single log file
    /// are byte-identical; tables fed by several files may interleave
    /// their appends differently).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when the run's end or a tier's pool size does
    /// not fit `i64`; any transformation or load error.
    pub fn run_streaming(
        run: &RunOutput,
        chunk: usize,
        workers: usize,
    ) -> Result<MilliScope, CoreError> {
        let cfg = run.config.clone();
        let suite = MonitorSuite::standard(&cfg);
        let mut db = Database::new();
        register_run(&mut db, &cfg)?;
        let mut ingester = DataTransformer::from_manifest(&suite.manifest(&cfg)).stream()?;
        let mut monitors = suite.stream(&cfg);
        let chunk = chunk.max(1);
        let total = run.lifecycle.len() + run.messages.len() + run.samples.len();
        for (i, rec) in merged_records(run).enumerate() {
            monitors.observe(&rec);
            let seen = i + 1;
            if seen % chunk == 0 || seen == total {
                ingester.poll_with(monitors.store(), &mut db, workers)?;
            }
        }
        let artifacts = monitors.finish();
        let report = ingester.finish(&artifacts.store, &mut db)?;
        let end_time = cfg.end_time();
        Ok(MilliScope {
            db,
            config: cfg,
            sysviz: artifacts.sysviz,
            report,
            end_time,
            flow_table: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    fn ingested(users: u32) -> MilliScope {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Experiment::new(cfg).unwrap().run();
        MilliScope::ingest(&out).unwrap()
    }

    #[test]
    fn check_scenario_accepts_presets_and_rejects_invisible_phenomena() {
        for (name, cfg) in SystemConfig::presets() {
            MilliScope::check_scenario(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // A 16 KiB commit buffer at 16 MB/s stalls for ~1 ms — far below
        // what any deployed monitor can sample — so the proof must fail.
        let mut cfg = SystemConfig::scenario_db_io(100);
        if let Some(lf) = cfg.tiers[3].log_flush.as_mut() {
            lf.buffer_threshold = 16 << 10;
        }
        let err = MilliScope::check_scenario(&cfg).unwrap_err();
        assert!(matches!(err, CoreError::Scenario(_)), "{err}");
        assert!(err.to_string().contains("TR008"), "{err}");
        // Plain validation failures surface as Config, not Scenario.
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.workload.users = 0;
        assert!(matches!(
            MilliScope::check_scenario(&cfg),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn ingest_loads_everything() {
        let ms = ingested(60);
        assert!(ms.transform_report().entries > 100);
        assert_eq!(ms.db().table("experiments").unwrap().row_count(), 1);
        assert_eq!(ms.db().table("nodes").unwrap().row_count(), 4);
        assert_eq!(ms.tier_kinds().len(), 4);
        assert_eq!(ms.tier_nodes(3), vec!["tier3-0"]);
    }

    #[test]
    fn pit_and_queues_work() {
        let ms = ingested(60);
        let pit = ms.pit(SimDuration::from_millis(50)).unwrap();
        assert!(pit.overall_mean_ms() > 0.5);
        let queues = ms.all_queues(SimDuration::from_millis(50)).unwrap();
        assert_eq!(queues.len(), 4);
        assert!(!queues[0].points.is_empty());
        assert!(ms.queue(99, SimDuration::from_millis(50)).is_err());
    }

    #[test]
    fn sysviz_queue_close_to_monitor_queue() {
        let ms = ingested(80);
        let w = SimDuration::from_millis(100);
        let mon = ms.queue(0, w).unwrap();
        let sv = ms.sysviz_queue(0, w).unwrap();
        let pairs = mscope_analysis::align(&mon, &sv);
        assert!(pairs.len() > 20);
        let rmse = mscope_sim::rmse(
            &pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
            &pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(rmse < 2.0, "sysviz vs monitor queue RMSE {rmse}");
    }

    #[test]
    fn resource_series_queries() {
        let ms = ingested(60);
        let w = SimDuration::from_millis(100);
        let disk = ms.resource("tier3-0", "disk_util", w, AggFn::Max).unwrap();
        assert!(!disk.points.is_empty());
        assert!(disk.values().iter().all(|&v| (0.0..=100.0).contains(&v)));
        let cpu = ms.cpu_busy("tier1-0", w).unwrap();
        assert!(cpu.values().iter().any(|&v| v > 0.0));
        assert!(ms.resource("ghost", "disk_util", w, AggFn::Max).is_err());
        assert!(ms
            .resource("tier3-0", "no_such_metric", w, AggFn::Max)
            .is_err());
    }

    #[test]
    fn zero_window_is_an_error_not_a_panic() {
        let ms = ingested(30);
        assert!(ms.sysviz().is_some());
        // Zero, and a window whose µs do not fit the tables' i64 keys.
        for window in [SimDuration::ZERO, SimDuration::from_micros(u64::MAX)] {
            let tag = format!("{window:?}");
            assert!(
                matches!(ms.pit(window), Err(CoreError::Analysis(_))),
                "{tag}"
            );
            assert!(
                matches!(ms.queue(0, window), Err(CoreError::Analysis(_))),
                "{tag}"
            );
            assert!(
                matches!(ms.all_queues(window), Err(CoreError::Analysis(_))),
                "{tag}"
            );
            assert_eq!(ms.sysviz_queue(0, window), None, "{tag}");
            let opts = crate::DiagnoseOptions {
                pit_window: window,
                ..Default::default()
            };
            assert!(
                matches!(ms.diagnose(&opts), Err(CoreError::Analysis(_))),
                "{tag}"
            );
            // The warehouse refuses the same window for `resource`.
            assert!(
                matches!(
                    ms.resource("tier0-0", "cpu_user", window, AggFn::Mean),
                    Err(CoreError::Db(mscope_db::DbError::BadQuery(_)))
                ),
                "{tag}"
            );
        }
    }

    #[test]
    fn wide_context_pad_is_an_error_not_a_wrap() {
        // `context_pad` deserializes from JSON; past i64::MAX µs a cast
        // would wrap it to a negative pad and shift the evidence window.
        let ms = ingested(30);
        let opts = crate::DiagnoseOptions {
            context_pad: SimDuration::from_micros(u64::MAX),
            ..Default::default()
        };
        assert!(matches!(ms.diagnose(&opts), Err(CoreError::Analysis(_))));
    }

    #[test]
    fn register_run_refuses_what_the_tables_cannot_key() {
        // A bundle's config arrives from outside the program: a run end or
        // a pool size past i64 must not wrap into the warehouse rows.
        let base = SystemConfig::rubbos_baseline(10);
        let register = |cfg: &SystemConfig| register_run(&mut Database::new(), cfg);
        let mut wide = base.clone();
        wide.tiers[0].workers = usize::MAX;
        assert!(matches!(register(&wide), Err(CoreError::Config(_))));
        let mut late = base.clone();
        late.warmup = SimDuration::from_micros(u64::MAX);
        assert!(matches!(register(&late), Err(CoreError::Config(_))));
        // Any u64 is a valid seed; it is stored bit for bit.
        let mut seeded = base;
        seeded.seed = u64::MAX;
        assert!(register(&seeded).is_ok());
    }

    #[test]
    fn cpu_busy_pairs_on_window_start_across_a_null_window() {
        // Four 100 ms windows on one node; the second window's only
        // `cpu_sys` cell is Null (what `normalize_cell` makes of `-`), so
        // the `cpu_sys` series has no point there.
        use mscope_db::{Column, ColumnType, Schema};
        let schema = Schema::new(vec![
            Column::new("time", ColumnType::Timestamp),
            Column::new("node", ColumnType::Text),
            Column::new("cpu_user", ColumnType::Float),
            Column::new("cpu_sys", ColumnType::Float),
        ])
        .unwrap();
        let mut db = Database::new();
        db.create_table("collectl", schema).unwrap();
        for (t, user, sys) in [
            (0, 10.0, Some(1.0)),
            (100_000, 20.0, None),
            (200_000, 30.0, Some(3.0)),
            (300_000, 40.0, Some(4.0)),
        ] {
            let row = vec![
                Value::Timestamp(t),
                Value::Text("tier0-0".into()),
                Value::Float(user),
                sys.map_or(Value::Null, Value::Float),
            ];
            db.insert("collectl", row).unwrap();
        }
        let config = SystemConfig::rubbos_baseline(10);
        let ms = MilliScope {
            db,
            end_time: config.end_time(),
            config,
            sysviz: None,
            report: TransformReport::default(),
            flow_table: OnceLock::new(),
        };
        let busy = ms
            .cpu_busy("tier0-0", SimDuration::from_millis(100))
            .unwrap();
        // Positional zipping gave (100_000, 23.0), (200_000, 34.0) and lost
        // the last window.
        assert_eq!(
            busy.points,
            vec![(0, 11.0), (200_000, 33.0), (300_000, 44.0)]
        );
    }

    #[test]
    fn flows_reconstruct_and_validate() {
        let ms = ingested(60);
        let flows = ms.flows().unwrap();
        assert!(flows.len() > 20);
        let deep: Vec<_> = flows.iter().filter(|f| f.hops.len() == 4).collect();
        assert!(!deep.is_empty());
        for f in deep.iter().take(100) {
            assert!(
                f.is_causally_ordered(),
                "flow {} out of order",
                f.request_id
            );
        }
    }

    #[test]
    fn check_query_validates_against_live_schemas() {
        let ms = ingested(60);
        ms.check_query("SELECT node, MAX(disk_util) FROM collectl GROUP BY node")
            .unwrap();
        ms.check_query("SELECT * FROM experiments").unwrap();
        // Unknown table, unknown column, impossible comparison: all
        // rejected without executing anything.
        assert!(matches!(
            ms.check_query("SELECT * FROM ghost"),
            Err(CoreError::Db(mscope_db::DbError::NoSuchTable(_)))
        ));
        assert!(matches!(
            ms.check_query("SELECT ghost FROM collectl"),
            Err(CoreError::Db(mscope_db::DbError::NoSuchColumn(_)))
        ));
        assert!(matches!(
            ms.check_query("SELECT AVG(node) FROM collectl"),
            Err(CoreError::Db(mscope_db::DbError::TypeMismatch { .. }))
        ));
    }

    #[test]
    fn planner_grammar_runs_through_the_core_api() {
        let ms = ingested(60);
        // The extended grammar — JOIN … ON, multi-key GROUP BY, HAVING —
        // validates against the live ingested schemas…
        let join_sql = "SELECT interaction, ua FROM event_apache JOIN event_tomcat \
                        ON event_apache.request_id = event_tomcat.request_id \
                        ORDER BY ua LIMIT 5";
        ms.check_query(join_sql).unwrap();
        let group_sql = "SELECT interaction, node, AVG(ud) FROM event_apache \
                         GROUP BY interaction, node HAVING ud > 0";
        ms.check_query(group_sql).unwrap();
        // …and executes: every returned hop pairs a front-tier request
        // with its tomcat descendant.
        let joined = ms.db().query(join_sql).unwrap();
        assert_eq!(joined.row_count(), 5);
        let grouped = ms.db().query(group_sql).unwrap();
        assert!(grouped.row_count() >= 1);
        // EXPLAIN prints the physical plan instead of running the query.
        let plan = ms.db().query(&format!("EXPLAIN {join_sql}")).unwrap();
        assert_eq!(plan.name(), "explain");
        let ops: Vec<String> = plan
            .column("plan")
            .unwrap()
            .iter()
            .map(Value::render)
            .collect();
        assert!(ops[0].starts_with("Scan event_apache"), "{ops:?}");
        assert!(ops.iter().any(|l| l.starts_with("HashJoin")), "{ops:?}");
        assert!(ops.iter().any(|l| l.starts_with("Limit 5")), "{ops:?}");
    }

    #[test]
    fn event_table_errors_when_monitors_disabled() {
        let mut cfg = SystemConfig::rubbos_baseline(30);
        cfg.duration = SimDuration::from_secs(3);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.monitoring.event_monitors = false;
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        assert!(ms.event_table(0).is_err());
        assert!(ms.pit(SimDuration::from_millis(50)).is_err());
    }
}

/// Aggregate profiling views (the "profile execution performance" half of
/// the paper's abstract).
impl MilliScope {
    /// Per-interaction response-time statistics from the front tier.
    ///
    /// # Errors
    ///
    /// Missing event table or columns.
    pub fn interaction_breakdown(
        &self,
    ) -> Result<Vec<mscope_analysis::InteractionStats>, CoreError> {
        mscope_analysis::interaction_breakdown(self.event_table(0)?).map_err(CoreError::Analysis)
    }

    /// Mean per-tier latency contribution (ms) across all reconstructed
    /// flows.
    ///
    /// # Errors
    ///
    /// Missing event tables.
    pub fn tier_contribution(&self) -> Result<Vec<f64>, CoreError> {
        let flows = self.flows()?;
        Ok(mscope_analysis::tier_contribution(
            &flows,
            self.config.tiers.len(),
        ))
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use crate::experiment::Experiment;

    #[test]
    fn interaction_breakdown_covers_the_mix() {
        let mut cfg = SystemConfig::rubbos_baseline(120);
        cfg.duration = SimDuration::from_secs(10);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        let stats = ms.interaction_breakdown().unwrap();
        assert!(stats.len() > 5, "saw {} interaction types", stats.len());
        // Sorted by count; totals match the event table.
        assert!(stats.windows(2).all(|w| w[0].count >= w[1].count));
        let total: u64 = stats.iter().map(|s| s.count).sum();
        assert_eq!(total as usize, ms.event_table(0).unwrap().row_count());
        for s in &stats {
            assert!(s.max_ms >= s.p99_ms - 1e9_f64.recip());
            assert!(s.mean_ms > 0.0);
        }
    }

    #[test]
    fn tier_contribution_sums_below_total_rt() {
        let mut cfg = SystemConfig::rubbos_baseline(120);
        cfg.duration = SimDuration::from_secs(10);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        let contrib = ms.tier_contribution().unwrap();
        assert_eq!(contrib.len(), 4);
        assert!(contrib.iter().all(|&c| c >= 0.0));
        // Locals exclude network hops, so their sum is below the mean RT.
        let total: f64 = contrib.iter().sum();
        assert!(
            total < out.run.stats.mean_rt_ms,
            "{total} vs {}",
            out.run.stats.mean_rt_ms
        );
        assert!(total > 0.5, "some work happened: {contrib:?}");
    }
}

/// SLO evaluation over the run (business framing of §I's latency-cost
/// motivation).
impl MilliScope {
    /// Evaluates a latency SLO against the front-tier PIT series at the
    /// given window width.
    ///
    /// # Errors
    ///
    /// Missing event table (monitors disabled).
    pub fn evaluate_slo(
        &self,
        slo: mscope_analysis::Slo,
        window: SimDuration,
    ) -> Result<mscope_analysis::SloReport, CoreError> {
        Ok(slo.evaluate(&self.pit(window)?))
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::experiment::Experiment;
    use mscope_db::ValueKey;
    use std::collections::BTreeMap;

    fn small_output() -> ExperimentOutput {
        let mut cfg = SystemConfig::rubbos_baseline(30);
        cfg.duration = SimDuration::from_secs(3);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        Experiment::new(cfg).unwrap().run()
    }

    /// Tables fed by several log files may interleave their appends
    /// differently between the batch and streaming paths; canonicalize
    /// those to a sorted multiset.
    fn sorted_rows(t: &Table) -> Vec<Vec<ValueKey>> {
        let mut rows: Vec<Vec<ValueKey>> = t
            .iter_rows()
            .map(|r| r.iter().map(Value::key).collect())
            .collect();
        rows.sort();
        rows
    }

    fn multi_file_tables(manifest: &[mscope_monitors::LogFileMeta]) -> Vec<String> {
        let tr = DataTransformer::from_manifest(manifest);
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for d in tr.declarations() {
            *counts.entry(d.table.clone()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn streaming_matches_batch_across_chunk_sizes_and_workers() {
        let out = small_output();
        let batch = MilliScope::ingest(&out).unwrap();
        let multi = multi_file_tables(&out.artifacts.manifest);
        let w = SimDuration::from_millis(50);
        // Same chunking must yield a byte-identical warehouse at any
        // worker count; collect one serialization per chunk size and
        // compare the rest against it.
        let mut by_chunk: BTreeMap<usize, String> = BTreeMap::new();
        for &(chunk, workers) in &[
            (1, 1),
            (1, 4),
            (64, 1),
            (64, 4),
            (4096, 1),
            (4096, 4),
            (usize::MAX, 1),
        ] {
            let ms = MilliScope::run_streaming(&out.run, chunk, workers).unwrap();
            let tag = format!("chunk={chunk} workers={workers}");
            assert_eq!(ms.transform_report(), batch.transform_report(), "{tag}");
            assert_eq!(ms.db().table_names(), batch.db().table_names(), "{tag}");
            for name in batch.db().table_names() {
                let b = batch.db().require(name).unwrap();
                let s = ms.db().require(name).unwrap();
                assert_eq!(s.schema(), b.schema(), "{tag}: schema of {name}");
                if multi.iter().any(|m| m == name) {
                    assert_eq!(sorted_rows(s), sorted_rows(b), "{tag}: rows of {name}");
                } else {
                    assert_eq!(s, b, "{tag}: table {name}");
                }
            }
            // The analysis vocabulary agrees exactly, not just in shape.
            assert_eq!(ms.pit(w).unwrap(), batch.pit(w).unwrap(), "{tag}");
            assert_eq!(
                ms.all_queues(w).unwrap(),
                batch.all_queues(w).unwrap(),
                "{tag}"
            );
            let json = ms.db().to_json().unwrap();
            match by_chunk.get(&chunk) {
                Some(first) => assert_eq!(&json, first, "{tag}: worker fan-out changed bytes"),
                None => {
                    by_chunk.insert(chunk, json);
                }
            }
        }
    }

    #[test]
    fn streaming_resource_queries_match_batch() {
        // Per-node resource rows keep their source-file order under the
        // predicate filter, so windowed aggregates agree to the bit even
        // though the shared collectl table interleaves nodes differently.
        let out = small_output();
        let batch = MilliScope::ingest(&out).unwrap();
        let ms = MilliScope::run_streaming(&out.run, 256, 2).unwrap();
        let w = SimDuration::from_millis(100);
        for node in ["tier0-0", "tier3-0"] {
            for (metric, agg) in [("disk_util", AggFn::Max), ("cpu_user", AggFn::Mean)] {
                assert_eq!(
                    ms.resource(node, metric, w, agg).unwrap(),
                    batch.resource(node, metric, w, agg).unwrap(),
                    "{node}/{metric}"
                );
            }
        }
        assert_eq!(ms.sysviz(), batch.sysviz());
    }

    #[test]
    fn streaming_respects_custom_suites() {
        let mut cfg = SystemConfig::rubbos_baseline(20);
        cfg.duration = SimDuration::from_secs(3);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.monitoring.sysviz_tap = false;
        let out = Experiment::new(cfg.clone()).unwrap().run();
        let ms = MilliScope::run_streaming(&out.run, 512, 1).unwrap();
        assert!(ms.sysviz().is_none());
        assert!(ms.pit(SimDuration::from_millis(50)).is_ok());
        cfg.monitoring.sysviz_tap = true;
        cfg.monitoring.event_monitors = false;
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::run_streaming(&out.run, 512, 1).unwrap();
        assert!(ms.event_table(0).is_err());
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::scenarios::{calibrated_db_io, shorten};
    use mscope_analysis::Slo;

    #[test]
    fn vsb_scenario_busts_a_tight_slo_but_not_a_loose_one() {
        let cfg = shorten(
            calibrated_db_io(300, 3.0, 250.0),
            SimDuration::from_secs(15),
        );
        let ms = MilliScope::ingest(&Experiment::new(cfg).unwrap().run()).unwrap();
        let w = SimDuration::from_millis(50);
        let tight = ms
            .evaluate_slo(
                Slo {
                    threshold_ms: 100.0,
                    target: 0.999,
                },
                w,
            )
            .unwrap();
        assert!(!tight.is_met(), "compliance {}", tight.compliance);
        assert!(tight.budget_burn > 1.0);
        let loose = ms
            .evaluate_slo(
                Slo {
                    threshold_ms: 1000.0,
                    target: 0.99,
                },
                w,
            )
            .unwrap();
        assert!(loose.is_met());
    }
}

#[cfg(test)]
mod flow_table_tests {
    use super::*;
    use mscope_analysis::{reconstruct_flows, FlowHop};
    use mscope_db::{Column, ColumnType, Schema};
    use mscope_sim::prop::{forall, Gen};

    /// The per-row join the kept table replaces, as the oracle: every hop
    /// read cell by cell from its event table, and every deeper record
    /// found by a linear scan for the last row carrying the ID.
    fn flows_per_row(tables: &[&Table]) -> Result<Vec<RequestFlow>, FlowError> {
        let Some((front, deeper)) = tables.split_first() else {
            return Ok(Vec::new());
        };
        let ids = |t: &Table| {
            t.column("request_id")
                .ok_or_else(|| FlowError::MissingColumn {
                    table: t.name().to_string(),
                    column: "request_id".into(),
                })
                .map(<[Value]>::to_vec)
        };
        let deep_ids = deeper
            .iter()
            .map(|t| ids(t))
            .collect::<Result<Vec<_>, _>>()?;
        let mut flows = Vec::new();
        for (row, id) in ids(front)?.iter().enumerate() {
            let Some(id) = id.as_str() else { continue };
            let mut hops = vec![hop_per_row(front, row, 0)?];
            for (depth, (t, ids)) in deeper.iter().zip(&deep_ids).enumerate() {
                let Some(r) = ids.iter().rposition(|v| v.as_str() == Some(id)) else {
                    break;
                };
                hops.push(hop_per_row(t, r, depth + 1)?);
            }
            let interaction = front.cell(row, "interaction").and_then(Value::as_str);
            flows.push(RequestFlow {
                request_id: id.to_string(),
                interaction: interaction.unwrap_or("?").to_string(),
                hops,
            });
        }
        Ok(flows)
    }

    fn hop_per_row(t: &Table, row: usize, tier: usize) -> Result<FlowHop, FlowError> {
        let fault = |column: &str| (t.name().to_string(), row, column.to_string());
        let ts = |column: &str| -> Result<Option<i64>, FlowError> {
            let cell = t
                .cell(row, column)
                .ok_or_else(|| FlowError::MissingColumn {
                    table: t.name().to_string(),
                    column: column.to_string(),
                })?;
            match cell {
                Value::Null => Ok(None),
                Value::Text(s) if s.trim().is_empty() || s.trim() == "-" => Ok(None),
                Value::Int(v) | Value::Timestamp(v) => Ok(Some(*v)),
                _ => {
                    let (table, row, column) = fault(column);
                    Err(FlowError::NotTimestamp { table, row, column })
                }
            }
        };
        let mandatory = |column: &str| {
            ts(column)?.ok_or_else(|| {
                let (table, row, column) = fault(column);
                FlowError::NullTimestamp { table, row, column }
            })
        };
        let (ua, ud) = (mandatory("ua")?, mandatory("ud")?);
        let (ds, dr) = (ts("ds")?, ts("dr")?);
        let node = t.cell(row, "node").and_then(Value::as_str);
        Ok(FlowHop {
            tier,
            node: node.unwrap_or("?").to_string(),
            ua,
            ud,
            ds,
            dr,
        })
    }

    /// A request ID: mostly text from a small pool, so IDs repeat within a
    /// tier and go missing from deeper ones; sometimes not text at all.
    fn id_cell(g: &mut Gen, _dirty: bool) -> Value {
        match g.usize(0..=9) {
            0 => Value::Null,
            1 => Value::Int(g.i64(0..=3)),
            _ => Value::Text(g.choose(&["A", "B", "C", "D", "E"]).to_string()),
        }
    }

    /// A timestamp cell: a timestamp or an integer, and in a dirty table
    /// sometimes null, a "no value" mark, another type, or text that is
    /// not a timestamp.
    fn ts_cell(g: &mut Gen, dirty: bool) -> Value {
        match g.usize(0..=79) {
            0 if dirty => Value::Null,
            1 if dirty => Value::Text(g.choose(&["-", "", " - "]).to_string()),
            2 if dirty => Value::Text("00:00:01.000000".into()),
            3 if dirty => Value::Float(1.5),
            4 if dirty => Value::Bool(true),
            0..=5 => Value::Int(g.i64(-5..=5)),
            _ => Value::Timestamp(g.i64(-1_000..=1_000_000)),
        }
    }

    /// A name cell (`node`, `interaction`): a few distinct texts, or not
    /// text.
    fn name_cell(g: &mut Gen, _dirty: bool) -> Value {
        match g.usize(0..=9) {
            0 => Value::Null,
            1 => Value::Int(7),
            _ => Value::Text(g.choose(&["n0", "n1", "n2", "ViewStory"]).to_string()),
        }
    }

    /// An event table of up to 12 rows with some columns left out, one in
    /// three of them dirty. Every column is typed `Text`, which admits a
    /// cell of any type.
    fn event_table(g: &mut Gen, name: &str) -> Table {
        type Cell = fn(&mut Gen, bool) -> Value;
        let all: [(&str, Cell, usize); 7] = [
            ("request_id", id_cell, 60),
            ("interaction", name_cell, 5),
            ("node", name_cell, 5),
            ("ua", ts_cell, 40),
            ("ud", ts_cell, 40),
            ("ds", ts_cell, 40),
            ("dr", ts_cell, 40),
        ];
        // Each column is left out with chance 1 in `keep`.
        let cols: Vec<(&str, Cell)> = all
            .into_iter()
            .filter(|&(_, _, keep)| g.usize(1..=keep) != 1)
            .map(|(name, cell, _)| (name, cell))
            .collect();
        let schema = Schema::new(
            cols.iter()
                .map(|(name, _)| Column::new(*name, ColumnType::Text))
                .collect(),
        )
        .unwrap();
        let mut t = Table::new(name, schema);
        let dirty = g.usize(0..=2) == 0;
        let rows = match g.usize(0..=4) {
            0 => 0,
            _ => g.usize(1..=12),
        };
        for _ in 0..rows {
            t.push_row(cols.iter().map(|(_, cell)| cell(g, dirty)).collect())
                .unwrap();
        }
        t
    }

    /// A handle over `tables` as the event tables of the first
    /// `tables.len()` tiers of the RUBBoS pipeline.
    fn handle(tables: Vec<Table>) -> MilliScope {
        let mut config = SystemConfig::rubbos_baseline(10);
        config.tiers.truncate(tables.len());
        let mut db = Database::new();
        for t in tables {
            db.replace_table(t).unwrap();
        }
        MilliScope {
            db,
            end_time: config.end_time(),
            config,
            sysviz: None,
            report: TransformReport::default(),
            flow_table: OnceLock::new(),
        }
    }

    /// One wallclock cell too large to parse turns its whole column into
    /// text at load time. The join then names the first row it reads as
    /// not a timestamp, instead of calling the cell null (`ua`) or
    /// dropping every hop's downstream window (`ds`).
    #[test]
    fn a_timestamp_column_loaded_as_text_is_a_typed_error() {
        let mut cfg = SystemConfig::rubbos_baseline(50);
        cfg.duration = SimDuration::from_secs(3);
        cfg.warmup = SimDuration::from_secs(1);
        let out = crate::experiment::Experiment::new(cfg).unwrap().run();
        let path = "logs/tier0-0/access_log";
        for column in ["ua", "ds"] {
            let mut store = out.artifacts.store.clone();
            let log = store.remove(path).unwrap();
            let key = format!(" {column}=");
            let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
            let line = lines.iter_mut().skip(2).find(|l| l.contains(&key)).unwrap();
            let at = line.find(&key).unwrap() + key.len();
            let end = line[at..].find(' ').map_or(line.len(), |e| at + e);
            line.replace_range(at..end, "6000000000:00:00");
            store.append(path, &(lines.join("\n") + "\n"));
            let ms = MilliScope::from_parts_with(
                out.run.config.clone(),
                &store,
                &out.artifacts.manifest,
                None,
                RunOptions::default(),
            )
            .unwrap();
            let front = ms.event_table(0).unwrap();
            assert!(matches!(front.cell(0, column), Some(Value::Text(_))));
            let want = FlowError::NotTimestamp {
                table: "event_apache".into(),
                row: 0,
                column: column.into(),
            };
            match ms.flows() {
                Err(CoreError::Analysis(got)) => assert_eq!(got, want.to_string()),
                other => panic!("{column}: {other:?}"),
            }
        }
    }

    #[test]
    fn kept_table_matches_the_per_row_join_on_hostile_tables() {
        // (joins that succeeded with a multi-hop flow, joins that failed)
        let outcomes = std::cell::Cell::new((0, 0));
        forall("kept flow table = per-row join", 1024, |g| {
            let tiers = g.usize(1..=4);
            let names = ["event_apache", "event_tomcat", "event_cjdbc", "event_mysql"];
            let tables = names[..tiers]
                .iter()
                .map(|name| event_table(g, name))
                .collect();
            let ms = handle(tables);
            let refs: Vec<&Table> = (0..tiers).map(|t| ms.event_table(t).unwrap()).collect();
            let want = flows_per_row(&refs);
            let joined = reconstruct_flows(&refs);
            let built = FlowTable::build(&refs).map(|t| t.flows());
            if joined != want || built != want {
                return Err(format!(
                    "want {want:?}\nreconstruct_flows {joined:?}\nFlowTable {built:?}"
                ));
            }
            let (deep, failed) = outcomes.get();
            outcomes.set(match &want {
                Ok(flows) => (
                    deep + usize::from(flows.iter().any(|f| f.hops.len() > 1)),
                    failed,
                ),
                Err(_) => (deep, failed + 1),
            });
            let want = want.map_err(|e| e.to_string());
            for call in ["first", "second"] {
                let got = ms.flows().map_err(|e| match e {
                    CoreError::Analysis(s) => s,
                    other => other.to_string(),
                });
                if got != want {
                    return Err(format!("{call} MilliScope::flows: {got:?}, want {want:?}"));
                }
            }
            Ok(())
        });
        // The generator reaches both outcomes often enough to matter: 185
        // joins with a multi-hop flow and 356 failed ones of the 1024.
        let (deep, failed) = outcomes.get();
        assert!(
            deep >= 120 && failed >= 120,
            "{deep} multi-hop joins, {failed} failed"
        );
    }
}
