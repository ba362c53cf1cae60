//! Automated diagnosis: from a PIT anomaly to a named root cause, following
//! the paper's §V methodology — spot the VLRT episode, derive per-tier
//! queues to find where the pushback originates, then interrogate that
//! tier's resources and correlate.

use crate::error::CoreError;
use crate::milliscope::MilliScope;
use mscope_analysis::{
    detect_pushback, detect_vsb, rank_correlations, CorrelationHit, PushbackEpisode, VsbEpisode,
    WindowSeries,
};
use mscope_db::AggFn;
use mscope_sim::SimDuration;
use std::collections::btree_map::{BTreeMap, Entry};

/// Tunables for the diagnosis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseOptions {
    /// PIT window width (paper plots use 50 ms).
    pub pit_window: SimDuration,
    /// VLRT factor: a window is anomalous when its max exceeds
    /// `factor × mean` (paper: one to two orders of magnitude; default 10).
    pub vlrt_factor: f64,
    /// Queue elevation multiplier for pushback detection.
    pub pushback_multiplier: f64,
    /// How much context around each episode to include when inspecting
    /// resources.
    pub context_pad: SimDuration,
}
mscope_serdes::json_struct!(DiagnoseOptions {
    pit_window,
    vlrt_factor,
    pushback_multiplier,
    context_pad,
});

impl Default for DiagnoseOptions {
    fn default() -> Self {
        DiagnoseOptions {
            pit_window: SimDuration::from_millis(50),
            vlrt_factor: 10.0,
            pushback_multiplier: 3.0,
            context_pad: SimDuration::from_millis(500),
        }
    }
}

/// The root cause the evidence points to.
#[derive(Debug, Clone, PartialEq)]
pub enum RootCause {
    /// Disk saturation at a node (scenario A: DB commit-log flush).
    DiskIo {
        /// Saturated node.
        node: String,
        /// Peak disk utilization % in the episode window.
        peak_util: f64,
    },
    /// CPU saturated by forced dirty-page recycling (scenario B) —
    /// identified by the simultaneous abrupt dirty-page drop.
    DirtyPageRecycling {
        /// Saturated node.
        node: String,
        /// Size of the dirty-page drop (pages).
        drop_pages: f64,
    },
    /// CPU saturated without a dirty-page signature (GC, DVFS, hog, …).
    CpuSaturation {
        /// Saturated node.
        node: String,
        /// Peak CPU busy % in the episode window.
        peak_busy: f64,
    },
    /// Nothing conclusive in the inspected resources.
    Unknown,
}
mscope_serdes::json_enum!(RootCause {
    DiskIo { node, peak_util },
    DirtyPageRecycling { node, drop_pages },
    CpuSaturation { node, peak_busy },
    Unknown,
});

impl RootCause {
    /// One-line human-readable statement.
    pub fn describe(&self) -> String {
        match self {
            RootCause::DiskIo { node, peak_util } => {
                format!("disk IO saturation on {node} (peak {peak_util:.0}% util)")
            }
            RootCause::DirtyPageRecycling { node, drop_pages } => format!(
                "dirty-page recycling on {node} (≈{drop_pages:.0} pages flushed) saturating its CPU"
            ),
            RootCause::CpuSaturation { node, peak_busy } => {
                format!("CPU saturation on {node} (peak {peak_busy:.0}% busy)")
            }
            RootCause::Unknown => "no conclusive resource signature".to_string(),
        }
    }
}

/// Diagnosis of one VLRT episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeDiagnosis {
    /// The detected episode.
    pub episode: VsbEpisode,
    /// The matching queue-pushback episode, when one overlaps.
    pub pushback: Option<PushbackEpisode>,
    /// The tier the methodology points at (deepest pushback tier, else 0).
    pub suspect_tier: usize,
    /// The named root cause.
    pub root_cause: RootCause,
    /// Resource series ranked by correlation with the front-tier queue.
    pub evidence: Vec<CorrelationHit>,
}
mscope_serdes::json_struct!(EpisodeDiagnosis {
    episode,
    pushback,
    suspect_tier,
    root_cause,
    evidence,
});

/// The full diagnosis report.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Run mean response time (ms).
    pub mean_rt_ms: f64,
    /// Diagnosed episodes in time order.
    pub episodes: Vec<EpisodeDiagnosis>,
}
mscope_serdes::json_struct!(DiagnosisReport {
    mean_rt_ms,
    episodes
});

impl DiagnosisReport {
    /// `true` if any episode was found.
    pub fn has_anomalies(&self) -> bool {
        !self.episodes.is_empty()
    }
}

/// The resource series `diagnose` interrogates, each under the aggregate
/// the methodology reads it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Metric {
    /// `disk_util`, windowed `Max`.
    DiskUtil,
    /// `cpu_user + cpu_sys`, windowed `Mean` ([`MilliScope::cpu_busy`]).
    CpuBusy,
    /// `mem_dirty`, windowed `Last`.
    MemDirty,
    /// `cpu_iowait`, windowed `Mean`.
    CpuIowait,
}

/// Whole-trial series by `(node, metric)` for one `diagnose` call: every
/// episode slices the same few series, so each is scanned out of `collectl`
/// on first use and kept until the call returns.
type SeriesTable = BTreeMap<(String, Metric), WindowSeries>;

impl MilliScope {
    /// Runs the full diagnosis pass.
    ///
    /// # Errors
    ///
    /// Missing event tables (monitors disabled) or resource tables, a
    /// zero `pit_window`, or a `context_pad` past `i64::MAX` µs.
    pub fn diagnose(&self, opts: &DiagnoseOptions) -> Result<DiagnosisReport, CoreError> {
        let pit = self.pit(opts.pit_window)?;
        let pad = i64::try_from(opts.context_pad.as_micros())
            .map_err(|_| CoreError::Analysis("context_pad must fit in i64 microseconds".into()))?;
        let episodes = detect_vsb(&pit, opts.vlrt_factor);
        let queues = self.all_queues(opts.pit_window)?;
        let pushbacks = detect_pushback(&queues, opts.pushback_multiplier);

        let mut series = SeriesTable::new();
        let mut out = Vec::new();
        for ep in episodes {
            let pushback = pushbacks
                .iter()
                .find(|p| p.start_us < ep.end_us + 200_000 && ep.start_us < p.end_us + 200_000)
                .cloned();
            let suspect_tier = pushback.as_ref().map_or(0, |p| p.deepest_tier);
            let from = ep.start_us.saturating_sub(pad);
            let to = ep.end_us.saturating_add(pad);
            let mut root_cause =
                self.infer_root_cause(&mut series, suspect_tier, from, to, opts)?;
            if root_cause == RootCause::Unknown {
                // The queue signature can be ambiguous when episodes abut;
                // fall back to scanning every tier's resources.
                for tier in 0..self.config().tiers.len() {
                    if tier == suspect_tier {
                        continue;
                    }
                    root_cause = self.infer_root_cause(&mut series, tier, from, to, opts)?;
                    if root_cause != RootCause::Unknown {
                        break;
                    }
                }
            }
            let evidence = self.collect_evidence(&mut series, &queues[0], from, to, opts)?;
            out.push(EpisodeDiagnosis {
                episode: ep,
                pushback,
                suspect_tier,
                root_cause,
                evidence,
            });
        }
        Ok(DiagnosisReport {
            mean_rt_ms: pit.overall_mean_ms(),
            episodes: out,
        })
    }

    /// `node`'s `metric` over `[from, to)` µs, cut from the whole-trial
    /// series — which is scanned here if this call has not read it yet, so
    /// a missing node or column is reported by the first episode that asks.
    fn episode_series(
        &self,
        series: &mut SeriesTable,
        node: &str,
        metric: Metric,
        (from, to): (i64, i64),
        w: SimDuration,
    ) -> Result<WindowSeries, CoreError> {
        let whole = match series.entry((node.to_string(), metric)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(match metric {
                Metric::DiskUtil => self.resource(node, "disk_util", w, AggFn::Max)?,
                Metric::CpuBusy => self.cpu_busy(node, w)?,
                Metric::MemDirty => self.resource(node, "mem_dirty", w, AggFn::Last)?,
                Metric::CpuIowait => self.resource(node, "cpu_iowait", w, AggFn::Mean)?,
            }),
        };
        Ok(whole.slice(from, to))
    }

    /// Inspects the suspect tier's resources over `[from, to)` µs.
    fn infer_root_cause(
        &self,
        series: &mut SeriesTable,
        tier: usize,
        from: i64,
        to: i64,
        opts: &DiagnoseOptions,
    ) -> Result<RootCause, CoreError> {
        let w = opts.pit_window;
        let mut best = RootCause::Unknown;
        for node in self.tier_nodes(tier) {
            let mut read = |metric| self.episode_series(series, &node, metric, (from, to), w);
            let disk = read(Metric::DiskUtil)?;
            let peak_disk = disk.values().iter().cloned().fold(0.0, f64::max);
            let cpu = read(Metric::CpuBusy)?;
            let peak_cpu = cpu.values().iter().cloned().fold(0.0, f64::max);
            let dirty = read(Metric::MemDirty)?;
            let dirty_vals = dirty.values();
            let dirty_drop = dirty_vals
                .windows(2)
                .map(|p| p[0] - p[1])
                .fold(0.0, f64::max);
            let dirty_peak = dirty_vals.iter().cloned().fold(0.0, f64::max);

            if peak_disk > 80.0 {
                return Ok(RootCause::DiskIo {
                    node,
                    peak_util: peak_disk,
                });
            }
            if peak_cpu > 85.0 {
                // An abrupt drop of a substantial share of the dirty set is
                // the recycling signature (Fig. 8d). The absolute floor
                // (64 pages = 256 KiB) filters ordinary writeback jitter.
                if dirty_drop > 0.3 * dirty_peak && dirty_drop > 64.0 {
                    return Ok(RootCause::DirtyPageRecycling {
                        node,
                        drop_pages: dirty_drop,
                    });
                }
                best = RootCause::CpuSaturation {
                    node,
                    peak_busy: peak_cpu,
                };
            }
        }
        Ok(best)
    }

    /// Ranks every node's key resource series by correlation with the
    /// front-tier queue over the episode window (Fig. 7's methodology).
    fn collect_evidence(
        &self,
        series: &mut SeriesTable,
        front_queue: &WindowSeries,
        from: i64,
        to: i64,
        opts: &DiagnoseOptions,
    ) -> Result<Vec<CorrelationHit>, CoreError> {
        let w = opts.pit_window;
        let mut target = front_queue.slice(from, to);
        // Queue windows start at the measured range's start, resource
        // buckets on multiples of the window, and `align` pairs on equal
        // timestamps: put the queue on the resource grid (where it already
        // is whenever the warm-up is a whole number of windows).
        let grid = crate::milliscope::window_us(w)?;
        for (t, _) in &mut target.points {
            *t = t.div_euclid(grid) * grid;
        }
        let mut candidates = Vec::new();
        for tier in 0..self.config().tiers.len() {
            for node in self.tier_nodes(tier) {
                for metric in [Metric::DiskUtil, Metric::CpuBusy, Metric::CpuIowait] {
                    candidates.push(self.episode_series(series, &node, metric, (from, to), w)?);
                }
            }
        }
        Ok(rank_correlations(&target, &candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use mscope_ntier::SystemConfig;

    /// Diagnoses a fresh trial, and holds the report to two oracles: every
    /// episode's evidence equals a ranking over series built afresh through
    /// the public accessors, and a second call on the same handle returns
    /// the same report.
    fn diagnose(cfg: SystemConfig) -> DiagnosisReport {
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        let opts = DiagnoseOptions::default();
        let report = ms.diagnose(&opts).unwrap();

        let w = opts.pit_window;
        let pad = opts.context_pad.as_micros() as i64;
        let front = ms.queue(0, w).unwrap();
        let mut fresh = Vec::new();
        for tier in 0..ms.config().tiers.len() {
            for node in ms.tier_nodes(tier) {
                fresh.push(ms.resource(&node, "disk_util", w, AggFn::Max).unwrap());
                fresh.push(ms.cpu_busy(&node, w).unwrap());
                fresh.push(ms.resource(&node, "cpu_iowait", w, AggFn::Mean).unwrap());
            }
        }
        for ep in &report.episodes {
            let (from, to) = (ep.episode.start_us - pad, ep.episode.end_us + pad);
            let cut: Vec<WindowSeries> = fresh.iter().map(|s| s.slice(from, to)).collect();
            assert_eq!(
                ep.evidence,
                rank_correlations(&front.slice(from, to), &cut),
                "episode at {} µs",
                ep.episode.start_us
            );
        }
        assert_eq!(ms.diagnose(&opts).unwrap(), report);
        report
    }

    fn scale_down(mut cfg: SystemConfig) -> SystemConfig {
        cfg.duration = SimDuration::from_secs(20);
        cfg.warmup = SimDuration::from_secs(4);
        cfg.workload.ramp_up = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn baseline_has_no_anomalies() {
        let report = diagnose(scale_down(SystemConfig::rubbos_baseline(200)));
        assert!(!report.has_anomalies(), "baseline: {:?}", report.episodes);
        assert!(report.mean_rt_ms > 0.0);
    }

    #[test]
    fn db_io_scenario_diagnosed_as_disk() {
        let mut cfg = scale_down(SystemConfig::scenario_db_io(400));
        // Scale the flush trigger to the smaller test workload.
        let lf = cfg.tiers[3].log_flush.as_mut().unwrap();
        lf.buffer_threshold = 300 << 10;
        lf.flush_rate = 1.5e6;
        let report = diagnose(cfg);
        assert!(report.has_anomalies(), "expected VLRT episodes");
        let ep = &report.episodes[0];
        assert!(
            matches!(ep.root_cause, RootCause::DiskIo { .. }),
            "got {:?}",
            ep.root_cause
        );
        // The pushback reaches the database tier.
        assert_eq!(ep.suspect_tier, 3);
        assert!(ep
            .pushback
            .as_ref()
            .is_some_and(PushbackEpisode::is_cross_tier));
        // Disk-related series dominate the evidence.
        assert!(!ep.evidence.is_empty());
    }

    #[test]
    fn dirty_page_scenario_diagnosed_as_recycling() {
        let mut cfg = scale_down(SystemConfig::scenario_dirty_page(400));
        // Scale thresholds to the test's log volume.
        cfg.tiers[0].memory.dirty_high_bytes = 250_000;
        cfg.tiers[0].memory.dirty_low_bytes = 0;
        cfg.tiers[0].memory.recycle_rate = 0.8e6;
        cfg.tiers[1].memory.dirty_high_bytes = 400_000;
        cfg.tiers[1].memory.dirty_low_bytes = 0;
        cfg.tiers[1].memory.recycle_rate = 1.0e6;
        let report = diagnose(cfg);
        assert!(report.has_anomalies(), "expected VLRT episodes");
        let causes: Vec<&RootCause> = report.episodes.iter().map(|e| &e.root_cause).collect();
        assert!(
            causes
                .iter()
                .any(|c| matches!(c, RootCause::DirtyPageRecycling { .. })),
            "got {causes:?}"
        );
    }

    #[test]
    fn evidence_pairs_when_warmup_is_off_the_window_grid() {
        // Queue windows start at the end of warm-up and resource buckets on
        // multiples of the window; with 3025 ms against 50 ms the two grids
        // share no timestamp, and no episode used to get any evidence.
        let mut cfg = crate::scenarios::shorten(
            crate::scenarios::calibrated_db_io(300, 3.0, 250.0),
            SimDuration::from_secs(15),
        );
        cfg.warmup = SimDuration::from_millis(3025);
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        let report = ms.diagnose(&DiagnoseOptions::default()).unwrap();
        assert!(report.has_anomalies());
        for ep in &report.episodes {
            assert!(
                !ep.evidence.is_empty(),
                "no evidence for the episode at {} µs",
                ep.episode.start_us
            );
        }
    }

    #[test]
    fn root_cause_descriptions_are_informative() {
        let cases = [
            RootCause::DiskIo {
                node: "tier3-0".into(),
                peak_util: 99.0,
            },
            RootCause::DirtyPageRecycling {
                node: "tier0-0".into(),
                drop_pages: 512.0,
            },
            RootCause::CpuSaturation {
                node: "tier1-0".into(),
                peak_busy: 98.0,
            },
            RootCause::Unknown,
        ];
        for c in &cases {
            assert!(!c.describe().is_empty());
        }
        assert!(cases[0].describe().contains("tier3-0"));
        assert!(cases[1].describe().contains("dirty-page"));
    }
}

impl DiagnosisReport {
    /// Renders the report as a Markdown investigation narrative — the
    /// automated counterpart of the paper's §V case-study write-ups.
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# milliScope diagnosis report\n\n");
        let _ = writeln!(out, "- mean response time: **{:.2} ms**", self.mean_rt_ms);
        let _ = writeln!(out, "- VLRT episodes: **{}**", self.episodes.len());
        if self.episodes.is_empty() {
            out.push_str("\nNo very-long-response-time episodes were detected.\n");
            return out;
        }
        out.push_str(
            "\n| t (s) | duration (ms) | peak (ms) | ratio | suspect tier | root cause |\n",
        );
        out.push_str("|---|---|---|---|---|---|\n");
        for ep in &self.episodes {
            let _ = writeln!(
                out,
                "| {:.2} | {:.0} | {:.0} | {:.0}x | {} | {} |",
                ep.episode.start_us as f64 / 1e6,
                ep.episode.duration_ms(),
                ep.episode.peak_ms,
                ep.episode.ratio,
                ep.suspect_tier,
                ep.root_cause.describe(),
            );
        }
        for (i, ep) in self.episodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "\n## Episode {} — t = {:.2} s",
                i + 1,
                ep.episode.start_us as f64 / 1e6
            );
            match &ep.pushback {
                Some(p) if p.is_cross_tier() => {
                    let _ = writeln!(
                        out,
                        "Cross-tier queue pushback observed (tiers {:?}); the deepest \
                         involved tier is **{}** — investigation proceeds there.",
                        p.tiers_involved, p.deepest_tier
                    );
                }
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "Queue growth is local to tier {} — no pushback from below.",
                        p.deepest_tier
                    );
                }
                None => {
                    out.push_str("No matching queue episode; resources were scanned directly.\n");
                }
            }
            let _ = writeln!(out, "\n**Verdict:** {}.", ep.root_cause.describe());
            if !ep.evidence.is_empty() {
                out.push_str("\nTop correlated resource series (vs front-tier queue):\n\n");
                for hit in ep.evidence.iter().take(3) {
                    let _ = writeln!(out, "- `{}` — r = {:.3} (n = {})", hit.label, hit.r, hit.n);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use crate::experiment::Experiment;
    use mscope_ntier::SystemConfig;

    #[test]
    fn markdown_report_renders_both_outcomes() {
        // Quiet baseline → "no episodes" text.
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.duration = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Experiment::new(cfg).unwrap().run();
        let ms = crate::MilliScope::ingest(&out).unwrap();
        let report = ms.diagnose(&DiagnoseOptions::default()).unwrap();
        let md = report.render_markdown();
        assert!(md.contains("# milliScope diagnosis report"));
        assert!(md.contains("mean response time"));
        if report.episodes.is_empty() {
            assert!(md.contains("No very-long-response-time episodes"));
        }

        // Anomalous scenario → table + verdicts.
        let cfg = crate::scenarios::shorten(
            crate::scenarios::calibrated_db_io(300, 3.0, 250.0),
            SimDuration::from_secs(15),
        );
        let out = Experiment::new(cfg).unwrap().run();
        let ms = crate::MilliScope::ingest(&out).unwrap();
        let report = ms.diagnose(&DiagnoseOptions::default()).unwrap();
        assert!(report.has_anomalies());
        let md = report.render_markdown();
        assert!(md.contains("| t (s) |"));
        assert!(md.contains("## Episode 1"));
        assert!(md.contains("**Verdict:**"));
        assert!(md.contains("disk IO saturation"));
    }
}
