//! The per-figure regeneration functions.

use mscope_analysis::{detect_vsb, WindowSeries};
use mscope_core::scenarios::{calibrated_db_io, calibrated_dirty_page, shorten};
use mscope_core::{Experiment, MilliScope};
use mscope_db::AggFn;
use mscope_monitors::OverheadReport;
use mscope_ntier::SystemConfig;
use mscope_sim::{pearson, rmse, SimDuration};
use std::fmt::Write as _;

/// Run scale: trade fidelity to the paper's exact setup for runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~300 users, 20 s measured — seconds of wall-clock, for tests.
    Quick,
    /// 2000 users, 60 s measured — the default for figure regeneration.
    Standard,
    /// 8000 users, 420 s (7 min) measured — the paper's trial shape.
    Paper,
}

impl Scale {
    /// Parses `quick` / `standard` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Concurrent users.
    pub fn users(self) -> u32 {
        match self {
            Scale::Quick => 300,
            Scale::Standard => 2000,
            Scale::Paper => 8000,
        }
    }

    /// Measured duration.
    pub fn measured(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(20),
            Scale::Standard => SimDuration::from_secs(60),
            Scale::Paper => SimDuration::from_secs(420),
        }
    }

    /// Workload sweep for the overhead figures (the paper sweeps 1000–8000).
    pub fn sweep(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![100, 200, 300],
            Scale::Standard => vec![500, 1000, 2000],
            Scale::Paper => (1..=8).map(|k| k * 1000).collect(),
        }
    }
}

/// A labeled multi-series table: one time column, one value column per
/// series — the common shape of every figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesTable {
    /// Figure title.
    pub title: String,
    /// Column label per series.
    pub labels: Vec<String>,
    /// Rows: `(time_ms, values…)` with one value per label (NaN = no data).
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl SeriesTable {
    /// Builds from aligned window series (using the first series'
    /// timestamps; others are looked up per timestamp).
    pub fn from_series(title: &str, series: &[WindowSeries]) -> SeriesTable {
        let labels = series.iter().map(|s| s.label.clone()).collect();
        let rows = series
            .first()
            .map(|first| {
                first
                    .points
                    .iter()
                    .map(|&(t, _)| {
                        let vals = series
                            .iter()
                            .map(|s| {
                                s.points
                                    .iter()
                                    .find(|&&(st, _)| st == t)
                                    .map_or(f64::NAN, |&(_, v)| v)
                            })
                            .collect();
                        (t as f64 / 1000.0, vals)
                    })
                    .collect()
            })
            .unwrap_or_default();
        SeriesTable {
            title: title.to_string(),
            labels,
            rows,
        }
    }

    /// Renders the table as aligned text (what the `figures` binary prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:>12}", "time_ms");
        for l in &self.labels {
            let _ = write!(out, " {l:>18}");
        }
        let _ = writeln!(out);
        for (t, vals) in &self.rows {
            let _ = write!(out, "{t:>12.1}");
            for v in vals {
                if v.is_nan() {
                    let _ = write!(out, " {:>18}", "-");
                } else {
                    let _ = write!(out, " {v:>18.3}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Max value of one series (by label), NaNs skipped.
    pub fn max_of(&self, label: &str) -> Option<f64> {
        let idx = self.labels.iter().position(|l| l == label)?;
        self.rows
            .iter()
            .map(|(_, v)| v[idx])
            .filter(|v| !v.is_nan())
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    }
}

// ---------------------------------------------------------------------
// Scenario runs (shared by several figures, like the paper's case studies)
// ---------------------------------------------------------------------

/// Runs scenario A (database commit-log flush) at the given scale and
/// ingests it. Figures 2, 4, 6, 7 all read this run.
pub fn run_scenario_a(scale: Scale) -> MilliScope {
    let cfg = shorten(
        calibrated_db_io(scale.users(), 3.5, 300.0),
        scale.measured(),
    );
    ingest(cfg)
}

/// Runs scenario B (dirty-page recycling on web/app tiers). Figure 8.
pub fn run_scenario_b(scale: Scale) -> MilliScope {
    let cfg = shorten(
        calibrated_dirty_page(scale.users(), 8.0, 13.0, 400.0),
        scale.measured(),
    );
    ingest(cfg)
}

fn ingest(cfg: SystemConfig) -> MilliScope {
    let out = Experiment::new(cfg)
        .expect("calibrated config is valid")
        .run();
    MilliScope::ingest(&out).expect("standard suite ingests cleanly")
}

/// Window width used by the paper's per-interval plots.
const PIT_WINDOW: SimDuration = SimDuration::from_millis(50);

/// The zoom span rendered around the biggest episode (paper Fig. 2 spans a
/// few seconds).
const ZOOM_US: i64 = 2_500_000;

/// Finds the `[from, to)` µs window around the largest VSB episode.
fn episode_window(ms: &MilliScope) -> (i64, i64) {
    let pit = ms.pit(PIT_WINDOW).expect("event monitors enabled");
    let episodes = detect_vsb(&pit, 10.0);
    let ep = episodes
        .iter()
        .max_by(|a, b| a.peak_ms.total_cmp(&b.peak_ms))
        .expect("scenario runs produce at least one episode");
    (ep.start_us - ZOOM_US / 2, ep.end_us + ZOOM_US / 2)
}

// ---------------------------------------------------------------------
// Figure 2 — Point-in-Time response time, max >20x mean in a short window
// ---------------------------------------------------------------------

/// Regenerates Fig. 2: PIT max & mean response time around the episode.
pub fn fig2(ms: &MilliScope) -> SeriesTable {
    let (from, to) = episode_window(ms);
    let pit = ms
        .pit(PIT_WINDOW)
        .expect("event monitors enabled")
        .slice(from, to);
    let max = WindowSeries::new(
        "max_rt_ms",
        pit.points.iter().map(|p| (p.start_us, p.max_ms)).collect(),
    );
    let mean = WindowSeries::new(
        "mean_rt_ms",
        pit.points.iter().map(|p| (p.start_us, p.mean_ms)).collect(),
    );
    SeriesTable::from_series(
        "Fig 2: Point-in-Time response time (50 ms windows)",
        &[max, mean],
    )
}

// ---------------------------------------------------------------------
// Figure 4 — disk utilization per tier during the episode
// ---------------------------------------------------------------------

/// Regenerates Fig. 4: per-tier disk utilization around the episode.
pub fn fig4(ms: &MilliScope) -> SeriesTable {
    let (from, to) = episode_window(ms);
    let kinds = ms.tier_kinds();
    let series: Vec<WindowSeries> = (0..kinds.len())
        .map(|t| {
            let node = ms.tier_nodes(t)[0].clone();
            let mut s = ms
                .resource(&node, "disk_util", PIT_WINDOW, AggFn::Max)
                .expect("collectl loaded")
                .slice(from, to);
            s.label = format!("{}_disk_util", kinds[t]);
            s
        })
        .collect();
    SeriesTable::from_series("Fig 4: disk utilization per tier (%)", &series)
}

// ---------------------------------------------------------------------
// Figure 6 — queue length per tier: cross-tier pushback
// ---------------------------------------------------------------------

/// Regenerates Fig. 6: per-tier queue length around the episode.
pub fn fig6(ms: &MilliScope) -> SeriesTable {
    let (from, to) = episode_window(ms);
    let kinds = ms.tier_kinds();
    let series: Vec<WindowSeries> = ms
        .all_queues(PIT_WINDOW)
        .expect("event monitors enabled")
        .into_iter()
        .enumerate()
        .map(|(t, mut s)| {
            s = s.slice(from, to);
            s.label = format!("{}_queue", kinds[t]);
            s
        })
        .collect();
    SeriesTable::from_series("Fig 6: request queue length per tier", &series)
}

// ---------------------------------------------------------------------
// Figure 7 — DB disk util vs Apache queue, with correlation
// ---------------------------------------------------------------------

/// Fig. 7's data: the two overlaid series plus their Pearson r.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Data {
    /// The overlaid series table.
    pub table: SeriesTable,
    /// Pearson correlation between DB disk utilization and Apache queue.
    pub correlation: f64,
}

/// Regenerates Fig. 7.
pub fn fig7(ms: &MilliScope) -> Fig7Data {
    let (from, to) = episode_window(ms);
    let db_node = ms.tier_nodes(3)[0].clone();
    let mut disk = ms
        .resource(&db_node, "disk_util", PIT_WINDOW, AggFn::Max)
        .expect("collectl loaded")
        .slice(from, to);
    disk.label = "mysql_disk_util".into();
    let mut queue = ms
        .queue(0, PIT_WINDOW)
        .expect("event monitors enabled")
        .slice(from, to);
    queue.label = "apache_queue".into();
    let correlation = mscope_analysis::correlate(&disk, &queue).unwrap_or(0.0);
    Fig7Data {
        table: SeriesTable::from_series(
            "Fig 7: database disk utilization vs Apache queue length",
            &[disk, queue],
        ),
        correlation,
    }
}

// ---------------------------------------------------------------------
// Figure 8 — the dirty-page scenario's four panels
// ---------------------------------------------------------------------

/// Fig. 8's four panels.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Data {
    /// (a) PIT response time.
    pub pit: SeriesTable,
    /// (b) Apache & Tomcat queue lengths.
    pub queues: SeriesTable,
    /// (c) Apache & Tomcat CPU busy %.
    pub cpu: SeriesTable,
    /// (d) Apache & Tomcat dirty pages.
    pub dirty: SeriesTable,
    /// Number of VSB episodes inside the rendered span.
    pub episodes_in_span: usize,
}

/// Regenerates Fig. 8 (a–d): a span containing two distinct peaks.
pub fn fig8(ms: &MilliScope) -> Fig8Data {
    let pit_full = ms.pit(PIT_WINDOW).expect("event monitors enabled");
    let episodes = detect_vsb(&pit_full, 8.0);
    // Find a 5-second span holding at least two episodes (the paper's view);
    // fall back to centering on the biggest episode.
    // Pick the closest pair of episodes and size the span to hold both
    // with padding (the paper's Fig. 8 interval holds two peaks ~2.5 s
    // apart in a 5 s view).
    let closest_pair = episodes
        .windows(2)
        .min_by_key(|w| w[1].end_us - w[0].start_us);
    let (span_us, mut from) = match closest_pair {
        Some(w) => (
            (w[1].end_us - w[0].start_us + 1_200_000).max(5_000_000),
            w[0].start_us - 600_000,
        ),
        None => (
            5_000_000,
            episodes.first().map_or(0, |e| e.start_us - 1_000_000),
        ),
    };
    let (mstart, _) = ms.measured_range();
    from = from.max(mstart.as_micros() as i64);
    let to = from + span_us;
    let episodes_in_span = episodes
        .iter()
        .filter(|e| e.start_us >= from && e.end_us <= to)
        .count();

    let pit = pit_full.slice(from, to);
    let pit_table = SeriesTable::from_series(
        "Fig 8a: Point-in-Time response time (50 ms windows)",
        &[
            WindowSeries::new(
                "max_rt_ms",
                pit.points.iter().map(|p| (p.start_us, p.max_ms)).collect(),
            ),
            WindowSeries::new(
                "mean_rt_ms",
                pit.points.iter().map(|p| (p.start_us, p.mean_ms)).collect(),
            ),
        ],
    );

    let label = |t: usize, what: &str| format!("{}_{what}", ms.tier_kinds()[t]);
    let queues: Vec<WindowSeries> = [0usize, 1]
        .iter()
        .map(|&t| {
            let mut s = ms
                .queue(t, PIT_WINDOW)
                .expect("event monitors enabled")
                .slice(from, to);
            s.label = label(t, "queue");
            s
        })
        .collect();
    let cpu: Vec<WindowSeries> = [0usize, 1]
        .iter()
        .map(|&t| {
            let node = ms.tier_nodes(t)[0].clone();
            let mut s = ms
                .cpu_busy(&node, PIT_WINDOW)
                .expect("collectl loaded")
                .slice(from, to);
            s.label = label(t, "cpu_busy");
            s
        })
        .collect();
    let dirty: Vec<WindowSeries> = [0usize, 1]
        .iter()
        .map(|&t| {
            let node = ms.tier_nodes(t)[0].clone();
            let mut s = ms
                .resource(&node, "mem_dirty", PIT_WINDOW, AggFn::Last)
                .expect("collectl loaded")
                .slice(from, to);
            s.label = label(t, "dirty_pages");
            s
        })
        .collect();

    Fig8Data {
        pit: pit_table,
        queues: SeriesTable::from_series("Fig 8b: queue length, Apache & Tomcat", &queues),
        cpu: SeriesTable::from_series("Fig 8c: CPU utilization, Apache & Tomcat (%)", &cpu),
        dirty: SeriesTable::from_series("Fig 8d: dirty pages, Apache & Tomcat", &dirty),
        episodes_in_span,
    }
}

// ---------------------------------------------------------------------
// Figure 9 — event monitors vs SysViz queue lengths
// ---------------------------------------------------------------------

/// One tier's accuracy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Tier name.
    pub tier: String,
    /// RMSE between the event-monitor and SysViz queue series.
    pub rmse: f64,
    /// Pearson correlation between the two series.
    pub correlation: f64,
    /// Mean queue length (event monitors).
    pub mean_queue: f64,
    /// The two overlaid series.
    pub table: SeriesTable,
}

/// Regenerates Fig. 9 at the given scale: a healthy baseline run, queue
/// length per tier derived independently from the event monitors and from
/// the SysViz network tap.
pub fn fig9(scale: Scale) -> Vec<Fig9Row> {
    let cfg = shorten(
        SystemConfig::rubbos_baseline(scale.users()),
        scale.measured(),
    );
    let ms = ingest(cfg);
    let window = SimDuration::from_millis(100);
    let kinds = ms.tier_kinds();
    (0..kinds.len())
        .map(|t| {
            let mut mon = ms.queue(t, window).expect("event monitors enabled");
            mon.label = format!("{}_monitor", kinds[t]);
            let mut sv = ms.sysviz_queue(t, window).expect("tap enabled");
            sv.label = format!("{}_sysviz", kinds[t]);
            let pairs = mscope_analysis::align(&mon, &sv);
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            Fig9Row {
                tier: kinds[t].to_string(),
                rmse: rmse(&xs, &ys).unwrap_or(f64::NAN),
                correlation: pearson(&xs, &ys).unwrap_or(f64::NAN),
                mean_queue: xs.iter().sum::<f64>() / xs.len().max(1) as f64,
                table: SeriesTable::from_series(
                    &format!("Fig 9 ({}): queue length, monitors vs SysViz", kinds[t]),
                    &[mon, sv],
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 10 & 11 — overhead of the event monitors
// ---------------------------------------------------------------------

/// One workload point of the overhead sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Concurrent users.
    pub users: u32,
    /// The full per-node comparison.
    pub report: OverheadReport,
}

/// Runs the monitors-enabled vs monitors-disabled sweep shared by
/// Figs. 10 and 11.
pub fn overhead_sweep(scale: Scale) -> Vec<OverheadRow> {
    scale
        .sweep()
        .into_iter()
        .map(|users| {
            let base = shorten(SystemConfig::rubbos_baseline(users), scale.measured());
            let mut on_cfg = base.clone();
            on_cfg.monitoring.event_monitors = true;
            let mut off_cfg = base;
            off_cfg.monitoring.event_monitors = false;
            let on = Experiment::new(on_cfg).expect("valid").run();
            let off = Experiment::new(off_cfg).expect("valid").run();
            OverheadRow {
                users,
                report: OverheadReport::between(&on.run, &off.run),
            }
        })
        .collect()
}

/// Renders Fig. 10: per-node CPU overhead (points of user+sys+iowait) and
/// disk-write/log ratios across the sweep.
pub fn fig10(rows: &[OverheadRow]) -> String {
    let mut out = String::from("# Fig 10: event-monitor overhead per node\n");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "users", "node", "cpu_on%", "cpu_off%", "iowait_on%", "overhead_pts", "log_ratio"
    );
    for row in rows {
        for n in &row.report.nodes {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
                row.users,
                n.node.to_string(),
                n.cpu_on,
                n.cpu_off,
                n.iowait_on,
                n.cpu_overhead_points(),
                n.log_ratio(),
            );
        }
    }
    out
}

/// Renders Fig. 11: system throughput and mean response time, enabled vs
/// disabled, across the sweep.
pub fn fig11(rows: &[OverheadRow]) -> String {
    let mut out = String::from("# Fig 11: throughput & response time, monitors on vs off\n");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "users", "tps_on", "tps_off", "rt_on_ms", "rt_off_ms", "rt_delta_ms"
    );
    for row in rows {
        let r = &row.report;
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>12.1} {:>10.2} {:>10.2} {:>12.2}",
            row.users,
            r.throughput_on,
            r.throughput_off,
            r.rt_on_ms,
            r.rt_off_ms,
            r.added_latency_ms(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Paper.users(), 8000);
        assert_eq!(Scale::Paper.sweep().len(), 8);
    }

    #[test]
    fn series_table_render_and_max() {
        let a = WindowSeries::new("x", vec![(0, 1.0), (50_000, 9.0)]);
        let b = WindowSeries::new("y", vec![(0, 2.0)]);
        let t = SeriesTable::from_series("demo", &[a, b]);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[1].1[1].is_nan(), "missing y at 50ms");
        let rendered = t.render();
        assert!(rendered.contains("# demo"));
        assert!(rendered.contains('-'));
        assert_eq!(t.max_of("x"), Some(9.0));
        assert_eq!(t.max_of("y"), Some(2.0));
        assert_eq!(t.max_of("zzz"), None);
    }

    // Scenario-based figure tests live in the workspace integration suite
    // (tests/figures.rs) where a single run is shared across assertions.
}

// ---------------------------------------------------------------------
// Ablation — millisecond granularity vs 1-second sampling
// ---------------------------------------------------------------------

/// Result of the sampling-granularity ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationResult {
    /// VSB episodes present in the run (ground truth from the fine series).
    pub episodes: usize,
    /// Episodes visible in the 50 ms queue series.
    pub detected_50ms: usize,
    /// Episodes visible to a monitor that samples the queue gauge once per
    /// second (the paper's "sampling at 1 second intervals" strawman).
    pub detected_1s: usize,
}

impl AblationResult {
    /// Fraction of episodes the 1 s sampler misses.
    pub fn miss_rate_1s(&self) -> f64 {
        if self.episodes == 0 {
            return 0.0;
        }
        1.0 - self.detected_1s as f64 / self.episodes as f64
    }
}

/// Quantifies the paper's Fig. 2 argument: VSB episodes last a few hundred
/// milliseconds, so a monitor reading the queue gauge once per second sees
/// most of them as *nothing*, while the 50 ms series catches every one.
pub fn sampling_ablation(ms: &MilliScope) -> AblationResult {
    let pit = ms.pit(PIT_WINDOW).expect("event monitors enabled");
    let episodes = detect_vsb(&pit, 10.0);
    let fine = ms.queue(0, PIT_WINDOW).expect("event monitors enabled");
    // A 1 Hz sampler reads the same gauge but only at 1-second instants:
    // keep every 20th 50 ms point.
    let coarse_points: Vec<(i64, f64)> = fine
        .points
        .iter()
        .filter(|&&(t, _)| t % 1_000_000 == 0)
        .copied()
        .collect();
    // Elevation threshold shared by both observers.
    let mut vals: Vec<f64> = fine.values();
    vals.sort_by(f64::total_cmp);
    let median = if vals.is_empty() {
        0.0
    } else {
        vals[vals.len() / 2]
    };
    let threshold = 3.0 * (median + 1.0);

    let visible = |points: &[(i64, f64)], from: i64, to: i64| {
        points
            .iter()
            .any(|&(t, v)| t >= from && t < to && v > threshold)
    };
    let mut detected_50ms = 0;
    let mut detected_1s = 0;
    for ep in &episodes {
        // The queue builds up *during* the stall; the VLRT completions that
        // define the episode land as it drains — look at the stall window.
        let (from, to) = (ep.start_us - 600_000, ep.end_us);
        if visible(&fine.points, from, to) {
            detected_50ms += 1;
        }
        if visible(&coarse_points, from, to) {
            detected_1s += 1;
        }
    }
    AblationResult {
        episodes: episodes.len(),
        detected_50ms,
        detected_1s,
    }
}

/// Result of the utilization-only ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtilizationAblation {
    /// VSB episodes milliScope detects (PIT + queues + resources).
    pub episodes: usize,
    /// Of those, how many coincide with *any* node's CPU exceeding 90 % —
    /// what a utilization-threshold alarm would see.
    pub cpu_alarm_visible: usize,
}

/// Quantifies the paper's §II claim that "a bottleneck cannot be detected
/// using hardware utilization alone": during scenario A's commit-log
/// stalls, every CPU in the system is *idle* (the database's workers are
/// blocked on IO), so a CPU-utilization alarm sees nothing while requests
/// take 50x longer.
pub fn utilization_ablation(ms: &MilliScope) -> UtilizationAblation {
    let pit = ms.pit(PIT_WINDOW).expect("event monitors enabled");
    let episodes = detect_vsb(&pit, 10.0);
    let kinds = ms.tier_kinds();
    let cpu: Vec<WindowSeries> = (0..kinds.len())
        .map(|t| {
            let node = ms.tier_nodes(t)[0].clone();
            ms.cpu_busy(&node, PIT_WINDOW).expect("collectl loaded")
        })
        .collect();
    let mut cpu_alarm_visible = 0;
    for ep in &episodes {
        let (from, to) = (ep.start_us - 600_000, ep.end_us);
        let seen = cpu.iter().any(|s| {
            s.points
                .iter()
                .any(|&(t, v)| t >= from && t < to && v > 90.0)
        });
        if seen {
            cpu_alarm_visible += 1;
        }
    }
    UtilizationAblation {
        episodes: episodes.len(),
        cpu_alarm_visible,
    }
}

impl SeriesTable {
    /// Renders an ASCII line chart of the table's series — a terminal
    /// rendition of the paper's plots. Each series gets its own glyph;
    /// overlapping points show the later series' glyph.
    ///
    /// `height` is the number of chart rows (excluding axes); width follows
    /// the number of windows, capped at `max_width` columns by downsampling
    /// (max within each column, so peaks survive).
    pub fn render_ascii_chart(&self, height: usize, max_width: usize) -> String {
        const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
        let height = height.max(2);
        let max_width = max_width.max(8);
        if self.rows.is_empty() || self.labels.is_empty() {
            return format!("# {}\n(no data)\n", self.title);
        }
        // Downsample columns: group rows into max_width buckets, keep the max
        // per series (peaks are the point of these figures).
        let n = self.rows.len();
        let cols = n.min(max_width);
        let mut grid: Vec<Vec<f64>> = vec![vec![f64::NAN; self.labels.len()]; cols];
        for (i, (_, vals)) in self.rows.iter().enumerate() {
            let c = i * cols / n;
            for (s, &v) in vals.iter().enumerate() {
                if !v.is_nan() && (grid[c][s].is_nan() || v > grid[c][s]) {
                    grid[c][s] = v;
                }
            }
        }
        let max_v = grid
            .iter()
            .flatten()
            .filter(|v| !v.is_nan())
            .fold(0.0f64, |a, &b| a.max(b))
            .max(1e-9);
        // Paint from the first series up so later series win collisions.
        let mut canvas = vec![vec![' '; cols]; height];
        for (s, _) in self.labels.iter().enumerate() {
            let glyph = GLYPHS[s % GLYPHS.len()];
            for (c, col) in grid.iter().enumerate() {
                let v = col[s];
                if v.is_nan() {
                    continue;
                }
                let row = ((v / max_v) * (height - 1) as f64).round() as usize;
                canvas[height - 1 - row][c] = glyph;
            }
        }
        let mut out = format!("# {}\n", self.title);
        for (i, line) in canvas.iter().enumerate() {
            let y = max_v * (height - 1 - i) as f64 / (height - 1) as f64;
            out.push_str(&format!("{y:>10.1} |"));
            out.extend(line.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(cols)));
        let t0 = self.rows.first().map_or(0.0, |r| r.0);
        let t1 = self.rows.last().map_or(0.0, |r| r.0);
        out.push_str(&format!("{:>10}  {:.1} ms … {:.1} ms\n", "t:", t0, t1));
        for (s, label) in self.labels.iter().enumerate() {
            out.push_str(&format!(
                "{:>12} {} = {label}\n",
                "",
                GLYPHS[s % GLYPHS.len()]
            ));
        }
        out
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_renders_peaks_and_legend() {
        let s = WindowSeries::new(
            "max_rt_ms",
            (0..100)
                .map(|i| (i * 50_000, if i == 50 { 300.0 } else { 5.0 }))
                .collect(),
        );
        let t = SeriesTable::from_series("demo", &[s]);
        let chart = t.render_ascii_chart(10, 60);
        assert!(chart.contains("# demo"));
        assert!(chart.contains("* = max_rt_ms"));
        // The peak row (top) contains exactly one glyph.
        let top = chart.lines().nth(1).expect("chart has rows");
        assert_eq!(top.matches('*').count(), 1, "top row: {top}");
        // Axis labels show the scaled max.
        assert!(chart.contains("300.0"));
    }

    #[test]
    fn chart_handles_empty_and_nan() {
        let empty = SeriesTable {
            title: "e".into(),
            labels: vec![],
            rows: vec![],
        };
        assert!(empty.render_ascii_chart(8, 40).contains("no data"));
        let s1 = WindowSeries::new("a", vec![(0, 1.0)]);
        let s2 = WindowSeries::new("b", vec![(50_000, 2.0)]); // misaligned → NaN holes
        let t = SeriesTable::from_series("holes", &[s1, s2]);
        let chart = t.render_ascii_chart(5, 20);
        assert!(chart.contains("+ = b"));
    }
}

// ---------------------------------------------------------------------
// Architecture figures (1, 3, 5): rendered live from the running system
// rather than reproduced as static diagrams.
// ---------------------------------------------------------------------

/// Fig. 1: the n-tier topology with a sample causal path — rendered from
/// the actual configuration and an actual request.
pub fn fig1(ms: &MilliScope) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# Fig 1: topology and a sample causal path\n\n");
    let cfg = ms.config();
    let mut lane = String::new();
    for (i, t) in cfg.tiers.iter().enumerate() {
        if i > 0 {
            lane.push_str(" → ");
        }
        let _ = write!(lane, "[{} ×{}]", t.kind, t.replicas);
    }
    let _ = writeln!(out, "clients → {lane}");
    // A sample causal path: the deepest completed flow.
    let flows = ms.flows().expect("event monitors enabled");
    if let Some(flow) = flows
        .iter()
        .filter(|f| f.hops().len() == cfg.tiers.len())
        .max_by(|a, b| {
            a.response_time_ms()
                .unwrap_or(0.0)
                .total_cmp(&b.response_time_ms().unwrap_or(0.0))
        })
    {
        out.push('\n');
        out.push_str(&flow.render_ascii(72));
    }
    out
}

/// Fig. 3: the data-transformation flow — the live parsing-declaration
/// table (file → mScopeParser → destination table) plus what each stage
/// loaded, printed from a real transformation run.
pub fn fig3(ms: &MilliScope) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Fig 3: mScopeDataTransformer flow (declarations → parsers → typed columns → mScopeDB)\n\n",
    );
    let log_files = ms.db().require("log_files").expect("static table");
    let monitors = ms.db().require("monitors").expect("static table");
    let _ = writeln!(
        out,
        "{:>34} {:>18} {:>10} {:>8}",
        "log file", "monitor", "format", "bytes"
    );
    for i in 0..log_files.row_count() {
        let cell = |c: &str| log_files.cell(i, c).map(|v| v.render()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{:>34} {:>18} {:>10} {:>8}",
            cell("path"),
            cell("monitor_id"),
            cell("format"),
            cell("bytes")
        );
    }
    let _ = writeln!(out, "\nmonitors registered: {}", monitors.row_count());
    let _ = writeln!(out, "tables materialized in mScopeDB:");
    for (table, rows) in &ms.transform_report().tables {
        let _ = writeln!(out, "  {table:<16} {rows:>8} rows");
    }
    out
}

/// Fig. 5: the per-request execution map with the four timestamps — the
/// slowest request's actual map.
pub fn fig5(ms: &MilliScope) -> String {
    let flows = ms.flows().expect("event monitors enabled");
    let slowest = flows.iter().max_by(|a, b| {
        a.response_time_ms()
            .unwrap_or(0.0)
            .total_cmp(&b.response_time_ms().unwrap_or(0.0))
    });
    match slowest {
        Some(f) => format!(
            "# Fig 5: execution map (UA/UD/DS/DR) of the slowest request\n\n{}",
            f.render_ascii(72)
        ),
        None => "# Fig 5: no completed requests\n".to_string(),
    }
}
