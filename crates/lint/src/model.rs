//! Abstract pipeline model: the per-scenario domains the trace front
//! ([`crate::trace`]) interprets.
//!
//! A [`ScenarioModel`] is everything statically knowable about one
//! scenario preset before a single simulated request runs: the topology,
//! the monitor fleet the standard suite would deploy on it, the parsing
//! declaration each monitor's log would be fed through, the *renderer
//! shapes* each monitor guarantees (from `mscope_monitors::shape`), the
//! warehouse schemas the transformation pipeline would therefore build,
//! and the timescales of every performance phenomenon the configuration
//! can produce (log-flush stalls, dirty-page storms, injected faults).
//!
//! The trace front proves invariants over these domains; this module only
//! builds them.

use mscope_db::{ColumnType, Schema};
use mscope_monitors::{
    event_clock_domain, event_rendered_fields, resource_clock_domain, resource_rendered_fields,
    LogFileMeta, MonitorKind, MonitorSuite, Tool, ValueShape,
};
use mscope_ntier::{InjectorSpec, SystemConfig, TierKind};
use mscope_sim::SimDuration;
use mscope_transform::declaration_for;
use mscope_transform::declare::{self, ParsingDeclaration};

/// One deployed monitor: its manifest entry plus the parsing declaration
/// the transformer would derive for its log.
#[derive(Debug, Clone)]
pub struct MonitorModel {
    /// Manifest entry the suite would emit.
    pub meta: LogFileMeta,
    /// Declaration [`declaration_for`] maps the entry to.
    pub decl: ParsingDeclaration,
}

/// Resolves a manifest tool name back to the emulated [`Tool`], or `None`
/// for user-supplied tools the shape model knows nothing about.
pub fn tool_from_name(name: &str) -> Option<Tool> {
    match name {
        "collectl" => Some(Tool::CollectlCsv),
        "collectl-brief" => Some(Tool::CollectlPlain),
        "sar" => Some(Tool::SarText),
        "sar-mem" => Some(Tool::SarMem),
        "sar-net" => Some(Tool::SarNet),
        "sar-xml" => Some(Tool::SarXml),
        "iostat" => Some(Tool::Iostat),
        _ => None,
    }
}

/// The warehouse type a renderer-guaranteed [`ValueShape`] infers to.
pub fn shape_type(shape: ValueShape) -> ColumnType {
    match shape {
        ValueShape::Wall | ValueShape::WallOrNull => ColumnType::Timestamp,
        ValueShape::Int => ColumnType::Int,
        ValueShape::Float => ColumnType::Float,
        ValueShape::Text => ColumnType::Text,
    }
}

impl MonitorModel {
    /// The fields this monitor's renderer guarantees it writes, with their
    /// shapes. `None` for tools outside the shipped suite.
    pub fn rendered_fields(&self) -> Option<Vec<(&'static str, ValueShape)>> {
        match self.meta.kind {
            MonitorKind::Event => Some(event_rendered_fields(self.meta.tier_kind)),
            MonitorKind::Resource => tool_from_name(&self.meta.tool).map(resource_rendered_fields),
        }
    }

    /// The clock domain this monitor's timestamps live in, when known.
    pub fn clock_domain(&self) -> Option<&'static str> {
        match self.meta.kind {
            MonitorKind::Event => Some(event_clock_domain(self.meta.tier_kind)),
            MonitorKind::Resource => tool_from_name(&self.meta.tool).map(resource_clock_domain),
        }
    }

    /// The effective sampling period of a resource monitor: the tool's own
    /// period, floored by the simulator's base sample period (a monitor
    /// cannot see between base samples no matter how often it fires).
    pub fn effective_period(&self, cfg: &SystemConfig) -> SimDuration {
        SimDuration::from_millis(self.meta.period_ms).max(cfg.sample_period)
    }

    /// The declaration's column set with statically unknown types refined
    /// by the renderer shapes: a column [`declare::declared_columns`] can
    /// only call `Null` (unknown until runtime) takes the type the
    /// renderer guarantees its text will infer to.
    pub fn refined_columns(&self) -> Vec<(String, ColumnType)> {
        let shapes = self.rendered_fields().unwrap_or_default();
        declare::declared_columns(&self.decl)
            .into_iter()
            .map(|(name, ty)| {
                if ty == ColumnType::Null {
                    let refined = shapes
                        .iter()
                        .find(|(f, _)| *f == name)
                        .map_or(ColumnType::Null, |(_, s)| shape_type(*s));
                    (name, refined)
                } else {
                    (name, ty)
                }
            })
            .collect()
    }
}

/// A performance phenomenon a configuration can produce, with the
/// timescale a resource monitor must beat to observe it (the paper's
/// sub-second requirement, §II: "those transient bottlenecks … last only
/// tens to hundreds of milliseconds").
#[derive(Debug, Clone)]
pub struct Phenomenon {
    /// Tier index where the phenomenon manifests.
    pub tier: usize,
    /// What it is (for diagnostics).
    pub description: String,
    /// How long one episode lasts.
    pub timescale: SimDuration,
}

/// Everything statically knowable about one scenario before it runs.
#[derive(Debug, Clone)]
pub struct ScenarioModel {
    /// Preset name (diagnostic label).
    pub name: String,
    /// The configuration under proof.
    pub config: SystemConfig,
    /// The monitor fleet the standard suite deploys, with declarations.
    pub monitors: Vec<MonitorModel>,
}

impl ScenarioModel {
    /// Builds the model for a named configuration: standard suite →
    /// static manifest → one declaration per log file.
    pub fn build(name: &str, cfg: &SystemConfig) -> ScenarioModel {
        let suite = MonitorSuite::standard(cfg);
        let monitors = suite
            .manifest(cfg)
            .into_iter()
            .map(|meta| {
                let decl = declaration_for(&meta);
                MonitorModel { meta, decl }
            })
            .collect();
        ScenarioModel {
            name: name.to_string(),
            config: cfg.clone(),
            monitors,
        }
    }

    /// The event monitor of a tier's first replica, if any is deployed.
    pub fn event_monitor(&self, tier: usize) -> Option<&MonitorModel> {
        self.monitors
            .iter()
            .find(|m| m.meta.kind == MonitorKind::Event && m.meta.node.tier.0 == tier)
    }

    /// The resource monitors deployed on a tier (all replicas).
    pub fn resource_monitors_on(&self, tier: usize) -> Vec<&MonitorModel> {
        self.monitors
            .iter()
            .filter(|m| m.meta.kind == MonitorKind::Resource && m.meta.node.tier.0 == tier)
            .collect()
    }

    /// The table schemas a pipeline run over this scenario would produce:
    /// the static mScopeDB tables plus, per destination table, the lattice
    /// join of every feeding monitor's [`MonitorModel::refined_columns`].
    /// Unlike the domain front's prediction, renderer shapes type the
    /// plain captures, so analysis queries can be checked end to end.
    pub fn predicted_schemas(&self) -> Vec<(String, Schema)> {
        crate::domain::fold_schemas(
            self.monitors
                .iter()
                .map(|m| (m.decl.table.clone(), m.refined_columns())),
        )
    }

    /// Every phenomenon this configuration can produce, with its episode
    /// timescale, derived from the same parameters the simulator uses:
    /// commit-log flush stalls (`buffer_threshold / flush_rate`),
    /// dirty-page recycle storms when background writeback is starved
    /// (`(dirty_high − dirty_low) / recycle_rate`), and every configured
    /// fault injector's episode length.
    pub fn phenomena(&self) -> Vec<Phenomenon> {
        let mut out = Vec::new();
        let secs = |s: f64| SimDuration::from_micros((s * 1e6).max(1.0) as u64);
        for (i, t) in self.config.tiers.iter().enumerate() {
            if let Some(lf) = &t.log_flush {
                if lf.stall_writes || lf.stall_reads {
                    out.push(Phenomenon {
                        tier: i,
                        description: format!("{} commit-log flush stall", t.kind),
                        timescale: secs(lf.buffer_threshold as f64 / lf.flush_rate),
                    });
                }
            }
            // Starved background writeback is the preset's signal that
            // dirty pages are *meant* to pile up and trigger recycling.
            if t.memory.writeback_max_bytes == 0 {
                let span = t
                    .memory
                    .dirty_high_bytes
                    .saturating_sub(t.memory.dirty_low_bytes);
                out.push(Phenomenon {
                    tier: i,
                    description: format!("{} dirty-page recycle storm", t.kind),
                    timescale: secs(span as f64 / t.memory.recycle_rate),
                });
            }
        }
        // A bursty (MMPP on/off) arrival process is a front-tier phenomenon
        // in its own right: every burst episode floods tier 0 for the mean
        // on-phase length.
        if let mscope_ntier::ArrivalProcess::Bursty { mean_on, .. } = self.config.workload.arrival {
            if !self.config.tiers.is_empty() {
                out.push(Phenomenon {
                    tier: 0,
                    description: "arrival burst episode".to_string(),
                    timescale: mean_on,
                });
            }
        }
        for inj in &self.config.injectors {
            let (tier, description, timescale) = match inj {
                InjectorSpec::GcPause { tier, pause, .. } => {
                    (*tier, "stop-the-world GC pause".to_string(), *pause)
                }
                InjectorSpec::DvfsThrottle { tier, duration, .. } => {
                    (*tier, "DVFS throttle episode".to_string(), *duration)
                }
                InjectorSpec::CpuHog { tier, duration, .. } => {
                    (*tier, "CPU hog".to_string(), *duration)
                }
                InjectorSpec::DiskHog { tier, bytes, .. } => {
                    let bw = self
                        .config
                        .tiers
                        .get(*tier)
                        .map_or(100e6, |t| t.disk_write_bw);
                    (
                        *tier,
                        "disk write burst".to_string(),
                        secs(*bytes as f64 / bw),
                    )
                }
            };
            if self.config.tiers.get(tier).is_some() {
                out.push(Phenomenon {
                    tier,
                    description,
                    timescale,
                });
            }
        }
        out
    }

    /// Tier kinds in pipeline order (convenience for edge iteration).
    pub fn tier_kinds(&self) -> Vec<TierKind> {
        self.config.tiers.iter().map(|t| t.kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::ColumnType;

    #[test]
    fn model_covers_every_node_with_event_and_resource_monitors() {
        let cfg = SystemConfig::rubbos_baseline(100);
        let m = ScenarioModel::build("baseline", &cfg);
        for tier in 0..cfg.tiers.len() {
            assert!(m.event_monitor(tier).is_some(), "tier {tier} event monitor");
            assert!(
                !m.resource_monitors_on(tier).is_empty(),
                "tier {tier} resource monitors"
            );
        }
    }

    #[test]
    fn refined_columns_type_the_plain_captures() {
        let cfg = SystemConfig::rubbos_baseline(100);
        let m = ScenarioModel::build("baseline", &cfg);
        let ev = m.event_monitor(0).unwrap();
        let cols = ev.refined_columns();
        let ty = |n: &str| {
            cols.iter()
                .find(|(name, _)| name == n)
                .map(|(_, t)| *t)
                .unwrap_or_else(|| panic!("missing column {n}"))
        };
        assert_eq!(ty("request_id"), ColumnType::Text);
        assert_eq!(ty("ua"), ColumnType::Timestamp);
        assert_eq!(ty("dr"), ColumnType::Timestamp);
        assert_eq!(ty("status"), ColumnType::Int);
        // Constants keep their statically inferred type.
        assert_eq!(ty("tier"), ColumnType::Int);

        let collectl = m
            .resource_monitors_on(3)
            .into_iter()
            .find(|r| r.meta.tool == "collectl")
            .unwrap();
        let cols = collectl.refined_columns();
        let disk = cols.iter().find(|(n, _)| n == "disk_util").unwrap();
        assert_eq!(disk.1, ColumnType::Float);
    }

    #[test]
    fn predicted_schemas_are_fully_typed_for_shipped_monitors() {
        let cfg = SystemConfig::rubbos_baseline(100);
        let m = ScenarioModel::build("baseline", &cfg);
        for (table, schema) in m.predicted_schemas() {
            for c in schema.columns() {
                assert_ne!(
                    c.ty,
                    ColumnType::Null,
                    "column {}.{} left untyped",
                    table,
                    c.name
                );
            }
        }
    }

    #[test]
    fn phenomena_track_the_scenario_presets() {
        let base = ScenarioModel::build("b", &SystemConfig::rubbos_baseline(100));
        assert!(base.phenomena().is_empty(), "healthy baseline has none");

        let a = ScenarioModel::build("a", &SystemConfig::scenario_db_io(100));
        let ph = a.phenomena();
        assert_eq!(ph.len(), 1);
        assert_eq!(ph[0].tier, 3);
        // 5 MiB at 16 MB/s ≈ 328 ms.
        let ms = ph[0].timescale.as_micros() as f64 / 1000.0;
        assert!((ms - 327.68).abs() < 1.0, "flush stall ≈ 328 ms, got {ms}");

        let b = ScenarioModel::build("b", &SystemConfig::scenario_dirty_page(100));
        let tiers: Vec<usize> = b.phenomena().iter().map(|p| p.tier).collect();
        assert_eq!(tiers, vec![0, 1], "storms on Apache and Tomcat");

        let c = ScenarioModel::build("c", &SystemConfig::scenario_open_burst(800.0));
        let ph = c.phenomena();
        let bursts: Vec<&Phenomenon> = ph
            .iter()
            .filter(|p| p.description.contains("burst episode"))
            .collect();
        assert_eq!(bursts.len(), 1, "bursty arrivals are a phenomenon");
        assert_eq!(bursts[0].tier, 0, "bursts land on the front tier");
        assert_eq!(bursts[0].timescale, SimDuration::from_secs(2));
    }

    #[test]
    fn effective_period_floors_at_the_base_sample_period() {
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.sample_period = SimDuration::from_millis(200);
        let m = ScenarioModel::build("coarse", &cfg);
        let collectl = m
            .resource_monitors_on(0)
            .into_iter()
            .find(|r| r.meta.tool == "collectl")
            .unwrap();
        assert_eq!(collectl.meta.period_ms, 50);
        assert_eq!(
            collectl.effective_period(&cfg),
            SimDuration::from_millis(200)
        );
    }
}
