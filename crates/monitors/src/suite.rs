//! The deployed monitor fleet for one experiment, and its rendered output.
//!
//! A [`MonitorSuite`] is milliScope's deployment plan: which event monitors
//! and which resource monitors run where, at what period. Rendering a
//! [`RunOutput`](mscope_ntier::RunOutput) through the suite produces the
//! complete set of native log files plus the *manifest* — the
//! file-to-monitor mapping that seeds mScopeDataTransformer's parsing
//! declarations (paper §III-B1).

use crate::logstore::LogStore;
use crate::resource::{ResourceMonitor, Tool};
use crate::sysviz::SysVizTrace;
use mscope_ntier::{NodeId, RunOutput, SystemConfig, TierId, TierKind};
use mscope_sim::SimDuration;

/// Event or resource monitor (the paper's two monitor families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorKind {
    /// Event mScopeMonitor (request execution boundaries).
    Event,
    /// Resource mScopeMonitor (utilization counters).
    Resource,
}
mscope_serdes::json_enum!(MonitorKind { Event, Resource });

/// Metadata describing one produced log file; consumed by the transformer's
/// parsing-declaration stage and recorded in mScopeDB's static tables.
#[derive(Debug, Clone, PartialEq)]
pub struct LogFileMeta {
    /// Path within the [`LogStore`].
    pub path: String,
    /// Node that produced it.
    pub node: NodeId,
    /// Node software kind.
    pub tier_kind: TierKind,
    /// Monitor identifier (e.g. `"collectl-tier3-0"`, `"event-tier0-0"`).
    pub monitor_id: String,
    /// Tool name (`"collectl"`, `"sar"`, … or the component name for event
    /// logs).
    pub tool: String,
    /// File format label (`"text"`, `"csv"`, `"xml"`).
    pub format: String,
    /// Monitor family.
    pub kind: MonitorKind,
    /// Monitor period in milliseconds (0 for event monitors — they log
    /// every request).
    pub period_ms: u64,
}
mscope_serdes::json_struct!(LogFileMeta {
    path,
    node,
    tier_kind,
    monitor_id,
    tool,
    format,
    kind,
    period_ms,
});

/// Everything the monitoring layer hands to the transformation pipeline.
#[derive(Debug)]
pub struct MonitoringArtifacts {
    /// All native log files.
    pub store: LogStore,
    /// One entry per produced log file.
    pub manifest: Vec<LogFileMeta>,
    /// The passive tap's independent reconstruction, when enabled.
    pub sysviz: Option<SysVizTrace>,
}

/// The deployment plan: which monitors run on which nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSuite {
    /// Resource monitors to run.
    pub resource_monitors: Vec<ResourceMonitor>,
    /// Whether event monitors run (mirrors
    /// [`MonitoringConfig::event_monitors`](mscope_ntier::MonitoringConfig)).
    pub event_monitors: bool,
    /// Whether the passive tap captures.
    pub sysviz: bool,
}
mscope_serdes::json_struct!(MonitorSuite {
    resource_monitors,
    event_monitors,
    sysviz
});

impl MonitorSuite {
    /// The standard milliScope deployment for a topology: Collectl (CSV,
    /// 50 ms) on every node; SAR CPU text, SAR XML, SAR memory, and SAR
    /// network (all 1 s) on every node; IOstat (100 ms) on the database
    /// tier; plus event monitors and the tap as the config dictates.
    pub fn standard(cfg: &SystemConfig) -> MonitorSuite {
        let nodes: usize = cfg.tiers.iter().map(|t| t.replicas).sum();
        // Five monitors per node plus IOstat on database replicas.
        let mut resource_monitors = Vec::with_capacity(nodes * 6);
        for (ti, t) in cfg.tiers.iter().enumerate() {
            for replica in 0..t.replicas {
                let node = NodeId {
                    tier: TierId(ti),
                    replica,
                };
                resource_monitors.push(ResourceMonitor {
                    node,
                    kind: t.kind,
                    tool: Tool::CollectlCsv,
                    period: SimDuration::from_millis(50),
                });
                resource_monitors.push(ResourceMonitor {
                    node,
                    kind: t.kind,
                    tool: Tool::SarText,
                    period: SimDuration::from_secs(1),
                });
                resource_monitors.push(ResourceMonitor {
                    node,
                    kind: t.kind,
                    tool: Tool::SarXml,
                    period: SimDuration::from_secs(1),
                });
                resource_monitors.push(ResourceMonitor {
                    node,
                    kind: t.kind,
                    tool: Tool::SarMem,
                    period: SimDuration::from_secs(1),
                });
                resource_monitors.push(ResourceMonitor {
                    node,
                    kind: t.kind,
                    tool: Tool::SarNet,
                    period: SimDuration::from_secs(1),
                });
                if t.kind == TierKind::Mysql {
                    resource_monitors.push(ResourceMonitor {
                        node,
                        kind: t.kind,
                        tool: Tool::Iostat,
                        period: SimDuration::from_millis(100),
                    });
                }
            }
        }
        MonitorSuite {
            resource_monitors,
            event_monitors: cfg.monitoring.event_monitors,
            sysviz: cfg.monitoring.sysviz_tap,
        }
    }

    /// The manifest this suite *will* produce for a topology, computed
    /// statically — no run required. `render` emits exactly these entries
    /// (event logs first, in topology order, then resource monitors in
    /// deployment order), so tooling like `mscope-lint` can derive and
    /// validate the parsing declarations without executing a simulation.
    pub fn manifest(&self, cfg: &SystemConfig) -> Vec<LogFileMeta> {
        let event_nodes = if self.event_monitors {
            cfg.tiers.iter().map(|t| t.replicas).sum()
        } else {
            0
        };
        let mut manifest = Vec::with_capacity(event_nodes + self.resource_monitors.len());
        if self.event_monitors {
            for (node, kind) in topology_nodes(cfg) {
                let m = crate::event::EventMonitor::new(node, kind);
                manifest.push(LogFileMeta {
                    path: m.log_path(),
                    node,
                    tier_kind: kind,
                    // perf: manifest entries own their id/tool/format names —
                    // once per monitor at manifest time, never per sample.
                    monitor_id: format!("event-{node}"),
                    tool: kind.name().to_string(),
                    format: "text".to_string(),
                    kind: MonitorKind::Event,
                    period_ms: 0,
                });
            }
        }
        for rm in &self.resource_monitors {
            manifest.push(LogFileMeta {
                path: rm.log_path(),
                node: rm.node,
                tier_kind: rm.kind,
                // perf: manifest entries own their id/tool/format names —
                // once per monitor at manifest time, never per sample.
                monitor_id: rm.monitor_id(),
                tool: rm.tool.name().to_string(),
                format: rm.tool.format().to_string(),
                kind: MonitorKind::Resource,
                period_ms: rm.period.as_millis(),
            });
        }
        manifest
    }

    /// Renders every monitor's log from a finished run: one pass of the
    /// [`MonitorStream`](crate::MonitorStream) driver, fed the run's
    /// lifecycle events, resource samples and wire messages, each vector in
    /// its own order. Every monitor sees its own subsequence exactly as a
    /// live stream would deliver it, so this returns what the stream returns
    /// for the time-merged records ([`merged_records`](crate::merged_records)).
    pub fn render(&self, out: &RunOutput) -> MonitoringArtifacts {
        let mut stream = self.stream(&out.config);
        for ev in &out.lifecycle {
            stream.observe_lifecycle(ev);
        }
        for s in &out.samples {
            stream.observe_sample(s);
        }
        for m in &out.messages {
            stream.observe_message(m);
        }
        stream.finish()
    }
}

/// Flattens a topology into `(node, kind)` pairs.
pub fn topology_nodes(cfg: &SystemConfig) -> Vec<(NodeId, TierKind)> {
    let mut nodes = Vec::with_capacity(cfg.tiers.iter().map(|t| t.replicas).sum());
    for (ti, t) in cfg.tiers.iter().enumerate() {
        for replica in 0..t.replicas {
            nodes.push((
                NodeId {
                    tier: TierId(ti),
                    replica,
                },
                t.kind,
            ));
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_ntier::Simulator;

    fn small_run(event_monitors: bool) -> RunOutput {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        cfg.monitoring.event_monitors = event_monitors;
        Simulator::new(cfg).unwrap().run()
    }

    #[test]
    fn standard_suite_renders_everything() {
        let out = small_run(true);
        let suite = MonitorSuite::standard(&out.config);
        let art = suite.render(&out);
        // 4 event logs + per node: collectl + sar + sar-xml + sar-mem +
        // sar-net (+ iostat on db).
        assert_eq!(art.manifest.len(), 4 + 4 * 5 + 1);
        assert_eq!(art.store.len(), art.manifest.len());
        for meta in &art.manifest {
            assert!(
                art.store.read(&meta.path).is_some(),
                "manifest path {} missing from store",
                meta.path
            );
        }
        assert!(art.sysviz.is_some());
        assert!(!art.sysviz.unwrap().is_empty());
    }

    #[test]
    fn disabled_event_monitors_produce_no_event_logs() {
        let out = small_run(false);
        let suite = MonitorSuite::standard(&out.config);
        let art = suite.render(&out);
        assert!(art.manifest.iter().all(|m| m.kind == MonitorKind::Resource));
        assert!(art.store.paths().iter().all(|p| !p.ends_with("access_log")));
    }

    #[test]
    fn event_logs_contain_one_line_per_completed_visit() {
        let out = small_run(true);
        let suite = MonitorSuite::standard(&out.config);
        let art = suite.render(&out);
        let apache_log = art.store.read("logs/tier0-0/access_log").unwrap();
        // Every request that departed Apache got a line; lines never exceed
        // issued requests.
        let lines = apache_log.lines().count() as u64;
        assert!(lines > 0 && lines <= out.stats.issued);
    }

    #[test]
    fn manifest_metadata_is_consistent() {
        let out = small_run(true);
        let art = MonitorSuite::standard(&out.config).render(&out);
        for m in &art.manifest {
            match m.kind {
                MonitorKind::Event => {
                    assert_eq!(m.period_ms, 0);
                    assert!(m.monitor_id.starts_with("event-"));
                }
                MonitorKind::Resource => {
                    assert!(m.period_ms >= 50);
                    assert!(["csv", "text", "xml"].contains(&m.format.as_str()));
                }
            }
        }
    }
}
