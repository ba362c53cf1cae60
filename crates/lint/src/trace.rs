//! Front 3: the trace front — whole-pipeline flow analysis.
//!
//! Abstractly interprets a [`ScenarioModel`] (topology + monitor fleet +
//! declarations + renderer shapes + phenomenon timescales) and proves the
//! cross-tier invariants the runtime pipeline otherwise only discovers by
//! failing: that the request ID injected at the first tier survives every
//! tier-to-tier edge, that every reachable tier logs all four execution
//! boundaries and each DS has a DR window downstream (so
//! `mscope_analysis::reconstruct_flows` cannot fail structurally), that
//! field types flow from declaration to analysis query with no lossy
//! narrowing, and that every monitor shares one clock domain and samples
//! finely enough for the scenario's phenomena.
//!
//! "Structurally" is the boundary of what this front proves: a missing
//! column. What a column *holds* depends on the log bytes, so the
//! per-row `FlowError`s stay runtime errors — `NullTimestamp` for an
//! absent `ua`/`ud`, and `NotTimestamp` when a boundary column loaded as
//! text, which one unparseable wallclock cell is enough to cause
//! (`convert.rs::overflowing_wallclock_cell_loads_as_text`). A column of
//! nothing but the `-` mark (a leaf tier's `ds`/`dr`) also loads as text
//! and reads as "no window", not as an error.
//!
//! | rule  | invariant family        | fires when |
//! |-------|-------------------------|------------|
//! | TR001 | ID injection            | first tier cannot inject/record the request ID (warn when event monitors are disabled wholesale) |
//! | TR002 | ID propagation          | a tier-to-tier edge drops the ID: upstream does not forward it, or the downstream declaration has no `request_id` column |
//! | TR003 | event completeness      | a reachable tier lacks an event monitor or one of the UA/UD/DS/DR captures |
//! | TR004 | event pairing           | a DS at tier *i* has no DR window at tier *i+1* (or the downstream UA/UD window is missing) |
//! | TR005 | type soundness          | a declared type and the renderer's guaranteed shape (or two monitors feeding one table) join lossily to `Text` |
//! | TR006 | analysis queries        | a representative analysis-crate query fails type-checking against the scenario's predicted schemas |
//! | TR007 | clock consistency       | a monitor has no wall-anchored capture, or monitors disagree on clock domain |
//! | TR008 | sampling granularity    | no resource monitor on a phenomenon's tier samples at least twice per episode |

use crate::model::{shape_type, ScenarioModel};
use crate::source::SqlLiteral;
use crate::{domain, Finding, Severity};
use mscope_analysis::{CausalViolation, FlowError};
use mscope_db::ColumnType;
use mscope_monitors::propagates_request_id;
use mscope_ntier::SystemConfig;
use mscope_transform::declare;

/// One trace-front diagnostic, anchored to a scenario rather than a file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFinding {
    /// Stable rule ID (`TR001`..`TR008`).
    pub rule: &'static str,
    /// Deny for provable runtime failures, warn for reduced observability.
    pub severity: Severity,
    /// Scenario preset the proof ran against.
    pub scenario: String,
    /// What the finding is about (a tier, an edge, a monitor).
    pub subject: String,
    /// Why the invariant is violated and what would fail at runtime.
    pub message: String,
}

impl TraceFinding {
    /// Adapts to the common [`Finding`] shape: the scenario becomes the
    /// `file` anchor (`scenario/<name>`), so a trace finding reads like
    /// any other.
    pub fn into_finding(self) -> Finding {
        Finding {
            rule: self.rule.to_string(),
            severity: self.severity,
            file: format!("scenario/{}", self.scenario),
            line: 0,
            message: format!("{}: {}", self.subject, self.message),
        }
    }
}

/// Runs every trace rule against one scenario configuration.
pub fn check_scenario(name: &str, cfg: &SystemConfig) -> Vec<TraceFinding> {
    check_model(&ScenarioModel::build(name, cfg))
}

/// Runs every trace rule against a pre-built (possibly mutated) model —
/// the entry point negative tests use to inject declaration drift.
pub fn check_model(model: &ScenarioModel) -> Vec<TraceFinding> {
    let mut out = Vec::new();
    check_id_flow(model, &mut out);
    check_event_windows(model, &mut out);
    check_type_flow(model, &mut out);
    check_analysis_queries(model, &mut out);
    check_clocks(model, &mut out);
    check_sampling(model, &mut out);
    out
}

/// Trace findings for every shipped scenario preset, adapted to the common
/// finding shape (what `mscope-lint trace` and `run_all` report).
pub fn trace_findings() -> Vec<Finding> {
    SystemConfig::presets()
        .iter()
        .flat_map(|(name, cfg)| check_scenario(name, cfg))
        .map(TraceFinding::into_finding)
        .collect()
}

/// Trace findings for one named preset, or every preset when `scenario` is
/// `None`.
///
/// # Errors
///
/// Returns the list of known preset names when `scenario` matches none.
pub fn trace_findings_for(scenario: Option<&str>) -> Result<Vec<Finding>, String> {
    let presets = SystemConfig::presets();
    match scenario {
        None => Ok(trace_findings()),
        Some(want) => {
            let (name, cfg) = presets.iter().find(|(n, _)| *n == want).ok_or_else(|| {
                let known: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
                format!("unknown scenario `{want}` (known: {})", known.join(", "))
            })?;
            Ok(check_scenario(name, cfg)
                .into_iter()
                .map(TraceFinding::into_finding)
                .collect())
        }
    }
}

fn finding(
    out: &mut Vec<TraceFinding>,
    model: &ScenarioModel,
    rule: &'static str,
    severity: Severity,
    subject: String,
    message: String,
) {
    out.push(TraceFinding {
        rule,
        severity,
        scenario: model.name.clone(),
        subject,
        message,
    });
}

fn has_column(m: &crate::model::MonitorModel, col: &str) -> bool {
    declare::declared_columns(&m.decl)
        .iter()
        .any(|(n, _)| n == col)
}

/// TR001 + TR002: the request ID is injected at the first tier and carried
/// on every reachable tier-to-tier edge.
fn check_id_flow(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    let kinds = model.tier_kinds();
    if !model.config.monitoring.event_monitors {
        finding(
            out,
            model,
            "TR001",
            Severity::Warn,
            "pipeline".to_string(),
            "event monitors are disabled: no request ID is injected anywhere, so no \
             causal path can ever be reconstructed from this run"
                .to_string(),
        );
        return;
    }
    match model.event_monitor(0) {
        None => finding(
            out,
            model,
            "TR001",
            Severity::Deny,
            format!("tier 0 ({})", kinds[0]),
            "first tier deploys no event monitor, so the request ID is never injected".to_string(),
        ),
        Some(front) => {
            if !has_column(front, "request_id") {
                let err = FlowError::MissingColumn {
                    table: front.decl.table.clone(),
                    column: "request_id".to_string(),
                };
                finding(
                    out,
                    model,
                    "TR001",
                    Severity::Deny,
                    format!("tier 0 ({})", kinds[0]),
                    format!(
                        "first-tier declaration drops the injected request ID; \
                         reconstruct_flows would fail with: {err}"
                    ),
                );
            }
        }
    }
    for i in 0..kinds.len().saturating_sub(1) {
        let edge = format!(
            "edge tier{i}({}) → tier{}({})",
            kinds[i],
            i + 1,
            kinds[i + 1]
        );
        if !propagates_request_id(kinds[i]) {
            finding(
                out,
                model,
                "TR002",
                Severity::Deny,
                edge.clone(),
                format!(
                    "{} does not forward the request ID downstream (no URL parameter / \
                     SQL comment), so tier {} logs are uncorrelatable",
                    kinds[i],
                    i + 1
                ),
            );
        }
        if let Some(down) = model.event_monitor(i + 1) {
            if !has_column(down, "request_id") {
                let err = FlowError::MissingColumn {
                    table: down.decl.table.clone(),
                    column: "request_id".to_string(),
                };
                finding(
                    out,
                    model,
                    "TR002",
                    Severity::Deny,
                    edge,
                    format!(
                        "downstream declaration drops the propagated ID; \
                         reconstruct_flows would fail with: {err}"
                    ),
                );
            }
        }
    }
}

/// TR003 + TR004: every reachable tier declares all four execution
/// boundaries, and every DS window has its DR counterpart downstream.
fn check_event_windows(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    if !model.config.monitoring.event_monitors {
        return;
    }
    let kinds = model.tier_kinds();
    for (i, kind) in kinds.iter().enumerate() {
        let subject = format!("tier {i} ({kind})");
        let Some(ev) = model.event_monitor(i) else {
            finding(
                out,
                model,
                "TR003",
                Severity::Deny,
                subject,
                format!(
                    "no event monitor deployed, so table `event_{kind}` never exists and \
                     every flow through tier {i} is unreconstructable"
                ),
            );
            continue;
        };
        for ts in ["ua", "ud", "ds", "dr"] {
            if !has_column(ev, ts) {
                let err = FlowError::MissingColumn {
                    table: ev.decl.table.clone(),
                    column: ts.to_string(),
                };
                finding(
                    out,
                    model,
                    "TR003",
                    Severity::Deny,
                    subject.clone(),
                    format!("declaration omits the `{ts}` boundary; reconstruct_flows would fail with: {err}"),
                );
            }
        }
    }
    // Pairing across adjacent tiers: DS/DR upstream ↔ UA/UD downstream.
    for i in 0..kinds.len().saturating_sub(1) {
        let (Some(up), Some(down)) = (model.event_monitor(i), model.event_monitor(i + 1)) else {
            continue; // already a TR003 deny
        };
        let subject = format!(
            "edge tier{i}({}) → tier{}({})",
            kinds[i],
            i + 1,
            kinds[i + 1]
        );
        for ts in ["ds", "dr"] {
            if !has_column(up, ts) {
                let cv = CausalViolation {
                    hop: i,
                    constraint: "missing-downstream-window",
                    detail: format!("tier {i} declares no `{ts}` capture"),
                };
                finding(
                    out,
                    model,
                    "TR004",
                    Severity::Deny,
                    subject.clone(),
                    format!(
                        "every flow reaching tier {} would be rejected as `{cv}`",
                        i + 1
                    ),
                );
            }
        }
        for ts in ["ua", "ud"] {
            if !has_column(down, ts) {
                let cv = CausalViolation {
                    hop: i,
                    constraint: "inter-tier-window",
                    detail: format!("tier {} declares no `{ts}` capture", i + 1),
                };
                finding(
                    out,
                    model,
                    "TR004",
                    Severity::Deny,
                    subject.clone(),
                    format!(
                        "the DS→DR window at tier {i} has no matching UA/UD inside it; \
                         flows would be rejected as `{cv}`"
                    ),
                );
            }
        }
    }
}

/// TR005: no lossy type narrowing anywhere between a declaration, what the
/// renderer actually writes, and the warehouse column the table ends up
/// with (joins that degenerate to `Text` from two non-`Text` sides).
fn check_type_flow(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    // Declared type vs renderer-guaranteed shape, per monitor.
    for m in &model.monitors {
        let Some(shapes) = m.rendered_fields() else {
            continue;
        };
        for (name, declared) in declare::declared_columns(&m.decl) {
            if declared == ColumnType::Null {
                continue;
            }
            if let Some((_, shape)) = shapes.iter().find(|(f, _)| *f == name) {
                let rendered = shape_type(*shape);
                if declared.lossy_join(rendered) {
                    finding(
                        out,
                        model,
                        "TR005",
                        Severity::Deny,
                        format!("monitor {} → `{}`", m.meta.monitor_id, m.decl.table),
                        format!(
                            "column `{name}` is declared {declared:?} but the renderer \
                             writes {rendered:?} values; the warehouse would silently \
                             widen the column to Text and every typed query on it breaks"
                        ),
                    );
                }
            }
        }
    }
    // Cross-monitor join per destination table, over *refined* types (the
    // static `schema-conflict` check only sees statically known ones).
    // Each column remembers the monitor that first contributed it so the
    // diagnostic can name both sides of a lossy join.
    type TableCols = Vec<(String, Vec<(String, ColumnType, String)>)>;
    let mut tables: TableCols = Vec::new();
    for m in &model.monitors {
        let idx = match tables.iter().position(|(t, _)| *t == m.decl.table) {
            Some(i) => i,
            None => {
                tables.push((m.decl.table.clone(), Vec::new()));
                tables.len() - 1
            }
        };
        for (name, ty) in m.refined_columns() {
            let cols = &mut tables[idx].1;
            match cols.iter_mut().find(|(n, _, _)| *n == name) {
                None => cols.push((name, ty, m.meta.monitor_id.clone())),
                Some((_, prev, owner)) => {
                    if prev.lossy_join(ty) {
                        finding(
                            out,
                            model,
                            "TR005",
                            Severity::Deny,
                            format!("table `{}`", m.decl.table),
                            format!(
                                "column `{name}` joins {prev:?} (from {owner}) with {ty:?} \
                                 (from {}): the table-wide type degenerates to Text",
                                m.meta.monitor_id
                            ),
                        );
                    }
                    *prev = prev.unify(ty);
                }
            }
        }
    }
}

/// The `SELECT`s the analysis crate's entry points issue, specialized to
/// this scenario's tables: flow reconstruction and queue laws read every
/// event table, PiT reads the front tier, correlation scans `collectl`.
fn analysis_queries(model: &ScenarioModel) -> Vec<SqlLiteral> {
    let mut out = Vec::new();
    let mut push = |entry: &str, text: String| {
        out.push(SqlLiteral {
            file: format!("analysis/{entry}"),
            line: 0,
            text,
        });
    };
    if model.config.monitoring.event_monitors {
        let kinds = model.tier_kinds();
        let mut seen = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            if seen.contains(kind) {
                continue;
            }
            seen.push(*kind);
            if i == 0 {
                push(
                    "pit",
                    format!("SELECT interaction, ua, ud FROM event_{kind}"),
                );
            }
            push(
                "flow",
                format!("SELECT request_id, interaction, node, ua, ud, ds, dr FROM event_{kind}"),
            );
            push("queue", format!("SELECT node, ua, ud FROM event_{kind}"));
        }
    }
    if model.monitors.iter().any(|m| m.decl.table == "collectl") {
        push(
            "correlate",
            "SELECT time, node, cpu_user, cpu_iowait, disk_util, mem_dirty FROM collectl"
                .to_string(),
        );
        push(
            "correlate",
            "SELECT node, MAX(disk_util) FROM collectl GROUP BY node ORDER BY node".to_string(),
        );
    }
    out
}

/// TR006: every representative analysis query type-checks against the
/// schemas this scenario's pipeline would build (via `sql::check_with`,
/// same machinery as the domain front, but with per-scenario shapes).
fn check_analysis_queries(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    let schemas = model.predicted_schemas();
    for f in domain::sql_findings_against(&analysis_queries(model), &schemas) {
        finding(
            out,
            model,
            "TR006",
            Severity::Deny,
            f.file.clone(),
            format!("[{}] {}", f.rule, f.message),
        );
    }
}

/// TR007: every monitor anchors its rows on the shared timeline, and all
/// monitors agree on one clock domain.
fn check_clocks(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    let mut reference: Option<(&'static str, String)> = None;
    for m in &model.monitors {
        if declare::wall_fields(&m.decl).is_empty() {
            finding(
                out,
                model,
                "TR007",
                Severity::Deny,
                format!("monitor {} → `{}`", m.meta.monitor_id, m.decl.table),
                "declaration has no wall-clock capture: rows cannot be placed on the \
                 experiment timeline and cross-log correlation silently drops them"
                    .to_string(),
            );
        }
        if let Some(domain) = m.clock_domain() {
            match &reference {
                None => reference = Some((domain, m.meta.monitor_id.clone())),
                Some((ref_domain, ref_owner)) => {
                    if domain != *ref_domain {
                        finding(
                            out,
                            model,
                            "TR007",
                            Severity::Deny,
                            format!("monitor {}", m.meta.monitor_id),
                            format!(
                                "clock domain `{domain}` disagrees with `{ref_domain}` \
                                 (from {ref_owner}); timestamps from the two cannot be \
                                 compared without conversion"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// TR008: for every phenomenon the configuration can produce, at least one
/// resource monitor on the affected tier samples at least twice per
/// episode (the paper's motivating requirement: second-granularity tools
/// average transient bottlenecks away).
fn check_sampling(model: &ScenarioModel, out: &mut Vec<TraceFinding>) {
    for p in model.phenomena() {
        let monitors = model.resource_monitors_on(p.tier);
        let subject = format!("tier {} {}", p.tier, p.description);
        let Some(finest) = monitors
            .iter()
            .map(|m| (m.effective_period(&model.config), &m.meta.monitor_id))
            .min()
        else {
            finding(
                out,
                model,
                "TR008",
                Severity::Deny,
                subject,
                format!(
                    "no resource monitor is deployed on the tier; {} episodes of ~{} \
                     would be invisible",
                    p.description, p.timescale
                ),
            );
            continue;
        };
        if finest.0 * 2 > p.timescale {
            finding(
                out,
                model,
                "TR008",
                Severity::Deny,
                subject,
                format!(
                    "finest monitor ({}) samples every {} but one episode lasts ~{}; \
                     below two samples per episode the phenomenon aliases into noise",
                    finest.1, finest.0, p.timescale
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_sim::SimDuration;

    fn model(cfg: &SystemConfig) -> ScenarioModel {
        ScenarioModel::build("test", cfg)
    }

    fn rules(findings: &[TraceFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn all_presets_prove_clean() {
        for (name, cfg) in SystemConfig::presets() {
            let f = check_scenario(name, &cfg);
            assert!(f.is_empty(), "{name}: {f:?}");
        }
    }

    #[test]
    fn disabled_event_monitors_warn_tr001() {
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.monitoring = mscope_ntier::MonitoringConfig::disabled();
        let f = check_model(&model(&cfg));
        assert_eq!(rules(&f), vec!["TR001"]);
        assert_eq!(f[0].severity, Severity::Warn);
    }

    #[test]
    fn coarse_sampling_denies_tr008() {
        let mut cfg = SystemConfig::scenario_db_io(100);
        cfg.sample_period = SimDuration::from_millis(500);
        let f = check_model(&model(&cfg));
        assert!(rules(&f).contains(&"TR008"), "{f:?}");
        assert!(f.iter().all(|x| x.rule == "TR008"), "{f:?}");
        assert!(f[0].message.contains("flush stall") || f[0].subject.contains("flush stall"));
    }

    #[test]
    fn unknown_scenario_lists_known_names() {
        let err = trace_findings_for(Some("ghost")).unwrap_err();
        assert!(err.contains("rubbos_baseline"), "{err}");
        assert!(trace_findings_for(Some("scenario_db_io"))
            .unwrap()
            .is_empty());
        assert!(trace_findings_for(None).unwrap().is_empty());
    }

    #[test]
    fn into_finding_anchors_on_the_scenario() {
        let t = TraceFinding {
            rule: "TR002",
            severity: Severity::Deny,
            scenario: "x".to_string(),
            subject: "edge tier0 → tier1".to_string(),
            message: "dropped".to_string(),
        };
        let f = t.into_finding();
        assert_eq!(f.rule, "TR002");
        assert_eq!(f.file, "scenario/x");
        assert_eq!(f.line, 0);
        assert!(f.message.starts_with("edge tier0"));
    }
}
