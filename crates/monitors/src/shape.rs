//! Renderer-side field shapes: what each monitor *actually writes*, as
//! statically knowable facts about the emitting code in
//! [`event`](crate::event) and [`resource`](crate::resource).
//!
//! The parsing declarations in `mscope-transform` describe what a log is
//! *expected* to contain; this module is the other half of the contract —
//! the set of fields a monitor renders and the narrowest warehouse type
//! each field's text will infer to. `mscope-lint`'s trace front joins the
//! two sides to prove, before any simulation runs, that every declared
//! capture will be fed a value of the type downstream queries assume.

use crate::resource::Tool;
use mscope_ntier::TierKind;

/// Clock domain shared by every monitor in the suite: microseconds since
/// experiment start, rendered as `HH:MM:SS.ffffff` by
/// [`mscope_sim::wallclock`]. A single domain is itself a provable
/// property — the paper's cross-log correlation (§IV) assumes all
/// timestamps share one epoch and unit.
pub const CLOCK_DOMAIN: &str = "sim-us";

/// The narrowest warehouse type a rendered field's text infers to, as the
/// renderer guarantees it (a static mirror of `Value::infer` over the
/// format strings in the `event` / `resource` modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueShape {
    /// Always a `HH:MM:SS.ffffff` wall-clock string (infers `Timestamp`).
    Wall,
    /// A wall-clock string or the `-` placeholder (infers `Timestamp`,
    /// nullable) — the event monitors' `ds`/`dr` columns.
    WallOrNull,
    /// Always an integer literal.
    Int,
    /// Always a float literal (`{:.1}` / `{:.2}` renderings).
    Float,
    /// Free-form text.
    Text,
}

impl ValueShape {
    /// `true` when this shape carries a wall-clock value that anchors the
    /// row on the shared experiment timeline.
    pub fn is_wall(self) -> bool {
        matches!(self, ValueShape::Wall | ValueShape::WallOrNull)
    }
}

/// The fields an event monitor renders for a tier, in line order, with the
/// shape each value is guaranteed to have. These mirror
/// [`EventMonitor`](crate::EventMonitor)'s per-tier `format_line` exactly:
/// the request ID and interaction are text, the four execution-boundary
/// timestamps are wall-clock (with `ds`/`dr` nullable at the leaf tier).
pub fn event_rendered_fields(kind: TierKind) -> Vec<(&'static str, ValueShape)> {
    use ValueShape::*;
    let mut fields: Vec<(&'static str, ValueShape)> = match kind {
        TierKind::Apache => vec![
            ("client", Text),
            ("wall", Wall),
            ("interaction", Text),
            ("request_id", Text),
            ("status", Int),
            ("bytes", Int),
        ],
        TierKind::Tomcat => vec![("wall", Wall), ("interaction", Text), ("request_id", Text)],
        TierKind::Cjdbc => vec![("wall", Wall), ("request_id", Text), ("interaction", Text)],
        TierKind::Mysql => vec![
            ("wall", Wall),
            ("thread_id", Int),
            ("sql", Text),
            ("request_id", Text),
            ("interaction", Text),
        ],
    };
    fields.extend([
        ("ua", Wall),
        ("ud", Wall),
        ("ds", WallOrNull),
        ("dr", WallOrNull),
    ]);
    fields
}

/// `true` if an event monitor at this tier injects the request ID into its
/// *outgoing* downstream call (URL parameter, AJP attribute, or SQL
/// comment), i.e. the next tier's log can carry the same ID. Every tier in
/// the emulated RUBBoS pipeline propagates; a future tier kind that does
/// not would break ID-propagation coverage, which is exactly what the
/// trace front's TR002 check detects.
pub fn propagates_request_id(kind: TierKind) -> bool {
    matches!(
        kind,
        TierKind::Apache | TierKind::Tomcat | TierKind::Cjdbc | TierKind::Mysql
    )
}

/// The fields a resource monitor renders per record, with guaranteed
/// shapes — a static mirror of the format strings in
/// the `resource` module (`{:.2}` → `Float`, `{}` over an integer
/// counter → `Int`, `wallclock(..)` → `Wall`).
pub fn resource_rendered_fields(tool: Tool) -> Vec<(&'static str, ValueShape)> {
    use ValueShape::*;
    match tool {
        Tool::CollectlCsv => vec![
            ("time", Wall),
            ("cpu_user", Float),
            ("cpu_sys", Float),
            ("cpu_iowait", Float),
            ("cpu_idle", Float),
            ("mem_dirty", Int),
            ("mem_used_kb", Int),
            ("disk_write_kb", Float),
            ("disk_writes", Int),
            ("disk_util", Float),
            ("net_rx_kb", Float),
            ("net_tx_kb", Float),
        ],
        Tool::CollectlPlain => vec![
            ("record", Int),
            ("time", Wall),
            ("cpu_user", Float),
            ("cpu_sys", Float),
            ("cpu_iowait", Float),
            ("cpu_idle", Float),
            ("disk_write_kb", Float),
            ("disk_writes", Int),
            ("disk_util", Float),
            ("mem_dirty", Int),
            ("mem_used_kb", Int),
        ],
        Tool::SarText => vec![
            ("time", Wall),
            ("cpu_user", Float),
            ("cpu_sys", Float),
            ("cpu_iowait", Float),
            ("cpu_idle", Float),
        ],
        Tool::SarMem => vec![
            ("time", Wall),
            ("mem_used_kb", Int),
            ("mem_used_pct", Float),
            ("mem_dirty_kb", Int),
        ],
        Tool::SarNet => vec![("time", Wall), ("net_rx_kb", Float), ("net_tx_kb", Float)],
        Tool::SarXml => vec![
            ("time", Wall),
            ("cpu_user", Float),
            ("cpu_sys", Float),
            ("cpu_iowait", Float),
            ("cpu_idle", Float),
        ],
        Tool::Iostat => vec![
            ("time", Wall),
            ("disk_write_kb", Float),
            ("disk_writes", Float),
            ("disk_util", Float),
        ],
    }
}

/// The clock domain a tool's timestamps live in. All shipped monitors
/// render through [`mscope_sim::wallclock`], so every tool reports
/// [`CLOCK_DOMAIN`]; the function exists so a future tool with its own
/// epoch (e.g. real UNIX time) is forced through the trace front's
/// clock-consistency check rather than silently mixed in.
pub fn resource_clock_domain(_tool: Tool) -> &'static str {
    CLOCK_DOMAIN
}

/// The clock domain of a tier's event monitor (see
/// [`resource_clock_domain`]).
pub fn event_clock_domain(_kind: TierKind) -> &'static str {
    CLOCK_DOMAIN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_tier_renders_id_and_all_four_timestamps() {
        for kind in [
            TierKind::Apache,
            TierKind::Tomcat,
            TierKind::Cjdbc,
            TierKind::Mysql,
        ] {
            let fields = event_rendered_fields(kind);
            let has = |n: &str| fields.iter().any(|(f, _)| *f == n);
            assert!(has("request_id"), "{kind:?} renders the request ID");
            for ts in ["ua", "ud", "ds", "dr"] {
                assert!(has(ts), "{kind:?} renders {ts}");
            }
            assert!(
                fields.iter().any(|(_, s)| *s == ValueShape::Wall),
                "{kind:?} has a wall-anchored field"
            );
        }
    }

    #[test]
    fn every_tool_renders_a_wall_clock() {
        for tool in [
            Tool::CollectlCsv,
            Tool::CollectlPlain,
            Tool::SarText,
            Tool::SarMem,
            Tool::SarNet,
            Tool::SarXml,
            Tool::Iostat,
        ] {
            let fields = resource_rendered_fields(tool);
            assert!(
                fields.iter().any(|(_, s)| s.is_wall()),
                "{tool:?} has a wall-anchored field"
            );
            assert_eq!(resource_clock_domain(tool), CLOCK_DOMAIN);
        }
    }
}
