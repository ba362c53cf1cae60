//! Trace export: turn reconstructed causal paths into Chrome trace-event
//! JSON (`chrome://tracing` / Perfetto), so the per-request execution maps
//! milliScope reconstructs (paper Fig. 5) can be inspected visually.
//!
//! This is an extension beyond the paper — the modern equivalent of its
//! "interface that is able to easily reconstruct the causal path".

use mscope_analysis::RequestFlow;
use mscope_serdes::{Json, ToJson};

/// Options for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceExportOptions {
    /// Only include flows whose front-tier response time is at least this
    /// many milliseconds (0 = everything).
    pub min_rt_ms: u64,
    /// Cap on exported flows (slowest first). 0 = unlimited.
    pub max_flows: usize,
}

/// Exports flows as a Chrome trace-event JSON document.
///
/// Each tier visit becomes a complete event (`ph: "X"`) on a track named
/// after the tier; downstream waits are rendered as nested child events so
/// local time vs downstream time is visible at a glance.
///
/// # Examples
///
/// ```
/// use mscope_analysis::FlowTable;
/// use mscope_core::{export_chrome_trace, TraceExportOptions};
/// use std::sync::Arc;
///
/// let mut table = FlowTable::default();
/// table.push_flow("00000000000A", "ViewStory", [("tier0-0", 0, 10_000, None, None)]);
/// let json = export_chrome_trace(&Arc::new(table).flows(), &TraceExportOptions::default());
/// assert!(json.contains("\"ViewStory\""));
/// ```
pub fn export_chrome_trace(flows: &[RequestFlow], opts: &TraceExportOptions) -> String {
    let mut selected: Vec<&RequestFlow> = flows
        .iter()
        .filter(|f| f.response_time_ms().unwrap_or(0.0) >= opts.min_rt_ms as f64)
        .collect();
    // Slowest first; ties broken by request ID so the `max_flows` cut is
    // deterministic when flows share a response time.
    selected.sort_by(|a, b| {
        b.response_time_ms()
            .unwrap_or(0.0)
            .total_cmp(&a.response_time_ms().unwrap_or(0.0))
            .then_with(|| a.request_id().cmp(b.request_id()))
    });
    if opts.max_flows > 0 {
        selected.truncate(opts.max_flows);
    }

    let mut events: Vec<Json> = Vec::new();
    for flow in &selected {
        for hop in flow.hops() {
            events.push(Json::obj([
                ("name", flow.interaction().to_json()),
                ("cat", "tier".to_json()),
                ("ph", "X".to_json()),
                ("ts", hop.ua.to_json()),
                ("dur", (hop.ud - hop.ua).max(0).to_json()),
                ("pid", Json::Int(1)),
                ("tid", (hop.tier + 1).to_json()),
                (
                    "args",
                    Json::obj([
                        ("request_id", flow.request_id().to_json()),
                        ("node", hop.node.to_json()),
                        ("local_ms", hop.local_ms().to_json()),
                    ]),
                ),
            ]));
            if let (Some(ds), Some(dr)) = (hop.ds, hop.dr) {
                events.push(Json::obj([
                    ("name", "downstream wait".to_json()),
                    ("cat", "wait".to_json()),
                    ("ph", "X".to_json()),
                    ("ts", ds.to_json()),
                    ("dur", (dr - ds).max(0).to_json()),
                    ("pid", Json::Int(1)),
                    ("tid", (hop.tier + 1).to_json()),
                    (
                        "args",
                        Json::obj([("request_id", flow.request_id().to_json())]),
                    ),
                ]));
            }
        }
    }
    // Track names.
    let mut meta: Vec<Json> = Vec::new();
    let max_tier = selected
        .iter()
        .filter_map(|f| f.hops().next_back().map(|h| h.tier))
        .max()
        .unwrap_or(0);
    for tier in 0..=max_tier {
        meta.push(Json::obj([
            ("name", "thread_name".to_json()),
            ("ph", "M".to_json()),
            ("pid", Json::Int(1)),
            ("tid", (tier + 1).to_json()),
            (
                "args",
                Json::obj([("name", format!("tier {tier}").to_json())]),
            ),
        ]));
    }
    meta.extend(events);
    Json::obj([("traceEvents", Json::Arr(meta))]).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_analysis::FlowTable;
    use std::sync::Arc;

    /// One flow per `(id, rt_us)`, each two hops deep, all in one table.
    fn flows(specs: &[(&str, i64)]) -> Vec<RequestFlow> {
        let mut table = FlowTable::default();
        for &(id, rt_us) in specs {
            table.push_flow(
                id,
                "ViewStory",
                [
                    ("tier0-0", 0, rt_us, Some(100), Some(rt_us - 100)),
                    ("tier1-0", 200, rt_us - 200, None, None),
                ],
            );
        }
        Arc::new(table).flows()
    }

    #[test]
    fn exports_events_and_tracks() {
        let flows = flows(&[("A", 10_000)]);
        let out = export_chrome_trace(&flows, &TraceExportOptions::default());
        let parsed = Json::parse(&out).expect("valid json");
        let events = parsed["traceEvents"].as_array().expect("array");
        // 2 track-name metas + 2 hops + 1 downstream wait.
        assert_eq!(events.len(), 5);
        assert!(out.contains("downstream wait"));
        assert!(out.contains("tier 1"));
    }

    #[test]
    fn filters_by_min_rt() {
        let flows = flows(&[("FAST", 5_000), ("SLOW", 500_000)]);
        let out = export_chrome_trace(
            &flows,
            &TraceExportOptions {
                min_rt_ms: 100,
                max_flows: 0,
            },
        );
        assert!(out.contains("SLOW"));
        assert!(!out.contains("FAST"));
    }

    #[test]
    fn caps_flow_count_slowest_first() {
        let flows = flows(&[("A", 5_000), ("B", 50_000), ("C", 20_000)]);
        let out = export_chrome_trace(
            &flows,
            &TraceExportOptions {
                min_rt_ms: 0,
                max_flows: 1,
            },
        );
        assert!(out.contains("\"B\""));
        assert!(!out.contains("\"A\""));
        assert!(!out.contains("\"C\""));
    }

    #[test]
    fn empty_flows_valid_json() {
        let out = export_chrome_trace(&[], &TraceExportOptions::default());
        let parsed = Json::parse(&out).expect("valid json");
        assert_eq!(parsed["traceEvents"].as_array().expect("array").len(), 1);
    }
}
