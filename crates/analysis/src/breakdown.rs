//! Aggregate breakdowns: per-interaction response-time statistics and
//! per-tier latency contribution — the "profile execution performance"
//! half of the paper's abstract.

use crate::flow::RequestFlow;
use mscope_db::Table;
use mscope_sim::{percentile, Summary};
use std::collections::BTreeMap;

/// Response-time statistics for one interaction type.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionStats {
    /// Servlet name (e.g. `"ViewStory"`).
    pub interaction: String,
    /// Completed requests of this type.
    pub count: u64,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// 99th percentile response time (ms).
    pub p99_ms: f64,
    /// Maximum response time (ms).
    pub max_ms: f64,
}
mscope_serdes::json_struct!(InteractionStats {
    interaction,
    count,
    mean_ms,
    p99_ms,
    max_ms
});

/// Groups a front-tier event table by interaction and summarizes response
/// times (`ud − ua`). Sorted by count descending.
///
/// # Errors
///
/// Returns an error string if the table lacks `interaction`/`ua`/`ud`
/// columns.
pub fn interaction_breakdown(table: &Table) -> Result<Vec<InteractionStats>, String> {
    // Column slices resolve once; the row loop below only indexes. Going
    // through per-row `cell()` would re-resolve each column name per row.
    let col = |name: &str| {
        table
            .column(name)
            .ok_or_else(|| format!("table `{}` has no `{name}` column", table.name()))
    };
    let names = col("interaction")?;
    let uas = col("ua")?;
    let uds = col("ud")?;
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, ua), ud) in names.iter().zip(uas).zip(uds) {
        let (Some(name), Some(ua), Some(ud)) = (name.as_str(), ua.as_i64(), ud.as_i64()) else {
            continue;
        };
        let rt = (ud - ua) as f64 / 1000.0;
        match groups.get_mut(name) {
            Some(rts) => rts.push(rt),
            // perf: one owned key per *distinct* interaction, not per row.
            None => {
                groups.insert(name.to_string(), Vec::from([rt]));
            }
        }
    }
    let mut out: Vec<InteractionStats> = groups
        .into_iter()
        // A group exists only once a row landed in it, so both are `Some`.
        .filter_map(|(interaction, rts)| {
            let s = Summary::of(&rts)?;
            Some(InteractionStats {
                interaction,
                count: s.count as u64,
                mean_ms: s.mean,
                p99_ms: percentile(&rts, 99.0)?,
                max_ms: s.max,
            })
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.count));
    Ok(out)
}

/// Mean local-latency contribution of each tier across a set of flows
/// (ms), indexed by tier. Tiers a flow never reached contribute nothing.
pub fn tier_contribution(flows: &[RequestFlow], tiers: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; tiers];
    let mut counts = vec![0u64; tiers];
    for f in flows {
        for h in &f.hops {
            if h.tier < tiers {
                sums[h.tier] += h.local_ms();
                counts[h.tier] += 1;
            }
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowHop;
    use mscope_db::{Column, ColumnType, Schema, Value};

    fn table_with(rows: &[(&str, i64, i64)]) -> Table {
        let schema = Schema::new(vec![
            Column::new("interaction", ColumnType::Text),
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_apache", schema);
        for (name, ua, ud) in rows {
            t.push_row(vec![
                Value::Text(name.to_string()),
                Value::Timestamp(*ua),
                Value::Timestamp(*ud),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn breakdown_groups_and_sorts() {
        let t = table_with(&[
            ("ViewStory", 0, 5_000),
            ("ViewStory", 0, 15_000),
            ("ViewStory", 0, 10_000),
            ("Search", 0, 50_000),
        ]);
        let stats = interaction_breakdown(&t).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].interaction, "ViewStory");
        assert_eq!(stats[0].count, 3);
        assert_eq!(stats[0].mean_ms, 10.0);
        assert_eq!(stats[0].max_ms, 15.0);
        assert_eq!(stats[1].interaction, "Search");
        assert_eq!(stats[1].mean_ms, 50.0);
    }

    #[test]
    fn breakdown_skips_null_rows() {
        let schema = Schema::new(vec![
            Column::new("interaction", ColumnType::Text),
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("e", schema);
        t.push_row(vec![Value::Null, Value::Timestamp(0), Value::Timestamp(1)])
            .unwrap();
        t.push_row(vec![
            Value::Text("X".into()),
            Value::Null,
            Value::Timestamp(1),
        ])
        .unwrap();
        let stats = interaction_breakdown(&t).unwrap();
        assert!(stats.is_empty());
    }

    #[test]
    fn breakdown_requires_columns() {
        let t = Table::new("empty", Schema::default());
        assert!(interaction_breakdown(&t).is_err());
    }

    #[test]
    fn tier_contribution_averages_locals() {
        let flows = vec![
            RequestFlow {
                request_id: "A".into(),
                interaction: "X".into(),
                hops: vec![
                    FlowHop {
                        tier: 0,
                        node: "a".into(),
                        ua: 0,
                        ud: 10_000,
                        ds: Some(1_000),
                        dr: Some(9_000),
                    },
                    FlowHop {
                        tier: 1,
                        node: "b".into(),
                        ua: 1_000,
                        ud: 9_000,
                        ds: None,
                        dr: None,
                    },
                ],
            },
            RequestFlow {
                request_id: "B".into(),
                interaction: "X".into(),
                hops: vec![FlowHop {
                    tier: 0,
                    node: "a".into(),
                    ua: 0,
                    ud: 4_000,
                    ds: None,
                    dr: None,
                }],
            },
        ];
        let c = tier_contribution(&flows, 2);
        // Tier 0 locals: (10−8)=2 ms and 4 ms → mean 3 ms; tier 1: 8 ms.
        assert!((c[0] - 3.0).abs() < 1e-9, "{c:?}");
        assert!((c[1] - 8.0).abs() < 1e-9);
        // Unvisited tiers would be zero.
        assert_eq!(tier_contribution(&flows, 3)[2], 0.0);
    }
}

/// Fraction of requests in a front-tier event table with an error status
/// (≥ 400), or `None` if the table has no `status` column or no rows.
/// Rejections under overload (503) surface here.
pub fn error_rate(table: &Table) -> Option<f64> {
    let statuses = table.column("status")?;
    if statuses.is_empty() {
        return None;
    }
    let errors = statuses
        .iter()
        .filter(|v| v.as_i64().is_some_and(|s| s >= 400))
        .count();
    Some(errors as f64 / statuses.len() as f64)
}

#[cfg(test)]
mod error_rate_tests {
    use super::*;
    use mscope_db::{Column, ColumnType, Schema, Value};

    #[test]
    fn error_rate_counts_4xx_5xx() {
        let schema = Schema::new(vec![Column::new("status", ColumnType::Int)]).unwrap();
        let mut t = Table::new("e", schema);
        for s in [200, 200, 503, 404, 200] {
            t.push_row(vec![Value::Int(s)]).unwrap();
        }
        assert_eq!(error_rate(&t), Some(0.4));
    }

    #[test]
    fn error_rate_none_without_column_or_rows() {
        let t = Table::new("e", Schema::default());
        assert_eq!(error_rate(&t), None);
        let schema = Schema::new(vec![Column::new("status", ColumnType::Int)]).unwrap();
        assert_eq!(error_rate(&Table::new("e", schema)), None);
    }
}
