//! Causal-path reconstruction: joining per-tier event records by request ID
//! to rebuild each request's execution path (paper §IV-B, Fig. 5).
//!
//! "By joining the tracing records containing the same request ID located
//! in the event mScopeMonitor log files, milliScope is able to reconstruct
//! the execution path explicitly … without making any assumptions about the
//! interactions among servers."

use mscope_db::{KeyIndex, Table, Value};
use std::error::Error;
use std::fmt;

/// Why [`reconstruct_flows`] cannot join a set of event tables.
///
/// These are the *structural* failure modes — a table that cannot
/// participate in the cross-tier join at all — as opposed to per-request
/// causality violations, which [`RequestFlow::causal_violation`] reports.
/// `mscope-lint`'s trace front predicts exactly these variants statically,
/// so its diagnostics can say "this would have failed at runtime with …".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A table lacks a column the join or hop extraction requires.
    MissingColumn {
        /// Event table at fault.
        table: String,
        /// The absent column (`request_id`, `ua`, `ud`, `ds`, `dr`).
        column: String,
    },
    /// A row carries a null where a mandatory upstream timestamp
    /// (`ua`/`ud`) must be.
    NullTimestamp {
        /// Event table at fault.
        table: String,
        /// 0-based row index.
        row: usize,
        /// The null column.
        column: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::MissingColumn { table, column } => {
                write!(f, "table `{table}` has no `{column}` column")
            }
            FlowError::NullTimestamp { table, row, column } => {
                write!(f, "row {row} of `{table}` has null {column}")
            }
        }
    }
}

impl Error for FlowError {}

/// One happens-before violation in a reconstructed flow: which hop broke
/// which constraint. Returned by [`RequestFlow::causal_violation`] so
/// diagnostics (and `mscope-lint`'s trace front) can name the exact edge
/// instead of a bare boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalViolation {
    /// Index into [`RequestFlow::hops`] of the offending hop (for
    /// inter-tier constraints, the upstream hop of the adjacent pair).
    pub hop: usize,
    /// Stable constraint name: `intra-hop-order`, `half-open-window`,
    /// `missing-downstream-window`, `inter-tier-window`, or
    /// `inter-tier-ds-dr`.
    pub constraint: &'static str,
    /// Human-readable detail with the offending timestamps.
    pub detail: String,
}

impl fmt::Display for CausalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hop {} violates {}: {}",
            self.hop, self.constraint, self.detail
        )
    }
}

/// One tier visit as read from an event table.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowHop {
    /// Tier index (pipeline position).
    pub tier: usize,
    /// Node name (from the injected `node` constant).
    pub node: String,
    /// Upstream arrival (µs).
    pub ua: i64,
    /// Upstream departure (µs).
    pub ud: i64,
    /// Downstream sending (µs), if a downstream call was made.
    pub ds: Option<i64>,
    /// Downstream receiving (µs).
    pub dr: Option<i64>,
}
mscope_serdes::json_struct!(FlowHop {
    tier,
    node,
    ua,
    ud,
    ds,
    dr
});

impl FlowHop {
    /// Residence time at this tier (ms).
    pub fn residence_ms(&self) -> f64 {
        (self.ud - self.ua) as f64 / 1000.0
    }

    /// Time waiting on downstream tiers (ms).
    pub fn downstream_wait_ms(&self) -> f64 {
        match (self.ds, self.dr) {
            (Some(s), Some(r)) => (r - s) as f64 / 1000.0,
            _ => 0.0,
        }
    }

    /// This tier's own latency contribution (ms) — residence minus
    /// downstream wait, the paper's "contribution of each server to the
    /// response time of each request".
    pub fn local_ms(&self) -> f64 {
        (self.residence_ms() - self.downstream_wait_ms()).max(0.0)
    }
}

/// A request's reconstructed causal path across the tiers it touched.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFlow {
    /// The propagated request ID (fixed-width hex).
    pub request_id: String,
    /// Interaction name.
    pub interaction: String,
    /// Hops in pipeline order (tier 0 first).
    pub hops: Vec<FlowHop>,
}
mscope_serdes::json_struct!(RequestFlow {
    request_id,
    interaction,
    hops
});

impl RequestFlow {
    /// End-to-end response time as seen at the front tier (ms).
    pub fn response_time_ms(&self) -> Option<f64> {
        self.hops.first().map(FlowHop::residence_ms)
    }

    /// Checks happens-before across the whole path: each hop internally
    /// ordered (`ua ≤ ds ≤ dr ≤ ud`), each inner hop inside its parent's
    /// downstream window, and — across adjacent tiers — every downstream
    /// send/receive window nested inside its parent's (`DS` on tier *i*
    /// never after `DR` obligations on tier *i+1*).
    pub fn is_causally_ordered(&self) -> bool {
        self.causal_violation().is_none()
    }

    /// The first happens-before violation on the path, or `None` when the
    /// flow is causally ordered. Checks, in order: intra-hop ordering
    /// (`ua ≤ ds ≤ dr ≤ ud`), half-open downstream windows, and the
    /// inter-tier constraints between adjacent hops — the parent window
    /// containing the child's residency *and* the child's own downstream
    /// window nested inside the parent's (`DS`/`DR` ordering across tiers).
    pub fn causal_violation(&self) -> Option<CausalViolation> {
        let at = |hop, constraint, detail| {
            Some(CausalViolation {
                hop,
                constraint,
                detail,
            })
        };
        // Checks interleave: the inter-tier constraints between hops i−1
        // and i run before hop i's own intra-hop check, so a child whose
        // timestamps escape its parent's window is attributed to the
        // adjacent-tier edge that broke, not to the child in isolation.
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                let outer = &self.hops[i - 1];
                let (Some(s), Some(r)) = (outer.ds, outer.dr) else {
                    return at(
                        i - 1,
                        "missing-downstream-window",
                        format!(
                            "tier {} records no ds/dr yet tier {} was visited",
                            outer.tier, h.tier
                        ),
                    );
                };
                if !(s <= h.ua && h.ud <= r) {
                    return at(
                        i - 1,
                        "inter-tier-window",
                        format!(
                            "child [ua={}, ud={}] escapes parent window [ds={s}, dr={r}]",
                            h.ua, h.ud
                        ),
                    );
                }
                // Adjacent-tier DS/DR ordering: the child's own downstream
                // window must nest inside the parent's — a parent DS after
                // a child DS (or a child DR after the parent DR) means the
                // two tiers disagree about when the downstream call ran.
                if let (Some(cs), Some(cr)) = (h.ds, h.dr) {
                    if !(s <= cs && cr <= r) {
                        return at(
                            i - 1,
                            "inter-tier-ds-dr",
                            format!(
                                "child window [ds={cs}, dr={cr}] escapes parent window [ds={s}, dr={r}]"
                            ),
                        );
                    }
                }
            }
            match (h.ds, h.dr) {
                (Some(s), Some(r)) => {
                    if !(h.ua <= s && s <= r && r <= h.ud) {
                        return at(
                            i,
                            "intra-hop-order",
                            format!(
                                "want ua ≤ ds ≤ dr ≤ ud, got ua={} ds={s} dr={r} ud={}",
                                h.ua, h.ud
                            ),
                        );
                    }
                }
                (None, None) => {
                    if h.ua > h.ud {
                        return at(i, "intra-hop-order", format!("ua={} > ud={}", h.ua, h.ud));
                    }
                }
                (ds, dr) => {
                    return at(
                        i,
                        "half-open-window",
                        format!("downstream window has ds={ds:?} but dr={dr:?}"),
                    );
                }
            }
        }
        None
    }

    /// Per-tier latency contributions `(tier, local_ms)`.
    pub fn contributions(&self) -> Vec<(usize, f64)> {
        self.hops.iter().map(|h| (h.tier, h.local_ms())).collect()
    }

    /// The tier contributing the most latency, if any hops exist.
    pub fn dominant_tier(&self) -> Option<usize> {
        self.contributions()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(t, _)| t)
    }
}

/// Reconstructs all flows by joining event tables (given in pipeline order,
/// tier 0 first) on `request_id`.
///
/// Requests missing from the front table are skipped (they never completed
/// tier 0); deeper hops are optional — a depth-1 static request legally has
/// one hop.
///
/// # Errors
///
/// Returns a [`FlowError`] if a table lacks the required columns or a
/// mandatory timestamp is null.
pub fn reconstruct_flows(tables: &[&Table]) -> Result<Vec<RequestFlow>, FlowError> {
    if tables.is_empty() {
        return Ok(Vec::new());
    }
    let missing_id = |t: &Table| FlowError::MissingColumn {
        table: t.name().to_string(),
        column: "request_id".into(),
    };
    // Index deeper tiers by request_id with the same borrowed hash index
    // the warehouse join builds; `last_text` keeps the last occurrence of
    // a duplicated ID (latest record wins).
    let mut deep: Vec<(KeyIndex<'_>, HopReader<'_>)> = Vec::with_capacity(tables.len() - 1);
    for t in &tables[1..] {
        let ids = t.column("request_id").ok_or_else(|| missing_id(t))?;
        // perf: one KeyIndex per deeper-tier *table*, built once per
        // reconstruction (one hash per row into flat arrays, no allocation
        // per request ID) and probed per request.
        deep.push((KeyIndex::build(ids), HopReader::new(t)));
    }
    let front = tables[0];
    let ids = front
        .column("request_id")
        .ok_or_else(|| missing_id(front))?;
    let front_reader = HopReader::new(front);
    let interactions = front.column("interaction");
    let mut flows = Vec::with_capacity(ids.len());
    for (row, id) in ids.iter().enumerate() {
        let Some(id) = id.as_str() else { continue };
        let mut hops = Vec::new();
        hops.push(front_reader.read(row, 0)?);
        for (depth, (index, reader)) in deep.iter().enumerate() {
            let Some(r) = index.last_text(id) else { break };
            hops.push(reader.read(r, depth + 1)?);
        }
        let interaction = interactions
            .and_then(|col| col.get(row))
            .and_then(Value::as_str);
        // perf: flows own their strings (callers keep them past the table
        // borrow) — two allocations per flow, one more per hop for its node.
        flows.push(RequestFlow {
            request_id: id.to_string(),
            interaction: interaction.unwrap_or("?").to_string(),
            hops,
        });
    }
    Ok(flows)
}

/// Per-table hop extractor with the column lookups hoisted out of the row
/// loop: each name resolves to a column slice once, and `read` only
/// indexes. Column absence stays a *lazy, per-row* error in the original
/// order (`ua` missing → `ua` null → `ud` → `ds` → `dr`) so a table is
/// only faulted for a column a visited row actually needed.
struct HopReader<'t> {
    table: &'t str,
    node: Option<&'t [Value]>,
    ua: Option<&'t [Value]>,
    ud: Option<&'t [Value]>,
    ds: Option<&'t [Value]>,
    dr: Option<&'t [Value]>,
}

impl<'t> HopReader<'t> {
    fn new(table: &'t Table) -> HopReader<'t> {
        HopReader {
            table: table.name(),
            node: table.column("node"),
            ua: table.column("ua"),
            ud: table.column("ud"),
            ds: table.column("ds"),
            dr: table.column("dr"),
        }
    }

    fn get(
        &self,
        col: Option<&'t [Value]>,
        name: &str,
        row: usize,
    ) -> Result<Option<i64>, FlowError> {
        Ok(col.ok_or_else(|| FlowError::MissingColumn {
            table: self.table.to_string(),
            column: name.to_string(),
        })?[row]
            .as_i64())
    }

    fn read(&self, row: usize, tier: usize) -> Result<FlowHop, FlowError> {
        let null_ts = |col: &str| FlowError::NullTimestamp {
            table: self.table.to_string(),
            row,
            column: col.to_string(),
        };
        let ua = self.get(self.ua, "ua", row)?.ok_or_else(|| null_ts("ua"))?;
        let ud = self.get(self.ud, "ud", row)?.ok_or_else(|| null_ts("ud"))?;
        let node = self
            .node
            .and_then(|col| col.get(row))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        Ok(FlowHop {
            tier,
            node,
            ua,
            ud,
            ds: self.get(self.ds, "ds", row)?,
            dr: self.get(self.dr, "dr", row)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::{Column, ColumnType, Schema};

    /// (request_id, ua, ud, ds, dr)
    type RowSpec<'a> = (&'a str, i64, i64, Option<i64>, Option<i64>);

    fn event_table(name: &str, rows: Vec<RowSpec<'_>>) -> Table {
        let schema = Schema::new(vec![
            Column::new("request_id", ColumnType::Text),
            Column::new("interaction", ColumnType::Text),
            Column::new("node", ColumnType::Text),
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
            Column::new("ds", ColumnType::Timestamp),
            Column::new("dr", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new(name, schema);
        for (id, ua, ud, ds, dr) in rows {
            t.push_row(vec![
                Value::Text(id.into()),
                Value::Text("ViewStory".into()),
                Value::Text(format!("{name}-node")),
                Value::Timestamp(ua),
                Value::Timestamp(ud),
                ds.map_or(Value::Null, Value::Timestamp),
                dr.map_or(Value::Null, Value::Timestamp),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn joins_across_tiers() {
        let apache = event_table(
            "event_apache",
            vec![
                ("AAA", 0, 100, Some(10), Some(90)),
                ("BBB", 0, 50, None, None), // static page, depth 1
            ],
        );
        let tomcat = event_table("event_tomcat", vec![("AAA", 12, 88, Some(20), Some(80))]);
        let mysql = event_table("event_mysql", vec![("AAA", 22, 78, None, None)]);
        let flows = reconstruct_flows(&[&apache, &tomcat, &mysql]).unwrap();
        assert_eq!(flows.len(), 2);
        let a = flows.iter().find(|f| f.request_id == "AAA").unwrap();
        assert_eq!(a.hops.len(), 3);
        assert!(a.is_causally_ordered());
        let b = flows.iter().find(|f| f.request_id == "BBB").unwrap();
        assert_eq!(b.hops.len(), 1);
        assert!(b.is_causally_ordered());
    }

    #[test]
    fn contributions_and_dominant_tier() {
        let flow = RequestFlow {
            request_id: "X".into(),
            interaction: "ViewStory".into(),
            hops: vec![
                FlowHop {
                    tier: 0,
                    node: "a".into(),
                    ua: 0,
                    ud: 100_000,
                    ds: Some(5_000),
                    dr: Some(95_000),
                },
                FlowHop {
                    tier: 1,
                    node: "b".into(),
                    ua: 6_000,
                    ud: 94_000,
                    ds: Some(10_000),
                    dr: Some(20_000),
                },
            ],
        };
        // Tier 0 local: 100 − 90 = 10 ms; tier 1 local: 88 − 10 = 78 ms.
        let c = flow.contributions();
        assert!((c[0].1 - 10.0).abs() < 1e-9);
        assert!((c[1].1 - 78.0).abs() < 1e-9);
        assert_eq!(flow.dominant_tier(), Some(1));
        assert_eq!(flow.response_time_ms(), Some(100.0));
    }

    #[test]
    fn causality_violations_detected() {
        let bad = RequestFlow {
            request_id: "X".into(),
            interaction: "i".into(),
            hops: vec![FlowHop {
                tier: 0,
                node: "a".into(),
                ua: 0,
                ud: 100,
                ds: Some(50),
                dr: Some(40),
            }],
        };
        assert!(!bad.is_causally_ordered());
        let escape = RequestFlow {
            request_id: "Y".into(),
            interaction: "i".into(),
            hops: vec![
                FlowHop {
                    tier: 0,
                    node: "a".into(),
                    ua: 0,
                    ud: 100,
                    ds: Some(10),
                    dr: Some(50),
                },
                // Inner departs after the parent's dr.
                FlowHop {
                    tier: 1,
                    node: "b".into(),
                    ua: 12,
                    ud: 60,
                    ds: None,
                    dr: None,
                },
            ],
        };
        assert!(!escape.is_causally_ordered());
    }

    #[test]
    fn causal_violation_names_hop_and_constraint() {
        let bad = RequestFlow {
            request_id: "X".into(),
            interaction: "i".into(),
            hops: vec![
                FlowHop {
                    tier: 0,
                    node: "a".into(),
                    ua: 0,
                    ud: 100,
                    ds: Some(10),
                    dr: Some(90),
                },
                FlowHop {
                    tier: 1,
                    node: "b".into(),
                    ua: 12,
                    ud: 88,
                    ds: Some(60),
                    dr: Some(40),
                },
            ],
        };
        let v = bad.causal_violation().expect("violation");
        assert_eq!(v.hop, 1);
        assert_eq!(v.constraint, "intra-hop-order");
        assert!(v.to_string().contains("hop 1"));
    }

    #[test]
    fn adjacent_tier_ds_dr_escape_is_rejected() {
        // Child residency fits the parent window, but the child claims it
        // received its downstream reply *after* the parent's dr — the two
        // tiers disagree about when the downstream call finished.
        let flow = RequestFlow {
            request_id: "Z".into(),
            interaction: "i".into(),
            hops: vec![
                FlowHop {
                    tier: 0,
                    node: "a".into(),
                    ua: 0,
                    ud: 100,
                    ds: Some(10),
                    dr: Some(60),
                },
                FlowHop {
                    tier: 1,
                    node: "b".into(),
                    ua: 12,
                    ud: 58,
                    ds: Some(20),
                    dr: Some(55),
                },
            ],
        };
        assert!(flow.is_causally_ordered());
        let mut skewed = flow.clone();
        skewed.hops[1].ds = Some(5); // child ds before parent ds
        let v = skewed.causal_violation().expect("violation");
        assert_eq!(v.hop, 0);
        assert_eq!(v.constraint, "inter-tier-ds-dr");
    }

    #[test]
    fn half_open_window_is_rejected() {
        let flow = RequestFlow {
            request_id: "H".into(),
            interaction: "i".into(),
            hops: vec![FlowHop {
                tier: 0,
                node: "a".into(),
                ua: 0,
                ud: 100,
                ds: Some(10),
                dr: None,
            }],
        };
        let v = flow.causal_violation().expect("violation");
        assert_eq!(v.constraint, "half-open-window");
    }

    #[test]
    fn typed_errors_name_table_and_column() {
        let schema = Schema::new(vec![Column::new("wall", ColumnType::Timestamp)]).unwrap();
        let t = Table::new("event_apache", schema);
        let err = reconstruct_flows(&[&t]).unwrap_err();
        assert_eq!(
            err,
            FlowError::MissingColumn {
                table: "event_apache".into(),
                column: "request_id".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "table `event_apache` has no `request_id` column"
        );

        let schema = Schema::new(vec![
            Column::new("request_id", ColumnType::Text),
            Column::new("ua", ColumnType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("event_tomcat", schema);
        t.push_row(vec![Value::Text("AAA".into()), Value::Null])
            .unwrap();
        let err = reconstruct_flows(&[&t]).unwrap_err();
        assert_eq!(
            err,
            FlowError::NullTimestamp {
                table: "event_tomcat".into(),
                row: 0,
                column: "ua".into(),
            }
        );
    }

    #[test]
    fn missing_deep_record_truncates_path() {
        let apache = event_table("event_apache", vec![("AAA", 0, 100, Some(10), Some(90))]);
        let tomcat = event_table("event_tomcat", vec![]); // lost log
        let mysql = event_table("event_mysql", vec![("AAA", 22, 78, None, None)]);
        let flows = reconstruct_flows(&[&apache, &tomcat, &mysql]).unwrap();
        // Without the Tomcat record the path cannot be stitched past tier 0.
        assert_eq!(flows[0].hops.len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(reconstruct_flows(&[]).unwrap().is_empty());
    }
}

impl RequestFlow {
    /// Renders the flow as an ASCII execution map — the paper's Fig. 5:
    /// one lane per tier, showing Upstream Arrival (`A`), Downstream
    /// Sending (`>`), Downstream Receiving (`<`) and Upstream Departure
    /// (`D`), with `=` marking local processing and `.` the downstream
    /// wait.
    ///
    /// `width` is the number of columns the request's lifetime is scaled
    /// onto (minimum 20).
    ///
    /// # Examples
    ///
    /// ```
    /// use mscope_analysis::{FlowHop, RequestFlow};
    /// let flow = RequestFlow {
    ///     request_id: "0000000000AB".into(),
    ///     interaction: "ViewStory".into(),
    ///     hops: vec![FlowHop {
    ///         tier: 0, node: "tier0-0".into(), ua: 0, ud: 10_000,
    ///         ds: Some(2_000), dr: Some(8_000),
    ///     }],
    /// };
    /// let map = flow.render_ascii(40);
    /// assert!(map.contains("ViewStory"));
    /// assert!(map.contains('A') && map.contains('D'));
    /// ```
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(20);
        let Some(first) = self.hops.first() else {
            return format!("{} {} (no hops)\n", self.request_id, self.interaction);
        };
        let (t0, t1) = (first.ua, first.ud.max(first.ua + 1));
        let span = (t1 - t0) as f64;
        let col = |t: i64| -> usize {
            (((t - t0) as f64 / span) * (width - 1) as f64)
                .round()
                .clamp(0.0, (width - 1) as f64) as usize
        };
        use std::fmt::Write as _;
        let mut out = String::with_capacity((width + 16) * (self.hops.len() + 2));
        let _ = writeln!(
            out,
            "request {} ({}, {:.1} ms)",
            self.request_id,
            self.interaction,
            self.response_time_ms().unwrap_or(0.0)
        );
        // The lane buffer is reused across hops; each iteration re-blanks it.
        let mut lane = vec![' '; width];
        for hop in &self.hops {
            lane.fill(' ');
            let (a, d) = (col(hop.ua), col(hop.ud));
            // Local processing by default…
            for c in lane.iter_mut().take(d + 1).skip(a) {
                *c = '=';
            }
            // …downstream wait drawn over it.
            if let (Some(ds), Some(dr)) = (hop.ds, hop.dr) {
                let (s, r) = (col(ds), col(dr));
                for c in lane.iter_mut().take(r.max(s)).skip(s + 1) {
                    *c = '.';
                }
                lane[s] = '>';
                lane[r.min(width - 1)] = '<';
            }
            lane[a] = 'A';
            lane[d.min(width - 1)] = 'D';
            let _ = writeln!(
                out,
                "{:>10} |{}|",
                hop.node,
                lane.iter().collect::<String>()
            );
        }
        let _ = writeln!(
            out,
            "{:>10}  A=arrival D=departure >=downstream-send <=downstream-recv",
            ""
        );
        out
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn fig5_style_map_places_markers_in_order() {
        let flow = RequestFlow {
            request_id: "X".into(),
            interaction: "ViewStory".into(),
            hops: vec![
                FlowHop {
                    tier: 0,
                    node: "tier0-0".into(),
                    ua: 0,
                    ud: 100_000,
                    ds: Some(10_000),
                    dr: Some(90_000),
                },
                FlowHop {
                    tier: 1,
                    node: "tier1-0".into(),
                    ua: 12_000,
                    ud: 88_000,
                    ds: Some(20_000),
                    dr: Some(80_000),
                },
                FlowHop {
                    tier: 3,
                    node: "tier3-0".into(),
                    ua: 22_000,
                    ud: 78_000,
                    ds: None,
                    dr: None,
                },
            ],
        };
        let map = flow.render_ascii(60);
        let lanes: Vec<&str> = map.lines().skip(1).take(3).collect();
        assert_eq!(lanes.len(), 3);
        for lane in &lanes {
            let a = lane.find('A').expect("arrival marker");
            let d = lane.rfind('D').expect("departure marker");
            assert!(a < d, "A before D in {lane}");
        }
        // Outer lanes wait (dots) while inner lanes work.
        assert!(lanes[0].contains('.'));
        assert!(lanes[2].contains('='));
        assert!(!lanes[2].contains('.'), "leaf tier has no downstream wait");
        // Inner arrival is to the right of outer arrival (time order).
        let a0 = lanes[0].find('A').expect("marker");
        let a2 = lanes[2].find('A').expect("marker");
        assert!(a2 > a0);
    }

    #[test]
    fn degenerate_flows_do_not_panic() {
        let empty = RequestFlow {
            request_id: "E".into(),
            interaction: "x".into(),
            hops: vec![],
        };
        assert!(empty.render_ascii(40).contains("no hops"));
        let instant = RequestFlow {
            request_id: "I".into(),
            interaction: "x".into(),
            hops: vec![FlowHop {
                tier: 0,
                node: "n".into(),
                ua: 5,
                ud: 5,
                ds: None,
                dr: None,
            }],
        };
        let map = instant.render_ascii(40);
        assert!(
            map.contains('D'),
            "zero-length request still renders: {map}"
        );
    }
}
