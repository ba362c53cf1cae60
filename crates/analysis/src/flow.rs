//! Causal-path reconstruction: joining per-tier event records by request ID
//! to rebuild each request's execution path (paper §IV-B, Fig. 5).
//!
//! "By joining the tracing records containing the same request ID located
//! in the event mScopeMonitor log files, milliScope is able to reconstruct
//! the execution path explicitly … without making any assumptions about the
//! interactions among servers."
//!
//! The join writes its result into a [`FlowTable`]: one row per hop, the
//! hops of a flow contiguous, timestamps in plain columns, request IDs in
//! one text buffer and node and interaction names interned. Owned
//! [`RequestFlow`]s are copied out of it, so a caller that keeps the table
//! (`MilliScope` does) joins once and pays only the copy on every later
//! call. [`reconstruct_flows`] is the build followed by the copy.
//!
//! A timestamp cell is read as a timestamp, as "no value" (null, or text
//! that is empty or `-`, how the monitors mark a missing boundary), or is
//! a [`FlowError::NotTimestamp`]: text in a timestamp column means a cell
//! the loader could not parse turned the whole column into text.

use mscope_db::{KeyIndex, Table, Value};
use std::collections::HashMap;
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
    /// A row's `ua`/`ud`/`ds`/`dr` cell holds a value that is neither null
    /// nor a timestamp — typically text, because one unparseable cell
    /// turns a whole column into `Text` at load time.
    NotTimestamp {
        /// Event table at fault.
        table: String,
        /// 0-based row index.
        row: usize,
        /// The column whose cell is not a timestamp.
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
            FlowError::NotTimestamp { table, row, column } => {
                write!(
                    f,
                    "row {row} of `{table}` has a {column} that is not a timestamp"
                )
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
/// tier 0 first) on `request_id`: [`FlowTable::build`], then
/// [`FlowTable::flows`].
///
/// Requests missing from the front table are skipped (they never completed
/// tier 0); deeper hops are optional — a depth-1 static request legally has
/// one hop.
///
/// # Errors
///
/// Returns a [`FlowError`] if a table lacks the required columns or a
/// timestamp cell is null where one is mandatory or not a timestamp.
pub fn reconstruct_flows(tables: &[&Table]) -> Result<Vec<RequestFlow>, FlowError> {
    FlowTable::build(tables).map(|t| t.flows())
}

/// The result of the request-ID join, column-wise: one row per hop, the
/// hops of a flow contiguous and in pipeline order, so a hop's tier is its
/// position in the flow.
///
/// Every string is stored once: request IDs back to back in one text
/// buffer, node and interaction names interned. The table holds no borrow
/// of the event tables it was built from, so copying flows out of it can
/// never read a table it was not built from.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Interned node and interaction names.
    names: Vec<String>,
    /// Request IDs back to back; flow `f`'s ends at `id_ends[f]`.
    ids: String,
    /// Per flow: end offset of its request ID in `ids`.
    id_ends: Vec<usize>,
    /// Per flow: its interaction, an index into `names`.
    interaction: Vec<u32>,
    /// Per flow: end offset of its hops (CSR).
    ends: Vec<usize>,
    /// Per hop: upstream arrival (µs).
    ua: Vec<i64>,
    /// Per hop: upstream departure (µs).
    ud: Vec<i64>,
    /// Per hop: downstream sending (µs), where `windows` marks one.
    ds: Vec<i64>,
    /// Per hop: downstream receiving (µs), where `windows` marks one.
    dr: Vec<i64>,
    /// Two bits per hop, 32 hops a word: hop `h` has a `ds` if bit `2h`
    /// is set and a `dr` if bit `2h + 1` is.
    windows: Vec<u64>,
    /// Per hop: its node, an index into `names`.
    node: Vec<u32>,
}

impl FlowTable {
    /// Joins event tables (given in pipeline order, tier 0 first) on
    /// `request_id` into one flow per front-tier row whose ID is text.
    ///
    /// Each deeper tier is probed through the `request_id` index its table
    /// keeps for joins: built by the first reconstruction or join after
    /// the table was last written, not by every call. A duplicated ID
    /// resolves to its last occurrence (the latest record wins), and a
    /// flow ends at the first tier that has no record of its ID.
    ///
    /// # Errors
    ///
    /// A [`FlowError`] for a table that lacks `request_id`, or for the
    /// first visited row (in join order) whose timestamps cannot be read.
    /// Columns other than `request_id` are only required of the rows a
    /// flow visits.
    pub fn build(tables: &[&Table]) -> Result<FlowTable, FlowError> {
        let mut out = FlowTable::default();
        let Some((&front, deeper)) = tables.split_first() else {
            return Ok(out);
        };
        let missing_id = |t: &Table| FlowError::MissingColumn {
            table: t.name().to_string(),
            column: "request_id".into(),
        };
        let mut deep: Vec<(&[Value], &KeyIndex, HopColumns<'_>)> = Vec::with_capacity(deeper.len());
        for t in deeper {
            let ids = t.column("request_id").ok_or_else(|| missing_id(t))?;
            let index = t.key_index("request_id").ok_or_else(|| missing_id(t))?;
            deep.push((ids, index, HopColumns::new(t)));
        }
        let ids = front
            .column("request_id")
            .ok_or_else(|| missing_id(front))?;
        let front_cols = HopColumns::new(front);
        let interactions = front.column("interaction");
        let mut names = Interner::default();
        out.reserve(ids.len());
        for (row, id) in ids.iter().enumerate() {
            let Some(id) = id.as_str() else { continue };
            out.push_hop(&front_cols, row, &mut names)?;
            for (deep_ids, index, cols) in &deep {
                let Some(r) = index.last_text(deep_ids, id) else {
                    break;
                };
                out.push_hop(cols, r, &mut names)?;
            }
            let interaction = interactions
                .and_then(|col| col.get(row))
                .and_then(Value::as_str)
                .unwrap_or("?");
            out.interaction.push(names.id(interaction));
            out.ids.push_str(id);
            out.id_ends.push(out.ids.len());
            out.ends.push(out.ua.len());
        }
        out.names = names.into_names();
        Ok(out)
    }

    /// Copies every flow out, in front-table row order.
    pub fn flows(&self) -> Vec<RequestFlow> {
        let mut flows = Vec::with_capacity(self.ends.len());
        let (mut lo, mut id_lo) = (0, 0);
        for ((&hi, &id_hi), &interaction) in
            self.ends.iter().zip(&self.id_ends).zip(&self.interaction)
        {
            // At least four hops' room, as pushing onto an empty `Vec`
            // leaves: one allocation size for every flow of up to four
            // hops, which `query_mix`'s latencies measured better than
            // exact lengths (EXPERIMENTS.md, §Flows kept per trial).
            let mut hops = Vec::with_capacity((hi - lo).max(4));
            hops.extend((lo..hi).map(|h| self.hop(h, h - lo)));
            // perf: flows own their strings (callers keep them past the
            // table) — two allocations per flow, one more per hop for its node.
            flows.push(RequestFlow {
                request_id: self.ids[id_lo..id_hi].to_string(),
                interaction: self.names[interaction as usize].clone(),
                hops,
            });
            (lo, id_lo) = (hi, id_hi);
        }
        flows
    }

    /// Hop `h` as an owned [`FlowHop`] at position `tier` of its flow.
    fn hop(&self, h: usize, tier: usize) -> FlowHop {
        let bits = self.windows[h / 32] >> (2 * (h % 32));
        FlowHop {
            tier,
            node: self.names[self.node[h] as usize].clone(),
            ua: self.ua[h],
            ud: self.ud[h],
            ds: (bits & 1 != 0).then_some(self.ds[h]),
            dr: (bits & 2 != 0).then_some(self.dr[h]),
        }
    }

    /// Room for `flows` flows of one hop each; deeper hops grow the hop
    /// columns as they are found.
    fn reserve(&mut self, flows: usize) {
        self.id_ends.reserve(flows);
        self.interaction.reserve(flows);
        self.ends.reserve(flows);
        self.ua.reserve(flows);
        self.ud.reserve(flows);
        self.ds.reserve(flows);
        self.dr.reserve(flows);
        self.node.reserve(flows);
    }

    /// Appends row `row` of `cols`'s table as the next hop. The cells are
    /// read in the order `ua`, `ud`, `ds`, `dr`, so a row with several bad
    /// cells is reported for the first of them.
    fn push_hop<'t>(
        &mut self,
        cols: &HopColumns<'t>,
        row: usize,
        names: &mut Interner<'t>,
    ) -> Result<(), FlowError> {
        let ua = cols.mandatory(cols.ua, "ua", row)?;
        let ud = cols.mandatory(cols.ud, "ud", row)?;
        let ds = cols.get(cols.ds, "ds", row)?;
        let dr = cols.get(cols.dr, "dr", row)?;
        let node = cols
            .node
            .and_then(|col| col.get(row))
            .and_then(Value::as_str)
            .unwrap_or("?");
        self.ua.push(ua);
        self.ud.push(ud);
        let h = self.ds.len();
        if h.is_multiple_of(32) {
            self.windows.push(0);
        }
        if let Some(word) = self.windows.last_mut() {
            *word |= (u64::from(ds.is_some()) | u64::from(dr.is_some()) << 1) << (2 * (h % 32));
        }
        self.ds.push(ds.unwrap_or(0));
        self.dr.push(dr.unwrap_or(0));
        self.node.push(names.id(node));
        Ok(())
    }
}

/// One event table's hop columns, each name resolved to a column slice
/// once per build. Column absence is a *lazy, per-row* error, so a table
/// is only faulted for a column a visited row actually needed.
struct HopColumns<'t> {
    table: &'t str,
    node: Option<&'t [Value]>,
    ua: Option<&'t [Value]>,
    ud: Option<&'t [Value]>,
    ds: Option<&'t [Value]>,
    dr: Option<&'t [Value]>,
}

impl<'t> HopColumns<'t> {
    fn new(table: &'t Table) -> HopColumns<'t> {
        HopColumns {
            table: table.name(),
            node: table.column("node"),
            ua: table.column("ua"),
            ud: table.column("ud"),
            ds: table.column("ds"),
            dr: table.column("dr"),
        }
    }

    /// The timestamp at `row` of `col`, `None` for no value: a null cell,
    /// or a text cell that is empty or `-` once trimmed — the monitors'
    /// "no value" mark, which loads verbatim when every cell of a column
    /// is one (a leaf tier's `ds`/`dr`). Any other cell that is not a
    /// timestamp is an error.
    fn get(&self, col: Option<&[Value]>, name: &str, row: usize) -> Result<Option<i64>, FlowError> {
        let col = col.ok_or_else(|| FlowError::MissingColumn {
            table: self.table.to_string(),
            column: name.to_string(),
        })?;
        match &col[row] {
            Value::Null => Ok(None),
            Value::Text(s) if matches!(s.trim(), "" | "-") => Ok(None),
            cell => cell
                .as_i64()
                .map(Some)
                .ok_or_else(|| FlowError::NotTimestamp {
                    table: self.table.to_string(),
                    row,
                    column: name.to_string(),
                }),
        }
    }

    /// [`get`](HopColumns::get) for a column whose cells may not be null.
    fn mandatory(&self, col: Option<&[Value]>, name: &str, row: usize) -> Result<i64, FlowError> {
        self.get(col, name, row)?
            .ok_or_else(|| FlowError::NullTimestamp {
                table: self.table.to_string(),
                row,
                column: name.to_string(),
            })
    }
}

/// Names seen during one build, each given the index of its first
/// sighting. Keys borrow from the event tables; [`into_names`] makes the
/// owned copies once per distinct name.
///
/// [`into_names`]: Interner::into_names
#[derive(Default)]
struct Interner<'t> {
    seen: HashMap<&'t str, u32>,
    names: Vec<&'t str>,
}

impl<'t> Interner<'t> {
    fn id(&mut self, name: &'t str) -> u32 {
        let next = self.names.len() as u32;
        let id = *self.seen.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
        }
        id
    }

    fn into_names(self) -> Vec<String> {
        self.names.into_iter().map(str::to_string).collect()
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

    /// A leaf tier's `ds`/`dr` of nothing but `-` loads as text: the mark
    /// reads as no window. Any other text is a typed error, in the order
    /// the cells are read.
    #[test]
    fn text_timestamp_cells_are_marks_or_typed_errors() {
        let schema = Schema::new(vec![
            Column::new("request_id", ColumnType::Text),
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
            Column::new("ds", ColumnType::Text),
            Column::new("dr", ColumnType::Text),
        ])
        .unwrap();
        let table = |ds: &str, dr: &str| {
            let mut t = Table::new("event_mysql", schema.clone());
            t.push_row(vec![
                Value::Text("AAA".into()),
                Value::Timestamp(1),
                Value::Timestamp(2),
                Value::Text(ds.into()),
                Value::Text(dr.into()),
            ])
            .unwrap();
            t
        };
        let marks = reconstruct_flows(&[&table("-", " ")]).unwrap();
        assert_eq!((marks[0].hops[0].ds, marks[0].hops[0].dr), (None, None));
        let err = reconstruct_flows(&[&table("-", "00:00:01.000000")]).unwrap_err();
        assert_eq!(
            err,
            FlowError::NotTimestamp {
                table: "event_mysql".into(),
                row: 0,
                column: "dr".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "row 0 of `event_mysql` has a dr that is not a timestamp"
        );
        let err = reconstruct_flows(&[&table("x", "y")]).unwrap_err();
        assert!(matches!(err, FlowError::NotTimestamp { column, .. } if column == "ds"));
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

    /// The first reconstruction keeps each deeper tier's `request_id`
    /// index on its table; an append drops it, so the second call sees the
    /// late Tomcat record and stitches the path it completes.
    #[test]
    fn a_deeper_tier_row_appended_between_calls_is_seen() {
        let apache = event_table("event_apache", vec![("AAA", 0, 100, Some(10), Some(90))]);
        let mut tomcat = event_table("event_tomcat", vec![("ZZZ", 1, 2, None, None)]);
        let mysql = event_table("event_mysql", vec![("AAA", 22, 78, None, None)]);
        let first = reconstruct_flows(&[&apache, &tomcat, &mysql]).unwrap();
        assert_eq!(first[0].hops.len(), 1);
        tomcat
            .push_row(vec![
                Value::Text("AAA".into()),
                Value::Text("ViewStory".into()),
                Value::Text("event_tomcat-node".into()),
                Value::Timestamp(12),
                Value::Timestamp(88),
                Value::Timestamp(20),
                Value::Timestamp(80),
            ])
            .unwrap();
        let second = reconstruct_flows(&[&apache, &tomcat, &mysql]).unwrap();
        assert_eq!(second[0].hops.len(), 3);
        assert!(second[0].is_causally_ordered());
        assert_eq!(second[0].hops[1].node, "event_tomcat-node");
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
        #[expect(
            clippy::cast_sign_loss,
            reason = "clamped to 0..=width - 1 before the cast"
        )]
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
