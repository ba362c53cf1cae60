//! In-memory spans around the calls into each layer.
//!
//! The benchmark records a span — name, start, end, parent, trial id, and
//! the work counted at that boundary — around every public call the traced
//! child makes. Spans stay in memory until the child ends; then they are
//! folded into per-stage totals, written as Chrome-trace JSON, and
//! rendered as the "Where the time goes" ledger. Spans *inside* the
//! program under test are a later change (ROADMAP item 3).

use mscope_serdes::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (`layer::call`).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The trial (seed) every span of one run shares.
    pub trial: u64,
    /// Work counted at this boundary: `(unit, amount)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread; nesting follows call order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trial: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `trial`.
    pub fn new(trial: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            trial,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial: self.trial,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it), attaching the
    /// work counted at its boundary. Returns its duration in seconds.
    pub fn exit(&mut self, id: usize, counts: &[(&'static str, u64)]) -> f64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].counts.extend_from_slice(counts);
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Runs `f` inside a leaf span; `count` turns its result into the work
    /// counted at the boundary.
    pub fn call<R>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> R,
        count: impl FnOnce(&R) -> Vec<(&'static str, u64)>,
    ) -> R {
        let id = self.enter(name);
        let r = f();
        let counts = count(&r);
        self.exit(id, &counts);
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// intervals (clipped to the parent).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, k))
        .collect()
}

/// Share of the root spans' total time that their direct children cover —
/// how much of the traced job the stage spans account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            total += s.dur_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    (total - uncovered) as f64 / total as f64
}

/// Per-stage totals over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotal {
    /// Calls recorded under this name.
    pub calls: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
    /// Per-call durations, milliseconds, in call order.
    pub each_ms: Vec<f64>,
    /// Summed work counts.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Folds the spans `pick` accepts by name, in first-seen order (which is
/// pipeline order for the stages of one root).
fn fold_stages(spans: &[Span], pick: impl Fn(&Span) -> bool) -> Vec<(&str, StageTotal)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&str, StageTotal)> = Vec::new();
    for (s, own) in spans.iter().zip(&selfs).filter(|(s, _)| pick(s)) {
        let at = out
            .iter()
            .position(|(name, _)| *name == s.name)
            .unwrap_or_else(|| {
                out.push((&s.name, StageTotal::default()));
                out.len() - 1
            });
        let t = &mut out[at].1;
        t.calls += 1;
        t.total_s += s.dur_ns() as f64 / 1e9;
        t.self_s += *own as f64 / 1e9;
        t.each_ms.push(s.dur_ns() as f64 / 1e6);
        for &(unit, n) in &s.counts {
            *t.counts.entry(unit).or_default() += n;
        }
    }
    out
}

/// Folds every span by name.
pub fn by_stage(spans: &[Span]) -> BTreeMap<String, StageTotal> {
    fold_stages(spans, |_| true)
        .into_iter()
        .map(|(name, t)| (name.to_string(), t))
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON for one trace.
pub fn chrome_trace(spans: &[Span], process: &str) -> Json {
    let mut events = vec![Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("args", Json::obj([("name", Json::Str(process.into()))])),
    ])];
    for (id, s) in spans.iter().enumerate() {
        let mut args = vec![
            ("id".to_string(), Json::Int(id as i128)),
            ("trial".to_string(), Json::Int(s.trial as i128)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
            ),
        ];
        for &(unit, n) in &s.counts {
            args.push((unit.to_string(), Json::Int(n as i128)));
        }
        events.push(Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(1)),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            ("dur", Json::Float(s.dur_ns() as f64 / 1e3)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// One row of the ledger: a stage of one root.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Root span the stage ran under.
    pub root: String,
    /// Stage name.
    pub stage: String,
    /// Calls.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Share of the root's duration.
    pub share: f64,
    /// Work counted at the stage boundary, e.g. `records=770000`.
    pub work: String,
}
mscope_serdes::json_struct!(LedgerRow {
    root,
    stage,
    calls,
    total_s,
    self_s,
    share,
    work,
});

/// The "Where the time goes" rows: for every root span, one row per stage
/// name among its direct children, plus a `(self)` row for what the stage
/// spans leave uncovered.
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let selfs = self_times_ns(spans);
    let mut rows = Vec::new();
    for (ri, root) in spans.iter().enumerate() {
        if root.parent.is_some() {
            continue;
        }
        let root_s = root.dur_ns() as f64 / 1e9;
        let share = |secs: f64| if root_s > 0.0 { secs / root_s } else { 0.0 };
        for (stage, t) in fold_stages(spans, |s| s.parent == Some(ri)) {
            let work: Vec<String> = t.counts.iter().map(|(u, n)| format!("{u}={n}")).collect();
            rows.push(LedgerRow {
                root: root.name.clone(),
                stage: stage.to_string(),
                calls: t.calls,
                total_s: t.total_s,
                self_s: t.self_s,
                share: share(t.total_s),
                work: work.join(" "),
            });
        }
        let own_s = selfs[ri] as f64 / 1e9;
        rows.push(LedgerRow {
            root: root.name.clone(),
            stage: "(self)".into(),
            calls: 1,
            total_s: root_s,
            self_s: own_s,
            share: share(own_s),
            work: String::new(),
        });
    }
    rows
}

/// Markdown table of ledger rows.
pub fn ledger_markdown(rows: &[LedgerRow]) -> String {
    let mut out = String::from(
        "| root | stage | calls | total s | self s | share of root | work |\n\
         |---|---|---:|---:|---:|---:|---|\n",
    );
    for r in rows {
        let total = if r.stage == "(self)" {
            format!("({:.4})", r.total_s)
        } else {
            format!("{:.4}", r.total_s)
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.4} | {:.1} % | {} |\n",
            r.root,
            r.stage,
            r.calls,
            total,
            r.self_s,
            r.share * 100.0,
            r.work
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            trial: 7,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            // A grandchild shortens `b`'s self time, not the root's.
            span("b.inner", 45, 55, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10]);
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("job", 100, 200, None),
            span("a", 90, 150, Some(0)),  // starts before the parent
            span("b", 140, 160, Some(0)), // overlaps `a`
            span("c", 190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100,160) ∪ [190,200) = 70 ns.
        assert_eq!(self_times_ns(&spans)[0], 30);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn coverage_spans_every_root() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 0, 100, Some(0)),
            span("replay", 100, 200, None),
            span("p", 100, 150, Some(2)),
        ];
        assert!((coverage(&spans) - 0.75).abs() < 1e-12);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn tracer_nests_in_call_order_and_counts_work() {
        let mut tr = Tracer::new(42);
        let root = tr.enter("job");
        let n = tr.call("stage", || 5u64, |&n| vec![("rows", n)]);
        assert_eq!(n, 5);
        let dangling = tr.enter("left-open");
        tr.exit(root, &[]);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[1].counts, vec![("rows", 5)]);
        assert_eq!(s[dangling].end_ns, s[root].end_ns);
        assert!(s.iter().all(|s| s.trial == 42));
        let stages = by_stage(s);
        assert_eq!(stages["stage"].calls, 1);
        assert_eq!(stages["stage"].counts["rows"], 5);
    }

    #[test]
    fn ledger_groups_stages_under_their_root() {
        let mut spans = vec![
            span("job", 0, 1_000, None),
            span("parse", 0, 300, Some(0)),
            span("load", 300, 500, Some(0)),
            span("parse", 500, 900, Some(0)),
        ];
        spans[1].counts.push(("bytes", 10));
        spans[3].counts.push(("bytes", 5));
        let rows = ledger(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].stage.as_str(), rows[0].calls, rows[0].work.as_str()),
            ("parse", 2, "bytes=15")
        );
        assert!((rows[0].share - 0.7).abs() < 1e-12);
        assert_eq!(rows[1].stage, "load");
        assert_eq!(rows[2].stage, "(self)");
        assert!((rows[2].share - 0.1).abs() < 1e-12);
        assert!(ledger_markdown(&rows).contains("| job | parse | 2 |"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = vec![span("job", 0, 2_000, None), span("a", 500, 1_500, Some(0))];
        let text = mscope_serdes::to_string(&chrome_trace(&spans, "t"));
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_i64(),
            Some(0)
        );
    }
}
