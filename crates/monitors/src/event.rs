//! Event mScopeMonitors: render execution-boundary events into each
//! component server's *native* log format.
//!
//! This mirrors the paper's instrumentation strategy (§IV, Appendix A): the
//! monitors do not open their own channels — they piggyback on the logging
//! facility each server already has. Apache's monitor extends the access log
//! with the four timestamps; Tomcat logs through its request-log valve with
//! an extra thread for downstream data; C-JDBC logs through its controller
//! log; MySQL embeds the request ID as a comment in the general query log.
//!
//! One line is emitted per request per node at Upstream-Departure time (when
//! all four timestamps are known), exactly like the real `mod_log_config`
//! writes at request completion.

use crate::logstore::LogStore;
use mscope_ntier::{BoundaryKind, LifecycleEvent, NodeId, RequestId, TierKind};
use mscope_sim::{push_wallclock, SimTime};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The four §IV-B timestamps gathered for one request at one node.
#[derive(Debug, Clone, Copy, Default)]
struct PendingRecord {
    ua: Option<SimTime>,
    ud: Option<SimTime>,
    ds: Option<SimTime>,
    dr: Option<SimTime>,
    interaction: &'static str,
    status: u16,
}

/// Appends the timestamp suffix common to every format.
fn push_suffix(line: &mut String, p: &PendingRecord) {
    for (key, t) in [
        (" ua=", p.ua),
        (" ud=", p.ud),
        (" ds=", p.ds),
        (" dr=", p.dr),
    ] {
        line.push_str(key);
        match t {
            Some(t) => push_wallclock(line, t),
            None => line.push('-'),
        }
    }
}

/// An event mScopeMonitor attached to one node.
///
/// Feed it the node's [`LifecycleEvent`]s in time order via
/// [`EventMonitor::observe`]; it writes one native-format log line per
/// completed request into the [`LogStore`].
///
/// # Examples
///
/// ```
/// use mscope_monitors::{EventMonitor, LogStore};
/// use mscope_ntier::{BoundaryKind, Interaction, LifecycleEvent, NodeId, RequestId, TierId, TierKind};
/// use mscope_sim::SimTime;
///
/// let node = NodeId { tier: TierId(0), replica: 0 };
/// let mut mon = EventMonitor::new(node, TierKind::Apache);
/// let mut store = LogStore::new();
/// let ev = |b, ms| LifecycleEvent {
///     time: SimTime::from_millis(ms), node, kind: TierKind::Apache,
///     request: RequestId(7), interaction: Interaction { idx: 0 }, boundary: b,
///     status: 200,
/// };
/// mon.observe(&ev(BoundaryKind::UpstreamArrival, 1), &mut store);
/// mon.observe(&ev(BoundaryKind::UpstreamDeparture, 5), &mut store);
/// let log = store.read(&mon.log_path()).unwrap();
/// assert!(log.contains("ID=000000000007"));
/// ```
#[derive(Debug)]
pub struct EventMonitor {
    node: NodeId,
    kind: TierKind,
    /// Keyed lookups only (`entry`/`remove`) — emission order is driven by
    /// the lifecycle event stream, never by this map's iteration order, so
    /// hash ordering cannot reach the rendered logs (lint rule DT001).
    pending: HashMap<RequestId, PendingRecord>,
    lines_written: u64,
    /// The native log file's path, computed once.
    path: String,
    /// The line being written, reused so a line allocates nothing.
    line: String,
}

impl EventMonitor {
    /// Creates the monitor for one node.
    pub fn new(node: NodeId, kind: TierKind) -> EventMonitor {
        let file = match kind {
            TierKind::Apache => "access_log",
            TierKind::Tomcat => "catalina.out",
            TierKind::Cjdbc => "controller.log",
            TierKind::Mysql => "general_query.log",
        };
        EventMonitor {
            node,
            kind,
            pending: HashMap::new(),
            lines_written: 0,
            path: format!("logs/{node}/{file}"),
            line: String::new(),
        }
    }

    /// The node this monitor instruments.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Path of the native log file this monitor appends to.
    pub fn log_path(&self) -> String {
        self.path.clone()
    }

    /// Lines emitted so far.
    pub fn lines_written(&self) -> u64 {
        self.lines_written
    }

    /// Requests currently awaiting their departure timestamp (useful at end
    /// of run: these are the in-flight requests).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Consumes one lifecycle event for this node. Events for other nodes
    /// are ignored, so a stream can be broadcast to every monitor.
    pub fn observe(&mut self, ev: &LifecycleEvent, store: &mut LogStore) {
        if ev.node != self.node {
            return;
        }
        let rec = self.pending.entry(ev.request).or_default();
        rec.interaction = ev.interaction.name();
        rec.status = ev.status;
        match ev.boundary {
            BoundaryKind::UpstreamArrival => rec.ua = Some(ev.time),
            BoundaryKind::DownstreamSending => rec.ds = Some(ev.time),
            BoundaryKind::DownstreamReceiving => rec.dr = Some(ev.time),
            BoundaryKind::UpstreamDeparture => {
                rec.ud = Some(ev.time);
                let rec = *rec;
                self.pending.remove(&ev.request);
                self.write_line(ev.request, ev.time, &rec);
                store.append_line(&self.path, &self.line);
                self.lines_written += 1;
            }
        }
    }

    /// Writes the native-format line for a departed request into the
    /// reused line buffer.
    fn write_line(&mut self, id: RequestId, ud: SimTime, p: &PendingRecord) {
        let line = &mut self.line;
        line.clear();
        // `write!` into a `String` cannot fail.
        let _ = match self.kind {
            // Apache combined access-log, extended per Appendix A with the
            // connector timestamps.
            TierKind::Apache => {
                line.push_str("127.0.0.1 - - [");
                push_wallclock(line, ud);
                write!(
                    line,
                    "] \"GET /rubbos/{}?ID={id} HTTP/1.1\" {} 1802",
                    p.interaction, p.status
                )
            }
            // Tomcat request-log valve line (the extra logging thread's
            // variable-width downstream record is folded into the suffix).
            TierKind::Tomcat => {
                push_wallclock(line, ud);
                write!(
                    line,
                    " INFO [ajp-exec] RequestLog /servlet/{} ID={id}",
                    p.interaction
                )
            }
            // C-JDBC controller log.
            TierKind::Cjdbc => {
                push_wallclock(line, ud);
                write!(
                    line,
                    " [rubbos-vdb] virtualdatabase request ID={id} op={}",
                    p.interaction
                )
            }
            // MySQL general query log: the ID travels as a SQL comment.
            TierKind::Mysql => {
                push_wallclock(line, ud);
                write!(
                    line,
                    "\t   42 Query\tSELECT * FROM stories /*ID={id}*/ /*op={}*/",
                    p.interaction
                )
            }
        };
        push_suffix(line, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_ntier::{Interaction, TierId};

    fn node(t: usize) -> NodeId {
        NodeId {
            tier: TierId(t),
            replica: 0,
        }
    }

    fn ev(n: NodeId, k: TierKind, req: u64, b: BoundaryKind, ms: u64) -> LifecycleEvent {
        LifecycleEvent {
            time: SimTime::from_millis(ms),
            node: n,
            kind: k,
            request: RequestId(req),
            interaction: Interaction { idx: 1 }, // ViewStory
            boundary: b,
            status: 200,
        }
    }

    #[test]
    fn apache_line_has_url_id_and_all_timestamps() {
        let n = node(0);
        let mut mon = EventMonitor::new(n, TierKind::Apache);
        let mut store = LogStore::new();
        mon.observe(
            &ev(n, TierKind::Apache, 3, BoundaryKind::UpstreamArrival, 10),
            &mut store,
        );
        mon.observe(
            &ev(n, TierKind::Apache, 3, BoundaryKind::DownstreamSending, 11),
            &mut store,
        );
        mon.observe(
            &ev(
                n,
                TierKind::Apache,
                3,
                BoundaryKind::DownstreamReceiving,
                19,
            ),
            &mut store,
        );
        mon.observe(
            &ev(n, TierKind::Apache, 3, BoundaryKind::UpstreamDeparture, 20),
            &mut store,
        );
        let log = store.read("logs/tier0-0/access_log").unwrap();
        assert!(log.contains("GET /rubbos/ViewStory?ID=000000000003"));
        assert!(log.contains("ua=00:00:00.010000"));
        assert!(log.contains("ds=00:00:00.011000"));
        assert!(log.contains("dr=00:00:00.019000"));
        assert!(log.contains("ud=00:00:00.020000"));
        assert_eq!(mon.lines_written(), 1);
        assert_eq!(mon.pending_count(), 0);
    }

    #[test]
    fn leaf_tier_line_marks_missing_downstream() {
        let n = node(3);
        let mut mon = EventMonitor::new(n, TierKind::Mysql);
        let mut store = LogStore::new();
        mon.observe(
            &ev(n, TierKind::Mysql, 9, BoundaryKind::UpstreamArrival, 5),
            &mut store,
        );
        mon.observe(
            &ev(n, TierKind::Mysql, 9, BoundaryKind::UpstreamDeparture, 8),
            &mut store,
        );
        let log = store.read("logs/tier3-0/general_query.log").unwrap();
        assert!(log.contains("/*ID=000000000009*/"));
        assert!(log.contains("ds=- dr=-"));
    }

    #[test]
    fn one_line_per_request_only_at_departure() {
        let n = node(1);
        let mut mon = EventMonitor::new(n, TierKind::Tomcat);
        let mut store = LogStore::new();
        mon.observe(
            &ev(n, TierKind::Tomcat, 1, BoundaryKind::UpstreamArrival, 1),
            &mut store,
        );
        assert!(store.is_empty(), "nothing written before departure");
        assert_eq!(mon.pending_count(), 1);
        mon.observe(
            &ev(n, TierKind::Tomcat, 1, BoundaryKind::UpstreamDeparture, 2),
            &mut store,
        );
        assert_eq!(mon.pending_count(), 0);
        assert_eq!(
            store
                .read("logs/tier1-0/catalina.out")
                .unwrap()
                .lines()
                .count(),
            1
        );
    }

    #[test]
    fn ignores_other_nodes_events() {
        let n = node(0);
        let other = node(1);
        let mut mon = EventMonitor::new(n, TierKind::Apache);
        let mut store = LogStore::new();
        mon.observe(
            &ev(other, TierKind::Tomcat, 1, BoundaryKind::UpstreamArrival, 1),
            &mut store,
        );
        mon.observe(
            &ev(
                other,
                TierKind::Tomcat,
                1,
                BoundaryKind::UpstreamDeparture,
                2,
            ),
            &mut store,
        );
        assert!(store.is_empty());
        assert_eq!(mon.lines_written(), 0);
    }

    #[test]
    fn event_monitors_cover_all_nodes() {
        // A two-tier topology: Apache on tier0-0, Tomcat on tier1-0.
        let mut cfg = mscope_ntier::SystemConfig::rubbos_baseline(10);
        cfg.tiers.truncate(2);
        let suite = crate::MonitorSuite {
            resource_monitors: Vec::new(),
            event_monitors: true,
            sysviz: false,
        };
        let stream = vec![
            ev(
                node(0),
                TierKind::Apache,
                1,
                BoundaryKind::UpstreamArrival,
                1,
            ),
            ev(
                node(1),
                TierKind::Tomcat,
                1,
                BoundaryKind::UpstreamArrival,
                2,
            ),
            ev(
                node(1),
                TierKind::Tomcat,
                1,
                BoundaryKind::UpstreamDeparture,
                3,
            ),
            ev(
                node(0),
                TierKind::Apache,
                1,
                BoundaryKind::UpstreamDeparture,
                4,
            ),
        ];
        let mut monitors = suite.stream(&cfg);
        for e in &stream {
            monitors.observe(&crate::Record::Lifecycle(*e));
        }
        let art = monitors.finish();
        let store = art.store;
        assert_eq!(art.manifest.len(), 2, "one event monitor per node");
        assert_eq!(store.len(), 2);
        assert!(store.read("logs/tier0-0/access_log").is_some());
        assert!(store.read("logs/tier1-0/catalina.out").is_some());
    }

    #[test]
    fn request_id_is_fixed_width_in_all_formats() {
        for kind in [
            TierKind::Apache,
            TierKind::Tomcat,
            TierKind::Cjdbc,
            TierKind::Mysql,
        ] {
            let n = node(0);
            let mut mon = EventMonitor::new(n, kind);
            let mut store = LogStore::new();
            mon.observe(
                &ev(n, kind, 0xFFFF, BoundaryKind::UpstreamArrival, 1),
                &mut store,
            );
            mon.observe(
                &ev(n, kind, 0xFFFF, BoundaryKind::UpstreamDeparture, 2),
                &mut store,
            );
            let content = store.read(&mon.log_path()).unwrap();
            assert!(content.contains("ID=00000000FFFF"), "{kind}: {content}");
        }
    }
}
