//! Monitor rendering — the monitors' one driver, and their half of the
//! streaming ingestion spine.
//!
//! [`MonitorStream`] is the only renderer. Feed it [`Record`]s one at a
//! time (or in chunks) and it appends each monitor's output to a growing
//! [`LogStore`] as the records arrive. A finished run is replayed in place
//! by [`merged_records`], which interleaves its three record vectors in
//! time order without copying them; the streaming spine feeds that
//! iterator straight into the stream. Batch rendering
//! ([`MonitorSuite::render`]) is this same stream fed the three vectors
//! each in its own order: every consumer sees only its own subsequence,
//! which is all the merged stream gives it too, so the two give the same
//! bytes.
//!
//! The only state the stream keeps is inherently required by the formats
//! themselves: event monitors hold per-request pending timestamps until
//! the departure line can be written, each resource monitor holds the one
//! period-bucket currently being filled, and the SysViz tap holds one
//! transaction per request seen, folding each message into it as the
//! message arrives.

use crate::event::EventMonitor;
use crate::logstore::LogStore;
use crate::resource::{bucket_of, merge, ResourceMonitor};
use crate::suite::{topology_nodes, LogFileMeta, MonitorSuite, MonitoringArtifacts};
use crate::sysviz::SysVizTap;
use mscope_ntier::{LifecycleEvent, MessageEvent, NodeId, ResourceSample, RunOutput, SystemConfig};
use mscope_sim::SimTime;
use std::collections::BTreeMap;

/// One monitoring observation, as it would arrive during a live run.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An execution-boundary event (feeds the event monitors).
    Lifecycle(LifecycleEvent),
    /// A wire message (feeds the SysViz tap).
    Message(MessageEvent),
    /// A base-period resource sample (feeds the resource monitors).
    Sample(ResourceSample),
}

impl Record {
    /// The timestamp the record is merged on — a message sorts at its
    /// send time (when the tap would first see it on the wire).
    pub fn time(&self) -> SimTime {
        match self {
            Record::Lifecycle(ev) => ev.time,
            Record::Message(m) => m.send_time,
            Record::Sample(s) => s.time,
        }
    }
}

/// Interleaves a finished run's three record vectors, read in place, into
/// the single time-ordered stream a live deployment would emit. Each
/// source vector's internal order is preserved exactly (the merge only
/// interleaves), which is the property streaming≡batch identity rests on:
/// every consumer sees its own source subsequence unchanged. Ties sort
/// lifecycle < message < sample.
pub fn merged_records(out: &RunOutput) -> impl Iterator<Item = Record> + '_ {
    let (mut li, mut mi, mut si) = (0usize, 0usize, 0usize);
    std::iter::from_fn(move || {
        let (l, m, s) = (
            out.lifecycle.get(li),
            out.messages.get(mi),
            out.samples.get(si),
        );
        // An exhausted source sorts after every record.
        let lt = l.map_or(SimTime::MAX, |e| e.time);
        let mt = m.map_or(SimTime::MAX, |m| m.send_time);
        let st = s.map_or(SimTime::MAX, |s| s.time);
        if let Some(ev) = l.filter(|_| lt <= mt && lt <= st) {
            li += 1;
            return Some(Record::Lifecycle(*ev));
        }
        if let Some(msg) = m.filter(|_| mt <= st) {
            mi += 1;
            return Some(Record::Message(*msg));
        }
        let sample = s?;
        si += 1;
        Some(Record::Sample(*sample))
    })
}

/// [`merged_records`] collected: the whole replay in one vector.
pub fn merge_records(out: &RunOutput) -> Vec<Record> {
    // perf: one output vector for the whole replay, sized exactly.
    let mut merged =
        Vec::with_capacity(out.lifecycle.len() + out.messages.len() + out.samples.len());
    merged.extend(merged_records(out));
    merged
}

/// Incremental state for one [`ResourceMonitor`]: the period bucket being
/// filled plus the running record count that drives header repetition.
#[derive(Debug)]
pub struct ResourceMonitorState {
    monitor: ResourceMonitor,
    bucket: Vec<ResourceSample>,
    current: Option<u64>,
    emitted: usize,
}

impl ResourceMonitorState {
    /// Wraps a monitor and writes its file preamble (batch writes the
    /// preamble even for a monitor that records nothing — so does this).
    pub fn new(monitor: ResourceMonitor, store: &mut LogStore) -> ResourceMonitorState {
        let mut head = String::new();
        monitor.tool.header_into(&mut head, &monitor.node);
        store.append(&monitor.log_path(), &head);
        ResourceMonitorState {
            monitor,
            bucket: Vec::new(),
            current: None,
            emitted: 0,
        }
    }

    /// Consumes one base sample; samples for other nodes are ignored. A
    /// sample landing in a new period bucket seals and renders the
    /// previous one.
    pub fn observe(&mut self, s: &ResourceSample, store: &mut LogStore) {
        if s.node != self.monitor.node {
            return;
        }
        let b = bucket_of(s, self.monitor.period);
        if self.current.is_some_and(|cur| cur != b) {
            self.flush(store);
        }
        self.current = Some(b);
        self.bucket.push(*s);
    }

    /// Seals the trailing bucket and writes the file epilogue; returns the
    /// number of records written.
    pub fn finish(mut self, store: &mut LogStore) -> usize {
        self.flush(store);
        store.append(&self.monitor.log_path(), self.monitor.tool.footer());
        self.emitted
    }

    /// Renders the filled bucket as one record; an empty bucket writes
    /// nothing.
    fn flush(&mut self, store: &mut LogStore) {
        let Some(rec) = merge(&self.bucket) else {
            return;
        };
        // perf: one text buffer per sealed period bucket (tens of ms of
        // samples), not per sample.
        let mut text = String::new();
        self.monitor.tool.record_into(&mut text, self.emitted, &rec);
        store.append(&self.monitor.log_path(), &text);
        self.emitted += 1;
        self.bucket.clear();
    }
}

/// The monitors' one driver: observes [`Record`]s as they arrive, appends
/// each monitor's output to its [`LogStore`], and at
/// [`MonitorStream::finish`] seals them into [`MonitoringArtifacts`].
#[derive(Debug)]
pub struct MonitorStream {
    manifest: Vec<LogFileMeta>,
    store: LogStore,
    event: Vec<EventMonitor>,
    by_node: BTreeMap<NodeId, usize>,
    resources: Vec<ResourceMonitorState>,
    tap: Option<SysVizTap>,
}

impl MonitorStream {
    /// Deploys the suite's monitors.
    pub fn new(suite: &MonitorSuite, config: &SystemConfig) -> MonitorStream {
        let mut store = LogStore::new();
        let event: Vec<EventMonitor> = if suite.event_monitors {
            topology_nodes(config)
                .into_iter()
                .map(|(n, k)| EventMonitor::new(n, k))
                .collect()
        } else {
            Vec::new()
        };
        // BTreeMap: lookup-only, ordered by construction (lint rule DT001).
        let mut by_node = BTreeMap::new();
        for (i, m) in event.iter().enumerate() {
            by_node.insert(m.node(), i);
        }
        let resources = suite
            .resource_monitors
            .iter()
            .map(|rm| ResourceMonitorState::new(rm.clone(), &mut store))
            .collect();
        MonitorStream {
            manifest: suite.manifest(config),
            store,
            event,
            by_node,
            resources,
            tap: suite.sysviz.then(SysVizTap::default),
        }
    }

    /// Consumes one record.
    pub fn observe(&mut self, rec: &Record) {
        match rec {
            Record::Lifecycle(ev) => self.observe_lifecycle(ev),
            Record::Message(m) => self.observe_message(m),
            Record::Sample(s) => self.observe_sample(s),
        }
    }

    /// Feeds an execution-boundary event to its node's event monitor.
    pub(crate) fn observe_lifecycle(&mut self, ev: &LifecycleEvent) {
        if let Some(&i) = self.by_node.get(&ev.node) {
            self.event[i].observe(ev, &mut self.store);
        }
    }

    /// Feeds a wire message to the SysViz tap, when it captures.
    pub(crate) fn observe_message(&mut self, m: &MessageEvent) {
        if let Some(tap) = &mut self.tap {
            tap.observe(m);
        }
    }

    /// Feeds a base resource sample to every resource monitor.
    pub(crate) fn observe_sample(&mut self, s: &ResourceSample) {
        for state in &mut self.resources {
            state.observe(s, &mut self.store);
        }
    }

    /// Consumes a chunk of records in order.
    pub fn observe_chunk(&mut self, recs: &[Record]) {
        for rec in recs {
            self.observe(rec);
        }
    }

    /// The growing log store — the surface a streaming ingester tails
    /// between [`observe`](MonitorStream::observe) calls.
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// Seals every monitor (trailing resource buckets, format epilogues),
    /// ends the SysViz capture, and hands back the finished artifacts.
    pub fn finish(self) -> MonitoringArtifacts {
        let MonitorStream {
            manifest,
            mut store,
            resources,
            tap,
            ..
        } = self;
        for state in resources {
            state.finish(&mut store);
        }
        MonitoringArtifacts {
            store,
            manifest,
            sysviz: tap.map(SysVizTap::finish),
        }
    }
}

impl MonitorSuite {
    /// Deploys this suite; the returned [`MonitorStream`] accepts records
    /// incrementally and finishes into the same artifacts
    /// [`MonitorSuite::render`] produces for a finished run.
    pub fn stream(&self, config: &SystemConfig) -> MonitorStream {
        MonitorStream::new(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysviz::SysVizTrace;
    use mscope_ntier::Simulator;
    use mscope_sim::SimDuration;

    fn small_run() -> RunOutput {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        Simulator::new(cfg).unwrap().run()
    }

    #[test]
    fn merge_preserves_per_source_order_and_time_order() {
        let out = small_run();
        let merged = merge_records(&out);
        assert_eq!(
            merged.len(),
            out.lifecycle.len() + out.messages.len() + out.samples.len()
        );
        assert!(merged.windows(2).all(|w| w[0].time() <= w[1].time()));
        let lifecycle: Vec<LifecycleEvent> = merged
            .iter()
            .filter_map(|r| match r {
                Record::Lifecycle(ev) => Some(*ev),
                _ => None,
            })
            .collect();
        assert_eq!(lifecycle, out.lifecycle);
    }

    #[test]
    fn streaming_store_is_byte_identical_to_batch() {
        let out = small_run();
        let suite = MonitorSuite::standard(&out.config);
        let batch = suite.render(&out);

        for chunk_size in [1usize, 64, 4096] {
            let merged = merge_records(&out);
            let mut stream = suite.stream(&out.config);
            for chunk in merged.chunks(chunk_size) {
                stream.observe_chunk(chunk);
            }
            let streamed = stream.finish();
            assert_eq!(streamed.store, batch.store, "chunk_size={chunk_size}");
            assert_eq!(streamed.manifest, batch.manifest);
            assert_eq!(streamed.sysviz, batch.sysviz);
        }
    }

    #[test]
    fn zero_record_stream_still_writes_preambles() {
        let cfg = SystemConfig::rubbos_baseline(10);
        let suite = MonitorSuite::standard(&cfg);
        let art = suite.stream(&cfg).finish();
        // Every resource log exists (possibly just its preamble), no event
        // logs exist — the same shape batch gives an empty run.
        assert_eq!(art.store.len(), suite.resource_monitors.len());
        // The tap captured nothing: an empty trace, not a missing one.
        assert!(suite.sysviz);
        assert_eq!(art.sysviz, Some(SysVizTrace::default()));
        // A suite without the tap finishes with no trace at all.
        let untapped = MonitorSuite {
            sysviz: false,
            ..suite
        };
        assert_eq!(untapped.stream(&cfg).finish().sysviz, None);
    }
}
