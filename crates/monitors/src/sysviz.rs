//! SysViz stand-in: transaction reconstruction from passive network
//! observation.
//!
//! The paper validates its event mScopeMonitors against Fujitsu SysViz
//! (§VI-A, Fig. 9), a commercial appliance that reconstructs every
//! transaction from messages captured at network taps. Our tap sees every
//! wire message in the simulator and folds each one, as it arrives, into
//! per-request, per-tier residence intervals built from those messages
//! *alone* — completely independent of the event monitors' logs — so the
//! two can be compared.
//!
//! Note the tap's view is shifted from the servers' own view by the wire
//! latency (it sees a request enter a tier when the packet arrives, not
//! when the server logs it), which is exactly why the paper's comparison
//! shows "very similar", not identical, queue curves.

use mscope_ntier::{Endpoint, Interaction, MessageEvent, MsgKind, NodeId, RequestId, TierId};
use mscope_sim::SimTime;
use std::collections::{BTreeMap, HashMap};

/// One tier visit as reconstructed from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysVizSpan {
    /// Node observed serving the request.
    pub node: NodeId,
    /// When the request message reached the node.
    pub arrival: Option<SimTime>,
    /// When the reply message left the node (`None` if never observed —
    /// request still in flight when the capture ended).
    pub departure: Option<SimTime>,
    /// When the node forwarded the request downstream.
    pub downstream_sending: Option<SimTime>,
    /// When the downstream reply reached the node.
    pub downstream_receiving: Option<SimTime>,
}
mscope_serdes::json_struct!(SysVizSpan {
    node,
    arrival,
    departure,
    downstream_sending,
    downstream_receiving,
});

/// One reconstructed transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SysVizTransaction {
    /// Request ID parsed from the messages.
    pub request: RequestId,
    /// Interaction type.
    pub interaction: Interaction,
    /// When the client sent the request.
    pub client_send: Option<SimTime>,
    /// When the client received the reply.
    pub client_recv: Option<SimTime>,
    /// Spans keyed by tier index.
    pub spans: BTreeMap<usize, SysVizSpan>,
}
mscope_serdes::json_struct!(SysVizTransaction {
    request,
    interaction,
    client_send,
    client_recv,
    spans,
});

impl SysVizTransaction {
    /// `true` once the client-side reply was observed.
    pub fn is_complete(&self) -> bool {
        self.client_recv.is_some()
    }

    /// End-to-end response time as seen on the wire.
    pub fn response_time(&self) -> Option<mscope_sim::SimDuration> {
        Some(self.client_recv? - self.client_send?)
    }
}

/// The full reconstructed trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SysVizTrace {
    /// All transactions, in first-observation order.
    pub transactions: Vec<SysVizTransaction>,
}
mscope_serdes::json_struct!(SysVizTrace { transactions });

impl SysVizTrace {
    /// Number of transactions observed.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Number of complete transactions.
    pub fn complete_count(&self) -> usize {
        self.transactions.iter().filter(|t| t.is_complete()).count()
    }

    /// Residence intervals `(arrival, departure)` for every transaction at a
    /// tier; `departure` is `None` for in-flight transactions. The input to
    /// queue-length derivation.
    pub fn tier_intervals(&self, tier: TierId) -> Vec<(SimTime, Option<SimTime>)> {
        self.transactions
            .iter()
            .filter_map(|t| {
                let s = t.spans.get(&tier.0)?;
                Some((s.arrival?, s.departure))
            })
            .collect()
    }
}

/// The passive tap reconstructor: a fold over the wire messages in
/// capture order. [`observe`](SysVizTap::observe) folds each message into
/// its transaction as it arrives, so the tap keeps one entry per request,
/// never the message trace; [`finish`](SysVizTap::finish) hands back the
/// transactions in first-observation order.
#[derive(Debug, Clone, Default)]
pub struct SysVizTap {
    /// Keyed lookups only — output order is `transactions`' push order,
    /// never this map's iteration order (lint rule DT001).
    index: HashMap<RequestId, usize>,
    transactions: Vec<SysVizTransaction>,
}

impl SysVizTap {
    /// Rebuilds transactions from a captured message stream: the fold run
    /// over the whole capture.
    pub fn reconstruct(messages: &[MessageEvent]) -> SysVizTrace {
        let mut tap = SysVizTap::default();
        for m in messages {
            tap.observe(m);
        }
        tap.finish()
    }

    /// Folds one captured message into its transaction.
    pub fn observe(&mut self, m: &MessageEvent) {
        let txs = &mut self.transactions;
        let i = *self.index.entry(m.request).or_insert_with(|| {
            txs.push(SysVizTransaction {
                request: m.request,
                interaction: m.interaction,
                client_send: None,
                client_recv: None,
                spans: BTreeMap::new(),
            });
            txs.len() - 1
        });
        let tx = &mut txs[i];
        match m.kind {
            MsgKind::RequestDown => {
                if let Endpoint::Client = m.src {
                    tx.client_send = Some(m.send_time);
                }
                if let Endpoint::Node(n) = m.src {
                    let s = span_entry(&mut tx.spans, n);
                    s.downstream_sending = Some(m.send_time);
                }
                if let Endpoint::Node(n) = m.dst {
                    let s = span_entry(&mut tx.spans, n);
                    s.arrival = Some(m.recv_time);
                }
            }
            MsgKind::ReplyUp => {
                if let Endpoint::Node(n) = m.src {
                    let s = span_entry(&mut tx.spans, n);
                    s.departure = Some(m.send_time);
                }
                match m.dst {
                    Endpoint::Client => tx.client_recv = Some(m.recv_time),
                    Endpoint::Node(n) => {
                        let s = span_entry(&mut tx.spans, n);
                        s.downstream_receiving = Some(m.recv_time);
                    }
                }
            }
        }
    }

    /// Ends the capture: the transactions in first-observation order.
    pub fn finish(self) -> SysVizTrace {
        SysVizTrace {
            transactions: self.transactions,
        }
    }
}

fn span_entry(spans: &mut BTreeMap<usize, SysVizSpan>, node: NodeId) -> &mut SysVizSpan {
    spans.entry(node.tier.0).or_insert(SysVizSpan {
        node,
        arrival: None,
        departure: None,
        downstream_sending: None,
        downstream_receiving: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;

    fn run_small() -> mscope_ntier::RunOutput {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        Simulator::new(cfg).unwrap().run()
    }

    #[test]
    fn reconstruction_matches_ground_truth_counts() {
        let out = run_small();
        let trace = SysVizTap::reconstruct(&out.messages);
        assert_eq!(trace.len(), out.requests.len(), "one tx per request");
        let gt_complete = out.requests.iter().filter(|r| r.is_complete()).count();
        assert_eq!(trace.complete_count(), gt_complete);
    }

    #[test]
    fn spans_bracket_ground_truth_within_hop_latency() {
        let out = run_small();
        let hop = out.config.network.hop_latency;
        let trace = SysVizTap::reconstruct(&out.messages);
        let by_id: HashMap<RequestId, &SysVizTransaction> =
            trace.transactions.iter().map(|t| (t.request, t)).collect();
        let mut checked = 0;
        for r in out.requests.iter().filter(|r| r.is_complete()) {
            let tx = by_id[&r.id];
            for (ti, gt) in r.spans.iter().enumerate() {
                let sv = &tx.spans[&ti];
                // The tap sees arrival when the wire delivers (same instant
                // the server's UA fires in our model) and departure when the
                // server sends — identical timestamps, hop at most.
                let a = sv.arrival.unwrap();
                assert!(a >= gt.upstream_arrival - hop && a <= gt.upstream_arrival + hop);
                let d = sv.departure.unwrap();
                assert!(d >= gt.upstream_departure - hop && d <= gt.upstream_departure + hop);
                checked += 1;
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn tier_intervals_are_ordered_pairs() {
        let out = run_small();
        let trace = SysVizTap::reconstruct(&out.messages);
        for tier in 0..4 {
            let intervals = trace.tier_intervals(TierId(tier));
            assert!(!intervals.is_empty(), "tier {tier} saw traffic");
            for (a, d) in &intervals {
                if let Some(d) = d {
                    assert!(d >= a, "departure before arrival at tier {tier}");
                }
            }
        }
    }

    #[test]
    fn response_times_match_client_view() {
        let out = run_small();
        let trace = SysVizTap::reconstruct(&out.messages);
        let by_id: HashMap<RequestId, &SysVizTransaction> =
            trace.transactions.iter().map(|t| (t.request, t)).collect();
        for r in out.requests.iter().filter(|r| r.is_complete()).take(50) {
            let tx = by_id[&r.id];
            assert!(tx.is_complete());
            assert_eq!(tx.response_time(), r.response_time());
        }
    }

    #[test]
    fn empty_capture_gives_empty_trace() {
        let trace = SysVizTap::reconstruct(&[]);
        assert!(trace.is_empty());
        assert_eq!(trace.complete_count(), 0);
        assert!(trace.tier_intervals(TierId(0)).is_empty());
    }
}
