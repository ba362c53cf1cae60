//! The n-tier discrete-event simulation engine.
//!
//! Requests flow client → tier 0 → … → tier *depth−1* and back. A request
//! holds a worker thread at every tier it is resident in — including while
//! blocked on downstream tiers — which is exactly the mechanism that turns a
//! very short bottleneck at the bottom of the pipeline into cross-tier queue
//! "pushback" (paper §V, Figs. 6/8b).
//!
//! All four §IV-B execution-boundary timestamps are recorded for every
//! request at every tier, both into the ground-truth [`RequestRecord`]s and
//! as a flat [`LifecycleEvent`] stream that the event mScopeMonitors later
//! render into native log files. Every wire message is also recorded for the
//! SysViz-style passive tap.
//!
//! ## Sharded execution
//!
//! A [`SystemConfig`] with `partitions = P` models the system as `P`
//! independent logical cells, each serving `1/P` of the users with `1/P`
//! of every node's cores, workers, memory, and disk bandwidth. Cells never
//! exchange events, so [`Simulator::run_with`] can execute them on worker
//! threads ([`mscope_sim::parallel_map`]) and deterministically merge
//! their event logs afterwards. The shard (worker) count in [`SimOptions`]
//! is a pure execution knob: the same seed yields byte-identical output at
//! any shard count, which the CI determinism gates verify via [`RunDigest`].

use crate::config::{ArrivalProcess, InjectorSpec, QueueDiscipline, SystemConfig};
use crate::record::{
    BoundaryKind, Endpoint, LifecycleEvent, MessageEvent, MsgKind, RequestRecord, ResourceSample,
    TierSpan,
};
use crate::resources::{CpuModel, DiskModel, MemoryModel, PAGE_BYTES};
use crate::types::{
    Interaction, NodeId, RequestId, RwKind, SessionId, TierId, TierKind, INTERACTIONS,
};
use crate::workload::{Demand, Workload};
use mscope_sim::{EventQueue, Fnv64, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Bytes of a request message on the wire (headers + small body).
const REQ_MSG_BYTES: u64 = 420;
/// Bytes of a reply message on the wire (rendered fragment).
const REPLY_MSG_BYTES: u64 = 1800;
/// RNG stream reserved for the globally-synchronized burst phase clock.
/// Every cell draws the same phase sequence, so MMPP on/off episodes hit
/// all cells at the same instants regardless of the partition count.
const PHASE_STREAM: u64 = 0x1B57;
/// Bit position of the cell tag inside a partitioned [`RequestId`].
const REQ_CELL_SHIFT: u32 = 40;
/// Bit position of the cell tag inside a synthetic open-loop [`SessionId`].
const SESSION_CELL_SHIFT: u32 = 24;
/// Mask for the per-cell part of a synthetic open-loop session id.
const SESSION_LOCAL_MASK: u32 = (1 << SESSION_CELL_SHIFT) - 1;

/// Why a CPU burst was running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskKind {
    /// Request processing before the downstream call. Payload: request slot.
    Phase1(u32),
    /// Request processing after the downstream reply. Payload: request slot.
    Phase2(u32),
    /// Core seized by a non-request activity.
    Seize(SeizeKind),
}

/// What seized the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeizeKind {
    /// Forced dirty-page recycling (scenario B).
    Recycle,
    /// Stop-the-world garbage collection (extension injector).
    Gc,
    /// Synthetic CPU hog (extension injector).
    Hog,
}

/// A task waiting for a CPU core.
#[derive(Debug, Clone, Copy)]
struct CpuTask {
    kind: TaskKind,
    demand: SimDuration,
}

/// Simulation events.
///
/// Request slots, nodes, tiers and cores travel as `u32` indices and the
/// one-shot hogs as an index into the cell's injector list, which keeps an
/// event at 16 bytes and a queued one at 32: two to a cache line in the
/// future-event list, where most of a scale run's memory traffic is.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A session issues its next request.
    ClientSend(SessionId),
    /// The open-loop arrival process fires (and reschedules itself).
    OpenArrival,
    /// The bursty (MMPP on/off) arrival process toggles phase.
    PhaseSwitch,
    /// A request message reaches the node serving `tier` for request `req`.
    Ingress { req: u32, tier: u32 },
    /// A CPU burst completed on `node`. `core` is the owning core under
    /// per-core dFCFS dispatch and unused (zero) on a cFCFS node, whose
    /// cores share one queue.
    BurstDone {
        node: u32,
        kind: TaskKind,
        core: u32,
    },
    /// A downstream reply reaches the node at `tier` for request `req`.
    ReplyArrive { req: u32, tier: u32 },
    /// The response reaches the client.
    ClientReply { req: u32 },
    /// The DB commit-log flush on `node` finished.
    FlushDone { node: u32 },
    /// Periodic background writeback fires on `node`.
    WritebackStart { node: u32 },
    /// The background writeback IO on `node` completed.
    WritebackDone { node: u32 },
    /// Periodic resource sampling tick.
    Sample,
    /// Periodic GC trigger for a tier.
    Gc { tier: u32 },
    /// DVFS throttle episode starts / ends for a tier.
    DvfsStart { tier: u32 },
    /// End of a DVFS throttle episode.
    DvfsEnd { tier: u32 },
    /// The one-shot CPU or disk hog at this index of the cell's injector
    /// list fires.
    Hog { injector: u32 },
}
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// Monotonic counters snapshotted at each sampling tick.
#[derive(Debug, Clone, Copy, Default)]
struct CounterSnapshot {
    busy_core_us: u64,
    iowait_core_us: u64,
    disk_busy_us: u64,
    disk_bytes: u64,
    disk_ops: u64,
    net_rx: u64,
    net_tx: u64,
    log_bytes: u64,
}

/// Mutable per-node runtime state.
#[derive(Debug)]
struct NodeState {
    id: NodeId,
    kind: TierKind,
    tier_cfg: usize,
    cpu: CpuModel,
    disk: DiskModel,
    mem: MemoryModel,
    workers: usize,
    workers_busy: usize,
    accept_q: VecDeque<usize>,
    cpu_q: VecDeque<CpuTask>,
    cpu_q_front: VecDeque<CpuTask>,
    discipline: QueueDiscipline,
    /// Per-core dFCFS run queues (empty under cFCFS).
    core_q: Vec<VecDeque<CpuTask>>,
    core_q_front: Vec<VecDeque<CpuTask>>,
    /// Which cores currently run a dFCFS burst.
    core_busy: Vec<bool>,
    /// Round-robin arrival-steering pointer for dFCFS.
    rr_core: usize,
    /// Requests resident (UA recorded, UD not yet).
    in_node: u32,
    /// DB commit-log buffer fill, bytes.
    log_buffer: u64,
    flush_in_progress: bool,
    commit_waiters: Vec<usize>,
    /// Outstanding forced-recycle seize bursts.
    recycle_outstanding: u32,
    /// Outstanding GC seize bursts.
    gc_outstanding: u32,
    net_rx: u64,
    net_tx: u64,
    log_bytes: u64,
    prev: CounterSnapshot,
}

/// Per-request build state.
#[derive(Debug)]
struct InFlight {
    id: RequestId,
    session: SessionId,
    interaction: Interaction,
    client_send: SimTime,
    client_recv: Option<SimTime>,
    status: u16,
    depth: usize,
    /// Node (flat index) serving each visited tier.
    nodes: Vec<usize>,
    /// One span per tier the request has arrived at, in tier order.
    spans: Vec<SpanBuild>,
    /// The upstream departure of each tier the request has left, deepest
    /// first — the order its reply climbs the pipeline. Reversed, it pairs
    /// with `spans` tier by tier once the reply has reached the client.
    departures: Vec<SimTime>,
}

/// A tier span as it is opened at its upstream arrival; its upstream
/// departure is pushed to [`InFlight::departures`] when it closes.
#[derive(Debug, Clone, Copy)]
struct SpanBuild {
    ua: SimTime,
    ds: Option<SimTime>,
    dr: Option<SimTime>,
}

/// What each cell retains while it runs.
///
/// [`Digest`] mode is built for scale runs (hundreds of thousands of
/// users): every record is folded into the run's [`RunDigest`] the moment
/// it is produced and then dropped, so memory stays bounded by the number
/// of *concurrently in-flight* requests instead of the total issued.
/// Resource samples and aggregate statistics are always kept. The digests
/// are identical in both modes, which is how the benches cross-check them.
///
/// [`Digest`]: Retention::Digest
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every request record, lifecycle event, and wire message.
    #[default]
    Full,
    /// Fold records into the digest as they complete and drop them.
    Digest,
}

/// Execution knobs for [`Simulator::run_with`]. None of these change the
/// simulated result — only how it is computed.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Worker threads to spread the config's partitions over. `1` runs
    /// every cell inline on the calling thread.
    pub shards: usize,
    /// What the run retains (see [`Retention`]).
    pub retention: Retention,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            shards: 1,
            retention: Retention::Full,
        }
    }
}

/// Order-sensitive FNV-1a digests of the four output streams.
///
/// Folded per cell as records are produced, then combined in cell order,
/// so the value depends only on the configuration and seed — never on the
/// shard count. Two runs with equal digests produced byte-identical
/// streams; the CI determinism matrix compares exactly these four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunDigest {
    /// Digest of every request record (complete and pending).
    pub requests: u64,
    /// Digest of the execution-boundary event stream.
    pub lifecycle: u64,
    /// Digest of the wire-message stream.
    pub messages: u64,
    /// Digest of the raw per-node resource counters.
    pub samples: u64,
}
mscope_serdes::json_struct!(RunDigest {
    requests,
    lifecycle,
    messages,
    samples,
});

/// Aggregate statistics of the measured window, computed at finalization.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests issued over the whole run (including warm-up).
    pub issued: u64,
    /// Requests completed inside the measured window.
    pub completed: u64,
    /// Completed requests per second of measured time.
    pub throughput_rps: f64,
    /// Mean response time (ms) of measured completions.
    pub mean_rt_ms: f64,
    /// 99th percentile response time (ms).
    pub p99_rt_ms: f64,
    /// Maximum response time (ms).
    pub max_rt_ms: f64,
    /// Total log bytes written per node over the run.
    pub node_log_bytes: Vec<(NodeId, u64)>,
    /// Total disk bytes written per node over the run.
    pub node_disk_bytes: Vec<(NodeId, u64)>,
    /// Requests rejected with 503 by a full accept queue.
    pub rejected: u64,
    /// Total simulation events handled across all cells (the work unit the
    /// scale bench rates in events/second).
    pub sim_events: u64,
}
mscope_serdes::json_struct!(RunStats {
    issued,
    completed,
    throughput_rps,
    mean_rt_ms,
    p99_rt_ms,
    max_rt_ms,
    node_log_bytes,
    node_disk_bytes,
    rejected,
    sim_events,
});

/// Everything a run produces; the input to the monitoring framework.
#[derive(Debug)]
pub struct RunOutput {
    /// The configuration that produced this run.
    pub config: SystemConfig,
    /// Ground-truth request records (incomplete requests have empty spans).
    pub requests: Vec<RequestRecord>,
    /// Execution-boundary event stream, in time order.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Every wire message, in send-time order (the passive tap's view).
    pub messages: Vec<MessageEvent>,
    /// Periodic resource samples for every node.
    pub samples: Vec<ResourceSample>,
    /// When the run ended.
    pub end_time: SimTime,
    /// Aggregate statistics over the measured window.
    pub stats: RunStats,
    /// Stream digests (see [`RunDigest`]); populated in every retention
    /// mode, and the only stream evidence kept under [`Retention::Digest`].
    pub digest: RunDigest,
}

/// The simulator. Construct with a validated [`SystemConfig`], then [`run`]
/// (or [`run_with`] to pick shard count and retention).
///
/// [`run`]: Simulator::run
/// [`run_with`]: Simulator::run_with
///
/// # Examples
///
/// ```
/// use mscope_ntier::{Simulator, SystemConfig};
/// use mscope_sim::SimDuration;
///
/// let mut cfg = SystemConfig::rubbos_baseline(50);
/// cfg.duration = SimDuration::from_secs(5);
/// cfg.warmup = SimDuration::from_secs(2);
/// let out = Simulator::new(cfg).expect("valid config").run();
/// assert!(out.stats.completed > 0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SystemConfig,
}

impl Simulator {
    /// Builds a simulator from a configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation error string if the configuration is
    /// inconsistent (see [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig) -> Result<Simulator, String> {
        cfg.validate()?;
        Ok(Simulator { cfg })
    }

    /// Runs the experiment serially with full retention.
    pub fn run(self) -> RunOutput {
        self.run_with(&SimOptions::default())
    }

    /// Runs the experiment: one event loop per partition cell, spread over
    /// `opts.shards` worker threads, then a deterministic merge. The result
    /// is byte-identical at any shard count.
    pub fn run_with(self, opts: &SimOptions) -> RunOutput {
        let cfg = self.cfg;
        let cells = cfg.partitions.max(1) as usize;
        let retention = opts.retention;
        let outs = mscope_sim::parallel_map(cells, opts.shards.max(1), |i| {
            CellSim::new(&cfg, i as u32, retention).run_cell()
        });
        merge(cfg, outs)
    }
}

/// Splits an integer quantity `x` across `p` cells: cell `i` gets the
/// remainder-balanced share, and the shares always sum back to `x`.
fn split_u64(x: u64, p: u64, i: u64) -> u64 {
    x / p + u64::from(i < x % p)
}

/// First global session id owned by `cell` under a closed-loop split of
/// `users` across `p` cells (cells own contiguous id ranges).
fn session_base(users: u32, p: u32, cell: u32) -> u32 {
    cell * (users / p) + cell.min(users % p)
}

/// Derives the configuration one cell simulates: `1/p` of the users and of
/// every divisible per-node resource, with rates scaled to match. Fields
/// that are global invariants (durations, seeds, demands, network latency,
/// monitoring costs, commit sizes) pass through unchanged. With `p == 1`
/// this is the identity (modulo `partitions` itself).
fn cell_config(global: &SystemConfig, cell: u32) -> SystemConfig {
    let mut cfg = global.clone();
    let p = u64::from(global.partitions.max(1));
    cfg.partitions = 1;
    if p == 1 {
        return cfg;
    }
    let i = u64::from(cell);
    let pf = p as f64;
    for t in &mut cfg.tiers {
        t.workers = split_u64(t.workers as u64, p, i) as usize;
        t.cores = split_u64(u64::from(t.cores), p, i) as u32;
        t.disk_write_bw /= pf;
        t.memory.total_bytes = split_u64(t.memory.total_bytes, p, i);
        t.memory.dirty_high_bytes = split_u64(t.memory.dirty_high_bytes, p, i);
        t.memory.dirty_low_bytes = split_u64(t.memory.dirty_low_bytes, p, i);
        t.memory.writeback_max_bytes = split_u64(t.memory.writeback_max_bytes, p, i);
        t.memory.recycle_rate /= pf;
        if let Some(flush) = &mut t.log_flush {
            flush.buffer_threshold = split_u64(flush.buffer_threshold, p, i).max(1);
            flush.flush_rate /= pf;
        }
        if let Some(limit) = &mut t.accept_limit {
            *limit = split_u64(*limit as u64, p, i) as usize;
        }
    }
    cfg.workload.users = split_u64(u64::from(global.workload.users), p, i) as u32;
    match &mut cfg.workload.arrival {
        ArrivalProcess::ClosedLoop => {}
        ArrivalProcess::OpenLoop { rate_rps } => *rate_rps /= pf,
        ArrivalProcess::Bursty {
            base_rps,
            burst_rps,
            ..
        } => {
            *base_rps /= pf;
            *burst_rps /= pf;
        }
    }
    for inj in &mut cfg.injectors {
        match inj {
            InjectorSpec::CpuHog { cores, .. } => {
                *cores = split_u64(u64::from(*cores), p, i) as u32;
            }
            InjectorSpec::DiskHog { bytes, .. } => {
                *bytes = split_u64(*bytes, p, i);
            }
            InjectorSpec::GcPause { .. } | InjectorSpec::DvfsThrottle { .. } => {}
        }
    }
    cfg
}

/// Raw per-interval resource counters for one node at one sampling tick.
/// Cells emit these instead of [`ResourceSample`]s so the merge can sum
/// counters across cells *before* computing utilisation percentages.
#[derive(Debug, Clone, Copy)]
struct RawSample {
    time: SimTime,
    node: NodeId,
    kind: TierKind,
    busy_core_us: u64,
    iowait_core_us: u64,
    disk_busy_us: u64,
    disk_write_bytes: u64,
    disk_ops: u64,
    net_rx: u64,
    net_tx: u64,
    log_bytes: u64,
    dirty_bytes: u64,
    mem_used_bytes: u64,
    queue_len: u32,
    active_workers: u32,
}

/// Everything one cell hands back to the merge.
#[derive(Debug)]
struct CellOutput {
    requests: Vec<RequestRecord>,
    lifecycle: Vec<LifecycleEvent>,
    messages: Vec<MessageEvent>,
    raw_samples: Vec<RawSample>,
    rts_ms: Vec<f64>,
    issued: u64,
    completed: u64,
    rejected: u64,
    node_log_bytes: Vec<(NodeId, u64)>,
    node_disk_bytes: Vec<(NodeId, u64)>,
    events: u64,
    digest: RunDigest,
}

/// One partition cell's event loop — the former whole-system simulator,
/// now parameterised by the cell index it simulates.
#[derive(Debug)]
struct CellSim {
    cfg: SystemConfig,
    cell: u32,
    retention: Retention,
    queue: EventQueue<Ev>,
    workload: Workload,
    /// First-phase service demand per tier, per interaction.
    phase1_demand: Vec<Vec<Demand>>,
    /// Second-phase (post-reply) service demand per tier.
    phase2_demand: Vec<Demand>,
    phase_rng: SimRng,
    burst_on: bool,
    nodes: Vec<NodeState>,
    /// Flat-index of each tier's first node.
    tier_offsets: Vec<usize>,
    /// Round-robin dispatch pointer per tier.
    rr_next: Vec<usize>,
    inflight: Vec<InFlight>,
    /// Reusable `inflight` slots (populated only under digest retention).
    free_slots: Vec<usize>,
    /// First global session id this cell owns (closed loop).
    session_base: u32,
    /// Requests issued by this cell (also the per-cell request id counter).
    issued: u64,
    completed: u64,
    rejected: u64,
    rts_ms: Vec<f64>,
    warm_start: SimTime,
    lifecycle: Vec<LifecycleEvent>,
    messages: Vec<MessageEvent>,
    raw_samples: Vec<RawSample>,
    dig_requests: Fnv64,
    dig_lifecycle: Fnv64,
    dig_messages: Fnv64,
    dig_samples: Fnv64,
    events: u64,
    end: SimTime,
}

impl CellSim {
    /// Builds the event loop for one cell of an already-validated config.
    fn new(global: &SystemConfig, cell: u32, retention: Retention) -> CellSim {
        let cfg = cell_config(global, cell);
        let mut root_rng = SimRng::split(cfg.seed, u64::from(cell));
        let workload = Workload::new(cfg.workload.clone(), root_rng.fork(1));
        let phase_rng = SimRng::split(cfg.seed, PHASE_STREAM);
        let session_base = session_base(global.workload.users, global.partitions.max(1), cell);

        let mut nodes = Vec::new();
        let mut tier_offsets = Vec::new();
        for (ti, t) in cfg.tiers.iter().enumerate() {
            tier_offsets.push(nodes.len());
            let dfcfs = t.discipline == QueueDiscipline::Dfcfs;
            let cores = t.cores as usize;
            for replica in 0..t.replicas {
                nodes.push(NodeState {
                    id: NodeId {
                        tier: TierId(ti),
                        replica,
                    },
                    kind: t.kind,
                    tier_cfg: ti,
                    cpu: CpuModel::new(t.cores),
                    disk: DiskModel::new(t.disk_write_bw),
                    mem: MemoryModel::new(
                        t.memory.total_bytes,
                        t.memory.dirty_high_bytes,
                        t.memory.dirty_low_bytes,
                    ),
                    workers: t.workers,
                    workers_busy: 0,
                    accept_q: VecDeque::new(),
                    cpu_q: VecDeque::new(),
                    cpu_q_front: VecDeque::new(),
                    discipline: t.discipline,
                    core_q: vec![VecDeque::new(); if dfcfs { cores } else { 0 }],
                    core_q_front: vec![VecDeque::new(); if dfcfs { cores } else { 0 }],
                    core_busy: vec![false; if dfcfs { cores } else { 0 }],
                    rr_core: 0,
                    in_node: 0,
                    log_buffer: 0,
                    flush_in_progress: false,
                    commit_waiters: Vec::new(),
                    recycle_outstanding: 0,
                    gc_outstanding: 0,
                    net_rx: 0,
                    net_tx: 0,
                    log_bytes: 0,
                    prev: CounterSnapshot::default(),
                });
            }
        }
        assert!(
            nodes.len() <= u32::MAX as usize,
            "events index nodes with 32 bits"
        );
        let phase1_demand = cfg
            .tiers
            .iter()
            .map(|t| {
                INTERACTIONS
                    .iter()
                    .map(|spec| {
                        let mut mean = t.base_demand.mul_f64(spec.demand_factor);
                        if spec.rw == RwKind::Write {
                            mean += t.write_demand_extra;
                        }
                        Demand::new(mean, t.demand_cv)
                    })
                    .collect()
            })
            .collect();
        let phase2_demand = cfg
            .tiers
            .iter()
            .map(|t| Demand::new(t.phase2_demand, t.demand_cv))
            .collect();
        let rr_next = vec![0; cfg.tiers.len()];
        let end = cfg.end_time();
        let warm_start = SimTime::ZERO + cfg.warmup;
        CellSim {
            cfg,
            cell,
            retention,
            queue: EventQueue::new(),
            workload,
            phase1_demand,
            phase2_demand,
            phase_rng,
            burst_on: false,
            nodes,
            tier_offsets,
            rr_next,
            inflight: Vec::new(),
            free_slots: Vec::new(),
            session_base,
            issued: 0,
            completed: 0,
            rejected: 0,
            rts_ms: Vec::new(),
            warm_start,
            lifecycle: Vec::new(),
            messages: Vec::new(),
            raw_samples: Vec::new(),
            dig_requests: Fnv64::new(),
            dig_lifecycle: Fnv64::new(),
            dig_messages: Fnv64::new(),
            dig_samples: Fnv64::new(),
            events: 0,
            end,
        }
    }

    /// Runs the cell's event loop to completion.
    fn run_cell(mut self) -> CellOutput {
        // Seed the event queue.
        match self.cfg.workload.arrival {
            ArrivalProcess::ClosedLoop => {
                let base = self.session_base;
                for (at, session) in self.workload.initial_arrivals() {
                    // Workload numbers the cell's users 0..users_local;
                    // offset into this cell's global session id range.
                    self.queue
                        .schedule(at, Ev::ClientSend(SessionId(base + session.0)));
                }
            }
            ArrivalProcess::OpenLoop { rate_rps } => {
                let gap = self.workload.interarrival(rate_rps);
                self.queue.schedule(SimTime::ZERO + gap, Ev::OpenArrival);
            }
            ArrivalProcess::Bursty { base_rps, .. } => {
                let gap = self.workload.interarrival(base_rps);
                self.queue.schedule(SimTime::ZERO + gap, Ev::OpenArrival);
                let off = self.phase_len(false);
                self.queue.schedule(SimTime::ZERO + off, Ev::PhaseSwitch);
            }
        }
        for ni in 0..self.nodes.len() {
            let period = self.tier_cfg(ni).memory.writeback_period;
            self.queue.schedule(
                SimTime::ZERO + period,
                Ev::WritebackStart { node: ni as u32 },
            );
        }
        self.queue
            .schedule(SimTime::ZERO + self.cfg.sample_period, Ev::Sample);
        for (i, inj) in self.cfg.injectors.iter().enumerate() {
            let (at, ev) = match *inj {
                InjectorSpec::GcPause { tier, period, .. } => {
                    (SimTime::ZERO + period, Ev::Gc { tier: tier as u32 })
                }
                InjectorSpec::DvfsThrottle { tier, period, .. } => {
                    (SimTime::ZERO + period, Ev::DvfsStart { tier: tier as u32 })
                }
                InjectorSpec::CpuHog { at, .. } | InjectorSpec::DiskHog { at, .. } => {
                    (at, Ev::Hog { injector: i as u32 })
                }
            };
            self.queue.schedule(at, ev);
        }

        // Main loop.
        while let Some((now, ev)) = self.queue.pop_until(self.end) {
            self.events += 1;
            self.handle(now, ev);
        }
        self.finalize()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ClientSend(session) => self.client_send(now, session),
            Ev::OpenArrival => self.open_arrival(now),
            Ev::PhaseSwitch => self.phase_switch(now),
            Ev::Ingress { req, tier } => self.ingress(now, req as usize, tier as usize),
            Ev::BurstDone { node, kind, core } => {
                self.burst_done(now, node as usize, kind, core as usize);
            }
            Ev::ReplyArrive { req, tier } => self.reply_arrive(now, req as usize, tier as usize),
            Ev::ClientReply { req } => self.client_reply(now, req as usize),
            Ev::FlushDone { node } => self.flush_done(now, node as usize),
            Ev::WritebackStart { node } => self.writeback_start(now, node as usize),
            Ev::WritebackDone { node } => self.nodes[node as usize].cpu.unblock_io(now),
            Ev::Sample => self.sample(now),
            Ev::Gc { tier } => self.gc_tick(now, tier as usize),
            Ev::DvfsStart { tier } => self.dvfs_start(now, tier as usize),
            Ev::DvfsEnd { tier } => self.dvfs_end(now, tier as usize),
            Ev::Hog { injector } => match self.cfg.injectors[injector as usize] {
                InjectorSpec::CpuHog {
                    tier,
                    cores,
                    duration,
                    ..
                } => self.cpu_hog(now, tier, cores, duration),
                InjectorSpec::DiskHog { tier, bytes, .. } => self.disk_hog(now, tier, bytes),
                InjectorSpec::GcPause { .. } | InjectorSpec::DvfsThrottle { .. } => {}
            },
        }
    }

    fn tier_cfg(&self, ni: usize) -> &crate::config::TierConfig {
        &self.cfg.tiers[self.nodes[ni].tier_cfg]
    }

    /// Picks the node serving `tier` for the next dispatch (round-robin).
    fn pick_node(&mut self, tier: usize) -> usize {
        let replicas = self.cfg.tiers[tier].replicas;
        let offset = self.tier_offsets[tier];
        let pick = self.rr_next[tier] % replicas;
        self.rr_next[tier] = (self.rr_next[tier] + 1) % replicas;
        offset + pick
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    /// Mean length of the current MMPP phase, or a safe default if the
    /// arrival process is not bursty (the event then simply re-arms).
    fn phase_len(&mut self, on: bool) -> SimDuration {
        let ArrivalProcess::Bursty {
            mean_on, mean_off, ..
        } = self.cfg.workload.arrival
        else {
            return SimDuration::from_secs(1);
        };
        let mean = if on { mean_on } else { mean_off };
        SimDuration::from_secs_f64(self.phase_rng.exponential(mean.as_secs_f64()))
    }

    /// Toggles the bursty on/off phase. The phase clock runs on its own
    /// RNG stream shared by every cell, so all cells switch together.
    fn phase_switch(&mut self, now: SimTime) {
        self.burst_on = !self.burst_on;
        let len = self.phase_len(self.burst_on);
        self.queue.schedule(now + len, Ev::PhaseSwitch);
    }

    fn open_arrival(&mut self, now: SimTime) {
        let rate = match self.cfg.workload.arrival {
            ArrivalProcess::ClosedLoop => return,
            ArrivalProcess::OpenLoop { rate_rps } => rate_rps,
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                ..
            } => {
                if self.burst_on {
                    burst_rps
                } else {
                    base_rps
                }
            }
        };
        let gap = self.workload.interarrival(rate);
        self.queue.schedule(now + gap, Ev::OpenArrival);
        // Synthetic session id: open-loop arrivals are independent. Tag
        // with the cell so ids stay unique across the whole run.
        let session = SessionId(
            (self.cell << SESSION_CELL_SHIFT) | (self.issued as u32 & SESSION_LOCAL_MASK),
        );
        self.client_send(now, session);
    }

    fn client_send(&mut self, now: SimTime, session: SessionId) {
        if now >= self.end {
            return;
        }
        let interaction = self.workload.next_interaction();
        let depth = interaction.spec().depth.min(self.cfg.tiers.len());
        let front = self.pick_node(0);
        let id = RequestId((u64::from(self.cell) << REQ_CELL_SHIFT) | self.issued);
        self.issued += 1;
        // A recycled slot (digest retention) hands its three vectors on to
        // the next request, so a steady-state request allocates nothing.
        let slot = self.free_slots.pop();
        let (mut nodes, mut spans, mut departures) = match slot {
            Some(slot) => {
                let old = &mut self.inflight[slot];
                (
                    std::mem::take(&mut old.nodes),
                    std::mem::take(&mut old.spans),
                    std::mem::take(&mut old.departures),
                )
            }
            None => (
                Vec::with_capacity(depth),
                Vec::with_capacity(depth),
                Vec::with_capacity(depth),
            ),
        };
        nodes.clear();
        nodes.push(front);
        spans.clear();
        departures.clear();
        let record = InFlight {
            id,
            session,
            interaction,
            client_send: now,
            client_recv: None,
            status: 200,
            depth,
            nodes,
            spans,
            departures,
        };
        let req = match slot {
            Some(slot) => {
                self.inflight[slot] = record;
                slot
            }
            None => {
                assert!(
                    self.inflight.len() < u32::MAX as usize,
                    "events index request slots with 32 bits"
                );
                self.inflight.push(record);
                self.inflight.len() - 1
            }
        };
        let hop = self.cfg.network.hop_latency;
        self.push_message(MessageEvent {
            send_time: now,
            recv_time: now + hop,
            src: Endpoint::Client,
            dst: Endpoint::Node(self.nodes[front].id),
            request: id,
            interaction,
            kind: MsgKind::RequestDown,
        });
        self.queue.schedule(
            now + hop,
            Ev::Ingress {
                req: req as u32,
                tier: 0,
            },
        );
    }

    fn client_reply(&mut self, now: SimTime, req: usize) {
        let r = &mut self.inflight[req];
        r.client_recv = Some(now);
        let session = r.session;
        if matches!(self.cfg.workload.arrival, ArrivalProcess::ClosedLoop) {
            let think = self.workload.think_time();
            self.queue.schedule(now + think, Ev::ClientSend(session));
        }
        self.finish_request(req);
    }

    /// Final accounting for a request whose reply reached the client (the
    /// terminal event of every request chain, 503 rejects included). Folds
    /// the finished record into the digest; under digest retention the
    /// slot is recycled immediately.
    fn finish_request(&mut self, req: usize) {
        {
            let f = &self.inflight[req];
            if f.status == 503 {
                self.rejected += 1;
            }
            if f.client_send >= self.warm_start {
                if let Some(recv) = f.client_recv {
                    self.completed += 1;
                    self.rts_ms.push((recv - f.client_send).as_millis_f64());
                }
            }
        }
        fold_request(&mut self.dig_requests, &self.inflight[req], &self.nodes);
        if self.retention == Retention::Digest {
            self.free_slots.push(req);
        }
    }

    /// Materialises the [`RequestRecord`] for an `inflight` slot.
    fn build_record(&self, req: usize) -> RequestRecord {
        let f = &self.inflight[req];
        RequestRecord {
            id: f.id,
            session: f.session,
            interaction: f.interaction,
            client_send: f.client_send,
            client_recv: f.client_recv,
            status: f.status,
            spans: tier_spans(f, &self.nodes).collect(),
        }
    }

    /// Records a lifecycle event: always folded, retained only in full mode.
    fn push_lifecycle(&mut self, ev: LifecycleEvent) {
        fold_lifecycle(&mut self.dig_lifecycle, &ev);
        if self.retention == Retention::Full {
            self.lifecycle.push(ev);
        }
    }

    /// Records a wire message: always folded, retained only in full mode.
    fn push_message(&mut self, ev: MessageEvent) {
        fold_message(&mut self.dig_messages, &ev);
        if self.retention == Retention::Full {
            self.messages.push(ev);
        }
    }

    // ------------------------------------------------------------------
    // Node request path
    // ------------------------------------------------------------------

    fn boundary(&mut self, now: SimTime, ni: usize, req: usize, kind: BoundaryKind) {
        self.push_lifecycle(LifecycleEvent {
            time: now,
            node: self.nodes[ni].id,
            kind: self.nodes[ni].kind,
            request: self.inflight[req].id,
            interaction: self.inflight[req].interaction,
            boundary: kind,
            status: self.inflight[req].status,
        });
    }

    fn ingress(&mut self, now: SimTime, req: usize, tier: usize) {
        let ni = self.inflight[req].nodes[tier];
        // Listen-backlog overflow: reject with 503 before admission.
        let limit = self.cfg.tiers[tier].accept_limit;
        {
            let node = &self.nodes[ni];
            if let Some(limit) = limit {
                if node.workers_busy >= node.workers && node.accept_q.len() >= limit {
                    self.reject(now, ni, req, tier);
                    return;
                }
            }
        }
        self.open_span(now, req, tier);
        self.boundary(now, ni, req, BoundaryKind::UpstreamArrival);
        let node = &mut self.nodes[ni];
        node.in_node += 1;
        node.net_rx += REQ_MSG_BYTES;
        if node.workers_busy < node.workers {
            self.admit(now, ni, req);
        } else {
            self.nodes[ni].accept_q.push_back(req);
        }
    }

    /// Rejects a request at a full accept queue: the server writes a 503
    /// log line (real servers log rejected requests too) and the error
    /// travels back up the normal reply path.
    fn reject(&mut self, now: SimTime, ni: usize, req: usize, tier: usize) {
        self.inflight[req].status = 503;
        self.open_span(now, req, tier);
        self.close_span(now, req, tier);
        self.boundary(now, ni, req, BoundaryKind::UpstreamArrival);
        self.boundary(now, ni, req, BoundaryKind::UpstreamDeparture);
        let tcfg = &self.cfg.tiers[tier];
        let mut bytes = tcfg.base_log_bytes;
        if self.cfg.monitoring.event_monitors {
            bytes += self.cfg.monitoring.per_record_bytes;
        }
        let node = &mut self.nodes[ni];
        node.log_bytes += bytes;
        node.net_rx += REQ_MSG_BYTES;
        node.net_tx += REPLY_MSG_BYTES;
        if node.mem.write(bytes) {
            self.start_recycle(now, ni);
        }
        self.reply_up(now, ni, req, tier);
    }

    /// Sends the reply of `req` from its node at `tier` one hop up: to the
    /// node that called it, or to the client from the front tier.
    fn reply_up(&mut self, now: SimTime, ni: usize, req: usize, tier: usize) {
        let hop = self.cfg.network.hop_latency;
        let req_ix = req as u32;
        let (dst, event): (Endpoint, Ev) = if tier == 0 {
            (Endpoint::Client, Ev::ClientReply { req: req_ix })
        } else {
            let up_node = self.inflight[req].nodes[tier - 1];
            (
                Endpoint::Node(self.nodes[up_node].id),
                Ev::ReplyArrive {
                    req: req_ix,
                    tier: (tier - 1) as u32,
                },
            )
        };
        self.push_message(MessageEvent {
            send_time: now,
            recv_time: now + hop,
            src: Endpoint::Node(self.nodes[ni].id),
            dst,
            request: self.inflight[req].id,
            interaction: self.inflight[req].interaction,
            kind: MsgKind::ReplyUp,
        });
        self.queue.schedule(now + hop, event);
    }

    fn admit(&mut self, now: SimTime, ni: usize, req: usize) {
        self.nodes[ni].workers_busy += 1;
        let tier = self.nodes[ni].tier_cfg;
        let interaction = self.inflight[req].interaction;
        let mut demand = self
            .workload
            .draw(&self.phase1_demand[tier][interaction.idx]);
        demand += self.monitor_cpu(self.cfg.tiers[tier].kind);
        self.enqueue_cpu(now, ni, TaskKind::Phase1(req as u32), demand, false);
    }

    /// Event-monitor CPU cost per request record at a node of this kind.
    fn monitor_cpu(&self, kind: TierKind) -> SimDuration {
        if !self.cfg.monitoring.event_monitors {
            return SimDuration::ZERO;
        }
        let base = self.cfg.monitoring.per_record_cpu;
        if kind == TierKind::Tomcat {
            base.mul_f64(self.cfg.monitoring.tomcat_cpu_multiplier)
        } else {
            base
        }
    }

    fn enqueue_cpu(
        &mut self,
        now: SimTime,
        ni: usize,
        kind: TaskKind,
        demand: SimDuration,
        front: bool,
    ) {
        let node = &mut self.nodes[ni];
        match node.discipline {
            QueueDiscipline::Cfcfs => {
                // Centralised FCFS: any free core takes the burst, one
                // shared queue per node when all cores are busy.
                if let Some(done) = node.cpu.try_start(now, demand) {
                    self.queue.schedule(
                        done,
                        Ev::BurstDone {
                            node: ni as u32,
                            kind,
                            core: 0,
                        },
                    );
                } else if front {
                    node.cpu_q_front.push_back(CpuTask { kind, demand });
                } else {
                    node.cpu_q.push_back(CpuTask { kind, demand });
                }
            }
            QueueDiscipline::Dfcfs => {
                // Decentralised FCFS: arrivals are steered round-robin to
                // a specific core and wait in that core's queue even if a
                // sibling core is idle (the no-work-stealing model).
                let cores = node.core_busy.len().max(1);
                let c = node.rr_core % cores;
                node.rr_core = (node.rr_core + 1) % cores;
                if !node.core_busy[c] {
                    if let Some(done) = node.cpu.try_start(now, demand) {
                        node.core_busy[c] = true;
                        self.queue.schedule(
                            done,
                            Ev::BurstDone {
                                node: ni as u32,
                                kind,
                                core: c as u32,
                            },
                        );
                        return;
                    }
                }
                if front {
                    node.core_q_front[c].push_back(CpuTask { kind, demand });
                } else {
                    node.core_q[c].push_back(CpuTask { kind, demand });
                }
            }
        }
    }

    fn burst_done(&mut self, now: SimTime, ni: usize, kind: TaskKind, c: usize) {
        match self.nodes[ni].discipline {
            QueueDiscipline::Cfcfs => {
                // cFCFS: hand the freed core to the next queued task
                // (priority first) from the shared queues.
                let node = &mut self.nodes[ni];
                let next = node
                    .cpu_q_front
                    .pop_front()
                    .or_else(|| node.cpu_q.pop_front());
                match next {
                    Some(task) => {
                        let done = node.cpu.hand_over(now, task.demand);
                        self.queue.schedule(
                            done,
                            Ev::BurstDone {
                                node: ni as u32,
                                kind: task.kind,
                                core: 0,
                            },
                        );
                    }
                    None => node.cpu.finish(now),
                }
            }
            QueueDiscipline::Dfcfs => {
                // dFCFS: only this core's own queue may refill it.
                let node = &mut self.nodes[ni];
                node.cpu.finish(now);
                node.core_busy[c] = false;
                let next = node.core_q_front[c]
                    .pop_front()
                    .or_else(|| node.core_q[c].pop_front());
                if let Some(task) = next {
                    if let Some(done) = node.cpu.try_start(now, task.demand) {
                        node.core_busy[c] = true;
                        self.queue.schedule(
                            done,
                            Ev::BurstDone {
                                node: ni as u32,
                                kind: task.kind,
                                core: c as u32,
                            },
                        );
                    } else {
                        // Model accounting refused the start; requeue at
                        // the head so ordering is preserved.
                        node.core_q_front[c].push_front(task);
                    }
                }
            }
        }
        match kind {
            TaskKind::Phase1(req) => self.phase1_done(now, ni, req as usize),
            TaskKind::Phase2(req) => self.complete_tier(now, ni, req as usize),
            TaskKind::Seize(SeizeKind::Recycle) => {
                let node = &mut self.nodes[ni];
                node.recycle_outstanding -= 1;
                if node.recycle_outstanding == 0 {
                    node.mem.end_recycle();
                }
            }
            TaskKind::Seize(SeizeKind::Gc) => {
                self.nodes[ni].gc_outstanding -= 1;
            }
            TaskKind::Seize(SeizeKind::Hog) => {}
        }
    }

    fn phase1_done(&mut self, now: SimTime, ni: usize, req: usize) {
        let tier = self.nodes[ni].tier_cfg;
        let depth = self.inflight[req].depth;
        if tier + 1 < depth {
            // Forward downstream; the worker stays held.
            let next_node = self.pick_node(tier + 1);
            let r = &mut self.inflight[req];
            r.nodes.push(next_node);
            r.spans[tier].ds = Some(now);
            self.boundary(now, ni, req, BoundaryKind::DownstreamSending);
            let hop = self.cfg.network.hop_latency;
            self.nodes[ni].net_tx += REQ_MSG_BYTES;
            self.push_message(MessageEvent {
                send_time: now,
                recv_time: now + hop,
                src: Endpoint::Node(self.nodes[ni].id),
                dst: Endpoint::Node(self.nodes[next_node].id),
                request: self.inflight[req].id,
                interaction: self.inflight[req].interaction,
                kind: MsgKind::RequestDown,
            });
            self.queue.schedule(
                now + hop,
                Ev::Ingress {
                    req: req as u32,
                    tier: (tier + 1) as u32,
                },
            );
        } else {
            // Deepest tier for this request: commit (DB tiers) then reply.
            if self.try_commit(now, ni, req) {
                self.complete_tier(now, ni, req);
            }
        }
    }

    /// Handles the commit-log append for write interactions at the deepest
    /// tier. Returns `true` if the request can complete now, `false` if it
    /// joined the flush wait group (it will complete from [`flush_done`]).
    ///
    /// [`flush_done`]: CellSim::flush_done
    fn try_commit(&mut self, now: SimTime, ni: usize, req: usize) -> bool {
        let tier = self.nodes[ni].tier_cfg;
        let tcfg = &self.cfg.tiers[tier];
        let Some(flush) = tcfg.log_flush else {
            return true;
        };
        let is_write =
            self.inflight[req].interaction.rw() == RwKind::Write && tcfg.commit_bytes > 0;
        if is_write {
            self.nodes[ni].log_buffer += tcfg.commit_bytes;
        }
        let node = &mut self.nodes[ni];
        if node.flush_in_progress {
            // Writes stall on group commit; reads stall when checkpoint IO
            // starves the buffer pool (the full §V-A effect).
            let stalls = if is_write {
                flush.stall_writes
            } else {
                flush.stall_reads
            };
            if stalls {
                node.commit_waiters.push(req);
                node.cpu.block_on_io(now);
                return false;
            }
            return true;
        }
        if is_write && node.log_buffer >= flush.buffer_threshold {
            let bytes = node.log_buffer;
            node.log_buffer = 0;
            node.flush_in_progress = true;
            let done = node.disk.submit_write_at_rate(now, bytes, flush.flush_rate);
            self.queue.schedule(done, Ev::FlushDone { node: ni as u32 });
            if flush.stall_writes {
                let node = &mut self.nodes[ni];
                node.commit_waiters.push(req);
                node.cpu.block_on_io(now);
                return false;
            }
        }
        true
    }

    fn flush_done(&mut self, now: SimTime, ni: usize) {
        self.nodes[ni].flush_in_progress = false;
        let waiters = std::mem::take(&mut self.nodes[ni].commit_waiters);
        for req in waiters {
            self.nodes[ni].cpu.unblock_io(now);
            self.complete_tier(now, ni, req);
        }
        // Commits that arrived mid-flush may already refill the buffer.
        let tier = self.nodes[ni].tier_cfg;
        if let Some(flush) = self.cfg.tiers[tier].log_flush {
            let node = &mut self.nodes[ni];
            if node.log_buffer >= flush.buffer_threshold {
                let bytes = node.log_buffer;
                node.log_buffer = 0;
                node.flush_in_progress = true;
                let done = node.disk.submit_write_at_rate(now, bytes, flush.flush_rate);
                self.queue.schedule(done, Ev::FlushDone { node: ni as u32 });
            }
        }
    }

    /// Opens the request's span at `tier` on its upstream arrival. Tiers
    /// are entered in order, so the span lands at index `tier`.
    fn open_span(&mut self, now: SimTime, req: usize, tier: usize) {
        let spans = &mut self.inflight[req].spans;
        debug_assert_eq!(spans.len(), tier, "tiers are entered in order");
        spans.push(SpanBuild {
            ua: now,
            ds: None,
            dr: None,
        });
    }

    /// Closes the request's span at `tier` on its upstream departure. The
    /// reply climbs the pipeline, so every deeper tier has closed first.
    fn close_span(&mut self, now: SimTime, req: usize, tier: usize) {
        let f = &mut self.inflight[req];
        debug_assert_eq!(
            f.departures.len() + tier + 1,
            f.spans.len(),
            "deepest tier closes first"
        );
        f.departures.push(now);
    }

    /// Completes a request's residence at a tier: records UD, writes the log
    /// record, frees the worker, admits the next queued request, and sends
    /// the reply upstream.
    fn complete_tier(&mut self, now: SimTime, ni: usize, req: usize) {
        let tier = self.nodes[ni].tier_cfg;
        self.close_span(now, req, tier);
        self.boundary(now, ni, req, BoundaryKind::UpstreamDeparture);

        // Native log write (+ monitor record when instrumented).
        let tcfg = &self.cfg.tiers[tier];
        let mut bytes = tcfg.base_log_bytes;
        if self.cfg.monitoring.event_monitors {
            bytes += self.cfg.monitoring.per_record_bytes;
        }
        let node = &mut self.nodes[ni];
        node.log_bytes += bytes;
        if node.mem.write(bytes) {
            self.start_recycle(now, ni);
        }

        let node = &mut self.nodes[ni];
        node.in_node -= 1;
        node.workers_busy -= 1;
        node.net_tx += REPLY_MSG_BYTES;
        if let Some(next_req) = node.accept_q.pop_front() {
            self.admit(now, ni, next_req);
        }
        self.reply_up(now, ni, req, tier);
    }

    fn reply_arrive(&mut self, now: SimTime, req: usize, tier: usize) {
        let ni = self.inflight[req].nodes[tier];
        self.inflight[req].spans[tier].dr = Some(now);
        self.boundary(now, ni, req, BoundaryKind::DownstreamReceiving);
        self.nodes[ni].net_rx += REPLY_MSG_BYTES;
        let demand = self.workload.draw(&self.phase2_demand[tier]);
        self.enqueue_cpu(now, ni, TaskKind::Phase2(req as u32), demand, false);
    }

    // ------------------------------------------------------------------
    // Memory / writeback / injectors
    // ------------------------------------------------------------------

    fn start_recycle(&mut self, now: SimTime, ni: usize) {
        let mem_cfg = self.tier_cfg(ni).memory;
        let node = &mut self.nodes[ni];
        let drained = node.mem.begin_recycle();
        if drained == 0 {
            node.mem.end_recycle();
            return;
        }
        let dur = SimDuration::from_secs_f64(drained as f64 / mem_cfg.recycle_rate);
        let cores = mem_cfg.recycle_cores.min(node.cpu.cores()).max(1);
        node.recycle_outstanding = cores;
        node.disk.submit_write(now, drained);
        for _ in 0..cores {
            self.enqueue_cpu(now, ni, TaskKind::Seize(SeizeKind::Recycle), dur, true);
        }
    }

    fn writeback_start(&mut self, now: SimTime, ni: usize) {
        let mem_cfg = self.tier_cfg(ni).memory;
        let node = &mut self.nodes[ni];
        let drained = node.mem.background_writeback(mem_cfg.writeback_max_bytes);
        if drained > 0 {
            let done = node.disk.submit_write(now, drained);
            node.cpu.block_on_io(now);
            self.queue
                .schedule(done, Ev::WritebackDone { node: ni as u32 });
        }
        self.queue.schedule(
            now + mem_cfg.writeback_period,
            Ev::WritebackStart { node: ni as u32 },
        );
    }

    fn gc_tick(&mut self, now: SimTime, tier: usize) {
        let Some(&InjectorSpec::GcPause { period, pause, .. }) = self
            .cfg
            .injectors
            .iter()
            .find(|i| matches!(i, InjectorSpec::GcPause { tier: t, .. } if *t == tier))
        else {
            return;
        };
        let (start, count) = (self.tier_offsets[tier], self.cfg.tiers[tier].replicas);
        for ni in start..start + count {
            let cores = self.nodes[ni].cpu.cores();
            self.nodes[ni].gc_outstanding += cores;
            for _ in 0..cores {
                self.enqueue_cpu(now, ni, TaskKind::Seize(SeizeKind::Gc), pause, true);
            }
        }
        self.queue
            .schedule(now + period, Ev::Gc { tier: tier as u32 });
    }

    fn dvfs_start(&mut self, now: SimTime, tier: usize) {
        let Some(&InjectorSpec::DvfsThrottle {
            period,
            slow_factor,
            duration,
            ..
        }) = self
            .cfg
            .injectors
            .iter()
            .find(|i| matches!(i, InjectorSpec::DvfsThrottle { tier: t, .. } if *t == tier))
        else {
            return;
        };
        let (start, count) = (self.tier_offsets[tier], self.cfg.tiers[tier].replicas);
        for ni in start..start + count {
            self.nodes[ni].cpu.set_speed(now, slow_factor);
        }
        let tier_ix = tier as u32;
        self.queue
            .schedule(now + duration, Ev::DvfsEnd { tier: tier_ix });
        self.queue
            .schedule(now + period, Ev::DvfsStart { tier: tier_ix });
    }

    fn dvfs_end(&mut self, now: SimTime, tier: usize) {
        let (start, count) = (self.tier_offsets[tier], self.cfg.tiers[tier].replicas);
        for ni in start..start + count {
            self.nodes[ni].cpu.set_speed(now, 1.0);
        }
    }

    fn cpu_hog(&mut self, now: SimTime, tier: usize, cores: u32, duration: SimDuration) {
        let (start, count) = (self.tier_offsets[tier], self.cfg.tiers[tier].replicas);
        for ni in start..start + count {
            let n = cores.min(self.nodes[ni].cpu.cores());
            for _ in 0..n {
                self.enqueue_cpu(now, ni, TaskKind::Seize(SeizeKind::Hog), duration, true);
            }
        }
    }

    fn disk_hog(&mut self, now: SimTime, tier: usize, bytes: u64) {
        let (start, count) = (self.tier_offsets[tier], self.cfg.tiers[tier].replicas);
        for ni in start..start + count {
            self.nodes[ni].disk.submit_write(now, bytes);
        }
    }

    // ------------------------------------------------------------------
    // Sampling & finalization
    // ------------------------------------------------------------------

    /// Snapshots every node's monotonic counters and emits the interval
    /// deltas as a [`RawSample`] per node. Utilisation percentages are NOT
    /// computed here: the merge first sums the counters of the node's
    /// cells, so the percentages are of the whole (un-partitioned) node.
    fn sample(&mut self, now: SimTime) {
        for ni in 0..self.nodes.len() {
            let node = &mut self.nodes[ni];
            node.cpu.accumulate(now);
            node.disk.accumulate(now);
            let snap = CounterSnapshot {
                busy_core_us: node.cpu.busy_core_us(),
                iowait_core_us: node.cpu.iowait_core_us(),
                disk_busy_us: node.disk.busy_us(),
                disk_bytes: node.disk.bytes_written(),
                disk_ops: node.disk.ops(),
                net_rx: node.net_rx,
                net_tx: node.net_tx,
                log_bytes: node.log_bytes,
            };
            let raw = RawSample {
                time: now,
                node: node.id,
                kind: node.kind,
                busy_core_us: snap.busy_core_us.saturating_sub(node.prev.busy_core_us),
                iowait_core_us: snap.iowait_core_us.saturating_sub(node.prev.iowait_core_us),
                disk_busy_us: snap.disk_busy_us.saturating_sub(node.prev.disk_busy_us),
                disk_write_bytes: snap.disk_bytes - node.prev.disk_bytes,
                disk_ops: snap.disk_ops - node.prev.disk_ops,
                net_rx: snap.net_rx - node.prev.net_rx,
                net_tx: snap.net_tx - node.prev.net_tx,
                log_bytes: snap.log_bytes - node.prev.log_bytes,
                dirty_bytes: node.mem.dirty_bytes(),
                mem_used_bytes: node.mem.used_bytes(),
                queue_len: node.in_node,
                active_workers: node.workers_busy as u32,
            };
            node.prev = snap;
            fold_raw_sample(&mut self.dig_samples, &raw);
            self.raw_samples.push(raw);
        }
        let next = now + self.cfg.sample_period;
        if next <= self.end {
            self.queue.schedule(next, Ev::Sample);
        }
    }

    fn finalize(mut self) -> CellOutput {
        // Requests still pending at the end never reached finish_request;
        // fold them now in id order (== slot order under full retention)
        // so full and digest retention produce identical digests.
        let mut pending: Vec<usize> = (0..self.inflight.len())
            .filter(|&i| self.inflight[i].client_recv.is_none())
            .collect();
        pending.sort_by_key(|&i| self.inflight[i].id.0);
        for slot in pending {
            if self.inflight[slot].status == 503 {
                self.rejected += 1;
            }
            fold_request(&mut self.dig_requests, &self.inflight[slot], &self.nodes);
        }
        let requests = if self.retention == Retention::Full {
            (0..self.inflight.len())
                .map(|i| self.build_record(i))
                .collect()
        } else {
            Vec::new()
        };
        CellOutput {
            requests,
            lifecycle: self.lifecycle,
            messages: self.messages,
            raw_samples: self.raw_samples,
            rts_ms: self.rts_ms,
            issued: self.issued,
            completed: self.completed,
            rejected: self.rejected,
            node_log_bytes: self.nodes.iter().map(|n| (n.id, n.log_bytes)).collect(),
            node_disk_bytes: self
                .nodes
                .iter()
                .map(|n| (n.id, n.disk.bytes_written()))
                .collect(),
            events: self.events,
            digest: RunDigest {
                requests: self.dig_requests.value(),
                lifecycle: self.dig_lifecycle.value(),
                messages: self.dig_messages.value(),
                samples: self.dig_samples.value(),
            },
        }
    }
}

// ----------------------------------------------------------------------
// Stream digests
// ----------------------------------------------------------------------

fn fold_node(d: &mut Fnv64, n: NodeId) {
    d.fold_u64(((n.tier.0 as u64) << 32) | n.replica as u64);
}

fn fold_endpoint(d: &mut Fnv64, e: Endpoint) {
    match e {
        Endpoint::Client => d.fold_u64(0),
        Endpoint::Node(n) => {
            d.fold_u64(1);
            fold_node(d, n);
        }
    }
}

/// The [`TierSpan`]s of a request slot, served by `nodes`, in tier order:
/// one per tier visited once the reply reached the client — every visited
/// tier has departed by then, so each span pairs with its departure — and
/// none before that (a pending request's record has empty spans).
fn tier_spans<'a>(
    f: &'a InFlight,
    nodes: &'a [NodeState],
) -> impl ExactSizeIterator<Item = TierSpan> + 'a {
    let departed: &[SimTime] = if f.client_recv.is_some() {
        &f.departures
    } else {
        &[]
    };
    f.spans
        .iter()
        .zip(departed.iter().rev())
        .zip(&f.nodes)
        .map(|((s, &ud), &ni)| TierSpan {
            node: nodes[ni].id,
            upstream_arrival: s.ua,
            upstream_departure: ud,
            downstream_sending: s.ds,
            downstream_receiving: s.dr,
        })
}

/// Folds the [`RequestRecord`] of a slot, field by field in the record's
/// order, straight from the slot: a scale run under digest retention
/// hashes every request and keeps none, so it should not build one.
fn fold_request(d: &mut Fnv64, f: &InFlight, nodes: &[NodeState]) {
    d.fold_u64(f.id.0);
    d.fold_u64(u64::from(f.session.0));
    d.fold_u64(f.interaction.idx as u64);
    d.fold_u64(f.client_send.as_micros());
    d.fold_opt(f.client_recv.map(|t| t.as_micros()));
    d.fold_u64(u64::from(f.status));
    let spans = tier_spans(f, nodes);
    d.fold_u64(spans.len() as u64);
    for s in spans {
        fold_node(d, s.node);
        d.fold_u64(s.upstream_arrival.as_micros());
        d.fold_u64(s.upstream_departure.as_micros());
        d.fold_opt(s.downstream_sending.map(|t| t.as_micros()));
        d.fold_opt(s.downstream_receiving.map(|t| t.as_micros()));
    }
}

fn fold_lifecycle(d: &mut Fnv64, e: &LifecycleEvent) {
    d.fold_u64(e.time.as_micros());
    fold_node(d, e.node);
    d.fold_u64(e.kind as u64);
    d.fold_u64(e.request.0);
    d.fold_u64(e.interaction.idx as u64);
    d.fold_u64(e.boundary as u64);
    d.fold_u64(u64::from(e.status));
}

fn fold_message(d: &mut Fnv64, m: &MessageEvent) {
    d.fold_u64(m.send_time.as_micros());
    d.fold_u64(m.recv_time.as_micros());
    fold_endpoint(d, m.src);
    fold_endpoint(d, m.dst);
    d.fold_u64(m.request.0);
    d.fold_u64(m.interaction.idx as u64);
    d.fold_u64(m.kind as u64);
}

fn fold_raw_sample(d: &mut Fnv64, s: &RawSample) {
    d.fold_u64(s.time.as_micros());
    fold_node(d, s.node);
    d.fold_u64(s.busy_core_us);
    d.fold_u64(s.iowait_core_us);
    d.fold_u64(s.disk_busy_us);
    d.fold_u64(s.disk_write_bytes);
    d.fold_u64(s.disk_ops);
    d.fold_u64(s.net_rx);
    d.fold_u64(s.net_tx);
    d.fold_u64(s.log_bytes);
    d.fold_u64(s.dirty_bytes);
    d.fold_u64(s.mem_used_bytes);
    d.fold_u64(u64::from(s.queue_len));
    d.fold_u64(u64::from(s.active_workers));
}

// ----------------------------------------------------------------------
// Merge
// ----------------------------------------------------------------------

/// Deterministically combines per-cell outputs into one [`RunOutput`].
/// Pure data-plumbing over already-finished cells: the result depends only
/// on the cell outputs and their order, never on how they were scheduled.
fn merge(cfg: SystemConfig, cells: Vec<CellOutput>) -> RunOutput {
    let p = cells.len().max(1);
    let num_nodes = cfg.node_count();
    let interval_us = cfg.sample_period.as_micros() as f64;

    // Resource samples: sum each (tick, node) cell's raw counters, then
    // compute utilisation against the whole node's capacity. With one
    // cell this reproduces the un-partitioned percentages bit-for-bit.
    let min_ticks = cells
        .iter()
        .map(|c| c.raw_samples.len().checked_div(num_nodes).unwrap_or(0))
        .min()
        .unwrap_or(0);
    let mut samples = Vec::with_capacity(min_ticks * num_nodes);
    for tick in 0..min_ticks {
        for n in 0..num_nodes {
            let idx = tick * num_nodes + n;
            let Some(first) = cells.first().and_then(|c| c.raw_samples.get(idx)) else {
                continue;
            };
            let mut acc = *first;
            for c in cells.iter().skip(1) {
                if let Some(r) = c.raw_samples.get(idx) {
                    acc.busy_core_us += r.busy_core_us;
                    acc.iowait_core_us += r.iowait_core_us;
                    acc.disk_busy_us += r.disk_busy_us;
                    acc.disk_write_bytes += r.disk_write_bytes;
                    acc.disk_ops += r.disk_ops;
                    acc.net_rx += r.net_rx;
                    acc.net_tx += r.net_tx;
                    acc.log_bytes += r.log_bytes;
                    acc.dirty_bytes += r.dirty_bytes;
                    acc.mem_used_bytes += r.mem_used_bytes;
                    acc.queue_len += r.queue_len;
                    acc.active_workers += r.active_workers;
                }
            }
            let cores = cfg.tiers.get(acc.node.tier.0).map_or(1, |t| t.cores);
            let capacity = cores as f64 * interval_us;
            let busy_pct = 100.0 * acc.busy_core_us as f64 / capacity;
            let iowait_pct = 100.0 * acc.iowait_core_us as f64 / capacity;
            // An 82/18 user/sys split approximates web-serving workloads.
            let cpu_user = busy_pct * 0.82;
            let cpu_sys = busy_pct * 0.18;
            let cpu_idle = (100.0 - busy_pct - iowait_pct).max(0.0);
            let disk_util = (100.0 * acc.disk_busy_us as f64 / (p as f64 * interval_us)).min(100.0);
            samples.push(ResourceSample {
                time: acc.time,
                node: acc.node,
                kind: acc.kind,
                cpu_user,
                cpu_sys,
                cpu_iowait: iowait_pct,
                cpu_idle,
                disk_util,
                disk_write_bytes: acc.disk_write_bytes,
                disk_ops: acc.disk_ops,
                dirty_pages: acc.dirty_bytes / PAGE_BYTES,
                mem_used_bytes: acc.mem_used_bytes,
                net_rx_bytes: acc.net_rx,
                net_tx_bytes: acc.net_tx,
                queue_len: acc.queue_len,
                active_workers: acc.active_workers,
                log_bytes: acc.log_bytes,
            });
        }
    }

    // Scalar statistics and the run digest: plain sums / cell-order folds.
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut sim_events = 0u64;
    let mut rts_ms: Vec<f64> = Vec::new();
    let mut dig = [Fnv64::new(); 4];
    for c in &cells {
        issued += c.issued;
        completed += c.completed;
        rejected += c.rejected;
        sim_events += c.events;
        rts_ms.extend_from_slice(&c.rts_ms);
        dig[0].fold_u64(c.digest.requests);
        dig[1].fold_u64(c.digest.lifecycle);
        dig[2].fold_u64(c.digest.messages);
        dig[3].fold_u64(c.digest.samples);
    }
    let mut node_log_bytes = cells
        .first()
        .map(|c| c.node_log_bytes.clone())
        .unwrap_or_default();
    let mut node_disk_bytes = cells
        .first()
        .map(|c| c.node_disk_bytes.clone())
        .unwrap_or_default();
    for c in cells.iter().skip(1) {
        for (i, (_, b)) in c.node_log_bytes.iter().enumerate() {
            if let Some(slot) = node_log_bytes.get_mut(i) {
                slot.1 += b;
            }
        }
        for (i, (_, b)) in c.node_disk_bytes.iter().enumerate() {
            if let Some(slot) = node_disk_bytes.get_mut(i) {
                slot.1 += b;
            }
        }
    }
    let measured_secs = cfg.duration.as_secs_f64();
    let stats = RunStats {
        issued,
        completed,
        throughput_rps: completed as f64 / measured_secs,
        mean_rt_ms: mscope_sim::Summary::of(&rts_ms).map_or(0.0, |s| s.mean),
        p99_rt_ms: mscope_sim::percentile(&rts_ms, 99.0).unwrap_or(0.0),
        max_rt_ms: mscope_sim::Summary::of(&rts_ms).map_or(0.0, |s| s.max),
        node_log_bytes,
        node_disk_bytes,
        rejected,
        sim_events,
    };
    let digest = RunDigest {
        requests: dig[0].value(),
        lifecycle: dig[1].value(),
        messages: dig[2].value(),
        samples: dig[3].value(),
    };

    // Event streams: concatenate cell-major, then restore the global total
    // order with stable sorts (each cell's stream is already nondecreasing
    // in its key, so with one cell these sorts are the identity).
    let mut requests = Vec::new();
    let mut lifecycle = Vec::new();
    let mut messages = Vec::new();
    for c in cells {
        requests.extend(c.requests);
        lifecycle.extend(c.lifecycle);
        messages.extend(c.messages);
    }
    requests.sort_by_key(|r| r.client_send);
    lifecycle.sort_by_key(|e| e.time);
    messages.sort_by_key(|m| m.send_time);

    let end_time = cfg.end_time();
    RunOutput {
        config: cfg,
        requests,
        lifecycle,
        messages,
        samples,
        end_time,
        stats,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn short_cfg(users: u32) -> SystemConfig {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        cfg.duration = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(3);
        cfg.workload.ramp_up = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn baseline_run_completes_requests() {
        let out = Simulator::new(short_cfg(100)).unwrap().run();
        assert!(
            out.stats.completed > 30,
            "completed {}",
            out.stats.completed
        );
        assert!(out.stats.issued >= out.stats.completed);
        assert!(
            out.stats.mean_rt_ms > 0.5 && out.stats.mean_rt_ms < 100.0,
            "mean rt {}",
            out.stats.mean_rt_ms
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Simulator::new(short_cfg(60)).unwrap().run();
        let b = Simulator::new(short_cfg(60)).unwrap().run();
        assert_eq!(a.stats.completed, b.stats.completed);
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.lifecycle.len(), b.lifecycle.len());
        assert_eq!(
            a.requests.last().map(|r| r.client_recv),
            b.requests.last().map(|r| r.client_recv)
        );
    }

    #[test]
    fn different_seed_changes_run() {
        let mut cfg = short_cfg(60);
        cfg.seed = 999;
        let a = Simulator::new(short_cfg(60)).unwrap().run();
        let b = Simulator::new(cfg).unwrap().run();
        assert_ne!(
            a.requests
                .iter()
                .filter_map(|r| r.client_recv)
                .collect::<Vec<_>>(),
            b.requests
                .iter()
                .filter_map(|r| r.client_recv)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn completed_requests_are_causally_ordered() {
        let out = Simulator::new(short_cfg(80)).unwrap().run();
        let mut checked = 0;
        for r in out.requests.iter().filter(|r| r.is_complete()) {
            assert!(r.is_causally_ordered(), "request {:?} out of order", r.id);
            checked += 1;
        }
        assert!(checked > 30);
    }

    #[test]
    fn depth_one_requests_touch_only_web_tier() {
        let out = Simulator::new(short_cfg(80)).unwrap().run();
        let statics: Vec<_> = out
            .requests
            .iter()
            .filter(|r| r.is_complete() && r.interaction.spec().depth == 1)
            .collect();
        assert!(!statics.is_empty(), "mix should include static pages");
        for r in &statics {
            assert_eq!(r.spans.len(), 1);
            assert_eq!(r.spans[0].node.tier, TierId(0));
            assert_eq!(r.spans[0].downstream_sending, None);
        }
    }

    #[test]
    fn full_depth_requests_have_four_spans() {
        let out = Simulator::new(short_cfg(80)).unwrap().run();
        let deep = out
            .requests
            .iter()
            .find(|r| r.is_complete() && r.interaction.spec().depth == 4)
            .expect("some deep request completes");
        assert_eq!(deep.spans.len(), 4);
        for (i, s) in deep.spans.iter().enumerate() {
            assert_eq!(s.node.tier, TierId(i));
        }
        // The three upper tiers all made downstream calls; the DB did not.
        assert!(deep.spans[..3]
            .iter()
            .all(|s| s.downstream_sending.is_some()));
        assert!(deep.spans[3].downstream_sending.is_none());
    }

    #[test]
    fn lifecycle_events_are_time_ordered_and_match_spans() {
        let out = Simulator::new(short_cfg(50)).unwrap().run();
        assert!(out.lifecycle.windows(2).all(|w| w[0].time <= w[1].time));
        // Each complete 4-deep request yields 4 UA + 4 UD + 3 DS + 3 DR = 14.
        let some = out
            .requests
            .iter()
            .find(|r| r.is_complete() && r.spans.len() == 4)
            .unwrap();
        let events: Vec<_> = out
            .lifecycle
            .iter()
            .filter(|e| e.request == some.id)
            .collect();
        assert_eq!(events.len(), 14);
    }

    #[test]
    fn messages_pair_up_and_respect_hop_latency() {
        let out = Simulator::new(short_cfg(50)).unwrap().run();
        let hop = out.config.network.hop_latency;
        for m in &out.messages {
            assert_eq!(m.recv_time - m.send_time, hop);
        }
        // Down and up messages balance for complete requests.
        let some = out
            .requests
            .iter()
            .find(|r| r.is_complete() && r.spans.len() == 4)
            .unwrap();
        let down = out
            .messages
            .iter()
            .filter(|m| m.request == some.id && m.kind == MsgKind::RequestDown)
            .count();
        let up = out
            .messages
            .iter()
            .filter(|m| m.request == some.id && m.kind == MsgKind::ReplyUp)
            .count();
        assert_eq!(down, 4);
        assert_eq!(up, 4);
    }

    #[test]
    fn samples_cover_all_nodes_periodically() {
        let out = Simulator::new(short_cfg(50)).unwrap().run();
        let nodes = out.config.node_count();
        assert_eq!(out.samples.len() % nodes, 0);
        let per_node = out.samples.len() / nodes;
        // 11 s run, 50 ms period → ~220 ticks.
        assert!(per_node > 200, "got {per_node} samples per node");
        for s in &out.samples {
            assert!(s.cpu_user >= 0.0 && s.cpu_idle >= 0.0);
            assert!(s.cpu_user + s.cpu_sys + s.cpu_iowait + s.cpu_idle <= 101.0);
            assert!(s.disk_util >= 0.0 && s.disk_util <= 100.0);
        }
    }

    #[test]
    fn monitors_double_log_volume() {
        let mut on = short_cfg(100);
        on.monitoring = crate::config::MonitoringConfig::enabled();
        let mut off = short_cfg(100);
        off.monitoring = crate::config::MonitoringConfig::disabled();
        let out_on = Simulator::new(on).unwrap().run();
        let out_off = Simulator::new(off).unwrap().run();
        let total_on: u64 = out_on.stats.node_log_bytes.iter().map(|(_, b)| b).sum();
        let total_off: u64 = out_off.stats.node_log_bytes.iter().map(|(_, b)| b).sum();
        let ratio = total_on as f64 / total_off as f64;
        assert!(
            (1.6..2.8).contains(&ratio),
            "monitor log ratio {ratio}, paper reports ~2x"
        );
    }

    #[test]
    fn db_flush_scenario_produces_vlrt() {
        let mut cfg = SystemConfig::scenario_db_io(400);
        // Shrink the flush threshold so the short test run triggers it.
        cfg.duration = SimDuration::from_secs(15);
        cfg.warmup = SimDuration::from_secs(3);
        cfg.workload.ramp_up = SimDuration::from_secs(2);
        cfg.tiers[3].log_flush.as_mut().unwrap().buffer_threshold = 256 << 10;
        cfg.tiers[3].log_flush.as_mut().unwrap().flush_rate = 2e6;
        let out = Simulator::new(cfg).unwrap().run();
        assert!(
            out.stats.max_rt_ms > 8.0 * out.stats.mean_rt_ms,
            "expected VLRTs: max {} vs mean {}",
            out.stats.max_rt_ms,
            out.stats.mean_rt_ms
        );
    }

    #[test]
    fn dirty_page_scenario_saturates_cpu() {
        let mut cfg = SystemConfig::scenario_dirty_page(400);
        cfg.duration = SimDuration::from_secs(15);
        cfg.warmup = SimDuration::from_secs(3);
        cfg.workload.ramp_up = SimDuration::from_secs(2);
        // Scale thresholds down to the test's lower log volume.
        cfg.tiers[0].memory.dirty_high_bytes = 120_000;
        cfg.tiers[0].memory.dirty_low_bytes = 0;
        cfg.tiers[0].memory.recycle_rate = 1e6;
        let out = Simulator::new(cfg).unwrap().run();
        let apache_sat = out
            .samples
            .iter()
            .filter(|s| s.kind == TierKind::Apache)
            .any(|s| s.cpu_user + s.cpu_sys > 90.0);
        assert!(apache_sat, "expected an Apache CPU-saturated sample");
        // Dirty pages must rise and then abruptly drop (Fig. 8d shape).
        let dirty: Vec<u64> = out
            .samples
            .iter()
            .filter(|s| s.kind == TierKind::Apache)
            .map(|s| s.dirty_pages)
            .collect();
        let max = *dirty.iter().max().unwrap();
        let drops = dirty.windows(2).any(|w| w[1] + max / 2 < w[0]);
        assert!(
            drops,
            "expected an abrupt dirty-page drop, series max {max}"
        );
    }

    #[test]
    fn gc_injector_pauses_tier() {
        let mut cfg = short_cfg(80);
        cfg.injectors.push(InjectorSpec::GcPause {
            tier: 1,
            period: SimDuration::from_secs(3),
            pause: SimDuration::from_millis(400),
        });
        let out = Simulator::new(cfg).unwrap().run();
        // During pauses the Tomcat CPU is fully seized.
        let sat = out
            .samples
            .iter()
            .filter(|s| s.kind == TierKind::Tomcat)
            .any(|s| s.cpu_user + s.cpu_sys > 95.0);
        assert!(sat, "GC should saturate Tomcat CPU");
        let base = Simulator::new(short_cfg(80)).unwrap().run();
        assert!(out.stats.max_rt_ms > base.stats.max_rt_ms);
    }

    #[test]
    fn cpu_hog_injector_delays_requests() {
        let mut cfg = short_cfg(80);
        cfg.injectors.push(InjectorSpec::CpuHog {
            tier: 0,
            at: SimTime::from_secs(5),
            cores: 2,
            duration: SimDuration::from_millis(800),
        });
        let hogged = Simulator::new(cfg).unwrap().run();
        let base = Simulator::new(short_cfg(80)).unwrap().run();
        assert!(
            hogged.stats.max_rt_ms > base.stats.max_rt_ms + 100.0,
            "hog {} vs base {}",
            hogged.stats.max_rt_ms,
            base.stats.max_rt_ms
        );
    }

    #[test]
    fn disk_hog_injector_saturates_disk() {
        let mut cfg = short_cfg(50);
        cfg.injectors.push(InjectorSpec::DiskHog {
            tier: 3,
            at: SimTime::from_secs(5),
            bytes: 200 << 20,
        });
        let out = Simulator::new(cfg).unwrap().run();
        let sat = out
            .samples
            .iter()
            .filter(|s| s.kind == TierKind::Mysql)
            .any(|s| s.disk_util > 95.0);
        assert!(sat, "disk hog should saturate the MySQL disk");
    }

    #[test]
    fn dvfs_injector_slows_tier() {
        let mut cfg = short_cfg(80);
        cfg.injectors.push(InjectorSpec::DvfsThrottle {
            tier: 1,
            period: SimDuration::from_secs(2),
            slow_factor: 0.25,
            duration: SimDuration::from_millis(700),
        });
        let throttled = Simulator::new(cfg).unwrap().run();
        let base = Simulator::new(short_cfg(80)).unwrap().run();
        assert!(throttled.stats.mean_rt_ms > base.stats.mean_rt_ms);
    }

    #[test]
    fn replicated_tier_round_robins() {
        let mut cfg = short_cfg(80);
        cfg.tiers[1].replicas = 2;
        let out = Simulator::new(cfg).unwrap().run();
        let mut replica_seen = [false; 2];
        for r in out.requests.iter().filter(|r| r.spans.len() >= 2) {
            replica_seen[r.spans[1].node.replica] = true;
        }
        assert_eq!(
            replica_seen,
            [true, true],
            "both Tomcat replicas serve traffic"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = short_cfg(10);
        cfg.tiers[0].cores = 0;
        assert!(Simulator::new(cfg).is_err());
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use crate::config::SystemConfig;

    fn short(mut cfg: SystemConfig) -> SystemConfig {
        cfg.duration = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        cfg
    }

    #[test]
    fn fig1_replicated_topology_balances_load() {
        let out = Simulator::new(short(SystemConfig::rubbos_replicated(200)))
            .unwrap()
            .run();
        assert_eq!(out.config.node_count(), 6, "1+2+1+2 nodes");
        // Both Tomcat and both MySQL replicas serve a comparable share.
        for tier in [1usize, 3] {
            let mut counts = [0usize; 2];
            for r in out.requests.iter().filter(|r| r.spans.len() > tier) {
                counts[r.spans[tier].node.replica] += 1;
            }
            let total = counts[0] + counts[1];
            assert!(total > 50, "tier {tier} served {total}");
            let balance = counts[0] as f64 / total as f64;
            assert!(
                (0.4..0.6).contains(&balance),
                "tier {tier} imbalance: {counts:?}"
            );
        }
    }

    #[test]
    fn browse_only_mix_generates_no_commit_traffic() {
        let mut cfg = short(SystemConfig::rubbos_baseline(150));
        cfg.workload = crate::config::WorkloadConfig::rubbos_browse_only(150);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        assert!(out.stats.completed > 50);
        assert!(out
            .requests
            .iter()
            .all(|r| r.interaction.rw() == crate::types::RwKind::Read));
    }

    #[test]
    fn single_tier_topology_works() {
        // Degenerate but legal: a web-only system (every request depth 1).
        let mut cfg = short(SystemConfig::rubbos_baseline(100));
        cfg.tiers.truncate(1);
        let out = Simulator::new(cfg).unwrap().run();
        assert!(out.stats.completed > 30);
        for r in out.requests.iter().filter(|r| r.is_complete()) {
            assert_eq!(r.spans.len(), 1);
            assert!(r.is_causally_ordered());
        }
    }

    #[test]
    fn zero_length_run_is_empty_but_sane() {
        let mut cfg = SystemConfig::rubbos_baseline(10);
        cfg.duration = SimDuration::from_millis(1);
        cfg.warmup = SimDuration::ZERO;
        cfg.workload.ramp_up = SimDuration::from_millis(1);
        let out = Simulator::new(cfg).unwrap().run();
        // Nothing can complete in 1 ms, but the run must not panic and
        // bookkeeping must be consistent.
        assert!(out.stats.completed <= out.stats.issued);
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use crate::config::{ArrivalProcess, SystemConfig, WorkloadConfig};

    fn open_cfg(rate: f64, secs: u64) -> SystemConfig {
        let mut cfg = SystemConfig::rubbos_baseline(1);
        cfg.workload = WorkloadConfig::open_loop(rate);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.warmup = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn open_loop_hits_target_rate() {
        let out = Simulator::new(open_cfg(100.0, 20)).unwrap().run();
        // Throughput within 10 % of the offered rate (healthy system).
        assert!(
            (out.stats.throughput_rps - 100.0).abs() < 10.0,
            "observed {} rps",
            out.stats.throughput_rps
        );
    }

    #[test]
    fn open_loop_backlog_grows_under_overload() {
        // Offer more than the 2-core MySQL tier can serve (~2000 rps at
        // ~1 ms demand): the backlog must grow monotonically-ish, unlike a
        // closed loop which self-throttles.
        let mut cfg = open_cfg(600.0, 10);
        cfg.tiers[3].workers = 4;
        cfg.tiers[3].base_demand = SimDuration::from_micros(8_000);
        let out = Simulator::new(cfg).unwrap().run();
        // The worker pools bound every deeper tier, so the unbounded
        // backlog accumulates at the front tier's accept queue.
        let q: Vec<u32> = out
            .samples
            .iter()
            .filter(|s| s.node.tier.0 == 0)
            .map(|s| s.queue_len)
            .collect();
        let early = q[q.len() / 4] as f64;
        let late = q[q.len() - 1] as f64;
        assert!(
            late > early + 100.0,
            "backlog should grow without bound: early {early}, late {late}"
        );
    }

    #[test]
    fn open_loop_validation() {
        let mut cfg = open_cfg(0.0, 5);
        cfg.workload.arrival = ArrivalProcess::OpenLoop { rate_rps: 0.0 };
        assert!(cfg.validate().unwrap_err().contains("rate"));
        // users=0 is fine in open loop.
        let mut cfg = open_cfg(10.0, 5);
        cfg.workload.users = 0;
        assert!(cfg.validate().is_ok());
    }
}

#[cfg(test)]
mod sharding_tests {
    use super::*;
    use crate::config::SystemConfig;

    /// A partitioned config small enough for tests: 3 cells over tiers
    /// with enough cores/workers to slice.
    fn partitioned_cfg(users: u32, partitions: u32) -> SystemConfig {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        cfg.partitions = partitions;
        for t in &mut cfg.tiers {
            t.cores = 4;
            t.workers = t.workers.max(partitions as usize * 4);
        }
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        cfg
    }

    fn run_sharded(cfg: SystemConfig, shards: usize) -> RunOutput {
        Simulator::new(cfg).unwrap().run_with(&SimOptions {
            shards,
            retention: Retention::Full,
        })
    }

    #[test]
    fn shard_count_never_changes_output() {
        let reference = run_sharded(partitioned_cfg(90, 3), 1);
        for shards in [2, 4, 7] {
            let out = run_sharded(partitioned_cfg(90, 3), shards);
            assert_eq!(out.digest, reference.digest, "shards={shards}");
            assert_eq!(out.requests, reference.requests, "shards={shards}");
            assert_eq!(out.lifecycle, reference.lifecycle, "shards={shards}");
            assert_eq!(out.messages, reference.messages, "shards={shards}");
            assert_eq!(out.samples, reference.samples, "shards={shards}");
            assert_eq!(out.stats.completed, reference.stats.completed);
            assert_eq!(out.stats.sim_events, reference.stats.sim_events);
        }
    }

    #[test]
    fn partitioned_ids_are_tagged_by_cell() {
        let out = run_sharded(partitioned_cfg(90, 3), 2);
        let mut cells_seen = [false; 3];
        for r in &out.requests {
            let cell = (r.id.0 >> REQ_CELL_SHIFT) as usize;
            assert!(cell < 3, "cell tag {cell} out of range");
            cells_seen[cell] = true;
        }
        assert_eq!(cells_seen, [true; 3], "every cell issued requests");
        // Streams are globally time-ordered after the merge.
        assert!(out.lifecycle.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(out
            .messages
            .windows(2)
            .all(|w| w[0].send_time <= w[1].send_time));
        assert!(out
            .requests
            .windows(2)
            .all(|w| w[0].client_send <= w[1].client_send));
    }

    #[test]
    fn digest_retention_matches_full() {
        let full = run_sharded(partitioned_cfg(60, 2), 2);
        let digest = Simulator::new(partitioned_cfg(60, 2))
            .unwrap()
            .run_with(&SimOptions {
                shards: 2,
                retention: Retention::Digest,
            });
        assert_eq!(digest.digest, full.digest);
        assert_eq!(digest.stats.completed, full.stats.completed);
        assert_eq!(digest.stats.issued, full.stats.issued);
        assert_eq!(digest.stats.sim_events, full.stats.sim_events);
        assert_eq!(digest.stats.mean_rt_ms, full.stats.mean_rt_ms);
        // Digest mode keeps no streams — that is its point.
        assert!(digest.requests.is_empty());
        assert!(digest.lifecycle.is_empty());
        assert!(digest.messages.is_empty());
        // But samples survive in both modes.
        assert_eq!(digest.samples, full.samples);
    }

    #[test]
    fn single_partition_is_the_legacy_engine() {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        let serial = Simulator::new(cfg.clone()).unwrap().run();
        let threaded = Simulator::new(cfg).unwrap().run_with(&SimOptions {
            shards: 8,
            retention: Retention::Full,
        });
        assert_eq!(serial.digest, threaded.digest);
        assert_eq!(serial.requests, threaded.requests);
        assert_eq!(serial.samples, threaded.samples);
    }

    #[test]
    fn cell_config_conserves_resources() {
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.partitions = 3;
        for t in &mut cfg.tiers {
            t.cores = 7;
            t.workers = 50;
        }
        let cells: Vec<SystemConfig> = (0..3).map(|i| cell_config(&cfg, i)).collect();
        for ti in 0..cfg.tiers.len() {
            let cores: u32 = cells.iter().map(|c| c.tiers[ti].cores).sum();
            let workers: usize = cells.iter().map(|c| c.tiers[ti].workers).sum();
            assert_eq!(cores, 7, "tier {ti} cores conserved");
            assert_eq!(workers, 50, "tier {ti} workers conserved");
        }
        let users: u32 = cells.iter().map(|c| c.workload.users).sum();
        assert_eq!(users, 100);
        // Session id ranges tile 0..users without overlap.
        assert_eq!(session_base(100, 3, 0), 0);
        assert_eq!(session_base(100, 3, 1), 34);
        assert_eq!(session_base(100, 3, 2), 67);
    }
}

#[cfg(test)]
mod discipline_tests {
    use super::*;
    use crate::config::{QueueDiscipline, SystemConfig};

    fn cfg_with(discipline: QueueDiscipline, users: u32) -> SystemConfig {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        for t in &mut cfg.tiers {
            t.discipline = discipline;
        }
        cfg.duration = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(3);
        cfg.workload.ramp_up = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn single_core_dfcfs_equals_cfcfs() {
        // With one core per node the two disciplines are the same machine.
        let mut c = cfg_with(QueueDiscipline::Cfcfs, 40);
        let mut d = cfg_with(QueueDiscipline::Dfcfs, 40);
        for cfg in [&mut c, &mut d] {
            for t in &mut cfg.tiers {
                t.cores = 1;
            }
        }
        let out_c = Simulator::new(c).unwrap().run();
        let out_d = Simulator::new(d).unwrap().run();
        assert_eq!(out_c.digest, out_d.digest);
    }

    #[test]
    fn dfcfs_runs_and_differs_from_cfcfs_on_multicore() {
        let out_c = Simulator::new(cfg_with(QueueDiscipline::Cfcfs, 150))
            .unwrap()
            .run();
        let out_d = Simulator::new(cfg_with(QueueDiscipline::Dfcfs, 150))
            .unwrap()
            .run();
        assert!(out_d.stats.completed > 30);
        // Multicore nodes: steering arrivals to a fixed core while a
        // sibling idles must change the schedule.
        assert_ne!(out_c.digest, out_d.digest);
        // dFCFS wastes capacity it cannot steal back, so at equal load its
        // mean response time is no better than cFCFS.
        assert!(
            out_d.stats.mean_rt_ms >= out_c.stats.mean_rt_ms * 0.95,
            "dFCFS {} vs cFCFS {}",
            out_d.stats.mean_rt_ms,
            out_c.stats.mean_rt_ms
        );
    }
}

#[cfg(test)]
mod bursty_tests {
    use super::*;
    use crate::config::{SystemConfig, WorkloadConfig};

    fn bursty_cfg(base: f64, burst: f64, secs: u64) -> SystemConfig {
        let mut cfg = SystemConfig::rubbos_baseline(1);
        cfg.workload = WorkloadConfig::bursty(
            base,
            burst,
            SimDuration::from_secs(2),
            SimDuration::from_secs(4),
        );
        cfg.duration = SimDuration::from_secs(secs);
        cfg.warmup = SimDuration::from_secs(2);
        cfg
    }

    #[test]
    fn bursty_rate_sits_between_base_and_burst() {
        let out = Simulator::new(bursty_cfg(60.0, 240.0, 40)).unwrap().run();
        let secs = out.end_time.as_secs_f64();
        let arrival_rate = out.stats.issued as f64 / secs;
        assert!(
            arrival_rate > 60.0 * 1.02 && arrival_rate < 240.0 * 0.98,
            "MMPP arrival rate {arrival_rate} should sit strictly between the phases"
        );
    }

    #[test]
    fn burst_windows_modulate_arrivals() {
        let out = Simulator::new(bursty_cfg(40.0, 400.0, 40)).unwrap().run();
        // Bucket arrivals per second; the on/off modulation must make the
        // busiest second clearly hotter than the average second.
        let mut per_sec = [0u32; 41];
        for r in &out.requests {
            let s = (r.client_send.as_micros() / 1_000_000) as usize;
            if let Some(slot) = per_sec.get_mut(s) {
                *slot += 1;
            }
        }
        let max = *per_sec.iter().max().unwrap_or(&0) as f64;
        let avg = per_sec.iter().map(|&c| c as f64).sum::<f64>() / per_sec.len() as f64;
        assert!(
            max > avg * 1.8,
            "expected bursts: max/sec {max} vs avg/sec {avg}"
        );
    }

    #[test]
    fn bursty_is_partition_invariant_in_distribution() {
        // The phase clock is shared across cells, so a partitioned run
        // bursts at the same instants; shard count never changes output.
        let mut cfg = bursty_cfg(80.0, 320.0, 20);
        cfg.partitions = 2;
        for t in &mut cfg.tiers {
            t.cores = 4;
            t.workers = t.workers.max(8);
        }
        let a = Simulator::new(cfg.clone()).unwrap().run_with(&SimOptions {
            shards: 1,
            retention: Retention::Full,
        });
        let b = Simulator::new(cfg).unwrap().run_with(&SimOptions {
            shards: 2,
            retention: Retention::Full,
        });
        assert_eq!(a.digest, b.digest);
        assert!(a.stats.issued > 0);
    }
}
