//! Experiment configuration: topology, resources, workload, monitoring
//! overhead, and the scenario presets used throughout the evaluation.

use crate::types::TierKind;
use mscope_sim::{SimDuration, SimTime};

/// Memory / page-cache behaviour of a node.
///
/// Dirty pages accumulate from application and log writes. A background
/// writeback cycle drains them cheaply (disk-only); if the dirty byte count
/// ever crosses `dirty_high_bytes`, the kernel's *forced recycling* kicks in:
/// it seizes CPU (the paper's scenario B root cause) until the count is back
/// at `dirty_low_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Total RAM in bytes (reported by monitors).
    pub total_bytes: u64,
    /// Forced-recycle trigger threshold (bytes of dirty pages).
    pub dirty_high_bytes: u64,
    /// Forced recycle drains down to this level.
    pub dirty_low_bytes: u64,
    /// Period of the cheap background writeback cycle.
    pub writeback_period: SimDuration,
    /// Max bytes drained per background cycle (rate limiting; lets scenario
    /// presets starve writeback so dirty pages build up).
    pub writeback_max_bytes: u64,
    /// CPU-side throughput of forced recycling, bytes/second. Determines how
    /// long the CPU stays saturated during a recycle storm.
    pub recycle_rate: f64,
    /// Cores seized by the forced recycler while it runs.
    pub recycle_cores: u32,
}
mscope_serdes::json_struct!(MemoryConfig {
    total_bytes,
    dirty_high_bytes,
    dirty_low_bytes,
    writeback_period,
    writeback_max_bytes,
    recycle_rate,
    recycle_cores,
});

impl MemoryConfig {
    /// A roomy default that never triggers forced recycling during a normal
    /// run: 4 GiB RAM, high watermark 512 MiB, generous writeback.
    pub fn ample() -> Self {
        MemoryConfig {
            total_bytes: 4 << 30,
            dirty_high_bytes: 512 << 20,
            dirty_low_bytes: 64 << 20,
            writeback_period: SimDuration::from_millis(1000),
            writeback_max_bytes: 64 << 20,
            recycle_rate: 50e6,
            recycle_cores: 2,
        }
    }
}

/// Database commit-log flush behaviour (the paper's scenario A root cause).
///
/// Write transactions append `commit_bytes` to an in-memory log buffer; when
/// the buffer reaches `buffer_threshold` the DBMS flushes it to disk at
/// `flush_rate` bytes/second (much slower than sequential disk bandwidth —
/// log flushing is sync-heavy). While the flush is in progress and
/// `stall_writes` is set, committing transactions block holding their worker
/// thread, which is what propagates the stall upstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogFlushConfig {
    /// Buffer size that triggers a flush, in bytes.
    pub buffer_threshold: u64,
    /// Effective flush throughput in bytes/second.
    pub flush_rate: f64,
    /// Whether commits stall for the duration of the flush.
    pub stall_writes: bool,
    /// Whether *read* queries also stall while the flush runs — checkpoint
    /// IO starving the buffer pool's reads, the full §V-A effect.
    pub stall_reads: bool,
}
mscope_serdes::json_struct!(LogFlushConfig {
    buffer_threshold,
    flush_rate,
    stall_writes,
    stall_reads,
});

/// How a tier's cores pick up queued CPU bursts.
///
/// The distinction (after the multi-core scheduling literature, e.g. the
/// `carvalhof/sim` queueing simulator) is whether a queued burst may run on
/// *any* core that frees up, or is pinned at arrival to one core's private
/// queue — the RSS/partitioned design real NICs and some thread pools use,
/// which is cheaper to build but has strictly worse queueing behaviour
/// under skewed service times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Centralized FCFS: one queue feeds every core; a burst runs on the
    /// first core to become idle. The historical (and default) behaviour.
    #[default]
    Cfcfs,
    /// Distributed FCFS: bursts are round-robin-assigned to a core on
    /// arrival and wait for *that* core even while others sit idle.
    Dfcfs,
}
mscope_serdes::json_enum!(QueueDiscipline { Cfcfs, Dfcfs });

/// Static configuration of one tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierConfig {
    /// Component-server software (determines log formats & monitor names).
    pub kind: TierKind,
    /// Number of replica nodes in this tier (requests round-robin).
    pub replicas: usize,
    /// Worker threads per node; a request holds one from admission until its
    /// reply departs upstream, including while blocked on downstream tiers.
    pub workers: usize,
    /// CPU cores per node.
    pub cores: u32,
    /// How queued CPU bursts are matched to cores.
    pub discipline: QueueDiscipline,
    /// Mean phase-1 CPU demand per request (before the downstream call).
    pub base_demand: SimDuration,
    /// Mean phase-2 CPU demand (after the downstream reply returns).
    pub phase2_demand: SimDuration,
    /// Extra mean CPU demand for write interactions (e.g. MySQL updates).
    pub write_demand_extra: SimDuration,
    /// Coefficient of variation of the (log-normal) demand distributions.
    pub demand_cv: f64,
    /// Disk write bandwidth in bytes/second (background writeback etc.).
    pub disk_write_bw: f64,
    /// Memory / dirty-page model.
    pub memory: MemoryConfig,
    /// Native log bytes an *unmodified* server writes per request (access
    /// log etc.). The event monitor roughly doubles this (paper Fig. 10).
    pub base_log_bytes: u64,
    /// Bytes a write transaction appends to the commit log (DB tiers).
    pub commit_bytes: u64,
    /// Commit-log flush model; `None` = commits never stall.
    pub log_flush: Option<LogFlushConfig>,
    /// Accept-queue (listen backlog) limit; requests arriving beyond
    /// `workers + accept_limit` are rejected with HTTP 503. `None` =
    /// unbounded (the default — the paper's testbed never rejects).
    pub accept_limit: Option<usize>,
}
mscope_serdes::json_struct!(TierConfig {
    kind,
    replicas,
    workers,
    cores,
    discipline,
    base_demand,
    phase2_demand,
    write_demand_extra,
    demand_cv,
    disk_write_bw,
    memory,
    base_log_bytes,
    commit_bytes,
    log_flush,
    accept_limit,
});

impl TierConfig {
    /// A sensible single-replica tier of the given kind with the scaled-down
    /// resource profile used across the evaluation presets.
    pub fn standard(kind: TierKind) -> Self {
        let ms = SimDuration::from_micros;
        match kind {
            TierKind::Apache => TierConfig {
                kind,
                replicas: 1,
                workers: 120,
                cores: 2,
                discipline: QueueDiscipline::Cfcfs,
                base_demand: ms(250),
                phase2_demand: ms(80),
                write_demand_extra: ms(0),
                demand_cv: 0.4,
                disk_write_bw: 100e6,
                memory: MemoryConfig::ample(),
                base_log_bytes: 210,
                commit_bytes: 0,
                log_flush: None,
                accept_limit: None,
            },
            TierKind::Tomcat => TierConfig {
                kind,
                replicas: 1,
                workers: 80,
                cores: 2,
                discipline: QueueDiscipline::Cfcfs,
                base_demand: ms(700),
                phase2_demand: ms(150),
                write_demand_extra: ms(200),
                demand_cv: 0.5,
                disk_write_bw: 100e6,
                memory: MemoryConfig::ample(),
                base_log_bytes: 180,
                commit_bytes: 0,
                log_flush: None,
                accept_limit: None,
            },
            TierKind::Cjdbc => TierConfig {
                kind,
                replicas: 1,
                workers: 80,
                cores: 2,
                discipline: QueueDiscipline::Cfcfs,
                base_demand: ms(180),
                phase2_demand: ms(60),
                write_demand_extra: ms(50),
                demand_cv: 0.4,
                disk_write_bw: 100e6,
                memory: MemoryConfig::ample(),
                base_log_bytes: 150,
                commit_bytes: 0,
                log_flush: None,
                accept_limit: None,
            },
            TierKind::Mysql => TierConfig {
                kind,
                replicas: 1,
                workers: 50,
                cores: 2,
                discipline: QueueDiscipline::Cfcfs,
                base_demand: ms(900),
                phase2_demand: ms(0),
                write_demand_extra: ms(1100),
                demand_cv: 0.6,
                disk_write_bw: 120e6,
                memory: MemoryConfig::ample(),
                base_log_bytes: 160,
                commit_bytes: 8192,
                // Large buffer + no stall: flushes are invisible in baseline.
                log_flush: Some(LogFlushConfig {
                    buffer_threshold: 1 << 30,
                    flush_rate: 120e6,
                    stall_writes: false,
                    stall_reads: false,
                }),
                accept_limit: None,
            },
        }
    }
}

/// Network model: a fixed per-hop, per-direction latency (the testbed's
/// gigabit LAN).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// One-way latency per hop.
    pub hop_latency: SimDuration,
}
mscope_serdes::json_struct!(NetworkConfig { hop_latency });

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            hop_latency: SimDuration::from_micros(150),
        }
    }
}

/// The RUBBoS closed-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of concurrent emulated users — the paper's "workload" axis.
    /// (Ignored by the open-loop arrival process.)
    pub users: u32,
    /// Mean exponential think time between a response and the next request.
    pub think_time: SimDuration,
    /// Sessions start staggered uniformly over this ramp-up window.
    pub ramp_up: SimDuration,
    /// Interaction mix (RUBBoS ships a browse-only and a read/write mix).
    pub mix: WorkloadMix,
    /// How requests arrive.
    pub arrival: ArrivalProcess,
}
mscope_serdes::json_struct!(WorkloadConfig {
    users,
    think_time,
    ramp_up,
    mix,
    arrival
});

/// How the workload offers requests to the system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Closed loop: each of `users` sessions waits for its response, thinks,
    /// then sends again — RUBBoS's model and the paper's. Under overload the
    /// offered rate self-throttles (coordinated omission).
    #[default]
    ClosedLoop,
    /// Open loop: Poisson arrivals at a fixed rate, independent of response
    /// times. Under overload the backlog grows without bound, exposing the
    /// full latency cost a closed loop hides.
    OpenLoop {
        /// Mean arrival rate, requests/second.
        rate_rps: f64,
    },
    /// Bursty open loop: a two-state Markov-modulated Poisson process that
    /// alternates between a quiet phase at `base_rps` and an on phase at
    /// `burst_rps`, with exponentially distributed phase lengths. This is
    /// the flash-crowd shape that stresses queue disciplines and the
    /// monitors' episode-resolution requirements.
    Bursty {
        /// Mean arrival rate during the quiet (off) phase, requests/second.
        base_rps: f64,
        /// Mean arrival rate during the burst (on) phase, requests/second.
        burst_rps: f64,
        /// Mean length of a burst episode.
        mean_on: SimDuration,
        /// Mean length of a quiet interval between bursts.
        mean_off: SimDuration,
    },
}
mscope_serdes::json_enum!(ArrivalProcess {
    ClosedLoop,
    OpenLoop { rate_rps },
    Bursty { base_rps, burst_rps, mean_on, mean_off },
});

/// RUBBoS's two standard interaction mixes, plus a stress variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadMix {
    /// The default read/write mix (~11 % writes).
    #[default]
    ReadWrite,
    /// Browsing-only: write interactions excluded entirely.
    BrowseOnly,
    /// Write-heavy stress mix: write interaction weights tripled.
    WriteHeavy,
}
mscope_serdes::json_enum!(WorkloadMix {
    ReadWrite,
    BrowseOnly,
    WriteHeavy
});

impl WorkloadMix {
    /// The weight multiplier this mix applies to an interaction.
    pub fn weight_factor(self, rw: crate::types::RwKind) -> f64 {
        use crate::types::RwKind;
        match (self, rw) {
            (WorkloadMix::ReadWrite, _) => 1.0,
            (WorkloadMix::BrowseOnly, RwKind::Read) => 1.0,
            (WorkloadMix::BrowseOnly, RwKind::Write) => 0.0,
            (WorkloadMix::WriteHeavy, RwKind::Read) => 1.0,
            (WorkloadMix::WriteHeavy, RwKind::Write) => 3.0,
        }
    }
}

impl WorkloadConfig {
    /// RUBBoS defaults: 7 s mean think time, 10 s ramp-up, read/write mix.
    pub fn rubbos(users: u32) -> Self {
        WorkloadConfig {
            users,
            think_time: SimDuration::from_secs(7),
            ramp_up: SimDuration::from_secs(10),
            mix: WorkloadMix::ReadWrite,
            arrival: ArrivalProcess::ClosedLoop,
        }
    }

    /// An open-loop Poisson workload at `rate_rps` with the default mix.
    pub fn open_loop(rate_rps: f64) -> Self {
        WorkloadConfig {
            arrival: ArrivalProcess::OpenLoop { rate_rps },
            ..Self::rubbos(1)
        }
    }

    /// A bursty (MMPP on/off) open-loop workload with the default mix.
    pub fn bursty(
        base_rps: f64,
        burst_rps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> Self {
        WorkloadConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                mean_on,
                mean_off,
            },
            ..Self::rubbos(1)
        }
    }

    /// RUBBoS browsing-only variant.
    pub fn rubbos_browse_only(users: u32) -> Self {
        WorkloadConfig {
            mix: WorkloadMix::BrowseOnly,
            ..Self::rubbos(users)
        }
    }
}

/// Event-monitor instrumentation and its modeled costs.
///
/// The paper reports 1–3 % CPU overhead, ~2 ms extra end-to-end latency and
/// roughly doubled disk-write volume; these parameters encode exactly those
/// mechanisms (per-record CPU, per-record log bytes, and Tomcat's extra
/// logging thread, which is why Tomcat sits at the 3 % end).
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringConfig {
    /// Master switch for the event mScopeMonitors (the paper's
    /// enabled/disabled comparison of Figs. 10–11).
    pub event_monitors: bool,
    /// Extra log bytes written per request per instrumented node (the four
    /// timestamps plus the request ID; ≈ doubles the native log volume).
    pub per_record_bytes: u64,
    /// Extra CPU per request per instrumented node for formatting/logging.
    pub per_record_cpu: SimDuration,
    /// Multiplier on `per_record_cpu` for Tomcat, whose monitor runs an
    /// extra thread recording variable-width downstream data.
    pub tomcat_cpu_multiplier: f64,
    /// Whether the SysViz-style passive network tap records every message
    /// (zero overhead on the system under test, like the real appliance).
    pub sysviz_tap: bool,
}
mscope_serdes::json_struct!(MonitoringConfig {
    event_monitors,
    per_record_bytes,
    per_record_cpu,
    tomcat_cpu_multiplier,
    sysviz_tap,
});

impl MonitoringConfig {
    /// Event monitors on, tap on — the standard milliScope deployment.
    pub fn enabled() -> Self {
        MonitoringConfig {
            event_monitors: true,
            per_record_bytes: 220,
            per_record_cpu: SimDuration::from_micros(25),
            tomcat_cpu_multiplier: 2.6,
            sysviz_tap: true,
        }
    }

    /// Unmodified servers (baseline for the overhead comparison).
    pub fn disabled() -> Self {
        MonitoringConfig {
            event_monitors: false,
            sysviz_tap: true,
            ..Self::enabled()
        }
    }
}

/// Extension fault injectors beyond the two headline scenarios — the other
/// VSB root causes the paper cites (JVM GC, DVFS) plus synthetic hogs used
/// by tests.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectorSpec {
    /// Stop-the-world garbage collection: every `period`, all cores of every
    /// node in `tier` are seized for `pause`.
    GcPause {
        /// Tier index.
        tier: usize,
        /// Interval between collections.
        period: SimDuration,
        /// Stop-the-world pause length.
        pause: SimDuration,
    },
    /// CPU frequency scaling: every `period`, the tier's clock drops to
    /// `slow_factor` (< 1.0) of nominal for `duration`.
    DvfsThrottle {
        /// Tier index.
        tier: usize,
        /// Interval between throttle episodes.
        period: SimDuration,
        /// Relative speed while throttled (e.g. 0.4).
        slow_factor: f64,
        /// Length of each throttle episode.
        duration: SimDuration,
    },
    /// One-shot CPU hog: seizes `cores` cores of tier at `at` for `duration`.
    CpuHog {
        /// Tier index.
        tier: usize,
        /// Start instant.
        at: SimTime,
        /// Cores seized.
        cores: u32,
        /// Hog duration.
        duration: SimDuration,
    },
    /// One-shot disk hog: submits a `bytes`-sized write burst at `at`.
    DiskHog {
        /// Tier index.
        tier: usize,
        /// Start instant.
        at: SimTime,
        /// Bytes written.
        bytes: u64,
    },
}
mscope_serdes::json_enum!(InjectorSpec {
    GcPause { tier, period, pause },
    DvfsThrottle { tier, period, slow_factor, duration },
    CpuHog { tier, at, cores, duration },
    DiskHog { tier, at, bytes },
});

/// Complete configuration of one simulated experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Tiers in pipeline order (index 0 faces the clients).
    pub tiers: Vec<TierConfig>,
    /// Network model.
    pub network: NetworkConfig,
    /// Workload model.
    pub workload: WorkloadConfig,
    /// Monitoring instrumentation and overhead model.
    pub monitoring: MonitoringConfig,
    /// Extra fault injectors.
    pub injectors: Vec<InjectorSpec>,
    /// Measured run length (after warm-up).
    pub duration: SimDuration,
    /// Warm-up excluded from derived statistics (records still collected).
    pub warmup: SimDuration,
    /// Base resource-sampling period (monitors replay these samples).
    pub sample_period: SimDuration,
    /// RNG seed; same seed → identical run.
    pub seed: u64,
    /// Number of logical cells the trial is partitioned into for the sharded
    /// engine. This is a **model** parameter — it slices users, cores,
    /// workers and rates into `partitions` independent cells — so it changes
    /// what is simulated; the *thread count* used to execute the cells is a
    /// separate, purely-performance knob ([`SimOptions`](crate::SimOptions))
    /// that never changes output.
    pub partitions: u32,
}
mscope_serdes::json_struct!(SystemConfig {
    tiers,
    network,
    workload,
    monitoring,
    injectors,
    duration,
    warmup,
    sample_period,
    seed,
    partitions,
});

impl SystemConfig {
    /// The paper's 4-tier RUBBoS deployment, healthy baseline: no bottleneck
    /// ever triggers. 7-minute trial like the paper (callers often shorten
    /// `duration` for tests).
    pub fn rubbos_baseline(users: u32) -> Self {
        SystemConfig {
            tiers: TierKind::classic_pipeline()
                .into_iter()
                .map(TierConfig::standard)
                .collect(),
            network: NetworkConfig::default(),
            workload: WorkloadConfig::rubbos(users),
            monitoring: MonitoringConfig::enabled(),
            injectors: Vec::new(),
            duration: SimDuration::from_secs(420),
            warmup: SimDuration::from_secs(15),
            sample_period: SimDuration::from_millis(50),
            seed: 0x5CC0_9E02,
            partitions: 1,
        }
    }

    /// The paper's Fig. 1 topology: 1 Apache, 2 Tomcat, 1 C-JDBC, 2 MySQL
    /// — the replicated variant of the baseline. Demands at the replicated
    /// tiers are unchanged; each replica simply takes half the traffic.
    pub fn rubbos_replicated(users: u32) -> Self {
        let mut cfg = Self::rubbos_baseline(users);
        for t in &mut cfg.tiers {
            if matches!(t.kind, TierKind::Tomcat | TierKind::Mysql) {
                t.replicas = 2;
            }
        }
        cfg
    }

    /// Scenario A (paper §V-A, Figs. 2/4/6/7): the MySQL commit-log buffer
    /// fills every few seconds and its flush saturates the database disk for
    /// hundreds of milliseconds, stalling commits and pushing queues back
    /// through every tier.
    pub fn scenario_db_io(users: u32) -> Self {
        let mut cfg = Self::rubbos_baseline(users);
        let db = cfg
            .tiers
            .iter_mut()
            .find(|t| t.kind == TierKind::Mysql)
            .expect("baseline always has a MySQL tier");
        db.log_flush = Some(LogFlushConfig {
            // ~1.4 MB/s of commit traffic at 8000 users → flush every ~3.5 s.
            buffer_threshold: 5 << 20,
            // Sync-heavy log flush: ~16 MB/s effective → ~320 ms stall.
            flush_rate: 16e6,
            stall_writes: true,
            stall_reads: true,
        });
        cfg
    }

    /// Scenario B (paper §V-B, Fig. 8): starved background writeback lets
    /// dirty pages pile up on the Apache and Tomcat nodes; forced recycling
    /// then seizes their CPUs for hundreds of milliseconds — at different
    /// times on each tier, producing the two differently-shaped peaks.
    pub fn scenario_dirty_page(users: u32) -> Self {
        let mut cfg = Self::rubbos_baseline(users);
        for t in &mut cfg.tiers {
            match t.kind {
                TierKind::Apache => {
                    t.memory = MemoryConfig {
                        total_bytes: 1 << 30,
                        dirty_high_bytes: 2_200_000,
                        dirty_low_bytes: 100_000,
                        writeback_period: SimDuration::from_secs(30),
                        writeback_max_bytes: 0,
                        recycle_rate: 8e6,
                        recycle_cores: 2,
                    };
                    // Apache also spools page-cache-dirtying content.
                    t.base_log_bytes = 420;
                }
                TierKind::Tomcat => {
                    t.memory = MemoryConfig {
                        total_bytes: 1 << 30,
                        dirty_high_bytes: 3_600_000,
                        dirty_low_bytes: 150_000,
                        writeback_period: SimDuration::from_secs(30),
                        writeback_max_bytes: 0,
                        recycle_rate: 10e6,
                        recycle_cores: 2,
                    };
                    t.base_log_bytes = 520;
                }
                _ => {}
            }
        }
        cfg
    }

    /// Open-loop burst scenario: no closed-loop self-throttling — a two-state
    /// MMPP alternates a sustainable base rate with 3× flash-crowd bursts
    /// (mean 2 s on, 8 s off) that transiently exceed the database tier's
    /// capacity, so queues build during each burst and drain between them.
    /// Runs partitioned (2 cells) to keep the sharded engine's slicing on
    /// the proof path of every trace obligation.
    pub fn scenario_open_burst(base_rps: f64) -> Self {
        let mut cfg = Self::rubbos_baseline(1);
        cfg.workload = WorkloadConfig::bursty(
            base_rps,
            base_rps * 3.0,
            SimDuration::from_secs(2),
            SimDuration::from_secs(8),
        );
        cfg.partitions = 2;
        cfg
    }

    /// Every shipped scenario preset by name, at the paper's 8000-user
    /// workload (or, for the open-loop scenario, its standard rate). This is
    /// the set `mscope-lint trace` proves clean and CI walks
    /// scenario-by-scenario; new presets must be added here so they enter
    /// the proof obligations.
    pub fn presets() -> Vec<(&'static str, SystemConfig)> {
        vec![
            ("rubbos_baseline", Self::rubbos_baseline(8000)),
            ("rubbos_replicated", Self::rubbos_replicated(8000)),
            ("scenario_db_io", Self::scenario_db_io(8000)),
            ("scenario_dirty_page", Self::scenario_dirty_page(8000)),
            ("scenario_open_burst", Self::scenario_open_burst(800.0)),
        ]
    }

    /// Total nodes across all tiers.
    pub fn node_count(&self) -> usize {
        self.tiers.iter().map(|t| t.replicas).sum()
    }

    /// End of the measured portion (`warmup + duration`).
    pub fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.duration
    }

    /// Validates internal consistency; returns a human-readable description
    /// of the first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the topology is empty, any tier has zero
    /// replicas/workers/cores, a demand CV is negative, an injector
    /// references a missing tier, the sample period is zero, or the
    /// partition count is out of range (1–64, and no larger than any
    /// tier's core or worker count).
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("topology has no tiers".into());
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if t.replicas == 0 {
                return Err(format!("tier {i} ({}) has zero replicas", t.kind));
            }
            if t.workers == 0 {
                return Err(format!("tier {i} ({}) has zero workers", t.kind));
            }
            if t.cores == 0 {
                return Err(format!("tier {i} ({}) has zero cores", t.kind));
            }
            if t.demand_cv < 0.0 {
                return Err(format!("tier {i} ({}) has negative demand CV", t.kind));
            }
            if t.disk_write_bw <= 0.0 {
                return Err(format!(
                    "tier {i} ({}) has non-positive disk bandwidth",
                    t.kind
                ));
            }
            if t.memory.dirty_low_bytes > t.memory.dirty_high_bytes {
                return Err(format!("tier {i} ({}) dirty watermarks inverted", t.kind));
            }
            if let Some(lf) = &t.log_flush {
                if lf.flush_rate <= 0.0 {
                    return Err(format!(
                        "tier {i} ({}) log flush rate must be positive",
                        t.kind
                    ));
                }
            }
        }
        match self.workload.arrival {
            ArrivalProcess::ClosedLoop => {
                if self.workload.users == 0 {
                    return Err("workload has zero users".into());
                }
                if self.workload.think_time.is_zero() {
                    return Err("think time must be non-zero".into());
                }
            }
            ArrivalProcess::OpenLoop { rate_rps } => {
                if rate_rps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err("open-loop rate must be positive".into());
                }
            }
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                mean_on,
                mean_off,
            } => {
                let positive = |r: f64| r.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
                if !positive(base_rps) || !positive(burst_rps) {
                    return Err("bursty arrival rates must be positive".into());
                }
                if mean_on.is_zero() || mean_off.is_zero() {
                    return Err("bursty phase lengths must be non-zero".into());
                }
            }
        }
        if self.sample_period.is_zero() {
            return Err("sample period must be non-zero".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be at least 1".into());
        }
        if self.partitions > 64 {
            return Err(format!(
                "partitions {} exceed the supported maximum of 64",
                self.partitions
            ));
        }
        if self.partitions > 1 {
            // Each cell must receive at least one core and one worker per
            // tier, or the sliced sub-systems could not make progress.
            for (i, t) in self.tiers.iter().enumerate() {
                if u64::from(t.cores) < u64::from(self.partitions) {
                    return Err(format!(
                        "tier {i} ({}) has fewer cores ({}) than partitions ({})",
                        t.kind, t.cores, self.partitions
                    ));
                }
                if (t.workers as u64) < u64::from(self.partitions) {
                    return Err(format!(
                        "tier {i} ({}) has fewer workers ({}) than partitions ({})",
                        t.kind, t.workers, self.partitions
                    ));
                }
            }
        }
        for inj in &self.injectors {
            let tier = match inj {
                InjectorSpec::GcPause { tier, .. }
                | InjectorSpec::DvfsThrottle { tier, .. }
                | InjectorSpec::CpuHog { tier, .. }
                | InjectorSpec::DiskHog { tier, .. } => *tier,
            };
            if tier >= self.tiers.len() {
                return Err(format!("injector references missing tier {tier}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        let cfg = SystemConfig::rubbos_baseline(1000);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.tiers.len(), 4);
        assert_eq!(cfg.node_count(), 4);
        assert_eq!(cfg.end_time(), SimTime::ZERO + SimDuration::from_secs(435));
    }

    #[test]
    fn presets_are_named_uniquely_and_validate() {
        let presets = SystemConfig::presets();
        assert_eq!(presets.len(), 5);
        for (name, cfg) in &presets {
            assert!(cfg.validate().is_ok(), "preset {name} validates");
        }
        let mut names: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
        names.dedup();
        assert_eq!(names.len(), presets.len(), "preset names are unique");
    }

    #[test]
    fn scenarios_differ_from_baseline_only_where_expected() {
        let base = SystemConfig::rubbos_baseline(8000);
        let a = SystemConfig::scenario_db_io(8000);
        let b = SystemConfig::scenario_dirty_page(8000);
        assert!(a.validate().is_ok());
        assert!(b.validate().is_ok());
        // Scenario A only touches the MySQL flush config.
        assert_eq!(a.tiers[0], base.tiers[0]);
        assert_ne!(a.tiers[3].log_flush, base.tiers[3].log_flush);
        assert!(a.tiers[3].log_flush.as_ref().unwrap().stall_writes);
        // Scenario B only touches web/app memory.
        assert_eq!(b.tiers[3], base.tiers[3]);
        assert_ne!(b.tiers[0].memory, base.tiers[0].memory);
        assert_ne!(b.tiers[1].memory, base.tiers[1].memory);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.tiers[0].workers = 0;
        assert!(cfg.validate().unwrap_err().contains("zero workers"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.tiers.clear();
        assert!(cfg.validate().unwrap_err().contains("no tiers"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.workload.users = 0;
        assert!(cfg.validate().unwrap_err().contains("zero users"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.injectors.push(InjectorSpec::GcPause {
            tier: 99,
            period: SimDuration::from_secs(1),
            pause: SimDuration::from_millis(100),
        });
        assert!(cfg.validate().unwrap_err().contains("missing tier"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.tiers[2].memory.dirty_low_bytes = u64::MAX;
        assert!(cfg.validate().unwrap_err().contains("watermarks"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.partitions = 0;
        assert!(cfg.validate().unwrap_err().contains("partitions"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.partitions = 65;
        assert!(cfg.validate().unwrap_err().contains("maximum of 64"));

        // Standard tiers have 2 cores: 4 partitions cannot be sliced.
        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.partitions = 4;
        assert!(cfg.validate().unwrap_err().contains("fewer cores"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.workload = WorkloadConfig::bursty(
            100.0,
            0.0,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert!(cfg.validate().unwrap_err().contains("bursty arrival rates"));

        let mut cfg = SystemConfig::rubbos_baseline(100);
        cfg.workload =
            WorkloadConfig::bursty(100.0, 300.0, SimDuration::ZERO, SimDuration::from_secs(1));
        assert!(cfg.validate().unwrap_err().contains("phase lengths"));
    }

    #[test]
    fn open_burst_preset_shape() {
        let cfg = SystemConfig::scenario_open_burst(800.0);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.partitions, 2);
        match cfg.workload.arrival {
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                ..
            } => {
                assert_eq!(base_rps, 800.0);
                assert_eq!(burst_rps, 2400.0);
            }
            other => panic!("expected bursty arrivals, got {other:?}"),
        }
    }

    #[test]
    fn monitoring_presets() {
        assert!(MonitoringConfig::enabled().event_monitors);
        assert!(!MonitoringConfig::disabled().event_monitors);
        // Cost parameters are identical so the comparison is apples-to-apples.
        let e = MonitoringConfig::enabled();
        let d = MonitoringConfig::disabled();
        assert_eq!(e.per_record_bytes, d.per_record_bytes);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SystemConfig::scenario_db_io(4000);
        let json = mscope_serdes::to_string(&cfg);
        let back: SystemConfig = mscope_serdes::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
