//! Seeded inputs: the simulated trials and the `query_mix` operation
//! sequence, plus the reference answers computed straight from the
//! generated [`RunOutput`].
//!
//! This is the only module that knows which workload it is building for.
//! Everything it hands to the program under test is a plain
//! [`SystemConfig`], a log store, or a SQL string — no value in them names
//! a workload, so the program cannot branch on one.

use mscope_core::scenarios;
use mscope_ntier::{BoundaryKind, RunOutput, SystemConfig, INTERACTIONS};
use mscope_sim::{wallclock, SimDuration, SimRng, SimTime};
use std::collections::HashMap;

/// Trial sizes. They are constants of the workload — never derived from
/// the time budget — so every count repeats exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Closed-loop users of the pipeline trials.
    pub users: u32,
    /// Measured seconds of the pipeline trials.
    pub trial_secs: u64,
    /// Users of the engine-only trial.
    pub sim_users: u32,
    /// Partitions of the engine-only trial.
    pub sim_partitions: u32,
    /// Measured seconds of the engine-only trial.
    pub sim_secs: u64,
    /// Operations in the `query_mix` sequence.
    pub query_ops: usize,
    /// Records handed to the streaming spine per chunk.
    pub chunk_records: usize,
    /// Every how many polls the open loop also reads the growing table.
    pub live_query_every: usize,
}

/// The measured sizes: a 4000-user trial of 60 simulated seconds
/// (≈0.77 M records, ≈22 MB of logs) for the three pipeline workloads and
/// the 100k-user, 8-partition, 60 s shape of `sim_scale.rs` for the engine.
pub const FULL: Sizes = Sizes {
    users: 4000,
    trial_secs: 60,
    sim_users: 100_000,
    sim_partitions: 8,
    sim_secs: 60,
    query_ops: 1500,
    chunk_records: 1024,
    live_query_every: 64,
};

/// Tiny trials that still reach every code path (`--smoke`). A pass of
/// 600 operations takes ~45 ms there: several of the 10 ms ticks CPU time
/// is counted in, so `cpu_s` never reads zero.
pub const SMOKE: Sizes = Sizes {
    users: 400,
    trial_secs: 12,
    sim_users: 4_000,
    sim_partitions: 4,
    sim_secs: 10,
    query_ops: 600,
    chunk_records: 128,
    live_query_every: 8,
};

/// The open-loop release rates, records per second, with their labels.
/// The closed loop sustains about 600 k records/s on the box this was
/// written on, so the last rate is at the knee: bursts back up behind it.
pub const OPEN_LOOP_RATES: [(&str, f64); 3] = [
    ("r150k", 150_000.0),
    ("r300k", 300_000.0),
    ("r450k", 450_000.0),
];

/// The rate whose lag is reported end to end.
pub const HEADLINE_RATE: &str = "r300k";

/// Timed passes over the `query_mix` sequence per child.
pub const QUERY_PASSES: usize = 2;

/// Share of the `query_mix` sequence replayed first and discarded.
pub const WARMUP_SHARE: f64 = 0.05;

/// The healthy RUBBoS baseline trial.
pub fn batch_config(sizes: &Sizes, seed: u64) -> SystemConfig {
    let mut cfg = scenarios::shorten(
        SystemConfig::rubbos_baseline(sizes.users),
        SimDuration::from_secs(sizes.trial_secs),
    );
    cfg.seed = seed;
    cfg
}

/// The DB-IO trial: the commit-log flush stalls the database for ≈300 ms
/// every ≈3.5 s, so the run carries real very-short bottlenecks.
pub fn dbio_config(sizes: &Sizes, seed: u64) -> SystemConfig {
    let mut cfg = scenarios::shorten(
        scenarios::calibrated_db_io(sizes.users, 3.5, 300.0),
        SimDuration::from_secs(sizes.trial_secs),
    );
    cfg.seed = seed;
    cfg
}

/// The partitioned engine-only trial, per-cell resources at the baseline
/// shape (cores and workers multiply with the partition count).
pub fn scale_config(sizes: &Sizes, seed: u64) -> SystemConfig {
    let (p, secs) = (sizes.sim_partitions, sizes.sim_secs);
    let mut cfg = SystemConfig::rubbos_baseline(sizes.sim_users);
    cfg.partitions = p;
    for t in &mut cfg.tiers {
        t.cores *= p;
        t.workers *= p as usize;
    }
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(secs / 6);
    cfg.workload.ramp_up = SimDuration::from_secs((secs / 10).max(1));
    cfg.seed = seed;
    cfg
}

/// A small partitioned trial for the shard-identity gate in set-up.
pub fn scale_identity_config(seed: u64) -> SystemConfig {
    scale_config(
        &Sizes {
            sim_users: 1_000,
            sim_partitions: 4,
            sim_secs: 10,
            ..SMOKE
        },
        seed,
    )
}

/// Records a run hands to the monitors.
pub fn record_count(run: &RunOutput) -> usize {
    run.lifecycle.len() + run.messages.len() + run.samples.len()
}

/// One `query_mix` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// 500 ms `ua` range on `event_apache`.
    SqlWindow(SimTime),
    /// Top 100 by `ud` of one interaction.
    SqlTopK(&'static str),
    /// `event_apache JOIN event_mysql ON request_id` inside a 2 s window.
    SqlJoin(SimTime),
    /// `MAX(disk_util) … GROUP BY node` inside a 5 s window of `collectl`.
    SqlGroup(SimTime),
    /// Point-in-time response series.
    Pit,
    /// Queue series of every tier.
    Queues,
    /// One resource series of one node.
    Resource(usize),
    /// Causal-path reconstruction.
    Flows,
    /// The full diagnosis pass.
    Diagnose,
}

/// Window widths of the ranged SQL classes.
pub const WINDOW: SimDuration = SimDuration::from_millis(500);
/// Width of the join window.
pub const JOIN_WINDOW: SimDuration = SimDuration::from_secs(2);
/// Width of the group-by window.
pub const GROUP_WINDOW: SimDuration = SimDuration::from_secs(5);

/// Operations of each class per 300, in class order (`sql_window`,
/// `sql_topk`, `sql_join`, `sql_group`, `pit`, `queues`, `resource`,
/// `flows`, `diagnose`). The `sql_*` classes are 85 % of the mix. The
/// counts are exact, not drawn: only order and parameters depend on the
/// seed, so two seeds time the same amount of each kind of work.
///
/// - The two cheap SQL classes hold 30 % and 35 % of the SQL operations,
///   which puts the SQL median in the middle of one class instead of on
///   the step between two.
/// - `flows` is one in 300: a single reconstruction costs ~110 ms of
///   allocation-bound work that swung ±15 % between identical runs, and
///   at 4 in 300 it was half the job and set the job's spread.
const MIX_PER_300: [usize; 9] = [75, 45, 45, 90, 12, 12, 18, 1, 2];

/// Splits `n` operations over the classes in the proportions of
/// [`MIX_PER_300`], largest remainder first, so the counts sum to `n`;
/// a class the proportions round to nothing still gets one operation
/// (taken from the largest class), so small sequences reach every path.
fn class_counts(n: usize) -> [usize; 9] {
    let mut counts = MIX_PER_300.map(|w| n * w / 300);
    let mut by_remainder: Vec<usize> = (0..9).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse((n * MIX_PER_300[i] % 300, MIX_PER_300[i])));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    for i in 0..9 {
        let largest = (0..9).max_by_key(|&j| counts[j]).unwrap_or(0);
        if counts[i] == 0 && counts[largest] > 1 {
            counts[i] = 1;
            counts[largest] -= 1;
        }
    }
    counts
}

/// Resource series the mix asks for: `(tier, collectl column)`.
pub const RESOURCE_QUERIES: [(usize, &str); 4] = [
    (3, "disk_util"),
    (0, "cpu_user"),
    (1, "mem_dirty"),
    (2, "net_tx_kb"),
];

impl Op {
    /// The class name spans and metrics use.
    pub fn class(&self) -> &'static str {
        match self {
            Op::SqlWindow(_) => "sql_window",
            Op::SqlTopK(_) => "sql_topk",
            Op::SqlJoin(_) => "sql_join",
            Op::SqlGroup(_) => "sql_group",
            Op::Pit => "pit",
            Op::Queues => "queues",
            Op::Resource(_) => "resource",
            Op::Flows => "flows",
            Op::Diagnose => "diagnose",
        }
    }

    /// `true` for the four SQL classes.
    pub fn is_sql(&self) -> bool {
        matches!(
            self,
            Op::SqlWindow(_) | Op::SqlTopK(_) | Op::SqlJoin(_) | Op::SqlGroup(_)
        )
    }

    /// The SQL text of a SQL-class operation.
    pub fn sql(&self) -> Option<String> {
        Some(match self {
            Op::SqlWindow(lo) => window_sql(*lo, WINDOW),
            Op::SqlTopK(interaction) => format!(
                "SELECT request_id, ua, ud FROM event_apache \
                 WHERE interaction = '{interaction}' ORDER BY ud DESC LIMIT 100"
            ),
            Op::SqlJoin(lo) => format!(
                "SELECT request_id, ua, ud FROM event_apache JOIN event_mysql \
                 ON event_apache.request_id = event_mysql.request_id \
                 WHERE ua >= time '{}' AND ua < time '{}'",
                wallclock(*lo),
                wallclock(*lo + JOIN_WINDOW)
            ),
            Op::SqlGroup(lo) => format!(
                "SELECT node, MAX(disk_util) FROM collectl \
                 WHERE time >= time '{}' AND time < time '{}' GROUP BY node",
                wallclock(*lo),
                wallclock(*lo + GROUP_WINDOW)
            ),
            _ => return None,
        })
    }
}

/// `SELECT … FROM event_apache` over `ua ∈ [lo, lo + width)`.
pub fn window_sql(lo: SimTime, width: SimDuration) -> String {
    format!(
        "SELECT request_id, ua, ud FROM event_apache WHERE ua >= time '{}' AND ua < time '{}'",
        wallclock(lo),
        wallclock(lo + width)
    )
}

/// The fixed operation sequence for a seed: exactly [`class_counts`]`(n)`
/// operations of each class, shuffled, window starts uniform over the
/// part of the run that leaves room for the window. `stream` separates
/// independent sequences of one seed (the warm-up and the timed part).
pub fn op_sequence(seed: u64, stream: u64, cfg: &SystemConfig, n: usize) -> Vec<Op> {
    // Streams from 0x51 up keep the sequences independent of the
    // simulator's own use of the same seed.
    let mut rng = SimRng::split(seed, 0x51 + stream);
    let mut classes: Vec<usize> = class_counts(n)
        .iter()
        .enumerate()
        .flat_map(|(class, &count)| std::iter::repeat_n(class, count))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.uniform_u64(0, i as u64) as usize);
    }
    let interaction_weights: Vec<f64> = INTERACTIONS.iter().map(|s| s.weight).collect();
    let end_us = cfg.end_time().as_micros();
    let start = |rng: &mut SimRng, width: SimDuration| {
        let room = end_us.saturating_sub(width.as_micros()).max(1);
        // Millisecond-aligned so the literal prints without loss.
        SimTime::from_micros(rng.uniform_u64(0, room) / 1000 * 1000)
    };
    classes
        .into_iter()
        .map(|class| match class {
            0 => Op::SqlWindow(start(&mut rng, WINDOW)),
            1 => Op::SqlTopK(INTERACTIONS[rng.weighted_index(&interaction_weights)].name),
            2 => Op::SqlJoin(start(&mut rng, JOIN_WINDOW)),
            3 => Op::SqlGroup(start(&mut rng, GROUP_WINDOW)),
            4 => Op::Pit,
            5 => Op::Queues,
            6 => Op::Resource(rng.uniform_u64(0, RESOURCE_QUERIES.len() as u64 - 1) as usize),
            7 => Op::Flows,
            _ => Op::Diagnose,
        })
        .collect()
}

/// Reference answers computed from the generated run, without going near
/// the warehouse: what the front tier's event table must hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// `ua` (µs) of every request the front tier logged, ascending. A
    /// request is logged when it departs upstream, so this is one entry
    /// per `event_apache` row.
    front_ua_us: Vec<u64>,
    /// Front-tier rows per interaction name.
    by_interaction: HashMap<&'static str, usize>,
    /// Sample times (µs) per node, ascending.
    sample_times_us: Vec<Vec<u64>>,
}

impl Reference {
    /// Scans the run's lifecycle and sample streams.
    pub fn from_run(run: &RunOutput) -> Reference {
        let mut arrivals: HashMap<_, u64> = HashMap::new();
        let mut front_ua_us = Vec::new();
        let mut by_interaction: HashMap<&'static str, usize> = HashMap::new();
        for ev in run.lifecycle.iter().filter(|ev| ev.node.tier.0 == 0) {
            match ev.boundary {
                BoundaryKind::UpstreamArrival => {
                    arrivals.insert(ev.request, ev.time.as_micros());
                }
                BoundaryKind::UpstreamDeparture => {
                    if let Some(ua) = arrivals.remove(&ev.request) {
                        front_ua_us.push(ua);
                        *by_interaction
                            .entry(ev.interaction.spec().name)
                            .or_default() += 1;
                    }
                }
                _ => {}
            }
        }
        front_ua_us.sort_unstable();
        let mut per_node: HashMap<_, Vec<u64>> = HashMap::new();
        for s in &run.samples {
            per_node.entry(s.node).or_default().push(s.time.as_micros());
        }
        let mut sample_times_us: Vec<Vec<u64>> = per_node.into_values().collect();
        for t in &mut sample_times_us {
            t.sort_unstable();
        }
        Reference {
            front_ua_us,
            by_interaction,
            sample_times_us,
        }
    }

    /// Rows the front tier's event table must hold.
    pub fn front_rows(&self) -> usize {
        self.front_ua_us.len()
    }

    /// Front-tier rows with `ua ∈ [lo, lo + width)`.
    pub fn front_rows_in(&self, lo: SimTime, width: SimDuration) -> usize {
        in_range(&self.front_ua_us, lo, width)
    }

    /// Rows `Op::SqlTopK` must return for an interaction.
    pub fn topk_rows(&self, interaction: &str) -> usize {
        self.by_interaction
            .get(interaction)
            .copied()
            .unwrap_or(0)
            .min(100)
    }

    /// Nodes with at least one resource sample in `[lo, lo + width)` —
    /// the groups `Op::SqlGroup` must return.
    pub fn nodes_sampled_in(&self, lo: SimTime, width: SimDuration) -> usize {
        self.sample_times_us
            .iter()
            .filter(|t| in_range(t, lo, width) > 0)
            .count()
    }

    /// The row count an operation must produce, where the run determines
    /// it; `None` for classes checked another way.
    pub fn expected_rows(&self, op: &Op) -> Option<usize> {
        match op {
            Op::SqlWindow(lo) => Some(self.front_rows_in(*lo, WINDOW)),
            Op::SqlTopK(interaction) => Some(self.topk_rows(interaction)),
            Op::SqlGroup(lo) => Some(self.nodes_sampled_in(*lo, GROUP_WINDOW)),
            Op::Flows => Some(self.front_rows()),
            _ => None,
        }
    }
}

fn in_range(sorted_us: &[u64], lo: SimTime, width: SimDuration) -> usize {
    let (lo, hi) = (lo.as_micros(), (lo + width).as_micros());
    sorted_us.partition_point(|&t| t < hi) - sorted_us.partition_point(|&t| t < lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let cfg = dbio_config(&SMOKE, 11);
        assert_eq!(cfg, dbio_config(&SMOKE, 11));
        assert_eq!(cfg.seed, 11);
        assert_ne!(cfg, dbio_config(&SMOKE, 12));
        assert_eq!(op_sequence(11, 0, &cfg, 200), op_sequence(11, 0, &cfg, 200));
        assert_ne!(op_sequence(11, 0, &cfg, 200), op_sequence(12, 0, &cfg, 200));
        assert_ne!(op_sequence(11, 0, &cfg, 200), op_sequence(11, 1, &cfg, 200));
    }

    #[test]
    fn class_counts_are_exact_for_every_seed() {
        assert_eq!(class_counts(1500), [375, 225, 225, 450, 60, 60, 90, 5, 10]);
        assert_eq!(class_counts(300), MIX_PER_300);
        // Small sequences still sum to `n` and keep every class.
        for n in [40, SMOKE.query_ops] {
            let small = class_counts(n);
            assert_eq!(small.iter().sum::<usize>(), n);
            assert!(small.iter().all(|&c| c >= 1), "{small:?}");
        }
        let cfg = dbio_config(&FULL, 1);
        for seed in [1, 2] {
            let ops = op_sequence(seed, 0, &cfg, 1500);
            let sql = ops.iter().filter(|o| o.is_sql()).count();
            assert_eq!(sql, 1275, "the sql_* classes are 85 % of the mix");
            assert_eq!(ops.iter().filter(|o| matches!(o, Op::Flows)).count(), 5);
            assert_eq!(ops.iter().filter(|o| matches!(o, Op::Diagnose)).count(), 10);
            // Shuffled, not grouped by class.
            assert!(
                ops.windows(2)
                    .filter(|w| w[0].class() != w[1].class())
                    .count()
                    > 500
            );
            for op in &ops {
                if let Op::SqlGroup(lo) = op {
                    assert!(*lo + GROUP_WINDOW <= cfg.end_time());
                }
            }
        }
    }

    #[test]
    fn configs_validate() {
        for cfg in [
            batch_config(&FULL, 3),
            dbio_config(&FULL, 3),
            scale_config(&FULL, 3),
            scale_config(&SMOKE, 3),
            scale_identity_config(3),
        ] {
            cfg.validate().unwrap();
        }
    }
}
