//! Sharded n-tier simulator scale bench: drives the partitioned engine
//! toward the million-user regime and measures how event throughput
//! scales with the shard (worker thread) count.
//!
//! Before any number is reported, two identity stages run:
//!
//! 1. **Stream identity** — a small partitioned trial is executed with
//!    full retention at shard counts {1, 2, 4}; every stream (requests,
//!    lifecycle, messages, samples) and all four digests must be
//!    byte-identical, and digest retention must reproduce the full-mode
//!    digests exactly.
//! 2. **Scale identity** — the big trial is run under digest retention at
//!    every timed shard count {1, 2, 4, 8}; the digests must agree.
//!
//! Then a shorter trial at the same population is timed in interleaved
//! rounds, one leg per shard count, each run's digests checked against the
//! serial engine's. Each speedup is the median of the per-round ratios
//! ([`mscope_bench::harness`]); `shard_overhead` is the one at two shards.
//!
//! ```text
//! cargo bench -p mscope-bench --bench sim_scale -- [--smoke] [--out PATH]
//! ```
//!
//! Smoke mode (CI) checks a 100k-user, 60 s trial over 8 partitions and
//! times a 5 s one; full mode scales to 1M users. The ≥2.5x events/sec
//! gate at 4+ shards is enforced whenever the host has at least 4 cores
//! (`host_cores` in the summary).

use mscope_bench::harness::{interleave, Bench};
use mscope_ntier::{Retention, RunOutput, SimOptions, Simulator, SystemConfig};
use mscope_serdes::Json;
use mscope_sim::SimDuration;

/// A partitioned trial scaled so per-cell resources stay at the baseline
/// shape: cores and workers multiply with the partition count.
fn scale_cfg(users: u32, partitions: u32, secs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::rubbos_baseline(users);
    cfg.partitions = partitions;
    for t in &mut cfg.tiers {
        t.cores *= partitions;
        t.workers *= partitions as usize;
    }
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(secs / 6);
    cfg.workload.ramp_up = SimDuration::from_secs((secs / 10).max(1));
    cfg
}

fn run(cfg: &SystemConfig, shards: usize, retention: Retention) -> RunOutput {
    Simulator::new(cfg.clone())
        .expect("bench config is valid")
        .run_with(&SimOptions { shards, retention })
}

fn main() {
    let bench = Bench::from_args("sim_scale", "BENCH_sim.json");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The scale identity trial, then the shorter timed trial: each timed
    // round runs it at every shard count, so its length times the rounds
    // is what a smoke run pays.
    let (users, partitions, secs, timed_secs, samples) = if bench.smoke {
        (100_000u32, 8u32, 60u64, 5u64, 9usize)
    } else {
        (1_000_000, 8, 180, 60, 5)
    };
    eprintln!(
        "  {users} users, {partitions} partitions, {secs}s identity trial, {timed_secs}s \
         timed trial x {samples} rounds, host has {host_cores} cores"
    );

    // ---- Stage 1: stream identity on a small partitioned trial.
    let small = scale_cfg(2_000, 4, 10);
    let reference = run(&small, 1, Retention::Full);
    let mut streams_identical = true;
    for shards in [2usize, 4] {
        let got = run(&small, shards, Retention::Full);
        assert_eq!(
            got.digest, reference.digest,
            "digest drift at {shards} shards"
        );
        assert_eq!(
            got.requests, reference.requests,
            "request drift at {shards} shards"
        );
        assert_eq!(
            got.lifecycle, reference.lifecycle,
            "lifecycle drift at {shards} shards"
        );
        assert_eq!(
            got.messages, reference.messages,
            "message drift at {shards} shards"
        );
        assert_eq!(
            got.samples, reference.samples,
            "sample drift at {shards} shards"
        );
        streams_identical &= got.digest == reference.digest;
    }
    let digest_mode = run(&small, 4, Retention::Digest);
    assert_eq!(
        digest_mode.digest, reference.digest,
        "digest retention must reproduce full-mode digests"
    );
    assert_eq!(digest_mode.stats.completed, reference.stats.completed);
    eprintln!(
        "  identity: streams byte-identical at shards {{1,2,4}}; digest retention matches \
         ({} requests, {} events)",
        reference.stats.issued, reference.stats.sim_events
    );

    // ---- Stage 2: scale identity, the big trial under digest retention
    // (full retention at this size would measure the allocator) at every
    // shard count.
    let shard_counts = [1usize, 2, 4, 8];
    let big = scale_cfg(users, partitions, secs);
    let big_digest = run(&big, 1, Retention::Digest).digest;
    for &shards in &shard_counts[1..] {
        assert_eq!(
            run(&big, shards, Retention::Digest).digest,
            big_digest,
            "scale trial digest drift at {shards} shards"
        );
    }
    eprintln!("  scale identity: digests agree at shards {shard_counts:?}");

    // ---- Stage 3: the timed trial, one leg per shard count, every run
    // digest-checked against the first.
    let timed = scale_cfg(users, partitions, timed_secs);
    let mut reference = None;
    let legs = interleave(samples, shard_counts.len(), |leg| {
        let shards = shard_counts[leg];
        let out = run(&timed, shards, Retention::Digest);
        assert_eq!(
            out.digest,
            *reference.get_or_insert(out.digest),
            "timed trial digest drift at {shards} shards"
        );
        out.stats.sim_events as usize
    });
    let events = legs.outputs[0];
    // What sharding costs (or buys) at its smallest step: the serial
    // engine's time over two shards'.
    let shard_overhead = legs.ratio(0, 1);
    // The parallel gate needs parallel hardware: enforce on 4+ cores (CI
    // runners qualify), record the measurement either way.
    if host_cores >= 4 {
        let s4 = legs.ratio(0, 2).max(legs.ratio(0, 3));
        assert!(
            s4 >= 2.5,
            "expected >=2.5x events/sec at 4+ shards, measured {s4:.2}x"
        );
    }

    let per_shard: Vec<Json> = shard_counts
        .iter()
        .enumerate()
        .map(|(leg, &shards)| {
            let wall = legs.median(leg);
            eprintln!(
                "  shards={shards}: median {wall:.3}s, {events} events ({:.2}M events/sec), \
                 {:.2}x serial",
                events as f64 / wall / 1e6,
                legs.ratio(0, leg)
            );
            Json::obj([
                ("shards", Json::Int(shards as i128)),
                ("seconds", Json::Float(wall)),
                ("events", Json::Int(events as i128)),
                ("events_per_sec", Json::Float(events as f64 / wall)),
                ("speedup_vs_serial", Json::Float(legs.ratio(0, leg))),
            ])
        })
        .collect();
    bench.write(
        samples,
        vec![
            ("users", Json::Int(users as i128)),
            ("partitions", Json::Int(partitions as i128)),
            ("trial_seconds", Json::Int(timed_secs as i128)),
            ("host_cores", Json::Int(host_cores as i128)),
            ("streams_identical", Json::Bool(streams_identical)),
            ("digest_retention_identical", Json::Bool(true)),
            ("scale_digest_identical", Json::Bool(true)),
            ("results", Json::Arr(per_shard)),
            ("shard_overhead", Json::Float(shard_overhead)),
        ],
    );
}
