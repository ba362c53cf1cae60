//! Streaming ingestion spine bench: sustained events/sec through the
//! one-thread loop of `MilliScope::run_streaming` — the run's records
//! replayed in place → monitors → incremental transformer → mScopeDB —
//! against the batch render-then-transform path over the same records.
//!
//! Before any number is reported, an identity stage runs: a small trial
//! is streamed at chunk sizes {64, 4096} × worker counts {1, p} and each
//! resulting handle must agree with the batch oracle on the transform
//! report, the PIT series, and every per-tier queue series. Only
//! equivalent pipelines get timed.
//!
//! ```text
//! cargo bench -p mscope-bench --bench stream_ingest -- [--smoke] [--out PATH]
//! ```
//!
//! Writes a `BENCH_stream.json` summary. The tracked headline metric is
//! `throughput_vs_batch` — the batch path's wall over streaming's at the
//! host's worker count, the median of per-round ratios of interleaved
//! rounds ([`mscope_bench::harness`]) — a dimensionless ratio robust to
//! runner speed (absolute events/sec is recorded alongside for context,
//! not tracked).

use mscope_bench::harness::{interleave, Bench};
use mscope_core::{MilliScope, RunOptions};
use mscope_monitors::MonitorSuite;
use mscope_ntier::{RunOutput, Simulator, SystemConfig};
use mscope_serdes::Json;
use mscope_sim::SimDuration;

fn sim_run(users: u32, secs: u64) -> RunOutput {
    let mut cfg = SystemConfig::rubbos_baseline(users);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.workload.ramp_up = SimDuration::from_secs(1);
    Simulator::new(cfg).expect("valid config").run()
}

/// The batch oracle path over the same records the stream consumes:
/// render every log to completion, then transform the finished files.
fn batch_ingest(run: &RunOutput) -> MilliScope {
    let art = MonitorSuite::standard(&run.config).render(run);
    MilliScope::from_parts_with(
        run.config.clone(),
        &art.store,
        &art.manifest,
        art.sysviz,
        RunOptions::default(),
    )
    .expect("batch ingest")
}

fn main() {
    let bench = Bench::from_args("stream_ingest", "BENCH_stream.json");
    let smoke = bench.smoke;
    let p = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Smoke legs are 0.05–0.1 s; a shared 2-core host stalls some rounds,
    // and the median over nine rounds outvotes them.
    let samples = if smoke { 9 } else { 5 };
    let (users, secs) = if smoke { (800u32, 60u64) } else { (2000, 120) };
    eprintln!("  {users} users, {secs}s trial, host has {p} cores, {samples} rounds");

    // ---- Stage 1: streaming ≡ batch identity on a small trial.
    let small = sim_run(40, 4);
    let oracle = batch_ingest(&small);
    let w = SimDuration::from_millis(50);
    for chunk in [64usize, 4096] {
        for workers in [1usize, p] {
            let ms = MilliScope::run_streaming(&small, chunk, workers).expect("streaming ingest");
            assert_eq!(
                ms.transform_report(),
                oracle.transform_report(),
                "report drift at chunk={chunk} workers={workers}"
            );
            assert_eq!(
                ms.pit(w).expect("pit"),
                oracle.pit(w).expect("pit"),
                "PIT drift at chunk={chunk} workers={workers}"
            );
            assert_eq!(
                ms.all_queues(w).expect("queues"),
                oracle.all_queues(w).expect("queues"),
                "queue drift at chunk={chunk} workers={workers}"
            );
        }
    }
    eprintln!("  identity: streaming == batch at chunks {{64, 4096}} x workers {{1, {p}}}");

    // ---- Stage 2: the timed trial.
    let run = sim_run(users, secs);
    let events = run.lifecycle.len() + run.messages.len() + run.samples.len();
    eprintln!("  {events} records to ingest");

    // The legs, in round order: batch (0 workers here), then streaming at
    // one worker and at the host's `p`; one streaming leg on a one-core
    // host. The headline compares batch with the last.
    let chunk = 4096usize;
    let mut variants = vec![
        ("batch_render_ingest".to_string(), 0),
        ("stream_w1".into(), 1),
    ];
    if p > 1 {
        variants.push((format!("stream_w{p}"), p));
    }
    let legs = interleave(samples, variants.len(), |leg| {
        let ms = match variants[leg].1 {
            0 => batch_ingest(&run),
            workers => MilliScope::run_streaming(&run, chunk, workers).expect("streaming ingest"),
        };
        ms.transform_report().entries
    });
    assert!(
        legs.outputs.iter().all(|&n| n == legs.outputs[0]),
        "legs ingested different entry counts: {:?}",
        legs.outputs
    );
    let streamed = variants.len() - 1;
    let events_per_sec = events as f64 / legs.median(streamed);
    let throughput_vs_batch = legs.ratio(0, streamed);
    // Incremental polling must stay in the same league as batch; a
    // collapse here means per-poll overhead stopped amortizing.
    assert!(
        throughput_vs_batch > 0.1,
        "streaming fell to {throughput_vs_batch:.2}x of batch throughput"
    );

    let per_variant: Vec<Json> = variants
        .iter()
        .enumerate()
        .map(|(leg, (name, _))| {
            let secs_wall = legs.median(leg);
            eprintln!(
                "  {name}: median {secs_wall:.3}s ({:.2}M events/sec)",
                events as f64 / secs_wall / 1e6
            );
            Json::obj([
                ("variant", Json::Str(name.clone())),
                ("median_seconds", Json::Float(secs_wall)),
                ("events_per_sec", Json::Float(events as f64 / secs_wall)),
            ])
        })
        .collect();
    eprintln!(
        "  sustained {:.2}M events/sec, {throughput_vs_batch:.2}x of batch",
        events_per_sec / 1e6
    );
    bench.write(
        samples,
        vec![
            ("users", Json::Int(users as i128)),
            ("trial_seconds", Json::Int(secs as i128)),
            ("host_cores", Json::Int(p as i128)),
            ("chunk", Json::Int(chunk as i128)),
            ("events", Json::Int(events as i128)),
            ("identity_checked", Json::Bool(true)),
            ("results", Json::Arr(per_variant)),
            ("events_per_sec", Json::Float(events_per_sec)),
            ("throughput_vs_batch", Json::Float(throughput_vs_batch)),
        ],
    );
}
