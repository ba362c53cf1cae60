//! Streaming ingestion spine bench: sustained events/sec through
//! monitors → bounded `RecordStream` → incremental transformer →
//! mScopeDB, against the batch render-then-transform path over the same
//! records.
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
//! `throughput_vs_batch` — streaming wall vs the batch path's wall on the
//! same machine — a dimensionless ratio robust to runner speed (absolute
//! events/sec is recorded alongside for context, not tracked).

use mscope_core::{MilliScope, RunOptions};
use mscope_monitors::MonitorSuite;
use mscope_ntier::{RunOutput, Simulator, SystemConfig};
use mscope_serdes::Json;
use mscope_sim::SimDuration;
use std::time::Instant;

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

fn best_of<F: FnMut() -> MilliScope>(samples: usize, mut f: F) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        let ms = f();
        best = best.min(start.elapsed().as_secs_f64());
        drop(ms);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json").to_string()
        });
    let p = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Smoke legs are 0.1–0.16 s: with best-of-3 on a shared 2-core host
    // `throughput_vs_batch` read 0.62–0.83 run to run against a 0.64
    // floor. Nine samples per leg cost smoke ~2 s.
    let samples = if smoke { 9 } else { 5 };
    let (users, secs) = if smoke { (800u32, 60u64) } else { (2000, 120) };

    eprintln!(
        "## stream_ingest ({}, {users} users, {secs}s trial, host has {p} cores)",
        if smoke { "smoke" } else { "full" }
    );

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

    let chunk = 4096usize;
    let batch_secs = best_of(samples, || batch_ingest(&run));
    eprintln!("  batch_render_ingest: best {batch_secs:.3}s");
    let mut results: Vec<(String, f64)> = vec![("batch_render_ingest".into(), batch_secs)];
    let mut stream_best = f64::MAX;
    for workers in [1usize, p] {
        let secs_wall = best_of(samples, || {
            MilliScope::run_streaming(&run, chunk, workers).expect("streaming ingest")
        });
        eprintln!(
            "  stream_w{workers}: best {secs_wall:.3}s ({:.2}M events/sec)",
            events as f64 / secs_wall / 1e6
        );
        results.push((format!("stream_w{workers}"), secs_wall));
        stream_best = stream_best.min(secs_wall);
        if workers == p && p == 1 {
            break; // single-core host: the two streaming variants coincide
        }
    }

    let events_per_sec = events as f64 / stream_best;
    let throughput_vs_batch = batch_secs / stream_best;
    // Incremental polling must stay in the same league as batch; a
    // collapse here means per-poll overhead stopped amortizing.
    assert!(
        throughput_vs_batch > 0.1,
        "streaming fell to {throughput_vs_batch:.2}x of batch throughput"
    );

    let per_variant: Vec<Json> = results
        .iter()
        .map(|(name, secs_wall)| {
            Json::obj([
                ("variant", Json::Str(name.clone())),
                ("best_seconds", Json::Float(*secs_wall)),
                ("events_per_sec", Json::Float(events as f64 / secs_wall)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("bench", Json::Str("stream_ingest".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("samples", Json::Int(samples as i128)),
        ("users", Json::Int(users as i128)),
        ("trial_seconds", Json::Int(secs as i128)),
        ("host_cores", Json::Int(p as i128)),
        ("chunk", Json::Int(chunk as i128)),
        ("events", Json::Int(events as i128)),
        ("identity_checked", Json::Bool(true)),
        ("results", Json::Arr(per_variant)),
        ("events_per_sec", Json::Float(events_per_sec)),
        ("throughput_vs_batch", Json::Float(throughput_vs_batch)),
    ]);
    let text = mscope_serdes::to_string_pretty(&doc);
    std::fs::write(&out_path, &text).expect("write bench output");
    eprintln!(
        "  sustained {:.2}M events/sec, {throughput_vs_batch:.2}x of batch -> {out_path}",
        events_per_sec / 1e6
    );
}
