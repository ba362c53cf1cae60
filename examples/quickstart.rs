//! Quickstart: run a small RUBBoS experiment under milliScope, ingest the
//! monitor logs, and look around.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use milliscope::core::{Experiment, MilliScope};
use milliscope::db::AggFn;
use milliscope::ntier::SystemConfig;
use milliscope::sim::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-tier RUBBoS deployment (Apache → Tomcat → C-JDBC → MySQL) with
    // 300 emulated users, shortened from the paper's 7-minute trial.
    let mut cfg = SystemConfig::rubbos_baseline(300);
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(4);
    cfg.workload.ramp_up = SimDuration::from_secs(2);

    // Run the system under the standard milliScope monitor suite:
    // event monitors on every tier, Collectl/SAR/IOstat resource monitors,
    // and the passive SysViz-style network tap.
    println!(
        "running experiment ({} users, {} s measured)…",
        cfg.workload.users,
        cfg.duration.as_secs_f64()
    );
    let output = Experiment::new(cfg)?.run();
    println!(
        "  completed {} requests, {:.1} req/s, mean RT {:.2} ms",
        output.run.stats.completed, output.run.stats.throughput_rps, output.run.stats.mean_rt_ms
    );
    println!(
        "  monitors wrote {} log files, {:.1} KiB total",
        output.artifacts.store.len(),
        output.artifacts.store.total_bytes() as f64 / 1024.0
    );

    // Ingest: parsing declarations → mScopeParsers → schema inference →
    // typed columns → mScopeDB.
    let ms = MilliScope::ingest(&output)?;
    let report = ms.transform_report();
    println!(
        "ingested {} files / {} entries into {} tables:",
        report.files,
        report.entries,
        report.tables.len()
    );
    for (table, rows) in &report.tables {
        println!("  {table:<16} {rows:>8} rows");
    }

    // Ask milliScope the paper's first question: what does the
    // Point-in-Time response time look like at 50 ms granularity?
    let pit = ms.pit(SimDuration::from_millis(50))?;
    let peak = pit.peak().expect("requests completed");
    println!(
        "PIT response time: mean {:.2} ms, peak window max {:.2} ms at t={:.1} s",
        pit.overall_mean_ms(),
        peak.max_ms,
        peak.start_us as f64 / 1e6
    );

    // And a resource question through the warehouse: how busy was each
    // tier's disk on average?
    for (tier, kind) in ms.tier_kinds().into_iter().enumerate() {
        let node = &ms.tier_nodes(tier)[0];
        let disk = ms.resource(node, "disk_util", SimDuration::from_secs(1), AggFn::Mean)?;
        let mean = disk.values().iter().sum::<f64>() / disk.values().len().max(1) as f64;
        println!("  {kind:<8} mean disk util {mean:>5.2} %");
    }

    println!("ok — see examples/diagnose_db_io.rs for a full investigation");
    Ok(())
}
