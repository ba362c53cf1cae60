//! Causal-path exploration (paper §IV-B, Fig. 5): reconstruct every
//! request's execution path by joining the four timestamps across tiers on
//! the propagated request ID, then break the slowest requests down into
//! per-tier latency contributions.
//!
//! ```text
//! cargo run --release --example request_flows
//! ```

use milliscope::core::scenarios::{calibrated_db_io, shorten};
use milliscope::core::{Experiment, MilliScope};
use milliscope::sim::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Use scenario A so some requests are genuinely slow.
    let cfg = shorten(
        calibrated_db_io(400, 3.0, 250.0),
        SimDuration::from_secs(20),
    );
    let output = Experiment::new(cfg)?.run();
    let ms = MilliScope::ingest(&output)?;

    let mut flows = ms.flows()?;
    println!(
        "reconstructed {} request flows from the event logs",
        flows.len()
    );

    // Happens-before holds on every path — the §IV-B guarantee.
    let violations = flows.iter().filter(|f| !f.is_causally_ordered()).count();
    println!("happens-before violations: {violations}");

    // The slowest five requests, with per-tier latency breakdown.
    flows.sort_by(|a, b| {
        b.response_time_ms()
            .unwrap_or(0.0)
            .total_cmp(&a.response_time_ms().unwrap_or(0.0))
    });
    let kinds = ms.tier_kinds();
    println!("\nslowest requests (per-tier local latency, ms):");
    println!(
        "{:>14} {:>18} {:>9} | {:>8} {:>8} {:>8} {:>8}",
        "request",
        "interaction",
        "total",
        kinds[0].to_string(),
        kinds[1].to_string(),
        kinds[2].to_string(),
        kinds[3].to_string()
    );
    for f in flows.iter().take(5) {
        let mut per_tier = [f64::NAN; 4];
        for (tier, local) in f.contributions() {
            per_tier[tier] = local;
        }
        let fmt = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.1}")
            }
        };
        println!(
            "{:>14} {:>18} {:>9.1} | {:>8} {:>8} {:>8} {:>8}",
            f.request_id(),
            f.interaction(),
            f.response_time_ms().unwrap_or(0.0),
            fmt(per_tier[0]),
            fmt(per_tier[1]),
            fmt(per_tier[2]),
            fmt(per_tier[3]),
        );
    }

    // Render the slowest request as the paper's Fig. 5 execution map.
    if let Some(slowest) = flows.first() {
        println!("\nexecution map of the slowest request (paper Fig. 5):");
        print!("{}", slowest.render_ascii(76));
    }

    // Which tier dominates the slow requests? (Spoiler: the database —
    // its commit stalls hold the whole pipeline.)
    let slow: Vec<_> = flows
        .iter()
        .filter(|f| f.response_time_ms().unwrap_or(0.0) > 10.0 * 5.0)
        .collect();
    let mut dominated = [0usize; 4];
    for f in &slow {
        if let Some(t) = f.dominant_tier() {
            dominated[t] += 1;
        }
    }
    println!("\ndominant tier among the {} slowest requests:", slow.len());
    for (tier, count) in dominated.iter().enumerate() {
        println!("  {:<8} {count}", kinds[tier].to_string());
    }
    Ok(())
}
