//! Workload-calibrated scenario constructors.
//!
//! The presets in [`SystemConfig`] carry the paper-nominal parameters for
//! the 8000-user, 7-minute trials. Reproducing the same *shapes* at other
//! scales (quick tests, laptop-sized figure regeneration) requires scaling
//! the triggers with the offered load — a commit-log buffer that fills
//! every ~3.5 s at 8000 users would never fill during a 20-second test at
//! 400 users. These constructors derive the trigger parameters from the
//! workload so the episode *rate* and *duration* match the paper at any
//! scale.

use mscope_ntier::{RwKind, SystemConfig, TierKind, INTERACTIONS};
use mscope_sim::SimDuration;

/// Fraction of requests that are writes under the default RUBBoS mix.
pub fn write_fraction() -> f64 {
    let write: f64 = INTERACTIONS
        .iter()
        .filter(|s| s.rw == RwKind::Write)
        .map(|s| s.weight)
        .sum();
    let total: f64 = INTERACTIONS.iter().map(|s| s.weight).sum();
    write / total
}

/// Offered request rate (req/s) of a closed-loop population, ignoring
/// service time (think time dominates at RUBBoS scales).
pub fn offered_rps(cfg: &SystemConfig) -> f64 {
    cfg.workload.users as f64 / cfg.workload.think_time.as_secs_f64()
}

/// Scenario A calibrated to the workload: the MySQL commit-log buffer fills
/// every ≈`period_secs`, and each flush stalls the database for
/// ≈`stall_ms` milliseconds — the paper's "hundreds of milliseconds" VSB.
pub fn calibrated_db_io(users: u32, period_secs: f64, stall_ms: f64) -> SystemConfig {
    assert!(
        period_secs > 0.0 && stall_ms > 0.0,
        "calibration must be positive"
    );
    let mut cfg = SystemConfig::scenario_db_io(users);
    let commit_rate = offered_rps(&cfg) * write_fraction() * cfg.tiers[3].commit_bytes as f64;
    let lf = cfg.tiers[3]
        .log_flush
        .as_mut()
        .expect("scenario A always has a flush config");
    #[expect(
        clippy::cast_sign_loss,
        reason = "a rate times a period asserted positive"
    )]
    let threshold = (commit_rate * period_secs) as u64;
    lf.buffer_threshold = threshold.max(8192);
    lf.flush_rate = (lf.buffer_threshold as f64 / (stall_ms / 1000.0)).max(1.0);
    cfg
}

/// Scenario B calibrated to the workload: Apache's dirty pages force a
/// recycle every ≈`apache_period_secs` and Tomcat's every
/// ≈`tomcat_period_secs`, each storm saturating the CPU for ≈`storm_ms`.
/// The differing periods are what make the two Fig. 8 peaks distinct.
pub fn calibrated_dirty_page(
    users: u32,
    apache_period_secs: f64,
    tomcat_period_secs: f64,
    storm_ms: f64,
) -> SystemConfig {
    assert!(
        apache_period_secs > 0.0 && tomcat_period_secs > 0.0 && storm_ms > 0.0,
        "calibration must be positive"
    );
    let mut cfg = SystemConfig::scenario_dirty_page(users);
    let rps = offered_rps(&cfg);
    let monitor_bytes = if cfg.monitoring.event_monitors {
        cfg.monitoring.per_record_bytes
    } else {
        0
    };
    for t in &mut cfg.tiers {
        let period = match t.kind {
            TierKind::Apache => apache_period_secs,
            TierKind::Tomcat => tomcat_period_secs,
            _ => continue,
        };
        let dirty_rate = rps * (t.base_log_bytes + monitor_bytes) as f64;
        #[expect(
            clippy::cast_sign_loss,
            reason = "a rate times a period asserted positive"
        )]
        let high = ((dirty_rate * period) as u64).max(64 << 10);
        t.memory.dirty_high_bytes = high;
        t.memory.dirty_low_bytes = high / 20;
        let drained = high - t.memory.dirty_low_bytes;
        t.memory.recycle_rate = (drained as f64 / (storm_ms / 1000.0)).max(1.0);
    }
    cfg
}

/// Shortens a config's run to `measured` seconds with proportionate warm-up
/// and ramp — the common adjustment for tests and quick figure runs.
#[expect(
    clippy::cast_sign_loss,
    reason = "both second counts are clamped to positive ranges"
)]
pub fn shorten(mut cfg: SystemConfig, measured: SimDuration) -> SystemConfig {
    cfg.duration = measured;
    cfg.warmup = SimDuration::from_secs((measured.as_secs_f64() * 0.2).clamp(2.0, 15.0) as u64);
    cfg.workload.ramp_up =
        SimDuration::from_secs((measured.as_secs_f64() * 0.1).clamp(1.0, 10.0) as u64);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiagnoseOptions, Experiment, MilliScope};

    #[test]
    fn write_fraction_matches_mix() {
        let f = write_fraction();
        assert!((0.05..0.20).contains(&f), "write fraction {f}");
    }

    #[test]
    fn calibrated_db_io_scales_with_users() {
        let small = calibrated_db_io(400, 3.5, 300.0);
        let big = calibrated_db_io(8000, 3.5, 300.0);
        let ts = small.tiers[3].log_flush.as_ref().unwrap().buffer_threshold;
        let tb = big.tiers[3].log_flush.as_ref().unwrap().buffer_threshold;
        let ratio = tb as f64 / ts as f64;
        assert!(
            (ratio - 20.0).abs() < 1.0,
            "threshold ratio {ratio} ≈ users ratio"
        );
        assert!(small.validate().is_ok());
        assert!(big.validate().is_ok());
    }

    #[test]
    fn calibrated_db_io_produces_periodic_stalls() {
        let cfg = shorten(
            calibrated_db_io(400, 3.0, 250.0),
            SimDuration::from_secs(20),
        );
        let out = Experiment::new(cfg).unwrap().run();
        let ms = MilliScope::ingest(&out).unwrap();
        let report = ms.diagnose(&DiagnoseOptions::default()).unwrap();
        // ~20 s / 3 s period → expect several episodes.
        assert!(
            report.episodes.len() >= 3,
            "expected periodic episodes, got {}",
            report.episodes.len()
        );
        for ep in &report.episodes {
            // Duration in the right ballpark (episodes merge adjacent
            // windows, so allow generous bounds around 250 ms).
            assert!(
                ep.episode.duration_ms() <= 900.0,
                "{}",
                ep.episode.duration_ms()
            );
        }
    }

    #[test]
    fn calibrated_dirty_page_has_two_distinct_periods() {
        let cfg = calibrated_dirty_page(400, 2.5, 4.0, 300.0);
        let apache_high = cfg.tiers[0].memory.dirty_high_bytes;
        let tomcat_high = cfg.tiers[1].memory.dirty_high_bytes;
        assert!(
            tomcat_high > apache_high,
            "longer period → bigger threshold"
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn shorten_clamps_sanely() {
        let cfg = shorten(
            SystemConfig::rubbos_baseline(100),
            SimDuration::from_secs(10),
        );
        assert_eq!(cfg.duration, SimDuration::from_secs(10));
        assert_eq!(cfg.warmup, SimDuration::from_secs(2));
        let long = shorten(
            SystemConfig::rubbos_baseline(100),
            SimDuration::from_secs(400),
        );
        assert_eq!(long.warmup, SimDuration::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "calibration must be positive")]
    fn bad_calibration_panics() {
        calibrated_db_io(100, 0.0, 100.0);
    }
}
