//! Golden [`RunDigest`]s: the four stream digests of two small seeded
//! trials, pinned to exact words.
//!
//! `tests/sharding.rs` and the engine's own suites hold the streams equal
//! *between* shard counts and retention modes of one build; nothing there
//! notices if an engine change shifts every stream at once. These values
//! do. A change to event order, an RNG draw, a folded field or the fold
//! itself must show up here as a deliberate diff.

use mscope_ntier::{
    InjectorSpec, QueueDiscipline, Retention, RunDigest, SimOptions, Simulator, SystemConfig,
};
use mscope_sim::SimDuration;

/// Closed loop, one cell, cFCFS: the DB-IO scenario shrunk so the commit
/// log flushes (and stalls commits and reads) several times in six
/// seconds, plus a stop-the-world GC on the Tomcat tier.
fn closed_loop_db_io() -> SystemConfig {
    let mut cfg = SystemConfig::scenario_db_io(300);
    cfg.seed = 77;
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.workload.ramp_up = SimDuration::from_secs(1);
    for t in &mut cfg.tiers {
        if let Some(flush) = &mut t.log_flush {
            flush.buffer_threshold = 64 << 10;
            flush.flush_rate = 2e6;
        }
    }
    cfg.injectors.push(InjectorSpec::GcPause {
        tier: 1,
        period: SimDuration::from_secs(3),
        pause: SimDuration::from_millis(200),
    });
    cfg
}

/// Open loop, three cells, bursty arrivals, dFCFS on the front tier, and
/// a listen backlog on the database tier short enough that bursts are
/// rejected with 503s.
fn partitioned_bursty_dfcfs() -> SystemConfig {
    let mut cfg = SystemConfig::scenario_open_burst(600.0);
    cfg.seed = 424_242;
    cfg.partitions = 3;
    for t in &mut cfg.tiers {
        t.cores = 4;
        t.workers = t.workers.max(12);
    }
    cfg.tiers[0].discipline = QueueDiscipline::Dfcfs;
    cfg.tiers[3].workers = 6;
    cfg.tiers[3].accept_limit = Some(6);
    cfg.duration = SimDuration::from_secs(8);
    cfg.warmup = SimDuration::from_secs(2);
    cfg
}

fn assert_pinned(name: &str, cfg: &SystemConfig, want: RunDigest, want_rejected: bool) {
    for retention in [Retention::Full, Retention::Digest] {
        for shards in [1, 2] {
            let out = Simulator::new(cfg.clone())
                .expect("golden config is valid")
                .run_with(&SimOptions { shards, retention });
            assert_eq!(
                out.digest, want,
                "{name} under {retention:?} at {shards} shard(s): got {:#018x?}",
                out.digest
            );
            assert_eq!(out.stats.rejected > 0, want_rejected, "{name} rejections");
        }
    }
}

#[test]
fn closed_loop_db_io_digest_is_pinned() {
    assert_pinned(
        "closed_loop_db_io",
        &closed_loop_db_io(),
        RunDigest {
            requests: 0x1c06_7dbd_979b_f2ad,
            lifecycle: 0x5b10_1274_854d_0cef,
            messages: 0x257f_21d8_33db_9bf3,
            samples: 0xf6ec_a887_4b1b_31d5,
        },
        false,
    );
}

#[test]
fn partitioned_bursty_dfcfs_digest_is_pinned() {
    assert_pinned(
        "partitioned_bursty_dfcfs",
        &partitioned_bursty_dfcfs(),
        RunDigest {
            requests: 0x739e_d1b7_061a_c841,
            lifecycle: 0x04ac_0183_e343_71cb,
            messages: 0xdeaa_a92e_6c5c_e22c,
            samples: 0x1cfe_3e7f_42a1_6161,
        },
        true,
    );
}
