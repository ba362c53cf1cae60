//! Conservation and invariant checks over whole runs: things that must
//! hold for *every* request and *every* sample regardless of scenario.

use milliscope::analysis::RequestFlow;
use milliscope::core::scenarios::{calibrated_db_io, calibrated_dirty_page, shorten};
use milliscope::core::{Experiment, MilliScope};
use milliscope::ntier::{
    ArrivalProcess, BoundaryKind, MsgKind, QueueDiscipline, Simulator, SystemConfig, TierId,
    TierKind,
};
use milliscope::sim::SimDuration;
use std::collections::HashMap;

fn configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (
            "baseline",
            shorten(
                SystemConfig::rubbos_baseline(150),
                SimDuration::from_secs(10),
            ),
        ),
        (
            "db_io",
            shorten(
                calibrated_db_io(200, 2.5, 250.0),
                SimDuration::from_secs(10),
            ),
        ),
        (
            "dirty_page",
            shorten(
                calibrated_dirty_page(200, 3.0, 4.5, 300.0),
                SimDuration::from_secs(10),
            ),
        ),
        (
            "replicated",
            shorten(
                SystemConfig::rubbos_replicated(150),
                SimDuration::from_secs(10),
            ),
        ),
    ]
}

#[test]
fn lifecycle_events_balance_per_request() {
    for (name, cfg) in configs() {
        let out = Simulator::new(cfg).expect("valid").run();
        // Count boundaries per request.
        let mut counts: HashMap<_, [u32; 4]> = HashMap::new();
        for ev in &out.lifecycle {
            let slot = counts.entry(ev.request).or_default();
            match ev.boundary {
                BoundaryKind::UpstreamArrival => slot[0] += 1,
                BoundaryKind::UpstreamDeparture => slot[1] += 1,
                BoundaryKind::DownstreamSending => slot[2] += 1,
                BoundaryKind::DownstreamReceiving => slot[3] += 1,
            }
        }
        for r in out.requests.iter().filter(|r| r.is_complete()) {
            let c = counts
                .get(&r.id)
                .unwrap_or_else(|| panic!("{name}: no events for {:?}", r.id));
            let depth = r.spans.len() as u32;
            assert_eq!(c[0], depth, "{name}: UA count for {:?}", r.id);
            assert_eq!(c[1], depth, "{name}: UD count for {:?}", r.id);
            assert_eq!(c[2], depth - 1, "{name}: DS count for {:?}", r.id);
            assert_eq!(c[3], depth - 1, "{name}: DR count for {:?}", r.id);
        }
    }
}

#[test]
fn messages_balance_and_alternate() {
    for (name, cfg) in configs() {
        let out = Simulator::new(cfg).expect("valid").run();
        let mut down: HashMap<_, u32> = HashMap::new();
        let mut up: HashMap<_, u32> = HashMap::new();
        for m in &out.messages {
            match m.kind {
                MsgKind::RequestDown => *down.entry(m.request).or_default() += 1,
                MsgKind::ReplyUp => *up.entry(m.request).or_default() += 1,
            }
        }
        for r in out.requests.iter().filter(|r| r.is_complete()) {
            let depth = r.spans.len() as u32;
            assert_eq!(
                down.get(&r.id),
                Some(&depth),
                "{name}: down msgs for {:?}",
                r.id
            );
            assert_eq!(
                up.get(&r.id),
                Some(&depth),
                "{name}: up msgs for {:?}",
                r.id
            );
        }
    }
}

#[test]
fn sample_gauges_respect_configured_bounds() {
    for (name, cfg) in configs() {
        let workers: Vec<usize> = cfg.tiers.iter().map(|t| t.workers).collect();
        let out = Simulator::new(cfg).expect("valid").run();
        for s in &out.samples {
            let tier = s.node.tier.0;
            assert!(
                (s.active_workers as usize) <= workers[tier],
                "{name}: {} active workers exceed pool {} at {}",
                s.active_workers,
                workers[tier],
                s.time
            );
            assert!(
                s.queue_len >= s.active_workers,
                "{name}: queue < active workers"
            );
            let total = s.cpu_user + s.cpu_sys + s.cpu_iowait + s.cpu_idle;
            assert!(
                (99.0..=101.0).contains(&total),
                "{name}: cpu fractions sum to {total}"
            );
        }
    }
}

#[test]
fn response_time_equals_span_residence_plus_network() {
    let cfg = shorten(
        SystemConfig::rubbos_baseline(100),
        SimDuration::from_secs(8),
    );
    let hop = cfg.network.hop_latency;
    let out = Simulator::new(cfg).expect("valid").run();
    for r in out.requests.iter().filter(|r| r.is_complete()).take(300) {
        let rt = r.response_time().expect("complete");
        let front = r.spans[0].residence();
        // RT = client→web hop + front-tier residence + web→client hop.
        assert_eq!(rt, front + hop * 2, "request {:?}", r.id);
    }
}

#[test]
fn tiny_worker_pool_still_conserves_requests() {
    // Deliberately starved: one worker per tier against an offered load
    // beyond its capacity forces deep, persistent queueing.
    let mut cfg = shorten(
        SystemConfig::rubbos_baseline(3000),
        SimDuration::from_secs(10),
    );
    for t in &mut cfg.tiers {
        t.workers = 1;
    }
    let out = Simulator::new(cfg).expect("valid").run();
    assert!(out.stats.completed > 10, "some requests complete");
    // Everything that completed is causally ordered even under starvation.
    for r in out.requests.iter().filter(|r| r.is_complete()) {
        assert!(r.is_causally_ordered());
    }
    // Starvation shows up as queueing at the front tier.
    let peak_queue = out
        .samples
        .iter()
        .filter(|s| s.node.tier == TierId(0))
        .map(|s| s.queue_len)
        .max()
        .expect("samples exist");
    assert!(peak_queue > 10, "expected deep queueing, saw {peak_queue}");
}

#[test]
fn accept_queue_overflow_rejects_with_503() {
    // Starve the front tier so the backlog overflows.
    let mut cfg = shorten(
        SystemConfig::rubbos_baseline(2000),
        SimDuration::from_secs(10),
    );
    cfg.tiers[0].workers = 2;
    cfg.tiers[0].accept_limit = Some(4);
    let out = Simulator::new(cfg).expect("valid").run();
    assert!(out.stats.rejected > 10, "rejected {}", out.stats.rejected);
    // Rejected requests complete (with an error), quickly.
    let rejected: Vec<_> = out.requests.iter().filter(|r| r.status == 503).collect();
    assert_eq!(rejected.len() as u64, out.stats.rejected);
    for r in rejected.iter().take(100) {
        assert!(r.is_complete());
        assert!(r.is_causally_ordered());
        assert_eq!(r.spans.len(), 1, "rejected at the front tier");
        assert_eq!(r.spans[0].residence(), SimDuration::ZERO);
    }
    // The resident count never exceeds workers + backlog.
    let cap = 2 + 4;
    for s in out.samples.iter().filter(|s| s.node.tier == TierId(0)) {
        assert!(
            s.queue_len as usize <= cap,
            "queue {} exceeds workers+backlog {cap}",
            s.queue_len
        );
    }
}

#[test]
fn rejections_visible_in_event_logs_and_warehouse() {
    use milliscope::core::{Experiment, MilliScope};
    let mut cfg = shorten(
        SystemConfig::rubbos_baseline(2000),
        SimDuration::from_secs(8),
    );
    cfg.tiers[0].workers = 2;
    cfg.tiers[0].accept_limit = Some(4);
    let out = Experiment::new(cfg).expect("valid").run();
    assert!(out.run.stats.rejected > 0);
    // The Apache access log records the 503s…
    let log = out
        .artifacts
        .store
        .read("logs/tier0-0/access_log")
        .expect("apache log exists");
    assert!(log.contains("\" 503 "), "503 lines present");
    // …and they survive transformation into mScopeDB.
    let ms = MilliScope::ingest(&out).expect("ingests");
    let apache = ms.event_table(0).expect("event table");
    let rate = milliscope::analysis::error_rate(apache).expect("status column");
    assert!(rate > 0.0 && rate < 1.0, "error rate {rate}");
}

#[test]
fn commit_flush_retriggers_when_buffer_refills_during_flush() {
    // Tiny threshold + slow flush: commits arriving mid-flush refill the
    // buffer past the threshold so the next flush starts back-to-back.
    let mut cfg = shorten(
        SystemConfig::rubbos_baseline(800),
        SimDuration::from_secs(10),
    );
    let lf = cfg.tiers[3].log_flush.as_mut().expect("db flush config");
    lf.buffer_threshold = 16 << 10; // 2 commits
    lf.flush_rate = 0.05e6; // ~330 ms per flush
    lf.stall_writes = true;
    lf.stall_reads = false;
    let out = Simulator::new(cfg).expect("valid").run();
    // Writes keep completing (flushes chain instead of deadlocking)…
    let writes = out
        .requests
        .iter()
        .filter(|r| r.is_complete() && r.interaction.rw() == milliscope::ntier::RwKind::Write)
        .count();
    assert!(writes > 20, "writes completed: {writes}");
    // …and the disk shows sustained busy periods from chained flushes.
    let busy_samples = out
        .samples
        .iter()
        .filter(|s| s.node.tier == TierId(3) && s.disk_util > 90.0)
        .count();
    assert!(
        busy_samples > 20,
        "chained flushes keep the disk busy: {busy_samples}"
    );
}

#[test]
fn golden_determinism_across_features() {
    // One run exercising injectors + replicas + monitors must be exactly
    // reproducible: identical stats, logs, and samples for the same seed.
    let build = || {
        let mut cfg = shorten(
            SystemConfig::rubbos_replicated(300),
            SimDuration::from_secs(8),
        );
        cfg.injectors
            .push(milliscope::ntier::InjectorSpec::GcPause {
                tier: 1,
                period: SimDuration::from_secs(3),
                pause: SimDuration::from_millis(200),
            });
        cfg
    };
    let a = milliscope::core::Experiment::new(build())
        .expect("valid")
        .run();
    let b = milliscope::core::Experiment::new(build())
        .expect("valid")
        .run();
    assert_eq!(a.run.stats.completed, b.run.stats.completed);
    assert_eq!(a.run.stats.mean_rt_ms, b.run.stats.mean_rt_ms);
    assert_eq!(a.run.lifecycle.len(), b.run.lifecycle.len());
    assert_eq!(a.run.samples.len(), b.run.samples.len());
    // Byte-for-byte identical monitor logs.
    assert_eq!(a.artifacts.store, b.artifacts.store);
}

/// Little's law per tier over the measured window `[lo, hi)`: the
/// time-average of the queue series equals completions per second times
/// the mean residence of the requests that completed, both read from
/// `flows()`. A residence that began before `lo` counts from `lo`, which
/// is the law's finite-window form: without that clip, a 250 ms log-flush
/// stall straddling `lo` put a −10 % boundary term on every tier (db-io,
/// seed 4 of nine tried).
///
/// The tolerance is sampling error. The queue series samples the queue at
/// each window's end; at 100 µs windows the gap measured at most 0.47 %
/// over nine seeds of both configurations (every tier), and 0.14 % on the
/// default seed these configurations run, so 1 % is twice the worst case. At
/// 1 ms windows the same runs read up to 5 %: residences at the deeper
/// tiers are a few milliseconds, close to the spacing of the samples.
#[test]
fn littles_law_holds_per_tier() {
    const TOLERANCE: f64 = 0.01;
    let window = SimDuration::from_micros(100);
    for (name, cfg) in [
        (
            "baseline",
            shorten(
                SystemConfig::rubbos_baseline(150),
                SimDuration::from_secs(10),
            ),
        ),
        (
            "db_io",
            shorten(
                calibrated_db_io(200, 2.5, 250.0),
                SimDuration::from_secs(10),
            ),
        ),
    ] {
        let out = Experiment::new(cfg).expect("valid").run();
        let ms = MilliScope::ingest(&out).expect("pipeline ingests");
        let (start, end) = ms.measured_range();
        let (lo, hi) = (start.as_micros() as i64, end.as_micros() as i64);
        let secs = (hi - lo) as f64 / 1e6;
        let flows = ms.flows().expect("flows reconstruct");
        for tier in 0..ms.config().tiers.len() {
            let queue = ms.queue(tier, window).expect("queue series");
            let l = queue.points.iter().map(|p| p.1).sum::<f64>() / queue.points.len() as f64;
            let residences: Vec<f64> = flows
                .iter()
                .flat_map(RequestFlow::hops)
                .filter(|h| h.tier == tier && (lo..hi).contains(&h.ud))
                .map(|h| (h.ud - h.ua.max(lo)) as f64 / 1e6)
                .collect();
            assert!(
                residences.len() > 100,
                "{name} tier {tier}: too few completions"
            );
            let throughput = residences.len() as f64 / secs;
            let residence = residences.iter().sum::<f64>() / residences.len() as f64;
            let gap = l / (throughput * residence) - 1.0;
            assert!(
                gap.abs() <= TOLERANCE,
                "{name} tier {tier}: mean queue {l:.4} vs throughput {throughput:.1}/s × \
                 residence {residence:.6} s = {:.4} ({:+.2} %)",
                throughput * residence,
                gap * 100.0
            );
        }
    }
}

/// Pooling: at equal load, one queue feeding every core (cFCFS) never
/// answers slower than a private queue per core (dFCFS), which leaves a
/// burst waiting behind its own core while a sibling sits idle.
///
/// Open loop at a fixed rate, so both disciplines see the same arrivals;
/// Tomcat is made the bottleneck — four cores at about 80 % utilisation —
/// and every tier runs the discipline under test. Over the six seeds
/// dFCFS's mean response time measured 1.70–2.07× cFCFS's and its p99
/// 1.05–2.72× (seed 1 is the narrow one: 66.2 against 63.3 ms).
#[test]
fn cfcfs_dominates_dfcfs_at_equal_load() {
    let trial = |discipline, seed| {
        let mut cfg = shorten(SystemConfig::rubbos_baseline(1), SimDuration::from_secs(10));
        cfg.seed = seed;
        cfg.workload.arrival = ArrivalProcess::OpenLoop { rate_rps: 1_200.0 };
        for t in &mut cfg.tiers {
            t.discipline = discipline;
            if t.kind == TierKind::Tomcat {
                t.cores = 4;
                t.base_demand = SimDuration::from_micros(2_500);
            }
        }
        Simulator::new(cfg).expect("valid").run().stats
    };
    for seed in [1, 2, 3, 4, 5, 6] {
        let c = trial(QueueDiscipline::Cfcfs, seed);
        let d = trial(QueueDiscipline::Dfcfs, seed);
        assert!(
            c.mean_rt_ms <= d.mean_rt_ms && c.p99_rt_ms <= d.p99_rt_ms,
            "seed {seed}: cFCFS mean {:.2} / p99 {:.2} ms, dFCFS {:.2} / {:.2} ms",
            c.mean_rt_ms,
            c.p99_rt_ms,
            d.mean_rt_ms,
            d.p99_rt_ms
        );
    }
}
