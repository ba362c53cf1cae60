//! End-to-end integration: simulator → monitors → transformer → warehouse
//! → analysis, through the public facade only.

use milliscope::core::scenarios::shorten;
use milliscope::core::{Experiment, MilliScope};
use milliscope::db::{AggFn, Predicate, Value};
use milliscope::ntier::SystemConfig;
use milliscope::sim::SimDuration;

fn ingested(users: u32, secs: u64) -> MilliScope {
    let cfg = shorten(
        SystemConfig::rubbos_baseline(users),
        SimDuration::from_secs(secs),
    );
    let out = Experiment::new(cfg).expect("valid config").run();
    MilliScope::ingest(&out).expect("pipeline ingests")
}

#[test]
fn full_pipeline_baseline() {
    let ms = ingested(150, 12);
    // All expected tables exist and are populated.
    for table in [
        "event_apache",
        "event_tomcat",
        "event_cjdbc",
        "event_mysql",
        "collectl",
        "sar",
        "sar_xml",
        "iostat",
    ] {
        let t = ms
            .db()
            .require(table)
            .unwrap_or_else(|_| panic!("missing {table}"));
        assert!(t.row_count() > 0, "{table} is empty");
    }
    // Static metadata is registered.
    assert_eq!(ms.db().table("nodes").expect("static").row_count(), 4);
    assert!(ms.db().table("monitors").expect("static").row_count() >= 13);
    assert!(ms.db().table("log_files").expect("static").row_count() >= 13);
}

#[test]
fn event_counts_are_consistent_across_views() {
    let ms = ingested(150, 12);
    // Number of Apache event rows == number of tap-observed completed
    // front-tier visits (the tap sees exactly the same requests).
    let apache_rows = ms.db().require("event_apache").expect("table").row_count();
    let tap = ms.sysviz().expect("tap enabled");
    let tap_front_departures = tap
        .tier_intervals(milliscope::ntier::TierId(0))
        .iter()
        .filter(|(_, d)| d.is_some())
        .count();
    assert_eq!(apache_rows, tap_front_departures);
}

#[test]
fn warehouse_joins_event_tables_on_request_id() {
    let ms = ingested(150, 12);
    let apache = ms.db().require("event_apache").expect("table");
    let tomcat = ms.db().require("event_tomcat").expect("table");
    let joined = apache
        .inner_join(tomcat, "request_id", "request_id")
        .expect("key columns exist");
    // Every Tomcat visit corresponds to one Apache visit.
    assert_eq!(joined.row_count(), tomcat.row_count());
    // Join carries both sides' timestamps; Apache's UA precedes Tomcat's.
    for i in 0..joined.row_count().min(200) {
        let a_ua = joined
            .cell(i, "ua")
            .and_then(Value::as_i64)
            .expect("apache ua");
        let t_ua = joined
            .cell(i, "event_tomcat_ua")
            .and_then(Value::as_i64)
            .expect("tomcat ua");
        assert!(
            a_ua <= t_ua,
            "row {i}: apache ua {a_ua} after tomcat ua {t_ua}"
        );
    }
}

#[test]
fn flows_match_ground_truth_causality() {
    let cfg = shorten(
        SystemConfig::rubbos_baseline(100),
        SimDuration::from_secs(10),
    );
    let out = Experiment::new(cfg).expect("valid").run();
    let ms = MilliScope::ingest(&out).expect("ingests");
    let flows = ms.flows().expect("event tables present");
    assert!(!flows.is_empty());
    // Every reconstructed flow is causally ordered, and its front-tier
    // residence matches a ground-truth record.
    let mut matched = 0;
    for f in &flows {
        assert!(f.is_causally_ordered(), "flow {}", f.request_id());
        let id = u64::from_str_radix(f.request_id(), 16).expect("hex id");
        let gt = &out.run.requests[id as usize];
        if !gt.spans.is_empty() {
            let gt_ua = gt.spans[0].upstream_arrival.as_micros() as i64;
            let front = f.hops().next().expect("a flow has its front hop");
            assert_eq!(front.ua, gt_ua, "flow {} UA mismatch", f.request_id());
            matched += 1;
        }
    }
    assert!(matched > 50, "matched {matched} flows against ground truth");
}

#[test]
fn resource_tables_agree_with_raw_samples() {
    let cfg = shorten(
        SystemConfig::rubbos_baseline(120),
        SimDuration::from_secs(10),
    );
    let out = Experiment::new(cfg).expect("valid").run();
    let ms = MilliScope::ingest(&out).expect("ingests");
    // Collectl's loaded cpu_user for mysql must match the raw samples the
    // simulator produced (same values, post format round-trip).
    let collectl = ms.db().require("collectl").expect("table");
    let db_rows = collectl.filter(&Predicate::Eq("node".into(), Value::Text("tier3-0".into())));
    let loaded: Vec<f64> = db_rows.numeric_column("cpu_user");
    let raw: Vec<f64> = out
        .run
        .samples
        .iter()
        .filter(|s| s.node.tier.0 == 3)
        .map(|s| s.cpu_user)
        .collect();
    assert_eq!(loaded.len(), raw.len());
    for (l, r) in loaded.iter().zip(&raw) {
        assert!((l - r).abs() < 0.01, "loaded {l} vs raw {r}");
    }
}

#[test]
fn monitors_disabled_still_ingests_resources() {
    let mut cfg = shorten(SystemConfig::rubbos_baseline(80), SimDuration::from_secs(8));
    cfg.monitoring.event_monitors = false;
    let out = Experiment::new(cfg).expect("valid").run();
    let ms = MilliScope::ingest(&out).expect("ingests");
    assert!(ms.db().table("collectl").is_some());
    assert!(ms.db().table("event_apache").is_none());
    // Resource queries still work.
    let s = ms
        .resource(
            "tier0-0",
            "cpu_user",
            SimDuration::from_secs(1),
            AggFn::Mean,
        )
        .expect("resource series");
    assert!(!s.points.is_empty());
}

#[test]
fn log_store_dump_writes_real_files() {
    let cfg = shorten(SystemConfig::rubbos_baseline(50), SimDuration::from_secs(6));
    let out = Experiment::new(cfg).expect("valid").run();
    let dir = std::env::temp_dir().join(format!("mscope-e2e-{}", std::process::id()));
    out.artifacts
        .store
        .dump_to_dir(&dir)
        .expect("dump succeeds");
    let apache = std::fs::read_to_string(dir.join("logs/tier0-0/access_log")).expect("file exists");
    assert!(apache.contains("GET /rubbos/"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
