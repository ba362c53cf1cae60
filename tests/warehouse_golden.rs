//! Golden warehouses: an FNV digest of [`Database::to_json`] after a
//! batch ingest and after a streaming ingest of four small seeded trials,
//! pinned to exact words.
//!
//! `tests/digest_golden.rs` pins what the simulator emits and
//! `tests/rendered_logs_golden.rs` the log bytes the monitors write from
//! it; this pins what the transformer *loads* from those bytes — every
//! inferred schema and every typed cell. A change to cell typing, schema
//! inference or load order must show up here as a deliberate diff.
//!
//! The two words of a trial differ: a table fed by several files holds
//! its rows in file order after a batch ingest and in arrival order after
//! a streaming one (`MilliScope`'s own stream-vs-batch suite compares such
//! tables as sorted rows). The streamed word is for one chunk size.

use mscope_core::MilliScope;
use mscope_db::Database;
use mscope_monitors::MonitorSuite;
use mscope_ntier::{Simulator, SystemConfig};
use mscope_sim::{Fnv64, SimDuration};
use mscope_transform::RunOptions;

/// Folds the warehouse's JSON text: its length, then its bytes eight at a
/// time (little-endian, the last word zero-padded).
fn warehouse_digest(db: &Database) -> (u64, usize) {
    let json = db.to_json().expect("a loaded warehouse serializes");
    let mut h = Fnv64::new();
    h.fold_u64(json.len() as u64);
    for chunk in json.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.fold_u64(u64::from_le_bytes(word));
    }
    (h.value(), json.len())
}

/// `cfg` shortened to a few seconds under a fixed seed.
fn small(mut cfg: SystemConfig, seed: u64) -> SystemConfig {
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(5);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.workload.ramp_up = SimDuration::from_secs(1);
    cfg
}

/// Holds the batch and the streaming warehouse of `cfg` to their words.
fn assert_pinned(name: &str, cfg: SystemConfig, batch: (u64, usize), streamed: (u64, usize)) {
    let run = Simulator::new(cfg).expect("golden config is valid").run();
    let art = MonitorSuite::standard(&run.config).render(&run);
    let ms = MilliScope::from_parts_with(
        run.config.clone(),
        &art.store,
        &art.manifest,
        art.sysviz,
        RunOptions::serial(),
    )
    .expect("batch ingest");
    let got_batch = warehouse_digest(ms.db());
    let ms = MilliScope::run_streaming(&run, 64, 1).expect("streaming ingest");
    let got_streamed = warehouse_digest(ms.db());
    assert_eq!(
        (got_batch, got_streamed),
        (batch, streamed),
        "{name}: got {got_batch:#018x?}, {got_streamed:#018x?}"
    );
}

#[test]
fn rubbos_baseline_warehouse_is_pinned() {
    assert_pinned(
        "rubbos_baseline",
        small(SystemConfig::rubbos_baseline(150), 20_170_605),
        (0xb3fd_f566_5477_16db, 314_163),
        (0x2f41_026a_3cd1_a5f3, 314_163),
    );
}

#[test]
fn rubbos_replicated_warehouse_is_pinned() {
    assert_pinned(
        "rubbos_replicated",
        small(SystemConfig::rubbos_replicated(150), 977_003),
        (0x13e2_59f3_098b_8726, 390_161),
        (0x342e_bfe8_26c5_e9a8, 390_161),
    );
}

#[test]
fn scenario_db_io_warehouse_is_pinned() {
    assert_pinned(
        "scenario_db_io",
        small(SystemConfig::scenario_db_io(200), 77),
        (0x485d_e47d_460d_1a9f, 382_869),
        (0x472f_f873_cb38_ed95, 382_869),
    );
}

#[test]
fn scenario_dirty_page_warehouse_is_pinned() {
    assert_pinned(
        "scenario_dirty_page",
        small(SystemConfig::scenario_dirty_page(200), 31),
        (0x16e3_8c67_dd57_f9a6, 404_896),
        (0xdede_7598_e4df_11fa, 404_896),
    );
}
