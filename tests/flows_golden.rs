//! Golden flows: an FNV digest of the JSON of `MilliScope::flows()` and
//! the bit patterns of `tier_contribution()` for three small seeded
//! trials, pinned to exact words.
//!
//! `tests/warehouse_golden.rs` pins the tables the transformer loads; this
//! pins what the causal-path join makes of them — which hops each request
//! gets, in which order, with which node names and timestamps — and the
//! per-tier means computed from those hops. A change to how flows are
//! joined, stored or copied out must leave both unchanged.
//! `rubbos_replicated` has several nodes per tier, so it also covers the
//! node names a flow carries when they differ from row to row.

use mscope_core::MilliScope;
use mscope_monitors::MonitorSuite;
use mscope_ntier::{Simulator, SystemConfig};
use mscope_sim::{Fnv64, SimDuration};
use mscope_transform::RunOptions;

/// Folds JSON text: its length, then its bytes eight at a time
/// (little-endian, the last word zero-padded).
fn text_digest(json: &str) -> (u64, usize) {
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

/// Holds the flows of `cfg` and its tier contributions to their words.
/// Both are asked for twice: a later call must return what the first did.
fn assert_pinned(name: &str, cfg: SystemConfig, flows: (u64, usize), contribution: &[u64]) {
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
    let first = ms.flows().expect("flows join");
    let got_flows = text_digest(&mscope_serdes::to_string(&first));
    let got_contribution: Vec<u64> = ms
        .tier_contribution()
        .expect("tier contribution")
        .iter()
        .map(|c| c.to_bits())
        .collect();
    assert_eq!(
        (got_flows, got_contribution.as_slice()),
        (flows, contribution),
        "{name}: got {got_flows:#018x?}, {got_contribution:#018x?}"
    );
    assert_eq!(ms.flows().expect("flows join again"), first, "{name}");
}

#[test]
fn rubbos_baseline_flows_are_pinned() {
    assert_pinned(
        "rubbos_baseline",
        small(SystemConfig::rubbos_baseline(150), 20_170_605),
        (0x1bd4_84a7_66cb_3bd8, 89_255),
        &[
            0x3fd9_3953_dea4_65a3,
            0x3ff2_09a2_2dc2_595e,
            0x3fd3_f69c_d368_ec2e,
            0x3ff3_8292_2c36_5205,
        ],
    );
}

#[test]
fn rubbos_replicated_flows_are_pinned() {
    assert_pinned(
        "rubbos_replicated",
        small(SystemConfig::rubbos_replicated(150), 977_003),
        (0x08e0_5f7d_7dab_b33e, 96_508),
        &[
            0x3fd8_31cf_e9cb_6980,
            0x3ff0_9140_712c_b3cb,
            0x3fd3_ffb4_3306_fb9f,
            0x3ff2_ef2e_19be_7296,
        ],
    );
}

#[test]
fn scenario_db_io_flows_are_pinned() {
    assert_pinned(
        "scenario_db_io",
        small(SystemConfig::scenario_db_io(200), 77),
        (0x24bd_ac95_9bbb_cf07, 121_145),
        &[
            0x3fd8_027f_99c1_9339,
            0x3ff1_1fcf_f0b5_50f8,
            0x3fd2_9f96_84ab_e03f,
            0x3ff3_7967_75b2_bf86,
        ],
    );
}
