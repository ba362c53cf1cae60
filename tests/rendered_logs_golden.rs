//! Golden rendered logs: an FNV digest of every [`LogStore`] path and byte
//! for two small seeded trials, pinned to exact words.
//!
//! `tests/digest_golden.rs` pins what the simulator emits; this pins what
//! the monitors *write* from it — every native event log line and every
//! resource report, byte for byte. A change to a log format, a timestamp
//! formatter or the order lines land in must show up here as a deliberate
//! diff. The SysViz tap's reconstructed trace is pinned beside the logs, as
//! the FNV digest of its JSON. Batch rendering and the streaming spine at
//! three chunk sizes are held to the same words.

use mscope_monitors::{merge_records, LogStore, MonitorSuite, MonitoringArtifacts};
use mscope_ntier::{RunOutput, Simulator, SystemConfig};
use mscope_sim::{Fnv64, SimDuration};

/// Folds a byte string: its length, then its bytes eight at a time
/// (little-endian, the last word zero-padded).
fn fold_bytes(h: &mut Fnv64, bytes: &[u8]) {
    h.fold_u64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.fold_u64(u64::from_le_bytes(word));
    }
}

/// `(digest, total bytes)` of every file in path order.
fn store_digest(store: &LogStore) -> (u64, usize) {
    let mut h = Fnv64::new();
    for path in store.paths() {
        fold_bytes(&mut h, path.as_bytes());
        fold_bytes(&mut h, store.read(path).unwrap_or_default().as_bytes());
    }
    (h.value(), store.total_bytes())
}

/// `(digest, JSON length)` of the tap's trace.
fn sysviz_digest(art: &MonitoringArtifacts) -> (u64, usize) {
    let json = mscope_serdes::to_string(art.sysviz.as_ref().expect("the standard suite taps"));
    let mut h = Fnv64::new();
    fold_bytes(&mut h, json.as_bytes());
    (h.value(), json.len())
}

/// The healthy RUBBoS deployment, shortened.
fn rubbos_baseline() -> SystemConfig {
    let mut cfg = SystemConfig::rubbos_baseline(200);
    cfg.seed = 20_170_605;
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.workload.ramp_up = SimDuration::from_secs(1);
    cfg
}

/// The DB-IO scenario shrunk so the commit log flushes several times.
fn db_io() -> SystemConfig {
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
    cfg
}

fn run(cfg: SystemConfig) -> RunOutput {
    Simulator::new(cfg).expect("golden config is valid").run()
}

fn assert_pinned(name: &str, cfg: SystemConfig, want: (u64, usize), sysviz: (u64, usize)) {
    let out = run(cfg);
    let suite = MonitorSuite::standard(&out.config);
    let art = suite.render(&out);
    let batch = (store_digest(&art.store), sysviz_digest(&art));
    assert_eq!(
        batch,
        (want, sysviz),
        "{name} batch render: got {:#018x?}",
        batch
    );
    let merged = merge_records(&out);
    for chunk_size in [1usize, 64, 4096] {
        let mut stream = suite.stream(&out.config);
        for chunk in merged.chunks(chunk_size) {
            stream.observe_chunk(chunk);
        }
        let art = stream.finish();
        let streamed = (store_digest(&art.store), sysviz_digest(&art));
        assert_eq!(
            streamed,
            (want, sysviz),
            "{name} streamed at chunk size {chunk_size}"
        );
    }
}

#[test]
fn rubbos_baseline_logs_are_pinned() {
    assert_pinned(
        "rubbos_baseline",
        rubbos_baseline(),
        (0xa8d5_ea3a_8f3d_6a28, 293_694),
        (0xfeca_4ef9_544d_cfba, 230_066),
    );
}

#[test]
fn db_io_logs_are_pinned() {
    assert_pinned(
        "db_io",
        db_io(),
        (0x38c6_5ee9_5210_6fef, 431_266),
        (0x8eaa_d287_27ab_1901, 364_706),
    );
}
