//! Transformer pipeline shoot-out: serial vs parallel parse stage, the
//! paper's annotated-XML interchange vs the direct columnar load.
//!
//! The direct legs are [`DataTransformer::run_with`] — one at-end drain of
//! the streaming transformer over the finished logs — which builds no
//! annotated XML: each declaration's entries go from its parser into a
//! columnar raw-cell sink, fanned out per declaration, and each table is
//! loaded as typed columns. The XML leg keeps the paper's Fig. 3
//! interchange chain as the baseline the direct load is measured against,
//! composed in this file from the public stage functions (`execute →
//! convert_xml → import_rows`): every file becomes an annotated XML tree,
//! and every table typed rows converted from those trees.
//!
//! Beyond timing, every variant's tables are checked identical to the
//! serial XML baseline's, so the speedup numbers are only ever reported
//! for *equivalent* pipelines. That check is also the XML ≡ direct gate:
//! the one place a bench holds the export chain and the load path to the
//! same tables at bench scale (the unit-scale property is
//! `run_with_is_the_public_composition` in `mscope-transform`).
//!
//! ```text
//! cargo bench -p mscope-bench --bench transform_pipeline -- [--smoke] [--out PATH]
//! ```
//!
//! Writes a `BENCH_transform.json` summary (per-variant best-of-N seconds,
//! speedups relative to the serial XML baseline) for CI artifact upload.

use mscope_db::Database;
use mscope_monitors::{LogStore, MonitorSuite, MonitoringArtifacts};
use mscope_ntier::{Simulator, SystemConfig};
use mscope_serdes::Json;
use mscope_sim::{parallel_map, SimDuration};
use mscope_transform::{
    convert_xml, import_rows, DataTransformer, ParsingDeclaration, RunOptions, TransformReport,
};
use std::collections::BTreeMap;
use std::time::Instant;

struct Variant {
    name: &'static str,
    workers: usize,
    xml: bool,
}

/// The bench matrix. `workers: 0` means *auto* (serial below the
/// work-size threshold), so the parallel variant pins an explicit worker
/// count and `auto_direct` exercises the heuristic itself — the bench
/// asserts auto is never the slowest variant, which is exactly the
/// regression the old always-parallel default had on small inputs.
fn variants() -> Vec<Variant> {
    let p = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(4);
    let v = |name, workers, xml| Variant { name, workers, xml };
    vec![
        v("serial_xml", 1, true),
        v("serial_direct", 1, false),
        v("parallel_direct", p, false),
        v("auto_direct", 0, false),
    ]
}

/// The XML leg: a per-table parse → convert fan-out (`run_with` fans out
/// per declaration), in which every file is rendered as an annotated XML
/// tree and every table converted from those trees into rows. The metadata tables are not
/// registered — they are a few dozen rows and not part of what this leg
/// measures.
fn run_xml(
    tr: &DataTransformer,
    store: &LogStore,
    db: &mut Database,
    workers: usize,
) -> TransformReport {
    let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
    for d in tr.declarations() {
        by_table.entry(&d.table).or_default().push(d);
    }
    let groups: Vec<(&str, Vec<&ParsingDeclaration>)> = by_table.into_iter().collect();
    let converted = parallel_map(groups.len(), workers, |i| {
        let docs: Vec<_> = groups[i]
            .1
            .iter()
            .map(|d| {
                d.execute(store.read(&d.path).expect("declared file present"))
                    .expect("parses")
            })
            .collect();
        convert_xml(&docs).expect("converts")
    });
    let mut report = TransformReport::default();
    for ((table, decls), conv) in groups.iter().zip(converted) {
        report.files += decls.len();
        report.entries += conv.row_count();
        let loaded = import_rows(db, table, &conv.schema, conv.rows).expect("loads");
        report.tables.push((table.to_string(), loaded));
    }
    report
}

fn run(v: &Variant, tr: &DataTransformer, store: &LogStore, db: &mut Database) -> TransformReport {
    if v.xml {
        run_xml(tr, store, db, v.workers)
    } else {
        let opts = RunOptions { workers: v.workers };
        tr.run_with(store, db, opts).expect("pipeline runs")
    }
}

fn artifacts(smoke: bool) -> MonitoringArtifacts {
    let users = if smoke { 80 } else { 300 };
    let secs = if smoke { 6 } else { 20 };
    // Replicated tiers give each event table several log files, which is
    // the shape the per-table worker fan-out exists for.
    let mut cfg = if smoke {
        SystemConfig::rubbos_baseline(users)
    } else {
        SystemConfig::rubbos_replicated(users)
    };
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.workload.ramp_up = SimDuration::from_secs(1);
    let out = Simulator::new(cfg).expect("valid config").run();
    MonitorSuite::standard(&out.config).render(&out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // cargo runs bench binaries with CWD = the package dir, so the default
    // output path anchors to the workspace root instead.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transform.json").to_string()
        });
    // cargo bench passes --bench through to the binary; ignore it.
    let samples = if smoke { 9 } else { 5 };

    eprintln!(
        "## transform_pipeline ({})",
        if smoke { "smoke" } else { "full" }
    );
    let art = artifacts(smoke);
    let tr = DataTransformer::from_manifest(&art.manifest);
    let log_bytes = art.store.total_bytes();

    let variants = variants();
    // Correctness gate first: every variant must produce identical log
    // tables and identical reports before any number is reported.
    let mut reference: Option<(Database, String)> = None;
    for v in &variants {
        let mut db = Database::new();
        let report = run(v, &tr, &art.store, &mut db);
        let report_json = mscope_serdes::to_string(&report);
        match &reference {
            None => reference = Some((db, report_json)),
            Some((db0, rep0)) => {
                for (table, _) in &report.tables {
                    assert_eq!(
                        db.require(table).expect("table loaded"),
                        db0.require(table).expect("table loaded"),
                        "{}: table {table} drift",
                        v.name
                    );
                }
                assert_eq!(&report_json, rep0, "{}: report drift", v.name);
            }
        }
    }
    eprintln!("  all {} variants byte-identical", variants.len());

    // Best of `samples` rounds, each timing every variant once: a stall of
    // the host lands on one sample of each variant, not on all of one's.
    let mut timings: Vec<(&str, f64, usize)> =
        variants.iter().map(|v| (v.name, f64::MAX, 0)).collect();
    for _ in 0..samples {
        for (v, (_, best, entries)) in variants.iter().zip(&mut timings) {
            let start = Instant::now();
            *entries = run(v, &tr, &art.store, &mut Database::new()).entries;
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    for (name, secs, _) in &timings {
        eprintln!(
            "  {name}: best {secs:.3}s ({:.1} MiB/s)",
            log_bytes as f64 / secs / (1 << 20) as f64
        );
    }

    let baseline = timings[0].1;
    // The auto heuristic must never pick the worst plan: whatever it
    // resolved to, some explicitly-configured variant is at least as bad.
    let auto = timings
        .iter()
        .find(|(name, ..)| *name == "auto_direct")
        .expect("auto variant present");
    let slowest = timings
        .iter()
        .map(|&(_, secs, _)| secs)
        .fold(f64::MIN, f64::max);
    assert!(
        auto.1 < slowest || timings.iter().all(|&(_, s, _)| s == auto.1),
        "auto_direct ({:.3}s) is the slowest variant (slowest {:.3}s)",
        auto.1,
        slowest
    );
    let results: Vec<Json> = timings
        .iter()
        .map(|(name, secs, entries)| {
            Json::obj([
                ("variant", Json::Str(name.to_string())),
                ("best_seconds", Json::Float(*secs)),
                ("entries", Json::Int(*entries as i128)),
                ("speedup_vs_serial_xml", Json::Float(baseline / secs)),
            ])
        })
        .collect();
    let parallel_direct = timings
        .iter()
        .find(|(name, ..)| *name == "parallel_direct")
        .expect("parallel_direct variant present")
        .1;
    let doc = Json::obj([
        ("bench", Json::Str("transform_pipeline".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("samples", Json::Int(samples as i128)),
        ("log_bytes", Json::Int(log_bytes as i128)),
        ("byte_identical", Json::Bool(true)),
        ("results", Json::Arr(results)),
        (
            "speedup_parallel_direct_vs_serial_xml",
            Json::Float(baseline / parallel_direct),
        ),
    ]);
    let text = mscope_serdes::to_string_pretty(&doc);
    std::fs::write(&out_path, &text).expect("write bench output");
    eprintln!(
        "  speedup parallel_direct vs serial_xml: {:.2}x -> {out_path}",
        baseline / parallel_direct
    );
}
