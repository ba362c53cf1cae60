//! Cross-crate property-based tests (via the in-tree `mscope_sim::prop`
//! harness): invariants that must hold for *any* input, not just the
//! fixtures the unit tests use.

use mscope_db::{ColumnType, Value};
use mscope_sim::prop::{forall, Gen};
use mscope_sim::{parse_wallclock, pearson, prop_ensure, wallclock, SimDuration, SimTime};
use mscope_transform::{parse_csv, parse_xml, write_csv, XmlNode};

// ------------------------------------------------------------------
// CSV
// ------------------------------------------------------------------

/// Any grid of arbitrary strings survives a CSV write/parse round-trip.
#[test]
fn csv_roundtrip() {
    forall("csv roundtrip", 256, |g| {
        let rows = g.vec(1..=7, |g| g.vec(1..=5, |g| g.string(0..=12)));
        let text = write_csv(&rows);
        let back = parse_csv(&text).map_err(|e| format!("own output fails to parse: {e}"))?;
        prop_ensure!(back == rows, "csv drift: {rows:?} -> {back:?}");
        Ok(())
    });
}

// ------------------------------------------------------------------
// XML
// ------------------------------------------------------------------

/// Arbitrary single-level documents round-trip through the writer and
/// parser, including attribute and text escaping.
#[test]
fn xml_roundtrip() {
    forall("xml roundtrip", 256, |g| {
        let mut doc = XmlNode::new(g.ident(8));
        for _ in 0..g.usize(0..=3) {
            let (k, v) = (g.ident(8), g.string(0..=16));
            // Attribute names must be unique to round-trip deterministically;
            // duplicates are legal for the writer but we skip them here.
            if doc.get_attr(&k).is_none() {
                doc.attrs.push((k, v));
            }
        }
        for _ in 0..g.usize(0..=5) {
            let (name, text) = (g.ident(8), g.string(0..=16));
            // Control characters are not representable in our XML subset.
            let clean: String = text.chars().filter(|c| !c.is_control()).collect();
            doc.children
                .push(XmlNode::new(name).with_text(clean.trim().to_string()));
        }
        let serialized = doc.to_xml();
        let back = parse_xml(&serialized).map_err(|e| format!("own output fails: {e}"))?;
        prop_ensure!(back == doc, "xml drift:\n{serialized}");
        Ok(())
    });
}

// ------------------------------------------------------------------
// Schema inference lattice
// ------------------------------------------------------------------

/// The folded column type admits every individual value's type, and
/// folding is order-insensitive.
#[test]
fn inference_admits_all_values() {
    forall("inference admits all values", 256, |g| {
        let cells = g.vec(1..=19, |g| g.string(0..=10));
        let types: Vec<ColumnType> = cells
            .iter()
            .map(|c| Value::infer(c).column_type())
            .collect();
        let folded = types.iter().fold(ColumnType::Null, |a, &b| a.unify(b));
        for t in &types {
            prop_ensure!(folded.admits(*t), "{folded:?} !admits {t:?}");
        }
        let folded_rev = types
            .iter()
            .rev()
            .fold(ColumnType::Null, |a, &b| a.unify(b));
        prop_ensure!(folded == folded_rev, "unify not order-insensitive");
        Ok(())
    });
}

/// Rendering a value and re-inferring it never *widens* past Text and
/// yields an equal value for the canonical types.
#[test]
fn value_render_stable() {
    forall("value render stable", 256, |g| {
        let i = g.i64(i64::MIN..=i64::MAX);
        prop_ensure!(
            Value::infer(&Value::Int(i).render()) == Value::Int(i),
            "int render drift: {i}"
        );
        let f = g.f64(-1e12..1e12);
        if let Value::Float(back) = Value::infer(&Value::Float(f).render()) {
            let rel = if f == 0.0 {
                back.abs()
            } else {
                ((back - f) / f).abs()
            };
            prop_ensure!(rel < 1e-9, "float render drift: {f} -> {back}");
        } else if f.fract() == 0.0 {
            // Integral floats may render as "x.0" and still infer Float; the
            // writer guarantees that, so reaching here is a failure.
            return Err("integral float lost its type".into());
        }
        Ok(())
    });
}

// ------------------------------------------------------------------
// Time
// ------------------------------------------------------------------

/// Wallclock formatting round-trips for any instant below 24 h.
#[test]
fn wallclock_roundtrip() {
    forall("wallclock roundtrip", 512, |g| {
        let t = SimTime::from_micros(g.u64(0..=86_399_999_999));
        prop_ensure!(
            parse_wallclock(&wallclock(t)) == Some(t),
            "wallclock drift at {t:?}"
        );
        Ok(())
    });
}

/// Time arithmetic: (t + d) - d == t and ordering is preserved.
#[test]
fn time_arith() {
    forall("time arithmetic", 512, |g| {
        let t = SimTime::from_micros(g.u64(0..=999_999_999));
        let dur = SimDuration::from_micros(g.u64(0..=999_999_999));
        prop_ensure!((t + dur) - dur == t, "(t + d) - d != t for {t:?} + {dur:?}");
        prop_ensure!(t + dur >= t, "ordering broken for {t:?} + {dur:?}");
        Ok(())
    });
}

// ------------------------------------------------------------------
// Statistics
// ------------------------------------------------------------------

/// Pearson r is always in [-1, 1] (when defined).
#[test]
fn pearson_bounded() {
    forall("pearson bounded", 256, |g| {
        let pairs = g.vec(2..=49, |g| (g.f64(-1e6..1e6), g.f64(-1e6..1e6)));
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_ensure!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
        Ok(())
    });
}

// ------------------------------------------------------------------
// Queue derivation
// ------------------------------------------------------------------

/// For any set of residence intervals, the queue series stays within
/// [0, n], and is all-zero after every request departs.
#[test]
fn queue_series_bounded() {
    forall("queue series bounded", 128, |g| {
        let intervals = g.vec(1..=99, |g| (g.u64(0..=9_999_999), g.u64(1..=4_999_999)));
        let ints: Vec<(i64, Option<i64>)> = intervals
            .iter()
            .map(|&(a, d)| (a as i64, Some((a + d) as i64)))
            .collect();
        let n = ints.len() as f64;
        let horizon = intervals
            .iter()
            .map(|&(a, d)| a + d)
            .max()
            .expect("non-empty");
        let series = mscope_analysis::queue_series(
            &ints,
            SimTime::ZERO,
            SimTime::from_micros(horizon + 2_000_000),
            SimDuration::from_millis(100),
        );
        for &(_, v) in &series {
            prop_ensure!((0.0..=n).contains(&v), "queue {v} out of [0, {n}]");
        }
        let last = series.last().map(|&(_, v)| v).expect("non-empty series");
        prop_ensure!(
            last == 0.0,
            "queue must drain after all departures, got {last}"
        );
        Ok(())
    });
}

/// The slot fold equals a brute-force count at every window end: the
/// well-formed intervals that have arrived by then and not departed by
/// then. Inputs are unsorted and mix closed, open (never departs),
/// same-instant arrive/depart and corrupt intervals (negative arrival,
/// departure before arrival — counted in `dropped`, contributing nothing),
/// with `start` drawn past the earliest arrivals. A quarter of the
/// instants sit exactly on `start` or on a window end (the two edges of
/// the slot rule), and `end − start` is by turns arbitrary, a whole number
/// of windows, and zero or negative (an empty series).
#[test]
fn queue_series_matches_brute_force_count() {
    forall("queue series = brute-force count", 128, |g| {
        let start = g.i64(0..=600_000);
        let window = g.i64(1..=150_000);
        let end = match g.usize(0..=5) {
            0 => start - g.i64(0..=start.min(1_000)),
            1 => start + window * g.i64(0..=8),
            _ => start + g.i64(0..=900_000),
        };
        let instant = |g: &mut Gen| match g.usize(0..=3) {
            0 => start + window * g.i64(0..=8),
            _ => g.i64(0..=999_999),
        };
        let ints = g.vec(0..=60, |g| {
            let a = instant(g);
            match g.usize(0..=6) {
                0 => (a, None),
                1 => (a, Some(a)),
                2 => (-1 - a, Some(a)),
                3 => (a, Some(a - 1 - g.i64(0..=999))),
                4 => (a, Some(a + window * g.i64(1..=4))),
                _ => (a, Some(a + g.i64(1..=400_000))),
            }
        });
        let (series, dropped) = mscope_analysis::queue_series_checked(
            &ints,
            SimTime::from_micros(start as u64),
            SimTime::from_micros(end as u64),
            SimDuration::from_micros(window as u64),
        );
        let valid: Vec<(i64, Option<i64>)> = ints
            .iter()
            .copied()
            .filter(|&(a, d)| a >= 0 && d.is_none_or(|d| d >= a))
            .collect();
        prop_ensure!(
            dropped == ints.len() - valid.len(),
            "dropped {dropped} of {} with {} valid",
            ints.len(),
            valid.len()
        );
        let want: Vec<(i64, f64)> = (0..)
            .map(|k| start + k * window)
            .take_while(|&w| w < end)
            .map(|w| {
                let at = w + window;
                let resident = valid
                    .iter()
                    .filter(|&&(a, d)| a <= at && d.is_none_or(|d| d > at))
                    .count();
                (w, resident as f64)
            })
            .collect();
        prop_ensure!(series == want, "walk {series:?} != count {want:?}");
        Ok(())
    });
}

/// The PIT max never falls below the PIT mean in any window.
#[test]
fn pit_max_ge_mean() {
    forall("pit max >= mean", 128, |g| {
        let completions = g.vec(1..=199, |g| (g.i64(0..=59_999_999), g.f64(0.1..1000.0)));
        let pit = mscope_analysis::PitSeries::from_completions(&completions, 50_000);
        for p in &pit.points {
            prop_ensure!(
                p.max_ms >= p.mean_ms - 1e-9,
                "max {} < mean {}",
                p.max_ms,
                p.mean_ms
            );
            prop_ensure!(p.count > 0, "empty window emitted");
        }
        // Window starts are aligned and strictly increasing.
        for w in pit.points.windows(2) {
            prop_ensure!(w[0].start_us < w[1].start_us, "windows not increasing");
            prop_ensure!(w[0].start_us.rem_euclid(50_000) == 0, "window misaligned");
        }
        Ok(())
    });
}

// ------------------------------------------------------------------
// Event-log pattern matching
// ------------------------------------------------------------------

/// Any request ID and interaction render into an Apache log line that
/// the Apache mScopeParser pattern parses back exactly.
#[test]
fn apache_pattern_inverts_rendering() {
    forall("apache pattern inverts rendering", 256, |g| {
        let interaction = mscope_ntier::Interaction {
            idx: g.usize(0..=23),
        };
        let rid = mscope_ntier::RequestId(g.u64(0..=u64::MAX));
        let line = format!(
            "127.0.0.1 - - [00:00:01.000000] \"GET /rubbos/{}?ID={} HTTP/1.1\" 200 1802 \
             ua=00:00:00.900000 ud=00:00:01.000000 ds=- dr=-",
            interaction.name(),
            rid
        );
        let spec = mscope_transform::apache_event_spec();
        let caps = spec.records[0]
            .match_line(&line)
            .ok_or_else(|| format!("rendered line does not parse: {line}"))?;
        let get = |k: &str| {
            caps.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .expect("capture")
        };
        prop_ensure!(get("request_id") == rid.to_string(), "request id drift");
        prop_ensure!(
            get("interaction") == interaction.name(),
            "interaction drift"
        );
        Ok(())
    });
}

// ------------------------------------------------------------------
// Monitor-format round-trips: render → parse → identical values
// ------------------------------------------------------------------

use mscope_monitors::{LogStore, ResourceMonitor, Tool};
use mscope_ntier::{NodeId, ResourceSample, TierId, TierKind};

fn gen_sample(g: &mut Gen) -> ResourceSample {
    let user = g.f64(0.0..60.0);
    let sys = g.f64(0.0..20.0);
    let iowait = g.f64(0.0..10.0);
    let bytes = g.u64(0..=9_999_999);
    ResourceSample {
        time: SimTime::from_millis(g.u64(1..=99_999)),
        node: NodeId {
            tier: TierId(3),
            replica: 0,
        },
        kind: TierKind::Mysql,
        cpu_user: user,
        cpu_sys: sys,
        cpu_iowait: iowait,
        cpu_idle: (100.0 - user - sys - iowait).max(0.0),
        disk_util: g.f64(0.0..100.0),
        disk_write_bytes: bytes,
        disk_ops: bytes / 4096,
        dirty_pages: g.u64(0..=99_999),
        mem_used_bytes: 1 << 30,
        net_rx_bytes: 1024,
        net_tx_bytes: 2048,
        queue_len: 1,
        active_workers: 1,
        log_bytes: 100,
    }
}

fn gen_sample_stream(g: &mut Gen, max: usize) -> Vec<ResourceSample> {
    // Strictly increasing timestamps (monitors sample in order).
    let mut samples = g.vec(1..=max, gen_sample);
    samples.sort_by_key(|s| s.time);
    samples.dedup_by_key(|s| s.time);
    samples
}

/// Any resource sample survives the full journey: Collectl CSV render →
/// staged parser → annotated XML → schema inference → CSV → warehouse —
/// with the numeric values intact to format precision.
#[test]
fn collectl_roundtrip_through_pipeline() {
    forall("collectl roundtrip through pipeline", 48, |g| {
        let samples = gen_sample_stream(g, 19);
        let monitor = ResourceMonitor {
            node: NodeId {
                tier: TierId(3),
                replica: 0,
            },
            kind: TierKind::Mysql,
            tool: Tool::CollectlCsv,
            period: mscope_sim::SimDuration::from_millis(1), // pass-through
        };
        let mut store = LogStore::new();
        monitor.render(&samples, &mut store);

        let meta = mscope_monitors::LogFileMeta {
            path: monitor.log_path(),
            node: monitor.node,
            tier_kind: TierKind::Mysql,
            monitor_id: monitor.monitor_id(),
            tool: "collectl".into(),
            format: "csv".into(),
            kind: mscope_monitors::MonitorKind::Resource,
            period_ms: 1,
        };
        let mut db = mscope_db::Database::new();
        mscope_transform::DataTransformer::from_manifest(&[meta])
            .run(&store, &mut db)
            .map_err(|e| format!("pipeline rejected rendered samples: {e}"))?;
        let t = db.require("collectl").expect("table created");
        prop_ensure!(t.row_count() == samples.len(), "row count drift");
        for (i, s) in samples.iter().enumerate() {
            let cell = |c: &str| t.cell(i, c).and_then(Value::as_f64).expect("numeric cell");
            prop_ensure!(
                (cell("cpu_user") - s.cpu_user).abs() < 0.01,
                "cpu_user drift"
            );
            prop_ensure!(
                (cell("disk_util") - s.disk_util).abs() < 0.1,
                "disk_util drift"
            );
            prop_ensure!(cell("mem_dirty") as u64 == s.dirty_pages, "mem_dirty drift");
            let time = t
                .cell(i, "time")
                .and_then(Value::as_i64)
                .expect("timestamp");
            prop_ensure!(time as u64 == s.time.as_micros(), "timestamp drift");
        }
        Ok(())
    });
}

/// Every tool's renderer produces output its declared parser accepts,
/// for any sample stream — no format can drift away from its parser.
#[test]
fn all_tools_parse_their_own_output() {
    forall("all tools parse their own output", 32, |g| {
        let samples = gen_sample_stream(g, 11);
        for tool in [
            Tool::CollectlCsv,
            Tool::CollectlPlain,
            Tool::SarText,
            Tool::SarXml,
            Tool::Iostat,
        ] {
            let monitor = ResourceMonitor {
                node: NodeId {
                    tier: TierId(3),
                    replica: 0,
                },
                kind: TierKind::Mysql,
                tool,
                period: mscope_sim::SimDuration::from_millis(1),
            };
            let mut store = LogStore::new();
            monitor.render(&samples, &mut store);
            let meta = mscope_monitors::LogFileMeta {
                path: monitor.log_path(),
                node: monitor.node,
                tier_kind: TierKind::Mysql,
                monitor_id: monitor.monitor_id(),
                tool: tool.name().into(),
                format: tool.format().into(),
                kind: mscope_monitors::MonitorKind::Resource,
                period_ms: 1,
            };
            let mut db = mscope_db::Database::new();
            let report =
                mscope_transform::DataTransformer::from_manifest(&[meta]).run(&store, &mut db);
            let report = report.map_err(|e| format!("{tool:?} failed: {e}"))?;
            prop_ensure!(
                report.entries == samples.len(),
                "{tool:?} entry count drift: {} != {}",
                report.entries,
                samples.len()
            );
        }
        Ok(())
    });
}

// ------------------------------------------------------------------
// Convert → import fidelity: typed rows, CSV export, and parallelism
// ------------------------------------------------------------------

/// A cell value from the interesting corners of the normalization rules:
/// numbers, timestamps, the `-` no-sample marker, padding, and noise.
fn gen_cell(g: &mut Gen) -> String {
    match g.u64(0..=7) {
        0 => g.i64(-1_000..=1_000).to_string(),
        1 => format!("{:.3}", g.f64(-100.0..100.0)),
        2 => wallclock(SimTime::from_micros(g.u64(0..=86_399_999_999))),
        3 => "-".to_string(),
        4 => String::new(),
        5 => format!(" {} ", g.u64(0..=99)),
        6 => g.choose(&["true", "false", "TRUE", "False"]).to_string(),
        _ => g.string(0..=10),
    }
}

/// For any generated entry set: every inferred column type admits every
/// loaded cell, and the direct typed-row load is byte-identical in the
/// warehouse to loading the CSV export of the same conversion.
#[test]
fn convert_import_roundtrip_lossless() {
    forall("convert import roundtrip lossless", 192, |g| {
        let names = ["fa", "fb", "fc", "fd", "fe"];
        let mut doc = XmlNode::new("log").attr("source", "gen.log");
        for _ in 0..g.usize(1..=12) {
            let mut e = XmlNode::new("entry");
            let k = g.usize(1..=names.len());
            for name in names.iter().take(k) {
                e.children.push(XmlNode::new(*name).with_text(gen_cell(g)));
            }
            doc.children.push(e);
        }
        let out = mscope_transform::convert_xml(&[doc])
            .map_err(|e| format!("convert rejected generated entries: {e}"))?;
        // Type soundness: the inferred column type admits every cell.
        for row in &out.rows {
            for (cell, col) in row.iter().zip(out.schema.columns()) {
                prop_ensure!(
                    col.ty.admits(cell.column_type()),
                    "column {} : {:?} does not admit {cell:?}",
                    col.name,
                    col.ty
                );
            }
        }
        // Load fidelity: direct rows vs the CSV export round-trip.
        let mut direct = Database::new();
        mscope_transform::import_rows(&mut direct, "t", &out.schema, out.rows.clone())
            .map_err(|e| format!("direct load failed: {e}"))?;
        let mut via_csv = Database::new();
        mscope_transform::import_csv(&mut via_csv, "t", &out.schema, &out.to_csv())
            .map_err(|e| format!("csv reload failed: {e}"))?;
        prop_ensure!(
            direct.to_json() == via_csv.to_json(),
            "direct and CSV-export loads diverge"
        );
        Ok(())
    });
}

/// The parallel and serial pipelines produce byte-identical warehouse
/// state and equal reports for any sample stream across several monitor
/// formats.
#[test]
fn parallel_pipeline_matches_serial() {
    forall("parallel pipeline matches serial", 24, |g| {
        let samples = gen_sample_stream(g, 13);
        let mut store = LogStore::new();
        let mut manifest = Vec::new();
        for tool in [Tool::CollectlCsv, Tool::SarText, Tool::SarXml, Tool::Iostat] {
            let monitor = ResourceMonitor {
                node: NodeId {
                    tier: TierId(3),
                    replica: 0,
                },
                kind: TierKind::Mysql,
                tool,
                period: mscope_sim::SimDuration::from_millis(1),
            };
            monitor.render(&samples, &mut store);
            manifest.push(mscope_monitors::LogFileMeta {
                path: monitor.log_path(),
                node: monitor.node,
                tier_kind: TierKind::Mysql,
                monitor_id: monitor.monitor_id(),
                tool: tool.name().into(),
                format: tool.format().into(),
                kind: mscope_monitors::MonitorKind::Resource,
                period_ms: 1,
            });
        }
        let tr = mscope_transform::DataTransformer::from_manifest(&manifest);
        let variants = [
            mscope_transform::RunOptions::default(),
            mscope_transform::RunOptions::serial(),
            mscope_transform::RunOptions { workers: 2 },
        ];
        let mut first: Option<(mscope_transform::TransformReport, String)> = None;
        for opts in variants {
            let mut db = Database::new();
            let report = tr
                .run_with(&store, &mut db, opts)
                .map_err(|e| format!("{opts:?} failed: {e}"))?;
            let json = db.to_json().map_err(|e| format!("to_json: {e}"))?;
            match &first {
                None => first = Some((report, json)),
                Some((rep0, db0)) => {
                    prop_ensure!(&report == rep0, "{opts:?}: report drift");
                    prop_ensure!(&json == db0, "{opts:?}: warehouse drift");
                }
            }
        }
        Ok(())
    });
}

// ------------------------------------------------------------------
// SQL round-trip: generated predicate ASTs rendered to SQL text must
// execute identically to direct predicate evaluation.
// ------------------------------------------------------------------

use mscope_db::{Column, Database, Predicate, Schema, Table};

fn sql_test_db() -> Database {
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Column::new("a", ColumnType::Int),
        Column::new("b", ColumnType::Float),
        Column::new("c", ColumnType::Text),
    ])
    .expect("valid schema");
    db.create_table("t", schema).expect("fresh table");
    for i in 0..40i64 {
        db.insert(
            "t",
            vec![
                Value::Int(i % 7),
                Value::Float(i as f64 / 3.0),
                Value::Text(format!("s{}", i % 5)),
            ],
        )
        .expect("row fits");
    }
    db
}

/// A restricted predicate AST we can render to SQL deterministically.
#[derive(Debug, Clone)]
enum Cmp {
    Int(&'static str, i64),
    Float(&'static str, f64),
    TextEq(String),
}

fn gen_cmp(g: &mut Gen) -> Cmp {
    match g.u64(0..=2) {
        0 => Cmp::Int(g.choose(&["=", "!=", "<", ">", "<=", ">="]), g.i64(0..=7)),
        1 => Cmp::Float(g.choose(&["<", ">"]), g.f64(0.0..14.0)),
        _ => Cmp::TextEq(format!("s{}", g.u64(0..=5))),
    }
}

fn cmp_to_sql(c: &Cmp) -> String {
    match c {
        Cmp::Int(op, v) => format!("a {op} {v}"),
        Cmp::Float(op, v) => format!("b {op} {v:.6}"),
        Cmp::TextEq(s) => format!("c = '{s}'"),
    }
}

fn cmp_to_pred(c: &Cmp) -> Predicate {
    match c {
        Cmp::Int(op, v) => {
            let v = Value::Int(*v);
            match *op {
                "=" => Predicate::Eq("a".into(), v),
                "!=" => Predicate::Ne("a".into(), v),
                "<" => Predicate::Lt("a".into(), v),
                ">" => Predicate::Gt("a".into(), v),
                "<=" => Predicate::Le("a".into(), v),
                _ => Predicate::Ge("a".into(), v),
            }
        }
        Cmp::Float(op, v) => {
            let v = Value::Float(*v);
            if *op == "<" {
                Predicate::Lt("b".into(), v)
            } else {
                Predicate::Gt("b".into(), v)
            }
        }
        Cmp::TextEq(s) => Predicate::Eq("c".into(), Value::Text(s.clone())),
    }
}

/// For any conjunction/disjunction of generated comparisons, executing
/// the SQL text equals filtering with the equivalent predicate AST.
#[test]
fn sql_matches_direct_predicates() {
    forall("sql matches direct predicates", 128, |g| {
        let cmps = g.vec(1..=4, gen_cmp);
        let use_or = g.bool();
        let db = sql_test_db();
        let joiner = if use_or { " OR " } else { " AND " };
        let sql = format!(
            "SELECT * FROM t WHERE {}",
            cmps.iter().map(cmp_to_sql).collect::<Vec<_>>().join(joiner)
        );
        let preds: Vec<Predicate> = cmps.iter().map(cmp_to_pred).collect();
        let pred = if preds.len() == 1 {
            preds[0].clone()
        } else if use_or {
            Predicate::Or(preds)
        } else {
            Predicate::And(preds)
        };
        let via_sql = db
            .query(&sql)
            .map_err(|e| format!("generated SQL rejected: {e}\n{sql}"))?;
        let direct: Table = db.require("t").expect("table").filter(&pred);
        prop_ensure!(
            via_sql.row_count() == direct.row_count(),
            "row count mismatch for query: {sql}"
        );
        for i in 0..via_sql.row_count() {
            prop_ensure!(
                via_sql.row(i) == direct.row(i),
                "row {i} differs for query: {sql}"
            );
        }
        Ok(())
    });
}
