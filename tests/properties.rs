//! Cross-crate property-based tests (via the in-tree `mscope_sim::prop`
//! harness): invariants that must hold for *any* input, not just the
//! fixtures the unit tests use.

use mscope_db::{ColumnType, Value};
use mscope_sim::prop::{forall, Gen};
use mscope_sim::{parse_wallclock, pearson, prop_ensure, wallclock, SimDuration, SimTime};
use mscope_transform::{parse_xml, XmlNode};

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

/// Nesting depths around and far past the XML and JSON parsers' cap of 128.
const NESTINGS: [usize; 7] = [1, 6, 127, 128, 129, 1_000, 200_000];

const XML_SOUP: [&str; 24] = [
    "<",
    ">",
    "</",
    "/>",
    "<a>",
    "</a>",
    "<timestamp",
    " time=\"",
    "\"",
    "=",
    "&amp;",
    "&bogus;",
    "&",
    ";",
    "<!--",
    "-->",
    "<?",
    "?>",
    " ",
    "\n",
    "é",
    "<中>",
    "text",
    "<cpu user=\"1.0\"/>",
];

/// The SAR-XML monitor whose log the hostile documents stand in for.
fn sar_xml_monitor() -> (ResourceMonitor, mscope_monitors::LogFileMeta) {
    let monitor = ResourceMonitor {
        node: NodeId {
            tier: TierId(3),
            replica: 0,
        },
        kind: TierKind::Mysql,
        tool: Tool::SarXml,
        period: SimDuration::from_millis(1),
    };
    let meta = mscope_monitors::LogFileMeta {
        path: monitor.log_path(),
        node: monitor.node,
        tier_kind: TierKind::Mysql,
        monitor_id: monitor.monitor_id(),
        tool: Tool::SarXml.name().into(),
        format: Tool::SarXml.format().into(),
        kind: mscope_monitors::MonitorKind::Resource,
        period_ms: 1,
    };
    (monitor, meta)
}

/// A SAR-XML document as `Tool::SarXml` renders it.
fn sar_xml_doc(g: &mut Gen) -> String {
    let (monitor, meta) = sar_xml_monitor();
    let mut store = LogStore::new();
    render(&monitor, &gen_sample_stream(g, 6), &mut store);
    store.read(&meta.path).unwrap_or_default().to_string()
}

/// Byte ranges of the `<…>` tags of `doc`.
fn tag_spans(doc: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(open) = doc[from..].find('<') {
        let start = from + open;
        let Some(len) = doc[start..].find('>') else {
            break;
        };
        spans.push((start, start + len + 1));
        from = start + len + 1;
    }
    spans
}

/// One edit of a rendered document: truncation, a dropped, duplicated,
/// swapped or mismatched tag, a bad entity, an unterminated comment or
/// processing instruction, or non-ASCII bytes.
fn mutate_xml(g: &mut Gen, doc: &mut String) {
    let mut at = g.usize(0..=doc.len());
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    let tags = tag_spans(doc);
    let tag = |g: &mut Gen| tags[g.usize(0..=tags.len() - 1)];
    match g.usize(0..=9) {
        0 => doc.truncate(at),
        1..=4 if tags.is_empty() => doc.truncate(at),
        1 => {
            let (a, b) = tag(g);
            doc.replace_range(a..b, "");
        }
        2 => {
            let (a, b) = tag(g);
            let t = doc[a..b].to_string();
            doc.insert_str(b, &t);
        }
        3 => {
            let (first, second) = (tag(g), tag(g));
            let ((a1, b1), (a2, b2)) = (first.min(second), first.max(second));
            let (t1, t2) = (doc[a1..b1].to_string(), doc[a2..b2].to_string());
            doc.replace_range(a2..b2, &t1);
            doc.replace_range(a1..b1, &t2);
        }
        4 => {
            let (a, b) = tag(g);
            let close = if doc[a..].starts_with("</") {
                "</zz>"
            } else {
                "<zz>"
            };
            doc.replace_range(a..b, close);
        }
        5 => doc.insert_str(at, "&bogus;"),
        6 => doc.insert_str(at, "&amp"),
        7 => doc.insert_str(at, "<!--"),
        8 => doc.insert_str(at, "<?"),
        _ => doc.insert_str(at, g.choose(&["é", "中", "🦀", "<é>", "<cpü/>", "\u{0}"])),
    }
}

/// Token soup; a rendered SAR-XML document with a few edits; or `<a>`
/// nested to one of [`NESTINGS`], bare or inside a SAR-XML entry.
fn arb_hostile_xml(g: &mut Gen) -> String {
    match g.usize(0..=3) {
        0 => (0..g.usize(0..=40)).map(|_| g.choose(&XML_SOUP)).collect(),
        1 => {
            let depth = g.choose(&NESTINGS);
            let deep = "<a>".repeat(depth) + &"</a>".repeat(depth);
            if g.bool() {
                deep
            } else {
                sar_xml_doc(g).replacen("<cpu-load>", &format!("<cpu-load>{deep}"), 1)
            }
        }
        _ => {
            let mut doc = sar_xml_doc(g);
            for _ in 0..g.usize(1..=3) {
                mutate_xml(g, &mut doc);
            }
            doc
        }
    }
}

/// Fixed seed (the property name) and case count: a failure names its
/// case seed and reproduces with `forall_seeded`. Each document goes
/// through the parser and, as a SAR-XML log, through the batch and the
/// streaming transformer — the three places log bytes reach the parser.
#[test]
fn hostile_xml_never_panics() {
    let (monitor, meta) = sar_xml_monitor();
    let tr = mscope_transform::DataTransformer::from_manifest(&[meta]);
    forall("hostile xml is Ok or a typed error", 1024, |g| {
        let text = arb_hostile_xml(g);
        let shown: String = text.chars().take(200).collect();
        let mut store = LogStore::new();
        store.append(&monitor.log_path(), &text);
        let outcome = std::panic::catch_unwind(|| {
            let parsed = parse_xml(&text).map(drop);
            let batch = tr.run(&store, &mut Database::new()).map(drop);
            let mut db = Database::new();
            let mut st = tr.stream().expect("one valid declaration");
            let streamed = st
                .poll(&store, &mut db)
                .and_then(|()| st.finish(&store, &mut db))
                .map(drop);
            (parsed, batch, streamed)
        });
        let Ok((parsed, batch, streamed)) = outcome else {
            return Err(format!("panicked on `{shown}`"));
        };
        // The drivers parse what the parser parses: a document it rejects
        // fails both of them.
        if parsed.is_err() {
            prop_ensure!(
                batch.is_err() && streamed.is_err(),
                "accepted malformed `{shown}`: {batch:?} / {streamed:?}"
            );
        }
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

/// The completions the PIT oracle sees of a front-tier table: every row
/// with both `ua` and `ud` that the queue series also keeps (`ua ≥ 0`,
/// `ud ≥ ua`), as `(ud, (ud − ua) ms)`.
fn valid_completions(table: &Table) -> Vec<(i64, f64)> {
    let (ua, ud) = (
        table.column("ua").expect("ua"),
        table.column("ud").expect("ud"),
    );
    ua.iter()
        .zip(ud)
        .filter_map(|(a, d)| Some((a.as_i64()?, d.as_i64()?)))
        .filter(|&(a, d)| a >= 0 && d >= a)
        .map(|(a, d)| (d, (d - a) as f64 / 1000.0))
        .collect()
}

/// A PIT series as bits: the window, then each point's start, count and
/// the bits of its max and mean.
fn pit_bits(s: &mscope_analysis::PitSeries) -> (i64, Vec<(i64, u64, u64, u64)>) {
    let points = s
        .points
        .iter()
        .map(|p| (p.start_us, p.count, p.max_ms.to_bits(), p.mean_ms.to_bits()))
        .collect();
    (s.window_us, points)
}

/// The dense fold over a front-tier table equals the general constructor
/// over the table's valid rows, sliced to the same range, bit for bit.
/// Tables mix null cells, inverted rows, negative arrivals and `i64`
/// extremes; completions sit on `from`, on `to`, on a window edge and one
/// µs before one; `from`/`to` are by turns whole windows and not, the
/// range is sometimes shorter than a window or empty, and the window is
/// 1, 7 or 50 000 µs.
#[test]
fn pit_dense_fold_matches_sliced_oracle() {
    forall("pit dense fold = sliced oracle", 256, |g| {
        let window = g.choose(&[1i64, 7, 50_000]);
        let from = match g.usize(0..=2) {
            0 => window * g.i64(-4..=20),
            _ => g.i64(-200_000..=400_000),
        };
        let to = match g.usize(0..=4) {
            0 => from + window * g.i64(0..=40),
            1 => from + g.i64(0..=window - 1),
            2 => from - g.i64(0..=1_000),
            _ => from + g.i64(0..=window * 40 + 999),
        };
        let (low, high) = (from.min(to), from.max(to));
        let instant = |g: &mut Gen| match g.usize(0..=9) {
            0 => from,
            1 => to,
            2 => window * g.i64(low / window - 1..=high / window + 1) - g.i64(0..=1),
            3 => i64::MIN + g.i64(0..=99),
            4 => i64::MAX - g.i64(0..=99),
            _ => g.i64(low - 2 * window..=high + 2 * window),
        };
        let mut rows = g.vec(0..=80, |g| {
            let d = instant(g);
            let a = match g.usize(0..=7) {
                0 => None,
                1 => Some(d.saturating_add(g.i64(1..=30_000))),
                2 => Some(i64::MIN + g.i64(0..=9)),
                3 => Some(-g.i64(1..=1_000)),
                _ => Some(d.saturating_sub(g.i64(0..=120_000))),
            };
            let d = (g.usize(0..=9) != 0).then_some(d);
            (a, d)
        });
        if g.usize(0..=15) == 0 {
            rows.clear();
        }
        let schema = Schema::new(vec![
            Column::new("ua", ColumnType::Timestamp),
            Column::new("ud", ColumnType::Timestamp),
        ])
        .expect("schema");
        let mut table = Table::new("event_apache", schema);
        let cell = |x: Option<i64>| x.map_or(Value::Null, Value::Timestamp);
        for &(a, d) in &rows {
            table.push_row(vec![cell(a), cell(d)]).expect("row");
        }
        let dense = mscope_analysis::PitSeries::from_event_table(&table, window, from, to)
            .map_err(|e| format!("fold refused the table: {e}"))?;
        let oracle =
            mscope_analysis::PitSeries::from_completions(&valid_completions(&table), window)
                .slice(from, to);
        prop_ensure!(
            pit_bits(&dense) == pit_bits(&oracle),
            "w {window} [{from}, {to}) rows {rows:?}:\n dense {dense:?}\noracle {oracle:?}"
        );
        Ok(())
    });
}

/// `MilliScope::pit` equals the oracle over the front-tier table's valid
/// rows, sliced to the measured range, on every preset at 50 ms and at
/// 7 ms (which does not divide the 2 s warm-up, so the window that
/// straddles it is dropped).
#[test]
fn milliscope_pit_matches_sliced_oracle_on_every_preset() {
    for (name, cfg) in SystemConfig::presets() {
        let mut cfg = mscope_core::scenarios::shorten(cfg, SimDuration::from_secs(4));
        cfg.workload.users = cfg.workload.users.min(400);
        let out = mscope_core::Experiment::new(cfg)
            .expect("valid preset")
            .run();
        let ms = mscope_core::MilliScope::ingest(&out).expect("ingests");
        let completions = valid_completions(ms.event_table(0).expect("front tier"));
        let (start, end) = ms.measured_range();
        let (start, end) = (start.as_micros() as i64, end.as_micros() as i64);
        for window in [SimDuration::from_millis(50), SimDuration::from_millis(7)] {
            let w = window.as_micros() as i64;
            let pit = ms.pit(window).expect("pit");
            let oracle =
                mscope_analysis::PitSeries::from_completions(&completions, w).slice(start, end);
            assert!(!oracle.points.is_empty(), "{name}: no completions measured");
            assert_eq!(pit_bits(&pit), pit_bits(&oracle), "{name} at {w} µs");
        }
    }
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

use mscope_monitors::{LogStore, ResourceMonitor, ResourceMonitorState, Tool};
use mscope_ntier::{NodeId, ResourceSample, SystemConfig, TierId, TierKind};

/// Renders `samples` through one resource monitor's streaming state, the
/// way `MonitorStream` drives every resource monitor.
fn render(monitor: &ResourceMonitor, samples: &[ResourceSample], store: &mut LogStore) {
    let mut state = ResourceMonitorState::new(monitor.clone(), store);
    for s in samples {
        state.observe(s, store);
    }
    state.finish(store);
}

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
/// staged parser → schema inference → typed columns → warehouse — with
/// the numeric values intact to format precision.
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
        render(&monitor, &samples, &mut store);

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
            render(&monitor, &samples, &mut store);
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
// Convert → import fidelity: typed rows and parallelism
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
/// loaded cell, and the warehouse accepts the typed rows as converted.
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
        let mut db = Database::new();
        let loaded = mscope_transform::import_rows(&mut db, "t", &out.schema, out.rows.clone())
            .map_err(|e| format!("direct load failed: {e}"))?;
        prop_ensure!(
            loaded == out.row_count(),
            "{loaded} of {} rows",
            out.row_count()
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
            render(&monitor, &samples, &mut store);
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
