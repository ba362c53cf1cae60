//! Bench-delta guard: fails when a freshly written `BENCH_*.json` summary
//! regresses a tracked headline metric by more than the tolerance against
//! its committed baseline.
//!
//! ```text
//! bench_delta --baseline <committed.json> --fresh <just-written.json> \
//!             [--tolerance 0.15]
//! ```
//!
//! Only *dimensionless* headline metrics are tracked (speedup ratios, not
//! wall-clock seconds), so the comparison is meaningful across machines of
//! different absolute speed. Comparing across bench *scales* is not: the
//! tool refuses a baseline whose `mode` (smoke/full) differs from the
//! fresh run's, because ratios shift with input size (e.g. the request-ID
//! join speedup is ~2x smaller at smoke scale than at full scale).
//!
//! CI runs the smoke benches and compares against the smoke baselines in
//! `crates/bench/baselines/`; the committed root `BENCH_*.json` records
//! are the full-scale counterparts for local runs. EXPERIMENTS.md §Bench
//! deltas documents the methodology.

use mscope_serdes::Json;

/// Headline metrics per bench, all dimensionless ratios where larger is
/// better, each the median of a bench's per-round ratios
/// (`mscope_bench::harness`). A ratio is a headline only if it can regress
/// on any host; the rest stay per-leg records in a summary's `results`.
/// The tests hold every top-level ratio field of a committed summary to
/// this list, and every listed one to each summary.
const TRACKED: &[(&str, &[&str])] = &[
    (
        "query_engine",
        &[
            "speedup_window_select",
            "speedup_eq_select",
            "speedup_request_id_join",
            "speedup_hash_join_materialized",
            "speedup_join_reorder",
        ],
    ),
    (
        "transform_pipeline",
        &["speedup_serial_direct_vs_serial_xml"],
    ),
    ("sim_scale", &["shard_overhead"]),
    ("stream_ingest", &["throughput_vs_batch"]),
];

/// One tracked metric's comparison outcome.
#[derive(Debug, PartialEq)]
struct Delta {
    metric: &'static str,
    baseline: f64,
    fresh: f64,
    /// `fresh / baseline - 1`, negative when the metric got worse.
    change: f64,
    regressed: bool,
}

fn str_field<'j>(doc: &'j Json, key: &str, which: &str) -> Result<&'j str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which} summary has no string `{key}` field"))
}

/// Compares two parsed bench summaries; `Err` on malformed or mismatched
/// input, `Ok` with per-metric outcomes otherwise.
fn compare(baseline: &Json, fresh: &Json, tolerance: f64) -> Result<Vec<Delta>, String> {
    let base_bench = str_field(baseline, "bench", "baseline")?;
    let fresh_bench = str_field(fresh, "bench", "fresh")?;
    if base_bench != fresh_bench {
        return Err(format!(
            "bench mismatch: baseline is `{base_bench}`, fresh is `{fresh_bench}`"
        ));
    }
    let base_mode = str_field(baseline, "mode", "baseline")?;
    let fresh_mode = str_field(fresh, "mode", "fresh")?;
    if base_mode != fresh_mode {
        return Err(format!(
            "mode mismatch: baseline ran `{base_mode}`, fresh ran `{fresh_mode}` — \
             speedup ratios shift with scale, so this comparison would be meaningless"
        ));
    }
    let metrics = TRACKED
        .iter()
        .find(|(b, _)| *b == base_bench)
        .map(|(_, m)| *m)
        .ok_or_else(|| format!("no tracked headline metrics for bench `{base_bench}`"))?;
    let mut out = Vec::with_capacity(metrics.len());
    for &metric in metrics {
        let base = baseline
            .get(metric)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline summary has no numeric `{metric}` field"))?;
        let new = fresh
            .get(metric)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("fresh summary has no numeric `{metric}` field"))?;
        if base <= 0.0 {
            return Err(format!(
                "baseline `{metric}` is {base}, not a positive ratio"
            ));
        }
        out.push(Delta {
            metric,
            baseline: base,
            fresh: new,
            change: new / base - 1.0,
            regressed: new < base * (1.0 - tolerance),
        });
    }
    Ok(out)
}

fn die(msg: &str) -> ! {
    eprintln!("bench_delta: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut tolerance = 0.15f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned();
            }
            "--fresh" => {
                i += 1;
                fresh_path = args.get(i).cloned();
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance takes a fraction like 0.15"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_delta --baseline <committed.json> --fresh <new.json> \
                     [--tolerance 0.15]"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| die("--baseline is required"));
    let fresh_path = fresh_path.unwrap_or_else(|| die("--fresh is required"));
    if !(0.0..1.0).contains(&tolerance) {
        die("--tolerance must be in [0, 1)");
    }

    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    };
    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    let deltas = compare(&baseline, &fresh, tolerance).unwrap_or_else(|e| die(&e));
    let mut regressions = 0usize;
    for d in &deltas {
        let verdict = if d.regressed { "REGRESSED" } else { "ok" };
        println!(
            "  {:<42} baseline {:8.3}  fresh {:8.3}  ({:+.1}%)  {verdict}",
            d.metric,
            d.baseline,
            d.fresh,
            d.change * 100.0
        );
        regressions += usize::from(d.regressed);
    }
    if regressions > 0 {
        eprintln!(
            "bench_delta: {regressions} tracked metric(s) regressed more than \
             {:.0}% vs {baseline_path}",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench_delta: all {} tracked metric(s) within {:.0}% of {baseline_path}",
        deltas.len(),
        tolerance * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(bench: &str, mode: &str, pairs: &[(&str, f64)]) -> Json {
        let mut text = format!("{{\"bench\":\"{bench}\",\"mode\":\"{mode}\"");
        for (k, v) in pairs {
            text.push_str(&format!(",\"{k}\":{v}"));
        }
        text.push('}');
        Json::parse(&text).unwrap()
    }

    /// A full query_engine summary: every tracked ratio at `v`, except
    /// `speedup_window_select` at `select`.
    fn query_summary(mode: &str, select: f64, v: f64) -> Json {
        summary(
            "query_engine",
            mode,
            &[
                ("speedup_window_select", select),
                ("speedup_eq_select", v),
                ("speedup_request_id_join", v),
                ("speedup_hash_join_materialized", v),
                ("speedup_join_reorder", v),
            ],
        )
    }

    #[test]
    fn within_tolerance_passes() {
        let base = query_summary("full", 8.0, 7.0);
        let fresh = query_summary("full", 7.2, 8.5);
        let deltas = compare(&base, &fresh, 0.15).unwrap();
        assert_eq!(deltas.len(), 5);
        assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
    }

    #[test]
    fn regression_past_tolerance_fails() {
        let base = query_summary("full", 8.0, 7.0);
        let fresh = query_summary("full", 6.0, 7.0);
        let deltas = compare(&base, &fresh, 0.15).unwrap();
        assert!(deltas[0].regressed, "6.0 < 8.0 * 0.85");
        assert!(deltas[1..].iter().all(|d| !d.regressed));
    }

    #[test]
    fn mode_mismatch_is_refused() {
        let base = summary("query_engine", "full", &[("speedup_window_select", 8.0)]);
        let fresh = summary("query_engine", "smoke", &[("speedup_window_select", 8.0)]);
        let err = compare(&base, &fresh, 0.15).unwrap_err();
        assert!(err.contains("mode mismatch"), "{err}");
    }

    #[test]
    fn bench_mismatch_and_missing_metric_are_errors() {
        let base = summary("query_engine", "full", &[("speedup_window_select", 8.0)]);
        let other = summary("sim_scale", "full", &[("shard_overhead", 1.0)]);
        assert!(compare(&base, &other, 0.15)
            .unwrap_err()
            .contains("bench mismatch"));
        let incomplete = summary("query_engine", "full", &[("speedup_window_select", 8.0)]);
        let err = compare(&incomplete, &incomplete, 0.15).unwrap_err();
        assert!(err.contains("speedup_eq_select"), "{err}");
    }

    /// Asserts `doc` carries every metric tracked for its bench, and that
    /// every top-level ratio field it carries (`*speedup*`, `*_overhead`,
    /// `*_vs_*`) is tracked: a headline either is under guard or is not a
    /// headline.
    fn assert_tracks_exactly(doc: &Json, path: &str) {
        let bench = doc.get("bench").and_then(Json::as_str).unwrap();
        let (_, metrics) = TRACKED
            .iter()
            .find(|(b, _)| *b == bench)
            .unwrap_or_else(|| panic!("{path}: bench `{bench}` is untracked"));
        for m in *metrics {
            assert!(
                doc.get(m).and_then(Json::as_f64).is_some(),
                "{path} lacks tracked metric `{m}`"
            );
        }
        for (key, value) in doc.as_object().unwrap() {
            let ratio =
                key.contains("speedup") || key.ends_with("_overhead") || key.contains("_vs_");
            assert!(
                !(ratio && value.as_f64().is_some()) || metrics.contains(&key.as_str()),
                "{path} carries headline `{key}`, which TRACKED does not list"
            );
        }
    }

    #[test]
    fn every_committed_root_summary_is_tracked() {
        // The repo-root records must stay comparable: each names a bench
        // this guard tracks and carries exactly its tracked headlines.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in [
            "BENCH_query.json",
            "BENCH_transform.json",
            "BENCH_sim.json",
            "BENCH_stream.json",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
            assert_tracks_exactly(&Json::parse(&text).unwrap(), name);
        }
    }

    #[test]
    fn smoke_baselines_match_their_bench_and_mode() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
        for (bench, _) in TRACKED {
            let path = format!("{dir}/{bench}.smoke.json");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{path}: {e} — regenerate with --smoke"));
            let doc = Json::parse(&text).unwrap();
            assert_eq!(doc.get("bench").and_then(Json::as_str), Some(*bench));
            assert_eq!(doc.get("mode").and_then(Json::as_str), Some("smoke"));
            assert_tracks_exactly(&doc, &path);
        }
    }
}
