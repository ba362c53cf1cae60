//! Drives the built binary end to end at `--smoke` size: all four
//! workloads, untraced and traced, the driver's one-run form, and the
//! refusal paths. Children are real re-executions of the binary, exactly
//! as in a measured run.

use mscope_serdes::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mscope-benchmark");

const WORKLOADS: [&str; 4] = ["batch_rubbos", "stream_dbio", "query_mix", "sim_scale"];

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str], out: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs")
}

fn value(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("no `{key}` in {path:?}"));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

#[test]
fn smoke_run_covers_every_workload_and_the_traced_run() {
    let out = out_dir("full");
    let run = run(&["--smoke", "--seed", "3"], &out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let doc = Json::parse(&text).expect("results.json parses");
    assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
    let contract = Json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        contract
            .get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };

    for w in WORKLOADS {
        assert_eq!(value(&doc, &["workloads", w, "failed"]), 0.0, "{w}");
        assert!(value(&doc, &["workloads", w, "attempted"]) >= 1.0, "{w}");
        // Every workload reports every end-to-end metric, never zero, by
        // the exact names the contract lists — and prints each by name.
        for m in names("end_to_end") {
            assert!(
                value(&doc, &["workloads", w, "end_to_end", &m, "value"]) > 0.0,
                "{w}.{m} is zero"
            );
            assert!(value(&doc, &["workloads", w, "end_to_end", &m, "samples"]) >= 1.0);
            assert!(stdout.contains(&m), "{m} not printed");
        }
        for m in names("per_layer") {
            assert!(
                value(&doc, &["workloads", w, "per_layer", &m, "value"]) >= 0.0,
                "{w}.{m}"
            );
            assert!(stdout.contains(&m), "{m} not printed");
        }
        assert!(
            value(
                &doc,
                &["workloads", w, "per_layer", "trace.coverage", "value"]
            ) >= 0.95,
            "{w}: stage spans cover too little of the traced job"
        );
        assert!(
            value(
                &doc,
                &["workloads", w, "per_layer", "trace.overhead_ratio", "value"]
            ) > 0.0
        );
        // The traced child left a Chrome trace with one event per span.
        let trace = std::fs::read_to_string(out.join(format!("trace_{w}.json"))).expect("trace");
        let events = Json::parse(&trace).expect("trace parses");
        let n = events.get("traceEvents").unwrap().as_array().unwrap().len();
        assert_eq!(
            n as f64 - 1.0,
            value(&doc, &["workloads", w, "per_layer", "trace.spans", "value"]),
            "{w}"
        );
    }

    // Layers report where they run and read zero where they do not.
    let layer = |w: &str, m: &str| value(&doc, &["workloads", w, "per_layer", m, "value"]);
    assert!(layer("batch_rubbos", "transform.parse_s") > 0.0);
    assert!(layer("batch_rubbos", "transform.ingest_auto_s") > 0.0);
    assert!(layer("stream_dbio", "transform.polls") > 0.0);
    assert!(layer("stream_dbio", "stream.lag_p50_ms.r450k") > 0.0);
    assert!(layer("stream_dbio", "core.episodes") > 0.0);
    assert!(layer("query_mix", "warehouse.sql_join_ms_p50") > 0.0);
    assert_eq!(layer("query_mix", "transform.parse_s"), 0.0);
    assert!(layer("sim_scale", "ntier.shard_ratio") > 0.0);
    assert_eq!(layer("sim_scale", "warehouse.rows"), 0.0);
    assert_eq!(layer("batch_rubbos", "core.episodes"), 0.0);

    let ledger = std::fs::read_to_string(out.join("ledger.md")).expect("ledger.md written");
    assert!(ledger.contains("Where the time goes"));
    assert!(ledger.contains("transform::ParsingDeclaration::execute"));
    assert!(ledger.contains("transform::StreamingTransformer::poll_with"));
}

#[test]
fn driver_form_prints_one_result_line_with_exactly_the_contract_keys() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_dir(&format!("driver{trace}"));
        let run = run(
            &[
                "--workload",
                "sim_scale",
                "--seed",
                "9",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
            ],
            &out,
        );
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let doc =
            Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let contract = Json::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap(),
        )
        .unwrap();
        let expected: Vec<&str> = contract
            .get(list)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect();
        let got: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(got, expected, "--trace {trace}");
    }
}

#[test]
fn the_same_seed_reproduces_every_count() {
    let counts = |tag: &str| -> Vec<(String, f64)> {
        let out = out_dir(tag);
        let run = run(
            &[
                "--child",
                "ops",
                "--workload",
                "query_mix",
                "--seed",
                "21",
                "--smoke",
            ],
            &out,
        );
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let doc = Json::parse(stdout.lines().last().unwrap()).unwrap();
        [
            "fingerprint",
            "ntier.sim_events",
            "ntier.records_out",
            "warehouse.rows",
            "core.episodes",
        ]
        .iter()
        .map(|k| (k.to_string(), value(&doc, &["values", k])))
        .collect()
    };
    assert_eq!(counts("repeat_a"), counts("repeat_b"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    let out = out_dir("bad");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "7"],
        &["--seed", "x"],
    ] {
        let run = run(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
