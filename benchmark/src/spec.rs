//! The benchmark's contract in code: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root says the same thing to the driver; a unit test holds the two
//! together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_rubbos",
        why: "Healthy RUBBoS trial, simulate to diagnosis: transform parse+convert dominate, analysis and core barely run. One job, no repeated unit, so both latency_* are job_s in ms here: count the three as one.",
    },
    Workload {
        name: "stream_dbio",
        why: "DB-IO trial through the streaming spine, closed loop and open loop at fixed rates with live queries: same transform+warehouse code run incrementally, diagnose does real work.",
    },
    Workload {
        name: "query_mix",
        why: "Seeded mix of SQL and analysis operations over an already-ingested warehouse: warehouse plan/vector/engine and analysis do all the work, transform none.",
    },
    Workload {
        name: "sim_scale",
        why: "100k-user 8-partition simulation, digest retention: only the ntier/sim engine runs. One call, so work_per_s and both latency_* are job_s in other units here: count the four as one.",
    },
];

/// End-to-end metrics. Every workload reports every one (the driver
/// requires it), so the names are roles; `README.md` says what fills each
/// role on each workload.
pub const END_TO_END: [Metric; 7] = [
    e2e("job_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced run. A layer that does not run on a
/// workload reports `0` there — which is itself the prediction for that
/// pairing (e.g. every `transform.*` on `query_mix`).
pub const PER_LAYER: [Metric; 60] = [
    // ntier — moves work_per_s on sim_scale, ~13 % of job_s on batch_rubbos.
    layer("ntier.run_s", "s", Lower),
    layer("ntier.sim_events", "count", Higher),
    layer("ntier.events_per_s", "1/s", Higher),
    layer("ntier.records_out", "count", Higher),
    layer("ntier.shard_ratio", "ratio", Higher),
    // monitors — render moves job_s on batch_rubbos; merge/observe move
    // work_per_s and latency_p50_ms on stream_dbio.
    layer("monitors.render_s", "s", Lower),
    layer("monitors.log_bytes", "bytes", Higher),
    layer("monitors.render_bytes_per_s", "bytes/s", Higher),
    layer("monitors.merge_records_s", "s", Lower),
    layer("monitors.observe_s", "s", Lower),
    // transform, batch stages — move work_per_s and job_s on batch_rubbos,
    // nothing on query_mix.
    layer("transform.declare_s", "s", Lower),
    layer("transform.parse_s", "s", Lower),
    layer("transform.parse_bytes_per_s", "bytes/s", Higher),
    layer("transform.convert_s", "s", Lower),
    layer("transform.convert_rows_per_s", "rows/s", Higher),
    layer("transform.load_s", "s", Lower),
    layer("transform.load_rows_per_s", "rows/s", Higher),
    layer("transform.entries", "count", Higher),
    // transform, streaming — move work_per_s and latency_* on stream_dbio.
    layer("transform.poll_s", "s", Lower),
    layer("transform.polls", "count", Lower),
    layer("transform.poll_ms_p50", "ms", Lower),
    layer("transform.poll_ms_p99", "ms", Lower),
    layer("transform.finish_s", "s", Lower),
    // Default RunOptions (auto fan-out): thread-scaled, so unbounded.
    layer("transform.ingest_auto_s", "s", Lower),
    // warehouse — moves latency_* and work_per_s on query_mix;
    // live_query is the read side of latency_tail_ms on stream_dbio.
    layer("warehouse.rows", "count", Higher),
    layer("warehouse.sql_window_ms_p50", "ms", Lower),
    layer("warehouse.sql_topk_ms_p50", "ms", Lower),
    layer("warehouse.sql_join_ms_p50", "ms", Lower),
    layer("warehouse.sql_group_ms_p50", "ms", Lower),
    layer("warehouse.sql_tail_ms", "ms", Lower),
    layer("warehouse.live_query_ms_p50", "ms", Lower),
    // analysis — moves work_per_s on query_mix.
    layer("analysis.pit_ms", "ms", Lower),
    layer("analysis.queues_ms", "ms", Lower),
    layer("analysis.resource_ms", "ms", Lower),
    layer("analysis.flows_ms", "ms", Lower),
    layer("analysis.flows_per_s", "1/s", Higher),
    layer("analysis.flow_errors", "count", Lower),
    layer("analysis.ops_ms_p50", "ms", Lower),
    layer("analysis.ops_ms_p95", "ms", Lower),
    // core — diagnose moves job_s on stream_dbio; no change predicted on
    // batch_rubbos, where there are no episodes to diagnose.
    layer("core.diagnose_ms", "ms", Lower),
    layer("core.episodes", "count", Lower),
    layer("core.from_parts_s", "s", Lower),
    layer("core.run_streaming_s", "s", Lower),
    // stream — the open-loop legs at each fixed rate.
    layer("stream.lag_p50_ms.r150k", "ms", Lower),
    layer("stream.lag_p99_ms.r150k", "ms", Lower),
    layer("stream.lag_p90_ms.r300k", "ms", Lower),
    layer("stream.lag_p99_ms.r300k", "ms", Lower),
    layer("stream.lag_p50_ms.r450k", "ms", Lower),
    layer("stream.lag_p99_ms.r450k", "ms", Lower),
    layer("stream.end_backlog_chunks.r450k", "count", Lower),
    layer("stream.generator_late_ms_p99", "ms", Lower),
    layer("stream.sustained_rps", "1/s", Higher),
    // proc — moves cpu_s and peak_rss_mib, and through page-fault time
    // every cold wall metric.
    layer("proc.peak_rss_mib", "MiB", Lower),
    layer("proc.minor_faults", "count", Lower),
    layer("proc.user_cpu_s", "s", Lower),
    layer("proc.sys_cpu_s", "s", Lower),
    // trace — how much of the traced job the stage spans cover, and what
    // the spans cost against the untraced children.
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.untraced_job_s", "s", Lower),
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_170_605;

/// A seed kept out of development: a claim made on [`DEFAULT_SEED`] must
/// also hold here.
pub const HELD_OUT_SEED: u64 = 977_003;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_serdes::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_inside_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this module is what the
    /// binary reports. They must describe the same benchmark.
    #[test]
    fn benchmark_json_agrees_with_this_module() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let metric = |m: &Json| {
            (
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        };
        let of = |m: &Metric| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
                .to_string(),
                m.bound,
            )
        };
        let e2e: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(metric)
            .collect();
        assert_eq!(e2e, END_TO_END.iter().map(of).collect::<Vec<_>>());
        let layers: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(metric)
            .collect();
        assert_eq!(layers, PER_LAYER.iter().map(of).collect::<Vec<_>>());
    }
}
