//! mScopeDB query-engine shoot-out: the compiled, indexed paths against
//! the naive row-at-a-time oracles on paper-shaped workloads — a windowed
//! select over a time-sorted event table (the PiT/VLRT slice query), a
//! request-ID join (the §IV-B flow-reconstruction access pattern), and
//! the SQL planner's statistics-driven join build side against the same
//! query planned with its choices pinned — at ≥100k rows.
//!
//! Before any number is reported, every compiled result is checked
//! identical to its naive oracle, the planner result is checked identical
//! to the planner-off plan's and to the naive join, and the parallel legs
//! are checked byte-identical across worker counts. The speedup figures
//! therefore only ever compare *equivalent* query plans.
//!
//! Planner on and off share one executor, so a ratio between them exists
//! only where the planner *decides* something from statistics. Projection
//! pushdown and in-place grouping are properties of that executor — 1.0×
//! by construction — and are held to the naive interpreter by
//! `crates/warehouse/tests/sql_prop.rs`, not timed here.
//!
//! ```text
//! cargo bench -p mscope-bench --bench query_engine -- [--smoke] [--out PATH]
//! ```
//!
//! Writes a `BENCH_query.json` summary for CI artifact upload and asserts
//! the windowed select and request-ID join are ≥3x over the naive scan,
//! the materializing hash join is ≥2x over its naive oracle, and the
//! planner's join-reorder win is ≥1.5x over the planner-off plan.

use mscope_db::{
    Column, ColumnType, CompiledPredicate, Database, KeyIndex, Predicate, QueryOptions, Schema,
    Table, Value,
};
use mscope_serdes::Json;
use mscope_sim::SimRng;
use std::time::Instant;

/// Builds a front-tier event table shaped like the transformer's output:
/// `ua`-sorted (event logs are written in time order), fixed-width hex
/// request IDs, and a sprinkle of depth-1 static requests with null
/// `ds`/`dr`.
fn event_table(rows: usize, rng: &mut SimRng) -> Table {
    let schema = Schema::new(vec![
        Column::new("request_id", ColumnType::Text),
        Column::new("interaction", ColumnType::Text),
        Column::new("node", ColumnType::Text),
        Column::new("ua", ColumnType::Timestamp),
        Column::new("ud", ColumnType::Timestamp),
        Column::new("ds", ColumnType::Timestamp),
        Column::new("dr", ColumnType::Timestamp),
    ])
    .expect("static schema is valid");
    let mut t = Table::new("event_apache", schema);
    let interactions = ["ViewStory", "StoriesOfTheDay", "PostComment"];
    let mut ua = 0i64;
    for i in 0..rows {
        ua += rng.uniform_u64(0, 400) as i64;
        let rt = 1_000 + rng.uniform_u64(0, 20_000) as i64;
        let (ds, dr) = if rng.chance(0.9) {
            let s = ua + rt / 10;
            let r = ua + rt - rt / 10;
            (Value::Timestamp(s), Value::Timestamp(r))
        } else {
            (Value::Null, Value::Null)
        };
        t.push_row(vec![
            Value::Text(format!("{i:012x}")),
            Value::Text(interactions[i % interactions.len()].to_string()),
            Value::Text("tier0-0".into()),
            Value::Timestamp(ua),
            Value::Timestamp(ua + rt),
            ds,
            dr,
        ])
        .expect("row fits schema");
    }
    t
}

fn best_of<F: FnMut() -> usize>(samples: usize, mut f: F) -> (f64, usize) {
    let mut best = f64::MAX;
    let mut out = 0;
    for _ in 0..samples {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json").to_string()
        });
    let rows = if smoke { 20_000 } else { 150_000 };
    let probes = if smoke { 50 } else { 200 };
    // Smoke legs are 0.5–12 ms: one descheduling on a shared host is a 2x
    // swing in a ratio, and best-of-3 let one run in eleven through at
    // 2.5x on the request-ID join. More samples cost smoke ~0.25 s.
    let samples = if smoke { 9 } else { 5 };

    eprintln!(
        "## query_engine ({}, {rows} rows)",
        if smoke { "smoke" } else { "full" }
    );
    let mut rng = SimRng::seed_from(0x6D73_636F_7065);
    let table = event_table(rows, &mut rng);

    // ---- Windowed select: the PiT-slice query, `lo ≤ ua < hi` over a
    // time-sorted table. Naive evaluates the predicate on every row; the
    // compiled plan binary-searches the sorted column and prunes blocks
    // with the zone maps.
    let ua = table.column("ua").expect("ua column");
    let (t0, t1) = (
        ua.first().and_then(Value::as_i64).unwrap_or(0),
        ua.last().and_then(Value::as_i64).unwrap_or(0),
    );
    let span = (t1 - t0).max(1);
    let lo = t0 + span / 2;
    let hi = lo + span / 100;
    let window_pred = Predicate::Between("ua".into(), Value::Timestamp(lo), Value::Timestamp(hi));

    // Identity gates before timing: compiled ≡ naive, and the parallel
    // block scan is byte-identical for every worker count.
    let expected = table.filter_naive(&window_pred);
    let expected_json = mscope_serdes::to_string(&expected);
    for workers in [0usize, 1, 2, 4, 8] {
        let rows = CompiledPredicate::compile(&table, &window_pred).matching_rows_with(workers);
        assert_eq!(
            mscope_serdes::to_string(&table.select_rows(&rows)),
            expected_json,
            "windowed select drift at workers={workers}"
        );
    }
    eprintln!(
        "  windowed select identical across worker counts ({} rows match)",
        expected.row_count()
    );

    let (naive_select, n_naive) = best_of(samples, || table.filter_naive(&window_pred).row_count());
    let (compiled_select, n_compiled) = best_of(samples, || table.filter(&window_pred).row_count());
    assert_eq!(n_naive, n_compiled);
    let speedup_select = naive_select / compiled_select;
    eprintln!(
        "  windowed select: naive {:.4}s, compiled {:.4}s ({speedup_select:.1}x)",
        naive_select, compiled_select
    );

    // ---- Request-ID join: resolve `probes` request IDs against the
    // table, the access pattern of §IV-B flow reconstruction. Naive scans
    // the whole table per ID (`filter_naive(Eq)`); the compiled plan
    // builds the borrowed-key hash index once and probes it.
    let ids: Vec<Value> = (0..probes)
        .map(|k| Value::Text(format!("{:012x}", k * (rows / probes))))
        .collect();
    // Identity gate: per-ID row sets agree.
    {
        let index = KeyIndex::build(table.column("request_id").expect("request_id column"));
        for id in &ids {
            let naive_rows: Vec<usize> = {
                let pred = Predicate::Eq("request_id".into(), id.clone());
                (0..table.row_count())
                    .filter(|&i| pred.eval(&table, i))
                    .collect()
            };
            assert_eq!(index.rows(id), &naive_rows[..], "join drift for {id:?}");
        }
    }
    eprintln!("  request-ID join identical for {probes} probe IDs");

    let (naive_join, _) = best_of(samples, || {
        ids.iter()
            .map(|id| {
                let pred = Predicate::Eq("request_id".into(), id.clone());
                table.filter_naive(&pred).row_count()
            })
            .sum()
    });
    let (compiled_join, _) = best_of(samples, || {
        let index = KeyIndex::build(table.column("request_id").expect("request_id column"));
        ids.iter().map(|id| index.rows(id).len()).sum()
    });
    let speedup_join = naive_join / compiled_join;
    eprintln!(
        "  request-ID join: naive {:.4}s, compiled {:.4}s ({speedup_join:.1}x)",
        naive_join, compiled_join
    );

    // ---- Full hash join (materializing output) against its oracle: the
    // ratio is modest because output cloning dominates both sides, so it
    // is reported but not gated.
    let sample_rows: Vec<usize> = (0..probes).map(|k| k * (rows / probes)).collect();
    let front = table.select_rows(&sample_rows);
    let joined = front
        .inner_join(&table, "request_id", "request_id")
        .expect("join runs");
    let joined_naive = front
        .inner_join_naive(&table, "request_id", "request_id")
        .expect("join runs");
    assert_eq!(joined, joined_naive, "inner_join drift");
    let (hash_join, _) = best_of(samples, || {
        front
            .inner_join(&table, "request_id", "request_id")
            .expect("join runs")
            .row_count()
    });
    let (hash_join_naive, _) = best_of(samples, || {
        front
            .inner_join_naive(&table, "request_id", "request_id")
            .expect("join runs")
            .row_count()
    });
    let speedup_hash_join = hash_join_naive / hash_join;
    eprintln!(
        "  hash join (materialized): naive {:.4}s, typed gather {:.4}s ({speedup_hash_join:.1}x)",
        hash_join_naive, hash_join
    );

    // ---- SQL planner vs planner-off: the same parsed query run through
    // `query_opts` with the planner's choices live and pinned. The pair is
    // gated identical (and byte-identical across worker counts) before
    // timing, so the ratio isolates one planner decision.
    let mut db = Database::new();
    let front_schema = Schema::new(vec![
        Column::new("request_id", ColumnType::Text),
        Column::new("slot", ColumnType::Int),
    ])
    .expect("static schema is valid");
    let mut front_tbl = Table::new("front", front_schema);
    for (slot, row) in sample_rows.iter().enumerate() {
        front_tbl
            .push_row(vec![
                Value::Text(format!("{row:012x}")),
                Value::Int(slot as i64),
            ])
            .expect("row fits schema");
    }
    db.replace_table(front_tbl.clone()).expect("front installs");
    db.replace_table(table.clone()).expect("events install");

    // The identity gate: optimizer on ≡ optimizer off, and the optimized
    // run is byte-identical across serial and parallel worker counts.
    let gate = |sql: &str| -> Table {
        let on = db
            .query_opts(sql, QueryOptions::default())
            .expect("query runs");
        let off = db
            .query_opts(
                sql,
                QueryOptions {
                    workers: 0,
                    optimize: false,
                },
            )
            .expect("query runs");
        assert_eq!(on, off, "planner drift for `{sql}`");
        let on_json = mscope_serdes::to_string(&on);
        for workers in [1usize, 2, 8] {
            let leg = db
                .query_opts(
                    sql,
                    QueryOptions {
                        workers,
                        optimize: true,
                    },
                )
                .expect("query runs");
            assert_eq!(
                mscope_serdes::to_string(&leg),
                on_json,
                "worker drift for `{sql}` at workers={workers}"
            );
        }
        on
    };
    let sql_pair = |sql: &str, samples: usize| -> (f64, f64) {
        let (off_secs, n_off) = best_of(samples, || {
            db.query_opts(
                sql,
                QueryOptions {
                    workers: 0,
                    optimize: false,
                },
            )
            .expect("query runs")
            .row_count()
        });
        let (on_secs, n_on) = best_of(samples, || {
            db.query_opts(sql, QueryOptions::default())
                .expect("query runs")
                .row_count()
        });
        assert_eq!(n_off, n_on);
        (off_secs, on_secs)
    };

    // Join reorder: the planner hashes the small `front` table and probes
    // with the event stream; planner-off always hashes the right (large)
    // input, paying a {rows}-entry index build for a {probes}-row result.
    let sql_join = "SELECT slot, ua FROM front JOIN event_apache ON request_id = request_id";
    {
        let got = gate(sql_join);
        let naive = front_tbl
            .inner_join_naive(&table, "request_id", "request_id")
            .expect("join runs");
        for col in ["slot", "ua"] {
            assert_eq!(
                got.column(col),
                naive.column(col),
                "naive-join drift on `{col}` for `{sql_join}`"
            );
        }
    }
    let (join_off, join_on) = sql_pair(sql_join, samples);
    let speedup_reorder = join_off / join_on;
    eprintln!(
        "  join reorder: planner-off {:.4}s, planner {:.4}s ({speedup_reorder:.1}x)",
        join_off, join_on
    );

    assert!(
        speedup_select >= 3.0,
        "windowed select speedup {speedup_select:.2}x < 3x"
    );
    assert!(
        speedup_join >= 3.0,
        "request-ID join speedup {speedup_join:.2}x < 3x"
    );
    assert!(
        speedup_hash_join >= 2.0,
        "materialized hash join speedup {speedup_hash_join:.2}x < 2x"
    );
    assert!(
        speedup_reorder >= 1.5,
        "join reorder speedup {speedup_reorder:.2}x < 1.5x"
    );

    let result = |metric: &str, naive: f64, compiled: f64, n: usize| {
        Json::obj([
            ("metric", Json::Str(metric.to_string())),
            ("naive_seconds", Json::Float(naive)),
            ("compiled_seconds", Json::Float(compiled)),
            ("speedup", Json::Float(naive / compiled)),
            ("output_size", Json::Int(n as i128)),
        ])
    };
    let doc = Json::obj([
        ("bench", Json::Str("query_engine".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("rows", Json::Int(rows as i128)),
        ("samples", Json::Int(samples as i128)),
        ("probe_ids", Json::Int(probes as i128)),
        ("identity", Json::Bool(true)),
        ("parallel_scan_byte_identical", Json::Bool(true)),
        (
            "results",
            Json::Arr(vec![
                result("window_select", naive_select, compiled_select, n_compiled),
                result("request_id_join", naive_join, compiled_join, probes),
                result(
                    "hash_join_materialized",
                    hash_join_naive,
                    hash_join,
                    joined.row_count(),
                ),
                result("sql_join_reorder", join_off, join_on, probes),
            ]),
        ),
        ("speedup_window_select", Json::Float(speedup_select)),
        ("speedup_request_id_join", Json::Float(speedup_join)),
        (
            "speedup_hash_join_materialized",
            Json::Float(speedup_hash_join),
        ),
        ("speedup_join_reorder", Json::Float(speedup_reorder)),
    ]);
    let text = mscope_serdes::to_string_pretty(&doc);
    std::fs::write(&out_path, &text).expect("write bench output");
    eprintln!("  select {speedup_select:.1}x, join {speedup_join:.1}x -> {out_path}");
}
