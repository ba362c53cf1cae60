//! mScopeDB query performance: the interactive-analysis operations a
//! researcher runs while "scaling the mountain" of monitoring data.

use mscope_bench::{criterion_group, criterion_main, Criterion, Throughput};
use mscope_db::{AggFn, Column, ColumnType, Database, Predicate, Schema, Table, Value};

/// Builds a synthetic resource table: `rows` samples across 4 nodes.
fn resource_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("time", ColumnType::Int),
        Column::new("node", ColumnType::Text),
        Column::new("disk_util", ColumnType::Float),
        Column::new("cpu_user", ColumnType::Float),
    ])
    .expect("valid schema");
    let mut t = Table::new("collectl", schema);
    for i in 0..rows {
        let node = format!("tier{}-0", i % 4);
        t.push_row(vec![
            Value::Int((i as i64 / 4) * 50_000),
            Value::Text(node),
            Value::Float((i % 100) as f64),
            Value::Float(((i * 7) % 100) as f64),
        ])
        .expect("row fits schema");
    }
    t
}

/// Builds a synthetic event table with `rows` requests.
fn event_table(name: &str, rows: usize, offset: i64) -> Table {
    let schema = Schema::new(vec![
        Column::new("request_id", ColumnType::Text),
        Column::new("ua", ColumnType::Timestamp),
        Column::new("ud", ColumnType::Timestamp),
    ])
    .expect("valid schema");
    let mut t = Table::new(name, schema);
    for i in 0..rows {
        t.push_row(vec![
            Value::Text(format!("{i:012X}")),
            Value::Timestamp(i as i64 * 1000 + offset),
            Value::Timestamp(i as i64 * 1000 + offset + 5_000),
        ])
        .expect("row fits schema");
    }
    t
}

fn bench_queries(c: &mut Criterion) {
    let table = resource_table(100_000);
    let mut db = Database::new();
    db.replace_table(table.clone()).expect("collectl installs");
    let mut group = c.benchmark_group("warehouse/query");
    group.sample_size(20);
    group.throughput(Throughput::Elements(table.row_count() as u64));
    group.bench_function("filter_by_node", |b| {
        b.iter(|| {
            table
                .filter(&Predicate::Eq("node".into(), Value::Text("tier3-0".into())))
                .row_count()
        });
    });
    group.bench_function("window_agg_max", |b| {
        b.iter(|| {
            table
                .window_agg("time", 1_000_000, "disk_util", AggFn::Max)
                .expect("columns exist")
                .len()
        });
    });
    group.bench_function("order_by_float", |b| {
        b.iter(|| {
            table
                .order_by("disk_util", false)
                .expect("column exists")
                .row_count()
        });
    });
    group.bench_function("group_by_node_mean", |b| {
        b.iter(|| {
            db.query("SELECT node, AVG(cpu_user) FROM collectl GROUP BY node")
                .expect("columns exist")
                .row_count()
        });
    });
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let apache = event_table("event_apache", 20_000, 0);
    let mysql = event_table("event_mysql", 20_000, 200);
    let mut group = c.benchmark_group("warehouse/join");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("hash_join_request_id", |b| {
        b.iter(|| {
            apache
                .inner_join(&mysql, "request_id", "request_id")
                .expect("key columns exist")
                .row_count()
        });
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("warehouse/ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("push_50k_rows", |b| {
        b.iter(|| resource_table(50_000).row_count());
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_join, bench_ingest);
criterion_main!(benches);
