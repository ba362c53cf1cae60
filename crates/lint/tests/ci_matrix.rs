//! Guards the CI lint configuration against drift.
//!
//! `.github/workflows/ci.yml` runs one `trace-scenarios` leg per shipped
//! scenario preset so a trace regression names the exact scenario it
//! breaks, and `mscope-lint all`, which runs every front in
//! [`mscope_lint::FRONTS`] (the lint crate's own tests pin that `all` is
//! exactly the concatenation of the fronts). Both are data in a YAML
//! file, invisible to the compiler — these tests re-parse the workflow
//! and fail the workspace whenever it no longer matches
//! [`SystemConfig::presets`] exactly, in either direction, or stops
//! running `all`. The bench-smoke job's bench-delta guard is held to
//! the same standard: every committed smoke baseline must be compared, and
//! every bench target must run there and have a baseline.
//! So is the step that builds and tests `benchmark/`, the one consumer of
//! the crates' public API that lives outside the workspace, and the
//! Clippy step, which enforces the rules `mscope-lint` handed to clippy.

use mscope_ntier::SystemConfig;

fn ci_yml() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../.github/workflows/ci.yml"
    );
    std::fs::read_to_string(path).expect("ci.yml exists at the workspace root")
}

/// Extracts the `scenario:` matrix entries from the workflow file with a
/// purpose-built scan (no YAML dependency): the list is the block of
/// `- item` lines directly under the `scenario:` key.
fn ci_matrix_scenarios(yml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_block = false;
    let mut block_indent = 0;
    for line in yml.lines() {
        let trimmed = line.trim();
        if !in_block {
            if trimmed == "scenario:" {
                in_block = true;
                block_indent = line.len() - line.trim_start().len();
            }
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        if let Some(item) = trimmed.strip_prefix("- ") {
            if indent > block_indent {
                out.push(item.trim().to_string());
                continue;
            }
        }
        if trimmed.is_empty() {
            continue;
        }
        // First non-item line at or above the key's indent ends the block.
        in_block = false;
    }
    out
}

/// The `name` of every `[[bench]]` table of a Cargo manifest.
fn bench_targets(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(value) = line.strip_prefix("name").filter(|_| in_bench) {
            let value = value.trim_start().strip_prefix('=').unwrap_or(value);
            out.push(value.trim().trim_matches('"').to_string());
        }
    }
    out
}

/// The lines of one job of the workflow, from its `  <name>:` key up to the
/// next job key.
fn job_lines<'a>(yml: &'a str, name: &str) -> Vec<&'a str> {
    let key = format!("  {name}:");
    let is_job_key = |l: &&str| l.starts_with("  ") && !l[2..].starts_with([' ', '#']);
    yml.lines()
        .skip_while(|l| *l != key)
        .skip(1)
        .take_while(|l| !is_job_key(l))
        .collect()
}

/// The front named by each `mscope-lint -- <front> …` invocation in the
/// workflow, deduplicated (`trace` appears once per matrix leg).
fn ci_lint_fronts(yml: &str) -> Vec<String> {
    let mut fronts: Vec<String> = yml
        .lines()
        .filter_map(|l| l.split("mscope-lint -- ").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    fronts.sort();
    fronts.dedup();
    fronts
}

#[test]
fn trace_matrix_matches_shipped_presets() {
    let yml = ci_yml();

    let mut in_ci: Vec<String> = ci_matrix_scenarios(&yml);
    let mut shipped: Vec<String> = SystemConfig::presets()
        .into_iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert!(
        !in_ci.is_empty(),
        "found no `scenario:` matrix in ci.yml — was the job renamed?"
    );
    in_ci.sort();
    shipped.sort();
    assert_eq!(
        in_ci, shipped,
        "the trace-scenarios matrix in .github/workflows/ci.yml drifted from \
         SystemConfig::presets(); add/remove the matrix leg to match"
    );
}

#[test]
fn lint_invocations_cover_every_front() {
    // `all` runs every front once; the per-preset `trace --scenario` legs
    // only name the scenario a trace regression breaks.
    let yml = ci_yml();
    assert_eq!(
        ci_lint_fronts(&yml),
        ["all", "trace"],
        "ci.yml must run `mscope-lint -- all` plus the trace-scenarios matrix"
    );
    assert!(
        yml.lines()
            .any(|l| l.trim_end().ends_with("mscope-lint -- all")),
        "ci.yml must run `mscope-lint -- all` with no extra arguments"
    );
}

#[test]
fn bench_delta_guard_covers_every_smoke_baseline() {
    // The bench-smoke job must compare every committed smoke baseline
    // against the freshly written summary via the bench_delta guard, so a
    // new baseline file cannot land without CI enforcing it.
    let yml = ci_yml();
    assert!(
        yml.contains("--bin bench_delta"),
        "ci.yml must run the bench_delta guard in the bench-smoke job"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../crates/bench/baselines");
    let mut baselines = 0usize;
    for entry in std::fs::read_dir(dir).expect("committed baselines directory exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.ends_with(".smoke.json") {
            continue;
        }
        baselines += 1;
        assert!(
            yml.contains(&format!("crates/bench/baselines/{name}")),
            "ci.yml bench-delta guard does not compare against baseline `{name}`"
        );
    }
    assert!(
        baselines >= 4,
        "expected smoke baselines for the query, transform, sim, and stream benches"
    );
}

#[test]
fn every_bench_target_is_run_and_guarded() {
    // A bench no CI job runs, or whose headline no baseline holds, reports
    // numbers that cannot regress: each `[[bench]]` target of the bench
    // crate is a `cargo bench … --bench <name>` step of the bench-smoke job
    // and has a committed smoke baseline for the bench_delta guard.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let manifest = std::fs::read_to_string(format!("{root}/crates/bench/Cargo.toml"))
        .expect("bench crate manifest exists");
    let targets = bench_targets(&manifest);
    assert!(!targets.is_empty(), "found no [[bench]] in crates/bench");
    let yml = ci_yml();
    let smoke = job_lines(&yml, "bench-smoke");
    let unguarded: Vec<&str> = targets
        .iter()
        .map(String::as_str)
        .filter(|name| {
            let run = smoke.iter().any(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                l.contains("cargo bench") && words.windows(2).any(|w| w == ["--bench", name])
            });
            let baseline = format!("{root}/crates/bench/baselines/{name}.smoke.json");
            !(run && std::path::Path::new(&baseline).is_file())
        })
        .collect();
    assert!(
        unguarded.is_empty(),
        "bench targets with no bench-smoke step in ci.yml or no smoke baseline: {unguarded:?}"
    );
}

#[test]
fn end_to_end_benchmark_is_built_and_tested() {
    // `benchmark/` is outside the workspace, so `--workspace` steps never
    // compile it; without this step a public-API break against it stays
    // invisible until the benchmark pipeline runs.
    let yml = ci_yml();
    assert!(
        yml.lines().any(|l| l.trim_start().starts_with("run:")
            && l.contains("cargo test")
            && l.contains("--release")
            && l.contains("--manifest-path benchmark/Cargo.toml")),
        "ci.yml must run `cargo test --release --offline --manifest-path benchmark/Cargo.toml`"
    );
}

#[test]
fn clippy_step_keeps_the_flags_the_moved_rules_need() {
    // `no-unwrap`, `no-wallclock`, DT001, DT003, DT004, DT005, DT008,
    // PF001's clone needle, PF002 and PF005 are clippy lints now: without
    // `--workspace` a crate goes unchecked,
    // without `--all-targets` the `#[expect]` sites of test builds go
    // unchecked, and without `-D warnings` every `disallowed_*` hit and
    // every stale `#[expect]` is only a warning.
    let yml = ci_yml();
    let lines: Vec<&str> = yml.lines().collect();
    let step = lines
        .iter()
        .position(|l| l.trim() == "- name: Clippy")
        .expect("ci.yml has a `Clippy` step");
    let run = lines[step + 1].trim();
    assert_eq!(
        run, "run: cargo clippy --workspace --all-targets -- -D warnings",
        "the Clippy step must keep `--workspace --all-targets -- -D warnings`"
    );
}

#[test]
fn bench_delta_tracks_the_planner_ratios() {
    // The query-engine bench reports the SQL planner's headline ratios;
    // they must stay under the bench-delta guard (and therefore in the
    // committed smoke baseline), or a planner regression could land with
    // CI green. Both files are data, so re-parse them like ci.yml above.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let tracked = std::fs::read_to_string(format!("{root}/crates/bench/src/bin/bench_delta.rs"))
        .expect("bench_delta guard exists");
    let baseline = std::fs::read_to_string(format!(
        "{root}/crates/bench/baselines/query_engine.smoke.json"
    ))
    .expect("query_engine smoke baseline exists");
    for metric in ["speedup_hash_join_materialized", "speedup_join_reorder"] {
        assert!(
            tracked.contains(&format!("\"{metric}\"")),
            "bench_delta TRACKED no longer lists `{metric}`"
        );
        assert!(
            baseline.contains(&format!("\"{metric}\"")),
            "query_engine smoke baseline lacks `{metric}` — regenerate with --smoke"
        );
    }
}

#[test]
fn front_extractor_reads_invocation_lines() {
    let yml = "
      - run: cargo run --release -p mscope-lint -- all
      - run: cargo run --release -p mscope-lint -- trace --scenario a
      - run: cargo run --release -p mscope-lint -- trace --scenario b
      - run: cargo run --release -p mscope-lint -- det
";
    assert_eq!(ci_lint_fronts(yml), vec!["all", "det", "trace"]);
}

#[test]
fn bench_and_job_extractors_read_their_blocks() {
    let manifest = "
[dependencies]
name = \"not-a-bench\"

[[bench]]
name = \"a\"
harness = false

[[bench]]
harness = false
name=\"b\"
";
    assert_eq!(bench_targets(manifest), vec!["a", "b"]);
    let yml = "
jobs:
  one:
    steps:
      - run: x
  # about two
  two:
    steps:
      - run: y
";
    assert_eq!(
        job_lines(yml, "one"),
        vec!["    steps:", "      - run: x", "  # about two"]
    );
}

#[test]
fn matrix_parser_reads_nested_lists() {
    let yml = "
jobs:
  a:
    strategy:
      matrix:
        scenario:
          - one
          - two
        seed: [1, 2]
";
    assert_eq!(ci_matrix_scenarios(yml), vec!["one", "two"]);
}
