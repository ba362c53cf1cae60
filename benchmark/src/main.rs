//! The milliScope end-to-end benchmark.
//!
//! ```text
//! mscope-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! mscope-benchmark [--seed N] [--seconds S] [--smoke]              every workload, both runs, results file
//! mscope-benchmark --selfcheck [--seed N]                          two sets of ten runs, compared to the bounds
//! ```
//!
//! Normally started through `benchmark/run.sh`, which builds it first.
//! See `benchmark/README.md` for the workloads, the metrics and how to
//! read the ledger.

#![forbid(unsafe_code)]

mod inputs;
mod openloop;
mod orchestrate;
mod procfs;
mod span;
mod spec;
mod stats;
mod workloads;

use mscope_serdes::Json;
use orchestrate::{RunConfig, WorkloadResult};
use spec::Better;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mscope-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--smoke] [--selfcheck] [--out DIR]";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    out: Option<PathBuf>,
    child: Option<String>,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str, v: &str| format!("`{flag}`: `{v}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| bad("a seed", v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number of seconds", v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds", v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--child" => args.child = Some(value()?.to_string()),
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Default measured seconds per run; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 24.0;
/// Measured seconds per run under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

fn run_config(args: &Args) -> RunConfig {
    RunConfig {
        seed: args.seed.unwrap_or(spec::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: args.smoke,
        // Beside the binary's sources unless told otherwise; `run.sh`
        // always passes the checkout's own `benchmark/out`.
        out_dir: args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("benchmark/out")),
    }
}

/// One workload, one run, one result line — what the driver calls.
fn driver_run(workload: &str, args: &Args) -> ExitCode {
    let cfg = run_config(args);
    let result = orchestrate::run_workload(workload, args.trace, &cfg);
    eprint!("{}", orchestrate::render_table(workload, &result));
    println!("{}", orchestrate::result_line(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced; prints every metric and writes
/// `results.json` and `ledger.md`.
fn full_run(args: &Args) -> ExitCode {
    let cfg = run_config(args);
    let mut workloads = Vec::new();
    let mut ledger_md = format!(
        "# Where the time goes\n\nSeed {}, {} trials, {} cores. Per workload: the end-to-end \
         metrics of the untraced run, then the spans of one traced child; `job` repeats the \
         untraced job inside spans, `replay` decomposes what its calls hide. \
         Self time is a span's duration minus what its children cover.\n",
        cfg.seed,
        if cfg.smoke { "smoke" } else { "full" },
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let mut failed = 0;
    for w in spec::WORKLOADS {
        let e2e = orchestrate::run_workload(w.name, false, &cfg);
        print!("{}", orchestrate::render_table(w.name, &e2e));
        let layers = orchestrate::run_workload(w.name, true, &cfg);
        print!("{}", orchestrate::render_table(w.name, &layers));
        failed += e2e.failed + layers.failed;
        ledger_md.push_str(&format!(
            "\n## {}\n\n```text\n{}```\n\n{}",
            w.name,
            orchestrate::render_table(w.name, &e2e),
            span::ledger_markdown(&layers.ledger)
        ));
        workloads.push((
            w.name.to_string(),
            orchestrate::workload_json(&e2e, &layers),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Int(cfg.seed as i128)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("seconds", Json::Float(cfg.seconds)),
        (
            "host_cores",
            Json::Int(std::thread::available_parallelism().map_or(1, usize::from) as i128),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    for (file, text) in [
        ("results.json", mscope_serdes::to_string_pretty(&doc)),
        ("ledger.md", ledger_md),
    ] {
        match orchestrate::write_out(&cfg.out_dir, file, &text) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} failed operations or checks");
        ExitCode::FAILURE
    }
}

/// `true` when `second` is worse than `first` by more than `bound`.
fn worse_by_more_than(first: f64, second: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => second > first * (1.0 + bound),
        Better::Higher => second < first * (1.0 - bound),
    }
}

/// Runs per set in `--selfcheck`: what the driver makes.
const SELFCHECK_RUNS: usize = 10;

/// Two sets of [`SELFCHECK_RUNS`] untraced runs per workload, each run on
/// its own seed, compared the way the driver compares them: per metric
/// both medians, the quartile spread of each set, and the bound. The sets
/// take turns run by run, so a noisy stretch of the host falls on both.
fn selfcheck(args: &Args) -> ExitCode {
    let base = run_config(args);
    let mut verdict_ok = true;
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    for w in spec::WORKLOADS {
        let mut sets: [Vec<WorkloadResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..SELFCHECK_RUNS {
            let cfg = RunConfig {
                seed: base.seed + i as u64,
                ..base.clone()
            };
            for set in &mut sets {
                set.push(orchestrate::run_workload(w.name, false, &cfg));
            }
        }
        let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
        if failed > 0 {
            verdict_ok = false;
            for f in sets.iter().flatten().flat_map(|r| &r.failures) {
                println!("{:<13} FAILED: {f}", w.name);
            }
        }
        for m in &spec::END_TO_END {
            let values = |set: &[WorkloadResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == m.name))
                    .map(|(_, v)| v.value)
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let (spread_a, spread_b) = (stats::quartile_spread(&a), stats::quartile_spread(&b));
            let bound = m.bound.unwrap_or(0.0);
            let moved = worse_by_more_than(med_a, med_b, m.better, bound);
            // The set-up spread is reported but, as in the driver, only
            // its median is held to the bound.
            let wide = m.name != "setup_s" && spread_a.max(spread_b) > bound;
            let verdict = if moved {
                "FAIL: medians disagree"
            } else if wide {
                "FAIL: spread beyond bound"
            } else if m.name != "setup_s" && spread_a.max(spread_b) > bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            verdict_ok &= !(moved || wide);
            println!(
                "{:<13} {:<16} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                med_a,
                med_b,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0
            );
        }
    }
    if verdict_ok {
        println!(
            "selfcheck passed: {SELFCHECK_RUNS} runs per set, seeds {}..{}",
            base.seed,
            base.seed + SELFCHECK_RUNS as u64 - 1
        );
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\n{USAGE}\ndefault seed {}, held-out seed {}",
                spec::DEFAULT_SEED,
                spec::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    if let Some(leg) = &args.child {
        let cfg = run_config(&args);
        let sizes = if args.smoke {
            &inputs::SMOKE
        } else {
            &inputs::FULL
        };
        let workload = args.workload.as_deref().unwrap_or_default();
        let report =
            workloads::run_child(workload, leg, sizes, cfg.seed, args.traced, &cfg.out_dir);
        println!("{}", mscope_serdes::to_string(&report));
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    match &args.workload {
        Some(w) => driver_run(w, &args),
        None => full_run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload query_mix --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("query_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(12.0), true));
        let cfg = run_config(&a);
        assert_eq!((cfg.seed, cfg.seconds, cfg.smoke), (7, 12.0, false));
    }

    #[test]
    fn defaults_come_from_the_spec() {
        let cfg = run_config(&parse_args(&[]).unwrap());
        assert_eq!(cfg.seed, spec::DEFAULT_SEED);
        assert_eq!(cfg.seconds, DEFAULT_SECONDS);
        let smoke = run_config(&parse_args(&argv("--smoke")).unwrap());
        assert_eq!(smoke.seconds, SMOKE_SECONDS);
        assert_ne!(spec::DEFAULT_SEED, spec::HELD_OUT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        for (line, needle) in [
            ("--workload nope", "unknown workload"),
            ("--seed banana", "not a seed"),
            ("--seconds 0", "positive"),
            ("--trace 2", "0 or 1"),
            ("--seed", "needs a value"),
            ("--frobnicate", "unknown argument"),
        ] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.contains(needle), "`{line}` -> `{e}`");
        }
    }

    #[test]
    fn the_bound_is_directional() {
        assert!(worse_by_more_than(10.0, 11.5, Better::Lower, 0.10));
        assert!(!worse_by_more_than(10.0, 10.5, Better::Lower, 0.10));
        assert!(!worse_by_more_than(10.0, 5.0, Better::Lower, 0.10));
        assert!(worse_by_more_than(10.0, 8.5, Better::Higher, 0.10));
        assert!(!worse_by_more_than(10.0, 9.5, Better::Higher, 0.10));
        assert!(!worse_by_more_than(10.0, 20.0, Better::Higher, 0.10));
    }
}
