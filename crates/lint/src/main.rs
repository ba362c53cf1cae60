//! The `mscope-lint` binary.
//!
//! ```text
//! mscope-lint <declarations|source|trace|det|perf|all> [--format <text|json>]
//!             [--root <path>] [--scenario <name>]
//! ```
//!
//! `trace` runs the whole-pipeline flow analysis over every shipped
//! scenario preset (or one, with `--scenario`); `det` checks the
//! byte-identity parallel discipline (rules `DT001`, `DT002`, `DT005`,
//! `DT006`; clippy holds the rest); `perf` checks the hot-path
//! performance discipline (rules `PF001`–`PF008`); `all` runs every
//! front.
//! `--format json` (alias: `--json`) emits the machine-readable report —
//! each finding carries rule id, file, line, and severity — for CI
//! annotations and downstream tooling.
//!
//! Exit status: 0 when there is no deny-level finding, 1 when there is
//! at least one, 2 on usage or I/O errors.

use mscope_lint::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: mscope-lint <declarations|source|trace|det|perf|all> [--format <text|json>] [--root <path>] [--scenario <name>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut scenario: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (want text or json)"))
                }
                None => return usage_error("--format needs `text` or `json`"),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--scenario" => match it.next() {
                Some(s) => scenario = Some(s.to_string()),
                None => return usage_error("--scenario needs a preset name"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_string());
            }
            other => return usage_error(&format!("unrecognized argument `{other}`")),
        }
    }
    let Some(command) = command else {
        return usage_error("missing command");
    };

    let root = match root.map_or_else(discover_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mscope-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if scenario.is_some() && command != "trace" {
        return usage_error("--scenario only applies to the `trace` command");
    }
    if !mscope_lint::FRONTS.contains(&command.as_str()) {
        return usage_error(&format!("unknown command `{command}`"));
    }
    let report = match mscope_lint::run(&root, &command, scenario.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mscope-lint: {e}");
            return ExitCode::from(2);
        }
    };

    render(&report, json);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render(report: &Report, json: bool) {
    if json {
        println!("{}", mscope_serdes::to_string_pretty(report));
    } else {
        print!("{}", report.render_text());
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mscope-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]` section.
fn discover_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut dir: Option<&Path> = Some(&start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(format!(
        "no workspace root found above {} (pass --root)",
        start.display()
    ))
}
