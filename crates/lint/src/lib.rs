//! # mscope-lint — static analysis for the milliScope workspace
//!
//! Five analysis fronts, all zero-dependency and fully offline:
//!
//! 1. **Domain checker** ([`domain`]) — validates the *real* parsing
//!    declarations the standard monitor suite produces (via
//!    [`mscope_transform::declare::check`]) and statically checks every
//!    `SELECT …` string literal found in non-test workspace source against
//!    the schemas those declarations predict (via
//!    [`mscope_db::sql::check_with`]). A malformed pattern, an unjoinable
//!    event table, a schema conflict, or a query naming a column that will
//!    never exist is reported here instead of failing deep inside a
//!    pipeline run.
//! 2. **Source scanner** ([`source`]) — a line/token level Rust scanner
//!    (no rustc internals), whose one walk and per-file source model every
//!    file-level front shares. Its own rule, `hermetic-deps`, refuses
//!    non-path dependencies in any manifest.
//! 3. **Trace front** ([`trace`], over the abstract domains of [`model`])
//!    — whole-pipeline flow analysis: for every shipped scenario preset it
//!    proves, before anything runs, that the request ID injected at the
//!    first tier survives every tier-to-tier edge, that every tier logs
//!    all four UA/UD/DS/DR boundaries with DS/DR paired across adjacent
//!    tiers, that field types flow from declaration to analysis query with
//!    no lossy narrowing, and that monitors share one clock domain and
//!    sample finely enough for the scenario's phenomena (rules
//!    `TR001`–`TR008`).
//! 4. **Determinism front** ([`det`]) — no float reduction in a worker
//!    closure without a documented merge order, and tie-broken timestamp
//!    sorts (rules `DT002`, `DT006`).
//! 5. **Performance front** ([`perf`]) — no allocation, predicate
//!    compilation or sort inside a hot-path loop and no row-wise `Table`
//!    scan outside the compiled engine without a `// perf:` justification
//!    (rules `PF001`, `PF004`, `PF006`, `PF008`).
//!
//! Those six text rules are the ones whose planted violation got past
//! every other gate: it changed output bytes (`DT002`, `DT006`) or slowed
//! an end-to-end workload (`PF001`, `PF004`, `PF006`, `PF008`) while
//! clippy, the test suites and `bench_delta` stayed green (EXPERIMENTS.md,
//! the planted-regression table). The others of the two fronts went to
//! clippy or were retired. The performance rules are rows of one table in
//! [`perf`], evaluated by one function.
//!
//! Findings carry a stable rule ID, a severity, and a `file:line` anchor.
//! A rule that needs a path or a type resolved is not here but in the
//! compiler (DESIGN.md §7), all run by CI's `cargo clippy --workspace
//! --all-targets -- -D warnings`:
//!
//! - `no-unwrap` is `#![deny(clippy::unwrap_used, …)]` in the hot-path
//!   crates' roots;
//! - `DT001` is `clippy::iter_over_hash_type` (`for` loops over a hash
//!   collection) plus `disallowed-methods` entries for the hash
//!   collections' iterating methods; `PF002` is `clippy::needless_collect`;
//!   `PF001`'s `.clone()` needle is also `clippy::redundant_clone`, which
//!   sees only the clones it can prove redundant. The three lints are
//!   denied in every identity-gated crate root;
//! - `no-wallclock`, `DT003`, `DT004`, `DT005`, `DT008` and `PF005` are
//!   `disallowed-methods`/`disallowed-types` in `crates/clippy.toml` and
//!   its copies, and `DT005`'s `static mut` is refused by the
//!   `#![forbid(unsafe_code)]` of every identity-gated crate.
//!
//! `PF003` and `PF007` are retired: a planted violation of `PF003` moved
//! no end-to-end median past the parent's spread, and one of `PF007` was
//! caught by a bench gate. [`run`] is the one entry point: the `mscope-lint`
//! binary runs one front or `all` of them and exits non-zero on any
//! deny-level finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod det;
pub mod domain;
pub mod model;
pub mod perf;
pub mod source;
pub mod trace;

use std::fmt;
use std::io;
use std::path::Path;

/// Every front the `mscope-lint` binary accepts, in documentation order;
/// `all` runs the preceding fronts together, in this order.
pub const FRONTS: &[&str] = &["declarations", "source", "trace", "det", "perf", "all"];

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory; does not fail the build.
    Warn,
    /// Violation; `mscope-lint` exits non-zero.
    Deny,
}
mscope_serdes::json_enum!(Severity { Warn, Deny });

/// One lint finding, from any front.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable rule identifier (documented in DESIGN.md §Static analysis).
    pub rule: String,
    /// Deny or warn.
    pub severity: Severity,
    /// Workspace-relative file path, or the declaration at fault for
    /// domain findings that have no file.
    pub file: String,
    /// 1-based line anchor; 0 when the finding is not line-anchored.
    pub line: u64,
    /// Human-readable explanation.
    pub message: String,
}
mscope_serdes::json_struct!(Finding {
    rule,
    severity,
    file,
    line,
    message
});

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        };
        if self.line > 0 {
            write!(
                f,
                "{}:{}: {sev} [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        } else {
            write!(f, "{}: {sev} [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// A completed lint run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
}
mscope_serdes::json_struct!(Report { findings });

impl Report {
    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.findings.len() - self.deny_count()
    }

    /// `true` when no deny-level finding is present.
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Human-readable rendering, one `file:line: severity [rule] message`
    /// row per finding, plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding(s): {} deny, {} warn\n",
            self.findings.len(),
            self.deny_count(),
            self.warn_count()
        ));
        out
    }
}

/// Runs one front over the workspace at `root` — or, for `all`, every
/// other front in [`FRONTS`] order. `scenario` narrows the trace front to
/// one preset. The workspace is read once (`source::Workspace::load`)
/// whatever the front.
///
/// # Errors
///
/// I/O errors reading source files; `InvalidInput` for an unknown front
/// or scenario.
pub fn run(root: &Path, front: &str, scenario: Option<&str>) -> io::Result<Report> {
    let fronts = if front == "all" {
        &FRONTS[..FRONTS.len() - 1]
    } else {
        std::slice::from_ref(&front)
    };
    let ws = source::Workspace::load(root)?;
    let mut findings = Vec::new();
    for &f in fronts {
        match f {
            "declarations" => {
                findings.extend(domain::declaration_findings());
                findings.extend(domain::sql_findings(&source::sql_literals(&ws.files)));
            }
            "source" => {
                for (rel, text) in &ws.manifests {
                    findings.extend(source::lint_manifest(rel, text));
                }
            }
            "trace" => findings.extend(
                trace::trace_findings_for(scenario)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
            ),
            "det" => findings.extend(ws.files.iter().flat_map(det::findings)),
            "perf" => findings.extend(ws.files.iter().flat_map(perf::findings)),
            other => {
                let msg = format!("unknown front `{other}`");
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
    }
    Ok(Report { findings })
}

/// Lints one Rust source text as non-test code of `crate_name`: the
/// determinism and performance fronts' findings for it, in that order,
/// exactly as a workspace run reports them. `rel` is the
/// workspace-relative path used in findings. Exposed for fixture tests.
pub fn lint_file(crate_name: &str, rel: &str, text: &str) -> Vec<Finding> {
    let file = source::FileCtx::new(rel, crate_name, text.to_string());
    let mut out = det::findings(&file);
    out.extend(perf::findings(&file));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_rendering() {
        let r = Report {
            findings: vec![
                Finding {
                    rule: "no-unwrap".into(),
                    severity: Severity::Deny,
                    file: "crates/x/src/lib.rs".into(),
                    line: 7,
                    message: "`unwrap()` in library code".into(),
                },
                Finding {
                    rule: "schema-conflict".into(),
                    severity: Severity::Warn,
                    file: "`a.log` → t".into(),
                    line: 0,
                    message: "join degenerates".into(),
                },
            ],
        };
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("crates/x/src/lib.rs:7"));
        assert!(text.contains("[no-unwrap]"));
        assert!(text.contains("2 finding(s): 1 deny, 1 warn"));
    }

    #[test]
    fn report_round_trips_as_json() {
        let r = Report {
            findings: vec![Finding {
                rule: "sql-unknown-column".into(),
                severity: Severity::Deny,
                file: "examples/x.rs".into(),
                line: 12,
                message: "no column `ghost`".into(),
            }],
        };
        let text = mscope_serdes::to_string(&r);
        let back: Report = mscope_serdes::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn all_is_every_front_in_order() {
        // A workspace with findings on every file-level front: `all` must be
        // exactly each front's own run, concatenated in `FRONTS` order.
        let dir = std::env::temp_dir().join("mscope-lint-all-fronts");
        let src = dir.join("crates/warehouse/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(dir.join("examples")).unwrap();
        std::fs::write(
            dir.join("crates/warehouse/Cargo.toml"),
            "[dependencies]\nrand = \"0.8\"\n",
        )
        .unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "fn f(rows: &mut [Row]) -> Vec<String> {\n\
                 rows.sort_by_key(|r| r.time);\n\
                 let mut out = Vec::new();\n\
                 for r in rows { out.push(r.name.clone()); }\n\
                 out\n}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("examples/q.rs"),
            "fn main() { run(\"SELECT ghost FROM collectl\"); }\n",
        )
        .unwrap();
        let each: Vec<Vec<Finding>> = FRONTS[..FRONTS.len() - 1]
            .iter()
            .map(|front| run(&dir, front, None).unwrap().findings)
            .collect();
        let all = run(&dir, "all", None).unwrap().findings;
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(all, each.concat());
        let rules = |i: usize| -> Vec<&str> { each[i].iter().map(|f| f.rule.as_str()).collect() };
        assert_eq!(rules(0), ["sql-unknown-column"]);
        assert_eq!(rules(1), ["hermetic-deps"]);
        assert!(rules(2).is_empty(), "every preset proves clean");
        assert_eq!(rules(3), ["DT006"]);
        assert_eq!(rules(4), ["PF001"]);
        assert!(run(&dir, "ghost", None).is_err());
    }
}
