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
//! 4. **Determinism front** ([`det`]) — statically proves the
//!    byte-identity parallel discipline the runtime property suites gate
//!    dynamically: no hash-ordered iteration reaching output paths, no
//!    float reductions in worker closures without a documented merge
//!    order, no `static mut` or relaxed atomics outside the sanctioned
//!    `WorkQueue` pools, and tie-broken timestamp sorts (rules `DT001`,
//!    `DT002`, `DT005`, `DT006`; `DT007` is retired).
//! 5. **Performance front** ([`perf`]) — statically proves the hot paths
//!    stay hot before the BENCH gates ever run: no allocation or
//!    re-sorting inside hot-path loops without a `// perf:`
//!    justification, no collect-then-reiterate churn, pre-sized growth in
//!    bounded loops, no row-wise `Table` access or nested-loop joins
//!    bypassing the compiled zone-map engine, no `*_naive` oracle calls
//!    on production paths, and no per-row predicate compilation (rules
//!    `PF001`–`PF008`).
//!
//! Five rules that are a needle, a scope, an escape hatch and a message
//! are rows of one table (`needle.rs`) evaluated by one function. Findings
//! carry a stable rule ID, a severity, and a `file:line` anchor. A rule
//! that needs a path resolved is not here but in the compiler, which
//! resolves it: `no-unwrap` (`#![deny(clippy::unwrap_used, …)]` in the
//! hot-path crates), and `no-wallclock`, `DT003`, `DT004`, `DT008` and
//! `DT005`'s types (`disallowed-methods`/`disallowed-types` in
//! `crates/clippy.toml` and its copies), all run by CI's `cargo clippy
//! --workspace --all-targets -- -D warnings`. [`run`] is the one entry
//! point: the `mscope-lint` binary runs one front or `all` of them and
//! exits non-zero on any deny-level finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod det;
pub mod domain;
pub mod model;
mod needle;
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

/// One lint finding, from either front.
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
/// workspace-relative path used in findings and to recognise sanctioned
/// files. Exposed for fixture tests.
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
            "fn f(rows: &[Row], hits: &AtomicU64) -> Vec<String> {\n\
                 hits.fetch_add(1, Ordering::Relaxed);\n\
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
        assert_eq!(rules(3), ["DT005"]);
        assert_eq!(rules(4), ["PF001", "PF003"]);
        assert!(run(&dir, "ghost", None).is_err());
    }
}
