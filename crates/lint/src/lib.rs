//! # mscope-lint — static analysis for the milliScope workspace
//!
//! Four analysis fronts, all zero-dependency and fully offline:
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
//!    (no rustc internals) enforcing workspace conventions: no
//!    `unwrap()`/`expect()`/`panic!` in non-test library code of the
//!    hot-path crates, no non-path dependencies in any manifest, and no
//!    wall-clock reads inside the deterministic simulation crate.
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
//!    order, no threads or interior mutability outside the sanctioned
//!    `WorkQueue` pools, per-cell RNG stream hygiene, tie-broken
//!    timestamp sorts, and no worker-count reads outside the plan
//!    selectors (rules `DT001`–`DT008`; `DT007` is retired).
//! 5. **Performance front** ([`perf`]) — statically proves the hot paths
//!    stay hot before the BENCH gates ever run: no allocation or
//!    re-sorting inside hot-path loops without a `// perf:`
//!    justification, no collect-then-reiterate churn, pre-sized growth in
//!    bounded loops, no row-wise `Table` access or nested-loop joins
//!    bypassing the compiled zone-map engine, no `*_naive` oracle calls
//!    on production paths, and no per-row predicate compilation (rules
//!    `PF001`–`PF008`).
//!
//! Findings carry a stable rule ID, a severity, and a `file:line` anchor.
//! Grandfathered sites are suppressed through per-crate `lint.allow` files
//! ([`allow`]). The `mscope-lint` binary runs either front or both and
//! exits non-zero when any deny-level finding survives the allowlists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
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
/// `all` runs the preceding fronts together. CI must invoke each front
/// explicitly — `tests/ci_matrix.rs` fails when the workflow's lint
/// invocations drift from this list, so a new front cannot be silently
/// left out of enforcement.
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

/// Runs the domain front (declarations + SQL literals) over the workspace
/// at `root`, applying its allowlists.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_declarations(root: &Path) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let mut findings = domain::declaration_findings();
    let literals = source::sql_literals(root)?;
    findings.extend(domain::sql_findings(&literals));
    let mut findings = allow.filter(findings);
    findings.append(&mut bad_entries);
    Ok(Report { findings })
}

/// Runs the source front (workspace convention lints) over the workspace
/// at `root`, applying its allowlists.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_source(root: &Path) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let mut findings = allow.filter(source::scan(root)?);
    findings.append(&mut bad_entries);
    Ok(Report { findings })
}

/// Runs the trace front over the shipped scenario presets (or one preset
/// when `scenario` is given), applying the workspace allowlists.
///
/// # Errors
///
/// I/O errors reading allowlists, or `InvalidInput` for an unknown
/// scenario name.
pub fn run_trace(root: &Path, scenario: Option<&str>) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let raw = trace::trace_findings_for(scenario)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut findings = allow.filter(raw);
    findings.append(&mut bad_entries);
    Ok(Report { findings })
}

/// Runs the determinism front (`DT001`–`DT008`) over the workspace at
/// `root`, applying its allowlists.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_det(root: &Path) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let mut findings = allow.filter(det::scan(root)?);
    findings.append(&mut bad_entries);
    Ok(Report { findings })
}

/// Runs the performance front (`PF001`–`PF008`) over the workspace at
/// `root`, applying its allowlists.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_perf(root: &Path) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let mut findings = allow.filter(perf::scan(root)?);
    findings.append(&mut bad_entries);
    Ok(Report { findings })
}

/// Runs all five fronts. This is the only mode that also reports stale
/// allowlist entries (`stale-allow`) — a single front cannot tell whether
/// an entry for another front still fires.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_all(root: &Path) -> io::Result<Report> {
    run_all_with(root, false)
}

/// [`run_all`] with an explicit strictness: when `strict`, stale allowlist
/// entries are deny findings instead of warnings, so grandfathered
/// suppressions cannot rot in place once the finding they covered is gone.
///
/// # Errors
///
/// I/O errors reading source files or allowlists.
pub fn run_all_with(root: &Path, strict: bool) -> io::Result<Report> {
    let (mut allow, mut bad_entries) = allow::load(root)?;
    let mut findings = domain::declaration_findings();
    let literals = source::sql_literals(root)?;
    findings.extend(domain::sql_findings(&literals));
    findings.extend(source::scan(root)?);
    findings.extend(trace::trace_findings());
    findings.extend(det::scan(root)?);
    findings.extend(perf::scan(root)?);
    let mut findings = allow.filter(findings);
    findings.append(&mut bad_entries);
    let stale_severity = if strict {
        Severity::Deny
    } else {
        Severity::Warn
    };
    findings.extend(allow.unused_findings_at(stale_severity));
    Ok(Report { findings })
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
}
