//! Per-crate allowlists for grandfathered findings.
//!
//! Each crate may carry a `crates/<name>/lint.allow` file (and the
//! workspace root a `lint.allow`) suppressing specific findings. One entry
//! per line:
//!
//! ```text
//! # comment
//! <rule> <file> <needle…>
//! ```
//!
//! `rule` is the finding's rule ID, `file` the workspace-relative path the
//! finding anchors to, and `needle…` (the rest of the line) a substring
//! that must appear in the finding's message. A finding is suppressed when
//! all three match. Entries that suppress nothing are themselves reported
//! (by `mscope-lint all`) as deny-level `stale-allow` findings so
//! allowlists shrink over time instead of rotting.

use crate::source::rel_path;
use crate::{Finding, Severity};
use std::fs;
use std::io;
use std::path::Path;

/// One allowlist entry, parsed from a `lint.allow` line.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// Rule ID the entry suppresses.
    pub rule: String,
    /// Workspace-relative file the finding must anchor to.
    pub file: String,
    /// Substring of the finding message.
    pub needle: String,
    /// Where the entry itself lives (for stale reporting).
    pub source: String,
    /// 1-based line in the allowlist file.
    pub source_line: u64,
}

/// The merged allowlists of a workspace, tracking which entries fired.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

/// Parses one `lint.allow` text. `source` names the file for stale
/// reporting; malformed lines (fewer than three fields) are themselves
/// deny findings — a broken allowlist must not silently allow nothing.
pub fn parse(source: &str, text: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(file), Some(needle)) => entries.push(AllowEntry {
                rule: rule.to_string(),
                file: file.to_string(),
                needle: needle.trim().to_string(),
                source: source.to_string(),
                source_line: idx as u64 + 1,
            }),
            _ => findings.push(Finding {
                rule: "bad-allow".to_string(),
                severity: Severity::Deny,
                file: source.to_string(),
                line: idx as u64 + 1,
                message: format!(
                    "malformed allowlist entry `{line}` (want `<rule> <file> <needle>`)"
                ),
            }),
        }
    }
    (entries, findings)
}

impl Allowlist {
    /// Builds an allowlist from parsed entries.
    pub fn new(entries: Vec<AllowEntry>) -> Allowlist {
        let used = vec![false; entries.len()];
        Allowlist { entries, used }
    }

    /// Drops findings matched by an entry, marking those entries used.
    pub fn filter(&mut self, findings: Vec<Finding>) -> Vec<Finding> {
        findings
            .into_iter()
            .filter(|f| {
                let mut hit = false;
                for (i, e) in self.entries.iter().enumerate() {
                    if e.rule == f.rule && e.file == f.file && f.message.contains(&e.needle) {
                        self.used[i] = true;
                        hit = true;
                    }
                }
                !hit
            })
            .collect()
    }

    /// Deny findings for entries that never fired, so grandfathered
    /// suppressions cannot rot in place once the finding they covered is
    /// gone.
    pub fn unused_findings(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|(e, _)| Finding {
                rule: "stale-allow".to_string(),
                severity: Severity::Deny,
                file: e.source.clone(),
                line: e.source_line,
                message: format!(
                    "allowlist entry `{} {} {}` suppresses nothing; remove it",
                    e.rule, e.file, e.needle
                ),
            })
            .collect()
    }
}

/// Loads and merges `lint.allow` from the workspace root and every crate
/// directory. Returns the allowlist plus deny findings for malformed
/// entries — a broken allowlist line must fail the run, not silently
/// allow nothing.
///
/// # Errors
///
/// I/O errors reading an existing allowlist file.
pub fn load(root: &Path) -> io::Result<(Allowlist, Vec<Finding>)> {
    let mut files = vec![root.join("lint.allow")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        files.extend(dirs.into_iter().map(|d| d.join("lint.allow")));
    }
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for f in files {
        if !f.is_file() {
            continue;
        }
        let (e, bad) = parse(&rel_path(root, &f), &fs::read_to_string(&f)?);
        entries.extend(e);
        findings.extend(bad);
    }
    Ok((Allowlist::new(entries), findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, message: &str) -> Finding {
        Finding {
            rule: rule.into(),
            severity: Severity::Deny,
            file: file.into(),
            line: 3,
            message: message.into(),
        }
    }

    #[test]
    fn parse_skips_comments_and_flags_malformed_lines() {
        let text = "# header\n\nno-unwrap crates/x/src/a.rs row index\nbroken-line\n";
        let (entries, findings) = parse("crates/x/lint.allow", text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "no-unwrap");
        assert_eq!(entries[0].file, "crates/x/src/a.rs");
        assert_eq!(entries[0].needle, "row index");
        assert_eq!(entries[0].source_line, 3);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-allow");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn filter_suppresses_matches_and_reports_stale_entries() {
        let (entries, _) = parse(
            "lint.allow",
            "no-unwrap crates/x/src/a.rs in non-test\nno-unwrap crates/x/src/ghost.rs whatever\n",
        );
        let mut allow = Allowlist::new(entries);
        let kept = allow.filter(vec![
            finding(
                "no-unwrap",
                "crates/x/src/a.rs",
                "`.unwrap()` in non-test library code",
            ),
            finding(
                "no-unwrap",
                "crates/x/src/b.rs",
                "`.unwrap()` in non-test library code",
            ),
            finding("no-wallclock", "crates/x/src/a.rs", "in non-test code"),
        ]);
        // Only the exact rule+file+needle match is suppressed.
        assert_eq!(kept.len(), 2);
        assert!(kept
            .iter()
            .all(|f| f.file != "crates/x/src/a.rs" || f.rule != "no-unwrap"));
        let stale = allow.unused_findings();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-allow");
        assert_eq!(stale[0].severity, Severity::Deny);
        assert!(stale[0].message.contains("ghost.rs"));
    }
}
