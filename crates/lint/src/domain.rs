//! Front 1: the domain checker.
//!
//! Validates the *real* parsing declarations the standard monitor suite
//! would produce — no simulation run required — and statically checks
//! `SELECT …` string literals found in workspace source against the table
//! schemas those declarations predict.
//!
//! Rule IDs produced here: everything from
//! [`mscope_transform::declare::check`] (`pattern-*`, `decl-*`,
//! `schema-conflict`) plus the SQL front (`sql-syntax`,
//! `sql-unknown-table`, `sql-unknown-column`, `sql-type-mismatch`,
//! `sql-error`).

use crate::source::SqlLiteral;
use crate::{Finding, Severity};
use mscope_db::{ColumnType, Database, DbError, Schema};
use mscope_monitors::MonitorSuite;
use mscope_ntier::{NodeId, SystemConfig, TierId, TierKind};
use mscope_transform::declaration_for;
use mscope_transform::declare::{self, ParsingDeclaration};

/// The declaration set mscope-lint checks: everything the standard monitor
/// suite deploys on the RUBBoS baseline topology, mapped through
/// [`declaration_for`], plus synthetic manifest entries exercising the
/// parsers the baseline does not deploy (collectl brief mode and the
/// generic key=value fallback) so every in-tree parser spec is validated.
pub fn standard_declarations() -> Vec<ParsingDeclaration> {
    let cfg = SystemConfig::rubbos_baseline(50);
    let suite = MonitorSuite::standard(&cfg);
    let mut manifest = suite.manifest(&cfg);
    let extra_node = NodeId {
        tier: TierId(0),
        replica: 0,
    };
    for tool in ["collectl-brief", "custom-probe"] {
        manifest.push(mscope_monitors::LogFileMeta {
            path: format!("logs/{tool}.log"),
            node: extra_node,
            tier_kind: TierKind::Apache,
            monitor_id: format!("{tool}-lint"),
            tool: tool.to_string(),
            format: "text".to_string(),
            kind: mscope_monitors::MonitorKind::Resource,
            period_ms: 1000,
        });
    }
    manifest.iter().map(declaration_for).collect()
}

/// Runs [`declare::check`] over [`standard_declarations`] and adapts the
/// issues into lint [`Finding`]s. Declaration findings carry the subject
/// (``path` → table`) in the `file` field and no line anchor.
pub fn declaration_findings() -> Vec<Finding> {
    let decls = standard_declarations();
    declare::check(&decls)
        .into_iter()
        .map(|i| Finding {
            rule: i.rule.to_string(),
            severity: match i.severity {
                declare::Severity::Warn => Severity::Warn,
                declare::Severity::Deny => Severity::Deny,
            },
            file: i.subject,
            line: 0,
            message: i.message,
        })
        .collect()
}

/// The table schemas a pipeline run over [`standard_declarations`] will
/// produce: the four static mScopeDB tables plus, per destination table,
/// the lattice join of every feeding declaration's
/// [`declare::declared_columns`]. Columns whose type is statically unknown
/// stay [`ColumnType::Null`]; the SQL checker defers on those.
pub fn predicted_schemas() -> Vec<(String, Schema)> {
    fold_schemas(
        standard_declarations()
            .iter()
            .map(|d| (d.table.clone(), declare::declared_columns(d))),
    )
}

/// The static mScopeDB tables plus one schema per destination table, each
/// `(table, columns)` feed folded in with [`Schema::accommodate`] — the
/// fold both schema predictions (this front's and the trace front's
/// [`crate::model::ScenarioModel::predicted_schemas`]) share.
pub(crate) fn fold_schemas(
    feeds: impl IntoIterator<Item = (String, Vec<(String, ColumnType)>)>,
) -> Vec<(String, Schema)> {
    let db = Database::new();
    let mut out: Vec<(String, Schema)> = mscope_db::STATIC_TABLES
        .iter()
        .filter_map(|name| {
            db.table(name)
                .map(|t| (name.to_string(), t.schema().clone()))
        })
        .collect();
    for (table, columns) in feeds {
        let idx = match out.iter().position(|(t, _)| *t == table) {
            Some(i) => i,
            None => {
                out.push((table, Schema::default()));
                out.len() - 1
            }
        };
        for (name, ty) in columns {
            out[idx].1.accommodate(&name, ty);
        }
    }
    out
}

/// Maps a static-check error to its stable rule ID.
fn sql_rule(err: &DbError) -> &'static str {
    match err {
        DbError::BadQuery(_) => "sql-syntax",
        DbError::NoSuchTable(_) => "sql-unknown-table",
        DbError::NoSuchColumn(_) => "sql-unknown-column",
        DbError::TypeMismatch { .. } => "sql-type-mismatch",
        _ => "sql-error",
    }
}

/// Checks SQL literals against a caller-supplied schema set. Split from
/// [`sql_findings`] for testability.
pub fn sql_findings_against(literals: &[SqlLiteral], schemas: &[(String, Schema)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for lit in literals {
        let res = mscope_db::sql::check_with(&lit.text, |t| {
            schemas
                .iter()
                .find(|(name, _)| name == t)
                .map(|(_, s)| s.clone())
        });
        if let Err(e) = res {
            findings.push(Finding {
                rule: sql_rule(&e).to_string(),
                severity: Severity::Deny,
                file: lit.file.clone(),
                line: lit.line,
                message: format!("query `{}`: {e}", lit.text),
            });
        }
    }
    findings
}

/// Statically checks every extracted `SELECT …` literal against
/// [`predicted_schemas`].
pub fn sql_findings(literals: &[SqlLiteral]) -> Vec<Finding> {
    sql_findings_against(literals, &predicted_schemas())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_db::Column;

    #[test]
    fn standard_declarations_cover_every_parser_table() {
        let decls = standard_declarations();
        let tables: Vec<&str> = decls.iter().map(|d| d.table.as_str()).collect();
        for expect in [
            "event_apache",
            "event_tomcat",
            "event_cjdbc",
            "event_mysql",
            "collectl",
            "collectl_brief",
            "sar",
            "sar_mem",
            "sar_net",
            "sar_xml",
            "iostat",
            "custom_probe",
        ] {
            assert!(tables.contains(&expect), "missing table {expect}");
        }
    }

    #[test]
    fn real_declarations_are_clean() {
        assert!(
            declaration_findings().is_empty(),
            "{:?}",
            declaration_findings()
        );
    }

    #[test]
    fn predicted_schemas_include_static_and_dynamic_tables() {
        let schemas = predicted_schemas();
        let schema_of = |t: &str| {
            schemas
                .iter()
                .find(|(name, _)| name == t)
                .map(|(_, s)| s.clone())
        };
        let collectl = schema_of("collectl").expect("collectl predicted");
        assert!(collectl.index_of("node").is_some());
        assert!(collectl.index_of("disk_util").is_some());
        assert!(collectl.index_of("time").is_some());
        // The wall capture is typed; plain captures stay unknown.
        let cols = collectl.columns();
        let ty = |n: &str| cols[collectl.index_of(n).unwrap()].ty;
        assert_eq!(ty("time"), ColumnType::Timestamp);
        assert_eq!(ty("disk_util"), ColumnType::Null);
        let experiments = schema_of("experiments").expect("static table predicted");
        assert!(experiments.index_of("experiment_id").is_some());
    }

    fn lit(text: &str) -> SqlLiteral {
        SqlLiteral {
            file: "examples/x.rs".into(),
            line: 9,
            text: text.into(),
        }
    }

    #[test]
    fn sql_findings_flag_bad_queries_with_stable_rules() {
        let cases = [
            ("SELECT * FROM ghost", "sql-unknown-table"),
            ("SELECT ghost FROM collectl", "sql-unknown-column"),
            ("SELECT * FROM collectl WHERE", "sql-syntax"),
            (
                "SELECT node, SUM(kind) FROM monitors GROUP BY node",
                "sql-type-mismatch",
            ),
        ];
        for (sql, rule) in cases {
            let f = sql_findings(&[lit(sql)]);
            assert_eq!(f.len(), 1, "{sql}");
            assert_eq!(f[0].rule, rule, "{sql}");
            assert_eq!(f[0].severity, Severity::Deny);
            assert_eq!(f[0].line, 9);
        }
    }

    #[test]
    fn sql_findings_accept_valid_queries() {
        let good = [
            "SELECT node, MAX(disk_util) FROM collectl GROUP BY node ORDER BY node",
            "SELECT * FROM experiments",
            "SELECT monitor_id FROM monitors WHERE period_ms >= 50",
        ];
        for sql in good {
            assert!(sql_findings(&[lit(sql)]).is_empty(), "{sql}");
        }
    }

    #[test]
    fn sql_findings_against_custom_schema() {
        let schema = Schema::new(vec![
            Column::new("n", ColumnType::Text),
            Column::new("v", ColumnType::Float),
        ])
        .unwrap();
        let schemas = vec![("t".to_string(), schema)];
        assert!(sql_findings_against(&[lit("SELECT n, v FROM t")], &schemas).is_empty());
        let f = sql_findings_against(&[lit("SELECT AVG(n) FROM t")], &schemas);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "sql-type-mismatch");
    }
}
