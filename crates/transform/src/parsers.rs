//! Concrete mScopeParser declarations for every monitor in the suite.
//!
//! One function per tool builds the instruction set that teaches the staged
//! engine (or the direct-XML mapping) how to read that tool's native log.
//! [`declaration_for`] is the paper's "parsing declaration" step: given a
//! log file's manifest entry, it returns the complete file→parser mapping
//! record.

use crate::declare::{
    BlockSpec, LineMatcher, ParserKind, ParserSpec, ParsingDeclaration, XmlMapping,
};
use crate::pattern::{timestamp_suffix_tokens, Pattern, Tok};
use mscope_monitors::{LogFileMeta, MonitorKind, Tool};
use mscope_ntier::TierKind;

fn pat(toks: Vec<Tok>) -> Pattern {
    Pattern::new(toks)
}

fn with_suffix(mut toks: Vec<Tok>) -> Pattern {
    toks.push(Tok::Ws);
    toks.extend(timestamp_suffix_tokens());
    Pattern::new(toks)
}

/// Collectl `-P` CSV: `#`-prefixed header, then one space-separated record
/// per line.
pub fn collectl_csv_spec() -> ParserSpec {
    ParserSpec {
        name: "Collectl mScopeParser".into(),
        filters: vec![LineMatcher::Prefix("#".into()), LineMatcher::Blank],
        context: vec![],
        records: vec![pat(vec![
            Tok::wall("time"),
            Tok::Ws,
            Tok::cap("cpu_user"),
            Tok::Ws,
            Tok::cap("cpu_sys"),
            Tok::Ws,
            Tok::cap("cpu_iowait"),
            Tok::Ws,
            Tok::cap("cpu_idle"),
            Tok::Ws,
            Tok::cap("mem_dirty"),
            Tok::Ws,
            Tok::cap("mem_used_kb"),
            Tok::Ws,
            Tok::cap("disk_write_kb"),
            Tok::Ws,
            Tok::cap("disk_writes"),
            Tok::Ws,
            Tok::cap("disk_util"),
            Tok::Ws,
            Tok::cap("net_rx_kb"),
            Tok::Ws,
            Tok::cap("net_tx_kb"),
        ])],
        blocks: None,
    }
}

/// Collectl brief mode: `### RECORD n (time) ###` blocks with positional
/// subsystem lines — the line-sequence instruction style.
pub fn collectl_brief_spec() -> ParserSpec {
    ParserSpec {
        name: "Collectl brief mScopeParser".into(),
        filters: vec![LineMatcher::Blank],
        context: vec![],
        records: vec![],
        blocks: Some(BlockSpec {
            marker: pat(vec![
                Tok::lit("### RECORD"),
                Tok::Ws,
                Tok::cap("record"),
                Tok::Ws,
                Tok::lit("("),
                Tok::wall("time"),
                Tok::lit(")"),
                Tok::Ws,
                Tok::lit("###"),
            ]),
            lines: vec![
                None, // "# CPU SUMMARY"
                None, // column header
                Some(pat(vec![
                    Tok::cap("cpu_user"),
                    Tok::Ws,
                    Tok::cap("cpu_sys"),
                    Tok::Ws,
                    Tok::cap("cpu_iowait"),
                    Tok::Ws,
                    Tok::cap("cpu_idle"),
                ])),
                None, // "# DISK SUMMARY"
                None, // column header
                Some(pat(vec![
                    Tok::cap("disk_write_kb"),
                    Tok::Ws,
                    Tok::cap("disk_writes"),
                    Tok::Ws,
                    Tok::cap("disk_util"),
                ])),
                None, // "# MEMORY"
                None, // column header
                Some(pat(vec![
                    Tok::cap("mem_dirty"),
                    Tok::Ws,
                    Tok::cap("mem_used_kb"),
                ])),
            ],
        }),
    }
}

/// SAR tabular text: banner line, blanks, periodically repeated column
/// headers, and `all`-CPU rows.
pub fn sar_text_spec() -> ParserSpec {
    ParserSpec {
        name: "SAR mScopeParser".into(),
        filters: vec![
            LineMatcher::Prefix("Linux".into()),
            LineMatcher::Blank,
            LineMatcher::Prefix("timestamp".into()),
        ],
        context: vec![],
        records: vec![pat(vec![
            Tok::wall("time"),
            Tok::Ws,
            Tok::lit("all"),
            Tok::Ws,
            Tok::cap("cpu_user"),
            Tok::Ws,
            Tok::cap("cpu_sys"),
            Tok::Ws,
            Tok::cap("cpu_iowait"),
            Tok::Ws,
            Tok::cap("cpu_idle"),
        ])],
        blocks: None,
    }
}

/// SAR memory report (`sar -r`).
pub fn sar_mem_spec() -> ParserSpec {
    ParserSpec {
        name: "SAR-mem mScopeParser".into(),
        filters: vec![
            LineMatcher::Prefix("Linux".into()),
            LineMatcher::Blank,
            LineMatcher::Prefix("timestamp".into()),
        ],
        records: vec![pat(vec![
            Tok::wall("time"),
            Tok::Ws,
            Tok::cap("mem_used_kb"),
            Tok::Ws,
            Tok::cap("mem_used_pct"),
            Tok::Ws,
            Tok::cap("mem_dirty_kb"),
        ])],
        context: vec![],
        blocks: None,
    }
}

/// SAR network report (`sar -n DEV`).
pub fn sar_net_spec() -> ParserSpec {
    ParserSpec {
        name: "SAR-net mScopeParser".into(),
        filters: vec![
            LineMatcher::Prefix("Linux".into()),
            LineMatcher::Blank,
            LineMatcher::Prefix("timestamp".into()),
        ],
        records: vec![pat(vec![
            Tok::wall("time"),
            Tok::Ws,
            Tok::lit("eth0"),
            Tok::Ws,
            Tok::cap("net_rx_kb"),
            Tok::Ws,
            Tok::cap("net_tx_kb"),
        ])],
        context: vec![],
        blocks: None,
    }
}

/// Upgraded SAR emitting XML — the direct path of Fig. 3 that "obviated"
/// the custom SAR parser.
pub fn sar_xml_mapping() -> XmlMapping {
    XmlMapping {
        entry_element: "timestamp".into(),
        entry_attrs: vec![("time".into(), "time".into())],
        leaf_attrs: vec![
            ("cpu".into(), "user".into(), "cpu_user".into()),
            ("cpu".into(), "system".into(), "cpu_sys".into()),
            ("cpu".into(), "iowait".into(), "cpu_iowait".into()),
            ("cpu".into(), "idle".into(), "cpu_idle".into()),
        ],
    }
}

/// IOstat: standalone timestamp lines provide sticky context; `sda` device
/// rows carry the data.
pub fn iostat_spec() -> ParserSpec {
    ParserSpec {
        name: "IOstat mScopeParser".into(),
        filters: vec![LineMatcher::Blank, LineMatcher::Prefix("Device:".into())],
        context: vec![pat(vec![Tok::wall("time")])],
        records: vec![pat(vec![
            Tok::lit("sda"),
            Tok::Ws,
            Tok::cap("disk_write_kb"),
            Tok::Ws,
            Tok::cap("disk_writes"),
            Tok::Ws,
            Tok::cap("disk_util"),
        ])],
        blocks: None,
    }
}

/// Apache event monitor log: combined access-log line extended with the
/// four timestamps (Appendix A).
pub fn apache_event_spec() -> ParserSpec {
    ParserSpec {
        name: "Apache mScopeParser".into(),
        filters: vec![LineMatcher::Blank],
        context: vec![],
        records: vec![with_suffix(vec![
            Tok::cap("client"),
            Tok::Ws,
            Tok::lit("- - ["),
            Tok::wall("wall"),
            Tok::lit("]"),
            Tok::Ws,
            Tok::lit("\"GET /rubbos/"),
            Tok::cap("interaction"),
            Tok::lit("?ID="),
            Tok::cap("request_id"),
            Tok::lit(" HTTP/1.1\""),
            Tok::Ws,
            Tok::cap("status"),
            Tok::Ws,
            Tok::cap("bytes"),
        ])],
        blocks: None,
    }
}

/// Tomcat request-log valve line.
pub fn tomcat_event_spec() -> ParserSpec {
    ParserSpec {
        name: "Tomcat mScopeParser".into(),
        filters: vec![LineMatcher::Blank],
        context: vec![],
        records: vec![with_suffix(vec![
            Tok::wall("wall"),
            Tok::Ws,
            Tok::lit("INFO [ajp-exec] RequestLog /servlet/"),
            Tok::cap("interaction"),
            Tok::lit(" ID="),
            Tok::cap("request_id"),
        ])],
        blocks: None,
    }
}

/// C-JDBC controller log line.
pub fn cjdbc_event_spec() -> ParserSpec {
    ParserSpec {
        name: "C-JDBC mScopeParser".into(),
        filters: vec![LineMatcher::Blank],
        context: vec![],
        records: vec![with_suffix(vec![
            Tok::wall("wall"),
            Tok::Ws,
            Tok::lit("[rubbos-vdb] virtualdatabase request ID="),
            Tok::cap("request_id"),
            Tok::Ws,
            Tok::lit("op="),
            Tok::cap("interaction"),
        ])],
        blocks: None,
    }
}

/// MySQL general query log: the request ID travels inside a SQL comment.
pub fn mysql_event_spec() -> ParserSpec {
    ParserSpec {
        name: "MySQL mScopeParser".into(),
        filters: vec![LineMatcher::Blank],
        context: vec![],
        records: vec![with_suffix(vec![
            Tok::wall("wall"),
            Tok::Ws,
            Tok::cap("thread_id"),
            Tok::Ws,
            Tok::lit("Query"),
            Tok::Ws,
            Tok::cap("sql"),
            Tok::lit("/*ID="),
            Tok::cap("request_id"),
            Tok::lit("*/ /*op="),
            Tok::cap("interaction"),
            Tok::lit("*/"),
        ])],
        blocks: None,
    }
}

/// Sanitizes a name for use as an mScopeDB table name.
pub fn table_name(raw: &str) -> String {
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The parsing-declaration stage: maps one manifest entry to its parser,
/// destination table, and injected constants.
pub fn declaration_for(meta: &LogFileMeta) -> ParsingDeclaration {
    let (parser, table) = match meta.kind {
        MonitorKind::Event => {
            let spec = match meta.tier_kind {
                TierKind::Apache => apache_event_spec(),
                TierKind::Tomcat => tomcat_event_spec(),
                TierKind::Cjdbc => cjdbc_event_spec(),
                TierKind::Mysql => mysql_event_spec(),
            };
            (
                ParserKind::Staged(spec),
                format!("event_{}", meta.tier_kind.name()),
            )
        }
        MonitorKind::Resource => {
            let parser = match Tool::from_name(&meta.tool) {
                Some(Tool::CollectlCsv) => ParserKind::Staged(collectl_csv_spec()),
                Some(Tool::CollectlPlain) => ParserKind::Staged(collectl_brief_spec()),
                Some(Tool::SarText) => ParserKind::Staged(sar_text_spec()),
                Some(Tool::SarMem) => ParserKind::Staged(sar_mem_spec()),
                Some(Tool::SarNet) => ParserKind::Staged(sar_net_spec()),
                Some(Tool::SarXml) => ParserKind::XmlDirect(sar_xml_mapping()),
                Some(Tool::Iostat) => ParserKind::Staged(iostat_spec()),
                // Unknown tools fall back to a permissive key=value parser so
                // user-supplied monitors can join the pipeline.
                None => ParserKind::Staged(generic_kv_spec()),
            };
            (parser, table_name(&meta.tool))
        }
    };
    ParsingDeclaration {
        path: meta.path.clone(),
        monitor_id: meta.monitor_id.clone(),
        parser,
        table,
        constants: vec![
            ("node".to_string(), meta.node.to_string()),
            ("tier".to_string(), meta.node.tier.0.to_string()),
        ],
    }
}

/// Fallback parser for user-defined monitors: `time k=v k=v …` lines.
pub fn generic_kv_spec() -> ParserSpec {
    ParserSpec {
        name: "generic mScopeParser".into(),
        filters: vec![LineMatcher::Blank, LineMatcher::Prefix("#".into())],
        context: vec![],
        records: vec![pat(vec![
            Tok::wall("time"),
            Tok::Ws,
            Tok::cap("key"),
            Tok::lit("="),
            Tok::cap("value"),
        ])],
        blocks: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_ntier::{NodeId, TierId};

    fn meta(kind: MonitorKind, tool: &str, tier_kind: TierKind) -> LogFileMeta {
        LogFileMeta {
            path: "logs/x".into(),
            node: NodeId {
                tier: TierId(0),
                replica: 0,
            },
            tier_kind,
            monitor_id: format!("{tool}-x"),
            tool: tool.into(),
            format: "text".into(),
            kind,
            period_ms: 50,
        }
    }

    #[test]
    fn apache_pattern_parses_rendered_line() {
        let line = "127.0.0.1 - - [00:00:00.020000] \"GET /rubbos/ViewStory?ID=000000000003 HTTP/1.1\" 200 1802 ua=00:00:00.010000 ud=00:00:00.020000 ds=00:00:00.011000 dr=00:00:00.019000";
        let spec = apache_event_spec();
        let caps = spec.records[0].match_line(line).expect("matches");
        let get = |k: &str| {
            caps.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("missing capture {k}"))
        };
        assert_eq!(get("interaction"), "ViewStory");
        assert_eq!(get("request_id"), "000000000003");
        assert_eq!(get("ua"), "00:00:00.010000");
        assert_eq!(get("dr"), "00:00:00.019000");
        assert_eq!(get("status"), "200");
    }

    #[test]
    fn mysql_pattern_extracts_id_from_sql_comment() {
        let line = "00:00:00.030000\t   42 Query\tSELECT * FROM stories /*ID=00000000000A*/ /*op=StoreComment*/ ua=00:00:00.025000 ud=00:00:00.030000 ds=- dr=-";
        let caps = mysql_event_spec().records[0]
            .match_line(line)
            .expect("matches");
        let get = |k: &str| {
            caps.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
                .unwrap()
        };
        assert_eq!(get("request_id"), "00000000000A");
        assert_eq!(get("interaction"), "StoreComment");
        assert_eq!(get("ds"), "-");
    }

    #[test]
    fn tomcat_and_cjdbc_patterns_parse() {
        let t = "00:00:00.040000 INFO [ajp-exec] RequestLog /servlet/Search ID=0000000000FF ua=00:00:00.035000 ud=00:00:00.040000 ds=00:00:00.036000 dr=00:00:00.039000";
        assert!(tomcat_event_spec().records[0].match_line(t).is_some());
        let c = "00:00:00.040000 [rubbos-vdb] virtualdatabase request ID=0000000000FF op=Search ua=00:00:00.035000 ud=00:00:00.040000 ds=00:00:00.036000 dr=00:00:00.039000";
        assert!(cjdbc_event_spec().records[0].match_line(c).is_some());
    }

    #[test]
    fn declaration_routing() {
        let d = declaration_for(&meta(MonitorKind::Event, "apache", TierKind::Apache));
        assert_eq!(d.table, "event_apache");
        assert!(matches!(d.parser, ParserKind::Staged(_)));
        assert_eq!(d.constants[0], ("node".to_string(), "tier0-0".to_string()));

        let d = declaration_for(&meta(MonitorKind::Resource, "sar-xml", TierKind::Mysql));
        assert_eq!(d.table, "sar_xml");
        assert!(matches!(d.parser, ParserKind::XmlDirect(_)));

        let d = declaration_for(&meta(MonitorKind::Resource, "my.tool!", TierKind::Mysql));
        assert_eq!(d.table, "my_tool_");
    }

    #[test]
    fn table_name_sanitizes() {
        assert_eq!(table_name("SAR-xml 2"), "sar_xml_2");
        assert_eq!(table_name("collectl"), "collectl");
    }

    #[test]
    fn generic_kv_fallback_parses() {
        let spec = generic_kv_spec();
        let caps = spec.records[0]
            .match_line("00:00:01.000000 gc_pause=12.5")
            .unwrap();
        assert_eq!(caps[1], ("key".to_string(), "gc_pause".to_string()));
        assert_eq!(caps[2].1, "12.5");
    }
}
