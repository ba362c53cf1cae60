//! Resource mScopeMonitors: render the simulator's periodic counters into
//! the native formats of the real tools the paper wraps — Collectl (CSV and
//! brief plain-text), SAR (tabular text *and* XML, the two paths of Fig. 3),
//! and IOstat (device report blocks).
//!
//! Formats are deliberately idiosyncratic in the same ways the real tools
//! are — repeated headers, block structure, per-device rows — because
//! coping with that variability is mScopeDataTransformer's whole job.

use crate::logstore::LogStore;
use mscope_ntier::{NodeId, ResourceSample, TierKind};
use mscope_sim::{push_wallclock, SimDuration};
use std::fmt::Write as _;

/// Which external tool a resource monitor emulates, and in which of its
/// output modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// `collectl -P` comma/space separated plot format with a `#` header.
    CollectlCsv,
    /// `collectl` brief interactive format (block per record).
    CollectlPlain,
    /// `sar -u` tabular text with periodically repeated headers.
    SarText,
    /// `sar -r` memory report (free/used/dirty).
    SarMem,
    /// `sar -n DEV` per-interface network report.
    SarNet,
    /// `sadf -x` style XML (the upgraded-SAR path of Fig. 3).
    SarXml,
    /// `iostat -x` extended device report blocks.
    Iostat,
}
mscope_serdes::json_enum!(Tool {
    CollectlCsv,
    CollectlPlain,
    SarText,
    SarMem,
    SarNet,
    SarXml,
    Iostat,
});

impl Tool {
    /// Lowercase tool name for paths and metadata.
    pub fn name(self) -> &'static str {
        match self {
            Tool::CollectlCsv => "collectl",
            Tool::CollectlPlain => "collectl-brief",
            Tool::SarText => "sar",
            Tool::SarMem => "sar-mem",
            Tool::SarNet => "sar-net",
            Tool::SarXml => "sar-xml",
            Tool::Iostat => "iostat",
        }
    }

    /// The file format label recorded in mScopeDB's `log_files` table.
    pub fn format(self) -> &'static str {
        match self {
            Tool::CollectlCsv => "csv",
            Tool::CollectlPlain | Tool::SarText | Tool::SarMem | Tool::SarNet | Tool::Iostat => {
                "text"
            }
            Tool::SarXml => "xml",
        }
    }

    /// File extension.
    fn extension(self) -> &'static str {
        match self {
            Tool::CollectlCsv => "csv",
            Tool::SarXml => "xml",
            _ => "log",
        }
    }
}

/// A resource mScopeMonitor: one tool watching one node at one period.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceMonitor {
    /// Node being watched.
    pub node: NodeId,
    /// Node software kind (only used for metadata).
    pub kind: TierKind,
    /// Emulated tool / format.
    pub tool: Tool,
    /// Sampling period (must be ≥ the simulator's base sample period; base
    /// samples are aggregated up to this period).
    pub period: SimDuration,
}
mscope_serdes::json_struct!(ResourceMonitor {
    node,
    kind,
    tool,
    period
});

impl ResourceMonitor {
    /// Stable monitor identifier, e.g. `"collectl-tier3-0"`.
    pub fn monitor_id(&self) -> String {
        format!("{}-{}", self.tool.name(), self.node)
    }

    /// Path of the log file this monitor writes.
    pub fn log_path(&self) -> String {
        format!(
            "logs/{}/{}.{}",
            self.node,
            self.tool.name(),
            self.tool.extension()
        )
    }

    /// Renders this monitor's log from the full base-sample stream (samples
    /// for other nodes are skipped). Returns the number of records written.
    ///
    /// Batch rendering is *defined* as header + per-record pieces + footer —
    /// the same pieces [`ResourceMonitorState`](crate::ResourceMonitorState)
    /// appends incrementally — so the streaming spine is byte-identical to
    /// this by construction.
    pub fn render(&self, samples: &[ResourceSample], store: &mut LogStore) -> usize {
        let mine: Vec<&ResourceSample> = samples.iter().filter(|s| s.node == self.node).collect();
        let merged = aggregate(&mine, self.period);
        // perf: one output buffer per monitor render, sized by record count.
        let mut text = String::with_capacity(140 + merged.len() * 160);
        self.tool.header_into(&mut text, &self.node);
        for (i, s) in merged.iter().enumerate() {
            self.tool.record_into(&mut text, i, s);
        }
        text.push_str(self.tool.footer());
        store.append(&self.log_path(), &text);
        merged.len()
    }
}

/// The period-grid bucket a sample belongs to. Buckets are aligned using
/// each sample's *interval end* timestamp: a sample at exactly t belongs to
/// the bucket ending at t. Shared by batch [`aggregate`] and the streaming
/// per-monitor state so the two seal buckets on identical boundaries.
pub(crate) fn bucket_of(s: &ResourceSample, period: SimDuration) -> u64 {
    s.time.as_micros().div_ceil(period.as_micros().max(1))
}

/// Aggregates consecutive base samples into monitor-period records: percents
/// average, byte/op totals sum, gauges take the last value.
fn aggregate(samples: &[&ResourceSample], period: SimDuration) -> Vec<ResourceSample> {
    let mut out: Vec<ResourceSample> = Vec::new();
    if samples.is_empty() {
        return out;
    }
    let mut bucket: Vec<&ResourceSample> = Vec::new();
    let mut current = bucket_of(samples[0], period);
    for s in samples {
        let b = bucket_of(s, period);
        if b != current && !bucket.is_empty() {
            out.push(merge(&bucket));
            bucket.clear();
            current = b;
        }
        bucket.push(s);
    }
    if !bucket.is_empty() {
        out.push(merge(&bucket));
    }
    out
}

pub(crate) fn merge(bucket: &[&ResourceSample]) -> ResourceSample {
    let n = bucket.len() as f64;
    let last = bucket.last().expect("bucket non-empty");
    let mean = |f: fn(&ResourceSample) -> f64| bucket.iter().map(|s| f(s)).sum::<f64>() / n;
    ResourceSample {
        time: last.time,
        node: last.node,
        kind: last.kind,
        cpu_user: mean(|s| s.cpu_user),
        cpu_sys: mean(|s| s.cpu_sys),
        cpu_iowait: mean(|s| s.cpu_iowait),
        cpu_idle: mean(|s| s.cpu_idle),
        disk_util: mean(|s| s.disk_util),
        disk_write_bytes: bucket.iter().map(|s| s.disk_write_bytes).sum(),
        disk_ops: bucket.iter().map(|s| s.disk_ops).sum(),
        dirty_pages: last.dirty_pages,
        mem_used_bytes: last.mem_used_bytes,
        net_rx_bytes: bucket.iter().map(|s| s.net_rx_bytes).sum(),
        net_tx_bytes: bucket.iter().map(|s| s.net_tx_bytes).sum(),
        queue_len: last.queue_len,
        active_workers: last.active_workers,
        log_bytes: bucket.iter().map(|s| s.log_bytes).sum(),
    }
}

/// SAR repeats its column header; real deployments see this every screenful.
const SAR_HEADER_EVERY: usize = 20;

/// SAR's host banner line, shared by every textual SAR mode.
fn sar_banner(out: &mut String, node: &NodeId) {
    let _ = writeln!(
        out,
        "Linux 3.10.0-mscope ({node}) \t07/05/26 \t_x86_64_\t(2 CPU)\n"
    );
}

impl Tool {
    /// Appends the one-time file preamble (may be empty — collectl brief
    /// and iostat have none).
    pub(crate) fn header_into(self, out: &mut String, node: &NodeId) {
        match self {
            Tool::CollectlCsv => out.push_str(
                "#Time [CPU]User% [CPU]Sys% [CPU]Wait% [CPU]Idle% [MEM]Dirty [MEM]Used \
                 [DSK]WriteKBTot [DSK]WritesTot [DSK]Util% [NET]RxKBTot [NET]TxKBTot\n",
            ),
            Tool::CollectlPlain | Tool::Iostat => {}
            Tool::SarText | Tool::SarMem | Tool::SarNet => sar_banner(out, node),
            Tool::SarXml => {
                out.push_str("<sysstat>\n");
                let _ = write!(out, " <host nodename=\"{node}\">\n  <statistics>\n");
            }
        }
    }

    /// Appends the `idx`-th aggregated record. `idx` counts records since
    /// the start of the file — it drives SAR's periodically repeated column
    /// header and collectl's `### RECORD n` numbering, so a streaming
    /// appender must thread a running count through.
    pub(crate) fn record_into(self, out: &mut String, idx: usize, s: &ResourceSample) {
        match self {
            Tool::CollectlCsv => {
                push_wallclock(out, s.time);
                let _ = writeln!(
                    out,
                    " {:.2} {:.2} {:.2} {:.2} {} {} {:.1} {} {:.1} {:.1} {:.1}",
                    s.cpu_user,
                    s.cpu_sys,
                    s.cpu_iowait,
                    s.cpu_idle,
                    s.dirty_pages,
                    s.mem_used_bytes / 1024,
                    s.disk_write_bytes as f64 / 1024.0,
                    s.disk_ops,
                    s.disk_util,
                    s.net_rx_bytes as f64 / 1024.0,
                    s.net_tx_bytes as f64 / 1024.0,
                );
            }
            Tool::CollectlPlain => {
                let _ = write!(out, "### RECORD {} (", idx + 1);
                push_wallclock(out, s.time);
                out.push_str(") ###\n");
                out.push_str("# CPU SUMMARY\n");
                out.push_str("User% Sys% Wait% Idle%\n");
                let _ = writeln!(
                    out,
                    "{:.2} {:.2} {:.2} {:.2}",
                    s.cpu_user, s.cpu_sys, s.cpu_iowait, s.cpu_idle
                );
                out.push_str("# DISK SUMMARY\n");
                out.push_str("WriteKB Writes Util%\n");
                let _ = writeln!(
                    out,
                    "{:.1} {} {:.1}",
                    s.disk_write_bytes as f64 / 1024.0,
                    s.disk_ops,
                    s.disk_util
                );
                out.push_str("# MEMORY\n");
                out.push_str("Dirty UsedKB\n");
                let _ = writeln!(out, "{} {}", s.dirty_pages, s.mem_used_bytes / 1024);
            }
            Tool::SarText => {
                if idx.is_multiple_of(SAR_HEADER_EVERY) {
                    out.push_str(
                        "timestamp            CPU      %user      %sys   %iowait     %idle\n",
                    );
                }
                push_wallclock(out, s.time);
                let _ = writeln!(
                    out,
                    "     all {:10.2} {:9.2} {:9.2} {:9.2}",
                    s.cpu_user, s.cpu_sys, s.cpu_iowait, s.cpu_idle
                );
            }
            Tool::SarMem => {
                if idx.is_multiple_of(SAR_HEADER_EVERY) {
                    out.push_str("timestamp             kbmemused    %memused     kbdirty\n");
                }
                let used_kb = s.mem_used_bytes / 1024;
                push_wallclock(out, s.time);
                let _ = writeln!(
                    out,
                    " {:12} {:11.2} {:11}",
                    used_kb,
                    // %memused needs a total; the emulated node reports
                    // used/4GiB when no better figure is available, like sar
                    // does with MemTotal.
                    100.0 * s.mem_used_bytes as f64 / (4u64 << 30) as f64,
                    s.dirty_pages * 4, // kbdirty
                );
            }
            Tool::SarNet => {
                if idx.is_multiple_of(SAR_HEADER_EVERY) {
                    out.push_str("timestamp            IFACE      rxkB/s      txkB/s\n");
                }
                push_wallclock(out, s.time);
                let _ = writeln!(
                    out,
                    "     eth0 {:11.2} {:11.2}",
                    s.net_rx_bytes as f64 / 1024.0,
                    s.net_tx_bytes as f64 / 1024.0,
                );
            }
            Tool::SarXml => {
                out.push_str("   <timestamp time=\"");
                push_wallclock(out, s.time);
                let _ = write!(
                    out,
                    "\">\n    <cpu-load>\n     <cpu number=\"all\" \
                     user=\"{:.2}\" system=\"{:.2}\" iowait=\"{:.2}\" idle=\"{:.2}\"/>\n    \
                     </cpu-load>\n   </timestamp>\n",
                    s.cpu_user, s.cpu_sys, s.cpu_iowait, s.cpu_idle
                );
            }
            Tool::Iostat => {
                push_wallclock(out, s.time);
                out.push_str("\nDevice:            wkB/s      w/s     %util\n");
                let _ = write!(
                    out,
                    "sda           {:10.2} {:8.2} {:9.2}\n\n",
                    s.disk_write_bytes as f64 / 1024.0,
                    s.disk_ops as f64,
                    s.disk_util
                );
            }
        }
    }

    /// The one-time file epilogue (only SAR XML has one).
    pub(crate) fn footer(self) -> &'static str {
        match self {
            Tool::SarXml => "  </statistics>\n </host>\n</sysstat>\n",
            _ => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_ntier::TierId;
    use mscope_sim::SimTime;

    fn node() -> NodeId {
        NodeId {
            tier: TierId(3),
            replica: 0,
        }
    }

    fn sample(ms: u64, user: f64, util: f64, dirty: u64) -> ResourceSample {
        ResourceSample {
            time: SimTime::from_millis(ms),
            node: node(),
            kind: TierKind::Mysql,
            cpu_user: user,
            cpu_sys: user / 4.0,
            cpu_iowait: 1.0,
            cpu_idle: (100.0 - user * 1.25 - 1.0).max(0.0),
            disk_util: util,
            disk_write_bytes: 1024,
            disk_ops: 2,
            dirty_pages: dirty,
            mem_used_bytes: 1 << 30,
            net_rx_bytes: 2048,
            net_tx_bytes: 4096,
            queue_len: 3,
            active_workers: 5,
            log_bytes: 100,
        }
    }

    #[test]
    fn aggregate_same_period_passthrough() {
        let s1 = sample(50, 10.0, 50.0, 5);
        let s2 = sample(100, 20.0, 70.0, 7);
        let refs = vec![&s1, &s2];
        let merged = aggregate(&refs, SimDuration::from_millis(50));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].cpu_user, 10.0);
    }

    #[test]
    fn aggregate_combines_buckets() {
        let s: Vec<ResourceSample> = (1..=4)
            .map(|i| sample(i * 50, i as f64 * 10.0, 50.0, i))
            .collect();
        let refs: Vec<&ResourceSample> = s.iter().collect();
        let merged = aggregate(&refs, SimDuration::from_millis(100));
        assert_eq!(merged.len(), 2);
        // Means of (10,20) and (30,40).
        assert_eq!(merged[0].cpu_user, 15.0);
        assert_eq!(merged[1].cpu_user, 35.0);
        // Sums of bytes.
        assert_eq!(merged[0].disk_write_bytes, 2048);
        // Gauge takes last.
        assert_eq!(merged[0].dirty_pages, 2);
        assert_eq!(merged[1].dirty_pages, 4);
    }

    #[test]
    fn collectl_csv_has_header_and_rows() {
        let mon = ResourceMonitor {
            node: node(),
            kind: TierKind::Mysql,
            tool: Tool::CollectlCsv,
            period: SimDuration::from_millis(50),
        };
        let samples = vec![sample(50, 12.0, 97.0, 42)];
        let mut store = LogStore::new();
        let n = mon.render(&samples, &mut store);
        assert_eq!(n, 1);
        let text = store.read("logs/tier3-0/collectl.csv").unwrap();
        assert!(text.starts_with("#Time [CPU]User%"));
        assert!(text.contains("00:00:00.050000 12.00"));
        assert!(text.contains(" 42 "), "dirty pages present: {text}");
    }

    #[test]
    fn sar_text_repeats_header() {
        let mon = ResourceMonitor {
            node: node(),
            kind: TierKind::Mysql,
            tool: Tool::SarText,
            period: SimDuration::from_millis(50),
        };
        let samples: Vec<ResourceSample> =
            (1..=45).map(|i| sample(i * 50, 10.0, 10.0, 1)).collect();
        let mut store = LogStore::new();
        mon.render(&samples, &mut store);
        let text = store.read("logs/tier3-0/sar.log").unwrap();
        let headers = text.matches("%user").count();
        assert_eq!(headers, 3, "45 rows / 20 per header = 3 headers");
        assert!(text.starts_with("Linux 3.10.0-mscope"));
    }

    #[test]
    fn sar_xml_well_formed_ish() {
        let mon = ResourceMonitor {
            node: node(),
            kind: TierKind::Mysql,
            tool: Tool::SarXml,
            period: SimDuration::from_millis(50),
        };
        let samples = vec![sample(50, 12.5, 1.0, 0), sample(100, 14.0, 1.0, 0)];
        let mut store = LogStore::new();
        mon.render(&samples, &mut store);
        let text = store.read("logs/tier3-0/sar-xml.xml").unwrap();
        assert_eq!(text.matches("<timestamp").count(), 2);
        assert_eq!(text.matches("</timestamp>").count(), 2);
        assert!(text.contains("user=\"12.50\""));
        assert!(text.trim_end().ends_with("</sysstat>"));
    }

    #[test]
    fn iostat_blocks_per_record() {
        let mon = ResourceMonitor {
            node: node(),
            kind: TierKind::Mysql,
            tool: Tool::Iostat,
            period: SimDuration::from_millis(100),
        };
        let samples = vec![sample(100, 5.0, 88.5, 0)];
        let mut store = LogStore::new();
        mon.render(&samples, &mut store);
        let text = store.read("logs/tier3-0/iostat.log").unwrap();
        assert!(text.contains("Device:"));
        assert!(text.contains("sda"));
        assert!(text.contains("88.50"));
    }

    #[test]
    fn collectl_plain_blocks() {
        let mon = ResourceMonitor {
            node: node(),
            kind: TierKind::Mysql,
            tool: Tool::CollectlPlain,
            period: SimDuration::from_millis(50),
        };
        let samples = vec![sample(50, 1.0, 1.0, 9), sample(100, 2.0, 1.0, 9)];
        let mut store = LogStore::new();
        mon.render(&samples, &mut store);
        let text = store.read("logs/tier3-0/collectl-brief.log").unwrap();
        assert_eq!(text.matches("### RECORD").count(), 2);
        assert_eq!(text.matches("# CPU SUMMARY").count(), 2);
    }

    #[test]
    fn render_skips_other_nodes() {
        let mon = ResourceMonitor {
            node: NodeId {
                tier: TierId(0),
                replica: 0,
            },
            kind: TierKind::Apache,
            tool: Tool::CollectlCsv,
            period: SimDuration::from_millis(50),
        };
        let samples = vec![sample(50, 1.0, 1.0, 0)]; // tier3 sample
        let mut store = LogStore::new();
        let n = mon.render(&samples, &mut store);
        assert_eq!(n, 0);
        // Header still written (tool started but recorded nothing).
        assert!(store
            .read("logs/tier0-0/collectl.csv")
            .unwrap()
            .starts_with("#Time"));
    }
}
