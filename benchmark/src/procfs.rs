//! What a child process cost the machine, read from `/proc/self`.
//!
//! Peak RSS, minor faults and the user/system CPU split are what a cold
//! `mscope run` pays beyond wall time: page-fault and allocator churn show
//! up here before they show up anywhere else.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on every
/// supported configuration (it is a kernel ABI constant, not `CONFIG_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// A reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Peak resident set so far, MiB (`VmHWM`).
    pub peak_rss_mib: f64,
    /// Minor page faults so far.
    pub minor_faults: f64,
    /// User CPU so far, seconds.
    pub user_cpu_s: f64,
    /// System CPU so far, seconds.
    pub sys_cpu_s: f64,
}

impl ProcSample {
    /// User plus system CPU so far, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_cpu_s + self.sys_cpu_s
    }
}

/// Parses `/proc/<pid>/stat`: the command name may hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
fn parse_stat(stat: &str) -> Option<(f64, f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(0) ppid pgrp session tty tpgid flags
    // minflt(7) cminflt majflt cmajflt utime(11) stime(12).
    Some((
        f.get(7)?.parse().ok()?,
        f.get(11)?.parse::<f64>().ok()? / TICKS_PER_S,
        f.get(12)?.parse::<f64>().ok()? / TICKS_PER_S,
    ))
}

/// Parses the `VmHWM:  123456 kB` line of `/proc/<pid>/status`.
fn parse_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// the next [`sample`] reads the peak since this call and not the peak of
/// whatever ran before it.
///
/// # Errors
///
/// The I/O error: without the reset a peak cannot be pinned on a job.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // "5" is the kernel's code for "reset the peak RSS" (proc(5)).
    fs::write("/proc/self/clear_refs", "5")
}

/// Reads this process's counters; all zero where `/proc` is unavailable.
pub fn sample() -> ProcSample {
    let (minor_faults, user_cpu_s, sys_cpu_s) = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default();
    let peak_rss_mib = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_hwm_mib(&s))
        .unwrap_or_default();
    ProcSample {
        peak_rss_mib,
        minor_faults,
        user_cpu_s,
        sys_cpu_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let stat = "4242 (ms) bench (x)) R 1 1 1 0 -1 4194304 1234 0 5 0 250 75 0 0 20 0 1 0";
        assert_eq!(parse_stat(stat), Some((1234.0, 2.5, 0.75)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn hwm_is_converted_to_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_hwm_mib(status), Some(2.0));
        assert_eq!(parse_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_sample_is_plausible() {
        let s = sample();
        assert!(s.peak_rss_mib > 0.5, "{s:?}");
        assert!(s.minor_faults > 0.0, "{s:?}");
    }

    #[test]
    fn the_peak_is_that_of_the_work_since_the_reset() {
        // Touch 64 MiB and free it: the mark stays up until it is reset.
        let touched = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = sample().peak_rss_mib;
        assert!(high > 64.0, "{high}");
        drop(touched);
        reset_peak_rss().expect("clear_refs is writable");
        let low = sample().peak_rss_mib;
        assert!(
            low < high - 32.0,
            "peak {low} MiB after the reset, {high} before"
        );
        let again = std::hint::black_box(vec![1u8; 16 << 20]);
        let job = sample().peak_rss_mib;
        assert!(job > low + 8.0 && job < high, "{low} -> {job}");
        drop(again);
    }
}
