//! `/proc` readers: CPU time and resident memory, measured from outside
//! the operator. Linux only — like the TCP backend's process handling.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`. The kernel exports times in USER_HZ, which
/// is 100 on every Linux architecture this repository builds on.
const TICKS_PER_SEC: f64 = 100.0;

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces), 0-based from the state field.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// CPU seconds this process has used so far — user + system, plus those
/// of every child it has already reaped (TCP workers count once the
/// session's close has waited for them).
pub fn cpu_seconds() -> f64 {
    let f = stat_fields("self").expect("cannot read /proc/self/stat");
    // state=0, so utime/stime/cutime/cstime (fields 14–17) sit at 11..=14.
    let ticks: u64 = (11..=14)
        .map(|i| f[i].parse::<u64>().expect("malformed /proc/self/stat"))
        .sum();
    ticks as f64 / TICKS_PER_SEC
}

fn status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid` in MB, if it is still alive.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set (`VmRSS`) of this process in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("self", "VmRSS:").expect("cannot read /proc/self/status") * 1024.0
}

/// Pids of this process's live children (the TCP backend's workers).
pub fn child_pids() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        // ppid is field 4: index 1 after the state.
        .filter(|pid| stat_fields(pid).is_some_and(|f| f[1] == me))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(rss_bytes() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(child_pids().is_empty());
    }
}
