//! CPU time and peak memory of a process, read from `/proc` — the
//! benchmark observes the trainer from outside, so these work the same for
//! the round process itself and for rank processes it did not write.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields. Fixed at 100 by the
/// Linux ABI on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// Process state letter (`R`, `S`, `Z` for an exited, unreaped child…).
    pub state: char,
    /// User-mode CPU, in ticks, summed over all (live and exited) threads.
    pub utime_ticks: u64,
    /// Kernel-mode CPU, in ticks.
    pub stime_ticks: u64,
}

impl ProcStat {
    /// User + system CPU seconds.
    pub fn cpu_seconds(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_SECOND
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    // After the state come ppid … cmajflt (10 fields), then utime, stime.
    let mut fields = fields.skip(10);
    Some(ProcStat {
        state,
        utime_ticks: fields.next()?.parse().ok()?,
        stime_ticks: fields.next()?.parse().ok()?,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in
/// KiB. Absent for zombies and kernel threads.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Current `stat` of `pid` (`None` once it has been reaped).
pub fn stat(pid: u32) -> Option<ProcStat> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of `pid` in MiB.
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let kib = parse_vm_hwm_kib(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)?;
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let line = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 1234 0 5 0 \
                    731 29 0 0 20 0 9 0 100 1000000 250 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.state, 'S');
        assert_eq!((s.utime_ticks, s.stime_ticks), (731, 29));
        assert_eq!(s.cpu_seconds(), 7.6);
    }

    #[test]
    fn zombie_stat_still_parses() {
        let line = "7 (benchmark) Z 1 7 7 0 -1 4227084 88 0 0 0 12 3 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat(line).unwrap().state, 'Z');
    }

    #[test]
    fn malformed_stat_is_none() {
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 3"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("Name:\tz\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(stat(me).is_some());
        assert!(vm_hwm_mib(me).unwrap() > 0.0);
    }
}
