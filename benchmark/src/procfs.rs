//! What the benchmark reads about itself and its host from `/proc`.

/// Kernel clock ticks per second for the times in `/proc/<pid>/stat`.
/// `USER_HZ` is 100 on every Linux ABI this repository builds for; reading
/// it properly needs `sysconf`, which needs `libc` or unsafe code.
const USER_HZ: f64 = 100.0;

/// CPU time a process has used, every thread, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuMs {
    /// In user mode (`utime`): the library's own computing.
    pub user: f64,
    /// In the kernel (`stime`): sockets, sleeps and wake-ups.
    pub sys: f64,
}

/// Process CPU time from the text of `/proc/<pid>/stat`. The command name
/// may contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<CpuMs> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let ms = |ticks: u64| ticks as f64 * 1000.0 / USER_HZ;
    Some(CpuMs { user: ms(utime), sys: ms(stime) })
}

/// Peak resident set (`VmHWM`) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// The first `model name` in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// CPU time this process has used so far, server and load generator
/// together.
pub fn process_cpu_ms() -> CpuMs {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .expect("/proc/self/stat is readable and well formed on Linux")
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// The host CPU's model name, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (ssl perf) (x)) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    250 50 0 0 20 0 5 0 123456 1000000 900 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(CpuMs { user: 2500.0, sys: 500.0 }));
        assert_eq!(parse_stat_cpu_ms("no parens here"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_converted_to_mib() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Example CPU @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_ms().user >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
