//! CPU time and peak memory of this process, read from `/proc`.

/// Clock ticks per second of the `utime`/`stime` fields: `USER_HZ`, which
/// is 100 on every Linux architecture Rust targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time in microseconds from the text of a
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` file: fields 14
/// (`utime`) and 15 (`stime`). The command name (field 2) is in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_us(text: &str) -> Option<f64> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S * 1e6)
}

fn cpu_us(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_stat_cpu_us(&text).unwrap_or_else(|| panic!("utime and stime in {path}"))
}

/// User + system CPU time of the whole process so far (every thread,
/// including ones that have exited), in microseconds.
pub fn process_cpu_us() -> f64 {
    cpu_us("/proc/self/stat")
}

/// CPU time of the calling thread so far, in microseconds.
pub fn thread_cpu_us() -> f64 {
    cpu_us("/proc/thread-self/stat")
}

/// The KiB value of `key` (e.g. `"VmHWM"`) in `/proc/<pid>/status` text.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&text, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// CPUs the process may run on: what the library's automatic thread
/// counts see too.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_parse_past_an_awkward_command_name() {
        let plain = "32642 (cat) R 32636 32642 32636 0 -1 4194304 81 0 0 0 7 5 0 0 20 0 1 0 \
                     4730072 2703360 322 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0";
        assert_eq!(parse_stat_cpu_us(plain), Some(120_000.0));
        let awkward = "7 (a b) c) 1) S 1 7 7 0 -1 4194304 81 0 0 0 1234 66 9 9 20 0 5 0 1 1 1";
        assert_eq!(parse_stat_cpu_us(awkward), Some(13_000_000.0));
        assert_eq!(parse_stat_cpu_us("7 (short) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_us("no parenthesis"), None);
    }

    #[test]
    fn status_fields_parse_in_kib() {
        let text = "Name:\tkind-benchmark\nVmPeak:\t  903212 kB\nVmHWM:\t   51800 kB\n\
                    VmRSS:\t   40000 kB\nThreads:\t5\n";
        assert_eq!(parse_status_kib(text, "VmHWM"), Some(51800));
        assert_eq!(parse_status_kib(text, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kib(text, "VmSwap"), None);
        assert_eq!(parse_status_kib(text, "Threads"), None);
        assert_eq!(parse_status_kib("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_and_counts_other_threads() {
        let (process0, thread0) = (process_cpu_us(), thread_cpu_us());
        let spin = || {
            let mut x = 0u64;
            for i in 0..200_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        };
        std::thread::spawn(spin).join().unwrap();
        let other_thread = process_cpu_us() - process0;
        assert!(other_thread >= 20_000.0, "a joined thread's CPU is counted");
        assert!(thread_cpu_us() - thread0 < other_thread);
        spin();
        assert!(thread_cpu_us() - thread0 >= 20_000.0);
        assert!(peak_rss_mib() > 0.0 && host_cpus() >= 1);
    }
}
