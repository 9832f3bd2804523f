//! Process and thread resource readings from `/proc` (Linux only; other
//! targets read 0).

use std::time::Duration;

/// CPUs this process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    greenps_bench::peak_rss_kib().map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time consumed by the whole process so far, exited threads
/// included (`utime + stime` of `/proc/self/stat`, in clock ticks of
/// 10 ms on Linux).
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name may contain spaces; fields restart after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // indices 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// CPU time consumed so far by the threads alive now, in nanoseconds
/// (`/proc/self/task/*/schedstat`). Exact, but blind to threads that
/// already exited: use it only across windows in which no thread ends.
pub fn live_threads_cpu() -> Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(Duration::from_nanos)
        .sum()
}

/// The calling thread's kernel id, so other threads can read its CPU.
pub fn own_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time consumed so far by this process's thread `tid`
/// (`/proc/self/task/<tid>/schedstat`, nanoseconds).
pub fn thread_cpu(tid: u64) -> Duration {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}
