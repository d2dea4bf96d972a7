//! Host facts and the process-level measurements (clock, CPU time, peak
//! RSS). Linux only: everything comes from `/proc`, so the benchmark needs
//! no `unsafe` and no libc.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process; never 0, so 0 can
/// mean "not stamped yet" in the atomics that hold these.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `C`: cores in the allocation table. `min(nproc, 4)`, but never below 2:
/// the co-run workloads need one home core per program.
pub fn table_cores() -> usize {
    nproc().clamp(2, 4)
}

/// Kernel clock ticks per second for `/proc/*/stat` (`USER_HZ`; 100 on
/// every Linux architecture).
const TICKS_PER_S: f64 = 100.0;

fn cpu_seconds_from(stat_path: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_path).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12th and 13th after the ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().expect("utime").parse().expect("utime is a number");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime is a number");
    (utime + stime) / TICKS_PER_S
}

/// CPU seconds (user + system) the whole process has used so far,
/// including threads that already exited.
pub fn process_cpu_s() -> f64 {
    cpu_seconds_from("/proc/self/stat")
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds_from("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: f64 = line.split_ascii_whitespace().nth(1).expect("VmHWM value").parse().expect("kB");
    kb / 1024.0
}

/// One line of host facts for reports.
pub fn describe() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default().trim().to_string();
    format!(
        "nproc={} C={} kernel={} loadavg={}",
        nproc(),
        table_cores(),
        read("/proc/sys/kernel/osrelease"),
        read("/proc/loadavg")
    )
}
