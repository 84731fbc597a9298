//! What the host says about a run: process CPU time, peak memory, CPU
//! steal and load over the run, and the provenance stamp.

use std::path::Path;
use std::process::Command;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process (every thread, live or
/// already joined), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuJiffies {
    total: u64,
    steal: u64,
}

impl CpuJiffies {
    /// Reads `/proc/stat` now (zeros where it is unreadable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let total = fields.iter().take(8).sum();
        let steal = fields.get(7).copied().unwrap_or(0);
        CpuJiffies { total, steal }
    }

    /// Share of all CPU time the hypervisor stole since `earlier`.
    pub fn steal_share_since(self, earlier: CpuJiffies) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// The one-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// First line of a command's standard output, or `unknown`. The child is
/// waited for before this returns.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the working directory, or `unknown`. Git is
/// kept from searching the directories above it.
fn git_commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_owned))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git)
}

/// Which code ran where: the commit (`unknown` outside a git checkout),
/// the compiler, and the host's thread count.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The commit hash, or `unknown`.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Threads the host offers this process.
    pub nproc: usize,
}

impl Provenance {
    /// Collects the stamp.
    pub fn collect() -> Self {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
        Provenance {
            commit: git_commit(),
            rustc: command_line(Command::new(rustc).arg("--version")),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}
