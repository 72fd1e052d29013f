//! The process seen from outside: per-thread CPU, run-queue wait and
//! context switches from `/proc/self/task/*`, peak RSS from
//! `/proc/self/status`. The server already names its threads
//! `pretzel-reactor-*` / `pretzel-exec-*`, so no change to the program is
//! needed to attribute CPU to a layer.

use std::fs;
use std::ops::Sub;

/// Scheduler accounting of one thread group.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ThreadTimes {
    /// Time on a CPU (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU (`schedstat` field 2).
    pub runq_ns: u64,
    pub voluntary_switches: u64,
}

impl ThreadTimes {
    fn add(&mut self, other: ThreadTimes) {
        self.cpu_ns += other.cpu_ns;
        self.runq_ns += other.runq_ns;
        self.voluntary_switches += other.voluntary_switches;
    }
}

impl Sub for ThreadTimes {
    type Output = ThreadTimes;
    fn sub(self, before: ThreadTimes) -> ThreadTimes {
        ThreadTimes {
            cpu_ns: self.cpu_ns.saturating_sub(before.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(before.runq_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(before.voluntary_switches),
        }
    }
}

/// The process's threads, grouped by the layer they belong to.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ProcSnapshot {
    pub reactor: ThreadTimes,
    pub exec: ThreadTimes,
    /// The main thread: the load driver.
    pub driver: ThreadTimes,
    pub other: ThreadTimes,
}

impl ProcSnapshot {
    pub fn total(&self) -> ThreadTimes {
        let mut t = self.reactor;
        t.add(self.exec);
        t.add(self.driver);
        t.add(self.other);
        t
    }
}

impl Sub for ProcSnapshot {
    type Output = ProcSnapshot;
    fn sub(self, before: ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            reactor: self.reactor - before.reactor,
            exec: self.exec - before.exec,
            driver: self.driver - before.driver,
            other: self.other - before.other,
        }
    }
}

/// `cpu_ns runq_ns timeslices` → the first two.
fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// The numeric value of a `key:\tvalue [unit]` line of a `status` file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Reads every thread of this process. A thread that exits mid-read is
/// skipped; none does during a measured phase.
pub fn snapshot() -> ProcSnapshot {
    let mut snap = ProcSnapshot::default();
    let pid = std::process::id().to_string();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return snap;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let read = |file: &str| fs::read_to_string(dir.join(file)).ok();
        let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let Some((cpu_ns, runq_ns)) = parse_schedstat(&sched) else {
            continue;
        };
        let times = ThreadTimes {
            cpu_ns,
            runq_ns,
            voluntary_switches: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
        };
        let group = if task.file_name().to_string_lossy() == pid {
            &mut snap.driver
        } else if comm.starts_with("pretzel-react") {
            &mut snap.reactor
        } else if comm.starts_with("pretzel-exec") {
            &mut snap.exec
        } else {
            &mut snap.other
        };
        group.add(times);
    }
    snap
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| status_field(&status, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_and_status() {
        assert_eq!(parse_schedstat("1234 567 8\n"), Some((1234, 567)));
        assert_eq!(parse_schedstat("garbage"), None);
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(42));
        assert_eq!(status_field(status, "Missing"), None);
    }

    #[test]
    fn snapshot_sees_cpu_time_and_peak_rss() {
        let mut spin = 0u64;
        for i in 0..5_000_000u64 {
            spin = spin.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(spin);
        // `cargo test` runs tests off the main thread, so only the totals
        // are checked here; the grouping is checked by the smoke run.
        assert!(snapshot().total().cpu_ns > 0);
        assert!(vm_hwm_mib() > 0.0);
    }
}
