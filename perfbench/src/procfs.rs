//! Process and per-thread counters read from `/proc/self`.
//!
//! Threads are told apart by the names the runtime gives them
//! (`idea-evented`, `idea-node-*`, `idea-router-*`); everything else in
//! the process is the benchmark's own generator.

use std::collections::HashMap;
use std::fs;

/// Cumulative counters of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCounters {
    /// On-CPU time in nanoseconds (`schedstat`, first field).
    pub cpu_ns: u64,
    /// Voluntary context switches (the thread blocked: a wake-up later).
    pub vol_cs: u64,
    /// Involuntary context switches (the thread was preempted).
    pub nonvol_cs: u64,
}

impl ThreadCounters {
    fn add(&mut self, o: ThreadCounters) {
        self.cpu_ns += o.cpu_ns;
        self.vol_cs += o.vol_cs;
        self.nonvol_cs += o.nonvol_cs;
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            vol_cs: self.vol_cs.saturating_sub(earlier.vol_cs),
            nonvol_cs: self.nonvol_cs.saturating_sub(earlier.nonvol_cs),
        }
    }
}

/// The thread groups the benchmark attributes cost to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// The evented server's loop thread.
    Loop,
    /// Shard workers (`idea-node-<node>-s<shard>`).
    Worker,
    /// Delay routers (`idea-router-<shard>`).
    Router,
    /// Everything else: the benchmark's generator and main thread.
    Other,
}

impl Group {
    fn of(name: &str) -> Group {
        if name == "idea-evented" {
            Group::Loop
        } else if name.starts_with("idea-node-") {
            Group::Worker
        } else if name.starts_with("idea-router-") {
            Group::Router
        } else {
            Group::Other
        }
    }
}

/// Counters per thread group at one instant. Threads that exited before
/// the snapshot are not included, so snapshots bracket phases during which
/// the runtime's threads are alive.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    groups: HashMap<Group, ThreadCounters>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let mut groups: HashMap<Group, ThreadCounters> = HashMap::new();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return Snapshot { groups };
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let name = fs::read_to_string(path.join("comm")).unwrap_or_default();
            let cpu_ns = fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
                .unwrap_or(0);
            let status = fs::read_to_string(path.join("status")).unwrap_or_default();
            let counters = ThreadCounters {
                cpu_ns,
                vol_cs: status_field(&status, "voluntary_ctxt_switches:"),
                nonvol_cs: status_field(&status, "nonvoluntary_ctxt_switches:"),
            };
            groups.entry(Group::of(name.trim())).or_default().add(counters);
        }
        Snapshot { groups }
    }

    pub fn group(&self, g: Group) -> ThreadCounters {
        self.groups.get(&g).copied().unwrap_or_default()
    }

    /// Growth of one group since `earlier`.
    pub fn delta(&self, earlier: &Snapshot, g: Group) -> ThreadCounters {
        self.group(g).since(earlier.group(g))
    }

    /// CPU nanoseconds of every thread outside [`Group::Other`]: the
    /// system under test, as opposed to the generator.
    pub fn server_cpu_ns(&self) -> u64 {
        [Group::Loop, Group::Worker, Group::Router].iter().map(|&g| self.group(g).cpu_ns).sum()
    }

    /// CPU nanoseconds of every live thread.
    pub fn total_cpu_ns(&self) -> u64 {
        self.groups.values().map(|c| c.cpu_ns).sum()
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// Whole-process I/O counters from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub syscr: u64,
    pub syscw: u64,
    pub write_bytes: u64,
}

impl Io {
    pub fn take() -> Io {
        let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
        Io {
            syscr: status_field(&io, "syscr:"),
            syscw: status_field(&io, "syscw:"),
            write_bytes: status_field(&io, "write_bytes:"),
        }
    }

    pub fn since(self, earlier: Io) -> Io {
        Io {
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
        }
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_S: f64 = 100.0;

/// Machine-wide steal time in clock ticks (`/proc/stat`, eighth field of
/// the `cpu` line).
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_thread_name() {
        assert_eq!(Group::of("idea-evented"), Group::Loop);
        assert_eq!(Group::of("idea-node-3-s1"), Group::Worker);
        assert_eq!(Group::of("idea-router-0"), Group::Router);
        assert_eq!(Group::of("idea-perfbench"), Group::Other);
    }

    #[test]
    fn snapshot_sees_this_thread() {
        let s = Snapshot::take();
        assert!(s.group(Group::Other).cpu_ns > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
