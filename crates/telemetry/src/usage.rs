//! Page faults, CPU time, context switches and socket system calls per rank
//! iteration: how much of a step the kernel spent handing the process fresh
//! memory, how much CPU the rank's thread burned on it, how often the
//! thread gave up its core (to wait) or had it taken away, and how many
//! `poll(2)`s, reads and writes a rank process's socket node made.
//!
//! A rank reads [`thread_usage`] and its node's
//! [`SocketNode::calls`](megatron_collective::SocketNode::calls) around
//! each iteration and adds the differences with
//! [`TelemetrySink::record_rank_usage`]; the counters live
//! in the run's metrics snapshot, so [`rank_usage`] reads them back from a
//! live sink and from a rank process's `rank-R.metrics.json` alike.

use megatron_collective::SocketCalls;
use megatron_sim::json::Json;

use crate::TelemetrySink;

/// What the calling thread (or the process) has used since it started,
/// from one `getrusage` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadUsage {
    /// Minor page faults (`ru_minflt`).
    pub minor_faults: u64,
    /// CPU time in user and kernel mode (`ru_utime + ru_stime`), µs.
    pub cpu_us: u64,
    /// Voluntary context switches (`ru_nvcsw`): the thread blocked.
    pub voluntary_switches: u64,
    /// Involuntary context switches (`ru_nivcsw`): the scheduler took the
    /// core from the thread.
    pub involuntary_switches: u64,
}

impl ThreadUsage {
    /// What was used between `earlier` and `self`.
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            minor_faults: self.minor_faults - earlier.minor_faults,
            cpu_us: self.cpu_us - earlier.cpu_us,
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
        }
    }
}

/// The calling thread's faults, CPU time and switches since it started
/// (`getrusage(RUSAGE_THREAD)`), or `None` where that is not available.
pub fn thread_usage() -> Option<ThreadUsage> {
    getrusage(1)
}

/// The faults, CPU time and switches of every thread of this process, live
/// or finished, since it started (`getrusage(RUSAGE_SELF)`), or `None`
/// where that is not available: what a step costs when helper threads run
/// parts of it.
pub fn process_usage() -> Option<ThreadUsage> {
    getrusage(0)
}

/// One `getrusage(who)` call.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn getrusage(who: std::ffi::c_int) -> Option<ThreadUsage> {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` on 64-bit Linux: two `timeval`s (`ru_utime`,
    /// `ru_stime`: seconds, then microseconds), then fourteen longs, of
    /// which the fifth is `ru_minflt` and the last two `ru_nvcsw` and
    /// `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        counts: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut usage = Rusage {
        times: [0; 4],
        counts: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // duration of the call.
    let rc = unsafe { getrusage(who, &mut usage) };
    let [user_s, user_us, sys_s, sys_us] = usage.times.map(|t| t as u64);
    (rc == 0).then_some(ThreadUsage {
        minor_faults: usage.counts[4] as u64,
        cpu_us: (user_s + sys_s) * 1_000_000 + user_us + sys_us,
        voluntary_switches: usage.counts[12] as u64,
        involuntary_switches: usage.counts[13] as u64,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn getrusage(_who: std::ffi::c_int) -> Option<ThreadUsage> {
    None
}

/// One rank's steady-state page faults, CPU time, context switches and
/// socket calls, as its counters recorded them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankUsage {
    /// Flat rank.
    pub rank: usize,
    /// Minor faults over the rank's steady-state iterations.
    pub faults: u64,
    /// CPU time of the rank's thread over them, µs.
    pub cpu_us: u64,
    /// Voluntary context switches of the rank's thread over them.
    pub voluntary_switches: u64,
    /// Involuntary context switches of the rank's thread over them.
    pub involuntary_switches: u64,
    /// System calls of the rank's socket node over them (all zero on a
    /// rank thread).
    pub socket: SocketCalls,
    /// Steady-state iterations the rank ran.
    pub iterations: u64,
}

impl RankUsage {
    /// Minor faults per steady-state iteration.
    pub fn faults_per_iteration(&self) -> f64 {
        self.faults as f64 / self.iterations.max(1) as f64
    }

    /// CPU milliseconds per steady-state iteration.
    pub fn cpu_ms_per_iteration(&self) -> f64 {
        self.cpu_us as f64 / 1e3 / self.iterations.max(1) as f64
    }

    /// Voluntary and involuntary context switches per steady-state
    /// iteration.
    pub fn switches_per_iteration(&self) -> (f64, f64) {
        let n = self.iterations.max(1) as f64;
        (
            self.voluntary_switches as f64 / n,
            self.involuntary_switches as f64 / n,
        )
    }

    /// Socket `poll(2)`s, reads and writes per steady-state iteration.
    pub fn socket_calls_per_iteration(&self) -> [f64; 3] {
        let n = self.iterations.max(1) as f64;
        let c = self.socket;
        [c.polls, c.reads, c.writes].map(|x| x as f64 / n)
    }
}

/// Every rank's steady-state faults, CPU time, switches and socket calls in
/// a metrics snapshot ([`crate::MetricsRegistry::snapshot`]), by flat rank.
pub fn rank_usage(snapshot: &Json) -> Vec<RankUsage> {
    let Json::Obj(counters) = &snapshot["counters"] else {
        return Vec::new();
    };
    let of = |prefix: &str, rank: usize| {
        counters
            .get(&format!("{prefix}.rank{rank}"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    let prefix = format!("{}.rank", TelemetrySink::STEADY_ITERATIONS);
    let mut ranks: Vec<usize> = counters
        .keys()
        .filter_map(|k| k.strip_prefix(&prefix)?.parse().ok())
        .collect();
    ranks.sort_unstable();
    ranks
        .into_iter()
        .map(|rank| RankUsage {
            rank,
            faults: of(TelemetrySink::MINOR_FAULTS, rank),
            cpu_us: of(TelemetrySink::CPU_US, rank),
            voluntary_switches: of(TelemetrySink::VOLUNTARY_SWITCHES, rank),
            involuntary_switches: of(TelemetrySink::INVOLUNTARY_SWITCHES, rank),
            socket: SocketCalls {
                polls: of(TelemetrySink::SOCKET_POLLS, rank),
                reads: of(TelemetrySink::SOCKET_READS, rank),
                writes: of(TelemetrySink::SOCKET_WRITES, rank),
            },
            iterations: of(TelemetrySink::STEADY_ITERATIONS, rank),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinkConfig;

    #[test]
    fn rank_usage_reads_back_what_ranks_recorded() {
        let sink = TelemetrySink::new(SinkConfig::default());
        for (rank, faults, cpu_us, vcsw, ivcsw, polls) in [
            (10, 3, 900, 4, 1, 0),
            (2, 0, 50, 0, 0, 5),
            (10, 5, 2100, 6, 0, 0),
            (2, 0, 0, 2, 7, 1),
            (2, 1, 10, 1, 2, 3),
        ] {
            sink.record_rank_usage(
                rank,
                ThreadUsage {
                    minor_faults: faults,
                    cpu_us,
                    voluntary_switches: vcsw,
                    involuntary_switches: ivcsw,
                },
                SocketCalls {
                    polls,
                    reads: 2 * polls,
                    writes: polls + 1,
                },
            );
        }
        let snapshot = sink.metrics.snapshot();
        let read = rank_usage(&Json::parse(&snapshot.to_string()).unwrap());
        assert_eq!(
            read,
            [
                RankUsage {
                    rank: 2,
                    faults: 1,
                    cpu_us: 60,
                    voluntary_switches: 3,
                    involuntary_switches: 9,
                    socket: SocketCalls {
                        polls: 9,
                        reads: 18,
                        writes: 12
                    },
                    iterations: 3
                },
                RankUsage {
                    rank: 10,
                    faults: 8,
                    cpu_us: 3000,
                    voluntary_switches: 10,
                    involuntary_switches: 1,
                    socket: SocketCalls {
                        polls: 0,
                        reads: 0,
                        writes: 2
                    },
                    iterations: 2
                },
            ]
        );
        assert_eq!(read[1].faults_per_iteration(), 4.0);
        assert_eq!(read[1].cpu_ms_per_iteration(), 1.5);
        assert_eq!(read[0].cpu_ms_per_iteration(), 0.02);
        assert_eq!(read[0].switches_per_iteration(), (1.0, 3.0));
        assert_eq!(read[1].switches_per_iteration(), (5.0, 0.5));
        assert_eq!(read[0].socket_calls_per_iteration(), [3.0, 6.0, 4.0]);
        assert_eq!(read[1].socket_calls_per_iteration(), [0.0, 0.0, 1.0]);
        assert!(
            rank_usage(&TelemetrySink::new(SinkConfig::default()).metrics.snapshot()).is_empty()
        );
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn touching_fresh_pages_counts_faults_on_this_thread() {
        let before = thread_usage().expect("getrusage works on Linux");
        // Larger than glibc's largest dynamic mmap threshold, so the block
        // is a fresh mapping whatever the other tests freed; written once
        // per page (a huge page takes one fault for many).
        let mut pages = vec![0u8; 64 << 20];
        for page in pages.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&pages);
        let used = thread_usage().unwrap().since(before);
        assert!(used.minor_faults > 0, "{before:?} -> {used:?}");
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn the_process_count_sees_another_threads_faults() {
        let (before, mine) = (
            process_usage().expect("getrusage works"),
            thread_usage().unwrap(),
        );
        // As above, on a thread of its own.
        std::thread::spawn(|| {
            let mut pages = vec![0u8; 64 << 20];
            for page in pages.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&pages);
        })
        .join()
        .unwrap();
        let (process, thread) = (process_usage().unwrap(), thread_usage().unwrap());
        let faults = process.since(before).minor_faults - thread.since(mine).minor_faults;
        assert!(faults > 0, "{before:?} -> {process:?}");
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn sleeping_counts_voluntary_switches_on_this_thread() {
        // A thread of its own, so that only its sleeps count: each one
        // blocks the thread, which gives up its core.
        let used = std::thread::spawn(|| {
            let before = thread_usage().expect("getrusage works on Linux");
            for _ in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            thread_usage().unwrap().since(before)
        })
        .join()
        .unwrap();
        assert!(used.voluntary_switches >= 3, "{used:?}");
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn spinning_counts_cpu_time_on_this_thread() {
        let before = thread_usage().expect("getrusage works on Linux");
        let start = std::time::Instant::now();
        // 30 ms of wall time spinning: the thread runs for some of it even
        // on a busy host, and cannot run for more of it than there was.
        let mut x = 0u64;
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let used = thread_usage().unwrap().since(before);
        let wall_us = start.elapsed().as_micros() as u64;
        assert!(used.cpu_us > 0, "{before:?} -> {used:?}");
        assert!(used.cpu_us <= wall_us + 1_000, "{used:?} in {wall_us} µs");
    }
}
