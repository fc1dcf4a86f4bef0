//! Page faults per rank iteration: how much of a step the kernel spent
//! handing the process fresh memory.
//!
//! A rank thread reads [`thread_minor_faults`] around each iteration and
//! adds the difference with [`TelemetrySink::record_rank_faults`]; the
//! counters live in the run's metrics snapshot, so [`rank_faults`] reads
//! them back from a live sink and from a rank process's
//! `rank-R.metrics.json` alike.

use megatron_sim::json::Json;

use crate::TelemetrySink;

/// Minor page faults the calling thread has taken since it started
/// (`getrusage(RUSAGE_THREAD)`), or `None` where that is not available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_minor_faults() -> Option<u64> {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// longs, the fifth of which is `ru_minflt`.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        counts: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_THREAD: c_int = 1;
    let mut usage = Rusage {
        times: [0; 4],
        counts: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // duration of the call.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
    (rc == 0).then_some(usage.counts[4] as u64)
}

/// Minor page faults the calling thread has taken since it started
/// (`getrusage(RUSAGE_THREAD)`), or `None` where that is not available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_minor_faults() -> Option<u64> {
    None
}

/// One rank's steady-state page faults, as its counters recorded them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFaults {
    /// Flat rank.
    pub rank: usize,
    /// Minor faults over the rank's steady-state iterations.
    pub faults: u64,
    /// Steady-state iterations the rank ran.
    pub iterations: u64,
}

impl RankFaults {
    /// Minor faults per steady-state iteration.
    pub fn per_iteration(&self) -> f64 {
        self.faults as f64 / self.iterations.max(1) as f64
    }
}

/// Every rank's steady-state faults in a metrics snapshot
/// ([`crate::MetricsRegistry::snapshot`]), by flat rank.
pub fn rank_faults(snapshot: &Json) -> Vec<RankFaults> {
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
        .map(|rank| RankFaults {
            rank,
            faults: of(TelemetrySink::MINOR_FAULTS, rank),
            iterations: of(TelemetrySink::STEADY_ITERATIONS, rank),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinkConfig;

    #[test]
    fn rank_faults_reads_back_what_ranks_recorded() {
        let sink = TelemetrySink::new(SinkConfig::default());
        for (rank, faults) in [(10, 3), (2, 0), (10, 5), (2, 0), (2, 1)] {
            sink.record_rank_faults(rank, faults);
        }
        let snapshot = sink.metrics.snapshot();
        let read = rank_faults(&Json::parse(&snapshot.to_string()).unwrap());
        assert_eq!(
            read,
            [
                RankFaults {
                    rank: 2,
                    faults: 1,
                    iterations: 3
                },
                RankFaults {
                    rank: 10,
                    faults: 8,
                    iterations: 2
                },
            ]
        );
        assert_eq!(read[1].per_iteration(), 4.0);
        assert!(
            rank_faults(&TelemetrySink::new(SinkConfig::default()).metrics.snapshot()).is_empty()
        );
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn touching_fresh_pages_counts_faults_on_this_thread() {
        let before = thread_minor_faults().expect("getrusage works on Linux");
        // Larger than glibc's largest dynamic mmap threshold, so the block
        // is a fresh mapping whatever the other tests freed; written once
        // per page (a huge page takes one fault for many).
        let mut pages = vec![0u8; 64 << 20];
        for page in pages.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&pages);
        let after = thread_minor_faults().unwrap();
        assert!(after > before, "{before} -> {after}");
    }
}
