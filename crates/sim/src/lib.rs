//! Deterministic discrete-event simulation kernel.
//!
//! The unit of work is a task: a fixed-duration occupation of exactly one
//! resource, gated on the completion of a set of predecessor tasks. The
//! simulator executes the task DAG to completion, respecting resource
//! exclusivity (each resource runs one task at a time, in FIFO order of
//! readiness, with deterministic tie-breaking), and reports the makespan,
//! per-task spans, and per-resource utilization.
//!
//! This kernel is domain-agnostic: the Megatron reproduction maps GPU compute
//! streams and network links to resources, and kernels / message transfers to
//! tasks. Time is kept in integer nanoseconds so runs are exactly
//! reproducible across platforms.

mod engine;
pub mod json;
mod trace;

pub use engine::{DagSim, ResourceId, ResourceStats, SimError, SimResult, TaskId, TaskSpan};
pub use trace::{chrome_trace_json, events_json, render_gantt, TraceEvent};

/// Simulated time in nanoseconds.
pub type Time = u64;

/// Convert seconds (f64) to simulated nanoseconds, saturating and rounding.
#[inline]
pub fn secs_to_time(s: f64) -> Time {
    debug_assert!(s >= 0.0, "negative duration {s}");
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

/// Convert simulated nanoseconds back to seconds.
#[inline]
pub fn time_to_secs(t: Time) -> f64 {
    t as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_roundtrip() {
        let s = 1.234567;
        let t = secs_to_time(s);
        assert!((time_to_secs(t) - s).abs() < 1e-9);
    }

    #[test]
    fn secs_to_time_saturates() {
        assert_eq!(secs_to_time(1e30), u64::MAX);
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(secs_to_time(0.0), 0);
        assert_eq!(time_to_secs(0), 0.0);
    }
}
