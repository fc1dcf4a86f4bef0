//! What a traced round is reduced to: where an iteration's wall time went
//! (`trainer.*_share`), how long the compute phases took (`tensor.fwd_ms`
//! …) and what tracing itself recorded (`trace.*`).
//!
//! Thread- and process-mode traces are the trainer's own spans; they go
//! through `megatron_telemetry`'s DAG → critical path → attribution, one
//! iteration at a time. The serial baseline has no ranks to wait for, so
//! its shares are plain sums of the benchmark's spans.

use megatron_sim::json::Json;
use megatron_telemetry::{critical_path, parse_chrome_trace, Attribution, Window};

use crate::spans::SpanLog;
use crate::stats::median;

/// Shares of the timed iterations' wall time, in `trainer.*_share` order.
pub const SHARE_NAMES: [&str; 6] = [
    "compute",
    "exposed_comm",
    "bubble",
    "straggler_wait",
    "optimizer",
    "other",
];

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Sum to 1 (checkpoint and retransmission time, zero in these
    /// workloads, is folded into `other`).
    pub shares: [f64; 6],
    /// Median forward / backward span (one microbatch on one rank) and
    /// optimizer step, seconds.
    pub fwd_s: f64,
    pub bwd_s: f64,
    pub adam_s: f64,
    /// Spans recorded over the whole round.
    pub spans: usize,
    /// Spans lost to a full ring buffer.
    pub dropped: u64,
}

fn shares_of(a: &Attribution) -> [f64; 6] {
    let total = a.measured_s.max(1e-12);
    [
        a.compute_s / total,
        a.exposed_comm_s / total,
        a.bubble_s / total,
        a.straggler_wait_s / total,
        a.optimizer_s / total,
        (a.other_s + a.checkpoint_s + a.retransmission_s + a.residual_s()) / total,
    ]
}

/// Analyse a trainer trace (Chrome JSON). Iteration 0 is warm-up and is
/// left out, as in the end-to-end metrics.
pub fn summarize_trainer(
    trace: &str,
    pipeline: usize,
    iters: usize,
    dropped: u64,
) -> Result<TraceSummary, String> {
    let dag = parse_chrome_trace(trace, pipeline)?;
    let per_iter: Vec<Attribution> = (1..iters as u64)
        .filter_map(|it| critical_path(&dag, Window::iteration(it)))
        .map(|path| Attribution::from_path(&path))
        .collect();
    if per_iter.is_empty() {
        return Err("no timed iteration has spans".into());
    }
    let durations = |name: &str| -> Vec<f64> {
        dag.ranks
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| s.name == name && s.iteration != Some(0))
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    };
    Ok(TraceSummary {
        shares: shares_of(&Attribution::mean(&per_iter)),
        fwd_s: median(&durations("forward")),
        bwd_s: median(&durations("backward")),
        adam_s: median(&durations("adam-step")),
        spans: dag.ranks.iter().map(|r| r.spans.len()).sum(),
        dropped,
    })
}

/// The serial baseline: `iteration` spans with `forward`, `backward` and
/// `adam-step` children.
pub fn summarize_serial(log: &SpanLog) -> TraceSummary {
    // Skip the warm-up iteration's spans.
    let timed = |name: &str| log.durations(name).split_off(1);
    let (fwd, bwd, adam, iter) = (
        timed("forward"),
        timed("backward"),
        timed("adam-step"),
        timed("iteration"),
    );
    let total = iter.iter().sum::<f64>().max(1e-12);
    let compute = (fwd.iter().sum::<f64>() + bwd.iter().sum::<f64>()) / total;
    let optimizer = adam.iter().sum::<f64>() / total;
    TraceSummary {
        shares: [compute, 0.0, 0.0, 0.0, optimizer, 1.0 - compute - optimizer],
        fwd_s: median(&fwd),
        bwd_s: median(&bwd),
        adam_s: median(&adam),
        spans: log.len(),
        dropped: 0,
    }
}

impl TraceSummary {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "shares",
                Json::Arr(self.shares.iter().map(|s| Json::Num(*s)).collect()),
            ),
            ("fwd_s", Json::Num(self.fwd_s)),
            ("bwd_s", Json::Num(self.bwd_s)),
            ("adam_s", Json::Num(self.adam_s)),
            ("spans", Json::Num(self.spans as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<TraceSummary> {
        let shares: Vec<f64> = j
            .get("shares")
            .as_array()?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        Some(TraceSummary {
            shares: shares.try_into().ok()?,
            fwd_s: j.get("fwd_s").as_f64()?,
            bwd_s: j.get("bwd_s").as_f64()?,
            adam_s: j.get("adam_s").as_f64()?,
            spans: j.get("spans").as_f64()? as usize,
            dropped: j.get("dropped").as_f64()? as u64,
        })
    }
}
