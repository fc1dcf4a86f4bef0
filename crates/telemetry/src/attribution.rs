//! Exact time attribution and analytic what-if bounds.
//!
//! [`Attribution`] folds a [`CriticalPath`]'s segments into the taxonomy
//! the paper's §5 discussion needs — on-path compute, exposed
//! communication, pipeline bubble, straggler-induced wait, optimizer,
//! checkpoint, retransmission overhead, untraced other — in seconds.
//! Because the path segments tile the analysis window exactly, the
//! categories sum to the measured iteration time with zero residue (the
//! analyzer invariant the proptests pin down).
//!
//! [`WhatIf`] turns the same breakdown into the three bounds that
//! communication overlap (under "Parked" in ROADMAP.md) needs before any
//! overlap work exists: the iteration time with communication free, with
//! communication perfectly overlapped, and with no stragglers.

use crate::critical_path::{CriticalPath, PathCat, Window};
use crate::dag::{Phase, TraceDag};

/// Where one iteration's wall-clock time went, in seconds. Categories sum
/// to `measured_s` exactly (see [`Attribution::residual_s`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// Measured iteration time: the analysis window length.
    pub measured_s: f64,
    /// On-path forward/backward compute.
    pub compute_s: f64,
    /// Communication the path waited on (transfer time).
    pub exposed_comm_s: f64,
    /// Pipeline bubble (stage waits).
    pub bubble_s: f64,
    /// Collective wait for the last-arriving member beyond the
    /// straggler-free transfer time.
    pub straggler_wait_s: f64,
    /// Optimizer step.
    pub optimizer_s: f64,
    /// Checkpoint saves.
    pub checkpoint_s: f64,
    /// Transport recovery overhead. No wire retransmits (a broken one is a
    /// rank failure), so nothing is ever attributed here: always zero.
    pub retransmission_s: f64,
    /// Untraced overhead (scheduling gaps, dataloader).
    pub other_s: f64,
}

impl Attribution {
    /// Fold a critical path into category seconds.
    pub fn from_path(path: &CriticalPath) -> Attribution {
        let ns = |cat| path.total_ns(cat) as f64 / 1e9;
        Attribution {
            measured_s: path.length_ns() as f64 / 1e9,
            compute_s: ns(PathCat::Compute),
            exposed_comm_s: ns(PathCat::ExposedComm),
            bubble_s: ns(PathCat::Bubble),
            straggler_wait_s: ns(PathCat::StragglerWait),
            optimizer_s: ns(PathCat::Optimizer),
            checkpoint_s: ns(PathCat::Checkpoint),
            retransmission_s: 0.0,
            other_s: ns(PathCat::Other),
        }
    }

    /// Sum of all categories.
    pub fn accounted_s(&self) -> f64 {
        self.compute_s
            + self.exposed_comm_s
            + self.bubble_s
            + self.straggler_wait_s
            + self.optimizer_s
            + self.checkpoint_s
            + self.retransmission_s
            + self.other_s
    }

    /// `measured − accounted`: zero up to float rounding by construction.
    pub fn residual_s(&self) -> f64 {
        self.measured_s - self.accounted_s()
    }

    /// Element-wise mean over per-iteration attributions.
    pub fn mean(items: &[Attribution]) -> Attribution {
        let n = items.len().max(1) as f64;
        let mut out = Attribution::default();
        for a in items {
            out.measured_s += a.measured_s;
            out.compute_s += a.compute_s;
            out.exposed_comm_s += a.exposed_comm_s;
            out.bubble_s += a.bubble_s;
            out.straggler_wait_s += a.straggler_wait_s;
            out.optimizer_s += a.optimizer_s;
            out.checkpoint_s += a.checkpoint_s;
            out.retransmission_s += a.retransmission_s;
            out.other_s += a.other_s;
        }
        out.measured_s /= n;
        out.compute_s /= n;
        out.exposed_comm_s /= n;
        out.bubble_s /= n;
        out.straggler_wait_s /= n;
        out.optimizer_s /= n;
        out.checkpoint_s /= n;
        out.retransmission_s /= n;
        out.other_s /= n;
        out
    }

    /// `(label, seconds, share-of-measured)` rows in report order.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let share = |s: f64| {
            if self.measured_s > 0.0 {
                s / self.measured_s
            } else {
                0.0
            }
        };
        vec![
            ("compute", self.compute_s, share(self.compute_s)),
            (
                "exposed-comm",
                self.exposed_comm_s,
                share(self.exposed_comm_s),
            ),
            ("pipeline-bubble", self.bubble_s, share(self.bubble_s)),
            (
                "straggler-wait",
                self.straggler_wait_s,
                share(self.straggler_wait_s),
            ),
            ("optimizer", self.optimizer_s, share(self.optimizer_s)),
            ("checkpoint", self.checkpoint_s, share(self.checkpoint_s)),
            (
                "retransmission",
                self.retransmission_s,
                share(self.retransmission_s),
            ),
            ("other", self.other_s, share(self.other_s)),
        ]
    }
}

/// Analytic lower bounds on the iteration time under three idealizations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WhatIf {
    /// All communication free: measured minus every comm-induced path
    /// category (exposed comm, retransmission, straggler wait).
    pub zero_comm_s: f64,
    /// Communication perfectly overlapped with compute: bounded below by
    /// both the zero-comm path and the busiest rank's serial work — comm
    /// can be hidden but neither compute nor the wire can be compressed.
    pub perfect_overlap_s: f64,
    /// No stragglers: measured minus straggler-induced wait.
    pub no_straggler_s: f64,
}

/// Derive the what-if bounds from an attribution plus the per-rank busy
/// times of the same analysis window.
pub fn what_if(attr: &Attribution, dag: &TraceDag, window: Window) -> WhatIf {
    let mut max_work = 0.0f64; // busiest rank: compute + opt + ckpt
    let mut max_comm = 0.0f64; // busiest rank: comm transfer time
    for r in &dag.ranks {
        let (mut work, mut comm) = (0.0, 0.0);
        for s in r.spans.iter().filter(|s| window.keeps(s)) {
            let secs = s.dur_ns as f64 / 1e9;
            match s.phase {
                Phase::Compute | Phase::Optimizer | Phase::Checkpoint => work += secs,
                Phase::Comm => comm += secs,
                _ => {}
            }
        }
        max_work = max_work.max(work);
        max_comm = max_comm.max(comm);
    }
    let comm_free =
        attr.measured_s - attr.exposed_comm_s - attr.retransmission_s - attr.straggler_wait_s;
    WhatIf {
        zero_comm_s: comm_free.max(max_work),
        perfect_overlap_s: comm_free.max(max_work).max(max_comm),
        no_straggler_s: attr.measured_s - attr.straggler_wait_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::{critical_path, Window};
    use crate::dag::{build_dag, ARank, ASpan, Phase};

    fn sp(name: &str, phase: Phase, start: u64, dur: u64) -> ASpan {
        ASpan {
            name: name.to_string(),
            phase,
            start_ns: start,
            dur_ns: dur,
            epoch: Some(0),
            iteration: Some(0),
            microbatch: Some(0),
            chunk: Some(0),
            bytes: None,
        }
    }

    #[test]
    fn categories_sum_to_measured_and_whatifs_order() {
        let r0 = ARank {
            rank: 0,
            key: (0, 0, 0),
            spans: vec![
                sp("forward", Phase::Compute, 0, 100),
                sp("p2p-send-fwd", Phase::Comm, 100, 10),
                sp("adam-step", Phase::Optimizer, 300, 20),
            ],
        };
        let r1 = ARank {
            rank: 1,
            key: (1, 0, 0),
            spans: vec![
                sp("pipeline-wait-fwd", Phase::Bubble, 0, 110),
                sp("forward", Phase::Compute, 110, 150),
                sp("adam-step", Phase::Optimizer, 260, 40),
            ],
        };
        let dag = build_dag(vec![r0, r1], 2);
        let w = Window::iteration(0);
        let path = critical_path(&dag, w).unwrap();
        let attr = Attribution::from_path(&path);
        assert!(attr.residual_s().abs() < 1e-12, "no unattributed residue");
        assert!(attr.compute_s > 0.0 && attr.optimizer_s > 0.0);
        let wi = what_if(&attr, &dag, w);
        assert!(wi.zero_comm_s <= attr.measured_s + 1e-12);
        assert!(wi.perfect_overlap_s >= wi.zero_comm_s - 1e-12);
        assert!(wi.no_straggler_s <= attr.measured_s + 1e-12);
    }
}
