//! Per-iteration critical path through the cross-rank DAG.
//!
//! The walk starts at the globally last span end of the analysis window
//! and moves backwards in wall-clock time, always standing on exactly one
//! rank: processing a span attributes its on-path interval to a category,
//! and reaching a synchronization point *hops* to the rank that caused the
//! wait — a pipeline wait hops to the sender at the transfer's completion,
//! a collective hops to the last-arriving member of the instance (its
//! gating role justified by the program's dependency closure, see
//! [`dependency_closure`](crate::dag::dependency_closure)). Because every
//! step attributes the contiguous interval it walked over and hops never
//! skip time, the produced segments *tile* the window exactly: categories
//! sum to the measured iteration time with zero residue by construction.

use crate::dag::{Phase, TraceDag};

/// Where one on-path interval of wall-clock time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathCat {
    /// Forward/backward compute on the critical path.
    Compute,
    /// Communication the path could not avoid waiting on (transfer time).
    ExposedComm,
    /// Pipeline bubble: waiting for an upstream/downstream stage.
    Bubble,
    /// Waiting inside a collective for its last-arriving member beyond the
    /// straggler-free transfer time.
    StragglerWait,
    /// Optimizer step.
    Optimizer,
    /// Checkpoint save.
    Checkpoint,
    /// Untraced overhead (scheduling, dataloader, gaps between spans).
    Other,
}

impl PathCat {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PathCat::Compute => "compute",
            PathCat::ExposedComm => "exposed-comm",
            PathCat::Bubble => "pipeline-bubble",
            PathCat::StragglerWait => "straggler-wait",
            PathCat::Optimizer => "optimizer",
            PathCat::Checkpoint => "checkpoint",
            PathCat::Other => "other",
        }
    }

    /// Every category, in report order.
    pub const ALL: [PathCat; 7] = [
        PathCat::Compute,
        PathCat::ExposedComm,
        PathCat::Bubble,
        PathCat::StragglerWait,
        PathCat::Optimizer,
        PathCat::Checkpoint,
        PathCat::Other,
    ];
}

/// One contiguous on-path interval on one rank.
#[derive(Debug, Clone, Copy)]
pub struct PathSegment {
    /// Rank index into [`TraceDag::ranks`] the path stood on.
    pub rank: usize,
    /// Interval start, ns.
    pub start_ns: u64,
    /// Interval end, ns (exclusive; `end > start` for every segment).
    pub end_ns: u64,
    /// Attribution category.
    pub cat: PathCat,
}

/// The critical path of one analysis window.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Segments in forward time order; they tile `[window_start,
    /// window_end]` exactly (contiguous, non-overlapping, no gaps).
    pub segments: Vec<PathSegment>,
    /// Window start: earliest span start considered, ns.
    pub window_start_ns: u64,
    /// Window end: latest span end considered, ns.
    pub window_end_ns: u64,
    /// True if the walk hit its step budget (malformed trace) and closed
    /// the remaining window as one `Other` segment.
    pub truncated: bool,
}

impl CriticalPath {
    /// Window length, ns — the measured iteration time the categories sum to.
    pub fn length_ns(&self) -> u64 {
        self.window_end_ns - self.window_start_ns
    }

    /// Total nanoseconds attributed to `cat`.
    pub fn total_ns(&self, cat: PathCat) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

/// Span filter for one analysis window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Keep only spans with this supervisor epoch (None = any).
    pub epoch: Option<u64>,
    /// Keep only spans with this iteration (None = any).
    pub iteration: Option<u64>,
}

impl Window {
    /// One real-trace iteration of a clean (epoch 0) run.
    pub fn iteration(it: u64) -> Window {
        Window {
            epoch: Some(0),
            iteration: Some(it),
        }
    }

    /// Whether a span belongs to this window.
    pub fn keeps(&self, s: &crate::dag::ASpan) -> bool {
        if let Some(e) = self.epoch {
            if s.epoch != Some(e) {
                return false;
            }
        }
        if let Some(it) = self.iteration {
            if s.iteration != Some(it) {
                return false;
            }
        }
        true
    }
}

struct Walker<'a> {
    dag: &'a TraceDag,
    /// Per rank: kept span indices sorted by start.
    kept: Vec<Vec<usize>>,
    /// Per rank: prefix max of span end over `kept` (handles nesting).
    frontier: Vec<Vec<u64>>,
    t0: u64,
    segs: Vec<PathSegment>,
}

impl<'a> Walker<'a> {
    fn span(&self, node: (usize, usize)) -> &'a crate::dag::ASpan {
        &self.dag.ranks[node.0].spans[node.1]
    }

    fn push(&mut self, rank: usize, start: u64, end: u64, cat: PathCat) {
        let start = start.max(self.t0);
        if end > start {
            self.segs.push(PathSegment {
                rank,
                start_ns: start,
                end_ns: end,
                cat,
            });
        }
    }

    /// Index into `kept[rank]` of the last kept span with `start < t`,
    /// plus whether some such span's end reaches `t` (i.e. `t` is inside
    /// recorded activity, not a gap).
    fn locate(&self, rank: usize, t: u64) -> Option<(usize, u64)> {
        let starts = &self.kept[rank];
        let spans = &self.dag.ranks[rank].spans;
        let n = starts.partition_point(|&si| spans[si].start_ns < t);
        if n == 0 {
            return None;
        }
        Some((n - 1, self.frontier[rank][n - 1]))
    }
}

/// Compute the critical path of the spans selected by `window`. Returns
/// `None` when the window matches no spans.
pub fn critical_path(dag: &TraceDag, window: Window) -> Option<CriticalPath> {
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(dag.ranks.len());
    let mut frontier: Vec<Vec<u64>> = Vec::with_capacity(dag.ranks.len());
    let (mut t0, mut t1) = (u64::MAX, 0u64);
    let (mut start_rank, mut total) = (0usize, 0usize);
    for (ri, r) in dag.ranks.iter().enumerate() {
        let idx: Vec<usize> = (0..r.spans.len())
            .filter(|&si| window.keeps(&r.spans[si]))
            .collect();
        let mut fmax = Vec::with_capacity(idx.len());
        let mut run = 0u64;
        for &si in &idx {
            let s = &r.spans[si];
            t0 = t0.min(s.start_ns);
            if s.end_ns() > t1 {
                t1 = s.end_ns();
                start_rank = ri;
            }
            run = run.max(s.end_ns());
            fmax.push(run);
        }
        total += idx.len();
        kept.push(idx);
        frontier.push(fmax);
    }
    if total == 0 {
        return None;
    }

    let mut w = Walker {
        dag,
        kept,
        frontier,
        t0,
        segs: Vec::new(),
    };
    let budget = total * 4 + 64;
    let mut steps = 0usize;
    let mut truncated = false;
    let mut rank = start_rank;
    let mut t = t1;

    while t > t0 {
        steps += 1;
        if steps > budget {
            truncated = true;
            w.push(rank, t0, t, PathCat::Other);
            break;
        }
        let Some((ki, reach)) = w.locate(rank, t) else {
            // Nothing recorded on this rank before t: leading idle region.
            w.push(rank, t0, t, PathCat::Other);
            break;
        };
        if reach < t {
            // Gap [reach, t]: untraced time on this rank.
            let gap_lo = reach.max(t0);
            w.push(rank, gap_lo, t, PathCat::Other);
            t = gap_lo;
            continue;
        }
        // Inside recorded activity: the span with the greatest start whose
        // end reaches t (scan back from the latest-starting candidate to
        // step over nested/overlapping earlier spans).
        let spans = &dag.ranks[rank].spans;
        let mut pick = w.kept[rank][ki];
        if spans[pick].end_ns() < t {
            for &si in w.kept[rank][..ki].iter().rev() {
                if spans[si].end_ns() >= t {
                    pick = si;
                    break;
                }
            }
        }
        let s = &spans[pick];
        let node = (rank, pick);
        let lo_base = s.start_ns.max(t0);
        if let Some(&ci) = dag.member_of.get(&node) {
            // Collective: the last-arriving member gates every member's
            // completion (full dependency closure). The tail of the
            // on-path interval is the straggler-free transfer (the fastest
            // member's duration); anything before it since the last
            // arrival is straggler-induced wait.
            let inst = &dag.collectives[ci];
            if inst.full_closure {
                let gate = inst
                    .members
                    .iter()
                    .copied()
                    .max_by_key(|&m| w.span(m).start_ns)
                    .expect("collective instance has members");
                let min_dur = inst
                    .members
                    .iter()
                    .map(|&m| w.span(m).dur_ns)
                    .min()
                    .unwrap_or(0);
                let gstart = w.span(gate).start_ns;
                let lo = gstart.clamp(lo_base, t);
                let comm = (t - lo).min(min_dur.max(1));
                w.push(rank, t - comm, t, PathCat::ExposedComm);
                w.push(rank, lo, t - comm, PathCat::StragglerWait);
                if gstart > lo_base && gate.0 != rank {
                    rank = gate.0;
                }
                t = lo;
                continue;
            }
        }
        match s.phase {
            Phase::Bubble => match dag.incoming.get(&node).copied() {
                Some(e) => {
                    // Wait for a pipeline transfer: bubble from the
                    // transfer's completion to the wait's end, then hop to
                    // the sender at that completion.
                    let se = w.span(e.from).end_ns();
                    let lo = se.clamp(lo_base, t);
                    w.push(rank, lo, t, PathCat::Bubble);
                    if se > lo_base {
                        rank = e.from.0;
                    }
                    t = lo;
                }
                None => {
                    w.push(rank, lo_base, t, PathCat::Bubble);
                    t = lo_base;
                }
            },
            Phase::Comm => {
                w.push(rank, lo_base, t, PathCat::ExposedComm);
                t = lo_base;
            }
            phase => {
                let cat = match phase {
                    Phase::Compute => PathCat::Compute,
                    Phase::Optimizer => PathCat::Optimizer,
                    Phase::Checkpoint => PathCat::Checkpoint,
                    _ => PathCat::Other,
                };
                w.push(rank, lo_base, t, cat);
                t = lo_base;
            }
        }
    }

    let mut segments = w.segs;
    segments.reverse();
    // Tiling invariant: contiguous, in order, covering the whole window.
    debug_assert!(segments.windows(2).all(|p| p[0].end_ns == p[1].start_ns));
    debug_assert_eq!(
        segments.iter().map(|s| s.end_ns - s.start_ns).sum::<u64>(),
        t1 - t0
    );
    Some(CriticalPath {
        segments,
        window_start_ns: t0,
        window_end_ns: t1,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Two-stage pipeline: stage 0 computes [0,100], sends [100,110];
    /// stage 1 waits [0,110], computes [110,210]. Path: stage-1 compute
    /// (100) + send (10) [+ bubble 0] + stage-0 compute (100) = 210.
    #[test]
    fn two_stage_pipeline_path_tiles_exactly() {
        let r0 = ARank {
            rank: 0,
            key: (0, 0, 0),
            spans: vec![
                sp("forward", Phase::Compute, 0, 100),
                sp("p2p-send-fwd", Phase::Comm, 100, 10),
            ],
        };
        let r1 = ARank {
            rank: 1,
            key: (1, 0, 0),
            spans: vec![
                sp("pipeline-wait-fwd", Phase::Bubble, 0, 110),
                sp("forward", Phase::Compute, 110, 100),
            ],
        };
        let dag = build_dag(vec![r0, r1], 2);
        assert_eq!(dag.incoming.len(), 1, "send matched to wait");
        let path = critical_path(&dag, Window::iteration(0)).unwrap();
        assert_eq!(path.length_ns(), 210);
        let total: u64 = path.segments.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(total, 210, "segments tile the window");
        assert_eq!(path.total_ns(PathCat::Compute), 200);
        assert_eq!(path.total_ns(PathCat::ExposedComm), 10);
        assert_eq!(path.total_ns(PathCat::Bubble), 0, "wait fully explained");
        assert!(!path.truncated);
    }

    /// Same, but the sender idles 50 ns before sending: the receiver's
    /// wait tail is bubble on the path only up to the transfer completion;
    /// the hop lands on the sender whose gap becomes Other.
    #[test]
    fn late_send_attributes_sender_side_time() {
        let r0 = ARank {
            rank: 0,
            key: (0, 0, 0),
            spans: vec![
                sp("forward", Phase::Compute, 0, 100),
                sp("p2p-send-fwd", Phase::Comm, 150, 10),
            ],
        };
        let r1 = ARank {
            rank: 1,
            key: (1, 0, 0),
            spans: vec![
                sp("pipeline-wait-fwd", Phase::Bubble, 0, 160),
                sp("forward", Phase::Compute, 160, 100),
            ],
        };
        let dag = build_dag(vec![r0, r1], 2);
        let path = critical_path(&dag, Window::iteration(0)).unwrap();
        assert_eq!(path.length_ns(), 260);
        assert_eq!(path.total_ns(PathCat::Compute), 200);
        assert_eq!(path.total_ns(PathCat::ExposedComm), 10);
        // The sender's 50 ns idle [100,150] lands as Other via the hop.
        assert_eq!(path.total_ns(PathCat::Other), 50);
        let total: u64 = path.segments.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(total, 260);
    }

    /// A 2-member grad-allreduce where rank 1 arrives 40 ns late: the path
    /// charges the transfer (min duration) as exposed comm and hops to the
    /// straggler, attributing its extra compute on-path.
    #[test]
    fn collective_hops_to_last_arrival() {
        let r0 = ARank {
            rank: 0,
            key: (0, 0, 0),
            spans: vec![
                sp("backward", Phase::Compute, 0, 60),
                sp("grad-allreduce", Phase::Comm, 60, 60), // waits + transfer
            ],
        };
        let r1 = ARank {
            rank: 1,
            key: (0, 1, 0),
            spans: vec![
                sp("backward", Phase::Compute, 0, 100),
                sp("grad-allreduce", Phase::Comm, 100, 20), // pure transfer
            ],
        };
        let dag = build_dag(vec![r0, r1], 1);
        assert_eq!(dag.collectives.len(), 1);
        assert!(dag.collectives[0].full_closure);
        let path = critical_path(&dag, Window::iteration(0)).unwrap();
        assert_eq!(path.length_ns(), 120);
        // Path: rank0 ar [100,120] → exposed 20 (min dur), hop to rank 1 at
        // 100 → its backward [0,100] compute.
        assert_eq!(path.total_ns(PathCat::ExposedComm), 20);
        assert_eq!(path.total_ns(PathCat::Compute), 100);
        assert_eq!(path.total_ns(PathCat::StragglerWait), 0);
        let total: u64 = path.segments.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(total, 120);
    }
}
