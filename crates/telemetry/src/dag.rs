//! Cross-rank happens-before DAG built from trace spans.
//!
//! Input is the Chrome-trace JSON of
//! [`chrome_trace_json`](crate::chrome_trace_json) (`pid = 1 + rank`): the
//! real trainer's spans, or the simulator twin's (`simulate_traced` records
//! each pipeline device as rank `(dev, 0, 0)` with the trainer's span
//! names), so one analyzer reads both. Nodes are spans; edges are:
//!
//! * **program order**: spans on one rank happen in recorded order;
//! * **pipeline p2p**: a `p2p-send-{fwd,bwd}` span on stage `pi` matches
//!   the `pipeline-wait-{fwd,bwd}` span with the same (epoch, iteration,
//!   microbatch, chunk) on the stage neighbour with the same `(di, ti)` —
//!   the boundary/peer identification `StallContext` names at runtime;
//! * **collectives**: the k-th `grad-allreduce` / `grad-reduce-scatter` /
//!   `param-allgather` / `loss-allreduce` / `moment-allgather` span of an
//!   iteration is matched across the data-parallel group (ranks sharing
//!   `(pi, ti)`). The claim that the *last-arriving* member gates every
//!   member's completion is not assumed — it is derived from the round
//!   structure of the `megatron-collective` step [`Program`]:
//!   [`dependency_closure`] propagates contributor sets through each
//!   round's send/recv dataflow, and the ring programs the trainer runs
//!   yield the full closure (every rank's output depends on every rank's
//!   input).
//!
//! The joined DAG is what [`critical_path`](crate::critical_path) walks.

use std::collections::HashMap;

use megatron_collective::{Combine, Program};
use megatron_sim::json::Json;

use crate::export::rank_pid;
use crate::span::RankKey;

/// Analyzer phase taxonomy: the span categories plus `Other` for anything
/// a future exporter might add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward/backward compute (incl. nested tensor-parallel collectives).
    Compute,
    /// Explicit communication.
    Comm,
    /// Pipeline wait.
    Bubble,
    /// Optimizer step.
    Optimizer,
    /// Checkpoint save.
    Checkpoint,
    /// Unrecognized category.
    Other,
}

/// One span as the analyzer sees it: names are owned strings, timestamps
/// are hub-relative nanoseconds, and the matching keys (`iteration`,
/// `microbatch`, ...) are optional because a span kind carries only the
/// ones it needs.
#[derive(Debug, Clone)]
pub struct ASpan {
    /// Display name (`"forward"`, `"p2p-send-fwd"`, ...).
    pub name: String,
    /// Phase bucket, derived from the trace `cat`.
    pub phase: Phase,
    /// Start, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Supervisor epoch.
    pub epoch: Option<u64>,
    /// Training iteration.
    pub iteration: Option<u64>,
    /// Microbatch matching key.
    pub microbatch: Option<u64>,
    /// Virtual-pipeline chunk matching key.
    pub chunk: Option<u64>,
    /// Bytes moved (comm spans).
    pub bytes: Option<f64>,
}

impl ASpan {
    /// End timestamp, ns.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One rank's span timeline, sorted by start.
#[derive(Debug, Clone)]
pub struct ARank {
    /// Flat rank id.
    pub rank: usize,
    /// `(pi, di, ti)` coordinates.
    pub key: RankKey,
    /// Spans sorted by `start_ns`.
    pub spans: Vec<ASpan>,
}

/// Node address: `(rank index, span index)` into [`TraceDag::ranks`].
pub type Node = (usize, usize);

/// Why an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Pipeline point-to-point transfer feeding a stage neighbour.
    P2p,
}

/// A cross-rank happens-before edge: the target is the *wait* span whose
/// end the source's completion gates.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source node (the send/transfer span).
    pub from: Node,
    /// Edge type.
    pub kind: EdgeKind,
}

/// One matched collective instance: the same logical collective's span on
/// every participating rank.
#[derive(Debug, Clone)]
pub struct CollInstance {
    /// Member spans, one per participating rank.
    pub members: Vec<Node>,
    /// Whether the program's dependency closure is complete — every
    /// member's output depends on every member's input, so the last
    /// arrival gates all completions (true for the ring programs).
    pub full_closure: bool,
}

/// The joined cross-rank DAG.
#[derive(Debug)]
pub struct TraceDag {
    /// Per-rank timelines.
    pub ranks: Vec<ARank>,
    /// Pipeline stage count the trace was exported with.
    pub pipeline_stages: usize,
    /// Cross-rank edge gating each target node, if any.
    pub incoming: HashMap<Node, Edge>,
    /// Matched collective instances.
    pub collectives: Vec<CollInstance>,
    /// Collective instance index each member span belongs to.
    pub member_of: HashMap<Node, usize>,
}

/// Collective span names the trainer emits over the data-parallel group.
const COLLECTIVE_NAMES: [&str; 5] = [
    "grad-allreduce",
    "grad-reduce-scatter",
    "param-allgather",
    "loss-allreduce",
    "moment-allgather",
];

fn phase_of(cat: &str) -> Phase {
    match cat {
        "fwd" | "bwd" => Phase::Compute,
        "comm" => Phase::Comm,
        "bubble" => Phase::Bubble,
        "opt" => Phase::Optimizer,
        "ckpt" => Phase::Checkpoint,
        _ => Phase::Other,
    }
}

/// Parse a `"rankN (pX,dY,tZ)"` process-name metadata string.
fn parse_rank_key(name: &str) -> Option<RankKey> {
    let open = name.find('(')?;
    let close = name.find(')')?;
    let mut parts = name[open + 1..close].split(',');
    let mut next = |prefix: char| -> Option<usize> {
        let p = parts.next()?.trim();
        p.strip_prefix(prefix)?.parse().ok()
    };
    Some((next('p')?, next('d')?, next('t')?))
}

fn opt_u64(v: &Json) -> Option<u64> {
    v.as_f64().map(|x| x as u64)
}

/// Parse a Chrome-trace JSON string into per-rank timelines and build the
/// cross-rank DAG. `pipeline_stages` is the schedule's `p`, the value the
/// trace was exported with.
pub fn parse_chrome_trace(json: &str, pipeline_stages: usize) -> Result<TraceDag, String> {
    let v = Json::parse(json).map_err(|e| format!("trace does not parse as JSON: {e:?}"))?;
    let events = v.as_array().ok_or("Chrome trace must be a JSON array")?;
    let p = pipeline_stages.max(1);

    // pid -> (pi, di, ti) from process_name metadata.
    let mut keys: HashMap<usize, RankKey> = HashMap::new();
    for ev in events {
        if ev["ph"].as_str() == Some("M") && ev["name"].as_str() == Some("process_name") {
            if let (Some(pid), Some(pname)) = (ev["pid"].as_f64(), ev["args"]["name"].as_str()) {
                if let Some(key) = parse_rank_key(pname) {
                    keys.insert(pid as usize, key);
                }
            }
        }
    }

    let mut ranks: HashMap<usize, ARank> = HashMap::new();
    for ev in events {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let pid = ev["pid"].as_f64().ok_or("span without pid")? as usize;
        let name = ev["name"].as_str().unwrap_or("").to_string();
        let cat = ev["cat"].as_str().unwrap_or("");
        let start_ns = (ev["ts"].as_f64().unwrap_or(0.0) * 1e3).round() as u64;
        let dur_ns = (ev["dur"].as_f64().unwrap_or(0.0) * 1e3).round() as u64;
        let rank = pid
            .checked_sub(rank_pid(0))
            .ok_or_else(|| format!("span on pid {pid}, below the first rank's"))?;
        let key = *keys
            .get(&pid)
            .ok_or_else(|| format!("pid {pid} has spans but no process_name metadata"))?;
        let span = ASpan {
            phase: phase_of(cat),
            name,
            start_ns,
            dur_ns,
            epoch: opt_u64(&ev["args"]["epoch"]),
            iteration: opt_u64(&ev["args"]["iteration"]),
            microbatch: opt_u64(&ev["args"]["microbatch"]),
            chunk: opt_u64(&ev["args"]["chunk"]),
            bytes: ev["args"]["bytes"].as_f64(),
        };
        ranks
            .entry(rank)
            .or_insert_with(|| ARank {
                rank,
                key,
                spans: Vec::new(),
            })
            .spans
            .push(span);
    }
    let mut ranks: Vec<ARank> = ranks.into_values().collect();
    ranks.sort_by_key(|r| r.rank);
    for r in &mut ranks {
        r.spans.sort_by_key(|s| (s.start_ns, s.dur_ns));
    }
    Ok(build_dag(ranks, p))
}

/// Build the DAG from already-parsed timelines (the JSON-free entry point
/// tests and synthetic-trace proptests use).
pub fn build_dag(ranks: Vec<ARank>, pipeline_stages: usize) -> TraceDag {
    let mut dag = TraceDag {
        ranks,
        pipeline_stages,
        incoming: HashMap::new(),
        collectives: Vec::new(),
        member_of: HashMap::new(),
    };
    join_p2p(&mut dag);
    join_collectives(&mut dag);
    dag
}

/// `p2p-send-{fwd,bwd}` on `(pi, di, ti)` gates the matching
/// `pipeline-wait-{fwd,bwd}` on `(pi±1, di, ti)`.
fn join_p2p(dag: &mut TraceDag) {
    type WaitKey = (
        bool,
        Option<u64>,
        Option<u64>,
        Option<u64>,
        Option<u64>,
        RankKey,
    );
    let mut waits: HashMap<WaitKey, Node> = HashMap::new();
    for (ri, r) in dag.ranks.iter().enumerate() {
        for (si, s) in r.spans.iter().enumerate() {
            let fwd = match s.name.as_str() {
                "pipeline-wait-fwd" => true,
                "pipeline-wait-bwd" => false,
                _ => continue,
            };
            waits.insert(
                (fwd, s.epoch, s.iteration, s.microbatch, s.chunk, r.key),
                (ri, si),
            );
        }
    }
    for (ri, r) in dag.ranks.iter().enumerate() {
        let (pi, di, ti) = r.key;
        for (si, s) in r.spans.iter().enumerate() {
            let (fwd, peer) = match s.name.as_str() {
                "p2p-send-fwd" => (true, pi + 1),
                "p2p-send-bwd" if pi > 0 => (false, pi - 1),
                _ => continue,
            };
            let k = (
                fwd,
                s.epoch,
                s.iteration,
                s.microbatch,
                s.chunk,
                (peer, di, ti),
            );
            if let Some(&to) = waits.get(&k) {
                dag.incoming.insert(
                    to,
                    Edge {
                        from: (ri, si),
                        kind: EdgeKind::P2p,
                    },
                );
            }
        }
    }
}

/// Match data-parallel collective spans across the group (ranks sharing
/// `(pi, ti)`), k-th occurrence to k-th occurrence per iteration.
fn join_collectives(dag: &mut TraceDag) {
    // (name index, epoch, iteration, pi, ti) -> per-di occurrence lists.
    type BucketKey = (usize, Option<u64>, Option<u64>, usize, usize);
    type Bucket = HashMap<usize, Vec<Node>>;
    let mut buckets: HashMap<BucketKey, Bucket> = HashMap::new();
    for (ri, r) in dag.ranks.iter().enumerate() {
        let (pi, di, ti) = r.key;
        for (si, s) in r.spans.iter().enumerate() {
            let Some(ni) = COLLECTIVE_NAMES.iter().position(|n| *n == s.name) else {
                continue;
            };
            buckets
                .entry((ni, s.epoch, s.iteration, pi, ti))
                .or_default()
                .entry(di)
                .or_default()
                .push((ri, si));
        }
    }
    let mut keys: Vec<_> = buckets.keys().copied().collect();
    keys.sort();
    for bk in keys {
        let by_di = &buckets[&bk];
        if by_di.len() < 2 {
            continue; // group of one: nothing to synchronize with
        }
        let g = by_di.len();
        let full = ring_closure_is_full(COLLECTIVE_NAMES[bk.0], g);
        let depth = by_di.values().map(Vec::len).min().unwrap_or(0);
        let mut dis: Vec<_> = by_di.keys().copied().collect();
        dis.sort();
        #[allow(clippy::needless_range_loop)] // k indexes every di's occurrence list
        for k in 0..depth {
            let members: Vec<Node> = dis.iter().map(|di| by_di[di][k]).collect();
            let idx = dag.collectives.len();
            for &m in &members {
                dag.member_of.insert(m, idx);
            }
            dag.collectives.push(CollInstance {
                members,
                full_closure: full,
            });
        }
    }
}

/// `closure[j][i]` = rank `j`'s final buffer depends on rank `i`'s initial
/// buffer, computed by propagating per-element contributor sets through
/// the program's rounds (sends read end-of-previous-round state, exactly
/// the executor's semantics; `Replace` substitutes the sender's
/// contributors, `Reduce` unions them).
pub fn dependency_closure(prog: &Program) -> Vec<Vec<bool>> {
    let r = prog.ranks;
    let n = prog.len;
    let mut contrib = vec![vec![vec![false; r]; n]; r];
    for (j, rank) in contrib.iter_mut().enumerate() {
        for elem in rank.iter_mut() {
            elem[j] = true;
        }
    }
    for round in &prog.rounds {
        let snapshot = contrib.clone();
        for (j, step) in round.steps.iter().enumerate() {
            let Some(rcv) = step.recv else { continue };
            for e in rcv.range.lo..rcv.range.hi.min(n) {
                match rcv.combine {
                    Combine::Replace => contrib[j][e].clone_from(&snapshot[rcv.from][e]),
                    Combine::Reduce(_) => {
                        for c in 0..r {
                            contrib[j][e][c] |= snapshot[rcv.from][e][c];
                        }
                    }
                }
            }
        }
    }
    contrib
        .iter()
        .map(|rank| (0..r).map(|i| rank.iter().any(|elem| elem[i])).collect())
        .collect()
}

/// Whether the named trainer collective has the full dependency closure at
/// group size `g` — derived from the actual step program, not assumed.
fn ring_closure_is_full(name: &str, g: usize) -> bool {
    use megatron_collective as coll;
    let prog = match name {
        "grad-allreduce" | "loss-allreduce" => coll::ring_all_reduce(g, g, coll::ReduceOp::Sum),
        "grad-reduce-scatter" => coll::ring_reduce_scatter(g, g, coll::ReduceOp::Sum),
        "param-allgather" | "moment-allgather" => coll::ring_all_gather(g, g),
        _ => return false,
    };
    dependency_closure(&prog)
        .iter()
        .all(|row| row.iter().all(|&d| d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use megatron_collective as coll;

    #[test]
    fn ring_programs_have_full_closure() {
        for g in 2..=5 {
            let ar = coll::ring_all_reduce(g, g, coll::ReduceOp::Sum);
            assert!(
                dependency_closure(&ar).iter().all(|r| r.iter().all(|&d| d)),
                "all-reduce g={g} not fully connected"
            );
            let rs = coll::ring_reduce_scatter(g, g, coll::ReduceOp::Sum);
            let rs_deps = dependency_closure(&rs);
            // Each rank's owned chunk is fully reduced: depends on everyone.
            assert!(rs_deps.iter().all(|r| r.iter().all(|&d| d)));
            let ag = coll::ring_all_gather(g, g);
            assert!(dependency_closure(&ag).iter().all(|r| r.iter().all(|&d| d)));
        }
    }

    #[test]
    fn broadcast_closure_is_root_only() {
        let g = 4;
        let root = 2;
        let bc = coll::ring_broadcast(g, g, root);
        let deps = dependency_closure(&bc);
        for (j, row) in deps.iter().enumerate() {
            for (i, &d) in row.iter().enumerate() {
                let want = i == root || (i == j && j == root);
                // A non-root rank may keep untouched initial elements only
                // if the broadcast leaves part of its buffer alone — ring
                // broadcast overwrites everything, so: root always, self
                // only at the root.
                assert_eq!(
                    d, want,
                    "rank {j} dep on {i}: got {d}, want {want} (root {root})"
                );
            }
        }
    }

    #[test]
    fn parse_rank_key_roundtrip() {
        assert_eq!(parse_rank_key("rank5 (p1,d0,t1)"), Some((1, 0, 1)));
        assert_eq!(parse_rank_key("no coords"), None);
    }
}
