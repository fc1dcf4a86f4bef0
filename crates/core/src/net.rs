//! Network topology and collective communication over simulated links.
//!
//! Selene's fat tree is full-bisection, so inter-node contention arises at
//! the endpoints: each GPU owns one NVLink egress port (intra-node traffic)
//! and one InfiniBand HCA share (inter-node traffic; a DGX A100 has 8 GPUs
//! and 8 HCAs, so GPU *i* of a node injects through HCA *i*). [`Network`]
//! registers those ports as simulation resources and provides:
//!
//! - point-to-point sends ([`Network::send`]) routed over the right link
//!   class, including the paper's §4.1 scatter/gather-optimized pipeline
//!   boundary transfer ([`Network::pipeline_p2p`]);
//! - collective algorithms lowered *step by step* from the shared
//!   `megatron-collective` programs onto the simulated links
//!   ([`Network::lower_program`]: ring all-reduce, all-gather,
//!   reduce-scatter, broadcast, hierarchical all-reduce), so communication
//!   volumes such as the `(t−1)/t` ring factor emerge from the same step
//!   sequence the real runtime executes rather than being asserted — each
//!   GPU's exact egress is [`Network::sent_bytes`];
//! - closed-form cost models ([`analytical`]) for the same collectives' times,
//!   used where full event-level simulation would be wastefully fine-grained
//!   and validated against the simulated versions in tests. Their byte
//!   volumes are [`parallel::analysis`](crate::parallel::analysis)'s.

use std::cell::Cell;

use crate::cluster::{ClusterSpec, LinkClass};
use megatron_collective::{self as coll, Program, ReduceOp};
use megatron_sim::{secs_to_time, DagSim, ResourceId, TaskId};

/// Per-GPU network ports registered as simulation resources.
///
/// One NVLink egress port and one InfiniBand HCA share per GPU. A transfer
/// occupies the *sender's* port for its full duration; receivers in our
/// traffic patterns (pipelines, rings) receive from one peer at a time, so
/// sender-side serialization captures the contention that matters.
pub struct Network {
    cluster: ClusterSpec,
    nv_egress: Vec<ResourceId>,
    ib_egress: Vec<ResourceId>,
    // Exact egress bytes per GPU across every send lowered through this
    // network — the simulator-side half of the real-vs-sim byte identity.
    egress_bytes: Vec<Cell<u64>>,
}

impl Network {
    /// Register one NVLink and one IB egress resource per GPU of `cluster`.
    pub fn new(sim: &mut DagSim, cluster: ClusterSpec) -> Self {
        let n = cluster.total_gpus();
        let mut nv_egress = Vec::with_capacity(n);
        let mut ib_egress = Vec::with_capacity(n);
        for g in 0..n {
            nv_egress.push(sim.add_resource(format!("gpu{g}.nvlink")));
            ib_egress.push(sim.add_resource(format!("gpu{g}.ib")));
        }
        Network {
            cluster,
            nv_egress,
            ib_egress,
            egress_bytes: (0..n).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Total bytes GPU `gpu` has sent through this network so far (every
    /// point-to-point transfer plus every collective step it sourced).
    pub fn sent_bytes(&self, gpu: usize) -> u64 {
        self.egress_bytes[gpu].get()
    }

    /// Egress resource a `from → to` transfer occupies.
    fn egress_for(&self, from: usize, to: usize) -> Option<ResourceId> {
        match self.cluster.link_class(from, to) {
            LinkClass::Local => None,
            LinkClass::NvLink => Some(self.nv_egress[from]),
            LinkClass::InfiniBand => Some(self.ib_egress[from]),
        }
    }

    /// Append a point-to-point transfer of `bytes` from GPU `from` to GPU
    /// `to`, gated on `deps`. Returns the completion task (data available at
    /// the receiver). A local transfer (`from == to`) is a zero-duration
    /// task on the sender's NVLink port (kept so callers always get a task
    /// to depend on).
    pub fn send(
        &self,
        sim: &mut DagSim,
        from: usize,
        to: usize,
        bytes: u64,
        deps: &[TaskId],
        kind: u32,
    ) -> TaskId {
        let class = self.cluster.link_class(from, to);
        let secs = self.cluster.p2p_time(class, bytes as f64);
        let resource = self.egress_for(from, to).unwrap_or(self.nv_egress[from]);
        self.egress_bytes[from].set(self.egress_bytes[from].get() + bytes);
        sim.add_task(resource, secs_to_time(secs), deps, kind)
    }

    /// Lower a `megatron-collective` step [`Program`] onto the simulated
    /// links. `gpus[j]` is the GPU playing program rank `j` (the program is
    /// expressed in bytes: one program element = one wire byte).
    ///
    /// Dependency structure per send: a rank's send in round `s` waits on
    /// its own previous send (egress port order) and on the send that
    /// delivered its most recent receive (it cannot forward data that has
    /// not arrived). First sends gate on the caller's per-rank `deps` for
    /// both the sender and its round-0 source. Returns one completion task
    /// per rank: the arrival of its final incoming chunk.
    pub fn lower_program(
        &self,
        sim: &mut DagSim,
        prog: &Program,
        gpus: &[usize],
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let r = prog.ranks;
        assert_eq!(gpus.len(), r, "one GPU per program rank");
        assert!(deps.is_empty() || deps.len() == r, "deps must be per-rank");
        let mut last_send: Vec<Option<TaskId>> = vec![None; r];
        let mut last_arrival: Vec<Option<TaskId>> = vec![None; r];
        for round in &prog.rounds {
            let mut new_sends: Vec<Option<TaskId>> = vec![None; r];
            for (j, step) in round.steps.iter().enumerate() {
                let Some(snd) = step.send else { continue };
                let mut step_deps: Vec<TaskId> = Vec::with_capacity(3);
                if let Some(t) = last_arrival[j] {
                    step_deps.push(t);
                }
                if let Some(t) = last_send[j] {
                    step_deps.push(t);
                }
                if last_send[j].is_none() && last_arrival[j].is_none() && !deps.is_empty() {
                    step_deps.push(deps[j]);
                    if let Some(rcv) = step.recv {
                        step_deps.push(deps[rcv.from]);
                    }
                }
                new_sends[j] = Some(self.send(
                    sim,
                    gpus[j],
                    gpus[snd.to],
                    snd.range.len() as u64,
                    &step_deps,
                    kind,
                ));
            }
            for (j, t) in new_sends.iter().enumerate() {
                if t.is_some() {
                    last_send[j] = *t;
                }
            }
            for (j, step) in round.steps.iter().enumerate() {
                if let Some(rcv) = step.recv {
                    if let Some(t) = new_sends[rcv.from] {
                        last_arrival[j] = Some(t);
                    }
                }
            }
        }
        (0..r)
            .map(|j| {
                last_arrival[j].or(last_send[j]).unwrap_or_else(|| {
                    // Degenerate (single-rank / zero-round) program: a
                    // zero-length task so callers can depend on it.
                    let d: Vec<TaskId> = if deps.is_empty() {
                        vec![]
                    } else {
                        vec![deps[j]]
                    };
                    sim.add_task(self.nv_egress[gpus[j]], 0, &d, kind)
                })
            })
            .collect()
    }

    /// Ring all-reduce of `bytes` across `ranks` (reduce-scatter phase then
    /// all-gather phase, `2(r−1)` steps of `bytes/r` chunks; two ranks
    /// make one step, each sending the whole buffer).
    ///
    /// `deps[i]` (if provided, one entry per rank) gates rank *i*'s
    /// participation. Returns one completion task per rank.
    pub fn ring_all_reduce(
        &self,
        sim: &mut DagSim,
        ranks: &[usize],
        bytes: u64,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let prog = coll::ring_all_reduce(ranks.len(), bytes as usize, ReduceOp::Sum);
        self.lower_program(sim, &prog, ranks, deps, kind)
    }

    /// Ring all-gather: each rank contributes `bytes_per_rank`; after
    /// `r−1` forwarding steps every rank holds all `r·bytes_per_rank`.
    /// Returns one completion task per rank.
    pub fn ring_all_gather(
        &self,
        sim: &mut DagSim,
        ranks: &[usize],
        bytes_per_rank: u64,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let prog = coll::ring_all_gather(ranks.len(), ranks.len() * bytes_per_rank as usize);
        self.lower_program(sim, &prog, ranks, deps, kind)
    }

    /// Ring reduce-scatter of `bytes` across `ranks`: `r−1` steps of
    /// `bytes/r` chunks; each rank ends with one fully reduced shard.
    pub fn ring_reduce_scatter(
        &self,
        sim: &mut DagSim,
        ranks: &[usize],
        bytes: u64,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let prog = coll::ring_reduce_scatter(ranks.len(), bytes as usize, ReduceOp::Sum);
        self.lower_program(sim, &prog, ranks, deps, kind)
    }

    /// Pipelined ring broadcast of `bytes` from `ranks[root]` to the whole
    /// group. Returns one completion task per rank.
    pub fn ring_broadcast(
        &self,
        sim: &mut DagSim,
        ranks: &[usize],
        bytes: u64,
        root: usize,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let prog = coll::ring_broadcast(ranks.len(), bytes as usize, root);
        self.lower_program(sim, &prog, ranks, deps, kind)
    }

    /// Hierarchical (multi-rail) all-reduce of `bytes` across `ranks`,
    /// which must comprise whole nodes with equal local counts:
    /// intra-node reduce-scatter over NVLink, one inter-node ring
    /// all-reduce per local rank (each riding its own InfiniBand HCA in
    /// parallel), then intra-node all-gather. This is how data-parallel
    /// gradient reductions exploit all 8 HCAs of a DGX A100 (§5.9's
    /// 12.9 TB/s effective bandwidth).
    ///
    /// Returns one completion task per rank.
    pub fn hierarchical_all_reduce(
        &self,
        sim: &mut DagSim,
        ranks: &[usize],
        bytes: u64,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        // Group by node, preserving order; the shared program's rank space
        // is [node 0's ranks..., node 1's ranks, ...] which is exactly the
        // order `ranks` arrives in when nodes are contiguous.
        let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, &r) in ranks.iter().enumerate() {
            let n = self.cluster.node_of(r);
            match nodes.last_mut() {
                Some((node, members)) if *node == n => members.push(i),
                _ => nodes.push((n, vec![i])),
            }
        }
        let local = nodes[0].1.len();
        assert!(
            nodes.iter().all(|(_, m)| m.len() == local),
            "hierarchical all-reduce needs equal ranks per node"
        );
        let gpus: Vec<usize> = nodes
            .iter()
            .flat_map(|(_, m)| m.iter().map(|&i| ranks[i]))
            .collect();
        let gdeps: Vec<TaskId> = if deps.is_empty() {
            vec![]
        } else {
            nodes
                .iter()
                .flat_map(|(_, m)| m.iter().map(|&i| deps[i]))
                .collect()
        };
        let prog = coll::hierarchical_all_reduce(ranks.len(), bytes as usize, local, ReduceOp::Sum);
        let fin = self.lower_program(sim, &prog, &gpus, &gdeps, kind);
        // Map completions back to the caller's rank order.
        let mut out: Vec<Option<TaskId>> = vec![None; ranks.len()];
        for ((_, m), chunk) in nodes.iter().zip(fin.chunks(local)) {
            for (&i, &t) in m.iter().zip(chunk) {
                out[i] = Some(t);
            }
        }
        out.into_iter().map(|t| t.unwrap()).collect()
    }

    /// Pipeline-boundary transfer between two tensor-parallel groups on
    /// consecutive stages (§4.1). `senders` and `receivers` are the `t`
    /// tensor-parallel ranks of the upstream and downstream stage;
    /// `total_bytes` is the full activation tensor (`b·s·h` elements).
    ///
    /// Without the scatter/gather optimization each sender redundantly sends
    /// the whole tensor to its counterpart. With it, each sender sends a
    /// `1/t` chunk over its own link and the receivers re-materialize the
    /// tensor with an NVLink all-gather.
    ///
    /// `deps[i]` gates sender *i*. Returns one completion task per receiver.
    #[allow(clippy::too_many_arguments)]
    pub fn pipeline_p2p(
        &self,
        sim: &mut DagSim,
        senders: &[usize],
        receivers: &[usize],
        total_bytes: u64,
        scatter_gather: bool,
        deps: &[TaskId],
        kind: u32,
    ) -> Vec<TaskId> {
        let t = senders.len();
        assert_eq!(t, receivers.len(), "stage groups must have equal size");
        assert!(
            deps.is_empty() || deps.len() == t,
            "deps must be per-sender"
        );
        let dep_of = |i: usize| -> Vec<TaskId> {
            if deps.is_empty() {
                vec![]
            } else {
                vec![deps[i]]
            }
        };
        if !scatter_gather || t == 1 {
            return (0..t)
                .map(|i| self.send(sim, senders[i], receivers[i], total_bytes, &dep_of(i), kind))
                .collect();
        }
        let chunk = total_bytes.div_ceil(t as u64);
        let arrivals: Vec<TaskId> = (0..t)
            .map(|i| self.send(sim, senders[i], receivers[i], chunk, &dep_of(i), kind))
            .collect();
        // Re-materialize over NVLink: all-gather of the chunks among the
        // receivers (guaranteed intra-node when t ≤ GPUs per node).
        self.ring_all_gather(sim, receivers, chunk, &arrivals, kind)
    }
}

/// Closed-form collective cost models, validated against the simulated
/// algorithms (see this module's tests). Used by higher layers where event-level
/// simulation of every all-reduce chunk would be needlessly fine-grained
/// (e.g. tensor-parallel all-reduces inside an aggregated stage time).
pub mod analytical {
    use crate::cluster::{ClusterSpec, LinkClass};

    /// Slowest link class on the ring through `ranks` (in given order).
    fn bottleneck(cluster: &ClusterSpec, ranks: &[usize]) -> LinkClass {
        let r = ranks.len();
        let mut worst = LinkClass::Local;
        for j in 0..r {
            let c = cluster.link_class(ranks[j], ranks[(j + 1) % r]);
            worst = match (worst, c) {
                (_, LinkClass::InfiniBand) | (LinkClass::InfiniBand, _) => LinkClass::InfiniBand,
                (_, LinkClass::NvLink) | (LinkClass::NvLink, _) => LinkClass::NvLink,
                _ => LinkClass::Local,
            };
        }
        worst
    }

    /// Time for a ring all-reduce of `bytes` across `ranks`:
    /// `2(r−1) · (λ + bytes / (r · β))` with β the bottleneck-hop bandwidth.
    /// Two ranks exchange their buffers in one step, `λ + bytes / β`: the
    /// same bytes, one latency instead of two.
    pub fn ring_all_reduce_time(cluster: &ClusterSpec, ranks: &[usize], bytes: f64) -> f64 {
        let r = ranks.len();
        if r <= 1 {
            return 0.0;
        }
        let class = bottleneck(cluster, ranks);
        if r == 2 {
            return cluster.latency(class) + bytes / cluster.bandwidth(class);
        }
        let steps = 2.0 * (r as f64 - 1.0);
        steps * (cluster.latency(class) + bytes / (r as f64 * cluster.bandwidth(class)))
    }

    /// Time for a ring all-gather where each rank contributes
    /// `bytes_per_rank`: `(r−1) · (λ + bytes_per_rank / β)`.
    pub fn ring_all_gather_time(
        cluster: &ClusterSpec,
        ranks: &[usize],
        bytes_per_rank: f64,
    ) -> f64 {
        let r = ranks.len();
        if r <= 1 {
            return 0.0;
        }
        let class = bottleneck(cluster, ranks);
        (r as f64 - 1.0) * (cluster.latency(class) + bytes_per_rank / cluster.bandwidth(class))
    }

    /// Time for a ring reduce-scatter of `bytes`:
    /// `(r−1) · (λ + bytes / (r · β))`.
    pub fn ring_reduce_scatter_time(cluster: &ClusterSpec, ranks: &[usize], bytes: f64) -> f64 {
        let r = ranks.len();
        if r <= 1 {
            return 0.0;
        }
        let class = bottleneck(cluster, ranks);
        (r as f64 - 1.0) * (cluster.latency(class) + bytes / (r as f64 * cluster.bandwidth(class)))
    }

    /// Time for a hierarchical all-reduce across `k` full nodes of `g`
    /// GPUs each: reduce-scatter + all-gather over NVLink plus a per-rail
    /// inter-node ring of the `1/g` shard (all rails concurrent).
    pub fn hierarchical_all_reduce_time(
        cluster: &ClusterSpec,
        nodes: usize,
        per_node: usize,
        bytes: f64,
    ) -> f64 {
        if nodes <= 1 || per_node <= 1 {
            let ranks: Vec<usize> = (0..nodes * per_node.max(1)).collect();
            return ring_all_reduce_time(cluster, &ranks, bytes);
        }
        let g = per_node as f64;
        let nv_lat = cluster.node.nvlink_latency;
        let nv_bw = cluster.node.nvlink_bandwidth;
        let shard = bytes / g;
        let rs = (g - 1.0) * (nv_lat + bytes / (g * nv_bw));
        let ag = rs;
        let rail: Vec<usize> = (0..nodes).map(|n| n * cluster.node.gpus_per_node).collect();
        let inter = ring_all_reduce_time(cluster, &rail, shard);
        rs + inter + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::analysis::ring_all_reduce_bytes;
    use megatron_sim::time_to_secs;

    fn cluster16() -> ClusterSpec {
        ClusterSpec::selene(16)
    }

    fn run_secs(sim: DagSim) -> f64 {
        time_to_secs(sim.run().unwrap().makespan)
    }

    /// The DES ring all-reduce and the closed-form model must agree.
    #[test]
    fn simulated_all_reduce_matches_analytical() {
        let cluster = cluster16();
        for ranks in [vec![0usize, 1, 2, 3], vec![0, 8], vec![0, 4, 8, 12]] {
            let bytes = 64 * 1024 * 1024u64;
            let mut sim = DagSim::new();
            let net = Network::new(&mut sim, cluster.clone());
            net.ring_all_reduce(&mut sim, &ranks, bytes, &[], 0);
            let got = run_secs(sim);
            let want = analytical::ring_all_reduce_time(&cluster, &ranks, bytes as f64);
            let rel = (got - want).abs() / want;
            assert!(
                rel < 0.05,
                "ranks {ranks:?}: sim {got:.6}s vs analytical {want:.6}s"
            );
        }
    }

    #[test]
    fn p2p_nvlink_faster_than_ib() {
        let c = cluster16();
        let bytes = 32 * 1024 * 1024;

        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.send(&mut sim, 0, 1, bytes, &[], 0);
        let nv = run_secs(sim);

        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c);
        net.send(&mut sim, 0, 8, bytes, &[], 0);
        let ib = run_secs(sim);

        assert!(nv < ib);
    }

    #[test]
    fn sends_from_same_gpu_serialize() {
        let c = cluster16();
        let bytes = 8 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.send(&mut sim, 0, 8, bytes, &[], 0);
        net.send(&mut sim, 0, 9, bytes, &[], 0);
        let two = run_secs(sim);
        let one = c.p2p_time(LinkClass::InfiniBand, bytes as f64);
        assert!((two - 2.0 * one).abs() / one < 1e-6, "two={two} one={one}");
    }

    #[test]
    fn sends_from_different_gpus_parallelize() {
        let c = cluster16();
        let bytes = 8 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.send(&mut sim, 0, 8, bytes, &[], 0);
        net.send(&mut sim, 1, 9, bytes, &[], 0);
        let both = run_secs(sim);
        let one = c.p2p_time(LinkClass::InfiniBand, bytes as f64);
        assert!((both - one).abs() / one < 1e-6);
    }

    #[test]
    fn nvlink_and_ib_ports_are_independent() {
        let c = cluster16();
        let bytes = 8 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.send(&mut sim, 0, 1, bytes, &[], 0); // NVLink
        net.send(&mut sim, 0, 8, bytes, &[], 0); // IB
        let both = run_secs(sim);
        let ib = c.p2p_time(LinkClass::InfiniBand, bytes as f64);
        assert!(
            (both - ib).abs() / ib < 1e-6,
            "IB leg should dominate, not add"
        );
    }

    #[test]
    fn all_reduce_single_rank_is_free() {
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster16());
        let done = net.ring_all_reduce(&mut sim, &[3], 1 << 20, &[], 0);
        assert_eq!(done.len(), 1);
        assert_eq!(run_secs(sim), 0.0);
    }

    #[test]
    fn all_reduce_task_count_is_2_r_minus_1_times_r() {
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster16());
        net.ring_all_reduce(&mut sim, &[0, 1, 2, 3], 1 << 20, &[], 0);
        // 2(r−1) steps × r sends per step.
        assert_eq!(sim.task_count(), 2 * 3 * 4);
    }

    #[test]
    fn all_reduce_volume_emerges_from_algorithm() {
        // Each rank sends 2(r−1) chunks of bytes/r: (t−1)/t factor of §3.2.
        let bytes = 4 * 1024 * 1024u64;
        let ranks = [0usize, 1, 2, 3];
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster16());
        net.ring_all_reduce(&mut sim, &ranks, bytes, &[], 0);
        let result = sim.run().unwrap();
        // Every send task moved bytes/4; count per sender resource = 6.
        for rank in ranks {
            let stats = &result.resources[net.nv_egress[rank].index()];
            assert_eq!(stats.tasks_run, 6);
        }
        let per_device = 6.0 * (bytes as f64 / 4.0);
        let expected = ring_all_reduce_bytes(bytes as f64, 4);
        assert!((per_device - expected).abs() < 1.0);
        // The message-level byte tally agrees with both.
        for rank in ranks {
            assert_eq!(net.sent_bytes(rank) as f64, expected);
        }
    }

    #[test]
    fn byte_tally_is_exact_for_non_divisible_buffers() {
        // Chunks are exact ceil-partitions (no padding on the wire), so at
        // r = 2 every rank's all-reduce egress is exactly `bytes` even for
        // odd sizes — the identity the (2,2,2) real-vs-sim test leans on.
        let bytes = 1_000_003u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster16());
        net.ring_all_reduce(&mut sim, &[0, 1], bytes, &[], 0);
        assert_eq!(net.sent_bytes(0), bytes);
        assert_eq!(net.sent_bytes(1), bytes);
    }

    #[test]
    fn broadcast_last_ring_position_sends_nothing() {
        let bytes = 8 * 1024 * 1024u64;
        let ranks = [0usize, 1, 2, 3];
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster16());
        let done = net.ring_broadcast(&mut sim, &ranks, bytes, 0, &[], 0);
        assert_eq!(done.len(), 4);
        sim.run().unwrap();
        assert_eq!(net.sent_bytes(0), bytes); // root streams the full buffer
        assert_eq!(net.sent_bytes(3), 0); // ring tail only receives
    }

    #[test]
    fn all_gather_time_scales_with_contribution() {
        let c = cluster16();
        let per_rank = 16 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.ring_all_gather(&mut sim, &[0, 1, 2, 3], per_rank, &[], 0);
        let got = run_secs(sim);
        let want = analytical::ring_all_gather_time(&c, &[0, 1, 2, 3], per_rank as f64);
        assert!((got - want).abs() / want < 0.05, "got {got} want {want}");
    }

    #[test]
    fn reduce_scatter_half_of_all_reduce() {
        let c = cluster16();
        let bytes = 64 * 1024 * 1024u64;
        let ranks = [0usize, 1, 2, 3];
        let rs = analytical::ring_reduce_scatter_time(&c, &ranks, bytes as f64);
        let ar = analytical::ring_all_reduce_time(&c, &ranks, bytes as f64);
        assert!((ar / rs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cross_node_all_reduce_slower_than_intra_node() {
        let c = cluster16();
        let bytes = 64.0 * 1024.0 * 1024.0;
        let intra = analytical::ring_all_reduce_time(&c, &[0, 1, 2, 3], bytes);
        let inter = analytical::ring_all_reduce_time(&c, &[0, 4, 8, 12], bytes);
        assert!(
            inter > 5.0 * intra,
            "IB ring should be much slower: intra {intra} inter {inter}"
        );
    }

    #[test]
    fn scatter_gather_reduces_ib_time() {
        // §4.1 / Figure 18: with t = 8 tensor-parallel ranks, scatter/gather
        // sends bytes/8 over each IB link instead of the full tensor.
        let c = ClusterSpec::selene(16);
        let senders: Vec<usize> = (0..8).collect();
        let receivers: Vec<usize> = (8..16).collect();
        let bytes = 64 * 1024 * 1024u64;

        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.pipeline_p2p(&mut sim, &senders, &receivers, bytes, false, &[], 0);
        let plain = run_secs(sim);

        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.pipeline_p2p(&mut sim, &senders, &receivers, bytes, true, &[], 0);
        let opt = run_secs(sim);

        assert!(
            opt < plain * 0.5,
            "scatter/gather should cut boundary time sharply: {opt} vs {plain}"
        );
        // But the NVLink all-gather is not free: the optimized transfer must
        // still cost more than a bare 1/8 IB send.
        let bare = c.p2p_time(LinkClass::InfiniBand, bytes as f64 / 8.0);
        assert!(opt > bare);
    }

    #[test]
    fn pipeline_p2p_without_sg_each_link_carries_full_tensor() {
        let c = ClusterSpec::selene(16);
        let bytes = 16 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        let senders: Vec<usize> = (0..8).collect();
        let receivers: Vec<usize> = (8..16).collect();
        net.pipeline_p2p(&mut sim, &senders, &receivers, bytes, false, &[], 0);
        let t = run_secs(sim);
        // All 8 redundant sends ride distinct HCAs → time of ONE full send.
        let one = c.p2p_time(LinkClass::InfiniBand, bytes as f64);
        assert!((t - one).abs() / one < 1e-6);
    }

    #[test]
    fn hierarchical_all_reduce_matches_analytical() {
        let c = ClusterSpec::selene(32); // 4 nodes
        let ranks: Vec<usize> = (0..32).collect();
        let bytes = 256 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.hierarchical_all_reduce(&mut sim, &ranks, bytes, &[], 0);
        let got = run_secs(sim);
        let want = analytical::hierarchical_all_reduce_time(&c, 4, 8, bytes as f64);
        assert!(
            (got - want).abs() / want < 0.10,
            "sim {got:.6} vs analytical {want:.6}"
        );
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_nodes() {
        // All 8 rails carry 1/8 of the volume → ~8× the inter-node
        // bandwidth of a flat ring bottlenecked on one HCA chain.
        let c = ClusterSpec::selene(32);
        let ranks: Vec<usize> = (0..32).collect();
        let bytes = 256.0 * 1024.0 * 1024.0;
        let flat = analytical::ring_all_reduce_time(&c, &ranks, bytes);
        let hier = analytical::hierarchical_all_reduce_time(&c, 4, 8, bytes);
        assert!(hier < flat / 3.0, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn hierarchical_degenerates_to_ring_on_one_node() {
        let c = ClusterSpec::selene(16);
        let ranks: Vec<usize> = (0..8).collect();
        let bytes = 32 * 1024 * 1024u64;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c.clone());
        net.hierarchical_all_reduce(&mut sim, &ranks, bytes, &[], 0);
        let got = run_secs(sim);
        let want = analytical::ring_all_reduce_time(&c, &ranks, bytes as f64);
        assert!((got - want).abs() / want < 0.05);
    }

    #[test]
    #[should_panic(expected = "equal ranks per node")]
    fn hierarchical_rejects_lopsided_groups() {
        let c = ClusterSpec::selene(16);
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c);
        // 3 GPUs on node 0, 1 on node 1.
        net.hierarchical_all_reduce(&mut sim, &[0, 1, 2, 8], 1 << 20, &[], 0);
    }

    #[test]
    fn deps_gate_collective_start() {
        let c = cluster16();
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, c);
        // A 1 ms "compute" task gating every rank.
        let compute = sim.add_resource("compute");
        let gate = sim.add_task(compute, secs_to_time(1e-3), &[], 0);
        let deps = vec![gate; 4];
        net.ring_all_reduce(&mut sim, &[0, 1, 2, 3], 1 << 20, &deps, 0);
        let total = run_secs(sim);
        assert!(total > 1e-3, "collective must start after the gate");
    }
}
