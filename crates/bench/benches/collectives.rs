//! Benches of the simulated-network collectives (event-level ring
//! algorithms) and the §4.1 scatter/gather boundary transfer — including
//! the no-contention ablation called out in DESIGN.md §5.

use megatron_bench::harness::Bench;
use megatron_core::cluster::ClusterSpec;
use megatron_core::net::Network;
use megatron_sim::DagSim;

fn ring_collectives() {
    let cluster = ClusterSpec::selene(64);
    let g = Bench::group("simulated_collectives").sample_size(20);
    for &r in &[4usize, 8, 32] {
        let ranks: Vec<usize> = (0..r).collect();
        g.run(&format!("ring_all_reduce/{r}"), || {
            let mut sim = DagSim::new();
            let net = Network::new(&mut sim, cluster.clone());
            net.ring_all_reduce(&mut sim, &ranks, 64 << 20, &[], 0);
            sim.run().unwrap().makespan
        });
    }
}

fn boundary_transfer() {
    let cluster = ClusterSpec::selene(16);
    let senders: Vec<usize> = (0..8).collect();
    let receivers: Vec<usize> = (8..16).collect();
    let g = Bench::group("pipeline_boundary").sample_size(20);
    for (name, sg) in [("redundant", false), ("scatter_gather", true)] {
        g.run(name, || {
            let mut sim = DagSim::new();
            let net = Network::new(&mut sim, cluster.clone());
            net.pipeline_p2p(&mut sim, &senders, &receivers, 64 << 20, sg, &[], 0);
            sim.run().unwrap().makespan
        });
    }
}

/// Contention ablation: concurrent all-reduces on disjoint groups scale
/// (independent ports), concurrent traffic on one sender serializes.
fn contention() {
    let cluster = ClusterSpec::selene(32);
    let g = Bench::group("net_contention").sample_size(20);
    g.run("four_disjoint_all_reduces", || {
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster.clone());
        for gi in 0..4usize {
            let ranks: Vec<usize> = (gi * 8..(gi + 1) * 8).collect();
            net.ring_all_reduce(&mut sim, &ranks, 16 << 20, &[], 0);
        }
        sim.run().unwrap().makespan
    });
    g.run("four_serialized_sends_one_port", || {
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster.clone());
        for _ in 0..4 {
            net.send(&mut sim, 0, 8, 16 << 20, &[], 0);
        }
        sim.run().unwrap().makespan
    });
}

fn main() {
    ring_collectives();
    boundary_transfer();
    contention();
}
