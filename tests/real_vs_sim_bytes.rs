//! The tentpole acceptance test: **real == simulated bytes is a structural
//! identity**, not a pair of formulas that happen to agree.
//!
//! A real (2,2,2) training run records, per thread, both the transport-
//! measured egress ([`RankCommVolume`]) and a replayable comm-op tape
//! ([`RankCommOps`]). Replaying that tape onto the simulated network's
//! discrete-event links (`core::net::Network`) — the *same*
//! `megatron-collective` step programs, lowered instead of executed — must
//! reproduce every GPU's byte total exactly, because both sides count the
//! identical transport-level messages.

use std::collections::HashMap;

use megatron_repro::collective::Program;
use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::net::Network;
use megatron_repro::dist::{CollectiveOp, PtdpSpec, PtdpTrainer, RankCommOps, ThreadKey, TrainLog};
use megatron_repro::sim::DagSim;
use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
use rand::{Rng, SeedableRng};

fn make_data(cfg: TinyGptConfig, batch: usize, iters: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    (0..iters)
        .map(|_| {
            let toks: Vec<usize> = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            let tgts: Vec<usize> = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            (toks, tgts)
        })
        .collect()
}

/// The trainer's flat rank layout: pipeline outermost, tensor innermost.
fn gpu_of(spec: &PtdpSpec, key: ThreadKey) -> usize {
    let (pi, di, ti) = key;
    pi * (spec.data * spec.tensor) + di * spec.tensor + ti
}

/// Rebuild a recorded op's step program with lengths in wire bytes (the
/// net-side convention: one program element = one byte): every chunk range
/// scaled by the f32 width. (Rebuilding the program over `4·elems` would
/// cut other chunks wherever `elems` does not divide by the group size.)
fn program_in_bytes(op: &CollectiveOp, ranks: usize) -> Program {
    let mut prog = op.program(ranks);
    prog.len *= 4;
    for step in prog.rounds.iter_mut().flat_map(|r| r.steps.iter_mut()) {
        let ranges = step.send.as_mut().map(|s| &mut s.range).into_iter();
        for range in ranges.chain(step.recv.as_mut().map(|r| &mut r.range)) {
            range.lo *= 4;
            range.hi *= 4;
        }
    }
    prog
}

/// Replay every thread's tape onto a fresh simulated cluster and assert
/// per-GPU egress equality with the real run's measured volumes.
fn assert_real_equals_sim(spec: &PtdpSpec, log: &TrainLog) {
    let (p, t, d) = (spec.pipeline, spec.tensor, spec.data);
    assert_eq!(log.comm_ops.len(), spec.world(), "every thread left a tape");

    let mut sim = DagSim::new();
    let net = Network::new(&mut sim, ClusterSpec::selene(8));

    // Tensor groups: ranks (pi, di, 0..t). SPMD: every member recorded the
    // same tape, so each group's collectives are lowered exactly once.
    for pi in 0..p {
        for di in 0..d {
            let tape = &log.comm_ops[&(pi, di, 0)].tensor;
            for ti in 1..t {
                assert_eq!(
                    tape,
                    &log.comm_ops[&(pi, di, ti)].tensor,
                    "tensor group ({pi},{di}) members disagree on the tape"
                );
            }
            let gpus: Vec<usize> = (0..t).map(|ti| gpu_of(spec, (pi, di, ti))).collect();
            for op in tape {
                let prog = program_in_bytes(op, t);
                net.lower_program(&mut sim, &prog, &gpus, &[], 0);
            }
        }
    }

    // Data-parallel groups: ranks (pi, 0..d, ti).
    for pi in 0..p {
        for ti in 0..t {
            let tape = &log.comm_ops[&(pi, 0, ti)].data;
            for di in 1..d {
                assert_eq!(
                    tape,
                    &log.comm_ops[&(pi, di, ti)].data,
                    "data group ({pi},{ti}) members disagree on the tape"
                );
            }
            let gpus: Vec<usize> = (0..d).map(|di| gpu_of(spec, (pi, di, ti))).collect();
            for op in tape {
                let prog = program_in_bytes(op, d);
                net.lower_program(&mut sim, &prog, &gpus, &[], 0);
            }
        }
    }

    // Pipeline p2p sends, straight from each thread's tape.
    for (key, ops) in &log.comm_ops {
        for (dest, elems) in &ops.p2p_sends {
            net.send(
                &mut sim,
                gpu_of(spec, *key),
                gpu_of(spec, *dest),
                (*elems as u64) * 4,
                &[],
                0,
            );
        }
    }

    // The identity: per GPU, simulated egress == transport-measured bytes.
    let mut total = 0.0f64;
    for (key, vol) in &log.comm_volumes {
        let gpu = gpu_of(spec, *key);
        let real = vol.total_bytes();
        let simulated = net.sent_bytes(gpu) as f64;
        assert_eq!(
            simulated, real,
            "GPU {gpu} (thread {key:?}): sim {simulated} B != real {real} B"
        );
        total += real;
    }
    assert!(total > 0.0, "run moved no bytes — vacuous identity");
}

fn run(spec: PtdpSpec, batch: usize) -> TrainLog {
    let cfg = TinyGptConfig {
        vocab: 13,
        seq: 6,
        hidden: 8,
        heads: 4,
        layers: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, batch, 2);
    PtdpTrainer::new(master, spec).train(&data)
}

#[test]
fn ptdp_222_bytes_match_simulator_exactly() {
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    let log = run(spec, 8);
    // Sanity: the tape is not empty on any axis.
    let ops: &RankCommOps = &log.comm_ops[&(0, 0, 0)];
    assert!(!ops.tensor.is_empty(), "no tensor collectives recorded");
    assert!(!ops.data.is_empty(), "no data collectives recorded");
    assert!(!ops.p2p_sends.is_empty(), "no p2p sends recorded");
    assert_real_equals_sim(&spec, &log);
}

#[test]
fn ptdp_213_bytes_match_simulator_exactly() {
    // Three replicas: the data group's segmented reduce-scatter and
    // all-gather cut parameters whose lengths do not divide by 3 into
    // uneven chunks, and the tape — one op per segment — must still
    // replay to every byte the one message per round carried.
    let mut spec = PtdpSpec::new(2, 1, 3);
    spec.microbatch = 1;
    let log = run(spec, 6);
    assert_real_equals_sim(&spec, &log);
}

#[test]
fn comm_op_tape_is_internally_consistent() {
    // Cross-check the tape against the measured volumes without the
    // simulator in the loop: replaying each thread's programs alone
    // accounts for every byte the transport counted.
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    let log = run(spec, 8);
    let mut by_thread: HashMap<ThreadKey, f64> = HashMap::new();
    for (key @ (_, di, ti), ops) in &log.comm_ops {
        by_thread.insert(*key, ops.total_bytes(spec.tensor, *ti, spec.data, *di));
    }
    for (key, vol) in &log.comm_volumes {
        assert_eq!(by_thread[key], vol.total_bytes(), "thread {key:?}");
    }
}
