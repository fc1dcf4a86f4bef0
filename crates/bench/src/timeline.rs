//! The model and seeded data of the job `repro analyze` (E36) trains beside
//! its simulator twin, and the one mapping from a trainer's job to the twin
//! `megatron-core` prices (also used by E30).

use megatron_core::cluster::{ClusterSpec, GpuSpec, NodeSpec};
use megatron_core::model::GptConfig;
use megatron_core::parallel::ParallelConfig;
use megatron_core::{TrainingOptions, TrainingRun};
use megatron_dist::PtdpSpec;
use megatron_tensor::gpt::TinyGptConfig;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Real-trainer model: small enough to train in milliseconds, big enough
/// that every phase (fwd, bwd, p2p, grad sync, optimizer) is exercised.
pub(crate) const REAL_CFG: TinyGptConfig = TinyGptConfig {
    vocab: 13,
    seq: 8,
    hidden: 32,
    heads: 4,
    layers: 2,
};

/// The simulator twin of a real job: the same `l`, `h`, `a`, `s`, `V`,
/// `(p, t, d)`, `b`, `v`, schedule and recomputation at global batch
/// `batch`, on one A100 node of exactly `p·t·d` GPUs — the one mapping from
/// a trainer's job to what `megatron-core` prices.
pub(crate) fn twin(cfg: TinyGptConfig, spec: &PtdpSpec, batch: usize) -> TrainingRun {
    let model = GptConfig {
        name: "twin".to_string(),
        num_layers: cfg.layers as u64,
        hidden_size: cfg.hidden as u64,
        num_heads: cfg.heads as u64,
        seq_len: cfg.seq as u64,
        vocab_size: cfg.vocab as u64,
    };
    let (p, t, d) = (spec.pipeline as u64, spec.tensor as u64, spec.data as u64);
    let pc = ParallelConfig::new(p, t, d, spec.microbatch as u64, batch as u64)
        .with_chunks(spec.chunks as u64);
    let node = NodeSpec {
        gpus_per_node: spec.world(),
        ..NodeSpec::dgx_a100()
    };
    let options = TrainingOptions {
        schedule: spec.schedule,
        recompute: spec.recompute,
        ..TrainingOptions::default()
    };
    TrainingRun::new(
        model,
        ClusterSpec::custom(GpuSpec::a100_80gb(), node, 1),
        pc,
        options,
    )
}

pub(crate) fn make_data(batch: usize, iters: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..iters)
        .map(|_| {
            let toks = (0..batch * REAL_CFG.seq)
                .map(|_| rng.gen_range(0..REAL_CFG.vocab))
                .collect();
            let tgts = (0..batch * REAL_CFG.seq)
                .map(|_| rng.gen_range(0..REAL_CFG.vocab))
                .collect();
            (toks, tgts)
        })
        .collect()
}
