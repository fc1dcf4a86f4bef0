//! The tensor engine's helper threads change no bit of a training run.
//!
//! A serial step cuts its passes into pieces that the caller and the pool's
//! helpers share; a job whose ranks fill the host's cores holds a
//! `RankGuard` and runs every piece on its own thread. This test trains the
//! serial baseline's model (`serial_wide` in the benchmark: 4 layers,
//! hidden 256, 3 × 64 tokens) for three steps both ways and compares the
//! final parameters' FNV-1a hash. It is a test binary of its own so that
//! no other test's guard closes the gate during the shared run.
//!
//! `cargo test --release --test helpers_change_no_bits -- --nocapture`
//! prints the blocks helpers ran and both hashes.

use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
use megatron_repro::tensor::{helper_blocks, Adam, RankGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CFG: TinyGptConfig = TinyGptConfig {
    vocab: 512,
    seq: 64,
    hidden: 256,
    heads: 8,
    layers: 4,
};
const BATCH: usize = 3;
const STEPS: usize = 3;

/// FNV-1a over the bits of every parameter after `STEPS` steps.
fn trained_params_hash() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut model = GptModel::new(CFG, &mut rng);
    let mut adam = Adam::new(0.001);
    for _ in 0..STEPS {
        let tokens: Vec<usize> = (0..BATCH * CFG.seq)
            .map(|_| rng.gen_range(0..CFG.vocab))
            .collect();
        let targets: Vec<usize> = tokens[1..].iter().chain(&tokens[..1]).copied().collect();
        model.zero_grads();
        model.loss_and_grad(&tokens, &targets, BATCH);
        adam.step(&mut model.param_grad_pairs());
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    model.visit(&mut |p, _| {
        for byte in p.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    });
    hash
}

#[test]
fn a_live_rank_guard_changes_no_bit_of_three_steps() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = helper_blocks();
    let shared = trained_params_hash();
    let helped = helper_blocks() - before;

    let ranks = RankGuard::declare(cores);
    let before = helper_blocks();
    let alone = trained_params_hash();
    let helped_under_guard = helper_blocks() - before;
    drop(ranks);

    println!("blocks run by helper threads: {helped} without a guard, {helped_under_guard} under a guard of {cores} ranks");
    println!("final_params hash: {shared:016x} shared, {alone:016x} on the caller alone");
    assert_eq!(shared, alone, "helper threads moved a bit");
    assert_eq!(
        helped_under_guard, 0,
        "a guard of {cores} ranks left helpers running"
    );
    if cores >= 2 {
        assert!(
            helped > 0,
            "{cores} cores, and no helper ran a block of the step"
        );
    }
}
