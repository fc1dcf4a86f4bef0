//! A steady-state training step takes no page faults, on any thread of the
//! process.
//!
//! The tensor engine's process setup tells the allocator to keep what a
//! step frees, so the next step reuses those pages instead of having the
//! kernel fault fresh zeroed ones in. This test trains the serial
//! baseline's model (`serial_wide` in the benchmark: 4 layers, hidden 256,
//! 3 × 64 tokens) on its own thread, lets three steps warm up, and counts
//! the minor faults of the three after them. Helper threads of the tensor
//! engine's pool run parts of every step, so the count is the whole
//! process's (`getrusage(RUSAGE_SELF)`), and on a host of two or more cores
//! the test also requires that helpers ran some of the step — it cannot
//! pass by not sharing. It is a test binary of its own so that no other
//! test's allocations share its heap.
//!
//! `cargo test --release --test no_fresh_pages -- --nocapture` prints the
//! faults of every step and the blocks helpers ran.

use megatron_repro::telemetry::process_usage;
use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
use megatron_repro::tensor::{helper_blocks, Adam};
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
const WARM_UP: usize = 3;
const MEASURED: usize = 3;

#[test]
fn steady_state_steps_fault_in_no_fresh_pages() {
    let Some(_) = process_usage() else {
        eprintln!("no process fault counter on this platform: nothing to check");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut model = GptModel::new(CFG, &mut rng);
    let mut adam = Adam::new(0.001);
    let tokens: Vec<usize> = (0..BATCH * CFG.seq)
        .map(|_| rng.gen_range(0..CFG.vocab))
        .collect();
    let targets: Vec<usize> = tokens[1..].iter().chain(&tokens[..1]).copied().collect();

    let helped_before = helper_blocks();
    let faults: Vec<u64> = (0..WARM_UP + MEASURED)
        .map(|_| {
            let before = process_usage().unwrap();
            model.zero_grads();
            let loss = model.loss_and_grad(&tokens, &targets, BATCH);
            adam.step(&mut model.param_grad_pairs());
            assert!(loss.is_finite());
            process_usage().unwrap().since(before).minor_faults
        })
        .collect();
    let helped = helper_blocks() - helped_before;
    println!("minor faults per step, process-wide (first {WARM_UP} warm up): {faults:?}");
    println!("blocks run by helper threads: {helped}");

    // The first step touches every activation and the optimizer's moments
    // for the first time: if it took no faults, the counter counts nothing.
    assert!(faults[0] > 0, "the first step took no faults: {faults:?}");
    let steady: u64 = faults[WARM_UP..].iter().sum();
    assert_eq!(
        steady, 0,
        "steady-state steps faulted in fresh pages: {faults:?} (first {WARM_UP} warm up)"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            helped > 0,
            "{cores} cores, and no helper ran a block of the step"
        );
    }
}
