//! The paper's §5.2 comparison as a runnable scenario: scale GPT-3 175B
//! from 384 to 1536 GPUs at fixed global batch size under PTD-P and under
//! ZeRO-3, and watch the curves diverge (Figure 10).
//!
//! Run with: `cargo run --release --example zero_vs_ptdp`

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::zoo;
use megatron_repro::core::parallel::ParallelConfig;
use megatron_repro::core::zero::ZeroRun;
use megatron_repro::core::TrainingRun;

fn main() {
    let model = zoo::gpt3_175b();
    let batch = 1536u64;
    println!(
        "{} at fixed global batch {batch}: per-GPU throughput vs cluster size\n",
        model.name
    );
    println!("GPUs   PTD-P TF/s   ZeRO-3 TF/s   PTD-P advantage");

    for (gpus, zero_b) in [(384usize, 4u64), (768, 2), (1536, 1)] {
        let cluster = ClusterSpec::selene(gpus);

        // PTD-P: model-parallel size 96 (t=8, p=12) as in Table 2.
        let d = gpus as u64 / 96;
        let pc = ParallelConfig::new(12, 8, d, 1, batch);
        let ptdp = TrainingRun::ptdp(model.clone(), cluster.clone(), pc)
            .simulate()
            .expect("PTD-P config valid");

        // ZeRO-3: no model parallelism; microbatch shrinks as GPUs grow so
        // the fixed batch still divides (the paper's setup).
        let zero = ZeroRun::new(model.clone(), cluster, batch, zero_b).simulate();

        println!(
            "{gpus:>4}   {:>10.0}   {:>11.0}   {:>+6.0}%",
            ptdp.tflops_per_gpu,
            zero.tflops_per_gpu,
            100.0 * (ptdp.tflops_per_gpu / zero.tflops_per_gpu - 1.0)
        );
    }

    println!(
        "\npaper: PTD-P wins by ~6% at 384 GPUs and ~70%+ once the GPU count doubles,\n\
         because ZeRO-3's parameter gathers keep per-rank communication constant while\n\
         per-rank compute shrinks (§5.2)."
    );
}
