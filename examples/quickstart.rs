//! Quickstart: simulate one training iteration of GPT-3 175B on a
//! Selene-like cluster with the paper's PTD-P configuration, and print the
//! headline metrics Table 1/2 report.
//!
//! Run with: `cargo run --release --example quickstart`

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::zoo;
use megatron_repro::core::parallel::ParallelConfig;
use megatron_repro::core::TrainingRun;

fn main() {
    // GPT-3: 96 layers, hidden 12288, 96 heads (174.6B parameters).
    let model = zoo::gpt3_175b();
    println!(
        "model: {} — {:.1}B parameters, {:.1} EFLOPs per iteration at B=1536",
        model.name,
        model.params_eq2() / 1e9,
        model.flops_per_iteration_eq3(1536) / 1e18
    );

    // The paper's Table 2 PTD-P setup: t=8 (one DGX node), p=12, d=8 on
    // 768 A100 GPUs, batch 1536, microbatch 1.
    let cluster = ClusterSpec::selene(768);
    let parallel = ParallelConfig::new(12, 8, 8, 1, 1536);
    let run = TrainingRun::ptdp(model.clone(), cluster, parallel);

    let report = run.simulate().expect("valid configuration");
    println!("\none training iteration on 768 A100s, (t,p,d) = (8,12,8):");
    println!("  iteration time        {:.2} s", report.iteration_time);
    println!(
        "  per-GPU throughput    {:.0} teraFLOP/s ({:.0}% of peak; paper: 149)",
        report.tflops_per_gpu, report.pct_of_peak
    );
    println!(
        "  aggregate             {:.1} petaFLOP/s",
        report.aggregate_pflops
    );
    println!(
        "  pipeline bubble       {:.1}% analytical, {:.1}% measured idle",
        100.0 * report.analytical_bubble_fraction,
        100.0 * report.measured_idle_fraction
    );
    println!(
        "  memory per GPU        {} GiB of 80 GiB",
        report.memory_bytes_per_gpu >> 30
    );
    println!(
        "  comm per GPU/iter     {:.1} GB pipeline p2p, {:.1} GB tensor AR, {:.1} GB data AR",
        report.comm.pipeline_p2p_bytes_per_gpu / 1e9,
        report.comm.tensor_ar_bytes_per_gpu / 1e9,
        report.comm.data_parallel_bytes_per_gpu / 1e9
    );

    // Eq. 4 training-time estimate for GPT-3's 300B tokens.
    let days = model.training_time_eq4(300e9, report.n_gpus as f64, report.tflops_per_gpu * 1e12)
        / 86400.0;
    println!("\nestimated end-to-end training (300B tokens): {days:.0} days (paper: 43)");
}
