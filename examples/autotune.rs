//! Configuration auto-tuning: compare the paper's §3 heuristics against an
//! exhaustive sweep of all valid (p, t, d) configurations for a given model
//! and GPU budget, simulating each one.
//!
//! Run with: `cargo run --release --example autotune`

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::zoo;
use megatron_repro::core::parallel::{layouts, ParallelConfig};
use megatron_repro::core::{heuristics, TrainingRun};

fn main() {
    let model = zoo::gpt_5p9b();
    let n_gpus = 64;
    let batch = 256;
    let cluster = ClusterSpec::selene(n_gpus);
    println!(
        "sweeping all valid configurations: {} on {n_gpus} GPUs, batch {batch}\n",
        model.name
    );

    let (n, capacity) = (n_gpus as u64, cluster.gpu.mem_capacity);
    let mut results: Vec<(ParallelConfig, f64)> = Vec::new();
    for (p, t, d) in layouts(n) {
        let base = ParallelConfig::new(p, t, d, 1, batch as u64);
        if base.validate_for_model(&model, n, capacity, true).is_err() {
            continue;
        }
        for b in [1u64, 2, 4, 8] {
            if !(batch as u64 / d).is_multiple_of(b) {
                continue;
            }
            let pc = ParallelConfig::new(p, t, d, b, batch as u64);
            let run = TrainingRun::ptdp(model.clone(), cluster.clone(), pc);
            if let Ok(report) = run.simulate() {
                results.push((pc, report.tflops_per_gpu));
            }
        }
    }
    results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("top configurations (of {} valid):", results.len());
    println!("  (t, p, d)  b    TF/s per GPU");
    for (pc, tf) in results.iter().take(8) {
        println!(
            "  ({}, {:>2}, {:>2})  {}    {tf:.0}",
            pc.tensor, pc.pipeline, pc.data, pc.microbatch
        );
    }
    println!("  ...");
    for (pc, tf) in results.iter().rev().take(3).rev() {
        println!(
            "  ({}, {:>2}, {:>2})  {}    {tf:.0}",
            pc.tensor, pc.pipeline, pc.data, pc.microbatch
        );
    }

    let best = &results[0];
    let heuristic = heuristics::suggest_config(&model, &cluster, batch as u64)
        .expect("model fits on this cluster");
    let heuristic_tf = TrainingRun::ptdp(model.clone(), cluster.clone(), heuristic)
        .simulate()
        .expect("heuristic config simulates")
        .tflops_per_gpu;

    println!(
        "\nbrute-force best:  (t,p,d,b) = ({}, {}, {}, {}) at {:.0} TF/s",
        best.0.tensor, best.0.pipeline, best.0.data, best.0.microbatch, best.1
    );
    println!(
        "paper heuristics:  (t,p,d,b) = ({}, {}, {}, {}) at {:.0} TF/s ({:.0}% of best)",
        heuristic.tensor,
        heuristic.pipeline,
        heuristic.data,
        heuristic.microbatch,
        heuristic_tf,
        100.0 * heuristic_tf / best.1
    );
    println!(
        "worst valid configuration: {:.0} TF/s — {:.1}x spread across the space \
         (the paper's 'sub-optimal combinations can be 2x worse')",
        results.last().unwrap().1,
        best.1 / results.last().unwrap().1
    );
}
