//! Benches of the discrete-event simulation stack: raw DAG engine
//! throughput and full PTD-P iteration simulations at three scales.

use megatron_bench::harness::Bench;
use megatron_core::cluster::ClusterSpec;
use megatron_core::model::zoo;
use megatron_core::parallel::ParallelConfig;
use megatron_core::TrainingRun;
use megatron_sim::DagSim;

fn dag_engine() {
    let g = Bench::group("dag_engine").sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        g.run(&format!("chain_tasks/{n}"), || {
            let mut sim = DagSim::new();
            let r = sim.add_resource("r");
            let mut prev = None;
            for _ in 0..n {
                let deps: Vec<_> = prev.into_iter().collect();
                prev = Some(sim.add_task(r, 5, &deps, 0));
            }
            sim.run().unwrap().makespan
        });
        g.run(&format!("parallel_tasks/{n}"), || {
            let mut sim = DagSim::new();
            let rs: Vec<_> = (0..16).map(|i| sim.add_resource(format!("r{i}"))).collect();
            for i in 0..n {
                sim.add_task(rs[i % 16], 5, &[], 0);
            }
            sim.run().unwrap().makespan
        });
    }
}

fn iteration_simulation() {
    let g = Bench::group("iteration_simulation").sample_size(10);

    // Small: 5.9B on 64 GPUs.
    let run = TrainingRun::ptdp(
        zoo::gpt_5p9b(),
        ClusterSpec::selene(64),
        ParallelConfig::new(8, 2, 4, 1, 128),
    );
    g.run("gpt_5.9b_64gpus", || run.simulate().unwrap().iteration_time);

    // Medium: GPT-3 on 768 GPUs.
    let run = TrainingRun::ptdp(
        zoo::gpt3_175b(),
        ClusterSpec::selene(768),
        ParallelConfig::new(12, 8, 8, 1, 1536),
    );
    g.run("gpt3_175b_768gpus", || {
        run.simulate().unwrap().iteration_time
    });

    // Flagship: 1T on 3072 GPUs (the paper's largest run).
    let run = TrainingRun::ptdp(
        zoo::gpt_1t(),
        ClusterSpec::selene(3072),
        ParallelConfig::new(64, 8, 6, 1, 3072).with_chunks(2),
    );
    g.run("gpt_1t_3072gpus", || run.simulate().unwrap().iteration_time);
}

fn main() {
    dag_engine();
    iteration_simulation();
}
