//! Cross-crate integration: heuristic configuration → end-to-end simulated
//! iteration → paper-band assertions.

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::zoo;
use megatron_repro::core::parallel::{ConfigError, ParallelConfig};
use megatron_repro::core::{heuristics, RunError, TrainingOptions, TrainingRun};
use megatron_repro::schedule::ScheduleKind;

/// Every Table 1 row, simulated with the paper's (t, p) and our heuristic
/// microbatch, must land within 15% of the paper's reported TF/s per GPU.
#[test]
fn table1_rows_within_band() {
    for row in zoo::table1() {
        let d = row.n_gpus / (row.tensor_parallel * row.pipeline_parallel);
        let cluster = ClusterSpec::selene(row.n_gpus as usize);
        // The paper doesn't publish per-row microbatch sizes; take the best
        // of the standard candidates, as their tuning would have.
        let best = [1u64, 2, 4, 8, 16]
            .iter()
            .filter_map(|&b| {
                let pc = ParallelConfig::new(
                    row.pipeline_parallel,
                    row.tensor_parallel,
                    d,
                    b,
                    row.batch_size,
                );
                TrainingRun::ptdp(row.config.clone(), cluster.clone(), pc)
                    .simulate()
                    .ok()
                    .map(|r| r.tflops_per_gpu)
            })
            .fold(0.0f64, f64::max);
        let rel = (best - row.paper_tflops_per_gpu).abs() / row.paper_tflops_per_gpu;
        assert!(
            rel < 0.15,
            "{}: {best:.0} TF/s vs paper {:.0} (rel {rel:.2})",
            row.config.name,
            row.paper_tflops_per_gpu,
        );
    }
}

/// The heuristic configurator reproduces the paper's Table 1 (t, p)
/// choices exactly, for all ten rows.
#[test]
fn heuristics_reproduce_table1_choices() {
    for row in zoo::table1() {
        let cluster = ClusterSpec::selene(row.n_gpus as usize);
        let c = heuristics::suggest_config(&row.config, &cluster, row.batch_size)
            .unwrap_or_else(|e| panic!("{}: {e}", row.config.name));
        assert_eq!(
            (c.tensor, c.pipeline),
            (row.tensor_parallel, row.pipeline_parallel),
            "{}",
            row.config.name
        );
    }
}

/// Trillion-parameter flagship run: weak-scaling endpoint of Table 1,
/// including the §5.9 bisection-traffic figures.
#[test]
fn trillion_parameter_flagship() {
    let pc = ParallelConfig::new(64, 8, 6, 1, 3072).with_chunks(2);
    let report = TrainingRun::ptdp(zoo::gpt_1t(), ClusterSpec::selene(3072), pc)
        .simulate()
        .expect("1T config valid");
    // Paper: 163 TF/s per GPU (52%), 502 PF/s aggregate.
    assert!((report.tflops_per_gpu - 163.0).abs() < 25.0, "{report:?}");
    assert!(report.aggregate_pflops > 400.0 && report.aggregate_pflops < 600.0);
    // Paper: 892 GB/s effective pipeline bisection bandwidth.
    let bw = report.pipeline_bisection_bandwidth();
    assert!(
        bw > 500e9 && bw < 1300e9,
        "pipeline bisection bandwidth {bw:.3e}"
    );
    // Fits in memory with recomputation.
    assert!(report.memory_bytes_per_gpu < 80 * (1 << 30));
}

/// The simulated idle fraction must never undercut the analytical bubble
/// bound, across schedules and shapes.
#[test]
fn simulated_idle_respects_analytical_bound() {
    let model = zoo::gpt_5p9b();
    for (p, t, v, batch) in [
        (2u64, 4u64, 1u64, 16u64),
        (4, 2, 1, 32),
        (4, 2, 2, 32),
        (8, 2, 1, 64),
    ] {
        let pc = ParallelConfig::new(p, t, 1, 1, batch).with_chunks(v);
        let run = TrainingRun::ptdp(model.clone(), ClusterSpec::selene((t * p) as usize), pc);
        let report = run.simulate().unwrap();
        assert!(
            report.measured_idle_fraction >= report.analytical_bubble_fraction - 1e-9,
            "(p={p}, t={t}, v={v}, B={batch}): idle {} < bubble {}",
            report.measured_idle_fraction,
            report.analytical_bubble_fraction
        );
    }
}

/// §2.2.2's tradeoff, end to end: interleaving shrinks the bubble but
/// raises pipeline communication volume by v.
#[test]
fn interleaving_tradeoff_end_to_end() {
    let model = zoo::gpt_5p9b(); // 32 layers
    let cluster = ClusterSpec::selene(16);
    let base_pc = ParallelConfig::new(8, 2, 1, 1, 16);
    let base = TrainingRun::ptdp(model.clone(), cluster.clone(), base_pc)
        .simulate()
        .unwrap();
    let int_pc = base_pc.with_chunks(4);
    let inter = TrainingRun::ptdp(model, cluster, int_pc)
        .simulate()
        .unwrap();
    assert!(inter.analytical_bubble_fraction < base.analytical_bubble_fraction);
    let ratio = inter.comm.pipeline_p2p_bytes_per_gpu / base.comm.pipeline_p2p_bytes_per_gpu;
    assert!(
        (ratio - 31.0 / 7.0).abs() < 0.2,
        "v=4 has (p·v−1)/(p−1)·... more boundary traffic, got ratio {ratio}"
    );
}

/// Scatter/gather (§4.1) cuts per-GPU pipeline bytes by t.
#[test]
fn scatter_gather_cuts_wire_bytes_by_t() {
    let model = zoo::gpt_162b();
    let cluster = ClusterSpec::selene(64);
    let pc = ParallelConfig::new(8, 8, 1, 1, 32);
    let mut with = TrainingRun::ptdp(model, cluster, pc);
    with.options.enforce_memory = false;
    let mut without = with.clone();
    without.options.scatter_gather = false;
    let a = with.simulate().unwrap();
    let b = without.simulate().unwrap();
    let ratio = b.comm.pipeline_p2p_bytes_per_gpu / a.comm.pipeline_p2p_bytes_per_gpu;
    assert!((ratio - 8.0).abs() < 0.01, "got ratio {ratio}");
}

/// Recomputation trades compute for memory, end to end (§3.5, Figure 17).
#[test]
fn recomputation_tradeoff() {
    let model = zoo::gpt_145b();
    let cluster = ClusterSpec::selene(128);
    let pc = ParallelConfig::new(16, 8, 1, 1, 4);
    let mut with = TrainingRun::ptdp(model, cluster, pc);
    with.options.enforce_memory = false;
    let mut without = with.clone();
    without.options.recompute = false;
    let a = with.simulate().unwrap();
    let b = without.simulate().unwrap();
    assert!(
        b.sequences_per_second > a.sequences_per_second,
        "recompute must cost throughput at small batch"
    );
    assert!(
        a.memory_bytes_per_gpu < b.memory_bytes_per_gpu,
        "recompute must save memory"
    );
    // Paper: up to 33% loss at small batch; ours should be in that family.
    let slowdown = 1.0 - a.sequences_per_second / b.sequences_per_second;
    assert!(slowdown > 0.10 && slowdown < 0.45, "slowdown {slowdown}");
}

/// Config errors surface with precise reasons across the stack.
#[test]
fn error_paths() {
    let model = zoo::gpt3_175b();
    // OOM on a single node.
    let run = TrainingRun::ptdp(
        model.clone(),
        ClusterSpec::selene(8),
        ParallelConfig::new(1, 8, 1, 1, 8),
    );
    assert!(matches!(
        run.simulate(),
        Err(RunError::Config(ConfigError::OutOfMemory { .. }))
    ));
    // Wrong GPU count.
    let run = TrainingRun::ptdp(
        model.clone(),
        ClusterSpec::selene(16),
        ParallelConfig::new(1, 8, 1, 1, 8),
    );
    assert!(matches!(
        run.simulate(),
        Err(RunError::Config(ConfigError::WrongGpuCount { .. }))
    ));
    // Schedule/chunk mismatch.
    let mut run = TrainingRun::ptdp(
        model,
        ClusterSpec::selene(96),
        ParallelConfig::new(12, 8, 1, 1, 24).with_chunks(2),
    );
    run.options.schedule = ScheduleKind::OneFOneB;
    run.options.enforce_memory = false;
    assert!(matches!(
        run.simulate(),
        Err(RunError::ChunkMismatch { .. })
    ));
}

/// Default options match the paper's best practice.
#[test]
fn default_options_are_papers() {
    let o = TrainingOptions::default();
    assert!(o.scatter_gather && o.fused && o.recompute && o.blocking_p2p);
    assert_eq!(o.schedule, ScheduleKind::OneFOneB);
}
