//! One function per paper table/figure. Each returns the printable
//! reproduction (and, where the paper gives numbers, a side-by-side
//! comparison).

use megatron_core::cluster::ClusterSpec;
use megatron_core::model::{zoo, GptConfig};
use megatron_core::parallel::{analysis, ParallelConfig};
use megatron_core::{heuristics, CheckpointIo, FilesystemSpec, TrainingRun};
use megatron_schedule::ScheduleKind;

use crate::table::Table;

/// An experiment registry entry.
pub struct Experiment {
    /// Subcommand name (e.g. `table1`).
    pub name: &'static str,
    /// What it reproduces.
    pub paper_ref: &'static str,
    /// Run it, returning printable output (`Err`: an invariant failed,
    /// and the output says which).
    pub run: fn() -> Result<String, String>,
}

/// All registered experiments, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig1",
            paper_ref: "Figure 1: model size / compute trend",
            run: || Ok(fig1()),
        },
        Experiment {
            name: "formulas",
            paper_ref: "Eqs. 2-3: parameter and FLOP formulas vs exact counts",
            run: || Ok(formulas()),
        },
        Experiment {
            name: "gantt",
            paper_ref: "Figures 3-4: pipeline schedule timelines",
            run: || Ok(gantt()),
        },
        Experiment {
            name: "fig6",
            paper_ref: "Figure 6: bubble fraction vs data-parallel size",
            run: || Ok(fig6()),
        },
        Experiment {
            name: "fig7",
            paper_ref: "Figure 7: per-GPU throughput vs microbatch size",
            run: || Ok(fig7()),
        },
        Experiment {
            name: "fig8",
            paper_ref: "Figure 8: Eq. 1 estimated throughput vs microbatch size",
            run: || Ok(fig8()),
        },
        Experiment {
            name: "table1",
            paper_ref: "Table 1: weak scaling 1.7B - 1T",
            run: || Ok(table1()),
        },
        Experiment {
            name: "table2",
            paper_ref: "Table 2 / Figure 10: PTD-P vs ZeRO-3",
            run: || Ok(table2()),
        },
        Experiment {
            name: "fig11",
            paper_ref: "Figure 11: pipeline-parallel weak scaling",
            run: || Ok(fig11()),
        },
        Experiment {
            name: "fig12",
            paper_ref: "Figure 12: interleaved vs non-interleaved schedule",
            run: || Ok(fig12()),
        },
        Experiment {
            name: "fig13",
            paper_ref: "Figure 13: tensor vs pipeline parallelism",
            run: || Ok(fig13()),
        },
        Experiment {
            name: "fig14",
            paper_ref: "Figure 14: pipeline vs data parallelism",
            run: || Ok(fig14()),
        },
        Experiment {
            name: "fig15",
            paper_ref: "Figure 15: tensor vs data parallelism",
            run: || Ok(fig15()),
        },
        Experiment {
            name: "fig16",
            paper_ref: "Figure 16: microbatch size at (t,p)=(8,8)",
            run: || Ok(fig16()),
        },
        Experiment {
            name: "fig17",
            paper_ref: "Figure 17: activation recomputation",
            run: || Ok(fig17()),
        },
        Experiment {
            name: "fig18",
            paper_ref: "Figure 18: scatter/gather optimization",
            run: || Ok(fig18()),
        },
        Experiment {
            name: "fusion",
            paper_ref: "Section 5.8: fused operators",
            run: || Ok(fusion()),
        },
        Experiment {
            name: "bisection",
            paper_ref: "Section 5.9: inter-node communication bandwidth",
            run: || Ok(bisection()),
        },
        Experiment {
            name: "checkpoint",
            paper_ref: "Section 5.10: checkpoint loading and saving",
            run: || Ok(checkpoint()),
        },
        Experiment {
            name: "traintime",
            paper_ref: "Section 5.1: end-to-end training time estimates",
            run: || Ok(traintime()),
        },
        Experiment {
            name: "heuristics",
            paper_ref: "Section 3 takeaways: auto-configuration vs Table 1",
            run: || Ok(heuristics_exp()),
        },
        Experiment {
            name: "v100",
            paper_ref: "Section 1: GPT-3 on a single V100 takes ~288 years",
            run: || Ok(v100_years()),
        },
        Experiment {
            name: "ablations",
            paper_ref: "DESIGN.md section 5: design-choice ablations",
            run: || Ok(ablations()),
        },
        Experiment {
            name: "batchscale",
            paper_ref: "Section 3.3.1: throughput rises with global batch size",
            run: || Ok(batchscale()),
        },
        Experiment {
            name: "twobw",
            paper_ref: "Section 2.2/6 future work: PipeDream-2BW no-flush schedule",
            run: || Ok(twobw()),
        },
        Experiment {
            name: "zero-stages",
            paper_ref: "Section 6 related work: ZeRO stages 1/2/3/Infinity tradeoffs",
            run: || Ok(zero_stages()),
        },
        Experiment {
            name: "trace",
            paper_ref: "tooling: Chrome-trace export of a simulated iteration",
            run: || Ok(trace()),
        },
        Experiment {
            name: "faults",
            paper_ref: "Section 5.10 extension: goodput vs MTBF for the Table 1 zoo",
            run: || Ok(faults()),
        },
        Experiment {
            name: "ckpt-interval",
            paper_ref: "Section 5.10 extension: Young/Daly optimal checkpoint interval",
            run: || Ok(ckpt_interval()),
        },
        Experiment {
            name: "recovery",
            paper_ref: "Section 5.10 extension: one fault scenario on threads and processes",
            run: crate::recovery::recovery,
        },
        Experiment {
            name: "analyze",
            paper_ref: "E36: cross-rank critical path, time attribution, what-if bounds",
            run: || Ok(crate::analyze::analyze()),
        },
    ]
}

fn run_ptdp(
    model: GptConfig,
    n_gpus: usize,
    pc: ParallelConfig,
    enforce_memory: bool,
) -> Result<megatron_core::IterationReport, megatron_core::RunError> {
    let cluster = ClusterSpec::selene(n_gpus);
    let mut run = TrainingRun::ptdp(model, cluster, pc);
    run.options.enforce_memory = enforce_memory;
    run.simulate()
}

/// Figure 1: model sizes and training compute of the evaluated family.
pub fn fig1() -> String {
    let mut t = Table::new(["model", "params (B)", "train FLOPs/iter @B=1536 (PF)"]);
    for row in zoo::table1() {
        t.row([
            row.config.name.clone(),
            format!("{:.1}", row.config.params_eq2() / 1e9),
            format!("{:.1}", row.config.flops_per_iteration_eq3(1536) / 1e15),
        ]);
    }
    t.render()
}

/// Eqs. 2 and 3 cross-checked against exact enumeration.
pub fn formulas() -> String {
    let mut t = Table::new(["model", "P exact", "P eq2", "rel err", "F eq3 (B=512, EF)"]);
    for row in zoo::table1() {
        let exact = row.config.params_exact() as f64;
        let eq2 = row.config.params_eq2();
        t.row([
            row.config.name.clone(),
            format!("{exact:.4e}"),
            format!("{eq2:.4e}"),
            format!("{:.2e}", (exact - eq2).abs() / exact),
            format!("{:.3}", row.config.flops_per_iteration_eq3(512) / 1e18),
        ]);
    }
    t.render()
}

/// Figures 3-4: schedule timelines for p=4, m=8 (and v=2 interleaved).
pub fn gantt() -> String {
    let mut out = String::new();
    for (label, kind) in [
        ("GPipe (Figure 3)", ScheduleKind::GPipe),
        (
            "1F1B / PipeDream-Flush (Figure 4, top)",
            ScheduleKind::OneFOneB,
        ),
        (
            "Interleaved 1F1B, v=2 (Figure 4, bottom)",
            ScheduleKind::Interleaved { chunks: 2 },
        ),
    ] {
        let sched = kind.build(4, 8);
        let replay = sched.replay(1.0, 2.0).expect("valid schedule");
        out.push_str(&format!(
            "{label}: bubble fraction measured {:.4}, analytical {:.4}\n",
            replay.bubble_fraction,
            sched.analytical_bubble_fraction()
        ));
        out.push_str(&megatron_schedule::render_replay(&replay, 4, 96));
        out.push('\n');
    }
    out
}

/// Figure 6: pipeline bubble size vs data-parallel size.
pub fn fig6() -> String {
    let mut t = Table::new(["n", "b'=B/b", "d", "bubble fraction (n-d)/b'"]);
    for (n, b_prime) in [(32u64, 32u64), (32, 128), (128, 128), (128, 512)] {
        for d in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            if d > n || n % d != 0 {
                continue;
            }
            t.row([
                n.to_string(),
                b_prime.to_string(),
                d.to_string(),
                format!(
                    "{:.4}",
                    analysis::bubble_fraction_vs_data_parallel(n, d, b_prime)
                ),
            ]);
        }
    }
    t.render()
}

/// Figure 7: single-GPU throughput vs microbatch size for the 1B model.
pub fn fig7() -> String {
    let model = zoo::gpt_1b_microbench();
    let cluster = ClusterSpec::selene(8);
    let mut t = Table::new(["microbatch b", "teraFLOP/s per GPU", "vs b=1"]);
    let mut base = 0.0;
    for b in [1u64, 2, 4, 8, 16] {
        let (tf, tb) = heuristics::device_times(&model, &cluster, 1, 1, b, true);
        // One microbatch of b samples forward+backward; FLOPs per Eq. 3.
        let flops = model.flops_per_iteration_eq3(b);
        let tput = flops / (tf + tb) / 1e12;
        if b == 1 {
            base = tput;
        }
        t.row([
            b.to_string(),
            format!("{tput:.1}"),
            format!("{:.2}x", tput / base),
        ]);
    }
    t.render() + "paper: throughput increases by up to 1.3x with larger microbatch size\n"
}

/// Figure 8: Eq. 1 normalized estimated throughput vs microbatch size,
/// (p,t) = (8,8), batch sizes 128 and 512.
pub fn fig8() -> String {
    let model = zoo::gpt_1b_microbench();
    let cluster = ClusterSpec::selene(64);
    let (p, t, d) = (8u64, 8u64, 1u64);
    let mut out = Table::new(["batch", "microbatch b", "normalized throughput"]);
    for batch in [128u64, 512] {
        let b_prime = batch / d;
        let times: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16]
            .iter()
            .filter(|&&b| b_prime % b == 0)
            .map(|&b| {
                let (tf, tb) = heuristics::device_times(&model, &cluster, p, t, b, true);
                let time = analysis::eq1_batch_time(b_prime, b, p, |_| tf, |_| tb);
                (b, batch as f64 / time)
            })
            .collect();
        let max = times.iter().fold(0.0f64, |a, &(_, x)| a.max(x));
        for (b, tput) in times {
            out.row([
                batch.to_string(),
                b.to_string(),
                format!("{:.3}", tput / max),
            ]);
        }
    }
    out.render() + "paper: optimal microbatch size is 4 for both batch sizes\n"
}

/// Table 1: weak scaling from 1.7B to 1T parameters.
pub fn table1() -> String {
    let mut t = Table::new([
        "model", "(t,p,d)", "GPUs", "batch", "TF/s/GPU", "paper", "% peak", "paper", "agg PF/s",
        "paper",
    ]);
    for row in zoo::table1() {
        let d = row.n_gpus / (row.tensor_parallel * row.pipeline_parallel);
        // The paper uses the interleaved schedule with scatter/gather for
        // Table 1; interleave with v=2 when the pipeline is deep enough and
        // divisibility allows.
        let mut pc = ParallelConfig::new(
            row.pipeline_parallel,
            row.tensor_parallel,
            d,
            microbatch_for(&row),
            row.batch_size,
        );
        let m = pc.microbatches();
        if row.pipeline_parallel > 1
            && m.is_multiple_of(row.pipeline_parallel)
            && row.config.num_layers % (row.pipeline_parallel * 2) == 0
        {
            pc = pc.with_chunks(2);
        }
        match run_ptdp(row.config.clone(), row.n_gpus as usize, pc, true) {
            Ok(r) => t.row([
                row.config.name.clone(),
                format!("({},{},{})", row.tensor_parallel, row.pipeline_parallel, d),
                row.n_gpus.to_string(),
                row.batch_size.to_string(),
                format!("{:.0}", r.tflops_per_gpu),
                format!("{:.0}", row.paper_tflops_per_gpu),
                format!("{:.0}%", r.pct_of_peak),
                format!("{:.0}%", row.paper_pct_peak),
                format!("{:.1}", r.aggregate_pflops),
                format!("{:.1}", row.paper_aggregate_pflops),
            ]),
            Err(e) => t.row([
                row.config.name.clone(),
                format!("({},{},{})", row.tensor_parallel, row.pipeline_parallel, d),
                row.n_gpus.to_string(),
                row.batch_size.to_string(),
                format!("ERR {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    t.render()
}

/// Microbatch sizes for Table 1 rows: the paper doesn't list them; large
/// models used b=1, smaller models larger b (§5.4.3 and Table 2 use b=1 at
/// scale). We use the heuristic's Eq.-1-optimal choice among {1,2,4,8} at
/// the paper's (t, p). This is not `heuristics::suggest_config`'s
/// microbatch loop: that one also tries b = 16, which would move Table 1
/// rows 1–4 from b = 8 to b = 16.
fn microbatch_for(row: &zoo::Table1Row) -> u64 {
    let cluster = ClusterSpec::selene(row.n_gpus as usize);
    let d = row.n_gpus / (row.tensor_parallel * row.pipeline_parallel);
    let b_prime = row.batch_size / d;
    let mut best = (1u64, f64::INFINITY);
    for b in [1u64, 2, 4, 8] {
        if !b_prime.is_multiple_of(b) {
            continue;
        }
        let pc = ParallelConfig::new(
            row.pipeline_parallel,
            row.tensor_parallel,
            d,
            b,
            row.batch_size,
        );
        if pc
            .validate_for_model(&row.config, row.n_gpus, cluster.gpu.mem_capacity, true)
            .is_err()
        {
            continue;
        }
        let (tf, tb) = heuristics::device_times(
            &row.config,
            &cluster,
            row.pipeline_parallel,
            row.tensor_parallel,
            b,
            true,
        );
        let time = analysis::eq1_batch_time(b_prime, b, row.pipeline_parallel, |_| tf, |_| tb);
        if time < best.1 {
            best = (b, time);
        }
    }
    best.0
}

/// Table 2 / Figure 10: PTD-P vs ZeRO-3.
pub fn table2() -> String {
    use megatron_core::zero::ZeroRun;
    let mut t = Table::new([
        "scheme",
        "model",
        "MP size",
        "batch",
        "GPUs",
        "b",
        "TF/s/GPU",
        "paper",
        "days/300B",
        "paper",
    ]);
    // (model, batch, gpus, microbatch, paper TF/s, paper days)
    let zero_rows: [(GptConfig, u64, u64, u64, f64, f64); 6] = [
        (zoo::gpt3_175b(), 1536, 384, 4, 144.0, 90.0),
        (zoo::gpt3_175b(), 1536, 768, 2, 88.0, 74.0),
        (zoo::gpt3_175b(), 1536, 1536, 1, 44.0, 74.0),
        (zoo::gpt_530b(), 2560, 640, 4, 138.0, 169.0),
        (zoo::gpt_530b(), 2240, 1120, 2, 98.0, 137.0),
        (zoo::gpt_530b(), 2240, 2240, 1, 48.0, 140.0),
    ];
    for (model, batch, gpus, b, paper_tf, paper_days) in zero_rows {
        let cluster = ClusterSpec::selene(gpus as usize);
        let run = ZeroRun::new(model.clone(), cluster, batch, b);
        let r = run.simulate();
        let days = model.training_time_eq4(300e9, gpus as f64, r.tflops_per_gpu * 1e12) / 86400.0;
        t.row([
            "ZeRO-3".to_string(),
            model.name.clone(),
            "1".to_string(),
            batch.to_string(),
            gpus.to_string(),
            b.to_string(),
            format!("{:.0}", r.tflops_per_gpu),
            format!("{paper_tf:.0}"),
            format!("{days:.0}"),
            format!("{paper_days:.0}"),
        ]);
    }
    // PTD-P rows: (model, mp (t,p), batch, gpus, paper TF/s, paper days)
    let ptdp_rows: [(GptConfig, u64, u64, u64, u64, f64, f64); 6] = [
        (zoo::gpt3_175b(), 8, 12, 1536, 384, 153.0, 84.0),
        (zoo::gpt3_175b(), 8, 12, 1536, 768, 149.0, 43.0),
        (zoo::gpt3_175b(), 8, 12, 1536, 1536, 141.0, 23.0),
        (zoo::gpt_530b(), 8, 35, 2240, 560, 171.0, 156.0),
        (zoo::gpt_530b(), 8, 35, 2240, 1120, 167.0, 80.0),
        (zoo::gpt_530b(), 8, 35, 2240, 2240, 159.0, 42.0),
    ];
    for (model, tp, pp, batch, gpus, paper_tf, paper_days) in ptdp_rows {
        let d = gpus / (tp * pp);
        let pc = ParallelConfig::new(pp, tp, d, 1, batch);
        let cell = match run_ptdp(model.clone(), gpus as usize, pc, true) {
            Ok(r) => {
                let days =
                    model.training_time_eq4(300e9, gpus as f64, r.tflops_per_gpu * 1e12) / 86400.0;
                (format!("{:.0}", r.tflops_per_gpu), format!("{days:.0}"))
            }
            Err(e) => (format!("ERR {e}"), String::new()),
        };
        t.row([
            "PTD-P".to_string(),
            model.name.clone(),
            (tp * pp).to_string(),
            batch.to_string(),
            gpus.to_string(),
            "1".to_string(),
            cell.0,
            format!("{paper_tf:.0}"),
            cell.1,
            format!("{paper_days:.0}"),
        ]);
    }
    t.render()
}

/// Figure 11: pipeline-parallel weak scaling (batch 8 vs 128).
pub fn fig11() -> String {
    let mut t = Table::new(["p", "model", "batch", "TF/s/GPU", "idle frac"]);
    for p in [1u64, 2, 4, 8] {
        let model = zoo::pipeline_weak_scaling(p);
        for batch in [8u64, 128] {
            let pc = ParallelConfig::new(p, 8, 1, 1, batch);
            match run_ptdp(model.clone(), (8 * p) as usize, pc, false) {
                Ok(r) => t.row([
                    p.to_string(),
                    model.name.clone(),
                    batch.to_string(),
                    format!("{:.0}", r.tflops_per_gpu),
                    format!("{:.3}", r.measured_idle_fraction),
                ]),
                Err(e) => t.row([
                    p.to_string(),
                    model.name.clone(),
                    batch.to_string(),
                    format!("ERR {e}"),
                    String::new(),
                ]),
            }
        }
    }
    t.render() + "paper: higher batch size scales better since the pipeline bubble is amortized\n"
}

/// Figure 12: interleaved vs non-interleaved 1F1B on GPT-3 175B, 96 GPUs.
pub fn fig12() -> String {
    let model = zoo::gpt3_175b();
    let (tp, pp) = (8u64, 12u64);
    let mut t = Table::new(["batch", "non-interleaved TF/s", "interleaved TF/s", "gain"]);
    for batch in [12u64, 24, 36, 48, 60] {
        let base = ParallelConfig::new(pp, tp, 1, 1, batch);
        let inter = base.with_chunks(2);
        let rb = run_ptdp(model.clone(), 96, base, false);
        let ri = run_ptdp(model.clone(), 96, inter, false);
        match (rb, ri) {
            (Ok(rb), Ok(ri)) => t.row([
                batch.to_string(),
                format!("{:.0}", rb.tflops_per_gpu),
                format!("{:.0}", ri.tflops_per_gpu),
                format!(
                    "{:+.1}%",
                    100.0 * (ri.tflops_per_gpu / rb.tflops_per_gpu - 1.0)
                ),
            ]),
            (rb, ri) => t.row([
                batch.to_string(),
                rb.map(|r| format!("{:.0}", r.tflops_per_gpu))
                    .unwrap_or_else(|e| format!("ERR {e}")),
                ri.map(|r| format!("{:.0}", r.tflops_per_gpu))
                    .unwrap_or_else(|e| format!("ERR {e}")),
                String::new(),
            ]),
        }
    }
    t.render() + "paper: interleaving wins at small batch; the gap closes as batch grows\n"
}

/// Figure 13: (t, p) combinations for the 162.2B model on 64 GPUs.
pub fn fig13() -> String {
    let model = zoo::gpt_162b();
    let mut t = Table::new(["(p,t)", "batch", "TF/s/GPU", "note"]);
    for (p, tp) in [(32u64, 2u64), (16, 4), (8, 8), (4, 16), (2, 32)] {
        for batch in [32u64, 128] {
            let pc = ParallelConfig::new(p, tp, 1, 1, batch);
            let note = if tp > 8 { "t spans nodes" } else { "" };
            match run_ptdp(model.clone(), 64, pc, false) {
                Ok(r) => t.row([
                    format!("({p},{tp})"),
                    batch.to_string(),
                    format!("{:.0}", r.tflops_per_gpu),
                    note.to_string(),
                ]),
                Err(e) => t.row([
                    format!("({p},{tp})"),
                    batch.to_string(),
                    format!("ERR {e}"),
                    note.to_string(),
                ]),
            }
        }
    }
    t.render() + "paper: peak at (t,p)=(8,8) - tensor parallelism within a node, pipeline across\n"
}

/// Figure 14: (p, d) combinations for the 5.9B model on 64 GPUs, t = 1
/// ("models that fit when the model-parallel size is only 2" — pipeline
/// parallelism alone provides the model-parallel factor here).
pub fn fig14() -> String {
    let model = zoo::gpt_5p9b();
    let mut t = Table::new(["(p,d)", "batch", "TF/s/GPU"]);
    for (p, d) in [(2u64, 32u64), (4, 16), (8, 8), (16, 4), (32, 2)] {
        for batch in [32u64, 128, 512] {
            let pc = ParallelConfig::new(p, 1, d, 1, batch);
            match run_ptdp(model.clone(), 64, pc, false) {
                Ok(r) => t.row([
                    format!("({p},{d})"),
                    batch.to_string(),
                    format!("{:.0}", r.tflops_per_gpu),
                ]),
                Err(e) => t.row([format!("({p},{d})"), batch.to_string(), format!("ERR {e}")]),
            }
        }
    }
    t.render() + "paper: throughput decreases as the pipeline-parallel size rises; use data\nparallelism to scale out and pipeline only to fit the model\n"
}

/// Figure 15: (t, d) combinations for the 5.9B model on 64 GPUs, p = 1.
pub fn fig15() -> String {
    let model = zoo::gpt_5p9b();
    let mut t = Table::new(["(t,d)", "batch", "TF/s/GPU", "note"]);
    for (tp, d) in [(2u64, 32u64), (4, 16), (8, 8), (16, 4), (32, 2)] {
        for batch in [32u64, 128, 512] {
            let pc = ParallelConfig::new(1, tp, d, 1, batch);
            let note = if tp > 8 { "t spans nodes" } else { "" };
            match run_ptdp(model.clone(), 64, pc, false) {
                Ok(r) => t.row([
                    format!("({tp},{d})"),
                    batch.to_string(),
                    format!("{:.0}", r.tflops_per_gpu),
                    note.to_string(),
                ]),
                Err(e) => t.row([
                    format!("({tp},{d})"),
                    batch.to_string(),
                    format!("ERR {e}"),
                    note.to_string(),
                ]),
            }
        }
    }
    t.render() + "paper: throughput falls as t grows (all-to-all per microbatch, smaller GEMMs)\n"
}

/// Figure 16: microbatch size sweep for the 91B model, (t,p)=(8,8).
pub fn fig16() -> String {
    let model = zoo::gpt_91b();
    let mut t = Table::new(["batch", "microbatch", "TF/s/GPU"]);
    for batch in [128u64, 512] {
        for b in [1u64, 2, 4, 8] {
            let pc = ParallelConfig::new(8, 8, 1, b, batch);
            match run_ptdp(model.clone(), 64, pc, false) {
                Ok(r) => t.row([
                    batch.to_string(),
                    b.to_string(),
                    format!("{:.0}", r.tflops_per_gpu),
                ]),
                Err(e) => t.row([batch.to_string(), b.to_string(), format!("ERR {e}")]),
            }
        }
    }
    t.render() + "paper: best microbatch size is 2 for this model (model-dependent)\n"
}

/// Figure 17: throughput with and without activation recomputation,
/// 145B model, (t,p)=(8,16), 128 GPUs. Memory is judged against the
/// practically usable fraction of the 80 GB device (see
/// `heuristics::USABLE_MEMORY_FRACTION`), which is what
/// makes the paper's non-recompute line stop at moderate batch sizes.
pub fn fig17() -> String {
    let model = zoo::gpt_145b();
    let usable = (80.0 * (1u64 << 30) as f64 * heuristics::USABLE_MEMORY_FRACTION) as u64;
    let mut t = Table::new(["batch", "recompute", "seq/s", "memory GiB/GPU"]);
    for batch in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        for recompute in [false, true] {
            let pc = ParallelConfig::new(16, 8, 1, 1, batch);
            let cluster = ClusterSpec::selene(128);
            let mut run = TrainingRun::ptdp(model.clone(), cluster, pc);
            run.options.recompute = recompute;
            match run.simulate() {
                Ok(r) if r.memory_bytes_per_gpu > usable => t.row([
                    batch.to_string(),
                    recompute.to_string(),
                    "OOM".to_string(),
                    format!(
                        "{} (> {} usable)",
                        r.memory_bytes_per_gpu >> 30,
                        usable >> 30
                    ),
                ]),
                Ok(r) => t.row([
                    batch.to_string(),
                    recompute.to_string(),
                    format!("{:.2}", r.sequences_per_second),
                    format!("{}", r.memory_bytes_per_gpu >> 30),
                ]),
                Err(e) => t.row([
                    batch.to_string(),
                    recompute.to_string(),
                    format!("ERR {e}"),
                    String::new(),
                ]),
            }
        }
    }
    t.render()
        + "paper: recomputation costs up to 33% at small batch but enables large batches\nwhere throughput is up to 2x the best non-recompute point\n"
}

/// Figure 18: scatter/gather optimization, GPT-3 175B, 96 GPUs, interleaved.
pub fn fig18() -> String {
    let model = zoo::gpt3_175b();
    let mut t = Table::new(["batch", "unoptimized TF/s", "scatter/gather TF/s", "gain"]);
    for batch in [12u64, 24, 36, 48, 60] {
        // 96 layers over 12 devices leave 8 layers per device; the paper's
        // communication-intensive setting interleaves them as 8 one-layer
        // chunks.
        let pc = ParallelConfig::new(12, 8, 1, 1, batch).with_chunks(8);
        let cluster = ClusterSpec::selene(96);
        let mut with = TrainingRun::ptdp(model.clone(), cluster, pc);
        with.options.enforce_memory = false;
        let mut without = with.clone();
        without.options.scatter_gather = false;
        match (without.simulate(), with.simulate()) {
            (Ok(a), Ok(b)) => t.row([
                batch.to_string(),
                format!("{:.0}", a.tflops_per_gpu),
                format!("{:.0}", b.tflops_per_gpu),
                format!(
                    "{:+.1}%",
                    100.0 * (b.tflops_per_gpu / a.tflops_per_gpu - 1.0)
                ),
            ]),
            _ => t.row([batch.to_string(), "ERR".into(), "ERR".into(), String::new()]),
        }
    }
    t.render() + "paper: up to 11% improvement for communication-intensive schedules\n"
}

/// §5.8: operator fusion on the 175B and 530B models.
pub fn fusion() -> String {
    let mut t = Table::new(["model", "unfused TF/s", "fused TF/s", "gain", "paper"]);
    let cases = [
        (
            zoo::gpt3_175b(),
            12u64,
            8u64,
            1536u64,
            96usize * 16,
            "19% (113->135)",
        ),
        (zoo::gpt_530b(), 35, 8, 2520, 2520, "11% (133->148)"),
    ];
    for (model, pp, tp, batch, gpus, paper) in cases {
        let d = gpus as u64 / (pp * tp);
        let pc = ParallelConfig::new(pp, tp, d, 1, batch);
        let cluster = ClusterSpec::selene(gpus);
        let mut fused = TrainingRun::ptdp(model.clone(), cluster, pc);
        fused.options.enforce_memory = false;
        let mut unfused = fused.clone();
        unfused.options.fused = false;
        match (unfused.simulate(), fused.simulate()) {
            (Ok(a), Ok(b)) => t.row([
                model.name.clone(),
                format!("{:.0}", a.tflops_per_gpu),
                format!("{:.0}", b.tflops_per_gpu),
                format!(
                    "{:+.1}%",
                    100.0 * (b.tflops_per_gpu / a.tflops_per_gpu - 1.0)
                ),
                paper.to_string(),
            ]),
            _ => t.row([
                model.name.clone(),
                "ERR".into(),
                "ERR".into(),
                "".into(),
                paper.into(),
            ]),
        }
    }
    t.render()
}

/// §5.9: effective bisection bandwidths on the trillion-parameter run.
pub fn bisection() -> String {
    let model = zoo::gpt_1t();
    // Table 1's trillion-parameter run uses the interleaved schedule.
    let pc = ParallelConfig::new(64, 8, 6, 1, 3072).with_chunks(2);
    match run_ptdp(model, 3072, pc, true) {
        Ok(r) => format!(
            "pipeline p2p inter-node volume/iteration: {:.1} TB; effective bandwidth \
             {:.0} GB/s (paper: 892 GB/s)\n\
             data-parallel all-reduce inter-node volume/iteration: {:.1} TB; rate while \
             communicating {:.1} TB/s (paper: 12.9 TB/s; our simulated rings sustain \
             near-peak HCA bandwidth, so the while-communicating rate is higher)\n\
             iteration time: {:.2} s\n",
            r.comm.pipeline_bisection_bytes / 1e12,
            r.pipeline_bisection_bandwidth() / 1e9,
            r.comm.data_parallel_bisection_bytes / 1e12,
            r.data_parallel_bisection_bandwidth() / 1e12,
            r.iteration_time
        ),
        Err(e) => format!("ERR {e}\n"),
    }
}

/// §5.10: checkpoint I/O for the trillion-parameter model.
pub fn checkpoint() -> String {
    let io = CheckpointIo::estimate(&zoo::gpt_1t(), &FilesystemSpec::selene(), 384);
    format!(
        "checkpoint size: {:.1} TB (paper: 13.8 TB)\n\
         load: {:.1} s at {:.2} TB/s read (paper: peak 1 TB/s)\n\
         save: {:.1} s at {:.0} GB/s write (paper: 273 GB/s, 40% of peak)\n",
        io.bytes as f64 / 1e12,
        io.load_seconds,
        io.read_bandwidth / 1e12,
        io.save_seconds,
        io.write_bandwidth / 1e9,
    )
}

/// §5.1: training-time estimates via Eq. 4.
pub fn traintime() -> String {
    let mut t = Table::new(["model", "tokens", "GPUs", "TF/s/GPU", "days (eq4)", "paper"]);
    let gpt3 = zoo::gpt3_175b();
    t.row([
        gpt3.name.clone(),
        "300B".into(),
        "1024".into(),
        "140".into(),
        format!(
            "{:.0}",
            gpt3.training_time_eq4(300e9, 1024.0, 140e12) / 86400.0
        ),
        "34".into(),
    ]);
    let one_t = zoo::gpt_1t();
    t.row([
        one_t.name.clone(),
        "450B".into(),
        "3072".into(),
        "163".into(),
        format!(
            "{:.0}",
            one_t.training_time_eq4(450e9, 3072.0, 163e12) / 86400.0
        ),
        "84".into(),
    ]);
    t.render()
}

/// §3 takeaways: the heuristic configurator vs the paper's Table 1 choices.
pub fn heuristics_exp() -> String {
    let mut t = Table::new(["model", "paper (t,p)", "heuristic (t,p,d,b)"]);
    for row in zoo::table1() {
        let cluster = ClusterSpec::selene(row.n_gpus as usize);
        match heuristics::suggest_config(&row.config, &cluster, row.batch_size) {
            Ok(c) => t.row([
                row.config.name.clone(),
                format!("({},{})", row.tensor_parallel, row.pipeline_parallel),
                format!("({},{},{},{})", c.tensor, c.pipeline, c.data, c.microbatch),
            ]),
            Err(e) => t.row([
                row.config.name.clone(),
                format!("({},{})", row.tensor_parallel, row.pipeline_parallel),
                format!("ERR {e}"),
            ]),
        }
    }
    t.render()
}

/// §1's motivating claim: "training GPT-3 with 175 billion parameters would
/// require approximately 288 years with a single V100 NVIDIA GPU".
pub fn v100_years() -> String {
    use megatron_core::cluster::{GpuSpec, NodeSpec};
    let model = zoo::gpt3_175b();
    let cluster = ClusterSpec::custom(GpuSpec::v100_32gb(), NodeSpec::dgx_a100(), 1);
    // Per-sample compute throughput of one V100 (ignoring the impossibility
    // of fitting the model — the paper's thought experiment does too).
    let (tf, tb) = heuristics::device_times(&model, &cluster, 1, 1, 1, true);
    let x = model.flops_per_iteration_eq3(1) / (tf + tb);
    let secs = model.training_time_exact(300e9, 1, 1.0, x);
    format!(
        "single V100 sustained throughput: {:.0} teraFLOP/s ({:.0}% of 125 peak)\n\
         GPT-3 (175B, 300B tokens) on ONE V100: {:.0} years (paper: ~288 years)\n",
        x / 1e12,
        100.0 * x / 125e12,
        secs / (86400.0 * 365.0),
    )
}

/// Design-choice ablations beyond the paper's figures (DESIGN.md §5):
/// rank-placement, blocking-p2p, and interleaving-degree sensitivity.
pub fn ablations() -> String {
    let mut out = String::new();

    // 1. Tensor-parallel placement: t within a node vs spanning nodes for
    //    the same (t,p) product (Figure 13's mechanism isolated).
    let model = zoo::gpt_162b();
    let mut t = Table::new(["ablation", "config", "TF/s/GPU"]);
    for (label, tp, pp) in [("t inside node", 8u64, 8u64), ("t spans 2 nodes", 16, 4)] {
        let pc = ParallelConfig::new(pp, tp, 1, 1, 32);
        match run_ptdp(model.clone(), 64, pc, false) {
            Ok(r) => t.row([
                "tensor placement".to_string(),
                format!("(t={tp}, p={pp}) {label}"),
                format!("{:.0}", r.tflops_per_gpu),
            ]),
            Err(e) => t.row(["tensor placement".into(), label.into(), format!("ERR {e}")]),
        }
    }

    // 2. Blocking vs idealized fully-overlapped pipeline p2p.
    let pc = ParallelConfig::new(12, 8, 1, 1, 24).with_chunks(8);
    let cluster = ClusterSpec::selene(96);
    let mut blocking = TrainingRun::ptdp(zoo::gpt3_175b(), cluster, pc);
    blocking.options.enforce_memory = false;
    let mut overlapped = blocking.clone();
    overlapped.options.blocking_p2p = false;
    for (label, run) in [
        ("synchronous sends (real)", &blocking),
        ("ideal overlap", &overlapped),
    ] {
        match run.simulate() {
            Ok(r) => t.row([
                "p2p blocking".to_string(),
                label.to_string(),
                format!("{:.0}", r.tflops_per_gpu),
            ]),
            Err(e) => t.row(["p2p blocking".into(), label.into(), format!("ERR {e}")]),
        }
    }

    // 3. Interleaving degree v: bubble shrinks as 1/v but communication
    //    grows as v — a sweet spot appears.
    let model = zoo::gpt3_175b(); // 96 layers / 12 devices = up to v=8
    for v in [1u64, 2, 4, 8] {
        let pc = ParallelConfig::new(12, 8, 1, 1, 24).with_chunks(v);
        match run_ptdp(model.clone(), 96, pc, false) {
            Ok(r) => t.row([
                "interleave degree".to_string(),
                format!("v={v} (bubble {:.3})", r.analytical_bubble_fraction),
                format!("{:.0}", r.tflops_per_gpu),
            ]),
            Err(e) => t.row([
                "interleave degree".into(),
                format!("v={v}"),
                format!("ERR {e}"),
            ]),
        }
    }

    out.push_str(&t.render());
    out
}

/// Export a Chrome `about:tracing` timeline of one simulated iteration
/// (open `chrome://tracing` or Perfetto and load the file).
pub fn trace() -> String {
    let model = zoo::gpt_5p9b();
    let pc = ParallelConfig::new(8, 2, 4, 1, 64);
    let run = TrainingRun::ptdp(model, ClusterSpec::selene(64), pc);
    match run.simulate_traced() {
        Ok((report, trace)) => {
            let path = "trace_gpt5.9b_p8.json";
            match std::fs::write(path, &trace) {
                Ok(()) => format!(
                    "wrote {path} ({} KiB, {:.2} s simulated iteration)\nopen in chrome://tracing or ui.perfetto.dev\n",
                    trace.len() / 1024,
                    report.iteration_time
                ),
                Err(e) => format!("could not write {path}: {e}\n"),
            }
        }
        Err(e) => format!("ERR {e}\n"),
    }
}

/// Goodput vs failure rate for the Table 1 zoo: each row's §5.10
/// checkpoint costs composed with an MTBF failure model, evaluated at the
/// row's Young/Daly checkpoint interval. A second section shows what a
/// seeded week of faults on the 1T run's 3072 GPUs actually looks like.
pub fn faults() -> String {
    use crate::fault_plan::{FaultPlan, FaultRates};
    use megatron_core::goodput::SteadyState;
    let fs = FilesystemSpec::selene();
    let relaunch_s = 120.0; // job requeue + process launch on top of §5.10 load
    let mut t = Table::new([
        "model",
        "GPUs",
        "save s",
        "MTBF",
        "ckpt every",
        "goodput",
        "ckpt ovh",
        "lost work",
    ]);
    for row in zoo::table1() {
        for (label, mtbf_h) in [("6h", 6.0), ("24h", 24.0), ("1wk", 168.0)] {
            let m = SteadyState::for_table1_row(&row, &fs, mtbf_h * 3600.0, relaunch_s);
            let tau = m.young_daly_interval();
            let l = m.ledger(tau);
            t.row([
                row.config.name.clone(),
                row.n_gpus.to_string(),
                format!("{:.1}", m.save_s),
                label.to_string(),
                format!("{:.1} min", tau / 60.0),
                format!("{:.1}%", 100.0 * l.goodput()),
                // Saves' share of the time the job runs between failures.
                format!("{:.2}%", 100.0 * l.save / (l.useful + l.save)),
                format!("{:.2}%", 100.0 * (l.lost + l.restore) / l.wall_s()),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str(
        "goodput falls monotonically as MTBF shrinks; bigger checkpoints (save s)\n\
         force longer intervals and lose more work per failure\n\n",
    );

    // One concrete week on the trillion-parameter run: a seeded plan of
    // every fault class, counted by class.
    let week = 7.0 * 24.0 * 3600.0;
    let rates = FaultRates {
        gpu_death_mtbf_s: 24.0 * 3600.0,
        node_death_mtbf_s: 7.0 * 24.0 * 3600.0,
        link_degrade_mtbf_s: 12.0 * 3600.0,
        link_flap_mtbf_s: 24.0 * 3600.0,
        straggler_mtbf_s: 6.0 * 3600.0,
    };
    let plan = FaultPlan::generate(0xfa11, 3072, week, &rates);
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for ev in &plan.events {
        *counts.entry(ev.kind.label()).or_default() += 1;
    }
    out.push_str(&format!(
        "seeded fault plan, 1T run (3072 GPUs), one week, cluster-wide MTBFs\n\
         (gpu-death 24h, node-death 1wk, link-degrade 12h, link-flap 24h, straggler 6h):\n\
         {} events total: {}\n",
        plan.events.len(),
        counts
            .iter()
            .map(|(k, v)| format!("{v} {k}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out
}

/// Young/Daly √(2δM) checkpoint interval vs the brute-force optimum for
/// the trillion-parameter run at §5.10 checkpoint costs.
pub fn ckpt_interval() -> String {
    use megatron_core::goodput::SteadyState;
    let rows = zoo::table1();
    let row = rows.last().expect("Table 1 is non-empty"); // 1T, 3072 GPUs
    let fs = FilesystemSpec::selene();
    let mut t = Table::new([
        "MTBF",
        "Young/Daly",
        "brute force",
        "interval err",
        "goodput (YD)",
        "goodput (BF)",
    ]);
    for (label, mtbf_h) in [("1h", 1.0), ("4h", 4.0), ("24h", 24.0), ("1wk", 168.0)] {
        let m = SteadyState::for_table1_row(row, &fs, mtbf_h * 3600.0, 120.0);
        let yd = m.young_daly_interval();
        let bf = m.optimal_interval_brute_force(10.0, m.mtbf_s, 20_000);
        t.row([
            label.to_string(),
            format!("{:.1} min", yd / 60.0),
            format!("{:.1} min", bf / 60.0),
            format!("{:+.1}%", 100.0 * (yd / bf - 1.0)),
            format!("{:.3}%", 100.0 * m.ledger(yd).goodput()),
            format!("{:.3}%", 100.0 * m.ledger(bf).goodput()),
        ]);
    }
    t.render()
        + "the analytic interval lands within a few percent of the sweep and its\n\
           goodput within 0.2% — the optimum is flat, which is why √(2δM) is the\n\
           operational rule of thumb\n"
}

/// §6 "Sharded Data Parallelism" related work, quantified: the
/// memory-vs-communication ladder of ZeRO stages for GPT-3 on 384 GPUs.
pub fn zero_stages() -> String {
    use megatron_core::zero::{ZeroRun, ZeroStage};
    let model = zoo::gpt3_175b();
    let cluster = ClusterSpec::selene(384);
    let mut t = Table::new([
        "stage",
        "memory GiB/GPU",
        "comm s/iter",
        "TF/s/GPU",
        "fits 80 GB?",
    ]);
    for (name, stage) in [
        ("ZeRO-1 (optimizer shard)", ZeroStage::One),
        ("ZeRO-2 (+ gradient shard)", ZeroStage::Two),
        ("ZeRO-3 (+ parameter shard)", ZeroStage::Three),
        ("ZeRO-Infinity (NVMe offload)", ZeroStage::Infinity),
    ] {
        let r = ZeroRun::new(model.clone(), cluster.clone(), 1536, 4)
            .with_stage(stage)
            .simulate();
        t.row([
            name.to_string(),
            format!("{}", r.memory_bytes_per_gpu >> 30),
            format!("{:.1}", r.comm_time),
            format!("{:.0}", r.tflops_per_gpu),
            if r.memory_bytes_per_gpu <= 80 * (1 << 30) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    t.render()
        + "stages 1-2 cannot even hold a 175B model (replicated fp16 parameters);\nstage 3 fits but pays 1.5x the parameter traffic; Infinity fits anywhere and\npays the NVMe bill — 'a small number of GPUs ... results in unrealistic\ntraining times' (section 6)\n"
}

/// The flush-vs-no-flush tradeoff the paper defers to future work (§2.2):
/// PipeDream-2BW eliminates the pipeline bubble at the cost of 1-stale
/// weight updates, so its steady-state speedup over a flushed 1F1B
/// schedule is `1 + bubble`, the bubble read off a replay of that schedule.
pub fn twobw() -> String {
    let mut t = Table::new(["p", "m", "flushed bubble", "2BW steady-state speedup"]);
    for (p, m) in [(8, 8), (8, 32), (8, 128), (64, 512)] {
        let bubble = ScheduleKind::OneFOneB
            .build(p, m)
            .replay(1.0, 2.0)
            .expect("valid schedule")
            .bubble_fraction;
        t.row([
            p.to_string(),
            m.to_string(),
            format!("{:.3}", bubble),
            format!("{:.3}x", 1.0 + bubble),
        ]);
    }
    t.render()
        + "the paper trains only flushed schedules (strict optimizer semantics);\n\
           no-flush pipelining is the semantics/throughput tradeoff it cites for\n\
           PipeDream-2BW and PipeMare\n"
}

/// §3.3.1's batch-size analysis: "as the batch size B increases ... the
/// pipeline bubble shrinks and data-parallel communication becomes more
/// infrequent, increasing throughput". Fixed 175B configuration, rising B.
pub fn batchscale() -> String {
    let model = zoo::gpt3_175b();
    let mut t = Table::new(["batch", "m per pipeline", "bubble", "TF/s/GPU"]);
    for batch in [64u64, 128, 256, 512, 1024, 1536] {
        let pc = ParallelConfig::new(12, 8, 8, 1, batch);
        match run_ptdp(model.clone(), 768, pc, true) {
            Ok(r) => t.row([
                batch.to_string(),
                pc.microbatches().to_string(),
                format!("{:.3}", r.analytical_bubble_fraction),
                format!("{:.0}", r.tflops_per_gpu),
            ]),
            Err(e) => t.row([
                batch.to_string(),
                String::new(),
                String::new(),
                format!("ERR {e}"),
            ]),
        }
    }
    t.render() + "throughput rises monotonically with batch size (bubble amortization +\nless frequent gradient all-reduce)\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_rows(out: &str, rows: &[&str]) {
        for row in rows {
            assert!(
                out.lines().any(|l| l == *row),
                "missing row {row:?} in\n{out}"
            );
        }
    }

    /// E28 (`repro faults`): the trillion-parameter rows at each MTBF and the
    /// seeded week of faults, exactly as printed.
    #[test]
    fn faults_prints_its_pinned_rows() {
        assert_rows(
            &faults(),
            &[
                "GPT 1008B   3072  51.7    6h    24.9 min    92.7%    3.34%     4.08%",
                "GPT 1008B   3072  51.7    24h   49.8 min    96.4%    1.70%     1.88%",
                "GPT 1008B   3072  51.7    1wk   131.7 min   98.7%    0.65%     0.68%",
                "58 events total: 10 gpu-death, 16 link-degrade, 5 link-flap, 1 node-death, \
                 26 straggler",
            ],
        );
    }

    /// E29 (`repro ckpt-interval`): every MTBF row of the interval table,
    /// exactly as printed.
    #[test]
    fn ckpt_interval_prints_its_pinned_rows() {
        assert_rows(
            &ckpt_interval(),
            &[
                "1h    10.2 min    9.1 min      +11.1%        80.948%       81.026%",
                "4h    20.3 min    19.4 min     +4.8%         90.980%       90.989%",
                "24h   49.8 min    48.9 min     +1.8%         96.448%       96.449%",
                "1wk   131.7 min   130.9 min    +0.7%         98.679%       98.679%",
            ],
        );
    }
}
