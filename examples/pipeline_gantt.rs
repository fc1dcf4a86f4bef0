//! Visualize the three pipeline schedules (the paper's Figures 3 and 4) as
//! ASCII Gantt charts, with measured vs analytical bubble fractions, plus a
//! priced timeline for a real model configuration.
//!
//! Digits = forward passes (microbatch id mod 10); letters a-j = backward
//! passes; dots = idle (the pipeline bubble).
//!
//! Run with: `cargo run --release --example pipeline_gantt`

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::zoo;
use megatron_repro::core::parallel::ParallelConfig;
use megatron_repro::core::TrainingRun;
use megatron_repro::schedule::{render_replay, ScheduleKind};

fn main() {
    let (p, m) = (4, 8);
    println!("p = {p} pipeline stages, m = {m} microbatches, t_b = 2·t_f\n");

    for (label, kind) in [
        (
            "GPipe — all-forward then all-backward (Figure 3)",
            ScheduleKind::GPipe,
        ),
        (
            "1F1B / PipeDream-Flush (Figure 4, top)",
            ScheduleKind::OneFOneB,
        ),
        (
            "Interleaved 1F1B with v = 2 chunks (Figure 4, bottom)",
            ScheduleKind::Interleaved { chunks: 2 },
        ),
    ] {
        let sched = kind.build(p, m);
        let replay = sched.replay(1.0, 2.0).expect("valid schedule");
        println!("{label}");
        println!(
            "  bubble: measured {:.4} | analytical (p-1)/(v·m) = {:.4} | peak stash: {:?} chunks",
            replay.bubble_fraction,
            sched.analytical_bubble_fraction(),
            replay.peak_in_flight
        );
        print!("{}", render_replay(&replay, p, 100));
        println!();
    }

    // A priced timeline: the 162.2B model at (t,p) = (8,8) on 64 GPUs.
    let model = zoo::gpt_162b();
    let run = TrainingRun::ptdp(
        model,
        ClusterSpec::selene(64),
        ParallelConfig::new(8, 8, 1, 1, 16),
    );
    println!("GPT 162.2B, (t,p,d) = (8,8,1), batch 16 — priced stage times:");
    print!("{}", run.ideal_gantt(100).expect("valid run"));
}
