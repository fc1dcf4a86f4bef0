//! E36: cross-rank critical-path analysis and time attribution.
//!
//! Runs a seeded `(p=2, t=2, d=2)` job on the real thread-per-GPU trainer
//! and its simulated twin, then feeds **both** Chrome traces — one dialect:
//! the twin records the trainer's spans — through the `megatron-telemetry`
//! analyzer: happens-before DAG, exact per-iteration critical path, and an
//! attribution breakdown whose categories tile the measured iteration time
//! (residue ≤ 1% is the acceptance gate; the construction makes it ~0).
//!
//! Cross-checks, all fatal on violation (the CI `analyze-smoke` gate):
//!
//! * comm bytes seen by the analyzer on rank `(p0,d0,t0)` equal the §3
//!   closed-form volumes (f32 wire = 2× the fp16 formulas);
//! * the sim trace's comm spans carry exactly the §3 fp16 volumes the
//!   `price_layer` priced, and their durations sum to the simulator's own
//!   `TimeBreakdown` comm terms;
//! * real-vs-sim per-phase shares agree within a drift bound;
//! * exposed-comm on the sim path never exceeds the priced comm time.
//!
//! Writes both traces and the run's per-iteration `metrics.jsonl` to a
//! temp dir, `BENCH_attribution.json` (shared [`crate::perf`] schema) for
//! the `repro sentry` regression gate, and surfaces the per-rank
//! `spans_dropped` counters so silent ring-buffer overflow is visible.

use megatron_core::model::BYTES_FP16;
use megatron_core::parallel::analysis;
use megatron_dist::{PtdpSpec, PtdpTrainer, RunControl};
use megatron_sim::json::Json;
use megatron_telemetry::{
    chrome_trace_json, critical_path, parse_chrome_trace, rank_usage, what_if, Attribution, Phase,
    RankUsage, SinkConfig, TelemetrySink, TraceDag, WhatIf, Window,
};
use megatron_tensor::gpt::GptModel;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::perf::{bench_json, write_bench_json};
use crate::table::Table;
use crate::timeline::{make_data, twin, REAL_CFG};

/// Acceptance gate: attribution categories must sum to the measured
/// iteration time within this fraction.
const RESIDUAL_GATE: f64 = 0.01;
/// Drift bound: no phase share may differ sim-vs-real by more than this
/// (the sim prices A100s, the real "GPUs" are CPU threads — shares, not
/// absolute times, are comparable; a phase off by more than 75 pp means a
/// broken exporter or a broken cost model, not noise).
const DRIFT_GATE: f64 = 0.75;

fn comm_seconds(dag: &TraceDag, rank: usize) -> f64 {
    dag.ranks[rank]
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Comm)
        .map(|s| s.dur_ns as f64 / 1e9)
        .sum()
}

/// Pipeline transfers, in the real trace and the twin's alike.
fn is_p2p_send(name: &str) -> bool {
    name.starts_with("p2p-send-")
}

fn bytes_where(dag: &TraceDag, rank: usize, pred: impl Fn(&str) -> bool) -> f64 {
    dag.ranks[rank]
        .spans
        .iter()
        .filter(|s| pred(&s.name))
        .filter_map(|s| s.bytes)
        .sum()
}

/// Minor page faults, CPU time and context switches on each rank's thread
/// and the system calls of its socket node per steady-state iteration (all
/// but a launch's first), from the ranks' telemetry counters.
fn usage_report(usage: &[RankUsage]) -> String {
    let mut table = Table::new([
        "rank",
        "iterations",
        "minor faults",
        "faults / iter",
        "CPU ms / iter",
        "vol. switches / iter",
        "invol. switches / iter",
        "polls / iter",
        "reads / iter",
        "writes / iter",
    ]);
    for u in usage {
        table.row(
            [
                u.rank.to_string(),
                u.iterations.to_string(),
                u.faults.to_string(),
                format!("{:.1}", u.faults_per_iteration()),
                format!("{:.2}", u.cpu_ms_per_iteration()),
                format!("{:.1}", u.switches_per_iteration().0),
                format!("{:.1}", u.switches_per_iteration().1),
            ]
            .into_iter()
            .chain(u.socket_calls_per_iteration().map(|c| format!("{c:.1}"))),
        );
    }
    format!(
        "minor page faults, CPU time (user + kernel), context switches\n\
         (voluntary: the thread blocked; involuntary: it was preempted) and\n\
         the socket node's poll(2)s, reads and writes (0 on mailbox ranks)\n\
         per steady-state iteration, by rank (every iteration after a\n\
         launch's first):\n{}\n",
        table.render()
    )
}

/// `repro analyze` (flagged form) usage string. Bare `repro analyze`
/// runs the E36 attribution experiment.
pub const USAGE: &str = "repro analyze --merge-traces DIR [--out PATH]
  merge a process-mode run's per-rank rank-R.trace.json files (written by
  `repro launch --trace`) into one Chrome trace; default output is
  DIR/merged.trace.json, and print each rank's page faults, CPU ms,
  context switches and socket polls, reads and writes per iteration from
  its rank-R.metrics.json";

/// CLI entry: `repro analyze --merge-traces DIR [--out PATH]`.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--merge-traces" => {
                dir =
                    Some(std::path::PathBuf::from(it.next().ok_or_else(|| {
                        format!("--merge-traces needs a dir\n{USAGE}")
                    })?));
            }
            "--out" => {
                out = Some(std::path::PathBuf::from(
                    it.next()
                        .ok_or_else(|| format!("--out needs a path\n{USAGE}"))?,
                ));
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let dir = dir.ok_or_else(|| format!("--merge-traces is required\n{USAGE}"))?;

    // Collect rank-R.trace.json in flat-rank order, and each rank's fault
    // and CPU counters from rank-R.metrics.json; ranks without them (e.g.
    // killed mid-run) are simply absent.
    let mut parts: Vec<(usize, String)> = Vec::new();
    let mut usage: Vec<RankUsage> = Vec::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let text = || std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"));
        let Some(rest) = name.strip_prefix("rank-") else {
            continue;
        };
        if let Some(rank) = rest
            .strip_suffix(".trace.json")
            .and_then(|s| s.parse::<usize>().ok())
        {
            parts.push((rank, text()?));
        } else if rest.ends_with(".metrics.json") {
            let snapshot = Json::parse(&text()?).map_err(|e| format!("{name}: {e:?}"))?;
            usage.extend(rank_usage(&snapshot));
        }
    }
    usage.sort_by_key(|u| u.rank);
    if parts.is_empty() {
        return Err(format!(
            "no rank-R.trace.json files in {} (run `repro launch --trace`?)",
            dir.display()
        ));
    }
    parts.sort_by_key(|(rank, _)| *rank);
    let merged = megatron_telemetry::merge_chrome_traces(parts.iter().map(|(_, t)| t.as_str()))?;
    let out = out.unwrap_or_else(|| dir.join("merged.trace.json"));
    std::fs::write(&out, &merged).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(format!(
        "merged {} rank traces (ranks {:?}) into {} ({} bytes)\n{}",
        parts.len(),
        parts.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        out.display(),
        merged.len(),
        usage_report(&usage)
    ))
}

/// E36 entry point (`repro analyze`).
pub fn analyze() -> String {
    let (p, t, d) = (2usize, 2usize, 2usize);
    let iters = 4usize;
    let batch = 8usize;
    let spec = PtdpSpec::new(p, t, d);
    let m = batch / d / spec.microbatch;
    let run = twin(REAL_CFG, &spec, batch);
    let mirror = &run.model;

    // --- Real run, telemetry attached ---
    let sink = TelemetrySink::new(SinkConfig {
        world: spec.world(),
        flops_per_iteration: mirror.flops_per_iteration_eq3(batch as u64),
    });
    let mut rng = StdRng::seed_from_u64(0x7137);
    let master = GptModel::new(REAL_CFG, &mut rng);
    let data = make_data(batch, iters, 0x7151);
    let ctl = RunControl {
        checkpoint_every: Some(2),
        telemetry: Some(std::sync::Arc::clone(&sink)),
        ..Default::default()
    };
    let out = PtdpTrainer::new(master, spec).train_with(&data, ctl);
    assert!(out.error.is_none(), "real run failed: {:?}", out.error);
    let log = out.log;

    // --- Simulated twin ---
    let (report, sim_trace) = run.simulate_traced().expect("sim twin failed");

    // --- One analyzer, both traces ---
    let real_trace = chrome_trace_json(&sink.hub, p);
    let real_dag = parse_chrome_trace(&real_trace, p).expect("real trace builds a DAG");
    let sim_dag = parse_chrome_trace(&sim_trace, p).expect("sim trace builds a DAG");

    let mut out_s = String::new();

    // --- Per-iteration critical path + attribution, real trace ---
    let mut per_iter: Vec<Attribution> = Vec::new();
    let mut wis: Vec<WhatIf> = Vec::new();
    let mut t1 = Table::new([
        "iter", "measured", "compute", "exp comm", "bubble", "straggle", "opt", "ckpt", "other",
        "residue",
    ]);
    for it in 0..iters {
        let w = Window::iteration(it as u64);
        let path = critical_path(&real_dag, w).expect("iteration has spans");
        assert!(!path.truncated, "critical-path walk truncated at iter {it}");
        let a = Attribution::from_path(&path);
        assert!(
            a.residual_s().abs() <= RESIDUAL_GATE * a.measured_s.max(1e-12),
            "iter {it}: attribution residue {:.3e} s exceeds {}% of measured {:.3e} s",
            a.residual_s(),
            100.0 * RESIDUAL_GATE,
            a.measured_s
        );
        let ms = |x: f64| format!("{:.2} ms", 1e3 * x);
        t1.row([
            it.to_string(),
            ms(a.measured_s),
            ms(a.compute_s),
            ms(a.exposed_comm_s),
            ms(a.bubble_s),
            ms(a.straggler_wait_s),
            ms(a.optimizer_s),
            ms(a.checkpoint_s),
            ms(a.other_s),
            format!("{:.1e}", a.residual_s()),
        ]);
        wis.push(what_if(&a, &real_dag, w));
        per_iter.push(a);
    }
    let real = Attribution::mean(&per_iter);
    let n = wis.len().max(1) as f64;
    let wi = WhatIf {
        zero_comm_s: wis.iter().map(|w| w.zero_comm_s).sum::<f64>() / n,
        perfect_overlap_s: wis.iter().map(|w| w.perfect_overlap_s).sum::<f64>() / n,
        no_straggler_s: wis.iter().map(|w| w.no_straggler_s).sum::<f64>() / n,
    };
    out_s.push_str(&format!(
        "real run: per-iteration critical path over {} ranks (exact tiling, so the\n\
         categories sum to the measured wall time):\n{}\n",
        spec.world(),
        t1.render()
    ));

    // --- Sim trace through the same analyzer ---
    let sim_path = critical_path(&sim_dag, Window::iteration(0)).expect("sim trace has spans");
    assert!(!sim_path.truncated, "sim critical-path walk truncated");
    let sim_attr = Attribution::from_path(&sim_path);
    assert!(
        sim_attr.residual_s().abs() <= RESIDUAL_GATE * sim_attr.measured_s.max(1e-12),
        "sim attribution residue {:.3e} s",
        sim_attr.residual_s()
    );
    // The sim trace covers exactly one iteration, so the analyzer's window
    // must reproduce the simulator's own iteration time.
    assert!(
        (sim_attr.measured_s - report.iteration_time).abs()
            <= 0.02 * report.iteration_time.max(1e-12),
        "analyzer window {:.6} s vs simulator iteration {:.6} s",
        sim_attr.measured_s,
        report.iteration_time
    );

    // --- Real-vs-sim phase drift ---
    let share = |a: &Attribution, x: f64| x / a.measured_s.max(1e-12);
    let mut t2 = Table::new(["phase", "sim share", "real share", "drift"]);
    let mut worst = 0.0f64;
    for (label, s, r) in [
        (
            "on-path compute",
            share(&sim_attr, sim_attr.compute_s),
            share(&real, real.compute_s),
        ),
        (
            "exposed communication",
            share(
                &sim_attr,
                sim_attr.exposed_comm_s + sim_attr.straggler_wait_s,
            ),
            share(&real, real.exposed_comm_s + real.straggler_wait_s),
        ),
        (
            "pipeline bubble",
            share(&sim_attr, sim_attr.bubble_s),
            share(&real, real.bubble_s),
        ),
        (
            "optimizer",
            share(&sim_attr, sim_attr.optimizer_s),
            share(&real, real.optimizer_s),
        ),
        (
            "other",
            share(&sim_attr, sim_attr.other_s),
            share(&real, real.other_s + real.checkpoint_s),
        ),
    ] {
        let drift = (s - r).abs();
        worst = worst.max(drift);
        t2.row([
            label.to_string(),
            format!("{:.1}%", 100.0 * s),
            format!("{:.1}%", 100.0 * r),
            format!("{:+.1} pp", 100.0 * (r - s)),
        ]);
    }
    assert!(
        worst <= DRIFT_GATE,
        "sim-vs-real attribution drift {worst:.2} exceeds the bound {DRIFT_GATE}"
    );
    out_s.push_str(&format!(
        "attribution drift, sim twin vs real (shares of the critical path;\n\
         bound {DRIFT_GATE}):\n{}\n\
         real cumulative bubble fraction {:.3} vs the twin's analytical (p-1)/(m+p-1) = {:.3}\n\n",
        t2.render(),
        sink.bubble_fraction(),
        report.analytical_bubble_fraction,
    ));

    // --- §3 closed-form byte cross-check, from the analyzer's own view ---
    // The analyzer re-derives comm volumes from span args; they must equal
    // the paper's formulas exactly (f32 wire = 2× fp16).
    let p2p_counted = bytes_where(&real_dag, 0, is_p2p_send) / iters as f64;
    // The gradient sync is the reduce-scatter before the optimizer and the
    // parameter all-gather after it: §3.3.1's all-reduce in two halves.
    let dp_counted = bytes_where(&real_dag, 0, |n| {
        n == "grad-reduce-scatter" || n == "param-allgather"
    }) / iters as f64;
    let expected_p2p =
        2.0 * m as f64 * analysis::pipeline_p2p_bytes(mirror, spec.microbatch as u64) as f64;
    let grad_bytes_fp16 = log.final_params[&(0, 0, 0)].len() as u64 * BYTES_FP16;
    let expected_dp = 2.0 * analysis::data_parallel_bytes(grad_bytes_fp16, d as u64);
    // Sim spans carry the fp16 volumes `price_layer` actually priced.
    let sim_p2p_total: f64 = (0..p).map(|r| bytes_where(&sim_dag, r, is_p2p_send)).sum();
    let sim_expected_p2p =
        2.0 * m as f64 * analysis::pipeline_p2p_bytes(mirror, spec.microbatch as u64) as f64;
    let sim_dp_per_dev = bytes_where(&sim_dag, 0, |n| n == "grad-allreduce");
    let mut t3 = Table::new(["volume", "analyzer (B)", "§3 formula (B)"]);
    for (label, counted, expected) in [
        (
            "real pipeline p2p, rank (p0,d0,t0)",
            p2p_counted,
            expected_p2p,
        ),
        ("real grad sync, rank (p0,d0,t0)", dp_counted, expected_dp),
        (
            "sim pipeline p2p, all devices (fp16)",
            sim_p2p_total,
            sim_expected_p2p,
        ),
        (
            "sim grad all-reduce per device (fp16)",
            sim_dp_per_dev,
            report.comm.data_parallel_bytes_per_gpu,
        ),
    ] {
        assert!(
            (counted - expected).abs() <= 1e-6 * expected.max(1.0),
            "{label}: analyzer saw {counted} B, formula says {expected} B"
        );
        t3.row([
            label.to_string(),
            format!("{counted:.0}"),
            format!("{expected:.0}"),
        ]);
    }
    out_s.push_str(&format!(
        "comm volumes as seen by the analyzer vs paper §3 closed forms (per\n\
         iteration; real wire is f32 = 2x fp16):\n{}\n",
        t3.render()
    ));

    // --- price_layer pricing cross-check ---
    // The sim trace's comm span durations are `price_layer`'s prices for
    // those §3 volumes; per device they must reproduce the simulator's own
    // TimeBreakdown, and the path can never expose more comm than exists.
    let sim_comm_per_dev = (0..p).map(|r| comm_seconds(&sim_dag, r)).sum::<f64>() / p as f64;
    let priced = report.breakdown.pipeline_comm + report.breakdown.data_parallel;
    assert!(
        (sim_comm_per_dev - priced).abs() <= 0.10 * priced.max(1e-12),
        "sim comm spans sum to {sim_comm_per_dev:.6} s/device but price_layer priced {priced:.6} s"
    );
    let sim_comm_total: f64 = (0..p).map(|r| comm_seconds(&sim_dag, r)).sum();
    assert!(
        sim_attr.exposed_comm_s > 0.0 && sim_attr.exposed_comm_s <= sim_comm_total + 1e-12,
        "exposed comm {:.6} s outside (0, {sim_comm_total:.6}] s of priced comm",
        sim_attr.exposed_comm_s
    );
    out_s.push_str(&format!(
        "price_layer cross-check: sim comm spans {:.3} ms/device vs TimeBreakdown\n\
         {:.3} ms; exposed on the sim path {:.3} ms of {:.3} ms total priced comm\n\n",
        1e3 * sim_comm_per_dev,
        1e3 * priced,
        1e3 * sim_attr.exposed_comm_s,
        1e3 * sim_comm_total,
    ));

    // --- What-if bounds ---
    let mut t4 = Table::new(["what-if", "iteration", "vs measured"]);
    for (label, v) in [
        ("measured (mean)", real.measured_s),
        ("zero-cost communication", wi.zero_comm_s),
        ("perfect comm/compute overlap", wi.perfect_overlap_s),
        ("no stragglers", wi.no_straggler_s),
    ] {
        t4.row([
            label.to_string(),
            format!("{:.2} ms", 1e3 * v),
            format!("{:.3}x", v / real.measured_s.max(1e-12)),
        ]);
    }
    out_s.push_str(&format!(
        "analytic what-if bounds (mean over iterations):\n{}\n",
        t4.render()
    ));

    // --- Dropped-span accounting (satellite: silent overflow is visible) ---
    let snap = sink.metrics.snapshot();
    let dropped: f64 = match &snap["counters"] {
        Json::Obj(map) => map
            .iter()
            .filter(|(k, _)| k.starts_with("spans_dropped."))
            .filter_map(|(_, v)| v.as_f64())
            .sum(),
        _ => 0.0,
    };
    assert_eq!(
        dropped, 0.0,
        "ring buffers overflowed ({dropped} spans dropped) — attribution would be built on a truncated trace"
    );
    out_s.push_str(&format!(
        "spans dropped across {} rank ring buffers: {dropped:.0} (attribution is exact)\n\n{}\
         (this run checkpoints every 2 iterations; a save copies the state into\n\
         fresh memory)\n\n",
        spec.world(),
        usage_report(&rank_usage(&snap))
    ));

    // --- Export traces, the metrics JSONL + the BENCH record ---
    let dir = std::env::temp_dir().join(format!("megatron-analyze-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    for (name, content) in [
        ("real_trace.json", &real_trace),
        ("sim_trace.json", &sim_trace),
        ("metrics.jsonl", &sink.metrics_jsonl()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write trace export");
        out_s.push_str(&format!(
            "wrote {} ({} bytes)\n",
            path.display(),
            content.len()
        ));
    }
    let record = bench_json(
        "attribution",
        vec![
            ("p".into(), Json::Num(p as f64)),
            ("t".into(), Json::Num(t as f64)),
            ("d".into(), Json::Num(d as f64)),
            ("iters".into(), Json::Num(iters as f64)),
            ("batch".into(), Json::Num(batch as f64)),
            ("microbatch".into(), Json::Num(spec.microbatch as f64)),
        ],
        vec![
            // Deterministic: byte volumes and everything the simulator says.
            ("p2p_bytes_rank0".into(), p2p_counted),
            ("data_parallel_bytes_rank0".into(), dp_counted),
            ("sim_iter_s".into(), sim_attr.measured_s),
            (
                "sim_compute_share".into(),
                share(&sim_attr, sim_attr.compute_s),
            ),
            (
                "sim_comm_share".into(),
                share(
                    &sim_attr,
                    sim_attr.exposed_comm_s + sim_attr.straggler_wait_s,
                ),
            ),
            (
                "sim_bubble_share".into(),
                share(&sim_attr, sim_attr.bubble_s),
            ),
            (
                "sim_optimizer_share".into(),
                share(&sim_attr, sim_attr.optimizer_s),
            ),
            // Measured on this machine: noisy, judged with wide tolerance.
            ("real_iter_s".into(), real.measured_s),
            ("real_compute_share".into(), share(&real, real.compute_s)),
            (
                "real_comm_share".into(),
                share(&real, real.exposed_comm_s + real.straggler_wait_s),
            ),
            ("real_bubble_share".into(), share(&real, real.bubble_s)),
            (
                "real_optimizer_share".into(),
                share(&real, real.optimizer_s),
            ),
            (
                "zero_comm_ratio".into(),
                wi.zero_comm_s / real.measured_s.max(1e-12),
            ),
            (
                "perfect_overlap_ratio".into(),
                wi.perfect_overlap_s / real.measured_s.max(1e-12),
            ),
            (
                "no_straggler_ratio".into(),
                wi.no_straggler_s / real.measured_s.max(1e-12),
            ),
            // Health gates: both ~0 by construction.
            (
                "attribution_residual_frac".into(),
                real.residual_s().abs() / real.measured_s.max(1e-12),
            ),
            ("worst_phase_drift".into(), worst),
            ("spans_dropped".into(), dropped),
        ],
    );
    out_s.push_str(&write_bench_json("BENCH_attribution.json", &record));
    out_s.push('\n');
    out_s
}
