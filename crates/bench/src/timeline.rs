//! E31: sim-vs-real timeline comparison.
//!
//! Runs the same `(p=2, t=2, d=2)` job twice — once through the analytic
//! simulator (`megatron-core`) and once on the real thread-per-GPU trainer
//! (`megatron-dist`) with a `megatron-telemetry` sink attached — exports
//! both Chrome traces side by side (sim is `pid 0`, real ranks are
//! `pid 1+rank`), and prints a per-phase drift table comparing where the
//! simulator thinks the time goes against where the real run measured it.
//!
//! The real run's comm-volume counters are also cross-checked against the
//! paper's §3 formulas: the trainer moves f32 over ring collectives, so
//! counted bytes must equal exactly 2× the fp16 analytical volumes (ring
//! `(g−1)/g` factors included), and pipeline p2p must be `b·s·h` words per
//! microbatch per boundary.
//!
//! Schema violations, formula mismatches, or gross phase drift panic, which
//! is what the CI `timeline-smoke` job keys off.

use megatron_cluster::{ClusterSpec, NodeSpec};
use megatron_core::{TrainingOptions, TrainingRun};
use megatron_dist::{PtdpSpec, PtdpTrainer, RunControl};
use megatron_model::{GptConfig, BYTES_FP16};
use megatron_parallel::{analysis, ParallelConfig};
use megatron_sim::json::Json;
use megatron_telemetry::{
    chrome_trace_json, phase_shares, rank_pid, GpuSpec, SinkConfig, SpanKind, TelemetrySink,
};
use megatron_tensor::gpt::{GptModel, TinyGptConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Real-trainer model: small enough to train in milliseconds, big enough
/// that every phase (fwd, bwd, p2p, grad sync, optimizer) is exercised.
pub(crate) const REAL_CFG: TinyGptConfig = TinyGptConfig {
    vocab: 13,
    seq: 8,
    hidden: 32,
    heads: 4,
    layers: 2,
};

/// The simulator twin of a real job: the same `l`, `h`, `a`, `s`, `V`,
/// `(p, t, d)`, `b`, `v`, schedule and recomputation at global batch
/// `batch`, on one A100 node of exactly `p·t·d` GPUs — the one mapping from
/// a trainer's job to what `megatron-core` prices.
pub(crate) fn twin(cfg: TinyGptConfig, spec: &PtdpSpec, batch: usize) -> TrainingRun {
    let model = GptConfig {
        name: "twin".to_string(),
        num_layers: cfg.layers as u64,
        hidden_size: cfg.hidden as u64,
        num_heads: cfg.heads as u64,
        seq_len: cfg.seq as u64,
        vocab_size: cfg.vocab as u64,
    };
    let (p, t, d) = (spec.pipeline as u64, spec.tensor as u64, spec.data as u64);
    let pc = ParallelConfig::new(p, t, d, spec.microbatch as u64, batch as u64)
        .with_chunks(spec.chunks as u64);
    let node = NodeSpec {
        gpus_per_node: spec.world(),
        ..NodeSpec::dgx_a100()
    };
    let options = TrainingOptions {
        schedule: spec.schedule,
        recompute: spec.recompute,
        ..TrainingOptions::default()
    };
    TrainingRun::new(
        model,
        ClusterSpec::custom(GpuSpec::a100_80gb(), node, 1),
        pc,
        options,
    )
}

pub(crate) fn make_data(batch: usize, iters: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..iters)
        .map(|_| {
            let toks = (0..batch * REAL_CFG.seq)
                .map(|_| rng.gen_range(0..REAL_CFG.vocab))
                .collect();
            let tgts = (0..batch * REAL_CFG.seq)
                .map(|_| rng.gen_range(0..REAL_CFG.vocab))
                .collect();
            (toks, tgts)
        })
        .collect()
}

/// Validate the real trace: parses as Chrome trace JSON and every rank's
/// pid carries spans of every expected category. Panics on violation.
fn check_real_trace_schema(trace: &str, world: usize) -> usize {
    let v = Json::parse(trace).expect("real trace must parse as JSON");
    let events = v.as_array().expect("Chrome trace is a JSON array");
    let mut seen: Vec<Vec<&str>> = vec![Vec::new(); world];
    for ev in events {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let pid = ev["pid"].as_f64().expect("span has pid") as usize;
        let rank = pid - rank_pid(0);
        assert!(rank < world, "pid {pid} outside the rank range");
        let cat = ev["cat"].as_str().expect("span has cat");
        assert!(
            ev["args"]["iteration"].as_f64().is_some(),
            "span missing iteration arg"
        );
        if !seen[rank].contains(&cat) {
            // Leak is fine: category names are 'static in practice.
            seen[rank].push(Box::leak(cat.to_string().into_boxed_str()));
        }
    }
    for (rank, cats) in seen.iter().enumerate() {
        for want in ["fwd", "bwd", "comm", "opt", "bubble"] {
            assert!(
                cats.contains(&want),
                "rank {rank} has no '{want}' spans (got {cats:?})"
            );
        }
    }
    events.len()
}

/// E31: run sim and real side by side, export both traces, and compare.
pub fn timeline() -> String {
    let (p, t, d) = (2usize, 2usize, 2usize);
    let iters = 4usize;
    let batch = 8usize; // per replica 4 → m = 4 microbatches of b = 1
    let spec = PtdpSpec::new(p, t, d);
    let m = batch / d / spec.microbatch;
    let run = twin(REAL_CFG, &spec, batch);
    let mirror = &run.model;

    // --- Real run, telemetry attached ---
    let sink = TelemetrySink::new(SinkConfig {
        world: spec.world(),
        flops_per_iteration: mirror.flops_per_iteration_eq3(batch as u64),
        gpu: Some(GpuSpec::a100_80gb()),
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

    // --- Export both traces + the metrics JSONL ---
    let real_trace = chrome_trace_json(&sink.hub, p);
    let jsonl = sink.metrics_jsonl();
    let dir = std::env::temp_dir().join(format!("megatron-timeline-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let mut out_s = String::new();
    for (name, content) in [
        ("real_trace.json", &real_trace),
        ("sim_trace.json", &sim_trace),
        ("metrics.jsonl", &jsonl),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write export");
        out_s.push_str(&format!(
            "wrote {} ({} bytes)\n",
            path.display(),
            content.len()
        ));
    }

    // --- Schema checks (CI gate) ---
    let n_events = check_real_trace_schema(&real_trace, spec.world());
    Json::parse(&sim_trace).expect("sim trace must parse as JSON");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), iters, "one JSONL snapshot per iteration");
    for line in &lines {
        let snap = Json::parse(line).expect("JSONL line parses");
        assert!(snap["gauges"]["achieved_tflops_per_gpu"].as_f64().is_some());
        assert!(snap["gauges"]["bubble_fraction"].as_f64().is_some());
        assert!(snap["iteration"].as_f64().is_some());
    }
    out_s.push_str(&format!(
        "real trace: {n_events} events across {} ranks, all of fwd/bwd/comm/opt/bubble present\n\
         metrics: {} JSONL snapshots with achieved-TFLOPs and bubble-fraction gauges\n\n",
        spec.world(),
        lines.len()
    ));

    // --- §3 comm-formula cross-check on rank (0,0,0) ---
    // The real trainer moves f32 (4 B) where the paper prices fp16 (2 B),
    // so counted ring bytes must be exactly 2× the analytical volumes.
    let key = (0usize, 0usize, 0usize);
    let vol = log.comm_volumes[&key];
    let layers_per_stage = REAL_CFG.layers / p;
    let expected_tensor = 2.0
        * m as f64
        * layers_per_stage as f64
        * analysis::tensor_parallel_bytes_per_layer(mirror, spec.microbatch as u64, t as u64);
    let expected_p2p =
        2.0 * m as f64 * analysis::pipeline_p2p_bytes(mirror, spec.microbatch as u64) as f64;
    let grad_bytes_fp16 = log.final_params[&key].len() as u64 * BYTES_FP16;
    let expected_data = 2.0 * analysis::data_parallel_bytes(grad_bytes_fp16, d as u64);
    // The gradient sync is the data group's reduce-scatter and all-gather
    // (the two halves of §3.3.1's all-reduce); the same all-gather counter
    // also holds the moments each checkpoint gathers, which the
    // `moment-allgather` spans carry. This rank owns no loss, so its data
    // group runs no all-reduce at all.
    assert_eq!(vol.data.all_reduce_bytes, 0.0, "stage 0 all-reduced over d");
    let moment_bytes: f64 = sink
        .hub
        .ranks()
        .iter()
        .filter(|r| r.key == key)
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == "moment-allgather")
        .filter_map(|s| s.args.bytes)
        .sum();
    let grad_sync = vol.data.reduce_scatter_bytes + vol.data.all_gather_bytes - moment_bytes;
    let mut t2 = Table::new(["volume (rank p0,d0,t0)", "counted (B)", "2x §3 formula (B)"]);
    for (label, counted, expected) in [
        (
            "tensor-parallel all-reduce",
            vol.tensor.all_reduce_bytes / iters as f64,
            expected_tensor,
        ),
        (
            "pipeline p2p send",
            vol.p2p_send_bytes / iters as f64,
            expected_p2p,
        ),
        (
            "data-parallel grad sync",
            grad_sync / iters as f64,
            expected_data,
        ),
    ] {
        assert!(
            (counted - expected).abs() <= 1e-6 * expected.max(1.0),
            "{label}: counted {counted} B vs formula {expected} B"
        );
        t2.row([
            label.to_string(),
            format!("{counted:.0}"),
            format!("{expected:.0}"),
        ]);
    }
    out_s.push_str(&format!(
        "comm counters vs paper §3 (per iteration, f32 wire = 2x fp16 formulas):\n{}\n",
        t2.render()
    ));

    // --- Per-phase drift table ---
    let total_rank_seconds: f64 = log
        .step_times
        .values()
        .flat_map(|v| v.iter().map(|s| s.seconds))
        .sum();
    let real = phase_shares(&sink.hub, total_rank_seconds);
    let it = report.iteration_time;
    let sim_compute = report.breakdown.compute / it;
    let sim_comm = (report.breakdown.pipeline_comm + report.breakdown.data_parallel) / it;
    let sim_opt = report.breakdown.optimizer / it;
    let sim_bubble = report.analytical_bubble_fraction;
    let mut t3 = Table::new(["phase", "sim share", "real share", "drift"]);
    let mut worst = 0.0f64;
    for (label, sim, real) in [
        ("compute (fwd+bwd)", sim_compute, real.compute),
        ("communication", sim_comm, real.comm),
        ("pipeline bubble", sim_bubble, real.bubble),
        ("optimizer", sim_opt, real.optimizer),
    ] {
        let drift = (sim - real).abs();
        worst = worst.max(drift);
        t3.row([
            label.to_string(),
            format!("{:.1}%", 100.0 * sim),
            format!("{:.1}%", 100.0 * real),
            format!("{:+.1} pp", 100.0 * (real - sim)),
        ]);
    }
    out_s.push_str(&format!(
        "where the time goes, sim vs real (shares of rank-time):\n{}\n",
        t3.render()
    ));
    out_s.push_str(&format!(
        "real accounted share {:.1}% (rest is scheduling overhead), worst phase drift {:.1} pp\n\
         real cumulative bubble fraction {:.3} vs analytical (p-1)/(m+p-1) = {:.3}\n",
        100.0 * real.accounted(),
        100.0 * worst,
        sink.bubble_fraction(),
        sim_bubble,
    ));

    // The sim prices an A100 cluster while the real "GPUs" are CPU
    // threads, so shares — not absolute times — are compared, and the CI
    // gate only rejects gross divergence (a phase off by more than 75 pp
    // means a broken exporter or a broken cost model, not noise).
    assert!(
        worst <= 0.75,
        "excessive sim-vs-real phase drift: {worst:.2} (see table)"
    );
    assert!(
        real.accounted() <= 1.02,
        "phase shares exceed total rank time: {:.3}",
        real.accounted()
    );
    // Every span category made it into the hub (mirrors the trace check,
    // but through the typed API).
    for kind in [
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Comm,
        SpanKind::Optimizer,
        SpanKind::Bubble,
        SpanKind::Checkpoint,
    ] {
        let found = sink
            .hub
            .ranks()
            .iter()
            .any(|r| r.spans.iter().any(|s| s.kind == kind));
        assert!(found, "no {kind:?} spans recorded anywhere");
    }

    out_s
}
