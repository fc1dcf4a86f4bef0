//! Golden-file style checks on the telemetry exporters: a real `(2,2,2)`
//! run must produce a valid Chrome trace with every expected span category
//! on every rank, per-iteration JSONL metric snapshots, per-rank fault
//! counters, and comm-volume counters that match the paper's §3 formulas
//! exactly; a `(1,1,4)` run's loss all-reduce spans carry the bytes each
//! rank sent.

use std::collections::BTreeSet;
use std::sync::Arc;

use megatron_core::model::{GptConfig, BYTES_FP16};
use megatron_core::parallel::analysis;
use megatron_dist::{PtdpSpec, PtdpTrainer, RunControl, BYTES_F32};
use megatron_sim::json::Json;
use megatron_telemetry::{
    chrome_trace_json, rank_pid, rank_usage, SinkConfig, SpanKind, TelemetrySink,
};
use megatron_tensor::gpt::{GptModel, TinyGptConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CFG: TinyGptConfig = TinyGptConfig {
    vocab: 11,
    seq: 6,
    hidden: 16,
    heads: 2,
    layers: 2,
};

fn mirror() -> GptConfig {
    GptConfig {
        name: "telemetry-test".to_string(),
        num_layers: CFG.layers as u64,
        hidden_size: CFG.hidden as u64,
        num_heads: CFG.heads as u64,
        seq_len: CFG.seq as u64,
        vocab_size: CFG.vocab as u64,
    }
}

/// A traced run of `spec`'s layout for `iters` iterations of `batch`.
fn run(
    spec: PtdpSpec,
    iters: usize,
    batch: usize,
    checkpoint_every: Option<usize>,
) -> (Arc<TelemetrySink>, megatron_dist::TrainLog, PtdpSpec) {
    let sink = TelemetrySink::new(SinkConfig {
        world: spec.world(),
        flops_per_iteration: mirror().flops_per_iteration_eq3(batch as u64),
    });
    let mut rng = StdRng::seed_from_u64(42);
    let master = GptModel::new(CFG, &mut rng);
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..iters)
        .map(|_| {
            let toks = (0..batch * CFG.seq)
                .map(|_| rng.gen_range(0..CFG.vocab))
                .collect();
            let tgts = (0..batch * CFG.seq)
                .map(|_| rng.gen_range(0..CFG.vocab))
                .collect();
            (toks, tgts)
        })
        .collect();
    let ctl = RunControl {
        checkpoint_every,
        telemetry: Some(Arc::clone(&sink)),
        ..Default::default()
    };
    let out = PtdpTrainer::new(master, spec).train_with(&data, ctl);
    assert!(out.error.is_none(), "run failed: {:?}", out.error);
    (sink, out.log, spec)
}

#[test]
fn real_222_trace_has_every_category_on_every_rank() {
    let (sink, _log, spec) = run(PtdpSpec::new(2, 2, 2), 3, 8, Some(2));
    let trace = chrome_trace_json(&sink.hub, 2);
    let v = Json::parse(&trace).expect("trace is valid JSON");
    let events = v.as_array().expect("trace is a JSON array");

    // Per-rank category coverage; rank r's spans sit on pid rank_pid(r).
    let mut cats: Vec<BTreeSet<String>> = vec![BTreeSet::new(); spec.world()];
    let mut meta = 0usize;
    for ev in events {
        match ev["ph"].as_str() {
            Some("M") => meta += 1,
            Some("X") => {
                let pid = ev["pid"].as_f64().unwrap() as usize;
                assert!(pid >= rank_pid(0), "span on pid {pid}, below rank 0's");
                let rank = pid - rank_pid(0);
                assert!(rank < spec.world());
                cats[rank].insert(ev["cat"].as_str().unwrap().to_string());
                // Every span carries its iteration + incident epoch.
                assert!(ev["args"]["iteration"].as_f64().is_some());
                assert!(ev["args"]["epoch"].as_f64().is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(meta, spec.world(), "one process_name metadata row per rank");
    for (rank, set) in cats.iter().enumerate() {
        for want in ["fwd", "bwd", "comm", "opt", "bubble", "ckpt"] {
            assert!(set.contains(want), "rank {rank} missing '{want}': {set:?}");
        }
        for got in set {
            assert!(
                SpanKind::ALL_CATEGORIES.contains(&got.as_str()),
                "unknown category {got}"
            );
        }
    }
}

#[test]
fn comm_spans_sit_on_the_net_row_with_byte_args() {
    let (sink, _log, _spec) = run(PtdpSpec::new(2, 2, 2), 2, 8, None);
    let trace = chrome_trace_json(&sink.hub, 2);
    let v = Json::parse(&trace).unwrap();
    for ev in v.as_array().unwrap() {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let tid = ev["tid"].as_f64().unwrap() as usize;
        if ev["cat"].as_str() == Some("comm") {
            // Comm rows sit at tid = p + stage, below the compute rows;
            // p2p/collective spans all carry their algorithmic byte volume.
            assert!((2..4).contains(&tid), "comm tid {tid} outside net rows");
            assert!(
                ev["args"]["bytes"].as_f64().is_some(),
                "comm span without bytes: {ev:?}"
            );
        } else {
            assert!(tid < 2, "compute-side span on a net row: {ev:?}");
        }
    }
}

#[test]
fn jsonl_snapshots_report_throughput_and_bubble() {
    let iters = 3;
    let (sink, _log, _spec) = run(PtdpSpec::new(2, 2, 2), iters, 8, None);
    let jsonl = sink.metrics_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), iters, "one snapshot per iteration");
    for (i, line) in lines.iter().enumerate() {
        let v = Json::parse(line).expect("snapshot line parses");
        assert_eq!(v["iteration"].as_f64(), Some(i as f64));
        assert_eq!(v["epoch"].as_f64(), Some(0.0));
        assert!(v["seconds"].as_f64().unwrap() > 0.0);
        assert!(v["gauges"]["achieved_tflops_per_gpu"].as_f64().unwrap() > 0.0);
        let bub = v["gauges"]["bubble_fraction"].as_f64().unwrap();
        assert!((0.0..1.0).contains(&bub), "bubble fraction {bub}");
        assert_eq!(
            v["histograms"]["iteration_seconds"]["count"].as_f64(),
            Some((i + 1) as f64)
        );
    }
    // The aggregate comm counters landed in the registry after the run.
    assert!(sink.metrics.counter("comm_bytes_total").get() > 0);
    assert!(sink.metrics.counter("comm_bytes.rank.p0d0t0").get() > 0);
}

#[test]
fn every_rank_counts_faults_over_its_steady_state_iterations() {
    let iters = 3;
    let (sink, _log, spec) = run(PtdpSpec::new(2, 2, 2), iters, 8, None);
    let usage = rank_usage(&sink.metrics.snapshot());
    // One row per rank; the first iteration is warm-up and not counted.
    // The fault counts are the allocator's business, not asserted; every
    // rank computes, so every rank's thread used CPU time. Rank threads
    // talk over mailboxes: no socket calls.
    let ranks: Vec<usize> = usage.iter().map(|u| u.rank).collect();
    assert_eq!(ranks, (0..spec.world()).collect::<Vec<_>>());
    assert!(
        usage
            .iter()
            .all(|u| u.iterations == iters as u64 - 1 && u.cpu_us > 0),
        "{usage:?}"
    );
    assert!(
        usage
            .iter()
            .all(|u| u.socket_calls_per_iteration() == [0.0; 3]),
        "{usage:?}"
    );
}

#[test]
fn comm_counters_match_section3_formulas() {
    let iters = 2;
    let batch = 8; // per replica 4 → m = 4 microbatches of b = 1
    let (_sink, log, spec) = run(PtdpSpec::new(2, 2, 2), iters, batch, None);
    let mirror = mirror();
    let (p, t, d) = (2u64, 2u64, 2u64);
    let m = (batch / 2 / spec.microbatch) as f64;
    let layers_per_stage = (CFG.layers as u64 / p) as f64;

    // Rank (0,0,0): first stage, no LM head, so the tensor group carries
    // exactly the 4 ring all-reduces of b·s·h per layer per microbatch the
    // paper counts in §3.2 — in f32, i.e. 2× the fp16 formula — and the
    // vocab-parallel embedding's one all-reduce of b·s·h per microbatch,
    // which rebuilds the embedding from the ranks' vocabulary shards.
    let vol = log.comm_volumes[&(0, 0, 0)];
    let layers = 2.0
        * iters as f64
        * m
        * layers_per_stage
        * analysis::tensor_parallel_bytes_per_layer(&mirror, spec.microbatch as u64, t);
    // One all-reduce of `floats` f32 per microbatch of the run.
    let per_microbatch = |floats: usize| {
        iters as f64 * m * analysis::ring_all_reduce_bytes(floats as f64 * BYTES_F32, t)
    };
    let (bs, h) = (spec.microbatch * CFG.seq, CFG.hidden);
    let want_tensor = layers + per_microbatch(bs * h);
    assert!(
        (vol.tensor.all_reduce_bytes - want_tensor).abs() < 1e-6,
        "tensor AR: counted {} want {want_tensor}",
        vol.tensor.all_reduce_bytes
    );
    // Rank (1,0,0): last stage, the same layers' all-reduces, and the
    // vocab-parallel head's: the distributed cross-entropy's row maxima
    // (b·s floats), then its sums of exponentials and target logits
    // (2·b·s), and the head's input gradient (b·s·h).
    let counted = log.comm_volumes[&(1, 0, 0)].tensor.all_reduce_bytes;
    let want_last = layers + per_microbatch(bs) + per_microbatch(2 * bs) + per_microbatch(bs * h);
    assert!(
        (counted - want_last).abs() < 1e-6,
        "last-stage tensor AR: counted {counted} want {want_last}"
    );

    // §3 pipeline p2p: b·s·h words per microbatch per boundary, forward
    // only for the first stage (it receives, not sends, the backward).
    let want_p2p = 2.0
        * iters as f64
        * m
        * analysis::pipeline_p2p_bytes(&mirror, spec.microbatch as u64) as f64;
    assert!(
        (vol.p2p_send_bytes - want_p2p).abs() < 1e-6,
        "p2p: counted {} want {want_p2p}",
        vol.p2p_send_bytes
    );

    // §3.3.1 data-parallel ring all-reduce over this rank's gradients, run
    // as its two halves: a reduce-scatter before the optimizer and an
    // all-gather of the parameters after it. This rank owns no loss, so
    // its data group all-reduces nothing.
    let grad_sync = |v: &megatron_dist::CommVolume| v.reduce_scatter_bytes + v.all_gather_bytes;
    let grad_bytes_fp16 = log.final_params[&(0, 0, 0)].len() as u64 * BYTES_FP16;
    let want_data = 2.0 * iters as f64 * analysis::data_parallel_bytes(grad_bytes_fp16, d);
    assert!(
        (grad_sync(&vol.data) - want_data).abs() < 1e-6,
        "data RS + AG: counted {} want {want_data}",
        grad_sync(&vol.data)
    );
    assert_eq!(vol.data.all_reduce_bytes, 0.0);

    // A last-stage loss-owning rank syncs its own gradients the same way,
    // and the scalar loss is the one data-group all-reduce left: at d = 2
    // exactly the ring volume of one f32, 2·(d−1)/d·4 B, per iteration.
    let vol_last = log.comm_volumes[&(1, 0, 0)];
    let grad_last_fp16 = log.final_params[&(1, 0, 0)].len() as u64 * BYTES_FP16;
    let want_last = 2.0 * iters as f64 * analysis::data_parallel_bytes(grad_last_fp16, d);
    assert!(
        (grad_sync(&vol_last.data) - want_last).abs() < 1e-6,
        "last-stage data RS + AG: counted {} want {want_last}",
        grad_sync(&vol_last.data)
    );
    let want_loss = iters as f64 * analysis::ring_all_reduce_bytes(BYTES_F32, d);
    assert_eq!(vol_last.data.all_reduce_bytes, want_loss, "loss all-reduce");
}

#[test]
fn loss_allreduce_spans_record_the_bytes_each_rank_sent() {
    // At d = 4 the one-float loss all-reduce is not the ring volume
    // 2·(d−1)/d·4 B = 6 B: only chunk 0 of a one-element buffer is
    // non-empty, so a rank sends 4 B or 8 B. Each rank's spans must
    // carry what its transport counted.
    let iters = 3;
    let (sink, log, spec) = run(PtdpSpec::new(1, 1, 4), iters, 8, None);
    let ranks = sink.hub.ranks();
    assert_eq!(ranks.len(), spec.world());
    let mut sent = Vec::new();
    for trace in ranks {
        let spans: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "loss-allreduce")
            .map(|s| s.args.bytes.expect("loss span without bytes"))
            .collect();
        assert_eq!(spans.len(), iters, "rank {}", trace.rank);
        let counted = log.comm_volumes[&trace.key].data.all_reduce_bytes;
        assert_eq!(spans.iter().sum::<f64>(), counted, "rank {}", trace.rank);
        sent.push(counted / iters as f64);
    }
    assert!(
        sent.iter().all(|&b| b == BYTES_F32 || b == 2.0 * BYTES_F32),
        "bytes per rank per iteration {sent:?}"
    );
}
