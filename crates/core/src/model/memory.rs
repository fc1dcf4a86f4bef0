//! Memory-footprint accounting for mixed-precision PTD-P training.
//!
//! Three contributors per GPU (§3.3.1, §3.5):
//! 1. model state: fp16 weights + fp16 gradients + fp32 master weights +
//!    fp32 Adam moments for the parameters this rank owns;
//! 2. stashed activations for in-flight microbatches (schedule-dependent —
//!    the schedule layer supplies the stash count);
//! 3. the recomputation tradeoff of §3.5: with activation recomputation only
//!    layer inputs (or `c` checkpoints per stage) are stashed, at the cost of
//!    one extra forward pass.

use crate::model::{GptConfig, BYTES_FP16, BYTES_FP32};

/// Bytes of model state per parameter with mixed-precision Adam:
/// fp16 weight (2) + fp16 gradient (2) + fp32 master weight (4) +
/// fp32 momentum (4) + fp32 variance (4).
pub const MODEL_STATE_BYTES_PER_PARAM: u64 = 2 * BYTES_FP16 + 3 * BYTES_FP32;

/// Parameters held by ONE GPU at position (`stage`, tensor-parallel rank)
/// of a (p, t) model-parallel grid. Layers are distributed evenly over `p`
/// stages; the first stage additionally holds the (vocab-parallel) embedding
/// and the last stage the final LayerNorm (the LM head is tied).
pub fn params_per_gpu(cfg: &GptConfig, p: u64, t: u64, stage: u64) -> u64 {
    assert!(stage < p, "stage {stage} out of range for p={p}");
    assert!(
        cfg.num_layers.is_multiple_of(p),
        "layers {} must divide evenly into p={p} stages",
        cfg.num_layers
    );
    let h = cfg.hidden_size;
    let layers_here = cfg.num_layers / p;
    // Tensor-parallel split of one layer: QKV and MLP weights divide by t;
    // LayerNorm parameters are replicated.
    let attn = (h * 3 * h + 3 * h) / t + (h * h) / t + h;
    let mlp = (h * 4 * h + 4 * h) / t + (4 * h * h) / t + h;
    let norms = 2 * 2 * h;
    let mut total = layers_here * (attn + mlp + norms);
    if stage == 0 {
        total += (cfg.vocab_size / t) * h + cfg.seq_len * h; // embeddings
    }
    if stage == p - 1 {
        total += 2 * h; // final LayerNorm
    }
    total
}

/// Worst-case (max over stages) model-state bytes per GPU.
pub fn model_state_bytes_per_gpu(cfg: &GptConfig, p: u64, t: u64) -> u64 {
    (0..p)
        .map(|s| params_per_gpu(cfg, p, t, s) * MODEL_STATE_BYTES_PER_PARAM)
        .max()
        .unwrap_or(0)
}

/// Full (no recomputation) activation bytes stashed per layer per
/// microbatch of size `b` on one tensor-parallel rank. The
/// `s·b·h·(10 + 24/t + 5·a·s/(h·t))` accounting: LayerNorm inputs, residual
/// streams and dropout masks are replicated across tensor ranks (the `10`);
/// QKV/attention/MLP intermediates divide by `t`.
pub fn activation_bytes_full(cfg: &GptConfig, b: u64, t: u64) -> u64 {
    let (h, a, s) = (
        cfg.hidden_size as f64,
        cfg.num_heads as f64,
        cfg.seq_len as f64,
    );
    let tf = t as f64;
    let per = s * b as f64 * h * (10.0 + 24.0 / tf + 5.0 * a * s / (h * tf));
    per as u64
}

/// Activation bytes stashed per layer per microbatch *with* recomputation:
/// only the fp16 layer input, `2·s·b·h` (not tensor-parallel-divided —
/// the input is replicated across tensor ranks).
pub fn activation_bytes_recompute(cfg: &GptConfig, b: u64) -> u64 {
    2 * cfg.seq_len * b * cfg.hidden_size
}

/// §3.5's closing remark: "other techniques such as activation partitioning
/// can also be used in conjunction with tensor model parallelism to reduce
/// the memory footprint due to activations further" (ZeRO-R). Partitioning
/// splits the otherwise-replicated activations (LayerNorm inputs, residual
/// streams, dropout masks — the `10·s·b·h` term of
/// [`activation_bytes_full`]) across the `t` tensor ranks, re-gathering
/// them on demand.
pub fn activation_bytes_partitioned(cfg: &GptConfig, b: u64, t: u64) -> u64 {
    let (h, a, s) = (
        cfg.hidden_size as f64,
        cfg.num_heads as f64,
        cfg.seq_len as f64,
    );
    let tf = t as f64;
    let per = s * b as f64 * h * ((10.0 + 24.0 + 5.0 * a * s / h) / tf);
    per as u64
}

/// §3.5 checkpointing model: total activation memory for a stage of `l`
/// layers with `c` checkpoints, `c·A_input + (l/c)·A_intermediate`.
pub fn checkpointed_stage_bytes(a_input: f64, a_intermediate: f64, l: f64, c: f64) -> f64 {
    c * a_input + (l / c) * a_intermediate
}

/// §3.5 optimal checkpoint count: `c* = √(l · A_intermediate / A_input)`.
pub fn optimal_checkpoints(a_input: f64, a_intermediate: f64, l: f64) -> f64 {
    (l * a_intermediate / a_input).sqrt()
}

/// Total per-GPU memory for a training configuration.
///
/// `in_flight` is the schedule's maximum number of stashed microbatches
/// (≤ p for 1F1B, = m for GPipe — §2.2.1); `layers_per_stage` is
/// `l / p` (× the per-device chunk count for interleaving the caller folds
/// in via `in_flight` weighting, see schedule layer).
pub fn total_bytes_per_gpu(
    cfg: &GptConfig,
    p: u64,
    t: u64,
    b: u64,
    in_flight: u64,
    recompute: bool,
) -> u64 {
    let state = model_state_bytes_per_gpu(cfg, p, t);
    let layers_per_stage = cfg.num_layers / p;
    let per_mb_per_layer = if recompute {
        activation_bytes_recompute(cfg, b)
    } else {
        activation_bytes_full(cfg, b, t)
    };
    // During the backward pass of the current microbatch the full
    // intermediate set of one layer must be live even with recomputation.
    let working = activation_bytes_full(cfg, b, t);
    state + in_flight * layers_per_stage * per_mb_per_layer + working
}

/// Checkpoint size in bytes for the whole model: fp16 weights + fp32 master
/// weights + two fp32 optimizer moments (what Megatron serializes).
pub fn checkpoint_bytes(cfg: &GptConfig) -> u64 {
    cfg.params_exact() * (BYTES_FP16 + 3 * BYTES_FP32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    #[test]
    fn shards_sum_to_whole_model() {
        let cfg = GptConfig::paper("m", 8, 3072, 32);
        for (p, t) in [(1u64, 1u64), (2, 1), (4, 4), (8, 8)] {
            let shard_sum: u64 = (0..p).map(|s| params_per_gpu(&cfg, p, t, s) * t).sum();
            let exact = cfg.params_exact();
            // Replicated tensors (LayerNorms, position embeddings, biases on
            // row-parallel outputs) are counted t times in shard_sum.
            let replicated = cfg.num_layers * (4 * cfg.hidden_size + 2 * cfg.hidden_size)
                + cfg.seq_len * cfg.hidden_size
                + 2 * cfg.hidden_size;
            let want = exact + (t - 1) * replicated;
            assert_eq!(shard_sum, want, "(p,t)=({p},{t})");
        }
    }

    #[test]
    fn model_state_is_18_bytes_per_param() {
        assert_eq!(MODEL_STATE_BYTES_PER_PARAM, 16);
    }

    #[test]
    fn gpt3_does_not_fit_on_one_gpu() {
        // The paper's premise: 175B params × 16 B ≫ 80 GB.
        let cfg = zoo::gpt3_175b();
        let bytes = model_state_bytes_per_gpu(&cfg, 1, 1);
        assert!(bytes > 2_000 * (1u64 << 30), "got {bytes}");
    }

    #[test]
    fn gpt3_fits_with_96_way_model_parallelism() {
        // Table 2: PTD-P runs 174.6B with model-parallel size 96 (t=8, p=12).
        let cfg = zoo::gpt3_175b();
        let bytes = total_bytes_per_gpu(&cfg, 12, 8, 1, 12, true);
        assert!(
            bytes < 80 * (1u64 << 30),
            "should fit in 80 GB, got {} GiB",
            bytes >> 30
        );
    }

    #[test]
    fn activation_partitioning_divides_replicated_term() {
        // With partitioning the whole per-layer activation divides by t;
        // without it only the 24/t + 5as/(ht) share does.
        let cfg = zoo::gpt3_175b();
        let full = activation_bytes_full(&cfg, 1, 8);
        let part = activation_bytes_partitioned(&cfg, 1, 8);
        assert!(part < full, "partitioned {part} vs full {full}");
        // Partitioned( t ) == Full(t=1) / t exactly (same total work).
        let serial = activation_bytes_full(&cfg, 1, 1);
        let rel = (part as f64 - serial as f64 / 8.0).abs() / (serial as f64 / 8.0);
        assert!(rel < 1e-6, "rel {rel}");
    }

    #[test]
    fn recompute_stashes_less_than_full() {
        let cfg = zoo::gpt_145b();
        let full = activation_bytes_full(&cfg, 1, 8);
        let rc = activation_bytes_recompute(&cfg, 1);
        assert!(rc * 3 < full, "full {full} recompute {rc}");
    }

    #[test]
    fn optimal_checkpoint_count_minimizes() {
        let (ai, am, l) = (1.0e6, 30.0e6, 16.0);
        let c_star = optimal_checkpoints(ai, am, l);
        let best = checkpointed_stage_bytes(ai, am, l, c_star);
        for c in [1.0, 2.0, 4.0, 8.0, 16.0] {
            assert!(checkpointed_stage_bytes(ai, am, l, c) >= best - 1e-6);
        }
    }

    #[test]
    fn paper_observation_checkpoint_every_1_or_2_layers() {
        // §3.5: "For most cases, checkpointing every 1 or 2 transformer
        // layers is optimal" — i.e. c ≈ l or l/2 when A_int/A_in is large.
        let cfg = zoo::gpt3_175b();
        let a_in = activation_bytes_recompute(&cfg, 1) as f64;
        let a_int = activation_bytes_full(&cfg, 1, 8) as f64 - a_in;
        let l = 8.0; // one stage of 8 layers
        let c = optimal_checkpoints(a_in, a_int, l);
        assert!(
            c >= l / 2.0,
            "optimal c {c} for l={l}: expect ≥ every-2-layers"
        );
    }

    #[test]
    fn trillion_checkpoint_is_13_8_terabytes() {
        // §5.10: "the trillion-parameter model has a checkpoint of size
        // 13.8 terabytes".
        let cfg = zoo::gpt_1t();
        let tb = checkpoint_bytes(&cfg) as f64 / 1e12;
        assert!((tb - 13.8).abs() < 0.6, "got {tb} TB");
    }

    #[test]
    fn in_flight_scaling_is_linear() {
        let cfg = GptConfig::paper("m", 8, 3072, 32);
        let one = total_bytes_per_gpu(&cfg, 2, 2, 1, 1, true);
        let four = total_bytes_per_gpu(&cfg, 2, 2, 1, 4, true);
        let per_mb = cfg.num_layers / 2 * activation_bytes_recompute(&cfg, 1);
        assert_eq!(four - one, 3 * per_mb);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_uneven_stage_split() {
        let cfg = GptConfig::paper("m", 10, 3072, 32);
        params_per_gpu(&cfg, 4, 1, 0);
    }
}
