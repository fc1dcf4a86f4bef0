//! Analytical performance models from §3 of the paper.
//!
//! Every communication volume here is stated through one ring factor,
//! [`ring_all_reduce_bytes`]: each of `g` ranks sends `2(g−1)/g` of the
//! buffer in a ring all-reduce (§3.2–§3.3).

use crate::model::{GptConfig, BYTES_FP16};

/// Pipeline-bubble fraction `(p−1)/(v·m)` (§2.2.1–§2.2.2).
pub fn bubble_fraction(p: u64, m: u64, v: u64) -> f64 {
    assert!(p > 0 && m > 0 && v > 0);
    (p as f64 - 1.0) / (v as f64 * m as f64)
}

/// §3.3.1: bubble fraction as a function of data-parallel size `d` at fixed
/// `n` GPUs and `b′ = B/b` (t = 1): `(n − d)/b′`.
pub fn bubble_fraction_vs_data_parallel(n: u64, d: u64, b_prime: u64) -> f64 {
    assert!(d > 0 && d <= n && n.is_multiple_of(d), "d must divide n");
    (n - d) as f64 / b_prime as f64
}

/// Eq. 1: batch processing time `(b′/b + p − 1)·(t_f(b) + t_b(b))`, where
/// `b′ = B/d` and `t_f`, `t_b` map microbatch size to single-microbatch
/// forward / backward compute time.
pub fn eq1_batch_time(
    b_prime: u64,
    b: u64,
    p: u64,
    t_f: impl Fn(u64) -> f64,
    t_b: impl Fn(u64) -> f64,
) -> f64 {
    ((b_prime / b + p - 1) as f64) * (t_f(b) + t_b(b))
}

/// Bytes each of `g` ranks sends in a ring all-reduce of a `bytes`-byte
/// buffer: `2·bytes·(g−1)/g`, the ring factor of §3.2–§3.3. Its
/// reduce-scatter and all-gather phases each send half. Exact when `g`
/// divides the buffer (and at `g = 2` for any size); the simulated and real
/// collectives count the actual chunk ranges.
pub fn ring_all_reduce_bytes(bytes: f64, g: u64) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    2.0 * bytes * (g as f64 - 1.0) / g as f64
}

/// §3.2: bytes exchanged point-to-point between consecutive pipeline stages
/// per microbatch (per direction): `b·s·h` fp16 elements.
pub fn pipeline_p2p_bytes(cfg: &GptConfig, b: u64) -> u64 {
    b * cfg.seq_len * cfg.hidden_size * BYTES_FP16
}

/// §4.1: the same boundary transfer with the scatter/gather optimization —
/// `b·s·h/t` per InfiniBand link.
pub fn pipeline_p2p_bytes_scatter_gather(cfg: &GptConfig, b: u64, t: u64) -> u64 {
    pipeline_p2p_bytes(cfg, b).div_ceil(t)
}

/// §3.2: tensor-parallel communication per layer per device per microbatch:
/// `8·b·s·h·(t−1)/t` fp16 elements (four ring all-reduces of `b·s·h`, two in
/// the forward and two in the backward pass), in bytes.
pub fn tensor_parallel_bytes_per_layer(cfg: &GptConfig, b: u64, t: u64) -> f64 {
    let activation = (b * cfg.seq_len * cfg.hidden_size * BYTES_FP16) as f64;
    4.0 * ring_all_reduce_bytes(activation, t)
}

/// §3.3.1: data-parallel gradient all-reduce traffic per device per
/// iteration: `2 · grad_bytes · (d−1)/d` (ring).
pub fn data_parallel_bytes(grad_bytes: u64, d: u64) -> f64 {
    ring_all_reduce_bytes(grad_bytes as f64, d)
}

/// The §1/§5.4.1 "sub-optimal combinations can be 2× worse" probe: ratio of
/// total model-parallel communication bytes (per device, per microbatch,
/// per layer-stage traversal) between a configuration and the best one, for
/// qualitative comparisons in reports.
pub fn model_parallel_bytes_per_microbatch(
    cfg: &GptConfig,
    b: u64,
    t: u64,
    p: u64,
    scatter_gather: bool,
) -> f64 {
    let l_stage = cfg.num_layers.div_ceil(p);
    let tp = l_stage as f64 * tensor_parallel_bytes_per_layer(cfg, b, t);
    let p2p = if p > 1 {
        if scatter_gather {
            2.0 * pipeline_p2p_bytes_scatter_gather(cfg, b, t) as f64
        } else {
            2.0 * pipeline_p2p_bytes(cfg, b) as f64
        }
    } else {
        0.0
    };
    tp + p2p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    #[test]
    fn bubble_shrinks_with_more_microbatches() {
        assert!(bubble_fraction(8, 64, 1) < bubble_fraction(8, 16, 1));
        assert_eq!(bubble_fraction(8, 16, 1), 7.0 / 16.0);
    }

    #[test]
    fn interleaving_divides_bubble() {
        let base = bubble_fraction(8, 16, 1);
        assert!((bubble_fraction(8, 16, 4) - base / 4.0).abs() < 1e-12);
    }

    #[test]
    fn figure6_shape_bubble_vs_d() {
        // Figure 6: bubble decreases as d grows, for all (n, b′) pairs shown.
        for (n, b_prime) in [(32u64, 32u64), (32, 128), (128, 128), (128, 512)] {
            let mut last = f64::INFINITY;
            for d in [1u64, 2, 4, 8, 16, 32] {
                if n % d != 0 {
                    continue;
                }
                let frac = bubble_fraction_vs_data_parallel(n, d, b_prime);
                assert!(frac <= last, "n={n} b'={b_prime} d={d}");
                last = frac;
            }
        }
        // Spot values: n=32, d=1, b'=32 → 31/32; d=32 → 0.
        assert!((bubble_fraction_vs_data_parallel(32, 1, 32) - 31.0 / 32.0).abs() < 1e-12);
        assert_eq!(bubble_fraction_vs_data_parallel(32, 32, 32), 0.0);
    }

    #[test]
    fn eq1_penalizes_deep_pipelines_and_coarse_microbatches() {
        // Constant per-sample compute: time minimized at b balancing bubble
        // against kernel efficiency; with flat t_f/t_b it's monotone in b.
        let t_f = |b: u64| 1.0 * b as f64;
        let t_b = |b: u64| 2.0 * b as f64;
        let t1 = eq1_batch_time(128, 1, 8, t_f, t_b);
        let t2 = eq1_batch_time(128, 4, 8, t_f, t_b);
        // With perfectly linear kernels, larger b only adds bubble cost.
        assert!(t2 > t1);
        // Deeper pipeline with same b′: more bubble.
        assert!(eq1_batch_time(128, 1, 32, t_f, t_b) > t1);
    }

    #[test]
    fn p2p_bytes_match_bsh() {
        let cfg = zoo::gpt3_175b();
        let b = 2;
        assert_eq!(pipeline_p2p_bytes(&cfg, b), b * 2048 * 12288 * 2);
        assert_eq!(
            pipeline_p2p_bytes_scatter_gather(&cfg, b, 8),
            b * 2048 * 12288 * 2 / 8
        );
    }

    #[test]
    fn tensor_parallel_volume_has_t_minus_1_over_t_factor() {
        let cfg = zoo::gpt3_175b();
        let v2 = tensor_parallel_bytes_per_layer(&cfg, 1, 2);
        let v8 = tensor_parallel_bytes_per_layer(&cfg, 1, 8);
        assert!((v8 / v2 - (7.0 / 8.0) / (1.0 / 2.0)).abs() < 1e-12);
        assert_eq!(tensor_parallel_bytes_per_layer(&cfg, 1, 1), 0.0);
    }

    #[test]
    fn data_parallel_volume_saturates() {
        // §3.3.1: ring scales with (d−1)/d = 1 − 1/d.
        let g = 1 << 30;
        let v2 = data_parallel_bytes(g, 2);
        let v1024 = data_parallel_bytes(g, 1024);
        assert!(v1024 < 2.0 * v2);
        assert!(v1024 / (2.0 * g as f64) > 0.99);
        assert_eq!(data_parallel_bytes(g, 1), 0.0);
    }

    #[test]
    fn takeaway1_tensor_parallel_dominates_communication() {
        // Per §3.2: tensor parallelism moves far more bytes than pipeline
        // parallelism for realistic layer counts per stage.
        let cfg = zoo::gpt_162b();
        let tp = model_parallel_bytes_per_microbatch(&cfg, 1, 8, 1, false);
        let pp = model_parallel_bytes_per_microbatch(&cfg, 1, 1, 8, false);
        assert!(tp > 10.0 * pp, "tp {tp} vs pp {pp}");
    }
}
