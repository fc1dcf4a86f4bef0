//! Per-layer operation lists for the Megatron tensor-parallel transformer.
//!
//! Mirrors §2.3 (tensor model parallelism) and §4.2 (computation
//! optimizations): every GEMM, element-wise kernel, and tensor-parallel
//! all-reduce a single tensor-parallel rank executes for one microbatch, in
//! order. The compute substrate ([`crate::cluster`]) prices the GEMM and
//! element-wise ops; the network substrate prices the all-reduces.

use crate::cluster::{GpuSpec, KernelCost};

use crate::model::{GptConfig, BYTES_FP16};

/// One device-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// (Strided-batched) GEMM: `batch` independent `m × k × n` products.
    Gemm { batch: u64, m: u64, k: u64, n: u64 },
    /// Element-wise kernel(s): `bytes` of HBM traffic over `kernels`
    /// launches.
    Elementwise { bytes: u64, kernels: u32 },
    /// Tensor-parallel all-reduce of `bytes` across the `t` ranks of this
    /// stage (the paper's `g` operator forward / `f` operator backward).
    TensorAllReduce { bytes: u64 },
}

/// Knobs for building op lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpListParams {
    /// Microbatch size `b`.
    pub microbatch: u64,
    /// Tensor-model-parallel size `t` (must divide heads and 4h).
    pub tensor_parallel: u64,
    /// §4.2 operator fusion (bias+GeLU, bias+dropout+add, fused
    /// scale/mask/softmax) and the `[s, b, a, h]` layout enabling strided
    /// batched GEMMs.
    pub fused: bool,
}

impl OpListParams {
    /// Serial execution: t = 1, fusion on.
    pub fn serial(microbatch: u64) -> Self {
        OpListParams {
            microbatch,
            tensor_parallel: 1,
            fused: true,
        }
    }
}

/// Forward-pass op list for ONE transformer layer on one tensor-parallel
/// rank.
pub fn layer_forward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let (b, t) = (p.microbatch, p.tensor_parallel);
    let (h, a, s) = (cfg.hidden_size, cfg.num_heads, cfg.seq_len);
    assert!(a % t == 0, "tensor-parallel size {t} must divide heads {a}");
    assert!((4 * h) % t == 0, "tensor-parallel size {t} must divide 4h");
    let rows = b * s;
    let hd = cfg.head_dim();
    let heads_local = a / t;
    let e = BYTES_FP16;
    let mut ops = Vec::with_capacity(16);

    // --- Self-attention block ---
    // LayerNorm: read + write b·s·h.
    ops.push(Op::Elementwise {
        bytes: 2 * rows * h * e,
        kernels: 1,
    });
    // Fused QKV projection (column-parallel): (b·s × h) × (h × 3h/t).
    ops.push(Op::Gemm {
        batch: 1,
        m: rows,
        k: h,
        n: 3 * h / t,
    });
    if !p.fused {
        // Without the [s,b,a,h] data layout, Q/K/V must be transposed into
        // head-major form before the batched GEMMs (memory-intensive
        // transposes the paper's first computation optimization removes).
        ops.push(Op::Elementwise {
            bytes: 4 * rows * h * e,
            kernels: 2,
        });
    }
    // Attention scores QKᵀ: batched over b·(a/t) heads, (s × hd × s).
    ops.push(Op::Gemm {
        batch: b * heads_local,
        m: s,
        k: hd,
        n: s,
    });
    // Scale + causal mask + softmax on b·(a/t)·s² attention probabilities.
    let probs = b * heads_local * s * s * e;
    if p.fused {
        // One custom kernel (§4.2): read scores, write probabilities.
        ops.push(Op::Elementwise {
            bytes: 2 * probs,
            kernels: 1,
        });
    } else {
        // Pre-optimization path: scale, mask, and softmax as separate
        // kernels, upcast to fp32 (doubling traffic), plus the
        // [b,s,a,h]-layout transpose the §4.2 data-layout change removes.
        ops.push(Op::Elementwise {
            bytes: 12 * probs,
            kernels: 4,
        });
    }
    // Attention-probability dropout (not fused with the softmax kernel).
    ops.push(Op::Elementwise {
        bytes: 2 * probs,
        kernels: 1,
    });
    // Attention over values: batched (s × s × hd).
    ops.push(Op::Gemm {
        batch: b * heads_local,
        m: s,
        k: s,
        n: hd,
    });
    // Output projection (row-parallel): (b·s × h/t) × (h/t × h).
    ops.push(Op::Gemm {
        batch: 1,
        m: rows,
        k: h / t,
        n: h,
    });
    // g operator: all-reduce of the projection output across t ranks.
    if t > 1 {
        ops.push(Op::TensorAllReduce {
            bytes: rows * h * e,
        });
    }
    // bias + dropout + residual add.
    ops.push(dropout_add(rows * h * e, p.fused));

    // --- MLP block ---
    ops.push(Op::Elementwise {
        bytes: 2 * rows * h * e,
        kernels: 1,
    }); // LayerNorm
    ops.push(Op::Gemm {
        batch: 1,
        m: rows,
        k: h,
        n: 4 * h / t,
    });
    // bias + GeLU on the 4h/t intermediate.
    let inter = rows * (4 * h / t) * e;
    if p.fused {
        ops.push(Op::Elementwise {
            bytes: 2 * inter,
            kernels: 1,
        });
    } else {
        // Separate bias-add and GeLU kernels in fp32.
        ops.push(Op::Elementwise {
            bytes: 8 * inter,
            kernels: 2,
        });
    }
    ops.push(Op::Gemm {
        batch: 1,
        m: rows,
        k: 4 * h / t,
        n: h,
    });
    if t > 1 {
        ops.push(Op::TensorAllReduce {
            bytes: rows * h * e,
        });
    }
    ops.push(dropout_add(rows * h * e, p.fused));

    ops
}

fn dropout_add(tensor_bytes: u64, fused: bool) -> Op {
    if fused {
        // bias+dropout+add fused: read input, read residual, write output.
        Op::Elementwise {
            bytes: 3 * tensor_bytes,
            kernels: 1,
        }
    } else {
        // bias-add, dropout (with mask materialization), and residual-add
        // as three fp32 read+write passes.
        Op::Elementwise {
            bytes: 12 * tensor_bytes,
            kernels: 3,
        }
    }
}

/// Backward-pass op list for ONE transformer layer on one tensor-parallel
/// rank. Every forward GEMM becomes two GEMMs (grad-input and grad-weight)
/// of equal FLOPs; the `f` operator all-reduces grad-input at the two
/// block entries; element-wise backward traffic mirrors forward.
pub fn layer_backward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let mut ops = Vec::with_capacity(24);
    for op in layer_forward(cfg, p).into_iter().rev() {
        match op {
            Op::Gemm { batch, m, k, n } => {
                // dX = dY · Wᵀ : (m × n × k); dW = Xᵀ · dY : (k × m × n).
                ops.push(Op::Gemm {
                    batch,
                    m,
                    k: n,
                    n: k,
                });
                ops.push(Op::Gemm {
                    batch,
                    m: k,
                    k: m,
                    n,
                });
            }
            Op::Elementwise { bytes, kernels } => {
                ops.push(Op::Elementwise { bytes, kernels });
            }
            // The conjugate `f` operator: identity forward, all-reduce
            // backward, at each block *entry*. Its cost equals the two `g`
            // all-reduces we traverse here in reverse.
            Op::TensorAllReduce { bytes } => ops.push(Op::TensorAllReduce { bytes }),
        }
    }
    ops
}

/// Embedding lookup + positional add for one microbatch (first stage only).
pub fn embedding_forward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let rows = p.microbatch * cfg.seq_len;
    vec![Op::Elementwise {
        bytes: 3 * rows * cfg.hidden_size * BYTES_FP16,
        kernels: 1,
    }]
}

/// Embedding backward (scatter-add of gradients).
pub fn embedding_backward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let rows = p.microbatch * cfg.seq_len;
    vec![Op::Elementwise {
        bytes: 2 * rows * cfg.hidden_size * BYTES_FP16,
        kernels: 1,
    }]
}

/// Final LayerNorm + vocab-parallel logit GEMM + cross-entropy for one
/// microbatch (last stage only).
pub fn logit_forward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let (b, t) = (p.microbatch, p.tensor_parallel);
    let rows = b * cfg.seq_len;
    let (h, v) = (cfg.hidden_size, cfg.vocab_size);
    let mut ops = vec![
        Op::Elementwise {
            bytes: 2 * rows * h * BYTES_FP16,
            kernels: 1,
        },
        Op::Gemm {
            batch: 1,
            m: rows,
            k: h,
            n: v / t,
        },
        // Vocab-parallel cross-entropy: one pass over the logit shard plus a
        // (tiny) all-reduce of per-token max/sum statistics.
        Op::Elementwise {
            bytes: 2 * rows * (v / t) * BYTES_FP16,
            kernels: 1,
        },
    ];
    if t > 1 {
        ops.push(Op::TensorAllReduce {
            bytes: 2 * rows * BYTES_FP16,
        });
    }
    ops
}

/// Logit-layer backward for one microbatch.
pub fn logit_backward(cfg: &GptConfig, p: OpListParams) -> Vec<Op> {
    let (b, t) = (p.microbatch, p.tensor_parallel);
    let rows = b * cfg.seq_len;
    let (h, v) = (cfg.hidden_size, cfg.vocab_size);
    vec![
        Op::Elementwise {
            bytes: 2 * rows * (v / t) * BYTES_FP16,
            kernels: 1,
        },
        Op::Gemm {
            batch: 1,
            m: rows,
            k: v / t,
            n: h,
        },
        Op::Gemm {
            batch: 1,
            m: h,
            k: rows,
            n: v / t,
        },
        Op::Elementwise {
            bytes: 2 * rows * h * BYTES_FP16,
            kernels: 1,
        },
    ]
}

/// Sum of FLOPs in an op list (GEMMs only — the paper's convention).
pub fn list_flops(ops: &[Op]) -> f64 {
    ops.iter()
        .map(|op| match *op {
            Op::Gemm { batch, m, k, n } => 2.0 * (batch * m * k * n) as f64,
            _ => 0.0,
        })
        .sum()
}

/// Price the *local* (non-collective) ops of a list on `gpu`, counting
/// all-reduce bytes separately.
///
/// Returns `(local_cost, all_reduce_bytes)`.
pub fn price_local(ops: &[Op], gpu: &GpuSpec) -> (KernelCost, u64) {
    let mut cost = KernelCost::ZERO;
    let mut ar_bytes = 0u64;
    for op in ops {
        match *op {
            Op::Gemm { batch, m, k, n } => {
                cost = cost.then(gpu.batched_gemm(batch, m, k, n, BYTES_FP16, true));
            }
            Op::Elementwise { bytes, kernels } => {
                cost = cost.then(gpu.elementwise(bytes, kernels));
            }
            Op::TensorAllReduce { bytes } => ar_bytes += bytes,
        }
    }
    (cost, ar_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    fn cfg() -> GptConfig {
        GptConfig::paper("test", 4, 3072, 32)
    }

    #[test]
    fn forward_flops_match_appendix_formula() {
        // Appendix: forward FLOPs per layer = 24Bsh² + 4Bs²h (t = 1).
        let cfg = cfg();
        let b = 4;
        let ops = layer_forward(&cfg, OpListParams::serial(b));
        let got = list_flops(&ops);
        let (s, h) = (cfg.seq_len as f64, cfg.hidden_size as f64);
        let want = 24.0 * b as f64 * s * h * h + 4.0 * b as f64 * s * s * h;
        assert!((got - want).abs() / want < 1e-12, "got {got} want {want}");
    }

    #[test]
    fn backward_flops_are_twice_forward() {
        let cfg = cfg();
        let p = OpListParams::serial(2);
        let f = list_flops(&layer_forward(&cfg, p));
        let b = list_flops(&layer_backward(&cfg, p));
        assert!((b - 2.0 * f).abs() / f < 1e-12);
    }

    #[test]
    fn tensor_parallel_splits_gemm_flops_evenly() {
        let cfg = cfg();
        let serial = list_flops(&layer_forward(&cfg, OpListParams::serial(2)));
        for t in [2u64, 4, 8] {
            let p = OpListParams {
                microbatch: 2,
                tensor_parallel: t,
                fused: true,
            };
            let shard = list_flops(&layer_forward(&cfg, p));
            assert!(
                (shard * t as f64 - serial).abs() / serial < 1e-12,
                "t={t}: shard {shard} serial {serial}"
            );
        }
    }

    #[test]
    fn two_all_reduces_per_layer_forward_and_backward() {
        // §2.3: "two all-reduce operations in the forward pass and two in
        // the backward pass".
        let cfg = cfg();
        let p = OpListParams {
            microbatch: 2,
            tensor_parallel: 4,
            fused: true,
        };
        let count = |ops: &[Op]| {
            ops.iter()
                .filter(|o| matches!(o, Op::TensorAllReduce { .. }))
                .count()
        };
        assert_eq!(count(&layer_forward(&cfg, p)), 2);
        assert_eq!(count(&layer_backward(&cfg, p)), 2);
    }

    #[test]
    fn all_reduce_bytes_are_bsh_each() {
        let cfg = cfg();
        let b = 2u64;
        let p = OpListParams {
            microbatch: b,
            tensor_parallel: 4,
            fused: true,
        };
        let expected = b * cfg.seq_len * cfg.hidden_size * BYTES_FP16;
        for op in layer_forward(&cfg, p) {
            if let Op::TensorAllReduce { bytes } = op {
                assert_eq!(bytes, expected);
            }
        }
    }

    #[test]
    fn no_all_reduce_when_serial() {
        let cfg = cfg();
        let ops = layer_forward(&cfg, OpListParams::serial(2));
        assert!(ops.iter().all(|o| !matches!(o, Op::TensorAllReduce { .. })));
    }

    #[test]
    fn fusion_reduces_kernels_and_bytes() {
        let cfg = cfg();
        let mk = |fused| OpListParams {
            microbatch: 2,
            tensor_parallel: 1,
            fused,
        };
        let sum = |ops: &[Op]| {
            ops.iter().fold((0u64, 0u32), |(by, ks), o| match *o {
                Op::Elementwise { bytes, kernels } => (by + bytes, ks + kernels),
                _ => (by, ks),
            })
        };
        let (fb, fk) = sum(&layer_forward(&cfg, mk(true)));
        let (ub, uk) = sum(&layer_forward(&cfg, mk(false)));
        assert!(fb < ub, "fused bytes {fb} vs unfused {ub}");
        assert!(fk < uk, "fused kernels {fk} vs unfused {uk}");
    }

    #[test]
    fn full_iteration_flops_match_eq3() {
        // Summing op-list FLOPs over layers + logit layer, ×3 for fwd+bwd,
        // ×recompute forward, must land on Eq. 3 for a real model.
        let cfg = zoo::gpt3_175b();
        let b = 4u64;
        let p = OpListParams::serial(b);
        let layer = list_flops(&layer_forward(&cfg, p));
        let logit = list_flops(&logit_forward(&cfg, p));
        // fwd + recompute fwd + bwd(2×) per layer; logit fwd + bwd only.
        let per_microbatch = cfg.num_layers as f64 * layer * 4.0 + logit * 3.0;
        let batch = 64u64;
        let total = per_microbatch * (batch / b) as f64;
        let eq3 = cfg.flops_per_iteration_eq3(batch);
        let rel = (total - eq3).abs() / eq3;
        assert!(
            rel < 0.01,
            "op-list {total:.4e} vs eq3 {eq3:.4e} (rel {rel})"
        );
    }

    #[test]
    fn price_local_counts_ar_bytes() {
        let cfg = cfg();
        let p = OpListParams {
            microbatch: 2,
            tensor_parallel: 4,
            fused: true,
        };
        let gpu = crate::cluster::GpuSpec::a100_80gb();
        let (cost, ar) = price_local(&layer_forward(&cfg, p), &gpu);
        assert!(cost.seconds > 0.0);
        assert_eq!(ar, 2 * 2 * cfg.seq_len * cfg.hidden_size * BYTES_FP16);
    }

    #[test]
    #[should_panic(expected = "divide heads")]
    fn rejects_t_not_dividing_heads() {
        let cfg = GptConfig::paper("m", 2, 3072, 12);
        layer_forward(
            &cfg,
            OpListParams {
                microbatch: 1,
                tensor_parallel: 8,
                fused: true,
            },
        );
    }
}
