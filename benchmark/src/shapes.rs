//! Every GEMM a workload issues in one training iteration, worked out from
//! its configuration: which `megatron_tensor::gemm` variant, at which shape,
//! how many times. The GEMM probes time exactly these shapes, and
//! `tensor.flops_per_token` is their FLOP sum over the tokens of a batch.

use std::collections::BTreeMap;

use megatron_tensor::gpt::TinyGptConfig;

/// Which `megatron_tensor::gemm` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// `matmul(a: m×k, b: k×n)`.
    Nn,
    /// `matmul_tn(a: k×m, b: k×n)`.
    Tn,
    /// `matmul_nt(a: m×k, b: n×k)`.
    Nt,
}

/// One distinct GEMM shape of a workload; the output is `m×n`, the inner
/// dimension `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gemm {
    pub variant: Variant,
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl Gemm {
    /// Multiply-adds counted as two operations.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// How a job cuts the model and the batch; a serial run is
/// `tensor = 1, microbatch = batch`.
#[derive(Debug, Clone, Copy)]
pub struct Cut {
    pub batch: usize,
    pub microbatch: usize,
    pub tensor: usize,
}

/// Distinct GEMM shapes with the number of calls per iteration, summed over
/// every rank of the job (forward and backward).
///
/// Follows `tensor::layers`: a `Linear(in→out)` on `r` rows is one NN
/// `(r, in, out)` forward and a TN `(in, r, out)` plus an NT `(r, out, in)`
/// backward; attention runs per (sample, local head) an NT `(s, dh, s)` and
/// an NN `(s, s, dh)` forward and two TN `(s, s, dh)`, an NT `(s, dh, s)`
/// and an NN `(s, s, dh)` backward. Tensor parallelism shards the 3h/4h
/// columns and the heads over `t` ranks; the LM head is replicated over
/// them. Pipeline and data parallelism move calls between ranks without
/// changing their shapes or their number.
pub fn enumerate(cfg: TinyGptConfig, cut: Cut) -> BTreeMap<Gemm, u64> {
    let (h, s, t) = (cfg.hidden, cfg.seq, cut.tensor);
    let rows = cut.microbatch * s;
    let dh = h / cfg.heads;
    // Passes of one microbatch through one layer, over all tensor ranks.
    let passes = ((cut.batch / cut.microbatch) * t) as u64;
    let layer_calls = passes * cfg.layers as u64;
    let head_calls = layer_calls * (cut.microbatch * cfg.heads / t) as u64;

    let mut out = BTreeMap::new();
    let mut add = |variant, m, k, n, calls: u64| {
        *out.entry(Gemm { variant, m, k, n }).or_insert(0) += calls;
    };
    let mut linear = |inputs: usize, outputs: usize, calls: u64| {
        add(Variant::Nn, rows, inputs, outputs, calls);
        add(Variant::Tn, inputs, rows, outputs, calls);
        add(Variant::Nt, rows, outputs, inputs, calls);
    };
    linear(h, 3 * h / t, layer_calls); // qkv
    linear(h / t, h, layer_calls); // proj
    linear(h, 4 * h / t, layer_calls); // fc1
    linear(4 * h / t, h, layer_calls); // fc2
    linear(h, cfg.vocab, passes); // lm head
    add(Variant::Nt, s, dh, s, 2 * head_calls);
    add(Variant::Nn, s, s, dh, 2 * head_calls);
    add(Variant::Tn, s, s, dh, 2 * head_calls);
    out
}

/// FLOPs of one iteration over all ranks.
pub fn total_flops(shapes: &BTreeMap<Gemm, u64>) -> f64 {
    shapes.iter().map(|(g, c)| g.flops() * *c as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: TinyGptConfig = TinyGptConfig {
        vocab: 128,
        seq: 32,
        hidden: 128,
        heads: 4,
        layers: 4,
    };

    /// 3 × (forward FLOPs): per layer 24·r·h² in the four linears and
    /// 4·r·s·h in attention, plus 2·r·h·V in the head — the paper's eq. (3)
    /// without recomputation.
    fn closed_form(cfg: TinyGptConfig, batch: usize) -> f64 {
        let (r, h, s, v) = (
            (batch * cfg.seq) as f64,
            cfg.hidden as f64,
            cfg.seq as f64,
            cfg.vocab as f64,
        );
        3.0 * (cfg.layers as f64 * (24.0 * r * h * h + 4.0 * r * s * h) + 2.0 * r * h * v)
    }

    #[test]
    fn serial_flops_match_the_closed_form() {
        let cut = Cut {
            batch: 4,
            microbatch: 4,
            tensor: 1,
        };
        assert_eq!(total_flops(&enumerate(CFG, cut)), closed_form(CFG, 4));
    }

    #[test]
    fn tensor_parallel_flops_add_one_replicated_head() {
        // Sharding and microbatching leave layer FLOPs unchanged; the LM
        // head is computed once per tensor rank.
        let cut = Cut {
            batch: 16,
            microbatch: 2,
            tensor: 2,
        };
        let (r, h, v) = ((16 * CFG.seq) as f64, CFG.hidden as f64, CFG.vocab as f64);
        assert_eq!(
            total_flops(&enumerate(CFG, cut)),
            closed_form(CFG, 16) + 6.0 * r * h * v
        );
    }

    #[test]
    fn shapes_carry_the_sharded_widths() {
        let cut = Cut {
            batch: 16,
            microbatch: 2,
            tensor: 2,
        };
        let shapes = enumerate(CFG, cut);
        // qkv forward: 2·32 rows, h = 128 in, 3h/2 = 192 out, once per layer,
        // microbatch and tensor rank.
        let qkv = Gemm {
            variant: Variant::Nn,
            m: 64,
            k: 128,
            n: 192,
        };
        assert_eq!(shapes[&qkv], 4 * 8 * 2);
        // fc1 weight gradient: xᵀ·dy with the 4h/2 = 256 sharded columns.
        let fc1_dw = Gemm {
            variant: Variant::Tn,
            m: 128,
            k: 64,
            n: 256,
        };
        assert_eq!(shapes[&fc1_dw], 4 * 8 * 2);
        // Attention scores: per sample and local head, forward and backward.
        let scores = Gemm {
            variant: Variant::Nt,
            m: 32,
            k: 32,
            n: 32,
        };
        assert_eq!(shapes[&scores], 2 * (4 * 8 * 2) * (2 * 4 / 2));
    }
}
