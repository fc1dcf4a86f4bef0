//! Roofline compute-time model for a single GPU.

/// Cost of one kernel under the roofline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Wall-clock seconds, including launch overhead.
    pub seconds: f64,
    /// Floating-point operations performed (throughput accounting).
    pub flops: f64,
    /// Bytes moved to/from HBM.
    pub bytes: f64,
}

impl KernelCost {
    /// Zero cost (e.g. an elided kernel).
    pub const ZERO: KernelCost = KernelCost {
        seconds: 0.0,
        flops: 0.0,
        bytes: 0.0,
    };

    /// Sum of two costs executed back to back.
    #[must_use]
    pub fn then(self, other: KernelCost) -> KernelCost {
        KernelCost {
            seconds: self.seconds + other.seconds,
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Performance model of one GPU.
///
/// Kernel time = `max(flops / (peak · eff), bytes / mem_bandwidth) +
/// kernel_overhead`, where `eff` shrinks for small GEMM dimensions (tile
/// quantization / low occupancy), matching the empirical behaviour the paper
/// leans on in §3.4 and Figure 7 ("per-GPU throughput increases by up to
/// 1.3× with a larger microbatch size").
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// Peak matmul throughput in FLOP/s (A100 fp16 tensor core: 312e12).
    pub peak_matmul_flops: f64,
    /// HBM bandwidth in B/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Fixed per-kernel launch + tail overhead in seconds.
    pub kernel_overhead: f64,
    /// Fraction of peak a large, well-shaped GEMM sustains (cuBLAS fp16 on
    /// A100 reaches 0.8–0.9 of tensor-core peak for large shapes).
    pub max_gemm_efficiency: f64,
    /// Half-saturation constant for the GEMM inner/column dimension
    /// granularity factor: a dimension of `gemm_dim_half` elements runs at
    /// 50 % of the asymptotic efficiency. Models tile quantization on small
    /// per-tensor-parallel-rank shards.
    pub gemm_dim_half: f64,
    /// Half-saturation constant for the GEMM rows dimension (`m = b·s`).
    /// Larger than `gemm_dim_half`: a proxy for wave quantization /
    /// occupancy, the mechanism behind the paper's Figure 7 ("per-GPU
    /// throughput increases by up to 1.3× with a larger microbatch size").
    pub gemm_rows_half: f64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-80GB (the paper's device; peak 312 teraFLOP/s fp16).
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-80GB".to_string(),
            peak_matmul_flops: 312e12,
            mem_bandwidth: 2.0e12,
            mem_capacity: 80 * (1 << 30),
            kernel_overhead: 4.5e-6,
            max_gemm_efficiency: 0.82,
            gemm_dim_half: 48.0,
            gemm_rows_half: 640.0,
        }
    }

    /// NVIDIA V100-SXM2-32GB (the GPT-3 "288 years on a single V100" device).
    pub fn v100_32gb() -> Self {
        GpuSpec {
            name: "V100-32GB".to_string(),
            peak_matmul_flops: 125e12,
            mem_bandwidth: 0.9e12,
            mem_capacity: 32 * (1 << 30),
            kernel_overhead: 5.0e-6,
            max_gemm_efficiency: 0.80,
            gemm_dim_half: 48.0,
            gemm_rows_half: 640.0,
        }
    }

    /// Granularity efficiency factor for one GEMM dimension.
    #[inline]
    fn dim_factor(x: f64, half: f64) -> f64 {
        x / (x + half)
    }

    /// Effective GEMM efficiency (fraction of peak) for an `m × k × n`
    /// product. Monotone increasing in every dimension, asymptote
    /// `max_gemm_efficiency`.
    pub fn gemm_efficiency(&self, m: f64, k: f64, n: f64) -> f64 {
        self.max_gemm_efficiency
            * Self::dim_factor(m, self.gemm_rows_half)
            * Self::dim_factor(k, self.gemm_dim_half)
            * Self::dim_factor(n, self.gemm_dim_half)
    }

    /// Cost of a single `m × k × n` GEMM with `bpe` bytes per element.
    pub fn gemm(&self, m: u64, k: u64, n: u64, bpe: u64) -> KernelCost {
        self.batched_gemm(1, m, k, n, bpe, true)
    }

    /// Cost of a batched `m × k × n` GEMM.
    ///
    /// `strided` selects the paper's §4.2 data-layout optimization (one
    /// strided batched kernel); when false the batch pays one launch
    /// overhead per member, modelling the pre-optimization layout.
    pub fn batched_gemm(
        &self,
        batch: u64,
        m: u64,
        k: u64,
        n: u64,
        bpe: u64,
        strided: bool,
    ) -> KernelCost {
        if batch == 0 || m == 0 || k == 0 || n == 0 {
            return KernelCost::ZERO;
        }
        let (mf, kf, nf, bf) = (m as f64, k as f64, n as f64, batch as f64);
        let flops = 2.0 * bf * mf * kf * nf;
        let bytes = bf * (mf * kf + kf * nf + mf * nf) * bpe as f64;
        let eff = self.gemm_efficiency(mf, kf, nf);
        let t_compute = flops / (self.peak_matmul_flops * eff);
        let t_mem = bytes / self.mem_bandwidth;
        let launches = if strided { 1.0 } else { bf };
        KernelCost {
            seconds: t_compute.max(t_mem) + launches * self.kernel_overhead,
            flops,
            bytes,
        }
    }

    /// Cost of element-wise work moving `bytes` to/from HBM across `kernels`
    /// kernel launches. Fusion (§4.2) reduces both `kernels` and `bytes`
    /// (fewer intermediate round trips).
    pub fn elementwise(&self, bytes: u64, kernels: u32) -> KernelCost {
        if bytes == 0 && kernels == 0 {
            return KernelCost::ZERO;
        }
        KernelCost {
            seconds: bytes as f64 / self.mem_bandwidth + kernels as f64 * self.kernel_overhead,
            // Element-wise FLOPs are negligible next to GEMMs and the paper's
            // Eq. 3 excludes them; we account time and bytes only.
            flops: 0.0,
            bytes: bytes as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuSpec {
        GpuSpec::a100_80gb()
    }

    #[test]
    fn large_gemm_is_compute_bound_near_max_eff() {
        let g = a100();
        let c = g.gemm(8192, 12288, 12288, 2);
        let achieved = c.flops / c.seconds;
        let frac = achieved / g.peak_matmul_flops;
        assert!(
            frac > 0.55,
            "large GEMM should approach max eff, got {frac}"
        );
        assert!(frac <= g.max_gemm_efficiency + 1e-9);
    }

    #[test]
    fn skinny_gemm_is_slow() {
        let g = a100();
        // m=1 row: tensor cores cannot be fed; far below peak, and never
        // faster than the memory-bandwidth floor.
        let c = g.gemm(1, 4096, 4096, 2);
        let t_mem = c.bytes / g.mem_bandwidth;
        assert!(c.seconds >= t_mem, "roofline memory floor violated");
        let frac = c.flops / c.seconds / g.peak_matmul_flops;
        assert!(
            frac < 0.05,
            "skinny GEMM should be far below peak, got {frac}"
        );
    }

    #[test]
    fn efficiency_monotone_in_each_dim() {
        let g = a100();
        let base = g.gemm_efficiency(256.0, 256.0, 256.0);
        assert!(g.gemm_efficiency(512.0, 256.0, 256.0) > base);
        assert!(g.gemm_efficiency(256.0, 512.0, 256.0) > base);
        assert!(g.gemm_efficiency(256.0, 256.0, 512.0) > base);
    }

    #[test]
    fn per_gpu_throughput_rises_with_microbatch_size() {
        // The Figure 7 phenomenon: throughput per GPU increases with b.
        let g = a100();
        let (s, h) = (2048u64, 4096u64);
        let tput = |b: u64| {
            // one MLP fwd: (b*s × h) × (h × 4h) then (b*s × 4h) × (4h × h)
            let c = g.gemm(b * s, h, 4 * h, 2).then(g.gemm(b * s, 4 * h, h, 2));
            c.flops / c.seconds
        };
        assert!(tput(2) > tput(1));
        assert!(tput(8) > tput(2));
        // Paper: "up to 1.3×" from b=1 to large b; our model should show a
        // material gain in the same direction.
        assert!(tput(16) / tput(1) > 1.05);
    }

    #[test]
    fn batched_strided_cheaper_than_unstrided() {
        let g = a100();
        let strided = g.batched_gemm(96, 2048, 128, 2048, 2, true);
        let loopy = g.batched_gemm(96, 2048, 128, 2048, 2, false);
        assert!(strided.seconds < loopy.seconds);
        assert_eq!(strided.flops, loopy.flops);
    }

    #[test]
    fn zero_sized_gemm_is_free() {
        let g = a100();
        assert_eq!(g.gemm(0, 128, 128, 2), KernelCost::ZERO);
        assert_eq!(g.batched_gemm(4, 128, 0, 128, 2, true), KernelCost::ZERO);
    }

    #[test]
    fn elementwise_fusion_saves_time() {
        let g = a100();
        // bias + gelu unfused: 2 kernels, intermediate written+read again.
        let unfused = g.elementwise(4 * 1_000_000, 2);
        let fused = g.elementwise(2 * 1_000_000, 1);
        assert!(fused.seconds < unfused.seconds);
    }

    #[test]
    fn kernel_cost_then_accumulates() {
        let a = KernelCost {
            seconds: 1.0,
            flops: 2.0,
            bytes: 3.0,
        };
        let b = KernelCost {
            seconds: 0.5,
            flops: 1.0,
            bytes: 1.0,
        };
        let c = a.then(b);
        assert_eq!(c.seconds, 1.5);
        assert_eq!(c.flops, 3.0);
        assert_eq!(c.bytes, 4.0);
    }
}
