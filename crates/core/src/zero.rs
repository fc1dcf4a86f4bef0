//! ZeRO-3 (fully-sharded data-parallel) baseline cost simulator (§5.2).
//!
//! The paper compares PTD-P against DeepSpeed's ZeRO-3 *without* model
//! parallelism: every rank processes its share of the batch through the
//! *full* model, with parameters, gradients, and optimizer state sharded
//! across all `n` data-parallel ranks. Before computing a layer, a rank
//! all-gathers that layer's fp16 parameters from their owners; in the
//! backward pass parameters are gathered again and gradients leave via a
//! reduce-scatter.
//!
//! Per-iteration traffic per rank is therefore ≈ `3 · 2P` bytes
//! (two all-gathers + one reduce-scatter of the fp16 parameter/gradient
//! footprint), regardless of the per-rank batch — which is why, with the
//! global batch held fixed, doubling the GPU count halves per-rank compute
//! but leaves communication untouched, collapsing per-GPU throughput
//! (Figure 10's diverging curves). Communication partially overlaps with
//! compute via bucket prefetching: the larger of the two terms governs and
//! roughly half of the smaller one stays exposed.
//!
//! Compute is priced by the same stage pricer as PTD-P: one stage at
//! `p = t = 1` carrying embedding, logits and the recomputation forward.

use crate::cluster::ClusterSpec;

use crate::costs;
use crate::model::{memory, GptConfig, BYTES_FP16};
use crate::parallel::{analysis, ParallelConfig};

/// Which ZeRO optimization stage to model (Rajbhandari et al., the paper's
/// §6 "Sharded Data Parallelism" related work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroStage {
    /// Optimizer state sharded; parameters and gradients replicated.
    /// Communication identical to vanilla data parallelism.
    One,
    /// + gradients sharded (reduce-scatter instead of all-reduce, then
    ///   an all-gather of updated parameters).
    Two,
    /// + parameters sharded: per-layer all-gathers in forward and
    ///   backward (the §5.2 comparison point).
    Three,
    /// ZeRO-Infinity: stage 3 with parameters resident on NVMe, streamed in
    /// per layer. Tiny memory, brutal bandwidth bill.
    Infinity,
}

/// A ZeRO training run (no model parallelism).
#[derive(Debug, Clone)]
pub struct ZeroRun {
    /// Model architecture.
    pub model: GptConfig,
    /// Hardware.
    pub cluster: ClusterSpec,
    /// Global batch size `B`.
    pub batch: u64,
    /// Microbatch size `b` (per-rank grad-accumulation granularity).
    pub microbatch: u64,
    /// Activation recomputation (on at these scales, as in the paper).
    pub recompute: bool,
    /// ZeRO stage (the paper compares against stage 3).
    pub stage: ZeroStage,
    /// Per-node NVMe streaming bandwidth for [`ZeroStage::Infinity`], B/s.
    pub nvme_bandwidth: f64,
}

/// Simulated iteration metrics for a ZeRO-3 run.
#[derive(Debug, Clone, Copy)]
pub struct ZeroReport {
    /// Seconds per training iteration.
    pub iteration_time: f64,
    /// Achieved teraFLOP/s per GPU (Eq. 3 FLOP convention).
    pub tflops_per_gpu: f64,
    /// Percent of device peak.
    pub pct_of_peak: f64,
    /// Compute seconds per rank (excludes exposed communication).
    pub compute_time: f64,
    /// Parameter all-gather + gradient reduce-scatter seconds per rank
    /// (before overlap).
    pub comm_time: f64,
    /// Model-state bytes per rank (sharded) + stashed activations.
    pub memory_bytes_per_gpu: u64,
}

impl ZeroRun {
    /// Construct a stage-3 run with recomputation enabled (the paper's
    /// comparison configuration).
    pub fn new(model: GptConfig, cluster: ClusterSpec, batch: u64, microbatch: u64) -> Self {
        ZeroRun {
            model,
            cluster,
            batch,
            microbatch,
            recompute: true,
            stage: ZeroStage::Three,
            nvme_bandwidth: 25e9, // 8 NVMe drives/node, ~3 GB/s each
        }
    }

    /// Builder-style stage selection.
    #[must_use]
    pub fn with_stage(mut self, stage: ZeroStage) -> Self {
        self.stage = stage;
        self
    }

    /// Number of ranks (= all GPUs; ZeRO-3 is pure data parallelism).
    pub fn n_ranks(&self) -> u64 {
        self.cluster.total_gpus() as u64
    }

    /// Per-rank microbatch count (grad accumulation steps).
    pub fn accumulation_steps(&self) -> u64 {
        let n = self.n_ranks();
        assert!(
            self.batch.is_multiple_of(n * self.microbatch),
            "batch {} must divide over {} ranks × microbatch {}",
            self.batch,
            n,
            self.microbatch
        );
        self.batch / (n * self.microbatch)
    }

    /// Simulate one iteration.
    pub fn simulate(&self) -> ZeroReport {
        let n = self.n_ranks();
        let k = self.accumulation_steps();
        let gpu = &self.cluster.gpu;
        let l = self.model.num_layers;

        // Compute per microbatch: the full model as one stage on one GPU.
        let pc = ParallelConfig::new(1, 1, n, self.microbatch, self.batch);
        let stage = costs::price_stages(&self.model, &self.cluster, &pc, true, self.recompute)[0];
        let compute_time = stage.forward * k as f64 + stage.backward * k as f64;

        // Communication per iteration per rank: each parameter-gather moves
        // one ring phase — half a ring all-reduce, (n−1)/n — of the fp16
        // model through the rank's own network port; DeepSpeed re-gathers
        // in the backward pass and reduce-scatters fp16 gradients. The
        // bottleneck link is InfiniBand as soon as the run spans nodes.
        let p_bytes = (self.model.params_exact() * BYTES_FP16) as f64;
        let phase_bytes = analysis::ring_all_reduce_bytes(p_bytes, n) / 2.0;
        let bw = if self.cluster.n_nodes > 1 {
            self.cluster.node.ib_bandwidth
        } else {
            self.cluster.node.nvlink_bandwidth
        };
        let lat = if self.cluster.n_nodes > 1 {
            self.cluster.node.ib_latency
        } else {
            self.cluster.node.nvlink_latency
        };
        // Parameter-traffic multiples of 2P per rank, by stage:
        //   stage 1: gradient all-reduce        → 2 volumes (RS+AG phases)
        //   stage 2: grad reduce-scatter + param all-gather → 2 volumes
        //   stage 3: fwd gather + bwd gather + grad reduce-scatter → 3
        //   infinity: as stage 3, plus NVMe streaming handled below.
        let volumes = match self.stage {
            ZeroStage::One | ZeroStage::Two => 2.0,
            ZeroStage::Three | ZeroStage::Infinity => 3.0,
        };
        let volume_time = volumes * phase_bytes / bw;
        // Ring collectives pay latency steps per layer-granular call.
        let calls = match self.stage {
            ZeroStage::One => 1.0,
            ZeroStage::Two => 2.0,
            ZeroStage::Three | ZeroStage::Infinity => 3.0,
        };
        let latency_time = calls * l as f64 * (n as f64 - 1.0) * lat;
        let mut comm_time = volume_time + latency_time;
        if self.stage == ZeroStage::Infinity {
            // Parameters stream from NVMe twice per iteration (fwd + bwd)
            // and the sharded fp32 optimizer block round-trips once; the
            // node's GPUs share its NVMe bandwidth.
            let g = self.cluster.node.gpus_per_node as f64;
            let param_stream = 2.0 * p_bytes * (g / n as f64);
            let optim_stream = 2.0 * (12.0 * self.model.params_exact() as f64 / n as f64) * g;
            comm_time += (param_stream + optim_stream) / self.nvme_bandwidth;
        }

        // Overlap: parameter prefetch hides part of the smaller term behind
        // the larger, but bucketed gathers and per-layer synchronization
        // points expose roughly half of it in practice (DeepSpeed's
        // prefetch looks ahead one bucket only).
        let iteration_time =
            compute_time.max(comm_time) + 0.5 * compute_time.min(comm_time) + self.optimizer_time();

        let flops = self.model.flops_per_iteration(self.batch, self.recompute);
        let tflops_per_gpu = flops / iteration_time / n as f64 / 1e12;

        // Memory by stage: replicated fp16 params (4 B incl. grads) and the
        // 12 B/param fp32 optimizer block shard out progressively.
        let p_exact = self.model.params_exact();
        let state = match self.stage {
            ZeroStage::One => 4 * p_exact + 12 * p_exact / n,
            ZeroStage::Two => 2 * p_exact + (2 + 12) * p_exact / n,
            ZeroStage::Three => p_exact * memory::MODEL_STATE_BYTES_PER_PARAM / n,
            // Infinity keeps only a double-buffered working layer resident;
            // parameters, gradients, and optimizer state live on NVMe.
            ZeroStage::Infinity => 4 * (p_exact / l.max(1)),
        };
        let stash = if self.recompute {
            l * memory::activation_bytes_recompute(&self.model, self.microbatch)
        } else {
            l * memory::activation_bytes_full(&self.model, self.microbatch, 1)
        };
        let working = memory::activation_bytes_full(&self.model, self.microbatch, 1);

        ZeroReport {
            iteration_time,
            tflops_per_gpu,
            pct_of_peak: 100.0 * tflops_per_gpu * 1e12 / gpu.peak_matmul_flops,
            compute_time,
            comm_time,
            memory_bytes_per_gpu: state + stash + working,
        }
    }

    /// Sharded Adam step: each rank updates only its `P/n` shard.
    fn optimizer_time(&self) -> f64 {
        let shard = self.model.params_exact() / self.n_ranks();
        self.cluster.gpu.elementwise(shard * 30, 4).seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ops::{self, OpListParams};
    use crate::model::zoo;

    #[test]
    fn compute_is_the_sum_of_op_prices_bit_for_bit() {
        // The stage pricer at p = t = 1 adds the same terms in the same
        // order as summing the op lists by hand: L layers, embedding,
        // logits, then the recomputation forward.
        let (model, cluster) = (zoo::gpt3_175b(), ClusterSpec::selene(384));
        let (b, k) = (4, 1536 / (384 * 4));
        let params = OpListParams {
            microbatch: b,
            tensor_parallel: 1,
            fused: true,
        };
        let price = |ops: Vec<ops::Op>| ops::price_local(&ops, &cluster.gpu).0.seconds;
        let l = model.num_layers as f64;
        let lf = price(ops::layer_forward(&model, params));
        let fwd = l * lf
            + price(ops::embedding_forward(&model, params))
            + price(ops::logit_forward(&model, params));
        let bwd = l * price(ops::layer_backward(&model, params))
            + price(ops::embedding_backward(&model, params))
            + price(ops::logit_backward(&model, params))
            + l * lf;
        let r = ZeroRun::new(model, cluster, 1536, b).simulate();
        assert_eq!(r.compute_time, fwd * k as f64 + bwd * k as f64);
    }

    fn run(gpus: usize, batch: u64, b: u64) -> ZeroReport {
        ZeroRun::new(zoo::gpt3_175b(), ClusterSpec::selene(gpus), batch, b).simulate()
    }

    #[test]
    fn throughput_collapses_when_gpus_double_at_fixed_batch() {
        // Figure 10 / Table 2: 384→768→1536 GPUs at B=1536 roughly halves
        // per-GPU throughput each doubling (144 → 88 → 44 in the paper).
        let a = run(384, 1536, 4);
        let b = run(768, 1536, 2);
        let c = run(1536, 1536, 1);
        assert!(a.tflops_per_gpu > 1.4 * b.tflops_per_gpu, "{a:?} vs {b:?}");
        assert!(b.tflops_per_gpu > 1.4 * c.tflops_per_gpu);
    }

    #[test]
    fn comm_time_roughly_constant_across_scale() {
        let a = run(384, 1536, 4);
        let b = run(1536, 1536, 1);
        let rel = (a.comm_time - b.comm_time).abs() / a.comm_time;
        assert!(rel < 0.25, "comm {} vs {}", a.comm_time, b.comm_time);
    }

    #[test]
    fn compute_scales_down_with_more_gpus() {
        let a = run(384, 1536, 4);
        let b = run(1536, 1536, 1);
        assert!(a.compute_time > 3.0 * b.compute_time);
    }

    #[test]
    fn first_row_throughput_in_plausible_band() {
        // Paper: 144 TF/s per GPU for 175B on 384 GPUs with b=4.
        let r = run(384, 1536, 4);
        assert!(
            r.tflops_per_gpu > 110.0 && r.tflops_per_gpu < 180.0,
            "got {}",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn memory_shards_with_n() {
        let a = run(384, 1536, 4);
        let b = run(1536, 1536, 1);
        assert!(b.memory_bytes_per_gpu < a.memory_bytes_per_gpu);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_batch() {
        run(384, 1000, 4);
    }

    #[test]
    fn stage_memory_ordering() {
        // ZeRO's central claim: memory drops monotonically with stage.
        let model = zoo::gpt3_175b();
        let cluster = ClusterSpec::selene(384);
        let mem = |stage| {
            ZeroRun::new(model.clone(), cluster.clone(), 1536, 4)
                .with_stage(stage)
                .simulate()
                .memory_bytes_per_gpu
        };
        let (s1, s2, s3, inf) = (
            mem(ZeroStage::One),
            mem(ZeroStage::Two),
            mem(ZeroStage::Three),
            mem(ZeroStage::Infinity),
        );
        assert!(s1 > s2 && s2 > s3 && inf <= s3, "{s1} {s2} {s3} {inf}");
        // Stages 1–2 cannot hold a 175B model (replicated fp16 params).
        assert!(s2 > 80 * (1u64 << 30));
        assert!(s3 < 80 * (1u64 << 30));
    }

    #[test]
    fn lower_stages_communicate_less() {
        let model = zoo::gpt3_175b();
        let cluster = ClusterSpec::selene(384);
        let comm = |stage| {
            ZeroRun::new(model.clone(), cluster.clone(), 1536, 4)
                .with_stage(stage)
                .simulate()
                .comm_time
        };
        assert!(comm(ZeroStage::One) < comm(ZeroStage::Three));
        assert!(comm(ZeroStage::Two) < comm(ZeroStage::Three));
    }

    #[test]
    fn infinity_is_slow_but_tiny() {
        let model = zoo::gpt3_175b();
        let cluster = ClusterSpec::selene(64); // "small number of GPUs"
        let s3 = ZeroRun::new(model.clone(), cluster.clone(), 64, 1).simulate();
        let inf = ZeroRun::new(model, cluster, 64, 1)
            .with_stage(ZeroStage::Infinity)
            .simulate();
        assert!(inf.memory_bytes_per_gpu < s3.memory_bytes_per_gpu);
        assert!(
            inf.tflops_per_gpu < s3.tflops_per_gpu,
            "NVMe streaming must cost throughput: {} vs {}",
            inf.tflops_per_gpu,
            s3.tflops_per_gpu
        );
    }
}
