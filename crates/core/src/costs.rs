//! Per-layer and per-stage compute-cost pricing: the one place a
//! transformer layer's forward and backward are priced.

use crate::cluster::ClusterSpec;

use crate::model::ops::{self, OpListParams};
use crate::model::GptConfig;
use crate::net::analytical;
use crate::parallel::{ParallelConfig, RankMapper};

/// Priced cost of one transformer layer on one rank of a tensor group, for
/// a single microbatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Forward seconds: local kernels + the tensor-parallel all-reduces.
    pub forward: f64,
    /// Backward seconds, same terms (no recomputation forward).
    pub backward: f64,
    /// GEMM FLOPs of the forward pass.
    pub forward_flops: f64,
    /// Tensor-parallel all-reduce bytes of the forward pass.
    pub forward_ar_bytes: u64,
    /// Tensor-parallel all-reduce bytes of the backward pass.
    pub backward_ar_bytes: u64,
}

/// Price one transformer layer at microbatch `microbatch` on a rank of the
/// tensor group `group` (global GPU ranks; `t = group.len()`), its
/// all-reduces ring-priced over the group's real placement:
/// `2(t−1)·(λ + bytes/(t·β))`, NVLink inside a node, InfiniBand across.
pub fn price_layer(
    model: &GptConfig,
    cluster: &ClusterSpec,
    group: &[usize],
    microbatch: u64,
    fused: bool,
) -> LayerCost {
    let params = OpListParams {
        microbatch,
        tensor_parallel: group.len() as u64,
        fused,
    };
    let (f, f_ar) = ops::price_local(&ops::layer_forward(model, params), &cluster.gpu);
    let (b, b_ar) = ops::price_local(&ops::layer_backward(model, params), &cluster.gpu);
    let ar_time = |bytes: u64| analytical::ring_all_reduce_time(cluster, group, bytes as f64);
    LayerCost {
        forward: f.seconds + ar_time(f_ar),
        backward: b.seconds + ar_time(b_ar),
        forward_flops: f.flops,
        forward_ar_bytes: f_ar,
        backward_ar_bytes: b_ar,
    }
}

/// Priced cost of one pipeline stage (one model chunk on one device) for a
/// single microbatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Forward-pass seconds (local kernels + tensor-parallel all-reduces).
    pub forward: f64,
    /// Backward-pass seconds (incl. recomputation forward if enabled).
    pub backward: f64,
    /// GEMM FLOPs in the forward pass (per tensor-parallel rank).
    pub forward_flops: f64,
    /// Tensor-parallel all-reduce bytes per rank in forward + backward.
    pub tensor_ar_bytes: u64,
}

/// Price every global stage `0..p·v`.
///
/// Stage 0 additionally carries the embedding; the last stage carries the
/// final LayerNorm + vocab-parallel logit layer and loss. All-reduce times
/// use the tensor group's real GPU placement, so `t` larger than a node
/// pays inter-node prices (the Figure 13 cross-node-tensor-parallel
/// effect).
pub fn price_stages(
    model: &GptConfig,
    cluster: &ClusterSpec,
    pc: &ParallelConfig,
    fused: bool,
    recompute: bool,
) -> Vec<StageCost> {
    let p = pc.pipeline;
    let v = pc.chunks;
    let total_stages = p * v;
    assert!(model.num_layers.is_multiple_of(total_stages));
    let layers_per_stage = model.num_layers / total_stages;
    let params = OpListParams {
        microbatch: pc.microbatch,
        tensor_parallel: pc.tensor,
        fused,
    };
    let mapper = RankMapper::new(p, pc.tensor, pc.data);
    let gpu = &cluster.gpu;

    (0..total_stages)
        .map(|stage| {
            let device = stage % p; // chunk·p + device layout
            let group = mapper.tensor_group(device, 0);
            let ar_time =
                |bytes: u64| analytical::ring_all_reduce_time(cluster, &group, bytes as f64);
            let layer = price_layer(model, cluster, &group, pc.microbatch, fused);

            let mut fwd = layers_per_stage as f64 * layer.forward;
            let mut bwd = layers_per_stage as f64 * layer.backward;
            let mut fwd_flops = layers_per_stage as f64 * layer.forward_flops;
            let mut ar_bytes =
                layers_per_stage * (layer.forward_ar_bytes + layer.backward_ar_bytes);

            if stage == 0 {
                let (c, ar) = ops::price_local(&ops::embedding_forward(model, params), gpu);
                fwd += c.seconds + ar_time(ar);
                let (c, ar) = ops::price_local(&ops::embedding_backward(model, params), gpu);
                bwd += c.seconds + ar_time(ar);
            }
            if stage == total_stages - 1 {
                let (c, ar) = ops::price_local(&ops::logit_forward(model, params), gpu);
                fwd += c.seconds + ar_time(ar);
                fwd_flops += c.flops;
                ar_bytes += ar;
                let (c, ar) = ops::price_local(&ops::logit_backward(model, params), gpu);
                bwd += c.seconds + ar_time(ar);
                ar_bytes += ar;
            }
            if recompute {
                // §3.5: run the forward pass again just before the backward
                // pass (transformer layers only; the logit layer keeps its
                // activations).
                bwd += layers_per_stage as f64 * layer.forward;
                ar_bytes += layers_per_stage * layer.forward_ar_bytes;
            }
            StageCost {
                forward: fwd,
                backward: bwd,
                forward_flops: fwd_flops,
                tensor_ar_bytes: ar_bytes,
            }
        })
        .collect()
}

/// Optimizer-step time per device: Adam over the largest per-GPU parameter
/// shard — reads fp16 grad + fp32 master/momentum/variance, writes fp32
/// master/momentum/variance + fp16 weight (≈ 30 bytes per parameter of HBM
/// traffic), purely memory-bound.
pub fn optimizer_step_time(model: &GptConfig, cluster: &ClusterSpec, pc: &ParallelConfig) -> f64 {
    let params = (0..pc.pipeline)
        .map(|s| crate::model::memory::params_per_gpu(model, pc.pipeline, pc.tensor, s))
        .max()
        .unwrap_or(0);
    let bytes = params * 30;
    cluster.gpu.elementwise(bytes, 4).seconds
}

/// Data-parallel gradient all-reduce time (fp16 gradients of the largest
/// per-GPU shard — the 2021 Megatron mixed-precision recipe all-reduces
/// fp16 gradients and keeps fp32 master state in the optimizer — ring over
/// the data group's real placement). Zero when d = 1.
pub fn data_parallel_all_reduce_time(
    model: &GptConfig,
    cluster: &ClusterSpec,
    pc: &ParallelConfig,
) -> f64 {
    if pc.data <= 1 {
        return 0.0;
    }
    let mapper = RankMapper::new(pc.pipeline, pc.tensor, pc.data);
    let params = (0..pc.pipeline)
        .map(|s| crate::model::memory::params_per_gpu(model, pc.pipeline, pc.tensor, s))
        .max()
        .unwrap_or(0);
    let bytes = (params * crate::model::BYTES_FP16) as f64;
    let group = mapper.data_group(0, 0);
    analytical::ring_all_reduce_time(cluster, &group, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    fn pc(p: u64, t: u64, d: u64, b: u64, batch: u64) -> ParallelConfig {
        ParallelConfig::new(p, t, d, b, batch)
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(16);
        let costs = price_stages(&model, &cluster, &pc(2, 2, 4, 1, 64), true, false);
        for c in &costs {
            assert!(c.backward > 1.5 * c.forward);
        }
    }

    #[test]
    fn recompute_adds_forward_to_backward() {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(16);
        let plain = price_stages(&model, &cluster, &pc(2, 2, 4, 1, 64), true, false);
        let rc = price_stages(&model, &cluster, &pc(2, 2, 4, 1, 64), true, true);
        for (a, b) in plain.iter().zip(&rc) {
            assert!(b.backward > a.backward);
            assert_eq!(a.forward, b.forward);
        }
    }

    #[test]
    fn first_and_last_stages_heavier() {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(16);
        let costs = price_stages(&model, &cluster, &pc(4, 2, 2, 1, 64), true, true);
        assert!(costs[0].forward > costs[1].forward, "embedding on stage 0");
        assert!(
            costs[3].forward > costs[1].forward,
            "logit layer on last stage"
        );
        assert_eq!(costs[1].forward, costs[2].forward);
    }

    #[test]
    fn cross_node_tensor_parallelism_is_expensive() {
        // t = 16 spans two nodes: all-reduces ride InfiniBand.
        let model = zoo::gpt_162b();
        let cluster = ClusterSpec::selene(64);
        let intra = price_stages(&model, &cluster, &pc(8, 8, 1, 1, 32), true, true);
        let inter = price_stages(&model, &cluster, &pc(4, 16, 1, 1, 32), true, true);
        // Per-stage the t=16 config has 2× the layers; compare per-layer
        // forward time.
        let intra_per_layer = intra[1].forward / (model.num_layers / 8) as f64;
        let inter_per_layer = inter[1].forward / (model.num_layers / 4) as f64;
        assert!(
            inter_per_layer > 1.3 * intra_per_layer,
            "intra {intra_per_layer} vs inter {inter_per_layer}"
        );
    }

    #[test]
    fn interleaving_splits_stage_cost() {
        let model = zoo::gpt_5p9b(); // 32 layers
        let cluster = ClusterSpec::selene(16);
        let whole = price_stages(&model, &cluster, &pc(4, 2, 2, 1, 64), true, false);
        let split = price_stages(
            &model,
            &cluster,
            &pc(4, 2, 2, 1, 64).with_chunks(2),
            true,
            false,
        );
        assert_eq!(split.len(), 8);
        // A middle chunk has half the layers of a middle whole stage.
        let rel = split[1].forward / whole[1].forward;
        assert!((rel - 0.5).abs() < 0.05, "got {rel}");
    }

    #[test]
    fn optimizer_and_dp_times_positive() {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(64);
        let c = pc(2, 2, 16, 1, 64);
        assert!(optimizer_step_time(&model, &cluster, &c) > 0.0);
        assert!(data_parallel_all_reduce_time(&model, &cluster, &c) > 0.0);
        let serial = pc(2, 2, 1, 1, 64);
        assert_eq!(
            data_parallel_all_reduce_time(&model, &cluster, &serial),
            0.0
        );
    }

    #[test]
    fn fusion_speeds_up_stages() {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(16);
        let fused = price_stages(&model, &cluster, &pc(2, 2, 4, 4, 64), true, true);
        let unfused = price_stages(&model, &cluster, &pc(2, 2, 4, 4, 64), false, true);
        assert!(unfused[0].forward > fused[0].forward);
        assert!(unfused[0].backward > fused[0].backward);
    }
}
