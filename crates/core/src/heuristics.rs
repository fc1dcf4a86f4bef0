//! The paper's configuration heuristics (§3 Takeaways #1–#3).
//!
//! The paper deliberately does not search the full strategy space (unlike
//! FlexFlow/PipeDream/DAPPLE); it offers heuristics "that we found work well
//! in practice". This module encodes them as filters over the one layout
//! list ([`crate::parallel::layouts`]), priced by the one layer pricer
//! (`costs::price_layer`):
//!
//! - **Takeaway #1**: tensor parallelism up to the node size `g`, pipeline
//!   parallelism beyond that.
//! - **Takeaway #2**: total model-parallel size `M = t·p` just large enough
//!   for the model state + activations to fit; data parallelism scales out
//!   the rest.
//! - **Takeaway #3**: microbatch size chosen per problem by balancing
//!   arithmetic intensity against pipeline-bubble growth (Eq. 1).

use std::cmp::Reverse;

use crate::cluster::ClusterSpec;

use crate::costs;
use crate::model::GptConfig;
use crate::parallel::{analysis, layouts, ParallelConfig};

/// Fraction of device memory the heuristic treats as usable for model state
/// and stashed activations. The rest is the practical overhead a real run
/// pays: CUDA context, NCCL communication buffers, cuBLAS workspaces,
/// allocator fragmentation, and the transient peak of the recomputation
/// forward pass. 0.62 × 80 GB ≈ 50 GB reproduces every (t, p) choice in the
/// paper's Table 1.
pub const USABLE_MEMORY_FRACTION: f64 = 0.62;

/// Eq. 1's per-microbatch `t_f(b)` / `t_b(b)` on one device holding `L/p`
/// transformer layers of a tensor group of `t` GPUs inside one node:
/// `costs::price_layer`'s fused forward and backward (tensor-parallel
/// all-reduces included), the backward carrying the recomputation forward
/// when `recompute` is set. Embedding and logits are left out, as Eq. 1
/// does.
pub fn device_times(
    model: &GptConfig,
    cluster: &ClusterSpec,
    p: u64,
    t: u64,
    b: u64,
    recompute: bool,
) -> (f64, f64) {
    let group: Vec<usize> = (0..t as usize).collect();
    let layer = costs::price_layer(model, cluster, &group, b, true);
    let backward = if recompute {
        layer.backward + layer.forward
    } else {
        layer.backward
    };
    let layers_per_device = model.num_layers as f64 / p as f64;
    (
        layer.forward * layers_per_device,
        backward * layers_per_device,
    )
}

/// Why no configuration could be suggested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoValidConfig {
    /// Human-readable explanation.
    pub reason: String,
}

impl std::fmt::Display for NoValidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no valid PTD-P configuration: {}", self.reason)
    }
}

impl std::error::Error for NoValidConfig {}

/// Suggest `(p, t, d, b)` for `model` on `cluster` at global batch `batch`,
/// following the takeaways. Interleaving (`chunks`) is left at 1; callers
/// wanting the §2.2.2 schedule can raise it afterwards (subject to
/// divisibility).
pub fn suggest_config(
    model: &GptConfig,
    cluster: &ClusterSpec,
    batch: u64,
) -> Result<ParallelConfig, NoValidConfig> {
    let n = cluster.total_gpus() as u64;
    let g = cluster.node.gpus_per_node as u64;
    let capacity = (cluster.gpu.mem_capacity as f64 * USABLE_MEMORY_FRACTION) as u64;

    // Takeaway #1 keeps t a power of two inside a node (dividing the MLP's
    // 4h); Takeaway #2 takes the smallest model-parallel size t·p that fits
    // at b = 1, larger t first.
    let (p, t, d) = layouts(n)
        .into_iter()
        .filter(|&(_, t, _)| {
            t.is_power_of_two() && t <= g && (4 * model.hidden_size).is_multiple_of(t)
        })
        .filter(|&(p, t, d)| {
            let c = ParallelConfig::new(p, t, d, 1, batch);
            c.validate_for_model(model, n, capacity, true).is_ok()
        })
        .min_by_key(|&(p, t, _)| (t * p, Reverse(t)))
        .ok_or_else(|| NoValidConfig {
            reason: format!(
                "model {} does not fit on {n} GPUs at any (t ≤ {g}, p ≤ {n}) combination",
                model.name
            ),
        })?;

    // Takeaway #3: pick b minimizing Eq. 1 among microbatch sizes that keep
    // the batch divisible and the memory within capacity.
    let b_prime = batch / d;
    let mut best: Option<(u64, f64)> = None;
    for b in [1u64, 2, 4, 8, 16] {
        if !b_prime.is_multiple_of(b) {
            continue;
        }
        let c = ParallelConfig::new(p, t, d, b, batch);
        if c.validate_for_model(model, n, capacity, true).is_err() {
            continue;
        }
        let (tf, tb) = device_times(model, cluster, p, t, b, true);
        let time = analysis::eq1_batch_time(b_prime, b, p, |_| tf, |_| tb);
        if best.is_none_or(|(_, t0)| time < t0) {
            best = Some((b, time));
        }
    }
    let (b, _) = best.ok_or_else(|| NoValidConfig {
        reason: "no microbatch size fits".to_string(),
    })?;

    Ok(ParallelConfig::new(p, t, d, b, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    #[test]
    fn small_model_gets_pure_data_parallelism() {
        // Table 1 row 1: 1.7B on 32 GPUs → (t, p) = (1, 1).
        let cluster = ClusterSpec::selene(32);
        let row = &zoo::table1()[0];
        let c = suggest_config(&row.config, &cluster, row.batch_size).unwrap();
        assert_eq!((c.tensor, c.pipeline), (1, 1));
        assert_eq!(c.data, 32);
    }

    #[test]
    fn medium_models_grow_tensor_parallelism_first() {
        // Table 1 rows 2–4 use t ∈ {2, 4, 8} with p = 1.
        for (i, want_t) in [(1usize, 2u64), (2, 4), (3, 8)] {
            let row = &zoo::table1()[i];
            let cluster = ClusterSpec::selene(row.n_gpus as usize);
            let c = suggest_config(&row.config, &cluster, row.batch_size).unwrap();
            assert_eq!(c.pipeline, 1, "{}", row.config.name);
            assert_eq!(c.tensor, want_t, "{}", row.config.name);
        }
    }

    #[test]
    fn large_models_add_pipeline_parallelism() {
        // Table 1 row 7 (145.6B, 1536 GPUs): paper used (t, p) = (8, 8).
        let row = &zoo::table1()[6];
        let cluster = ClusterSpec::selene(row.n_gpus as usize);
        let c = suggest_config(&row.config, &cluster, row.batch_size).unwrap();
        assert_eq!(c.tensor, 8);
        assert!(
            c.pipeline >= 4,
            "expect deep pipeline, got p={}",
            c.pipeline
        );
        c.validate_for_model(&row.config, row.n_gpus, cluster.gpu.mem_capacity, true)
            .unwrap();
    }

    #[test]
    fn trillion_parameter_model_on_3072_gpus() {
        let row = &zoo::table1()[9];
        let cluster = ClusterSpec::selene(3072);
        let c = suggest_config(&row.config, &cluster, row.batch_size).unwrap();
        assert_eq!(c.tensor, 8, "Takeaway #1: t = node size");
        assert!(c.pipeline >= 32, "needs deep pipeline, got {}", c.pipeline);
        assert_eq!(c.n_gpus(), 3072);
    }

    #[test]
    fn impossible_model_is_rejected() {
        // A trillion-parameter model on 8 GPUs cannot fit.
        let cluster = ClusterSpec::selene(8);
        assert!(suggest_config(&zoo::gpt_1t(), &cluster, 8).is_err());
    }

    #[test]
    fn device_times_scale_with_microbatch() {
        let cluster = ClusterSpec::selene(64);
        let model = zoo::gpt_5p9b();
        let (f1, b1) = device_times(&model, &cluster, 2, 2, 1, true);
        let (f4, b4) = device_times(&model, &cluster, 2, 2, 4, true);
        // 4× the samples in less than 4× the time (better utilization).
        assert!(f4 < 4.0 * f1 && f4 > f1);
        assert!(b4 < 4.0 * b1 && b4 > b1);
    }

    #[test]
    fn backward_slower_than_forward() {
        let cluster = ClusterSpec::selene(64);
        let model = zoo::gpt_5p9b();
        let (f, b) = device_times(&model, &cluster, 2, 2, 2, false);
        assert!(b > 1.5 * f && b < 3.0 * f, "t_b/t_f = {}", b / f);
    }

    #[test]
    fn recompute_adds_a_forward_to_backward() {
        let cluster = ClusterSpec::selene(64);
        let model = zoo::gpt_5p9b();
        let (f, b_no) = device_times(&model, &cluster, 2, 2, 2, false);
        let (_, b_yes) = device_times(&model, &cluster, 2, 2, 2, true);
        assert!((b_yes - b_no - f).abs() / f < 1e-9);
    }

    #[test]
    fn device_times_are_a_middle_stage_of_the_simulator() {
        // Eq. 1's per-device time and the simulator's price of a stage
        // with no embedding or logits come from the same layer price.
        let cluster = ClusterSpec::selene(64);
        let model = zoo::gpt_5p9b(); // 32 layers
        let pc = ParallelConfig::new(4, 8, 2, 2, 64);
        let stages = costs::price_stages(&model, &cluster, &pc, true, false);
        let (f, b) = device_times(&model, &cluster, 4, 8, 2, false);
        assert_eq!((stages[1].forward, stages[1].backward), (f, b));
    }

    #[test]
    fn the_heuristic_choice_is_one_of_the_valid_layouts() {
        let cluster = ClusterSpec::selene(64);
        let model = zoo::gpt_5p9b();
        let capacity = cluster.gpu.mem_capacity;
        let valid: Vec<_> = layouts(64)
            .into_iter()
            .filter(|&(p, t, d)| {
                let c = ParallelConfig::new(p, t, d, 1, 128);
                c.validate_for_model(&model, 64, capacity, true).is_ok()
            })
            .collect();
        let pick = suggest_config(&model, &cluster, 128).unwrap();
        assert!(valid.contains(&(pick.pipeline, pick.tensor, pick.data)));
        assert!(valid.len() > 5, "5.9B model should admit many configs");
    }
}
