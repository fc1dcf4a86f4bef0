//! PTD-P parallel configurations (§3 of the paper).
//!
//! A [`ParallelConfig`] fixes the parallelization dimensions `(p, t, d)`,
//! the microbatch size `b`, the global batch size `B`, and the interleaving
//! degree `v`. This module provides:
//!
//! - validation of the §3.1 constraints (`p·t·d = n`, `m = B/(b·d)`
//!   integral, interleaving divisibility);
//! - the Megatron rank ↔ (pipeline, data, tensor) mapping and process-group
//!   enumeration ([`RankMapper`]) — tensor-parallel innermost so tensor
//!   groups land inside a node, pipeline outermost so consecutive stages
//!   land on different nodes;
//! - the §3 analytical models ([`analysis`]): bubble fraction, Eq. 1
//!   processing time, and per-dimension communication volumes, all from
//!   the one ring factor [`analysis::ring_all_reduce_bytes`];
//! - the one list of layouts ([`layouts`]) every search filters.
//!
//! This module says what a layout is and whether it is valid; what a layout
//! costs, and the §3 heuristics that pick one, live in the rest of the
//! crate ([`TrainingRun`](crate::TrainingRun), [`heuristics`](crate::heuristics)).

pub mod analysis;
mod mapping;

pub use mapping::{Coord, RankMapper};

/// Every `(p, t, d)` with `p·t·d = n`, in ascending `(p, t, d)` order — the
/// one enumeration of layouts. It asserts nothing: a caller keeps the
/// triples [`ParallelConfig::validate`] or
/// [`ParallelConfig::validate_for_model`] accept, plus any filters of its
/// own. A search over `p·t·d ≤ capacity` calls it once per world size.
pub fn layouts(n: u64) -> Vec<(u64, u64, u64)> {
    let divisors = |k: u64| (1..=k).filter(move |x| k.is_multiple_of(*x));
    divisors(n)
        .flat_map(|p| divisors(n / p).map(move |t| (p, t, n / (p * t))))
        .collect()
}

/// A full PTD-P parallelization choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Pipeline-model-parallel size `p`.
    pub pipeline: u64,
    /// Tensor-model-parallel size `t`.
    pub tensor: u64,
    /// Data-parallel size `d`.
    pub data: u64,
    /// Microbatch size `b`.
    pub microbatch: u64,
    /// Global batch size `B`.
    pub batch: u64,
    /// Interleaving degree `v` (model chunks per device; 1 = none).
    pub chunks: u64,
}

/// Reasons a [`ParallelConfig`] is invalid for a given cluster/model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `p·t·d` differs from the GPU count.
    WrongGpuCount {
        /// `p·t·d` of the config.
        implied: u64,
        /// GPUs available.
        actual: u64,
    },
    /// `B` is not divisible by `d·b` (m must be integral).
    IndivisibleBatch {
        /// Global batch size.
        batch: u64,
        /// `d·b`.
        divisor: u64,
    },
    /// Interleaving requires `m` to be a multiple of `p`.
    IndivisibleInterleaving {
        /// Microbatches per pipeline.
        m: u64,
        /// Pipeline size.
        p: u64,
    },
    /// Model layers don't divide evenly into `p·v` stages.
    IndivisibleLayers {
        /// Number of layers.
        layers: u64,
        /// `p·v` stages.
        stages: u64,
    },
    /// Tensor-parallel size doesn't divide the attention heads.
    IndivisibleHeads {
        /// Attention heads.
        heads: u64,
        /// Tensor-parallel size.
        t: u64,
    },
    /// The per-GPU memory footprint exceeds device capacity.
    OutOfMemory {
        /// Required bytes.
        required: u64,
        /// Capacity bytes.
        capacity: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::WrongGpuCount { implied, actual } => {
                write!(f, "p·t·d = {implied} but cluster has {actual} GPUs")
            }
            ConfigError::IndivisibleBatch { batch, divisor } => {
                write!(f, "batch {batch} not divisible by d·b = {divisor}")
            }
            ConfigError::IndivisibleInterleaving { m, p } => {
                write!(f, "interleaving needs m ({m}) divisible by p ({p})")
            }
            ConfigError::IndivisibleLayers { layers, stages } => {
                write!(f, "{layers} layers don't divide into {stages} stages")
            }
            ConfigError::IndivisibleHeads { heads, t } => {
                write!(f, "t = {t} doesn't divide {heads} attention heads")
            }
            ConfigError::OutOfMemory { required, capacity } => {
                write!(
                    f,
                    "needs {} GiB > {} GiB capacity",
                    required >> 30,
                    capacity >> 30
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ParallelConfig {
    /// A config with no interleaving.
    pub fn new(pipeline: u64, tensor: u64, data: u64, microbatch: u64, batch: u64) -> Self {
        ParallelConfig {
            pipeline,
            tensor,
            data,
            microbatch,
            batch,
            chunks: 1,
        }
    }

    /// Builder-style interleaving degree.
    #[must_use]
    pub fn with_chunks(mut self, v: u64) -> Self {
        self.chunks = v;
        self
    }

    /// Total GPUs implied, `n = p·t·d`.
    pub fn n_gpus(&self) -> u64 {
        self.pipeline * self.tensor * self.data
    }

    /// Microbatches per pipeline per iteration, `m = B / (b·d)` (§3.1).
    pub fn microbatches(&self) -> u64 {
        self.batch / (self.microbatch * self.data)
    }

    /// Analytical pipeline-bubble fraction `(p−1)/(v·m)` (§2.2).
    pub fn bubble_fraction(&self) -> f64 {
        analysis::bubble_fraction(self.pipeline, self.microbatches(), self.chunks)
    }

    /// Check the arithmetic constraints of §3.1 (GPU count, batch
    /// divisibility, interleaving divisibility). Model- and memory-dependent
    /// checks live in [`ParallelConfig::validate_for_model`].
    pub fn validate(&self, n_gpus: u64) -> Result<(), ConfigError> {
        assert!(
            self.pipeline > 0
                && self.tensor > 0
                && self.data > 0
                && self.microbatch > 0
                && self.batch > 0
                && self.chunks > 0,
            "all dimensions must be positive"
        );
        if self.n_gpus() != n_gpus {
            return Err(ConfigError::WrongGpuCount {
                implied: self.n_gpus(),
                actual: n_gpus,
            });
        }
        let divisor = self.data * self.microbatch;
        if !self.batch.is_multiple_of(divisor) {
            return Err(ConfigError::IndivisibleBatch {
                batch: self.batch,
                divisor,
            });
        }
        let m = self.microbatches();
        if self.chunks > 1 && !m.is_multiple_of(self.pipeline) {
            return Err(ConfigError::IndivisibleInterleaving {
                m,
                p: self.pipeline,
            });
        }
        Ok(())
    }

    /// Full validation against a model and GPU memory capacity: §3.1
    /// constraints plus layer/head divisibility plus the Takeaway-#2 memory
    /// fit (1F1B in-flight bound of `p` microbatches, with recomputation
    /// selectable).
    pub fn validate_for_model(
        &self,
        model: &crate::model::GptConfig,
        n_gpus: u64,
        mem_capacity: u64,
        recompute: bool,
    ) -> Result<(), ConfigError> {
        self.validate(n_gpus)?;
        let stages = self.pipeline * self.chunks;
        if !model.num_layers.is_multiple_of(stages) {
            return Err(ConfigError::IndivisibleLayers {
                layers: model.num_layers,
                stages,
            });
        }
        if !model.num_heads.is_multiple_of(self.tensor) {
            return Err(ConfigError::IndivisibleHeads {
                heads: model.num_heads,
                t: self.tensor,
            });
        }
        let in_flight = self.pipeline.min(self.microbatches()) * self.chunks;
        let required = crate::model::memory::total_bytes_per_gpu(
            model,
            self.pipeline,
            self.tensor,
            self.microbatch,
            in_flight,
            recompute,
        );
        if required > mem_capacity {
            return Err(ConfigError::OutOfMemory {
                required,
                capacity: mem_capacity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    #[test]
    fn microbatch_count() {
        let c = ParallelConfig::new(8, 8, 6, 1, 3072);
        assert_eq!(c.microbatches(), 512);
        assert_eq!(c.n_gpus(), 384);
    }

    #[test]
    fn validate_accepts_table1_trillion_row() {
        let c = ParallelConfig::new(64, 8, 6, 1, 3072);
        c.validate(3072).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_gpu_count() {
        let c = ParallelConfig::new(8, 8, 8, 1, 512);
        assert!(matches!(
            c.validate(256),
            Err(ConfigError::WrongGpuCount { implied: 512, .. })
        ));
    }

    #[test]
    fn validate_rejects_indivisible_batch() {
        let c = ParallelConfig::new(2, 2, 3, 2, 100);
        assert!(matches!(
            c.validate(12),
            Err(ConfigError::IndivisibleBatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_interleaving() {
        // m = 6, p = 4 → not divisible.
        let c = ParallelConfig::new(4, 1, 1, 1, 6).with_chunks(2);
        assert!(matches!(
            c.validate(4),
            Err(ConfigError::IndivisibleInterleaving { m: 6, p: 4 })
        ));
    }

    #[test]
    fn validate_for_model_checks_layers_and_heads() {
        let model = zoo::gpt_5p9b(); // 32 layers, 32 heads
        let cap = 80 * (1u64 << 30);
        let bad_layers = ParallelConfig::new(5, 1, 1, 1, 10);
        assert!(matches!(
            bad_layers.validate_for_model(&model, 5, cap, true),
            Err(ConfigError::IndivisibleLayers { .. })
        ));
        let bad_heads = ParallelConfig::new(1, 64, 1, 1, 8);
        assert!(matches!(
            bad_heads.validate_for_model(&model, 64, cap, true),
            Err(ConfigError::IndivisibleHeads { .. })
        ));
    }

    #[test]
    fn validate_for_model_catches_oom() {
        // GPT-3 on a single GPU: hopeless.
        let model = zoo::gpt3_175b();
        let c = ParallelConfig::new(1, 1, 1, 1, 8);
        assert!(matches!(
            c.validate_for_model(&model, 1, 80 * (1 << 30), true),
            Err(ConfigError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn layouts_list_every_factorization_once_in_order() {
        assert_eq!(layouts(1), [(1, 1, 1)]);
        let twelve = layouts(12);
        assert!(twelve.iter().all(|&(p, t, d)| p * t * d == 12));
        assert!(twelve.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // Ordered factorizations of 2²·3 into three factors: C(4,2)·C(3,2).
        assert_eq!(twelve.len(), 18);
        assert!(layouts(0).is_empty(), "no layout has zero GPUs");
    }

    #[test]
    fn bubble_fraction_matches_formula() {
        let c = ParallelConfig::new(8, 8, 6, 1, 3072).with_chunks(2);
        // m = 512, p = 8, v = 2 → 7/1024.
        assert!((c.bubble_fraction() - 7.0 / 1024.0).abs() < 1e-12);
    }
}
