//! The parallelization plan: how many ways to split the model and batch,
//! which pipeline schedule to run, and the optimizer/memory knobs.

use std::time::Duration;

use megatron_schedule::ScheduleKind;

use crate::comm::DEFAULT_COMM_TIMEOUT;

/// Thread coordinate `(pipeline, data, tensor)`.
pub type ThreadKey = (usize, usize, usize);

/// Parallelization plan for [`PtdpTrainer`](crate::trainer::PtdpTrainer).
#[derive(Debug, Clone, Copy)]
pub struct PtdpSpec {
    /// Pipeline-parallel size `p`.
    pub pipeline: usize,
    /// Tensor-parallel size `t`.
    pub tensor: usize,
    /// Data-parallel size `d`.
    pub data: usize,
    /// Model chunks per device `v` (1 = non-interleaved).
    pub chunks: usize,
    /// Microbatch size `b` (samples).
    pub microbatch: usize,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Adam learning rate.
    pub lr: f32,
    /// §3.5 activation recomputation: stash only each chunk's input during
    /// the forward pass and rerun the forward just before the backward.
    /// Numerically identical (the rebuilt caches are bit-equal); activation
    /// memory drops from full per-layer caches to one input tensor.
    pub recompute: bool,
    /// Timeout of every collective and pipeline transfer of a run under
    /// this spec. [`RunControl::comm_timeout`](crate::trainer::RunControl) can
    /// override it per run (the supervisor shortens it on retry attempts
    /// so repeat failures are detected faster).
    pub comm_timeout: Duration,
}

impl PtdpSpec {
    /// A (p, t, d) spec with 1F1B, no interleaving, microbatch 1.
    pub fn new(pipeline: usize, tensor: usize, data: usize) -> Self {
        PtdpSpec {
            pipeline,
            tensor,
            data,
            chunks: 1,
            microbatch: 1,
            schedule: ScheduleKind::OneFOneB,
            lr: 0.01,
            recompute: false,
            comm_timeout: DEFAULT_COMM_TIMEOUT,
        }
    }

    /// Total threads.
    pub fn world(&self) -> usize {
        self.pipeline * self.tensor * self.data
    }

    /// Microbatches per replica and iteration, `m = B / (d·b)`, for a global
    /// batch of `global_batch` samples — refused unless it divides evenly.
    /// Thread mode, the process launcher and every rank worker all get `m`
    /// here, so none of them can round a ragged batch down on its own.
    pub fn microbatches(&self, global_batch: usize) -> Result<usize, String> {
        let per_step = self.data * self.microbatch;
        if per_step == 0 || !global_batch.is_multiple_of(per_step) {
            return Err(format!("B={global_batch} must divide by d·b = {per_step}"));
        }
        Ok(global_batch / per_step)
    }

    /// The thread coordinate of a flat rank index, in the trainer's spawn
    /// order: pipeline outermost, then data, tensor innermost.
    pub fn thread_key(&self, rank: usize) -> ThreadKey {
        assert!(rank < self.world(), "rank {rank} out of range");
        let ti = rank % self.tensor;
        let di = (rank / self.tensor) % self.data;
        let pi = rank / (self.tensor * self.data);
        (pi, di, ti)
    }

    /// Inverse of [`PtdpSpec::thread_key`]: the flat rank index of a
    /// thread coordinate under this spec. The elastic supervisor uses it
    /// to carry fault-injection points across a topology change (a kill
    /// aimed at a rank of the old world maps to `flat % new_world`).
    pub fn flat_rank(&self, key: ThreadKey) -> usize {
        let (pi, di, ti) = key;
        assert!(
            pi < self.pipeline && di < self.data && ti < self.tensor,
            "thread {key:?} out of range for ({}, {}, {})",
            self.pipeline,
            self.tensor,
            self.data
        );
        pi * (self.data * self.tensor) + di * self.tensor + ti
    }
}
