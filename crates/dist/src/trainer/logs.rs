//! Run inputs and outputs: the failure-handling knobs ([`RunControl`]),
//! what one rank returns ([`RankOutcome`]) and the fold of a world of them
//! into what a run produces ([`TrainLog`], [`TrainOutcome`]), checkpoint
//! state ([`TrainSnapshot`]), and the per-thread instrumentation records
//! (iterations completed, comm volumes, and the replayable comm-op tape).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use megatron_telemetry::TelemetrySink;
use megatron_tensor::AdamState;

use crate::checkpoint::CheckpointStore;
use crate::comm::{CollectiveOp, CommError, CommVolume, StallContext};

use super::spec::ThreadKey;

/// Per-thread communication totals for one run: tensor-group and
/// data-parallel-group collective volumes (measured transport bytes, f32)
/// plus pipeline p2p activation/gradient sends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankCommVolume {
    /// Tensor-parallel group collectives (the §3.2 per-layer all-reduces).
    pub tensor: CommVolume,
    /// Data-parallel group collectives (gradient averaging / ZeRO).
    pub data: CommVolume,
    /// Bytes this thread sent over pipeline stage boundaries (§3.2's
    /// `bsh`-sized transfers).
    pub p2p_send_bytes: f64,
}

impl RankCommVolume {
    /// Total bytes across all channels.
    pub fn total_bytes(&self) -> f64 {
        self.tensor.total_bytes() + self.data.total_bytes() + self.p2p_send_bytes
    }
}

/// The replayable communication tape of one thread: every collective it
/// issued on its tensor and data groups (in issue order), plus each
/// pipeline p2p send with its destination thread and f32 element count.
///
/// Replaying the tape through [`CollectiveOp::program`] rebuilds the exact
/// step programs the mailbox transport executed, so a simulator lowering
/// the same tape onto discrete-event links reproduces the run's traffic
/// byte for byte (asserted by the `real_vs_sim_bytes` integration test).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankCommOps {
    /// Collectives on the tensor group, in order.
    pub tensor: Vec<CollectiveOp>,
    /// Collectives on the data-parallel group, in order.
    pub data: Vec<CollectiveOp>,
    /// Pipeline p2p sends: (destination thread, f32 elements).
    pub p2p_sends: Vec<(ThreadKey, usize)>,
}

impl RankCommOps {
    /// Total bytes this tape implies the thread sent, independently of the
    /// transport counters: collective egress from the rebuilt step
    /// programs plus the recorded p2p payloads.
    pub fn total_bytes(
        &self,
        tensor_ranks: usize,
        tensor_rank: usize,
        data_ranks: usize,
        data_rank: usize,
    ) -> f64 {
        let coll: usize = self
            .tensor
            .iter()
            .map(|op| op.program(tensor_ranks).sent_elems(tensor_rank))
            .chain(
                self.data
                    .iter()
                    .map(|op| op.program(data_ranks).sent_elems(data_rank)),
            )
            .sum();
        let p2p: usize = self.p2p_sends.iter().map(|(_, n)| n).sum();
        (coll + p2p) as f64 * crate::comm::BYTES_F32
    }
}

/// Everything one rank measured, returned by value from
/// [`run_rank`](super::run_rank) whether the rank finished, returned an
/// error or unwound: nothing here is shared with another rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RankOutcome {
    pub(crate) key: ThreadKey,
    /// Why the rank stopped early, if it did.
    pub(crate) error: Option<TrainError>,
    /// One slot per iteration of the run; non-zero where this rank owns the
    /// reported loss (last stage, tensor rank 0, replica 0) and got there.
    pub(crate) losses: Vec<f32>,
    /// Iterations completed.
    pub(crate) steps: usize,
    /// Peak stashed-activation floats.
    pub(crate) peak_stash: usize,
    /// Transport-measured volume, comm-op tape and final parameters — read
    /// off at the end of the run, so left empty by a rank that failed.
    pub(crate) volume: RankCommVolume,
    pub(crate) ops: RankCommOps,
    pub(crate) params: Vec<f32>,
}

impl RankOutcome {
    pub(crate) fn new(key: ThreadKey, iterations: usize) -> Self {
        RankOutcome {
            key,
            losses: vec![0.0; iterations],
            ..Default::default()
        }
    }
}

/// Merge per-rank loss vectors, given in flat-rank order, into the run's
/// losses: every writer of an iteration holds the same all-reduced value,
/// so the first non-zero one is taken. Thread mode and the process-mode
/// launcher both report this.
pub(crate) fn merge_losses<'a>(
    iterations: usize,
    ranks: impl IntoIterator<Item = &'a [f32]>,
) -> Vec<f32> {
    let mut merged = vec![0.0f32; iterations];
    for losses in ranks {
        for (slot, &loss) in merged.iter_mut().zip(losses) {
            if *slot == 0.0 {
                *slot = loss;
            }
        }
    }
    merged
}

/// Result of a training run.
#[derive(Default)]
pub struct TrainLog {
    /// Mean loss per iteration (averaged over microbatches and replicas).
    /// A resumed run only fills the entries it executed.
    pub losses: Vec<f32>,
    /// Flattened final parameters per thread, keyed `(pipeline, data,
    /// tensor)` — in each thread's canonical visit order, for equivalence
    /// checks against shards of a serially trained model.
    pub final_params: HashMap<ThreadKey, Vec<f32>>,
    /// Peak stashed-activation floats per thread — the §3.5 memory metric
    /// (GPipe stashes m microbatches, 1F1B at most p, recompute only the
    /// chunk inputs).
    pub peak_stash_floats: HashMap<ThreadKey, usize>,
    /// Iterations each thread completed in this run (a resumed run counts
    /// from its restore point; a failed rank up to where it stopped).
    pub steps: HashMap<ThreadKey, usize>,
    /// Communication volume per thread (threads that completed the run).
    pub comm_volumes: HashMap<ThreadKey, RankCommVolume>,
    /// Replayable comm-op tape per thread (threads that completed the
    /// run): the input for lowering the same job onto the simulator.
    pub comm_ops: HashMap<ThreadKey, RankCommOps>,
}

/// One thread's share of an in-memory checkpoint: its flattened parameters
/// plus the full Adam state. Exact f32 copies, so a restore resumes
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadState {
    /// Flattened parameters in canonical visit order.
    pub params: Vec<f32>,
    /// Optimizer state.
    pub adam: AdamState,
}

/// A consistent in-memory checkpoint of the whole job, taken after the
/// optimizer step of iteration `next_iter - 1`.
#[derive(Debug, Clone, Default)]
pub struct TrainSnapshot {
    /// First iteration a resumed run should execute.
    pub next_iter: usize,
    /// Per-thread state, keyed `(pipeline, data, tensor)`.
    pub threads: HashMap<ThreadKey, ThreadState>,
}

/// Deliberately kill one rank mid-iteration (fault-injection hook): the
/// thread poisons its groups and exits halfway through its schedule ops
/// for that iteration, as if its GPU died.
#[derive(Debug, Clone, Copy)]
pub struct KillSwitch {
    /// Which thread dies.
    pub thread: ThreadKey,
    /// Iteration (0-based, absolute) during which it dies.
    pub iteration: usize,
}

/// Failure-handling knobs for
/// [`PtdpTrainer::train_with`](crate::trainer::PtdpTrainer::train_with).
#[derive(Default)]
pub struct RunControl {
    /// Snapshot the full job state every `k` iterations (after the
    /// optimizer step of iterations k-1, 2k-1, ...).
    pub checkpoint_every: Option<usize>,
    /// Resume from a previous checkpoint instead of the master weights.
    pub restore: Option<TrainSnapshot>,
    /// Kill a rank mid-iteration.
    pub kill: Option<KillSwitch>,
    /// Override [`PtdpSpec::comm_timeout`](super::PtdpSpec) for this run
    /// only.
    pub comm_timeout: Option<Duration>,
    /// Persist every in-memory checkpoint to this store as well: each
    /// thread writes its own shard and the thread completing a generation
    /// commits it (writes the manifest).
    pub durable: Option<Arc<CheckpointStore>>,
    /// Incident epoch this run belongs to (the supervisor's attempt
    /// counter). Tags every telemetry span and iteration record, so those
    /// of different restart attempts never interleave.
    pub epoch: usize,
    /// Telemetry sink: when set, every thread records per-microbatch
    /// fwd/bwd/comm/opt/checkpoint/bubble spans and the run feeds the
    /// metrics registry (iteration times, comm volume, bubble fraction).
    pub telemetry: Option<Arc<TelemetrySink>>,
    /// Per-iteration beat hook, invoked with the flat rank once per
    /// completed iteration: a [`HealthMonitor`](crate::HealthMonitor)'s
    /// `beat` in thread mode (dead-or-alive classification), a heartbeat
    /// frame over the launcher socket in process mode, so a monitor in
    /// *another* process can classify this rank.
    pub on_beat: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

/// Why a thread of a training run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// This rank was deliberately killed by a [`KillSwitch`].
    Killed(ThreadKey),
    /// A collective failed (peer died or timed out).
    Comm(CommError),
    /// A pipeline lane broke: the stage peer's thread exited early, or its
    /// process fell silent for the comm timeout. The [`StallContext`] names
    /// the boundary (as a pseudo-collective), the stage peer's flat rank
    /// and, over a socket lane, its pid and address — mirroring
    /// group-collective stalls.
    PipelineBroken(StallContext),
    /// The restore snapshot has no state for this thread.
    MissingThreadState(ThreadKey),
    /// Writing a durable checkpoint shard or committing a generation
    /// failed (I/O error). The run is aborted: silently continuing would
    /// leave the job without restore points.
    Checkpoint(String),
    /// A thread panicked for a reason other than a communicator failure.
    ThreadPanicked(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Killed(k) => write!(f, "rank {k:?} was killed"),
            TrainError::Comm(e) => write!(f, "collective failed: {e}"),
            TrainError::PipelineBroken(ctx) => {
                write!(
                    f,
                    "pipeline channel closed by a dead peer: {} at op {}/{}, stage peer rank {}",
                    ctx.collective,
                    ctx.round + 1,
                    ctx.rounds,
                    ctx.peer
                )?;
                ctx.write_identity(f)
            }
            TrainError::MissingThreadState(k) => {
                write!(f, "snapshot has no state for thread {k:?}")
            }
            TrainError::Checkpoint(m) => write!(f, "durable checkpoint failed: {m}"),
            TrainError::ThreadPanicked(m) => write!(f, "worker thread panicked: {m}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Everything a (possibly failed)
/// [`PtdpTrainer::train_with`](crate::trainer::PtdpTrainer::train_with)
/// run produced.
pub struct TrainOutcome {
    /// Losses / final params / instrumentation. On a failed run, only the
    /// entries completed before the failure are filled.
    pub log: TrainLog,
    /// The first error observed, if the run did not complete. A run with a
    /// [`KillSwitch`] always reports an error (`Killed` on the dead rank's
    /// side, a comm/pipeline error from the survivors).
    pub error: Option<TrainError>,
    /// The most recent checkpoint completed by *every* thread, if
    /// checkpointing was enabled and one completed before the failure.
    pub snapshot: Option<TrainSnapshot>,
}

impl TrainOutcome {
    /// Fold a world of rank outcomes, in flat-rank order, into the run's
    /// outcome. Losses, step counts and peak stash are kept from every
    /// rank, failed ones included — on a failed run they are the best
    /// record there is; volumes, tapes and parameters only from ranks that
    /// finished.
    pub(crate) fn fold(
        iterations: usize,
        ranks: Vec<RankOutcome>,
        snapshot: Option<TrainSnapshot>,
    ) -> TrainOutcome {
        // Prefer the deliberate kill as the headline error (the comm errors
        // on the survivors are its consequences).
        let errors = || ranks.iter().filter_map(|r| r.error.as_ref());
        let error = errors()
            .find(|e| matches!(e, TrainError::Killed(_)))
            .or_else(|| errors().next())
            .cloned();
        let mut log = TrainLog {
            losses: merge_losses(iterations, ranks.iter().map(|r| r.losses.as_slice())),
            ..Default::default()
        };
        for r in ranks {
            log.peak_stash_floats.insert(r.key, r.peak_stash);
            log.steps.insert(r.key, r.steps);
            if r.error.is_none() {
                log.final_params.insert(r.key, r.params);
                log.comm_volumes.insert(r.key, r.volume);
                log.comm_ops.insert(r.key, r.ops);
            }
        }
        TrainOutcome {
            log,
            error,
            snapshot,
        }
    }
}
