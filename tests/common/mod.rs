//! The real-backend recovery scenarios, written once: `tests/recovery.rs`
//! runs the table over rank threads, `tests/process_mode.rs` over rank OS
//! processes. How each builds a supervisor, a fault-free reference and a
//! fresh pinned launch comes in as closures; what must hold is here.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use megatron_repro::core::cluster::{ClusterSpec, GpuSpec, NodeSpec};
use megatron_repro::core::elastic::rank_layouts;
use megatron_repro::core::model::GptConfig;
use megatron_repro::core::parallel::ParallelConfig;
use megatron_repro::core::{TrainingOptions, TrainingRun};
use megatron_repro::dist::{
    CapacityEvent, CheckpointStore, JobBackend, KillSwitch, PtdpSpec, ReconfigureDirection,
    Supervisor, SupervisorConfig, SupervisorReport, ThreadKey,
};
use megatron_repro::tensor::gpt::TinyGptConfig;

/// Final parameters per rank.
pub type Params = HashMap<ThreadKey, Vec<f32>>;

/// Every row supervises a (2,2,2) job of `ITERS` iterations, checkpointing
/// every `CHECKPOINT_EVERY`, through `KILL` (flat rank 2, mid-iteration 5).
pub const ITERS: usize = 12;
pub const CHECKPOINT_EVERY: usize = 2;
pub const KILL: KillSwitch = KillSwitch {
    thread: (0, 1, 0),
    iteration: 5,
};
/// The elastic row's repair: back at iteration 7, so the grow must wait
/// for the boundary at 8.
pub const RETURNED: CapacityEvent = CapacityEvent::Returned {
    iteration: 7,
    ranks: 1,
};

/// Fast backoff; a collective-timeout floor generous enough that a
/// relaunched world on a loaded host never trips it while restoring.
pub fn policy() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        min_comm_timeout: Duration::from_secs(5),
        ..SupervisorConfig::default()
    }
}

/// The simulator twin of a job: the same `l`, `h`, `a`, `s`, `V`,
/// `(p, t, d)`, `b`, `v`, schedule and recomputation at global batch
/// `batch`, on one A100 node of exactly `p·t·d` GPUs. A copy of
/// `megatron-bench`'s twin: the root package does not depend on that crate.
pub fn twin(cfg: TinyGptConfig, spec: &PtdpSpec, batch: usize) -> TrainingRun {
    let model = GptConfig {
        name: "twin".to_string(),
        num_layers: cfg.layers as u64,
        hidden_size: cfg.hidden as u64,
        num_heads: cfg.heads as u64,
        seq_len: cfg.seq as u64,
        vocab_size: cfg.vocab as u64,
    };
    let (p, t, d) = (spec.pipeline as u64, spec.tensor as u64, spec.data as u64);
    let pc = ParallelConfig::new(p, t, d, spec.microbatch as u64, batch as u64)
        .with_chunks(spec.chunks as u64);
    let node = NodeSpec {
        gpus_per_node: spec.world(),
        ..NodeSpec::dgx_a100()
    };
    let options = TrainingOptions {
        schedule: spec.schedule,
        recompute: spec.recompute,
        ..TrainingOptions::default()
    };
    TrainingRun::new(
        model,
        ClusterSpec::custom(GpuSpec::a100_80gb(), node, 1),
        pc,
        options,
    )
}

/// What an elastic supervisor of the job shrinks by: the layouts its twin
/// ranks for a capacity, cheapest first.
pub fn ranking(
    cfg: TinyGptConfig,
    spec: &PtdpSpec,
    batch: usize,
) -> impl Fn(usize) -> Vec<(usize, usize, usize)> {
    let twin = twin(cfg, spec, batch);
    move |capacity| rank_layouts(&twin, capacity)
}

/// Run the table. `supervise(tag)` builds a supervisor of the job over a
/// fresh store; `fault_free` is the job's final parameters run plainly;
/// `fresh_from(store, g)` runs it unsupervised at the full topology from
/// generation `g` of `store` and returns its final parameters. Returns the
/// two rows' reports — (one kill, shrink→grow) — for backend-specific
/// follow-up assertions. `rank` is the job's [`ranking`].
pub fn recovery_table<B: JobBackend>(
    supervise: impl Fn(&str) -> (Supervisor<B>, Arc<CheckpointStore>),
    rank: &dyn Fn(usize) -> Vec<(usize, usize, usize)>,
    fault_free: &Params,
    fresh_from: impl Fn(&CheckpointStore, usize) -> Params,
) -> (SupervisorReport, SupervisorReport) {
    // Row 1: one kill → restore → final params bit-identical to fault-free.
    let (sup, _store) = supervise("one-kill");
    let healed = sup.run(&[KILL]);
    assert!(healed.completed(), "gave up: {:?}", healed.gave_up);
    assert_eq!(
        healed.attempts, 2,
        "the kill must force exactly one relaunch"
    );
    assert_eq!(healed.incidents.len(), 1);
    assert_eq!(healed.restarts, 1, "exactly one restore paid");
    assert!(
        healed.reconfigurations.is_empty(),
        "non-elastic runs never reshape"
    );
    let inc = &healed.incidents[0];
    assert!(
        inc.resumed_from > 0 && inc.resumed_from % CHECKPOINT_EVERY == 0,
        "resumed from a durable checkpoint boundary: {inc:?}"
    );
    assert_eq!(
        healed.losses.len(),
        ITERS,
        "every iteration has a loss slot"
    );
    assert_eq!(
        healed.final_params.as_ref(),
        Some(fault_free),
        "healed weights must be bit-identical to the fault-free run"
    );

    // Row 2: kill → shrink → returned → grow; the post-grow segment is
    // bit-identical to a fresh launch pinned at the grow generation.
    let (sup, store) = supervise("shrink-grow");
    let elastic = sup.run_elastic(&[KILL], &[RETURNED], rank);
    assert!(elastic.completed(), "gave up: {:?}", elastic.gave_up);
    assert_eq!(elastic.reconfigurations.len(), 2, "shrink then grow");
    let (shrink, grow) = (elastic.reconfigurations[0], elastic.reconfigurations[1]);
    assert_eq!(shrink.direction, ReconfigureDirection::Shrink);
    assert_eq!(shrink.from, (2, 2, 2));
    assert_eq!(shrink.capacity, 7);
    assert!(
        shrink.to.0 * shrink.to.1 * shrink.to.2 <= 7,
        "must fit the surviving capacity"
    );
    assert_eq!(grow.direction, ReconfigureDirection::Grow);
    assert_eq!(grow.at_iter, 8, "boundary after the iteration-7 return");
    assert_eq!(grow.generation, 8);
    assert_eq!(grow.to, (2, 2, 2), "back to the launch topology");
    assert_eq!(elastic.restarts, 1, "the grow is a launch, not a restart");
    assert_eq!(elastic.attempts, 3);
    assert_eq!(
        elastic.final_params.as_ref(),
        Some(&fresh_from(&store, grow.generation)),
        "post-grow segment must match a fresh launch from the grow generation"
    );

    (healed, elastic)
}
