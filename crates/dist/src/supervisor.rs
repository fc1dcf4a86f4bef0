//! Elastic auto-recovery: run training to completion across failures
//! without an operator in the loop.
//!
//! The paper's §5.10 prices checkpoint I/O but leaves restarts to a human;
//! at large scale (MegaScale et al.) one driver-side recovery workflow
//! notices the failure, restores the last durable checkpoint, and resumes
//! over whatever executors it has. This module is that workflow, once: the
//! [`Supervisor`] owns the *policy* — restart budget, exponential backoff,
//! collective-timeout halving, restore points, the capacity ledger,
//! shrink/grow, loss stitching, incident records — and a [`JobBackend`]
//! owns the one *mechanism* it needs: run a single attempt at a given
//! topology from a given durable generation and say how it ended.
//! [`ThreadBackend`] runs rank threads via [`PtdpTrainer`];
//! [`ProcBackend`](crate::proc::ProcBackend) runs rank OS processes over
//! sockets with real SIGKILLs. The loop never asks which one it drives.
//!
//! Restartable failures (a killed rank, a failed collective, a dead or
//! silent process) are retried from the newest durable generation in the
//! [`CheckpointStore`]; structural ones (missing snapshot state, a
//! non-communicator panic, checkpoint I/O failure, a world that cannot
//! launch) stop the job immediately. Each recovery is recorded as an
//! [`Incident`] — failed-attempt wall time, iteration reached, restore
//! time, backoff, iterations of lost work — which `megatron-bench` folds
//! into a measured `megatron_core::goodput::Ledger`, term by term beside
//! the ledger the run's own costs predict.
//!
//! # Elastic reconfiguration
//!
//! [`Supervisor::run_elastic`] goes one step further: instead of retrying
//! the *same* topology after a fatal incident, it reshapes the job to fit
//! whatever capacity survives.
//!
//! - **Shrink** (immediately on a fatal incident): the capacity ledger
//!   drops by the dead ranks (plus any scheduled
//!   [`CapacityEvent::Lost`]); when the survivors no longer fit
//!   `p·t·d`, the supervisor asks its caller's ranking for the layouts
//!   fitting the survivors, cheapest first — `megatron_core::elastic::
//!   rank_layouts` prices them with the same per-iteration simulation E36
//!   checks against the real trainer — takes the first its trainer
//!   accepts, restores it by resharding the newest generation's shards
//!   (the cross-topology path in [`CheckpointStore::load_latest`]), and
//!   continues training degraded.
//! - **Grow** (only at a checkpoint boundary): when a
//!   [`CapacityEvent::Returned`] arrives, the degraded run is truncated at
//!   the next multiple of `checkpoint_every`, which durably commits that
//!   generation; the supervisor then reshards it back up to the launch
//!   topology (or the first ranked layout the returned capacity allows)
//!   and resumes. Growing mid-segment would need a generation that does
//!   not exist yet — the boundary is where a *committed* generation of
//!   the degraded run exists, which is why grow waits for it.
//!
//! Because training is deterministic and restores are exact-f32, the
//! segment after a shrink or grow is bit-identical to a fresh run launched
//! at that topology from the same generation (proven for both backends in
//! `tests/recovery.rs` and `tests/process_mode.rs`), and a supervised run
//! that survives any number of mid-run kills produces bit-identical final
//! weights to a fault-free run of the same job.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use megatron_telemetry::{Span, SpanArgs, SpanKind, TelemetrySink};
use megatron_tensor::gpt::{GptModel, TinyGptConfig};

use crate::checkpoint::{CheckpointError, CheckpointStore, Restored};
use crate::health::HealthMonitor;
use crate::proc::WorkerExit;
use crate::trainer::{KillSwitch, PtdpSpec, PtdpTrainer, RunControl, ThreadKey, TrainError};

/// Retry policy for a [`Supervisor`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Restart budget: up to `1 + max_restarts` attempts total. Elastic
    /// grows are planned topology changes, not failures — they never
    /// consume this budget.
    pub max_restarts: usize,
    /// Durable checkpoint interval in iterations.
    pub checkpoint_every: usize,
    /// Backoff before restart attempt `n` is `backoff_base · 2ⁿ`, capped
    /// at [`SupervisorConfig::backoff_max`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
    /// The collective timeout is halved on every retry attempt (repeat
    /// failures should be detected faster), but never below this floor.
    pub min_comm_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 5,
            checkpoint_every: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            min_comm_timeout: Duration::from_millis(500),
        }
    }
}

/// A scheduled change in cluster capacity, mirroring [`KillSwitch`]: a
/// seeded schedule of these drives the elastic supervisor the way a kill
/// list drives fault injection. Iterations are absolute (0-based), same
/// convention as [`KillSwitch::iteration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityEvent {
    /// `ranks` GPUs are gone from `iteration` on — capacity lost *beyond*
    /// whatever rank a [`KillSwitch`] already killed (a fatal incident
    /// debits its own dead ranks from the ledger automatically).
    Lost {
        /// Iteration (absolute) at which the capacity disappears.
        iteration: usize,
        /// GPUs lost.
        ranks: usize,
    },
    /// `ranks` GPUs are repaired and available again from `iteration` on.
    /// The supervisor grows at the next checkpoint boundary at or after
    /// this iteration, never mid-segment.
    Returned {
        /// Iteration (absolute) from which the capacity is usable.
        iteration: usize,
        /// GPUs returned.
        ranks: usize,
    },
}

/// Which way a reconfiguration moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigureDirection {
    /// Capacity dropped below the running world: pick the best degraded
    /// configuration and reshard down.
    Shrink,
    /// Capacity returned: reshard back up at a checkpoint boundary.
    Grow,
}

/// One topology change the elastic supervisor performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconfiguration {
    /// Iteration the change happened at (the failure point for a shrink,
    /// the checkpoint boundary for a grow).
    pub at_iter: usize,
    /// Checkpoint generation the new topology restored from (0 when no
    /// durable generation existed yet and training restarted from
    /// scratch at the new shape).
    pub generation: usize,
    /// (p, t, d) before.
    pub from: (usize, usize, usize),
    /// (p, t, d) after.
    pub to: (usize, usize, usize),
    /// Shrink or grow.
    pub direction: ReconfigureDirection,
    /// Live GPUs in the capacity ledger when the choice was made.
    pub capacity: usize,
    /// Seconds spent on the cross-topology restore for this change (a
    /// shrink's restore also appears in its [`Incident::restore_s`]; a
    /// grow's is recorded only here).
    pub restore_s: f64,
    /// Wall-clock seconds of the attempt this change ended: the failed
    /// attempt for a shrink, the truncated degraded segment for a grow
    /// (what the outage cost at the degraded topology).
    pub segment_s: f64,
}

/// What ended a failed attempt, as its backend observed it.
#[derive(Debug, Clone, PartialEq)]
pub enum IncidentCause {
    /// A rank of an in-process world returned this error.
    Train(TrainError),
    /// Rank processes ended abnormally: `(flat rank, how)`.
    Exit(Vec<(usize, WorkerExit)>),
    /// Rank processes still running but heartbeat-silent past the dead
    /// window (flat ranks).
    Silence(Vec<usize>),
    /// No rank died, but the attempt overran its wall-clock limit.
    Wedged,
    /// The world could not be started at all.
    Launch(String),
}

impl std::fmt::Display for IncidentCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncidentCause::Train(e) => write!(f, "{e}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// One failure → recovery cycle, as observed by the supervisor. Every
/// fault is fatal: the wires are reliable or failed, so a dead rank and a
/// broken connection alike abort the attempt and cost a checkpoint restore
/// plus the lost work since the last checkpoint (the `lost` and `restore`
/// terms of `megatron_core::goodput::Ledger`).
#[derive(Debug, Clone)]
pub struct Incident {
    /// Which attempt failed (0 = the initial run).
    pub attempt: usize,
    /// What ended the attempt.
    pub cause: IncidentCause,
    /// Wall-clock seconds the failed attempt ran before the failure
    /// surfaced (launch + work + detection + teardown).
    pub attempt_wall_s: f64,
    /// Iteration the attempt had reached when it failed (absolute).
    pub reached: usize,
    /// Iteration the next attempt resumed from (0 = from scratch) — the
    /// durable generation restored.
    pub resumed_from: usize,
    /// Completed iterations that must be re-executed because they
    /// post-date the restored checkpoint — the Young/Daly "lost work".
    pub lost_iterations: usize,
    /// Seconds spent sealing, validating and loading the durable
    /// checkpoint.
    pub restore_s: f64,
    /// Seconds slept in exponential backoff before the restart.
    pub backoff_s: f64,
    /// Whether the restore had to reshard the generation because the
    /// stored topology differs from the running one.
    pub cross_topology: bool,
    /// Flat ranks of the failed attempt's topology
    /// ([`PtdpSpec::thread_key`] maps them back) the backend declared gone,
    /// sorted. For a single killed rank this names the culprit directly.
    pub dead_ranks: Vec<usize>,
}

/// Everything a supervised run produced.
#[derive(Debug, Default)]
pub struct SupervisorReport {
    /// Mean loss per iteration, stitched across attempts. Deterministic
    /// training + exact restores make these bit-identical to a fault-free
    /// run's losses wherever the backend could report them (a SIGKILLed
    /// process world leaves zeros for iterations only it executed).
    pub losses: Vec<f32>,
    /// Final per-thread parameters, if the job completed. Keyed by the
    /// topology the job *finished* at (the launch spec unless an elastic
    /// run ended degraded).
    pub final_params: Option<HashMap<ThreadKey, Vec<f32>>>,
    /// One entry per failure the supervisor recovered from (or died on).
    pub incidents: Vec<Incident>,
    /// Topology changes an elastic run performed, in order. Empty for
    /// [`Supervisor::run`].
    pub reconfigurations: Vec<Reconfiguration>,
    /// Attempts launched (1 = clean run, no failures). A grow boundary
    /// counts as a launch (it starts a new world) but not a restart.
    pub attempts: usize,
    /// Checkpoint restores actually paid. `repro recovery` asserts this
    /// equals the number of rank kills injected.
    pub restarts: usize,
    /// The cause that exhausted the budget, was classified as
    /// non-restartable, or left no capacity to run on, if the job did not
    /// complete.
    pub gave_up: Option<IncidentCause>,
    /// Total wall-clock seconds, including restores and backoff.
    pub wall_s: f64,
    /// Iterations the job was asked to run.
    pub iterations: usize,
}

impl SupervisorReport {
    /// Did the job run to completion?
    pub fn completed(&self) -> bool {
        self.final_params.is_some()
    }
}

/// What the policy loop needs to know about the job it supervises.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    /// Launch topology and every non-topology training knob.
    pub spec: PtdpSpec,
    /// Model architecture.
    pub model: TinyGptConfig,
    /// Iterations the job runs.
    pub iterations: usize,
}

/// One attempt the [`Supervisor`] asks a [`JobBackend`] to run.
pub struct Attempt<'a> {
    /// Topology to launch (every other knob is the launch spec's).
    pub spec: PtdpSpec,
    /// Durable state to resume from (`None` = scratch): the snapshot for a
    /// backend that restores in memory, the generation for one that pins.
    pub restore: Option<Restored>,
    /// Run up to (not including) this absolute iteration.
    pub stop: usize,
    /// At most one armed kill, inside `[resume iteration, stop)`.
    pub kill: Option<KillSwitch>,
    /// Collective timeout for this attempt.
    pub comm_timeout: Duration,
    /// Incident epoch (the attempt index): tags step samples and spans, so
    /// a resumed run's never interleave with the pre-failure ones.
    pub epoch: usize,
    /// Where the attempt's ranks write their checkpoint shards.
    pub store: &'a Arc<CheckpointStore>,
    /// The job's policy; a backend reads its checkpoint cadence.
    pub cfg: &'a SupervisorConfig,
    /// Sink the ranks trace into, when the backend can share one.
    pub telemetry: Option<&'a Arc<TelemetrySink>>,
}

/// How a failed attempt ended.
#[derive(Debug, Clone)]
pub struct AttemptFailure {
    /// What the backend saw.
    pub cause: IncidentCause,
    /// Flat ranks whose hardware is gone — not survivors that aborted
    /// because a peer died. The elastic ledger is debited per distinct rank.
    pub dead_ranks: Vec<usize>,
    /// Absolute iteration the world had reached.
    pub reached: usize,
    /// Worth a checkpoint restore and a relaunch, or structurally broken?
    pub restartable: bool,
}

/// What one attempt produced.
#[derive(Debug, Default)]
pub struct AttemptOutcome {
    /// Mean loss per absolute iteration, one entry for every iteration
    /// below `stop` (unless the world never launched); only those the
    /// attempt executed and could report are meaningful.
    pub losses: Vec<f32>,
    /// Final parameters per thread (complete only on success).
    pub final_params: HashMap<ThreadKey, Vec<f32>>,
    /// `None` = every rank ran to `stop`.
    pub failure: Option<AttemptFailure>,
}

/// The one mechanism the supervision policy is generic over.
pub trait JobBackend {
    /// The job this backend executes.
    fn shape(&self) -> JobShape;
    /// Launch `attempt.spec` from `attempt.restore`, run to `attempt.stop`
    /// or failure, tear the world down completely, and report.
    fn run_attempt(&self, attempt: Attempt<'_>) -> AttemptOutcome;
}

/// The layouts fitting a capacity, cheapest first: what
/// [`Supervisor::run_elastic`] takes from its caller.
type LayoutRanking<'a> = &'a dyn Fn(usize) -> Vec<(usize, usize, usize)>;

/// The first of `ranked` as a full spec inheriting every non-topology
/// knob from `base`: the trainer runs any layout a pricer ranks (its vocab
/// shards need not divide the vocabulary).
fn first_ranked(ranked: Vec<(usize, usize, usize)>, base: &PtdpSpec) -> Option<PtdpSpec> {
    let (pipeline, tensor, data) = *ranked.first()?;
    Some(PtdpSpec {
        pipeline,
        tensor,
        data,
        ..*base
    })
}

fn dims(spec: &PtdpSpec) -> (usize, usize, usize) {
    (spec.pipeline, spec.tensor, spec.data)
}

/// Carry fault-injection points across a topology change: a kill aimed
/// at a rank of the old world lands on `flat % new_world` of the new.
fn remap_kills(pending: &mut [KillSwitch], from: &PtdpSpec, to: &PtdpSpec) {
    for kp in pending.iter_mut() {
        let flat = from.flat_rank(kp.thread);
        kp.thread = to.thread_key(flat % to.world());
    }
}

/// Auto-recovery around a [`JobBackend`]: run the job, and on failure
/// restore from the durable store and retry until it completes or the
/// restart budget runs out. [`Supervisor::run_elastic`] additionally
/// reshapes (p, t, d) to fit surviving capacity.
pub struct Supervisor<B: JobBackend> {
    backend: B,
    store: Arc<CheckpointStore>,
    cfg: SupervisorConfig,
    telemetry: Option<Arc<TelemetrySink>>,
}

impl<B: JobBackend> Supervisor<B> {
    /// Supervise `backend`'s job, durably checkpointing into `store`.
    pub fn new(backend: B, store: Arc<CheckpointStore>, cfg: SupervisorConfig) -> Self {
        assert!(cfg.checkpoint_every > 0, "checkpoint interval must be > 0");
        Supervisor {
            backend,
            store,
            cfg,
            telemetry: None,
        }
    }

    /// Attach a telemetry sink: every attempt's ranks trace into it when
    /// the backend shares an address space with them (spans tagged with
    /// the attempt as their incident epoch), and the supervisor publishes
    /// `supervisor_incidents` / `supervisor_restarts` counters (plus
    /// `supervisor_reconfigurations` / `_shrinks` / `_grows` and
    /// per-topology `supervisor_iters_p*_t*_d*` counters when elastic).
    pub fn with_telemetry(mut self, sink: Arc<TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Collective timeout after `restarts` failures: halved per retry,
    /// floored.
    fn comm_timeout(&self, base: Duration, restarts: usize) -> Duration {
        (base / (1u32 << restarts.min(31))).max(self.cfg.min_comm_timeout)
    }

    /// Backoff before restart number `restarts` (0-based).
    fn backoff(&self, restarts: usize) -> Duration {
        self.cfg
            .backoff_base
            .saturating_mul(1u32 << restarts.min(20))
            .min(self.cfg.backoff_max)
    }

    /// The restore point for a world of shape `want`: seal every complete
    /// generation the previous world (`wrote`) left as loose shards (rank
    /// processes cannot commit: each sees only its own), then load the
    /// newest that validates — snapshot and generation number both.
    fn restore_point(
        &self,
        wrote: &PtdpSpec,
        want: &PtdpSpec,
        model: TinyGptConfig,
    ) -> Result<Restored, CheckpointError> {
        // A failed seal only means an older generation is restored.
        let _ = self.store.commit_complete_generations(wrote, model);
        self.store.load_latest(want, model)
    }

    fn count(&self, counter: &str, by: u64) {
        if let Some(sink) = &self.telemetry {
            sink.metrics.counter(counter).add(by);
        }
    }

    /// Publish a reconfiguration: counters plus a span on a synthetic
    /// control-plane rank (one past the launch world, so it can never
    /// collide with a real rank's trace).
    fn record_reconfiguration(
        &self,
        report: &mut SupervisorReport,
        rc: Reconfiguration,
        epoch: usize,
        start_ns: u64,
    ) {
        let (counter, span) = match rc.direction {
            ReconfigureDirection::Shrink => ("supervisor_shrinks", "reconfigure-shrink"),
            ReconfigureDirection::Grow => ("supervisor_grows", "reconfigure-grow"),
        };
        self.count("supervisor_reconfigurations", 1);
        self.count(counter, 1);
        if let Some(sink) = &self.telemetry {
            let control_rank = self.backend.shape().spec.world();
            let tracer = sink.hub.tracer(control_rank, (usize::MAX, 0, 0));
            tracer.push(Span {
                kind: SpanKind::Checkpoint,
                name: span,
                start_ns,
                dur_ns: tracer.now().saturating_sub(start_ns),
                iteration: rc.at_iter,
                epoch,
                args: SpanArgs::NONE,
            });
        }
        report.reconfigurations.push(rc);
    }

    /// Count iterations executed under a topology (the per-topology-epoch
    /// counter: how much work each shape of the job did).
    fn count_topology_iters(&self, spec: &PtdpSpec, iters: usize) {
        if iters > 0 {
            let (p, t, d) = dims(spec);
            self.count(&format!("supervisor_iters_p{p}_t{t}_d{d}"), iters as u64);
        }
    }

    /// Run the job to completion, restarting through failures at a fixed
    /// topology. `kills` are fault-injection points (at most one is armed
    /// per attempt — the earliest one at or after the attempt's resume
    /// iteration, mirroring one GPU death at a time). Generations an
    /// earlier run left in the store are resumed from, not recomputed.
    pub fn run(&self, kills: &[KillSwitch]) -> SupervisorReport {
        self.supervise(kills, &[], None)
    }

    /// Like [`Supervisor::run`], but elastic: fatal incidents shrink the
    /// topology to the first layout of `rank(surviving capacity)`, and
    /// [`CapacityEvent::Returned`] grows it back at the
    /// next checkpoint boundary. `capacity` is the seeded schedule of
    /// losses/repairs; `rank` lists the layouts fitting a capacity,
    /// cheapest first (`megatron_core::elastic::rank_layouts` over the
    /// job's simulator twin).
    pub fn run_elastic(
        &self,
        kills: &[KillSwitch],
        capacity: &[CapacityEvent],
        rank: LayoutRanking<'_>,
    ) -> SupervisorReport {
        self.supervise(kills, capacity, Some(rank))
    }

    fn supervise(
        &self,
        kills: &[KillSwitch],
        capacity_events: &[CapacityEvent],
        rank: Option<LayoutRanking<'_>>,
    ) -> SupervisorReport {
        let t0 = Instant::now();
        let shape = self.backend.shape();
        let (launch, model, iterations) = (shape.spec, shape.model, shape.iterations);
        let k = self.cfg.checkpoint_every;
        let elastic = rank.is_some();
        let best_fit =
            |capacity: usize| rank.and_then(|rank| first_ranked(rank(capacity), &launch));
        let now_ns = || self.telemetry.as_ref().map_or(0, |s| s.hub.now_ns());

        let mut pending: Vec<KillSwitch> = kills.to_vec();
        pending.sort_by_key(|k| k.iteration);
        // The capacity schedule as ordered `(iteration, ranks)` queues.
        let (mut lost, mut returns) = (Vec::new(), Vec::new());
        for event in capacity_events {
            match *event {
                CapacityEvent::Lost { iteration, ranks } => lost.push((iteration, ranks)),
                CapacityEvent::Returned { iteration, ranks } => returns.push((iteration, ranks)),
            }
        }
        lost.sort_unstable();
        returns.sort_unstable();

        let mut report = SupervisorReport {
            losses: vec![0.0; iterations],
            iterations,
            ..SupervisorReport::default()
        };
        let mut cur = launch;
        let mut capacity = launch.world();
        let mut restore = self.restore_point(&cur, &cur, model).ok();

        loop {
            // Two counters, one job: `attempt` numbers every world
            // launched (it is the telemetry/incident epoch),
            // `report.restarts` counts only failures — a planned grow
            // launches a new world without consuming restart budget or
            // escalating the backoff.
            let attempt = report.attempts;
            report.attempts += 1;
            let start = restore.as_ref().map_or(0, |r| r.snapshot.next_iter);
            // Grow only at a checkpoint boundary: a degraded segment with
            // repaired capacity scheduled is truncated at the first
            // boundary at/after the return point, which durably commits
            // that generation for the grown world to reshard from.
            let stop = match returns.first() {
                Some(&(r_iter, _)) if elastic && cur.world() < launch.world() => {
                    (r_iter.max(start + 1).div_ceil(k) * k).min(iterations)
                }
                _ => iterations,
            };
            let armed = pending
                .iter()
                .position(|kp| kp.iteration >= start && kp.iteration < stop);
            let kill = armed.map(|i| pending[i]);

            let attempt_t0 = Instant::now();
            let out = self.backend.run_attempt(Attempt {
                spec: cur,
                restore: restore.take(),
                stop,
                kill,
                comm_timeout: self.comm_timeout(launch.comm_timeout, report.restarts),
                epoch: attempt,
                store: &self.store,
                cfg: &self.cfg,
                telemetry: self.telemetry.as_ref(),
            });
            let attempt_wall_s = attempt_t0.elapsed().as_secs_f64();

            let Some(fail) = out.failure else {
                report.losses[start..stop].copy_from_slice(&out.losses[start..stop]);
                self.count_topology_iters(&cur, stop - start);
                if stop == iterations {
                    report.final_params = Some(out.final_params);
                    break;
                }
                // Reached a grow boundary: generation `stop` is on disk.
                // Credit the repaired capacity and reshard up — to the
                // launch topology when everything is back, else to the
                // best shape the ledger allows.
                while returns.first().is_some_and(|&(ri, _)| ri <= stop) {
                    capacity = (capacity + returns.remove(0).1).min(launch.world());
                }
                let target = if capacity >= launch.world() {
                    Some(launch)
                } else {
                    best_fit(capacity)
                }
                .filter(|t| dims(t) != dims(&cur));
                let (span_t0, restore_t0) = (now_ns(), Instant::now());
                let grown =
                    target.and_then(|t| Some((t, self.restore_point(&cur, &t, model).ok()?)));
                restore = match grown {
                    Some((to, r)) => {
                        let rc = Reconfiguration {
                            at_iter: stop,
                            generation: r.generation,
                            from: dims(&cur),
                            to: dims(&to),
                            direction: ReconfigureDirection::Grow,
                            capacity,
                            restore_s: restore_t0.elapsed().as_secs_f64(),
                            segment_s: attempt_wall_s,
                        };
                        self.record_reconfiguration(&mut report, rc, attempt, span_t0);
                        remap_kills(&mut pending, &cur, &to);
                        cur = to;
                        Some(r)
                    }
                    None => {
                        // Either the best shape is the one already running
                        // (resume in place), or the store cannot reshard up
                        // (only ZeRO-sharded generations): stay degraded
                        // and stop trying to grow.
                        if target.is_some() {
                            returns.clear();
                        }
                        self.restore_point(&cur, &cur, model).ok()
                    }
                };
                continue;
            };

            self.count("supervisor_incidents", 1);
            let mut dead_ranks = fail.dead_ranks;
            dead_ranks.sort_unstable();
            dead_ranks.dedup();
            let mut inc = Incident {
                attempt,
                cause: fail.cause,
                attempt_wall_s,
                reached: fail.reached,
                resumed_from: 0,
                lost_iterations: 0,
                restore_s: 0.0,
                backoff_s: 0.0,
                cross_topology: false,
                dead_ranks,
            };

            // Where the next attempt runs, if there is one: nowhere when
            // the failure is structural or the budget is spent; shrunken
            // when the survivors no longer fit the current world (nowhere
            // again if nothing valid fits them — the job is out of
            // cluster).
            let target = if fail.restartable && report.restarts < self.cfg.max_restarts {
                // The armed kill has fired; it must not re-arm.
                if let Some(i) = armed {
                    pending.remove(i);
                }
                if elastic {
                    // Debit the ledger: the incident's own dead ranks (at
                    // least one when a kill fired), plus any scheduled
                    // losses up to the failure.
                    let own = inc.dead_ranks.len().max(usize::from(kill.is_some()));
                    capacity = capacity.saturating_sub(own);
                    while lost.first().is_some_and(|&(li, _)| li <= inc.reached) {
                        capacity = capacity.saturating_sub(lost.remove(0).1);
                    }
                }
                if elastic && capacity < cur.world() {
                    best_fit(capacity)
                } else {
                    Some(cur)
                }
            } else {
                None
            };
            let Some(target) = target else {
                report.gave_up = Some(inc.cause.clone());
                report.incidents.push(inc);
                break;
            };

            let (span_t0, restore_t0) = (now_ns(), Instant::now());
            let (restored, to) = match self.restore_point(&cur, &target, model) {
                Ok(r) => (Some(r), target),
                // No durable generation yet: restart from scratch, already
                // at the target shape.
                Err(CheckpointError::NoneAvailable) => (None, target),
                // Reshard unavailable (ZeRO-sharded store): retry the
                // current topology rather than aborting — the budget
                // bounds how long that can go on.
                Err(_) => (self.store.load_latest(&cur, model).ok(), cur),
            };
            inc.restore_s = restore_t0.elapsed().as_secs_f64();
            inc.resumed_from = restored.as_ref().map_or(0, |r| r.snapshot.next_iter);
            inc.cross_topology = restored.as_ref().is_some_and(|r| r.cross_topology);
            inc.lost_iterations = inc.reached.saturating_sub(inc.resumed_from);

            // Losses up to the resume point are final — the next attempt
            // recomputes everything after it.
            let safe = start..inc.resumed_from.max(start);
            report.losses[safe.clone()].copy_from_slice(&out.losses[safe]);
            self.count_topology_iters(&cur, inc.reached.saturating_sub(start));

            if dims(&to) != dims(&cur) {
                let rc = Reconfiguration {
                    at_iter: inc.reached,
                    generation: restored.as_ref().map_or(0, |r| r.generation),
                    from: dims(&cur),
                    to: dims(&to),
                    direction: ReconfigureDirection::Shrink,
                    capacity,
                    restore_s: inc.restore_s,
                    segment_s: attempt_wall_s,
                };
                self.record_reconfiguration(&mut report, rc, attempt, span_t0);
                remap_kills(&mut pending, &cur, &to);
                cur = to;
            }

            let backoff = self.backoff(report.restarts);
            std::thread::sleep(backoff);
            inc.backoff_s = backoff.as_secs_f64();
            self.count("supervisor_restarts", 1);
            report.restarts += 1;
            report.incidents.push(inc);
            restore = restored;
        }

        report.wall_s = t0.elapsed().as_secs_f64();
        report
    }
}

/// The in-process backend: every rank is a thread of this process, an
/// attempt is one [`PtdpTrainer::train_with`] call, and a [`KillSwitch`]
/// makes its thread poison its groups and exit mid-iteration.
pub struct ThreadBackend<'a> {
    master: GptModel,
    spec: PtdpSpec,
    data: &'a [(Vec<usize>, Vec<usize>)],
    health_period: Option<Duration>,
}

impl<'a> ThreadBackend<'a> {
    /// Train `master` under `spec`, one iteration per element of `data`
    /// (each the full global batch). Panics on an invalid spec: the
    /// trainer's own asserts, raised before the first attempt.
    pub fn new(master: GptModel, spec: PtdpSpec, data: &'a [(Vec<usize>, Vec<usize>)]) -> Self {
        let _ = PtdpTrainer::new(master.clone(), spec);
        ThreadBackend {
            master,
            spec,
            data,
            health_period: None,
        }
    }

    /// Enable heartbeat health monitoring: each attempt gets a fresh
    /// [`HealthMonitor`] with this expected beat period (one beat per
    /// training iteration), and failed attempts record which ranks were
    /// dead in [`Incident::dead_ranks`].
    pub fn with_health(mut self, period: Duration) -> Self {
        self.health_period = Some(period);
        self
    }
}

impl JobBackend for ThreadBackend<'_> {
    fn shape(&self) -> JobShape {
        JobShape {
            spec: self.spec,
            model: self.master.cfg,
            iterations: self.data.len(),
        }
    }

    fn run_attempt(&self, a: Attempt<'_>) -> AttemptOutcome {
        let start = a.restore.as_ref().map_or(0, |r| r.snapshot.next_iter);
        // Fresh monitor per attempt: a restarted world starts with a
        // clean liveness slate.
        let health = self.health_period.map(|p| HealthMonitor::new(&a.spec, p));
        let out = PtdpTrainer::new(self.master.clone(), a.spec).train_with(
            &self.data[..a.stop],
            RunControl {
                checkpoint_every: Some(a.cfg.checkpoint_every),
                restore: a.restore.map(|r| r.snapshot),
                kill: a.kill,
                comm_timeout: Some(a.comm_timeout),
                durable: Some(Arc::clone(a.store)),
                epoch: a.epoch,
                telemetry: a.telemetry.cloned(),
                on_beat: health
                    .clone()
                    .map(|mon| -> Arc<dyn Fn(usize) + Send + Sync> {
                        Arc::new(move |r| mon.beat(r))
                    }),
            },
        );
        let failure = out.error.map(|e| AttemptFailure {
            dead_ranks: health.map_or_else(Vec::new, |mon| {
                let dead = mon.classify().dead();
                dead.into_iter().map(|k| a.spec.flat_rank(k)).collect()
            }),
            // The kill iteration bounds what the attempt reached.
            reached: a.kill.map_or(start, |kp| kp.iteration),
            // Every error that reaches here is fatal; this decides whether
            // it is worth a checkpoint restore, or structural.
            restartable: matches!(e, TrainError::Killed(_) | TrainError::Comm(_)),
            cause: IncidentCause::Train(e),
        });
        AttemptOutcome {
            losses: out.log.losses,
            final_params: out.log.final_params,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The policy, tested once against a scripted backend: no threads, no
    //! processes, no sleeps (zero backoff). The fake writes real (tiny)
    //! checkpoint generations, so restore points, resharding and pruning
    //! are the production paths.

    use super::*;
    use crate::checkpoint::tests::{cfg, save_generation, synthetic_states, tmp_store};
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// What the policy asked for in one attempt.
    #[derive(Debug)]
    struct Asked {
        dims: (usize, usize, usize),
        span: (usize, usize),
        kill: Option<(ThreadKey, usize)>,
        comm_timeout: Duration,
    }

    /// Fails where told to, succeeds otherwise, and checkpoints like a real
    /// world: a committed generation at every multiple of
    /// `checkpoint_every` it gets past. An armed kill fails the attempt at
    /// its iteration with the victim as the one dead rank; attempts with no
    /// kill armed consume `script` (one failure each) until it is empty.
    struct Scripted {
        shape: JobShape,
        script: RefCell<VecDeque<AttemptFailure>>,
        asked: RefCell<Vec<Asked>>,
    }

    fn scripted(
        (p, t, d): (usize, usize, usize),
        iterations: usize,
        script: impl IntoIterator<Item = AttemptFailure>,
    ) -> Scripted {
        let mut spec = PtdpSpec::new(p, t, d);
        spec.comm_timeout = Duration::from_secs(8);
        Scripted {
            shape: JobShape {
                spec,
                model: cfg(),
                iterations,
            },
            script: RefCell::new(script.into_iter().collect()),
            asked: RefCell::new(Vec::new()),
        }
    }

    fn wedged(reached: usize, dead_ranks: Vec<usize>, restartable: bool) -> AttemptFailure {
        AttemptFailure {
            cause: IncidentCause::Wedged,
            dead_ranks,
            reached,
            restartable,
        }
    }

    impl JobBackend for Scripted {
        fn shape(&self) -> JobShape {
            self.shape
        }

        fn run_attempt(&self, a: Attempt<'_>) -> AttemptOutcome {
            let start = a.restore.as_ref().map_or(0, |r| r.generation);
            self.asked.borrow_mut().push(Asked {
                dims: dims(&a.spec),
                span: (start, a.stop),
                kill: a.kill.map(|k| (k.thread, k.iteration)),
                comm_timeout: a.comm_timeout,
            });
            let failure = match a.kill {
                Some(k) => Some(AttemptFailure {
                    cause: IncidentCause::Train(TrainError::Killed(k.thread)),
                    dead_ranks: vec![a.spec.flat_rank(k.thread)],
                    reached: k.iteration,
                    restartable: true,
                }),
                None => self.script.borrow_mut().pop_front(),
            };
            let reached = failure.as_ref().map_or(a.stop, |f| f.reached);
            let every = a.cfg.checkpoint_every;
            for generation in (start + 1..=reached).filter(|g| g % every == 0) {
                let threads = synthetic_states(cfg(), &a.spec, generation as u64);
                save_generation(a.store, &a.spec, generation, &threads);
            }
            AttemptOutcome {
                losses: (0..a.stop).map(|i| (i + 1) as f32).collect(),
                final_params: HashMap::from([((0, 0, 0), vec![reached as f32])]),
                failure,
            }
        }
    }

    fn policy() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::ZERO,
            min_comm_timeout: Duration::from_secs(3),
            ..SupervisorConfig::default()
        }
    }

    /// A fake pricer: pure data parallelism at every power-of-two world
    /// that fits, widest first — the shapes the simulator twin ranks first
    /// for the jobs this supervisor runs.
    fn widest_data_parallel(capacity: usize) -> Vec<(usize, usize, usize)> {
        (1..=capacity)
            .rev()
            .filter(|w| w.is_power_of_two())
            .map(|w| (1, 1, w))
            .collect()
    }

    /// Supervise `backend` over a fresh store (elastic over
    /// [`widest_data_parallel`] when a capacity schedule is given); returns
    /// the report and what each attempt was asked.
    fn run(
        name: &str,
        backend: Scripted,
        cfg: SupervisorConfig,
        kills: &[(ThreadKey, usize)],
        capacity: Option<&[CapacityEvent]>,
    ) -> (SupervisorReport, Vec<Asked>) {
        let (root, store) = tmp_store(&format!("sup-{name}"));
        let sup = Supervisor::new(backend, store, cfg);
        let kills: Vec<KillSwitch> = kills
            .iter()
            .map(|&(thread, iteration)| KillSwitch { thread, iteration })
            .collect();
        let report = match capacity {
            Some(events) => sup.run_elastic(&kills, events, &widest_data_parallel),
            None => sup.run(&kills),
        };
        let _ = std::fs::remove_dir_all(root);
        (report, sup.backend.asked.into_inner())
    }

    #[test]
    fn one_kill_restores_the_boundary_before_it_and_stitches_losses() {
        let backend = scripted((2, 1, 2), 8, []);
        let (report, asked) = run("onekill", backend, policy(), &[((1, 0, 0), 5)], None);
        assert!(report.completed(), "gave up: {:?}", report.gave_up);
        assert_eq!((report.attempts, report.restarts), (2, 1));
        assert!(report.reconfigurations.is_empty(), "never reshapes");
        let inc = &report.incidents[0];
        assert_eq!(
            (inc.reached, inc.resumed_from, inc.lost_iterations),
            (5, 4, 1)
        );
        assert_eq!(inc.dead_ranks, vec![2], "the victim's flat rank");
        assert!(!inc.cross_topology);
        assert_eq!(report.losses, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!((asked[1].span, asked[1].kill), ((4, 8), None));
    }

    #[test]
    fn retries_halve_the_comm_timeout_to_its_floor_and_double_the_backoff_to_its_cap() {
        let backend = scripted((1, 1, 2), 4, (0..3).map(|_| wedged(1, vec![], true)));
        let (report, asked) = run("retry", backend, policy(), &[], None);
        assert!(report.completed());
        let secs: Vec<u64> = asked.iter().map(|a| a.comm_timeout.as_secs()).collect();
        assert_eq!(secs, [8, 4, 3, 3], "halved per failure, floored");

        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(65),
            ..policy()
        };
        let (root, store) = tmp_store("sup-backoff");
        let sup = Supervisor::new(scripted((1, 1, 1), 2, []), store, cfg);
        let ms: Vec<u128> = (0..5).map(|n| sup.backoff(n).as_millis()).collect();
        assert_eq!(ms, [10, 20, 40, 65, 65]);
        assert_eq!(sup.backoff(usize::MAX).as_millis(), 65, "no shift overflow");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gives_up_when_the_budget_the_cause_or_the_capacity_says_so() {
        // -> (attempts, incidents, restarts, reconfigurations, gave_up)
        let verdict = |name, script, cfg, kills: &[_], capacity| {
            let (r, _) = run(name, scripted((1, 1, 2), 10, script), cfg, kills, capacity);
            assert!(!r.completed(), "{name}");
            let counts = (r.attempts, r.incidents.len(), r.restarts);
            (counts, r.reconfigurations.len(), r.gave_up)
        };
        let killed = |key| Some(IncidentCause::Train(TrainError::Killed(key)));
        let one_restart = SupervisorConfig {
            max_restarts: 1,
            ..policy()
        };
        // More kills than the budget allows.
        let kills = [((0, 1, 0), 1), ((0, 1, 0), 2), ((0, 1, 0), 3)];
        let got = verdict("budget", None, one_restart, &kills, None);
        assert_eq!(got, ((2, 2, 1), 0, killed((0, 1, 0))));
        // A structural failure is not worth a single restore.
        let script = Some(wedged(3, vec![], false));
        let got = verdict("structural", script, policy(), &[], Some(&[]));
        assert_eq!(got, ((1, 1, 0), 0, Some(IncidentCause::Wedged)));
        // Failures eat the whole cluster: shrink once, then nothing fits.
        let kills = [((0, 1, 0), 3), ((0, 0, 0), 6)];
        let got = verdict("zero", None, policy(), &kills, Some(&[]));
        assert_eq!(got, ((2, 2, 1), 1, killed((0, 0, 0))));
    }

    #[test]
    fn kill_shrinks_to_the_best_fit_and_returned_capacity_grows_at_the_next_boundary() {
        // The rank comes back at iteration 7; with checkpoints every 2 the
        // grow must wait for the boundary at iteration 8. The second kill is
        // aimed at the launch world and must land on a rank of whatever
        // world is running when its iteration comes.
        let returned = [CapacityEvent::Returned {
            iteration: 7,
            ranks: 1,
        }];
        let kills = [((0, 1, 0), 5), ((1, 1, 1), 10)];
        let (report, asked) = run(
            "grow",
            scripted((2, 2, 2), 12, []),
            policy(),
            &kills,
            Some(&returned),
        );
        assert!(report.completed(), "gave up: {:?}", report.gave_up);
        let (shrink, grow) = (report.reconfigurations[0], report.reconfigurations[1]);
        assert_eq!(shrink.direction, ReconfigureDirection::Shrink);
        assert_eq!(
            (
                shrink.from,
                shrink.capacity,
                shrink.at_iter,
                shrink.generation
            ),
            ((2, 2, 2), 7, 5, 4)
        );
        assert_eq!(shrink.to, (1, 1, 4), "the first ranked layout");
        assert!(
            report.incidents[0].cross_topology,
            "resharded from the (2,2,2) shards"
        );
        assert_eq!(asked[1].dims, shrink.to);
        assert_eq!(grow.direction, ReconfigureDirection::Grow);
        assert_eq!(
            (grow.at_iter, grow.generation, grow.to, grow.capacity),
            (8, 8, (2, 2, 2), 8)
        );
        let spans: Vec<(usize, usize)> = asked.iter().map(|a| a.span).collect();
        assert_eq!(spans, [(0, 12), (4, 8), (8, 12), (10, 12)]);
        assert_eq!(
            asked[2].kill,
            Some(((0, 1, 1), 10)),
            "carried through both reshapes as flat % world: 7 -> 3 -> 3"
        );
        assert_eq!(
            (report.attempts, report.restarts),
            (4, 2),
            "the grow is a launch, not a restart"
        );
        let every: Vec<f32> = (1..=12).map(|i| i as f32).collect();
        assert_eq!(report.losses, every);
    }

    #[test]
    fn ledger_debit_counts_each_dead_rank_once_plus_scheduled_losses() {
        let backend = scripted((2, 2, 2), 8, [wedged(3, vec![5, 3, 5], true)]);
        let lost =
            [(3, 1), (6, 4)].map(|(iteration, ranks)| CapacityEvent::Lost { iteration, ranks });
        let (report, _) = run("ledger", backend, policy(), &[], Some(&lost));
        assert!(report.completed(), "gave up: {:?}", report.gave_up);
        assert_eq!(report.incidents[0].dead_ranks, vec![3, 5]);
        assert_eq!(
            report.reconfigurations[0].capacity,
            8 - 2 - 1,
            "two distinct dead ranks + the loss scheduled by iteration 3, not the later one"
        );
    }

    #[test]
    fn resumes_from_generations_an_earlier_run_left_in_the_store() {
        let (root, store) = tmp_store("sup-durable");
        let first = Supervisor::new(scripted((1, 1, 2), 4, []), Arc::clone(&store), policy());
        assert!(first.run(&[]).completed());
        let second = Supervisor::new(scripted((1, 1, 2), 8, []), store, policy());
        assert!(second.run(&[]).completed());
        assert_eq!(second.backend.asked.borrow()[0].span, (4, 8));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn flat_rank_roundtrips_thread_key() {
        let spec = PtdpSpec::new(2, 2, 2);
        for r in 0..spec.world() {
            assert_eq!(spec.flat_rank(spec.thread_key(r)), r);
        }
    }

    #[test]
    fn first_ranked_layout_wins_and_inherits_knobs() {
        let mut spec = PtdpSpec::new(2, 2, 2);
        spec.microbatch = 2;
        spec.lr = 0.042;
        // A tensor size that divides no vocabulary the tests use still wins
        // when it is ranked first: vocab shards may be uneven.
        let ranked = vec![(1, 7, 2), (1, 1, 4), (2, 1, 2)];
        let best = first_ranked(ranked, &spec).expect("a layout is ranked");
        assert_eq!(dims(&best), (1, 7, 2), "the first ranked layout");
        assert_eq!(best.lr, 0.042, "non-topology knobs inherited");
        assert_eq!(best.microbatch, 2);
        assert!(first_ranked(Vec::new(), &spec).is_none(), "nothing ranked");
    }
}
