//! Launcher-side supervision: detect → restore → respawn.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointStore;
use crate::supervisor::{CapacityEvent, Reconfiguration, ReconfigureDirection};
use crate::trainer::PtdpSpec;

use super::launch::{launch_configured, ProcOutcome, WorkerExit};
use super::rendezvous::RENDEZVOUS_TIMEOUT;
use super::spec::{JobSpec, SocketFaultPlan};

/// One scheduled real kill in a supervised chaos run: SIGKILL `rank`'s
/// process once its progress beats report `after_iter` completed
/// iterations — i.e. while it is genuinely inside iteration
/// `after_iter + 1`, after any checkpoint shard written at the
/// `after_iter` boundary is already on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcKill {
    /// Flat rank of the victim process.
    pub rank: usize,
    /// Completed iterations the victim must report before the SIGKILL.
    pub after_iter: usize,
}

/// Why the supervisor tore an attempt down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentCause {
    /// Worker processes ended abnormally (signal, nonzero exit).
    Exit(Vec<(usize, WorkerExit)>),
    /// Ranks still running but heartbeat-silent past the dead window.
    Silence(Vec<usize>),
    /// No rank died, but the attempt overran its wall-clock limit.
    Wedged,
}

/// One detect → restore → respawn cycle a [`ProcSupervisor`] performed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcIncident {
    /// Attempt index (0-based) that died.
    pub attempt: usize,
    /// What the detector saw.
    pub cause: IncidentCause,
    /// Flat ranks implicated.
    pub dead_ranks: Vec<usize>,
    /// Minimum completed-iteration count across the world at detection.
    pub at_progress: usize,
    /// Seconds from the attempt's launch to detection.
    pub detect_s: f64,
    /// Durable generation the next attempt resumed from (0 = scratch).
    pub restored_generation: usize,
    /// Seconds spent committing shard sets and pinning the generation.
    pub restore_s: f64,
    /// Seconds slept in exponential backoff before the respawn.
    pub backoff_s: f64,
}

/// The merged result of a supervised run.
///
/// `outcome.losses` holds the cross-attempt merge (first nonzero per
/// absolute iteration). SIGKILLed attempts write no `rank-R.out.json`,
/// so iterations re-run from a restored generation are the ones
/// guaranteed present; the bit-identity proof therefore gates on the
/// merged **final parameters**, which the last (clean) attempt always
/// reports in full.
#[derive(Debug)]
pub struct ProcReport {
    /// Output of the final, clean attempt (losses merged across all).
    pub outcome: ProcOutcome,
    /// Every incident, in order.
    pub incidents: Vec<ProcIncident>,
    /// Attempts launched (1 = no incident).
    pub attempts: usize,
    /// Generations the launcher-side committer sealed, in commit order.
    pub committed: Vec<usize>,
    /// Total supervised wall seconds, backoffs included.
    pub wall_s: f64,
}

/// One topology segment of an elastic process-mode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSegment {
    /// `(p, t, d)` the segment ran at.
    pub spec: (usize, usize, usize),
    /// First iteration (absolute) the segment executed.
    pub from_iter: usize,
    /// One past the last iteration the segment executed.
    pub to_iter: usize,
    /// Wall seconds for the segment, launch to merged exit.
    pub wall_s: f64,
}

/// The merged result of an elastic supervised run.
#[derive(Debug)]
pub struct ElasticProcReport {
    /// Output of the final segment (losses merged across segments).
    pub outcome: ProcOutcome,
    /// Shrink/grow records, reusing the in-process supervisor's type.
    pub reconfigurations: Vec<Reconfiguration>,
    /// Generations sealed by the launcher-side committer.
    pub committed: Vec<usize>,
    /// Per-segment timings, in execution order.
    pub segments: Vec<ProcSegment>,
}

/// Launcher-side supervision loop for process-mode jobs: fuses the
/// heartbeat [`HealthMonitor`] and [`LaunchHandle::poll_exits`] into a
/// detector, and heals by **restore + respawn** — commit whatever
/// complete shard generations the dead world left on disk, pin the
/// newest as the resume point, and re-exec the whole world in a fresh
/// rendezvous directory sharing the same durable store.
///
/// Workers cannot seal generations themselves (each process sees only
/// its own shard, and the in-trainer commit quorum never fills across
/// address spaces), so the supervisor doubles as the **committer**: its
/// watch loop sweeps the store for complete, CRC-valid shard sets and
/// writes their manifests.
///
/// Restart policy: at most `max_restarts` respawns, exponential backoff
/// `backoff_base · 2^n` capped at `backoff_cap`, and a per-attempt
/// wall-clock limit after which a silent-but-undead world counts as
/// wedged. Every incident is recorded as a [`ProcIncident`].
pub struct ProcSupervisor {
    job: JobSpec,
    root: PathBuf,
    /// Maximum respawns before giving up (budget).
    pub max_restarts: usize,
    /// First backoff; doubles per incident.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How long after launch heartbeat silence is forgiven (spawn +
    /// rendezvous take seconds; `classify` counts never-beaten as dead).
    pub startup_grace: Duration,
    /// Per-attempt wall-clock limit; past it the attempt is wedged.
    pub attempt_limit: Duration,
    /// Watch-loop period.
    pub poll: Duration,
    /// Straggler threshold handed to [`HealthMonitor::classify`].
    pub slow_threshold: f64,
}

impl ProcSupervisor {
    /// A supervisor for `job`, scratch + durable state under `root`
    /// (`root/attempt-<k>/` rendezvous dirs, `root/ckpt` store). The job
    /// must checkpoint (`checkpoint_every > 0`) — without durable
    /// generations there is nothing to heal from.
    pub fn new(job: &JobSpec, root: &Path) -> ProcSupervisor {
        assert!(
            job.checkpoint_every > 0,
            "self-healing needs durable checkpoints (JobSpec::checkpoint_every > 0)"
        );
        ProcSupervisor {
            job: *job,
            root: root.to_path_buf(),
            max_restarts: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            startup_grace: Duration::from_secs(20),
            attempt_limit: RENDEZVOUS_TIMEOUT + job.comm_timeout * 4 + Duration::from_secs(120),
            poll: Duration::from_millis(5),
            slow_threshold: crate::health::DEFAULT_SLOW_THRESHOLD,
        }
    }

    fn ckpt_root(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    fn store(&self) -> std::io::Result<Arc<CheckpointStore>> {
        CheckpointStore::open(self.ckpt_root()).map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Supervised run: launch, watch, and on any fatal incident restore
    /// the latest durable generation and respawn the world under the
    /// restart budget. `kills` is the chaos schedule of real SIGKILLs
    /// the supervisor itself fires (each at most once, on whichever
    /// attempt first reaches its progress trigger); `faults` is written
    /// as `faults.json` for attempt 0's workers to arm at the socket
    /// layer. If the durable store already holds generations from an
    /// earlier supervised run, attempt 0 resumes from them — that is the
    /// durable-restart path.
    pub fn run(
        &self,
        kills: &[ProcKill],
        faults: Option<&SocketFaultPlan>,
    ) -> std::io::Result<ProcReport> {
        let t0 = Instant::now();
        let store = self.store()?;
        let spec = self.job.spec();
        let world = spec.world();
        let io_err = |e: crate::checkpoint::CheckpointError| std::io::Error::other(e.to_string());
        let mut pending: Vec<Option<ProcKill>> = kills.iter().copied().map(Some).collect();
        let mut incidents: Vec<ProcIncident> = Vec::new();
        let mut committed: Vec<usize> = Vec::new();
        let mut merged_losses = vec![0.0f32; self.job.iters];
        let merge = |merged: &mut Vec<f32>, losses: &[f32]| {
            for (slot, v) in merged.iter_mut().zip(losses) {
                if *v != 0.0 {
                    *slot = *v;
                }
            }
        };

        committed.extend(
            store
                .commit_complete_generations(&spec, self.job.model)
                .map_err(io_err)?,
        );
        let mut resume = store
            .load_latest(&spec, self.job.model)
            .map(|r| r.generation)
            .unwrap_or(0);
        let mut attempt = 0usize;
        loop {
            let mut job = self.job;
            job.resume_from = resume;
            job.epoch = attempt;
            let dir = self.root.join(format!("attempt-{attempt}"));
            let handle = launch_configured(
                &job,
                &dir,
                Some(&self.ckpt_root()),
                if attempt == 0 { faults } else { None },
            )?;

            let attempt_t0 = Instant::now();
            let grace_until = attempt_t0 + self.startup_grace;
            let deadline = attempt_t0 + self.attempt_limit;
            let cause: Option<IncidentCause> = loop {
                thread::sleep(self.poll);
                // Fire any due chaos kills: the victim reported
                // `after_iter` completed, so it is mid-next-iteration.
                for slot in pending.iter_mut() {
                    if let Some(k) = *slot {
                        if k.rank < world && handle.progress(k.rank) >= k.after_iter.max(1) {
                            handle.kill_rank(k.rank);
                            *slot = None;
                        }
                    }
                }
                // Committer sweep: seal complete shard generations.
                if let Ok(newly) = store.commit_complete_generations(&spec, self.job.model) {
                    committed.extend(newly);
                }
                let exits = handle.poll_exits();
                if exits.iter().all(|e| matches!(e, Some(WorkerExit::Ok))) {
                    break None;
                }
                let abnormal: Vec<(usize, WorkerExit)> = exits
                    .iter()
                    .enumerate()
                    .filter_map(|(r, e)| match e {
                        Some(x) if *x != WorkerExit::Ok => Some((r, *x)),
                        _ => None,
                    })
                    .collect();
                if !abnormal.is_empty() {
                    break Some(IncidentCause::Exit(abnormal));
                }
                let now = Instant::now();
                if now >= grace_until {
                    let report = handle.monitor().classify(self.slow_threshold);
                    let silent: Vec<usize> = (0..world)
                        .filter(|&r| exits[r].is_none() && report.ranks[r].1.is_dead())
                        .collect();
                    if !silent.is_empty() {
                        break Some(IncidentCause::Silence(silent));
                    }
                }
                if now >= deadline {
                    break Some(IncidentCause::Wedged);
                }
            };

            match cause {
                None => {
                    let outcome = handle.wait();
                    merge(&mut merged_losses, &outcome.losses);
                    // One last committer sweep so the final boundary
                    // generation is sealed for whoever resumes later.
                    if let Ok(newly) = store.commit_complete_generations(&spec, self.job.model) {
                        committed.extend(newly);
                    }
                    let mut outcome = outcome;
                    outcome.losses = merged_losses;
                    return Ok(ProcReport {
                        outcome,
                        incidents,
                        attempts: attempt + 1,
                        committed,
                        wall_s: t0.elapsed().as_secs_f64(),
                    });
                }
                Some(cause) => {
                    let detect_s = attempt_t0.elapsed().as_secs_f64();
                    let at_progress = handle.min_progress();
                    let dead_ranks: Vec<usize> = match &cause {
                        IncidentCause::Exit(v) => v.iter().map(|(r, _)| *r).collect(),
                        IncidentCause::Silence(v) => v.clone(),
                        IncidentCause::Wedged => (0..world).collect(),
                    };
                    // Fail-stop teardown: the socket world cannot run
                    // degraded, so kill the survivors and reap everyone.
                    handle.kill_all();
                    let torn = handle.wait_within(Duration::from_secs(10));
                    merge(&mut merged_losses, &torn.losses);

                    attempt += 1;
                    if attempt > self.max_restarts {
                        return Err(std::io::Error::other(format!(
                            "restart budget exhausted: {} incidents over {} attempts \
                             (last cause: {cause:?})",
                            incidents.len() + 1,
                            attempt,
                        )));
                    }
                    let backoff = std::cmp::min(
                        self.backoff_cap,
                        self.backoff_base * 2u32.pow((attempt as u32 - 1).min(16)),
                    );
                    thread::sleep(backoff);

                    let restore_t0 = Instant::now();
                    committed.extend(
                        store
                            .commit_complete_generations(&spec, self.job.model)
                            .map_err(io_err)?,
                    );
                    resume = store
                        .load_latest(&spec, self.job.model)
                        .map(|r| r.generation)
                        .unwrap_or(0);
                    incidents.push(ProcIncident {
                        attempt: attempt - 1,
                        cause,
                        dead_ranks,
                        at_progress,
                        detect_s,
                        restored_generation: resume,
                        restore_s: restore_t0.elapsed().as_secs_f64(),
                        backoff_s: backoff.as_secs_f64(),
                    });
                }
            }
        }
    }

    /// Best degraded `(p, t, d)` for `capacity` survivors: the elastic
    /// layout picker (shared with the in-process supervisor) plus the
    /// process-mode constraint that the global batch stays divisible by
    /// `d · microbatch`.
    pub fn pick_degraded_spec(&self, capacity: usize) -> Option<PtdpSpec> {
        let spec = self.job.spec();
        let cost = crate::supervisor::job_cost_model(&spec, self.job.model, self.job.batch);
        cost.enumerate(capacity)
            .into_iter()
            .filter(|&(_, t, _)| !spec.vocab_parallel || self.job.model.vocab.is_multiple_of(t))
            .filter(|&(_, _, d)| self.job.batch.is_multiple_of(d * self.job.microbatch))
            .min_by(|&a, &b| {
                let (ca, cb) = (
                    cost.iteration_s(a.0, a.1, a.2),
                    cost.iteration_s(b.0, b.1, b.2),
                );
                ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
            })
            .map(|(p, t, d)| PtdpSpec {
                pipeline: p,
                tensor: t,
                data: d,
                ..spec
            })
    }

    /// Run one segment (a truncated or resumed job at some topology) to
    /// clean completion, then seal its boundary generations.
    fn run_segment(
        &self,
        job: &JobSpec,
        tag: &str,
        committed: &mut Vec<usize>,
    ) -> std::io::Result<(ProcOutcome, f64)> {
        let store = self.store()?;
        let t0 = Instant::now();
        let handle = launch_configured(job, &self.root.join(tag), Some(&self.ckpt_root()), None)?;
        let out = handle.wait();
        if !out.ok() {
            return Err(std::io::Error::other(format!(
                "elastic segment {tag} failed: exits {:?}, missing {:?}",
                out.exits, out.missing
            )));
        }
        committed.extend(
            store
                .commit_complete_generations(&job.spec(), job.model)
                .map_err(|e| std::io::Error::other(e.to_string()))?,
        );
        Ok((out, t0.elapsed().as_secs_f64()))
    }

    /// Elastic supervised run for one capacity dip: on
    /// [`CapacityEvent::Lost`] the world shrinks to the best degraded
    /// `(p, t, d)` the survivors support (through the cross-topology
    /// canonical checkpoint path), and on [`CapacityEvent::Returned`] it
    /// grows back at the next checkpoint boundary. Each topology change
    /// happens at a sealed generation, so every segment restores
    /// bit-identical state and the merged run matches a fault-free one.
    ///
    /// Requires the canonical layout, i.e. `shard_optimizer == false`.
    pub fn run_elastic(&self, events: &[CapacityEvent]) -> std::io::Result<ElasticProcReport> {
        assert!(
            !self.job.shard_optimizer,
            "elastic reconfiguration needs the canonical checkpoint layout \
             (ZeRO-1 shards are topology-bound)"
        );
        let spec = self.job.spec();
        let world = spec.world();
        let k = self.job.checkpoint_every;
        let iters = self.job.iters;
        let boundary = |it: usize| it.div_ceil(k) * k;
        let lost = events.iter().find_map(|e| match e {
            CapacityEvent::Lost { iteration, ranks } => Some((*iteration, *ranks)),
            _ => None,
        });
        let returned = events.iter().find_map(|e| match e {
            CapacityEvent::Returned { iteration, .. } => Some(*iteration),
            _ => None,
        });

        let mut committed = Vec::new();
        let mut segments = Vec::new();
        let mut reconfigurations = Vec::new();
        let mut merged_losses = vec![0.0f32; iters];
        let merge = |merged: &mut Vec<f32>, losses: &[f32]| {
            for (slot, v) in merged.iter_mut().zip(losses) {
                if *v != 0.0 {
                    *slot = *v;
                }
            }
        };

        // Segment plan: full spec to the shrink boundary, degraded spec
        // to the grow boundary, full spec to the end.
        let (cut, lost_ranks) = lost.unwrap_or((iters, 0));
        let cut = boundary(cut).min(iters);
        let grow = boundary(returned.unwrap_or(iters)).clamp(cut, iters);

        let mut job_a = self.job;
        job_a.iters = cut;
        job_a.epoch = 0;
        let (mut outcome, wall_a) = self.run_segment(&job_a, "seg-0-full", &mut committed)?;
        merge(&mut merged_losses, &outcome.losses);
        segments.push(ProcSegment {
            spec: (spec.pipeline, spec.tensor, spec.data),
            from_iter: 0,
            to_iter: cut,
            wall_s: wall_a,
        });

        if cut < iters && lost_ranks > 0 {
            let capacity = world.saturating_sub(lost_ranks).max(1);
            let degraded = self.pick_degraded_spec(capacity).ok_or_else(|| {
                std::io::Error::other(format!("no viable degraded layout for capacity {capacity}"))
            })?;
            let store = self.store()?;
            if grow > cut {
                let restore_t0 = Instant::now();
                let gen = store
                    .load_latest(&degraded, self.job.model)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                    .generation;
                let mut job_b = self.job;
                job_b.pipeline = degraded.pipeline;
                job_b.tensor = degraded.tensor;
                job_b.data = degraded.data;
                job_b.resume_from = gen;
                job_b.iters = grow;
                job_b.epoch = 1;
                reconfigurations.push(Reconfiguration {
                    at_iter: cut,
                    generation: gen,
                    from: (spec.pipeline, spec.tensor, spec.data),
                    to: (degraded.pipeline, degraded.tensor, degraded.data),
                    direction: ReconfigureDirection::Shrink,
                    capacity,
                    restore_s: restore_t0.elapsed().as_secs_f64(),
                });
                let (out_b, wall_b) = self.run_segment(&job_b, "seg-1-degraded", &mut committed)?;
                merge(&mut merged_losses, &out_b.losses);
                segments.push(ProcSegment {
                    spec: (degraded.pipeline, degraded.tensor, degraded.data),
                    from_iter: cut,
                    to_iter: grow,
                    wall_s: wall_b,
                });
                outcome = out_b;
            }
            if grow < iters {
                let restore_t0 = Instant::now();
                let gen = store
                    .load_latest(&spec, self.job.model)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                    .generation;
                let mut job_c = self.job;
                job_c.resume_from = gen;
                job_c.epoch = 2;
                reconfigurations.push(Reconfiguration {
                    at_iter: grow,
                    generation: gen,
                    from: (degraded.pipeline, degraded.tensor, degraded.data),
                    to: (spec.pipeline, spec.tensor, spec.data),
                    direction: ReconfigureDirection::Grow,
                    capacity: world,
                    restore_s: restore_t0.elapsed().as_secs_f64(),
                });
                let (out_c, wall_c) = self.run_segment(&job_c, "seg-2-full", &mut committed)?;
                merge(&mut merged_losses, &out_c.losses);
                segments.push(ProcSegment {
                    spec: (spec.pipeline, spec.tensor, spec.data),
                    from_iter: grow,
                    to_iter: iters,
                    wall_s: wall_c,
                });
                outcome = out_c;
            }
        }

        outcome.losses = merged_losses;
        Ok(ElasticProcReport {
            outcome,
            reconfigurations,
            committed,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mproc-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn degraded_spec_respects_batch_divisibility() {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.checkpoint_every = 2;
        let dir = scratch("degrade");
        let sup = ProcSupervisor::new(&job, &dir);
        // 6 survivors: best layout must keep batch % (d·b) == 0.
        let picked = sup.pick_degraded_spec(6).expect("some layout fits");
        assert!(picked.world() <= 6);
        assert!(job.batch.is_multiple_of(picked.data * job.microbatch));
        let _ = fs::remove_dir_all(&dir);
    }
}
