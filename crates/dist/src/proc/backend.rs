//! The process-mode [`JobBackend`]: one attempt = one world of rank OS
//! processes, watched until every rank exits cleanly or the first sign of
//! death — an abnormal exit, heartbeat silence past the startup grace, or
//! a wall-clock limit. Any of them ends the attempt **fail-stop** (a
//! socket world cannot run degraded): survivors are SIGKILLed and reaped
//! before the supervisor decides where to relaunch.
//!
//! Workers see only their own checkpoint shard, so the watch loop doubles
//! as the **committer**, sealing complete CRC-valid generations while the
//! world runs; the relaunched world is pinned ([`JobSpec::resume_from`])
//! to the generation the supervisor restored. A torn world usually reports
//! nothing, so bit-identity is proven on the final parameters and stitched
//! losses are complete only from the last resume on (DESIGN.md §14).

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use crate::supervisor::{
    Attempt, AttemptFailure, AttemptOutcome, IncidentCause, JobBackend, JobShape,
};

use super::launch::{launch_configured, LaunchHandle, WorkerExit};
use super::rendezvous::RENDEZVOUS_TIMEOUT;
use super::spec::JobSpec;

/// How long after launch heartbeat silence is forgiven: spawn and
/// rendezvous take seconds, and a monitor counts never-beaten as dead.
const STARTUP_GRACE: Duration = Duration::from_secs(20);
/// Watch-loop period.
const WATCH_POLL: Duration = Duration::from_millis(5);
/// How long fail-stop teardown waits for SIGKILLed ranks to be reaped.
const TEARDOWN_LIMIT: Duration = Duration::from_secs(10);

/// Runs each attempt of `job` as `p·t·d` OS processes rendezvousing in
/// `root/attempt-<epoch>/`.
pub struct ProcBackend {
    job: JobSpec,
    root: PathBuf,
}

impl ProcBackend {
    /// A backend for `job` with per-attempt scratch directories under
    /// `root`. Topology, iteration count, checkpoint cadence, resume
    /// generation, epoch and collective timeout are the supervisor's to set
    /// per attempt.
    pub fn new(job: &JobSpec, root: &Path) -> ProcBackend {
        ProcBackend {
            job: *job,
            root: root.to_path_buf(),
        }
    }

    /// Watch a launched world until it ends: `None` when every rank
    /// exited 0, else what was seen first and which ranks are gone.
    fn watch(
        &self,
        handle: &LaunchHandle,
        job: &JobSpec,
        a: &Attempt<'_>,
    ) -> Option<(IncidentCause, Vec<usize>)> {
        let spec = a.spec;
        let world = spec.world();
        let t0 = Instant::now();
        let limit = RENDEZVOUS_TIMEOUT + a.comm_timeout * 4 + Duration::from_secs(120);
        let mut victim = job.hold;
        let mut killed = Vec::new();
        loop {
            thread::sleep(WATCH_POLL);
            // Fire the armed kill once the victim reports `iteration`
            // completed: it holds there (`JobSpec::hold`), after any
            // checkpoint shard written at the boundary is on disk.
            if let Some((rank, after)) = victim {
                if handle.progress(rank) >= after {
                    handle.kill_rank(rank);
                    killed.push(rank);
                    victim = None;
                }
            }
            // A failed sweep only delays the seal to the next one.
            let _ = a.store.commit_complete_generations(&spec, self.job.model);
            let exits = handle.poll_exits();
            if exits.iter().all(|e| matches!(e, Some(WorkerExit::Ok))) {
                return None;
            }
            let abnormal: Vec<(usize, WorkerExit)> = exits
                .iter()
                .enumerate()
                .filter_map(|(r, e)| e.filter(|x| *x != WorkerExit::Ok).map(|x| (r, x)))
                .collect();
            if !abnormal.is_empty() {
                // Only signal deaths are lost hardware; a nonzero exit is
                // a survivor whose collective failed under it.
                killed.extend(
                    abnormal
                        .iter()
                        .filter(|(_, x)| *x == WorkerExit::Killed)
                        .map(|(r, _)| *r),
                );
                return Some((IncidentCause::Exit(abnormal), killed));
            }
            if t0.elapsed() >= STARTUP_GRACE {
                let health = handle.monitor().classify();
                let silent: Vec<usize> = (0..world)
                    .filter(|&r| exits[r].is_none() && health.ranks[r].1.is_dead())
                    .collect();
                if !silent.is_empty() {
                    return Some((IncidentCause::Silence(silent.clone()), silent));
                }
            }
            if t0.elapsed() >= limit {
                return Some((IncidentCause::Wedged, Vec::new()));
            }
        }
    }
}

impl JobBackend for ProcBackend {
    fn shape(&self) -> JobShape {
        JobShape {
            spec: self.job.spec(),
            model: self.job.model,
            iterations: self.job.iters,
        }
    }

    fn run_attempt(&self, a: Attempt<'_>) -> AttemptOutcome {
        let start = a.restore.as_ref().map_or(0, |r| r.generation);
        let job = JobSpec {
            pipeline: a.spec.pipeline,
            tensor: a.spec.tensor,
            data: a.spec.data,
            comm_timeout: a.comm_timeout,
            iters: a.stop,
            checkpoint_every: a.cfg.checkpoint_every,
            resume_from: start,
            epoch: a.epoch,
            hold: a
                .kill
                .map(|k| (a.spec.flat_rank(k.thread), k.iteration.max(1))),
            ..self.job
        };
        let launched = launch_configured(
            &job,
            &self.root.join(format!("attempt-{}", a.epoch)),
            Some(a.store.root()),
        );
        let handle = match launched {
            Ok(h) => h,
            Err(e) => {
                return AttemptOutcome {
                    failure: Some(AttemptFailure {
                        cause: IncidentCause::Launch(e.to_string()),
                        dead_ranks: Vec::new(),
                        reached: start,
                        restartable: false,
                    }),
                    ..AttemptOutcome::default()
                }
            }
        };
        let failure = self.watch(&handle, &job, &a).map(|(cause, dead_ranks)| {
            let reached = handle.min_progress().max(start);
            handle.kill_all();
            AttemptFailure {
                cause,
                dead_ranks,
                reached,
                restartable: true,
            }
        });
        let mut out = match failure {
            None => handle.wait(),
            Some(_) => handle.wait_within(TEARDOWN_LIMIT),
        };
        AttemptOutcome {
            losses: std::mem::take(&mut out.losses),
            final_params: out.into_params(),
            failure,
        }
    }
}
