//! The launcher: spawn one worker process per flat rank, collect their
//! heartbeats and exits, and merge the per-rank output files.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use megatron_collective::{SocketChannel, SocketNode, WireAddr};
use megatron_sim::json::Json;

use crate::comm::WireKind;
use crate::health::HealthMonitor;
use crate::trainer::{RankCommVolume, ThreadKey};

use super::rendezvous::{
    bits_from, clear_stale_rendezvous, publish, volume_from, HEARTBEAT_CHAN, RENDEZVOUS_TIMEOUT,
};
use super::spec::{JobSpec, SocketFaultPlan};

/// Heartbeat frames the launcher reads from one rank before it turns to the
/// next.
const FRAMES_PER_TURN: usize = 64;

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

/// One rank's parsed `rank-R.out.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// Thread coordinate.
    pub key: ThreadKey,
    /// OS pid of the rank process.
    pub pid: u32,
    /// Whether the process exited 0.
    pub exit_ok: bool,
    /// Display form of the rank's `TrainError`, if it failed.
    pub error: Option<String>,
    /// Per-iteration losses as this rank recorded them (only loss-owning
    /// ranks fill these; others report zeros).
    pub losses: Vec<f32>,
    /// Flattened final parameters of this rank's shard (bit-exact).
    pub params: Vec<f32>,
    /// Transport-measured comm volume.
    pub volume: RankCommVolume,
    /// Bytes the rank's comm-op tape implies it sent.
    pub tape_bytes: f64,
    /// Peak stashed-activation floats.
    pub peak_stash: usize,
    /// Completed step samples.
    pub steps: usize,
}

/// How one rank process ended, as the launcher observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Exited with status 0.
    Ok,
    /// Exited with a nonzero status code.
    Failed(i32),
    /// Terminated by a signal (SIGKILL, a panic-abort, ...).
    Killed,
    /// Still running when the wait deadline expired; reaped by SIGKILL.
    Timeout,
}

impl WorkerExit {
    fn of(status: std::process::ExitStatus) -> WorkerExit {
        use std::os::unix::process::ExitStatusExt;
        match (status.signal(), status.code()) {
            (Some(_), _) => WorkerExit::Killed,
            (None, Some(0)) => WorkerExit::Ok,
            (None, code) => WorkerExit::Failed(code.unwrap_or(-1)),
        }
    }
}

/// The merged result of a process-mode run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcOutcome {
    /// Per-rank outputs, keyed by thread coordinate.
    pub outputs: HashMap<ThreadKey, RankOutput>,
    /// Merged per-iteration losses (from the loss-owning ranks).
    pub losses: Vec<f32>,
    /// Ranks that left no parsable output file (e.g. SIGKILLed).
    pub missing: Vec<ThreadKey>,
    /// Per-flat-rank exit status.
    pub exits: Vec<WorkerExit>,
}

impl ProcOutcome {
    /// Every reporting rank's final parameters, keyed by thread coordinate.
    pub fn into_params(self) -> HashMap<ThreadKey, Vec<f32>> {
        let params = self.outputs.into_iter().map(|(key, o)| (key, o.params));
        params.collect()
    }

    /// Did every rank finish cleanly?
    pub fn ok(&self) -> bool {
        self.missing.is_empty()
            && self.exits.iter().all(|e| *e == WorkerExit::Ok)
            && self
                .outputs
                .values()
                .all(|o| o.exit_ok && o.error.is_none())
    }
}

/// A launched process-mode job: child processes, the heartbeat listener,
/// and the liveness monitor.
pub struct LaunchHandle {
    job: JobSpec,
    dir: PathBuf,
    children: Mutex<Vec<Option<Child>>>,
    monitor: Arc<HealthMonitor>,
    stop: Arc<AtomicBool>,
    reader: Option<thread::JoinHandle<()>>,
    /// Per-flat-rank completed-iteration counters, fed by the heartbeat
    /// reader from `[flat, completed]` progress beats.
    progress: Arc<Vec<std::sync::atomic::AtomicUsize>>,
    /// Per-flat-rank exit status, filled lazily by [`LaunchHandle::poll_exits`].
    exits: Mutex<Vec<Option<WorkerExit>>>,
    // Keeps the launcher's listener (and its acceptor thread) alive.
    _node: Arc<SocketNode>,
}

/// Launch `job` as `world` OS processes rendezvousing in `dir`
/// (created if absent). The workers re-exec the **current executable**
/// with `--proc-worker <dir> <rank>`, so the hosting binary must call
/// [`maybe_worker`](super::maybe_worker) before anything else.
pub fn launch(job: &JobSpec, dir: &Path) -> std::io::Result<LaunchHandle> {
    launch_configured(job, dir, None, None)
}

/// [`launch`] with the supervisor-side extras: an explicit durable
/// checkpoint root (published to workers as `ckpt.path`, so respawn
/// attempts in fresh rendezvous dirs share one store) and a socket
/// fault plan (written as `faults.json` for workers to arm).
pub fn launch_configured(
    job: &JobSpec,
    dir: &Path,
    ckpt_root: Option<&Path>,
    faults: Option<&SocketFaultPlan>,
) -> std::io::Result<LaunchHandle> {
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    if !job.batch.is_multiple_of(job.data * job.microbatch) {
        // The in-process trainer asserts this; catch it here so an invalid
        // job errors before any worker is spawned instead of the workers
        // silently truncating the batch (`m` below rounds down).
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "batch {} must divide by d*b = {}",
                job.batch,
                job.data * job.microbatch
            ),
        ));
    }
    fs::create_dir_all(dir)?;
    clear_stale_rendezvous(dir)?;
    fs::write(dir.join("job.json"), job.to_json())?;
    if let Some(root) = ckpt_root {
        publish(dir, "ckpt.path", &root.display().to_string());
    }
    if let Some(plan) = faults {
        publish(dir, "faults.json", &plan.to_json());
    }

    let bind = match job.wire {
        WireKind::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        _ => WireAddr::Uds(dir.join("launcher.sock")),
    };
    let node = Arc::new(SocketNode::bind(&bind)?);
    publish(dir, "launcher.addr", &node.addr().to_string());

    let spec = job.spec();
    let world = spec.world();
    let monitor = HealthMonitor::new(&spec, job.hb_period);
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<std::sync::atomic::AtomicUsize>> = Arc::new(
        (0..world)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect(),
    );
    let reader = {
        let mut chan = SocketChannel::new(
            Arc::clone(&node),
            HEARTBEAT_CHAN,
            world,
            vec![None; world + 1],
        );
        let monitor = Arc::clone(&monitor);
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut idle = true;
                for r in 0..world {
                    chan.set_deadline(Instant::now() + Duration::from_millis(100));
                    // A bounded turn per rank: one whose progress beats
                    // arrive faster than the 1 ms wait below would otherwise
                    // hold this loop and starve the rest into looking dead.
                    for _ in 0..FRAMES_PER_TURN {
                        let Ok(Some(frame)) = megatron_collective::PollTransport::recv_within(
                            &mut chan,
                            r,
                            Duration::from_millis(1),
                        ) else {
                            break;
                        };
                        if let Some(&f) = frame.first() {
                            let fr = f as usize;
                            monitor.beat(fr);
                            // Two-element frames are progress beats:
                            // `[flat, completed_iters]`. `fetch_max`
                            // because a late bare beacon must not be
                            // confused with regressing progress.
                            if let Some(&done) = frame.get(1) {
                                if fr < world {
                                    progress[fr].fetch_max(done as usize, Ordering::Relaxed);
                                }
                            }
                            idle = false;
                        }
                    }
                }
                if idle {
                    thread::sleep(Duration::from_millis(2));
                }
            }
        })
    };

    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(world);
    for r in 0..world {
        children.push(Some(
            Command::new(&exe)
                .arg("--proc-worker")
                .arg(dir)
                .arg(r.to_string())
                .spawn()?,
        ));
    }

    Ok(LaunchHandle {
        job: *job,
        dir: dir.to_path_buf(),
        children: Mutex::new(children),
        monitor,
        stop,
        reader: Some(reader),
        progress,
        exits: Mutex::new(vec![None; world]),
        _node: node,
    })
}

impl LaunchHandle {
    /// The heartbeat-fed liveness monitor (beats arrive over the socket,
    /// one per worker beacon pulse and one per completed iteration).
    pub fn monitor(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    /// OS pid of a rank's process, if it was spawned.
    pub fn pid(&self, rank: usize) -> Option<u32> {
        self.children.lock().unwrap()[rank].as_ref().map(|c| c.id())
    }

    /// SIGKILL one rank's process (the "pull the power cord" experiment).
    pub fn kill_rank(&self, rank: usize) -> bool {
        let mut children = self.children.lock().unwrap();
        match &mut children[rank] {
            Some(c) => c.kill().is_ok(),
            None => false,
        }
    }

    /// SIGKILL every remaining rank process.
    pub fn kill_all(&self) {
        let mut children = self.children.lock().unwrap();
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
        }
    }

    /// Completed iterations reported by `rank`'s progress beats so far.
    pub fn progress(&self, rank: usize) -> usize {
        self.progress[rank].load(Ordering::Relaxed)
    }

    /// Minimum completed-iteration count across the world — the last
    /// iteration *every* rank has finished.
    pub fn min_progress(&self) -> usize {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Non-blocking exit sweep: `try_wait` every still-running child,
    /// reap any that ended, and return the per-rank picture so far
    /// (`None` = still running). This is how the supervisor notices a
    /// SIGKILL or panic *before* heartbeat silence does.
    pub fn poll_exits(&self) -> Vec<Option<WorkerExit>> {
        let mut children = self.children.lock().unwrap();
        let mut exits = self.exits.lock().unwrap();
        for (r, slot) in children.iter_mut().enumerate() {
            if exits[r].is_some() {
                continue;
            }
            if let Some(c) = slot.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    exits[r] = Some(WorkerExit::of(status));
                    *slot = None; // reaped
                }
            }
        }
        exits.clone()
    }

    /// Wait for every rank process to exit, then merge the per-rank
    /// output files into a [`ProcOutcome`]. Bounded: a worker that dies
    /// before rendezvous (or wedges past the comm deadline) no longer
    /// hangs the launcher forever — the default deadline covers
    /// rendezvous plus the workers' own communication timeout, after
    /// which stragglers are SIGKILLed and reported as
    /// [`WorkerExit::Timeout`].
    pub fn wait(self) -> ProcOutcome {
        let limit = RENDEZVOUS_TIMEOUT + self.job.comm_timeout * 4 + Duration::from_secs(60);
        self.wait_within(limit)
    }

    /// [`LaunchHandle::wait`] with an explicit deadline.
    pub fn wait_within(mut self, limit: Duration) -> ProcOutcome {
        let spec = self.job.spec();
        let world = spec.world();
        let deadline = Instant::now() + limit;
        loop {
            let exits = self.poll_exits();
            if exits.iter().all(|e| e.is_some()) {
                break;
            }
            if Instant::now() >= deadline {
                let mut children = self.children.lock().unwrap();
                let mut exits = self.exits.lock().unwrap();
                for (r, slot) in children.iter_mut().enumerate() {
                    if exits[r].is_none() {
                        if let Some(mut c) = slot.take() {
                            let _ = c.kill();
                            let _ = c.wait();
                        }
                        exits[r] = Some(WorkerExit::Timeout);
                    }
                }
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let exits: Vec<WorkerExit> = self
            .exits
            .lock()
            .unwrap()
            .iter()
            .map(|e| e.expect("all ranks resolved above"))
            .collect();
        let exit_ok: Vec<bool> = exits.iter().map(|e| *e == WorkerExit::Ok).collect();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }

        let mut outputs = HashMap::new();
        let mut missing = Vec::new();
        for (r, &rank_exit_ok) in exit_ok.iter().enumerate() {
            let key = spec.thread_key(r);
            let parsed = fs::read_to_string(self.dir.join(format!("rank-{r}.out.json")))
                .ok()
                .and_then(|s| Json::parse(&s).ok());
            match parsed {
                Some(j) => {
                    outputs.insert(
                        key,
                        RankOutput {
                            key,
                            pid: j.get("pid").as_f64().unwrap_or(0.0) as u32,
                            exit_ok: rank_exit_ok,
                            error: j.get("error").as_str().map(str::to_string),
                            losses: bits_from(j.get("losses_bits")),
                            params: bits_from(j.get("params_bits")),
                            volume: volume_from(j.get("volume")),
                            tape_bytes: j.get("tape_bytes").as_f64().unwrap_or(0.0),
                            peak_stash: j.get("peak_stash").as_f64().unwrap_or(0.0) as usize,
                            steps: j.get("steps").as_f64().unwrap_or(0.0) as usize,
                        },
                    );
                }
                None => missing.push(key),
            }
        }

        // Merge losses: every writer holds the same all-reduced value, so
        // take the first nonzero per iteration in flat-rank order.
        let mut losses = vec![0.0f32; self.job.iters];
        for (i, slot) in losses.iter_mut().enumerate() {
            for r in 0..world {
                if let Some(o) = outputs.get(&spec.thread_key(r)) {
                    if o.losses.get(i).copied().unwrap_or(0.0) != 0.0 {
                        *slot = o.losses[i];
                        break;
                    }
                }
            }
        }

        ProcOutcome {
            outputs,
            losses,
            missing,
            exits,
        }
    }
}

impl Drop for LaunchHandle {
    /// A dropped handle must not leak rank processes or the reader
    /// thread (e.g. when a test assertion fails mid-run).
    fn drop(&mut self) {
        self.kill_all();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
