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

use crate::comm::WireKind;
use crate::health::HealthMonitor;
use crate::trainer::{merge_losses, ThreadKey};

use super::rendezvous::{clear_stale_rendezvous, publish, HEARTBEAT_CHAN, RENDEZVOUS_TIMEOUT};
use super::report::{self, RankOutput};
use super::spec::JobSpec;

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

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
    /// The heartbeat reader.
    reader: Option<thread::JoinHandle<()>>,
    /// Per-flat-rank completed-iteration counters, fed by the heartbeat
    /// reader from `[flat, completed]` progress beats.
    progress: Arc<Vec<std::sync::atomic::AtomicUsize>>,
    /// Per-flat-rank exit status, filled lazily by [`LaunchHandle::poll_exits`].
    exits: Mutex<Vec<Option<WorkerExit>>>,
}

/// Launch `job` as `world` OS processes rendezvousing in `dir`
/// (created if absent). The workers re-exec the **current executable**
/// with `--proc-worker <dir> <rank>`, so the hosting binary must call
/// [`maybe_worker`](super::maybe_worker) before anything else.
pub fn launch(job: &JobSpec, dir: &Path) -> std::io::Result<LaunchHandle> {
    launch_configured(job, dir, None)
}

/// [`launch`] with an explicit durable checkpoint root (published to
/// workers as `ckpt.path`, so respawn attempts in fresh rendezvous dirs
/// share one store).
pub fn launch_configured(
    job: &JobSpec,
    dir: &Path,
    ckpt_root: Option<&Path>,
) -> std::io::Result<LaunchHandle> {
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    // Refuse a ragged batch here, before any worker is spawned.
    job.spec()
        .microbatches(job.batch)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    fs::create_dir_all(dir)?;
    clear_stale_rendezvous(dir)?;
    fs::write(dir.join("job.json"), job.to_json())?;
    if let Some(root) = ckpt_root {
        publish(dir, "ckpt.path", &root.display().to_string());
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
    // One reader waits on every rank's heartbeat stream at once (one
    // `poll(2)` behind the channel) and records each beat as it arrives,
    // however quiet or busy the other ranks are. It looks at the stop flag
    // whenever a beat arrives and at least once per heartbeat period. Its
    // channel holds the launcher's listener for as long as it runs.
    let reader = {
        let mut chan = SocketChannel::new(node, HEARTBEAT_CHAN, world, vec![None; world + 1]);
        let (monitor, stop, progress) = (
            Arc::clone(&monitor),
            Arc::clone(&stop),
            Arc::clone(&progress),
        );
        let period = job.hb_period;
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                chan.set_deadline(Instant::now() + period);
                if let Ok((r, frame)) = chan.recv_any() {
                    monitor.beat(r);
                    // Two-element frames are progress beats: `[flat,
                    // completed_iters]`. `fetch_max` because a late bare
                    // beacon must not be confused with regressing progress.
                    if let Some(&done) = frame.get(1) {
                        progress[r].fetch_max(done as usize, Ordering::Relaxed);
                    }
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

    fn stop_reader(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
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
        self.stop_reader();

        let mut outputs = HashMap::new();
        let mut missing = Vec::new();
        for (r, exit) in exits.iter().enumerate() {
            let key = spec.thread_key(r);
            let text = fs::read_to_string(self.dir.join(report::file_name(r))).ok();
            match text.and_then(|t| RankOutput::decode(t, *exit == WorkerExit::Ok)) {
                Some(out) => {
                    outputs.insert(key, out);
                }
                None => missing.push(key),
            }
        }
        let reporting = (0..world).filter_map(|r| outputs.get(&spec.thread_key(r)));
        let losses = merge_losses(self.job.iters, reporting.map(|o| o.losses.as_slice()));

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
        self.stop_reader();
    }
}
