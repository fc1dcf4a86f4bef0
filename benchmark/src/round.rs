//! One round: a fresh process that runs one workload for a fixed number of
//! iterations and reports what it observed from outside the trainer.
//!
//! Iteration 0 is warm-up and belongs to `setup_s`; iterations 1.. are
//! timed. An iteration ends when the *last* rank reports it done: from
//! `RunControl::on_beat` in thread mode, from the launcher's progress
//! counters (polled every millisecond) in process mode, from the loop
//! itself in the serial baseline. Correctness checks run after the timed
//! window and after peak memory has been read.
//!
//! The round only notes *when* things happened, on the clock of
//! [`sys::now`]. The driver, which stopped the round every now and then to
//! time the reference step, turns those moments into durations
//! ([`Round::from_json`], `reference.rs`).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use megatron_dist::proc::{launch, JobSpec};
use megatron_dist::{PtdpTrainer, RunControl, TrainLog};
use megatron_sim::json::Json;
use megatron_telemetry::{SinkConfig, TelemetrySink};
use megatron_tensor::gpt::GptModel;
use megatron_tensor::layers::cross_entropy;
use megatron_tensor::Adam;

use crate::procfs;
use crate::reference::{Step, Timeline};
use crate::spans::SpanLog;
use crate::sys;
use crate::tracing::{self, TraceSummary};
use crate::workloads::{Mode, Workload};

/// Where rounds put rendezvous directories and traces. Relative, so that
/// Unix-socket paths stay short whatever the checkout is called.
pub const OUT_DIR: &str = "benchmark/out";

/// A process-mode round that takes longer than this has failed.
const PROC_ROUND_LIMIT_S: f64 = 150.0;
/// How long after a rank process exits its last progress beat may arrive.
const EXIT_GRACE_S: f64 = 1.0;

/// What one round hands back to the driver. The round process fills in
/// what it observed; the durations are derived by the driver.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// When the round process started.
    pub start: f64,
    /// When the model and the data were built.
    pub built: f64,
    /// When each iteration (warm-up included) completed on every rank.
    pub bounds: Vec<Boundary>,
    /// Process-mode moments; zero elsewhere.
    pub marks: ProcMarks,
    /// Peak resident set: this process, plus every rank process.
    pub peak_rss_mib: f64,
    /// Mean loss of every iteration (warm-up included), as f32 bits.
    pub losses: Vec<f32>,
    /// Exact counts over the whole round, all ranks.
    pub counts: Counts,
    /// Failed operations and failed correctness checks.
    pub failures: Vec<String>,
    /// Present on traced rounds.
    pub trace: Option<TraceSummary>,

    // Derived by the driver, in reference seconds:
    /// Process start → iteration 0 complete on every rank.
    pub setup_s: f64,
    /// The part of `setup_s` spent building the model and the data.
    pub data_s: f64,
    /// Each timed iteration.
    pub iter_s: Vec<f64>,
    /// The timed window, in seconds the round actually ran (pauses left
    /// out): against the sum of `iter_s`, how slow the machine was.
    pub ran_s: f64,
    /// User + system CPU of this process and every rank process over the
    /// timed window, in reference CPU seconds.
    pub cpu_s: f64,
    /// Per timed iteration: (last rank done − first rank done) / duration.
    pub skew: Vec<f64>,
    /// Process-mode phases; zero elsewhere.
    pub proc: ProcTimes,
    /// Every reference step the driver timed.
    pub ref_steps: Vec<Step>,
}

/// Counts that must repeat exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub tp_bytes: f64,
    pub dp_bytes: f64,
    pub p2p_bytes: f64,
    pub collectives: f64,
    pub peak_stash_floats: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcTimes {
    /// Spawn → every rank's first heartbeat.
    pub launch_s: f64,
    /// Every rank's first heartbeat → iteration 0 complete.
    pub first_iter_s: f64,
    /// Last iteration complete → rank outputs merged.
    pub teardown_s: f64,
}

/// Process-mode moments: ranks spawned, every rank's first heartbeat, last
/// iteration complete, rank outputs merged.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcMarks {
    pub spawned: f64,
    pub launched: f64,
    pub last: f64,
    pub merged: f64,
}

/// The moment an iteration completed on every rank.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    pub at: f64,
    /// When the first rank completed it.
    pub first: f64,
    /// Cumulative CPU seconds of all processes of the round.
    pub cpu_s: f64,
}

fn self_cpu_s() -> f64 {
    procfs::stat(std::process::id()).map_or(0.0, |s| s.cpu_seconds())
}

/// Collects `on_beat` calls into iteration boundaries.
struct BeatClock {
    world: usize,
    state: Mutex<BeatState>,
}

#[derive(Default)]
struct BeatState {
    beats: Vec<usize>,
    first: Vec<f64>,
    arrived: Vec<usize>,
    done: Vec<Boundary>,
}

impl BeatClock {
    fn new(world: usize) -> Arc<BeatClock> {
        Arc::new(BeatClock {
            world,
            state: Mutex::new(BeatState {
                beats: vec![0; world],
                ..Default::default()
            }),
        })
    }

    fn beat(&self, rank: usize) {
        let now = sys::now();
        let mut s = self.state.lock().expect("beat hooks do not panic");
        let k = s.beats[rank];
        s.beats[rank] += 1;
        if s.first.len() == k {
            s.first.push(now);
            s.arrived.push(0);
        }
        s.arrived[k] += 1;
        if s.arrived[k] == self.world {
            let first = s.first[k];
            s.done.push(Boundary {
                at: now,
                first,
                cpu_s: self_cpu_s(),
            });
        }
    }

    fn boundaries(&self) -> Vec<Boundary> {
        self.state
            .lock()
            .expect("beat hooks do not panic")
            .done
            .clone()
    }
}

impl Round {
    /// Turn the moments the round noted into durations on the driver's
    /// reference clock.
    fn derive(&mut self, timeline: &Timeline) {
        self.ref_steps = timeline.steps();
        let Some(first) = self.bounds.first() else {
            return;
        };
        self.setup_s = timeline.elapsed(self.start, first.at);
        self.data_s = timeline.elapsed(self.start, self.built);
        for pair in self.bounds.windows(2) {
            let iter_s = timeline.elapsed(pair[0].at, pair[1].at);
            self.iter_s.push(iter_s);
            self.skew
                .push(timeline.elapsed(pair[1].first, pair[1].at) / iter_s.max(1e-9));
        }
        let last = self.bounds[self.bounds.len() - 1];
        let window = timeline.span(first.at, last.at);
        self.ran_s = window.ran_s;
        self.cpu_s = (last.cpu_s - first.cpu_s) * window.cpu_scale;
        let m = self.marks;
        if m.launched > 0.0 {
            self.proc = ProcTimes {
                launch_s: timeline.elapsed(m.spawned, m.launched),
                first_iter_s: timeline.elapsed(m.launched, first.at),
                teardown_s: timeline.elapsed(m.last, m.merged),
            };
        }
    }

    fn check_losses(&mut self, iters: usize) {
        if self.losses.len() != iters {
            self.failures.push(format!(
                "{} of {iters} iterations reported a loss",
                self.losses.len()
            ));
        }
        for (i, l) in self.losses.iter().enumerate() {
            if !l.is_finite() {
                self.failures
                    .push(format!("iteration {i}: loss {l} is not finite"));
            }
        }
    }
}

/// Run one round of `w`: `iters` iterations including the warm-up one.
/// `start` is when this process started.
pub fn run(w: Workload, seed: u64, iters: usize, traced: bool, check: bool, start: f64) -> Round {
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    let mut round = match w.mode {
        Mode::Serial => run_serial(w, seed, iters, traced, start),
        Mode::Thread => run_thread(w, seed, iters, traced, check, start),
        Mode::Proc => run_proc(w, seed, iters, traced, check, start),
    };
    round.check_losses(iters);
    round
}

/// Where a traced round leaves its trace events for the driver to merge.
pub fn round_trace_path(w: &Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace_{}.round.json", w.name))
}

// ---------------------------------------------------------------------------
// serial_wide
// ---------------------------------------------------------------------------

fn run_serial(w: Workload, seed: u64, iters: usize, traced: bool, start: f64) -> Round {
    let mut round = Round {
        start,
        ..Default::default()
    };
    let mut model = w.master(seed);
    let data = w.dataset(seed, iters);
    round.built = sys::now();

    let mut adam = Adam::new(w.spec().lr);
    let mut spans = traced.then(|| SpanLog::new(w.name));
    for (tokens, targets) in &data {
        let loss = match &mut spans {
            None => {
                model.zero_grads();
                let loss = model.loss_and_grad(tokens, targets, w.batch);
                adam.step(&mut model.param_grad_pairs());
                loss
            }
            Some(log) => traced_step(log, &mut model, &mut adam, tokens, targets, w.batch),
        };
        round.losses.push(loss);
        let at = sys::now();
        round.bounds.push(Boundary {
            at,
            first: at,
            cpu_s: self_cpu_s(),
        });
    }
    round.peak_rss_mib = procfs::vm_hwm_mib(std::process::id()).unwrap_or(0.0);

    // Losses of successive batches are too noisy to compare over a short
    // round; the first batch, seen again after training, is not.
    if let (Some((tokens, targets)), Some(&before)) = (data.first(), round.losses.first()) {
        let (logits, _) = model.forward(tokens, w.batch);
        let (after, _) = cross_entropy(&logits, targets);
        if after >= before {
            round.failures.push(format!(
                "training did not lower the loss of the first batch: {before} -> {after}"
            ));
        }
    }
    if let Some(log) = spans {
        round.trace = Some(tracing::summarize_serial(&log));
        std::fs::write(round_trace_path(&w), log.chrome_events().to_string())
            .expect("write round trace");
    }
    round
}

/// The same step as the untraced loop (`loss_and_grad` is exactly forward,
/// `cross_entropy`, backward), with a span around each phase.
fn traced_step(
    log: &mut SpanLog,
    model: &mut GptModel,
    adam: &mut Adam,
    tokens: &[usize],
    targets: &[usize],
    batch: usize,
) -> f32 {
    let iter = log.open("iteration", None);
    model.zero_grads();
    let ((logits, cache), _) = log.time("forward", Some(iter), || model.forward(tokens, batch));
    let (loss, dlogits) = cross_entropy(&logits, targets);
    log.time("backward", Some(iter), || model.backward(&cache, &dlogits));
    log.time("adam-step", Some(iter), || {
        adam.step(&mut model.param_grad_pairs())
    });
    log.close(iter);
    loss
}

// ---------------------------------------------------------------------------
// ptd222_thread, dp2_fat
// ---------------------------------------------------------------------------

fn run_thread(
    w: Workload,
    seed: u64,
    iters: usize,
    traced: bool,
    check: bool,
    start: f64,
) -> Round {
    let mut round = Round {
        start,
        ..Default::default()
    };
    let master = w.master(seed);
    let data = w.dataset(seed, iters);
    round.built = sys::now();

    let clock = BeatClock::new(w.world());
    let sink = traced.then(|| {
        TelemetrySink::new(SinkConfig {
            world: w.world(),
            ..Default::default()
        })
    });
    let hook = Arc::clone(&clock);
    let ctl = RunControl {
        on_beat: Some(Arc::new(move |rank| hook.beat(rank))),
        telemetry: sink.clone(),
        ..Default::default()
    };
    let check_master = check.then(|| master.clone());
    let out = PtdpTrainer::new(master, w.spec()).train_with(&data, ctl);
    round.peak_rss_mib = procfs::vm_hwm_mib(std::process::id()).unwrap_or(0.0);
    round.bounds = clock.boundaries();
    if let Some(e) = &out.error {
        round.failures.push(format!("training failed: {e}"));
    }
    round.losses = out.log.losses.clone();
    round.counts = thread_counts(&w, &out.log, &mut round.failures);

    if let Some(master) = check_master {
        // The first two iterations against a plain serial replay.
        let replay = serial_losses(&master, &data[..2.min(data.len())], w.spec().lr);
        for (i, (a, b)) in round.losses.iter().zip(&replay).enumerate() {
            if (a - b).abs() > 1e-3 {
                round.failures.push(format!(
                    "iteration {i}: loss {a} differs from serial replay {b}"
                ));
            }
        }
    }
    if let Some(sink) = sink {
        let trace = megatron_telemetry::chrome_trace_json(&sink.hub, w.ptd.0);
        let dropped = sink.hub.ranks().iter().map(|r| r.dropped).sum();
        match tracing::summarize_trainer(&trace, w.ptd.0, iters, dropped) {
            Ok(summary) => round.trace = Some(summary),
            Err(e) => round.failures.push(format!("trace analysis failed: {e}")),
        }
        std::fs::write(round_trace_path(&w), trace).expect("write round trace");
    }
    round
}

/// Serial reference: the same model and data on one thread.
pub fn serial_losses(master: &GptModel, data: &[(Vec<usize>, Vec<usize>)], lr: f32) -> Vec<f32> {
    let mut model = master.clone();
    let mut adam = Adam::new(lr);
    data.iter()
        .map(|(tokens, targets)| {
            model.zero_grads();
            let loss = model.loss_and_grad(tokens, targets, tokens.len() / model.cfg.seq);
            adam.step(&mut model.param_grad_pairs());
            loss
        })
        .collect()
}

/// Sum the per-rank comm counters, checking on the way that the bytes each
/// transport measured are the bytes its op tape implies.
fn thread_counts(w: &Workload, log: &TrainLog, failures: &mut Vec<String>) -> Counts {
    let (_, t, d) = w.ptd;
    let mut c = Counts::default();
    for (key, vol) in &log.comm_volumes {
        c.tp_bytes += vol.tensor.total_bytes();
        c.dp_bytes += vol.data.total_bytes();
        c.p2p_bytes += vol.p2p_send_bytes;
        c.collectives += (vol.tensor.ops + vol.data.ops) as f64;
        let (_, di, ti) = *key;
        let implied = log
            .comm_ops
            .get(key)
            .map(|ops| ops.total_bytes(t, ti, d, di));
        if implied != Some(vol.total_bytes()) {
            failures.push(format!(
                "rank {key:?}: transport measured {} bytes, tape implies {implied:?}",
                vol.total_bytes()
            ));
        }
    }
    c.peak_stash_floats = log.peak_stash_floats.values().copied().max().unwrap_or(0) as f64;
    c
}

// ---------------------------------------------------------------------------
// proc222_uds
// ---------------------------------------------------------------------------

fn run_proc(w: Workload, seed: u64, iters: usize, traced: bool, check: bool, start: f64) -> Round {
    let mut round = Round {
        start,
        built: start,
        ..Default::default()
    };
    let job = w.job(seed, iters, traced);
    let dir = Path::new(OUT_DIR).join(format!("rendezvous-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    round.marks.spawned = sys::now();
    let handle = match launch(&job, &dir) {
        Ok(h) => h,
        Err(e) => {
            round.failures.push(format!("launch failed: {e}"));
            return round;
        }
    };
    let world = job.world();
    let pids: Vec<u32> = (0..world).filter_map(|r| handle.pid(r)).collect();
    let monitor = handle.monitor();
    let me = std::process::id();

    let mut first_done: Vec<f64> = Vec::with_capacity(iters);
    let mut bounds: Vec<Boundary> = Vec::with_capacity(iters);
    let mut rank_cpu = vec![0.0f64; world];
    let mut rank_hwm = vec![0.0f64; world];
    let mut polls = 0u64;
    let mut exited_at = None;
    while bounds.len() < iters {
        let now = sys::now();
        if round.marks.launched == 0.0 && (0..world).all(|r| monitor.beats(r) > 0) {
            round.marks.launched = now;
        }
        let progress: Vec<usize> = (0..world).map(|r| handle.progress(r)).collect();
        let most = progress.iter().copied().max().unwrap_or(0).min(iters);
        let least = progress.iter().copied().min().unwrap_or(0).min(iters);
        while first_done.len() < most {
            first_done.push(now);
        }
        if bounds.len() < least {
            // Exited ranks stay readable as zombies until `wait` reaps them.
            // Peak memory is read only while every rank still trains: after
            // its last iteration a rank serialises its parameters and exits,
            // and whether a reading catches that is a matter of timing.
            for (r, pid) in pids.iter().enumerate() {
                if let Some(s) = procfs::stat(*pid) {
                    rank_cpu[r] = s.cpu_seconds();
                }
                if let (true, Some(m)) = (least < iters, procfs::vm_hwm_mib(*pid)) {
                    rank_hwm[r] = m;
                }
            }
            let cpu_s = self_cpu_s() + rank_cpu.iter().sum::<f64>();
            while bounds.len() < least {
                bounds.push(Boundary {
                    at: now,
                    first: first_done[bounds.len()],
                    cpu_s,
                });
            }
            continue;
        }
        polls += 1;
        if polls.is_multiple_of(128) {
            // A rank that exited may still have its last progress beat in
            // flight to the launcher's reader thread; give it time to land.
            let exited = pids
                .iter()
                .any(|pid| procfs::stat(*pid).is_none_or(|s| s.state == 'Z'));
            let overdue = exited && now - *exited_at.get_or_insert(now) > EXIT_GRACE_S;
            if overdue || now - start > PROC_ROUND_LIMIT_S {
                round.failures.push(format!(
                    "a rank stopped after {} of {iters} iterations",
                    bounds.len()
                ));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    round.marks.last = sys::now();
    let out = handle.wait_within(Duration::from_secs(30));
    round.marks.merged = sys::now();
    round.bounds = bounds;
    round.peak_rss_mib = procfs::vm_hwm_mib(me).unwrap_or(0.0) + rank_hwm.iter().sum::<f64>();

    if !out.ok() {
        let errors: Vec<&String> = out
            .outputs
            .values()
            .filter_map(|o| o.error.as_ref())
            .collect();
        round.failures.push(format!(
            "rank exits {:?}, missing {:?}, errors {errors:?}",
            out.exits, out.missing
        ));
    }
    round.losses = out.losses.clone();
    for (key, o) in &out.outputs {
        round.counts.tp_bytes += o.volume.tensor.total_bytes();
        round.counts.dp_bytes += o.volume.data.total_bytes();
        round.counts.p2p_bytes += o.volume.p2p_send_bytes;
        round.counts.collectives += (o.volume.tensor.ops + o.volume.data.ops) as f64;
        round.counts.peak_stash_floats = round.counts.peak_stash_floats.max(o.peak_stash as f64);
        if o.tape_bytes != o.volume.total_bytes() {
            round.failures.push(format!(
                "rank {key:?}: sockets measured {} bytes, tape implies {}",
                o.volume.total_bytes(),
                o.tape_bytes
            ));
        }
    }

    if traced {
        match merge_rank_traces(&dir, world)
            .and_then(|t| Ok((tracing::summarize_trainer(&t, job.pipeline, iters, 0)?, t)))
        {
            Ok((summary, trace)) => {
                round.trace = Some(summary);
                std::fs::write(round_trace_path(&w), trace).expect("write round trace");
            }
            Err(e) => round.failures.push(format!("trace analysis failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if check {
        check_process_equals_thread(&dir, &mut round.failures);
    }
    round
}

fn merge_rank_traces(dir: &Path, world: usize) -> Result<String, String> {
    let parts: Vec<String> = (0..world)
        .map(|r| {
            let path = dir.join(format!("rank-{r}.trace.json"));
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    megatron_telemetry::merge_chrome_traces(parts.iter().map(String::as_str))
}

/// At smoke scale, a process-mode run must produce the thread-mode run's
/// losses bit for bit.
fn check_process_equals_thread(dir: &Path, failures: &mut Vec<String>) {
    let job = JobSpec::canonical(2, 2, 2);
    let by_process = match launch(&job, dir) {
        Ok(h) => h.wait_within(Duration::from_secs(60)),
        Err(e) => {
            failures.push(format!("smoke launch failed: {e}"));
            return;
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    let by_thread = PtdpTrainer::new(job.master(), job.spec()).train(&job.dataset());
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if !by_process.ok() || bits(&by_process.losses) != bits(&by_thread.losses) {
        failures.push(format!(
            "process-mode losses {:?} != thread-mode losses {:?}",
            by_process.losses, by_thread.losses
        ));
    }
}

// ---------------------------------------------------------------------------
// Round ⇄ JSON (the child prints it, the driver parses it)
// ---------------------------------------------------------------------------

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())
}

fn read_nums(j: &Json) -> Vec<f64> {
    j.as_array()
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

impl Round {
    /// What the round process observed.
    pub fn to_json(&self) -> Json {
        let n = |x: f64| Json::Num(x);
        let column = |f: fn(&Boundary) -> f64| nums(&self.bounds.iter().map(f).collect::<Vec<_>>());
        let m = self.marks;
        Json::obj([
            ("start", n(self.start)),
            ("built", n(self.built)),
            ("at", column(|b| b.at)),
            ("first", column(|b| b.first)),
            ("cpu_s", column(|b| b.cpu_s)),
            ("marks", nums(&[m.spawned, m.launched, m.last, m.merged])),
            ("peak_rss_mib", n(self.peak_rss_mib)),
            (
                "loss_bits",
                Json::Arr(
                    self.losses
                        .iter()
                        .map(|l| n(f64::from(l.to_bits())))
                        .collect(),
                ),
            ),
            (
                "counts",
                nums(&[
                    self.counts.tp_bytes,
                    self.counts.dp_bytes,
                    self.counts.p2p_bytes,
                    self.counts.collectives,
                    self.counts.peak_stash_floats,
                ]),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "trace",
                self.trace
                    .as_ref()
                    .map_or(Json::Null, TraceSummary::to_json),
            ),
        ])
    }

    /// Read back what the round process printed and derive the durations
    /// on the driver's reference clock.
    pub fn from_json(j: &Json, timeline: &Timeline) -> Option<Round> {
        let f = |key: &str| j.get(key).as_f64();
        let (at, first, cpu_s) = (
            read_nums(j.get("at")),
            read_nums(j.get("first")),
            read_nums(j.get("cpu_s")),
        );
        let counts = read_nums(j.get("counts"));
        let marks = read_nums(j.get("marks"));
        if first.len() != at.len()
            || cpu_s.len() != at.len()
            || counts.len() != 5
            || marks.len() != 4
        {
            return None;
        }
        let mut round = Round {
            start: f("start")?,
            built: f("built")?,
            bounds: (0..at.len())
                .map(|i| Boundary {
                    at: at[i],
                    first: first[i],
                    cpu_s: cpu_s[i],
                })
                .collect(),
            marks: ProcMarks {
                spawned: marks[0],
                launched: marks[1],
                last: marks[2],
                merged: marks[3],
            },
            peak_rss_mib: f("peak_rss_mib")?,
            losses: read_nums(j.get("loss_bits"))
                .iter()
                .map(|b| f32::from_bits(*b as u32))
                .collect(),
            counts: Counts {
                tp_bytes: counts[0],
                dp_bytes: counts[1],
                p2p_bytes: counts[2],
                collectives: counts[3],
                peak_stash_floats: counts[4],
            },
            failures: j
                .get("failures")
                .as_array()?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
            trace: TraceSummary::from_json(j.get("trace")),
            ..Default::default()
        };
        round.derive(timeline);
        Some(round)
    }
}
