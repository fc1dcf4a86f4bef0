//! What every worker reads at startup: the job ([`JobSpec`], `job.json`)
//! and the socket fault schedule ([`SocketFaultPlan`], `faults.json`).

use std::time::Duration;

use megatron_schedule::ScheduleKind;
use megatron_sim::json::Json;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::comm::{TransportConfig, WireKind};
use crate::trainer::PtdpSpec;

/// A self-contained, serializable description of one process-mode job:
/// the parallelization plan plus everything each worker needs to rebuild
/// identical inputs — model architecture, init/data seeds, batch size and
/// iteration count — so no tensor ever crosses the process boundary at
/// startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Pipeline-parallel size `p`.
    pub pipeline: usize,
    /// Tensor-parallel size `t`.
    pub tensor: usize,
    /// Data-parallel size `d`.
    pub data: usize,
    /// Model chunks per device `v`.
    pub chunks: usize,
    /// Microbatch size `b`.
    pub microbatch: usize,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Adam learning rate.
    pub lr: f32,
    /// §3.5 activation recomputation.
    pub recompute: bool,
    /// Vocab-parallel embedding + LM head.
    pub vocab_parallel: bool,
    /// Collective (and pipeline-lane) timeout.
    pub comm_timeout: Duration,
    /// Model architecture; every worker rebuilds the same master.
    pub model: TinyGptConfig,
    /// Seed for master-weight initialization.
    pub model_seed: u64,
    /// Seed for the synthetic token stream.
    pub data_seed: u64,
    /// Global batch size (samples per iteration).
    pub batch: usize,
    /// Training iterations.
    pub iters: usize,
    /// Socket flavor: must be [`WireKind::Uds`] or [`WireKind::Tcp`].
    pub wire: WireKind,
    /// Arm the reliable retry layer on every group.
    pub retry: bool,
    /// Write a per-rank Chrome trace (`rank-R.trace.json`) and metrics
    /// snapshot (`rank-R.metrics.json`).
    pub trace: bool,
    /// Heartbeat beacon period.
    pub hb_period: Duration,
    /// Durable checkpoint cadence in iterations (0 = no checkpointing).
    /// Workers write their own shards; the launcher commits complete
    /// generations (see
    /// [`commit_complete_generations`](crate::CheckpointStore::commit_complete_generations)).
    pub checkpoint_every: usize,
    /// Restore from this durable generation before training (0 = fresh
    /// start). The launcher pins the generation — rather than letting each
    /// worker pick "latest" independently — so every rank of a respawned
    /// attempt restores the *same* state even if a newer generation
    /// commits concurrently.
    pub resume_from: usize,
    /// Incident epoch stamped into step samples and telemetry (attempt
    /// number − 1 under the supervisor; 0 for a plain launch).
    pub epoch: usize,
    /// `(flat rank, completed iterations)`: that rank's worker parks right
    /// after reporting this many completed iterations and waits to be
    /// killed. Set by [`ProcBackend`](super::ProcBackend) for an armed
    /// [`KillSwitch`](crate::KillSwitch), so that the launcher's SIGKILL
    /// lands at that iteration however fast the job runs and however late
    /// the watch loop polls.
    pub(crate) hold: Option<(usize, usize)>,
}

impl JobSpec {
    /// The canonical seeded tiny job (the same model, seeds, batch, and
    /// iteration count as `tests/real_vs_sim_bytes.rs`), over UDS.
    pub fn canonical(pipeline: usize, tensor: usize, data: usize) -> JobSpec {
        let spec = PtdpSpec::new(pipeline, tensor, data);
        JobSpec {
            pipeline,
            tensor,
            data,
            chunks: spec.chunks,
            microbatch: spec.microbatch,
            schedule: spec.schedule,
            lr: spec.lr,
            recompute: spec.recompute,
            vocab_parallel: spec.vocab_parallel,
            comm_timeout: spec.comm_timeout,
            model: TinyGptConfig {
                vocab: 13,
                seq: 6,
                hidden: 8,
                heads: 4,
                layers: 2,
            },
            model_seed: 7,
            data_seed: 11,
            batch: 8,
            iters: 2,
            wire: WireKind::Uds,
            retry: false,
            trace: false,
            hb_period: Duration::from_millis(25),
            checkpoint_every: 0,
            resume_from: 0,
            epoch: 0,
            hold: None,
        }
    }

    /// The equivalent in-process parallelization plan.
    pub fn spec(&self) -> PtdpSpec {
        let mut s = PtdpSpec::new(self.pipeline, self.tensor, self.data);
        s.chunks = self.chunks;
        s.microbatch = self.microbatch;
        s.schedule = self.schedule;
        s.lr = self.lr;
        s.recompute = self.recompute;
        s.vocab_parallel = self.vocab_parallel;
        s.comm_timeout = self.comm_timeout;
        s
    }

    /// Total worker processes.
    pub fn world(&self) -> usize {
        self.pipeline * self.tensor * self.data
    }

    /// Rebuild the master model every worker starts from.
    pub fn master(&self) -> GptModel {
        let mut rng = StdRng::seed_from_u64(self.model_seed);
        GptModel::new(self.model, &mut rng)
    }

    /// Rebuild the synthetic dataset (identical in every process).
    pub fn dataset(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(self.data_seed);
        (0..self.iters)
            .map(|_| {
                let toks: Vec<usize> = (0..self.batch * self.model.seq)
                    .map(|_| rng.gen_range(0..self.model.vocab))
                    .collect();
                let tgts: Vec<usize> = (0..self.batch * self.model.seq)
                    .map(|_| rng.gen_range(0..self.model.vocab))
                    .collect();
                (toks, tgts)
            })
            .collect()
    }

    /// The transport config every worker arms its groups with.
    pub fn transport(&self) -> TransportConfig {
        TransportConfig {
            wire: self.wire,
            retry: self.retry.then(Default::default),
            faults: None,
        }
    }

    /// Serialize to the `job.json` wire form. `f32` fields travel as
    /// their `u32` bit patterns and the 64-bit seeds as decimal strings (a
    /// JSON number is an `f64`: exact only below 2⁵³), so the round trip
    /// is exact.
    pub fn to_json(&self) -> String {
        let n = |x: usize| Json::Num(x as f64);
        let schedule = match self.schedule {
            ScheduleKind::GPipe => "gpipe".to_string(),
            ScheduleKind::OneFOneB => "1f1b".to_string(),
            ScheduleKind::Interleaved { chunks } => format!("interleaved:{chunks}"),
        };
        Json::obj([
            ("p", n(self.pipeline)),
            ("t", n(self.tensor)),
            ("d", n(self.data)),
            ("chunks", n(self.chunks)),
            ("microbatch", n(self.microbatch)),
            ("schedule", Json::Str(schedule)),
            ("lr_bits", Json::Num(self.lr.to_bits() as f64)),
            ("recompute", Json::Bool(self.recompute)),
            ("vocab_parallel", Json::Bool(self.vocab_parallel)),
            (
                "comm_timeout_ms",
                Json::Num(self.comm_timeout.as_millis() as f64),
            ),
            ("vocab", n(self.model.vocab)),
            ("seq", n(self.model.seq)),
            ("hidden", n(self.model.hidden)),
            ("heads", n(self.model.heads)),
            ("layers", n(self.model.layers)),
            ("model_seed", Json::Str(self.model_seed.to_string())),
            ("data_seed", Json::Str(self.data_seed.to_string())),
            ("batch", n(self.batch)),
            ("iters", n(self.iters)),
            (
                "wire",
                Json::Str(
                    match self.wire {
                        WireKind::Mailbox => "mailbox",
                        WireKind::Uds => "uds",
                        WireKind::Tcp => "tcp",
                    }
                    .to_string(),
                ),
            ),
            ("retry", Json::Bool(self.retry)),
            ("trace", Json::Bool(self.trace)),
            ("hb_period_ms", Json::Num(self.hb_period.as_millis() as f64)),
            ("checkpoint_every", n(self.checkpoint_every)),
            ("resume_from", n(self.resume_from)),
            ("epoch", n(self.epoch)),
            (
                "hold",
                self.hold
                    .map_or(Json::Null, |(r, after)| Json::Arr(vec![n(r), n(after)])),
            ),
        ])
        .to_string()
    }

    /// Parse the `job.json` wire form.
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let us = |k: &str| -> Result<usize, String> {
            j.get(k)
                .as_f64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("job.json: missing numeric field `{k}`"))
        };
        // Fields added after PR 9 default to zero so older job.json files
        // (and hand-written ones) still parse.
        let us0 = |k: &str| j.get(k).as_f64().map(|v| v as usize).unwrap_or(0);
        let b = |k: &str| matches!(j.get(k), Json::Bool(true));
        // Seeds are decimal strings; a job.json written before they were
        // carries plain numbers (exact below 2⁵³), which still parse.
        let seed = |k: &str| -> Result<u64, String> {
            match j.get(k) {
                Json::Str(s) => s.parse().ok(),
                Json::Num(n) => Some(*n as u64),
                _ => None,
            }
            .ok_or_else(|| format!("job.json: missing or malformed seed `{k}`"))
        };
        let schedule = match j.get("schedule").as_str().unwrap_or("1f1b") {
            "gpipe" => ScheduleKind::GPipe,
            s if s.starts_with("interleaved:") => ScheduleKind::Interleaved {
                chunks: s["interleaved:".len()..]
                    .parse()
                    .map_err(|_| format!("job.json: bad schedule `{s}`"))?,
            },
            _ => ScheduleKind::OneFOneB,
        };
        let wire = match j.get("wire").as_str().unwrap_or("uds") {
            "tcp" => WireKind::Tcp,
            "mailbox" => WireKind::Mailbox,
            _ => WireKind::Uds,
        };
        Ok(JobSpec {
            pipeline: us("p")?,
            tensor: us("t")?,
            data: us("d")?,
            chunks: us("chunks")?,
            microbatch: us("microbatch")?,
            schedule,
            lr: f32::from_bits(us("lr_bits")? as u32),
            recompute: b("recompute"),
            vocab_parallel: b("vocab_parallel"),
            comm_timeout: Duration::from_millis(us("comm_timeout_ms")? as u64),
            model: TinyGptConfig {
                vocab: us("vocab")?,
                seq: us("seq")?,
                hidden: us("hidden")?,
                heads: us("heads")?,
                layers: us("layers")?,
            },
            model_seed: seed("model_seed")?,
            data_seed: seed("data_seed")?,
            batch: us("batch")?,
            iters: us("iters")?,
            wire,
            retry: b("retry"),
            trace: b("trace"),
            hb_period: Duration::from_millis(us("hb_period_ms")? as u64),
            checkpoint_every: us0("checkpoint_every"),
            resume_from: us0("resume_from"),
            epoch: us0("epoch"),
            hold: j
                .get("hold")
                .as_array()
                .and_then(|v| Some((v.first()?.as_f64()? as usize, v.get(1)?.as_f64()? as usize))),
        })
    }
}

// ---------------------------------------------------------------------------
// Socket fault plan
// ---------------------------------------------------------------------------

/// Which of a rank's group channels a socket fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChan {
    /// The rank's tensor-parallel group channel.
    Tensor,
    /// The rank's data-parallel group channel.
    Data,
}

/// One launcher-injected socket-level fault, executed by the worker it
/// names before training starts. Severs and slowdowns act on the rank's
/// outbound connection toward its next ring neighbor in the chosen group
/// (the edge every ring collective uses each iteration), so the fault is
/// guaranteed to sit on a live traffic path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Cut the connection mid-frame once `after_bytes` cumulative payload
    /// bytes have been written. `lossy` drops the severed frame cold —
    /// recovery is then entirely the reliable layer + replay log's job —
    /// while `!lossy` has the socket layer resend it whole.
    Sever {
        /// Flat rank whose outbound connection is cut.
        rank: usize,
        /// Group channel carrying the fault.
        chan: FaultChan,
        /// Payload bytes before the cut.
        after_bytes: u64,
        /// Genuinely lose the severed frame?
        lossy: bool,
    },
    /// Delay the rank's listener bind (and address publish) by `delay_ms`:
    /// every peer that dials early is refused and must retry, exercising
    /// the connect-retry path from the other side of the pipe.
    Refuse {
        /// Flat rank whose listener comes up late.
        rank: usize,
        /// Milliseconds of bind delay.
        delay_ms: u64,
    },
    /// Slow every frame the rank sends on `chan` by `delay_us` — a
    /// degraded link the health monitor should classify as Slow, not
    /// Dead.
    Slow {
        /// Flat rank with the degraded link.
        rank: usize,
        /// Group channel carrying the fault.
        chan: FaultChan,
        /// Per-frame send delay in microseconds.
        delay_us: u64,
    },
}

/// A seeded schedule of socket faults for one process-mode job, written
/// by the launcher as `faults.json` and read by every worker at startup
/// (each applies only the entries naming its own rank). The process-mode
/// analog of `TransientFaults`: these are *wire* faults — broken pipes,
/// refused connections, slow links — across real address spaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SocketFaultPlan {
    /// The faults, in no particular order.
    pub faults: Vec<SocketFault>,
}

impl SocketFaultPlan {
    /// A deterministic plan for a world of `world` ranks: one lossy
    /// mid-frame sever, one refused-connection startup delay, and one
    /// slow link, on ranks drawn from `seed`. The sever's byte offset is
    /// drawn so it lands inside the first few iterations' traffic.
    pub fn seeded(seed: u64, world: usize) -> SocketFaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50c4_e7fa);
        let mut pick = |exclude: &[usize]| loop {
            let r = rng.gen_range(0..world);
            if !exclude.contains(&r) {
                return r;
            }
        };
        let a = pick(&[]);
        let b = pick(&[a]);
        let c = pick(&[a, b]);
        let after_bytes = rng.gen_range(100..600);
        let faults = vec![
            SocketFault::Sever {
                rank: a,
                chan: FaultChan::Tensor,
                after_bytes,
                lossy: true,
            },
            SocketFault::Refuse {
                rank: b,
                delay_ms: rng.gen_range(20..120),
            },
            SocketFault::Slow {
                rank: c,
                chan: FaultChan::Data,
                delay_us: rng.gen_range(100..800),
            },
        ];
        SocketFaultPlan { faults }
    }

    /// The entries that name `rank`.
    pub fn for_rank(&self, rank: usize) -> Vec<SocketFault> {
        self.faults
            .iter()
            .copied()
            .filter(|f| match f {
                SocketFault::Sever { rank: r, .. }
                | SocketFault::Refuse { rank: r, .. }
                | SocketFault::Slow { rank: r, .. } => *r == rank,
            })
            .collect()
    }

    /// Serialize to the `faults.json` wire form.
    pub fn to_json(&self) -> String {
        let chan = |c: FaultChan| {
            Json::Str(
                match c {
                    FaultChan::Tensor => "tensor",
                    FaultChan::Data => "data",
                }
                .to_string(),
            )
        };
        let n = |x: u64| Json::Num(x as f64);
        Json::obj([(
            "faults",
            Json::Arr(
                self.faults
                    .iter()
                    .map(|f| match *f {
                        SocketFault::Sever {
                            rank,
                            chan: c,
                            after_bytes,
                            lossy,
                        } => Json::obj([
                            ("kind", Json::Str("sever".into())),
                            ("rank", n(rank as u64)),
                            ("chan", chan(c)),
                            ("after_bytes", n(after_bytes)),
                            ("lossy", Json::Bool(lossy)),
                        ]),
                        SocketFault::Refuse { rank, delay_ms } => Json::obj([
                            ("kind", Json::Str("refuse".into())),
                            ("rank", n(rank as u64)),
                            ("delay_ms", n(delay_ms)),
                        ]),
                        SocketFault::Slow {
                            rank,
                            chan: c,
                            delay_us,
                        } => Json::obj([
                            ("kind", Json::Str("slow".into())),
                            ("rank", n(rank as u64)),
                            ("chan", chan(c)),
                            ("delay_us", n(delay_us)),
                        ]),
                    })
                    .collect(),
            ),
        )])
        .to_string()
    }

    /// Parse the `faults.json` wire form.
    pub fn from_json(text: &str) -> Result<SocketFaultPlan, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let arr = j
            .get("faults")
            .as_array()
            .ok_or("faults.json: missing `faults` array")?;
        let mut faults = Vec::with_capacity(arr.len());
        for f in arr {
            let rank = f.get("rank").as_f64().ok_or("fault: missing rank")? as usize;
            let chan = || match f.get("chan").as_str() {
                Some("data") => FaultChan::Data,
                _ => FaultChan::Tensor,
            };
            let u = |k: &str| f.get(k).as_f64().unwrap_or(0.0) as u64;
            faults.push(match f.get("kind").as_str() {
                Some("sever") => SocketFault::Sever {
                    rank,
                    chan: chan(),
                    after_bytes: u("after_bytes"),
                    lossy: matches!(f.get("lossy"), Json::Bool(true)),
                },
                Some("refuse") => SocketFault::Refuse {
                    rank,
                    delay_ms: u("delay_ms"),
                },
                Some("slow") => SocketFault::Slow {
                    rank,
                    chan: chan(),
                    delay_us: u("delay_us"),
                },
                k => return Err(format!("fault: unknown kind {k:?}")),
            });
        }
        Ok(SocketFaultPlan { faults })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.wire = WireKind::Tcp;
        job.retry = true;
        job.lr = 0.012_345_7;
        job.schedule = ScheduleKind::GPipe;
        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(job, back);
        let inter = JobSpec {
            schedule: ScheduleKind::Interleaved { chunks: 2 },
            chunks: 2,
            hold: Some((1, 5)),
            ..JobSpec::canonical(2, 1, 1)
        };
        assert_eq!(JobSpec::from_json(&inter.to_json()).unwrap(), inter);
    }

    #[test]
    fn canonical_job_matches_inprocess_inputs() {
        let job = JobSpec::canonical(2, 2, 2);
        let spec = job.spec();
        assert_eq!(spec.world(), 8);
        let data = job.dataset();
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].0.len(), 8 * job.model.seq);
        // Same seeds → same master weights in every process.
        let a = job.master();
        let b = job.master();
        assert_eq!(a.cfg, b.cfg);
    }

    #[test]
    fn resume_fields_default_to_zero_for_old_job_json() {
        // A job.json written before the self-healing fields existed must
        // still parse (fresh run, no checkpointing) — and it carries its
        // seeds as plain numbers.
        let job = JobSpec::canonical(2, 1, 1);
        let mut j = Json::parse(&job.to_json()).unwrap();
        if let Json::Obj(m) = &mut j {
            for k in ["checkpoint_every", "resume_from", "epoch"] {
                m.remove(k);
            }
            m.insert("model_seed".into(), Json::Num(job.model_seed as f64));
            m.insert("data_seed".into(), Json::Num(job.data_seed as f64));
        }
        let back = JobSpec::from_json(&j.to_string()).unwrap();
        assert_eq!((back.model_seed, back.data_seed), (7, 11));
        assert_eq!(back.checkpoint_every, 0);
        assert_eq!(back.resume_from, 0);
        assert_eq!(back.epoch, 0);
    }

    #[test]
    fn fault_plan_round_trips_through_json() {
        let plan = SocketFaultPlan::seeded(0xfa117, 8);
        assert!(!plan.faults.is_empty());
        let back = SocketFaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_in_range() {
        let a = SocketFaultPlan::seeded(7, 8);
        let b = SocketFaultPlan::seeded(7, 8);
        assert_eq!(a, b);
        for f in &a.faults {
            let rank = match f {
                SocketFault::Sever { rank, .. }
                | SocketFault::Refuse { rank, .. }
                | SocketFault::Slow { rank, .. } => *rank,
            };
            assert!(rank < 8);
        }
        // Per-rank filtering covers exactly the planned faults.
        let total: usize = (0..8).map(|r| a.for_rank(r).len()).sum();
        assert_eq!(total, a.faults.len());
    }
}
