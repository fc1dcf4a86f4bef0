//! What every worker reads at startup: the job ([`JobSpec`], `job.json`).

use std::time::Duration;

use megatron_schedule::ScheduleKind;
use megatron_sim::json::Json;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::comm::WireKind;
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
    /// Timeout of every collective and pipeline transfer.
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
    /// the watch loop polls. A rank held with no kill to follow is a
    /// neighbour that stalls alive: its beacon keeps beating.
    pub hold: Option<(usize, usize)>,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.wire = WireKind::Tcp;
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
}
