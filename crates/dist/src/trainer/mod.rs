//! The PTD-P trainer: real tensor + pipeline + data parallel training over
//! `p·t·d` threads, with strict optimizer semantics (§2.2's pipeline flush
//! before every optimizer step).
//!
//! Construction mirrors the paper exactly:
//! - the model's layers are split into `p·v` stages assigned round-robin
//!   (stage `c·p + device`, §2.2.2);
//! - each stage's blocks are tensor-parallel shards across `t` threads
//!   (§2.3);
//! - the batch is sharded over `d` replicas and each replica's share is cut
//!   into `m = B/(d·b)` microbatches driven by a
//!   [`megatron_schedule::ScheduleKind`] program;
//! - after the flush, gradients are scaled by `1/m` and averaged across
//!   the data group by a distributed optimizer: one reduce-scatter, Adam
//!   on the rank's `1/d` chunk of every parameter, one all-gather of the
//!   parameters — the parameters a mean all-reduce and a replicated Adam
//!   compute, bit for bit, on every replica (verified in tests).
//!
//! The first stage owns the (replicated-across-`t`) embedding; the last
//! stage owns the final LayerNorm + LM head. That matches Megatron's
//! placement, minus vocab-parallel embeddings (a documented simplification
//! — see DESIGN.md).
//!
//! The module is split by concern:
//! - [`spec`](self) — [`PtdpSpec`], the parallelization plan;
//! - [`logs`](self) — run knobs and outputs ([`RunControl`], what a rank
//!   returns and its fold into [`TrainLog`] / [`TrainOutcome`],
//!   checkpoints, the comm tapes);
//! - [`generations`](self) — the in-memory checkpoint generations the rank
//!   threads assemble together;
//! - [`model`](self) — the per-thread model shard and forward caches;
//! - [`worker`](self) — `run_rank`, the per-rank training loop, the same
//!   function for a rank thread here and a rank process in
//!   [`proc`](crate::proc);
//! - this file — the orchestrator that wires the tensor, data and
//!   stage-boundary groups to the rank threads.

mod generations;
mod logs;
mod model;
mod spec;
mod worker;

#[cfg(test)]
mod tests;

pub use logs::{
    KillSwitch, RankCommOps, RankCommVolume, RunControl, ThreadState, TrainError, TrainLog,
    TrainOutcome, TrainSnapshot,
};
pub use spec::{PtdpSpec, ThreadKey};

pub(crate) use model::{build_thread_model, EmbedShard, HeadShard, ThreadModel};

use std::collections::{BTreeMap, HashMap};

use megatron_tensor::gpt::GptModel;
use megatron_tensor::RankGuard;

use crate::comm::Group;

use generations::GenerationAssembler;
pub(crate) use logs::{merge_losses, RankOutcome};
pub(crate) use worker::{run_rank, Wiring};

/// Real PTD-P training over threads.
pub struct PtdpTrainer {
    master: GptModel,
    spec: PtdpSpec,
}

impl PtdpTrainer {
    /// Validate the spec against the master model and build the trainer.
    ///
    /// # Panics
    /// On any §3.1-style divisibility violation.
    pub fn new(master: GptModel, spec: PtdpSpec) -> Self {
        let cfg = master.cfg;
        assert!(
            cfg.heads.is_multiple_of(spec.tensor),
            "t must divide attention heads"
        );
        assert!(
            cfg.layers.is_multiple_of(spec.pipeline * spec.chunks),
            "layers must divide into p·v stages"
        );
        assert_eq!(
            spec.schedule.chunks(),
            spec.chunks,
            "schedule/spec chunk mismatch"
        );
        PtdpTrainer { master, spec }
    }

    /// Train for one iteration per element of `data`; each element is the
    /// full global batch (`tokens`, `targets`), both `B·seq` long.
    ///
    /// # Panics
    /// If any worker fails (use [`PtdpTrainer::train_with`] for the
    /// fallible path).
    pub fn train(&self, data: &[(Vec<usize>, Vec<usize>)]) -> TrainLog {
        let out = self.train_with(data, RunControl::default());
        if let Some(e) = out.error {
            panic!("training failed: {e}");
        }
        out.log
    }

    /// Like [`PtdpTrainer::train`] with failure handling: periodic
    /// in-memory checkpoints, restore-from-snapshot, deliberate rank
    /// kills, and a collective timeout. Never panics on worker failure —
    /// the first error is reported in the outcome instead.
    pub fn train_with(&self, data: &[(Vec<usize>, Vec<usize>)], ctl: RunControl) -> TrainOutcome {
        let spec = self.spec;
        let cfg = self.master.cfg;
        let (p, t, d, v) = (spec.pipeline, spec.tensor, spec.data, spec.chunks);
        let stages = p * v;
        let seq = cfg.seq;

        assert!(!data.is_empty(), "need at least one iteration of data");
        let batch_total = data[0].0.len() / seq;
        for (tok, tgt) in data {
            assert_eq!(tok.len(), batch_total * seq, "uneven iteration batches");
            assert_eq!(tgt.len(), batch_total * seq);
        }
        let m = spec
            .microbatches(batch_total)
            .unwrap_or_else(|e| panic!("{e}"));
        let schedule = spec.schedule.build(p, m);
        schedule.validate().expect("generated schedule is valid");

        // --- Process groups ---
        let timeout = ctl.comm_timeout.unwrap_or(spec.comm_timeout);
        // `count` groups of `size` members per pipeline device.
        let groups = |size: usize, count: usize| -> HashMap<_, _> {
            (0..p)
                .flat_map(|pi| (0..count).map(move |i| (pi, i)))
                .map(|key| (key, Group::with_timeout(size, timeout)))
                .collect()
        };
        let tensor_groups = groups(t, d);
        let data_groups = groups(d, t);

        // Per (di, ti) replica, one two-member group over every stage
        // boundary: the lower stage is member 0.
        let mut lanes: HashMap<ThreadKey, BTreeMap<_, _>> = HashMap::new();
        for (di, ti) in (0..d).flat_map(|di| (0..t).map(move |ti| (di, ti))) {
            for s in 1..stages {
                let group = Group::with_timeout(2, timeout);
                for (member, (stage, neighbour)) in [(s - 1, s), (s, s - 1)].into_iter().enumerate()
                {
                    let rank = lanes.entry((stage % p, di, ti)).or_default();
                    rank.insert((stage, neighbour), group.member(member));
                }
            }
        }

        let generations = GenerationAssembler::new(spec.world());
        let ctl = &ctl;
        // The ranks share this host's cores for as long as they run.
        let _ranks = RankGuard::declare(spec.world());

        let ranks: Vec<RankOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spec.world())
                .map(|rank| {
                    let key @ (pi, di, ti) = spec.thread_key(rank);
                    let wiring = Wiring {
                        tg: tensor_groups[&(pi, di)].member(ti),
                        dg: data_groups[&(pi, ti)].member(di),
                        lanes: lanes.remove(&key).unwrap_or_default(),
                        generations: Some(&generations),
                        node: None,
                    };
                    let (master, schedule) = (&self.master, &schedule);
                    scope.spawn(move || run_rank(key, spec, master, schedule, data, wiring, ctl))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("run_rank catches its own unwind"))
                .collect()
        });

        let out = TrainOutcome::fold(data.len(), ranks, generations.into_newest_complete());
        if let Some(sink) = &ctl.telemetry {
            let mut total = 0.0f64;
            for ((cpi, cdi, cti), vol) in &out.log.comm_volumes {
                let bytes = vol.total_bytes();
                sink.metrics
                    .counter(&format!("comm_bytes.rank.p{cpi}d{cdi}t{cti}"))
                    .add(bytes as u64);
                total += bytes;
            }
            sink.metrics.counter("comm_bytes_total").add(total as u64);
        }
        out
    }
}
