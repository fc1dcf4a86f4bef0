//! The per-rank training loop: one rank per (pipeline, data, tensor)
//! coordinate executing its schedule ops — embedding/chunk forwards, p2p
//! activation exchange, backwards, and the flush-time optimizer semantics —
//! with telemetry spans and the comm-op tape recorded along the way.
//!
//! [`run_rank`] is a function of its inputs: a thread of
//! [`PtdpTrainer`](super::PtdpTrainer) and a rank process of
//! [`proc`](crate::proc) call it with different [`Wiring`] and get the same
//! [`RankOutcome`] back by value.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use megatron_collective::{chunk_of, SocketCalls, SocketNode};
use megatron_schedule::{Pass, PipeOp, PipelineSchedule};
use megatron_tensor::gpt::GptModel;
use megatron_tensor::layers::LayerNorm;
use megatron_tensor::{Adam, AdamState, Matrix};

use megatron_telemetry::{thread_usage, OpenSpan, RankTracer, SpanArgs, SpanKind, TelemetrySink};

use crate::checkpoint::CheckpointError;
use crate::comm::{CommPanic, CommVolume, GroupMember, BYTES_F32};
use crate::vocab::VocabParallelHead;

use super::generations::GenerationAssembler;
use super::logs::{RankCommOps, RankCommVolume, RankOutcome, RunControl, ThreadState, TrainError};
use super::model::{build_thread_model, ChunkCache, HeadCache, ThreadModel};
use super::spec::{PtdpSpec, ThreadKey};

/// Map a worker panic to a [`TrainError`]. The inner tensor/vocab
/// collectives surface communicator failures by panicking with a typed
/// [`CommPanic`] payload; anything else is a genuine bug in the worker.
/// No string matching: a reworded panic message can never flip the
/// classification.
fn classify_panic(payload: &(dyn std::any::Any + Send)) -> TrainError {
    if let Some(CommPanic(e)) = payload.downcast_ref::<CommPanic>() {
        return TrainError::Comm(e.clone());
    }
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    TrainError::ThreadPanicked(msg)
}

/// Which way a pipeline transfer goes.
#[derive(Clone, Copy)]
enum Dir {
    /// Activations, to the next stage.
    Fwd,
    /// Gradients, to the previous stage.
    Bwd,
}

impl Dir {
    /// The stage a transfer leaving `stage` this way arrives at.
    fn next(self, stage: usize) -> usize {
        match self {
            Dir::Fwd => stage + 1,
            Dir::Bwd => stage - 1,
        }
    }

    /// The stage a transfer arriving at `stage` this way left.
    fn prev(self, stage: usize) -> usize {
        match self {
            Dir::Fwd => stage - 1,
            Dir::Bwd => stage + 1,
        }
    }

    /// Names of this direction's wait span and send span.
    fn names(self) -> [&'static str; 2] {
        match self {
            Dir::Fwd => ["pipeline-wait-fwd", "p2p-send-fwd"],
            Dir::Bwd => ["pipeline-wait-bwd", "p2p-send-bwd"],
        }
    }
}

/// How one rank reaches the others: its tensor and data groups, its
/// pipeline boundary groups, and — where the world shares an address space
/// — the checkpoint generations the ranks assemble together.
pub(crate) struct Wiring<'a> {
    pub(crate) tg: GroupMember,
    pub(crate) dg: GroupMember,
    /// This rank's members of the two-member groups of its stage
    /// boundaries, keyed by (its stage, the neighbouring stage); the lower
    /// stage of a boundary is member 0.
    pub(crate) lanes: BTreeMap<(usize, usize), GroupMember>,
    /// `None` in a rank process: it writes its own durable shard and the
    /// launcher, which sees every rank's, commits.
    pub(crate) generations: Option<&'a GenerationAssembler>,
    /// A rank process's socket node, whose system calls the rank's
    /// telemetry counts; `None` on a rank thread (mailbox wires).
    pub(crate) node: Option<Arc<SocketNode>>,
}

/// Open a telemetry span that ends when the guard is closed or dropped
/// (a no-op guard when tracing is off).
fn span<'t>(
    tracer: &'t Option<RankTracer>,
    kind: SpanKind,
    name: &'static str,
    args: SpanArgs,
) -> OpenSpan<'t> {
    OpenSpan::open(tracer.as_ref(), kind, name, args)
}

/// Final LayerNorm → vocab-parallel head → distributed cross-entropy.
/// Returns the (replicated) mean loss and the backward cache.
fn head_forward(
    (ln, lm): &(LayerNorm, VocabParallelHead),
    x: &Matrix,
    targets: &[usize],
    tg: &GroupMember,
) -> (f32, HeadCache) {
    let (hidden_final, ln) = ln.forward(x);
    let (loss, dlogits) = lm.forward_loss(&hidden_final, targets, tg);
    let cache = HeadCache {
        ln,
        hidden_final,
        dlogits,
    };
    (loss, cache)
}

/// Head backward; returns the gradient entering the final LayerNorm's
/// input.
fn head_backward(
    (ln, lm): &mut (LayerNorm, VocabParallelHead),
    hc: &HeadCache,
    tg: &GroupMember,
) -> Matrix {
    let dhf = lm.backward(&hc.hidden_final, &hc.dlogits, tg);
    ln.backward(&hc.ln, &dhf)
}

/// Train one rank of the job to the end of `data` and return everything it
/// measured. A failure — an `Err`, or an unwind out of an inner collective
/// — is caught here and reported in the outcome beside whatever the rank
/// recorded before it; the rank's groups, its stage boundaries' included,
/// are then poisoned so that peers blocked in a collective or a pipeline
/// wait fail fast instead of sitting out the timeout.
pub(crate) fn run_rank(
    key: ThreadKey,
    spec: PtdpSpec,
    master: &GptModel,
    schedule: &PipelineSchedule,
    data: &[(Vec<usize>, Vec<usize>)],
    wiring: Wiring<'_>,
    ctl: &RunControl,
) -> RankOutcome {
    let mut out = RankOutcome::new(key, data.len());
    // The outcome is only ever appended to, so what an unwind leaves in it
    // is valid.
    let run = catch_unwind(AssertUnwindSafe(|| {
        train(&mut out, spec, master, schedule, data, &wiring, ctl)
    }));
    out.error = match run {
        Ok(result) => result.err(),
        Err(payload) => Some(classify_panic(&*payload)),
    };
    if out.error.is_some() {
        let lanes = wiring.lanes.values();
        [&wiring.tg, &wiring.dg]
            .into_iter()
            .chain(lanes)
            .for_each(GroupMember::poison);
    }
    out
}

/// What one rank carries from iteration to iteration.
struct Rank<'a> {
    key: ThreadKey,
    spec: PtdpSpec,
    master: &'a GptModel,
    schedule: &'a PipelineSchedule,
    wiring: &'a Wiring<'a>,
    ctl: &'a RunControl,
    out: &'a mut RankOutcome,
    /// Single-writer tracer: publishes into the hub on drop, so spans
    /// survive the error paths too.
    tracer: Option<RankTracer>,
    model: ThreadModel,
    /// Parameter lengths in visit order: the segments of the data-parallel
    /// collectives and of the moment vectors.
    lens: Vec<usize>,
    /// Adam over this rank's chunk of every parameter ([`own_chunks`]).
    adam: Adam,
}

/// One iteration's pipeline state, from the first forward to the flush.
struct Flush<'d> {
    /// This replica's slice of the global batch.
    tokens: &'d [usize],
    targets: &'d [usize],
    /// Samples × sequence length of one microbatch.
    mb_len: usize,
    stash: HashMap<(usize, usize), ChunkCache>,
    stash_floats: usize,
    loss_sum: f32,
    bubble_ns: u64,
}

impl<'d> Flush<'d> {
    fn tokens(&self, mb: usize) -> &'d [usize] {
        &self.tokens[mb * self.mb_len..(mb + 1) * self.mb_len]
    }

    fn targets(&self, mb: usize) -> &'d [usize] {
        &self.targets[mb * self.mb_len..(mb + 1) * self.mb_len]
    }
}

/// The body of [`run_rank`]: everything that may fail or unwind.
fn train(
    out: &mut RankOutcome,
    spec: PtdpSpec,
    master: &GptModel,
    schedule: &PipelineSchedule,
    data: &[(Vec<usize>, Vec<usize>)],
    wiring: &Wiring<'_>,
    ctl: &RunControl,
) -> Result<(), TrainError> {
    let key @ (pi, di, ti) = out.key;
    let flat_rank = spec.flat_rank(key);
    let mut model = build_thread_model(master, &spec, pi, ti);
    let mut lens = Vec::new();
    model.visit_params(&mut |p| lens.push(p.len()));
    let mut adam = Adam::new(spec.lr);
    let start_iter = match &ctl.restore {
        Some(snap) => {
            let st = snap.threads.get(&key);
            let st = st.ok_or(TrainError::MissingThreadState(key))?;
            model.set_flat_params(&st.params);
            let own = |full: &[f32]| own_chunks(full, &lens, spec.data, di);
            adam.import_state(AdamState {
                t: st.adam.t,
                m: own(&st.adam.m),
                v: own(&st.adam.v),
            });
            snap.next_iter
        }
        None => 0,
    };
    let tracer = ctl.telemetry.as_ref().map(|s| {
        s.hub
            .tracer(flat_rank, key)
            .with_drop_counter(s.metrics.counter(&format!("spans_dropped.rank{flat_rank}")))
    });
    let rank = Rank {
        key,
        spec,
        master,
        schedule,
        wiring,
        ctl,
        out,
        tracer,
        model,
        lens,
        adam,
    };
    rank.run(data, start_iter, flat_rank)
}

impl Rank<'_> {
    /// Run iterations `first..` of `data`.
    fn run(
        mut self,
        data: &[(Vec<usize>, Vec<usize>)],
        first: usize,
        flat_rank: usize,
    ) -> Result<(), TrainError> {
        let (pi, di, ti) = self.key;
        let (ctl, seq) = (self.ctl, self.master.cfg.seq);
        let ops = &self.schedule.ops[pi];
        let mb_len = self.spec.microbatch * seq;
        let replica_len = self.schedule.microbatches * mb_len;
        let kill_iter = ctl
            .kill
            .filter(|k| k.thread == self.key)
            .map(|k| k.iteration);
        let owns_loss = self.model.head.is_some() && ti == 0;

        for (iter, (tokens, targets)) in data.iter().enumerate().skip(first) {
            let iter_start = Instant::now();
            let usage_at_start = ctl.telemetry.as_ref().and_then(|_| thread_usage());
            let calls_at_start = self.socket_calls();
            if let Some(tracer) = &self.tracer {
                tracer.set_iteration(iter, ctl.epoch);
            }
            let replica = di * replica_len..(di + 1) * replica_len;
            let mut flush = Flush {
                tokens: &tokens[replica.clone()],
                targets: &targets[replica],
                mb_len,
                stash: HashMap::new(),
                stash_floats: 0,
                loss_sum: 0.0,
                bubble_ns: 0,
            };
            // The weight gradients are only marked fresh: each one's first
            // microbatch writes it.
            self.model.zero_grads();

            for (opi, op) in ops.iter().enumerate() {
                // Fault-injection hook: die halfway through this iteration's
                // op list, as if the GPU failed mid-step.
                if kill_iter == Some(iter) && opi == ops.len() / 2 {
                    return Err(TrainError::Killed(self.key));
                }
                match op.pass {
                    Pass::Forward => self.forward(&mut flush, op)?,
                    Pass::Backward => self.backward(&mut flush, op)?,
                }
            }
            assert!(flush.stash.is_empty(), "flush left microbatches in flight");

            if let Some(loss) = self.step(flush.loss_sum, owns_loss)? {
                if di == 0 {
                    self.out.losses[iter] = loss;
                }
            }
            if ctl
                .checkpoint_every
                .is_some_and(|k| k > 0 && (iter + 1).is_multiple_of(k))
            {
                self.checkpoint(iter + 1)?;
            }

            let seconds = iter_start.elapsed().as_secs_f64();
            if let Some(sink) = &ctl.telemetry {
                let count = |name, ns| sink.metrics.counter(name).add(ns);
                count(TelemetrySink::BUBBLE_NS, flush.bubble_ns);
                count(TelemetrySink::STEP_NS, (seconds * 1e9).round() as u64);
                // The launch's first iteration touches every buffer for the
                // first time; the ones after it should take no fresh pages.
                if iter > first {
                    if let (Some(a), Some(b)) = (usage_at_start, thread_usage()) {
                        let calls = self.socket_calls().since(calls_at_start);
                        sink.record_rank_usage(flat_rank, b.since(a), calls);
                    }
                }
                if owns_loss && di == 0 {
                    sink.record_iteration(ctl.epoch, iter, seconds);
                }
            }
            self.out.steps += 1;
            // Liveness beacon: one beat per completed iteration (the natural
            // heartbeat period of a training rank).
            if let Some(beat) = &ctl.on_beat {
                beat(flat_rank);
            }
        }

        let (tg, dg, lanes) = (&self.wiring.tg, &self.wiring.dg, &self.wiring.lanes);
        let p = self.spec.pipeline;
        self.out.volume = RankCommVolume {
            tensor: tg.comm_volume(),
            data: dg.comm_volume(),
            p2p_send_bytes: lanes.values().map(|l| l.comm_volume().total_bytes()).sum(),
        };
        self.out.ops = RankCommOps {
            tensor: tg.take_op_log(),
            data: dg.take_op_log(),
            p2p_sends: lanes
                .iter()
                .flat_map(|(&(_, peer), l)| {
                    let to = (peer % p, di, ti);
                    l.take_op_log().into_iter().map(move |op| (to, op.elems))
                })
                .collect(),
        };
        // The optimizer state is done with: release it before the copy of
        // the parameters is made, so the end of the run is not its peak.
        drop(self.adam);
        self.out.params = self.model.flat_params();
        Ok(())
    }

    /// The system calls of the rank's socket node so far, when tracing (all
    /// zero on a rank thread, or untraced).
    fn socket_calls(&self) -> SocketCalls {
        let node = self
            .wiring
            .node
            .as_ref()
            .filter(|_| self.ctl.telemetry.is_some());
        node.map(|n| n.calls()).unwrap_or_default()
    }

    /// This rank's member of the boundary group between `stage` and
    /// `neighbour`.
    fn lane(&self, stage: usize, neighbour: usize) -> &GroupMember {
        &self.wiring.lanes[&(stage, neighbour)]
    }

    /// Wait for the neighbouring stage's activation or gradient; the wait
    /// is pipeline bubble.
    fn recv(
        &self,
        dir: Dir,
        stage: usize,
        mb: SpanArgs,
        bubble_ns: &mut u64,
    ) -> Result<Matrix, TrainError> {
        let wait = span(&self.tracer, SpanKind::Bubble, dir.names()[0], mb);
        let lane = self.lane(stage, dir.prev(stage));
        let data = lane.try_recv().map_err(TrainError::Comm)?;
        *bubble_ns += wait.close();
        let rows = self.spec.microbatch * self.master.cfg.seq;
        Ok(Matrix::from_vec(rows, self.master.cfg.hidden, data))
    }

    /// Hand an activation or gradient to the neighbouring stage.
    fn send(&self, dir: Dir, stage: usize, mb: SpanArgs, x: Matrix) -> Result<(), TrainError> {
        let args = SpanArgs {
            bytes: Some(x.len() as f64 * BYTES_F32),
            ..mb
        };
        let _sending = span(&self.tracer, SpanKind::Comm, dir.names()[1], args);
        let lane = self.lane(stage, dir.next(stage));
        lane.try_send(x.into_vec()).map_err(TrainError::Comm)
    }

    fn forward(&mut self, flush: &mut Flush<'_>, op: &PipeOp) -> Result<(), TrainError> {
        let (spec, seq, tg) = (self.spec, self.master.cfg.seq, &self.wiring.tg);
        let b = spec.microbatch;
        let stage = self.schedule.stage_of(self.key.0, op.chunk);
        let toks = flush.tokens(op.microbatch);
        let mb = SpanArgs {
            bytes: None,
            microbatch: Some(op.microbatch),
            chunk: Some(op.chunk),
        };
        // On stage 0 the forward span takes in the embedding; everywhere
        // else what comes before it is a pipeline wait.
        let (input, computing) = if stage == 0 {
            let computing = span(&self.tracer, SpanKind::Forward, "forward", mb);
            let embed = self.model.embed.as_ref().expect("stage 0 owns embed");
            (embed.forward(toks, seq, tg), computing)
        } else {
            let input = self.recv(Dir::Fwd, stage, mb, &mut flush.bubble_ns)?;
            (input, span(&self.tracer, SpanKind::Forward, "forward", mb))
        };
        let blocks = &self.model.chunks[op.chunk];
        // The first block reads the stage input where it is; `input` itself
        // goes into the stash below, and only on the recompute path.
        let mut x: Option<Matrix> = None;
        let mut block_caches = Vec::with_capacity(blocks.len());
        for blk in blocks {
            let (nx, c) = blk.forward(x.as_ref().unwrap_or(&input), b, seq, tg);
            x = Some(nx);
            if !spec.recompute {
                block_caches.push(c);
            }
        }
        let x = x.expect("a chunk holds at least one block");
        let mut cache = ChunkCache {
            block_caches,
            input: spec.recompute.then_some(input),
            head: None,
            tokens: (stage == 0).then(|| toks.to_vec()),
        };
        if stage == self.schedule.total_stages() - 1 {
            let head = self.model.head.as_ref().expect("last stage owns head");
            let (loss, head_cache) = head_forward(head, &x, flush.targets(op.microbatch), tg);
            flush.loss_sum += loss;
            if !spec.recompute {
                cache.head = Some(head_cache);
            }
            drop(computing);
        } else {
            drop(computing);
            self.send(Dir::Fwd, stage, mb, x)?;
        }
        flush.stash_floats += cache.float_count();
        self.out.peak_stash = self.out.peak_stash.max(flush.stash_floats);
        flush.stash.insert((op.microbatch, op.chunk), cache);
        Ok(())
    }

    fn backward(&mut self, flush: &mut Flush<'_>, op: &PipeOp) -> Result<(), TrainError> {
        let (spec, seq, tg) = (self.spec, self.master.cfg.seq, &self.wiring.tg);
        let b = spec.microbatch;
        let stage = self.schedule.stage_of(self.key.0, op.chunk);
        let last_stage = self.schedule.total_stages() - 1;
        let mb = SpanArgs {
            bytes: None,
            microbatch: Some(op.microbatch),
            chunk: Some(op.chunk),
        };
        let mut cache = flush
            .stash
            .remove(&(op.microbatch, op.chunk))
            .expect("backward before forward");
        flush.stash_floats -= cache.float_count();
        if spec.recompute {
            // §3.5: rerun the forward pass from the stashed input to
            // rebuild all intermediate activations (bit-identical to the
            // discarded ones).
            let _recomputing = span(&self.tracer, SpanKind::Forward, "recompute-forward", mb);
            let mut x = cache.input.take().expect("recompute stash");
            cache.block_caches = Vec::new();
            for blk in &self.model.chunks[op.chunk] {
                let (nx, c) = blk.forward(&x, b, seq, tg);
                x = nx;
                cache.block_caches.push(c);
            }
            if stage == last_stage {
                let head = self.model.head.as_ref().expect("head");
                let (_, head_cache) = head_forward(head, &x, flush.targets(op.microbatch), tg);
                cache.head = Some(head_cache);
            }
        }
        let (mut dx, computing) = if stage == last_stage {
            let computing = span(&self.tracer, SpanKind::Backward, "backward", mb);
            let hc = cache.head.as_ref().expect("head cache");
            let head = self.model.head.as_mut().expect("head");
            (head_backward(head, hc, tg), computing)
        } else {
            let dx = self.recv(Dir::Bwd, stage, mb, &mut flush.bubble_ns)?;
            (dx, span(&self.tracer, SpanKind::Backward, "backward", mb))
        };
        let blocks = self.model.chunks[op.chunk].iter_mut();
        for (blk, c) in blocks.zip(&cache.block_caches).rev() {
            dx = blk.backward(c, &dx, b, seq, tg);
        }
        if stage > 0 {
            drop(computing);
            self.send(Dir::Bwd, stage, mb, dx)
        } else {
            let toks = cache.tokens.as_ref().expect("stage-0 tokens");
            let embed = self.model.embed.as_mut().expect("stage 0 owns embed");
            embed.backward(toks, seq, &dx);
            Ok(())
        }
    }

    /// The pipeline flush is complete: strict optimizer semantics, with the
    /// data-parallel step as a distributed optimizer — §3.3.1's gradient
    /// all-reduce split into its two halves around the update. Reduce-
    /// scatter the gradients, Adam-step this rank's chunk of every
    /// parameter on its gradient scaled to the replica mean, all-gather
    /// the parameters. The chunk is summed in exactly the order a ring
    /// all-reduce of its parameter sums it, and scaled by `1/d` as the mean
    /// all-reduce scales (in Adam's registers, `Adam::step_scaled`: no pass
    /// over memory), so every replica ends with the parameters a replicated
    /// optimizer computes, bit for bit, at `1/d` of its optimizer work.
    /// Returns the iteration's loss on the ranks that own it (`owns_loss`).
    fn step(&mut self, loss_sum: f32, owns_loss: bool) -> Result<Option<f32>, TrainError> {
        let (d, di, dg) = (self.spec.data, self.key.1, &self.wiring.dg);
        // Gradients currently hold Σ over microbatches of per-microbatch
        // means; rescale to the replica mean, then average over replicas.
        // With one microbatch the factor is exactly 1.0 and `x · 1.0` is
        // `x` for every value: the pass over the gradients is skipped. It
        // cannot fold into Adam as `1/d` does: the reduce-scatter sums the
        // scaled values, and `Σ(x/m)` is not `(Σx)/m` unless `m` is a power
        // of two.
        let inv_m = 1.0 / self.schedule.microbatches as f32;
        if self.schedule.microbatches > 1 {
            self.model.visit(&mut |_, g| {
                for x in g.iter_mut() {
                    *x *= inv_m;
                }
            });
        }

        // Report loss (last stage, tensor rank 0): replica mean, then mean
        // over data-parallel replicas.
        let loss = if owns_loss {
            let mut l = [loss_sum * inv_m];
            let mut reducing = span(
                &self.tracer,
                SpanKind::Comm,
                "loss-allreduce",
                SpanArgs::NONE,
            );
            let before = dg.comm_volume();
            dg.try_all_reduce_mean(&mut l).map_err(TrainError::Comm)?;
            reducing.set_bytes(bytes_since(dg, before));
            Some(l[0])
        } else {
            None
        };

        let mut pairs = self.model.param_grad_pairs();
        if d > 1 {
            let mut grads: Vec<&mut [f32]> = pairs.iter_mut().map(|(_, g)| &mut **g).collect();
            let mut reducing = span(
                &self.tracer,
                SpanKind::Comm,
                "grad-reduce-scatter",
                SpanArgs::NONE,
            );
            let before = dg.comm_volume();
            dg.try_reduce_scatter_sum(&mut grads)
                .map_err(TrainError::Comm)?;
            reducing.set_bytes(bytes_since(dg, before));
        }
        let mut owned: Vec<(&mut [f32], &mut [f32])> = pairs
            .iter_mut()
            .map(|(p, g)| {
                let c = chunk_of(p.len(), d, di);
                (&mut p[c.lo..c.hi], &mut g[c.lo..c.hi])
            })
            .collect();
        let stepping = span(
            &self.tracer,
            SpanKind::Optimizer,
            "adam-step",
            SpanArgs::NONE,
        );
        // `x · (1/d)`, as the mean all-reduce scales; exactly `x` at d = 1.
        self.adam.step_scaled(&mut owned, 1.0 / d as f32);
        drop(stepping);
        if d > 1 {
            let mut params: Vec<&mut [f32]> = pairs.iter_mut().map(|(p, _)| &mut **p).collect();
            let mut gathering = span(
                &self.tracer,
                SpanKind::Comm,
                "param-allgather",
                SpanArgs::NONE,
            );
            let before = dg.comm_volume();
            dg.try_all_gather(&mut params).map_err(TrainError::Comm)?;
            gathering.set_bytes(bytes_since(dg, before));
        }
        Ok(loss)
    }

    /// The optimizer state a replicated step would hold — the full `m` and
    /// `v` — from this rank's chunks of them, all-gathered over the data
    /// group. Checkpoints keep this form, so any topology can restore them.
    fn full_moments(&self) -> Result<AdamState, TrainError> {
        let (d, di, dg) = (self.spec.data, self.key.1, &self.wiring.dg);
        let own = self.adam.export_state();
        let mut gathering = (d > 1).then(|| {
            span(
                &self.tracer,
                SpanKind::Comm,
                "moment-allgather",
                SpanArgs::NONE,
            )
        });
        let before = dg.comm_volume();
        let gather = |chunks: &[f32]| {
            let mut full = vec![0.0f32; self.lens.iter().sum()];
            let mut segs = segments(&mut full, &self.lens);
            let mut from = 0;
            for seg in &mut segs {
                let c = chunk_of(seg.len(), d, di);
                seg[c.lo..c.hi].copy_from_slice(&chunks[from..from + c.len()]);
                from += c.len();
            }
            dg.try_all_gather(&mut segs).map_err(TrainError::Comm)?;
            Ok::<_, TrainError>(full)
        };
        let (m, v) = (gather(&own.m)?, gather(&own.v)?);
        if let Some(span) = &mut gathering {
            span.set_bytes(bytes_since(dg, before));
        }
        Ok(AdamState { t: own.t, m, v })
    }

    /// Snapshot this rank after the optimizer step that makes `generation`
    /// the next iteration to run.
    fn checkpoint(&mut self, generation: usize) -> Result<(), TrainError> {
        let adam = self.full_moments()?;
        let _saving = span(
            &self.tracer,
            SpanKind::Checkpoint,
            "checkpoint-save",
            SpanArgs::NONE,
        );
        let state = ThreadState {
            params: self.model.flat_params(),
            adam,
        };
        let failed = |e: CheckpointError| TrainError::Checkpoint(e.to_string());
        if let Some(store) = &self.ctl.durable {
            store
                .write_shard(&self.spec, self.key, generation, &state)
                .map_err(failed)?;
        }
        // The rank whose state completes the generation commits it (every
        // shard is on disk by then, so that is the manifest alone); peers
        // may already be running the next iteration.
        let complete = self
            .wiring
            .generations
            .is_some_and(|g| g.insert(generation, self.key, state));
        if let (true, Some(store)) = (complete, &self.ctl.durable) {
            store
                .seal(&self.spec, self.master.cfg, generation)
                .map_err(failed)?;
        }
        Ok(())
    }
}

/// Bytes `dg` sent since its volume read `before`.
fn bytes_since(dg: &GroupMember, before: CommVolume) -> f64 {
    dg.comm_volume().total_bytes() - before.total_bytes()
}

/// `buf` cut into consecutive segments of `lens` elements.
fn segments<'b>(mut buf: &'b mut [f32], lens: &[usize]) -> Vec<&'b mut [f32]> {
    lens.iter()
        .map(|&n| {
            let (seg, rest) = std::mem::take(&mut buf).split_at_mut(n);
            buf = rest;
            seg
        })
        .collect()
}

/// Rank `di` of `d`'s chunk ([`chunk_of`]) of every parameter-length
/// segment of `full` (segments of `lens` elements), concatenated: the part
/// of a full moment vector this rank's optimizer holds.
fn own_chunks(full: &[f32], lens: &[usize], d: usize, di: usize) -> Vec<f32> {
    let mut own = Vec::with_capacity(full.len().div_ceil(d));
    let mut off = 0;
    for &n in lens {
        let c = chunk_of(n, d, di);
        own.extend_from_slice(&full[off + c.lo..off + c.hi]);
        off += n;
    }
    own
}
