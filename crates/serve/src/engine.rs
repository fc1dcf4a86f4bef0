//! The real tensor-parallel decode engine.
//!
//! [`RankEngine`] is one rank's shard of an inference model: replicated
//! embedding / final LayerNorm / LM head plus head-sharded
//! [`ParallelBlock`]s — the same shards training uses, assembled for
//! decoding. [`serve`] spawns one thread per tensor rank over a real
//! [`Group`], and every rank runs the identical
//! [`ContinuousBatcher`](megatron_sim::serving::ContinuousBatcher) in
//! lockstep: admission is driven by the shared virtual clock, logits are
//! bit-identical after the block all-reduces (t ∈ {1, 2}), and greedy
//! sampling therefore picks the same token on every rank with no
//! coordination. Wall-clock timing decorates the run without steering it.

use std::collections::BTreeMap;
use std::thread;
use std::time::Instant;

use megatron_dist::{BlockKv, Group, GroupMember, ParallelBlock};
use megatron_sim::serving::{
    BatchPolicy, ContinuousBatcher, Request, ServingSummary, TimingCollector,
};
use megatron_telemetry::MetricsRegistry;
use megatron_tensor::gpt::GptModel;
use megatron_tensor::layers::{Embedding, LayerNorm, Linear};
use megatron_tensor::Matrix;
use megatron_tensor::RankGuard;

use crate::traffic::ServeRequest;

/// One tensor rank's inference-side model shard.
pub struct RankEngine {
    /// Replicated token + position embedding.
    pub embed: Embedding,
    /// Head-sharded transformer blocks.
    pub blocks: Vec<ParallelBlock>,
    /// Replicated final LayerNorm.
    pub final_ln: LayerNorm,
    /// Replicated LM head.
    pub lm_head: Linear,
}

/// One sequence's share of an engine step: the new tokens to feed, their
/// starting absolute position, and the sequence's per-block KV caches.
pub struct SeqBatchEntry<'a> {
    /// New token ids for this chunk.
    pub tokens: &'a [usize],
    /// Absolute position of `tokens[0]`.
    pub start_pos: usize,
    /// Per-block caches (one per layer), already holding earlier tokens.
    pub caches: &'a mut Vec<BlockKv>,
}

impl RankEngine {
    /// Shard rank `rank` of `t` from a serial model. Only the blocks are
    /// sharded; embedding, final LN, and LM head are replicated (their
    /// row-local math is identical on every rank).
    pub fn from_serial(model: &GptModel, t: usize, rank: usize) -> Self {
        assert!(
            model.cfg.heads.is_multiple_of(t),
            "tensor parallel degree {t} must divide heads {}",
            model.cfg.heads
        );
        RankEngine {
            embed: model.embed.clone(),
            blocks: model
                .blocks
                .iter()
                .map(|b| ParallelBlock::from_serial(b, model.cfg.heads, t, rank))
                .collect(),
            final_ln: model.final_ln.clone(),
            lm_head: model.lm_head.clone(),
        }
    }

    /// Fresh per-block KV caches for one sequence.
    pub fn new_cache(&self) -> Vec<BlockKv> {
        self.blocks
            .iter()
            .map(|b| BlockKv::new(b.kv_cols()))
            .collect()
    }

    /// One engine step over concatenated per-sequence chunks: embed the
    /// new tokens at their absolute positions, run every block's cached
    /// decode forward (two all-reduces each), and return logits for
    /// every row. Callers sample from each chunk's last row.
    pub fn forward_step(&self, batch: &mut [SeqBatchEntry], comm: &GroupMember) -> Matrix {
        let h = self.embed.tokens.cols();
        let total: usize = batch.iter().map(|e| e.tokens.len()).sum();
        let mut x = Matrix::zeros(total, h);
        let mut r = 0usize;
        for e in batch.iter() {
            for (i, &tok) in e.tokens.iter().enumerate() {
                let pos = e.start_pos + i;
                let dst = x.row_mut(r);
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = self.embed.tokens.get(tok, c) + self.embed.positions.get(pos, c);
                }
                r += 1;
            }
        }
        for (bi, block) in self.blocks.iter().enumerate() {
            let mut chunks: Vec<(usize, &mut BlockKv)> = batch
                .iter_mut()
                .map(|e| (e.tokens.len(), &mut e.caches[bi]))
                .collect();
            x = block.forward_decode(&x, &mut chunks, comm);
        }
        let (hf, _) = self.final_ln.forward(&x);
        self.lm_head.forward(&hf)
    }
}

/// Greedy sampling: index of the first maximal logit.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = row[0];
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Engine configuration: tensor-parallel degree and batching policy.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Tensor-parallel degree (bit-identical decode holds for 1 and 2).
    pub tensor_parallel: usize,
    /// Continuous-batching admission policy.
    pub policy: BatchPolicy,
}

/// Result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Throughput / latency summary (same shape the sim mirror emits).
    pub summary: ServingSummary,
    /// Generated tokens per request id.
    pub outputs: BTreeMap<usize, Vec<usize>>,
    /// Per-step `(rows, attended, wall_seconds)` samples — calibration
    /// input for the mirror's cost model.
    pub step_samples: Vec<(usize, usize, f64)>,
    /// Peak `f32` count held in KV caches across all layers.
    pub kv_peak_floats: usize,
}

struct SeqState {
    tokens: Vec<usize>,
    caches: Vec<BlockKv>,
}

/// Run continuous-batched greedy decoding over a real tensor group.
///
/// Spawns `cfg.tensor_parallel` rank threads; each executes the same
/// deterministic schedule. Rank 0's measurements are returned; the
/// outputs of every rank are asserted identical (the SPMD lockstep
/// invariant). If `metrics` is given, rank 0 records step/TTFT/latency
/// histograms and token counters into it.
pub fn serve(
    model: &GptModel,
    cfg: &ServeConfig,
    requests: &[ServeRequest],
    metrics: Option<&MetricsRegistry>,
) -> ServeOutcome {
    let t = cfg.tensor_parallel;
    assert!(t >= 1, "need at least one rank");
    for r in requests {
        assert_eq!(r.prompt_tokens.len(), r.request.prompt, "prompt mismatch");
        assert!(
            r.request.kv_budget() <= model.cfg.seq,
            "request {} needs {} positions > model seq {}",
            r.request.id,
            r.request.kv_budget(),
            model.cfg.seq
        );
        assert!(r.prompt_tokens.iter().all(|&tok| tok < model.cfg.vocab));
    }
    let reqs: Vec<Request> = requests.iter().map(|r| r.request.clone()).collect();
    let prompts: BTreeMap<usize, &[usize]> = requests
        .iter()
        .map(|r| (r.request.id, r.prompt_tokens.as_slice()))
        .collect();

    let group = Group::new(t);
    // The `t` rank threads share this host's cores while they serve.
    let _ranks = RankGuard::declare(t);
    let mut outcomes: Vec<ServeOutcome> = thread::scope(|s| {
        let handles: Vec<_> = (0..t)
            .map(|rank| {
                let member = group.member(rank);
                let reqs = &reqs;
                let prompts = &prompts;
                s.spawn(move || {
                    run_rank(
                        model,
                        t,
                        rank,
                        member,
                        cfg.policy,
                        reqs,
                        prompts,
                        if rank == 0 { metrics } else { None },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    for (rank, o) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            o.outputs, outcomes[0].outputs,
            "rank {rank} sampled different tokens than rank 0 — lockstep broken"
        );
    }
    outcomes.swap_remove(0)
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    model: &GptModel,
    t: usize,
    rank: usize,
    member: GroupMember,
    policy: BatchPolicy,
    reqs: &[Request],
    prompts: &BTreeMap<usize, &[usize]>,
    metrics: Option<&MetricsRegistry>,
) -> ServeOutcome {
    let engine = RankEngine::from_serial(model, t, rank);
    let mut batcher = ContinuousBatcher::new(policy, reqs.to_vec());
    let mut collector = TimingCollector::new(reqs);
    let mut states: BTreeMap<usize, SeqState> = BTreeMap::new();
    let mut outputs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut step_samples = Vec::new();
    let kv_cols_total: usize = engine.blocks.iter().map(ParallelBlock::kv_cols).sum();
    let (mut kv_floats, mut kv_peak) = (0usize, 0usize);
    let t0 = Instant::now();

    while let Some(plan) = batcher.next_step() {
        let step_start = Instant::now();
        collector.step_start(&plan, t0.elapsed().as_secs_f64());
        for id in &plan.admitted {
            states.insert(
                *id,
                SeqState {
                    tokens: prompts[id].to_vec(),
                    caches: engine.new_cache(),
                },
            );
            outputs.insert(*id, Vec::new());
        }
        // Pull the step's states out of the map so each entry can borrow
        // its token slice and caches disjointly.
        let mut active: Vec<SeqState> = plan
            .seqs
            .iter()
            .map(|s| states.remove(&s.id).expect("running sequence has state"))
            .collect();
        let mut entries: Vec<SeqBatchEntry> = plan
            .seqs
            .iter()
            .zip(active.iter_mut())
            .map(|(s, st)| {
                let SeqState { tokens, caches } = st;
                SeqBatchEntry {
                    tokens: &tokens[s.start_pos..s.start_pos + s.rows],
                    start_pos: s.start_pos,
                    caches,
                }
            })
            .collect();
        let logits = engine.forward_step(&mut entries, &member);
        drop(entries);

        let mut row = 0usize;
        for (s, st) in plan.seqs.iter().zip(active.iter_mut()) {
            row += s.rows;
            if s.samples {
                let tok = argmax(logits.row(row - 1));
                st.tokens.push(tok);
                outputs.get_mut(&s.id).expect("admitted").push(tok);
            }
        }
        // Each new row added one K and one V row in every block's cache.
        kv_floats += 2 * plan.rows * kv_cols_total;
        kv_peak = kv_peak.max(kv_floats);
        for (s, st) in plan.seqs.iter().zip(active) {
            if s.finishes {
                // Retire: the cache frees right here, before the next
                // step's admissions look at the budget.
                kv_floats -= st.caches.iter().map(BlockKv::float_count).sum::<usize>();
            } else {
                states.insert(s.id, st);
            }
        }
        let step_secs = step_start.elapsed().as_secs_f64();
        collector.step_end(&plan, t0.elapsed().as_secs_f64());
        batcher.finish_step(&plan);
        step_samples.push((plan.rows, plan.attended, step_secs));
        if let Some(m) = metrics {
            m.histogram("serve.step_seconds").record(step_secs);
            m.counter("serve.decode_tokens")
                .add(plan.seqs.iter().filter(|s| s.samples).count() as u64);
            m.gauge("serve.running_seqs").set(plan.seqs.len() as f64);
        }
    }

    let summary = collector.finish(t0.elapsed().as_secs_f64(), &batcher);
    if let Some(m) = metrics {
        m.counter("serve.requests")
            .add(summary.requests.len() as u64);
        m.counter("serve.prefill_tokens")
            .add(summary.prefill_tokens as u64);
        m.counter("serve.generated_tokens")
            .add(summary.generated_tokens as u64);
        m.gauge("serve.kv_peak_floats").set(kv_peak as f64);
        let ttft = m.histogram("serve.ttft_seconds");
        let lat = m.histogram("serve.latency_seconds");
        for r in &summary.requests {
            ttft.record(r.first_token_s - r.eligible_s);
            lat.record(r.done_s - r.eligible_s);
        }
    }
    ServeOutcome {
        summary,
        outputs,
        step_samples,
        kv_peak_floats: kv_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficConfig};
    use megatron_tensor::gpt::TinyGptConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> GptModel {
        let cfg = TinyGptConfig {
            vocab: 19,
            seq: 48,
            hidden: 24,
            heads: 6,
            layers: 2,
        };
        GptModel::new(cfg, &mut StdRng::seed_from_u64(0xdec0de))
    }

    fn traffic(n: usize) -> Vec<ServeRequest> {
        generate(&TrafficConfig {
            requests: n,
            seed: 7,
            mean_interarrival: 12.0,
            prompt_len: (3, 9),
            max_new: (2, 6),
            vocab: 19,
        })
    }

    #[test]
    fn serve_accounts_every_request() {
        let model = model();
        let cfg = ServeConfig {
            tensor_parallel: 1,
            policy: BatchPolicy {
                max_seqs: 3,
                max_live_tokens: 64,
                prefill_chunk: 0,
            },
        };
        let reqs = traffic(12);
        let out = serve(&model, &cfg, &reqs, None);
        assert_eq!(out.outputs.len(), 12);
        for r in &reqs {
            assert_eq!(out.outputs[&r.request.id].len(), r.request.max_new);
        }
        assert_eq!(
            out.summary.generated_tokens,
            reqs.iter().map(|r| r.request.max_new).sum::<usize>()
        );
        assert!(out.kv_peak_floats > 0);
        assert!(out.summary.peak_running <= 3);
    }

    #[test]
    fn same_seed_same_outputs_and_admissions() {
        let model = model();
        let cfg = ServeConfig {
            tensor_parallel: 2,
            policy: BatchPolicy {
                max_seqs: 4,
                max_live_tokens: 80,
                prefill_chunk: 4,
            },
        };
        let reqs = traffic(10);
        let a = serve(&model, &cfg, &reqs, None);
        let b = serve(&model, &cfg, &reqs, None);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.summary.admission_order, b.summary.admission_order);
    }

    #[test]
    fn admission_schedule_independent_of_tensor_degree() {
        // The virtual clock drives admission, so t=1 and t=2 batch
        // identically even though their wall clocks differ.
        let model = model();
        let reqs = traffic(10);
        let policy = BatchPolicy {
            max_seqs: 3,
            max_live_tokens: 60,
            prefill_chunk: 0,
        };
        let mk = |t| ServeConfig {
            tensor_parallel: t,
            policy,
        };
        let one = serve(&model, &mk(1), &reqs, None);
        let two = serve(&model, &mk(2), &reqs, None);
        assert_eq!(one.summary.admission_order, two.summary.admission_order);
        assert_eq!(one.summary.steps, two.summary.steps);
    }
}
