//! The model shard one thread owns — the embedding's vocab shard,
//! transformer chunks, the final LayerNorm and the LM head's vocab shard —
//! plus the forward caches the schedule stashes between a microbatch's
//! forward and backward passes.

use megatron_tensor::gpt::GptModel;
use megatron_tensor::layers::{LayerNorm, LayerNormCache, Visitor, Zeroing};
use megatron_tensor::Matrix;

use crate::block::{ParallelBlock, ParallelBlockCache};
use crate::vocab::{VocabParallelEmbedding, VocabParallelHead};

use super::spec::PtdpSpec;

/// The model shard owned by one thread.
pub(crate) struct ThreadModel {
    /// Blocks per owned chunk (index = chunk id).
    pub(crate) chunks: Vec<Vec<ParallelBlock>>,
    /// First stage: the token table's vocab shard and the position table.
    pub(crate) embed: Option<VocabParallelEmbedding>,
    /// Last stage: the final LayerNorm and the LM head's vocab shard.
    pub(crate) head: Option<(LayerNorm, VocabParallelHead)>,
}

impl ThreadModel {
    pub(super) fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        self.walk(f);
    }

    /// Zero every gradient for the next iteration: [`Zeroing`], the one
    /// zeroing pass, which marks the weight gradients fresh and fills the
    /// rest pair by pair (collecting the pairs into a fresh `Vec` every
    /// iteration measured +0.8 MB of peak memory on eight rank threads,
    /// `ptd222_thread`).
    pub(super) fn zero_grads(&mut self) {
        self.walk(&mut Zeroing);
    }

    /// [`ThreadModel::visit`] with any [`Visitor`].
    fn walk(&mut self, f: &mut impl Visitor) {
        if let Some(e) = &mut self.embed {
            e.visit(f);
        }
        for chunk in &mut self.chunks {
            for b in chunk {
                b.visit(f);
            }
        }
        if let Some((ln, lm)) = &mut self.head {
            ln.visit(f);
            lm.visit(f);
        }
    }

    /// Visit parameter slices only (reassembly helper).
    pub(crate) fn visit_params(&mut self, f: &mut impl FnMut(&mut [f32])) {
        self.visit(&mut |p, _| f(p));
    }

    pub(super) fn param_grad_pairs(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        let mut raw: Vec<(*mut [f32], *mut [f32])> = Vec::new();
        self.visit(&mut |p, g| raw.push((p as *mut [f32], g as *mut [f32])));
        // SAFETY: visit yields disjoint field borrows.
        raw.into_iter()
            .map(|(p, g)| unsafe { (&mut *p, &mut *g) })
            .collect()
    }

    pub(crate) fn flat_params(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit(&mut |p, _| out.extend_from_slice(p));
        out
    }

    /// Overwrite every parameter from a flat snapshot (inverse of
    /// [`ThreadModel::flat_params`]).
    pub(crate) fn set_flat_params(&mut self, vals: &[f32]) {
        let mut off = 0;
        self.visit(&mut |p, _| {
            p.copy_from_slice(&vals[off..off + p.len()]);
            off += p.len();
        });
        assert_eq!(off, vals.len(), "snapshot parameter count mismatch");
    }
}

/// Per-microbatch forward cache for one chunk.
pub(super) struct ChunkCache {
    /// Full per-block caches (empty in recompute mode).
    pub(super) block_caches: Vec<ParallelBlockCache>,
    /// Recompute mode: the chunk's input activation, stashed instead.
    pub(super) input: Option<Matrix>,
    /// Last stage only: loss path (absent in recompute mode — rebuilt).
    pub(super) head: Option<HeadCache>,
    /// First stage only: token slice for embedding backward.
    pub(super) tokens: Option<Vec<usize>>,
}

impl ChunkCache {
    /// `f32` values held (activation-memory instrumentation, §3.5).
    pub(super) fn float_count(&self) -> usize {
        self.block_caches
            .iter()
            .map(|c| c.float_count())
            .sum::<usize>()
            + self.input.as_ref().map_or(0, Matrix::len)
            + self
                .head
                .as_ref()
                .map_or(0, |h| h.hidden_final.len() + h.dlogits.len())
    }
}

pub(super) struct HeadCache {
    pub(super) ln: LayerNormCache,
    pub(super) hidden_final: Matrix,
    /// This rank's columns of `∂loss/∂logits`.
    pub(super) dlogits: Matrix,
}

/// Build the shard thread `(pi, ti)` owns from the master weights.
pub(crate) fn build_thread_model(
    master: &GptModel,
    spec: &PtdpSpec,
    pi: usize,
    ti: usize,
) -> ThreadModel {
    let cfg = master.cfg;
    let (p, t, v) = (spec.pipeline, spec.tensor, spec.chunks);
    let stages = p * v;
    let layers_per_stage = cfg.layers / stages;
    ThreadModel {
        chunks: (0..v)
            .map(|c| {
                let stage = c * p + pi;
                let lo = stage * layers_per_stage;
                (lo..lo + layers_per_stage)
                    .map(|l| ParallelBlock::from_serial(&master.blocks[l], cfg.heads, t, ti))
                    .collect()
            })
            .collect(),
        embed: (pi == 0).then(|| VocabParallelEmbedding::from_serial(&master.embed, t, ti)),
        // The last global stage (stages−1) lives on device (stages−1) % p,
        // which is p−1 (and chunk v−1).
        head: (pi == (stages - 1) % p).then(|| {
            let lm = VocabParallelHead::from_serial(&master.lm_head, t, ti);
            (master.final_ln.clone(), lm)
        }),
    }
}
