//! A complete (small) GPT model with hand-written backprop — the serial
//! reference the distributed runtime is checked against.
//!
//! Differences from the paper's production models, chosen for testability:
//! untied LM head (tied embeddings complicate gradient plumbing without
//! affecting any claim under study) and no dropout (determinism; see the
//! crate docs).

use rand::Rng;

use crate::layers::{
    cross_entropy, gelu, gelu_backward, AttentionCache, AttentionCore, Embedding, LayerNorm,
    LayerNormCache, Linear,
};
use crate::Matrix;

/// Architecture of a test-scale GPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TinyGptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer layers.
    pub layers: usize,
}

impl TinyGptConfig {
    /// Validate divisibility constraints.
    pub fn validate(&self) {
        assert!(
            self.hidden.is_multiple_of(self.heads),
            "heads must divide hidden"
        );
        assert!(self.vocab > 0 && self.seq > 0 && self.layers > 0);
    }
}

/// One transformer block: LN → attention → residual, LN → MLP → residual.
#[derive(Debug, Clone)]
pub struct Block {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Fused QKV projection (`h × 3h`).
    pub qkv: Linear,
    /// Attention output projection (`h × h`).
    pub proj: Linear,
    /// Pre-MLP LayerNorm.
    pub ln2: LayerNorm,
    /// MLP up-projection (`h × 4h`).
    pub fc1: Linear,
    /// MLP down-projection (`4h × h`).
    pub fc2: Linear,
    heads: usize,
}

/// Forward cache for one block.
pub struct BlockCache {
    x: Matrix,
    ln1: LayerNormCache,
    h1: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: AttentionCache,
    attn_out: Matrix,
    ln2: LayerNormCache,
    h2: Matrix,
    f: Matrix,
    g: Matrix,
}

impl Block {
    /// Assemble a block from explicit parts (used when reconstructing a
    /// serial model from distributed shards).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        ln1: LayerNorm,
        qkv: Linear,
        proj: Linear,
        ln2: LayerNorm,
        fc1: Linear,
        fc2: Linear,
        heads: usize,
    ) -> Self {
        Block {
            ln1,
            qkv,
            proj,
            ln2,
            fc1,
            fc2,
            heads,
        }
    }

    /// Attention heads in this block.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Gaussian-initialized block of width `h` with `heads` heads.
    pub fn new(h: usize, heads: usize, rng: &mut impl Rng) -> Self {
        Block {
            ln1: LayerNorm::new(h),
            qkv: Linear::new(h, 3 * h, true, rng),
            proj: Linear::new(h, h, true, rng),
            ln2: LayerNorm::new(h),
            fc1: Linear::new(h, 4 * h, true, rng),
            fc2: Linear::new(4 * h, h, true, rng),
            heads,
        }
    }

    /// Forward for `batch` sequences of length `seq` (`x` is `[b·s, h]`).
    pub fn forward(&self, x: &Matrix, batch: usize, seq: usize) -> (Matrix, BlockCache) {
        let h = x.cols();
        let core = AttentionCore {
            batch,
            seq,
            heads: self.heads,
            head_dim: h / self.heads,
        };
        let (h1, ln1_cache) = self.ln1.forward(x);
        let qkv = self.qkv.forward(&h1);
        let q = qkv.columns(0, h);
        let k = qkv.columns(h, 2 * h);
        let v = qkv.columns(2 * h, 3 * h);
        let (attn_raw, attn_cache) = core.forward(&q, &k, &v);
        let proj = self.proj.forward(&attn_raw);
        let mut x2 = proj;
        x2.add_assign(x); // residual
        let (h2, ln2_cache) = self.ln2.forward(&x2);
        let f = self.fc1.forward(&h2);
        let g = gelu(&f);
        let o = self.fc2.forward(&g);
        let mut out = o;
        out.add_assign(&x2); // residual (x2 itself is not needed at backward
                             // time: the residual path re-injects `dout`)
        let cache = BlockCache {
            x: x.clone(),
            ln1: ln1_cache,
            h1,
            q,
            k,
            v,
            attn: attn_cache,
            attn_out: attn_raw,
            ln2: ln2_cache,
            h2,
            f,
            g,
        };
        (out, cache)
    }

    /// Backward; accumulates parameter gradients and returns `dx`.
    pub fn backward(
        &mut self,
        cache: &BlockCache,
        dout: &Matrix,
        batch: usize,
        seq: usize,
    ) -> Matrix {
        let h = cache.x.cols();
        let core = AttentionCore {
            batch,
            seq,
            heads: self.heads,
            head_dim: h / self.heads,
        };
        // MLP residual branch.
        let dg = self.fc2.backward(&cache.g, dout);
        let df = gelu_backward(&cache.f, &dg);
        let dh2 = self.fc1.backward(&cache.h2, &df);
        let mut dx2 = self.ln2.backward(&cache.ln2, &dh2);
        dx2.add_assign(dout); // residual passthrough

        // Attention residual branch.
        let dattn_raw = self.proj.backward(&cache.attn_out, &dx2);
        let (dq, dk, dv) = core.backward(&cache.q, &cache.k, &cache.v, &cache.attn, &dattn_raw);
        let dqkv = Matrix::concat_cols(&[dq, dk, dv]);
        let dh1 = self.qkv.backward(&cache.h1, &dqkv);
        let mut dx = self.ln1.backward(&cache.ln1, &dh1);
        dx.add_assign(&dx2); // residual passthrough
        dx
    }

    /// Visit (param, grad) pairs in a stable order.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        self.ln1.visit(f);
        self.qkv.visit(f);
        self.proj.visit(f);
        self.ln2.visit(f);
        self.fc1.visit(f);
        self.fc2.visit(f);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.ln1.param_count()
            + self.qkv.param_count()
            + self.proj.param_count()
            + self.ln2.param_count()
            + self.fc1.param_count()
            + self.fc2.param_count()
    }
}

/// The full model.
#[derive(Debug, Clone)]
pub struct GptModel {
    /// Architecture.
    pub cfg: TinyGptConfig,
    /// Token + positional embedding.
    pub embed: Embedding,
    /// Transformer blocks.
    pub blocks: Vec<Block>,
    /// Final LayerNorm.
    pub final_ln: LayerNorm,
    /// LM head (`h × V`, untied, no bias).
    pub lm_head: Linear,
}

/// Full-model forward cache.
pub struct GptCache {
    tokens: Vec<usize>,
    blocks: Vec<BlockCache>,
    final_ln: LayerNormCache,
    hidden_final: Matrix,
    batch: usize,
}

impl GptModel {
    /// Gaussian-initialized model.
    pub fn new(cfg: TinyGptConfig, rng: &mut impl Rng) -> Self {
        cfg.validate();
        GptModel {
            cfg,
            embed: Embedding::new(cfg.vocab, cfg.seq, cfg.hidden, rng),
            blocks: (0..cfg.layers)
                .map(|_| Block::new(cfg.hidden, cfg.heads, rng))
                .collect(),
            final_ln: LayerNorm::new(cfg.hidden),
            lm_head: Linear::new(cfg.hidden, cfg.vocab, false, rng),
        }
    }

    /// Forward to logits (`[b·s, V]`).
    pub fn forward(&self, tokens: &[usize], batch: usize) -> (Matrix, GptCache) {
        assert_eq!(tokens.len(), batch * self.cfg.seq);
        let mut x = self.embed.forward(tokens, self.cfg.seq);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (nx, c) = b.forward(&x, batch, self.cfg.seq);
            x = nx;
            caches.push(c);
        }
        let (hf, ln_cache) = self.final_ln.forward(&x);
        let logits = self.lm_head.forward(&hf);
        (
            logits,
            GptCache {
                tokens: tokens.to_vec(),
                blocks: caches,
                final_ln: ln_cache,
                hidden_final: hf,
                batch,
            },
        )
    }

    /// Backward from `dlogits`, accumulating all parameter gradients.
    pub fn backward(&mut self, cache: &GptCache, dlogits: &Matrix) {
        let dhf = self.lm_head.backward(&cache.hidden_final, dlogits);
        let mut dx = self.final_ln.backward(&cache.final_ln, &dhf);
        for (b, c) in self.blocks.iter_mut().zip(&cache.blocks).rev() {
            dx = b.backward(c, &dx, cache.batch, self.cfg.seq);
        }
        self.embed.backward(&cache.tokens, self.cfg.seq, &dx);
    }

    /// One full training step: forward, loss, backward. Gradients are left
    /// accumulated for the caller's optimizer.
    pub fn loss_and_grad(&mut self, tokens: &[usize], targets: &[usize], batch: usize) -> f32 {
        let (logits, cache) = self.forward(tokens, batch);
        let (loss, dlogits) = cross_entropy(&logits, targets);
        self.backward(&cache, &dlogits);
        loss
    }

    /// Visit all (param, grad) pairs in a stable order.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        self.embed.visit(f);
        for b in &mut self.blocks {
            b.visit(f);
        }
        self.final_ln.visit(f);
        self.lm_head.visit(f);
    }

    /// Collect (param, grad) pairs for the optimizer.
    pub fn param_grad_pairs(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        let mut pairs: Vec<(*mut [f32], *mut [f32])> = Vec::new();
        self.visit(&mut |p, g| pairs.push((p as *mut [f32], g as *mut [f32])));
        // SAFETY: `visit` yields disjoint field borrows; the raw-pointer trip
        // only erases the borrow-checker's inability to see that a closure
        // collecting `&mut` slices keeps them disjoint.
        pairs
            .into_iter()
            .map(|(p, g)| unsafe { (&mut *p, &mut *g) })
            .collect()
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.visit(&mut |_, g| g.fill(0.0));
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit(&mut |p, _| n += p.len());
        n
    }
}
