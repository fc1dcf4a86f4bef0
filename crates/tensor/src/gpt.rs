//! A complete (small) GPT model with hand-written backprop — the serial
//! reference the distributed runtime is checked against.
//!
//! Differences from the paper's production models, chosen for testability:
//! untied LM head (tied embeddings complicate gradient plumbing without
//! affecting any claim under study) and no dropout (determinism; see the
//! crate docs).

use rand::Rng;

use crate::layers::{
    cross_entropy, gelu_backward, AttentionCache, AttentionCore, Embedding, LayerNorm,
    LayerNormCache, Linear, Visitor, Zeroing,
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
    ln1: LayerNormCache,
    h1: Matrix,
    qkv: Matrix,
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
        let (attn_raw, attn_cache) = core.forward(&qkv);
        let x2 = self.proj.forward_residual(&attn_raw, x);
        let (h2, ln2_cache) = self.ln2.forward(&x2);
        let (f, g) = self.fc1.forward_gelu(&h2);
        // `x2` itself is not needed at backward time: the residual path
        // re-injects `dout`.
        let out = self.fc2.forward_residual(&g, &x2);
        let cache = BlockCache {
            ln1: ln1_cache,
            h1,
            qkv,
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
        let h = dout.cols();
        let core = AttentionCore {
            batch,
            seq,
            heads: self.heads,
            head_dim: h / self.heads,
        };
        // MLP residual branch.
        let mut df = self.fc2.backward(&cache.g, dout);
        gelu_backward(&cache.f, &mut df);
        let dh2 = self.fc1.backward(&cache.h2, &df);
        let mut dx2 = self.ln2.backward(&cache.ln2, &dh2);
        dx2.add_assign(dout); // residual passthrough

        // Attention residual branch.
        let dattn_raw = self.proj.backward(&cache.attn_out, &dx2);
        let dqkv = core.backward(&cache.qkv, &cache.attn, &dattn_raw);
        let dh1 = self.qkv.backward(&cache.h1, &dqkv);
        let mut dx = self.ln1.backward(&cache.ln1, &dh1);
        dx.add_assign(&dx2); // residual passthrough
        dx
    }

    /// Visit (param, grad) pairs in a stable order.
    pub fn visit(&mut self, f: &mut impl Visitor) {
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
        self.walk(f);
    }

    /// [`GptModel::visit`] with any [`Visitor`].
    fn walk(&mut self, f: &mut impl Visitor) {
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

    /// Zero all gradient accumulators: the step's one zeroing pass, over
    /// the gradients that are not a [`Linear`]'s weight gradient; those are
    /// marked fresh instead, for their first product to write ([`Zeroing`]).
    pub fn zero_grads(&mut self) {
        self.walk(&mut Zeroing);
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit(&mut |p, _| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::numeric_grad;
    use crate::Adam;
    use rand::Rng;
    use rand::SeedableRng;

    fn tiny() -> TinyGptConfig {
        TinyGptConfig {
            vocab: 17,
            seq: 6,
            hidden: 8,
            heads: 2,
            layers: 2,
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let model = GptModel::new(tiny(), &mut r);
        let tokens: Vec<usize> = (0..12).map(|i| i % 17).collect(); // batch 2
        let (logits, _) = model.forward(&tokens, 2);
        assert_eq!((logits.rows(), logits.cols()), (12, 17));
    }

    #[test]
    fn deterministic_forward() {
        let mut r1 = rng();
        let mut r2 = rng();
        let m1 = GptModel::new(tiny(), &mut r1);
        let m2 = GptModel::new(tiny(), &mut r2);
        let tokens: Vec<usize> = (0..6).collect();
        let (l1, _) = m1.forward(&tokens, 1);
        let (l2, _) = m2.forward(&tokens, 1);
        assert_eq!(l1.max_abs_diff(&l2), 0.0);
    }

    #[test]
    fn whole_model_gradcheck_on_a_few_params() {
        // Spot-check the end-to-end gradient on a handful of parameters from
        // different layers (full numeric check would be slow).
        let mut r = rng();
        let mut model = GptModel::new(tiny(), &mut r);
        let tokens: Vec<usize> = vec![3, 1, 4, 1, 5, 9];
        let targets: Vec<usize> = vec![1, 4, 1, 5, 9, 2];

        model.zero_grads();
        let _ = model.loss_and_grad(&tokens, &targets, 1);

        // Gather flattened parameter and gradient snapshots.
        let mut params: Vec<f32> = Vec::new();
        let mut grads: Vec<f32> = Vec::new();
        model.visit(&mut |p, g| {
            params.extend_from_slice(p);
            grads.extend_from_slice(g);
        });

        let mut probe_rng = rand::rngs::StdRng::seed_from_u64(9);
        let indices: Vec<usize> = (0..12)
            .map(|_| probe_rng.gen_range(0..params.len()))
            .collect();

        for &idx in &indices {
            let loss_at = |delta: f32| {
                let mut m = GptModel::new(tiny(), &mut rng());
                // Overwrite with the snapshot + perturbation.
                let mut off = 0;
                m.visit(&mut |p, _| {
                    p.copy_from_slice(&params[off..off + p.len()]);
                    off += p.len();
                });
                let mut off = 0;
                m.visit(&mut |p, _| {
                    if idx >= off && idx < off + p.len() {
                        p[idx - off] += delta;
                    }
                    off += p.len();
                });
                m.loss_and_grad(&tokens, &targets, 1)
            };
            let eps = 1e-2;
            let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
            let analytic = grads[idx];
            let scale = numeric.abs().max(analytic.abs()).max(0.05);
            assert!(
                (numeric - analytic).abs() / scale < 0.15,
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        // Learn a fixed random sequence (memorization): loss must fall
        // substantially from ln(V).
        let mut r = rng();
        let mut model = GptModel::new(tiny(), &mut r);
        let tokens: Vec<usize> = vec![3, 1, 4, 1, 5, 9];
        let targets: Vec<usize> = vec![1, 4, 1, 5, 9, 2];
        let mut adam = Adam::new(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            model.zero_grads();
            let loss = model.loss_and_grad(&tokens, &targets, 1);
            if step == 0 {
                first = loss;
            }
            last = loss;
            let mut pairs = model.param_grad_pairs();
            adam.step(&mut pairs);
        }
        assert!(
            last < first * 0.3,
            "loss should collapse on memorization: {first} -> {last}"
        );
    }

    #[test]
    fn grad_accumulation_is_additive() {
        let mut r = rng();
        let mut model = GptModel::new(tiny(), &mut r);
        let tokens: Vec<usize> = vec![1, 2, 3, 4, 5, 6];
        let targets: Vec<usize> = vec![2, 3, 4, 5, 6, 7];
        model.zero_grads();
        model.loss_and_grad(&tokens, &targets, 1);
        let mut g1: Vec<f32> = Vec::new();
        model.visit(&mut |_, g| g1.extend_from_slice(g));
        model.loss_and_grad(&tokens, &targets, 1);
        let mut g2: Vec<f32> = Vec::new();
        model.visit(&mut |_, g| g2.extend_from_slice(g));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-4 + a.abs() * 1e-3);
        }
    }

    #[test]
    fn numeric_grad_helper_sane() {
        let f = |x: &[f32]| x[0].powi(3);
        let g = numeric_grad(&f, &[2.0], 1e-3);
        assert!((g[0] - 12.0).abs() < 0.05);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut r = rng();
        let cfg = tiny();
        let mut model = GptModel::new(cfg, &mut r);
        let h = cfg.hidden;
        let per_block = 2 * 2 * h              // two LayerNorms
            + h * 3 * h + 3 * h                 // qkv
            + h * h + h                         // proj
            + h * 4 * h + 4 * h                 // fc1
            + 4 * h * h + h; // fc2
        let expect = cfg.vocab * h + cfg.seq * h      // embeddings
            + cfg.layers * per_block
            + 2 * h                                    // final LN
            + h * cfg.vocab; // untied head
        assert_eq!(model.param_count(), expect);
    }
}
