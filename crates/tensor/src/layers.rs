//! Neural-network layers with explicit forward caches and hand-written
//! backward passes. Causal attention ([`AttentionCore`]) runs all its
//! (batch, head) pairs as one batched pass of `gemm`, reading q, k and v
//! where the fused QKV projection left them and caching each pair's
//! probabilities as an `s × s` matrix, masked entries `0.0`.

use rand::Rng;

use crate::elementwise;
use crate::gemm::{self, HeadBwd, HeadFwd, View, ViewMut};
use crate::pool::{self, PIECE};
use crate::{Isa, Matrix};

/// Floats of whole rows `width` wide in one piece of a row pass.
fn piece_len(width: usize) -> usize {
    let width = width.max(1);
    (PIECE / width).max(1) * width
}

/// Fully-connected layer `y = x·W (+ b)`; `W` is `in × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in × out`.
    pub w: Matrix,
    /// Optional bias, length `out`.
    pub b: Option<Vec<f32>>,
    /// Weight gradient accumulator; while `fresh`, zeros in all but memory.
    gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
    /// `gw` has taken no term since it was last zeroed ([`Zeroing`]): the
    /// next [`Linear::backward`] writes it instead of summing onto it, and
    /// whatever it holds now is never read.
    fresh: bool,
}

impl Linear {
    /// Gaussian-initialized layer.
    pub fn new(inputs: usize, outputs: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let std = 0.02f32;
        Linear::from_parts(
            Matrix::randn(inputs, outputs, std, rng),
            bias.then(|| vec![0.0; outputs]),
        )
    }

    /// A layer of the given weight and bias, its gradients zero.
    pub fn from_parts(w: Matrix, b: Option<Vec<f32>>) -> Self {
        Linear {
            gw: Matrix::zeros(w.rows(), w.cols()),
            gb: vec![0.0; w.cols()],
            w,
            b,
            fresh: false,
        }
    }

    /// Forward: returns the output; the caller keeps `x` as the cache.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = gemm::matmul(x, &self.w);
        if let Some(b) = &self.b {
            elementwise::bias_add(y.as_mut_slice(), b);
        }
        y
    }

    /// Forward fused with GeLU (the paper's bias+GeLU kernel, §4.2): returns
    /// the pre-activation `f = x·W + b` and `g = gelu(f)`, both written in
    /// one sweep over the product.
    pub fn forward_gelu(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut f = gemm::matmul(x, &self.w);
        let mut g = Matrix::zeros(f.rows(), f.cols());
        match &self.b {
            Some(b) => {
                let (n, values) = (piece_len(b.len()), g.len());
                let pieces = f
                    .as_mut_slice()
                    .chunks_mut(n)
                    .zip(g.as_mut_slice().chunks_mut(n));
                pool::each(values, pieces.len(), pieces, |(f, g)| {
                    elementwise::bias_gelu(f, b, g)
                });
            }
            None => elementwise::gelu(f.as_slice(), g.as_mut_slice()),
        }
        (f, g)
    }

    /// Forward fused with the residual add: `x·W + b + residual`.
    pub fn forward_residual(&self, x: &Matrix, residual: &Matrix) -> Matrix {
        let mut y = gemm::matmul(x, &self.w);
        match &self.b {
            Some(b) => bias_residual(&mut y, b, residual),
            None => y.add_assign(residual),
        }
        y
    }

    /// Backward: accumulates `gw`/`gb`, returns `dx`.
    ///
    /// `gw` is the weight-gradient product's `C`, with no product matrix of
    /// its own and no second pass adding one in. The first call after
    /// [`Zeroing`] marked it fresh writes `xᵀ·dy` over it
    /// (`gemm::matmul_to`): no pass zeroes it first and the product reads
    /// nothing of it, with the bits of `xᵀ·dy` summed onto `+0.0`. Each
    /// later call (one per microbatch) sums its terms onto the running sums
    /// where they lie (`gemm::matmul_into`), so `gw` is one summation per
    /// element across the microbatches, not a sum of per-microbatch
    /// products.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        let (xt, gw) = (x.view().t(), self.gw.view_mut());
        if std::mem::take(&mut self.fresh) {
            gemm::matmul_to(xt, dy.view(), gw);
        } else {
            gemm::matmul_into(xt, dy.view(), gw);
        }
        if self.b.is_some() {
            for r in 0..dy.rows() {
                for (g, d) in self.gb.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
        }
        gemm::matmul_nt(dy, &self.w)
    }

    /// The weight gradient, zeros if it is fresh.
    pub fn gw(&mut self) -> &Matrix {
        self.settle();
        &self.gw
    }

    /// Zeroes a fresh `gw` in memory, so that it can be read and summed
    /// onto like any other gradient.
    fn settle(&mut self) {
        if std::mem::take(&mut self.fresh) {
            self.gw.as_mut_slice().fill(0.0);
        }
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl Visitor) {
        f.linear(self);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.as_ref().map_or(0, Vec::len)
    }
}

/// What a walk over a model's (param, grad) pairs does at each: every
/// `visit` of this crate's layers takes one. A closure `|p, g|` sees every
/// pair, a fresh weight gradient as the zeros it stands for.
pub trait Visitor {
    /// One parameter and its gradient.
    fn pair(&mut self, p: &mut [f32], g: &mut [f32]);

    /// A [`Linear`]'s pairs: its weight and gradient (zeroed in memory
    /// first if fresh), then its bias and gradient.
    fn linear(&mut self, lin: &mut Linear) {
        lin.settle();
        self.pair(lin.w.as_mut_slice(), lin.gw.as_mut_slice());
        if let Some(b) = &mut lin.b {
            self.pair(b, &mut lin.gb);
        }
    }
}

impl<F: FnMut(&mut [f32], &mut [f32])> Visitor for F {
    fn pair(&mut self, p: &mut [f32], g: &mut [f32]) {
        self(p, g)
    }
}

/// The walk that zeroes a step's gradients: every [`Linear`]'s weight
/// gradient is marked fresh, with no pass over it, and the rest — biases,
/// LayerNorm and embedding gradients — are filled with zeros
/// ([`crate::zero_grads`], one pair at a time).
pub struct Zeroing;

impl Visitor for Zeroing {
    fn pair(&mut self, p: &mut [f32], g: &mut [f32]) {
        crate::zero_grads(&mut [(p, g)]);
    }

    fn linear(&mut self, lin: &mut Linear) {
        lin.fresh = true;
        if let Some(b) = &mut lin.b {
            self.pair(b, &mut lin.gb);
        }
    }
}

/// Fused bias + residual (the paper's bias+dropout+add kernel, §4.2, minus
/// the dropout this repo omits): `o = (o + bias) + x` in one pass — what
/// follows a row-parallel product once its partial sums are all-reduced.
pub fn bias_residual(o: &mut Matrix, bias: &[f32], x: &Matrix) {
    assert_eq!((o.rows(), o.cols()), (x.rows(), x.cols()));
    assert_eq!(o.cols(), bias.len());
    let n = piece_len(bias.len());
    let pieces = o.as_mut_slice().chunks_mut(n).zip(x.as_slice().chunks(n));
    pool::each(x.len(), pieces.len(), pieces, |(o, x)| {
        elementwise::bias_residual_add(o, bias, x)
    });
}

/// GeLU backward in place: `d ⊙= gelu'(x)` (tanh approximation, as in GPT).
pub fn gelu_backward(x: &Matrix, d: &mut Matrix) {
    assert_eq!((x.rows(), x.cols()), (d.rows(), d.cols()));
    let pieces = x
        .as_slice()
        .chunks(PIECE)
        .zip(d.as_mut_slice().chunks_mut(PIECE));
    pool::each(x.len(), pieces.len(), pieces, |(x, d)| {
        elementwise::gelu_backward(x, d)
    });
}

/// LayerNorm over the last dimension with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, length `h`.
    pub gamma: Vec<f32>,
    /// Shift, length `h`.
    pub beta: Vec<f32>,
    /// Scale gradient.
    pub ggamma: Vec<f32>,
    /// Shift gradient.
    pub gbeta: Vec<f32>,
    eps: f32,
}

/// Cache for [`LayerNorm::backward`]: normalized input plus per-row inverse
/// standard deviation.
pub struct LayerNormCache {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm of width `h`.
    pub fn new(h: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; h],
            beta: vec![0.0; h],
            ggamma: vec![0.0; h],
            gbeta: vec![0.0; h],
            eps: 1e-5,
        }
    }

    /// Forward over each row of `x`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCache) {
        let h = x.cols();
        assert_eq!(h, self.gamma.len());
        let mut y = Matrix::zeros(x.rows(), h);
        let mut xhat = Matrix::zeros(x.rows(), h);
        let mut inv_std = vec![0.0; x.rows()];
        let n = piece_len(h);
        let outs = xhat
            .as_mut_slice()
            .chunks_mut(n)
            .zip(y.as_mut_slice().chunks_mut(n));
        let pieces = x
            .as_slice()
            .chunks(n)
            .zip(outs)
            .zip(inv_std.chunks_mut(n / h));
        let params = (&self.gamma[..], &self.beta[..], self.eps);
        pool::each(
            x.len(),
            pieces.len(),
            pieces,
            |((x, (xhat, y)), inv_std)| elementwise::layer_norm(x, params, xhat, y, inv_std),
        );
        (y, LayerNormCache { xhat, inv_std })
    }

    /// Backward; accumulates `ggamma`/`gbeta` and returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Matrix) -> Matrix {
        assert_eq!(
            (dy.rows(), dy.cols()),
            (cache.xhat.rows(), cache.xhat.cols())
        );
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        elementwise::layer_norm_backward(
            dy.as_slice(),
            cache.xhat.as_slice(),
            &cache.inv_std,
            &self.gamma,
            (&mut self.ggamma, &mut self.gbeta),
            dx.as_mut_slice(),
        );
        dx
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl Visitor) {
        f.pair(&mut self.gamma, &mut self.ggamma);
        f.pair(&mut self.beta, &mut self.gbeta);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

/// Causal scaled-dot-product attention over locally-held heads.
///
/// The input is the `[batch·seq, 3·heads_local·head_dim]` output of a fused
/// (column-parallel) QKV projection as it stands — columns `q | k | v`, rows
/// grouped by batch, then sequence position — so tensor-parallel ranks run
/// this on their head shard without any communication (§2.3) and, the
/// layout point of §4.2, without copying q, k or v out of it: the batched
/// pass reads every pair's blocks of `qkv` in place as strided views, and
/// the backward pass writes dq, dk and dv into the blocks of one `dqkv`.
#[derive(Debug, Clone, Copy)]
pub struct AttentionCore {
    /// Samples in the batch.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Heads held locally.
    pub heads: usize,
    /// Dimension per head.
    pub head_dim: usize,
}

/// Cache of per-(batch, head) attention probabilities.
pub struct AttentionCache {
    probs: Vec<Matrix>, // batch·heads entries of s×s
}

impl AttentionCache {
    /// Total `f32` values held (activation-memory instrumentation).
    pub fn float_count(&self) -> usize {
        self.probs.iter().map(Matrix::len).sum()
    }
}

/// Which third of the fused QKV columns.
#[derive(Clone, Copy)]
enum Part {
    Q,
    K,
    V,
}

impl AttentionCore {
    /// Columns of q (and of k, and of v) held locally.
    fn local(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Top-left corner of the `s × head_dim` block of (batch `bi`, head
    /// `hi`) in the given third of a fused QKV matrix.
    fn corner(&self, part: Part, bi: usize, hi: usize) -> (usize, usize) {
        (
            bi * self.seq,
            part as usize * self.local() + hi * self.head_dim,
        )
    }

    /// One head's block of `qkv` (or of `dout`), multiplied where it lies.
    fn head<'a>(&self, qkv: &'a Matrix, part: Part, bi: usize, hi: usize) -> View<'a> {
        let (r0, c0) = self.corner(part, bi, hi);
        qkv.block(r0, c0, self.seq, self.head_dim)
    }

    /// Forward pass: causal softmax(QKᵀ/√d)·V, `[batch·seq, heads·head_dim]`.
    /// All (batch, head) pairs are one batched pass (`gemm::attention_forward`),
    /// shared on the pool in groups of pairs; each pair writes its own
    /// probabilities and its own block of the output, with no zero fill
    /// before.
    pub fn forward(&self, qkv: &Matrix) -> (Matrix, AttentionCache) {
        self.forward_with(Isa::active(), qkv)
    }

    /// [`AttentionCore::forward`] on the build for `isa`.
    pub(crate) fn forward_with(&self, isa: Isa, qkv: &Matrix) -> (Matrix, AttentionCache) {
        assert_eq!(qkv.rows(), self.batch * self.seq);
        assert_eq!(qkv.cols(), 3 * self.local());
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let (s, pairs) = (self.seq, self.batch * self.heads);
        let mut probs: Vec<Vec<f32>> = (0..pairs).map(|_| gemm::room(s * s)).collect();
        let mut out = gemm::room(qkv.rows() * self.local());
        let write = |out: ViewMut<'_>| {
            // `out` has q's width: its head blocks sit where q's do.
            let items = probs.iter_mut().zip(out.blocks(s, self.head_dim));
            let mut heads: Vec<_> = (items.enumerate())
                .map(|(i, (p, [out]))| {
                    let (bi, hi) = (i / self.heads, i % self.heads);
                    HeadFwd {
                        q: self.head(qkv, Part::Q, bi, hi),
                        k: self.head(qkv, Part::K, bi, hi),
                        v: self.head(qkv, Part::V, bi, hi),
                        probs: ViewMut::spare(p, s, s),
                        out,
                    }
                })
                .collect();
            gemm::attention_forward(isa, &mut heads, scale);
        };
        // SAFETY: the head blocks cover `out`, and the pass writes every
        // element of each and reads none it has not written.
        unsafe { gemm::write_vec(&mut out, qkv.rows(), self.local(), write) };
        let probs = probs.into_iter().map(|mut p| {
            // SAFETY: the pass wrote every element of each pair's
            // probabilities.
            unsafe { p.set_len(s * s) };
            Matrix::from_vec(s, s, p)
        });
        (
            Matrix::from_vec(qkv.rows(), self.local(), out),
            AttentionCache {
                probs: probs.collect(),
            },
        )
    }

    /// Backward pass: returns `dqkv`, columns `dq | dk | dv`. All (batch,
    /// head) pairs are one batched pass (`gemm::attention_backward`), shared
    /// on the pool in groups of pairs; each pair writes its own blocks of
    /// `dqkv`, with no zero fill before, and its score gradients go to
    /// scratch of the thread that runs it.
    pub fn backward(&self, qkv: &Matrix, cache: &AttentionCache, dout: &Matrix) -> Matrix {
        self.backward_with(Isa::active(), qkv, cache, dout)
    }

    /// [`AttentionCore::backward`] on the build for `isa`.
    pub(crate) fn backward_with(
        &self,
        isa: Isa,
        qkv: &Matrix,
        cache: &AttentionCache,
        dout: &Matrix,
    ) -> Matrix {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let s = self.seq;
        let mut dqkv = gemm::room(qkv.len());
        let write = |dqkv: ViewMut<'_>| {
            let items = cache.probs.iter().zip(dqkv.blocks(s, self.head_dim));
            let mut heads: Vec<_> = (items.enumerate())
                .map(|(i, (probs, [dq, dk, dv]))| {
                    let (bi, hi) = (i / self.heads, i % self.heads);
                    HeadBwd {
                        q: self.head(qkv, Part::Q, bi, hi),
                        k: self.head(qkv, Part::K, bi, hi),
                        v: self.head(qkv, Part::V, bi, hi),
                        dout: self.head(dout, Part::Q, bi, hi),
                        probs: probs.as_slice(),
                        dq,
                        dk,
                        dv,
                    }
                })
                .collect();
            gemm::attention_backward(isa, &mut heads, scale);
        };
        // SAFETY: the `[dq, dk, dv]` blocks cover `dqkv`, and the pass
        // writes every element of each and reads none.
        unsafe { gemm::write_vec(&mut dqkv, qkv.rows(), qkv.cols(), write) };
        Matrix::from_vec(qkv.rows(), qkv.cols(), dqkv)
    }
}

/// Token + learned positional embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token table, `V × h`.
    pub tokens: Matrix,
    /// Position table, `s_max × h`.
    pub positions: Matrix,
    /// Token-table gradient.
    pub gtokens: Matrix,
    /// Position-table gradient.
    pub gpositions: Matrix,
}

impl Embedding {
    /// Gaussian-initialized tables.
    pub fn new(vocab: usize, max_seq: usize, h: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            tokens: Matrix::randn(vocab, h, 0.02, rng),
            positions: Matrix::randn(max_seq, h, 0.02, rng),
            gtokens: Matrix::zeros(vocab, h),
            gpositions: Matrix::zeros(max_seq, h),
        }
    }

    /// Look up `tokens` (length `batch·seq`, grouped by batch) into
    /// embeddings of shape `[batch·seq, h]`.
    pub fn forward(&self, token_ids: &[usize], seq: usize) -> Matrix {
        let h = self.tokens.cols();
        let mut out = Matrix::zeros(token_ids.len(), h);
        for (r, &tok) in token_ids.iter().enumerate() {
            let rows = self.tokens.row(tok).iter().zip(self.positions.row(r % seq));
            for (d, (&t, &p)) in out.row_mut(r).iter_mut().zip(rows) {
                *d = t + p;
            }
        }
        out
    }

    /// Scatter-add gradients back into the tables.
    pub fn backward(&mut self, token_ids: &[usize], seq: usize, dy: &Matrix) {
        for (r, &tok) in token_ids.iter().enumerate() {
            for table_row in [self.gtokens.row_mut(tok), self.gpositions.row_mut(r % seq)] {
                for (t, &g) in table_row.iter_mut().zip(dy.row(r)) {
                    *t += g;
                }
            }
        }
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl Visitor) {
        f.pair(self.tokens.as_mut_slice(), self.gtokens.as_mut_slice());
        f.pair(
            self.positions.as_mut_slice(),
            self.gpositions.as_mut_slice(),
        );
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.tokens.len() + self.positions.len()
    }
}

/// Mean cross-entropy of `logits` against `targets`; returns the loss and
/// `dlogits`.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len());
    let (n, v) = (targets.len() as f32, logits.cols().max(1));
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    // Each row's loss term, summed in row order below.
    let mut terms = vec![0.0f32; targets.len()];
    let len = piece_len(v);
    let rows = logits
        .as_slice()
        .chunks(len)
        .zip(dlogits.as_mut_slice().chunks_mut(len));
    let pieces = rows.zip(terms.chunks_mut(len / v).zip(targets.chunks(len / v)));
    pool::each(
        logits.len(),
        pieces.len(),
        pieces,
        |((l, d), (terms, targets))| {
            let rows = l.chunks_exact(v).zip(d.chunks_exact_mut(v));
            for ((row, drow), (term, &t)) in rows.zip(terms.iter_mut().zip(targets)) {
                let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                // One `exp` per logit: the softmax numerators are kept in
                // `drow` and divided by their sum below.
                elementwise::exp_minus(row, max, drow);
                let sum: f32 = drow.iter().sum();
                *term = (max + sum.ln()) - row[t];
                let p_target = drow[t] / sum;
                for d in drow.iter_mut() {
                    *d = *d / sum / n;
                }
                drow[t] = (p_target - 1.0) / n;
            }
        },
    );
    let loss = terms.iter().fold(0.0f32, |loss, t| loss + t);
    (loss / n, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{numeric_vs_analytic, numeric_vs_analytic_with_step};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut r = rng();
        let lin = Linear::new(4, 3, true, &mut r);
        let x = Matrix::randn(5, 4, 1.0, &mut r);
        let y = lin.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        // Bias is initialized to zero; perturb and verify it shows up.
        let mut lin2 = lin.clone();
        lin2.b.as_mut().unwrap()[1] = 1.0;
        let y2 = lin2.forward(&x);
        assert!((y2.get(0, 1) - y.get(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn linear_gradcheck() {
        let mut r = rng();
        let x = Matrix::randn(3, 4, 1.0, &mut r);
        let dy = Matrix::randn(3, 2, 1.0, &mut r);
        let build = |params: &[f32]| {
            let mut lin = Linear::new(4, 2, true, &mut rng());
            lin.w = Matrix::from_vec(4, 2, params[..8].to_vec());
            lin.b = Some(params[8..10].to_vec());
            lin
        };
        let loss = |params: &[f32]| {
            let lin = build(params);
            let y = lin.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut p0 = vec![0.0f32; 10];
        let mut r2 = rng();
        let init = Linear::new(4, 2, true, &mut r2);
        p0[..8].copy_from_slice(init.w.as_slice());
        let mut lin = build(&p0);
        lin.forward(&x);
        let _ = lin.backward(&x, &dy);
        let mut analytic = lin.gw().as_slice().to_vec();
        analytic.extend_from_slice(&lin.gb);
        numeric_vs_analytic(&loss, &p0, &analytic, 2e-2);
    }

    #[test]
    fn linear_input_grad_matches_numeric() {
        let mut r = rng();
        let lin = Linear::new(4, 2, false, &mut r);
        let x0 = Matrix::randn(2, 4, 1.0, &mut r);
        let dy = Matrix::randn(2, 2, 1.0, &mut r);
        let loss = |xs: &[f32]| {
            let x = Matrix::from_vec(2, 4, xs.to_vec());
            let y = lin.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut lin2 = lin.clone();
        let dx = lin2.backward(&x0, &dy);
        numeric_vs_analytic(&loss, x0.as_slice(), dx.as_slice(), 2e-2);
    }

    /// Summing `xᵀ·dy` into a zeroed `gw` where it lies gives the bits of
    /// `gw += matmul_tn(x, dy)` — a product into a fresh `C`, then a second
    /// pass — on every build: shapes of `gw` that 16 does and does not
    /// divide (the matrix unit sums those in a staged copy of `C`), depths
    /// past one 32-term chunk, one token, and a product big enough to be
    /// cut across threads. `Linear::backward` is the active build's.
    #[test]
    fn weight_gradient_in_place_equals_a_fresh_product_added_on() {
        let mut r = rng();
        let shapes = [
            (1, 32, 32),
            (1, 7, 12),
            (48, 17, 40),
            (40, 32, 48),
            (70, 64, 16),
            (256, 256, 640),
        ];
        for (k, m, n) in shapes {
            let (x, dy) = (
                Matrix::randn(k, m, 1.0, &mut r),
                Matrix::randn(k, n, 1.0, &mut r),
            );
            let bits = |a: &Matrix| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for isa in crate::simd::builds_exercised() {
                let mut fresh = Matrix::zeros(m, n);
                gemm::matmul_into_with(isa, x.view().t(), dy.view(), fresh.view_mut());
                let mut want = Matrix::zeros(m, n);
                want.add_assign(&fresh);
                let mut gw = Matrix::zeros(m, n);
                gemm::matmul_into_with(isa, x.view().t(), dy.view(), gw.view_mut());
                assert_eq!(bits(&gw), bits(&want), "{k}x{m}ᵀ·{k}x{n} on {}", isa.name());
                if isa == crate::Isa::active() {
                    let mut lin = Linear::new(m, n, false, &mut r);
                    lin.backward(&x, &dy);
                    assert_eq!(bits(lin.gw()), bits(&want), "{k}x{m}ᵀ·{k}x{n}: Linear");
                }
            }
        }
    }

    /// Two microbatches' backward passes sum into `gw` as one product over
    /// both microbatches' tokens, when the first ends on a 32-term chunk
    /// (every build's sums agree with one product there).
    #[test]
    fn microbatches_continue_the_weight_gradient_sums() {
        let mut r = rng();
        let (x1, dy1) = (
            Matrix::randn(32, 12, 1.0, &mut r),
            Matrix::randn(32, 20, 1.0, &mut r),
        );
        let (x2, dy2) = (
            Matrix::randn(9, 12, 1.0, &mut r),
            Matrix::randn(9, 20, 1.0, &mut r),
        );
        let mut lin = Linear::new(12, 20, true, &mut r);
        lin.backward(&x1, &dy1);
        lin.backward(&x2, &dy2);
        let x = Matrix::concat_rows(&[x1, x2]);
        let dy = Matrix::concat_rows(&[dy1, dy2]);
        assert_eq!(*lin.gw(), gemm::matmul_tn(&x, &dy));
    }

    /// Every gradient of `lin`, weight then bias, as bits.
    fn grad_bits(lin: &mut Linear) -> Vec<u32> {
        let mut out = Vec::new();
        lin.visit(&mut |_: &mut [f32], g: &mut [f32]| out.extend(g.iter().map(|v| v.to_bits())));
        out
    }

    /// [`Zeroing`] then two microbatches' backward passes — the first
    /// writing `gw` over whatever it held, the second summing onto it —
    /// leave the bits of gradients filled with zeros and then summed onto
    /// twice; and a fresh `gw` reads as zeros, whatever its memory holds.
    #[test]
    fn zeroing_marks_the_weight_gradient_fresh_for_its_first_product_to_write() {
        let mut r = rng();
        let mb = |rows| {
            let mut r = rand::rngs::StdRng::seed_from_u64(rows as u64);
            (
                Matrix::randn(rows, 40, 1.0, &mut r),
                Matrix::randn(rows, 24, 1.0, &mut r),
            )
        };
        let ((x1, dy1), (x2, dy2)) = (mb(9), mb(33));
        let mut lin = Linear::new(40, 24, true, &mut r);
        lin.visit(&mut |_: &mut [f32], g: &mut [f32]| g.fill(f32::NAN));
        let mut filled = lin.clone();
        filled.visit(&mut |_: &mut [f32], g: &mut [f32]| g.fill(0.0));
        lin.visit(&mut Zeroing);
        assert!(lin.fresh && lin.gw.as_slice().iter().all(|g| g.is_nan()));
        assert!(lin.gb.iter().all(|g| g.to_bits() == 0), "biases are filled");
        let mut read = lin.clone();
        assert!(
            grad_bits(&mut read).iter().all(|&g| g == 0),
            "fresh reads 0"
        );
        for (x, dy) in [(&x1, &dy1), (&x2, &dy2)] {
            let (dx, want_dx) = (lin.backward(x, dy), filled.backward(x, dy));
            assert_eq!(dx, want_dx);
        }
        assert!(!lin.fresh);
        assert_eq!(grad_bits(&mut lin), grad_bits(&mut filled));
    }

    #[test]
    fn forward_gelu_and_backward_gradcheck() {
        let mut r = rng();
        let lin = Linear::new(3, 5, true, &mut r);
        let x = Matrix::randn(2, 3, 1.0, &mut r);
        let (f, g) = lin.forward_gelu(&x);
        assert_eq!(f, lin.forward(&x));
        let mut df = Matrix::from_vec(2, 5, vec![1.0; 10]);
        gelu_backward(&f, &mut df);
        let loss = |p: &[f32]| {
            let mut y = vec![0.0; p.len()];
            elementwise::gelu(p, &mut y);
            y.iter().sum::<f32>()
        };
        assert_eq!(loss(f.as_slice()), g.as_slice().iter().sum::<f32>());
        numeric_vs_analytic(&loss, f.as_slice(), df.as_slice(), 2e-2);
    }

    #[test]
    fn fused_forwards_equal_their_unfused_compositions_bitwise() {
        let mut r = rng();
        let x = Matrix::randn(7, 6, 1.0, &mut r);
        let res = Matrix::randn(7, 9, 1.0, &mut r);
        for bias in [true, false] {
            let mut lin = Linear::new(6, 9, bias, &mut r);
            if let Some(b) = &mut lin.b {
                b.copy_from_slice(Matrix::randn(1, 9, 1.0, &mut r).as_slice());
            }
            let f = lin.forward(&x);
            let mut g = Matrix::zeros(7, 9);
            elementwise::gelu(f.as_slice(), g.as_mut_slice());
            assert_eq!(lin.forward_gelu(&x), (f.clone(), g), "bias {bias}");
            let mut sum = f;
            sum.add_assign(&res);
            assert_eq!(lin.forward_residual(&x, &res), sum, "bias {bias}");
        }
    }

    #[test]
    fn layernorm_normalizes() {
        let mut r = rng();
        let ln = LayerNorm::new(8);
        let x = Matrix::randn(4, 8, 3.0, &mut r);
        let (y, _) = ln.forward(&x);
        for row in 0..4 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(row)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5, "row {row} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {row} var {var}");
        }
    }

    #[test]
    fn layernorm_gradcheck_input() {
        let mut r = rng();
        let x0 = Matrix::randn(2, 6, 1.0, &mut r);
        let dy = Matrix::randn(2, 6, 1.0, &mut r);
        let ln = LayerNorm::new(6);
        let loss = |xs: &[f32]| {
            let x = Matrix::from_vec(2, 6, xs.to_vec());
            let (y, _) = ln.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut ln2 = ln.clone();
        let (_, cache) = ln2.forward(&x0);
        let dx = ln2.backward(&cache, &dy);
        numeric_vs_analytic(&loss, x0.as_slice(), dx.as_slice(), 3e-2);
    }

    fn qkv(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        Matrix::concat_cols(&[q.clone(), k.clone(), v.clone()])
    }

    #[test]
    fn attention_is_causal() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 1,
            seq: 6,
            heads: 2,
            head_dim: 4,
        };
        let q = Matrix::randn(6, 8, 1.0, &mut r);
        let k = Matrix::randn(6, 8, 1.0, &mut r);
        let v = Matrix::randn(6, 8, 1.0, &mut r);
        let (y1, _) = core.forward(&qkv(&q, &k, &v));
        // Perturb the LAST position of k/v: earlier outputs must not change.
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        for c in 0..8 {
            k2.set(5, c, 9.0);
            v2.set(5, c, -9.0);
        }
        let (y2, _) = core.forward(&qkv(&q, &k2, &v2));
        for rrow in 0..5 {
            for c in 0..8 {
                assert!(
                    (y1.get(rrow, c) - y2.get(rrow, c)).abs() < 1e-6,
                    "row {rrow} leaked future information"
                );
            }
        }
        // The last position must change.
        assert!(y1.max_abs_diff(&y2) > 1e-3);
    }

    #[test]
    fn attention_probs_rows_sum_to_one_and_masked_are_exactly_zero() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 2,
            seq: 4,
            heads: 1,
            head_dim: 3,
        };
        let (_, cache) = core.forward(&Matrix::randn(8, 9, 1.0, &mut r));
        for p in &cache.probs {
            for row in 0..4 {
                let s: f32 = p.row(row).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                assert!(p.row(row)[row + 1..].iter().all(|m| m.to_bits() == 0));
            }
        }
    }

    #[test]
    fn attention_on_qkv_blocks_equals_attention_on_copies_bitwise() {
        // The layout point: reading q/k/v where the fused projection left
        // them changes no bit against the per-head computation, on the same
        // engine, of copied-out matrices.
        let mut r = rng();
        let core = AttentionCore {
            batch: 2,
            seq: 5,
            heads: 3,
            head_dim: 4,
        };
        let fused = Matrix::randn(10, 36, 1.0, &mut r);
        let (out, _) = core.forward(&fused);
        let scale = 1.0 / (core.head_dim as f32).sqrt();
        for bi in 0..core.batch {
            for hi in 0..core.heads {
                let head = |part: usize| {
                    let c0 = part * 12 + hi * 4;
                    fused.rows_slice(bi * 5, bi * 5 + 5).columns(c0, c0 + 4)
                };
                let mut p = gemm::matmul(&head(0), &head(1).transpose());
                for row in 0..5 {
                    elementwise::causal_softmax_row(p.row_mut(row), row + 1, scale);
                }
                let want = gemm::matmul(&p, &head(2));
                let got = out
                    .rows_slice(bi * 5, bi * 5 + 5)
                    .columns(hi * 4, hi * 4 + 4);
                assert_eq!(got, want, "batch {bi} head {hi}");
            }
        }
    }

    #[test]
    fn attention_gradcheck_q_k_and_v() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 1,
            seq: 3,
            heads: 1,
            head_dim: 2,
        };
        let fused = Matrix::randn(3, 6, 1.0, &mut r);
        let dy = Matrix::randn(3, 2, 1.0, &mut r);
        let loss = |p: &[f32]| {
            let (y, _) = core.forward(&Matrix::from_vec(3, 6, p.to_vec()));
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, cache) = core.forward(&fused);
        let dqkv = core.backward(&fused, &cache, &dy);
        // Every product rounds its operands to bf16 (relative step 2⁻⁸), so
        // the loss moves in steps a 1e-2 difference resolves badly: the
        // worst relative error measured on the AMX build was 0.057 at a step
        // of 1e-2, 0.029 at 2e-2, 0.011 at 5e-2 and 0.0088 at 0.1.
        numeric_vs_analytic_with_step(&loss, fused.as_slice(), dqkv.as_slice(), 0.1, 3e-2);
    }

    /// The row passes cut into pieces on the pool — bias+GeLU, its
    /// backward, bias+residual, LayerNorm forward and cross-entropy — have
    /// the bits of the same passes on the caller alone, loss included.
    #[test]
    fn pooled_row_passes_equal_their_caller_only_run_bitwise() {
        let mut r = rng();
        let (rows, h, vocab) = (300, 512, 1000);
        let x = Matrix::randn(rows, h, 1.0, &mut r);
        let res = Matrix::randn(rows, h, 1.0, &mut r);
        let logits = Matrix::randn(rows, vocab, 3.0, &mut r);
        let targets: Vec<usize> = (0..rows).map(|i| (i * 37) % vocab).collect();
        let mut lin = Linear::new(h, h, true, &mut r);
        lin.b = Some(Matrix::randn(1, h, 1.0, &mut r).as_slice().to_vec());
        let mut ln = LayerNorm::new(h);
        ln.gamma = Matrix::randn(1, h, 1.0, &mut r).as_slice().to_vec();
        ln.beta = Matrix::randn(1, h, 1.0, &mut r).as_slice().to_vec();
        let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = || {
            let (f, g) = lin.forward_gelu(&x);
            let mut d = res.clone();
            gelu_backward(&f, &mut d);
            let mut o = x.clone();
            bias_residual(&mut o, lin.b.as_ref().unwrap(), &res);
            let (y, cache) = ln.forward(&x);
            let (loss, dlogits) = cross_entropy(&logits, &targets);
            let all = [&f, &g, &d, &o, &y, &cache.xhat, &dlogits].map(|m| bits(m.as_slice()));
            (all, bits(&cache.inv_std), loss.to_bits())
        };
        let shared = pool::with_helpers(run);
        assert!(
            shared == pool::on_the_caller(run),
            "a pooled row pass moved a bit"
        );
    }

    /// Attention at `serial_wide`'s shape, each (batch, head) pair a piece
    /// on the pool, has the bits of the same passes on the caller alone:
    /// output, probabilities and all three input gradients.
    #[test]
    fn pooled_attention_equals_its_caller_only_run_bitwise() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 3,
            seq: 64,
            heads: 8,
            head_dim: 32,
        };
        let qkv = Matrix::randn(192, 768, 1.0, &mut r);
        let dout = Matrix::randn(192, 256, 1.0, &mut r);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = || {
            let (out, cache) = core.forward(&qkv);
            let dqkv = core.backward(&qkv, &cache, &dout);
            let probs: Vec<_> = cache.probs.iter().map(bits).collect();
            (bits(&out), probs, bits(&dqkv))
        };
        let shared = pool::with_helpers(run);
        assert!(
            shared == pool::on_the_caller(run),
            "pooled attention moved a bit"
        );
    }

    /// Attention computed one (batch, head) pair at a time on the build for
    /// `isa`, as it was before the batched pass: each product written into
    /// its block as `gemm::matmul_to` writes it (summed onto `+0.0`, the
    /// same bits), the softmax rows in place over the whole score matrix,
    /// and the softmax backward as the scalar loop over whole rows it was.
    /// Returns the output, the probabilities and `dqkv`.
    fn per_pair_attention(
        isa: Isa,
        core: &AttentionCore,
        qkv: &Matrix,
        dout: &Matrix,
    ) -> (Matrix, Vec<Matrix>, Matrix) {
        let (s, d, local) = (core.seq, core.head_dim, core.local());
        let scale = 1.0 / (d as f32).sqrt();
        let to =
            |a: View<'_>, b: View<'_>, c: gemm::ViewMut<'_>| gemm::matmul_into_with(isa, a, b, c);
        let product = |a: View<'_>, b: View<'_>| {
            let mut c = Matrix::zeros(a.parts().1, b.parts().2);
            to(a, b, c.view_mut());
            c
        };
        let mut out = Matrix::zeros(qkv.rows(), local);
        let mut dqkv = Matrix::zeros(qkv.rows(), 3 * local);
        let mut probs = Vec::new();
        for bi in 0..core.batch {
            for hi in 0..core.heads {
                let (q, k, v) = (
                    core.head(qkv, Part::Q, bi, hi),
                    core.head(qkv, Part::K, bi, hi),
                    core.head(qkv, Part::V, bi, hi),
                );
                let mut p = product(q, k.t());
                for r in 0..s {
                    elementwise::causal_softmax_row_with(isa, p.row_mut(r), r + 1, scale);
                }
                let [(r0, cq), (_, ck), (_, cv)] =
                    [Part::Q, Part::K, Part::V].map(|part| core.corner(part, bi, hi));
                to(p.view(), v, out.block_mut(r0, cq, s, d));
                let doh = core.head(dout, Part::Q, bi, hi);
                to(p.view().t(), doh, dqkv.block_mut(r0, cv, s, d));
                let mut ds = product(doh, v.t());
                for r in 0..s {
                    let (prow, drow) = (p.row(r), ds.row_mut(r));
                    let dot: f32 = prow.iter().zip(drow.iter()).map(|(p, d)| p * d).sum();
                    for (d, &p) in drow.iter_mut().zip(prow) {
                        *d = p * (*d - dot) * scale;
                    }
                }
                to(ds.view(), k, dqkv.block_mut(r0, cq, s, d));
                to(ds.view().t(), q, dqkv.block_mut(r0, ck, s, d));
                probs.push(p);
            }
        }
        (out, probs, dqkv)
    }

    /// The batched pass has the bits of the per-pair computation it
    /// replaced — output, probabilities and `dqkv` — on the active engine
    /// and every FMA build this host runs, at the workloads' attention
    /// shapes and ragged ones (sequences and head widths that 16 and 32 do
    /// not divide, one token, an odd number of pairs); masked
    /// probabilities are exactly `0.0`, and the cache holds `s × s` floats
    /// per pair.
    #[test]
    fn batched_attention_equals_the_per_pair_computation_bitwise() {
        let mut r = rng();
        let workloads = [
            (3, 64, 8, 32),
            (2, 32, 2, 32),
            (1, 8, 8, 32),
            (2, 32, 4, 32),
        ];
        // Three pairs, as three samples of one head or one sample of three.
        let ragged = [1, 5, 17, 33, 65].into_iter().flat_map(|seq| {
            [(3, 1, 2), (1, 3, 8), (3, 1, 24), (1, 3, 40)].map(|(b, h, d)| (b, seq, h, d))
        });
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (batch, seq, heads, head_dim) in workloads.into_iter().chain(ragged) {
            let core = AttentionCore {
                batch,
                seq,
                heads,
                head_dim,
            };
            let rows = batch * seq;
            let qkv = Matrix::randn(rows, 3 * core.local(), 1.0, &mut r);
            let dout = Matrix::randn(rows, core.local(), 1.0, &mut r);
            let what = format!("batch {batch}, seq {seq}, heads {heads}, head_dim {head_dim}");
            for isa in crate::simd::builds_exercised() {
                let (out, cache) = core.forward_with(isa, &qkv);
                let dqkv = core.backward_with(isa, &qkv, &cache, &dout);
                let (want_out, want_probs, want_dqkv) = per_pair_attention(isa, &core, &qkv, &dout);
                let on = format!("{what} on {}", isa.name());
                assert_eq!(bits(&out), bits(&want_out), "output, {on}");
                assert_eq!(cache.probs.len(), want_probs.len(), "{on}");
                for (p, want) in cache.probs.iter().zip(&want_probs) {
                    assert_eq!(bits(p), bits(want), "probabilities, {on}");
                    for row in 0..seq {
                        assert!(p.row(row)[row + 1..].iter().all(|m| m.to_bits() == 0));
                    }
                }
                assert_eq!(cache.float_count(), batch * heads * seq * seq, "{on}");
                assert_eq!(bits(&dqkv), bits(&want_dqkv), "dqkv, {on}");
            }
        }
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut r = rng();
        let mut emb = Embedding::new(10, 4, 3, &mut r);
        let toks = [1usize, 2, 3, 1]; // batch=1? here batch*seq=4, seq=4
        let x = emb.forward(&toks, 4);
        assert_eq!((x.rows(), x.cols()), (4, 3));
        // Row 0 = token 1 at position 0.
        for c in 0..3 {
            assert!((x.get(0, c) - emb.tokens.get(1, c) - emb.positions.get(0, c)).abs() < 1e-6);
        }
        let dy = Matrix::from_fn(4, 3, |_, _| 1.0);
        emb.backward(&toks, 4, &dy);
        // Token 1 appears twice → gradient 2 per column.
        for c in 0..3 {
            assert_eq!(emb.gtokens.get(1, c), 2.0);
            assert_eq!(emb.gtokens.get(2, c), 1.0);
            assert_eq!(emb.gtokens.get(0, c), 0.0);
        }
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let v = 8usize;
        let logits = Matrix::zeros(2, v);
        let (loss, d) = cross_entropy(&logits, &[3, 5]);
        assert!((loss - (v as f32).ln()).abs() < 1e-5);
        // Gradient: (1/V − 1{target})/N.
        assert!((d.get(0, 3) - (1.0 / v as f32 - 1.0) / 2.0).abs() < 1e-6);
        assert!((d.get(0, 0) - (1.0 / v as f32) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let mut r = rng();
        let l0 = Matrix::randn(3, 5, 1.0, &mut r);
        let targets = [0usize, 2, 4];
        let loss = |p: &[f32]| {
            let m = Matrix::from_vec(3, 5, p.to_vec());
            cross_entropy(&m, &targets).0
        };
        let (_, d) = cross_entropy(&l0, &targets);
        numeric_vs_analytic(&loss, l0.as_slice(), d.as_slice(), 3e-2);
    }
}
