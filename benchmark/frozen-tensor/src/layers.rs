//! Neural-network layers with explicit forward caches and hand-written
//! backward passes.

use rand::Rng;

use crate::gemm;
use crate::Matrix;

/// Fully-connected layer `y = x·W (+ b)`; `W` is `in × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in × out`.
    pub w: Matrix,
    /// Optional bias, length `out`.
    pub b: Option<Vec<f32>>,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
}

impl Linear {
    /// Gaussian-initialized layer.
    pub fn new(inputs: usize, outputs: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let std = 0.02f32;
        Linear {
            w: Matrix::randn(inputs, outputs, std, rng),
            b: bias.then(|| vec![0.0; outputs]),
            gw: Matrix::zeros(inputs, outputs),
            gb: vec![0.0; outputs],
        }
    }

    /// Forward: returns the output; the caller keeps `x` as the cache.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = gemm::matmul(x, &self.w);
        if let Some(b) = &self.b {
            for r in 0..y.rows() {
                for (o, bv) in y.row_mut(r).iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
        y
    }

    /// Backward: accumulates `gw`/`gb`, returns `dx`.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.gw.add_assign(&gemm::matmul_tn(x, dy));
        if self.b.is_some() {
            for r in 0..dy.rows() {
                for (g, d) in self.gb.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
        }
        gemm::matmul_nt(dy, &self.w)
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        if let Some(b) = &mut self.b {
            f(b, &mut self.gb);
        }
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.as_ref().map_or(0, Vec::len)
    }
}

/// GeLU non-linearity (tanh approximation, as in GPT).
pub fn gelu(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    for v in y.as_mut_slice() {
        *v = gelu_scalar(*v);
    }
    y
}

#[inline]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

#[inline]
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GeLU backward: `dx = dy ⊙ gelu'(x)`.
pub fn gelu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, &xv) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *d *= gelu_grad_scalar(xv);
    }
    dx
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
        let mut inv_std = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / h as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            for (c, &rv) in row.iter().enumerate() {
                let xh = (rv - mean) * istd;
                xhat.set(r, c, xh);
                y.set(r, c, xh * self.gamma[c] + self.beta[c]);
            }
        }
        (y, LayerNormCache { xhat, inv_std })
    }

    /// Backward; accumulates `ggamma`/`gbeta` and returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Matrix) -> Matrix {
        let h = dy.cols() as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        for r in 0..dy.rows() {
            let istd = cache.inv_std[r];
            let xhat = cache.xhat.row(r);
            let dyr = dy.row(r);
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            for c in 0..dy.cols() {
                let dyg = dyr[c] * self.gamma[c];
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xhat[c];
                self.ggamma[c] += dyr[c] * xhat[c];
                self.gbeta[c] += dyr[c];
            }
            for c in 0..dy.cols() {
                let dyg = dyr[c] * self.gamma[c];
                dx.set(
                    r,
                    c,
                    istd * (dyg - sum_dyg / h - xhat[c] * sum_dyg_xhat / h),
                );
            }
        }
        dx
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.ggamma);
        f(&mut self.beta, &mut self.gbeta);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

/// Causal scaled-dot-product attention over locally-held heads.
///
/// Inputs `q`, `k`, `v` have shape `[batch·seq, heads_local·head_dim]`
/// (rows grouped by batch, then sequence position) — exactly the output
/// layout of a column-parallel QKV projection, so tensor-parallel ranks can
/// run this on their head shard without any communication (§2.3).
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

impl AttentionCore {
    fn check(&self, m: &Matrix) {
        assert_eq!(m.rows(), self.batch * self.seq);
        assert_eq!(m.cols(), self.heads * self.head_dim);
    }

    /// Extract the `s × head_dim` block for (batch `bi`, head `hi`).
    fn head_block(&self, m: &Matrix, bi: usize, hi: usize) -> Matrix {
        let mut out = Matrix::zeros(self.seq, self.head_dim);
        for srow in 0..self.seq {
            let row = m.row(bi * self.seq + srow);
            out.row_mut(srow)
                .copy_from_slice(&row[hi * self.head_dim..(hi + 1) * self.head_dim]);
        }
        out
    }

    fn scatter_head_block(&self, target: &mut Matrix, block: &Matrix, bi: usize, hi: usize) {
        for srow in 0..self.seq {
            let dst = target.row_mut(bi * self.seq + srow);
            dst[hi * self.head_dim..(hi + 1) * self.head_dim].copy_from_slice(block.row(srow));
        }
    }

    /// Forward pass: causal softmax(QKᵀ/√d)·V.
    pub fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, AttentionCache) {
        self.check(q);
        self.check(k);
        self.check(v);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut out = Matrix::zeros(q.rows(), q.cols());
        let mut probs = Vec::with_capacity(self.batch * self.heads);
        for bi in 0..self.batch {
            for hi in 0..self.heads {
                let qh = self.head_block(q, bi, hi);
                let kh = self.head_block(k, bi, hi);
                let vh = self.head_block(v, bi, hi);
                let mut scores = gemm::matmul_nt(&qh, &kh);
                scores.scale(scale);
                // Causal mask + row-wise softmax.
                for r in 0..self.seq {
                    let row = scores.row_mut(r);
                    for cell in row.iter_mut().take(self.seq).skip(r + 1) {
                        *cell = f32::NEG_INFINITY;
                    }
                    let max = row[..=r].iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                    let mut sum = 0.0;
                    for item in row.iter_mut().take(r + 1) {
                        *item = (*item - max).exp();
                        sum += *item;
                    }
                    for item in row.iter_mut() {
                        if item.is_finite() {
                            *item /= sum;
                        } else {
                            *item = 0.0;
                        }
                    }
                }
                let oh = gemm::matmul(&scores, &vh);
                self.scatter_head_block(&mut out, &oh, bi, hi);
                probs.push(scores);
            }
        }
        (out, AttentionCache { probs })
    }

    /// Backward pass: returns `(dq, dk, dv)`.
    pub fn backward(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        cache: &AttentionCache,
        dout: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut dq = Matrix::zeros(q.rows(), q.cols());
        let mut dk = dq.clone();
        let mut dv = dq.clone();
        for bi in 0..self.batch {
            for hi in 0..self.heads {
                let probs = &cache.probs[bi * self.heads + hi];
                let kh = self.head_block(k, bi, hi);
                let vh = self.head_block(v, bi, hi);
                let doh = self.head_block(dout, bi, hi);
                // dV = Pᵀ · dO ; dP = dO · Vᵀ.
                let dvh = gemm::matmul_tn(probs, &doh);
                let mut dscores = gemm::matmul_nt(&doh, &vh);
                // Softmax backward row-wise: dS = P ⊙ (dP − Σ dP⊙P).
                for r in 0..self.seq {
                    let prow = probs.row(r);
                    let drow = dscores.row_mut(r);
                    let dot: f32 = prow.iter().zip(drow.iter()).map(|(p, d)| p * d).sum();
                    for c in 0..self.seq {
                        drow[c] = prow[c] * (drow[c] - dot) * scale;
                    }
                }
                // dQ = dS · K ; dK = dSᵀ · Q.
                let qh = self.head_block(q, bi, hi);
                let dqh = gemm::matmul(&dscores, &kh);
                let dkh = gemm::matmul_tn(&dscores, &qh);
                self.scatter_head_block(&mut dq, &dqh, bi, hi);
                self.scatter_head_block(&mut dk, &dkh, bi, hi);
                self.scatter_head_block(&mut dv, &dvh, bi, hi);
            }
        }
        (dq, dk, dv)
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
            let pos = r % seq;
            let dst = out.row_mut(r);
            for (c, d) in dst.iter_mut().enumerate() {
                *d = self.tokens.get(tok, c) + self.positions.get(pos, c);
            }
        }
        out
    }

    /// Scatter-add gradients back into the tables.
    pub fn backward(&mut self, token_ids: &[usize], seq: usize, dy: &Matrix) {
        for (r, &tok) in token_ids.iter().enumerate() {
            let pos = r % seq;
            let src = dy.row(r);
            for (c, &g) in src.iter().enumerate() {
                self.gtokens.set(tok, c, self.gtokens.get(tok, c) + g);
                self.gpositions.set(pos, c, self.gpositions.get(pos, c) + g);
            }
        }
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(self.tokens.as_mut_slice(), self.gtokens.as_mut_slice());
        f(
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
    let n = targets.len() as f32;
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    let mut loss = 0.0f32;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        let log_z = max + sum.ln();
        loss += log_z - row[t];
        let drow = dlogits.row_mut(r);
        for (c, d) in drow.iter_mut().enumerate() {
            let p = (row[c] - log_z).exp();
            *d = (p - if c == t { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / n, dlogits)
}
