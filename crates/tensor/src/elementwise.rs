//! Element-wise kernels: the non-GEMM half of a training step — `exp`, the
//! GeLU pair, bias and residual adds, the causal softmax row, LayerNorm
//! forward and backward, and the Adam update.
//!
//! **Row kernels.** A LayerNorm row's mean and variance (backward: its two
//! gradient sums) are each one accumulator, summed in index order — a
//! dependency chain, every add waiting on the one before it. The LayerNorm
//! kernels therefore run `NORM_ROWS` rows side by side, reading them in
//! `NORM_ROWS × NORM_COLS` tiles: a tile's products are computed as
//! vectors and its columns added onto the rows' accumulators in order, so
//! the rows' chains overlap while each row's sum stays the sequential one
//! of the per-row loop, bit for bit. Four rows side by side measured
//! fastest on the AVX-512 build; sixteen spill their accumulators and
//! tiles and ran slower than one row at a time.
//!
//! **How a kernel is built.** Like [`gemm`](crate::gemm): a plain-Rust body
//! over zipped slices, compiled once per instruction set — baseline, AVX2,
//! AVX-512 (`crate::simd`). `name` runs the widest build this processor
//! runs, `name_with(isa, ..)` the build for one [`Isa`](crate::Isa).
//!
//! **The arithmetic contract.** Every operation is an `f32` add, subtract,
//! multiply, divide, square root, compare-and-select or bit operation,
//! applied per element in the order the source states. There is no fused
//! multiply-add, no reciprocal or square-root approximation and no call
//! into libm, and nothing is summed across elements except where a kernel
//! says so — and then sequentially, in index order, on one accumulator. So
//! an element's bits do not depend on the lane it falls in, the instruction
//! set, the slice length or the thread, and a fused kernel equals the
//! kernels it fuses run one after the other.
//!
//! **Accuracy**, each measured over every `f32` once and asserted on a
//! sweep in the tests. [`exp`] is within 8.2e-8 relative (under one unit in
//! the last place) of the exact value between its two cut-offs. [`sigmoid`]
//! is within 9e-8 absolute and [`tanh`] within 1.8e-7 absolute of the exact
//! functions on the whole finite range (libm's `tanhf`: 1.0e-7). The GeLU
//! kernels use the one-division forms of the same identities and are within
//! 6e-7 (forward) and 3e-7 (derivative) of the f64 values on `|x| ≤ 12`;
//! the `tanhf` forms they replace measure 4.3e-7 and 5.6e-7 there.

use crate::simd::per_isa;

/// The largest argument [`exp`] maps to a finite value; above it the result
/// is `+inf` (the exact `e^x` of the next `f32` up exceeds `f32::MAX`).
pub const EXP_OVERFLOW: f32 = 88.722_83;

/// The smallest argument [`exp`] maps to a non-zero value; below it the
/// result is exactly `0.0`. `e^x` here is the smallest normal `f32` that is
/// a value of `exp`: results are never subnormal.
pub const EXP_UNDERFLOW: f32 = -87.336_54;

/// `e^x` from adds, multiplies and exponent bits.
///
/// `x = n·ln2 + r` with `n` the nearest integer (rounded by adding
/// `1.5·2²³`, which also leaves `n` in the low mantissa bits) and `ln2`
/// split in two so that `n·LN2_HI` is exact; `e^r` on `|r| ≤ ln2/2` is the
/// Cephes `expf` polynomial `1 + r + r²·P₅(r)` in Horner form; `n` is then
/// added to the result's exponent field. Returns `0.0` below [`EXP_UNDERFLOW`], `+inf`
/// above [`EXP_OVERFLOW`] and NaN for NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_2e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    p = p * (r * r) + r;
    p += 1.0;
    // Outside the cut-offs (and for NaN) these bits are meaningless; the
    // selects below replace them.
    let n_bits = t.to_bits().wrapping_sub(ROUND.to_bits());
    let y = f32::from_bits(p.to_bits().wrapping_add(n_bits << 23));
    let y = if x < EXP_UNDERFLOW { 0.0 } else { y };
    let y = if x > EXP_OVERFLOW { f32::INFINITY } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// `1 / (1 + e^-x)`: one [`exp`] and one division.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `tanh x = 2·sigmoid(2x) − 1`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    2.0 * sigmoid(2.0 * x) - 1.0
}

/// `√(2/π)` of GPT's tanh approximation of GeLU.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044715;

/// `gelu(x) = 0.5·x·(1 + tanh u) = x / (1 + e^(−2u))` with
/// `u = √(2/π)·(x + 0.044715·x³)`.
#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    x / (1.0 + exp(-2.0 * u))
}

/// `gelu'(x) = s + 2·s·(1 − s)·x·u'` with `s = sigmoid(2u)`. Both `s` and
/// `s·(1 − s)` come from `w = e^(−2|u|) ≤ 1`, so nothing overflows or
/// cancels: `s` is `1/(1 + w)` or `w/(1 + w)` by the sign of `u`, and
/// `s·(1 − s) = w/(1 + w)²` either way.
#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    let w = exp(-2.0 * u.abs());
    let inv = 1.0 / (1.0 + w);
    let s = if u >= 0.0 { inv } else { w * inv };
    s + 2.0 * (w * inv * inv) * x * du
}

/// The rows of a flat row-major buffer whose rows are `width` long.
#[inline(always)]
fn rows_mut(flat: &mut [f32], width: usize) -> std::slice::ChunksExactMut<'_, f32> {
    assert_eq!(flat.len() % width.max(1), 0, "buffer is not whole rows");
    flat.chunks_exact_mut(width.max(1))
}

/// Rows a LayerNorm kernel runs side by side. A row's sums are one
/// dependency chain each, an add waiting on the add before it; this many
/// rows' chains are independent, so their adds overlap.
const NORM_ROWS: usize = 4;

/// Columns a LayerNorm kernel reads from each of its rows at a time: a
/// `NORM_ROWS × NORM_COLS` tile per input, loaded row by row (the products
/// a sum needs are computed on it as vectors) and summed column by column.
const NORM_COLS: usize = 8;

/// A tile of `NORM_ROWS` rows by `NORM_COLS` columns.
type NormTile = [[f32; NORM_COLS]; NORM_ROWS];

/// One group of a LayerNorm kernel: `NORM_ROWS` rows of a flat buffer
/// whose rows are `h` wide — its first `n` rows, then the last of those
/// again, so a short group runs the same code; the repeated rows' results
/// are computed and dropped.
#[inline(always)]
fn norm_group(flat: &[f32], h: usize, n: usize) -> [&[f32]; NORM_ROWS] {
    std::array::from_fn(|r| {
        let r = r.min(n - 1);
        &flat[r * h..(r + 1) * h]
    })
}

/// `row[i0..i0 + NORM_COLS]`, or what there is of it zero-padded.
#[inline(always)]
fn norm_tile_row(row: &[f32], i0: usize) -> [f32; NORM_COLS] {
    match row.get(i0..i0 + NORM_COLS) {
        Some(full) => full.try_into().expect("NORM_COLS wide"),
        None => {
            let mut out = [0.0; NORM_COLS];
            out[..row.len() - i0].copy_from_slice(&row[i0..]);
            out
        }
    }
}

/// `step(i0, w)` for each tile of a group's rows, left to right: `i0` is
/// its first column and `w` its width — `NORM_COLS`, then what is left
/// for the last one. (Two call sites, so the full tiles' width is a
/// constant where `step` is inlined.)
#[inline(always)]
fn norm_tiles(h: usize, mut step: impl FnMut(usize, usize)) {
    let full = h - h % NORM_COLS;
    for i0 in (0..full).step_by(NORM_COLS) {
        step(i0, NORM_COLS);
    }
    if full < h {
        step(full, h - full);
    }
}

/// `acc[r] += tile[r][j]` for `j` in `0..w`, in order: one tile's columns
/// onto each row's running sum.
#[inline(always)]
fn norm_add_columns(acc: &mut [f32; NORM_ROWS], tile: &NormTile, w: usize) {
    for j in 0..w {
        for (acc, row) in acc.iter_mut().zip(tile) {
            *acc += row[j];
        }
    }
}

/// LayerNorm forward on one group of `n ≤ NORM_ROWS` rows, their sums
/// side by side: each row's sums run in index order from `-0.0` (the start
/// `Iterator::sum` uses), one accumulator per row.
#[inline(always)]
fn layer_norm_group(
    x: &[f32],
    n: usize,
    (gamma, beta, eps): (&[f32], &[f32], f32),
    (xhat, y): (&mut [f32], &mut [f32]),
    inv_std: &mut [f32],
) {
    let h = gamma.len();
    let rows = norm_group(x, h, n);
    let tile = |i0| -> NormTile { std::array::from_fn(|r| norm_tile_row(rows[r], i0)) };
    let mut mean = [-0.0f32; NORM_ROWS];
    norm_tiles(h, |i0, w| norm_add_columns(&mut mean, &tile(i0), w));
    for s in &mut mean {
        *s /= h as f32;
    }
    let mut var = [-0.0f32; NORM_ROWS];
    norm_tiles(h, |i0, w| {
        let x = tile(i0);
        let sq = std::array::from_fn(|r| {
            std::array::from_fn(|j| (x[r][j] - mean[r]) * (x[r][j] - mean[r]))
        });
        norm_add_columns(&mut var, &sq, w);
    });
    for (istd, v) in inv_std.iter_mut().zip(var) {
        *istd = 1.0 / (v / h as f32 + eps).sqrt();
    }
    let outs = xhat.chunks_exact_mut(h).zip(y.chunks_exact_mut(h));
    for (((xh, y), row), (m, &istd)) in outs.zip(rows).zip(mean.into_iter().zip(&*inv_std)) {
        let params = gamma.iter().zip(beta);
        for (((xh, y), &x), (&g, &b)) in xh.iter_mut().zip(y).zip(row).zip(params) {
            *xh = (x - m) * istd;
            *y = *xh * g + b;
        }
    }
}

/// LayerNorm backward on one group of `n ≤ NORM_ROWS` rows, their sums
/// side by side: each row's two sums run in index order from `+0.0`;
/// `ggamma` and `gbeta` take the group's rows' terms in row order, in the
/// same sweep over the tiles.
#[inline(always)]
fn layer_norm_backward_group(
    (dy, xhat, n): (&[f32], &[f32], usize),
    inv_std: &[f32],
    gamma: &[f32],
    (ggamma, gbeta): (&mut [f32], &mut [f32]),
    dx: &mut [f32],
) {
    let h = gamma.len();
    let (dys, xhs) = (norm_group(dy, h, n), norm_group(xhat, h, n));
    let (mut sum_dyg, mut sum_dyg_xhat) = ([0.0f32; NORM_ROWS], [0.0f32; NORM_ROWS]);
    norm_tiles(h, |i0, w| {
        let g = norm_tile_row(gamma, i0);
        let d: NormTile = std::array::from_fn(|r| norm_tile_row(dys[r], i0));
        let xh: NormTile = std::array::from_fn(|r| norm_tile_row(xhs[r], i0));
        let dyg: NormTile = std::array::from_fn(|r| std::array::from_fn(|j| d[r][j] * g[j]));
        let dyg_xhat: NormTile =
            std::array::from_fn(|r| std::array::from_fn(|j| dyg[r][j] * xh[r][j]));
        norm_add_columns(&mut sum_dyg, &dyg, w);
        norm_add_columns(&mut sum_dyg_xhat, &dyg_xhat, w);
        // The parameter gradients of these columns, the group's rows in
        // order, a vector across the tile.
        let (mut gg, mut gb) = (norm_tile_row(ggamma, i0), norm_tile_row(gbeta, i0));
        for (d, xh) in d.iter().zip(&xh).take(n) {
            for j in 0..NORM_COLS {
                gg[j] += d[j] * xh[j];
                gb[j] += d[j];
            }
        }
        ggamma[i0..i0 + w].copy_from_slice(&gg[..w]);
        gbeta[i0..i0 + w].copy_from_slice(&gb[..w]);
    });
    let hf = h as f32;
    let sums = sum_dyg.into_iter().zip(sum_dyg_xhat).zip(inv_std);
    let rows = dx.chunks_exact_mut(h).zip(dys.iter().zip(&xhs));
    for ((dx, (d, xh)), ((s, sx), &istd)) in rows.zip(sums) {
        let mean_dyg = s / hf;
        for ((dx, (&d, &xh)), &g) in dx.iter_mut().zip(d.iter().zip(*xh)).zip(gamma) {
            *dx = istd * (d * g - mean_dyg - xh * sx / hf);
        }
    }
}

/// The constants of one Adam step: the hyper-parameters, the two bias
/// corrections `1 − βᵗ` and the factor the gradients are scaled by.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// `1 − β₁ᵗ`.
    pub bc1: f32,
    /// `1 − β₂ᵗ`.
    pub bc2: f32,
    /// The gradient the step uses is `g · scale`, rounded once: the bits a
    /// pass `g *= scale` before the step would leave (and `g` itself at
    /// 1.0).
    pub scale: f32,
}

per_isa! {
    /// `y[i] = gelu(x[i])`.
    pub fn gelu, gelu_with(x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), y.len());
        for (y, &x) in y.iter_mut().zip(x) {
            *y = gelu_scalar(x);
        }
    }

    /// Fused bias + GeLU over the rows of `f` (each `bias.len()` wide): in
    /// one sweep `f += bias` in place and `g = gelu(f)`.
    pub fn bias_gelu, bias_gelu_with(f: &mut [f32], bias: &[f32], g: &mut [f32]) {
        assert_eq!(f.len(), g.len());
        for (f, g) in rows_mut(f, bias.len()).zip(rows_mut(g, bias.len())) {
            for ((f, g), &b) in f.iter_mut().zip(g).zip(bias) {
                *f += b;
                *g = gelu_scalar(*f);
            }
        }
    }

    /// GeLU backward in place: `d[i] *= gelu'(x[i])`.
    pub fn gelu_backward, gelu_backward_with(x: &[f32], d: &mut [f32]) {
        assert_eq!(x.len(), d.len());
        for (d, &x) in d.iter_mut().zip(x) {
            *d *= gelu_grad_scalar(x);
        }
    }

    /// `y += bias` on every row of `y` (each `bias.len()` wide).
    pub fn bias_add, bias_add_with(y: &mut [f32], bias: &[f32]) {
        for y in rows_mut(y, bias.len()) {
            for (y, &b) in y.iter_mut().zip(bias) {
                *y += b;
            }
        }
    }

    /// Fused bias + residual: `o = (o + bias) + x` on every row, the bias
    /// first, as [`bias_add`] followed by an element-wise add would.
    pub fn bias_residual_add, bias_residual_add_with(o: &mut [f32], bias: &[f32], x: &[f32]) {
        assert_eq!(o.len(), x.len());
        for (o, x) in rows_mut(o, bias.len()).zip(x.chunks_exact(bias.len().max(1))) {
            for ((o, &b), &x) in o.iter_mut().zip(bias).zip(x) {
                *o = (*o + b) + x;
            }
        }
    }

    /// Fused scale + causal mask + softmax of one row of attention scores:
    /// the first `n` entries become `softmax(scale · row[..n])`, the rest
    /// exactly `0.0`. The maximum is subtracted before [`exp`]; the
    /// denominator is summed sequentially from `0.0` in index order.
    pub fn causal_softmax_row, causal_softmax_row_with(row: &mut [f32], n: usize, scale: f32) {
        let (live, masked) = row.split_at_mut(n);
        for x in live.iter_mut() {
            *x *= scale;
        }
        let max = live.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for x in live.iter_mut() {
            *x = exp(*x - max);
        }
        let mut sum = 0.0f32;
        for &x in live.iter() {
            sum += x;
        }
        for x in live.iter_mut() {
            *x /= sum;
        }
        masked.fill(0.0);
    }

    /// `dst[i] = exp(src[i] − shift)`: the numerators of a max-shifted
    /// softmax, kept so that a cross-entropy takes `exp` once per logit.
    pub fn exp_minus, exp_minus_with(src: &[f32], shift: f32, dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = exp(s - shift);
        }
    }

    /// LayerNorm forward over the rows of `x`, each `gamma.len()` wide,
    /// with `params = (gamma, beta, eps)`: per row `mean` and `var` (sums
    /// in index order from `-0.0`, divided by the width),
    /// `inv_std = 1 / √(var + eps)`, then per element
    /// `xhat = (x − mean)·inv_std` and `y = xhat·gamma + beta`. Rows run
    /// [`NORM_ROWS`] at a time.
    pub fn layer_norm, layer_norm_with(
        x: &[f32],
        params: (&[f32], &[f32], f32),
        xhat: &mut [f32],
        y: &mut [f32],
        inv_std: &mut [f32],
    ) {
        let h = params.0.len();
        assert!(h > 0 && params.1.len() == h, "LayerNorm width");
        assert!(x.len() == inv_std.len() * h && xhat.len() == x.len() && y.len() == x.len());
        let groups = x.chunks(NORM_ROWS * h).zip(inv_std.chunks_mut(NORM_ROWS));
        let outs = xhat.chunks_mut(NORM_ROWS * h).zip(y.chunks_mut(NORM_ROWS * h));
        for ((x, istd), out) in groups.zip(outs) {
            layer_norm_group(x, istd.len(), params, out, istd);
        }
    }

    /// LayerNorm backward over the rows of `dy`, each `gamma.len()` wide,
    /// from the forward's `xhat` and `inv_std`: per row `Σ dy·gamma` and
    /// `Σ dy·gamma·xhat` (sums in index order from `+0.0`), then per
    /// element `dx = inv_std·(dy·gamma − Σ₁/h − xhat·Σ₂/h)`; with
    /// `grads = (ggamma, gbeta)`, `ggamma += dy·xhat` and `gbeta += dy`
    /// take the rows in order. Rows run [`NORM_ROWS`] at a time.
    pub fn layer_norm_backward, layer_norm_backward_with(
        dy: &[f32],
        xhat: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        grads: (&mut [f32], &mut [f32]),
        dx: &mut [f32],
    ) {
        let (h, (ggamma, gbeta)) = (gamma.len(), grads);
        assert!(h > 0 && ggamma.len() == h && gbeta.len() == h, "LayerNorm width");
        assert!(dy.len() == inv_std.len() * h && xhat.len() == dy.len() && dx.len() == dy.len());
        let ins = dy.chunks(NORM_ROWS * h).zip(xhat.chunks(NORM_ROWS * h));
        let groups = ins.zip(inv_std.chunks(NORM_ROWS)).zip(dx.chunks_mut(NORM_ROWS * h));
        for (((dy, xhat), istd), dx) in groups {
            let grads = (&mut *ggamma, &mut *gbeta);
            layer_norm_backward_group((dy, xhat, istd.len()), istd, gamma, grads, dx);
        }
    }

    /// One Adam step on one parameter slice and its gradient and moments.
    pub fn adam_update, adam_update_with(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        k: AdamStep,
    ) {
        assert!(p.len() == g.len() && p.len() == m.len() && p.len() == v.len());
        let (c1, c2) = (1.0 - k.beta1, 1.0 - k.beta2);
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            let g = g * k.scale;
            *m = k.beta1 * *m + c1 * g;
            *v = k.beta2 * *v + c2 * g * g;
            let mhat = *m / k.bc1;
            let vhat = *v / k.bc2;
            *p -= k.lr * mhat / (vhat.sqrt() + k.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{builds_exercised, Isa};
    use rand::{Rng, SeedableRng};

    /// 0, 1, both sides of the 8-, 16- and 32-element widths, and
    /// non-multiples of 32.
    const LENGTHS: [usize; 13] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 259];

    /// Seeded values in ±6 with zeros of both signs, a subnormal and
    /// arguments that saturate GeLU's gate sprinkled in.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match (i + seed as usize) % 11 {
                3 => 0.0,
                4 => -0.0,
                5 => 1e-40,
                6 => 40.0,
                7 => -40.0,
                _ => rng.gen_range(-6.0f32..6.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const STEP: AdamStep = AdamStep {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bc1: 0.271,
        bc2: 0.003_994,
        scale: 1.0 / 3.0,
    };

    /// Every build of one kernel this host runs, run by
    /// `run(build, rows, width, seed)` on seeded inputs of `rows` rows of
    /// every width in `LENGTHS`, must return the bits of the baseline build.
    /// (The dispatched `name` is `name_with(Isa::active(), ..)`; the tests
    /// below hold it to the scalar definitions.)
    fn assert_builds_agree(name: &str, run: impl Fn(Isa, usize, usize, u64) -> Vec<f32>) {
        for (case, &n) in LENGTHS.iter().enumerate() {
            for rows in [1, 3] {
                let seed = 100 * case as u64 + rows as u64;
                let want = bits(&run(Isa::Baseline, rows, n, seed));
                for isa in builds_exercised() {
                    let got = bits(&run(isa, rows, n, seed));
                    assert_eq!(got, want, "{name} on {}: {rows} rows of {n}", isa.name());
                }
            }
        }
    }

    #[test]
    fn every_build_agrees_with_the_baseline_build_bitwise() {
        assert_builds_agree("gelu", |isa, rows, n, seed| {
            let mut y = vec![9.0; rows * n];
            gelu_with(isa, &values(rows * n, seed), &mut y);
            y
        });
        assert_builds_agree("bias_gelu", |isa, rows, n, seed| {
            let (mut f, mut g) = (values(rows * n, seed), vec![9.0; rows * n]);
            bias_gelu_with(isa, &mut f, &values(n, seed + 1), &mut g);
            [f, g].concat()
        });
        assert_builds_agree("gelu_backward", |isa, rows, n, seed| {
            let mut d = values(rows * n, seed + 1);
            gelu_backward_with(isa, &values(rows * n, seed), &mut d);
            d
        });
        assert_builds_agree("bias_add", |isa, rows, n, seed| {
            let mut y = values(rows * n, seed);
            bias_add_with(isa, &mut y, &values(n, seed + 1));
            y
        });
        assert_builds_agree("bias_residual_add", |isa, rows, n, seed| {
            let mut o = values(rows * n, seed);
            let (bias, x) = (values(n, seed + 1), values(rows * n, seed + 2));
            bias_residual_add_with(isa, &mut o, &bias, &x);
            o
        });
        assert_builds_agree("causal_softmax_row", |isa, rows, n, seed| {
            // Row `r` of `rows` keeps a prefix that grows with `r`, the last
            // row all of it.
            let mut all = values(rows * n, seed);
            for (r, row) in all.chunks_exact_mut(n.max(1)).enumerate() {
                causal_softmax_row_with(isa, row, ((r + 1) * n).div_ceil(rows), 0.25);
            }
            all
        });
        assert_builds_agree("exp_minus", |isa, rows, n, seed| {
            let mut y = vec![9.0; rows * n];
            exp_minus_with(isa, &values(rows * n, seed), 1.5, &mut y);
            y
        });
        assert_builds_agree("adam_update", |isa, rows, n, seed| {
            let n = rows * n;
            let (mut p, mut m) = (values(n, seed), values(n, seed + 2));
            let mut v: Vec<f32> = values(n, seed + 3).iter().map(|x| x.abs()).collect();
            adam_update_with(isa, &mut p, &values(n, seed + 1), &mut m, &mut v, STEP);
            [p, m, v].concat()
        });
    }

    /// An element's bits depend on neither its lane nor the slice length:
    /// the kernels over whole slices equal the same kernels (and the scalar
    /// functions) applied to one element at a time.
    #[test]
    fn elements_do_not_depend_on_lane_or_slice_length() {
        for &n in &LENGTHS {
            let (x, d0, bias) = (values(n, 1), values(n, 2), values(n, 3));
            let mut y = vec![0.0; n];
            gelu(&x, &mut y);
            let want: Vec<f32> = x.iter().map(|&v| gelu_scalar(v)).collect();
            assert_eq!(bits(&y), bits(&want), "gelu, {n}");

            let mut d = d0.clone();
            gelu_backward(&x, &mut d);
            let want: Vec<f32> = (0..n).map(|i| d0[i] * gelu_grad_scalar(x[i])).collect();
            assert_eq!(bits(&d), bits(&want), "gelu_backward, {n}");

            exp_minus(&x, -0.75, &mut y);
            let want: Vec<f32> = x.iter().map(|&v| exp(v + 0.75)).collect();
            assert_eq!(bits(&y), bits(&want), "exp_minus, {n}");

            let mut o = d0.clone();
            bias_residual_add(&mut o, &bias, &x);
            let want: Vec<f32> = (0..n).map(|i| (d0[i] + bias[i]) + x[i]).collect();
            assert_eq!(bits(&o), bits(&want), "bias_residual_add, {n}");

            let v0: Vec<f32> = bias.iter().map(|b| b.abs()).collect();
            let (mut p, mut m, mut v) = (x.clone(), d0.clone(), v0.clone());
            adam_update(&mut p, &bias, &mut m, &mut v, STEP);
            for i in 0..n {
                let (mut p1, mut m1, mut v1) = ([x[i]], [d0[i]], [v0[i]]);
                adam_update(&mut p1, &bias[i..=i], &mut m1, &mut v1, STEP);
                let whole = [p[i], m[i], v[i]];
                assert_eq!(
                    bits(&whole),
                    bits(&[p1[0], m1[0], v1[0]]),
                    "adam, {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn fused_kernels_equal_their_unfused_compositions_bitwise() {
        for &n in &LENGTHS {
            let rows = 3;
            let (f0, bias, x) = (values(rows * n, 4), values(n, 5), values(rows * n, 6));

            // bias + GeLU = bias add, then GeLU.
            let (mut f, mut g) = (f0.clone(), vec![0.0; rows * n]);
            bias_gelu(&mut f, &bias, &mut g);
            let (mut f_want, mut g_want) = (f0.clone(), vec![0.0; rows * n]);
            bias_add(&mut f_want, &bias);
            gelu(&f_want, &mut g_want);
            assert_eq!((bits(&f), bits(&g)), (bits(&f_want), bits(&g_want)), "{n}");

            // bias + residual = bias add, then the residual add.
            let mut o = f0.clone();
            bias_residual_add(&mut o, &bias, &x);
            for (w, &x) in f_want.iter_mut().zip(&x) {
                *w += x;
            }
            assert_eq!(bits(&o), bits(&f_want), "{n}");
        }
    }

    /// The softmax this kernel replaced, pass by pass: scale everything,
    /// mask with `-inf`, subtract the maximum, `exp`, sum in order, divide,
    /// write zeros where the mask was.
    fn unfused_softmax_row(row: &mut [f32], n: usize, scale: f32) {
        for x in row.iter_mut() {
            *x *= scale;
        }
        for x in &mut row[n..] {
            *x = f32::NEG_INFINITY;
        }
        let max = row[..n].iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for x in &mut row[..n] {
            *x = exp(*x - max);
            sum += *x;
        }
        for x in row.iter_mut() {
            *x = if x.is_finite() { *x / sum } else { 0.0 };
        }
    }

    #[test]
    fn softmax_row_equals_its_unfused_composition_and_masks_with_exact_zeros() {
        for &len in &LENGTHS {
            for n in [0, 1, len / 2, len] {
                let n = n.min(len);
                let mut row = values(len, 7 + n as u64);
                let mut want = row.clone();
                causal_softmax_row(&mut row, n, 0.176_776_7);
                unfused_softmax_row(&mut want, n, 0.176_776_7);
                assert_eq!(bits(&row), bits(&want), "{n} of {len}");
                assert!(row[n..].iter().all(|x| x.to_bits() == 0), "{n} of {len}");
                if n > 0 {
                    let total: f32 = row[..n].iter().sum();
                    assert!((total - 1.0).abs() < 1e-5, "{n} of {len}: sums to {total}");
                }
            }
        }
    }

    /// `f` over the floats from `from` to `to` (same sign), every `stride`-th
    /// bit pattern, as the largest value of `err(x, f(x))`.
    fn sweep(from: f32, to: f32, stride: usize, err: impl Fn(f32) -> f64) -> f64 {
        let (lo, hi) = (
            from.to_bits().min(to.to_bits()),
            from.to_bits().max(to.to_bits()),
        );
        (lo..=hi)
            .step_by(stride)
            .map(|b| err(f32::from_bits(b)))
            .fold(0.0, f64::max)
    }

    #[test]
    fn exp_is_within_its_stated_error_of_f64_between_the_cut_offs() {
        let rel = |x: f32| {
            let (got, want) = (exp(x), (x as f64).exp());
            assert!(got.is_normal(), "exp({x}) = {got}");
            ((got as f64 - want) / want).abs()
        };
        // Every 997th float of each sign, then every float near the ends
        // and around ±ln2/2, where the reduction changes `n`.
        let worst = sweep(0.0, EXP_OVERFLOW, 997, rel)
            .max(sweep(-0.0, EXP_UNDERFLOW, 997, rel))
            .max(sweep(88.0, EXP_OVERFLOW, 1, rel))
            .max(sweep(-87.0, EXP_UNDERFLOW, 1, rel))
            .max(sweep(0.3465, 0.3467, 1, rel))
            .max(sweep(-0.3465, -0.3467, 1, rel));
        assert!(worst <= 8.2e-8, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_special_values_and_cut_offs() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        for tiny in [1e-40f32, -1e-40, f32::MIN_POSITIVE, -f32::MIN_POSITIVE] {
            assert_eq!(exp(tiny), 1.0);
        }
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert_eq!(exp(f32::MIN).to_bits(), 0);

        // The overflow cut is the last float whose exponential is finite.
        let above = f32::from_bits(EXP_OVERFLOW.to_bits() + 1);
        assert!(exp(EXP_OVERFLOW).is_finite());
        assert!((EXP_OVERFLOW as f64).exp() <= f32::MAX as f64);
        assert_eq!(exp(above), f32::INFINITY);
        assert!((above as f64).exp() > f32::MAX as f64);

        // The underflow cut is the last float whose exponential is normal.
        let below = f32::from_bits(EXP_UNDERFLOW.to_bits() + 1);
        assert!(below < EXP_UNDERFLOW);
        assert!(exp(EXP_UNDERFLOW) >= f32::MIN_POSITIVE);
        assert!((EXP_UNDERFLOW as f64).exp() >= f32::MIN_POSITIVE as f64);
        assert_eq!(exp(below).to_bits(), 0);
        assert!((below as f64).exp() < f32::MIN_POSITIVE as f64);
    }

    #[test]
    fn sigmoid_and_tanh_are_within_their_stated_error_of_f64_everywhere() {
        let sigmoid_err = |x: f32| (sigmoid(x) as f64 - 1.0 / (1.0 + (-x as f64).exp())).abs();
        let tanh_err = |x: f32| (tanh(x) as f64 - (x as f64).tanh()).abs();
        // The whole finite range of both signs: zeros, subnormals, ±MAX.
        for (from, to) in [(0.0, f32::MAX), (-0.0, f32::MIN)] {
            let worst = sweep(from, to, 1009, sigmoid_err);
            assert!(worst <= 9.0e-8, "sigmoid: {worst:e}");
            let worst = sweep(from, to, 1009, tanh_err);
            assert!(worst <= 1.8e-7, "tanh: {worst:e}");
        }
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(-0.0), 0.0);
        assert!(sigmoid(f32::NAN).is_nan() && tanh(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_equals_its_tanh_definition_and_saturates_cleanly() {
        // `x/(1 + e^(−2u))` against `0.5·x·(1 + tanh u)` and the derivative
        // against its tanh form, both in f64.
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let n = 48_001;
        let x: Vec<f32> = (0..n)
            .map(|i| -12.0 + 24.0 * i as f32 / (n - 1) as f32)
            .collect();
        let (mut y, mut d) = (vec![0.0; n], vec![1.0; n]);
        gelu(&x, &mut y);
        gelu_backward(&x, &mut d);
        for i in 0..n {
            let xf = x[i] as f64;
            let t = (c * (xf + 0.044715 * xf * xf * xf)).tanh();
            let du = c * (1.0 + 3.0 * 0.044715 * xf * xf);
            assert!(
                (y[i] as f64 - 0.5 * xf * (1.0 + t)).abs() <= 6e-7,
                "gelu({xf})"
            );
            let grad = 0.5 * (1.0 + t) + 0.5 * xf * (1.0 - t * t) * du;
            assert!((d[i] as f64 - grad).abs() <= 3e-7, "gelu'({xf})");
        }
        // Known points, and no NaN once the gate saturates.
        let x = [0.0, -0.0, 1.0, 1e4, -1e4, 1e15, -1e15, f32::INFINITY];
        let (mut y, mut d) = ([0.0; 8], [1.0; 8]);
        gelu(&x, &mut y);
        gelu_backward(&x, &mut d);
        assert_eq!(bits(&y[..2]), bits(&[0.0, -0.0]));
        assert!((y[2] - 0.841_192).abs() < 1e-6);
        assert_eq!(y[3..], [1e4, -0.0, 1e15, -0.0, f32::INFINITY]);
        assert_eq!(d[..2], [0.5, 0.5]);
        assert_eq!(d[3..7], [1.0, 0.0, 1.0, 0.0]);
    }

    /// The per-row loop `LayerNorm::forward` ran before the row kernel:
    /// one row at a time, `Iterator::sum` for both sums. Kept as the
    /// definition of the forward pass.
    fn reference_layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> [Vec<f32>; 3] {
        let h = gamma.len();
        let (mut xhat, mut y, mut inv_std) = (vec![0.0; x.len()], vec![0.0; x.len()], Vec::new());
        for r in 0..x.len() / h {
            let row = &x[r * h..(r + 1) * h];
            let mean = row.iter().sum::<f32>() / h as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
            let istd = 1.0 / (var + eps).sqrt();
            inv_std.push(istd);
            let params = gamma.iter().zip(beta);
            let outs = xhat[r * h..(r + 1) * h]
                .iter_mut()
                .zip(&mut y[r * h..(r + 1) * h]);
            for (((xh, y), &rv), (&g, &b)) in outs.zip(row).zip(params) {
                *xh = (rv - mean) * istd;
                *y = *xh * g + b;
            }
        }
        [xhat, y, inv_std]
    }

    /// The per-row loop `LayerNorm::backward` ran before the row kernel,
    /// returning `[dx, ggamma, gbeta]` from the gradients `grads`. Kept as
    /// the definition of the backward pass.
    fn reference_layer_norm_backward(
        dy: &[f32],
        xhat: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        grads: [Vec<f32>; 2],
    ) -> [Vec<f32>; 3] {
        let h = gamma.len();
        let [mut ggamma, mut gbeta] = grads;
        let mut dx = vec![0.0; dy.len()];
        for (r, &istd) in inv_std.iter().enumerate() {
            let (xhat, dyr) = (&xhat[r * h..(r + 1) * h], &dy[r * h..(r + 1) * h]);
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            let grads = ggamma.iter_mut().zip(&mut gbeta);
            for (((&d, &xh), &g), (gg, gb)) in dyr.iter().zip(xhat).zip(gamma).zip(grads) {
                let dyg = d * g;
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xh;
                *gg += d * xh;
                *gb += d;
            }
            let ins = dyr.iter().zip(xhat).zip(gamma);
            for (dx, ((&d, &xh), &g)) in dx[r * h..(r + 1) * h].iter_mut().zip(ins) {
                let dyg = d * g;
                *dx = istd * (dyg - sum_dyg / h as f32 - xh * sum_dyg_xhat / h as f32);
            }
        }
        [dx, ggamma, gbeta]
    }

    /// Both LayerNorm kernels equal the per-row loops bit for bit on every
    /// build: row counts on both sides of the 16 rows that run side by
    /// side, widths that are and are not whole vectors, and rows whose
    /// zeros and variance stress the start of each sum — all `-0.0`,
    /// constant (variance `0`), and the zero-signed, saturating mix of
    /// [`values`].
    #[test]
    fn layer_norm_kernels_equal_the_per_row_loops_bitwise() {
        for rows in [1, 15, 16, 17, 64] {
            for h in [8, 12, 128, 259] {
                let seed = (100 * rows + h) as u64;
                let mut x = values(rows * h, seed);
                x[..h].fill(-0.0);
                x[(rows - 1) * h..].fill(if rows > 1 { 2.5 } else { -0.0 });
                if rows > 2 {
                    x[h..2 * h].fill(-3.75);
                }
                let (gamma, beta) = (values(h, seed + 1), values(h, seed + 2));
                let dy = values(rows * h, seed + 3);
                let grads = [values(h, seed + 4), values(h, seed + 5)];
                let [xhat, y, inv_std] = reference_layer_norm(&x, &gamma, &beta, 1e-5);
                let want =
                    reference_layer_norm_backward(&dy, &xhat, &inv_std, &gamma, grads.clone());
                for isa in builds_exercised() {
                    let case = format!("{} rows of {h} on {}", rows, isa.name());
                    let (mut xh, mut yy, mut istd) =
                        (vec![9.0; rows * h], vec![9.0; rows * h], vec![9.0; rows]);
                    layer_norm_with(isa, &x, (&gamma, &beta, 1e-5), &mut xh, &mut yy, &mut istd);
                    assert_eq!(bits(&xh), bits(&xhat), "xhat, {case}");
                    assert_eq!(bits(&yy), bits(&y), "y, {case}");
                    assert_eq!(bits(&istd), bits(&inv_std), "inv_std, {case}");

                    let [mut gg, mut gb] = grads.clone();
                    let mut dx = vec![9.0; rows * h];
                    let grads = (&mut gg[..], &mut gb[..]);
                    layer_norm_backward_with(isa, &dy, &xhat, &inv_std, &gamma, grads, &mut dx);
                    assert_eq!(bits(&dx), bits(&want[0]), "dx, {case}");
                    assert_eq!(bits(&gg), bits(&want[1]), "ggamma, {case}");
                    assert_eq!(bits(&gb), bits(&want[2]), "gbeta, {case}");
                }
                // The rows that stress the sums' starts come out as the
                // loops say: a row of `-0.0` normalizes to `+0.0`, a
                // constant row to zeros with `inv_std = 1/√eps`.
                assert!(
                    xhat[..h].iter().all(|v| v.to_bits() == 0),
                    "{rows} rows of {h}"
                );
                if rows > 2 {
                    assert!(xhat[h..2 * h].iter().all(|&v| v == 0.0));
                    assert_eq!(inv_std[1], 1.0 / 1e-5f32.sqrt());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_rows_panic() {
        bias_add(&mut [0.0; 5], &[0.0; 2]);
    }
}
