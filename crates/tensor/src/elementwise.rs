//! Element-wise kernels: the non-GEMM half of a training step — `exp`, the
//! GeLU pair, bias and residual adds, the causal softmax row and the Adam
//! update.
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

/// The constants of one Adam step: the hyper-parameters and the two bias
/// corrections `1 − βᵗ`.
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

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_rows_panic() {
        bias_add(&mut [0.0; 5], &[0.0; 2]);
    }
}
