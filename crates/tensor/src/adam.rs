//! Adam optimizer (the paper's models all train with mixed-precision Adam;
//! here everything is f32).

use crate::elementwise::{adam_update, AdamStep};
use crate::pool::{self, PIECE};

/// Adam with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Standard hyperparameters except the caller-chosen learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one Adam step over the concatenation of (param, grad) pairs.
    /// The total parameter count must be identical across calls (state is
    /// positional). Gradients are left untouched; zero them with the
    /// model's `zero_grads` ([`crate::layers::Zeroing`]). Each parameter
    /// and its moments are updated in pieces on the pool.
    pub fn step(&mut self, pairs: &mut [(&mut [f32], &mut [f32])]) {
        self.step_scaled(pairs, 1.0);
    }

    /// [`Adam::step`] on every gradient times `scale`: each `g · scale` is
    /// computed in register as the update reads it, one rounding, so the
    /// step has the bits of a pass `g *= scale` followed by [`Adam::step`]
    /// without that pass over memory. The gradients are left untouched.
    pub fn step_scaled(&mut self, pairs: &mut [(&mut [f32], &mut [f32])], scale: f32) {
        let total: usize = pairs.iter().map(|(p, _)| p.len()).sum();
        if self.m.is_empty() {
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
        }
        assert_eq!(self.m.len(), total, "parameter count changed mid-training");
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            scale,
        };
        let count = pairs.iter().map(|(p, _)| p.len().div_ceil(PIECE)).sum();
        let (mut m, mut v) = (&mut self.m[..], &mut self.v[..]);
        let pieces = pairs.iter_mut().flat_map(|(params, grads)| {
            let (m_here, v_here);
            (m_here, m) = std::mem::take(&mut m).split_at_mut(params.len());
            (v_here, v) = std::mem::take(&mut v).split_at_mut(params.len());
            let moments = m_here.chunks_mut(PIECE).zip(v_here.chunks_mut(PIECE));
            params
                .chunks_mut(PIECE)
                .zip(grads.chunks(PIECE))
                .zip(moments)
        });
        pool::each(total, count, pieces, |((p, g), (m, v))| {
            adam_update(p, g, m, v, step)
        });
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer state (step count and both moment vectors)
    /// for checkpointing. Together with the parameters this is everything
    /// needed to resume training bit-identically.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore state captured by [`Adam::export_state`]. Hyperparameters
    /// are kept; subsequent steps continue exactly where the snapshot
    /// left off.
    pub fn import_state(&mut self, state: AdamState) {
        assert_eq!(state.m.len(), state.v.len(), "moment length mismatch");
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

/// Zero every gradient of `pairs`, in pieces on the pool: the one zeroing
/// pass of a step, over the gradients a model's [`crate::layers::Zeroing`]
/// walk hands it — every one but the [`crate::layers::Linear`] weight
/// gradients, which their first product writes.
pub fn zero_grads(pairs: &mut [(&mut [f32], &mut [f32])]) {
    let values = pairs.iter().map(|(_, g)| g.len()).sum();
    let count = pairs.iter().map(|(_, g)| g.len().div_ceil(PIECE)).sum();
    let pieces = pairs.iter_mut().flat_map(|(_, g)| g.chunks_mut(PIECE));
    pool::each(values, count, pieces, |g| g.fill(0.0));
}

/// Serializable Adam state: step count and first/second moment vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamState {
    /// Steps taken.
    pub t: u64,
    /// First moments (positional, over the concatenated parameter slices).
    pub m: Vec<f32>,
    /// Second moments.
    pub v: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = Σ (x−3)²; Adam should walk x toward 3.
        let mut x = vec![0.0f32; 4];
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let mut g: Vec<f32> = x.iter().map(|&v| 2.0 * (v - 3.0)).collect();
            adam.step(&mut [(&mut x, &mut g)]);
        }
        for v in &x {
            assert!((v - 3.0).abs() < 0.05, "got {v}");
        }
        assert_eq!(adam.steps(), 500);
    }

    /// The loop `Adam::step` ran before the element-wise layer: indexed,
    /// one parameter at a time. Kept as the definition of the update.
    fn reference_step(adam: &mut Adam, pairs: &mut [(&mut [f32], &mut [f32])]) {
        let total: usize = pairs.iter().map(|(p, _)| p.len()).sum();
        if adam.m.is_empty() {
            adam.m = vec![0.0; total];
            adam.v = vec![0.0; total];
        }
        adam.t += 1;
        let bc1 = 1.0 - adam.beta1.powi(adam.t as i32);
        let bc2 = 1.0 - adam.beta2.powi(adam.t as i32);
        let mut off = 0;
        for (params, grads) in pairs.iter_mut() {
            for i in 0..params.len() {
                let g = grads[i];
                let m = &mut adam.m[off + i];
                let v = &mut adam.v[off + i];
                *m = adam.beta1 * *m + (1.0 - adam.beta1) * g;
                *v = adam.beta2 * *v + (1.0 - adam.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                params[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
            }
            off += params.len();
        }
    }

    fn pairs<'a>(
        p: &'a mut [Vec<f32>],
        g: &'a mut [Vec<f32>],
    ) -> Vec<(&'a mut [f32], &'a mut [f32])> {
        let zipped = p.iter_mut().zip(g.iter_mut());
        zipped.map(|(p, g)| (&mut p[..], &mut g[..])).collect()
    }

    #[test]
    fn step_equals_the_indexed_reference_loop_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Uneven pairs around the vector widths, empty ones among them.
        let lens = [0usize, 1, 7, 8, 9, 0, 33, 100, 16, 259, 0];
        let mut params: Vec<Vec<f32>> = lens
            .iter()
            .map(|&n| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut want = params.clone();
        let (mut adam, mut reference) = (Adam::new(0.01), Adam::new(0.01));
        for step in 0..25 {
            let mut grads: Vec<Vec<f32>> = lens
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|i| match (i + step) % 9 {
                            0 => 0.0,
                            1 => 1e-30,
                            _ => rng.gen_range(-3.0f32..3.0),
                        })
                        .collect()
                })
                .collect();
            let mut grads_again = grads.clone();
            adam.step(&mut pairs(&mut params, &mut grads));
            reference_step(&mut reference, &mut pairs(&mut want, &mut grads_again));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&params.concat()), bits(&want.concat()), "step {step}");
            assert_eq!(bits(&adam.m), bits(&reference.m), "step {step}");
            assert_eq!(bits(&adam.v), bits(&reference.v), "step {step}");
        }
        assert_eq!(adam.export_state(), reference.export_state());
    }

    /// Adam and the zeroing pass cut into pieces on the pool have the bits
    /// of the same passes on the caller alone: ragged parameters, several
    /// of them many pieces long.
    #[test]
    fn pooled_step_and_zeroing_equal_the_caller_only_run_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let lens = [0usize, 1, 70_001, PIECE, 2 * PIECE + 1, 17, 200_003];
        let mut values = |n: usize| {
            (0..n)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect::<Vec<_>>()
        };
        let init: Vec<Vec<f32>> = lens.iter().map(|&n| values(n)).collect();
        let (mut shared, mut alone) = ((init.clone(), Adam::new(0.01)), (init, Adam::new(0.01)));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for step in 0..3 {
            let mut grads: Vec<Vec<f32>> = lens.iter().map(|&n| values(n)).collect();
            let mut grads_again = grads.clone();
            pool::with_helpers(|| shared.1.step(&mut pairs(&mut shared.0, &mut grads)));
            pool::on_the_caller(|| alone.1.step(&mut pairs(&mut alone.0, &mut grads_again)));
            assert_eq!(
                bits(&shared.0.concat()),
                bits(&alone.0.concat()),
                "step {step}"
            );
            assert_eq!(
                shared.1.export_state(),
                alone.1.export_state(),
                "step {step}"
            );
            pool::with_helpers(|| zero_grads(&mut pairs(&mut shared.0, &mut grads)));
            assert!(
                grads.concat().iter().all(|g| g.to_bits() == 0),
                "step {step}"
            );
        }
    }

    /// A scaled step has the bits of a pass `g *= s` and then a step, with
    /// zeros of both signs among the gradients, over the scales the trainer
    /// passes (`1/d`, and 1.0 at `d = 1`) and one that rounds every
    /// product; and it leaves the gradients as they were.
    #[test]
    fn a_scaled_step_equals_scaling_the_gradients_first_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let lens = [1usize, 31, 1000];
        for s in [1.0f32, 0.5, 1.0 / 3.0, 0.1] {
            let init: Vec<Vec<f32>> = lens
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let (mut scaled, mut passed) =
                ((init.clone(), Adam::new(0.01)), (init, Adam::new(0.01)));
            for step in 0..4 {
                let grads: Vec<Vec<f32>> = lens
                    .iter()
                    .map(|&n| {
                        (0..n)
                            .map(|i| match (i + step) % 5 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => rng.gen_range(-3.0f32..3.0),
                            })
                            .collect()
                    })
                    .collect();
                let mut kept = grads.clone();
                scaled
                    .1
                    .step_scaled(&mut pairs(&mut scaled.0, &mut kept), s);
                assert_eq!(kept, grads, "the gradients are left untouched");
                let mut times_s: Vec<Vec<f32>> = grads
                    .iter()
                    .map(|g| g.iter().map(|&x| x * s).collect())
                    .collect();
                passed.1.step(&mut pairs(&mut passed.0, &mut times_s));
                let bits =
                    |v: &[Vec<f32>]| v.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scaled.0), bits(&passed.0), "scale {s}, step {step}");
                assert_eq!(scaled.1.export_state(), passed.1.export_state());
            }
        }
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, the first update magnitude ≈ lr·sign(g).
        let mut x = vec![0.0f32];
        let mut g = vec![5.0f32];
        let mut adam = Adam::new(0.01);
        adam.step(&mut [(&mut x, &mut g)]);
        assert!((x[0] + 0.01).abs() < 1e-4, "got {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn rejects_changing_shapes() {
        let mut adam = Adam::new(0.01);
        let mut a = vec![0.0f32; 2];
        let mut ga = vec![0.0f32; 2];
        adam.step(&mut [(&mut a, &mut ga)]);
        let mut b = vec![0.0f32; 3];
        let mut gb = vec![0.0f32; 3];
        adam.step(&mut [(&mut b, &mut gb)]);
    }
}
