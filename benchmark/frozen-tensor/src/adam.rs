//! Adam optimizer (the paper's models all train with mixed-precision Adam;
//! here everything is f32).

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
    /// positional). Gradients are left untouched; zero them via
    /// [`Adam::zero_grads`] or the owner's visitor.
    pub fn step(&mut self, pairs: &mut [(&mut [f32], &mut [f32])]) {
        let total: usize = pairs.iter().map(|(p, _)| p.len()).sum();
        if self.m.is_empty() {
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
        }
        assert_eq!(self.m.len(), total, "parameter count changed mid-training");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut off = 0;
        for (params, grads) in pairs.iter_mut() {
            assert_eq!(params.len(), grads.len());
            for i in 0..params.len() {
                let g = grads[i];
                let m = &mut self.m[off + i];
                let v = &mut self.v[off + i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            off += params.len();
        }
    }

    /// Zero every gradient buffer.
    pub fn zero_grads(pairs: &mut [(&mut [f32], &mut [f32])]) {
        for (_, grads) in pairs.iter_mut() {
            grads.fill(0.0);
        }
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
