//! GPT model configuration and the paper's closed-form formulas.

/// Architecture of a GPT-style decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GptConfig {
    /// Display name (e.g. `"GPT 175B"`).
    pub name: String,
    /// Number of transformer layers, `l`.
    pub num_layers: u64,
    /// Hidden size, `h`.
    pub hidden_size: u64,
    /// Attention heads, `a` (must divide `h`).
    pub num_heads: u64,
    /// Sequence length, `s` (2048 everywhere in the paper).
    pub seq_len: u64,
    /// Vocabulary size, `V` (51,200 everywhere in the paper).
    pub vocab_size: u64,
}

impl GptConfig {
    /// A model with the paper's fixed `s = 2048`, `V = 51200`.
    pub fn paper(name: &str, num_layers: u64, hidden_size: u64, num_heads: u64) -> Self {
        let cfg = GptConfig {
            name: name.to_string(),
            num_layers,
            hidden_size,
            num_heads,
            seq_len: 2048,
            vocab_size: 51200,
        };
        cfg.validate();
        cfg
    }

    /// Panic if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.num_layers > 0, "need at least one layer");
        assert!(
            self.num_heads > 0 && self.hidden_size.is_multiple_of(self.num_heads),
            "heads ({}) must divide hidden size ({})",
            self.num_heads,
            self.hidden_size
        );
        assert!(self.seq_len > 0 && self.vocab_size > 0);
    }

    /// Dimension of one attention head, `h / a`.
    pub fn head_dim(&self) -> u64 {
        self.hidden_size / self.num_heads
    }

    /// Exact parameter count by enumerating every weight and bias tensor:
    /// token + position embeddings, per-layer attention (QKV + output
    /// projection), MLP (h→4h→h), two LayerNorms per layer, and the final
    /// LayerNorm. The LM head is tied to the token embedding.
    pub fn params_exact(&self) -> u64 {
        let (l, h, s, v) = (
            self.num_layers,
            self.hidden_size,
            self.seq_len,
            self.vocab_size,
        );
        let embeddings = v * h + s * h;
        let attn = h * 3 * h + 3 * h + h * h + h; // QKV w+b, proj w+b
        let mlp = h * 4 * h + 4 * h + 4 * h * h + h; // fc1 w+b, fc2 w+b
        let layer_norms = 2 * (2 * h); // two LNs, scale+shift each
        let per_layer = attn + mlp + layer_norms;
        embeddings + l * per_layer + 2 * h // final LayerNorm
    }

    /// Paper Eq. 2: `P = 12 l h² (1 + 13/(12h) + (V+s)/(12lh))`.
    pub fn params_eq2(&self) -> f64 {
        let (l, h, s, v) = (
            self.num_layers as f64,
            self.hidden_size as f64,
            self.seq_len as f64,
            self.vocab_size as f64,
        );
        12.0 * l * h * h * (1.0 + 13.0 / (12.0 * h) + (v + s) / (12.0 * l * h))
    }

    /// Paper Eq. 3: FLOPs per training iteration at global batch size `B`,
    /// *with* activation recomputation (the extra forward pass included):
    /// `F = 96 B s l h² (1 + s/(6h) + V/(16lh))`.
    pub fn flops_per_iteration_eq3(&self, batch: u64) -> f64 {
        let (l, h, s, v) = (
            self.num_layers as f64,
            self.hidden_size as f64,
            self.seq_len as f64,
            self.vocab_size as f64,
        );
        let b = batch as f64;
        96.0 * b * s * l * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * l * h))
    }

    /// FLOPs per iteration from the appendix breakdown, selectable
    /// recomputation. Forward per layer: `24Bsh² + 4Bs²h`; backward is 2×
    /// forward; recomputation adds one more forward for transformer layers.
    /// Logit layer: `2BshV` forward + `4BshV` backward (never recomputed).
    pub fn flops_per_iteration(&self, batch: u64, recompute: bool) -> f64 {
        let (l, h, s, v) = (
            self.num_layers as f64,
            self.hidden_size as f64,
            self.seq_len as f64,
            self.vocab_size as f64,
        );
        let b = batch as f64;
        let layer_fwd = 24.0 * b * s * h * h + 4.0 * b * s * s * h;
        let multiplier = if recompute { 4.0 } else { 3.0 };
        l * layer_fwd * multiplier + 6.0 * b * s * h * v
    }

    /// "Model FLOPs" per iteration: forward + backward only (3× forward),
    /// the convention for reporting *useful* work when recomputation is off.
    pub fn model_flops_per_iteration(&self, batch: u64) -> f64 {
        self.flops_per_iteration(batch, false)
    }

    /// Estimated end-to-end training time in seconds for `tokens` training
    /// tokens on `n_gpus` GPUs at `achieved_flops_per_gpu` (paper Eq. 4:
    /// `time ≈ 8TP/(nX)`).
    pub fn training_time_eq4(&self, tokens: f64, n_gpus: f64, achieved_flops_per_gpu: f64) -> f64 {
        8.0 * tokens * self.params_eq2() / (n_gpus * achieved_flops_per_gpu)
    }

    /// Exact end-to-end training time: iterations × (FLOPs / aggregate
    /// throughput), with recomputation on.
    pub fn training_time_exact(
        &self,
        tokens: f64,
        batch: u64,
        n_gpus: f64,
        achieved_flops_per_gpu: f64,
    ) -> f64 {
        let iters = tokens / (batch as f64 * self.seq_len as f64);
        iters * self.flops_per_iteration_eq3(batch) / (n_gpus * achieved_flops_per_gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_matches_exact_count_closely() {
        for (l, h, a) in [(24, 2304, 24), (96, 12288, 96), (128, 25600, 160)] {
            let cfg = GptConfig::paper("m", l, h, a);
            let exact = cfg.params_exact() as f64;
            let eq2 = cfg.params_eq2();
            let rel = (exact - eq2).abs() / exact;
            // Eq. 2 omits only the final LayerNorm (2h params).
            assert!(rel < 1e-4, "l={l} h={h}: exact {exact} eq2 {eq2}");
        }
    }

    #[test]
    fn table1_parameter_counts() {
        // Spot-check Table 1's "number of parameters" column.
        let checks = [
            (24u64, 2304u64, 24u64, 1.7e9),
            (36, 4096, 32, 7.5e9),
            (80, 12288, 96, 145.6e9),
            (105, 20480, 128, 529.6e9),
            (128, 25600, 160, 1008.0e9),
        ];
        for (l, h, a, want) in checks {
            let got = GptConfig::paper("m", l, h, a).params_eq2();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.035, "l={l} h={h}: got {got:.3e} want {want:.3e}");
        }
    }

    #[test]
    fn gpt3_is_175b() {
        let cfg = GptConfig::paper("GPT-3", 96, 12288, 96);
        let p = cfg.params_eq2();
        assert!((p - 175e9).abs() / 175e9 < 0.20, "got {p:.3e}");
        // The paper quotes this architecture as 174.6B in Table 2.
        assert!((p - 174.6e9).abs() / 174.6e9 < 0.01, "got {p:.3e}");
    }

    #[test]
    fn eq3_matches_appendix_breakdown_with_recompute() {
        let cfg = GptConfig::paper("m", 96, 12288, 96);
        let b = 1536;
        let eq3 = cfg.flops_per_iteration_eq3(b);
        let appendix = cfg.flops_per_iteration(b, true);
        assert!((eq3 - appendix).abs() / eq3 < 1e-12);
    }

    #[test]
    fn recompute_costs_one_extra_forward() {
        let cfg = GptConfig::paper("m", 24, 2304, 24);
        let with = cfg.flops_per_iteration(512, true);
        let without = cfg.flops_per_iteration(512, false);
        // Transformer-layer work scales 4/3; logit layer unchanged.
        assert!(with > without && with < without * 4.0 / 3.0 + 1.0);
    }

    #[test]
    fn eq4_close_to_exact_for_large_models() {
        // §5.1: GPT-3 175B, 300B tokens, 1024 GPUs at 140 TF/s → 34 days.
        let cfg = GptConfig::paper("GPT-3", 96, 12288, 96);
        let secs = cfg.training_time_eq4(300e9, 1024.0, 140e12);
        let days = secs / 86400.0;
        assert!((days - 34.0).abs() < 2.0, "got {days} days");
        let exact = cfg.training_time_exact(300e9, 1536, 1024.0, 140e12) / 86400.0;
        assert!(
            (days - exact).abs() / exact < 0.10,
            "eq4 {days} vs exact {exact}"
        );
    }

    #[test]
    fn trillion_model_training_time() {
        // §5.1: 1T params, 450B tokens, 3072 GPUs at 163 TF/s → 84 days.
        let cfg = GptConfig::paper("GPT 1T", 128, 25600, 160);
        let days = cfg.training_time_eq4(450e9, 3072.0, 163e12) / 86400.0;
        assert!((days - 84.0).abs() < 5.0, "got {days} days");
    }

    #[test]
    #[should_panic(expected = "heads")]
    fn rejects_bad_heads() {
        GptConfig::paper("bad", 2, 100, 7);
    }

    #[test]
    fn head_dim() {
        assert_eq!(GptConfig::paper("m", 2, 4096, 32).head_dim(), 128);
    }
}
