//! Every named model configuration in the paper's evaluation.

use crate::model::GptConfig;

/// One row of the paper's Table 1 (weak-scaling study), together with the
/// parallelization the paper used and the throughput it reported.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model architecture.
    pub config: GptConfig,
    /// Tensor-model-parallel size `t`.
    pub tensor_parallel: u64,
    /// Pipeline-model-parallel size `p`.
    pub pipeline_parallel: u64,
    /// Total GPUs `n` (data-parallel size is `n / (t·p)`).
    pub n_gpus: u64,
    /// Global batch size `B`.
    pub batch_size: u64,
    /// Paper-reported achieved teraFLOP/s per GPU.
    pub paper_tflops_per_gpu: f64,
    /// Paper-reported percentage of theoretical peak.
    pub paper_pct_peak: f64,
    /// Paper-reported aggregate petaFLOP/s.
    pub paper_aggregate_pflops: f64,
}

/// All ten rows of Table 1, from 1.7 billion to 1 trillion parameters.
/// Raw Table 1 row: (billions, heads, hidden, layers, t, p, n, B, TF/s, %, PF/s).
type RawRow = (f64, u64, u64, u64, u64, u64, u64, u64, f64, f64, f64);

pub fn table1() -> Vec<Table1Row> {
    let rows: [RawRow; 10] = [
        (1.7, 24, 2304, 24, 1, 1, 32, 512, 137.0, 44.0, 4.4),
        (3.6, 32, 3072, 30, 2, 1, 64, 512, 138.0, 44.0, 8.8),
        (7.5, 32, 4096, 36, 4, 1, 128, 512, 142.0, 46.0, 18.2),
        (18.4, 48, 6144, 40, 8, 1, 256, 1024, 135.0, 43.0, 34.6),
        (39.1, 64, 8192, 48, 8, 2, 512, 1536, 138.0, 44.0, 70.8),
        (76.1, 80, 10240, 60, 8, 4, 1024, 1792, 140.0, 45.0, 143.8),
        (145.6, 96, 12288, 80, 8, 8, 1536, 2304, 148.0, 47.0, 227.1),
        (310.1, 128, 16384, 96, 8, 16, 1920, 2160, 155.0, 50.0, 297.4),
        (
            529.6, 128, 20480, 105, 8, 35, 2520, 2520, 163.0, 52.0, 410.2,
        ),
        (
            1008.0, 160, 25600, 128, 8, 64, 3072, 3072, 163.0, 52.0, 502.0,
        ),
    ];
    rows.iter()
        .map(|&(b, heads, h, l, t, p, n, batch, tf, pct, pf)| Table1Row {
            config: GptConfig::paper(&format!("GPT {b}B"), l, h, heads),
            tensor_parallel: t,
            pipeline_parallel: p,
            n_gpus: n,
            batch_size: batch,
            paper_tflops_per_gpu: tf,
            paper_pct_peak: pct,
            paper_aggregate_pflops: pf,
        })
        .collect()
}

/// GPT-3: 175 (174.6) billion parameters — 96 layers, hidden 12288, 96 heads
/// (§5.2, §5.3.2, §5.7).
pub fn gpt3_175b() -> GptConfig {
    GptConfig::paper("GPT-3 175B", 96, 12288, 96)
}

/// The 530-billion-parameter model of Table 1 / Table 2: 105 layers, hidden
/// 20480, 128 heads.
pub fn gpt_530b() -> GptConfig {
    GptConfig::paper("GPT 530B", 105, 20480, 128)
}

/// The trillion-parameter model of Table 1: 128 layers, hidden 25600,
/// 160 heads.
pub fn gpt_1t() -> GptConfig {
    GptConfig::paper("GPT 1T", 128, 25600, 160)
}

/// The 5.9-billion-parameter model of Figures 14 and 15: 32 layers, hidden
/// 3840, 32 heads.
pub fn gpt_5p9b() -> GptConfig {
    GptConfig::paper("GPT 5.9B", 32, 3840, 32)
}

/// The 91-billion-parameter model of Figure 16 ((t,p) = (8,8)). The paper
/// does not spell out the architecture; 72 layers at hidden 10240 with 80
/// heads gives 91.2B parameters and divides evenly into 8 pipeline stages.
pub fn gpt_91b() -> GptConfig {
    GptConfig::paper("GPT 91B", 72, 10240, 80)
}

/// The 145-billion-parameter model of Figure 17: 80 layers, hidden 12288,
/// 96 heads (same architecture as Table 1's 145.6B row).
pub fn gpt_145b() -> GptConfig {
    GptConfig::paper("GPT 145B", 80, 12288, 96)
}

/// The 162.2-billion-parameter model of Figure 13: 32 layers, hidden 20480,
/// 128 heads ("32 transformer layers to support pipeline-parallel size 32").
pub fn gpt_162b() -> GptConfig {
    GptConfig::paper("GPT 162.2B", 32, 20480, 128)
}

/// The 1-billion-parameter microbenchmark model of Figures 7 and 8:
/// 4 layers, hidden 4096, 128 attention heads.
pub fn gpt_1b_microbench() -> GptConfig {
    GptConfig::paper("GPT 1B (Fig 7/8)", 4, 4096, 128)
}

/// The Figure 11 weak-scaling family: hidden 20480, 128 heads, `3·p` layers
/// for pipeline-parallel size `p` (p=1 → 3 layers / 15B params, p=8 → 24
/// layers / 121B params).
pub fn pipeline_weak_scaling(p: u64) -> GptConfig {
    GptConfig::paper(&format!("GPT weak-p{p}"), 3 * p, 20480, 128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_match_reported_param_counts() {
        for row in table1() {
            let want = row
                .config
                .name
                .trim_start_matches("GPT ")
                .trim_end_matches('B')
                .parse::<f64>()
                .unwrap()
                * 1e9;
            let got = row.config.params_eq2();
            assert!(
                (got - want).abs() / want < 0.035,
                "{}: got {got:.4e} want {want:.4e}",
                row.config.name
            );
        }
    }

    #[test]
    fn table1_gpu_counts_factor() {
        for row in table1() {
            assert_eq!(
                row.n_gpus % (row.tensor_parallel * row.pipeline_parallel),
                0,
                "{}",
                row.config.name
            );
        }
    }

    #[test]
    fn named_models_hit_their_sizes() {
        let cases: [(GptConfig, f64); 6] = [
            (gpt3_175b(), 174.6e9),
            (gpt_530b(), 529.6e9),
            (gpt_1t(), 1008.0e9),
            (gpt_5p9b(), 5.9e9),
            (gpt_162b(), 162.2e9),
            (gpt_91b(), 91.0e9),
        ];
        for (cfg, want) in cases {
            let got = cfg.params_eq2();
            assert!(
                (got - want).abs() / want < 0.015,
                "{}: got {got:.4e} want {want:.4e}",
                cfg.name
            );
        }
    }

    #[test]
    fn fig11_family_endpoints() {
        let p1 = pipeline_weak_scaling(1);
        assert!((p1.params_eq2() - 15e9).abs() / 15e9 < 0.1);
        let p8 = pipeline_weak_scaling(8);
        assert!((p8.params_eq2() - 121e9).abs() / 121e9 < 0.05);
    }

    #[test]
    fn microbench_model_is_one_billion() {
        let p = gpt_1b_microbench().params_eq2();
        assert!((p - 1.0e9).abs() / 1.0e9 < 0.1, "got {p:.3e}");
    }
}
