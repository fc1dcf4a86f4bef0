//! Benches of the real CPU tensor engine: GEMM scaling and a full
//! forward+backward of the tiny GPT used by the distributed runtime.

use megatron_bench::harness::Bench;
use megatron_tensor::gemm;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::Matrix;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn gemm_scaling() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let g = Bench::group("gemm").sample_size(20);
    for &n in &[64usize, 128, 256] {
        let a = Matrix::randn(n, n, 1.0, &mut rng);
        let b = Matrix::randn(n, n, 1.0, &mut rng);
        g.run(&format!("matmul/{n}"), || gemm::matmul(&a, &b));
        g.run(&format!("matmul_tn/{n}"), || gemm::matmul_tn(&a, &b));
        g.run(&format!("matmul_nt/{n}"), || gemm::matmul_nt(&a, &b));
    }
}

/// GFLOP/s of the three variants at shapes the benchmark workloads issue
/// (`benchmark/src/shapes.rs`), each as the `m×k · k×n` product it computes.
fn gemm_workload_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    println!("group gemm_shapes (GFLOP/s, best of 30 after warm-up)");
    println!(
        "  {:<34} {:>8} {:>8} {:>8}",
        "m x k x n", "matmul", "_tn", "_nt"
    );
    for (what, m, k, n) in [
        (
            "attention head, ptd222 (s=32, dh=32)",
            32usize,
            32usize,
            32usize,
        ),
        ("attention head, serial_wide", 64, 32, 64),
        ("attention P.V, serial_wide", 64, 64, 32),
        ("qkv, ptd222 (t=2)", 64, 128, 192),
        ("MLP up, serial_wide", 192, 256, 1024),
        ("MLP down, serial_wide", 192, 1024, 256),
        ("LM head, serial_wide (V=512)", 192, 256, 512),
        ("LM head dW, serial_wide", 256, 192, 512),
        ("qkv, dp2_fat (8 rows)", 8, 512, 1536),
        ("decode, one row", 1, 256, 1024),
    ] {
        let mut rand = |r, c| Matrix::randn(r, c, 1.0, &mut rng);
        let (a, at, b, bt) = (rand(m, k), rand(k, m), rand(k, n), rand(n, k));
        let rate = |f: &dyn Fn() -> Matrix| {
            let flops = 2.0 * (m * k * n) as f64;
            let reps = ((2e7 / flops) as usize).clamp(1, 200);
            let best = (0..31)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        black_box(f());
                    }
                    t0.elapsed().as_secs_f64() / reps as f64
                })
                .skip(1)
                .fold(f64::INFINITY, f64::min);
            flops / best / 1e9
        };
        println!(
            "  {:<34} {:>8.1} {:>8.1} {:>8.1}   {what}",
            format!("{m} x {k} x {n}"),
            rate(&|| gemm::matmul(&a, &b)),
            rate(&|| gemm::matmul_tn(&at, &b)),
            rate(&|| gemm::matmul_nt(&a, &bt)),
        );
    }
}

fn gpt_step() {
    let cfg = TinyGptConfig {
        vocab: 128,
        seq: 32,
        hidden: 64,
        heads: 4,
        layers: 4,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut model = GptModel::new(cfg, &mut rng);
    let tokens: Vec<usize> = (0..4 * cfg.seq).map(|i| i % cfg.vocab).collect();
    let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    let g = Bench::group("tiny_gpt").sample_size(10);
    g.run("forward_backward_b4", || {
        model.zero_grads();
        model.loss_and_grad(&tokens, &targets, 4)
    });
}

fn main() {
    gemm_scaling();
    gemm_workload_shapes();
    gpt_step();
}
