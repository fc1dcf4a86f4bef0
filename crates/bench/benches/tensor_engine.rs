//! Benches of the real CPU tensor engine: GEMM scaling, the element-wise
//! kernels, and a full forward+backward of the tiny GPT used by the
//! distributed runtime.

use megatron_bench::harness::Bench;
use megatron_tensor::elementwise as ew;
use megatron_tensor::gemm;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::layers::LayerNorm;
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

/// Nanoseconds per element of `run`, best of 60 after a warm-up; `reset`
/// restores the buffers outside the timed part, so that a kernel working in
/// place sees the same values every time.
fn ns_per_element<S>(
    elems: usize,
    state: &mut S,
    reset: impl Fn(&mut S),
    run: impl Fn(&mut S),
) -> f64 {
    let best = (0..61)
        .map(|_| {
            reset(state);
            let t0 = Instant::now();
            run(state);
            t0.elapsed().as_secs_f64()
        })
        .skip(1)
        .fold(f64::INFINITY, f64::min);
    best * 1e9 / elems as f64
}

/// The element-wise kernels at the shapes the benchmark workloads run them
/// at: each body as compiled for the baseline instruction set and as
/// dispatched on this machine. LayerNorm is not compiled twice (its time is
/// its sequential row sums), so it has one column.
fn elementwise_workload_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    println!("group elementwise_shapes (ns per element, best of 60 after warm-up)");
    println!(
        "  {:<22} {:<10} {:>9} {:>11}",
        "kernel", "shape", "portable", "dispatched"
    );
    let row =
        |kernel: &str, shape: String, [portable, dispatched]: [Option<f64>; 2], what: &str| {
            let ns = |t: Option<f64>| t.map_or("-".to_string(), |ns| format!("{ns:.2}"));
            let (portable, dispatched) = (ns(portable), ns(dispatched));
            println!("  {kernel:<22} {shape:<10} {portable:>9} {dispatched:>11}   {what}");
        };
    // (workload, rows of a microbatch, hidden, local MLP width, sequence).
    for (what, rows, h, mlp, seq) in [
        ("serial_wide", 192usize, 256usize, 1024usize, 64usize),
        ("ptd222_thread, proc222_uds (t=2)", 64, 128, 256, 32),
        ("dp2_fat", 8, 256, 1024, 8),
    ] {
        let f0 = Matrix::randn(rows, mlp, 1.0, &mut rng);
        let x0 = Matrix::randn(rows, h, 1.0, &mut rng);
        let bias = Matrix::randn(1, mlp, 1.0, &mut rng);
        let scores0 = Matrix::randn(seq, seq, 1.0, &mut rng);
        let (f0, x0, bias) = (f0.as_slice(), x0.as_slice(), bias.as_slice());

        let mut fg = (f0.to_vec(), f0.to_vec());
        let bias_gelu = [ew::bias_gelu_portable, ew::bias_gelu].map(|kernel| {
            let reset = |(f, _): &mut (Vec<f32>, Vec<f32>)| f.copy_from_slice(f0);
            Some(ns_per_element(f0.len(), &mut fg, reset, |(f, g)| {
                kernel(f, bias, g)
            }))
        });
        row(
            "bias+GeLU forward",
            format!("{rows} x {mlp}"),
            bias_gelu,
            what,
        );

        let mut d = f0.to_vec();
        let gelu_backward = [ew::gelu_backward_portable, ew::gelu_backward].map(|kernel| {
            let reset = |d: &mut Vec<f32>| d.copy_from_slice(f0);
            Some(ns_per_element(f0.len(), &mut d, reset, |d| kernel(f0, d)))
        });
        row(
            "GeLU backward",
            format!("{rows} x {mlp}"),
            gelu_backward,
            what,
        );

        let mut scores = scores0.clone();
        let softmax = [ew::causal_softmax_row_portable, ew::causal_softmax_row].map(|kernel| {
            let reset = |s: &mut Matrix| s.as_mut_slice().copy_from_slice(scores0.as_slice());
            // Per live element: row `r` keeps `r + 1` scores.
            Some(ns_per_element(
                seq * (seq + 1) / 2,
                &mut scores,
                reset,
                |s| {
                    for r in 0..seq {
                        kernel(s.row_mut(r), r + 1, 0.125);
                    }
                },
            ))
        });
        row(
            "causal softmax rows",
            format!("{seq} x {seq}"),
            softmax,
            what,
        );

        let mut o = x0.to_vec();
        let bias_residual = [ew::bias_residual_add_portable, ew::bias_residual_add].map(|kernel| {
            let reset = |o: &mut Vec<f32>| o.copy_from_slice(x0);
            Some(ns_per_element(x0.len(), &mut o, reset, |o| {
                kernel(o, &bias[..h], x0)
            }))
        });
        row(
            "bias+residual",
            format!("{rows} x {h}"),
            bias_residual,
            what,
        );

        let x = Matrix::from_vec(rows, h, x0.to_vec());
        let mut ln = LayerNorm::new(h);
        let (_, cache) = ln.forward(&x);
        let forward = ns_per_element(
            x.len(),
            &mut ln,
            |_| (),
            |ln| {
                black_box(ln.forward(&x));
            },
        );
        row(
            "LayerNorm forward",
            format!("{rows} x {h}"),
            [None, Some(forward)],
            what,
        );
        let backward = ns_per_element(
            x.len(),
            &mut ln,
            |_| (),
            |ln| {
                black_box(ln.backward(&cache, &x));
            },
        );
        row(
            "LayerNorm backward",
            format!("{rows} x {h}"),
            [None, Some(backward)],
            what,
        );
    }

    // Adam over one rank's parameters: serial_wide and a dp2_fat rank hold
    // 3.4 M, a (2,2,2) rank about a sixteenth of that.
    for (what, n) in [
        ("serial_wide, dp2_fat", 3_400_000usize),
        ("ptd222_thread, proc222_uds", 210_000),
    ] {
        let grads = Matrix::randn(1, n, 0.01, &mut rng);
        let mut state = (vec![0.1f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        let step = ew::AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 0.1,
            bc2: 0.001,
        };
        let adam = [ew::adam_update_portable, ew::adam_update].map(|kernel| {
            Some(ns_per_element(
                n,
                &mut state,
                |_| (),
                |(p, m, v)| kernel(p, grads.as_slice(), m, v, step),
            ))
        });
        row("Adam (per parameter)", format!("{n}"), adam, what);
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
    elementwise_workload_shapes();
    gpt_step();
}
