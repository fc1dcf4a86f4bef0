//! Benches of the real CPU tensor engine: GEMM scaling, the element-wise
//! kernels, attention's batched passes, and a full forward+backward of the
//! tiny GPT used by the distributed runtime.

use megatron_bench::harness::Bench;
use megatron_tensor::elementwise as ew;
use megatron_tensor::gemm;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::layers::{AttentionCore, LayerNorm};
use megatron_tensor::{Isa, Matrix};
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

/// Best of 30 of `threads` threads each running `work` `calls` times, in
/// GFLOP/s of the floating-point operations `work` reports.
fn peak_of(threads: usize, calls: usize, work: &(dyn Fn() -> usize + Sync)) -> f64 {
    let gate = std::sync::Barrier::new(threads + 1);
    (0..30)
        .map(|_| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            gate.wait();
                            gate.wait();
                            (0..calls).map(|_| work()).sum::<usize>()
                        })
                    })
                    .collect();
                // Every worker is running; none starts before the clock
                // does, even if this thread is descheduled in between (on
                // two cores it shares them with two workers).
                gate.wait();
                let t0 = Instant::now();
                gate.wait();
                let flops: usize = workers
                    .into_iter()
                    .map(|w| w.join().expect("peak loop panicked"))
                    .sum();
                flops as f64 / t0.elapsed().as_secs_f64() / 1e9
            })
        })
        .fold(0.0, f64::max)
}

/// This host's ceiling on the build for `isa`, in GFLOP/s, on `threads`
/// threads: for an FMA build its micro-kernel on operands that stay in L1
/// (`gemm::tile_peak_with`, 24 KiB of coefficients; one FMA counted as two
/// operations, as the paper's peaks count them), for the AMX build the
/// matrix unit's `TDPBF16PS` on tiles that never leave it
/// (`gemm::amx_tile_peak`, one instruction counted as 16·16·32·2).
fn tile_peak(isa: Isa, threads: usize) -> f64 {
    if isa == Isa::Amx {
        return peak_of(threads, 20, &|| {
            black_box(gemm::amx_tile_peak(black_box(500)))
        });
    }
    let coeffs: Vec<f32> = (0..6 * 1024)
        .map(|i| (i % 13) as f32 * 0.01 - 0.06)
        .collect();
    peak_of(threads, 2000, &|| {
        black_box(gemm::tile_peak_with(isa, black_box(&coeffs))).0
    })
}

/// GFLOP/s of the three variants at shapes the benchmark workloads issue
/// (`benchmark/src/shapes.rs`), each as the `m×k · k×n` product it computes,
/// on every build of the kernel this host runs; then the widest build's
/// rates as a share of that build's peak — for the AMX build, the share of
/// the matrix unit's bf16 peak, this table's analogue of the paper's Table 1
/// share of the tensor-core peak.
fn gemm_workload_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let builds: Vec<Isa> = Isa::available().collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("group gemm_shapes (GFLOP/s, best of 30 after warm-up)");
    println!("  peak per build, GFLOP/s (fused multiply-add builds: one FMA per term, counted as 2 flops; amx: one TDPBF16PS counted as 16*16*32*2):");
    // (one thread, every core) per build; the products below are read
    // against the widest build's, the last.
    let peaks: Vec<(f64, f64)> = builds
        .iter()
        .map(|&isa| (tile_peak(isa, 1), tile_peak(isa, cores)))
        .collect();
    for (isa, (one, all)) in builds.iter().zip(&peaks) {
        println!(
            "    {:<8} {one:>7.1} on one thread, {all:>7.1} on {cores}",
            isa.name()
        );
    }
    let peak = peaks[peaks.len() - 1].1;
    let columns = |cell: &dyn Fn(Isa) -> String| -> String {
        let cells: Vec<String> = builds.iter().map(|&isa| cell(isa)).collect();
        cells.join(" |")
    };
    println!(
        "  {:<18}{} | % of the {cores}-thread {} peak",
        "",
        columns(&|isa| format!(" {:<21}", isa.name())),
        builds[builds.len() - 1].name()
    );
    println!(
        "  {:<18}{} | {:>6} {:>4} {:>4}",
        "m x k x n",
        columns(&|_| format!(" {:>7}{:>7}{:>7}", "matmul", "_tn", "_nt")),
        "matmul",
        "_tn",
        "_nt"
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
    ] {
        let mut rand = |r, c| Matrix::randn(r, c, 1.0, &mut rng);
        let (a, at, b, bt) = (rand(m, k), rand(k, m), rand(k, n), rand(n, k));
        let rate = |isa: Isa, a: gemm::View<'_>, b: gemm::View<'_>| {
            let flops = 2.0 * (m * k * n) as f64;
            let reps = ((2e7 / flops) as usize).clamp(1, 200);
            let best = (0..31)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        let mut c = Matrix::zeros(m, n);
                        gemm::matmul_into_with(isa, a, b, c.block_mut(0, 0, m, n));
                        black_box(c);
                    }
                    t0.elapsed().as_secs_f64() / reps as f64
                })
                .skip(1)
                .fold(f64::INFINITY, f64::min);
            flops / best / 1e9
        };
        let rates: Vec<[f64; 3]> = builds
            .iter()
            .map(|&isa| {
                [
                    rate(isa, a.view(), b.view()),
                    rate(isa, at.view().t(), b.view()),
                    rate(isa, a.view(), bt.view().t()),
                ]
            })
            .collect();
        let cells: Vec<String> = rates
            .iter()
            .map(|[nn, tn, nt]| format!(" {nn:>7.1}{tn:>7.1}{nt:>7.1}"))
            .collect();
        let [nn, tn, nt] = rates[rates.len() - 1].map(|r| 100.0 * r / peak);
        println!(
            "  {:<18}{} | {nn:>6.0} {tn:>4.0} {nt:>4.0}   {what}",
            format!("{m} x {k} x {n}"),
            cells.join(" |"),
        );
    }
}

/// GFLOP/s of `dp2_fat`'s weight-gradient products `xᵀ·dy` (8 tokens per
/// rank, so `k` = 8: `C` is most of the traffic) on the active build, each
/// way a step can run them: a zero pass over `gw` and then the product
/// summed onto it (`fill + into`, the step before `gemm::matmul_to`), the
/// sum onto a `C` already there (`into`), and the product written over `C`
/// (`matmul_to`, what a fresh `gw` takes).
fn weight_grad_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    println!(
        "group weight_grad_shapes (GFLOP/s on {}, best of 30 after warm-up; dp2_fat's x^T.dy)",
        gemm::active_build()
    );
    println!(
        "  {:<18} {:>12} {:>8} {:>10}",
        "m x k x n", "fill + into", "into", "matmul_to"
    );
    for (what, m, k, n) in [
        ("qkv dW", 256usize, 8usize, 768usize),
        ("proj dW", 256, 8, 256),
        ("MLP up dW", 256, 8, 1024),
        ("MLP down dW", 1024, 8, 256),
    ] {
        let x = Matrix::randn(k, m, 1.0, &mut rng);
        let dy = Matrix::randn(k, n, 1.0, &mut rng);
        let mut c = Matrix::zeros(m, n);
        let flops = 2.0 * (m * k * n) as f64;
        let reps = ((2e7 / flops) as usize).clamp(1, 200);
        let mut rate = |run: &dyn Fn(&mut Matrix)| {
            let best = (0..31)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        run(&mut c);
                    }
                    black_box(&c);
                    t0.elapsed().as_secs_f64() / reps as f64
                })
                .skip(1)
                .fold(f64::INFINITY, f64::min);
            flops / best / 1e9
        };
        let (xt, dy) = (x.view().t(), dy.view());
        let fill_into = rate(&|c| {
            c.as_mut_slice().fill(0.0);
            gemm::matmul_into(xt, dy, c.view_mut());
        });
        let into = rate(&|c| gemm::matmul_into(xt, dy, c.view_mut()));
        let to = rate(&|c| gemm::matmul_to(xt, dy, c.view_mut()));
        println!(
            "  {:<18} {fill_into:>12.1} {into:>8.1} {to:>10.1}   {what}",
            format!("{m} x {k} x {n}")
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
/// at, on every build this host runs. LayerNorm is not compiled per
/// instruction set (its time is its sequential row sums), so it has one
/// number, under the build the rest of the crate dispatches to.
fn elementwise_workload_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let builds: Vec<Isa> = Isa::available().collect();
    println!("group elementwise_shapes (ns per element, best of 60 after warm-up)");
    let header: Vec<String> = builds.iter().map(|b| format!("{:>9}", b.name())).collect();
    println!("  {:<22} {:<10} {}", "kernel", "shape", header.join(" "));
    let row = |kernel: &str, shape: String, ns: &dyn Fn(Isa) -> Option<f64>, what: &str| {
        let cells: Vec<String> = builds
            .iter()
            .map(|&isa| match ns(isa) {
                Some(ns) => format!("{ns:>9.2}"),
                None => format!("{:>9}", "-"),
            })
            .collect();
        println!("  {kernel:<22} {shape:<10} {}   {what}", cells.join(" "));
    };
    let dispatched_only = |ns: f64| move |isa: Isa| (isa == Isa::active()).then_some(ns);
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

        let bias_gelu = |isa| {
            let mut fg = (f0.to_vec(), f0.to_vec());
            let reset = |(f, _): &mut (Vec<f32>, Vec<f32>)| f.copy_from_slice(f0);
            Some(ns_per_element(f0.len(), &mut fg, reset, |(f, g)| {
                ew::bias_gelu_with(isa, f, bias, g)
            }))
        };
        row(
            "bias+GeLU forward",
            format!("{rows} x {mlp}"),
            &bias_gelu,
            what,
        );

        let gelu_backward = |isa| {
            let mut d = f0.to_vec();
            let reset = |d: &mut Vec<f32>| d.copy_from_slice(f0);
            Some(ns_per_element(f0.len(), &mut d, reset, |d| {
                ew::gelu_backward_with(isa, f0, d)
            }))
        };
        row(
            "GeLU backward",
            format!("{rows} x {mlp}"),
            &gelu_backward,
            what,
        );

        // The rows as attention runs them: `seq` rows, row `r` keeping
        // `r + 1` scores, four side by side; per live element.
        let live = seq * (seq + 1) / 2;
        let softmax = |isa| {
            let mut scores = scores0.clone();
            let reset = |s: &mut Matrix| s.as_mut_slice().copy_from_slice(scores0.as_slice());
            Some(ns_per_element(live, &mut scores, reset, |s| {
                ew::causal_softmax_rows_with(isa, s.as_mut_slice(), (seq, seq), (1, seq), 0.125)
            }))
        };
        row(
            "causal softmax rows",
            format!("{seq} x {seq}"),
            &softmax,
            what,
        );
        let softmax_backward = |isa| {
            let mut grads = scores0.clone();
            let reset = |g: &mut Matrix| g.as_mut_slice().copy_from_slice(scores0.as_slice());
            let shape = (seq, seq, seq);
            Some(ns_per_element(live, &mut grads, reset, |g| {
                let p = scores0.as_slice();
                ew::causal_softmax_backward_rows_with(
                    isa,
                    p,
                    g.as_mut_slice(),
                    shape,
                    (1, seq),
                    0.125,
                )
            }))
        };
        row(
            "causal softmax bwd rows",
            format!("{seq} x {seq}"),
            &softmax_backward,
            what,
        );

        let bias_residual = |isa| {
            let mut o = x0.to_vec();
            let reset = |o: &mut Vec<f32>| o.copy_from_slice(x0);
            Some(ns_per_element(x0.len(), &mut o, reset, |o| {
                ew::bias_residual_add_with(isa, o, &bias[..h], x0)
            }))
        };
        row(
            "bias+residual",
            format!("{rows} x {h}"),
            &bias_residual,
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
            &dispatched_only(forward),
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
            &dispatched_only(backward),
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
        let step = ew::AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 0.1,
            bc2: 0.001,
            scale: 1.0,
        };
        let adam = |isa| {
            let mut state = (vec![0.1f32; n], vec![0.0f32; n], vec![0.0f32; n]);
            Some(ns_per_element(
                n,
                &mut state,
                |_| (),
                |(p, m, v)| ew::adam_update_with(isa, p, grads.as_slice(), m, v, step),
            ))
        };
        row("Adam (per parameter)", format!("{n}"), &adam, what);
    }
}

/// Attention's forward and backward passes over every (batch, head) pair
/// at the shapes the workloads run them at, on the active build: wall
/// microseconds (best of 30 after a warm-up) and model GFLOP/s, counting
/// the full `s × s` scores as the paper's model FLOPs do — `12·s²·d` per
/// pair, four products of `2·s²·d` backward and two forward.
fn attention_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    println!(
        "group attention (fwd + bwd on {}, best of 30 after warm-up; model flops 12*s^2*d per pair)",
        gemm::active_build()
    );
    println!(
        "  {:<28} {:>9} {:>9}",
        "batch x seq x heads x d", "us", "GFLOP/s"
    );
    for (what, batch, seq, heads, head_dim) in [
        ("serial_wide", 3usize, 64usize, 8usize, 32usize),
        ("ptd222_thread, proc222_uds rank (t=2)", 2, 32, 2, 32),
    ] {
        let core = AttentionCore {
            batch,
            seq,
            heads,
            head_dim,
        };
        let local = heads * head_dim;
        let qkv = Matrix::randn(batch * seq, 3 * local, 1.0, &mut rng);
        let dout = Matrix::randn(batch * seq, local, 1.0, &mut rng);
        let best = (0..31)
            .map(|_| {
                let t0 = Instant::now();
                let (out, cache) = core.forward(&qkv);
                black_box(core.backward(&qkv, &cache, &dout));
                black_box(out);
                t0.elapsed().as_secs_f64()
            })
            .skip(1)
            .fold(f64::INFINITY, f64::min);
        let flops = 12.0 * (batch * heads * seq * seq * head_dim) as f64;
        println!(
            "  {:<28} {:>9.1} {:>9.1}   {what}",
            format!("{batch} x {seq} x {heads} x {head_dim}"),
            best * 1e6,
            flops / best / 1e9
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
    println!("tensor engine build on this host: {}", gemm::active_build());
    gemm_scaling();
    gemm_workload_shapes();
    weight_grad_shapes();
    elementwise_workload_shapes();
    attention_shapes();
    gpt_step();
}
