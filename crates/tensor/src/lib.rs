//! A real (if small) CPU tensor engine with hand-written backward passes.
//!
//! This crate is the numerical substrate for the thread-per-GPU distributed
//! runtime (`megatron-dist`): it provides everything a GPT forward/backward
//! pass needs — GEMM, GeLU, LayerNorm, causal multi-head attention,
//! embeddings, cross-entropy — plus the Adam optimizer and a
//! finite-difference gradient checker.
//!
//! [`gemm`] multiplies in the paper's mixed precision: every operand is
//! rounded once to bf16 and every sum is f32. On a processor with AMX it
//! runs on the matrix unit (`TDPBF16PS` over 32-term chunks of `k`); other
//! processors run one register-blocked FMA kernel over strided views,
//! compiled once per instruction set ([`Isa`]: baseline, AVX2, AVX-512)
//! with a tile sized for each — 6×16, 6×16, 6×32 — whose builds all equal
//! the naive loop on rounded operands bit for bit. On either engine an
//! element's bits depend only on its row of `A`, its column of `B` and its
//! initial value — not on tiling, row count, view, thread or helper split.
//! The plain, `Aᵀ·B` and `A·Bᵀ` products are the same call with other
//! strides. Attention's products are one batched entry over the strided
//! views of every (batch, head) pair: on the matrix unit a pair is one pass
//! under one tile configuration that computes only the score tiles on or
//! below the diagonal, runs each row's softmax (and backward, its
//! gradient) as the rows leave the tiles and skips the chunks of `k` whose
//! terms are all exact zeros; the FMA builds run it pair by pair as
//! products. The widest build the processor runs is picked at run time;
//! [`gemm::active_build`] names it, [`gemm::matmul_into_with`] runs a
//! named one.
//! Every pass of a step whose bits cannot depend on the thread is shared
//! with a process-wide set of parked helper threads (`pool`): the tile
//! blocks and operand packing of large products, Adam, gradient zeroing
//! ([`zero_grads`]), attention's (batch, head) pairs in groups and the row
//! passes
//! (bias+GeLU, its backward, bias+residual, LayerNorm forward,
//! cross-entropy's rows). Each piece computes per element or per row
//! exactly what the whole pass computes, into buffers the caller made. The
//! caller always takes pieces itself and never waits for one a helper has
//! not already claimed; no thread is spawned per call. A job whose ranks
//! fill the host's cores holds a [`RankGuard`], and its passes never wake a
//! helper.
//! The first dispatch also sets up the process (`Isa::active`): besides the
//! matrix unit's tile grant it tells glibc to keep freed memory in the
//! heap, so a steady-state training step reuses the pages the previous step
//! freed instead of faulting fresh ones in.
//!
//! [`elementwise`] is the other half of a step, built the same way: GeLU,
//! the Adam update, the causal softmax rows and their backward, bias and
//! residual adds and the
//! in-crate `exp` they rest on are plain loops over zipped slices, compiled
//! for the same three instruction sets (`name` dispatches, `name_with` runs
//! a named build; the AMX build runs the AVX-512 one). Its contract is per-element IEEE arithmetic in source
//! order — no fused multiply-add (Rust emits one only for an explicit
//! `mul_add`), no libm call — so an element's bits do not depend on lane,
//! instruction set, slice length or thread. The layers
//! apply the paper's §4.2 fusions through it (bias+GeLU, bias+residual,
//! scale+mask+softmax) and attention reads q/k/v in place from the fused
//! QKV product.
//!
//! Dropout is intentionally omitted: the reproduction's correctness claims
//! (tensor/pipeline/data-parallel execution computes the same gradients as
//! serial execution) require deterministic math, and dropout contributes
//! nothing to the performance phenomena under study.
//!
//! Everything is stored as `f32`, row-major, and deliberately simple: shapes are
//! explicit `(rows, cols)` pairs, layers own their parameters and gradient
//! buffers, and every `forward` returns the cache its `backward` needs.

pub mod adam;
#[cfg(target_arch = "x86_64")]
mod amx;
pub mod elementwise;
pub mod gemm;
pub mod gpt;
pub mod gradcheck;
pub mod layers;
mod matrix;
mod pool;
mod simd;

pub use adam::{zero_grads, Adam, AdamState};
pub use matrix::Matrix;
pub use pool::{helper_blocks, RankGuard};
pub use simd::Isa;
