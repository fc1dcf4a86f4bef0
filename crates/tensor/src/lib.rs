//! A real (if small) CPU tensor engine with hand-written backward passes.
//!
//! This crate is the numerical substrate for the thread-per-GPU distributed
//! runtime (`megatron-dist`): it provides everything a GPT forward/backward
//! pass needs — GEMM, GeLU, LayerNorm, causal multi-head attention,
//! embeddings, cross-entropy — plus the Adam optimizer and a
//! finite-difference gradient checker.
//!
//! [`gemm`] is one register-blocked kernel over strided views; the plain,
//! `Aᵀ·B` and `A·Bᵀ` products and attention's per-head blocks are the same
//! call with other strides. Its contract is the summation order: every
//! output element is accumulated from `0.0` in ascending `k`, product
//! rounded, then added, so results do not depend on tiling, row count,
//! thread or instruction set and equal the naive triple loop bit for bit.
//! The body is compiled once per instruction set ([`Isa`]: baseline, AVX2,
//! AVX-512) with a tile sized for each — 6×16, 6×16, 6×32 — and the widest
//! build the processor runs is picked at run time; [`gemm::active_build`]
//! names it, [`gemm::matmul_into_with`] runs a named one.
//! Large products are shared with a process-wide set of parked helper
//! threads (`pool`): the caller always takes blocks itself and never waits
//! for one a helper has not already claimed; no thread is spawned per call.
//!
//! [`elementwise`] is the other half of a step, built the same way: GeLU,
//! the Adam update, the causal softmax row, bias and residual adds and the
//! in-crate `exp` they rest on are plain loops over zipped slices, compiled
//! for the same three instruction sets (`name` dispatches, `name_with` runs
//! a named build). Its contract is per-element IEEE arithmetic in source
//! order — no fused multiply-add, no libm call — so an element's bits do
//! not depend on lane, instruction set, slice length or thread. The layers
//! apply the paper's §4.2 fusions through it (bias+GeLU, bias+residual,
//! scale+mask+softmax) and attention reads q/k/v in place from the fused
//! QKV product.
//!
//! Dropout is intentionally omitted: the reproduction's correctness claims
//! (tensor/pipeline/data-parallel execution computes the same gradients as
//! serial execution) require deterministic math, and dropout contributes
//! nothing to the performance phenomena under study.
//!
//! Everything is `f32`, row-major, and deliberately simple: shapes are
//! explicit `(rows, cols)` pairs, layers own their parameters and gradient
//! buffers, and every `forward` returns the cache its `backward` needs.

pub mod adam;
pub mod elementwise;
pub mod gemm;
pub mod gpt;
pub mod gradcheck;
pub mod layers;
mod matrix;
mod pool;
mod simd;

pub use adam::{Adam, AdamState};
pub use matrix::Matrix;
pub use simd::Isa;
