//! `megatron-tensor` frozen at commit 4bd499f: the GPT forward/backward
//! pass and Adam exactly as the live crate had them when the benchmark was
//! defined. The benchmark times a training step of this copy between
//! slices of the live workload; see `Cargo.toml` for why it must not change.

pub mod adam;
pub mod gemm;
pub mod gpt;
pub mod layers;
mod matrix;

pub use adam::Adam;
pub use matrix::Matrix;
