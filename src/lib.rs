//! Facade crate re-exporting the whole Megatron PTD-P reproduction workspace.
//!
//! This workspace reproduces "Efficient Large-Scale Language Model Training
//! on GPU Clusters Using Megatron-LM" (Narayanan et al., SC '21). See
//! `README.md` for an overview, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The sub-crates (each re-exported here as a module):
//!
//! - [`sim`]: deterministic discrete-event simulation kernel.
//! - [`collective`]: transport-agnostic ring/hierarchical collective step
//!   programs — the single definition both the real runtime and the
//!   simulator execute.
//! - [`schedule`]: pipeline schedules — GPipe, 1F1B, interleaved 1F1B.
//! - [`data`]: synthetic corpus generation, document packing, sharded
//!   data loading.
//! - [`core`]: the §3 description of a job — the GPU / node / cluster
//!   hardware with a roofline compute-time model ([`core::cluster`]), GPT
//!   model descriptions ([`core::model`]: Eq. 2 parameters, Eq. 3 FLOPs,
//!   per-layer op lists, memory model), PTD-P `(p, t, d)` configurations
//!   with the rank mapping, the one layout enumerator and the §3 closed
//!   forms ([`core::parallel`]), and the simulated NVLink / InfiniBand
//!   network that lowers [`collective`] programs onto discrete-event tasks
//!   ([`core::net`]) — plus the end-to-end training-iteration simulation
//!   producing the paper's reported metrics, and everything priced with
//!   it: the §3 configuration heuristics, the ZeRO-3 baseline (§5.2), and
//!   the layout ranking the elastic supervisor shrinks to.
//! - [`tensor`]: real CPU tensor engine with hand-written backward passes.
//! - [`dist`]: thread-per-GPU distributed runtime running real tensor /
//!   pipeline / data parallel training, durable sharded checkpoints, and
//!   the auto-recovery supervisor.
//! - [`telemetry`]: per-rank span tracing, metrics, shared Chrome-trace
//!   export, and the cross-rank critical-path / time-attribution analyzer.

pub use megatron_collective as collective;
pub use megatron_core as core;
pub use megatron_data as data;
pub use megatron_dist as dist;
pub use megatron_schedule as schedule;
pub use megatron_sim as sim;
pub use megatron_telemetry as telemetry;
pub use megatron_tensor as tensor;
