//! End-to-end PTD-P training-iteration simulation — the paper's primary
//! contribution — and the §3 description of a job it prices.
//!
//! The description is four modules:
//!
//! - [`cluster`]: the hardware — GPU presets with a roofline compute-time
//!   model, and the node / fat-tree interconnect the ranks are placed on;
//! - [`model`]: GPT model descriptions — parameter counts (paper Eq. 2),
//!   FLOPs (Eq. 3), per-layer op lists and the memory model;
//! - [`parallel`]: PTD-P `(p, t, d)` configurations, the rank mapping, the
//!   one layout enumerator, and [`parallel::analysis`], the one home of the
//!   §3 closed forms (bubble fraction, Eq. 1, and every communication
//!   volume, all from one ring factor `2(g−1)/g`);
//! - [`net`]: the simulated NVLink / InfiniBand network that lowers the
//!   shared `megatron-collective` step programs onto discrete-event tasks,
//!   plus closed-form collective times ([`net::analytical`]).
//!
//! A [`TrainingRun`] pairs a GPT model with a
//! [`ClusterSpec`](cluster::ClusterSpec), a
//! [`ParallelConfig`](parallel::ParallelConfig), and
//! [`TrainingOptions`] (schedule, scatter/gather, fusion, recomputation).
//! [`TrainingRun::simulate`] then:
//!
//! 1. prices every pipeline stage's forward/backward work from the op lists
//!    ([`model::ops`]) on the roofline GPU model ([`cluster::GpuSpec`]),
//!    including tensor-parallel all-reduces over the *actual* rank placement
//!    ([`parallel::RankMapper`] + [`net::analytical`]) — so a tensor group
//!    spilling out of a node automatically pays InfiniBand prices;
//! 2. builds the pipeline schedule (`megatron-schedule`) and lowers it to a
//!    task DAG: compute tasks per (device, microbatch, chunk) and
//!    inter-stage transfers on per-device network ports (forward and
//!    backward traffic contend on the same port, as on real HCAs), with the
//!    §4.1 scatter/gather optimization selectable;
//! 3. appends the data-parallel gradient all-reduce and optimizer step;
//! 4. runs the discrete-event simulator and distills an
//!    [`IterationReport`]: iteration time, achieved FLOP/s per GPU, percent
//!    of peak, aggregate FLOP/s, bubble fraction, communication volumes,
//!    and per-GPU memory.
//!
//! Every question of the form "how long does this layout take" is answered
//! here, from one layer price (`costs::price_layer`): the simulator, the
//! §3 configuration [`heuristics`], the [`zero`] baseline, and the
//! [`elastic`] layout ranking a supervisor shrinks to. Where a job's wall
//! time goes once failures enter is one [`goodput::Ledger`].

mod checkpoint;
pub mod cluster;
mod costs;
pub mod elastic;
pub mod goodput;
pub mod heuristics;
pub mod model;
pub mod net;
pub mod parallel;
mod report;
mod simulate;
pub mod zero;

pub use checkpoint::{CheckpointIo, FilesystemSpec};
pub use costs::StageCost;
pub use report::{CommVolumes, IterationReport, TimeBreakdown};
pub use simulate::{RunError, TrainingOptions, TrainingRun};
