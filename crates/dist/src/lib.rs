//! Thread-per-GPU distributed training runtime.
//!
//! Every "GPU" is an OS thread; collectives are the `megatron-collective`
//! ring/hierarchical step programs executed over per-edge mailboxes
//! (deterministic chunk routing, so every member of a group computes
//! bit-identical results and sends exactly the bytes the simulator
//! models); pipeline stages exchange activations and gradients over
//! channels. On top of that substrate this
//! crate implements the paper's three parallelism axes *for real*:
//!
//! - **Tensor model parallelism** (§2.3): column-parallel QKV/fc1 and
//!   row-parallel proj/fc2 with the conjugate `f`/`g` operators — two
//!   all-reduces forward, two backward per layer ([`block`]).
//! - **Pipeline model parallelism** (§2.2): the GPipe, 1F1B, and
//!   interleaved 1F1B schedules from `megatron-schedule`, executed with
//!   strict optimizer semantics (flush + synchronized step).
//! - **Data parallelism** (§2.1): batch sharding with averaged gradient
//!   all-reduce.
//!
//! The headline property, proven in this crate's tests and the workspace
//! integration tests: for any (p, t, d) and schedule, PTD-P training
//! computes the *same* losses and the *same* final weights as serial
//! single-process training (up to f32 reduction rounding).
//!
//! The same job also runs bit-identically as `p·t·d` OS processes over
//! sockets ([`proc`]). Either way [`supervisor`] holds the one recovery loop,
//! generic over a [`JobBackend`] that runs a single attempt:
//! [`ThreadBackend`] for rank threads, [`ProcBackend`] for rank processes.

pub mod assemble;
pub mod block;
pub mod checkpoint;
pub mod comm;
pub mod health;
pub mod proc;
pub mod shard;
pub mod supervisor;
pub mod trainer;
pub mod vocab;

pub use block::{ParallelBlock, ParallelBlockCache};
pub use checkpoint::{CheckpointError, CheckpointStore, Restored};
pub use comm::{
    CollectiveKind, CollectiveOp, CommError, CommPanic, CommVolume, Group, GroupMember,
    StallContext, TransportConfig, WireKind, BYTES_F32, DEFAULT_COMM_TIMEOUT,
};
pub use health::{HealthMonitor, HealthReport, RankCondition};
pub use proc::{JobSpec, LaunchHandle, ProcBackend, ProcOutcome, RankOutput, WorkerExit};
pub use supervisor::{
    Attempt, AttemptFailure, AttemptOutcome, CapacityEvent, Incident, IncidentCause, JobBackend,
    JobShape, Reconfiguration, ReconfigureDirection, Supervisor, SupervisorConfig,
    SupervisorReport, ThreadBackend,
};
pub use trainer::{
    KillSwitch, PtdpSpec, PtdpTrainer, RankCommOps, RankCommVolume, RunControl, ThreadKey,
    ThreadState, TrainError, TrainLog, TrainOutcome, TrainSnapshot,
};
