//! **Process mode**: run a `(p, t, d)` job as `p·t·d` real OS processes
//! over the socket transport (Unix-domain by default, TCP loopback on
//! request) instead of `p·t·d` threads over in-process mailboxes.
//!
//! The launcher ([`launch`]) forks/execs one worker per flat rank
//! (re-invoking the current executable with `--proc-worker <dir> <rank>`),
//! after writing the serialized [`JobSpec`] and its own heartbeat address
//! into a rendezvous directory. Each worker binds its own
//! [`SocketNode`], publishes `rank-R.addr` / `rank-R.pid` files
//! (atomically: write-temp + rename), waits for every peer's address, and
//! then calls the same per-rank function a rank thread runs
//! (`trainer::run_rank`) — its tensor and data groups are process-mode
//! [`Group`]s over [`SocketChannel`]s, and each of its pipeline lane ends
//! is a [`SocketChannel`] the rank loop sends on and receives from on its
//! own thread. All of a process's channels share its [`SocketNode`], so
//! whichever socket call the training thread waits in also writes what
//! every other channel queued (see `megatron_collective::socket`).
//!
//! Determinism is the whole point: the collectives execute the exact same
//! step programs with the exact same chunk routing as the mailbox
//! transport, and the lanes carry activations byte-for-byte, so an
//! N-process run produces **bit-identical** losses, final parameters, and
//! per-rank byte counts to the in-process run (proven in
//! `tests/process_mode.rs`). What a rank measured crosses the process
//! boundary as a `rank-R.out.json` report (`report.rs` owns the format)
//! that encodes every `f32` as its `u32` bit pattern — no decimal
//! round-trip.
//!
//! ## Channel-id map
//!
//! Every logical communicator gets a stable channel id, so one listener
//! per process serves all of them:
//!
//! | id | communicator |
//! |----|--------------|
//! | `1000 + pi·d + di` | tensor group of `(pi, di)`, members `ti ∈ 0..t` |
//! | `2000 + pi·t + ti` | data group of `(pi, ti)`, members `di ∈ 0..d` |
//! | `3000 + 2·s + dir` | pipeline boundary `s` lane (2 ranks: sender 0, receiver 1) |
//! | `4000` | heartbeats (`world + 1` ranks; the launcher is rank `world`) |
//!
//! ## Failure semantics
//!
//! A dead peer *process* cannot be poisoned (no shared memory), so every
//! stall surfaces as [`CommError::Timeout`](crate::comm::CommError) after
//! the group timeout — with the peer's **pid and socket address** attached
//! to the [`StallContext`](crate::comm::StallContext). A pipeline lane
//! uses the same convention: a receive that sees no frame for the comm
//! timeout ends the rank with `PipelineBroken`, naming the stage neighbor
//! with the same pid and address. Liveness is tracked out-of-band: each
//! worker runs a beacon thread that sends a 1-element heartbeat frame to
//! the launcher every [`JobSpec::hb_period`], and the per-iteration
//! [`RunControl::on_beat`](crate::trainer::RunControl) hook beats too, so
//! the launcher's [`HealthMonitor`] — fed by one reader thread waiting on
//! every rank's heartbeat stream at once — classifies a SIGKILLed rank as
//! dead while stalled survivors keep beating. A send never waits, so a
//! beat never queues behind the training thread's socket waits.
//!
//! [`SocketNode`]: megatron_collective::SocketNode
//! [`SocketChannel`]: megatron_collective::SocketChannel
//! [`Group`]: crate::comm::Group
//! [`HealthMonitor`]: crate::health::HealthMonitor

mod backend;
mod launch;
mod rendezvous;
mod report;
mod spec;
mod worker;

pub use backend::ProcBackend;
pub use launch::{launch, launch_configured, LaunchHandle, ProcOutcome, WorkerExit};
pub use report::RankOutput;
pub use spec::JobSpec;
pub use worker::{maybe_worker, worker_main};
