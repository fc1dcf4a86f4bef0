//! Shared-memory collectives over thread groups.
//!
//! A [`Group`] is the moral equivalent of an NCCL communicator: a fixed set
//! of ranks that issue the *same sequence* of collective calls (SPMD).
//! Collectives are no longer faked on a shared blackboard: each call builds
//! the transport-agnostic step [`Program`] from `megatron-collective` (ring
//! all-reduce / all-gather / reduce-scatter, pipelined ring broadcast,
//! two-level hierarchical all-reduce) and executes it over per-rank
//! point-to-point mailboxes, moving actual `f32` chunks between rank
//! threads. Reduction work is spread across ranks — each combines its own
//! incoming chunks — instead of serializing on one mutex per buffer, and
//! every rank still ends bit-identical because the all-gather phase
//! replicates the very chunks that were reduced. A message of at least
//! [`LEND_MIN`](coll::LEND_MIN) floats is not even copied: the mailbox
//! lends the sender's slices, and the receiver combines straight from them
//! (`Transport::lend`).
//!
//! Per-member [`CommVolume`] tallies accumulate from the transport-level
//! messages this rank actually sent, so "real bytes == simulated bytes" is
//! a structural identity with the simulated network's lowering of the same
//! programs (`megatron_core::net`), not a pair of formulas that happen to
//! agree.
//!
//! Failure handling: a group is poisonable. When a member thread panics
//! (its [`GroupMember`] is dropped mid-unwind) or a rank is deliberately
//! killed via [`GroupMember::poison`], every peer blocked in — or later
//! entering — a collective gets
//! [`CommError::Poisoned`] instead of hanging. A rank that simply stops
//! communicating trips [`CommError::Timeout`] in its peers after the
//! group's configured timeout — now carrying a [`StallContext`] naming the
//! collective, the step, and the peer that stalled — and poisons the group
//! so the failure propagates.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use megatron_collective::{self as coll, Program, ReduceOp, SocketChannel, SocketError, Transport};

/// Which wire a group's step programs execute over.
///
/// `Mailbox` is the in-process default. The socket kinds declare *process
/// mode*: ranks are separate OS processes, the group is built with
/// [`Group::with_socket`], and every collective crosses a real kernel
/// socket (`megatron_collective::socket`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireKind {
    /// In-process mailboxes between rank threads (the default).
    #[default]
    Mailbox,
    /// Unix-domain sockets between rank processes.
    Uds,
    /// TCP sockets between rank processes (loopback or cross-host).
    Tcp,
}

impl WireKind {
    /// Does this wire kind run over real sockets?
    pub fn is_socket(&self) -> bool {
        matches!(self, WireKind::Uds | WireKind::Tcp)
    }
}

/// Wire configuration of a [`Group`]: which wire carries the chunks. The
/// default is the mailbox.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportConfig {
    /// Which wire the collectives run over. `Uds`/`Tcp` is declarative:
    /// the launcher reads it to decide process mode, and
    /// [`Group::with_socket`] supplies the actual channel.
    pub wire: WireKind,
}

/// Bytes per element of the real engine's `f32` payloads: counted
/// elements times this are the bytes a rank really sent. (The paper's
/// analytical formulas in `megatron_core::parallel::analysis` assume fp16,
/// i.e. 2 bytes — counted volumes are exactly `4 / 2 = 2×` those formulas.)
pub const BYTES_F32: f64 = 4.0;

/// Running per-member tally of algorithmic communication volume, split by
/// collective type. Volumes are the bytes this rank's transport actually
/// sent (egress), accumulated message by message as the step programs
/// execute — what this rank's NIC would move on real hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommVolume {
    /// Bytes from all-reduce (sum/max/mean, flat or hierarchical) calls.
    pub all_reduce_bytes: f64,
    /// Bytes from all-gather calls.
    pub all_gather_bytes: f64,
    /// Bytes from reduce-scatter calls.
    pub reduce_scatter_bytes: f64,
    /// Bytes from broadcast calls.
    pub broadcast_bytes: f64,
    /// Number of completed collectives (size-1 no-ops excluded).
    pub ops: u64,
}

impl CommVolume {
    /// Total bytes across all collective types.
    pub fn total_bytes(&self) -> f64 {
        self.all_reduce_bytes
            + self.all_gather_bytes
            + self.reduce_scatter_bytes
            + self.broadcast_bytes
    }

    /// Element-wise sum of two tallies.
    #[must_use]
    pub fn plus(&self, other: &CommVolume) -> CommVolume {
        CommVolume {
            all_reduce_bytes: self.all_reduce_bytes + other.all_reduce_bytes,
            all_gather_bytes: self.all_gather_bytes + other.all_gather_bytes,
            reduce_scatter_bytes: self.reduce_scatter_bytes + other.reduce_scatter_bytes,
            broadcast_bytes: self.broadcast_bytes + other.broadcast_bytes,
            ops: self.ops + other.ops,
        }
    }
}

/// One collective this member completed, recorded for replay: feeding the
/// same ops through `megatron_core::net::Network`'s lowering reproduces the
/// byte flow the real transport just moved (the real-vs-sim identity test
/// drives exactly this). A segmented collective is recorded as one op per segment: the
/// same bytes per rank and per round as the one message per round that
/// carried them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveOp {
    /// Which algorithm ran.
    pub kind: CollectiveKind,
    /// Buffer (or segment) elements.
    pub elems: usize,
}

/// The algorithm of a recorded [`CollectiveOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Flat ring all-reduce (sum, max, and mean all share the wire shape).
    AllReduce,
    /// Ring all-gather: rank `j` starts owning chunk `j`.
    AllGather,
    /// Ring reduce-scatter.
    ReduceScatter,
    /// Pipelined ring broadcast from `root`.
    Broadcast {
        /// Broadcasting rank.
        root: usize,
    },
    /// Two-level hierarchical all-reduce with `local` ranks per node.
    HierarchicalAllReduce {
        /// Ranks per node.
        local: usize,
    },
}

impl CollectiveOp {
    /// The exact step program this op executed over `ranks` ranks.
    pub fn program(&self, ranks: usize) -> Program {
        match self.kind {
            CollectiveKind::AllReduce => coll::ring_all_reduce(ranks, self.elems, ReduceOp::Sum),
            CollectiveKind::AllGather => coll::ring_all_gather(ranks, self.elems),
            CollectiveKind::ReduceScatter => {
                coll::ring_reduce_scatter(ranks, self.elems, ReduceOp::Sum)
            }
            CollectiveKind::Broadcast { root } => coll::ring_broadcast(ranks, self.elems, root),
            CollectiveKind::HierarchicalAllReduce { local } => {
                coll::hierarchical_all_reduce(ranks, self.elems, local, ReduceOp::Sum)
            }
        }
    }
}

/// Default collective timeout; generous next to the microseconds a healthy
/// shared-memory collective takes, so it only fires on real failures.
pub const DEFAULT_COMM_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a timed-out collective stalled: which algorithm, which of its
/// steps, and which peer never delivered (or accepted) a chunk. In process
/// mode the peer is further identified by its OS pid (from its hello
/// frame) and listener address, so a stall is debuggable from one rank's
/// log alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallContext {
    /// Collective name (`Program::kind`).
    pub collective: &'static str,
    /// Zero-based step that stalled.
    pub round: usize,
    /// Total steps in the collective.
    pub rounds: usize,
    /// The peer involved in the stalled step.
    pub peer: usize,
    /// The stalled peer's OS process id (process mode only, and only if
    /// the peer ever connected).
    pub peer_pid: Option<u32>,
    /// The stalled peer's socket address (process mode only).
    pub peer_addr: Option<String>,
}

impl StallContext {
    /// A context with no process-mode identity (thread mode, or the peer
    /// never connected).
    pub fn new(collective: &'static str, round: usize, rounds: usize, peer: usize) -> StallContext {
        StallContext {
            collective,
            round,
            rounds,
            peer,
            peer_pid: None,
            peer_addr: None,
        }
    }

    /// Name the peer by what `chan` knows of group rank `peer`: its pid
    /// (if it ever connected) and its listener address.
    pub(crate) fn identify(&mut self, chan: &SocketChannel, peer: usize) {
        self.peer_pid = chan.peer_pid(peer);
        self.peer_addr = chan.peer_addr(peer).map(|a| a.to_string());
    }

    /// ` (pid P, addr)`, or as much of it as is known.
    pub(crate) fn write_identity(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.peer_pid, &self.peer_addr) {
            (Some(pid), Some(addr)) => write!(f, " (pid {pid}, {addr})"),
            (Some(pid), None) => write!(f, " (pid {pid})"),
            (None, Some(addr)) => write!(f, " ({addr})"),
            (None, None) => Ok(()),
        }
    }
}

impl fmt::Display for StallContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} timed out at step {}/{} waiting on rank {}",
            self.collective,
            self.round + 1,
            self.rounds,
            self.peer
        )?;
        self.write_identity(f)
    }
}

/// A collective failed instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer did not move within the group timeout; the context names the
    /// stalled step. The group is poisoned as a side effect.
    Timeout(StallContext),
    /// The group was poisoned: a peer panicked mid-collective, was killed
    /// via [`GroupMember::poison`], or previously timed out.
    Poisoned,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout(ctx) => ctx.fmt(f),
            CommError::Poisoned => write!(f, "communicator group is poisoned"),
        }
    }
}

impl std::error::Error for CommError {}

/// Typed panic payload thrown by the infallible collective wrappers
/// ([`GroupMember::all_reduce_sum`] and friends) when the communicator
/// fails. The trainer downcasts to this when classifying a worker panic,
/// so a comm failure can never be confused with any other panic no matter
/// how the message is worded.
#[derive(Debug, Clone)]
pub struct CommPanic(pub CommError);

impl fmt::Display for CommPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "collective failed: {}", self.0)
    }
}

/// Panic with a typed [`CommPanic`] payload on `Err`.
fn expect_comm<T>(r: Result<T, CommError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => std::panic::panic_any(CommPanic(e)),
    }
}

/// Transport-level failure, before step context is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawComm {
    Timeout,
    Poisoned,
}

/// One message queued in a [`Mailbox`].
enum Message {
    /// A copy the queue owns.
    Owned(Vec<f32>),
    /// The sender's own slices ([`Transport::lend`]). The receiver reads
    /// them under the mailbox lock, and the sender waits for them to leave
    /// the queue — or takes them out — before its program returns.
    Lent(Vec<LentPart>),
}

impl Message {
    fn is_lent(&self) -> bool {
        matches!(self, Message::Lent(_))
    }

    /// Hand the message's parts to `take`.
    fn read<R>(&self, take: impl FnOnce(&[&[f32]]) -> R) -> R {
        match self {
            Message::Owned(data) => take(&[data]),
            Message::Lent(parts) => {
                // SAFETY: a lent message is read only while it is queued,
                // under its mailbox's lock, and its sender keeps every part
                // valid and unwritten until the message has left the queue
                // (`Transport::lend`'s contract, kept by `reclaim`).
                let parts: Vec<&[f32]> = parts
                    .iter()
                    .map(|p| unsafe { std::slice::from_raw_parts(p.ptr, p.len) })
                    .collect();
                take(&parts)
            }
        }
    }
}

/// One slice of a lent message. A raw pointer, because the slice is
/// borrowed from the sender's frame, not owned by the group.
struct LentPart {
    ptr: *const f32,
    len: usize,
}

// SAFETY: the receiving thread dereferences a part only under the rules of
// `Message::read`, while the sender keeps the floats alive and unwritten.
unsafe impl Send for LentPart {}

/// One directed point-to-point channel between two ranks of a group.
struct Mailbox {
    q: Mutex<VecDeque<Message>>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }
}

/// The socket side of a process-mode group: this process's one member
/// executes its programs over this channel instead of the mailboxes.
struct SocketState {
    rank: usize,
    chan: Mutex<SocketChannel>,
}

/// Shared state of one communicator group: one mailbox per directed rank
/// pair and a poison flag — or, in process mode ([`Group::with_socket`]),
/// a kernel-socket channel carrying the same step programs to peer
/// *processes*.
pub struct Group {
    size: usize,
    // mail[dst * size + src]: chunks in flight from src to dst.
    mail: Vec<Mailbox>,
    poisoned: AtomicBool,
    timeout: Duration,
    // Process mode: the socket channel this process's member speaks over.
    socket: Option<SocketState>,
}

impl Group {
    /// Create a group of `size` ranks; hand one [`GroupMember`] per rank to
    /// its thread via [`Group::member`]. Collectives use
    /// [`DEFAULT_COMM_TIMEOUT`].
    pub fn new(size: usize) -> Arc<Group> {
        Group::with_timeout(size, DEFAULT_COMM_TIMEOUT)
    }

    /// Like [`Group::new`] with an explicit collective timeout.
    pub fn with_timeout(size: usize, timeout: Duration) -> Arc<Group> {
        assert!(size > 0);
        Arc::new(Group {
            size,
            mail: (0..size * size).map(|_| Mailbox::new()).collect(),
            poisoned: AtomicBool::new(false),
            timeout,
            socket: None,
        })
    }

    /// A *process-mode* group: this `Group` instance hosts exactly one
    /// member — `channel.rank()` — and every collective executes over the
    /// socket channel to peer processes. A peer's death, or a broken
    /// connection to it, surfaces as [`CommError::Timeout`] once the group
    /// timeout expires, never as `Poisoned` (poison cannot cross an address
    /// space); the timeout poisons this group, so its next collective fails
    /// at once. The channel is the wire: `_transport` is not read.
    pub fn with_socket(
        size: usize,
        timeout: Duration,
        _transport: TransportConfig,
        channel: SocketChannel,
    ) -> Arc<Group> {
        assert!(channel.rank() < size, "channel rank outside the group");
        Arc::new(Group {
            size,
            mail: Vec::new(),
            poisoned: AtomicBool::new(false),
            timeout,
            socket: Some(SocketState {
                rank: channel.rank(),
                chan: Mutex::new(channel),
            }),
        })
    }

    /// The member handle for `rank`.
    pub fn member(self: &Arc<Group>, rank: usize) -> GroupMember {
        assert!(rank < self.size);
        if let Some(sock) = &self.socket {
            assert!(
                rank == sock.rank,
                "a process-mode group hosts exactly one member (rank {})",
                sock.rank
            );
        }
        GroupMember {
            group: Arc::clone(self),
            rank,
            volume: Cell::new(CommVolume::default()),
            op_log: RefCell::new(Vec::new()),
        }
    }

    /// Ranks in the group.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the group has been poisoned by a failure.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Poison the group: raise the flag and wake every blocked receiver.
    fn poison_all(&self) {
        self.poisoned.store(true, Ordering::Release);
        for mb in &self.mail {
            // Take the lock so a receiver between its poison check and its
            // condvar wait cannot miss the wakeup. A mutex a dead peer
            // poisoned must not stop the cleanup.
            let _q = mb.q.lock().unwrap_or_else(|e| e.into_inner());
            mb.cv.notify_all();
        }
    }

    /// Enqueue `msg` for `dst` (non-blocking; mailboxes are unbounded). A
    /// small message arrives here as the concatenation of its parts, a
    /// large one as the sender's own slices (`MailTransport::lend`).
    fn post(&self, src: usize, dst: usize, msg: Message) -> Result<(), RawComm> {
        if self.is_poisoned() {
            return Err(RawComm::Poisoned);
        }
        let mb = &self.mail[dst * self.size + src];
        let Ok(mut q) = mb.q.lock() else {
            return Err(RawComm::Poisoned);
        };
        q.push_back(msg);
        mb.cv.notify_all();
        Ok(())
    }

    /// Dequeue the next message sent from `src` to `dst`, waiting until
    /// `deadline`, and hand it to `take` — a lent one under the mailbox
    /// lock, so that its sender, once it holds the lock and no longer sees
    /// it queued, knows nobody reads it. Queued data wins over poison (a
    /// completed send should be consumable), and a deadline miss poisons
    /// the whole group.
    fn fetch<R>(
        &self,
        src: usize,
        dst: usize,
        deadline: Instant,
        take: impl FnOnce(&Message) -> R,
    ) -> Result<R, RawComm> {
        let mb = &self.mail[dst * self.size + src];
        let Ok(mut q) = mb.q.lock() else {
            return Err(RawComm::Poisoned);
        };
        loop {
            if let Some(msg) = q.pop_front() {
                if !msg.is_lent() {
                    drop(q);
                    return Ok(take(&msg));
                }
                let got = take(&msg);
                drop(q);
                // The sender may be waiting in `reclaim` for this message.
                mb.cv.notify_all();
                return Ok(got);
            }
            if self.is_poisoned() {
                return Err(RawComm::Poisoned);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(q);
                self.poison_all();
                return Err(RawComm::Timeout);
            }
            q = match mb.cv.wait_timeout(q, deadline - now) {
                Ok(pair) => pair.0,
                Err(_) => return Err(RawComm::Poisoned),
            };
        }
    }

    /// Wait until no message `src` lent is queued for `dst`. Once the group
    /// is poisoned, `deadline` passes (which poisons it) or this thread
    /// unwinds, take them out of the queue instead — at once, whatever
    /// state the lock is in, so no lent part outlives the call.
    fn reclaim(&self, src: usize, dst: usize, deadline: Instant) -> Result<(), RawComm> {
        let mb = &self.mail[dst * self.size + src];
        let mut q = mb.q.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.iter().any(Message::is_lent) {
                return Ok(());
            }
            let now = Instant::now();
            let failure = if self.is_poisoned() || std::thread::panicking() {
                Some(RawComm::Poisoned)
            } else if now >= deadline {
                Some(RawComm::Timeout)
            } else {
                None
            };
            if let Some(failure) = failure {
                q.retain(|msg| !msg.is_lent());
                drop(q);
                if failure == RawComm::Timeout {
                    self.poison_all();
                }
                return Err(failure);
            }
            q = mb
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// The mailbox-backed [`Transport`] one rank executes step programs over.
struct MailTransport<'a> {
    group: &'a Group,
    rank: usize,
    deadline: Instant,
    /// Peers this rank lent a message to since the last reclaim.
    lent_to: Vec<usize>,
}

impl<'a> MailTransport<'a> {
    fn new(group: &'a Group, rank: usize, deadline: Instant) -> Self {
        MailTransport {
            group,
            rank,
            deadline,
            lent_to: Vec::new(),
        }
    }
}

impl Transport for MailTransport<'_> {
    type Error = RawComm;

    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), RawComm> {
        self.group
            .post(self.rank, to, Message::Owned(parts.concat()))
    }

    /// Queue the parts themselves: the receiver combines straight from
    /// this rank's buffers.
    unsafe fn lend(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), RawComm> {
        let parts = parts
            .iter()
            .map(|p| LentPart {
                ptr: p.as_ptr(),
                len: p.len(),
            })
            .collect();
        self.group.post(self.rank, to, Message::Lent(parts))?;
        if !self.lent_to.contains(&to) {
            self.lent_to.push(to);
        }
        Ok(())
    }

    fn reclaim(&mut self) -> Result<(), RawComm> {
        // Every peer's queue is cleared, whichever fails first.
        let mut result = Ok(());
        for to in std::mem::take(&mut self.lent_to) {
            let reclaimed = self.group.reclaim(self.rank, to, self.deadline);
            result = result.and(reclaimed);
        }
        result
    }

    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), RawComm> {
        self.group
            .fetch(from, self.rank, self.deadline, |msg| msg.read(take))
    }
}

/// The socket-backed [`Transport`] of a process-mode group: a thin error
/// adapter over [`SocketChannel`]. A dead peer and a broken connection both
/// surface as the deadline, [`RawComm::Timeout`] — from this rank's view
/// the peer stopped moving, and the step context names it.
struct SockTransport<'a> {
    chan: &'a mut SocketChannel,
}

fn raw_from_socket(_: SocketError) -> RawComm {
    RawComm::Timeout
}

impl Transport for SockTransport<'_> {
    type Error = RawComm;

    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), RawComm> {
        self.chan.send(to, parts).map_err(raw_from_socket)
    }

    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), RawComm> {
        self.chan.recv(from, take).map_err(raw_from_socket)
    }
}

/// One rank's handle to a [`Group`]. Every collective must be called by all
/// ranks of the group, in the same order.
pub struct GroupMember {
    group: Arc<Group>,
    rank: usize,
    // `Cell`/`RefCell`, not atomics: a member belongs to exactly one rank
    // thread, so accounting costs a register copy, never a contended write.
    volume: Cell<CommVolume>,
    op_log: RefCell<Vec<CollectiveOp>>,
}

impl GroupMember {
    /// This member's rank within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.group.size
    }

    /// The algorithmic communication volume this member has completed.
    pub fn comm_volume(&self) -> CommVolume {
        self.volume.get()
    }

    /// Reset the tally, returning the previous value.
    pub fn take_comm_volume(&self) -> CommVolume {
        self.volume.replace(CommVolume::default())
    }

    /// Drain the log of collectives this member has completed (size-1
    /// no-ops excluded), in execution order.
    pub fn take_op_log(&self) -> Vec<CollectiveOp> {
        std::mem::take(&mut self.op_log.borrow_mut())
    }

    /// Poison the group: every peer blocked in — or later entering — a
    /// collective gets [`CommError::Poisoned`]. Used to simulate killing
    /// this rank; also invoked automatically when a member thread panics.
    pub fn poison(&self) {
        self.group.poison_all();
    }

    /// Execute `progs[k]` over segment `segs[k]`, all segments as one
    /// collective (one message per round), over the group's wire —
    /// mailboxes, or the socket channel in process mode — tally the
    /// measured egress into `slot`, count one collective and record `ops`
    /// (one per segment) for replay.
    fn run_programs(
        &self,
        progs: &[Program],
        segs: &mut [&mut [f32]],
        ops: &[CollectiveOp],
        slot: fn(&mut CommVolume) -> &mut f64,
    ) -> Result<(), CommError> {
        if self.group.is_poisoned() {
            return Err(CommError::Poisoned);
        }
        let deadline = Instant::now() + self.group.timeout;
        let result = if let Some(sock) = &self.group.socket {
            let mut chan = sock.chan.lock().unwrap();
            chan.set_deadline(deadline);
            coll::execute_segments(
                progs,
                self.rank,
                segs,
                &mut SockTransport { chan: &mut chan },
            )
        } else {
            let mut tp = MailTransport::new(&self.group, self.rank, deadline);
            coll::execute_segments(progs, self.rank, segs, &mut tp)
        };
        match result {
            Ok(report) => {
                let mut v = self.volume.get();
                *slot(&mut v) += report.sent_elems as f64 * BYTES_F32;
                v.ops += 1;
                self.volume.set(v);
                self.op_log.borrow_mut().extend_from_slice(ops);
                Ok(())
            }
            Err(fail) => Err(match fail.error {
                RawComm::Poisoned => CommError::Poisoned,
                RawComm::Timeout => {
                    // The mailbox path poisons inside `Group::fetch`; the
                    // socket path poisons here so later calls fail fast too.
                    self.group.poison_all();
                    let mut ctx =
                        StallContext::new(fail.collective, fail.round, fail.rounds, fail.peer);
                    if let Some(sock) = &self.group.socket {
                        ctx.identify(&sock.chan.lock().unwrap(), fail.peer);
                    }
                    CommError::Timeout(ctx)
                }
            }),
        }
    }

    /// Run `prog` over the whole of `buf` as one collective of `kind`.
    fn run_one(
        &self,
        prog: Program,
        buf: &mut [f32],
        kind: CollectiveKind,
        slot: fn(&mut CommVolume) -> &mut f64,
    ) -> Result<(), CommError> {
        let op = CollectiveOp {
            kind,
            elems: buf.len(),
        };
        self.run_programs(&[prog], &mut [buf], &[op], slot)
    }

    /// Run `kind`'s ring program over every segment of `segs` as one
    /// collective: one message per round carries every segment's chunk.
    fn run_segmented(
        &self,
        kind: CollectiveKind,
        segs: &mut [&mut [f32]],
        slot: fn(&mut CommVolume) -> &mut f64,
    ) -> Result<(), CommError> {
        let g = self.group.size;
        if g == 1 {
            return Ok(());
        }
        let ops: Vec<CollectiveOp> = segs
            .iter()
            .map(|seg| CollectiveOp {
                kind,
                elems: seg.len(),
            })
            .collect();
        let progs: Vec<Program> = ops.iter().map(|op| op.program(g)).collect();
        self.run_programs(&progs, segs, &ops, slot)
    }

    /// Fallible in-place sum all-reduce (ring; two members swap their
    /// buffers in one round). Every member ends with a bit-identical buffer:
    /// the ring's all-gather phase replicates the reduced chunks
    /// themselves, and both members of a swap add rank 0's operand first.
    pub fn try_all_reduce_sum(&self, buf: &mut [f32]) -> Result<(), CommError> {
        let g = self.group.size;
        if g == 1 {
            return Ok(());
        }
        let prog = coll::ring_all_reduce(g, buf.len(), ReduceOp::Sum);
        self.run_one(prog, buf, CollectiveKind::AllReduce, |v| {
            &mut v.all_reduce_bytes
        })
    }

    /// Fallible in-place element-wise max all-reduce (ring; two members
    /// swap their buffers in one round). A number beats a NaN, and of
    /// `+0.0` and `−0.0` the lower rank's wins ([`ReduceOp::Max`]); every
    /// member ends with the same bits.
    pub fn try_all_reduce_max(&self, buf: &mut [f32]) -> Result<(), CommError> {
        let g = self.group.size;
        if g == 1 {
            return Ok(());
        }
        let prog = coll::ring_all_reduce(g, buf.len(), ReduceOp::Max);
        self.run_one(prog, buf, CollectiveKind::AllReduce, |v| {
            &mut v.all_reduce_bytes
        })
    }

    /// Fallible in-place mean all-reduce (sum, then scale by `1/size`).
    pub fn try_all_reduce_mean(&self, buf: &mut [f32]) -> Result<(), CommError> {
        self.try_all_reduce_sum(buf)?;
        let k = 1.0 / self.group.size as f32;
        for b in buf {
            *b *= k;
        }
        Ok(())
    }

    /// Fallible two-level hierarchical all-reduce with `local` ranks per
    /// node (§5.9's multi-rail pattern; `size` must divide by `local`).
    /// Same result as [`GroupMember::try_all_reduce_sum`] up to float
    /// reduction order; less inter-node traffic when nodes are real.
    pub fn try_hierarchical_all_reduce_sum(
        &self,
        buf: &mut [f32],
        local: usize,
    ) -> Result<(), CommError> {
        let g = self.group.size;
        if g == 1 {
            return Ok(());
        }
        let prog = coll::hierarchical_all_reduce(g, buf.len(), local, ReduceOp::Sum);
        let kind = CollectiveKind::HierarchicalAllReduce { local };
        self.run_one(prog, buf, kind, |v| &mut v.all_reduce_bytes)
    }

    /// Fallible in-place segmented reduce-scatter: each segment is summed
    /// over the group by its own ring reduce-scatter, and this rank ends
    /// owning chunk `rank` ([`chunk_of`](coll::chunk_of)) of every segment
    /// — summed in exactly the order [`GroupMember::try_all_reduce_sum`]
    /// of that segment sums it. The rest of each segment is left partially
    /// reduced. All segments ride one message per round.
    pub fn try_reduce_scatter_sum(&self, segs: &mut [&mut [f32]]) -> Result<(), CommError> {
        self.run_segmented(CollectiveKind::ReduceScatter, segs, |v| {
            &mut v.reduce_scatter_bytes
        })
    }

    /// Fallible in-place segmented all-gather, the inverse shape of
    /// [`GroupMember::try_reduce_scatter_sum`]: each rank's chunk `rank` of
    /// every segment replaces that chunk on every other rank, so all ranks
    /// end with bit-identical segments. All segments ride one message per
    /// round.
    pub fn try_all_gather(&self, segs: &mut [&mut [f32]]) -> Result<(), CommError> {
        self.run_segmented(CollectiveKind::AllGather, segs, |v| &mut v.all_gather_bytes)
    }

    /// Fallible broadcast of `buf` from `root` to every rank, in place
    /// (pipelined ring: chunks stream `root → root+1 → …`).
    pub fn try_broadcast(&self, buf: &mut [f32], root: usize) -> Result<(), CommError> {
        let g = self.group.size;
        if g == 1 {
            return Ok(());
        }
        let prog = coll::ring_broadcast(g, buf.len(), root);
        self.run_one(prog, buf, CollectiveKind::Broadcast { root }, |v| {
            &mut v.broadcast_bytes
        })
    }

    /// In-place sum all-reduce; panics with [`CommPanic`] on failure.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) {
        expect_comm(self.try_all_reduce_sum(buf));
    }

    /// In-place element-wise max all-reduce; panics with [`CommPanic`] on
    /// failure.
    pub fn all_reduce_max(&self, buf: &mut [f32]) {
        expect_comm(self.try_all_reduce_max(buf));
    }

    /// In-place mean all-reduce; panics with [`CommPanic`] on failure.
    pub fn all_reduce_mean(&self, buf: &mut [f32]) {
        expect_comm(self.try_all_reduce_mean(buf));
    }

    /// Broadcast from `root`; panics with [`CommPanic`] on failure.
    pub fn broadcast(&self, buf: &mut [f32], root: usize) {
        expect_comm(self.try_broadcast(buf, root));
    }
}

impl Drop for GroupMember {
    fn drop(&mut self) {
        // A member dropped while its thread unwinds means the rank died
        // mid-collective-sequence: poison so peers error instead of hanging.
        if std::thread::panicking() {
            self.group.poison_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// All-gather `part` from every rank into the rank-ordered
    /// concatenation (one segment, each rank's part its chunk).
    fn gather(m: &GroupMember, part: &[f32]) -> Vec<f32> {
        let mut buf = vec![0.0f32; part.len() * m.size()];
        buf[m.rank() * part.len()..(m.rank() + 1) * part.len()].copy_from_slice(part);
        m.try_all_gather(&mut [&mut buf]).unwrap();
        buf
    }

    fn run_group<T: Send>(size: usize, f: impl Fn(GroupMember) -> T + Sync) -> Vec<T> {
        let group = Group::new(size);
        thread::scope(|s| {
            let handles: Vec<_> = (0..size)
                .map(|r| {
                    let m = group.member(r);
                    s.spawn(|| f(m))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_reduce_sums_and_is_identical() {
        let results = run_group(4, |m| {
            let mut buf = vec![m.rank() as f32, 1.0];
            m.all_reduce_sum(&mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_mean() {
        let results = run_group(4, |m| {
            let mut buf = vec![(m.rank() * 2) as f32];
            m.all_reduce_mean(&mut buf);
            buf[0]
        });
        assert!(results.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn all_reduce_max_takes_elementwise_max() {
        let results = run_group(3, |m| {
            let mut buf = vec![m.rank() as f32, -(m.rank() as f32)];
            m.all_reduce_max(&mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![2.0, 0.0]);
        }
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let results = run_group(3, |m| gather(&m, &[m.rank() as f32 * 10.0]));
        for r in &results {
            assert_eq!(r, &vec![0.0, 10.0, 20.0]);
        }
    }

    #[test]
    fn broadcast_from_root() {
        let results = run_group(3, |m| {
            let mut buf = if m.rank() == 1 {
                vec![7.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            m.broadcast(&mut buf, 1);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![7.0, 8.0]);
        }
    }

    #[test]
    fn reduce_scatter_leaves_each_rank_its_chunk_of_every_segment() {
        let results = run_group(2, |m| {
            // rank r contributes [r, r, r, r] and [r, r, r].
            let (mut a, mut b) = (vec![m.rank() as f32; 4], vec![m.rank() as f32; 3]);
            m.try_reduce_scatter_sum(&mut [&mut a, &mut b]).unwrap();
            let (ca, cb) = (
                coll::chunk_of(4, 2, m.rank()),
                coll::chunk_of(3, 2, m.rank()),
            );
            (m.rank(), a[ca.lo..ca.hi].to_vec(), b[cb.lo..cb.hi].to_vec())
        });
        for (rank, a, b) in results {
            assert_eq!(a, vec![1.0, 1.0], "rank {rank}");
            assert_eq!(b, vec![1.0; 2 - rank], "rank {rank}");
        }
    }

    #[test]
    fn hierarchical_all_reduce_sums_like_flat() {
        let results = run_group(6, |m| {
            let mut buf = vec![m.rank() as f32, 1.0, -(m.rank() as f32)];
            expect_comm(m.try_hierarchical_all_reduce_sum(&mut buf, 2));
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![15.0, 6.0, -15.0]);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let results = run_group(1, |m| {
            let mut buf = vec![3.0];
            m.all_reduce_sum(&mut buf);
            m.all_reduce_mean(&mut buf);
            let g = gather(&m, &buf);
            (buf[0], g)
        });
        assert_eq!(results[0], (3.0, vec![3.0]));
    }

    #[test]
    fn two_overlapping_group_families_stay_independent() {
        // 4 threads arranged as two row-groups {0,1},{2,3} and two
        // column-groups {0,2},{1,3} (the tensor/data group pattern):
        // interleaved collectives on both families must not interfere.
        use std::sync::Arc;
        let rows = [Group::new(2), Group::new(2)];
        let cols = [Group::new(2), Group::new(2)];
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|id| {
                    let (r, c) = (id / 2, id % 2);
                    let rm = Arc::clone(&rows[r]).member(c);
                    let cm = Arc::clone(&cols[c]).member(r);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for round in 0..4 {
                            let mut buf = vec![(id + round) as f32];
                            rm.all_reduce_sum(&mut buf); // sums over the row
                            let mut buf2 = vec![buf[0]];
                            cm.all_reduce_sum(&mut buf2); // then over the column
                            out.push(buf2[0]);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        // Row sums: r0 = (0+r)+(1+r), r1 = (2+r)+(3+r); column sum = total.
        for res in &results {
            for (round, v) in res.iter().enumerate() {
                let want = (1 + 2 + 3 + 4 * round) as f32;
                assert_eq!(*v, want, "round {round}");
            }
        }
    }

    #[test]
    fn panicked_rank_poisons_group_and_survivors_error() {
        // Rank 2 panics before joining the collective; its GroupMember is
        // dropped during unwinding and poisons the group. Both survivors
        // must get a CommError well within the timeout, not deadlock.
        let group = Group::with_timeout(3, Duration::from_secs(5));
        let started = Instant::now();
        let mut handles = Vec::new();
        for r in 0..3usize {
            let m = Arc::clone(&group).member(r);
            // Raw threads (not thread::scope): rank 2's panic must not tear
            // down the test before the survivors observe the error.
            handles.push(thread::spawn(move || {
                if m.rank() == 2 {
                    panic!("simulated GPU failure");
                }
                let mut buf = vec![m.rank() as f32; 4];
                m.try_all_reduce_sum(&mut buf).map(|()| buf)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        assert!(results[2].is_err(), "rank 2 should have panicked");
        for (r, result) in results.iter().take(2).enumerate() {
            let got = result.as_ref().expect("survivor must not panic");
            assert_eq!(got, &Err(CommError::Poisoned), "rank {r}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "survivors must error before the timeout, got {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn absent_rank_times_out_survivors_with_step_context() {
        // Rank 2 never calls the collective (and never panics): survivors
        // trip the timeout, which poisons the group. The first rank to
        // time out learns exactly which step and peer stalled.
        let group = Group::with_timeout(3, Duration::from_millis(100));
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..3usize)
                .map(|r| {
                    let m = Arc::clone(&group).member(r);
                    s.spawn(move || {
                        if m.rank() == 2 {
                            // Exits cleanly without ever joining: no panic,
                            // so only the timeout can save the peers.
                            return Ok(());
                        }
                        let mut buf = vec![1.0f32; 3];
                        m.try_all_reduce_sum(&mut buf)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (r, result) in results.iter().take(2).enumerate() {
            assert!(
                matches!(
                    result,
                    Err(CommError::Timeout(_)) | Err(CommError::Poisoned)
                ),
                "rank {r}: {result:?}"
            );
        }
        // Whichever rank timed out (rather than being poisoned by the
        // other's timeout) must blame the collective and a concrete peer.
        let ctx = results
            .iter()
            .find_map(|r| match r {
                Err(CommError::Timeout(ctx)) => Some(ctx.clone()),
                _ => None,
            })
            .expect("at least one rank must report the timeout");
        assert_eq!(ctx.collective, "ring-all-reduce");
        assert_eq!(ctx.rounds, 4); // 2(r−1) rounds at r = 3
        assert!(ctx.round < ctx.rounds);
        assert!(group.is_poisoned());
    }

    #[test]
    fn explicit_poison_fails_later_collectives() {
        // Orders the poison before either rank's second all-reduce.
        let poisoned = std::sync::Barrier::new(2);
        let results = run_group(2, |m| {
            let mut buf = vec![1.0f32];
            m.try_all_reduce_sum(&mut buf).unwrap();
            if m.rank() == 0 {
                m.poison();
            }
            poisoned.wait();
            m.try_all_reduce_sum(&mut buf)
        });
        for r in &results {
            assert_eq!(*r, Err(CommError::Poisoned));
        }
    }

    #[test]
    fn infallible_wrappers_panic_with_typed_payload() {
        let group = Group::with_timeout(2, Duration::from_secs(5));
        let payload = thread::scope(|s| {
            let poisoner = Arc::clone(&group).member(0);
            let victim = Arc::clone(&group).member(1);
            poisoner.poison();
            s.spawn(move || {
                let mut buf = vec![1.0f32];
                victim.all_reduce_sum(&mut buf);
            })
            .join()
            .expect_err("collective on a poisoned group must panic")
        });
        let cp = payload
            .downcast_ref::<CommPanic>()
            .expect("panic payload must be a CommPanic, not a string");
        assert_eq!(cp.0, CommError::Poisoned);
        assert!(cp.to_string().contains("poisoned"));
    }

    #[test]
    fn comm_volume_counts_measured_ring_bytes() {
        let results = run_group(4, |m| {
            let mut buf = vec![1.0f32; 8];
            m.all_reduce_sum(&mut buf);
            let _ = gather(&m, &buf[..2]);
            m.try_reduce_scatter_sum(&mut [&mut buf]).unwrap();
            m.broadcast(&mut buf, 0);
            (m.rank(), m.comm_volume())
        });
        for (rank, v) in &results {
            // g=4, n=8 f32: all-reduce 2·(3/4)·8·4 = 48 B; all-gather of
            // 2-elem parts (4−1)·2·4 = 24 B; reduce-scatter (3/4)·8·4 = 24 B.
            // Broadcast egress is position-dependent: the ring tail
            // (rank 3 for root 0) forwards nothing, everyone else streams
            // the full 8·4 = 32 B.
            assert_eq!(v.all_reduce_bytes, 48.0, "rank {rank}");
            assert_eq!(v.all_gather_bytes, 24.0, "rank {rank}");
            assert_eq!(v.reduce_scatter_bytes, 24.0, "rank {rank}");
            let bcast = if *rank == 3 { 0.0 } else { 32.0 };
            assert_eq!(v.broadcast_bytes, bcast, "rank {rank}");
            assert_eq!(v.total_bytes(), 96.0 + bcast, "rank {rank}");
            assert_eq!(v.ops, 4);
        }
    }

    #[test]
    fn comm_volume_single_rank_is_free_and_take_resets() {
        let results = run_group(1, |m| {
            let mut buf = vec![1.0f32; 8];
            m.all_reduce_sum(&mut buf);
            let before = m.comm_volume();
            let taken = m.take_comm_volume();
            (before, taken, m.comm_volume())
        });
        let (before, taken, after) = results[0];
        assert_eq!(before, CommVolume::default());
        assert_eq!(taken, before);
        assert_eq!(after, CommVolume::default());
    }

    #[test]
    fn op_log_records_replayable_collectives() {
        let results = run_group(3, |m| {
            let mut buf = vec![1.0f32; 7];
            m.all_reduce_sum(&mut buf);
            let _ = gather(&m, &buf[..2]);
            let (head, tail) = buf.split_at_mut(3);
            m.try_reduce_scatter_sum(&mut [head, &mut [], tail])
                .unwrap();
            m.broadcast(&mut buf, 1);
            (m.comm_volume(), m.take_op_log(), m.rank())
        });
        for (vol, ops, rank) in &results {
            assert_eq!(
                ops,
                &vec![
                    CollectiveOp {
                        kind: CollectiveKind::AllReduce,
                        elems: 7
                    },
                    CollectiveOp {
                        kind: CollectiveKind::AllGather,
                        elems: 6
                    },
                    // One segmented collective, one op per segment.
                    CollectiveOp {
                        kind: CollectiveKind::ReduceScatter,
                        elems: 3
                    },
                    CollectiveOp {
                        kind: CollectiveKind::ReduceScatter,
                        elems: 0
                    },
                    CollectiveOp {
                        kind: CollectiveKind::ReduceScatter,
                        elems: 4
                    },
                    CollectiveOp {
                        kind: CollectiveKind::Broadcast { root: 1 },
                        elems: 7
                    },
                ]
            );
            assert_eq!(vol.ops, 4, "the segmented reduce-scatter is one collective");
            // Replaying the logged programs yields exactly the bytes the
            // transport counted — the identity the sim comparison uses.
            let replayed: usize = ops.iter().map(|op| op.program(3).sent_elems(*rank)).sum();
            assert_eq!(replayed as f64 * BYTES_F32, vol.total_bytes());
        }
        // The log drains on take.
        let (_, _, _) = &results[0];
    }

    #[test]
    fn comm_error_displays() {
        let ctx = StallContext::new("ring-all-reduce", 2, 4, 1);
        let msg = CommError::Timeout(ctx).to_string();
        assert!(msg.contains("timed out"), "{msg}");
        assert!(msg.contains("ring-all-reduce"), "{msg}");
        assert!(msg.contains("step 3/4"), "{msg}");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(!msg.contains("pid"), "{msg}");
        assert!(CommError::Poisoned.to_string().contains("poisoned"));
    }

    #[test]
    fn comm_error_displays_process_identity() {
        let mut ctx = StallContext::new("ring-all-reduce", 0, 4, 2);
        ctx.peer_pid = Some(4242);
        ctx.peer_addr = Some("uds:/tmp/rv/r2.sock".to_string());
        let msg = CommError::Timeout(ctx.clone()).to_string();
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("pid 4242"), "{msg}");
        assert!(msg.contains("uds:/tmp/rv/r2.sock"), "{msg}");
        // A process-mode pipeline lane names its stage peer the same way.
        let msg = crate::TrainError::PipelineBroken(ctx).to_string();
        assert!(
            msg.contains("stage peer rank 2 (pid 4242, uds:/tmp/rv/r2.sock)"),
            "{msg}"
        );
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let results = run_group(3, |m| {
            let mut out = Vec::new();
            for round in 0..5 {
                let mut buf = vec![(m.rank() + round) as f32];
                m.all_reduce_sum(&mut buf);
                out.push(buf[0]);
            }
            out
        });
        for r in &results {
            assert_eq!(r, &vec![3.0, 6.0, 9.0, 12.0, 15.0]);
        }
    }

    #[test]
    fn lending_rounds_are_the_ones_no_later_recv_writes() {
        // Which rounds of the programs a group runs may lend: every round
        // of a reduce-scatter, an all-gather and a broadcast, the
        // all-gather half of a ring all-reduce and none of its
        // reduce-scatter half, and not the one round of a two-member
        // all-reduce. Every chunk is non-empty at these lengths.
        // `lends[s][j]`: may rank `j` lend in round `s`?
        let lends = |kind, r: usize| -> Vec<Vec<bool>> {
            let prog = CollectiveOp {
                kind,
                elems: 7 * r + 3,
            }
            .program(r);
            (0..prog.round_count())
                .map(|s| (0..r).map(|j| prog.may_lend(j, s)).collect())
                .collect()
        };
        for r in [2usize, 3, 5] {
            let rounds = |n: usize, lend: bool| vec![vec![lend; r]; n];
            for kind in [CollectiveKind::ReduceScatter, CollectiveKind::AllGather] {
                assert_eq!(lends(kind, r), rounds(r - 1, true), "{kind:?} r={r}");
            }
            for root in 0..r {
                let kind = CollectiveKind::Broadcast { root };
                assert_eq!(lends(kind, r), rounds(2 * r - 2, true), "{kind:?} r={r}");
            }
            let all_reduce = if r == 2 {
                rounds(1, false)
            } else {
                let mut ring = rounds(r - 1, false);
                ring.extend(rounds(r - 1, true));
                ring
            };
            assert_eq!(lends(CollectiveKind::AllReduce, r), all_reduce, "r={r}");
        }
    }

    /// Lent messages queued in any of `group`'s mailboxes.
    fn lent_queued(group: &Group) -> usize {
        let queued = |mb: &Mailbox| mb.q.lock().unwrap().iter().filter(|m| m.is_lent()).count();
        group.mail.iter().map(queued).sum()
    }

    /// A broadcast of this length from rank 0 of two sends two lent
    /// messages and receives none.
    const LENT_BROADCAST: usize = 2 * coll::LEND_MIN;

    #[test]
    fn a_lender_whose_peer_never_receives_times_out_and_takes_its_messages_back() {
        let group = Group::with_timeout(2, Duration::from_millis(100));
        let root = group.member(0);
        let _silent = group.member(1);
        let mut buf = vec![1.0f32; LENT_BROADCAST];
        let got = root.try_broadcast(&mut buf, 0);
        let Err(CommError::Timeout(ctx)) = got else {
            panic!("expected a timeout, got {got:?}");
        };
        assert_eq!((ctx.collective, ctx.peer), ("ring-broadcast", 1));
        assert!(group.is_poisoned());
        assert!(
            group.mail[2].q.lock().unwrap().is_empty(),
            "the peer's queue"
        );
        assert_eq!(lent_queued(&group), 0);
    }

    #[test]
    fn a_lender_whose_peer_panics_mid_program_is_poisoned() {
        // Rank 1 consumes the first lent message, then panics in its
        // second receive; dropping its member poisons the group while rank
        // 0 waits for that second message to be consumed.
        struct PanicOnSecondRecv<'a>(MailTransport<'a>, usize);
        impl Transport for PanicOnSecondRecv<'_> {
            type Error = RawComm;
            fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), RawComm> {
                self.0.send(to, parts)
            }
            fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), RawComm> {
                self.1 += 1;
                assert!(self.1 < 2, "simulated failure mid-program");
                self.0.recv(from, take)
            }
        }
        let group = Group::with_timeout(2, Duration::from_secs(10));
        let started = Instant::now();
        let peer = {
            let m = Arc::clone(&group).member(1);
            thread::spawn(move || {
                let deadline = started + Duration::from_secs(10);
                let mut tp = PanicOnSecondRecv(MailTransport::new(&m.group, 1, deadline), 0);
                let prog = coll::ring_broadcast(2, LENT_BROADCAST, 0);
                let _ = coll::execute(&prog, 1, &mut vec![0.0; LENT_BROADCAST], &mut tp);
                drop(m);
            })
        };
        let mut buf = vec![1.0f32; LENT_BROADCAST];
        assert_eq!(
            group.member(0).try_broadcast(&mut buf, 0),
            Err(CommError::Poisoned)
        );
        assert!(peer.join().is_err(), "rank 1 should have panicked");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "poisoned, not timed out"
        );
        assert_eq!(lent_queued(&group), 0);
    }

    #[test]
    fn a_broken_socket_wire_is_a_rank_failure() {
        // Two "processes" of one socket group, each with its own node. The
        // peer plays a first two-rank all-reduce (one exchange) by hand,
        // then takes the survivor's half of a second one and closes its
        // channel and node without sending its own: that exchange can
        // never complete.
        use megatron_collective::{SocketNode, WireAddr};
        let dir = std::env::temp_dir().join(format!("megatron-comm-broken-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addrs: Vec<WireAddr> = (0..2)
            .map(|r| WireAddr::Uds(dir.join(format!("r{r}.sock"))))
            .collect();
        let nodes: Vec<Arc<SocketNode>> = addrs
            .iter()
            .map(|a| Arc::new(SocketNode::bind(a).unwrap()))
            .collect();
        let peers: Vec<Option<WireAddr>> = addrs.iter().cloned().map(Some).collect();
        let timeout = Duration::from_millis(300);
        let chan = SocketChannel::new(Arc::clone(&nodes[0]), 9, 0, peers.clone());
        let cfg = TransportConfig {
            wire: WireKind::Uds,
        };
        let survivor = Group::with_socket(2, timeout, cfg, chan).member(0);
        let peer = {
            let mut chan = SocketChannel::new(Arc::clone(&nodes[1]), 9, 1, peers);
            chan.set_deadline(Instant::now() + Duration::from_secs(10));
            thread::spawn(move || {
                chan.send(0, &[&[1.0; 4]]).unwrap();
                chan.recv_frame(0).unwrap();
                chan.recv_frame(0).unwrap();
            })
        };
        drop(nodes);
        let mut buf = vec![1.0f32; 4];
        survivor.try_all_reduce_sum(&mut buf).unwrap();
        assert_eq!(buf, [2.0; 4]);
        let started = Instant::now();
        let got = survivor.try_all_reduce_sum(&mut buf);
        let waited = started.elapsed();
        peer.join().unwrap();
        let Err(CommError::Timeout(ctx)) = got else {
            panic!("expected a timeout, got {got:?}");
        };
        assert_eq!(ctx.collective, "ring-all-reduce");
        assert_eq!((ctx.round, ctx.rounds, ctx.peer), (0, 1, 1), "{ctx}");
        assert_eq!(ctx.peer_pid, Some(std::process::id()), "{ctx}");
        assert_eq!(ctx.peer_addr, Some(addrs[1].to_string()), "{ctx}");
        assert!(
            waited >= timeout && waited < timeout + Duration::from_secs(2),
            "the group timeout is the failure detector: {waited:?}"
        );
        // The timeout poisoned the group: the next collective fails fast.
        let started = Instant::now();
        assert_eq!(
            survivor.try_all_reduce_sum(&mut buf),
            Err(CommError::Poisoned)
        );
        assert!(started.elapsed() < timeout / 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
