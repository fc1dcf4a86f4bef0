//! Transport-agnostic collective algorithms.
//!
//! The paper's §3 cost models hinge on the *algorithmic* structure of
//! collectives — a ring all-reduce moves `2(g−1)/g·n` bytes per rank
//! because of how its chunks travel, not because a formula says so. This
//! crate defines that structure exactly once, as data: a [`Program`] is a
//! round-synchronous schedule of (send-to-peer, recv-from-peer,
//! local-combine) steps over an abstract rank space. Two consumers lower
//! the same programs onto very different substrates:
//!
//! - `megatron-dist` executes them over an in-process mailbox or a socket
//!   [`Transport`] moving real `f32` chunks between ranks ([`execute`];
//!   [`execute_segments`] runs one program per segment of a list of
//!   buffers as one collective, one message per round);
//! - `megatron-core`'s `net::Network` lowers each send step onto simulated
//!   NVLink/IB links as discrete-event tasks.
//!
//! Because both worlds consume the identical step sequence, "real
//! communication volume == simulated communication volume" is a structural
//! identity, not a pair of formulas that happen to agree.
//!
//! # Chunking convention
//!
//! A buffer of `n` elements over `g` ranks is cut into `g` contiguous
//! chunks by an exact ceil-partition: chunk `i` spans
//! `[min(i·c, n), min((i+1)·c, n))` with `c = ⌈n/g⌉`. Trailing chunks may
//! be short or empty, so *any* buffer length is legal and measured volumes
//! are exact (no padding is ever sent). Per-rank volume is counted as
//! bytes **sent** (egress), matching the simulator's sender-port model.

use std::fmt;

pub mod codec;
pub use codec::{f32s_from, put_f32s};

pub mod socket;
pub use socket::{SocketCalls, SocketChannel, SocketError, SocketNode, WireAddr};

/// A contiguous element range `[lo, hi)` of the collective's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// First element index.
    pub lo: usize,
    /// One past the last element index.
    pub hi: usize,
}

impl ChunkRange {
    /// Number of elements in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the range is empty (legal: the tail chunks of a
    /// non-divisible buffer).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Element-wise reduction applied when a received chunk meets local data.
/// Its two operands are ordered (see [`Combine`]); `Sum` gives the same
/// bits either way for any operands but NaNs, `Max` on ties of ±0 does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `a + b`.
    Sum,
    /// The larger of `a` and `b`; a number beats a NaN, and of two equal
    /// values (`+0.0` and `−0.0`) the first operand `a` wins.
    Max,
}

/// `max(a, b)` as [`ReduceOp::Max`] defines it. Spelled out rather than
/// `f32::max`, whose choice between `±0` is left to the compiler: the two
/// members of an exchange compute it with the operands in one order and
/// must get the same bits.
fn max_first(a: f32, b: f32) -> f32 {
    if a < b || a.is_nan() {
        b
    } else {
        a
    }
}

/// How a received chunk combines into the local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Reduce element-wise, the local value first: `local ← op(local,
    /// incoming)` (ring reduce-scatter phases; the lower member of a
    /// two-member exchange).
    Reduce(ReduceOp),
    /// Reduce element-wise, the incoming value first: `local ←
    /// op(incoming, local)`. The higher member of a two-member exchange
    /// combines so, and both members compute `op(x₀, x₁)`.
    ReduceIncomingFirst(ReduceOp),
    /// Overwrite the local values (all-gather / broadcast phases).
    Replace,
}

impl Combine {
    /// Apply the combine rule to every `local[i]` and `incoming[i]`.
    ///
    /// Both the real executor and the serial reference interpreter call
    /// this single definition, so their arithmetic is bit-identical by
    /// construction.
    pub fn apply(&self, local: &mut [f32], incoming: &[f32]) {
        debug_assert_eq!(local.len(), incoming.len());
        fn each(local: &mut [f32], incoming: &[f32], f: impl Fn(f32, f32) -> f32) {
            for (l, &x) in local.iter_mut().zip(incoming) {
                *l = f(*l, x);
            }
        }
        match self {
            Combine::Reduce(ReduceOp::Sum) => each(local, incoming, |l, x| l + x),
            Combine::Reduce(ReduceOp::Max) => each(local, incoming, max_first),
            Combine::ReduceIncomingFirst(ReduceOp::Sum) => each(local, incoming, |l, x| x + l),
            Combine::ReduceIncomingFirst(ReduceOp::Max) => {
                each(local, incoming, |l, x| max_first(x, l))
            }
            Combine::Replace => local.copy_from_slice(incoming),
        }
    }
}

/// One rank's outgoing transfer in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStep {
    /// Destination rank.
    pub to: usize,
    /// Elements sent (a chunk of the sender's current buffer).
    pub range: ChunkRange,
}

/// One rank's incoming transfer in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvStep {
    /// Source rank.
    pub from: usize,
    /// Elements the incoming chunk lands on.
    pub range: ChunkRange,
    /// How the chunk merges into the local buffer.
    pub combine: Combine,
}

/// What one rank does in one round: at most one send and one recv. The
/// send always reads state as of the *end of the previous round* (the
/// executor sends before it receives), so a rank never forwards data that
/// arrives in the same round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStep {
    /// Outgoing transfer, if any.
    pub send: Option<SendStep>,
    /// Incoming transfer, if any.
    pub recv: Option<RecvStep>,
}

/// One synchronous round: `steps[j]` is rank `j`'s step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Per-rank steps, indexed by rank.
    pub steps: Vec<RankStep>,
}

/// A complete collective as a round-synchronous step program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable collective name (also used in stall diagnostics).
    pub kind: &'static str,
    /// Number of participating ranks.
    pub ranks: usize,
    /// Buffer length in elements every rank operates on.
    pub len: usize,
    /// The schedule.
    pub rounds: Vec<Round>,
}

impl Program {
    /// Elements rank `rank` sends over the whole program — the exact
    /// per-rank egress volume the algorithm moves (multiply by the element
    /// width for bytes). This is the quantity both transports account.
    pub fn sent_elems(&self, rank: usize) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.steps[rank].send)
            .map(|s| s.range.len())
            .sum()
    }

    /// Total rounds (the step count a stalled rank is reported against).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Whether `rank`'s send in `round` may be lent ([`Transport::lend`]):
    /// no recv of this rank, in that round or a later one, writes any
    /// element of its range. Every round of a reduce-scatter, an
    /// all-gather and a broadcast qualifies, and so does the all-gather
    /// half of a ring all-reduce; its reduce-scatter half does not, nor
    /// does the one round of a two-member all-reduce, whose recv combines
    /// into the range it sends.
    pub fn may_lend(&self, rank: usize, round: usize) -> bool {
        let Some(snd) = self.rounds[round].steps[rank].send else {
            return true;
        };
        self.rounds[round..]
            .iter()
            .filter_map(|r| r.steps[rank].recv)
            .all(|rcv| !overlaps(snd.range, rcv.range))
    }

    /// Structural soundness: every send pairs with exactly the recv of its
    /// destination rank in the same round (same range), every recv names a
    /// rank that sends to it, and nobody sends to itself.
    ///
    /// A rank's send range may overlap its recv range in the same round:
    /// the send carries the range as it stood at the end of the previous
    /// round, because the executor copies it into the wire before the recv
    /// combines, and never lends a range a recv of that round or a later
    /// one writes ([`Program::may_lend`]). A two-member all-reduce sends
    /// and combines its whole buffer in one round.
    pub fn validate(&self) -> Result<(), String> {
        for (s, round) in self.rounds.iter().enumerate() {
            if round.steps.len() != self.ranks {
                return Err(format!("round {s}: {} steps", round.steps.len()));
            }
            for (j, step) in round.steps.iter().enumerate() {
                if let Some(snd) = step.send {
                    if snd.to == j || snd.to >= self.ranks {
                        return Err(format!("round {s}: rank {j} sends to {}", snd.to));
                    }
                    match round.steps[snd.to].recv {
                        Some(rcv) if rcv.from == j && rcv.range == snd.range => {}
                        other => {
                            return Err(format!(
                                "round {s}: rank {j} send to {} unmatched ({other:?})",
                                snd.to
                            ))
                        }
                    }
                }
                if let Some(rcv) = step.recv {
                    if rcv.from == j || rcv.from >= self.ranks {
                        return Err(format!("round {s}: rank {j} recvs from {}", rcv.from));
                    }
                    match round.steps[rcv.from].send {
                        Some(snd) if snd.to == j && snd.range == rcv.range => {}
                        other => {
                            return Err(format!(
                                "round {s}: rank {j} recv from {} unmatched ({other:?})",
                                rcv.from
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether two ranges share an element.
fn overlaps(a: ChunkRange, b: ChunkRange) -> bool {
    a.lo < b.hi && b.lo < a.hi && !a.is_empty() && !b.is_empty()
}

/// The exact ceil-partition: chunk `i` of `n` elements over `parts`.
pub fn chunk_of(n: usize, parts: usize, i: usize) -> ChunkRange {
    let c = n.div_ceil(parts);
    ChunkRange {
        lo: (i * c).min(n),
        hi: ((i + 1) * c).min(n),
    }
}

fn empty_rounds(r: usize, count: usize) -> Vec<Round> {
    (0..count)
        .map(|_| Round {
            steps: vec![RankStep::default(); r],
        })
        .collect()
}

/// Ring reduce-scatter of `n` elements over `r` ranks: `r−1` rounds, each
/// rank forwarding a partially reduced chunk to its ring successor. Rank
/// `j` ends owning the fully reduced chunk `j` (the ceil-partition chunk).
pub fn ring_reduce_scatter(r: usize, n: usize, op: ReduceOp) -> Program {
    let mut rounds = empty_rounds(r, r.saturating_sub(1));
    for (s, round) in rounds.iter_mut().enumerate() {
        for j in 0..r {
            let send_chunk = (j + r - 1 - s) % r;
            let recv_chunk = (j + 2 * r - 2 - s) % r;
            round.steps[j] = RankStep {
                send: Some(SendStep {
                    to: (j + 1) % r,
                    range: chunk_of(n, r, send_chunk),
                }),
                recv: Some(RecvStep {
                    from: (j + r - 1) % r,
                    range: chunk_of(n, r, recv_chunk),
                    combine: Combine::Reduce(op),
                }),
            };
        }
    }
    Program {
        kind: "ring-reduce-scatter",
        ranks: r,
        len: n,
        rounds,
    }
}

/// Ring all-gather of `n` elements over `r` ranks: rank `j` starts owning
/// chunk `j` (the ceil-partition chunk — what [`ring_reduce_scatter`]
/// leaves it with), and after `r−1` forwarding rounds every rank holds
/// every chunk. With `n = r·part` each rank contributes exactly `part`.
pub fn ring_all_gather(r: usize, n: usize) -> Program {
    let mut rounds = empty_rounds(r, r.saturating_sub(1));
    for (s, round) in rounds.iter_mut().enumerate() {
        for j in 0..r {
            round.steps[j] = RankStep {
                send: Some(SendStep {
                    to: (j + 1) % r,
                    range: chunk_of(n, r, (j + r - s) % r),
                }),
                recv: Some(RecvStep {
                    from: (j + r - 1) % r,
                    range: chunk_of(n, r, (j + 2 * r - 1 - s) % r),
                    combine: Combine::Replace,
                }),
            };
        }
    }
    Program {
        kind: "ring-all-gather",
        ranks: r,
        len: n,
        rounds,
    }
}

/// Ring all-reduce of `n` elements over `r` ranks: the rounds of
/// [`ring_reduce_scatter`] followed by those of [`ring_all_gather`],
/// `2(r−1)` in all. Per-rank egress is exactly the paper's `2(r−1)/r · n`
/// for divisible `n` (§3.2's `(t−1)/t` factor) and emerges exactly from
/// the chunk ranges otherwise.
///
/// Two ranks make one round instead of two: each sends its whole buffer
/// and combines the whole of its partner's, rank 0's operand first on
/// both ([`Combine::ReduceIncomingFirst`] on rank 1), so both end with
/// `op(x₀, x₁)` bit for bit. The egress is the ring's, `n` per rank; the
/// wait for the partner is paid once. A `Sum` has the two-round ring's
/// bits for any operands but NaNs: the ring adds `x₀ + x₁` on chunk 0 and
/// `x₁ + x₀` on chunk 1, and IEEE addition commutes.
pub fn ring_all_reduce(r: usize, n: usize, op: ReduceOp) -> Program {
    let rounds = if r == 2 {
        let all = ChunkRange { lo: 0, hi: n };
        let swap = |to: usize, combine: Combine| RankStep {
            send: Some(SendStep { to, range: all }),
            recv: Some(RecvStep {
                from: to,
                range: all,
                combine,
            }),
        };
        vec![Round {
            steps: vec![
                swap(1, Combine::Reduce(op)),
                swap(0, Combine::ReduceIncomingFirst(op)),
            ],
        }]
    } else {
        let mut rounds = ring_reduce_scatter(r, n, op).rounds;
        rounds.extend(ring_all_gather(r, n).rounds);
        rounds
    };
    Program {
        kind: "ring-all-reduce",
        ranks: r,
        len: n,
        rounds,
    }
}

/// Pipelined ring broadcast of `n` elements from `root`: the buffer is cut
/// into `r` chunks that stream down the ring (`root → root+1 → …`), so
/// the wire time approaches one buffer transfer instead of `r−1` of them.
/// `r + r − 2` rounds; the last ring position forwards nothing, so its
/// egress is zero — per-rank volume is *not* uniform for a broadcast.
pub fn ring_broadcast(r: usize, n: usize, root: usize) -> Program {
    assert!(root < r, "broadcast root out of range");
    let nchunks = r;
    let total = if r > 1 { nchunks + r - 2 } else { 0 };
    let mut rounds = empty_rounds(r, total);
    for (t, round) in rounds.iter_mut().enumerate() {
        for j in 0..r {
            let q = (j + r - root) % r; // position along the ring from root
            let mut step = RankStep::default();
            if q + 1 < r {
                // Forward chunk t−q this round, if it's in flight.
                if t >= q && t - q < nchunks {
                    step.send = Some(SendStep {
                        to: (j + 1) % r,
                        range: chunk_of(n, nchunks, t - q),
                    });
                }
            }
            if q >= 1 && t + 1 >= q && t + 1 - q < nchunks {
                step.recv = Some(RecvStep {
                    from: (j + r - 1) % r,
                    range: chunk_of(n, nchunks, t + 1 - q),
                    combine: Combine::Replace,
                });
            }
            round.steps[j] = step;
        }
    }
    Program {
        kind: "ring-broadcast",
        ranks: r,
        len: n,
        rounds,
    }
}

/// Two-level hierarchical all-reduce (§5.9's multi-rail pattern): ranks
/// form `r/local` "nodes" of `local` consecutive ranks. Phase 1
/// reduce-scatters within each node ([`ring_reduce_scatter`]); phase 2
/// runs one inter-node [`ring_all_reduce`] per local position (each rail
/// moving only its `1/local` shard — on real hardware each rail rides its
/// own NIC; two nodes make it one exchange); phase 3 all-gathers within
/// each node ([`ring_all_gather`]). Every node and every rail runs in the
/// same rounds. Degenerates to a flat ring when there is one node or one
/// rank per node.
pub fn hierarchical_all_reduce(r: usize, n: usize, local: usize, op: ReduceOp) -> Program {
    assert!(
        local > 0 && r.is_multiple_of(local),
        "r must split into nodes"
    );
    let nodes = r / local;
    if nodes == 1 || local == 1 {
        return ring_all_reduce(r, n, op);
    }
    let scatter = ring_reduce_scatter(local, n, op);
    let gather = ring_all_gather(local, n);
    let rails: Vec<(ChunkRange, Program)> = (0..local)
        .map(|u| {
            let rail = chunk_of(n, local, u);
            (rail, ring_all_reduce(nodes, rail.len(), op))
        })
        .collect();
    let inter = rails[0].1.rounds.len();
    let mut rounds = empty_rounds(r, scatter.rounds.len() + inter + gather.rounds.len());
    let (intra_rs, rest) = rounds.split_at_mut(scatter.rounds.len());
    let (rail_ar, intra_ag) = rest.split_at_mut(inter);
    for k in 0..nodes {
        embed(intra_rs, &scatter, |u| k * local + u, 0);
        embed(intra_ag, &gather, |u| k * local + u, 0);
    }
    for (u, (rail, prog)) in rails.iter().enumerate() {
        embed(rail_ar, prog, |k| k * local + u, rail.lo);
    }
    Program {
        kind: "hierarchical-all-reduce",
        ranks: r,
        len: n,
        rounds,
    }
}

/// Lay `prog`'s rounds onto `rounds`: its rank `j` is rank `rank(j)`
/// here, and its element `i` is element `lo + i`.
fn embed(rounds: &mut [Round], prog: &Program, rank: impl Fn(usize) -> usize, lo: usize) {
    let shift = |c: ChunkRange| ChunkRange {
        lo: lo + c.lo,
        hi: lo + c.hi,
    };
    for (round, sub) in rounds.iter_mut().zip(&prog.rounds) {
        for (j, step) in sub.steps.iter().enumerate() {
            round.steps[rank(j)] = RankStep {
                send: step.send.map(|snd| SendStep {
                    to: rank(snd.to),
                    range: shift(snd.range),
                }),
                recv: step.recv.map(|rcv| RecvStep {
                    from: rank(rcv.from),
                    range: shift(rcv.range),
                    combine: rcv.combine,
                }),
            };
        }
    }
}

/// Messages of at least this many floats are lent, not copied: when a
/// round's send range is final for its program ([`Program::may_lend`]),
/// [`execute_segments`] hands the transport the sender's own slices
/// ([`Transport::lend`]) and waits for the receiver to consume them before
/// it returns. Smaller messages are copied.
///
/// The threshold is what that wait costs: the sender of a small message
/// blocks at the end of its collective for a peer that may not be on a
/// core. Measured with every message lent instead (2-vCPU AMX host), E36
/// (`repro analyze`, four runs) read 30–33 voluntary context switches per
/// rank and steady iteration (each run's mean over its 8 ranks) against
/// 21–25 with this threshold, under which all of its messages are copied
/// (involuntary ones: 4.3–6.7 against 3.6–5.4), and `ptd222_thread`, whose
/// 4 Ki-float tensor-parallel messages it then lends, lost 7.5 % of its
/// `tokens_per_s` (6 same-seed pairs, 0 of them better). Any value from
/// 2¹³ to 2¹⁶ splits the benchmark's messages the same way: those
/// tensor-parallel halves are copied; the ≈ 106 Ki-float data-parallel
/// messages of the (2,2,2) job and the 1.7 Mi-float ones of `dp2_fat` are
/// lent.
pub const LEND_MIN: usize = 1 << 15;

/// How a rank moves chunks: the pluggable wire under [`execute`]. `send`
/// must not block on the receiver (the executor sends before it receives
/// within a round, and round pacing comes from `recv` alone); `recv`
/// blocks until the matching chunk arrives or the transport gives up.
///
/// Every wire holds this at any chunk size: the mailbox queue is
/// unbounded, and the socket channel queues what the kernel does not take
/// and writes it while its thread waits in a later `recv`.
///
/// A message travels as its parts (`&[&[f32]]`: a segmented collective's
/// chunk of every segment), both ways. `send` copies them into whatever
/// the wire carries; [`Transport::lend`] may instead queue the parts
/// themselves. `recv` hands the received parts to the executor's combine,
/// which reads each float once, straight from where the transport holds
/// it.
pub trait Transport {
    /// Transport failure (timeout, poisoned peer, closed channel, ...).
    type Error;
    /// Enqueue one message for `to`: the concatenation of `parts`, copied
    /// before this returns.
    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), Self::Error>;
    /// Enqueue one message for `to` that may refer to `parts` instead of a
    /// copy of them. Only [`execute_segments`] calls this, for messages of
    /// at least [`LEND_MIN`] floats. The default copies, through `send`;
    /// the in-process mailbox lends.
    ///
    /// # Safety
    /// Every slice of `parts` must stay valid and unwritten until the next
    /// call of [`Transport::reclaim`] has returned.
    unsafe fn lend(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), Self::Error> {
        self.send(to, parts)
    }
    /// Wait until the receivers have consumed every message lent since the
    /// last call; revoke those still queued once the wait fails. Nothing
    /// lent is referred to after this returns, `Ok` or `Err`.
    fn reclaim(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Dequeue the next message from `from` and hand its parts to `take`.
    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), Self::Error>;
}

/// A transport failure with the step context the ISSUE-grade diagnostics
/// need: *which* collective, *which* round of how many, and *which* peer
/// was involved when the failure hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepFailure<E> {
    /// The collective's [`Program::kind`].
    pub collective: &'static str,
    /// Zero-based round that failed.
    pub round: usize,
    /// Total rounds in the program.
    pub rounds: usize,
    /// The peer of the failing send/recv.
    pub peer: usize,
    /// The transport's underlying error.
    pub error: E,
}

impl<E: fmt::Display> fmt::Display for StepFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} step {}/{} involving rank {}: {}",
            self.collective,
            self.round + 1,
            self.rounds,
            self.peer,
            self.error
        )
    }
}

/// What [`execute`] measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Elements this rank sent (exact egress volume of the algorithm).
    pub sent_elems: usize,
}

/// Run `prog` as rank `rank` over `transport`, mutating `buf` in place:
/// [`execute_segments`] with one segment.
pub fn execute<T: Transport>(
    prog: &Program,
    rank: usize,
    buf: &mut [f32],
    transport: &mut T,
) -> Result<ExecReport, StepFailure<T::Error>> {
    execute_segments(std::slice::from_ref(prog), rank, &mut [buf], transport)
}

/// Run `progs[k]` over segment `segs[k]`, every segment at once, as rank
/// `rank` over `transport`. The programs must share their round structure
/// (the same peers in every round — ring programs of any lengths do), so
/// each round is **one** message: chunk `k`'s send range of every segment
/// as its parts, and one receive split back by the recv ranges. Every
/// element is combined exactly as running `progs[k]` over `segs[k]` alone
/// would combine it, so the result equals the per-segment
/// [`reference_run`]s bit for bit, and egress is their summed `sent_elems`.
///
/// Within each round the rank first posts its send (non-blocking), then
/// blocks on its recv and applies the combine rule to the parts the
/// transport hands over. The send carries its ranges as they stood before
/// that recv, which may combine into the same ranges (the one round of a
/// two-member all-reduce). A message of at least [`LEND_MIN`] floats whose
/// ranges this rank does not write again ([`Program::may_lend`]) is lent
/// ([`Transport::lend`]) instead of sent. Before this returns — with `Ok`,
/// with `Err`, or by unwinding — it reclaims what it lent, so nothing
/// refers to `segs` afterwards. On a transport error the failing round and
/// peer are reported via [`StepFailure`]; a failed reclaim names the last
/// round that lent and its peer.
pub fn execute_segments<T: Transport>(
    progs: &[Program],
    rank: usize,
    segs: &mut [&mut [f32]],
    transport: &mut T,
) -> Result<ExecReport, StepFailure<T::Error>> {
    assert_eq!(progs.len(), segs.len(), "one program per segment");
    let mut report = ExecReport::default();
    let Some(lead) = progs.first() else {
        return Ok(report);
    };
    assert!(rank < lead.ranks, "rank out of range");
    let peers = |round: &Round| {
        let step = round.steps[rank];
        (step.send.map(|x| x.to), step.recv.map(|x| x.from))
    };
    for (prog, seg) in progs.iter().zip(segs.iter()) {
        assert_eq!(seg.len(), prog.len, "buffer/program length mismatch");
        let same = prog.rounds.len() == lead.rounds.len()
            && prog
                .rounds
                .iter()
                .zip(&lead.rounds)
                .all(|(a, b)| peers(a) == peers(b));
        assert!(same, "segment programs disagree on their peers");
    }
    let rounds = lead.rounds.len();
    let fail = |round, peer| {
        move |error| StepFailure {
            collective: lead.kind,
            round,
            rounds,
            peer,
            error,
        }
    };
    // From here on every access to the segments goes through these, so a
    // range lent to a peer and a range this rank writes meanwhile are
    // disjoint slices, never overlapping references.
    let segs: Vec<Seg> = segs
        .iter_mut()
        .map(|seg| Seg {
            base: seg.as_mut_ptr(),
            len: seg.len(),
        })
        .collect();
    let mut lender = Lender {
        transport,
        last_lend: None,
    };
    for s in 0..rounds {
        // Peers agree, so every program has this step iff the lead does.
        let step = |prog: &Program| prog.rounds[s].steps[rank];
        if let Some(snd) = step(lead).send {
            // SAFETY: nothing writes a send range while the message is
            // read: a sent message is copied before `send` returns, and a
            // lent one is covered below.
            let parts: Vec<&[f32]> = progs
                .iter()
                .zip(&segs)
                .map(|(prog, seg)| unsafe { seg.read(step(prog).send.expect("peers agree").range) })
                .collect();
            let elems: usize = parts.iter().map(|part| part.len()).sum();
            report.sent_elems += elems;
            let sent = if elems >= LEND_MIN && progs.iter().all(|prog| prog.may_lend(rank, s)) {
                lender.last_lend = Some((s, snd.to));
                // SAFETY: by `may_lend`, no recv of this rank from this
                // round on writes these ranges, and `lender` reclaims them
                // before this function returns or unwinds.
                unsafe { lender.transport.lend(snd.to, &parts) }
            } else {
                lender.transport.send(snd.to, &parts)
            };
            sent.map_err(fail(s, snd.to))?;
        }
        if let Some(rcv) = step(lead).recv {
            let combine = |parts: &[&[f32]]| {
                let mut incoming = Incoming::new(parts);
                for (prog, seg) in progs.iter().zip(&segs) {
                    let r = step(prog).recv.expect("peers agree");
                    // SAFETY: no range a peer may still read overlaps: a
                    // lent one is never written from its round on, and a
                    // sent one is not read after its send.
                    incoming.combine_into(r.combine, unsafe { seg.write(r.range) });
                }
                incoming.finish();
            };
            lender
                .transport
                .recv(rcv.from, combine)
                .map_err(fail(s, rcv.from))?;
        }
    }
    if let Some((s, to)) = lender.last_lend.take() {
        lender.transport.reclaim().map_err(fail(s, to))?;
    }
    Ok(report)
}

/// A segment of [`execute_segments`] as a base pointer and a length.
#[derive(Clone, Copy)]
struct Seg {
    base: *mut f32,
    len: usize,
}

impl Seg {
    fn check(self, range: ChunkRange) {
        assert!(
            range.lo <= range.hi && range.hi <= self.len,
            "chunk range outside its segment"
        );
    }

    /// `range` of the segment, to read.
    ///
    /// # Safety
    /// Nothing may write `range` while the slice is in use.
    unsafe fn read<'a>(self, range: ChunkRange) -> &'a [f32] {
        self.check(range);
        std::slice::from_raw_parts(self.base.add(range.lo), range.len())
    }

    /// `range` of the segment, to write.
    ///
    /// # Safety
    /// Nothing else may read or write `range` while the slice is in use.
    unsafe fn write<'a>(self, range: ChunkRange) -> &'a mut [f32] {
        self.check(range);
        std::slice::from_raw_parts_mut(self.base.add(range.lo), range.len())
    }
}

/// Reclaims what `transport` lent when dropped, so no lent message
/// outlives [`execute_segments`]'s borrow of the segments — also on an
/// early error return and while unwinding.
struct Lender<'t, T: Transport> {
    transport: &'t mut T,
    /// The round and peer of the last message lent and not yet reclaimed.
    last_lend: Option<(usize, usize)>,
}

impl<T: Transport> Drop for Lender<'_, T> {
    fn drop(&mut self) {
        if self.last_lend.take().is_some() {
            // The failure that ended the program is the one reported.
            let _ = self.transport.reclaim();
        }
    }
}

/// A received message as one stream of floats: its parts in order, cut
/// wherever the receiver's segments need.
struct Incoming<'a> {
    head: &'a [f32],
    rest: std::slice::Iter<'a, &'a [f32]>,
}

impl<'a> Incoming<'a> {
    fn new(parts: &'a [&'a [f32]]) -> Self {
        Incoming {
            head: &[],
            rest: parts.iter(),
        }
    }

    /// Combine the next `local.len()` floats into `local`.
    fn combine_into(&mut self, combine: Combine, mut local: &mut [f32]) {
        while !local.is_empty() {
            if self.head.is_empty() {
                self.head = self
                    .rest
                    .next()
                    .expect("transport delivered a short message");
                continue;
            }
            let n = self.head.len().min(local.len());
            let (piece, head) = self.head.split_at(n);
            let (into, tail) = std::mem::take(&mut local).split_at_mut(n);
            combine.apply(into, piece);
            (self.head, local) = (head, tail);
        }
    }

    fn finish(mut self) {
        assert!(
            self.head.is_empty() && self.rest.all(|part| part.is_empty()),
            "transport delivered a long message"
        );
    }
}

/// Serial reference interpreter: run `prog` over all ranks' buffers at
/// once, with the same per-round send-then-combine semantics as
/// [`execute`]. This is the executable specification the real transport
/// is differentially tested against, bit for bit.
pub fn reference_run(prog: &Program, bufs: &mut [Vec<f32>]) {
    assert_eq!(bufs.len(), prog.ranks, "one buffer per rank");
    for b in bufs.iter() {
        assert_eq!(b.len(), prog.len, "buffer/program length mismatch");
    }
    for round in &prog.rounds {
        // Capture every outgoing chunk from end-of-previous-round state...
        let outgoing: Vec<Option<Vec<f32>>> = round
            .steps
            .iter()
            .enumerate()
            .map(|(j, st)| {
                st.send
                    .map(|snd| bufs[j][snd.range.lo..snd.range.hi].to_vec())
            })
            .collect();
        // ...then apply every delivery.
        for (j, st) in round.steps.iter().enumerate() {
            if let Some(rcv) = st.recv {
                let data = outgoing[rcv.from]
                    .as_ref()
                    .expect("validate(): recv without matching send");
                rcv.combine
                    .apply(&mut bufs[j][rcv.range.lo..rcv.range.hi], data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(rank: usize, n: usize) -> Vec<f32> {
        // Deterministic non-trivial values; no RNG dependency needed.
        (0..n)
            .map(|i| ((rank * 31 + i * 7) % 97) as f32 * 0.125 - 3.0)
            .collect()
    }

    #[test]
    fn programs_validate_across_sizes_and_lengths() {
        for r in [1usize, 2, 3, 4, 5, 7, 8] {
            for n in [0usize, 1, 5, 8, 16, 33] {
                ring_all_reduce(r, n, ReduceOp::Sum).validate().unwrap();
                ring_reduce_scatter(r, n, ReduceOp::Sum).validate().unwrap();
                ring_all_gather(r, n).validate().unwrap();
                for root in 0..r {
                    ring_broadcast(r, n, root).validate().unwrap();
                }
            }
        }
        for (r, local) in [(4, 2), (6, 3), (8, 4), (8, 2), (9, 3)] {
            for n in [7usize, 24, 40] {
                hierarchical_all_reduce(r, n, local, ReduceOp::Sum)
                    .validate()
                    .unwrap();
            }
        }
    }

    #[test]
    fn all_reduce_reference_sums_every_rank() {
        for r in [2usize, 3, 5] {
            for n in [1usize, 6, 7] {
                let prog = ring_all_reduce(r, n, ReduceOp::Sum);
                let mut bufs: Vec<Vec<f32>> = (0..r).map(|j| seeded(j, n)).collect();
                reference_run(&prog, &mut bufs);
                for i in 0..n {
                    let want: f32 = (0..r).map(|j| seeded(j, n)[i]).sum();
                    for (j, b) in bufs.iter().enumerate() {
                        assert!(
                            (b[i] - want).abs() < 1e-4,
                            "r={r} n={n} rank {j} elem {i}: {} vs {want}",
                            b[i]
                        );
                    }
                }
                // All ranks bit-identical (the all-gather phase replicates
                // the same reduced chunk to everyone).
                for b in &bufs[1..] {
                    assert_eq!(b, &bufs[0]);
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_owns_chunk_j() {
        let (r, n) = (4, 10);
        let prog = ring_reduce_scatter(r, n, ReduceOp::Sum);
        let mut bufs: Vec<Vec<f32>> = (0..r).map(|j| seeded(j, n)).collect();
        reference_run(&prog, &mut bufs);
        for (j, buf) in bufs.iter().enumerate() {
            let c = chunk_of(n, r, j);
            for (i, got) in buf.iter().enumerate().take(c.hi).skip(c.lo) {
                let want: f32 = (0..r).map(|k| seeded(k, n)[i]).sum();
                assert!((got - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn all_gather_replicates_in_rank_order() {
        let (r, part) = (5, 3);
        let prog = ring_all_gather(r, r * part);
        let mut bufs: Vec<Vec<f32>> = (0..r)
            .map(|j| {
                let mut b = vec![0.0; r * part];
                b[j * part..(j + 1) * part].copy_from_slice(&seeded(j, part));
                b
            })
            .collect();
        reference_run(&prog, &mut bufs);
        let want: Vec<f32> = (0..r).flat_map(|j| seeded(j, part)).collect();
        for b in &bufs {
            assert_eq!(b, &want);
        }
    }

    #[test]
    fn broadcast_delivers_root_buffer() {
        for r in [2usize, 3, 6] {
            for root in [0, r - 1] {
                let n = 11;
                let prog = ring_broadcast(r, n, root);
                let mut bufs: Vec<Vec<f32>> = (0..r)
                    .map(|j| {
                        if j == root {
                            seeded(root, n)
                        } else {
                            vec![0.0; n]
                        }
                    })
                    .collect();
                reference_run(&prog, &mut bufs);
                for b in &bufs {
                    assert_eq!(b, &seeded(root, n));
                }
                // The last ring position never forwards: zero egress.
                let last = (root + r - 1) % r;
                assert_eq!(prog.sent_elems(last), 0);
                assert_eq!(prog.sent_elems(root), n);
            }
        }
    }

    #[test]
    fn hierarchical_matches_flat_sum() {
        let (r, local, n) = (8, 4, 21);
        let prog = hierarchical_all_reduce(r, n, local, ReduceOp::Sum);
        let mut bufs: Vec<Vec<f32>> = (0..r).map(|j| seeded(j, n)).collect();
        reference_run(&prog, &mut bufs);
        for i in 0..n {
            let want: f32 = (0..r).map(|j| seeded(j, n)[i]).sum();
            for b in &bufs {
                assert!((b[i] - want).abs() < 1e-4);
            }
        }
        for b in &bufs[1..] {
            assert_eq!(b, &bufs[0]);
        }
    }

    #[test]
    fn divisible_volumes_match_closed_forms() {
        // For divisible buffers the classic formulas fall out exactly.
        let (r, n) = (4usize, 16usize);
        let ar = ring_all_reduce(r, n, ReduceOp::Sum);
        let rs = ring_reduce_scatter(r, n, ReduceOp::Sum);
        let ag = ring_all_gather(r, n);
        for j in 0..r {
            assert_eq!(ar.sent_elems(j), 2 * (r - 1) * n / r);
            assert_eq!(rs.sent_elems(j), (r - 1) * n / r);
            assert_eq!(ag.sent_elems(j), (r - 1) * (n / r));
        }
    }

    #[test]
    fn size_two_all_reduce_volume_is_exact_for_any_length() {
        // The (2,2,2) trainer's §3 cross-checks lean on this: at g = 2 the
        // per-rank egress equals 2·(g−1)/g·n = n elements exactly, even
        // for odd buffer lengths where the tail chunk is short.
        for n in [1usize, 3, 7, 96, 97] {
            let prog = ring_all_reduce(2, n, ReduceOp::Sum);
            assert_eq!(prog.sent_elems(0), n);
            assert_eq!(prog.sent_elems(1), n);
        }
    }

    #[test]
    fn two_members_exchange_whole_buffers_in_one_round() {
        for n in [0usize, 1, 7] {
            let prog = ring_all_reduce(2, n, ReduceOp::Max);
            prog.validate().unwrap();
            assert_eq!(prog.round_count(), 1);
            for j in 0..2 {
                assert_eq!(prog.sent_elems(j), n);
                assert!(
                    n == 0 || !prog.may_lend(j, 0),
                    "its recv writes what it sends"
                );
            }
        }
        // Both members take rank 0's operand first: of ±0, rank 0's sign;
        // a number beats a NaN on either side.
        let prog = ring_all_reduce(2, 4, ReduceOp::Max);
        let mut bufs = vec![
            vec![0.0, -0.0, f32::NAN, 1.0],
            vec![-0.0, 0.0, 2.0, f32::NAN],
        ];
        reference_run(&prog, &mut bufs);
        let bits = |b: &[f32]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bufs[0]), bits(&[0.0, -0.0, 2.0, 1.0]));
        assert_eq!(bits(&bufs[1]), bits(&bufs[0]));
    }

    #[test]
    fn executor_matches_reference_via_threaded_mailboxes() {
        // A minimal blocking mailbox transport: one queue per directed
        // edge, one thread per rank, exactly the shape the real
        // `dist::comm` transport takes.
        use std::collections::VecDeque;
        use std::sync::{Condvar, Mutex};
        struct Edge {
            q: Mutex<VecDeque<Vec<f32>>>,
            cv: Condvar,
        }
        struct Mailboxes<'a> {
            rank: usize,
            edges: &'a [Edge], // dst*r + src
            r: usize,
            messages: usize,
        }
        impl Transport for Mailboxes<'_> {
            type Error = ();
            fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), ()> {
                self.messages += 1;
                let edge = &self.edges[to * self.r + self.rank];
                edge.q.lock().unwrap().push_back(parts.concat());
                edge.cv.notify_all();
                Ok(())
            }
            fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), ()> {
                let edge = &self.edges[self.rank * self.r + from];
                let mut q = edge.q.lock().unwrap();
                loop {
                    if let Some(data) = q.pop_front() {
                        // Cut where no segment boundary is: the executor
                        // must stitch the pieces back together.
                        let pieces: Vec<&[f32]> = data.chunks(3).collect();
                        take(&pieces);
                        return Ok(());
                    }
                    q = edge.cv.wait(q).unwrap();
                }
            }
        }

        // Each rank's segments, run as one segmented program per phase;
        // one segment is a whole all-reduce run through plain `execute`.
        let r = 3usize;
        let lens = [8usize, 0, 1, 2, 4, 11];
        let rs: Vec<Program> = lens
            .iter()
            .map(|&n| ring_reduce_scatter(r, n, ReduceOp::Sum))
            .collect();
        let ag: Vec<Program> = lens.iter().map(|&n| ring_all_gather(r, n)).collect();
        let start = |j: usize| -> Vec<Vec<f32>> {
            lens.iter()
                .enumerate()
                .map(|(k, &n)| seeded(j + 7 * k, n))
                .collect()
        };
        let mut reference: Vec<Vec<Vec<f32>>> = (0..r).map(start).collect();
        for (k, &n) in lens.iter().enumerate() {
            let mut bufs: Vec<Vec<f32>> = reference.iter().map(|b| b[k].clone()).collect();
            reference_run(&ring_all_reduce(r, n, ReduceOp::Sum), &mut bufs);
            for (j, b) in bufs.into_iter().enumerate() {
                reference[j][k] = b;
            }
        }

        let edges: Vec<Edge> = (0..r * r)
            .map(|_| Edge {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            })
            .collect();
        let bufs: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..r)
                .map(|j| {
                    let (rs, ag, edges) = (&rs, &ag, &edges);
                    scope.spawn(move || {
                        let mut bufs = start(j);
                        let mut tp = Mailboxes {
                            rank: j,
                            edges,
                            r,
                            messages: 0,
                        };
                        let (head, tail) = bufs.split_at_mut(1);
                        let prog = ring_all_reduce(r, lens[0], ReduceOp::Sum);
                        let report = execute(&prog, j, &mut head[0], &mut tp).unwrap();
                        assert_eq!(report.sent_elems, prog.sent_elems(j));
                        let mut segs: Vec<&mut [f32]> =
                            tail.iter_mut().map(|b| &mut b[..]).collect();
                        for phase in [&rs[1..], &ag[1..]] {
                            let report = execute_segments(phase, j, &mut segs, &mut tp).unwrap();
                            let want: usize = phase.iter().map(|p| p.sent_elems(j)).sum();
                            assert_eq!(report.sent_elems, want);
                        }
                        // One message per round, whatever the segment count.
                        assert_eq!(tp.messages, 4 * (r - 1));
                        bufs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(bufs, reference, "executor and reference must agree bitwise");
    }
}
