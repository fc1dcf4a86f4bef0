//! Self-healing delivery over unreliable transports.
//!
//! The paper's cost models assume a healthy cluster, but at PTD-P scale the
//! dominant failures are *transient*: a dropped message, a duplicated
//! delivery, a briefly degraded link. Reacting to those with the full
//! timeout → poison → checkpoint-restore machinery (see `dist::supervisor`)
//! costs seconds of goodput for a fault whose natural cost is microseconds.
//! This module absorbs transient faults inside the collective instead:
//!
//! - [`FaultyTransport`] wraps any [`Transport`] and injects seeded,
//!   deterministic transient faults (drop / duplicate / delay /
//!   link-degrade slowdown) on the send side — the adversary.
//! - [`ReliableTransport`] wraps a [`PollTransport`] and recovers from
//!   those faults: every chunk is framed with a per-edge sequence number,
//!   the sender logs each frame in a shared [`RetransmitStore`] *before*
//!   it reaches the faulty wire, and a receiver that times out on a short
//!   poll recovers the missing frame directly from the store (the way a
//!   reliable NIC retransmits below the application). Duplicates are
//!   discarded by sequence number; recovery is bounded by a
//!   [`RetryPolicy`] budget so a genuinely dead peer still surfaces the
//!   transport's own hard error.
//!
//! Recovery is *receiver-driven* on purpose: a rank may legally finish its
//! last round and exit while a peer is still waiting on a chunk the wire
//! dropped, so asking the sender to retransmit could deadlock. Pulling from
//! the shared store never blocks on a peer thread, which is what makes the
//! chaos harness's "every collective terminates" invariant provable.
//!
//! Because recovery is lossless and does not alter the per-rank combine
//! order, results under transient faults are bit-identical to a fault-free
//! run — only timing changes.
//!
//! **Cross-process scope.** The [`RetransmitStore`] is in-memory and
//! therefore only heals faults *within* one address space. When ranks are
//! separate OS processes, a mid-frame sever leaves the loss on the kernel
//! socket, where this layer cannot see it; recovery there is the socket
//! channel's own sender-side replay log (`SocketChannel::enable_replay`,
//! armed by `dist`'s socket transport whenever retry is on), which resends
//! its recent frame window after a reconnect. The two layers compose
//! because this module's sequence numbers make the replayed duplicates
//! harmless: `next_expected` discards them exactly like wire-duplicated
//! frames.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use crate::Transport;

/// A [`Transport`] that can also wait a *bounded* time for the next chunk.
///
/// `recv_within` returning `Ok(None)` means "nothing arrived within
/// `wait`" and must leave the transport healthy — the caller may poll
/// again or recover the chunk elsewhere. A hard error (overall deadline
/// exceeded, poisoned peer) is still reported through `Err`, exactly as
/// [`Transport::recv`] would.
pub trait PollTransport: Transport {
    /// Wait up to `wait` for the next chunk from `from`.
    fn recv_within(&mut self, from: usize, wait: Duration)
        -> Result<Option<Vec<f32>>, Self::Error>;
}

/// Elements prepended to every payload by the reliable layer: a per-edge
/// sequence number split into two exactly-representable f32 words.
pub const FRAME_HEADER_ELEMS: usize = 2;

/// Sequence numbers are carried in two 24-bit halves (f32 represents
/// integers up to 2^24 exactly), bounding a single edge to 2^48 frames.
const SEQ_HALF_BITS: u32 = 24;

/// Prepend `seq` to the concatenated `parts` as two exactly-representable
/// f32 words.
fn encode_frame(seq: u64, parts: &[&[f32]]) -> Vec<f32> {
    assert!(seq < 1 << (2 * SEQ_HALF_BITS), "per-edge sequence overflow");
    let elems: usize = parts.iter().map(|p| p.len()).sum();
    let mut frame = Vec::with_capacity(FRAME_HEADER_ELEMS + elems);
    frame.push((seq >> SEQ_HALF_BITS) as f32);
    frame.push((seq & ((1 << SEQ_HALF_BITS) - 1)) as f32);
    for part in parts {
        frame.extend_from_slice(part);
    }
    frame
}

/// Split a framed chunk back into (sequence number, payload).
fn decode_frame(frame: &[f32]) -> (u64, &[f32]) {
    assert!(
        frame.len() >= FRAME_HEADER_ELEMS,
        "frame shorter than header"
    );
    let hi = frame[0] as u64;
    let lo = frame[1] as u64;
    ((hi << SEQ_HALF_BITS) | lo, &frame[FRAME_HEADER_ELEMS..])
}

/// SplitMix64: tiny, seedable, and good enough for fault injection. Kept
/// inline because this crate is deliberately dependency-free.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mix two seed words into one (for deriving per-rank / per-operation
/// fault streams from a base chaos seed, deterministically).
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut rng = SplitMix64(a ^ b.rotate_left(32));
    rng.next_u64()
}

/// Transient-fault profile injected by [`FaultyTransport`].
///
/// Probabilities are per send. `degrade_factor` models a degraded link
/// (a fault plan's `LinkDegrade`, `megatron_bench::fault_plan`): every
/// send is slowed to `factor ×` its nominal wire time of
/// `wire_ns_per_elem · elems` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientFaults {
    /// Probability a send never reaches the wire.
    pub drop_prob: f64,
    /// Probability a send is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a send is held back by `delay` before posting.
    pub delay_prob: f64,
    /// Hold-back applied to delayed sends.
    pub delay: Duration,
    /// Link slowdown factor (≥ 1.0; 1.0 = healthy link).
    pub degrade_factor: f64,
    /// Nominal per-element wire time the degrade factor multiplies.
    pub wire_ns_per_elem: f64,
}

impl Default for TransientFaults {
    fn default() -> Self {
        TransientFaults {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_micros(500),
            degrade_factor: 1.0,
            wire_ns_per_elem: 2.0,
        }
    }
}

impl TransientFaults {
    /// Does this profile inject anything at all?
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_prob > 0.0
            || self.degrade_factor > 1.0
    }
}

/// What a [`FaultyTransport`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Sends silently dropped.
    pub dropped: u64,
    /// Sends delivered twice.
    pub duplicated: u64,
    /// Sends held back by the delay fault.
    pub delayed: u64,
    /// Sends slowed by the link-degrade factor.
    pub degraded: u64,
}

impl FaultTally {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.degraded
    }

    /// Element-wise sum (for aggregating across transports).
    pub fn plus(&self, other: &FaultTally) -> FaultTally {
        FaultTally {
            dropped: self.dropped + other.dropped,
            duplicated: self.duplicated + other.duplicated,
            delayed: self.delayed + other.delayed,
            degraded: self.degraded + other.degraded,
        }
    }
}

/// Seeded transient-fault injector over any [`Transport`].
///
/// Faults act on the send side only (the wire is where messages are lost),
/// so FIFO delivery order per edge is preserved: a delayed or degraded
/// send sleeps *before* posting, and later sends from the same rank post
/// after it. Three uniform draws are consumed per send regardless of
/// outcome, so the random stream position — and therefore every subsequent
/// fault decision — depends only on the seed and the send count.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    rng: SplitMix64,
    faults: TransientFaults,
    tally: FaultTally,
}

impl<T> FaultyTransport<T> {
    /// Wrap `inner`, injecting `faults` from the deterministic `seed`.
    pub fn new(inner: T, faults: TransientFaults, seed: u64) -> Self {
        FaultyTransport {
            inner,
            rng: SplitMix64(mix_seed(seed, 0x6661_756c_7479)), // "faulty"
            faults,
            tally: FaultTally::default(),
        }
    }

    /// Faults injected so far.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    /// Unwrap, returning the inner transport and the final tally.
    pub fn into_parts(self) -> (T, FaultTally) {
        (self.inner, self.tally)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    type Error = T::Error;

    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), Self::Error> {
        let (r_drop, r_dup, r_delay) = (
            self.rng.next_f64(),
            self.rng.next_f64(),
            self.rng.next_f64(),
        );
        if self.faults.degrade_factor > 1.0 {
            let elems: usize = parts.iter().map(|p| p.len()).sum();
            let extra_ns =
                self.faults.wire_ns_per_elem * elems as f64 * (self.faults.degrade_factor - 1.0);
            std::thread::sleep(Duration::from_nanos(extra_ns as u64));
            self.tally.degraded += 1;
        }
        if r_drop < self.faults.drop_prob {
            self.tally.dropped += 1;
            return Ok(()); // lost on the wire
        }
        if r_delay < self.faults.delay_prob {
            self.tally.delayed += 1;
            std::thread::sleep(self.faults.delay);
        }
        self.inner.send(to, parts)?;
        if r_dup < self.faults.duplicate_prob {
            self.tally.duplicated += 1;
            self.inner.send(to, parts)?;
        }
        Ok(())
    }

    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), Self::Error> {
        self.inner.recv(from, take)
    }
}

impl<T: PollTransport> PollTransport for FaultyTransport<T> {
    fn recv_within(
        &mut self,
        from: usize,
        wait: Duration,
    ) -> Result<Option<Vec<f32>>, Self::Error> {
        self.inner.recv_within(from, wait)
    }
}

/// Retry/retransmit parameters of the reliable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First poll interval; doubles per miss (exponential backoff).
    pub base_backoff: Duration,
    /// Upper bound on the per-attempt poll interval.
    pub max_backoff: Duration,
    /// Maximum store recoveries per transport before the layer gives up
    /// and lets the underlying hard timeout surface.
    pub retransmit_budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            retransmit_budget: 64,
        }
    }
}

/// What a [`ReliableTransport`] did to keep a collective alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Poll attempts that timed out and triggered a recovery check.
    pub retries: u64,
    /// Frames recovered from the [`RetransmitStore`].
    pub retransmits: u64,
    /// Frames discarded as already-delivered duplicates.
    pub duplicates_dropped: u64,
}

impl RetryStats {
    /// Element-wise sum (for aggregating across transports).
    pub fn plus(&self, other: &RetryStats) -> RetryStats {
        RetryStats {
            retries: self.retries + other.retries,
            retransmits: self.retransmits + other.retransmits,
            duplicates_dropped: self.duplicates_dropped + other.duplicates_dropped,
        }
    }
}

/// Per-directed-edge reliable-delivery state.
#[derive(Debug, Default)]
struct EdgeState {
    /// Next sequence number the sender will stamp.
    next_seq: u64,
    /// Next sequence number the receiver expects.
    next_expected: u64,
    /// Recently sent frames, logged before the (possibly faulty) wire.
    log: VecDeque<(u64, Vec<f32>)>,
}

/// Frames an edge keeps for recovery. Round-synchronous collectives have
/// at most one frame in flight per edge, so a small window is generous.
const RETRANSMIT_WINDOW: usize = 64;

/// Shared sender-side frame log, one slot per directed edge.
///
/// Senders append every frame *before* it touches the wire; receivers that
/// give up polling pull the missing frame straight out of the store. This
/// models NIC/RDMA-level reliable delivery: recovery never requires the
/// peer thread to still be scheduled (it may have finished its program).
#[derive(Debug)]
pub struct RetransmitStore {
    ranks: usize,
    /// Indexed `dst * ranks + src`, matching the mailbox convention.
    edges: Vec<Mutex<EdgeState>>,
}

impl RetransmitStore {
    /// A store for a group of `ranks` members.
    pub fn new(ranks: usize) -> Self {
        RetransmitStore {
            ranks,
            edges: (0..ranks * ranks).map(|_| Mutex::default()).collect(),
        }
    }

    /// Group size this store serves.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn edge(&self, src: usize, dst: usize) -> &Mutex<EdgeState> {
        &self.edges[dst * self.ranks + src]
    }
}

/// Reliable delivery over a lossy [`PollTransport`].
///
/// Wrap the *faulty* side (e.g. `ReliableTransport` over
/// [`FaultyTransport`] over a mailbox): sends are framed and logged, recvs
/// are deduplicated, reordered, and recovered. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct ReliableTransport<'s, T> {
    inner: T,
    store: &'s RetransmitStore,
    rank: usize,
    policy: RetryPolicy,
    /// Out-of-order frames already popped from the wire, per source rank.
    pending: Vec<BTreeMap<u64, Vec<f32>>>,
    stats: RetryStats,
}

impl<'s, T: PollTransport> ReliableTransport<'s, T> {
    /// Wrap `inner` as group member `rank`, sharing `store` with peers.
    pub fn new(inner: T, store: &'s RetransmitStore, rank: usize, policy: RetryPolicy) -> Self {
        assert!(rank < store.ranks(), "rank outside the store's group");
        ReliableTransport {
            inner,
            store,
            rank,
            policy,
            pending: (0..store.ranks()).map(|_| BTreeMap::new()).collect(),
            stats: RetryStats::default(),
        }
    }

    /// Recovery and dedup counters so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Unwrap, returning the inner transport and the final stats.
    pub fn into_parts(self) -> (T, RetryStats) {
        (self.inner, self.stats)
    }

    /// Mark `expected` consumed on the `from → self.rank` edge.
    fn advance(&self, from: usize) {
        self.store
            .edge(from, self.rank)
            .lock()
            .unwrap()
            .next_expected += 1;
    }

    /// The next payload from `from` in sequence order: off the wire, out
    /// of the reorder store, or recovered from the retransmit store.
    fn next_payload(&mut self, from: usize) -> Result<Vec<f32>, T::Error> {
        let expected = self
            .store
            .edge(from, self.rank)
            .lock()
            .unwrap()
            .next_expected;
        if let Some(data) = self.pending[from].remove(&expected) {
            self.advance(from);
            return Ok(data);
        }
        let mut wait = self.policy.base_backoff;
        loop {
            match self.inner.recv_within(from, wait)? {
                Some(frame) => {
                    let (seq, data) = decode_frame(&frame);
                    if seq < expected {
                        // Duplicate of something already consumed (or
                        // already recovered from the store).
                        self.stats.duplicates_dropped += 1;
                        continue;
                    }
                    if seq == expected {
                        self.advance(from);
                        return Ok(data.to_vec());
                    }
                    // Gap: `expected` was lost in flight. Stash this frame
                    // and recover the missing one from the store (FIFO
                    // guarantees the sender logged it before this frame).
                    self.pending[from].insert(seq, data.to_vec());
                    if let Some(data) = self.recover(from, expected) {
                        return Ok(data);
                    }
                }
                None => {
                    // Poll miss: check the store, then back off.
                    self.stats.retries += 1;
                    if let Some(data) = self.recover(from, expected) {
                        return Ok(data);
                    }
                    wait = (wait * 2).min(self.policy.max_backoff);
                }
            }
        }
    }

    /// Try to pull frame `expected` out of the shared store (budget
    /// permitting). On success the edge cursor is advanced atomically.
    fn recover(&mut self, from: usize, expected: u64) -> Option<Vec<f32>> {
        if self.stats.retransmits >= u64::from(self.policy.retransmit_budget) {
            return None;
        }
        let mut edge = self.store.edge(from, self.rank).lock().unwrap();
        let data = edge
            .log
            .iter()
            .find(|(seq, _)| *seq == expected)
            .map(|(_, data)| data.clone())?;
        edge.next_expected += 1;
        drop(edge);
        self.stats.retransmits += 1;
        #[cfg(test)]
        tests::note(tests::Seen::Recovered(from, expected));
        Some(data)
    }
}

impl<T: PollTransport> Transport for ReliableTransport<'_, T> {
    type Error = T::Error;

    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), Self::Error> {
        let frame = {
            let mut edge = self.store.edge(self.rank, to).lock().unwrap();
            let seq = edge.next_seq;
            edge.next_seq += 1;
            edge.log.push_back((seq, parts.concat()));
            // Prune consumed frames and bound the window.
            let consumed = edge.next_expected;
            while edge
                .log
                .front()
                .is_some_and(|(s, _)| *s < consumed || edge.log.len() > RETRANSMIT_WINDOW)
            {
                edge.log.pop_front();
            }
            encode_frame(seq, parts)
        };
        self.inner.send(to, &[&frame])
    }

    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), Self::Error> {
        take(&[&self.next_payload(from)?]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, reference_run, ring_all_reduce, ReduceOp};
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::mpsc;
    use std::time::Instant;

    /// A frame a rank's thread got, as `(source, sequence number)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Seen {
        /// Taken off the wire.
        Read(usize, u64),
        /// Recovered from the store.
        Recovered(usize, u64),
    }

    thread_local! {
        /// The frames this thread got, in the order it got them.
        static SEEN: RefCell<Vec<Seen>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note(seen: Seen) {
        SEEN.with_borrow_mut(|log| log.push(seen));
    }

    /// Minimal pollable transport: one mpsc channel per directed edge,
    /// with an overall hard deadline standing in for `dist::comm`'s group
    /// timeout. It logs every frame it puts on the wire, and notes every
    /// frame its owner takes off it ([`Seen::Read`]).
    struct ChanTransport {
        txs: Vec<Option<mpsc::Sender<Vec<f32>>>>,
        rxs: Vec<Option<mpsc::Receiver<Vec<f32>>>>,
        deadline: Instant,
        /// `(destination, sequence number)` of each frame sent.
        sent: Vec<(usize, u64)>,
    }

    #[derive(Debug, PartialEq, Eq)]
    enum ChanError {
        Deadline,
    }

    impl Transport for ChanTransport {
        type Error = ChanError;

        fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), ChanError> {
            // A send to a peer that already finished its program lands in
            // the void — like the real mailbox (owned by the group, not
            // the peer thread), the sender must never block or fail on it.
            let frame = parts.concat();
            self.sent.push((to, decode_frame(&frame).0));
            let _ = self.txs[to].as_ref().unwrap().send(frame);
            Ok(())
        }

        fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), ChanError> {
            loop {
                if let Some(data) = self.recv_within(from, Duration::from_millis(5))? {
                    take(&[&data]);
                    return Ok(());
                }
            }
        }
    }

    impl PollTransport for ChanTransport {
        fn recv_within(
            &mut self,
            from: usize,
            wait: Duration,
        ) -> Result<Option<Vec<f32>>, ChanError> {
            let now = Instant::now();
            if now >= self.deadline {
                return Err(ChanError::Deadline);
            }
            let wait = wait.min(self.deadline - now);
            match self.rxs[from].as_ref().unwrap().recv_timeout(wait) {
                Ok(data) => {
                    note(Seen::Read(from, decode_frame(&data).0));
                    Ok(Some(data))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= self.deadline {
                        Err(ChanError::Deadline)
                    } else {
                        Ok(None)
                    }
                }
                // A finished peer drops its senders; frames it dropped on
                // the wire are still recoverable from the store, so treat
                // disconnection as a poll miss (the real mailbox transport
                // never disconnects). The hard deadline bounds the loop.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    std::thread::sleep(wait);
                    Ok(None)
                }
            }
        }
    }

    /// Build one ChanTransport per rank (full mesh) with a shared deadline.
    fn mesh(r: usize, deadline: Duration) -> Vec<ChanTransport> {
        let deadline = Instant::now() + deadline;
        type Cell = (
            Option<mpsc::Sender<Vec<f32>>>,
            Option<mpsc::Receiver<Vec<f32>>>,
        );
        let mut cells: Vec<Vec<Cell>> = (0..r)
            .map(|_| {
                (0..r)
                    .map(|_| {
                        let (tx, rx) = mpsc::channel();
                        (Some(tx), Some(rx))
                    })
                    .collect()
            })
            .collect();
        (0..r)
            .map(|j| ChanTransport {
                txs: (0..r).map(|dst| cells[dst][j].0.take()).collect(),
                rxs: (0..r).map(|src| cells[j][src].1.take()).collect(),
                deadline,
                sent: Vec::new(),
            })
            .collect()
    }

    /// Run `prog` across threads with faults injected under the reliable
    /// layer; return final buffers plus per-rank stats and tallies.
    #[allow(clippy::type_complexity)]
    fn run_with_faults(
        prog: &crate::Program,
        bufs: &mut [Vec<f32>],
        faults: TransientFaults,
        policy: RetryPolicy,
        deadline: Duration,
        seed: u64,
    ) -> Vec<Result<(RetryStats, FaultTally), String>> {
        let (ranks, _) = run_logged(prog, bufs, faults, policy, deadline, seed);
        let stats = |r: RankLog| (r.stats, r.tally);
        ranks.into_iter().map(|r| r.map(stats)).collect()
    }

    /// What one rank of [`run_logged`] did and saw.
    struct RankLog {
        stats: RetryStats,
        tally: FaultTally,
        /// `(destination, sequence number)` of the frames it put on the
        /// wire.
        sent: Vec<(usize, u64)>,
        /// The frames it got, in order.
        seen: Vec<Seen>,
    }

    /// [`run_with_faults`] with each rank's frame logs, and the frames the
    /// reliable layer stamped on each edge (`[src][dst]`).
    #[allow(clippy::type_complexity)]
    fn run_logged(
        prog: &crate::Program,
        bufs: &mut [Vec<f32>],
        faults: TransientFaults,
        policy: RetryPolicy,
        deadline: Duration,
        seed: u64,
    ) -> (Vec<Result<RankLog, String>>, Vec<Vec<u64>>) {
        let store = RetransmitStore::new(prog.ranks);
        let transports = mesh(prog.ranks, deadline);
        let ranks = std::thread::scope(|scope| {
            let store = &store;
            let handles: Vec<_> = transports
                .into_iter()
                .zip(bufs.iter_mut())
                .enumerate()
                .map(|(j, (chan, buf))| {
                    scope.spawn(move || {
                        let faulty = FaultyTransport::new(chan, faults, mix_seed(seed, j as u64));
                        let mut rel = ReliableTransport::new(faulty, store, j, policy);
                        let run = execute(prog, j, buf, &mut rel);
                        let (faulty, stats) = rel.into_parts();
                        let (wire, tally) = faulty.into_parts();
                        run.map_err(|e| format!("{e:?}"))?;
                        Ok(RankLog {
                            stats,
                            tally,
                            sent: wire.sent,
                            seen: SEEN.take(),
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stamped = (0..prog.ranks)
            .map(|src| {
                (0..prog.ranks)
                    .map(|dst| store.edge(src, dst).lock().unwrap().next_seq)
                    .collect()
            })
            .collect();
        (ranks, stamped)
    }

    fn seeded_bufs(r: usize, n: usize) -> Vec<Vec<f32>> {
        (0..r)
            .map(|j| {
                (0..n)
                    .map(|i| ((j * n + i) % 13) as f32 * 0.5 - 3.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn frame_round_trip_preserves_seq_and_payload() {
        for seq in [0u64, 1, 12345, (1 << 24) - 1, 1 << 24, (1 << 40) + 17] {
            let payload = [1.5f32, -2.25, 0.0];
            let frame = encode_frame(seq, &[&payload[..]]);
            assert_eq!(frame.len(), FRAME_HEADER_ELEMS + payload.len());
            let (got_seq, got) = decode_frame(&frame);
            assert_eq!(got_seq, seq);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn mix_seed_is_deterministic_and_sensitive() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(1, 3));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 2));
    }

    #[test]
    fn reliable_layer_is_transparent_without_faults() {
        let prog = ring_all_reduce(4, 37, ReduceOp::Sum);
        let mut want = seeded_bufs(4, 37);
        reference_run(&prog, &mut want);
        let mut got = seeded_bufs(4, 37);
        let results = run_with_faults(
            &prog,
            &mut got,
            TransientFaults::default(),
            RetryPolicy::default(),
            Duration::from_secs(5),
            7,
        );
        for r in &results {
            let (stats, tally) = r.as_ref().unwrap();
            assert_eq!(stats.retransmits, 0);
            assert_eq!(tally.total(), 0);
        }
        assert_eq!(got, want);
    }

    /// Every frame the wire dropped is recovered from the store exactly
    /// once, and any other recovery is of a frame its receiver had not yet
    /// taken off the wire: a poll may expire after the sender logged a
    /// frame and before the frame reached the wire, and the receiver then
    /// rightly recovers it. No frame is recovered twice.
    #[test]
    fn dropped_messages_are_recovered_bit_identically() {
        let prog = ring_all_reduce(4, 101, ReduceOp::Sum);
        let mut want = seeded_bufs(4, 101);
        reference_run(&prog, &mut want);
        let faults = TransientFaults {
            drop_prob: 0.3,
            ..TransientFaults::default()
        };
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(200),
            ..RetryPolicy::default()
        };
        let mut got = seeded_bufs(4, 101);
        let (ranks, stamped) =
            run_logged(&prog, &mut got, faults, policy, Duration::from_secs(10), 42);
        let ranks: Vec<RankLog> = ranks.into_iter().map(Result::unwrap).collect();

        // (src, dst, seq) of every frame stamped and never put on the wire.
        let on_wire: BTreeSet<(usize, usize, u64)> = (ranks.iter().enumerate())
            .flat_map(|(src, r)| r.sent.iter().map(move |&(dst, seq)| (src, dst, seq)))
            .collect();
        let dropped: BTreeSet<(usize, usize, u64)> = (stamped.iter().enumerate())
            .flat_map(|(src, row)| {
                let edges = row.iter().enumerate();
                edges.flat_map(move |(dst, &n)| (0..n).map(move |seq| (src, dst, seq)))
            })
            .filter(|frame| !on_wire.contains(frame))
            .collect();
        let tallied: u64 = ranks.iter().map(|r| r.tally.dropped).sum();
        assert!(tallied > 0, "a 30% drop rate must hit at least one send");
        assert_eq!(dropped.len() as u64, tallied, "dropped frames: {dropped:?}");

        let mut recovered = BTreeSet::new();
        for (dst, r) in ranks.iter().enumerate() {
            let mut read = BTreeSet::new();
            for &seen in &r.seen {
                let (src, seq) = match seen {
                    Seen::Read(src, seq) => {
                        read.insert((src, seq));
                        continue;
                    }
                    Seen::Recovered(src, seq) => (src, seq),
                };
                assert!(
                    recovered.insert((src, dst, seq)),
                    "frame {seq} of {src} -> {dst} recovered twice"
                );
                assert!(
                    !read.contains(&(src, seq)),
                    "frame {seq} of {src} -> {dst} recovered after the wire delivered it"
                );
            }
        }
        let count: u64 = ranks.iter().map(|r| r.stats.retransmits).sum();
        assert_eq!(count, recovered.len() as u64, "recoveries the stats count");
        let lost: Vec<_> = dropped.difference(&recovered).collect();
        assert!(lost.is_empty(), "dropped frames never recovered: {lost:?}");
        assert_eq!(got, want, "recovery must be bit-identical");
    }

    #[test]
    fn duplicates_are_discarded() {
        let prog = ring_all_reduce(4, 64, ReduceOp::Sum);
        let mut want = seeded_bufs(4, 64);
        reference_run(&prog, &mut want);
        let faults = TransientFaults {
            duplicate_prob: 1.0,
            ..TransientFaults::default()
        };
        let mut got = seeded_bufs(4, 64);
        let results = run_with_faults(
            &prog,
            &mut got,
            faults,
            RetryPolicy::default(),
            Duration::from_secs(10),
            3,
        );
        let mut dup_injected = 0;
        let mut dup_dropped = 0;
        for r in &results {
            let (stats, tally) = r.as_ref().unwrap();
            dup_injected += tally.duplicated;
            dup_dropped += stats.duplicates_dropped;
        }
        assert!(dup_injected > 0);
        // A duplicate of a rank's final-round frame may never be polled
        // again, so a small trailing remainder can stay unread.
        assert!(
            dup_dropped > 0 && dup_dropped <= dup_injected,
            "duplicates must be discarded, not combined: {dup_dropped}/{dup_injected}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_drop_dup_delay_still_bit_identical() {
        let prog = ring_all_reduce(4, 53, ReduceOp::Sum);
        let mut want = seeded_bufs(4, 53);
        reference_run(&prog, &mut want);
        let faults = TransientFaults {
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            delay_prob: 0.2,
            delay: Duration::from_micros(300),
            degrade_factor: 3.0,
            ..TransientFaults::default()
        };
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(200),
            ..RetryPolicy::default()
        };
        for seed in 0..5u64 {
            let mut got = seeded_bufs(4, 53);
            let results = run_with_faults(
                &prog,
                &mut got,
                faults,
                policy,
                Duration::from_secs(10),
                0xc0ffee + seed,
            );
            for r in &results {
                r.as_ref().unwrap();
            }
            assert_eq!(got, want, "seed {seed} diverged");
        }
    }

    #[test]
    fn exhausted_budget_surfaces_the_hard_timeout() {
        let prog = ring_all_reduce(2, 16, ReduceOp::Sum);
        let faults = TransientFaults {
            drop_prob: 1.0, // nothing ever arrives: every recv needs recovery
            ..TransientFaults::default()
        };
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            retransmit_budget: 1, // the second loss exceeds the budget
        };
        let mut bufs = seeded_bufs(2, 16);
        let results = run_with_faults(
            &prog,
            &mut bufs,
            faults,
            policy,
            Duration::from_millis(300),
            9,
        );
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(e) if e.contains("Deadline"))),
            "budget exhaustion must surface the transport's hard timeout: {results:?}"
        );
    }

    #[test]
    fn faulty_transport_same_seed_same_faults() {
        // Scripted sends through a sink transport: the injected fault
        // sequence must be a pure function of the seed.
        struct Sink;
        impl Transport for Sink {
            type Error = ();
            fn send(&mut self, _to: usize, _p: &[&[f32]]) -> Result<(), ()> {
                Ok(())
            }
            fn recv<F: FnOnce(&[&[f32]])>(&mut self, _from: usize, _take: F) -> Result<(), ()> {
                unreachable!()
            }
        }
        let faults = TransientFaults {
            drop_prob: 0.4,
            duplicate_prob: 0.3,
            ..TransientFaults::default()
        };
        let tally_of = |seed: u64| {
            let mut t = FaultyTransport::new(Sink, faults, seed);
            for i in 0..200 {
                t.send(i % 4, &[&[0.0; 8]]).unwrap();
            }
            t.tally()
        };
        assert_eq!(tally_of(11), tally_of(11));
        assert_ne!(tally_of(11), tally_of(12));
    }
}
