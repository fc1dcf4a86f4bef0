//! Real-socket [`Transport`]: length-prefixed f32 frames over Unix-domain
//! or TCP-loopback sockets.
//!
//! This is the second wire under the step [`Program`](crate::Program)s, after
//! the in-process mailbox: the same collectives cross a genuine kernel
//! socket, with everything that implies — partial reads and writes, full
//! socket buffers, and peers that are whole other OS processes. The frame
//! format is deliberately tiny:
//!
//! ```text
//! data frame  :=  elem_count : u32 LE  |  elem_count × f32 LE
//! hello frame :=  MAGIC : u64 LE | channel : u64 LE | src : u64 LE | pid : u64 LE
//! ```
//!
//! The floats cross through the crate's byte codec ([`crate::codec`]): a
//! send copies each part of its message into the frame whole
//! ([`put_f32s`]), one copy per part, and the reader turns each complete
//! frame's payload back into a `Vec<f32>` with one copy ([`f32s_from`]).
//! The bytes are those of one `to_le_bytes` per float, which is what an
//! `f32` in memory is on the little-endian targets the codec builds for
//! (it refuses to build for any other).
//!
//! One [`SocketNode`] per process owns the listener and every connection of
//! every [`SocketChannel`] in the process; no thread runs behind it. All
//! sockets are non-blocking. A `send` appends its frame to the peer's queue
//! and writes what the kernel accepts at once; what the kernel does not take
//! stays queued in user space, so a send never waits for its receiver, at any
//! frame size. Whatever call the thread blocks in next — a `recv` or a
//! channel's drop, on *any* channel of the node — waits in
//! one `poll(2)` over the whole node, and while it waits it accepts and
//! identifies new connections, writes every queued byte toward every peer,
//! and reads every readable stream into its channel's frame queue. Flushing
//! has to span the node: a pipeline stage that sends a large activation on
//! one lane and then blocks on another lane, or two devices exchanging
//! activations over two stage boundaries at once, would deadlock if a wait
//! only flushed its own channel.
//!
//! One thread at a time waits on a node (a rank process's training thread,
//! the launcher's heartbeat reader). A thread that only sends — the
//! heartbeat beacon — never waits behind that thread's `poll(2)`: the node's
//! lock is held for non-blocking calls only, never across the poll.
//!
//! Every inbound connection announces `(channel, src rank, pid)` in a hello
//! frame and is filed under `(channel, src)`. A sender dials each peer of a
//! channel once — retrying while the peer's listener is not up yet — and
//! writes every frame on that one connection, so frames arrive in order.
//! Like NCCL's, the wire is reliable or failed: a connection that breaks
//! means its peer is gone. The sender drops what it queued for that peer,
//! the receiver stops reading it, and the wait for the peer's next frame
//! ends at the deadline, which the group above reports as a rank failure.
//!
//! The node counts the system calls it makes on its connections —
//! `poll(2)` waits, reads and writes ([`SocketNode::calls`]) — under the
//! lock it holds for them anyway; a traced rank process records them per
//! steady iteration beside its context switches.

use crate::{f32s_from, put_f32s, Transport};
use std::collections::{HashMap, VecDeque};
use std::ffi::{c_int, c_short, c_ulong};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// First u64 of every hello frame; connections that don't present it are
/// dropped.
const HELLO_MAGIC: u64 = 0x4d45_4741_534f_434b; // "MEGASOCK"

/// Bytes of a hello frame.
const HELLO_LEN: usize = 32;

/// Backoff between connect attempts while a peer's listener isn't up yet.
const DIAL_BACKOFF: Duration = Duration::from_millis(2);

/// Least free room a read gets in a stream's receive buffer; the buffer
/// doubles when less is left.
const READ_CHUNK: usize = 64 * 1024;

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Sleep until one of `fds` is ready (errors and hang-ups count) or
/// `timeout` passes. An interrupted call just returns early.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a valid, writable array of `pollfd` records for the
    // duration of the call, and its length is passed with it.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
}

/// The first `N` bytes of `b`, for a little-endian decode.
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    b[..N].try_into().expect("a slice of exactly N bytes")
}

/// System calls a [`SocketNode`] made on its connections since it was
/// bound, counted under the node's lock: every thread that uses the node
/// (a rank process's training thread and its heartbeat beacon) adds to
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketCalls {
    /// `poll(2)` waits.
    pub polls: u64,
    /// Reads of connected streams, hellos included.
    pub reads: u64,
    /// Writes to connected streams, hellos included.
    pub writes: u64,
}

impl SocketCalls {
    /// The calls made between `earlier` and `self`.
    pub fn since(self, earlier: SocketCalls) -> SocketCalls {
        SocketCalls {
            polls: self.polls - earlier.polls,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

/// Where a peer's listener lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// Unix-domain socket path (the default: lowest latency, no ports).
    Uds(PathBuf),
    /// TCP socket address (loopback in tests; any address in principle).
    Tcp(SocketAddr),
}

impl fmt::Display for WireAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireAddr::Uds(p) => write!(f, "uds:{}", p.display()),
            WireAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl WireAddr {
    /// Parse the `Display` form back (`uds:/path` or `tcp:host:port`).
    pub fn parse(s: &str) -> Option<WireAddr> {
        if let Some(p) = s.strip_prefix("uds:") {
            Some(WireAddr::Uds(PathBuf::from(p)))
        } else if let Some(a) = s.strip_prefix("tcp:") {
            a.parse().ok().map(WireAddr::Tcp)
        } else {
            None
        }
    }
}

/// Hard socket-transport failure. Kept `Copy + Eq` so
/// [`StepFailure`](crate::StepFailure) keeps its derives over this error.
/// A broken connection is not one either: its peer is gone, and that
/// surfaces as the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The channel's overall deadline expired (peer dead or wedged).
    Deadline,
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket deadline exceeded")
    }
}

/// What the node needs of a connected stream of either family; every one
/// is non-blocking.
trait Conn: Read + Write + AsRawFd + Send + fmt::Debug {}
impl<T: Read + Write + AsRawFd + Send + fmt::Debug> Conn for T {}
type Stream = Box<dyn Conn>;

/// Connect to `addr` and announce `hello`.
fn dial(addr: &WireAddr, hello: &[u8]) -> io::Result<Stream> {
    let mut s: Stream = match addr {
        WireAddr::Uds(p) => {
            let s = UnixStream::connect(p)?;
            s.set_nonblocking(true)?;
            Box::new(s)
        }
        WireAddr::Tcp(a) => {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Box::new(s)
        }
    };
    // A fresh connection's send buffer is empty: 32 bytes go at once.
    s.write_all(hello)?;
    Ok(s)
}

#[derive(Debug)]
enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Uds(l) => {
                let s = l.accept()?.0;
                s.set_nonblocking(true)?;
                Box::new(s)
            }
            Listener::Tcp(l) => {
                let s = l.accept()?.0;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Box::new(s)
            }
        })
    }

    fn fd(&self) -> RawFd {
        match self {
            Listener::Uds(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// Everything bound for one peer of one channel.
#[derive(Debug)]
struct Outbound {
    addr: WireAddr,
    hello: [u8; HELLO_LEN],
    /// `None` until dialled, and again after the connection broke.
    stream: Option<Stream>,
    /// Frames not yet written, the front one up to `offset`.
    queue: VecDeque<Vec<u8>>,
    offset: usize,
    /// The connection broke: the peer is gone, and what is sent to it is
    /// dropped.
    broken: bool,
}

impl Outbound {
    /// Write queued frames until the queue is empty, the kernel stops
    /// taking bytes, or the connection breaks. Dials first when there is no
    /// connection; a failed dial (the peer's listener is not up yet) leaves
    /// everything queued for a later try.
    fn flush(&mut self, calls: &mut SocketCalls) {
        while let Some(bytes) = self.queue.front() {
            if self.stream.is_none() {
                match dial(&self.addr, &self.hello) {
                    Ok(s) => self.stream = Some(s),
                    Err(_) => return,
                }
                calls.writes += 1;
            }
            let stream = self.stream.as_mut().expect("dialled above");
            calls.writes += 1;
            match stream.write(&bytes[self.offset..]) {
                Ok(n) if self.offset + n == bytes.len() => {
                    self.offset = 0;
                    self.queue.pop_front();
                }
                // The kernel buffer is full.
                Ok(n) => {
                    self.offset += n;
                    return;
                }
                Err(e) if retryable(&e) => return,
                Err(_) => {
                    // The peer is gone: nothing queued for it can arrive.
                    self.stream = None;
                    self.queue.clear();
                    self.offset = 0;
                    self.broken = true;
                    return;
                }
            }
        }
    }
}

/// Everything received from one peer of one channel.
#[derive(Debug, Default)]
struct Inbound {
    /// The peer's connection: `None` before its hello is read and after
    /// the connection ends.
    conn: Option<Stream>,
    /// Bytes of the frame being assembled: `buf[..filled]`.
    buf: Vec<u8>,
    filled: usize,
    /// Complete frames not yet taken.
    ready: VecDeque<Vec<f32>>,
    /// Peer's OS process id, from its hello.
    pid: u32,
}

impl Inbound {
    /// One read from the connection; complete frames move to `ready`.
    fn read(&mut self, calls: &mut SocketCalls) {
        let Some(stream) = self.conn.as_mut() else {
            return;
        };
        // Grow with the bytes that arrived, never with a length header.
        if self.buf.len() - self.filled < READ_CHUNK {
            let grown = (2 * self.buf.len()).max(self.filled + READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        calls.reads += 1;
        match stream.read(&mut self.buf[self.filled..]) {
            Ok(n) if n > 0 => {
                self.filled += n;
                self.split_frames();
            }
            Err(e) if retryable(&e) => {}
            // EOF, reset or any other read error: the peer is gone.
            _ => self.conn = None,
        }
    }

    /// Move complete `len | payload` frames out of the assembly buffer.
    fn split_frames(&mut self) {
        let mut at = 0;
        while self.filled - at >= 4 {
            let n = u32::from_le_bytes(le(&self.buf[at..])) as usize;
            let end = at + 4 + 4 * n;
            if end > self.filled {
                break;
            }
            self.ready.push_back(f32s_from(&self.buf[at + 4..end]));
            at = end;
        }
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
    }
}

/// An accepted connection still reading its hello.
#[derive(Debug)]
struct Greeting {
    stream: Stream,
    hello: [u8; HELLO_LEN],
    got: usize,
}

/// What one entry of the poll set stands for.
#[derive(Debug, Clone, Copy)]
enum End {
    Listener,
    Greeting,
    In((u64, usize)),
    Out((u64, usize)),
}

/// Every connection of a node, keyed by `(channel, peer rank)`.
#[derive(Debug)]
struct Io {
    listener: Listener,
    greeting: Vec<Greeting>,
    inbound: HashMap<(u64, usize), Inbound>,
    out: HashMap<(u64, usize), Outbound>,
    calls: SocketCalls,
}

impl Io {
    /// The next frame from `key`, if one is there.
    fn take_frame(&mut self, key: (u64, usize)) -> Option<Vec<f32>> {
        self.inbound.get_mut(&key)?.ready.pop_front()
    }

    /// Read hellos; file complete ones, drop garbage.
    fn greet(&mut self) {
        for mut g in std::mem::take(&mut self.greeting) {
            self.calls.reads += 1;
            match g.stream.read(&mut g.hello[g.got..]) {
                Ok(0) => continue,
                Ok(n) => g.got += n,
                Err(e) if retryable(&e) => {}
                Err(_) => continue,
            }
            if g.got < HELLO_LEN {
                self.greeting.push(g);
                continue;
            }
            let word = |i: usize| u64::from_le_bytes(le(&g.hello[i * 8..]));
            if word(0) != HELLO_MAGIC {
                continue;
            }
            let slot = self.inbound.entry((word(1), word(2) as usize)).or_default();
            slot.pid = word(3) as u32;
            slot.conn = Some(g.stream);
        }
    }

    /// The poll set: the listener, hellos in progress, every connection
    /// being read, and every connection with bytes to write. Returns
    /// whether some queue is waiting for a connection to be dialled.
    fn poll_set(&self, fds: &mut Vec<PollFd>, ends: &mut Vec<End>) -> bool {
        fds.clear();
        ends.clear();
        let mut add = |fd, events, end| {
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            ends.push(end);
        };
        add(self.listener.fd(), POLLIN, End::Listener);
        for g in &self.greeting {
            add(g.stream.as_raw_fd(), POLLIN, End::Greeting);
        }
        for (key, i) in &self.inbound {
            if let Some(s) = &i.conn {
                add(s.as_raw_fd(), POLLIN, End::In(*key));
            }
        }
        let mut redial = false;
        for (key, o) in self.out.iter().filter(|(_, o)| !o.queue.is_empty()) {
            match &o.stream {
                Some(s) => add(s.as_raw_fd(), POLLOUT, End::Out(*key)),
                None => redial = true,
            }
        }
        redial
    }

    /// Act on what the last poll reported, and retry pending dials.
    fn service(&mut self, fds: &[PollFd], ends: &[End]) {
        for (pfd, end) in fds.iter().zip(ends) {
            if pfd.revents == 0 {
                continue;
            }
            match *end {
                End::Listener => {
                    while let Ok(stream) = self.listener.accept() {
                        self.greeting.push(Greeting {
                            stream,
                            hello: [0; HELLO_LEN],
                            got: 0,
                        });
                    }
                }
                End::Greeting => {}
                End::In(key) => {
                    if let Some(i) = self.inbound.get_mut(&key) {
                        i.read(&mut self.calls);
                    }
                }
                End::Out(key) => {
                    if let Some(o) = self.out.get_mut(&key) {
                        o.flush(&mut self.calls);
                    }
                }
            }
        }
        if !self.greeting.is_empty() {
            self.greet();
        }
        for o in self.out.values_mut() {
            if o.stream.is_none() && !o.queue.is_empty() {
                o.flush(&mut self.calls);
            }
        }
    }
}

/// Per-process socket endpoint: one listener plus every connection of
/// every [`SocketChannel`] in the process.
#[derive(Debug)]
pub struct SocketNode {
    addr: WireAddr,
    io: Mutex<Io>,
}

impl SocketNode {
    /// Bind a listener at `addr`. For `Tcp` with port 0 the returned node's
    /// [`SocketNode::addr`] carries the actual bound port. Connections are
    /// accepted by whichever thread waits on the node next; until then they
    /// queue in the listener's backlog, and their bytes in the kernel.
    pub fn bind(addr: &WireAddr) -> io::Result<SocketNode> {
        let (listener, actual) = match addr {
            WireAddr::Uds(p) => {
                // A stale socket file from a crashed run blocks bind.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                (Listener::Uds(l), addr.clone())
            }
            WireAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                let actual = WireAddr::Tcp(l.local_addr()?);
                (Listener::Tcp(l), actual)
            }
        };
        let io = Io {
            listener,
            greeting: Vec::new(),
            inbound: HashMap::new(),
            out: HashMap::new(),
            calls: SocketCalls::default(),
        };
        Ok(SocketNode {
            addr: actual,
            io: Mutex::new(io),
        })
    }

    /// The address peers should dial (actual port for `Tcp(…:0)` binds).
    pub fn addr(&self) -> &WireAddr {
        &self.addr
    }

    fn io(&self) -> MutexGuard<'_, Io> {
        self.io.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The system calls the node has made on its connections so far.
    pub fn calls(&self) -> SocketCalls {
        self.io().calls
    }

    /// Move the node's bytes until `ready` finds what the caller waits for,
    /// or `deadline` passes (`None`). Between looks the thread sleeps in one
    /// `poll(2)` over the whole node and services whatever it reports; the
    /// node's lock is never held across the poll.
    fn wait<T>(&self, deadline: Instant, mut ready: impl FnMut(&mut Io) -> Option<T>) -> Option<T> {
        let (mut fds, mut ends) = (Vec::new(), Vec::new());
        loop {
            let mut io = self.io();
            io.service(&fds, &ends);
            if let Some(v) = ready(&mut io) {
                return Some(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let redial = io.poll_set(&mut fds, &mut ends);
            io.calls.polls += 1;
            drop(io);
            let sleep = deadline - now;
            poll_fds(
                &mut fds,
                if redial {
                    sleep.min(DIAL_BACKOFF)
                } else {
                    sleep
                },
            );
        }
    }
}

impl Drop for SocketNode {
    fn drop(&mut self) {
        if let WireAddr::Uds(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The data frame of `parts`, sent as one message: the element count, then
/// each part's floats copied in whole.
fn data_frame(parts: &[&[f32]]) -> Vec<u8> {
    let elems: usize = parts.iter().map(|p| p.len()).sum();
    assert!(elems <= u32::MAX as usize, "frame too large");
    let mut frame = Vec::with_capacity(4 + 4 * elems);
    frame.extend_from_slice(&(elems as u32).to_le_bytes());
    for part in parts {
        put_f32s(&mut frame, part);
    }
    frame
}

/// A group's socket endpoint: a [`Transport`] over one logical channel of
/// a [`SocketNode`].
///
/// `peers[r]` is where group rank `r` listens (`None` for self, and for a
/// peer this member never sends to). Outbound connections are dialled on
/// first use, and redialled while queued frames wait for a listener that
/// is not up yet, so no global connect ordering is needed. Exactly one
/// channel id must map to one (group, member) pair per process.
///
/// Dropping a channel lets its queued frames out first — waiting until the
/// deadline, unless a peer's connection breaks — then closes its
/// connections.
#[derive(Debug)]
pub struct SocketChannel {
    node: Arc<SocketNode>,
    chan: u64,
    rank: usize,
    peers: Vec<Option<WireAddr>>,
    deadline: Instant,
}

impl SocketChannel {
    /// A channel for group member `rank` over `node`, identified to peers
    /// as channel `chan`. `peers` maps group ranks to listener addresses.
    pub fn new(
        node: Arc<SocketNode>,
        chan: u64,
        rank: usize,
        peers: Vec<Option<WireAddr>>,
    ) -> SocketChannel {
        SocketChannel {
            node,
            chan,
            rank,
            peers,
            deadline: Instant::now() + Duration::from_secs(30),
        }
    }

    /// Group rank this channel speaks as.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Set the hard overall deadline (typically `now + group timeout`,
    /// refreshed before each program).
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = deadline;
    }

    /// Peer pid learned from the hello frame, if `from` ever connected.
    pub fn peer_pid(&self, from: usize) -> Option<u32> {
        let io = self.node.io();
        let pid = io.inbound.get(&(self.chan, from)).map_or(0, |i| i.pid);
        (pid != 0).then_some(pid)
    }

    /// Listener address of `peer`, if it has one.
    pub fn peer_addr(&self, peer: usize) -> Option<&WireAddr> {
        self.peers.get(peer).and_then(|a| a.as_ref())
    }

    /// The next frame from `from`, waiting until the deadline.
    pub fn recv_frame(&mut self, from: usize) -> Result<Vec<f32>, SocketError> {
        let key = (self.chan, from);
        self.node
            .wait(self.deadline, |io| io.take_frame(key))
            .ok_or(SocketError::Deadline)
    }

    /// The next frame from whichever peer has one first, as `(peer,
    /// frame)`, waiting until the deadline.
    pub fn recv_any(&mut self) -> Result<(usize, Vec<f32>), SocketError> {
        let (chan, peers) = (self.chan, self.peers.len());
        let any = |io: &mut Io| (0..peers).find_map(|p| Some((p, io.take_frame((chan, p))?)));
        self.node
            .wait(self.deadline, any)
            .ok_or(SocketError::Deadline)
    }
}

impl Drop for SocketChannel {
    fn drop(&mut self) {
        let (chan, rank) = (self.chan, self.rank);
        let mine = move |&(c, p): &(u64, usize)| c == chan && p != rank;
        self.node.wait(self.deadline, |io| {
            let mut queues = io.out.iter().filter(|(key, _)| mine(key));
            queues
                .all(|(_, o)| o.queue.is_empty() || o.stream.is_none())
                .then_some(())
        });
        let mut io = self.node.io();
        io.out.retain(|key, _| !mine(key));
        io.inbound.retain(|key, _| !mine(key));
    }
}

impl Transport for SocketChannel {
    type Error = SocketError;

    /// Frame the parts as one message (`data_frame`), queue it and write
    /// what the kernel takes now; the rest goes out during the next wait on
    /// the node. Never blocks on the receiver. A frame for a peer whose
    /// connection broke is dropped.
    fn send(&mut self, to: usize, parts: &[&[f32]]) -> Result<(), Self::Error> {
        let frame = data_frame(parts);
        let mut io = self.node.io();
        let Io { out, calls, .. } = &mut *io;
        let out = out.entry((self.chan, to)).or_insert_with(|| {
            let addr = self.peers[to].clone();
            let mut hello = [0u8; HELLO_LEN];
            hello[0..8].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
            hello[8..16].copy_from_slice(&self.chan.to_le_bytes());
            hello[16..24].copy_from_slice(&(self.rank as u64).to_le_bytes());
            hello[24..32].copy_from_slice(&u64::from(std::process::id()).to_le_bytes());
            Outbound {
                addr: addr.expect("sending to a peer with no address"),
                hello,
                stream: None,
                queue: VecDeque::new(),
                offset: 0,
                broken: false,
            }
        });
        if !out.broken {
            out.queue.push_back(frame);
            out.flush(calls);
        }
        Ok(())
    }

    /// Hand the next frame from `from`, as decoded, to `take`.
    fn recv<F: FnOnce(&[&[f32]])>(&mut self, from: usize, take: F) -> Result<(), Self::Error> {
        take(&[&self.recv_frame(from)?]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, reference_run, ring_all_gather, ring_all_reduce, ReduceOp};

    fn seeded(rank: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((rank * 31 + i * 7) % 97) as f32 * 0.125 - 3.0)
            .collect()
    }

    /// A test's directory for socket files, removed with whatever is left
    /// in it when the guard drops: at the end of the test, pass or panic.
    /// Bind it before the nodes that listen in it, so that they close
    /// first.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmp_dir(tag: &str) -> TmpDir {
        let d = std::env::temp_dir().join(format!("megatron-sock-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        TmpDir(d)
    }

    /// Bind one node per "process" (thread here) and return them with the
    /// directory they listen in and the full address map.
    fn uds_world(tag: &str, g: usize) -> (TmpDir, Vec<Arc<SocketNode>>, Vec<WireAddr>) {
        let dir = tmp_dir(tag);
        let nodes: Vec<Arc<SocketNode>> = (0..g)
            .map(|r| {
                let addr = WireAddr::Uds(dir.join(&format!("r{r}.sock")));
                Arc::new(SocketNode::bind(&addr).unwrap())
            })
            .collect();
        let addrs = nodes.iter().map(|n| n.addr().clone()).collect();
        (dir, nodes, addrs)
    }

    fn peers_for(rank: usize, addrs: &[WireAddr]) -> Vec<Option<WireAddr>> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (i != rank).then(|| a.clone()))
            .collect()
    }

    fn run_over_sockets(
        prog: &crate::Program,
        nodes: &[Arc<SocketNode>],
        addrs: &[WireAddr],
        chan: u64,
    ) -> Vec<Vec<f32>> {
        let g = prog.ranks;
        let mut bufs: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, prog.len)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = bufs
                .iter_mut()
                .enumerate()
                .map(|(rank, buf)| {
                    let node = Arc::clone(&nodes[rank]);
                    let peers = peers_for(rank, addrs);
                    s.spawn(move || {
                        let mut ch = SocketChannel::new(node, chan, rank, peers);
                        ch.set_deadline(Instant::now() + Duration::from_secs(20));
                        execute(prog, rank, buf, &mut ch).unwrap()
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        bufs
    }

    #[test]
    fn ring_all_reduce_over_uds_matches_reference() {
        for g in [2, 3, 5] {
            let n = 4 * g + 3; // non-divisible length
            let prog = ring_all_reduce(g, n, ReduceOp::Sum);
            let (_dir, nodes, addrs) = uds_world(&format!("ar{g}"), g);
            let got = run_over_sockets(&prog, &nodes, &addrs, 7);
            let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
            reference_run(&prog, &mut want);
            assert_eq!(got, want, "g={g}");
        }
    }

    #[test]
    fn ring_all_gather_over_tcp_loopback_matches_reference() {
        let g = 3;
        let n = 10;
        let prog = ring_all_gather(g, g * n);
        let nodes: Vec<Arc<SocketNode>> = (0..g)
            .map(|_| {
                let addr = WireAddr::Tcp("127.0.0.1:0".parse().unwrap());
                Arc::new(SocketNode::bind(&addr).unwrap())
            })
            .collect();
        let addrs: Vec<WireAddr> = nodes.iter().map(|n| n.addr().clone()).collect();
        let got = run_over_sockets(&prog, &nodes, &addrs, 9);
        let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, prog.len)).collect();
        reference_run(&prog, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn a_wait_on_one_channel_flushes_every_channel_of_the_node() {
        // Each side sends a frame far larger than the kernel socket buffer
        // on its own channel, then blocks receiving on the other one — the
        // 1F1B pattern of a stage that sends an activation and then waits
        // for a gradient. Only a wait that also flushes the *other*
        // channel's queue lets both frames through.
        let (_dir, nodes, addrs) = uds_world("cross", 2);
        let big = seeded(5, 1 << 20);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let node = Arc::clone(&nodes[rank]);
                    let peers = peers_for(rank, &addrs);
                    let big = &big;
                    s.spawn(move || {
                        let lane = |chan| {
                            let mut ch =
                                SocketChannel::new(Arc::clone(&node), chan, rank, peers.clone());
                            ch.set_deadline(Instant::now() + Duration::from_secs(20));
                            ch
                        };
                        let (mut send_on, mut recv_on) =
                            (lane(20 + rank as u64), lane(21 - rank as u64));
                        send_on.send(1 - rank, &[big]).unwrap();
                        recv_on.recv_frame(1 - rank).unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap() == big);
            }
        });
    }

    #[test]
    fn a_sender_dials_a_listener_that_binds_late() {
        // Rank 0 sends before rank 1's listener exists: its dials are
        // refused, the frames wait queued, and the wait for rank 1's
        // reply redials until the listener is up.
        let dir = tmp_dir("late");
        let addrs = [0, 1].map(|r| WireAddr::Uds(dir.join(&format!("r{r}.sock"))));
        let sender = Arc::new(SocketNode::bind(&addrs[0]).unwrap());
        let payloads: Vec<Vec<f32>> = (0..3).map(|k| seeded(k, 64)).collect();
        let (sent, bind) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let addrs = &addrs;
            let receiver = s.spawn(move || {
                bind.recv().unwrap();
                let node = Arc::new(SocketNode::bind(&addrs[1]).unwrap());
                let mut ch = SocketChannel::new(node, 8, 1, peers_for(1, addrs));
                ch.set_deadline(Instant::now() + Duration::from_secs(10));
                let got: Vec<Vec<f32>> = (0..3).map(|_| ch.recv_frame(0).unwrap()).collect();
                ch.send(0, &[&[1.0]]).unwrap();
                got
            });
            let mut ch = SocketChannel::new(sender, 8, 0, peers_for(0, addrs));
            ch.set_deadline(Instant::now() + Duration::from_secs(10));
            for p in &payloads {
                ch.send(1, &[p]).unwrap();
            }
            sent.send(()).unwrap();
            assert_eq!(ch.recv_frame(1).unwrap(), [1.0]);
            assert_eq!(receiver.join().unwrap(), payloads);
        });
    }

    #[test]
    fn recv_on_dead_peer_times_out_with_deadline() {
        let (_dir, nodes, addrs) = uds_world("dead", 2);
        let mut ch = SocketChannel::new(Arc::clone(&nodes[0]), 5, 0, peers_for(0, &addrs));
        ch.set_deadline(Instant::now() + Duration::from_millis(80));
        assert_eq!(ch.recv_frame(1), Err(SocketError::Deadline));
    }

    /// A test stream that hands out `bytes` in reads of the given sizes
    /// (cycled), then reports "nothing yet".
    #[derive(Debug)]
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.bytes.len() - self.at;
            if left == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.sizes[self.reads % self.sizes.len()]
                .min(left)
                .min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            self.reads += 1;
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl AsRawFd for Trickle {
        fn as_raw_fd(&self) -> RawFd {
            -1
        }
    }

    /// The frame format, one `to_le_bytes` per field and per float.
    fn per_float_frame(xs: &[f32]) -> Vec<u8> {
        let mut b = (xs.len() as u32).to_le_bytes().to_vec();
        for x in xs {
            b.extend_from_slice(&x.to_le_bytes());
        }
        b
    }

    #[test]
    fn frames_torn_across_any_reads_come_out_whole() {
        let mut frames: Vec<Vec<f32>> = [5, 0, 1, 300, 3, 64]
            .iter()
            .enumerate()
            .map(|(k, &n)| seeded(k, n))
            .collect();
        frames[3][..4].copy_from_slice(&[
            f32::from_bits(0x7fc0_1234),
            -0.0,
            f32::from_bits(1),
            f32::NEG_INFINITY,
        ]);
        // The sender's frame is the per-float encoding, even when it is
        // sent in parts.
        let mut stream = Vec::new();
        for f in &frames {
            let (a, b) = f.split_at(f.len() / 3);
            let sent = data_frame(&[a, &[], b]);
            assert!(sent == per_float_frame(f), "the frame format moved");
            stream.extend_from_slice(&sent);
        }
        let starts: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                let start = *at;
                *at += 4 + 4 * f.len();
                Some(start)
            })
            .collect();
        let mut x = 0x2545_f491u32;
        let seeded_sizes: Vec<usize> = (0..97)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                1 + x as usize % 23
            })
            .collect();
        for sizes in [vec![1], seeded_sizes] {
            // Where the reads end, as an offset into the frame they end in.
            let (mut ends, mut at) = (Vec::new(), 0);
            for k in 0.. {
                at += sizes[k % sizes.len()];
                if at >= stream.len() {
                    break;
                }
                let start = starts.iter().rev().find(|&&s| s <= at).unwrap();
                ends.push(at - start);
            }
            assert!(
                ends.iter().any(|e| (1..4).contains(e)),
                "no read tears a header"
            );
            assert!(
                ends.iter().any(|e| *e > 4 && e % 4 != 0),
                "no read tears a float"
            );
            let mut inbound = Inbound {
                conn: Some(Box::new(Trickle {
                    bytes: stream.clone(),
                    at: 0,
                    sizes: sizes.clone(),
                    reads: 0,
                })),
                ..Inbound::default()
            };
            let mut calls = SocketCalls::default();
            for _ in 0..=stream.len() {
                inbound.read(&mut calls);
            }
            assert_eq!(calls.reads, stream.len() as u64 + 1);
            assert_eq!(inbound.filled, 0, "a frame is left half read");
            let got: Vec<Vec<f32>> = inbound.ready.into_iter().collect();
            let bits = |fs: &[Vec<f32>]| {
                let each = |f: &Vec<f32>| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                fs.iter().map(each).collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&frames), "read sizes {sizes:?}");
        }
    }

    #[test]
    fn the_node_counts_its_polls_reads_and_writes() {
        let (_dir, nodes, addrs) = uds_world("calls", 2);
        let before: Vec<SocketCalls> = nodes.iter().map(|n| n.calls()).collect();
        assert_eq!(before, [SocketCalls::default(); 2]);
        std::thread::scope(|s| {
            for (rank, node) in nodes.iter().enumerate() {
                let node = Arc::clone(node);
                let peers = peers_for(rank, &addrs);
                s.spawn(move || {
                    let mut ch = SocketChannel::new(node, 4, rank, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    ch.send(1 - rank, &[&[rank as f32; 8]]).unwrap();
                    assert_eq!(ch.recv_frame(1 - rank).unwrap(), [(1 - rank) as f32; 8]);
                });
            }
        });
        for node in &nodes {
            let c = node.calls();
            // A hello and a frame out; a hello and a frame in, and a poll
            // at least before the reads.
            assert!(c.writes >= 2 && c.reads >= 2 && c.polls >= 1, "{c:?}");
            assert_eq!(c.since(c), SocketCalls::default());
        }
    }

    #[test]
    fn wire_addr_round_trips_through_display() {
        let u = WireAddr::Uds(PathBuf::from("/tmp/x.sock"));
        let t = WireAddr::Tcp("127.0.0.1:4821".parse().unwrap());
        assert_eq!(WireAddr::parse(&u.to_string()), Some(u));
        assert_eq!(WireAddr::parse(&t.to_string()), Some(t));
        assert_eq!(WireAddr::parse("bogus"), None);
    }
}
