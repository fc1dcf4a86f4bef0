//! Lock-cheap per-rank span recording.
//!
//! Each GPU thread owns a [`RankTracer`] — a ring-buffered, single-writer
//! span log. Recording a span is a plain `Vec` write (no atomics, no lock);
//! the only synchronized operation is publishing the finished buffer into
//! the shared [`TraceHub`] once, when the thread ends (the tracer's `Drop`
//! does this, so spans survive error unwinding too). A span is open for as
//! long as its [`OpenSpan`] guard lives, so one abandoned by `?` or by an
//! unwind is recorded up to that moment rather than lost.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::metrics::Counter;

/// (pipeline index, data-parallel index, tensor-parallel index) — mirrors
/// `megatron_dist::ThreadKey` without depending on that crate.
pub type RankKey = (usize, usize, usize);

/// Taxonomy of what a rank spends time on. Categories match the Chrome
/// trace `cat` field, so a viewer can color/filter by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward compute for one microbatch (includes in-layer tensor-parallel
    /// all-reduces, matching how the simulator prices forward stages).
    Forward,
    /// Backward compute for one microbatch (same nesting convention).
    Backward,
    /// An explicit communication step: p2p activation send, gradient
    /// all-reduce / reduce-scatter / all-gather, loss all-reduce.
    Comm,
    /// Optimizer (Adam) step.
    Optimizer,
    /// Checkpoint save.
    Checkpoint,
    /// Pipeline bubble: blocked waiting on an upstream/downstream stage.
    Bubble,
}

impl SpanKind {
    /// Chrome trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Forward => "fwd",
            SpanKind::Backward => "bwd",
            SpanKind::Comm => "comm",
            SpanKind::Optimizer => "opt",
            SpanKind::Checkpoint => "ckpt",
            SpanKind::Bubble => "bubble",
        }
    }

    /// All categories a complete trace can contain.
    pub const ALL_CATEGORIES: [&'static str; 6] = ["fwd", "bwd", "comm", "opt", "ckpt", "bubble"];
}

/// Optional per-span payload, exported as Chrome trace `args`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanArgs {
    /// Bytes moved, for communication spans.
    pub bytes: Option<f64>,
    /// Microbatch index within the iteration.
    pub microbatch: Option<usize>,
    /// Virtual-pipeline chunk (interleaved schedule).
    pub chunk: Option<usize>,
}

impl SpanArgs {
    /// No payload.
    pub const NONE: SpanArgs = SpanArgs {
        bytes: None,
        microbatch: None,
        chunk: None,
    };

    /// Payload carrying only a byte volume.
    pub fn bytes(bytes: f64) -> SpanArgs {
        SpanArgs {
            bytes: Some(bytes),
            ..SpanArgs::NONE
        }
    }
}

/// One recorded span. Timestamps are nanoseconds relative to the owning
/// [`TraceHub`]'s epoch, so spans from all ranks share a clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Phase taxonomy bucket.
    pub kind: SpanKind,
    /// Display name (e.g. `"forward"`, `"p2p-send-fwd"`).
    pub name: &'static str,
    /// Start, ns since the hub epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Training iteration the span belongs to.
    pub iteration: usize,
    /// Supervisor incident epoch (0 for a clean run).
    pub epoch: usize,
    /// Optional payload.
    pub args: SpanArgs,
}

/// A rank's published span log.
#[derive(Debug, Clone)]
pub struct RankTrace {
    /// Flat rank id.
    pub rank: usize,
    /// (pipeline, data, tensor) coordinates.
    pub key: RankKey,
    /// Spans in the order recorded (oldest first, post-ring-rotation).
    pub spans: Vec<Span>,
    /// Spans overwritten because the ring filled up.
    pub dropped: u64,
}

/// Shared collection point for all ranks' span logs, plus the common clock.
#[derive(Debug)]
pub struct TraceHub {
    epoch: Instant,
    /// `epoch` on the host's wall clock, as time since the Unix epoch;
    /// `None` for a hub whose spans are not timed on this host.
    wall_epoch: Option<Duration>,
    ranks: Mutex<BTreeMap<usize, RankTrace>>,
}

impl TraceHub {
    /// Default per-rank ring capacity (spans).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A fresh hub whose clock starts now.
    pub fn new() -> Arc<TraceHub> {
        let wall = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH);
        Self::stating(wall.ok())
    }

    /// A hub for spans whose times are not this host's (the simulator
    /// twin's): it states no wall clock, so its traces stay deterministic
    /// and merge unshifted.
    pub fn unclocked() -> Arc<TraceHub> {
        Self::stating(None)
    }

    fn stating(wall_epoch: Option<Duration>) -> Arc<TraceHub> {
        Arc::new(TraceHub {
            epoch: Instant::now(),
            wall_epoch,
            ranks: Mutex::new(BTreeMap::new()),
        })
    }

    /// Nanoseconds since the hub epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The hub epoch on the host's wall clock, as time since the Unix
    /// epoch. Every process on the host reads that clock alike, so spans
    /// that hubs of different processes stamped can be laid on one
    /// timeline ([`merge_chrome_traces`](crate::merge_chrome_traces)).
    pub fn wall_epoch(&self) -> Option<Duration> {
        self.wall_epoch
    }

    /// Create the single-writer tracer for one rank.
    pub fn tracer(self: &Arc<Self>, rank: usize, key: RankKey) -> RankTracer {
        self.tracer_with_capacity(rank, key, Self::DEFAULT_CAPACITY)
    }

    /// Like [`TraceHub::tracer`] with an explicit ring capacity.
    pub fn tracer_with_capacity(
        self: &Arc<Self>,
        rank: usize,
        key: RankKey,
        cap: usize,
    ) -> RankTracer {
        RankTracer {
            hub: Arc::clone(self),
            rank,
            key,
            spans: RefCell::default(),
            dropped: Cell::new(0),
            cap: cap.max(1),
            drop_counter: None,
            at: Cell::new((0, 0)),
        }
    }

    /// Snapshot of every published rank trace, ordered by flat rank.
    pub fn ranks(&self) -> Vec<RankTrace> {
        self.ranks.lock().unwrap().values().cloned().collect()
    }

    fn publish(&self, trace: RankTrace) {
        let mut ranks = self.ranks.lock().unwrap();
        // A rank restarted by the supervisor publishes again: append so both
        // epochs stay visible in one timeline.
        match ranks.get_mut(&trace.rank) {
            Some(existing) => {
                existing.spans.extend(trace.spans);
                existing.dropped += trace.dropped;
            }
            None => {
                ranks.insert(trace.rank, trace);
            }
        }
    }
}

/// Single-writer span recorder for one GPU thread. Not `Sync` on purpose:
/// exactly one thread writes, so `push` is lock-free by construction (the
/// `RefCell` only lets open [`OpenSpan`] guards share the recorder).
#[derive(Debug)]
pub struct RankTracer {
    hub: Arc<TraceHub>,
    rank: usize,
    key: RankKey,
    /// The ring, oldest span first, and how many it has overwritten.
    spans: RefCell<VecDeque<Span>>,
    dropped: Cell<u64>,
    cap: usize,
    drop_counter: Option<Arc<Counter>>,
    /// (iteration, epoch) stamped on spans opened from now on.
    at: Cell<(usize, usize)>,
}

impl RankTracer {
    /// Current time on the hub clock (ns).
    pub fn now(&self) -> u64 {
        self.hub.now_ns()
    }

    /// Attach a metrics counter that ring overflow is charged to, so a
    /// tracer that loses spans says so in the metrics snapshot instead of
    /// dropping them silently. The counter is bumped at overwrite time, not
    /// at publish, so a live registry shows losses as they happen.
    pub fn with_drop_counter(mut self, counter: Arc<Counter>) -> RankTracer {
        self.drop_counter = Some(counter);
        self
    }

    /// Record a span. When the ring is full the oldest span is overwritten
    /// and counted in `dropped` — recent history wins, recording never
    /// blocks or reallocates past capacity.
    pub fn push(&self, span: Span) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() == self.cap {
            spans.pop_front();
            self.dropped.set(self.dropped.get() + 1);
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
        }
        spans.push_back(span);
    }

    /// Stamp every span opened from now on with this training iteration
    /// and supervisor incident epoch.
    pub fn set_iteration(&self, iteration: usize, epoch: usize) {
        self.at.set((iteration, epoch));
    }

    fn take(&mut self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            key: self.key,
            spans: self.spans.take().into(),
            dropped: self.dropped.take(),
        }
    }
}

impl Drop for RankTracer {
    fn drop(&mut self) {
        let trace = self.take();
        if !trace.spans.is_empty() || trace.dropped > 0 {
            self.hub.publish(trace);
        }
    }
}

/// A span that started when it was opened and ends when it is closed or
/// dropped, whichever comes first — so every exit path of the code it
/// brackets records it, the failing one included. Opened against no tracer
/// (tracing off) it does nothing.
#[derive(Debug)]
#[must_use = "a span ends when its guard is dropped"]
pub struct OpenSpan<'a> {
    tracer: Option<&'a RankTracer>,
    span: Span,
}

impl<'a> OpenSpan<'a> {
    /// Start a span now, stamped with the tracer's current iteration.
    pub fn open(
        tracer: Option<&'a RankTracer>,
        kind: SpanKind,
        name: &'static str,
        args: SpanArgs,
    ) -> OpenSpan<'a> {
        let (iteration, epoch) = tracer.map_or((0, 0), |t| t.at.get());
        OpenSpan {
            tracer,
            span: Span {
                kind,
                name,
                start_ns: tracer.map_or(0, RankTracer::now),
                dur_ns: 0,
                iteration,
                epoch,
                args,
            },
        }
    }

    /// Set the byte volume, for a transfer whose size is known only once
    /// it is done.
    pub fn set_bytes(&mut self, bytes: f64) {
        self.span.args.bytes = Some(bytes);
    }

    /// End the span now. Returns its duration in ns (0 when tracing is
    /// off), so callers can accumulate e.g. bubble time without re-reading
    /// the clock.
    pub fn close(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        let Some(tracer) = self.tracer.take() else {
            return 0;
        };
        self.span.dur_ns = tracer.now().saturating_sub(self.span.start_ns);
        tracer.push(self.span);
        self.span.dur_ns
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64) -> Span {
        Span {
            kind,
            name: "x",
            start_ns,
            dur_ns: 1,
            iteration: 0,
            epoch: 0,
            args: SpanArgs::NONE,
        }
    }

    #[test]
    fn tracer_publishes_on_drop() {
        let hub = TraceHub::new();
        {
            let tr = hub.tracer(3, (1, 0, 1));
            tr.push(span(SpanKind::Forward, 10));
            tr.push(span(SpanKind::Backward, 20));
        }
        let ranks = hub.ranks();
        assert_eq!(ranks.len(), 1);
        assert_eq!(ranks[0].rank, 3);
        assert_eq!(ranks[0].key, (1, 0, 1));
        assert_eq!(ranks[0].spans.len(), 2);
        assert_eq!(ranks[0].dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let hub = TraceHub::new();
        {
            let tr = hub.tracer_with_capacity(0, (0, 0, 0), 3);
            for i in 0..5u64 {
                tr.push(span(SpanKind::Comm, i));
            }
        }
        let ranks = hub.ranks();
        assert_eq!(ranks[0].dropped, 2);
        let starts: Vec<u64> = ranks[0].spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest spans evicted, order kept");
    }

    #[test]
    fn ring_overflow_charges_drop_counter() {
        use crate::metrics::MetricsRegistry;
        let hub = TraceHub::new();
        let reg = MetricsRegistry::new();
        let counter = reg.counter("spans_dropped.rank0");
        {
            let tr = hub
                .tracer_with_capacity(0, (0, 0, 0), 3)
                .with_drop_counter(Arc::clone(&counter));
            for i in 0..5u64 {
                tr.push(span(SpanKind::Comm, i));
            }
            // Charged live, before the tracer publishes.
            assert_eq!(counter.get(), 2);
        }
        assert_eq!(hub.ranks()[0].dropped, 2);
        assert_eq!(reg.counter("spans_dropped.rank0").get(), 2);
    }

    #[test]
    fn republish_after_restart_appends() {
        let hub = TraceHub::new();
        {
            let tr = hub.tracer(1, (0, 0, 1));
            tr.push(span(SpanKind::Forward, 1));
        }
        {
            let tr = hub.tracer(1, (0, 0, 1));
            tr.push(span(SpanKind::Forward, 2));
        }
        let ranks = hub.ranks();
        assert_eq!(ranks.len(), 1);
        assert_eq!(ranks[0].spans.len(), 2);
    }

    #[test]
    fn close_returns_the_recorded_duration() {
        let hub = TraceHub::new();
        let tr = hub.tracer(0, (0, 0, 0));
        tr.set_iteration(7, 2);
        let mut open = OpenSpan::open(Some(&tr), SpanKind::Optimizer, "adam-step", SpanArgs::NONE);
        open.set_bytes(64.0);
        let dur = open.close();
        drop(tr);
        let ranks = hub.ranks();
        assert_eq!(ranks[0].spans.len(), 1, "closing records exactly once");
        let s = ranks[0].spans[0];
        assert_eq!(s.iteration, 7);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.args.bytes, Some(64.0));
        assert_eq!(s.dur_ns, dur);
        assert_eq!(
            OpenSpan::open(None, SpanKind::Comm, "off", SpanArgs::NONE).close(),
            0,
            "no tracer, no span"
        );
    }

    /// A rank that opens a span and then fails: `unwind` chooses whether
    /// the bracketed code leaves by panic or by `?`.
    fn abandon(hub: &Arc<TraceHub>, unwind: bool) -> Result<(), ()> {
        let tr = hub.tracer(0, (0, 0, 0));
        tr.set_iteration(3, 0);
        let args = SpanArgs {
            microbatch: Some(5),
            ..SpanArgs::NONE
        };
        let _wait = OpenSpan::open(Some(&tr), SpanKind::Bubble, "pipeline-wait-fwd", args);
        if unwind {
            panic!("peer died");
        }
        Err(())?;
        unreachable!("the span above is never closed by hand");
    }

    #[test]
    fn span_abandoned_by_early_return_or_unwind_is_recorded() {
        for unwind in [false, true] {
            let hub = TraceHub::new();
            let left = std::panic::catch_unwind(|| abandon(&hub, unwind));
            assert_eq!(left.is_err(), unwind);
            let ranks = hub.ranks();
            assert_eq!(ranks[0].spans.len(), 1, "unwind={unwind}");
            let s = ranks[0].spans[0];
            assert_eq!(s.kind, SpanKind::Bubble);
            assert_eq!(s.name, "pipeline-wait-fwd");
            assert_eq!(s.args.microbatch, Some(5));
            assert_eq!(s.iteration, 3);
        }
    }

    #[test]
    fn categories_cover_all_kinds() {
        for k in [
            SpanKind::Forward,
            SpanKind::Backward,
            SpanKind::Comm,
            SpanKind::Optimizer,
            SpanKind::Checkpoint,
            SpanKind::Bubble,
        ] {
            assert!(SpanKind::ALL_CATEGORIES.contains(&k.category()));
        }
    }
}
