//! The helper threads behind a step's large passes: parked threads that
//! take pieces of one job at a time, next to the caller.
//!
//! Any pass whose bits cannot depend on the thread runs here: the tile
//! loops of large products and their operand packing, Adam, gradient
//! zeroing, attention's (batch, head) pairs and the row passes. [`each`] is
//! the entry point for a pass cut into pieces: every piece writes its own
//! disjoint part of buffers the caller made before the job, so no piece
//! allocates.
//!
//! The rule that keeps this safe on an oversubscribed box (8 rank threads
//! on 2 cores): the caller **always claims blocks itself** and only ever
//! waits for blocks a helper has *already claimed*. A helper that is not
//! scheduled in time costs nothing — the caller finishes every block alone
//! and returns. There is one job slot and no queue: a caller that finds the
//! slot taken runs its blocks serially. Helpers park on a condvar between
//! jobs; they never spin.
//!
//! **The contention gate.** A job whose ranks share this host's cores holds
//! a [`RankGuard`] for as long as they run (the thread trainer, a rank
//! process). While the declared ranks fill the cores, no block is offered
//! to a helper: each rank already has a core to itself at best, and a
//! helper would only take time from another rank. With no guard live (the
//! serial step, tools, tests) helpers are offered.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Block<'a> = &'a (dyn Fn(usize) + Sync);

/// Values a pass must touch before [`each`] offers it to the helpers:
/// waking a parked helper costs tens of microseconds. Attention counts its
/// probabilities (a `serial_wide` layer: 98 K), a product its operands.
/// Measured on `serial_wide` (AMX build, 2 vCPUs, 10 alternated pairs,
/// pieces of [`PIECE`]): against 2¹⁵, 2¹⁷ — which keeps attention and
/// cross-entropy on the caller — read `iter_ms_p50` ×1.08 at ×0.97
/// `cpu_s_per_ktok`; 2¹³ moves no pass of that step (it read ×1.04 and
/// ×1.03, the spread of one set).
const MIN_PASS: usize = 1 << 15;
/// Values per piece of a pass. Each piece is one claim of the pool's lock
/// and of the pass's item lock, which the two threads contend for. Measured
/// on `serial_wide` (AMX build, 2 vCPUs, alternated pairs against the
/// parent): 2¹³ cut `iter_ms_p50` ×0.88 at ×1.24 `cpu_s_per_ktok`, 2¹⁵
/// ×0.85 at ×1.14, 2¹⁶ ×0.81–0.82 at ×1.10–1.14 and 2¹⁷ ×0.82 at ×1.13
/// (6 pairs each, two sets): Adam's 3.4 M parameters become 60 pieces.
pub(crate) const PIECE: usize = 1 << 16;

/// Ranks the live [`RankGuard`]s declare.
static RANKS: AtomicUsize = AtomicUsize::new(0);
/// Blocks helpers have run since the process started.
static HELPER_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// Declares, for as long as it lives, that `ranks` ranks of one job run on
/// this host's cores. While the ranks of the live guards are at least the
/// pool's threads, every pass runs on its caller alone.
#[must_use = "the ranks are declared only while the guard lives"]
#[derive(Debug)]
pub struct RankGuard(usize);

impl RankGuard {
    /// Declare `ranks` ranks sharing this host's cores.
    pub fn declare(ranks: usize) -> RankGuard {
        RANKS.fetch_add(ranks, Ordering::SeqCst);
        RankGuard(ranks)
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        RANKS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Blocks the pool's helpers have run in this process: zero where the
/// passes all ran on their callers.
pub fn helper_blocks() -> u64 {
    HELPER_BLOCKS.load(Ordering::Relaxed)
}

/// The most threads that can run pieces of one [`each`] pass over
/// `values` values in `count` pieces at once: what a pass sizes per-thread
/// scratch by.
pub(crate) fn threads_for(values: usize, count: usize) -> usize {
    if values < MIN_PASS || count < 2 {
        1
    } else {
        Pool::global().threads()
    }
}

/// `f(item)` for each of the `count` items of `items`, a pass over
/// `values` values. From [`MIN_PASS`] values on, while helpers are offered,
/// the items are claimed one at a time by the caller and the helpers;
/// otherwise they run in order on the caller. Each item is a disjoint part
/// of the pass (`chunks_mut`, `split_at_mut`), computed exactly as the
/// whole pass computes it, so the result has the same bits either way.
pub(crate) fn each<T: Send>(
    values: usize,
    count: usize,
    items: impl Iterator<Item = T> + Send,
    f: impl Fn(T) + Sync,
) {
    let pool = Pool::global();
    if threads_for(values, count) == 1 || !pool.offers_helpers() {
        return items.for_each(f);
    }
    let items = Mutex::new(items);
    pool.run(count, &|_| {
        let item = items.lock().unwrap_or_else(|e| e.into_inner()).next();
        f(item.expect("one item per block"));
    });
}

struct Slot {
    /// The published job with its lifetime erased; `Some` marks the slot
    /// taken. Only dereferenced for a block claimed while it was `Some`.
    job: Option<Block<'static>>,
    /// Next unclaimed block, of `blocks`.
    next: usize,
    blocks: usize,
    /// Blocks helpers have claimed and not finished.
    running: usize,
    /// First panic payload a helper's block raised.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Helpers wait here for a job.
    work: Condvar,
    /// The job's caller waits here for `running == 0`.
    done: Condvar,
}

impl Shared {
    /// Blocks run outside the lock, so no thread panics while holding it
    /// and every update leaves the counters valid: a poisoned guard is
    /// still good.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn helper(&self) {
        let mut s = self.lock();
        while !s.shutdown {
            match s.job {
                Some(job) if s.next < s.blocks => {
                    let i = s.next;
                    s.next += 1;
                    s.running += 1;
                    drop(s);
                    let result = catch_unwind(AssertUnwindSafe(|| job(i)));
                    HELPER_BLOCKS.fetch_add(1, Ordering::Relaxed);
                    s = self.lock();
                    s.running -= 1;
                    if let Err(payload) = result {
                        s.next = s.blocks;
                        s.panic.get_or_insert(payload);
                    }
                    if s.running == 0 {
                        self.done.notify_all();
                    }
                }
                _ => s = self.work.wait(s).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

/// A set of parked helper threads with one job slot.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Start `helpers` parked threads.
    pub(crate) fn new(helpers: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                next: 0,
                blocks: 0,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (0..helpers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gemm-helper-{i}"))
                    .spawn(move || shared.helper())
                    .expect("spawn GEMM helper thread")
            })
            .collect();
        Pool { shared, helpers }
    }

    /// The process-wide pool: `available_parallelism() − 1` helpers, started
    /// on first use and parked for the life of the process.
    pub(crate) fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            Pool::new(cores - 1)
        })
    }

    /// Threads that can work on one job: the helpers and the caller.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Whether a job may be offered to the helpers now: there are some, and
    /// the ranks the live [`RankGuard`]s declare leave a core free.
    pub(crate) fn offers_helpers(&self) -> bool {
        !self.helpers.is_empty() && RANKS.load(Ordering::SeqCst) < self.threads()
    }

    /// Call `block(i)` once for every `i < blocks` and return when all have
    /// finished; a panic in any block resumes on the caller. Blocks may run
    /// concurrently on helper threads, or all on the caller when the job
    /// slot is taken or no helper is offered.
    pub(crate) fn run(&self, blocks: usize, block: Block<'_>) {
        if blocks < 2 || !self.offers_helpers() || !self.publish(blocks, block) {
            (0..blocks).for_each(block);
            return;
        }
        let mine = catch_unwind(AssertUnwindSafe(|| {
            while let Some(i) = self.claim() {
                block(i);
            }
        }));
        // Reached on every path out of the loop above, so `block` outlives
        // every helper call into it.
        let theirs = self.retire();
        if let Some(payload) = mine.err().or(theirs) {
            resume_unwind(payload);
        }
    }

    /// Take the job slot for `block` if it is free.
    fn publish(&self, blocks: usize, block: Block<'_>) -> bool {
        let mut s = self.shared.lock();
        if s.job.is_some() {
            return false;
        }
        // SAFETY: only the lifetime changes. Helpers call the job only for
        // blocks claimed while `s.job` is `Some`, and `run` does not return
        // or unwind before `retire` has seen every such call finish and set
        // `s.job` back to `None`.
        s.job = Some(unsafe { std::mem::transmute::<Block<'_>, Block<'static>>(block) });
        s.next = 0;
        s.blocks = blocks;
        drop(s);
        self.shared.work.notify_all();
        true
    }

    /// The caller's claim of the next block of its own job.
    fn claim(&self) -> Option<usize> {
        let mut s = self.shared.lock();
        (s.next < s.blocks).then(|| {
            s.next += 1;
            s.next - 1
        })
    }

    /// Stop further claims, wait for the blocks helpers hold, free the slot.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = self.shared.lock();
        s.next = s.blocks;
        while s.running > 0 {
            s = self.shared.done.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.job = None;
        s.panic.take()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.helpers.drain(..) {
            // A helper catches its blocks' panics; nothing to report here.
            let _ = h.join();
        }
    }
}

/// Serializes the tests of this crate that need helpers to be offered, or
/// none: a guard one test declares closes the gate for every other.
#[cfg(test)]
static TEST_GATE: Mutex<()> = Mutex::new(());

/// `f()` with helpers offered to its passes, as in a serial step.
#[cfg(test)]
pub(crate) fn with_helpers<R>(f: impl FnOnce() -> R) -> R {
    let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

/// `f()` with every pass on its caller: under a guard that declares as
/// many ranks as the pool has threads.
#[cfg(test)]
pub(crate) fn on_the_caller<R>(f: impl FnOnce() -> R) -> R {
    let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _ranks = RankGuard::declare(Pool::global().threads());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn every_block_runs_exactly_once() {
        let pool = Pool::new(3);
        for blocks in [0usize, 1, 2, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(blocks, &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn helper_panic_surfaces_on_the_caller_and_the_pool_survives() {
        let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(1);
        let caller = thread::current().id();
        // Two blocks that meet at a barrier, so one of them is on the
        // helper; that one panics.
        let gate = Barrier::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|_| {
                gate.wait();
                if thread::current().id() != caller {
                    panic!("boom in helper");
                }
            })
        }));
        let payload = result.expect_err("helper panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in helper"));
        // The slot is free and the helper alive: the next job needs both
        // threads again to get past its barrier.
        let ran = AtomicUsize::new(0);
        pool.run(2, &|_| {
            gate.wait();
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_taken_slot_means_serial_on_the_caller() {
        let pool = Pool::new(1);
        let outer = thread::current().id();
        pool.run(2, &|_| {
            if thread::current().id() != outer {
                return;
            }
            // The slot is ours, so a nested job cannot publish: all of
            // its blocks run right here.
            let me = thread::current().id();
            pool.run(4, &|_| assert_eq!(thread::current().id(), me));
        });
    }

    #[test]
    fn ranks_that_fill_the_cores_keep_every_block_on_the_caller() {
        let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let pool = Pool::new(1);
        let me = thread::current().id();
        let on_caller = || {
            let ran = AtomicUsize::new(0);
            pool.run(64, &|_| {
                assert_eq!(thread::current().id(), me);
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(ran.load(Ordering::SeqCst), 64);
        };
        // Two guards of one rank each: together they fill both threads.
        let first = RankGuard::declare(1);
        assert!(pool.offers_helpers(), "one rank leaves a core free");
        let second = RankGuard::declare(1);
        assert!(!pool.offers_helpers());
        on_caller();
        drop(first);
        assert!(pool.offers_helpers());
        let _wide = RankGuard::declare(8);
        on_caller();
        drop(second);
        on_caller();
    }
}
