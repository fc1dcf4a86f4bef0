//! The helper threads behind large GEMMs: parked threads that take row
//! blocks of one job at a time, next to the caller.
//!
//! The rule that keeps this safe on an oversubscribed box (8 rank threads
//! on 2 cores): the caller **always claims blocks itself** and only ever
//! waits for blocks a helper has *already claimed*. A helper that is not
//! scheduled in time costs nothing — the caller finishes every block alone
//! and returns. There is one job slot and no queue: a caller that finds the
//! slot taken runs its blocks serially. Helpers park on a condvar between
//! jobs; they never spin.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Block<'a> = &'a (dyn Fn(usize) + Sync);

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

    /// Call `block(i)` once for every `i < blocks` and return when all have
    /// finished; a panic in any block resumes on the caller. Blocks may run
    /// concurrently on helper threads, or all on the caller when the job
    /// slot is taken.
    pub(crate) fn run(&self, blocks: usize, block: Block<'_>) {
        if self.helpers.is_empty() || blocks < 2 || !self.publish(blocks, block) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
}
