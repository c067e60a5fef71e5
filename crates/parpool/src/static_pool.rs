//! A persistent fork-join pool with OpenMP-style static scheduling.
//!
//! A pool of `W` threads is the posting thread plus `W − 1` workers
//! spawned once. Workers wait for work on a **generation barrier**: the
//! poster publishes a job, then bumps an atomic generation counter;
//! workers spin on the counter for a bounded budget (the common case in a
//! solver inner loop, where the next region arrives almost immediately) and
//! only park on a condvar when no work shows up. The poster spins at the
//! join, then yields; it never parks (see `shared::join_wait`). This replaces the earlier
//! mutex+condvar handshake, which paid two lock round-trips per worker per
//! region and dominated the cost of dispatch-bound kernels on small meshes.
//!
//! Each parallel region (`run`) assigns thread `w` the contiguous index
//! block `[w·n/W, (w+1)·n/W)` — the analogue of `#pragma omp parallel for
//! schedule(static)` with `OMP_PROC_BIND=close`, which is how the paper ran
//! its CPU and KNC experiments (§4.1, §4.3: "thread affinity set to
//! compact"). As with the OpenMP master thread, the poster is thread 0: it
//! runs block 0 itself between publishing the job and joining, so a region
//! never has an idle thread spinning while the others work.
//!
//! ## Determinism of reductions
//!
//! [`Executor::run_sum_blocks`] (under `run_sum`) and `run_sum4` keep the
//! crate-wide contract: one partial **per index**, folded sequentially in
//! index order from `+0.0`. Per-worker block pre-summation would be
//! cheaper but regroups the floating-point additions — `(a₀+a₁)+(a₂+a₃)`
//! is not `((a₀+a₁)+a₂)+a₃` — and so would break bit-identity with
//! [`SerialExec`](crate::SerialExec) and with other thread counts. What
//! the pool removes instead is the *allocation*: it owns grow-only
//! scratch buffers behind the poster lock, so steady-state reductions
//! never touch the heap. Writes to the scratch are per block of
//! [`SUM_BLOCK`] indices and thus disjoint; only the blocks at worker
//! boundaries ever share a cache line.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::executor::{block, fold, run_sum_blocks_inline, Executor, SUM_BLOCK};
use crate::metrics::{Counters, PoolMetrics};
use crate::shared::{join_wait, spin_until, CachePadded, UnsafeSlice};

/// Type-erased pointer to the parallel-region body.
///
/// The body is a `&dyn Fn(usize)` borrowed from the caller's stack; `run`
/// blocks until every worker finished with it, which is what makes the
/// lifetime erasure sound.
#[derive(Clone, Copy)]
struct JobFn {
    ptr: *const (dyn Fn(usize) + Sync),
}
// SAFETY: the pointee is `Sync` and outlives the job (the posting thread
// blocks in `run` until all workers signalled completion).
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

/// Barrier state shared between the poster and the workers.
///
/// The handshake per region is:
/// 1. poster writes `job` and resets `done`, then bumps `generation`
///    (Release) — the bump *publishes* the job;
/// 2. workers observe the bump (Acquire), read `job`, execute their static
///    block, then increment `done` (AcqRel); meanwhile the poster executes
///    block 0;
/// 3. the poster returns once `done == n_threads − 1`, spinning and then
///    yielding until it does ([`join_wait`]; a poster never parks).
///
/// `generation` and `done` live on separate cache lines: workers hammer
/// `generation` while spinning and `done` while finishing, and the poster
/// does the reverse; sharing a line would bounce it on every transition.
struct Barrier {
    /// Monotonic epoch counter. Odd/even sense is not needed — workers
    /// remember the last generation they executed and react to any change.
    generation: CachePadded<AtomicU64>,
    /// Spawned workers that have finished the current region.
    done: CachePadded<AtomicUsize>,
    /// Job published before the `generation` bump. Only valid for workers
    /// that observed a generation they have not yet executed.
    job: UnsafeCell<Option<(JobFn, usize)>>,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    /// Count of parked workers, guarded by the mutex `idle_cv` waits on.
    idle: Mutex<usize>,
    idle_cv: Condvar,
    /// Scheduler counters (regions, parks); always on, relaxed atomics.
    metrics: Counters,
}

// SAFETY: `job` is written only by the poster before the Release bump of
// `generation` and read only by workers after the matching Acquire load, so
// accesses are ordered; there is exactly one poster at a time (guarded by
// the pool's poster lock).
unsafe impl Sync for Barrier {}

/// Reduction scratch owned by the pool, reused across regions so
/// `run_sum`/`run_sum4` are allocation-free once warmed up.
struct Scratch {
    partials: Vec<f64>,
    partials4: Vec<[f64; 4]>,
}

/// Persistent static-scheduling thread pool. See module docs.
pub struct StaticPool {
    barrier: Arc<Barrier>,
    /// Serialises parallel regions (the generation protocol is single-
    /// poster) and owns the reduction scratch.
    poster: Mutex<Scratch>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl StaticPool {
    /// Create a pool of `n_threads` threads: the posting thread plus
    /// `n_threads − 1` spawned workers (none for `n_threads == 1`, which
    /// runs every region inline).
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one worker");
        let barrier = Arc::new(Barrier {
            generation: CachePadded::new(AtomicU64::new(0)),
            done: CachePadded::new(AtomicUsize::new(0)),
            job: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            idle: Mutex::new(0),
            idle_cv: Condvar::new(),
            metrics: Counters::new(n_threads),
        });
        let workers = (1..n_threads)
            .map(|w| {
                let barrier = Arc::clone(&barrier);
                std::thread::Builder::new()
                    .name(format!("parpool-static-{w}"))
                    .spawn(move || worker_loop(w, n_threads, barrier))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        StaticPool {
            barrier,
            poster: Mutex::new(Scratch {
                partials: Vec::new(),
                partials4: Vec::new(),
            }),
            workers,
            n_threads,
        }
    }

    /// Publish a region, run block 0 on the calling thread, and block until
    /// every worker has executed its block. Caller must hold the poster
    /// lock (single-poster protocol).
    fn post_and_wait(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        // Erase the caller lifetime. SAFETY: we do not return until every
        // worker has finished executing the job, so the borrow stays live
        // for the whole time any worker can dereference it.
        let job = JobFn {
            ptr: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) },
        };
        let b = &*self.barrier;
        b.metrics.regions.fetch_add(1, Ordering::Relaxed);
        b.done.store(0, Ordering::Relaxed);
        // SAFETY: single poster; workers read `job` only after observing
        // the generation bump below, which orders this write before them.
        unsafe { *b.job.get() = Some((job, n)) };
        b.generation.fetch_add(1, Ordering::Release);
        // Wake anyone who parked. Taking the lock (not just reading the
        // counter) closes the race with a worker that is between its final
        // generation check and the condvar wait.
        {
            let idle = b.idle.lock();
            if *idle > 0 {
                b.idle_cv.notify_all();
            }
        }
        // The poster is thread 0: run its block while the workers run
        // theirs. A panic is recorded, not raised, until every worker is
        // done with the borrowed closure.
        run_block(b, f, 0..n / self.n_threads);
        // Wait for completion: spin first (regions are usually short),
        // then yield.
        let workers = self.n_threads - 1;
        if join_wait(|| b.done.load(Ordering::Acquire) >= workers) {
            b.metrics.poster_parks.fetch_add(1, Ordering::Relaxed);
        }
        if b.panicked.swap(false, Ordering::SeqCst) {
            panic!("a parpool worker panicked while executing a parallel region");
        }
    }

    /// Snapshot of the pool's scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.barrier.metrics.snapshot()
    }
}

/// Wait until `generation` moves past `seen`; spin briefly, then park.
fn wait_for_generation(b: &Barrier, worker: usize, seen: u64) -> u64 {
    loop {
        if spin_until(|| b.generation.load(Ordering::Acquire) != seen) {
            return b.generation.load(Ordering::Acquire);
        }
        let mut idle = b.idle.lock();
        // Re-check under the lock: the poster bumps the generation
        // *before* taking this lock to notify, so either we see the
        // bump here or the poster's notify can only happen after we
        // are registered as a sleeper and inside `wait`.
        let g = b.generation.load(Ordering::Acquire);
        if g != seen {
            return g;
        }
        b.metrics.worker_parked(worker);
        *idle += 1;
        b.idle_cv.wait(&mut idle);
        *idle -= 1;
    }
}

/// Run `f` over one static block, recording (not raising) a panic so the
/// region still joins before the poster reports it.
fn run_block(b: &Barrier, f: &(dyn Fn(usize) + Sync), block: std::ops::Range<usize>) {
    if catch_unwind(AssertUnwindSafe(|| block.for_each(f))).is_err() {
        b.panicked.store(true, Ordering::SeqCst);
    }
}

fn worker_loop(worker: usize, n_threads: usize, barrier: Arc<Barrier>) {
    let mut seen = 0u64;
    loop {
        seen = wait_for_generation(&barrier, worker, seen);
        if barrier.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the generation bump (Acquire-observed above) was
        // published after the poster wrote `job`.
        let (job, n) = unsafe { (*barrier.job.get()).expect("job published with generation") };
        // SAFETY: the posting thread keeps the closure alive until all
        // workers report done (see `post_and_wait`).
        let f = unsafe { &*job.ptr };
        // Static contiguous block for this worker.
        run_block(
            &barrier,
            f,
            worker * n / n_threads..(worker + 1) * n / n_threads,
        );
        // Signal completion to the (never parked) poster.
        barrier.done.fetch_add(1, Ordering::AcqRel);
    }
}

impl Executor for StaticPool {
    fn threads(&self) -> usize {
        self.n_threads
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Inline fast path: when there are fewer items than workers the
        // barrier round-trip costs more than the work; run on the posting
        // thread in index order (which also keeps reductions built on
        // `run` bit-identical — see `run_sum`).
        if n < self.n_threads || self.n_threads == 1 {
            self.barrier
                .metrics
                .inline_runs
                .fetch_add(1, Ordering::Relaxed);
            for i in 0..n {
                f(i);
            }
            return;
        }
        let _poster = self.poster.lock();
        self.post_and_wait(n, f);
    }

    fn run_sum_blocks(&self, n: usize, f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)) -> f64 {
        let blocks = n.div_ceil(SUM_BLOCK);
        if blocks == 0 {
            return 0.0;
        }
        if blocks < self.n_threads || self.n_threads == 1 {
            // The same blocks and the same fold as the pooled path below,
            // so the inline shortcut cannot change the result.
            self.barrier
                .metrics
                .inline_runs
                .fetch_add(1, Ordering::Relaxed);
            return run_sum_blocks_inline(n, f);
        }
        let mut scratch = self.poster.lock();
        if scratch.partials.len() < n {
            scratch.partials.resize(n, 0.0);
        }
        let partials = &mut scratch.partials[..n];
        partials.fill(0.0);
        {
            let slot = UnsafeSlice::new(partials);
            // SAFETY: blocks are disjoint, and each runs exactly once.
            self.post_and_wait(blocks, &|b| {
                let ids = block(b, n);
                f(ids.clone(), unsafe { slot.slice_mut(ids.start, ids.end) })
            });
        }
        fold(&scratch.partials[..n])
    }

    fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        if n == 0 {
            return [0.0; 4];
        }
        if n < self.n_threads || self.n_threads == 1 {
            self.barrier
                .metrics
                .inline_runs
                .fetch_add(1, Ordering::Relaxed);
            let mut acc = [0.0f64; 4];
            for i in 0..n {
                let v = f(i);
                for k in 0..4 {
                    acc[k] += v[k];
                }
            }
            return acc;
        }
        let mut scratch = self.poster.lock();
        if scratch.partials4.len() < n {
            scratch.partials4.resize(n, [0.0; 4]);
        }
        {
            let slot = UnsafeSlice::new(&mut scratch.partials4[..n]);
            // SAFETY: disjoint per-index writes as in `run_sum`.
            self.post_and_wait(n, &|i| unsafe { slot.set(i, f(i)) });
        }
        let mut acc = [0.0f64; 4];
        for p in &scratch.partials4[..n] {
            for k in 0..4 {
                acc[k] += p[k];
            }
        }
        acc
    }
}

impl Drop for StaticPool {
    fn drop(&mut self) {
        let b = &*self.barrier;
        b.shutdown.store(true, Ordering::Release);
        // The bump wakes spinners; the notify wakes parked workers. The
        // Release bump also publishes the shutdown flag to Acquire readers.
        b.generation.fetch_add(1, Ordering::Release);
        {
            let _idle = b.idle.lock();
            b.idle_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::runner_per_index;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn visits_every_index_once() {
        let pool = StaticPool::new(4);
        let n = 100_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        let pool = StaticPool::new(7);
        let f = |i: usize| ((i as f64) * 0.1).sin() / (i as f64 + 1.0);
        let par = pool.run_sum(50_000, &f);
        let ser = crate::SerialExec.run_sum(50_000, &f);
        assert_eq!(par, ser, "ordered reduction must be bit-identical");
    }

    #[test]
    fn sum_bit_identical_across_inline_and_pool_paths() {
        // Pin the inline shortcut (n < n_threads) to the exact same fold
        // as the pooled partial-buffer path and as SerialExec, for trip
        // counts straddling every dispatch-path boundary.
        let t = 6;
        let pool = StaticPool::new(t);
        let f = |i: usize| ((i as f64) * 0.37).cos() / ((i % 13) as f64 + 0.5);
        for n in [0, 1, t - 1, t, 10 * t] {
            let par = pool.run_sum(n, &f);
            let ser = crate::SerialExec.run_sum(n, &f);
            assert_eq!(par, ser, "n = {n}: inline/pool path changed the reduction");
            let par4 = pool.run_sum4(n, &|i| [f(i), 2.0 * f(i), -f(i), 0.0]);
            let ser4 = crate::SerialExec.run_sum4(n, &|i| [f(i), 2.0 * f(i), -f(i), 0.0]);
            assert_eq!(par4, ser4, "n = {n}: run_sum4 diverged");
        }
    }

    #[test]
    fn run_sum_is_reusable_and_scratch_grows() {
        let pool = StaticPool::new(4);
        // Descending sizes exercise the grow-only scratch with stale tail
        // contents; ascending re-grow after shrink.
        for n in [10_000, 100, 10_000, 64, 4, 1] {
            let par = pool.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
            let ser = crate::SerialExec.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
            assert_eq!(par, ser, "n = {n}");
        }
    }

    #[test]
    fn many_regions_back_to_back() {
        let pool = StaticPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(64, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 64);
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = StaticPool::new(4);
        let hit = AtomicUsize::new(0);
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn n_smaller_than_threads() {
        let pool = StaticPool::new(8);
        let counters: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run(3, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_posters_serialise() {
        // Two threads race `run` on the same pool; the poster lock must
        // serialise regions without lost updates or deadlock.
        let pool = StaticPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        pool.run(32, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 2 * 200 * 32);
    }

    #[test]
    fn parked_workers_wake_after_idle_gap() {
        let pool = StaticPool::new(4);
        pool.run(64, &|_| {});
        // Long enough for every worker to blow its spin budget and park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let s = pool.run_sum(1000, &|i| i as f64);
        assert_eq!(s, 499_500.0);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = StaticPool::new(2);
        // Index 1 is in the poster's block 0, index 5 in worker 1's.
        for bad in [1, 5] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, &|i| {
                    if i == bad {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err(), "panic at index {bad} was lost");
            // pool must still be usable afterwards
            let s = pool.run_sum(10, &|i| i as f64);
            assert_eq!(s, 45.0);
        }
        assert_eq!(pool.metrics().regions, 4);
    }

    #[test]
    fn poster_runs_block_zero_itself() {
        let pool = StaticPool::new(3);
        let me = std::thread::current().id();
        for n in [3, 10, 300, 1001] {
            let ids = runner_per_index(&pool, n);
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(*id == me, i < n / 3, "n = {n}, index {i}");
            }
        }
    }

    #[test]
    fn one_thread_pool_spawns_nothing_and_runs_inline() {
        let pool = StaticPool::new(1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.threads(), 1);
        let me = std::thread::current().id();
        assert!(runner_per_index(&pool, 1000).iter().all(|&id| id == me));
        assert_eq!(pool.run_sum(10, &|i| i as f64), 45.0);
        let m = pool.metrics();
        assert_eq!((m.regions, m.inline_runs), (0, 2));
        assert_eq!(m.worker_parks, vec![0]);
    }

    #[test]
    fn metrics_count_regions_inline_runs_and_parks() {
        let pool = StaticPool::new(4);
        for _ in 0..10 {
            pool.run(256, &|_| {});
        }
        pool.run(2, &|_| {}); // below n_threads → inline
        let m = pool.metrics();
        assert_eq!(m.regions, 10);
        assert_eq!(m.inline_runs, 1);
        assert_eq!(m.steals, 0, "static schedule has nothing to steal");
        assert_eq!(m.worker_parks.len(), 4);
        // Let every worker blow its spin budget and park, then verify the
        // next region still works and the park was counted.
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.run(256, &|_| {});
        let m = pool.metrics();
        assert!(
            m.total_worker_parks() >= 1,
            "idle gap should park at least one worker"
        );
        assert_eq!(m.since(&pool.metrics()).regions, 0);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = StaticPool::new(2);
        pool.run(4, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn drop_wakes_parked_workers() {
        let pool = StaticPool::new(2);
        pool.run(4, &|_| {});
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(pool); // workers are parked; drop must still not hang
    }
}
