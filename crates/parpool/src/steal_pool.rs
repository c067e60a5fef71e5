//! A persistent work-stealing pool in the style of Intel TBB.
//!
//! The paper observed that Intel's OpenCL CPU runtime "uniquely doesn't use
//! OpenMP to handle the CPU parallelism, instead using Intel Thread
//! Building Blocks", whose "non-deterministic work-stealing scheduler" was
//! the suspected source of the large run-to-run variance (§4.1). This pool
//! reproduces that architecture: work is pushed to a global
//! [`crossbeam_deque::Injector`], each worker owns a local LIFO deque, and
//! idle workers steal from the injector or from random victims. A steal
//! counter exposes how much scheduling imbalance each region experienced.
//!
//! As in TBB, the calling thread takes part: a pool of `W` threads is the
//! poster plus `W − 1` spawned workers. The poster keeps the region's
//! first task for itself, runs it once the region is published, and then
//! competes for the rest through its own deque (slot 0) like any worker
//! before it waits for the join. A region is cut into about `16·W` tasks
//! (never smaller than [`GRAIN`] indices), the way TBB's range
//! partitioner splits a `parallel_for` range into a few chunks per thread.
//!
//! Waiting follows the static pool: a worker spins on an atomic copy of
//! the region generation for the shared spin budget before it parks on
//! the slot's condvar, and the poster notifies only when some worker is
//! parked. The poster's join spins on the remaining-item and
//! active-worker counts, then yields; it never parks (see
//! `shared::join_wait`). Spinning is what keeps a dispatch-bound pool
//! off the futex path: with every worker and the poster parking on
//! condvars each region, the OpenCL port at 128² ran its three
//! `small_sweep` solves slower on two threads than on one.
//!
//! Results remain bit-deterministic (writes are disjoint, reductions are
//! index-ordered from `+0.0`, the block-sum partials in pool-owned
//! scratch); only the *schedule* is non-deterministic, as with TBB.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::executor::{block, fold, run_sum_blocks_inline, Executor, SUM_BLOCK};
use crate::metrics::{Counters, PoolMetrics};
use crate::shared::{join_wait, spin_until, CachePadded, UnsafeSlice};

/// Minimum task size in indices, and the largest region run inline.
const GRAIN: usize = 4;

/// Tasks per thread a region is cut into (see the module docs).
const TASKS_PER_THREAD: usize = 16;

#[derive(Clone, Copy)]
struct JobFn {
    ptr: *const (dyn Fn(usize) + Sync),
}
// SAFETY: see `static_pool::JobFn` — the poster blocks until completion.
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

#[derive(Clone, Copy)]
struct Task {
    start: usize,
    end: usize,
}

struct Slot {
    generation: u64,
    job: Option<JobFn>,
    /// Workers parked on `work_cv`: the poster notifies only when some
    /// worker actually sleeps.
    sleepers: usize,
    shutdown: bool,
}

struct Shared {
    injector: Injector<Task>,
    slot: Mutex<Slot>,
    /// `slot.generation`, readable without the lock: what spinning
    /// workers watch for the next region (or shutdown).
    generation: CachePadded<AtomicU64>,
    /// Workers inside the current region's task loop. The poster waits
    /// for this to reach zero after retiring the job, so no worker can
    /// observe the next region's tasks while still holding the previous
    /// (stale) closure pointer. Registration happens under the slot lock
    /// while the job is published.
    active: CachePadded<AtomicUsize>,
    /// Items remaining in the current region.
    remaining: CachePadded<AtomicUsize>,
    work_cv: Condvar,
    panicked: AtomicBool,
    /// Scheduler counters (regions, steals, parks); always on.
    metrics: Counters,
}

/// What the posting thread owns while it posts: its deque (slot 0) and
/// the block-sum scratch, reused across regions.
struct Poster {
    local: Worker<Task>,
    partials: Vec<f64>,
}

/// Persistent work-stealing thread pool. See module docs.
pub struct StealPool {
    shared: Arc<Shared>,
    /// Serialises parallel regions: `remaining`, the injector and the
    /// job slot describe one region at a time, so a second poster must
    /// wait for the first region to drain.
    poster: Mutex<Poster>,
    /// Every thread's steal handle; slot 0 is the poster's deque.
    stealers: Vec<Stealer<Task>>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl StealPool {
    /// Create a pool of `n_threads` threads: the posting thread plus
    /// `n_threads − 1` spawned workers (none for `n_threads == 1`, which
    /// runs every region inline).
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                sleepers: 0,
                shutdown: false,
            }),
            generation: CachePadded::new(AtomicU64::new(0)),
            active: CachePadded::new(AtomicUsize::new(0)),
            remaining: CachePadded::new(AtomicUsize::new(0)),
            work_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            metrics: Counters::new(n_threads),
        });
        let locals: Vec<Worker<Task>> = (0..n_threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = locals.iter().map(|w| w.stealer()).collect();
        let mut locals = locals.into_iter().enumerate();
        let (_, poster_local) = locals.next().expect("n_threads > 0");
        let workers = locals
            .map(|(w, local)| {
                let shared = Arc::clone(&shared);
                let victims = stealers.clone();
                std::thread::Builder::new()
                    .name(format!("parpool-steal-{w}"))
                    .spawn(move || worker_loop(w, local, victims, shared))
                    .expect("failed to spawn steal-pool worker")
            })
            .collect();
        StealPool {
            shared,
            poster: Mutex::new(Poster {
                local: poster_local,
                partials: Vec::new(),
            }),
            stealers,
            workers,
            n_threads,
        }
    }

    /// Steals recorded since pool creation — a visible imbalance signal.
    pub fn steal_count(&self) -> u64 {
        self.shared.metrics.steals.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool's scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.metrics.snapshot()
    }

    /// Post one region of `n > GRAIN` items, work alongside the workers
    /// and join. Caller holds the poster lock and passes its deque.
    fn post_and_wait(&self, local: &Worker<Task>, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let sh = &*self.shared;
        // Keep the first task for this thread; the rest go to the injector.
        let len = GRAIN.max(n.div_ceil(self.n_threads * TASKS_PER_THREAD));
        let first = Task {
            start: 0,
            end: len.min(n),
        };
        let mut start = first.end;
        while start < n {
            let end = (start + len).min(n);
            sh.injector.push(Task { start, end });
            start = end;
        }
        sh.remaining.store(n, Ordering::Release);
        // Erase the caller lifetime. SAFETY: `run` blocks until `remaining`
        // is zero, the job is retired *and* no worker is active, so the
        // borrow outlives every dereference (see the worker loop).
        let job = JobFn {
            ptr: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) },
        };
        {
            let mut slot = sh.slot.lock();
            sh.metrics.regions.fetch_add(1, Ordering::Relaxed);
            slot.generation += 1;
            slot.job = Some(job);
            sh.generation.store(slot.generation, Ordering::Release);
            if slot.sleepers > 0 {
                sh.work_cv.notify_all();
            }
        }
        // Work alongside the workers: the kept task, then whatever is left
        // in the injector or in another thread's deque.
        let mut task = Some(first);
        while let Some(t) = task {
            run_task(sh, f, t);
            task = find_task(0, local, &self.stealers, sh);
        }
        let mut waited = join_wait(|| {
            sh.remaining.load(Ordering::Acquire) == 0 && sh.active.load(Ordering::Acquire) == 0
        });
        // Retire the job: no worker can register after this, and one that
        // registered since the check above leaves once it finds no task.
        sh.slot.lock().job = None;
        waited |= join_wait(|| sh.active.load(Ordering::Acquire) == 0);
        if waited {
            sh.metrics.poster_parks.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(self.stealers.iter().all(|s| s.is_empty()));
        if sh.panicked.swap(false, Ordering::SeqCst) {
            panic!("a parpool worker panicked while executing a parallel region");
        }
    }
}

/// Wait for a region newer than `seen` and register for it; `None` on
/// shutdown. Spins on the shared budget first, then parks on `work_cv`.
fn next_job(worker: usize, shared: &Shared, seen: &mut u64) -> Option<JobFn> {
    loop {
        spin_until(|| shared.generation.load(Ordering::Acquire) != *seen);
        let mut slot = shared.slot.lock();
        loop {
            if slot.shutdown {
                return None;
            }
            if slot.generation != *seen {
                *seen = slot.generation;
                match slot.job {
                    Some(job) => {
                        shared.active.fetch_add(1, Ordering::AcqRel);
                        return Some(job);
                    }
                    // That region already joined: spin for the next one.
                    None => break,
                }
            }
            shared.metrics.worker_parked(worker);
            slot.sleepers += 1;
            shared.work_cv.wait(&mut slot);
            slot.sleepers -= 1;
        }
    }
}

fn worker_loop(
    worker: usize,
    local: Worker<Task>,
    victims: Vec<Stealer<Task>>,
    shared: Arc<Shared>,
) {
    let mut seen = 0u64;
    while let Some(job) = next_job(worker, &shared, &mut seen) {
        // SAFETY: the poster keeps the closure alive until it has retired
        // the job and `active` is back to zero; we only dereference it
        // before deregistering below.
        let f = unsafe { &*job.ptr };
        while let Some(task) = find_task(worker, &local, &victims, &shared) {
            run_task(&shared, f, task);
        }
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run one task, recording (not raising) a panic so the region still
/// drains before the poster reports it.
fn run_task(shared: &Shared, f: &(dyn Fn(usize) + Sync), task: Task) {
    if catch_unwind(AssertUnwindSafe(|| (task.start..task.end).for_each(f))).is_err() {
        shared.panicked.store(true, Ordering::SeqCst);
    }
    shared
        .remaining
        .fetch_sub(task.end - task.start, Ordering::AcqRel);
}

fn find_task(
    worker: usize,
    local: &Worker<Task>,
    victims: &[Stealer<Task>],
    shared: &Shared,
) -> Option<Task> {
    // Local LIFO first.
    if let Some(t) = local.pop() {
        return Some(t);
    }
    // Then the global injector, refilling the local queue in batches.
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    // Finally steal from victims, starting from a worker-dependent offset —
    // the non-deterministic part of the schedule.
    for round in 0..victims.len() {
        let v = (worker + 1 + round) % victims.len();
        if v == worker {
            continue;
        }
        loop {
            match victims[v].steal() {
                Steal::Success(t) => {
                    shared.metrics.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

impl Executor for StealPool {
    fn threads(&self) -> usize {
        self.n_threads
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if n <= GRAIN || self.n_threads == 1 {
            self.shared
                .metrics
                .inline_runs
                .fetch_add(1, Ordering::Relaxed);
            for i in 0..n {
                f(i);
            }
            return;
        }
        let poster = self.poster.lock();
        self.post_and_wait(&poster.local, n, f);
    }

    fn run_sum_blocks(&self, n: usize, f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)) -> f64 {
        let blocks = n.div_ceil(SUM_BLOCK);
        if blocks == 0 {
            return 0.0;
        }
        if blocks <= GRAIN || self.n_threads == 1 {
            self.shared
                .metrics
                .inline_runs
                .fetch_add(1, Ordering::Relaxed);
            return run_sum_blocks_inline(n, f);
        }
        let mut poster = self.poster.lock();
        let Poster { local, partials } = &mut *poster;
        if partials.len() < n {
            partials.resize(n, 0.0);
        }
        let partials = &mut partials[..n];
        partials.fill(0.0);
        {
            let slot = UnsafeSlice::new(partials);
            // SAFETY: blocks are disjoint, and each runs exactly once.
            self.post_and_wait(local, blocks, &|b| {
                let ids = block(b, n);
                f(ids.clone(), unsafe { slot.slice_mut(ids.start, ids.end) })
            });
        }
        fold(partials)
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
            // The bump ends any worker's spin; the notify wakes the parked.
            slot.generation += 1;
            self.shared
                .generation
                .store(slot.generation, Ordering::Release);
            self.shared.work_cv.notify_all();
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
        let pool = StealPool::new(4);
        let n = 100_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        // Ordered reductions must be bit-identical even with stealing, for
        // trip counts on both sides of every task-size boundary.
        let f = |i: usize| ((i as f64) * 0.37).cos() * (i as f64 + 0.5);
        let f4 = |i: usize| [f(i), 2.0 * f(i), -f(i), f(i) * f(i)];
        let bits = |v: [f64; 4]| v.map(f64::to_bits);
        for w in [2, 3, 4, 5] {
            let pool = StealPool::new(w);
            let edge = TASKS_PER_THREAD * w * GRAIN;
            for n in [
                GRAIN,
                GRAIN + 1,
                edge - 1,
                edge,
                edge + 1,
                132 * 132,
                30_000,
            ] {
                let (par, ser) = (pool.run_sum(n, &f), crate::SerialExec.run_sum(n, &f));
                assert_eq!(par.to_bits(), ser.to_bits(), "W = {w}, n = {n}");
                let (par4, ser4) = (pool.run_sum4(n, &f4), crate::SerialExec.run_sum4(n, &f4));
                assert_eq!(bits(par4), bits(ser4), "W = {w}, n = {n}: run_sum4");
            }
        }
    }

    #[test]
    fn repeated_regions() {
        let pool = StealPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(97, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 97);
    }

    #[test]
    fn concurrent_posters_serialise() {
        // Two threads race `run` on the same pool; the poster lock must
        // serialise regions without lost updates or deadlock.
        let pool = StealPool::new(4);
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
    fn uneven_work_gets_stolen() {
        // Front-loaded imbalance: early indices are slow. With LIFO locals
        // and batch stealing the pool still completes correctly.
        let pool = StealPool::new(4);
        let slow_done = AtomicUsize::new(0);
        pool.run(256, &|i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                slow_done.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(slow_done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn small_n_runs_inline() {
        let pool = StealPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(GRAIN, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), GRAIN);
    }

    #[test]
    fn metrics_count_regions_and_steals() {
        let pool = StealPool::new(4);
        for _ in 0..20 {
            pool.run(512, &|_| {});
        }
        pool.run(GRAIN, &|_| {}); // at the grain → inline
        let m = pool.metrics();
        assert_eq!(m.regions, 20);
        assert_eq!(m.inline_runs, 1);
        assert_eq!(m.steals, pool.steal_count());
        assert_eq!(m.worker_parks.len(), 4);
    }

    #[test]
    fn caller_runs_at_least_one_task() {
        let pool = StealPool::new(4);
        let me = std::thread::current().id();
        for n in [8 * GRAIN, 1000, 17_424] {
            let ids = runner_per_index(&pool, n);
            assert!(ids.contains(&me), "n = {n}");
        }
    }

    #[test]
    fn one_thread_pool_spawns_nothing_and_runs_inline() {
        let pool = StealPool::new(1);
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
    fn region_after_every_worker_parked_runs() {
        let pool = StealPool::new(4);
        pool.run(64, &|_| {});
        // Long enough for every worker to blow its spin budget and park.
        let parks = |p: &StealPool| p.metrics().worker_parks[1..].iter().all(|&n| n > 0);
        let t0 = std::time::Instant::now();
        while !parks(&pool) {
            assert!(t0.elapsed().as_secs() < 10, "workers never parked");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.run_sum(1000, &|i| i as f64), 499_500.0);
    }

    #[test]
    fn shutdown_while_workers_spin() {
        for _ in 0..50 {
            let pool = StealPool::new(3);
            pool.run(64, &|_| {});
            drop(pool); // workers are still inside their spin budget
        }
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = StealPool::new(2);
        // Index 0 is in the task the poster keeps; 33 may run anywhere.
        for bad in [0, 33] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(64, &|i| {
                    if i == bad {
                        panic!("kernel fault");
                    }
                });
            }));
            assert!(result.is_err(), "panic at index {bad} was lost");
            // pool must still be usable afterwards, on the pooled path too
            assert_eq!(pool.run_sum(64, &|i| i as f64), 2016.0);
        }
        assert_eq!(pool.metrics().regions, 4);
    }
}
