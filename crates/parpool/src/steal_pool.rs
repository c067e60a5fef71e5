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
//! Results remain bit-deterministic (writes are disjoint, reductions are
//! index-ordered); only the *schedule* is non-deterministic, as with TBB.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::executor::Executor;
use crate::metrics::{Counters, PoolMetrics};

/// Index block granularity: how many consecutive indices one stolen task
/// covers. TBB similarly auto-partitions ranges into grains.
const GRAIN: usize = 4;

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
    /// Workers currently inside the region's task loop. The poster waits
    /// for this to reach zero so no worker can observe the next region's
    /// tasks while still holding the previous (stale) closure pointer.
    active: usize,
    shutdown: bool,
}

struct Shared {
    injector: Injector<Task>,
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Items remaining in the current region; completion is signalled when
    /// this reaches zero.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// Scheduler counters (regions, steals, parks); always on.
    metrics: Counters,
}

/// Persistent work-stealing thread pool. See module docs.
pub struct StealPool {
    shared: Arc<Shared>,
    /// Serialises parallel regions: `remaining`, the injector and the
    /// job slot describe one region at a time, so a second poster must
    /// wait for the first region to drain.
    poster: Mutex<()>,
    stealers: Vec<Stealer<Task>>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl StealPool {
    /// Spawn a pool with `n_threads` workers.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            metrics: Counters::new(n_threads),
        });
        let locals: Vec<Worker<Task>> = (0..n_threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = locals.iter().map(|w| w.stealer()).collect();
        let workers = locals
            .into_iter()
            .enumerate()
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
            poster: Mutex::new(()),
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
}

fn worker_loop(
    worker: usize,
    local: Worker<Task>,
    victims: Vec<Stealer<Task>>,
    shared: Arc<Shared>,
) {
    let mut seen_generation = 0u64;
    loop {
        // Wait for a new region (or shutdown).
        let job = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation > seen_generation {
                    if let Some(job) = slot.job {
                        seen_generation = slot.generation;
                        slot.active += 1;
                        break job;
                    }
                }
                shared.metrics.worker_parked(worker);
                shared.work_cv.wait(&mut slot);
            }
        };
        // SAFETY: poster keeps the closure alive until `remaining` is 0 and
        // it has re-acquired the lock; we only dereference before that.
        let f = unsafe { &*job.ptr };
        loop {
            let task = find_task(worker, &local, &victims, &shared);
            let Some(task) = task else { break };
            let count = task.end - task.start;
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in task.start..task.end {
                    f(i);
                }
            }));
            if result.is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
            }
            shared.remaining.fetch_sub(count, Ordering::AcqRel);
        }
        // Left the task loop: deregister and wake the poster if the region
        // is fully drained.
        let mut slot = shared.slot.lock();
        slot.active -= 1;
        if slot.active == 0 && shared.remaining.load(Ordering::Acquire) == 0 {
            shared.done_cv.notify_all();
        }
    }
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
        let _poster = self.poster.lock();
        // Fill the injector with grained tasks.
        let mut start = 0;
        while start < n {
            let end = (start + GRAIN).min(n);
            self.shared.injector.push(Task { start, end });
            start = end;
        }
        self.shared.remaining.store(n, Ordering::Release);
        // Erase the caller lifetime. SAFETY: `run` blocks until `remaining`
        // is zero *and* no worker is active, so the borrow outlives every
        // dereference (see the worker loop).
        let job = JobFn {
            ptr: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) },
        };
        let mut slot = self.shared.slot.lock();
        self.shared.metrics.regions.fetch_add(1, Ordering::Relaxed);
        slot.generation += 1;
        slot.job = Some(job);
        self.shared.work_cv.notify_all();
        let mut parked = false;
        while self.shared.remaining.load(Ordering::Acquire) > 0 || slot.active > 0 {
            if !parked {
                parked = true;
                self.shared
                    .metrics
                    .poster_parks
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.shared.done_cv.wait(&mut slot);
        }
        slot.job = None;
        drop(slot);
        debug_assert!(self.stealers.iter().all(|s| s.is_empty()));
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("a parpool worker panicked while executing a parallel region");
        }
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
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
        let pool = StealPool::new(5);
        let f = |i: usize| ((i as f64) * 0.37).cos() * (i as f64 + 0.5);
        let par = pool.run_sum(30_000, &f);
        let ser = crate::SerialExec.run_sum(30_000, &f);
        assert_eq!(
            par, ser,
            "ordered reduction must be bit-identical even with stealing"
        );
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
    fn panic_propagates_and_pool_survives() {
        let pool = StealPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 33 {
                    panic!("kernel fault");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(pool.run_sum(10, &|i| i as f64), 45.0);
    }
}
