//! The seed's execution substrate, vendored as a measurement baseline.
//!
//! This is the dispatch scheme `parpool::StaticPool` shipped with before
//! the fork-join rework: every parallel region takes a mutex, posts the
//! job, wakes all workers through a condvar and waits on a second condvar
//! for the join; reductions allocate a fresh per-index partial buffer per
//! call. Keeping it in-tree (rather than in git history only) lets
//! `bench_kernels` and `benches/kernels.rs` report an honest
//! before/after ratio on every future checkout, so the perf trajectory
//! stays measurable.
//!
//! It is *not* part of the production substrate — nothing outside the
//! bench harness may depend on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use parpool::UnsafeSlice;

/// Type-erased pointer to the parallel-region body (see the seed's
/// `static_pool.rs`; the posting thread outlives every dereference).
#[derive(Clone, Copy)]
struct JobFn {
    ptr: *const (dyn Fn(usize) + Sync),
}
// SAFETY: the pointee is `Sync` and outlives the job (the posting thread
// blocks in `run` until all workers signalled completion).
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

struct Slot {
    generation: u64,
    job: Option<(JobFn, usize)>,
    workers_done: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    panicked: AtomicBool,
}

/// The seed's mutex+condvar static pool.
pub struct BaselinePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl BaselinePool {
    /// Spawn a pool with `n_threads` workers.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                workers_done: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let workers = (0..n_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("baseline-pool-{w}"))
                    .spawn(move || worker_loop(w, n_threads, shared))
                    .expect("failed to spawn baseline worker")
            })
            .collect();
        BaselinePool {
            shared,
            workers,
            n_threads,
        }
    }

    fn post_and_wait(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        // Erase the caller lifetime. SAFETY: we do not return until every
        // worker has finished executing the job.
        let job = JobFn {
            ptr: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) },
        };
        let mut slot = self.shared.slot.lock().unwrap();
        slot.generation += 1;
        slot.job = Some((job, n));
        slot.workers_done = 0;
        self.shared.work_cv.notify_all();
        while slot.workers_done < self.n_threads {
            slot = self.shared.done_cv.wait(slot).unwrap();
        }
        slot.job = None;
        drop(slot);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("a baseline worker panicked while executing a parallel region");
        }
    }

    /// The seed's `run`: inline only for `n <= 1`, otherwise a full
    /// post/wake/join round-trip.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if n == 1 || self.n_threads == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        self.post_and_wait(n, f);
    }

    /// The seed's `run_sum`: a fresh `Vec<f64>` partial buffer per call,
    /// per-index partials combined in index order (from `+0.0`, as every
    /// ordered fold in the workspace starts).
    pub fn run_sum(&self, n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        let mut partials = vec![0.0f64; n];
        {
            let slot = UnsafeSlice::new(&mut partials);
            self.run(n, &|i| {
                // SAFETY: each index is visited exactly once.
                unsafe { slot.set(i, f(i)) };
            });
        }
        let mut acc = 0.0;
        for p in &partials {
            acc += p;
        }
        acc
    }

    /// The seed's `run_sum_many::<4>`: a fresh `Vec<[f64; 4]>` per call.
    pub fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        let mut partials = vec![[0.0f64; 4]; n];
        {
            let slot = UnsafeSlice::new(&mut partials);
            self.run(n, &|i| {
                // SAFETY: disjoint per-index writes.
                unsafe { slot.set(i, f(i)) };
            });
        }
        let mut acc = [0.0f64; 4];
        for p in &partials {
            for k in 0..4 {
                acc[k] += p[k];
            }
        }
        acc
    }
}

fn worker_loop(worker: usize, n_threads: usize, shared: Arc<Shared>) {
    let mut seen_generation = 0u64;
    loop {
        let (job, n, generation) = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation > seen_generation {
                    if let Some((job, n)) = slot.job {
                        break (job, n, slot.generation);
                    }
                }
                slot = shared.work_cv.wait(slot).unwrap();
            }
        };
        seen_generation = generation;
        let start = worker * n / n_threads;
        let end = (worker + 1) * n / n_threads;
        if start < end {
            // SAFETY: the posting thread keeps the closure alive until all
            // workers report done.
            let f = unsafe { &*job.ptr };
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in start..end {
                    f(i);
                }
            }));
            if result.is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
            }
        }
        let mut slot = shared.slot.lock().unwrap();
        slot.workers_done += 1;
        if slot.workers_done == n_threads {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for BaselinePool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
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
    use parpool::Executor;

    #[test]
    fn baseline_sum_matches_current_pool_bitwise() {
        let baseline = BaselinePool::new(4);
        let current = parpool::StaticPool::new(4);
        let f = |i: usize| ((i as f64) * 0.1).sin() / (i as f64 + 1.0);
        assert_eq!(baseline.run_sum(10_000, &f), current.run_sum(10_000, &f));
    }
}
