//! TBB-style work stealing over the [`Pool`] core.
//!
//! The paper observed that Intel's OpenCL CPU runtime "uniquely doesn't use
//! OpenMP to handle the CPU parallelism, instead using Intel Thread
//! Building Blocks", whose "non-deterministic work-stealing scheduler" was
//! the suspected source of the large run-to-run variance (§4.1). This
//! schedule reproduces that architecture on the same region barrier as the
//! static one: each thread owns a [`crossbeam_deque::Worker`] and starts
//! from its static block `[w·n/W, (w+1)·n/W)`, cut into chunks of at least
//! `GRAIN` items (about `TASKS_PER_THREAD` per thread, the way TBB's
//! range partitioner splits a `parallel_for`). It runs its first chunk,
//! pops the rest in ascending order, and then sweeps the other threads'
//! deques, whose far ends hold their last chunks; every success counts as
//! a steal. A thread checks in on the region only when its own deque is
//! empty and a full sweep finds nothing, so a region without imbalance
//! does exactly the static pool's work and steals only where a thread
//! falls behind. Regions of at most `GRAIN` items run inline.
//!
//! Results remain bit-deterministic (writes are disjoint, reductions are
//! index-ordered from `+0.0`); only the *schedule* is non-deterministic,
//! as with TBB.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_deque::{Stealer, Worker};

use crate::pool::{Pool, Schedule};

/// Minimum chunk size in items, and the largest region run inline.
pub(crate) const GRAIN: usize = 4;

/// Chunks per thread a region is cut into (see the module docs).
pub(crate) const TASKS_PER_THREAD: usize = 4;

/// Per-thread deques of item ranges, and every thread's steal handle.
pub struct Steal {
    stealers: Vec<Stealer<Range<usize>>>,
}

/// Persistent work-stealing thread pool.
pub type StealPool = Pool<Steal>;

impl Steal {
    /// One chunk from the first other thread, after `w`, that has any.
    fn steal(&self, w: usize, steals: &AtomicU64) -> Option<Range<usize>> {
        let t = self.stealers.len();
        let items = (1..t).find_map(|k| self.stealers[(w + k) % t].steal().success())?;
        steals.fetch_add(1, Ordering::Relaxed);
        Some(items)
    }
}

impl Schedule for Steal {
    type Local = Worker<Range<usize>>;
    const NAME: &'static str = "parpool-steal";

    fn new(threads: usize) -> (Self, Vec<Self::Local>) {
        let locals: Vec<_> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        (Steal { stealers }, locals)
    }

    fn inline(n: usize, _: usize) -> bool {
        n <= GRAIN
    }

    fn share(
        &self,
        local: &mut Self::Local,
        w: usize,
        t: usize,
        n: usize,
        run: &dyn Fn(Range<usize>),
        steals: &AtomicU64,
    ) {
        let (start, end) = (w * n / t, (w + 1) * n / t);
        let len = GRAIN.max(n.div_ceil(t * TASKS_PER_THREAD));
        // Seed every chunk but the first, the last one first, so the owner
        // pops them in ascending order and thieves take the far end.
        let mut chunk = start + (end - start).saturating_sub(1) / len * len;
        while chunk > start {
            local.push(chunk..(chunk + len).min(end));
            chunk -= len;
        }
        run(start..end.min(start + len));
        while let Some(items) = local.pop().or_else(|| self.steal(w, steals)) {
            run(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::runner_per_index;
    use crate::Executor;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn uneven_work_gets_stolen() {
        // Front-loaded imbalance: early indices are slow. The pool still
        // completes correctly.
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
    fn blocked_poster_has_its_range_stolen() {
        // The poster runs index 0 in its first chunk and holds it until
        // the last index of its own range `[0, n/4)` has run; only a thief
        // can run that index.
        let pool = StealPool::new(4);
        let (n, tail_ran) = (1024, AtomicBool::new(false));
        pool.run(n, &|i| {
            if i == 0 {
                let t0 = std::time::Instant::now();
                while !tail_ran.load(Ordering::Acquire) {
                    assert!(
                        t0.elapsed().as_secs() < 10,
                        "index {} never stolen",
                        n / 4 - 1
                    );
                    std::thread::yield_now();
                }
            } else if i == n / 4 - 1 {
                tail_ran.store(true, Ordering::Release);
            }
        });
        assert!(pool.metrics().steals > 0);
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
        assert_eq!(m.steals, pool.metrics().steals);
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
}
