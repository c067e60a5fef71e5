//! OpenMP-style static scheduling over the [`Pool`] core.
//!
//! Each parallel region assigns thread `w` the contiguous index block
//! `[w·n/W, (w+1)·n/W)` — the analogue of `#pragma omp parallel for
//! schedule(static)` with `OMP_PROC_BIND=close`, which is how the paper ran
//! its CPU and KNC experiments (§4.1, §4.3: "thread affinity set to
//! compact"). As with the OpenMP master thread, the poster is thread 0 and
//! runs block 0 itself. Regions of fewer items than threads run inline.

use std::ops::Range;
use std::sync::atomic::AtomicU64;

use crate::pool::{Pool, Schedule};

/// Contiguous per-thread blocks; nothing to steal.
pub struct Static;

/// Persistent static-scheduling thread pool.
pub type StaticPool = Pool<Static>;

impl Schedule for Static {
    type Local = ();
    const NAME: &'static str = "parpool-static";

    fn new(threads: usize) -> (Self, Vec<()>) {
        (Static, vec![(); threads])
    }

    fn inline(n: usize, threads: usize) -> bool {
        n < threads
    }

    fn share(
        &self,
        _: &mut (),
        w: usize,
        t: usize,
        n: usize,
        run: &dyn Fn(Range<usize>),
        _: &AtomicU64,
    ) {
        run(w * n / t..(w + 1) * n / t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::runner_per_index;
    use crate::Executor;

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
}
