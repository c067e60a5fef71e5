//! Property-based tests of the executors' core guarantees: full index
//! coverage and bit-deterministic reductions under every scheduler.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use parpool::{
    run_sum_many, Executor, PermutedExec, SerialExec, StaticPool, StealPool, TiledExec, SUM_BLOCK,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn static_pool_visits_each_index_once(n in 0usize..5000, threads in 1usize..9) {
        let pool = StaticPool::new(threads);
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn steal_pool_visits_each_index_once(n in 0usize..5000, threads in 1usize..9) {
        let pool = StealPool::new(threads);
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reductions_bit_identical_across_executors(
        values in proptest::collection::vec(-1.0e9..1.0e9f64, 0..3000),
        threads in 2usize..8,
    ) {
        let f = |i: usize| values[i] * 1.000001 + (i as f64).sin();
        let reference = SerialExec.run_sum(values.len(), &f);
        let static_pool = StaticPool::new(threads);
        let steal_pool = StealPool::new(threads);
        prop_assert_eq!(static_pool.run_sum(values.len(), &f), reference);
        prop_assert_eq!(steal_pool.run_sum(values.len(), &f), reference);
    }

    #[test]
    fn multi_component_reduction_matches_scalar(
        values in proptest::collection::vec(-1.0e6..1.0e6f64, 1..2000),
        threads in 1usize..6,
    ) {
        let pool = StaticPool::new(threads);
        let n = values.len();
        let [sum, sum_sq] = run_sum_many(&pool, n, &|i| [values[i], values[i] * values[i]]);
        let s = pool.run_sum(n, &|i| values[i]);
        let q = pool.run_sum(n, &|i| values[i] * values[i]);
        prop_assert_eq!(sum, s);
        prop_assert_eq!(sum_sq, q);
    }

    /// A block body that folds its partials row-interleaved (as the
    /// kernel block bodies do) sums to `run_sum`'s bits on every
    /// executor, for block counts around every multiple of the block.
    #[test]
    fn block_sums_match_per_index_sums_on_every_executor(
        values in proptest::collection::vec(-1.0e9..1.0e9f64, 0..40),
        blocks in 0usize..20,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = (blocks * SUM_BLOCK + values.len() % 3).saturating_sub(1);
        let f = |i: usize| values.get(i % values.len().max(1)).copied().unwrap_or(0.0) + (i as f64).cos();
        let static_pool = StaticPool::new(threads);
        let steal_pool = StealPool::new(threads);
        let execs: [&dyn Executor; 6] = [
            &SerialExec,
            &static_pool,
            &steal_pool,
            &PermutedExec::new(&static_pool, seed),
            &PermutedExec::new(&steal_pool, seed),
            &TiledExec::new(&static_pool, 3, 2),
        ];
        let reference = SerialExec.run_sum(n, &f);
        for (k, exec) in execs.iter().enumerate() {
            let by_block = exec.run_sum_blocks(n, &|ids, out| {
                // Fill back to front: the order a block computes its
                // partials in must not matter.
                for (o, i) in out.iter_mut().zip(ids).rev() {
                    *o += f(i);
                }
            });
            prop_assert_eq!(by_block.to_bits(), reference.to_bits(), "exec #{} n {}", k, n);
            prop_assert_eq!(exec.run_sum(n, &f).to_bits(), reference.to_bits(), "exec #{} n {}", k, n);
        }
    }

    #[test]
    fn repeated_regions_stay_deterministic(
        n in 1usize..800,
        regions in 1usize..20,
    ) {
        let pool = StealPool::new(4);
        let f = |i: usize| 1.0 / (i as f64 + 1.0);
        let first = pool.run_sum(n, &f);
        for _ in 0..regions {
            prop_assert_eq!(pool.run_sum(n, &f), first);
        }
    }
}
