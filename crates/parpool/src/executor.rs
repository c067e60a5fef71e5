//! The [`Executor`] abstraction and the serial reference implementation.

use std::ops::Range;

/// Indices per item of [`Executor::run_sum_blocks`].
pub const SUM_BLOCK: usize = 8;

/// Block `b` of `0..n` in [`SUM_BLOCK`]s.
#[inline(always)]
pub(crate) fn block(b: usize, n: usize) -> Range<usize> {
    b * SUM_BLOCK..(b * SUM_BLOCK + SUM_BLOCK).min(n)
}

/// The ordered fold every reduction ends in: left to right from `+0.0`.
/// (`Iterator::sum` starts from `−0.0`, which would turn a sum of
/// `−0.0` partials into `−0.0` on some paths and `+0.0` on others.)
#[inline]
pub(crate) fn fold(partials: &[f64]) -> f64 {
    let mut acc = 0.0;
    for p in partials {
        acc += p;
    }
    acc
}

/// The inline block sum: each block's partials into a stack buffer, then
/// folded on. Same blocks and same fold as the pooled paths.
pub(crate) fn run_sum_blocks_inline(
    n: usize,
    f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync),
) -> f64 {
    let mut acc = 0.0;
    for b in 0..n.div_ceil(SUM_BLOCK) {
        let ids = block(b, n);
        let mut out = [0.0; SUM_BLOCK];
        let out = &mut out[..ids.len()];
        f(ids, out);
        for p in out.iter() {
            acc += p;
        }
    }
    acc
}

/// A parallel-for runtime over an index space `0..n`.
///
/// The programming-model crates (Kokkos/RAJA/directive/OpenCL/CUDA
//  analogues) all lower their dispatch onto an `Executor`.
pub trait Executor: Send + Sync {
    /// Number of worker threads that may execute items concurrently.
    fn threads(&self) -> usize;

    /// Execute `f(i)` for every `i in 0..n`. Blocks until all items ran.
    ///
    /// Items may run concurrently and in any order; callers must ensure
    /// writes are disjoint per item (TeaLeaf kernels write disjoint rows).
    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync));

    /// Deterministic parallel sum: `f(i)` is index `i`'s partial, and
    /// the partials are summed **in index order** from `+0.0`. A thin
    /// per-index wrapper over [`Executor::run_sum_blocks`].
    ///
    /// The result is bit-identical across executors and thread counts.
    fn run_sum(&self, n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        self.run_sum_blocks(n, &|ids, out| {
            for (o, i) in out.iter_mut().zip(ids) {
                *o = f(i);
            }
        })
    }

    /// Deterministic block sum: each item is a contiguous block of
    /// [`SUM_BLOCK`] indices (the last may be shorter), and `f(ids, out)`
    /// writes the partials of `ids` into `out` (`out.len() == ids.len()`,
    /// every entry `+0.0` on entry). The partials are then summed in index
    /// order from `+0.0`, exactly as [`Executor::run_sum`] sums per-index
    /// partials, so a block body that computes the same partials gets the
    /// same bits — whatever order it computes them in.
    fn run_sum_blocks(&self, n: usize, f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)) -> f64 {
        let mut partials = vec![0.0f64; n];
        {
            let slot = crate::shared::UnsafeSlice::new(&mut partials);
            self.run(n.div_ceil(SUM_BLOCK), &|b| {
                let ids = block(b, n);
                // SAFETY: blocks are disjoint, and each runs exactly once.
                f(ids.clone(), unsafe { slot.slice_mut(ids.start, ids.end) });
            });
        }
        fold(&partials)
    }

    /// Deterministic 4-component sum (the TeaLeaf field summary computes
    /// volume/mass/internal-energy/temperature in one sweep): one
    /// `[f64; 4]` partial per index, combined in index order. A concrete
    /// arity (rather than `const K`) keeps the trait object-safe, letting
    /// pools override it with an allocation-free implementation.
    fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        // Not expressed via `run_sum_many` — that helper routes K == 4
        // calls back here so pools get their scratch fast path, and the
        // default must therefore be self-contained.
        let mut partials = vec![[0.0f64; 4]; n];
        {
            let slot = crate::shared::UnsafeSlice::new(&mut partials);
            self.run(n, &|i| {
                // SAFETY: disjoint per-index writes as in `run_sum`.
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

/// Deterministic multi-component sum (e.g. a 4-way field summary): one
/// `[f64; K]` partial per index, combined in index order. Free function
/// (rather than a trait method) so [`Executor`] stays object-safe.
pub fn run_sum_many<const K: usize>(
    exec: &(impl Executor + ?Sized),
    n: usize,
    f: &(dyn Fn(usize) -> [f64; K] + Sync),
) -> [f64; K] {
    if K == 4 {
        // Route through the object-safe fixed-arity hook so pools can use
        // their allocation-free scratch; the fold order (per-index, per
        // component) is identical, so the result is bit-identical.
        let out = exec.run_sum4(n, &|i| {
            let v = f(i);
            [v[0], v[1], v[2], v[3]]
        });
        let mut acc = [0.0f64; K];
        acc.copy_from_slice(&out);
        return acc;
    }
    let mut partials = vec![[0.0f64; K]; n];
    {
        let slot = crate::shared::UnsafeSlice::new(&mut partials);
        exec.run(n, &|i| {
            // SAFETY: disjoint per-index writes as in `run_sum`.
            unsafe { slot.set(i, f(i)) };
        });
    }
    let mut acc = [0.0f64; K];
    for p in &partials {
        for k in 0..K {
            acc[k] += p[k];
        }
    }
    acc
}

/// Inline, single-threaded executor: the behavioural reference every pool
/// must agree with exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

impl Executor for SerialExec {
    fn threads(&self) -> usize {
        1
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }

    fn run_sum_blocks(&self, n: usize, f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)) -> f64 {
        run_sum_blocks_inline(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_visits_all_in_order() {
        let seen = std::sync::Mutex::new(Vec::new());
        SerialExec.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn serial_sum_matches_direct() {
        let s = SerialExec.run_sum(100, &|i| (i as f64).sqrt());
        let mut direct = 0.0;
        for i in 0..100 {
            direct += (i as f64).sqrt();
        }
        assert_eq!(s, direct);
    }

    #[test]
    fn sum_many_components() {
        let [a, b] = run_sum_many(&SerialExec, 10, &|i| [i as f64, 2.0 * i as f64]);
        assert_eq!(a, 45.0);
        assert_eq!(b, 90.0);
    }

    #[test]
    fn negative_zero_partials_fold_to_positive_zero_everywhere() {
        for t in [1, 2, 4] {
            let static_pool = crate::StaticPool::new(t);
            let steal_pool = crate::StealPool::new(t);
            let execs: [&dyn Executor; 5] = [
                &SerialExec,
                &static_pool,
                &steal_pool,
                &crate::PermutedExec::new(&static_pool, 3),
                &crate::TiledExec::new(&steal_pool, 4, 2),
            ];
            for (k, exec) in execs.iter().enumerate() {
                for n in [1, 3, 8, 100, 1000] {
                    let got = exec.run_sum(n, &|_| -0.0);
                    assert_eq!(
                        got.to_bits(),
                        0.0f64.to_bits(),
                        "exec #{k}, {t} threads, n {n}"
                    );
                    let got = exec.run_sum_blocks(n, &|_, out| out.fill(-0.0));
                    assert_eq!(
                        got.to_bits(),
                        0.0f64.to_bits(),
                        "exec #{k}, {t} threads, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocks_hand_over_eight_indices_and_zeroed_partials() {
        let seen = std::sync::Mutex::new(Vec::new());
        let s = SerialExec.run_sum_blocks(19, &|ids, out| {
            assert!(out.iter().all(|p| p.to_bits() == 0));
            assert_eq!(out.len(), ids.len());
            for (o, i) in out.iter_mut().zip(ids.clone()) {
                *o = i as f64;
            }
            seen.lock().unwrap().push(ids);
        });
        assert_eq!(s, 171.0);
        assert_eq!(*seen.lock().unwrap(), vec![0..8, 8..16, 16..19]);
    }

    #[test]
    fn zero_items_is_noop() {
        let count = AtomicUsize::new(0);
        SerialExec.run(0, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(SerialExec.run_sum(0, &|_| 1.0), 0.0);
    }
}
