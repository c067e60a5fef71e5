//! Execution spaces and parallel dispatch.
//!
//! Kokkos distinguishes *where* code runs (execution space) from *what*
//! runs (a functor or lambda over an index range). This module provides
//! the flat [`RangePolicy`] dispatch used by the paper's first Kokkos port
//! and the [`TeamPolicy`] hierarchical parallelism of the `Kokkos HP`
//! variant (paper Figure 7), where a league of teams maps to rows and the
//! team's threads map to columns, re-encoding the halo exclusion into the
//! iteration space instead of a branch.

use std::ops::Range;

use parpool::Executor;
use simdev::{KernelProfile, SimContext};

use crate::reducer::{Functor, ReduceFunctor, Reducer};

/// Indices per executor item of a flat [`ExecutionSpace::parallel_for`].
const CHUNK: usize = 256;

/// Flat 1-D iteration range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePolicy {
    pub start: usize,
    pub end: usize,
}

impl RangePolicy {
    /// Range over `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end);
        RangePolicy { start, end }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for an empty range.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Hierarchical policy: `league_size` teams of `team_size` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamPolicy {
    pub league_size: usize,
    pub team_size: usize,
}

/// Handle passed to a team kernel: identifies the team and provides the
/// nested `team_thread_range` loop (the inner lambda of Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct TeamMember {
    pub league_rank: usize,
    pub team_size: usize,
}

impl TeamMember {
    /// Execute `f` for every index in `[0, n)` using the team's threads.
    ///
    /// Functionally the loop is sequential within the team, which keeps
    /// per-team partial sums deterministic; concurrency across teams is
    /// provided by the league dispatch. A thin wrapper over
    /// [`TeamMember::team_span`].
    pub fn team_thread_range(&self, n: usize, f: impl FnMut(usize)) {
        self.team_span(n).for_each(f);
    }

    /// The index range `[0, n)` the team's threads split, handed over
    /// whole: with one team per row, a kernel body receives the team's
    /// row at once.
    pub fn team_span(&self, n: usize) -> Range<usize> {
        0..n
    }

    /// `team_thread_range` with a per-thread sum reduced into one value —
    /// the "additional code … to critically add the results from each
    /// team" (§3.3).
    pub fn team_thread_reduce(&self, n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..n {
            acc += f(i);
        }
        acc
    }
}

/// An execution space: a host executor plus the simulated-device context
/// all dispatches are charged against.
pub struct ExecutionSpace<'a> {
    ctx: &'a SimContext,
    exec: &'a dyn Executor,
}

impl<'a> ExecutionSpace<'a> {
    /// Bind an execution space to a device context and host executor.
    pub fn new(ctx: &'a SimContext, exec: &'a dyn Executor) -> Self {
        ExecutionSpace { ctx, exec }
    }

    /// The simulated-device context.
    pub fn ctx(&self) -> &SimContext {
        self.ctx
    }

    /// `Kokkos::parallel_for` over a flat range. A thin wrapper over
    /// [`ExecutionSpace::parallel_for_chunks`].
    pub fn parallel_for<F: Fn(usize) + Sync + ?Sized>(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        f: &F,
    ) {
        self.parallel_for_chunks(profile, policy, &|ids| ids.for_each(f));
    }

    /// `Kokkos::parallel_for` one chunk at a time: `chunk(ids)` receives
    /// each `CHUNK` consecutive indices of the policy (the last chunk
    /// stops at its end). Each chunk is one executor item; charges
    /// exactly what [`ExecutionSpace::parallel_for`] charges.
    pub fn parallel_for_chunks<F: Fn(Range<usize>) + Sync + ?Sized>(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        chunk: &F,
    ) {
        self.ctx.launch(profile);
        let (start, end) = (policy.start, policy.end);
        self.exec.run(policy.len().div_ceil(CHUNK), &|c| {
            chunk(start + c * CHUNK..(start + (c + 1) * CHUNK).min(end))
        });
    }

    /// `Kokkos::parallel_reduce` with the default sum semantics. A thin
    /// per-index wrapper over [`ExecutionSpace::parallel_reduce_blocks`].
    pub fn parallel_reduce(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        f: &(dyn Fn(usize) -> f64 + Sync),
    ) -> f64 {
        self.parallel_reduce_blocks(profile, policy, &|ids, out| {
            for (o, i) in out.iter_mut().zip(ids) {
                *o = f(i);
            }
        })
    }

    /// `Kokkos::parallel_reduce` one block of the policy at a time
    /// ([`parpool::Executor::run_sum_blocks`]): `f(ids, out)` writes the
    /// partials of indices `ids` into `out`, and the partials join in
    /// index order from `+0.0`. Charges exactly what
    /// [`ExecutionSpace::parallel_reduce`] charges.
    pub fn parallel_reduce_blocks(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        self.ctx.launch(profile);
        let start = policy.start;
        self.exec.run_sum_blocks(policy.len(), &|ids, out| {
            f(start + ids.start..start + ids.end, out)
        })
    }

    /// `Kokkos::parallel_reduce` with a custom [`Reducer`].
    ///
    /// Partials are produced per index and joined in index order, so the
    /// result is deterministic for any executor.
    pub fn parallel_reduce_custom<R: Reducer>(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        reducer: &R,
        f: &(dyn Fn(usize) -> R::Value + Sync),
    ) -> R::Value {
        self.ctx.launch(profile);
        let n = policy.len();
        let start = policy.start;
        let mut partials: Vec<Option<R::Value>> = (0..n).map(|_| None).collect();
        {
            let slot = parpool::UnsafeSlice::new(&mut partials);
            self.exec.run(n, &|k| {
                // SAFETY: each index written exactly once.
                unsafe { slot.set(k, Some(f(start + k))) };
            });
        }
        let mut acc = reducer.init();
        for p in partials.into_iter() {
            reducer.join(&mut acc, p.expect("every index produced a partial"));
        }
        acc
    }

    /// `Kokkos::parallel_for` with a functor instead of a lambda — the
    /// verbose pre-CUDA-7.5 style the paper's port had to use (§3.3).
    /// Each chunk goes to [`Functor::operator_range`].
    pub fn parallel_for_functor<F: Functor>(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        functor: &F,
    ) {
        self.parallel_for_chunks(profile, policy, &|ids| functor.operator_range(ids));
    }

    /// `Kokkos::parallel_reduce` with a reducing functor.
    pub fn parallel_reduce_functor<F: ReduceFunctor>(
        &self,
        profile: &KernelProfile,
        policy: RangePolicy,
        functor: &F,
    ) -> f64 {
        self.parallel_reduce(profile, policy, &|i| functor.operator(i))
    }

    /// Hierarchical `parallel_for` over a league of teams.
    pub fn team_parallel_for(
        &self,
        profile: &KernelProfile,
        policy: TeamPolicy,
        f: &(dyn Fn(TeamMember) + Sync),
    ) {
        self.ctx.launch(profile);
        let team_size = policy.team_size;
        self.exec.run(policy.league_size, &|league_rank| {
            f(TeamMember {
                league_rank,
                team_size,
            });
        });
    }

    /// Hierarchical `parallel_reduce`: one partial per team, joined in
    /// league order.
    pub fn team_parallel_reduce(
        &self,
        profile: &KernelProfile,
        policy: TeamPolicy,
        f: &(dyn Fn(TeamMember) -> f64 + Sync),
    ) -> f64 {
        self.ctx.launch(profile);
        let team_size = policy.team_size;
        self.exec.run_sum(policy.league_size, &|league_rank| {
            f(TeamMember {
                league_rank,
                team_size,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::ArraySumReducer;
    use parpool::SerialExec;
    use simdev::{devices, ModelProfile, SimContext};

    fn ctx() -> SimContext {
        SimContext::new(
            devices::cpu_xeon_e5_2670_x2(),
            ModelProfile::ideal("Kokkos"),
            vec![],
            1,
        )
    }

    fn profile(n: u64) -> KernelProfile {
        KernelProfile::streaming("test_kernel", n, 1, 1, 1)
    }

    #[test]
    fn parallel_for_covers_range() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let mut data = vec![0.0; 10];
        {
            let slot = parpool::UnsafeSlice::new(&mut data);
            space.parallel_for(&profile(6), RangePolicy::new(2, 8), &|i| unsafe {
                slot.set(i, i as f64)
            });
        }
        assert_eq!(data, vec![0., 0., 2., 3., 4., 5., 6., 7., 0., 0.]);
        assert_eq!(ctx.clock.snapshot().kernels, 1);
    }

    #[test]
    fn parallel_reduce_sums_range() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let s = space.parallel_reduce(&profile(5), RangePolicy::new(0, 5), &|i| i as f64);
        assert_eq!(s, 10.0);
    }

    #[test]
    fn custom_reducer_multi_variable() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let [a, b] = space.parallel_reduce_custom(
            &profile(4),
            RangePolicy::new(0, 4),
            &ArraySumReducer::<2>,
            &|i| [i as f64, (i * i) as f64],
        );
        assert_eq!(a, 6.0);
        assert_eq!(b, 14.0);
    }

    #[test]
    fn team_dispatch_covers_2d() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let (rows, cols) = (4, 5);
        let mut grid = vec![0.0; rows * cols];
        {
            let slot = parpool::UnsafeSlice::new(&mut grid);
            space.team_parallel_for(
                &profile((rows * cols) as u64),
                TeamPolicy {
                    league_size: rows,
                    team_size: 4,
                },
                &|member| {
                    member.team_thread_range(cols, |c| {
                        // SAFETY: league ranks are distinct rows.
                        unsafe { slot.set(member.league_rank * cols + c, 1.0) };
                    });
                },
            );
        }
        assert!(grid.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn chunks_partition_the_policy_in_order() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let chunks = std::sync::Mutex::new(Vec::new());
        space.parallel_for_chunks(&profile(600), RangePolicy::new(10, 610), &|ids| {
            chunks.lock().unwrap().push(ids)
        });
        assert_eq!(
            chunks.into_inner().unwrap(),
            vec![10..266, 266..522, 522..610]
        );
        assert_eq!(ctx.clock.snapshot().kernels, 1);
    }

    #[test]
    fn hp_teams_hand_over_one_row_each() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let (rows, cols) = (5, 9);
        let spans = std::sync::Mutex::new(Vec::new());
        space.team_parallel_for(
            &profile((rows * cols) as u64),
            TeamPolicy {
                league_size: rows,
                team_size: 8,
            },
            &|m| {
                let span = m.team_span(cols);
                spans
                    .lock()
                    .unwrap()
                    .push(m.league_rank * cols + span.start..m.league_rank * cols + span.end);
            },
        );
        let want: Vec<_> = (0..rows).map(|r| r * cols..(r + 1) * cols).collect();
        assert_eq!(
            spans.into_inner().unwrap(),
            want,
            "team r covers row r whole"
        );
    }

    #[test]
    fn team_reduce_matches_flat() {
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let (rows, cols) = (8, 16);
        let value = |r: usize, c: usize| ((r * cols + c) as f64).sqrt();
        let team = space.team_parallel_reduce(
            &profile((rows * cols) as u64),
            TeamPolicy {
                league_size: rows,
                team_size: 4,
            },
            &|m| m.team_thread_reduce(cols, |c| value(m.league_rank, c)),
        );
        // serial row-ordered reference
        let mut reference = 0.0;
        for r in 0..rows {
            let mut row = 0.0;
            for c in 0..cols {
                row += value(r, c);
            }
            reference += row;
        }
        assert_eq!(team, reference);
    }

    #[test]
    fn functor_dispatch_matches_lambda() {
        struct Axpy<'a> {
            alpha: f64,
            x: &'a [f64],
            y: parpool::UnsafeSlice<'a, f64>,
        }
        impl Functor for Axpy<'_> {
            fn operator(&self, i: usize) {
                // SAFETY: each index written once.
                unsafe { self.y.set(i, self.alpha * self.x[i] + self.y.get(i)) };
            }
        }
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let x: Vec<f64> = (0..32).map(|k| k as f64).collect();
        let mut y_functor = vec![1.0; 32];
        let mut y_lambda = vec![1.0; 32];
        {
            let functor = Axpy {
                alpha: 0.5,
                x: &x,
                y: parpool::UnsafeSlice::new(&mut y_functor),
            };
            space.parallel_for_functor(&profile(32), RangePolicy::new(0, 32), &functor);
        }
        {
            let y = parpool::UnsafeSlice::new(&mut y_lambda);
            space.parallel_for(&profile(32), RangePolicy::new(0, 32), &|i| {
                // SAFETY: each index written once.
                unsafe { y.set(i, 0.5 * x[i] + y.get(i)) };
            });
        }
        assert_eq!(y_functor, y_lambda);
    }

    #[test]
    fn reduce_functor_matches_lambda() {
        struct Dot<'a> {
            a: &'a [f64],
            b: &'a [f64],
        }
        impl ReduceFunctor for Dot<'_> {
            fn operator(&self, i: usize) -> f64 {
                self.a[i] * self.b[i]
            }
        }
        let ctx = ctx();
        let space = ExecutionSpace::new(&ctx, &SerialExec);
        let a: Vec<f64> = (0..100).map(|k| (k as f64).sin()).collect();
        let b: Vec<f64> = (0..100).map(|k| (k as f64).cos()).collect();
        let functor_val = space.parallel_reduce_functor(
            &profile(100),
            RangePolicy::new(0, 100),
            &Dot { a: &a, b: &b },
        );
        let lambda_val =
            space.parallel_reduce(&profile(100), RangePolicy::new(0, 100), &|i| a[i] * b[i]);
        assert_eq!(functor_val, lambda_val);
    }

    #[test]
    fn parallel_pool_agrees_with_serial() {
        let ctx = ctx();
        let pool = parpool::StaticPool::new(4);
        let space_pool = ExecutionSpace::new(&ctx, &pool);
        let space_serial = ExecutionSpace::new(&ctx, &SerialExec);
        let f = |i: usize| (i as f64 * 0.1).sin();
        let a = space_pool.parallel_reduce(&profile(1000), RangePolicy::new(0, 1000), &f);
        let b = space_serial.parallel_reduce(&profile(1000), RangePolicy::new(0, 1000), &f);
        assert_eq!(a, b);
    }
}
