//! `forall` dispatch: the recoupling of loop body to traversal.

use std::ops::Range;

use parpool::{Executor, SerialExec};
use simdev::{KernelProfile, SimContext};

use crate::indexset::{IndexSet, Segment};
use crate::policy::ExecPolicy;

/// The RAJA runtime: a host executor plus the simulated-device context.
pub struct RajaRuntime<'a> {
    ctx: &'a SimContext,
    exec: &'a dyn Executor,
}

impl<'a> RajaRuntime<'a> {
    /// Bind a runtime to a device context and host executor.
    pub fn new(ctx: &'a SimContext, exec: &'a dyn Executor) -> Self {
        RajaRuntime { ctx, exec }
    }

    /// The simulated-device context.
    pub fn ctx(&self) -> &SimContext {
        self.ctx
    }
}

/// Finalise a launch profile for a segment: list segments fetch through an
/// indirection array, which the cost model charges with extra index
/// traffic and a lost-vectorization penalty (§4.1).
fn profile_for(seg: &Segment, profile: &KernelProfile) -> KernelProfile {
    if seg.is_indirect() {
        profile.clone().with_indirection()
    } else {
        profile.clone()
    }
}

/// Iteration positions per executor item of a parallel [`forall`].
const CHUNK: usize = 256;

/// `RAJA::forall<P>(segment, lambda)` — execute `f` over every index the
/// segment yields, in segment order. A thin wrapper over [`forall_runs`].
pub fn forall<P: ExecPolicy>(
    rt: &RajaRuntime<'_>,
    seg: &Segment,
    profile: &KernelProfile,
    f: &(impl Fn(usize) + Sync + ?Sized),
) {
    forall_runs::<P>(rt, seg, profile, &|ids| ids.for_each(f));
}

/// `RAJA::forall<P>` one chunk at a time: each `CHUNK` iteration
/// positions (the whole segment under a sequential policy) reach `f` as
/// the contiguous index runs they name, in segment order — one run for a
/// range segment, and for a list segment one per stretch of consecutive
/// entries. A parallel policy posts one executor item per chunk. Charges
/// exactly what [`forall`] charges, indirection included.
pub fn forall_runs<P: ExecPolicy>(
    rt: &RajaRuntime<'_>,
    seg: &Segment,
    profile: &KernelProfile,
    f: &(impl Fn(Range<usize>) + Sync + ?Sized),
) {
    rt.ctx.launch(&profile_for(seg, profile));
    let n = seg.len();
    if P::PARALLEL {
        rt.exec.run(n.div_ceil(CHUNK), &|c| {
            seg_runs(seg, c * CHUNK..((c + 1) * CHUNK).min(n), |_, ids| f(ids))
        });
    } else {
        seg_runs(seg, 0..n, |_, ids| f(ids));
    }
}

/// Hand `f(p, ids)` the index runs that iteration positions `pos` of
/// `seg` name, `p` being each run's first position: one run for a range
/// segment, the list's cached runs clipped to `pos` for a list segment.
#[inline(always)]
fn seg_runs(seg: &Segment, pos: Range<usize>, mut f: impl FnMut(usize, Range<usize>)) {
    match seg {
        Segment::Range(r) => {
            if !pos.is_empty() {
                f(pos.start, r.begin + pos.start..r.begin + pos.end)
            }
        }
        Segment::List(l) => l.runs_in(pos, f),
    }
}

/// `RAJA::forall` with a `ReduceSum`: one partial per iteration position,
/// joined in position order (deterministic for any executor). A thin
/// per-index wrapper over [`forall_sum_blocks`].
pub fn forall_sum<P: ExecPolicy>(
    rt: &RajaRuntime<'_>,
    seg: &Segment,
    profile: &KernelProfile,
    f: &(dyn Fn(usize) -> f64 + Sync),
) -> f64 {
    forall_sum_blocks::<P>(rt, seg, profile, &|ids, out| {
        for (o, k) in out.iter_mut().zip(ids) {
            *o = f(k);
        }
    })
}

/// `RAJA::forall` with a `ReduceSum`, one block of iteration positions
/// at a time ([`parpool::Executor::run_sum_blocks`]; inline under a
/// sequential policy): `f(ids, out)` writes the partials of each run of
/// consecutive indices a block names into `out`, the block's partials at
/// those positions. Partials join in position order from `+0.0`, so a
/// body that computes [`forall_sum`]'s partials gets its bits. Charges
/// exactly what [`forall_sum`] charges, indirection included.
pub fn forall_sum_blocks<P: ExecPolicy>(
    rt: &RajaRuntime<'_>,
    seg: &Segment,
    profile: &KernelProfile,
    f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync),
) -> f64 {
    rt.ctx.launch(&profile_for(seg, profile));
    let block = |pos: Range<usize>, out: &mut [f64]| {
        let p0 = pos.start;
        seg_runs(seg, pos, |p, ids| {
            let at = p - p0;
            f(ids.clone(), &mut out[at..at + ids.len()])
        });
    };
    let exec: &dyn Executor = if P::PARALLEL { rt.exec } else { &SerialExec };
    exec.run_sum_blocks(seg.len(), &block)
}

/// Multi-variable reduction — the paper's port had to write "our own
/// implementations of the dispatch functions, to handle situations where
/// we had multiple reduction variables" (§3.4); this is that custom
/// dispatch.
pub fn forall_sum_many<P: ExecPolicy, const K: usize>(
    rt: &RajaRuntime<'_>,
    seg: &Segment,
    profile: &KernelProfile,
    f: &(dyn Fn(usize) -> [f64; K] + Sync),
) -> [f64; K] {
    rt.ctx.launch(&profile_for(seg, profile));
    let n = seg.len();
    if P::PARALLEL {
        parpool::run_sum_many(rt.exec, n, &|k| f(seg.at(k)))
    } else {
        let mut acc = [0.0; K];
        for k in 0..n {
            let v = f(seg.at(k));
            for i in 0..K {
                acc[i] += v[i];
            }
        }
        acc
    }
}

/// Dispatch every segment of an [`IndexSet`] in order, each as its own
/// launch (RAJA aggregates segments by type and dispatches them through a
/// loop template, §2.3).
pub fn forall_set<P: ExecPolicy>(
    rt: &RajaRuntime<'_>,
    set: &IndexSet,
    profile: &KernelProfile,
    f: &(impl Fn(usize) + Sync + ?Sized),
) {
    for seg in set.segments() {
        forall::<P>(rt, seg, profile, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexset::{IndexSet, ListSegment, RangeSegment};
    use crate::policy::{OmpParallelForExec, SeqExec};
    use simdev::{devices, ModelProfile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> SimContext {
        SimContext::new(
            devices::cpu_xeon_e5_2670_x2(),
            ModelProfile::ideal("RAJA"),
            vec![],
            1,
        )
    }

    fn profile() -> KernelProfile {
        KernelProfile::streaming("raja_kernel", 100, 2, 1, 2)
    }

    #[test]
    fn range_forall_covers_indices() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let seg = Segment::Range(RangeSegment::new(5, 10));
        let hits: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
        forall::<SeqExec>(&rt, &seg, &profile(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            let expect = usize::from((5..10).contains(&i));
            assert_eq!(h.load(Ordering::Relaxed), expect, "index {i}");
        }
    }

    #[test]
    fn list_forall_follows_list() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let seg = Segment::List(ListSegment::new(vec![2, 7, 3]));
        let order = std::sync::Mutex::new(Vec::new());
        forall::<SeqExec>(&rt, &seg, &profile(), &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![2, 7, 3]);
    }

    #[test]
    fn list_runs_rebuild_the_interior_list_in_order() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        for (width, height, halo) in [(6, 5, 1), (40, 30, 2), (3, 300, 1), (300, 3, 1)] {
            let list = ListSegment::interior_2d(width, height, halo);
            let seg = Segment::List(list.clone());
            let runs = std::sync::Mutex::new(Vec::new());
            forall_runs::<OmpParallelForExec>(&rt, &seg, &profile(), &|ids| {
                runs.lock().unwrap().push(ids)
            });
            let runs = runs.into_inner().unwrap();
            for r in &runs {
                assert!(!r.is_empty());
                assert_eq!(r.start / width, (r.end - 1) / width, "{r:?} leaves its row");
            }
            let flat: Vec<usize> = runs.into_iter().flatten().collect();
            assert_eq!(flat, list.indices(), "{width}x{height} halo {halo}");
        }
        let seg = Segment::List(ListSegment::new(vec![4, 5, 9]));
        let (by_runs, by_index) = (self::ctx(), self::ctx());
        forall_runs::<SeqExec>(
            &RajaRuntime::new(&by_runs, &SerialExec),
            &seg,
            &profile(),
            &|_| {},
        );
        forall::<SeqExec>(
            &RajaRuntime::new(&by_index, &SerialExec),
            &seg,
            &profile(),
            &|_| {},
        );
        assert_eq!(
            by_runs.clock.snapshot().seconds,
            by_index.clock.snapshot().seconds,
            "same indirection charge as forall"
        );
    }

    #[test]
    fn list_dispatch_is_charged_as_indirect() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let range = Segment::Range(RangeSegment::new(0, 1_000_000));
        let list = Segment::List(ListSegment::new((0..1_000_000).collect()));
        let p = KernelProfile::streaming("k", 1_000_000, 3, 1, 3);
        forall::<SeqExec>(&rt, &range, &p, &|_| {});
        let t_range = ctx.clock.snapshot().seconds;
        forall::<SeqExec>(&rt, &list, &p, &|_| {});
        let t_list = ctx.clock.snapshot().seconds - t_range;
        assert!(
            t_list > 1.25 * t_range,
            "indirection must cost: {t_list} vs {t_range}"
        );
    }

    #[test]
    fn reduce_sum_deterministic_across_policies() {
        let ctx = ctx();
        let pool = parpool::StaticPool::new(4);
        let rt_par = RajaRuntime::new(&ctx, &pool);
        let rt_seq = RajaRuntime::new(&ctx, &SerialExec);
        let seg = Segment::Range(RangeSegment::new(0, 10_000));
        let f = |i: usize| ((i as f64) * 0.01).sin();
        let a = forall_sum::<OmpParallelForExec>(&rt_par, &seg, &profile(), &f);
        let b = forall_sum::<SeqExec>(&rt_seq, &seg, &profile(), &f);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_reduce() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let seg = Segment::Range(RangeSegment::new(0, 4));
        let [s, q] =
            forall_sum_many::<SeqExec, 2>(&rt, &seg, &profile(), &|i| [i as f64, (i * i) as f64]);
        assert_eq!(s, 6.0);
        assert_eq!(q, 14.0);
    }

    #[test]
    fn indexset_dispatches_each_segment() {
        let ctx = ctx();
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let mut set = IndexSet::new();
        set.push_range(RangeSegment::new(0, 3));
        set.push_list(ListSegment::new(vec![8, 9]));
        let count = AtomicUsize::new(0);
        forall_set::<SeqExec>(&rt, &set, &profile(), &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
        assert_eq!(ctx.clock.snapshot().kernels, 2, "one launch per segment");
    }
}
