//! The fork-join region core shared by both pools.
//!
//! A [`Pool`] of `W` threads is the posting thread plus `W − 1` workers
//! spawned once. Workers wait for work on a **generation barrier**: the
//! poster publishes a job, then bumps an atomic generation counter;
//! workers spin on the counter for a bounded budget (`SPIN_ITERS`; the
//! common case in a solver inner loop, where the next region arrives
//! almost immediately) and only park on a condvar when no work shows up.
//! The poster is thread 0: it runs its own share of the region between
//! publishing the job and joining, then spins at the join and yields; it
//! never parks (see `join_wait`).
//!
//! What each thread runs is the [`Schedule`]'s business: the static
//! schedule ([`Static`](crate::static_pool::Static)) runs thread `w`'s
//! contiguous block, the stealing one
//! ([`Steal`](crate::steal_pool::Steal)) starts from the same block and
//! then takes chunks off other threads' deques. Either way a thread
//! checks in on `done` only when it has nothing left to run, and the
//! poster returns only after every worker checked in — which is all the
//! lifetime erasure of the borrowed region body relies on.
//!
//! ## Determinism of reductions
//!
//! [`Executor::run_sum_blocks`] (under `run_sum`) and `run_sum4` keep the
//! crate-wide contract: one partial **per index**, folded sequentially in
//! index order from `+0.0`. Per-worker pre-summation would be cheaper but
//! regroups the floating-point additions — `(a₀+a₁)+(a₂+a₃)` is not
//! `((a₀+a₁)+a₂)+a₃` — and so would break bit-identity with
//! [`SerialExec`](crate::SerialExec), with other thread counts and with
//! the other schedule. What the pool removes instead is the
//! *allocation*: it owns grow-only scratch behind the poster lock, so
//! steady-state reductions never touch the heap.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::executor::{block, fold, run_sum_blocks_inline, Executor, SUM_BLOCK};
use crate::metrics::{Counters, PoolMetrics};
use crate::shared::{CachePadded, UnsafeSlice};

/// Spin iterations before a worker waiting for a region parks, or a
/// poster waiting for its join starts yielding ([`join_wait`]). Each
/// iteration is one counter load and one `spin_loop` hint (`PAUSE` on
/// x86-64, ≈20 ns on recent Intel cores), so the whole budget measures
/// ≈70–90 µs (median of 200 timed budgets, idle 2-vCPU Intel Xeon VM) —
/// tens of times the "few microseconds" of OpenMP's
/// `OMP_WAIT_POLICY=passive` grace spin. It does outlast the gap between
/// back-to-back regions in a solver inner loop, which is what keeps the
/// workers off the futex path there.
const SPIN_ITERS: u32 = 4096;

/// Spin on `ready` for up to [`SPIN_ITERS`] iterations; `false` when the
/// budget ran out first and the caller should park.
#[inline]
fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    for _ in 0..SPIN_ITERS {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    ready()
}

/// A poster's join: spin on `done` for the [`SPIN_ITERS`] budget, then
/// yield until it holds; `true` when the budget ran out. The poster never
/// parks. On a VM a futex wake-up can take longer than the whole spin
/// budget, and a poster parked at the join would then post the next region
/// only after the workers' budgets ran out: they park too, every region
/// wakes a parked worker, the late worker makes the poster park again, and
/// the pool settles into two wake-ups per region (a 128² CG solve on the
/// OpenMP F90 port measured ≈80 ms in that state against ≈6 ms without).
/// A yielding poster posts the next region as soon as it is ready, so a
/// worker parks only across a real gap between regions.
#[inline]
fn join_wait(done: impl Fn() -> bool) -> bool {
    if spin_until(&done) {
        return false;
    }
    while !done() {
        std::thread::yield_now();
    }
    true
}

/// How a [`Pool`] shares a region's items among its threads.
pub trait Schedule: Send + Sync + Sized + 'static {
    /// Per-thread scheduling state; slot 0 belongs to the posting thread.
    type Local: Send + 'static;
    /// Worker thread names are `"{NAME}-{w}"`.
    const NAME: &'static str;
    /// The schedule and every thread's state for a `threads`-wide pool.
    fn new(threads: usize) -> (Self, Vec<Self::Local>);
    /// True when an `n`-item region is cheaper run on the posting thread.
    fn inline(n: usize, threads: usize) -> bool;
    /// Run thread `w`'s share of an `n`-item region by handing item
    /// ranges to `run`, returning only when this thread has nothing left
    /// to run. Every item must be handed over exactly once across the
    /// region's threads; each successful steal bumps `steals`.
    fn share(
        &self,
        local: &mut Self::Local,
        w: usize,
        threads: usize,
        n: usize,
        run: &dyn Fn(Range<usize>),
        steals: &AtomicU64,
    );
}

/// Type-erased pointer to the parallel-region body, a `&dyn Fn(usize)`
/// borrowed from the poster's stack.
#[derive(Clone, Copy)]
struct JobFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, and the poster does not return (so the
// borrow stays live) until every worker has checked in on the region.
unsafe impl Send for JobFn {}

/// Barrier state shared between the poster and the workers.
///
/// The handshake per region is:
/// 1. the poster writes `job` and resets `done`, then bumps `generation`
///    (Release) — the bump *publishes* the job;
/// 2. workers observe the bump (Acquire), read `job`, run their share,
///    then increment `done` (AcqRel); meanwhile the poster runs its own;
/// 3. the poster returns once `done == W − 1`.
///
/// `generation` and `done` live on separate cache lines: workers hammer
/// `generation` while spinning and `done` while finishing, and the poster
/// does the reverse; sharing a line would bounce it on every transition.
struct Shared<S> {
    /// Monotonic epoch counter; workers remember the last generation they
    /// ran and react to any change.
    generation: CachePadded<AtomicU64>,
    /// Spawned workers that have finished the current region.
    done: CachePadded<AtomicUsize>,
    /// Job and item count, published before the `generation` bump.
    job: UnsafeCell<Option<(JobFn, usize)>>,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    /// Count of parked workers, guarded by the mutex `idle_cv` waits on.
    idle: Mutex<usize>,
    idle_cv: Condvar,
    /// Scheduler counters (regions, steals, parks); always on.
    metrics: Counters,
    schedule: S,
    threads: usize,
}

// SAFETY: `job` is written only by the poster before the Release bump of
// `generation` and read only by workers after the matching Acquire load;
// the poster lock admits one poster at a time. Every other field is `Sync`
// on its own (`S` by the bound).
unsafe impl<S: Sync> Sync for Shared<S> {}

impl<S: Schedule> Shared<S> {
    /// Run thread `w`'s share of a region, recording (not raising) a panic
    /// so the region still joins before the poster reports it.
    fn run_share(&self, local: &mut S::Local, w: usize, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let run = |items: Range<usize>| {
            if catch_unwind(AssertUnwindSafe(|| items.for_each(f))).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        };
        let steals = &self.metrics.steals;
        self.schedule.share(local, w, self.threads, n, &run, steals);
    }

    /// Wait until `generation` moves past `seen`; spin briefly, then park.
    fn wait_for_generation(&self, worker: usize, seen: u64) -> u64 {
        loop {
            if spin_until(|| self.generation.load(Ordering::Acquire) != seen) {
                return self.generation.load(Ordering::Acquire);
            }
            let mut idle = self.idle.lock();
            // Re-check under the lock: the poster bumps the generation
            // *before* taking this lock to notify, so either we see the
            // bump here or the notify comes after we are inside `wait`.
            let g = self.generation.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
            self.metrics.worker_parked(worker);
            *idle += 1;
            self.idle_cv.wait(&mut idle);
            *idle -= 1;
        }
    }

    /// Bump the generation and wake every parked worker. Taking the lock
    /// (not just reading the count) closes the race with a worker between
    /// its final generation check and the condvar wait.
    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
        let idle = self.idle.lock();
        if *idle > 0 {
            self.idle_cv.notify_all();
        }
    }
}

fn worker_loop<S: Schedule>(w: usize, mut local: S::Local, shared: Arc<Shared<S>>) {
    let mut seen = 0u64;
    loop {
        seen = shared.wait_for_generation(w, seen);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the generation bump (Acquire-observed above) was
        // published after the poster wrote `job`.
        let (job, n) = unsafe { (*shared.job.get()).expect("job published with generation") };
        // SAFETY: the poster keeps the body alive until we check in below.
        shared.run_share(&mut local, w, n, unsafe { &*job.0 });
        shared.done.fetch_add(1, Ordering::AcqRel);
    }
}

/// What the posting thread owns while it posts: its scheduling state and
/// the reduction scratch, reused across regions.
struct Poster<L> {
    local: L,
    partials: Vec<f64>,
    partials4: Vec<[f64; 4]>,
}

/// A persistent fork-join pool running schedule `S`. See module docs.
pub struct Pool<S: Schedule> {
    shared: Arc<Shared<S>>,
    /// Serialises parallel regions (the generation protocol is single-
    /// poster) and owns the poster's state.
    poster: Mutex<Poster<S::Local>>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Schedule> Pool<S> {
    /// Create a pool of `n_threads` threads: the posting thread plus
    /// `n_threads − 1` spawned workers (none for `n_threads == 1`, which
    /// runs every region inline).
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "pool needs at least one worker");
        let (schedule, locals) = S::new(n_threads);
        let shared = Arc::new(Shared {
            generation: CachePadded::new(AtomicU64::new(0)),
            done: CachePadded::new(AtomicUsize::new(0)),
            job: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            idle: Mutex::new(0),
            idle_cv: Condvar::new(),
            metrics: Counters::new(n_threads),
            schedule,
            threads: n_threads,
        });
        let mut locals = locals.into_iter();
        let local = locals.next().expect("one state per thread");
        let workers = locals
            .enumerate()
            .map(|(k, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-{}", S::NAME, k + 1))
                    .spawn(move || worker_loop(k + 1, local, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        let poster = Poster {
            local,
            partials: Vec::new(),
            partials4: Vec::new(),
        };
        Pool {
            shared,
            poster: Mutex::new(poster),
            workers,
        }
    }

    /// Snapshot of the pool's scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.metrics.snapshot()
    }

    /// True (and counted) when an `n`-item region runs inline.
    fn inline(&self, n: usize) -> bool {
        let sh = &*self.shared;
        let inline = sh.threads == 1 || S::inline(n, sh.threads);
        if inline {
            sh.metrics.inline_runs.fetch_add(1, Ordering::Relaxed);
        }
        inline
    }

    /// Publish a region, run the poster's share, and block until every
    /// worker has checked in. `local` comes from the held poster lock.
    fn post_and_wait(&self, local: &mut S::Local, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let sh = &*self.shared;
        // SAFETY (lifetime erasure): we return only after every worker
        // checked in, so the borrow outlives every dereference.
        let job = JobFn(unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) });
        sh.metrics.regions.fetch_add(1, Ordering::Relaxed);
        sh.done.store(0, Ordering::Relaxed);
        // SAFETY: single poster; workers read `job` only after observing
        // the generation bump, which orders this write before them.
        unsafe { *sh.job.get() = Some((job, n)) };
        sh.bump();
        sh.run_share(local, 0, n, f);
        let workers = sh.threads - 1;
        if join_wait(|| sh.done.load(Ordering::Acquire) >= workers) {
            sh.metrics.poster_parks.fetch_add(1, Ordering::Relaxed);
        }
        if sh.panicked.swap(false, Ordering::SeqCst) {
            panic!("a parpool worker panicked while executing a parallel region");
        }
    }
}

impl<S: Schedule> Executor for Pool<S> {
    fn threads(&self) -> usize {
        self.shared.threads
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Inline fast path: when there are too few items the barrier
        // round-trip costs more than the work.
        if self.inline(n) {
            (0..n).for_each(f);
            return;
        }
        self.post_and_wait(&mut self.poster.lock().local, n, f);
    }

    fn run_sum_blocks(&self, n: usize, f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync)) -> f64 {
        let blocks = n.div_ceil(SUM_BLOCK);
        if blocks == 0 {
            return 0.0;
        }
        if self.inline(blocks) {
            // The same blocks and the same fold as the pooled path below,
            // so the inline shortcut cannot change the result.
            return run_sum_blocks_inline(n, f);
        }
        let mut guard = self.poster.lock();
        let poster = &mut *guard;
        let partials = &mut poster.partials;
        if partials.len() < n {
            partials.resize(n, 0.0);
        }
        let partials = &mut partials[..n];
        partials.fill(0.0);
        let slot = UnsafeSlice::new(partials);
        // SAFETY: blocks are disjoint, and each runs exactly once.
        self.post_and_wait(&mut poster.local, blocks, &|b| {
            let ids = block(b, n);
            f(ids.clone(), unsafe { slot.slice_mut(ids.start, ids.end) })
        });
        fold(&poster.partials[..n])
    }

    fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        let mut acc = [0.0f64; 4];
        let add = |acc: &mut [f64; 4], v: [f64; 4]| (0..4).for_each(|k| acc[k] += v[k]);
        if n == 0 {
            return acc;
        }
        if self.inline(n) {
            (0..n).for_each(|i| add(&mut acc, f(i)));
            return acc;
        }
        let mut guard = self.poster.lock();
        let poster = &mut *guard;
        if poster.partials4.len() < n {
            poster.partials4.resize(n, [0.0; 4]);
        }
        let slot = UnsafeSlice::new(&mut poster.partials4[..n]);
        // SAFETY: disjoint per-index writes, each index once.
        self.post_and_wait(&mut poster.local, n, &|i| unsafe { slot.set(i, f(i)) });
        poster.partials4[..n].iter().for_each(|&v| add(&mut acc, v));
        acc
    }
}

impl<S: Schedule> Drop for Pool<S> {
    fn drop(&mut self) {
        // The Release bump publishes the flag, ends every spin and, under
        // the idle lock, wakes every parked worker.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bump();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::runner_per_index;
    use crate::static_pool::Static;
    use crate::steal_pool::{Steal, GRAIN, TASKS_PER_THREAD};
    use crate::SerialExec;

    /// Run a generic test body on both schedules.
    macro_rules! both {
        ($check:ident $(, $arg:expr)*) => {{
            $check::<Static>($($arg),*);
            $check::<Steal>($($arg),*);
        }};
    }

    fn hits(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn each_once(hits: &[AtomicUsize]) -> bool {
        hits.iter().all(|c| c.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn visits_every_index_once() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(4);
            let counters = hits(100_000);
            pool.run(counters.len(), &|i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(each_once(&counters));
        }
        both!(check);
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        // Ordered reductions must be bit-identical under either schedule,
        // for trip counts on both sides of every task-size boundary.
        fn check<S: Schedule>() {
            let g = |i: usize| ((i as f64) * 0.1).sin() / (i as f64 + 1.0);
            let par = Pool::<S>::new(7).run_sum(50_000, &g);
            assert_eq!(par, SerialExec.run_sum(50_000, &g), "ordered reduction");
            let f = |i: usize| ((i as f64) * 0.37).cos() * (i as f64 + 0.5);
            let f4 = |i: usize| [f(i), 2.0 * f(i), -f(i), f(i) * f(i)];
            let bits = |v: [f64; 4]| v.map(f64::to_bits);
            for w in [2, 3, 4, 5] {
                let pool = Pool::<S>::new(w);
                // Where chunks grow past GRAIN, at this schedule's chunk
                // count and at a finer 16-chunk split.
                let (edge, fine) = (TASKS_PER_THREAD * w * GRAIN, 16 * w * GRAIN);
                let sizes = [GRAIN, GRAIN + 1, edge - 1, edge, edge + 1, fine - 1, fine];
                for n in sizes.into_iter().chain([fine + 1, 132 * 132, 30_000]) {
                    let (par, ser) = (pool.run_sum(n, &f), SerialExec.run_sum(n, &f));
                    assert_eq!(par.to_bits(), ser.to_bits(), "W = {w}, n = {n}");
                    let (par4, ser4) = (pool.run_sum4(n, &f4), SerialExec.run_sum4(n, &f4));
                    assert_eq!(bits(par4), bits(ser4), "W = {w}, n = {n}: run_sum4");
                }
            }
        }
        both!(check);
    }

    #[test]
    fn sum_bit_identical_across_inline_and_pool_paths() {
        // Pin each inline shortcut (static: fewer items than threads;
        // steal: at most GRAIN items) to the exact same fold as the pooled
        // partial-buffer path and as SerialExec, for trip counts
        // straddling every dispatch-path boundary of both schedules, on
        // `run_sum`'s blocks and on `run_sum4`'s indices.
        fn check<S: Schedule>() {
            let t = 6;
            let pool = Pool::<S>::new(t);
            let f = |i: usize| ((i as f64) * 0.37).cos() / ((i % 13) as f64 + 0.5);
            let f4 = |i: usize| [f(i), 2.0 * f(i), -f(i), 0.0];
            let (b, g) = (SUM_BLOCK, GRAIN);
            for n in [
                0,
                1,
                t - 1,
                t,
                10 * t,
                g,
                g + 1,
                b * (t - 1),
                b * t + 1,
                b * g,
                b * g + 1,
            ] {
                let (par, ser) = (pool.run_sum(n, &f), SerialExec.run_sum(n, &f));
                assert_eq!(par, ser, "n = {n}: inline/pool path changed the reduction");
                let (par4, ser4) = (pool.run_sum4(n, &f4), SerialExec.run_sum4(n, &f4));
                assert_eq!(par4, ser4, "n = {n}: run_sum4 diverged");
            }
        }
        both!(check);
    }

    #[test]
    fn run_sum_is_reusable_and_scratch_grows() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(4);
            // Descending sizes exercise the grow-only scratch with stale
            // tail contents; ascending re-grow after shrink.
            for n in [10_000, 100, 10_000, 64, 4, 1] {
                let par = pool.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
                let ser = SerialExec.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
                assert_eq!(par, ser, "n = {n}");
            }
        }
        both!(check);
    }

    #[test]
    fn many_regions_back_to_back() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(3);
            for (regions, n) in [(500, 64), (200, 97)] {
                let total = AtomicUsize::new(0);
                for _ in 0..regions {
                    pool.run(n, &|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
                assert_eq!(total.load(Ordering::Relaxed), regions * n);
            }
        }
        both!(check);
    }

    #[test]
    fn small_regions_run_inline() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(4);
            let hit = AtomicUsize::new(0);
            pool.run(1, &|i| {
                assert_eq!(i, 0);
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hit.load(Ordering::Relaxed), 1);
            pool.run(GRAIN, &|_| {
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hit.load(Ordering::Relaxed), 1 + GRAIN);
            let counters = hits(3);
            Pool::<S>::new(8).run(3, &|i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(each_once(&counters));
        }
        both!(check);
    }

    #[test]
    fn concurrent_posters_serialise() {
        // Two threads race `run` on the same pool; the poster lock must
        // serialise regions without lost updates or deadlock.
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(4);
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
        both!(check);
    }

    #[test]
    fn region_after_every_worker_parked_runs() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(4);
            pool.run(64, &|_| {});
            // Wait until every worker blew its spin budget and parked.
            let t0 = std::time::Instant::now();
            while !pool.metrics().worker_parks[1..].iter().all(|&n| n > 0) {
                assert!(t0.elapsed().as_secs() < 10, "workers never parked");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let counters = hits(1000);
            pool.run(1000, &|i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(each_once(&counters));
            assert_eq!(pool.run_sum(1000, &|i| i as f64), 499_500.0);
        }
        both!(check);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        // `bad` indices: one in the poster's first range, one elsewhere.
        fn check<S: Schedule>(n: usize, bad: [usize; 2], sum_n: usize, sum: f64) {
            let pool = Pool::<S>::new(2);
            for bad in bad {
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.run(n, &|i| {
                        if i == bad {
                            panic!("kernel fault");
                        }
                    });
                }));
                assert!(result.is_err(), "panic at index {bad} was lost");
                // The pool must still be usable afterwards.
                assert_eq!(pool.run_sum(sum_n, &|i| i as f64), sum);
            }
            assert_eq!(pool.metrics().regions, 4);
        }
        check::<Static>(8, [1, 5], 10, 45.0);
        both!(check, 64, [0, 33], 64, 2016.0);
    }

    #[test]
    fn one_thread_pool_spawns_nothing_and_runs_inline() {
        fn check<S: Schedule>() {
            let pool = Pool::<S>::new(1);
            assert!(pool.workers.is_empty());
            assert_eq!(pool.threads(), 1);
            let me = std::thread::current().id();
            assert!(runner_per_index(&pool, 1000).iter().all(|&id| id == me));
            assert_eq!(pool.run_sum(10, &|i| i as f64), 45.0);
            let m = pool.metrics();
            assert_eq!((m.regions, m.inline_runs), (0, 2));
            assert_eq!(m.worker_parks, vec![0]);
        }
        both!(check);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        fn check<S: Schedule>() {
            for _ in 0..50 {
                let pool = Pool::<S>::new(3);
                pool.run(64, &|_| {});
                drop(pool); // workers are still inside their spin budget
            }
            let pool = Pool::<S>::new(2);
            pool.run(4, &|_| {});
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(pool); // workers are parked; drop must still not hang
        }
        both!(check);
    }
}
