//! # parpool
//!
//! Host-side parallel execution substrate for the TeaLeaf reproduction.
//!
//! The paper's CPU results are produced by two very different runtimes:
//! OpenMP's fork-join pool with *static* chunk scheduling, and Intel's
//! OpenCL CPU implementation built on TBB's *work-stealing* scheduler
//! (§4.1 — the source of the OpenCL CPU variance). This crate provides
//! faithful Rust counterparts of both as two schedules over one region
//! core, [`Pool`]:
//!
//! * [`StaticPool`] (`Pool<Static>`) — contiguous per-thread index
//!   ranges. Models OpenMP `schedule(static)` with pinned threads.
//! * [`StealPool`] (`Pool<Steal>`) — each thread starts from the same
//!   range, cut into chunks on its own [`crossbeam_deque`] deque, and
//!   steals other threads' chunks once its own run out, counting every
//!   steal so the scheduling noise can be observed. Models TBB.
//! * [`SerialExec`] — inline execution, the determinism reference.
//!
//! The core owns everything beneath a schedule once: persistent workers
//! on a spin-then-park generation barrier, the posting thread as one of
//! the `n` threads a pool is created with (only `n − 1` workers are
//! spawned; it publishes the region, runs its own share, then joins, like
//! the OpenMP master thread or TBB's calling thread), panic capture,
//! shutdown and the reduction scratch. A one-thread pool spawns nothing
//! and runs every region inline.
//!
//! All three implement [`Executor`]. Reductions are **deterministic by
//! construction**: every executor computes one partial per index and the
//! partials are summed in index order from `+0.0`, so any thread count,
//! any scheduler and any executor produce bit-identical results — the
//! property the cross-port consistency tests rely on. The one fold path is
//! [`Executor::run_sum_blocks`]: each item is a block of [`SUM_BLOCK`]
//! indices that writes its own partials, which lets a kernel body compute
//! several rows' partials side by side; `run_sum` is its per-index
//! wrapper.
//!
//! ## Example
//!
//! ```
//! use parpool::{Executor, SerialExec, StaticPool};
//!
//! let pool = StaticPool::new(4);
//! let f = |i: usize| (i as f64).sqrt();
//! // ordered per-index partials make the parallel sum bit-identical to serial
//! assert_eq!(pool.run_sum(1000, &f), SerialExec.run_sum(1000, &f));
//! ```

pub mod executor;
pub mod metrics;
pub mod permute;
pub mod pool;
pub mod shared;
pub mod static_pool;
pub mod steal_pool;
pub mod tiled;

pub use executor::{run_sum_many, Executor, SerialExec, SUM_BLOCK};
pub use metrics::PoolMetrics;
pub use permute::PermutedExec;
pub use pool::Pool;
pub use shared::UnsafeSlice;
pub use static_pool::StaticPool;
pub use steal_pool::StealPool;
pub use tiled::TiledExec;

use std::sync::OnceLock;

/// Default thread count, posting thread included: `PARPOOL_THREADS` when
/// set (how the conformance golden matrix pins 1/2/4-thread runs — the
/// analogue of `OMP_NUM_THREADS`), otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PARPOOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Shared process-wide static pool (created on first use).
pub fn global_static() -> &'static StaticPool {
    static POOL: OnceLock<StaticPool> = OnceLock::new();
    POOL.get_or_init(|| StaticPool::new(default_threads()))
}

/// Shared process-wide work-stealing pool (created on first use).
pub fn global_steal() -> &'static StealPool {
    static POOL: OnceLock<StealPool> = OnceLock::new();
    POOL.get_or_init(|| StealPool::new(default_threads()))
}
