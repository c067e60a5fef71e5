//! # raja-rs
//!
//! A Rust analogue of LLNL's RAJA portability layer as the paper used it
//! (§2.3, §3.4). RAJA's foundational abstractions are reproduced:
//!
//! * **Separate loop body from traversal** — kernels are lambdas over a
//!   cell index; the traversal is chosen by the segment and policy.
//! * **Segments** — [`RangeSegment`] (contiguous) and [`ListSegment`]
//!   (explicit indirection list). The paper's port used list segments to
//!   "exclude the halo boundaries without any explicit conditions or index
//!   calculations in the loop body", at the cost of precluding
//!   vectorization (§4.1) — list-segment dispatch carries the
//!   `indirection` kernel trait, which is exactly that cost.
//!   Dispatch runs one chunk of iteration positions at a time
//!   ([`forall::forall_runs`]), handing the body the contiguous index runs
//!   the chunk names; `forall` is the per-index wrapper over it. A list
//!   segment finds its maximal runs of consecutive entries once, at
//!   construction ([`ListSegment::runs_in`]), so a chunk's runs are a lookup,
//!   not a rescan of the list on every launch.
//! * **IndexSets** — ordered collections of segments dispatched as a unit.
//! * **Execution policies** — [`policy::SeqExec`], [`policy::OmpParallelForExec`],
//!   [`policy::SimdExec`] (the paper's proof-of-concept `RAJA SIMD`
//!   variant that re-enables vectorization on range segments).
//! * **Reductions** — `forall_sum`, the analogue of `RAJA::ReduceSum`,
//!   with index-ordered deterministic joins from `+0.0`, is the per-index
//!   wrapper over [`forall::forall_sum_blocks`], which hands the body a
//!   block of positions' index runs and the matching partials to write.
//!
//! ## Example
//!
//! ```
//! use raja_rs::{forall_sum, ListSegment, RajaRuntime, Segment, SeqExec};
//! use parpool::SerialExec;
//! use simdev::{devices, KernelProfile, ModelProfile, SimContext};
//!
//! let ctx = SimContext::new(devices::cpu_xeon_e5_2670_x2(), ModelProfile::ideal("RAJA"), vec![], 0);
//! let rt = RajaRuntime::new(&ctx, &SerialExec);
//! // a halo-excluding indirection list over a 6x6 padded grid (halo 1)
//! let interior = Segment::List(ListSegment::interior_2d(6, 6, 1));
//! let data = vec![1.5; 36];
//! let profile = KernelProfile::reduction("sum", 16, 1, 1);
//! let total = forall_sum::<SeqExec>(&rt, &interior, &profile, &|k| data[k]);
//! assert_eq!(total, 16.0 * 1.5);
//! ```

pub mod forall;
pub mod indexset;
pub mod policy;

pub use forall::{forall, forall_runs, forall_sum, forall_sum_blocks, RajaRuntime};
pub use indexset::{IndexSet, ListSegment, RangeSegment, Segment};
pub use policy::{ExecPolicy, OmpParallelForExec, SeqExec, SimdExec};
