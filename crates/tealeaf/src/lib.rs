//! # tealeaf
//!
//! The TeaLeaf heat-conduction mini-app (paper §1.1) ported to Rust
//! analogues of the seven programming models the paper evaluates, plus a
//! serial reference. The crate is organised exactly like the study:
//!
//! * [`kernels::TeaLeafPort`] — the kernel set every port implements. The
//!   solver drivers are written **once** against this trait, which is how
//!   "TeaLeaf's core solver logic and parameters were kept consistent
//!   between ports" (§3).
//! * [`solver`] — the three iterative solvers of the paper (CG, Chebyshev,
//!   PPCG) plus upstream TeaLeaf's Jacobi, with the CG-Lanczos eigenvalue
//!   estimation ([`eigen`]) Chebyshev and PPCG need.
//! * [`ports`] — the eight ports: `serial`, OpenMP 3.0 (Fortran-90- and
//!   C++-flavoured), OpenMP 4.0, OpenACC, Kokkos (flat and hierarchical-
//!   parallelism), RAJA (list-segment and SIMD), OpenCL and CUDA.
//! * [`profiles`] — each model's calibrated [`simdev::ModelProfile`] and
//!   named quirks, with the paper observation justifying every number.
//! * [`driver`] — the timestep loop and the one run API: [`run`] takes a
//!   [`RunSpec`] (a [`tea_core::TeaConfig`] plus an [`Exec`]: a model on
//!   a device, or a tile grid of [`distributed`] ranks) and returns a
//!   [`Run`] around one [`RunReport`].
//! * [`resilience`] — numerical-health sentinels on every solver's
//!   residual stream, bit-exact checkpoint/rollback through the
//!   cost-free observation hooks, and configurable fallback chains; a
//!   recovered transient fault finishes bit-identical to a clean run.

pub mod cheby;
pub mod distributed;
pub mod driver;
pub mod eigen;
pub mod ir;
pub mod kernels;
pub mod model_id;
pub mod ports;
pub mod problem;
pub mod profiles;
pub mod recorder;
pub mod report;
pub mod resilience;
pub mod solver;
pub mod tile;
pub mod tune;

pub use driver::{run, Exec, Run, RunError, RunSpec};
pub use kernels::{traced_halo, NormField, TeaLeafPort};
pub use model_id::ModelId;
pub use problem::Problem;
pub use report::RunReport;
pub use resilience::{RecoveryAction, RecoveryEvent, Sentinel, SolverHealth};
pub use simdev::TelemetrySink;
