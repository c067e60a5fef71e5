//! # tealeaf-repro
//!
//! Facade crate for the Rust reproduction of *An Evaluation of Emerging
//! Many-Core Parallel Programming Models* (Martineau et al., PMAM'16).
//!
//! The workspace ports the TeaLeaf heat-conduction mini-app to Rust
//! analogues of the seven programming models the paper evaluates, executes
//! them functionally on the host, and charges time against calibrated
//! performance models of the paper's three devices (dual Xeon E5-2670,
//! NVIDIA K20X, Xeon Phi KNC).
//!
//! This crate re-exports the public API of every workspace member so
//! examples and downstream users can depend on a single crate. Every run
//! is one call, [`tealeaf::run`], on a [`tealeaf::RunSpec`]: a deck plus
//! what executes it, a model on a device or a tile grid of ranks.
//!
//! ```
//! use tealeaf_repro::prelude::*;
//!
//! let mut config = TeaConfig::paper_problem(48);
//! config.end_step = 1;
//! config.tl_eps = 1.0e-10;
//! let device = devices::gpu_k20x();
//! let report = run(&RunSpec::new(&config, Exec::port(ModelId::Cuda, &device)))
//!     .unwrap()
//!     .report;
//! assert!(report.converged);
//!
//! let tiled = run(&RunSpec::new(&config, Exec::Tiled(DistributedSpec::new(2, 1)))).unwrap();
//! assert_eq!(tiled.report.summary, report.summary); // bit-identical on 2 ranks
//! ```

pub use cuda_rs as cuda;
pub use directive_rs as directive;
pub use kokkos_rs as kokkos;
pub use opencl_rs as opencl;
pub use parpool;
pub use raja_rs as raja;
pub use simdev;
pub use stream_rs as stream;
pub use tea_core as core;
pub use tealeaf;

/// Common imports for examples and quick experiments.
pub mod prelude {
    pub use simdev::devices;
    pub use simdev::{DeviceKind, DeviceSpec};
    pub use tea_core::{Coefficient, Field2d, Mesh2d, SolverKind, Summary, TeaConfig};
    pub use tealeaf::distributed::DistributedSpec;
    pub use tealeaf::{run, Exec, ModelId, Run, RunError, RunReport, RunSpec};
}
