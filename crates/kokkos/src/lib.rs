//! # kokkos-rs
//!
//! A Rust analogue of the Kokkos performance-portability framework
//! (Edwards et al., Sandia) as used by the paper's TeaLeaf port (§2.4,
//! §3.3): `View` data containers with layout policies and memory spaces,
//! `deep_copy` between spaces, flat-range `parallel_for`/`parallel_reduce`
//! dispatch, custom reducers for multi-variable reductions, and the
//! `TeamPolicy` hierarchical parallelism that Sandia proposed to remove the
//! flat-index halo guard (Figure 7 of the paper).
//!
//! Flat dispatches run one chunk of indices at a time
//! ([`ExecutionSpace::parallel_for_chunks`]) and team dispatches one team
//! at a time ([`TeamMember::team_span`]), so a kernel body can take a
//! whole chunk or row; the per-index forms are wrappers over them.
//!
//! Execution is functional on the host through a [`parpool::Executor`];
//! simulated device time is charged per dispatch through a
//! [`simdev::SimContext`], exactly as the real framework would lower to
//! OpenMP/pthreads/CUDA.
//!
//! ## Example
//!
//! ```
//! use kokkos_rs::{deep_copy, ExecutionSpace, RangePolicy, View};
//! use parpool::SerialExec;
//! use simdev::{devices, ModelProfile, SimContext};
//!
//! let ctx = SimContext::new(devices::gpu_k20x(), ModelProfile::ideal("Kokkos"), vec![], 0);
//! let space = ExecutionSpace::new(&ctx, &SerialExec);
//! let mut host = View::host("h", 16, 16);
//! host.fill_from_row_major(&vec![2.0; 256]);
//! let mut dev = View::device("d", 16, 16);
//! deep_copy(&ctx, &mut dev, &host); // charges a PCIe transfer
//! let profile = simdev::KernelProfile::reduction("sum", 256, 1, 1);
//! let raw = dev.raw().to_vec();
//! let total = space.parallel_reduce(&profile, RangePolicy::new(0, 256), &|i| raw[i]);
//! assert_eq!(total, 512.0);
//! ```

pub mod exec;
pub mod reducer;
pub mod view;

pub use exec::{ExecutionSpace, RangePolicy, TeamMember, TeamPolicy};
pub use reducer::{Functor, ReduceFunctor, Reducer};
pub use view::{deep_copy, Layout, MemorySpaceKind, View};
