//! # opencl-rs
//!
//! A Rust analogue of the OpenCL host API as the paper's port used it
//! (§2.5, §3.6). OpenCL "exposed more complexity than the other models,
//! and also required more boilerplate code to handle the abstract model" —
//! that boilerplate is reproduced deliberately: platforms must be queried,
//! a context created, a command queue built, buffers allocated against the
//! context, kernels created with a declared argument count and every
//! argument set before an `enqueue_nd_range` will accept them. Every
//! NDRange launch runs one work-group at a time through
//! [`queue::CommandQueue::enqueue_work_groups`], which hands a kernel body
//! each work-group's id range.
//!
//! Reductions follow §3.6: "they have to be manually written" — the
//! [`queue::CommandQueue::enqueue_reduce`] helper is a two-pass
//! work-group-partials-then-final-pass scheme and charges **two** kernel
//! launches, which is the cost structure that feeds the CG anomalies on
//! offload devices.
//!
//! ## Example
//!
//! ```
//! use opencl_rs::{Buffer, CommandQueue, Context, Kernel, NdRange, Platform};
//! use parpool::SerialExec;
//! use simdev::{devices, KernelProfile, ModelProfile, SimContext};
//!
//! let platform = Platform::list().remove(0);
//! let device = platform.devices(&[devices::gpu_k20x()]).remove(0);
//! let cl = Context::new(device);
//! let sim = SimContext::new(devices::gpu_k20x(), ModelProfile::ideal("OpenCL"), vec![], 0);
//! let queue = CommandQueue::new(&cl, &sim, &SerialExec);
//!
//! let mut buf = Buffer::new(&cl, 64);
//! queue.enqueue_write_buffer(&mut buf, &vec![3.0; 64]);
//! let kernel = Kernel::create("dot", 1);
//! kernel.set_arg(0);
//! let profile = KernelProfile::reduction("dot", 64, 1, 1);
//! let data = buf.arg_view().to_vec();
//! let (sum, _event) = queue.enqueue_reduce(&kernel, &profile, 8, &|g| {
//!     data[g * 8..(g + 1) * 8].iter().fold(0.0, |acc, x| acc + x)
//! });
//! assert_eq!(sum, 192.0);
//! ```

pub mod buffer;
pub mod platform;
pub mod queue;

pub use buffer::Buffer;
pub use platform::{ClDevice, Context, Platform};
pub use queue::{CommandQueue, Event, Kernel, NdRange};
