//! # cuda-rs
//!
//! A Rust analogue of the CUDA platform as the paper's device-tuned GPU
//! port used it (§2.6, §3.5): explicit device buffers moved with
//! `memcpy`-style calls, kernels launched over a 1-D grid of 1-D thread
//! blocks — "you also need to calculate a block size and corresponding
//! number of blocks, as well as checking for iteration overspill from
//! within the kernels" — and manual reductions with per-block partials
//! followed by a second pass.
//!
//! The launch really iterates `grid × block` threads and each kernel body
//! must bounds-check its thread id, exactly as CUDA kernels do; forgetting
//! the guard corrupts memory in CUDA and panics here. [`launch_blocks`] is
//! the block-granular form every launch goes through: it hands a body each
//! block's thread range, overspill included, so the guard can run once
//! per block.
//!
//! ## Example
//!
//! ```
//! use cuda_rs::buffer::memcpy_htod;
//! use cuda_rs::{launch, CudaStream, DeviceBuffer, LaunchConfig};
//! use parpool::{SerialExec, UnsafeSlice};
//! use simdev::{devices, KernelProfile, ModelProfile, SimContext};
//!
//! let ctx = SimContext::new(devices::gpu_k20x(), ModelProfile::ideal("CUDA"), vec![], 0);
//! let stream = CudaStream::new(&ctx, &SerialExec);
//! let mut x = DeviceBuffer::alloc(1000);
//! memcpy_htod(&ctx, &mut x, &vec![2.0; 1000]);
//! let cfg = LaunchConfig::for_n(1000, 256);
//! let profile = KernelProfile::streaming("scale", 1000, 1, 1, 1);
//! {
//!     let view = UnsafeSlice::new(x.device_mut());
//!     launch(&stream, cfg, &profile, &|tid| {
//!         if tid >= 1000 { return; } // overspill guard
//!         // SAFETY: one thread per element.
//!         unsafe { view.set(tid, view.get(tid) * 2.0) };
//!     });
//! }
//! assert_eq!(x.device()[999], 4.0);
//! ```

pub mod buffer;
pub mod launch;

pub use buffer::DeviceBuffer;
pub use launch::{
    launch, launch_blocks, launch_reduce, launch_reduce_blocks, CudaStream, LaunchConfig,
};
