//! Command queues, kernels, NDRange launches and events.

use std::cell::RefCell;
use std::collections::HashSet;
use std::ops::Range;

use parpool::Executor;
use simdev::{KernelProfile, KernelTraits, SimContext};

use crate::buffer::Buffer;
use crate::platform::Context;

/// Work-group size the implementation picks when a launch leaves the
/// local size to it.
const DEFAULT_WORK_GROUP: usize = 256;

/// Global/local work sizes for a 1-D launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    pub global: usize,
    /// Work-group size; `None` lets the implementation choose.
    pub local: Option<usize>,
}

impl NdRange {
    /// A 1-D range of `global` work items.
    pub fn d1(global: usize) -> Self {
        NdRange {
            global,
            local: None,
        }
    }

    /// A 1-D range with an explicit work-group size.
    pub fn d1_local(global: usize, local: usize) -> Self {
        NdRange {
            global,
            local: Some(local),
        }
    }
}

/// A kernel object: name plus declared argument count. Arguments are bound
/// by closure capture at enqueue time (this is Rust), but — like
/// `clSetKernelArg` — every argument index must be marked set before a
/// launch is accepted, reproducing the host-side ceremony the paper counts
/// against OpenCL's complexity (§3.6).
#[derive(Debug)]
pub struct Kernel {
    name: &'static str,
    num_args: usize,
    args_set: RefCell<HashSet<usize>>,
}

impl Kernel {
    /// `clCreateKernel`: declare a kernel with `num_args` arguments.
    pub fn create(name: &'static str, num_args: usize) -> Self {
        Kernel {
            name,
            num_args,
            args_set: RefCell::new(HashSet::new()),
        }
    }

    /// Kernel name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `clSetKernelArg`.
    ///
    /// # Panics
    /// Panics if `index` is out of range for the declared argument count.
    pub fn set_arg(&self, index: usize) {
        assert!(
            index < self.num_args,
            "kernel '{}' has {} args",
            self.name,
            self.num_args
        );
        self.args_set.borrow_mut().insert(index);
    }

    /// Mark every argument set in one call (for kernels whose bindings
    /// never change between launches).
    pub fn set_all_args(&self) {
        for i in 0..self.num_args {
            self.set_arg(i);
        }
    }

    fn assert_ready(&self) {
        let set = self.args_set.borrow();
        for i in 0..self.num_args {
            assert!(
                set.contains(&i),
                "kernel '{}': argument {} not set",
                self.name,
                i
            );
        }
    }
}

/// Completion record for one enqueued command (`cl_event` with
/// `CL_QUEUE_PROFILING_ENABLE`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated queue timestamp when the command started.
    pub start: f64,
    /// Simulated duration of the command.
    pub duration: f64,
}

impl Event {
    /// Simulated end timestamp.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// An in-order command queue bound to one device.
pub struct CommandQueue<'a> {
    sim: &'a SimContext,
    exec: &'a dyn Executor,
}

impl<'a> CommandQueue<'a> {
    /// `clCreateCommandQueue`.
    pub fn new(_context: &Context, sim: &'a SimContext, exec: &'a dyn Executor) -> Self {
        CommandQueue { sim, exec }
    }

    /// The simulated-device context this queue charges.
    pub fn sim(&self) -> &SimContext {
        self.sim
    }

    /// `clEnqueueWriteBuffer` (blocking): host → device.
    pub fn enqueue_write_buffer(&self, buf: &mut Buffer<f64>, src: &[f64]) -> Event {
        assert_eq!(buf.len(), src.len(), "write size must match buffer");
        let start = self.sim.clock.seconds();
        buf.device_data_mut().copy_from_slice(src);
        let duration = self.sim.transfer(buf.bytes());
        Event { start, duration }
    }

    /// `clEnqueueReadBuffer` (blocking): device → host.
    pub fn enqueue_read_buffer(&self, buf: &Buffer<f64>, dst: &mut [f64]) -> Event {
        assert_eq!(buf.len(), dst.len(), "read size must match buffer");
        let start = self.sim.clock.seconds();
        dst.copy_from_slice(buf.device_data());
        let duration = self.sim.transfer(buf.bytes());
        Event { start, duration }
    }

    /// `clEnqueueNDRangeKernel`: launch `kernel` over `range`, executing
    /// `f(global_id)` for every work item. A thin wrapper over
    /// [`CommandQueue::enqueue_work_groups`].
    ///
    /// # Panics
    /// Panics if any declared argument is unset, or if an explicit local
    /// size does not divide the global size (OpenCL 1.x rule).
    pub fn enqueue_nd_range<F: Fn(usize) + Sync + ?Sized>(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
        range: NdRange,
        f: &F,
    ) -> Event {
        self.enqueue_work_groups(kernel, profile, range, &|ids| ids.for_each(f))
    }

    /// `clEnqueueNDRangeKernel` one work-group at a time: `group(ids)`
    /// receives the global ids of each work-group (the explicit local
    /// size, or `DEFAULT_WORK_GROUP` items; the last group stops at the
    /// global size). Each work-group is one executor item; charges
    /// exactly what [`CommandQueue::enqueue_nd_range`] charges.
    ///
    /// # Panics
    /// As [`CommandQueue::enqueue_nd_range`].
    pub fn enqueue_work_groups<F: Fn(Range<usize>) + Sync + ?Sized>(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
        range: NdRange,
        group: &F,
    ) -> Event {
        kernel.assert_ready();
        if let Some(local) = range.local {
            assert!(
                local > 0 && range.global.is_multiple_of(local),
                "global size must be a multiple of local size"
            );
        }
        let start = self.sim.clock.seconds();
        let duration = self.sim.launch(profile);
        let (global, size) = (range.global, range.local.unwrap_or(DEFAULT_WORK_GROUP));
        self.exec.run(global.div_ceil(size), &|g| {
            group(g * size..((g + 1) * size).min(global))
        });
        Event { start, duration }
    }

    /// The manually-written two-pass reduction of §3.6: pass 1 computes
    /// one partial per work-group (`f(group_id)`), pass 2 reduces the
    /// partials. Charges **two** kernel launches. Partials join in group
    /// order, so the value is deterministic.
    ///
    /// A thin per-group wrapper over [`CommandQueue::enqueue_reduce_blocks`].
    pub fn enqueue_reduce(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
        n_groups: usize,
        f: &(dyn Fn(usize) -> f64 + Sync),
    ) -> (f64, Event) {
        self.enqueue_reduce_blocks(kernel, profile, n_groups, &|groups, out| {
            for (o, g) in out.iter_mut().zip(groups) {
                *o = f(g);
            }
        })
    }

    /// [`CommandQueue::enqueue_reduce`] with pass 1 run one block of
    /// work-groups at a time ([`parpool::Executor::run_sum_blocks`]):
    /// `f(groups, out)` writes the partials of work-groups `groups` into
    /// `out`. The partials join in group order from `+0.0`; charges
    /// exactly what [`CommandQueue::enqueue_reduce`] charges.
    pub fn enqueue_reduce_blocks(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
        n_groups: usize,
        f: &(dyn Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> (f64, Event) {
        kernel.assert_ready();
        let start = self.sim.clock.seconds();
        let d1 = self.sim.launch(profile);
        let value = self.exec.run_sum_blocks(n_groups, f);
        // final pass over the work-group partials
        let final_profile = KernelProfile::new(
            "reduce_final_pass",
            n_groups as u64,
            1,
            0,
            1,
            KernelTraits {
                streaming: true,
                reduction: true,
                ..KernelTraits::default()
            },
        );
        let d2 = self.sim.launch(&final_profile);
        (
            value,
            Event {
                start,
                duration: d1 + d2,
            },
        )
    }

    /// The OpenCL 2.0 built-in work-group reduction
    /// (`work_group_reduce_add`) — the feature the paper expected to "offer
    /// an important improvement for performance portability" (§3.6):
    /// vendor-implemented, single-pass, no hand-written tree. One launch
    /// instead of two, and the kernel keeps its plain (non-reduction-
    /// penalised) bandwidth profile because the vendor tree is tuned.
    ///
    /// Requires an OpenCL 2.0 device (the simulated platform reports 1.2,
    /// so callers opt in explicitly — as real ports gate on
    /// `CL_DEVICE_OPENCL_C_VERSION`).
    pub fn enqueue_builtin_reduce(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
        n_groups: usize,
        f: &(dyn Fn(usize) -> f64 + Sync),
    ) -> (f64, Event) {
        kernel.assert_ready();
        let start = self.sim.clock.seconds();
        let duration = self.sim.launch(profile);
        let value = self.exec.run_sum(n_groups, f);
        (value, Event { start, duration })
    }

    /// `clFinish`: the queue is in-order and blocking, so this is a no-op
    /// kept for API fidelity.
    pub fn finish(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Context, Platform};
    use parpool::SerialExec;
    use simdev::{devices, ModelProfile};

    fn setup() -> (Context, SimContext) {
        let cl_ctx = Context::new(
            Platform::list()[0]
                .devices(&[devices::gpu_k20x()])
                .remove(0),
        );
        let sim = SimContext::new(
            devices::gpu_k20x(),
            ModelProfile::ideal("OpenCL"),
            vec![],
            1,
        );
        (cl_ctx, sim)
    }

    #[test]
    fn write_read_roundtrip_charges_transfers() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let mut buf = Buffer::new(&cl, 8);
        let src: Vec<f64> = (0..8).map(|x| x as f64).collect();
        q.enqueue_write_buffer(&mut buf, &src);
        let mut dst = vec![0.0; 8];
        q.enqueue_read_buffer(&buf, &mut dst);
        assert_eq!(dst, src);
        let snap = sim.clock.snapshot();
        assert_eq!(snap.transfers, 2);
        assert_eq!(snap.transfer_bytes, 128);
    }

    #[test]
    fn nd_range_requires_args() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("cg_calc_w", 3);
        k.set_arg(0);
        k.set_arg(1);
        let p = KernelProfile::streaming("cg_calc_w", 8, 1, 1, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.enqueue_nd_range(&k, &p, NdRange::d1(8), &|_| {});
        }));
        assert!(result.is_err(), "launch with unset arg must fail");
        k.set_arg(2);
        q.enqueue_nd_range(&k, &p, NdRange::d1(8), &|_| {});
    }

    #[test]
    fn local_size_must_divide_global() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("k", 0);
        let p = KernelProfile::streaming("k", 10, 1, 1, 1);
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.enqueue_nd_range(&k, &p, NdRange::d1_local(10, 3), &|_| {});
        }));
        assert!(bad.is_err());
        q.enqueue_nd_range(&k, &p, NdRange::d1_local(10, 5), &|_| {});
    }

    #[test]
    fn work_groups_partition_the_range_in_order() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("k", 0);
        let p = KernelProfile::streaming("k", 640, 1, 1, 1);
        let groups = std::sync::Mutex::new(Vec::new());
        q.enqueue_work_groups(&k, &p, NdRange::d1_local(640, 128), &|ids| {
            groups.lock().unwrap().push(ids)
        });
        let want: Vec<_> = (0..5).map(|g| g * 128..(g + 1) * 128).collect();
        assert_eq!(groups.into_inner().unwrap(), want);
        // implementation-chosen groups stop at the global size
        let groups = std::sync::Mutex::new(Vec::new());
        q.enqueue_work_groups(&k, &p, NdRange::d1(300), &|ids| {
            groups.lock().unwrap().push(ids)
        });
        assert_eq!(groups.into_inner().unwrap(), vec![0..256, 256..300]);
        assert_eq!(sim.clock.snapshot().kernels, 2);
    }

    #[test]
    fn two_pass_reduction_charges_two_launches() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("dot", 0);
        let p = KernelProfile::reduction("dot", 1000, 2, 2);
        let (value, event) = q.enqueue_reduce(&k, &p, 100, &|g| g as f64);
        assert_eq!(value, 4950.0);
        assert_eq!(sim.clock.snapshot().kernels, 2);
        assert!(event.duration > 0.0);
        assert!(event.end() > event.start);
    }

    #[test]
    fn builtin_reduce_single_launch_same_value() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("dot", 0);
        let p = KernelProfile::reduction("dot", 1000, 2, 2);
        let (manual, _) = q.enqueue_reduce(&k, &p, 100, &|g| g as f64);
        let kernels_after_manual = sim.clock.snapshot().kernels;
        let (builtin, _) = q.enqueue_builtin_reduce(&k, &p, 100, &|g| g as f64);
        let kernels_after_builtin = sim.clock.snapshot().kernels - kernels_after_manual;
        assert_eq!(manual, builtin, "same deterministic value");
        assert_eq!(kernels_after_manual, 2, "manual reduction is two-pass");
        assert_eq!(kernels_after_builtin, 1, "built-in reduction is one launch");
    }

    #[test]
    fn events_carry_queue_timeline() {
        let (cl, sim) = setup();
        let q = CommandQueue::new(&cl, &sim, &SerialExec);
        let k = Kernel::create("k", 0);
        let p = KernelProfile::streaming("k", 1 << 20, 2, 1, 1);
        let e1 = q.enqueue_nd_range(&k, &p, NdRange::d1(4), &|_| {});
        let e2 = q.enqueue_nd_range(&k, &p, NdRange::d1(4), &|_| {});
        assert!(e2.start >= e1.end() - 1e-15, "in-order queue timeline");
        q.finish();
    }
}
