//! The OpenCL port.
//!
//! Following §2.5/§3.6: full host boilerplate (platform query, context,
//! command queue, buffer allocation, kernel creation with declared
//! argument counts), explicit `enqueue_write/read_buffer` for every
//! host↔device movement, flat NDRange launches with a work-group size and
//! an in-kernel guard, and **manually written two-pass reductions**
//! (`enqueue_reduce`).
//!
//! On the host each work-group of a flat launch is one executor item
//! (`enqueue_work_groups`): its ids reach the shared run bodies as the
//! interior runs [`RunBox::clip`] cuts from them — the in-kernel guard,
//! evaluated once per run instead of once per work item. The simulated
//! clock still charges the padded NDRange launch.
//!
//! On the CPU the kernels execute on the process-wide work-stealing pool
//! — the Intel OpenCL implementation "uniquely doesn't use OpenMP …
//! instead using Intel Thread Building Blocks", whose non-deterministic
//! scheduler is the suspected source of the large run-to-run variance
//! (§4.1); the matching run-level jitter lives in this model's profile.

use std::ops::Range;

use opencl_rs::{Buffer, ClDevice, CommandQueue, Context, Kernel, NdRange, Platform};
use parpool::Executor;
use simdev::{DeviceKind, DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::ir::KernelId;
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Fields, Launch, Run, RunBox};
use crate::problem::Problem;

/// Work-group size for the flat launches.
const WG: usize = 128;

/// Each kernel's OpenCL name and declared argument count.
fn cl_signature(k: KernelId) -> (&'static str, usize) {
    match k {
        KernelId::InitU0 => ("init_u0", 4),
        KernelId::InitCoeffs => ("init_coeffs", 5),
        KernelId::CgInit => ("cg_init", 8),
        KernelId::CgCalcW => ("cg_calc_w", 5),
        KernelId::CgCalcUr => ("cg_calc_ur", 8),
        KernelId::CgCalcP => ("cg_calc_p", 4),
        KernelId::ChebyCalcP => ("cheby_calc_p", 10),
        KernelId::ChebyCalcU => ("cheby_calc_u", 2),
        KernelId::PpcgInitSd => ("ppcg_init_sd", 3),
        KernelId::PpcgCalcW => ("ppcg_calc_w", 4),
        KernelId::PpcgUpdate => ("ppcg_update", 6),
        KernelId::JacobiCopy => ("jacobi_copy_u", 2),
        KernelId::JacobiSolve => ("jacobi_solve", 6),
        KernelId::Residual => ("calc_residual", 5),
        KernelId::Calc2Norm => ("calc_2norm", 2),
        KernelId::Finalise => ("finalise", 3),
        KernelId::FieldSummary => ("field_summary", 5),
        KernelId::HaloUpdate => ("update_halo", 3),
    }
}

/// OpenCL TeaLeaf.
pub struct OpenClPort {
    launch: Queue,
    f: Fields<Buffer<f64>>,
}

/// An in-order command queue per launch, with the kernel objects created
/// once from the "program" at port setup — the boilerplate §3.6 counts
/// against OpenCL.
struct Queue {
    ctx: SimContext,
    cl_context: Context,
    kernels: Vec<(KernelId, Kernel)>,
}

impl Queue {
    /// The Intel CPU runtime schedules with TBB work stealing; device
    /// targets use their own hardware scheduler (static pool stands in).
    fn exec_static_or_steal(&self) -> &'static dyn Executor {
        match self.ctx.cost.device.kind {
            DeviceKind::Cpu => parpool::global_steal(),
            _ => parpool::global_static(),
        }
    }

    fn queue(&self) -> CommandQueue<'_> {
        CommandQueue::new(&self.cl_context, &self.ctx, self.exec_static_or_steal())
    }

    fn kernel(&self, k: KernelId) -> &Kernel {
        let found = self.kernels.iter().find(|(id, _)| *id == k);
        &found.expect("every kernel is created at setup").1
    }
}

impl Launch for Queue {
    /// The padded NDRange, rounded up to the work-group size, one
    /// work-group at a time: each group's ids reach `body` as the runs of
    /// `bx` they hold (`RunBox::clip` trims the overspill).
    fn grid(
        &self,
        k: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        let range = NdRange::d1_local(mesh.len().div_ceil(WG) * WG, WG);
        self.queue()
            .enqueue_work_groups(self.kernel(k), p, range, &|ids| bx.clip(ids, body));
    }

    /// The manually written two-pass reduction, pass 1 over row blocks.
    fn sum_rows(
        &self,
        k: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        let (value, _event) =
            self.queue()
                .enqueue_reduce_blocks(self.kernel(k), p, mesh.y_cells, body);
        value
    }

    /// Four scalars as four sequential two-pass reductions over rows, one
    /// per component, as real OpenCL TeaLeaf does with its packed
    /// reduction buffers.
    fn sum4(
        &self,
        k: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        let mut acc = [0.0; 4];
        for (comp, slot) in acc.iter_mut().enumerate() {
            let row = |jj| {
                let mut row = [0.0; 4];
                body(jj, &mut row);
                row[comp]
            };
            (*slot, _) = self
                .queue()
                .enqueue_reduce(self.kernel(k), p, mesh.y_cells, &row);
        }
        acc
    }

    fn charge(&self, _: KernelId, p: &KernelProfile) {
        self.ctx.launch(p);
    }

    fn exec(&self) -> &dyn Executor {
        self.exec_static_or_steal()
    }
}

impl OpenClPort {
    /// Build the port: enumerate the platform, pick the device, create
    /// the context, queue, buffers and kernels, and write the inputs.
    pub fn new(device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let ctx = common::make_context(ModelId::OpenCl, device.clone(), problem, seed);
        // clGetPlatformIDs / clGetDeviceIDs / clCreateContext
        let platform = Platform::list().remove(0);
        let cl_device: ClDevice = platform
            .devices(&[device])
            .into_iter()
            .next()
            .expect("simulated platform always exposes the requested device");
        let cl_context = Context::new(cl_device);
        // clCreateKernel + clSetKernelArg for every kernel of the program
        let kernels = crate::ir::KERNELS
            .iter()
            .map(|d| {
                let (name, nargs) = cl_signature(d.id);
                let kernel = Kernel::create(name, nargs);
                kernel.set_all_args();
                (d.id, kernel)
            })
            .collect();
        let buf = || Buffer::new(&cl_context, problem.mesh.len());
        let mut f = Fields::with(&problem.mesh, buf(), buf(), |_| buf());
        let launch = Queue {
            ctx,
            cl_context,
            kernels,
        };
        // blocking writes of the generated fields
        let queue = launch.queue();
        queue.enqueue_write_buffer(&mut f.density, problem.density.as_slice());
        queue.enqueue_write_buffer(&mut f.energy, problem.energy.as_slice());
        queue.finish();
        OpenClPort { launch, f }
    }
}

impl TeaLeafPort for OpenClPort {
    fn model(&self) -> ModelId {
        ModelId::OpenCl
    }

    fn context(&self) -> &SimContext {
        &self.launch.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.launch.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        self.f.init_u0(&self.launch);
        self.f.init_coeffs(&self.launch, coefficient, rx, ry);
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // Each field's exchange is still one enqueue of the halo kernel
        // (arg rebind + launch charge per field); the ghost writes run as
        // one batched dispatch on the runtime's scheduler.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.launch.kernel(KernelId::HaloUpdate).set_all_args();
            self.launch.ctx.launch(&profile);
        }
        self.f
            .halo_batch(fields, depth, self.launch.exec_static_or_steal());
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        self.f.cg_init(&self.launch, preconditioner)
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.f.cg_calc_w(&self.launch)
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.f.cg_calc_ur(&self.launch, alpha, preconditioner)
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.f.cg_calc_p(&self.launch, beta, preconditioner)
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    /// One enqueue charge covers the two-pass reduction and the β·p update
    /// chained behind it as a zero-overhead tail; per-row partials fold in
    /// row order on the same scheduler `enqueue_reduce` uses, so the
    /// result is bit-identical to the unfused pair.
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.f.cg_fused_ur_p(
            &self.launch,
            self.lowering_caps(),
            alpha,
            rro,
            preconditioner,
        )
    }

    /// `u += p` rides the p-stencil's enqueue as a fused tail.
    fn cheby_init(&mut self, theta: f64) {
        self.f
            .cheby_step(&self.launch, self.lowering_caps(), true, theta, 0.0, 0.0);
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.f
            .cheby_step(&self.launch, self.lowering_caps(), false, 0.0, alpha, beta);
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.f.ppcg_init_sd(&self.launch, theta)
    }

    /// The u/r/sd update is chained behind the w-stencil's enqueue as a
    /// zero-overhead tail (one clEnqueueNDRangeKernel, fused body).
    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.f
            .ppcg_inner(&self.launch, self.lowering_caps(), alpha, beta)
    }

    fn jacobi_iterate(&mut self) -> f64 {
        self.f.jacobi_copy(&self.launch);
        self.f.jacobi_solve(&self.launch)
    }

    fn residual(&mut self) {
        self.f.residual(&self.launch)
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.f.calc_2norm(&self.launch, field)
    }

    fn finalise(&mut self) {
        self.f.finalise(&self.launch)
    }

    fn field_summary(&mut self) -> Summary {
        self.f.field_summary(&self.launch)
    }

    fn read_u(&mut self) -> Vec<f64> {
        let mut out = vec![0.0; self.f.mesh.len()];
        self.launch.queue().enqueue_read_buffer(&self.f.u, &mut out);
        out
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        Some(self.f.field(id).to_vec())
    }

    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        self.f.copy_into(id, out)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.f.field_mut(id)[k] = value;
    }
}
