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

use opencl_rs::{Buffer, ClDevice, CommandQueue, Context, Kernel, NdRange, Platform};
use parpool::Executor;
use simdev::{DeviceKind, DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::{update_halo_batch, FieldId};
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Pass, Run, RunBox, Us};
use crate::problem::Problem;

/// Work-group size for the flat launches.
const WG: usize = 128;

/// The kernel objects, created once from the "program" at port setup —
/// the boilerplate §3.6 counts against OpenCL.
struct ClKernels {
    init_u0: Kernel,
    init_coeffs: Kernel,
    cg_init: Kernel,
    cg_calc_w: Kernel,
    cg_calc_ur: Kernel,
    cg_calc_p: Kernel,
    cheby_calc_p: Kernel,
    cheby_calc_u: Kernel,
    ppcg_init_sd: Kernel,
    ppcg_calc_w: Kernel,
    ppcg_update: Kernel,
    jacobi_copy: Kernel,
    jacobi_solve: Kernel,
    residual: Kernel,
    norm: Kernel,
    finalise: Kernel,
    summary: Kernel,
    halo: Kernel,
}

impl ClKernels {
    fn create() -> Self {
        let mk = |name: &'static str, nargs: usize| {
            let k = Kernel::create(name, nargs);
            k.set_all_args();
            k
        };
        ClKernels {
            init_u0: mk("init_u0", 4),
            init_coeffs: mk("init_coeffs", 5),
            cg_init: mk("cg_init", 8),
            cg_calc_w: mk("cg_calc_w", 5),
            cg_calc_ur: mk("cg_calc_ur", 8),
            cg_calc_p: mk("cg_calc_p", 4),
            cheby_calc_p: mk("cheby_calc_p", 10),
            cheby_calc_u: mk("cheby_calc_u", 2),
            ppcg_init_sd: mk("ppcg_init_sd", 3),
            ppcg_calc_w: mk("ppcg_calc_w", 4),
            ppcg_update: mk("ppcg_update", 6),
            jacobi_copy: mk("jacobi_copy_u", 2),
            jacobi_solve: mk("jacobi_solve", 6),
            residual: mk("calc_residual", 5),
            norm: mk("calc_2norm", 2),
            finalise: mk("finalise", 3),
            summary: mk("field_summary", 5),
            halo: mk("update_halo", 3),
        }
    }
}

/// OpenCL TeaLeaf.
pub struct OpenClPort {
    ctx: SimContext,
    cl_context: Context,
    mesh: Mesh2d,
    kernels: ClKernels,
    density: Buffer<f64>,
    energy: Buffer<f64>,
    u: Buffer<f64>,
    u0: Buffer<f64>,
    p: Buffer<f64>,
    r: Buffer<f64>,
    w: Buffer<f64>,
    z: Buffer<f64>,
    kx: Buffer<f64>,
    ky: Buffer<f64>,
    sd: Buffer<f64>,
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
        let mesh = problem.mesh.clone();
        let len = mesh.len();
        let mut port = OpenClPort {
            ctx,
            mesh,
            kernels: ClKernels::create(),
            density: Buffer::new(&cl_context, len),
            energy: Buffer::new(&cl_context, len),
            u: Buffer::new(&cl_context, len),
            u0: Buffer::new(&cl_context, len),
            p: Buffer::new(&cl_context, len),
            r: Buffer::new(&cl_context, len),
            w: Buffer::new(&cl_context, len),
            z: Buffer::new(&cl_context, len),
            kx: Buffer::new(&cl_context, len),
            ky: Buffer::new(&cl_context, len),
            sd: Buffer::new(&cl_context, len),
            cl_context,
        };
        // blocking writes of the generated fields
        let exec = port.exec_static_or_steal();
        let queue = CommandQueue::new(&port.cl_context, &port.ctx, exec);
        queue.enqueue_write_buffer(&mut port.density, problem.density.as_slice());
        queue.enqueue_write_buffer(&mut port.energy, problem.energy.as_slice());
        queue.finish();
        port
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.mesh)
    }

    /// Borrow the mesh alongside the device storage of each listed
    /// field, for the batched halo update. Panics if a buffer is listed
    /// twice.
    fn halo_buffers(&mut self, ids: &[FieldId]) -> (&Mesh2d, Vec<&mut [f64]>) {
        let OpenClPort {
            mesh,
            density,
            energy,
            u,
            u0,
            p,
            r,
            w,
            z,
            kx,
            ky,
            sd,
            ..
        } = self;
        let mut slots = [
            Some(density),
            Some(energy),
            Some(u),
            Some(u0),
            Some(p),
            Some(r),
            Some(w),
            Some(z),
            Some(kx),
            Some(ky),
            Some(sd),
        ];
        let bufs = ids
            .iter()
            .map(|&id| {
                let slot = match id {
                    FieldId::Density => 0,
                    FieldId::Energy0 | FieldId::Energy1 => 1,
                    FieldId::U => 2,
                    FieldId::U0 => 3,
                    FieldId::P => 4,
                    FieldId::R => 5,
                    FieldId::W => 6,
                    FieldId::Z | FieldId::Mi => 7,
                    FieldId::Kx => 8,
                    FieldId::Ky => 9,
                    FieldId::Sd => 10,
                };
                slots[slot]
                    .take()
                    .unwrap_or_else(|| panic!("{} batched twice in one halo update", id.name()))
                    .arg_view_mut()
            })
            .collect();
        (&*mesh, bufs)
    }
}

/// Flat NDRange covering the padded grid, rounded up to the work-group
/// size; `RunBox::clip` trims the overspill.
fn nd_range(mesh: &Mesh2d) -> NdRange {
    NdRange::d1_local(mesh.len().div_ceil(WG) * WG, WG)
}

/// Enqueue a grid kernel over the padded NDRange, one work-group at a
/// time: each group's ids reach `body` as the interior runs they hold.
fn enqueue_runs(
    queue: &CommandQueue<'_>,
    kernel: &Kernel,
    profile: &KernelProfile,
    mesh: &Mesh2d,
    body: &(impl Fn(Run) + Sync),
) {
    let cover = RunBox::interior(mesh);
    queue.enqueue_work_groups(kernel, profile, nd_range(mesh), &|ids| {
        cover.clip(ids, body)
    });
}

impl TeaLeafPort for OpenClPort {
    fn model(&self) -> ModelId {
        ModelId::OpenCl
    }

    fn context(&self) -> &SimContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let n = self.n();
        {
            let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
            let (density, energy) = (self.density.arg_view(), self.energy.arg_view());
            let u0 = Us::new(self.u0.arg_view_mut());
            let u = Us::new(self.u.arg_view_mut());
            // SAFETY: work-groups own disjoint runs.
            enqueue_runs(
                &queue,
                &self.kernels.init_u0,
                &profiles::init_u0(n),
                mesh,
                &|run| unsafe { common::run_init_u0(run, density, energy, &u0, &u) },
            );
        }
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        let density = self.density.arg_view();
        let kx = Us::new(self.kx.arg_view_mut());
        let ky = Us::new(self.ky.arg_view_mut());
        let cover = RunBox::coeffs(mesh);
        let (kernel, profile) = (&self.kernels.init_coeffs, profiles::init_coeffs(n));
        queue.enqueue_work_groups(kernel, &profile, nd_range(mesh), &|ids| {
            cover.clip(ids, |run| {
                // SAFETY: work-groups own disjoint runs.
                unsafe { common::run_init_coeffs(run, coefficient, rx, ry, density, &kx, &ky) }
            })
        });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // Each field's exchange is still one enqueue of the halo kernel
        // (arg rebind + launch charge per field); the ghost writes run as
        // one batched dispatch on the runtime's scheduler.
        let profile = profiles::halo(&self.mesh, depth);
        for _ in fields {
            self.kernels.halo.set_all_args();
            self.ctx.launch(&profile);
        }
        let exec = self.exec_static_or_steal();
        let (mesh, mut bufs) = self.halo_buffers(fields);
        update_halo_batch(mesh, &mut bufs, depth, exec);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::cg_init(self.n(), preconditioner);
        let (u, u0, kx, ky) = (
            self.u.arg_view(),
            self.u0.arg_view(),
            self.kx.arg_view(),
            self.ky.arg_view(),
        );
        let w = Us::new(self.w.arg_view_mut());
        let r = Us::new(self.r.arg_view_mut());
        let p = Us::new(self.p.arg_view_mut());
        let z = Us::new(self.z.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        let kernel = &self.kernels.cg_init;
        // SAFETY: row blocks disjoint.
        let (value, _e) =
            queue.enqueue_reduce_blocks(kernel, &profile, mesh.y_cells, &|jj, out| unsafe {
                common::block_cg_init(
                    mesh,
                    jj,
                    Pass::Reduce(out),
                    preconditioner,
                    u,
                    u0,
                    kx,
                    ky,
                    &w,
                    &r,
                    &p,
                    &z,
                )
            });
        value
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::cg_calc_w(self.n());
        let (p, kx, ky) = (self.p.arg_view(), self.kx.arg_view(), self.ky.arg_view());
        let w = Us::new(self.w.arg_view_mut());
        let kernel = &self.kernels.cg_calc_w;
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: row blocks disjoint.
        let (value, _e) =
            queue.enqueue_reduce_blocks(kernel, &profile, mesh.y_cells, &|jj, out| unsafe {
                common::block_cg_calc_w(mesh, jj, Pass::Reduce(out), p, kx, ky, &w)
            });
        value
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::cg_calc_ur(self.n(), preconditioner);
        let (p, w, kx, ky) = (
            self.p.arg_view(),
            self.w.arg_view(),
            self.kx.arg_view(),
            self.ky.arg_view(),
        );
        let u = Us::new(self.u.arg_view_mut());
        let r = Us::new(self.r.arg_view_mut());
        let z = Us::new(self.z.arg_view_mut());
        let kernel = &self.kernels.cg_calc_ur;
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: row blocks disjoint.
        let (value, _e) =
            queue.enqueue_reduce_blocks(kernel, &profile, mesh.y_cells, &|jj, out| unsafe {
                common::block_cg_calc_ur(
                    mesh,
                    jj,
                    Pass::Reduce(out),
                    alpha,
                    preconditioner,
                    p,
                    w,
                    kx,
                    ky,
                    &u,
                    &r,
                    &z,
                )
            });
        value
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::cg_calc_p(self.n());
        let (r, z) = (self.r.arg_view(), self.z.arg_view());
        let p = Us::new(self.p.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.cg_calc_p,
            &profile,
            mesh,
            &|run| unsafe { common::run_cg_calc_p(run, beta, preconditioner, r, z, &p) },
        );
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let i0 = mesh.i0();
        // One enqueue charge covers the two-pass reduction and the β·p
        // update chained behind it as a zero-overhead tail; per-row
        // partials fold in row order on the same scheduler
        // `enqueue_reduce` uses, so the result is bit-identical to the
        // unfused pair.
        let (p_ur, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::CgTail,
            self.n(),
            preconditioner,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_ur);
        self.ctx.launch(&p_tail);
        let rrn = {
            let (p, w, kx, ky) = (
                self.p.arg_view(),
                self.w.arg_view(),
                self.kx.arg_view(),
                self.ky.arg_view(),
            );
            let u = Us::new(self.u.arg_view_mut());
            let r = Us::new(self.r.arg_view_mut());
            let z = Us::new(self.z.arg_view_mut());
            // SAFETY: row blocks disjoint.
            exec.run_sum_blocks(mesh.y_cells, &|jj, out| unsafe {
                common::block_cg_calc_ur(
                    mesh,
                    jj,
                    Pass::Reduce(out),
                    alpha,
                    preconditioner,
                    p,
                    w,
                    kx,
                    ky,
                    &u,
                    &r,
                    &z,
                )
            })
        };
        let beta = rrn / rro;
        let (r, z) = (self.r.arg_view(), self.z.arg_view());
        let p = Us::new(self.p.arg_view_mut());
        // SAFETY: rows disjoint.
        exec.run(mesh.y_cells, &|jj| unsafe {
            common::row_cg_calc_p(mesh, i0 + jj, beta, preconditioner, r, z, &p)
        });
        (rrn, beta)
    }

    fn cheby_init(&mut self, theta: f64) {
        self.cheby_step(true, theta, 0.0, 0.0);
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.cheby_step(false, 0.0, alpha, beta);
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::ppcg_init_sd(self.n());
        let r = self.r.arg_view();
        let sd = Us::new(self.sd.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.ppcg_init_sd,
            &profile,
            mesh,
            &|run| unsafe { common::run_sd_init(run, theta, r, &sd) },
        );
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        // The u/r/sd update is chained behind the w-stencil's enqueue as
        // a zero-overhead tail (one clEnqueueNDRangeKernel, fused body).
        let (p_head, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        {
            let profile = p_head;
            let (sd, kx, ky) = (self.sd.arg_view(), self.kx.arg_view(), self.ky.arg_view());
            let w = Us::new(self.w.arg_view_mut());
            let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
            // SAFETY: work-groups own disjoint runs.
            enqueue_runs(
                &queue,
                &self.kernels.ppcg_calc_w,
                &profile,
                mesh,
                &|run| unsafe { common::run_ppcg_w(run, sd, kx, ky, &w) },
            );
        }
        let profile = p_tail;
        let w = self.w.arg_view();
        let u = Us::new(self.u.arg_view_mut());
        let r = Us::new(self.r.arg_view_mut());
        let sd = Us::new(self.sd.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.ppcg_update,
            &profile,
            mesh,
            &|run| unsafe { common::run_ppcg_update(run, alpha, beta, w, &u, &r, &sd) },
        );
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        {
            let profile = profiles::jacobi_copy(self.n());
            let u = self.u.arg_view();
            let r = Us::new(self.r.arg_view_mut());
            let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
            // SAFETY: work-groups own disjoint runs.
            enqueue_runs(
                &queue,
                &self.kernels.jacobi_copy,
                &profile,
                mesh,
                &|run| unsafe { common::run_jacobi_copy(run, u, &r) },
            );
        }
        let profile = profiles::jacobi_iterate(self.n());
        let (u0, r, kx, ky) = (
            self.u0.arg_view(),
            self.r.arg_view(),
            self.kx.arg_view(),
            self.ky.arg_view(),
        );
        let u = Us::new(self.u.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        let kernel = &self.kernels.jacobi_solve;
        // SAFETY: row blocks disjoint.
        let (value, _e) =
            queue.enqueue_reduce_blocks(kernel, &profile, mesh.y_cells, &|jj, out| unsafe {
                common::block_jacobi_iterate(mesh, jj, Pass::Reduce(out), u0, r, kx, ky, &u)
            });
        value
    }

    fn residual(&mut self) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::residual(self.n());
        let (u, u0, kx, ky) = (
            self.u.arg_view(),
            self.u0.arg_view(),
            self.kx.arg_view(),
            self.ky.arg_view(),
        );
        let r = Us::new(self.r.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.residual,
            &profile,
            mesh,
            &|run| unsafe { common::run_residual(run, u, u0, kx, ky, &r) },
        );
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::norm(self.n());
        let x = match field {
            NormField::U0 => self.u0.arg_view(),
            NormField::R => self.r.arg_view(),
        };
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        let (value, _e) =
            queue.enqueue_reduce_blocks(&self.kernels.norm, &profile, mesh.y_cells, &|jj, out| {
                common::block_norm(mesh, jj, Pass::Reduce(out), x)
            });
        value
    }

    fn finalise(&mut self) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::finalise(self.n());
        let (u, density) = (self.u.arg_view(), self.density.arg_view());
        let energy = Us::new(self.energy.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.finalise,
            &profile,
            mesh,
            &|run| unsafe { common::run_finalise(run, u, density, &energy) },
        );
    }

    fn field_summary(&mut self) -> Summary {
        // Four scalars from one pass: the port runs the two-pass reduction
        // once per component pair as real OpenCL TeaLeaf does with its
        // packed reduction buffers; here the packed form.
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        let profile = profiles::field_summary(self.n());
        let i0 = mesh.i0();
        let vol = mesh.cell_volume();
        let (density, energy, u) = (
            self.density.arg_view(),
            self.energy.arg_view(),
            self.u.arg_view(),
        );
        // pack the 4 components into sequential reduce passes over rows
        let mut acc = [0.0; 4];
        for (comp, slot) in acc.iter_mut().enumerate() {
            let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
            let (value, _e) =
                queue.enqueue_reduce(&self.kernels.summary, &profile, mesh.y_cells, &|jj| {
                    common::row_summary(mesh, i0 + jj, density, energy, u, vol)[comp]
                });
            *slot = value;
        }
        Summary {
            volume: acc[0],
            mass: acc[1],
            internal_energy: acc[2],
            temperature: acc[3],
        }
    }

    fn read_u(&mut self) -> Vec<f64> {
        let exec = self.exec_static_or_steal();
        let mut out = vec![0.0; self.mesh.len()];
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        queue.enqueue_read_buffer(&self.u, &mut out);
        out
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        Some(self.buf_for(id).arg_view().to_vec())
    }

    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        out.clear();
        out.extend_from_slice(self.buf_for(id).arg_view());
        true
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.buf_for_mut(id).arg_view_mut()[k] = value;
    }
}

impl OpenClPort {
    /// Resolve a field id to its device buffer — conformance hooks only;
    /// aliases resolve as in the batched halo path.
    fn buf_for(&self, id: FieldId) -> &Buffer<f64> {
        match id {
            FieldId::Density => &self.density,
            FieldId::Energy0 | FieldId::Energy1 => &self.energy,
            FieldId::U => &self.u,
            FieldId::U0 => &self.u0,
            FieldId::P => &self.p,
            FieldId::R => &self.r,
            FieldId::W => &self.w,
            FieldId::Z | FieldId::Mi => &self.z,
            FieldId::Kx => &self.kx,
            FieldId::Ky => &self.ky,
            FieldId::Sd => &self.sd,
        }
    }

    fn buf_for_mut(&mut self, id: FieldId) -> &mut Buffer<f64> {
        match id {
            FieldId::Density => &mut self.density,
            FieldId::Energy0 | FieldId::Energy1 => &mut self.energy,
            FieldId::U => &mut self.u,
            FieldId::U0 => &mut self.u0,
            FieldId::P => &mut self.p,
            FieldId::R => &mut self.r,
            FieldId::W => &mut self.w,
            FieldId::Z | FieldId::Mi => &mut self.z,
            FieldId::Kx => &mut self.kx,
            FieldId::Ky => &mut self.ky,
            FieldId::Sd => &mut self.sd,
        }
    }

    /// The Intel CPU runtime schedules with TBB work stealing; device
    /// targets use their own hardware scheduler (static pool stands in).
    fn exec_static_or_steal(&self) -> &'static dyn Executor {
        match self.ctx.cost.device.kind {
            DeviceKind::Cpu => parpool::global_steal(),
            _ => parpool::global_static(),
        }
    }

    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.mesh;
        let exec = self.exec_static_or_steal();
        // `u += p` rides the p-stencil's enqueue as a fused tail.
        let (p_head, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        {
            let profile = p_head;
            let (u, u0, kx, ky) = (
                self.u.arg_view(),
                self.u0.arg_view(),
                self.kx.arg_view(),
                self.ky.arg_view(),
            );
            let w = Us::new(self.w.arg_view_mut());
            let r = Us::new(self.r.arg_view_mut());
            let p = Us::new(self.p.arg_view_mut());
            let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
            // SAFETY: work-groups own disjoint runs.
            enqueue_runs(
                &queue,
                &self.kernels.cheby_calc_p,
                &profile,
                mesh,
                &|run| unsafe {
                    common::run_cheby_calc_p(
                        run, first, theta, alpha, beta, u, u0, kx, ky, &w, &r, &p,
                    )
                },
            );
        }
        let profile = p_tail;
        let p = self.p.arg_view();
        let u = Us::new(self.u.arg_view_mut());
        let queue = CommandQueue::new(&self.cl_context, &self.ctx, exec);
        // SAFETY: work-groups own disjoint runs.
        enqueue_runs(
            &queue,
            &self.kernels.cheby_calc_u,
            &profile,
            mesh,
            &|run| unsafe { common::run_add_p_to_u(run, p, &u) },
        );
    }
}
