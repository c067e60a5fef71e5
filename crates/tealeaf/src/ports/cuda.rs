//! The CUDA port — the device-tuned GPU baseline.
//!
//! Following §2.6/§3.5: every loop becomes a kernel over a 1-D grid of
//! 1-D thread blocks ("assuming a 1D grid of 1D blocks of threads, you
//! also need to calculate a block size and corresponding number of
//! blocks, as well as checking for iteration overspill from within the
//! kernels"); data moves with explicit `cudaMemcpy` calls; reductions are
//! the custom two-pass block scheme ("it was necessary to create a custom
//! GPU-specific reduction, including reduction code inside all of the
//! individual reduction-based kernels").
//!
//! On the host each block of a grid kernel is one executor item
//! ([`launch_blocks`]): its thread range, overspill included, reaches the
//! shared run bodies as the interior runs [`RunBox::clip`] cuts from it —
//! the in-kernel guard, evaluated once per run instead of once per thread.
//! The simulated clock still charges the padded grid launch.

use cuda_rs::buffer::{memcpy_dtoh, memcpy_htod};
use cuda_rs::{launch_blocks, launch_reduce_blocks, CudaStream, DeviceBuffer, LaunchConfig};
use parpool::{Executor, StaticPool};
use simdev::{DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Fields, Pass, Run, RunBox, Us};
use crate::problem::Problem;

/// Threads per block, as a typical K20X-tuned TeaLeaf port would pick.
const BLOCK: usize = 256;

/// CUDA TeaLeaf.
pub struct CudaPort {
    ctx: SimContext,
    f: Fields<DeviceBuffer<f64>>,
}

/// Launch a grid kernel over the padded flat range, one block at a time:
/// each block's thread range, overspill included, reaches `body` as the
/// runs of `cover` it holds.
fn launch_runs(
    ctx: &SimContext,
    mesh: &Mesh2d,
    cover: RunBox,
    profile: &KernelProfile,
    body: &(impl Fn(Run) + Sync),
) {
    let stream = CudaStream::new(ctx, parpool::global_static());
    let cfg = LaunchConfig::for_n(mesh.len(), BLOCK);
    launch_blocks(&stream, cfg, profile, &|tids| cover.clip(tids, body));
}

impl CudaPort {
    /// Build the port: `cudaMalloc` all fields and `memcpy` the inputs.
    pub fn new(device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let ctx = common::make_context(ModelId::Cuda, device, problem, seed);
        let alloc = || DeviceBuffer::alloc(problem.mesh.len());
        let mut f = Fields::with(&problem.mesh, alloc(), alloc(), |_| alloc());
        memcpy_htod(&ctx, &mut f.density, problem.density.as_slice());
        memcpy_htod(&ctx, &mut f.energy, problem.energy.as_slice());
        CudaPort { ctx, f }
    }

    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.f.mesh)
    }

    /// Row-block decomposition for the custom reductions: one block per
    /// interior row, partials combined in block order.
    fn reduce_cfg(&self) -> LaunchConfig {
        LaunchConfig {
            grid: self.f.mesh.y_cells,
            block: self.f.mesh.x_cells,
        }
    }
}

impl TeaLeafPort for CudaPort {
    fn model(&self) -> ModelId {
        ModelId::Cuda
    }

    fn context(&self) -> &SimContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        let n = self.n();
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        {
            let (density, energy) = (self.f.density.device(), self.f.energy.device());
            let u0 = Us::new(self.f.u0.device_mut());
            let u = Us::new(self.f.u.device_mut());
            let cover = RunBox::interior(mesh);
            // SAFETY: blocks own disjoint runs.
            launch_runs(ctx, mesh, cover, &profiles::init_u0(n), &|run| unsafe {
                common::run_init_u0(run, density, energy, &u0, &u)
            });
        }
        let density = self.f.density.device();
        let kx = Us::new(self.f.kx.device_mut());
        let ky = Us::new(self.f.ky.device_mut());
        let cover = RunBox::coeffs(mesh);
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, cover, &profiles::init_coeffs(n), &|run| unsafe {
            common::run_init_coeffs(run, coefficient, rx, ry, density, &kx, &ky)
        });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // One kernel launch charge per field (unchanged), ghost writes
        // batched into a single two-phase device-wide dispatch.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        let pool = self.pool();
        self.f.halo_batch(fields, depth, pool);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let profile = profiles::cg_init(self.n(), preconditioner);
        let stream = CudaStream::new(&self.ctx, parpool::global_static());
        let (u, u0, kx, ky) = (
            self.f.u.device(),
            self.f.u0.device(),
            self.f.kx.device(),
            self.f.ky.device(),
        );
        let w = Us::new(self.f.w.device_mut());
        let r = Us::new(self.f.r.device_mut());
        let p = Us::new(self.f.p.device_mut());
        let z = Us::new(self.f.z.device_mut());
        // SAFETY: thread blocks own disjoint rows.
        launch_reduce_blocks(&stream, cfg, &profile, &|blocks, out| unsafe {
            common::block_cg_init(
                mesh,
                blocks,
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
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let profile = profiles::cg_calc_w(self.n());
        let stream = CudaStream::new(&self.ctx, parpool::global_static());
        let (p, kx, ky) = (self.f.p.device(), self.f.kx.device(), self.f.ky.device());
        let w = Us::new(self.f.w.device_mut());
        // SAFETY: thread blocks own disjoint rows.
        launch_reduce_blocks(&stream, cfg, &profile, &|blocks, out| unsafe {
            common::block_cg_calc_w(mesh, blocks, Pass::Reduce(out), p, kx, ky, &w)
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let profile = profiles::cg_calc_ur(self.n(), preconditioner);
        let stream = CudaStream::new(&self.ctx, parpool::global_static());
        let (p, w, kx, ky) = (
            self.f.p.device(),
            self.f.w.device(),
            self.f.kx.device(),
            self.f.ky.device(),
        );
        let u = Us::new(self.f.u.device_mut());
        let r = Us::new(self.f.r.device_mut());
        let z = Us::new(self.f.z.device_mut());
        // SAFETY: thread blocks own disjoint rows.
        launch_reduce_blocks(&stream, cfg, &profile, &|blocks, out| unsafe {
            common::block_cg_calc_ur(
                mesh,
                blocks,
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
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let profile = profiles::cg_calc_p(self.n());
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let (r, z) = (self.f.r.device(), self.f.z.device());
        let p = Us::new(self.f.p.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, RunBox::interior(mesh), &profile, &|run| unsafe {
            common::run_cg_calc_p(run, beta, preconditioner, r, z, &p)
        });
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let pool = self.pool();
        // One launch charge covers the reduction sweep and the β·p update
        // that rides behind it as a zero-overhead tail; per-block row
        // partials are folded in block order, exactly as `launch_reduce`
        // does, so the result is bit-identical to the unfused pair.
        let (p_ur, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::CgTail,
            self.n(),
            preconditioner,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_ur);
        self.ctx.launch(&p_tail);
        let i0 = mesh.i0();
        let rrn = {
            let (p, w, kx, ky) = (
                self.f.p.device(),
                self.f.w.device(),
                self.f.kx.device(),
                self.f.ky.device(),
            );
            let u = Us::new(self.f.u.device_mut());
            let r = Us::new(self.f.r.device_mut());
            let z = Us::new(self.f.z.device_mut());
            // SAFETY: thread blocks own disjoint rows.
            pool.run_sum_blocks(cfg.grid, &|blocks, out| unsafe {
                common::block_cg_calc_ur(
                    mesh,
                    blocks,
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
        let (r, z) = (self.f.r.device(), self.f.z.device());
        let p = Us::new(self.f.p.device_mut());
        // SAFETY: blocks own disjoint rows.
        pool.run(cfg.grid, &|block| unsafe {
            common::row_cg_calc_p(mesh, i0 + block, beta, preconditioner, r, z, &p)
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
        let profile = profiles::ppcg_init_sd(self.n());
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let r = self.f.r.device();
        let sd = Us::new(self.f.sd.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, RunBox::interior(mesh), &profile, &|run| unsafe {
            common::run_sd_init(run, theta, r, &sd)
        });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        // The u/r/sd update rides the w-stencil's launch as a fused tail
        // (one kernel, head-then-tail per thread).
        let (p_head, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let cover = RunBox::interior(mesh);
        {
            let (sd, kx, ky) = (self.f.sd.device(), self.f.kx.device(), self.f.ky.device());
            let w = Us::new(self.f.w.device_mut());
            // SAFETY: blocks own disjoint runs.
            launch_runs(ctx, mesh, cover, &p_head, &|run| unsafe {
                common::run_ppcg_w(run, sd, kx, ky, &w)
            });
        }
        let w = self.f.w.device();
        let u = Us::new(self.f.u.device_mut());
        let r = Us::new(self.f.r.device_mut());
        let sd = Us::new(self.f.sd.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, cover, &p_tail, &|run| unsafe {
            common::run_ppcg_update(run, alpha, beta, w, &u, &r, &sd)
        });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        {
            let profile = profiles::jacobi_copy(self.n());
            let u = self.f.u.device();
            let r = Us::new(self.f.r.device_mut());
            // SAFETY: blocks own disjoint runs.
            launch_runs(
                &self.ctx,
                mesh,
                RunBox::interior(mesh),
                &profile,
                &|run| unsafe { common::run_jacobi_copy(run, u, &r) },
            );
        }
        let profile = profiles::jacobi_iterate(self.n());
        let rcfg = self.reduce_cfg();
        let stream = CudaStream::new(&self.ctx, pool);
        let (u0, r, kx, ky) = (
            self.f.u0.device(),
            self.f.r.device(),
            self.f.kx.device(),
            self.f.ky.device(),
        );
        let u = Us::new(self.f.u.device_mut());
        // SAFETY: thread blocks own disjoint rows.
        launch_reduce_blocks(&stream, rcfg, &profile, &|blocks, out| unsafe {
            common::block_jacobi_iterate(mesh, blocks, Pass::Reduce(out), u0, r, kx, ky, &u)
        })
    }

    fn residual(&mut self) {
        let profile = profiles::residual(self.n());
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let (u, u0, kx, ky) = (
            self.f.u.device(),
            self.f.u0.device(),
            self.f.kx.device(),
            self.f.ky.device(),
        );
        let r = Us::new(self.f.r.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, RunBox::interior(mesh), &profile, &|run| unsafe {
            common::run_residual(run, u, u0, kx, ky, &r)
        });
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let profile = profiles::norm(self.n());
        let stream = CudaStream::new(&self.ctx, parpool::global_static());
        let x = match field {
            NormField::U0 => self.f.u0.device(),
            NormField::R => self.f.r.device(),
        };
        launch_reduce_blocks(&stream, cfg, &profile, &|blocks, out| {
            common::block_norm(mesh, blocks, Pass::Reduce(out), x)
        })
    }

    fn finalise(&mut self) {
        let profile = profiles::finalise(self.n());
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let (u, density) = (self.f.u.device(), self.f.density.device());
        let energy = Us::new(self.f.energy.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, RunBox::interior(mesh), &profile, &|run| unsafe {
            common::run_finalise(run, u, density, &energy)
        });
    }

    fn field_summary(&mut self) -> Summary {
        // One kernel computes all four components' block partials (the
        // CUDA port packs them into four partial buffers); the host fold
        // runs once over the blocks with the pool's 4-wide scratch. Each
        // component's per-row partial and block-order fold are unchanged,
        // so the result is bit-identical to four separate passes.
        let mesh = &self.f.mesh;
        let cfg = self.reduce_cfg();
        let profile = profiles::field_summary(self.n());
        let pool = self.pool();
        let i0 = mesh.i0();
        let vol = mesh.cell_volume();
        let (density, energy, u) = (
            self.f.density.device(),
            self.f.energy.device(),
            self.f.u.device(),
        );
        self.ctx.launch(&profile);
        let acc = pool.run_sum4(cfg.grid, &|block| {
            common::row_summary(mesh, i0 + block, density, energy, u, vol)
        });
        Summary::from(acc)
    }

    fn read_u(&mut self) -> Vec<f64> {
        let mut out = vec![0.0; self.f.mesh.len()];
        memcpy_dtoh(&self.ctx, &mut out, &self.f.u);
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

impl CudaPort {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        // `u += p` rides the p-stencil's launch as a fused tail.
        let (p_head, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let (ctx, mesh) = (&self.ctx, &self.f.mesh);
        let cover = RunBox::interior(mesh);
        {
            let (u, u0, kx, ky) = (
                self.f.u.device(),
                self.f.u0.device(),
                self.f.kx.device(),
                self.f.ky.device(),
            );
            let w = Us::new(self.f.w.device_mut());
            let r = Us::new(self.f.r.device_mut());
            let p = Us::new(self.f.p.device_mut());
            // SAFETY: blocks own disjoint runs.
            launch_runs(ctx, mesh, cover, &p_head, &|run| unsafe {
                common::run_cheby_calc_p(run, first, theta, alpha, beta, u, u0, kx, ky, &w, &r, &p)
            });
        }
        let p = self.f.p.device();
        let u = Us::new(self.f.u.device_mut());
        // SAFETY: blocks own disjoint runs.
        launch_runs(ctx, mesh, cover, &p_tail, &|run| unsafe {
            common::run_add_p_to_u(run, p, &u)
        });
    }
}
