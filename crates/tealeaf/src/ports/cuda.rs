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

use std::ops::Range;

use cuda_rs::buffer::{memcpy_dtoh, memcpy_htod};
use cuda_rs::{launch_blocks, launch_reduce_blocks, CudaStream, DeviceBuffer, LaunchConfig};
use parpool::{Executor, StaticPool};
use simdev::{DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::ir::KernelId;
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Fields, Launch, Run, RunBox};
use crate::problem::Problem;

/// Threads per block, as a typical K20X-tuned TeaLeaf port would pick.
const BLOCK: usize = 256;

/// CUDA TeaLeaf.
pub struct CudaPort {
    launch: Grids,
    f: Fields<DeviceBuffer<f64>>,
}

/// Kernel launches on the default stream, over the static pool.
struct Grids {
    ctx: SimContext,
}

impl Grids {
    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn stream(&self) -> CudaStream<'_> {
        CudaStream::new(&self.ctx, self.pool())
    }
}

/// Row-block decomposition for the custom reductions: one block per
/// interior row, partials combined in block order.
fn reduce_cfg(mesh: &Mesh2d) -> LaunchConfig {
    LaunchConfig {
        grid: mesh.y_cells,
        block: mesh.x_cells,
    }
}

impl Launch for Grids {
    /// A grid over the padded flat range, one block at a time: each
    /// block's thread range, overspill included, reaches `body` as the
    /// runs of `bx` it holds.
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        let cfg = LaunchConfig::for_n(mesh.len(), BLOCK);
        launch_blocks(&self.stream(), cfg, p, &|tids| bx.clip(tids, body));
    }

    /// The custom two-pass block reduction over row blocks.
    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        launch_reduce_blocks(&self.stream(), reduce_cfg(mesh), p, body)
    }

    /// One kernel computes all four components' block partials (the CUDA
    /// port packs them into four partial buffers); the host fold runs
    /// once over the blocks with the pool's 4-wide scratch. Each
    /// component's per-row partial and block-order fold are unchanged, so
    /// the result is bit-identical to four separate passes.
    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        self.ctx.launch(p);
        self.pool().run_sum4(reduce_cfg(mesh).grid, &|block| {
            let mut acc = [0.0; 4];
            body(block, &mut acc);
            acc
        })
    }

    fn charge(&self, _: KernelId, p: &KernelProfile) {
        self.ctx.launch(p);
    }

    fn exec(&self) -> &dyn Executor {
        self.pool()
    }
}

impl CudaPort {
    /// Build the port: `cudaMalloc` all fields and `memcpy` the inputs.
    pub fn new(device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let ctx = common::make_context(ModelId::Cuda, device, problem, seed);
        let alloc = || DeviceBuffer::alloc(problem.mesh.len());
        let mut f = Fields::with(&problem.mesh, alloc(), alloc(), |_| alloc());
        memcpy_htod(&ctx, &mut f.density, problem.density.as_slice());
        memcpy_htod(&ctx, &mut f.energy, problem.energy.as_slice());
        CudaPort {
            launch: Grids { ctx },
            f,
        }
    }
}

impl TeaLeafPort for CudaPort {
    fn model(&self) -> ModelId {
        ModelId::Cuda
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
        // One kernel launch charge per field (unchanged), ghost writes
        // batched into a single two-phase device-wide dispatch.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.launch.ctx.launch(&profile);
        }
        self.f.halo_batch(fields, depth, self.launch.pool());
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

    /// One launch charge covers the reduction sweep and the β·p update
    /// that rides behind it as a zero-overhead tail; per-block row
    /// partials are folded in block order, exactly as `launch_reduce`
    /// does, so the result is bit-identical to the unfused pair.
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.f.cg_fused_ur_p(
            &self.launch,
            self.lowering_caps(),
            alpha,
            rro,
            preconditioner,
        )
    }

    /// `u += p` rides the p-stencil's launch as a fused tail.
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

    /// The u/r/sd update rides the w-stencil's launch as a fused tail
    /// (one kernel, head-then-tail per thread).
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
        memcpy_dtoh(&self.launch.ctx, &mut out, &self.f.u);
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
