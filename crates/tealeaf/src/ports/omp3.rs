//! The OpenMP 3.0 port.
//!
//! Each kernel is an `#pragma omp parallel for schedule(static)` over the
//! interior rows, executed on the process-wide [`parpool::StaticPool`]
//! (workers pinned, contiguous row blocks — "thread affinity set to
//! compact", §4.1). Reductions are `reduction(+:…)` clauses: per-row
//! partials combined in row order.
//!
//! Two language flavours are modelled, as in Figure 8: the original
//! Fortran 90 codebase ([`ModelId::Omp3F90`]) and the functionally
//! identical C/C++ port ([`ModelId::Omp3Cpp`]), which the Intel 15.0.3
//! compilers penalise on the Chebyshev solver (§4.1) — that difference is
//! a named quirk in [`crate::profiles`].

use std::ops::Range;

use parpool::{Executor, StaticPool};
use simdev::{DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::ir::KernelId;
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Launch, PortFields, Run, RunBox};
use crate::problem::Problem;

/// OpenMP 3.0 TeaLeaf (F90 or C++ flavour).
pub struct Omp3Port {
    model: ModelId,
    launch: OmpFor,
    f: PortFields,
}

/// `#pragma omp parallel for` over rows on the static pool, each launch
/// charged before its region.
struct OmpFor {
    ctx: SimContext,
}

impl OmpFor {
    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }
}

impl Launch for OmpFor {
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        _: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        self.ctx.launch(p);
        let rows = bx.rows();
        self.pool()
            .run(rows.len(), &|jj| body(bx.row(rows.start + jj)));
    }

    /// `reduction(+:…)`: row-block partials folded in row order.
    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        self.ctx.launch(p);
        self.pool().run_sum_blocks(mesh.y_cells, body)
    }

    /// `reduction(+:vol,mass,ie,temp)` — the pool's allocation-free 4-wide
    /// scratch, per-row partials folded in row order.
    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        self.ctx.launch(p);
        self.pool().run_sum4(mesh.y_cells, &|jj| {
            let mut acc = [0.0; 4];
            body(jj, &mut acc);
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

impl Omp3Port {
    /// Build the port; `model` must be one of the two OpenMP 3.0 ids.
    pub fn new(model: ModelId, device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        assert!(matches!(model, ModelId::Omp3F90 | ModelId::Omp3Cpp));
        let ctx = common::make_context(model, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        Omp3Port {
            model,
            launch: OmpFor { ctx },
            f,
        }
    }
}

impl TeaLeafPort for Omp3Port {
    fn model(&self) -> ModelId {
        self.model
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
        // One launch charge per field (the modelled schedule is unchanged),
        // but all ghost writes run as a single batched parallel region.
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

    /// One parallel region covers both sweeps: the ur reduction is charged
    /// as usual, the p-update rides the same region (no second dispatch).
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.f.cg_fused_ur_p(
            &self.launch,
            self.lowering_caps(),
            alpha,
            rro,
            preconditioner,
        )
    }

    /// `u += p` rides the p-polynomial stencil's parallel region.
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

    /// The u/r/sd update rides the w-stencil's parallel region — the same
    /// fused-launch idiom as the CG tail, derived from the IR.
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
        self.launch.ctx.transfer((self.f.u.len() * 8) as u64);
        self.f.u.clone()
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
