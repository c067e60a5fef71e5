//! The RAJA port and the `RAJA SIMD` proof-of-concept variant.
//!
//! Following §3.4: the interior iteration space is pre-computed once into
//! a halo-excluding `ListSegment` ("RAJA wraps each function's iteration
//! space into an indirection array, \[making\] it possible to exclude the
//! halo boundaries without any explicit conditions or index calculations
//! in the loop body") — so the lambdas here are the most succinct of all
//! the ports. The price, observed in §4.1, is that the indirection
//! "precludes vectorisation": list-segment dispatch carries the
//! `indirection` kernel trait.
//!
//! Reductions and multi-index kernels use *custom dispatch functions*
//! over per-row ranges, exactly as the paper's port had to ("we did find
//! that it was necessary to create our own implementations of the
//! dispatch functions, to handle situations where we had multiple
//! reduction variables, and for multiple indexing").
//!
//! On the host each list-segment chunk reaches the shared run bodies as
//! the contiguous runs its indirection entries name (`forall_runs`); the
//! interior list never crosses a halo cell within a run, so no guard is
//! needed, and the simulated clock still charges the indirection.
//!
//! The `RAJA SIMD` variant replaces the list segments with row ranges
//! whose bodies are `omp simd` loops (the paper's proof of concept that
//! recovered ~20 % on the Chebyshev solver).

use std::ops::Range;

use parpool::Executor;
use raja_rs::forall::forall_sum_many;
use raja_rs::{
    forall, forall_runs, forall_sum_blocks, ListSegment, OmpParallelForExec, RajaRuntime,
    RangeSegment, Segment, SimdExec,
};
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

/// RAJA TeaLeaf (list-segment or SIMD row-range flavour).
pub struct RajaPort {
    model: ModelId,
    launch: Foralls,
    f: PortFields,
}

/// `forall` dispatch on the static pool over the port's segments.
struct Foralls {
    simd: bool,
    ctx: SimContext,
    /// The pre-computed halo-excluding indirection list (base flavour).
    interior: Segment,
    /// Row index range `0..y_cells` for the custom row dispatches.
    row_range: Segment,
}

impl Foralls {
    fn rt(&self) -> RajaRuntime<'_> {
        RajaRuntime::new(&self.ctx, parpool::global_static())
    }

    /// Profile for a dispatch: the base flavour still walks the
    /// indirection list inside its custom dispatch, the SIMD flavour
    /// streams ranges.
    fn profile(&self, p: &KernelProfile) -> KernelProfile {
        if self.simd {
            p.clone()
        } else {
            p.clone().with_indirection()
        }
    }
}

impl Launch for Foralls {
    /// `forall_runs` over the interior list, each chunk handed over as
    /// the runs of consecutive indices its entries name (base), or a
    /// row-range dispatch with one row per run (SIMD). The coefficients'
    /// extended box needs a custom row dispatch in both flavours
    /// (multiple indexing, as §3.4 describes).
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        let (rt, p, rows) = (self.rt(), self.profile(p), bx.rows());
        let row = |jj| body(bx.row(rows.start + jj));
        if bx != RunBox::interior(mesh) {
            let extended = Segment::Range(RangeSegment::new(0, rows.len()));
            forall::<OmpParallelForExec>(&rt, &extended, &p, &row);
        } else if self.simd {
            forall::<SimdExec>(&rt, &self.row_range, &p, &row);
        } else {
            let width = mesh.width();
            forall_runs::<OmpParallelForExec>(&rt, &self.interior, &p, &|ids| {
                body(Run {
                    b: ids.start,
                    len: ids.len(),
                    width,
                })
            });
        }
    }

    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        _: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        let (rt, p) = (self.rt(), self.profile(p));
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &p, body)
    }

    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        _: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        let (rt, p) = (self.rt(), self.profile(p));
        forall_sum_many::<OmpParallelForExec, 4>(&rt, &self.row_range, &p, &|jj| {
            let mut acc = [0.0; 4];
            body(jj, &mut acc);
            acc
        })
    }

    fn charge(&self, _: KernelId, p: &KernelProfile) {
        self.ctx.launch(&self.profile(p));
    }

    fn exec(&self) -> &dyn Executor {
        parpool::global_static()
    }
}

impl RajaPort {
    /// Build the port; `model` must be `Raja` or `RajaSimd`.
    pub fn new(model: ModelId, device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let simd = match model {
            ModelId::Raja => false,
            ModelId::RajaSimd => true,
            other => panic!("RajaPort cannot implement {other:?}"),
        };
        let ctx = common::make_context(model, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        let mesh = &problem.mesh;
        let interior = Segment::List(ListSegment::interior_2d(
            mesh.width(),
            mesh.height(),
            mesh.halo_depth,
        ));
        let row_range = Segment::Range(RangeSegment::new(0, mesh.y_cells));
        RajaPort {
            model,
            launch: Foralls {
                simd,
                ctx,
                interior,
                row_range,
            },
            f,
        }
    }
}

impl TeaLeafPort for RajaPort {
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
        // One launch charge per field, one batched forall over the ghosts.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.launch.ctx.launch(&profile);
        }
        self.f.halo_batch(fields, depth, parpool::global_static());
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
