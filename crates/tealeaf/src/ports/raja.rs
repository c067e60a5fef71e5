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

use parpool::StaticPool;
use raja_rs::{
    forall, forall_runs, forall_sum_blocks, ListSegment, OmpParallelForExec, RajaRuntime,
    RangeSegment, Segment,
};
use simdev::{DeviceSpec, KernelProfile, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Pass, PortFields, Run, Us};
use crate::problem::Problem;

/// RAJA TeaLeaf (list-segment or SIMD row-range flavour).
pub struct RajaPort {
    model: ModelId,
    simd: bool,
    ctx: SimContext,
    f: PortFields,
    /// The pre-computed halo-excluding indirection list (base flavour).
    interior: Segment,
    /// Row index range `0..y_cells` for the custom row dispatches.
    row_range: Segment,
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
            simd,
            ctx,
            f,
            interior,
            row_range,
        }
    }

    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.f.mesh)
    }

    /// Profile for a reduction/row dispatch: the base flavour still walks
    /// the indirection list inside its custom dispatch, the SIMD flavour
    /// streams ranges.
    fn row_profile(&self, p: KernelProfile) -> KernelProfile {
        if self.simd {
            p
        } else {
            p.with_indirection()
        }
    }
}

/// Run a grid kernel in the port's flavour: `forall_runs` over the
/// interior list, each chunk handed to `f` as the runs of consecutive
/// indices its entries name (base), or a row-range custom dispatch with
/// one row per run (SIMD variant).
fn dispatch_runs(
    port_simd: bool,
    rt: &RajaRuntime<'_>,
    interior: &Segment,
    rows: &Segment,
    mesh: &tea_core::mesh::Mesh2d,
    profile: &KernelProfile,
    f: &(impl Fn(Run) + Sync),
) {
    if port_simd {
        let i0 = mesh.i0();
        forall::<raja_rs::SimdExec>(rt, rows, profile, &|jj| f(Run::row(mesh, i0 + jj)));
    } else {
        let width = mesh.width();
        forall_runs::<OmpParallelForExec>(rt, interior, profile, &|ids| {
            f(Run {
                b: ids.start,
                len: ids.len(),
                width,
            })
        });
    }
}

impl TeaLeafPort for RajaPort {
    fn model(&self) -> ModelId {
        self.model
    }

    fn context(&self) -> &SimContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let simd = self.simd;
        let p_u0 = self.row_profile(profiles::init_u0(self.n()));
        let p_k = self.row_profile(profiles::init_coeffs(self.n()));
        let pool = self.pool();
        {
            let rt = RajaRuntime::new(&self.ctx, pool);
            let (density, energy) = (&self.f.density, &self.f.energy);
            let (u0, u) = (Us::new(&mut self.f.u0), Us::new(&mut self.f.u));
            // SAFETY: chunks and rows own disjoint runs.
            dispatch_runs(
                simd,
                &rt,
                &self.interior,
                &self.row_range,
                mesh,
                &p_u0,
                &|run| unsafe { common::run_init_u0(run, density, energy, &u0, &u) },
            );
        }
        // Coefficients need the extended range: a custom row dispatch
        // (multiple indexing, as §3.4 describes).
        let rt = RajaRuntime::new(&self.ctx, pool);
        let rows_inclusive = Segment::Range(RangeSegment::new(0, mesh.y_cells + 1));
        let density = &self.f.density;
        let (kx, ky) = (Us::new(&mut self.f.kx), Us::new(&mut self.f.ky));
        forall::<OmpParallelForExec>(&rt, &rows_inclusive, &p_k, &|jj| {
            // SAFETY: rows disjoint.
            unsafe {
                common::row_init_coeffs(mesh, j0 + jj, coefficient, rx, ry, density, &kx, &ky)
            };
        });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // One launch charge per field, one batched forall over the ghosts.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        let pool = self.pool();
        self.f.halo_batch(fields, depth, pool);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let profile = self.row_profile(profiles::cg_init(self.n(), preconditioner));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let (w, r, p, z) = (
            Us::new(&mut self.f.w),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.p),
            Us::new(&mut self.f.z),
        );
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &profile, &|jj, out| {
            let pass = Pass::Reduce(out);
            // SAFETY: row blocks disjoint.
            unsafe {
                common::block_cg_init(
                    mesh,
                    jj,
                    pass,
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
            }
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let profile = self.row_profile(profiles::cg_calc_w(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (p, kx, ky) = (&self.f.p, &self.f.kx, &self.f.ky);
        let w = Us::new(&mut self.f.w);
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &profile, &|jj, out| {
            // SAFETY: row blocks disjoint.
            unsafe { common::block_cg_calc_w(mesh, jj, Pass::Reduce(out), p, kx, ky, &w) }
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let profile = self.row_profile(profiles::cg_calc_ur(self.n(), preconditioner));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (p, w, kx, ky) = (&self.f.p, &self.f.w, &self.f.kx, &self.f.ky);
        let (u, r, z) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.z),
        );
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &profile, &|jj, out| {
            // SAFETY: row blocks disjoint.
            unsafe {
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
            }
        })
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let profile = self.row_profile(profiles::cg_calc_p(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (r, z) = (&self.f.r, &self.f.z);
        let p = Us::new(&mut self.f.p);
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &profile,
            &|run| unsafe { common::run_cg_calc_p(run, beta, preconditioner, r, z, &p) },
        );
    }

    fn cheby_init(&mut self, theta: f64) {
        self.cheby_step(true, theta, 0.0, 0.0);
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.cheby_step(false, 0.0, alpha, beta);
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let profile = self.row_profile(profiles::ppcg_init_sd(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let r = &self.f.r;
        let sd = Us::new(&mut self.f.sd);
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &profile,
            &|run| unsafe { common::run_sd_init(run, theta, r, &sd) },
        );
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let (h, t) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let p_w = self.row_profile(h);
        let p_up = self.row_profile(t);
        let pool = self.pool();
        {
            let rt = RajaRuntime::new(&self.ctx, pool);
            let (sd, kx, ky) = (&self.f.sd, &self.f.kx, &self.f.ky);
            let w = Us::new(&mut self.f.w);
            // SAFETY: chunks and rows own disjoint runs.
            dispatch_runs(
                simd,
                &rt,
                &self.interior,
                &self.row_range,
                mesh,
                &p_w,
                &|run| unsafe { common::run_ppcg_w(run, sd, kx, ky, &w) },
            );
        }
        let rt = RajaRuntime::new(&self.ctx, pool);
        let w = &self.f.w;
        let (u, r, sd) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.sd),
        );
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &p_up,
            &|run| unsafe { common::run_ppcg_update(run, alpha, beta, w, &u, &r, &sd) },
        );
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let p_copy = self.row_profile(profiles::jacobi_copy(self.n()));
        let p_it = self.row_profile(profiles::jacobi_iterate(self.n()));
        let pool = self.pool();
        {
            let rt = RajaRuntime::new(&self.ctx, pool);
            let u = &self.f.u;
            let r = Us::new(&mut self.f.r);
            // SAFETY: chunks and rows own disjoint runs.
            dispatch_runs(
                simd,
                &rt,
                &self.interior,
                &self.row_range,
                mesh,
                &p_copy,
                &|run| unsafe { common::run_jacobi_copy(run, u, &r) },
            );
        }
        let rt = RajaRuntime::new(&self.ctx, pool);
        let (u0, r, kx, ky) = (&self.f.u0, &self.f.r, &self.f.kx, &self.f.ky);
        let u = Us::new(&mut self.f.u);
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &p_it, &|jj, out| {
            // SAFETY: row blocks disjoint.
            unsafe { common::block_jacobi_iterate(mesh, jj, Pass::Reduce(out), u0, r, kx, ky, &u) }
        })
    }

    fn residual(&mut self) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let profile = self.row_profile(profiles::residual(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let r = Us::new(&mut self.f.r);
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &profile,
            &|run| unsafe { common::run_residual(run, u, u0, kx, ky, &r) },
        );
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        let profile = self.row_profile(profiles::norm(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let x = match field {
            NormField::U0 => &self.f.u0,
            NormField::R => &self.f.r,
        };
        forall_sum_blocks::<OmpParallelForExec>(&rt, &self.row_range, &profile, &|jj, out| {
            common::block_norm(mesh, jj, Pass::Reduce(out), x)
        })
    }

    fn finalise(&mut self) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let profile = self.row_profile(profiles::finalise(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let (u, density) = (&self.f.u, &self.f.density);
        let energy = Us::new(&mut self.f.energy);
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &profile,
            &|run| unsafe { common::run_finalise(run, u, density, &energy) },
        );
    }

    fn field_summary(&mut self) -> Summary {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let profile = self.row_profile(profiles::field_summary(self.n()));
        let rt = RajaRuntime::new(&self.ctx, self.pool());
        let vol = mesh.cell_volume();
        let (density, energy, u) = (&self.f.density, &self.f.energy, &self.f.u);
        let acc = raja_rs::forall::forall_sum_many::<OmpParallelForExec, 4>(
            &rt,
            &self.row_range,
            &profile,
            &|jj| common::row_summary(mesh, j0 + jj, density, energy, u, vol),
        );
        Summary {
            volume: acc[0],
            mass: acc[1],
            internal_energy: acc[2],
            temperature: acc[3],
        }
    }

    fn read_u(&mut self) -> Vec<f64> {
        self.ctx.transfer((self.f.u.len() * 8) as u64);
        self.f.u.clone()
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        Some(self.f.field(id).to_vec())
    }

    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        out.clear();
        out.extend_from_slice(self.f.field(id));
        true
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.f.field_mut(id)[k] = value;
    }
}

impl RajaPort {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let simd = self.simd;
        let (h, t) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let p_p = self.row_profile(h);
        let p_u = self.row_profile(t);
        let pool = self.pool();
        {
            let rt = RajaRuntime::new(&self.ctx, pool);
            let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
            let (w, r, p) = (
                Us::new(&mut self.f.w),
                Us::new(&mut self.f.r),
                Us::new(&mut self.f.p),
            );
            // SAFETY: chunks and rows own disjoint runs.
            dispatch_runs(
                simd,
                &rt,
                &self.interior,
                &self.row_range,
                mesh,
                &p_p,
                &|run| unsafe {
                    common::run_cheby_calc_p(
                        run, first, theta, alpha, beta, u, u0, kx, ky, &w, &r, &p,
                    )
                },
            );
        }
        let rt = RajaRuntime::new(&self.ctx, pool);
        let p = &self.f.p;
        let u = Us::new(&mut self.f.u);
        // SAFETY: chunks and rows own disjoint runs.
        dispatch_runs(
            simd,
            &rt,
            &self.interior,
            &self.row_range,
            mesh,
            &p_u,
            &|run| unsafe { common::run_add_p_to_u(run, p, &u) },
        );
    }
}
