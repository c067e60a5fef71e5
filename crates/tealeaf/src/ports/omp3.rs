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

use parpool::{Executor, StaticPool};
use simdev::{DeviceSpec, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Pass, PortFields, Us};
use crate::problem::Problem;

/// OpenMP 3.0 TeaLeaf (F90 or C++ flavour).
pub struct Omp3Port {
    model: ModelId,
    ctx: SimContext,
    f: PortFields,
}

impl Omp3Port {
    /// Build the port; `model` must be one of the two OpenMP 3.0 ids.
    pub fn new(model: ModelId, device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        assert!(matches!(model, ModelId::Omp3F90 | ModelId::Omp3Cpp));
        let ctx = common::make_context(model, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        Omp3Port { model, ctx, f }
    }

    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.f.mesh)
    }
}

impl TeaLeafPort for Omp3Port {
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
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::init_u0(self.n()));
        {
            let (density, energy) = (&self.f.density, &self.f.energy);
            let (u0, u) = (Us::new(&mut self.f.u0), Us::new(&mut self.f.u));
            // omp parallel for over rows
            pool.run(rows, &|jj| {
                // SAFETY: rows are disjoint across iterations.
                unsafe { common::row_init_u0(mesh, j0 + jj, density, energy, &u0, &u) };
            });
        }
        self.ctx.launch(&profiles::init_coeffs(self.n()));
        {
            let density = &self.f.density;
            let (kx, ky) = (Us::new(&mut self.f.kx), Us::new(&mut self.f.ky));
            pool.run(mesh.y_cells + 1, &|jj| {
                // SAFETY: rows disjoint; covers j0..=j1 inclusive.
                unsafe {
                    common::row_init_coeffs(mesh, j0 + jj, coefficient, rx, ry, density, &kx, &ky)
                };
            });
        }
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // One launch charge per field (the modelled schedule is unchanged),
        // but all ghost writes run as a single batched parallel region.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        let pool = self.pool();
        self.f.halo_batch(fields, depth, pool);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        self.ctx
            .launch(&profiles::cg_init(self.n(), preconditioner));
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let (w, r, p, z) = (
            Us::new(&mut self.f.w),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.p),
            Us::new(&mut self.f.z),
        );
        pool.run_sum_blocks(rows, &|jj, out| {
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
        let pool = self.pool();
        let rows = mesh.y_cells;
        self.ctx.launch(&profiles::cg_calc_w(self.n()));
        let (p, kx, ky) = (&self.f.p, &self.f.kx, &self.f.ky);
        let w = Us::new(&mut self.f.w);
        pool.run_sum_blocks(rows, &|jj, out| {
            // SAFETY: row blocks disjoint.
            unsafe { common::block_cg_calc_w(mesh, jj, Pass::Reduce(out), p, kx, ky, &w) }
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        self.ctx
            .launch(&profiles::cg_calc_ur(self.n(), preconditioner));
        let (p, w, kx, ky) = (&self.f.p, &self.f.w, &self.f.kx, &self.f.ky);
        let (u, r, z) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.z),
        );
        pool.run_sum_blocks(rows, &|jj, out| {
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
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::cg_calc_p(self.n()));
        let (r, z) = (&self.f.r, &self.f.z);
        let p = Us::new(&mut self.f.p);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_cg_calc_p(mesh, j0 + jj, beta, preconditioner, r, z, &p) };
        });
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        // One parallel region covers both sweeps: the ur reduction is
        // charged as usual, the p-update rides the same region (no second
        // dispatch). The arithmetic and the row-ordered reduction are
        // exactly the unfused kernels'.
        let (p_ur, p_tail) = profiles::fused_pair(
            crate::ir::FusionKind::CgTail,
            self.n(),
            preconditioner,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_ur);
        self.ctx.launch(&p_tail);
        let rrn = {
            let (p, w, kx, ky) = (&self.f.p, &self.f.w, &self.f.kx, &self.f.ky);
            let (u, r, z) = (
                Us::new(&mut self.f.u),
                Us::new(&mut self.f.r),
                Us::new(&mut self.f.z),
            );
            pool.run_sum_blocks(rows, &|jj, out| {
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
        };
        let beta = rrn / rro;
        let (r, z) = (&self.f.r, &self.f.z);
        let p = Us::new(&mut self.f.p);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_cg_calc_p(mesh, j0 + jj, beta, preconditioner, r, z, &p) };
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
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::ppcg_init_sd(self.n()));
        let r = &self.f.r;
        let sd = Us::new(&mut self.f.sd);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_sd_init(mesh, j0 + jj, theta, r, &sd) };
        });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        // The u/r/sd update rides the w-stencil's parallel region — the
        // same fused-launch idiom as the CG tail, derived from the IR.
        let (p_w, p_upd) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_w);
        {
            let (sd, kx, ky) = (&self.f.sd, &self.f.kx, &self.f.ky);
            let w = Us::new(&mut self.f.w);
            pool.run(rows, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_ppcg_w(mesh, j0 + jj, sd, kx, ky, &w) };
            });
        }
        self.ctx.launch(&p_upd);
        let w = &self.f.w;
        let (u, r, sd) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.sd),
        );
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_ppcg_update(mesh, j0 + jj, alpha, beta, w, &u, &r, &sd) };
        });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::jacobi_copy(self.n()));
        {
            let u = &self.f.u;
            let r = Us::new(&mut self.f.r);
            pool.run(rows, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_jacobi_copy(mesh, j0 + jj, u, &r) };
            });
        }
        self.ctx.launch(&profiles::jacobi_iterate(self.n()));
        let (u0, r, kx, ky) = (&self.f.u0, &self.f.r, &self.f.kx, &self.f.ky);
        let u = Us::new(&mut self.f.u);
        pool.run_sum_blocks(rows, &|jj, out| {
            // SAFETY: row blocks disjoint.
            unsafe { common::block_jacobi_iterate(mesh, jj, Pass::Reduce(out), u0, r, kx, ky, &u) }
        })
    }

    fn residual(&mut self) {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::residual(self.n()));
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let r = Us::new(&mut self.f.r);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_residual(mesh, j0 + jj, u, u0, kx, ky, &r) };
        });
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        self.ctx.launch(&profiles::norm(self.n()));
        let x = match field {
            NormField::U0 => &self.f.u0,
            NormField::R => &self.f.r,
        };
        pool.run_sum_blocks(rows, &|jj, out| {
            common::block_norm(mesh, jj, Pass::Reduce(out), x)
        })
    }

    fn finalise(&mut self) {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::finalise(self.n()));
        let (u, density) = (&self.f.u, &self.f.density);
        let energy = Us::new(&mut self.f.energy);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_finalise(mesh, j0 + jj, u, density, &energy) };
        });
    }

    fn field_summary(&mut self) -> Summary {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        self.ctx.launch(&profiles::field_summary(self.n()));
        let vol = mesh.cell_volume();
        let (density, energy, u) = (&self.f.density, &self.f.energy, &self.f.u);
        // reduction(+:vol,mass,ie,temp) — the pool's allocation-free
        // 4-wide scratch, per-row partials folded in row order.
        let acc = pool.run_sum4(rows, &|jj| {
            common::row_summary(mesh, j0 + jj, density, energy, u, vol)
        });
        Summary::from(acc)
    }

    fn read_u(&mut self) -> Vec<f64> {
        self.ctx.transfer((self.f.u.len() * 8) as u64);
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

impl Omp3Port {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let pool = self.pool();
        let rows = mesh.y_cells;
        let j0 = mesh.i0();
        // `u += p` rides the p-polynomial stencil's parallel region.
        let (p_p, p_u) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_p);
        {
            let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
            let (w, r, p) = (
                Us::new(&mut self.f.w),
                Us::new(&mut self.f.r),
                Us::new(&mut self.f.p),
            );
            pool.run(rows, &|jj| {
                // SAFETY: rows disjoint.
                unsafe {
                    common::row_cheby_calc_p(
                        mesh,
                        j0 + jj,
                        first,
                        theta,
                        alpha,
                        beta,
                        u,
                        u0,
                        kx,
                        ky,
                        &w,
                        &r,
                        &p,
                    )
                };
            });
        }
        self.ctx.launch(&p_u);
        let p = &self.f.p;
        let u = Us::new(&mut self.f.u);
        pool.run(rows, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_add_p_to_u(mesh, j0 + jj, p, &u) };
        });
    }
}
