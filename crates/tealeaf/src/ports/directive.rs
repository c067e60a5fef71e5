//! The OpenMP 4.0 and OpenACC ports.
//!
//! The paper built its OpenACC port from the OpenMP 4.0 codebase by
//! "changing the directives but maintaining the same data transitions"
//! (§3.2); this module mirrors that literally — one implementation, two
//! dialects ([`directive_rs::Flavor`]), distinct cost profiles.
//!
//! Data residency follows §3.1: at the highest possible scope a data
//! region keeps every array on the device for the duration of the run
//! (implemented with the unstructured `enter data`/`exit data` pair the
//! OpenMP 4.5 spec added, since the region must span driver calls). Each
//! kernel is one `target` region — and pays the per-target overhead the
//! paper measured, which dominates at small meshes (Figure 11's
//! intercepts).

use directive_rs::{DeviceEnv, Flavor, MapClause, MapDir};
use parpool::StaticPool;
use simdev::{DeviceSpec, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Pass, PortFields, Us};
use crate::problem::Problem;

/// OpenMP 4.0 / OpenACC TeaLeaf.
pub struct DirectivePort {
    model: ModelId,
    flavor: Flavor,
    ctx: SimContext,
    f: PortFields,
}

impl DirectivePort {
    /// Build the port; `model` must be `Omp4` or `OpenAcc`.
    pub fn new(model: ModelId, device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let flavor = match model {
            ModelId::Omp4 => Flavor::Omp4,
            ModelId::OpenAcc => Flavor::OpenAcc,
            other => panic!("DirectivePort cannot implement {other:?}"),
        };
        let ctx = common::make_context(model, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        let port = DirectivePort {
            model,
            flavor,
            ctx,
            f,
        };
        // Highest-scope data region: density and energy move to the
        // device, the work arrays are device-allocated only.
        let bytes = (port.f.mesh.len() * 8) as u64;
        port.env_with(|env| {
            env.enter_data(&[
                MapClause::new("density", bytes, MapDir::To),
                MapClause::new("energy", bytes, MapDir::To),
                MapClause::new("u", bytes, MapDir::Alloc),
                MapClause::new("u0", bytes, MapDir::Alloc),
                MapClause::new("p", bytes, MapDir::Alloc),
                MapClause::new("r", bytes, MapDir::Alloc),
                MapClause::new("w", bytes, MapDir::Alloc),
                MapClause::new("z", bytes, MapDir::Alloc),
                MapClause::new("kx", bytes, MapDir::Alloc),
                MapClause::new("ky", bytes, MapDir::Alloc),
                MapClause::new("sd", bytes, MapDir::Alloc),
            ]);
        });
        port
    }

    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn env_with<R>(&self, body: impl FnOnce(&DeviceEnv<'_>) -> R) -> R {
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        body(&env)
    }
}

impl TeaLeafPort for DirectivePort {
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
        let pool = self.pool();
        {
            let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
            let (density, energy) = (&self.f.density, &self.f.energy);
            let (u0, u) = (Us::new(&mut self.f.u0), Us::new(&mut self.f.u));
            env.target_parallel_for(
                &profiles::init_u0(profiles::cells(mesh)),
                mesh.y_cells,
                &|jj| {
                    // SAFETY: rows disjoint.
                    unsafe { common::row_init_u0(mesh, j0 + jj, density, energy, &u0, &u) };
                },
            );
        }
        let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
        let density = &self.f.density;
        let (kx, ky) = (Us::new(&mut self.f.kx), Us::new(&mut self.f.ky));
        env.target_parallel_for(
            &profiles::init_coeffs(profiles::cells(mesh)),
            mesh.y_cells + 1,
            &|jj| {
                // SAFETY: rows disjoint.
                unsafe {
                    common::row_init_coeffs(mesh, j0 + jj, coefficient, rx, ry, density, &kx, &ky)
                };
            },
        );
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // Each halo pass is still charged as its own small target region —
        // the paper's per-target overhead applies per field — but the ghost
        // writes execute as one batched pair of parallel regions.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        let pool = self.pool();
        self.f.halo_batch(fields, depth, pool);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let (w, r, p, z) = (
            Us::new(&mut self.f.w),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.p),
            Us::new(&mut self.f.z),
        );
        env.target_reduce_blocks(
            &profiles::cg_init(profiles::cells(mesh), preconditioner),
            mesh.y_cells,
            &|jj, out| {
                // SAFETY: row blocks disjoint.
                unsafe {
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
                }
            },
        )
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (p, kx, ky) = (&self.f.p, &self.f.kx, &self.f.ky);
        let w = Us::new(&mut self.f.w);
        env.target_reduce_blocks(
            &profiles::cg_calc_w(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj, out| {
                // SAFETY: row blocks disjoint.
                unsafe { common::block_cg_calc_w(mesh, jj, Pass::Reduce(out), p, kx, ky, &w) }
            },
        )
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (p, w, kx, ky) = (&self.f.p, &self.f.w, &self.f.kx, &self.f.ky);
        let (u, r, z) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.z),
        );
        env.target_reduce_blocks(
            &profiles::cg_calc_ur(profiles::cells(mesh), preconditioner),
            mesh.y_cells,
            &|jj, out| {
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
            },
        )
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (r, z) = (&self.f.r, &self.f.z);
        let p = Us::new(&mut self.f.p);
        env.target_parallel_for(
            &profiles::cg_calc_p(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_cg_calc_p(mesh, j0 + jj, beta, preconditioner, r, z, &p) };
            },
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
        let j0 = mesh.i0();
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let r = &self.f.r;
        let sd = Us::new(&mut self.f.sd);
        env.target_parallel_for(
            &profiles::ppcg_init_sd(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_sd_init(mesh, j0 + jj, theta, r, &sd) };
            },
        );
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let pool = self.pool();
        let (p_w, p_upd) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            profiles::cells(mesh),
            false,
            self.lowering_caps(),
        );
        {
            let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
            let (sd, kx, ky) = (&self.f.sd, &self.f.kx, &self.f.ky);
            let w = Us::new(&mut self.f.w);
            env.target_parallel_for(&p_w, mesh.y_cells, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_ppcg_w(mesh, j0 + jj, sd, kx, ky, &w) };
            });
        }
        let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
        let w = &self.f.w;
        let (u, r, sd) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.sd),
        );
        env.target_parallel_for(&p_upd, mesh.y_cells, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_ppcg_update(mesh, j0 + jj, alpha, beta, w, &u, &r, &sd) };
        });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let pool = self.pool();
        {
            let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
            let u = &self.f.u;
            let r = Us::new(&mut self.f.r);
            env.target_parallel_for(
                &profiles::jacobi_copy(profiles::cells(mesh)),
                mesh.y_cells,
                &|jj| {
                    // SAFETY: rows disjoint.
                    unsafe { common::row_jacobi_copy(mesh, j0 + jj, u, &r) };
                },
            );
        }
        let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
        let (u0, r, kx, ky) = (&self.f.u0, &self.f.r, &self.f.kx, &self.f.ky);
        let u = Us::new(&mut self.f.u);
        env.target_reduce_blocks(
            &profiles::jacobi_iterate(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj, out| {
                // SAFETY: row blocks disjoint.
                unsafe {
                    common::block_jacobi_iterate(mesh, jj, Pass::Reduce(out), u0, r, kx, ky, &u)
                }
            },
        )
    }

    fn residual(&mut self) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        let r = Us::new(&mut self.f.r);
        env.target_parallel_for(
            &profiles::residual(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_residual(mesh, j0 + jj, u, u0, kx, ky, &r) };
            },
        );
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let x = match field {
            NormField::U0 => &self.f.u0,
            NormField::R => &self.f.r,
        };
        env.target_reduce_blocks(
            &profiles::norm(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj, out| common::block_norm(mesh, jj, Pass::Reduce(out), x),
        )
    }

    fn finalise(&mut self) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let (u, density) = (&self.f.u, &self.f.density);
        let energy = Us::new(&mut self.f.energy);
        env.target_parallel_for(
            &profiles::finalise(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_finalise(mesh, j0 + jj, u, density, &energy) };
            },
        );
        // energy stays resident: the field summary reduces on the device
        // and only scalars come back, as in the reference ports.
    }

    fn field_summary(&mut self) -> Summary {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let env = DeviceEnv::new(&self.ctx, self.pool(), self.flavor);
        let vol = mesh.cell_volume();
        let (density, energy, u) = (&self.f.density, &self.f.energy, &self.f.u);
        let acc = env.target_reduce_many(
            &profiles::field_summary(profiles::cells(mesh)),
            mesh.y_cells,
            &|jj| common::row_summary(mesh, j0 + jj, density, energy, u, vol),
        );
        Summary::from(acc)
    }

    fn read_u(&mut self) -> Vec<f64> {
        let bytes = (self.f.mesh.len() * 8) as u64;
        self.env_with(|env| env.exit_data(&[MapClause::new("u", bytes, MapDir::From)]));
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

impl DirectivePort {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let j0 = mesh.i0();
        let pool = self.pool();
        let (p_p, p_u) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            profiles::cells(mesh),
            false,
            self.lowering_caps(),
        );
        {
            let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
            let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
            let (w, r, p) = (
                Us::new(&mut self.f.w),
                Us::new(&mut self.f.r),
                Us::new(&mut self.f.p),
            );
            env.target_parallel_for(&p_p, mesh.y_cells, &|jj| {
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
        let env = DeviceEnv::new(&self.ctx, pool, self.flavor);
        let p = &self.f.p;
        let u = Us::new(&mut self.f.u);
        env.target_parallel_for(&p_u, mesh.y_cells, &|jj| {
            // SAFETY: rows disjoint.
            unsafe { common::row_add_p_to_u(mesh, j0 + jj, p, &u) };
        });
    }
}
