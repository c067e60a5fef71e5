//! The Kokkos port (flat-range) and the `Kokkos HP` variant.
//!
//! Following §3.3: every field lives in a 1-D device `View` over the
//! flattened padded grid ("each functor in Kokkos flattens the iteration
//! space and provides a single index parameter"); grid kernels iterate the
//! *whole* padded range and re-derive `(i, j)` with a div/mod, skipping
//! halo cells with a **conditional in the functor body** — the pattern
//! Intel's native KNC compilation handles badly, charged via the
//! `interior_branch` kernel trait.
//!
//! On the host the flat range runs one `RangePolicy` chunk at a time
//! (`parallel_for_chunks`): each chunk reaches the shared run bodies as the
//! interior runs [`RunBox::clip`] cuts from it, so the guard is evaluated
//! once per run while the simulated clock still charges the branch.
//!
//! The `Kokkos HP` variant is Sandia's fix (Figure 7): hierarchical
//! parallelism with a league of teams over interior rows and
//! `team_thread_range` over columns, which re-encodes the halo exclusion
//! into the iteration space (no branch) at the price of per-team dispatch
//! overhead — hurting the GPU Chebyshev/PPCG results by >20 % while
//! roughly halving KNC CG/PPCG time (§4.2, §4.3).

use std::ops::Range;

use kokkos_rs::{deep_copy, ExecutionSpace, Functor, RangePolicy, TeamMember, TeamPolicy, View};
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

/// Kokkos TeaLeaf (flat or hierarchical-parallelism).
pub struct KokkosPort {
    model: ModelId,
    hp: bool,
    ctx: SimContext,
    f: Fields<View>,
}

/// Dispatch a non-reduction grid kernel: the flat padded range one chunk
/// at a time, each chunk's interior runs handed to `f` — the loop-body
/// halo guard evaluated once per run (`hp == false`) — or a league of row
/// teams, each team's row one run (`hp == true`).
fn grid_for(
    hp: bool,
    mesh: &Mesh2d,
    space: &ExecutionSpace<'_>,
    profile: &KernelProfile,
    f: &(impl Fn(Run) + Sync),
) {
    if hp {
        space.team_parallel_for(profile, row_teams(mesh), &|m| f(team_row(mesh, m)));
    } else {
        let cover = RunBox::interior(mesh);
        let policy = RangePolicy::new(0, mesh.len());
        space.parallel_for_chunks(profile, policy, &|ids| cover.clip(ids, f));
    }
}

/// Dispatch a reducing kernel's block body over the interior rows: a
/// `parallel_reduce` over blocks of rows (`hp == false`), or one team per
/// row, each a one-row block (`hp == true`). Both fold the row partials in
/// row order, so results match every other port bit for bit.
fn grid_reduce(
    hp: bool,
    mesh: &Mesh2d,
    space: &ExecutionSpace<'_>,
    profile: &KernelProfile,
    f: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
) -> f64 {
    if hp {
        space.team_parallel_reduce(profile, row_teams(mesh), &|m| {
            let mut acc = [0.0];
            f(m.league_rank..m.league_rank + 1, &mut acc);
            acc[0]
        })
    } else {
        let policy = RangePolicy::new(0, mesh.y_cells);
        space.parallel_reduce_blocks(profile, policy, f)
    }
}

/// The HP variant's league: one team per interior row.
fn row_teams(mesh: &Mesh2d) -> TeamPolicy {
    TeamPolicy {
        league_size: mesh.y_cells,
        team_size: 8,
    }
}

/// Team `m`'s row, its `team_thread_range` over the columns handed over
/// whole.
fn team_row(mesh: &Mesh2d, m: TeamMember) -> Run {
    let cols = m.team_span(mesh.x_cells);
    let row = Run::row(mesh, mesh.i0() + m.league_rank);
    Run {
        b: row.b + cols.start,
        len: cols.len(),
        ..row
    }
}

/// The paper-era functor form of the `init_u0` kernel (§2.4: "the
/// function operator is overloaded and encapsulates the core functional
/// logic … Views are declared as local variables inside the class") —
/// including the §3.3 halo-exclusion conditional in the functor body that
/// the flat port is charged for, here evaluated once per run of each
/// chunk. The other kernels use the succinct lambda style the paper could
/// not (CUDA 7.0); keeping one functor exhibits the verbosity difference
/// the paper discusses.
struct InitU0Functor<'a> {
    mesh: &'a Mesh2d,
    density: &'a [f64],
    energy: &'a [f64],
    u0: Us<'a>,
    u: Us<'a>,
}

impl Functor for InitU0Functor<'_> {
    fn operator(&self, k: usize) {
        self.operator_range(k..k + 1);
    }

    fn operator_range(&self, ids: Range<usize>) {
        RunBox::interior(self.mesh).clip(ids, |run| {
            // SAFETY: chunks own disjoint runs.
            unsafe { common::run_init_u0(run, self.density, self.energy, &self.u0, &self.u) }
        });
    }
}

impl KokkosPort {
    /// Build the port; `model` must be `Kokkos` or `KokkosHP`.
    pub fn new(model: ModelId, device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let hp = match model {
            ModelId::Kokkos => false,
            ModelId::KokkosHP => true,
            other => panic!("KokkosPort cannot implement {other:?}"),
        };
        let ctx = common::make_context(model, device, problem, seed);
        let mesh = &problem.mesh;
        let len = mesh.len();
        let dev = |label: &str| View::device(label, len, 1);
        let mut f = Fields::with(mesh, dev("density"), dev("energy"), |id| dev(id.name()));
        // create_mirror_view + deep_copy: host → device for the inputs.
        let mut h = View::host("h_mirror", len, 1);
        h.raw_mut().copy_from_slice(problem.density.as_slice());
        deep_copy(&ctx, &mut f.density, &h);
        h.raw_mut().copy_from_slice(problem.energy.as_slice());
        deep_copy(&ctx, &mut f.energy, &h);
        KokkosPort { model, hp, ctx, f }
    }

    fn pool(&self) -> &'static StaticPool {
        parpool::global_static()
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.f.mesh)
    }

    /// Finalise a grid-kernel profile: the flat port's halo guard is a
    /// loop-body branch; HP has none.
    fn grid_profile(&self, p: KernelProfile) -> KernelProfile {
        if self.hp {
            p
        } else {
            p.with_interior_branch()
        }
    }
}

impl TeaLeafPort for KokkosPort {
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
        let hp = self.hp;
        let p_u0 = self.grid_profile(profiles::init_u0(self.n()));
        let p_k = self.grid_profile(profiles::init_coeffs(self.n()));
        let pool = self.pool();
        {
            let space = ExecutionSpace::new(&self.ctx, pool);
            let (density, energy) = (self.f.density.raw(), self.f.energy.raw());
            let u0 = Us::new(self.f.u0.raw_mut());
            let u = Us::new(self.f.u.raw_mut());
            if hp {
                // SAFETY: teams own disjoint rows.
                grid_for(hp, mesh, &space, &p_u0, &|run| unsafe {
                    common::run_init_u0(run, density, energy, &u0, &u)
                });
            } else {
                // functor style over the flat padded range, guard inside
                let functor = InitU0Functor {
                    mesh,
                    density,
                    energy,
                    u0,
                    u,
                };
                space.parallel_for_functor(&p_u0, RangePolicy::new(0, mesh.len()), &functor);
            }
        }
        // Coefficients cover i0..=i1 / i0..=j1 — one cell beyond the
        // interior on the high sides, the runs of `RunBox::coeffs`.
        let space = ExecutionSpace::new(&self.ctx, pool);
        let density = self.f.density.raw();
        let kx = Us::new(self.f.kx.raw_mut());
        let ky = Us::new(self.f.ky.raw_mut());
        let cover = RunBox::coeffs(mesh);
        space.parallel_for_chunks(&p_k, RangePolicy::new(0, mesh.len()), &|ids| {
            cover.clip(ids, |run| {
                // SAFETY: chunks own disjoint runs.
                unsafe { common::run_init_coeffs(run, coefficient, rx, ry, density, &kx, &ky) }
            })
        });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // One launch charge per field (unchanged), all ghost writes as one
        // batched dispatch on the execution space's pool.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        let pool = self.pool();
        self.f.halo_batch(fields, depth, pool);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::cg_init(self.n(), preconditioner));
        let pool = self.pool();
        let space = ExecutionSpace::new(&self.ctx, pool);
        let (u, u0, kx, ky) = (
            self.f.u.raw(),
            self.f.u0.raw(),
            self.f.kx.raw(),
            self.f.ky.raw(),
        );
        let w = Us::new(self.f.w.raw_mut());
        let r = Us::new(self.f.r.raw_mut());
        let p = Us::new(self.f.p.raw_mut());
        let z = Us::new(self.f.z.raw_mut());
        // SAFETY: row blocks disjoint (one row per team).
        grid_reduce(hp, mesh, &space, &profile, &|jj, out| unsafe {
            let pass = Pass::Reduce(out);
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
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::cg_calc_w(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let (p, kx, ky) = (self.f.p.raw(), self.f.kx.raw(), self.f.ky.raw());
        let w = Us::new(self.f.w.raw_mut());
        // SAFETY: row blocks disjoint (one row per team).
        grid_reduce(hp, mesh, &space, &profile, &|jj, out| unsafe {
            common::block_cg_calc_w(mesh, jj, Pass::Reduce(out), p, kx, ky, &w)
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::cg_calc_ur(self.n(), preconditioner));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let (p, w, kx, ky) = (
            self.f.p.raw(),
            self.f.w.raw(),
            self.f.kx.raw(),
            self.f.ky.raw(),
        );
        let u = Us::new(self.f.u.raw_mut());
        let r = Us::new(self.f.r.raw_mut());
        let z = Us::new(self.f.z.raw_mut());
        // SAFETY: row blocks disjoint (one row per team).
        grid_reduce(hp, mesh, &space, &profile, &|jj, out| unsafe {
            let pass = Pass::Reduce(out);
            common::block_cg_calc_ur(
                mesh,
                jj,
                pass,
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
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::cg_calc_p(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let (r, z) = (self.f.r.raw(), self.f.z.raw());
        let p = Us::new(self.f.p.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &profile, &|run| unsafe {
            common::run_cg_calc_p(run, beta, preconditioner, r, z, &p)
        });
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let mesh = &self.f.mesh;
        let (h, t) = profiles::fused_pair(
            crate::ir::FusionKind::CgTail,
            self.n(),
            preconditioner,
            self.lowering_caps(),
        );
        let p_ur = self.grid_profile(h);
        let p_tail = self.grid_profile(t);
        let pool = self.pool();
        // One launch covers both sweeps (the p-update is a zero-overhead
        // tail); they run directly on the execution space's pool with the
        // same row-ordered arithmetic as the unfused
        // `grid_reduce`/`grid_for` pair (both variants of which fold
        // per-row partials in row order).
        self.ctx.launch(&p_ur);
        self.ctx.launch(&p_tail);
        let i0 = mesh.i0();
        let rrn = {
            let (p, w, kx, ky) = (
                self.f.p.raw(),
                self.f.w.raw(),
                self.f.kx.raw(),
                self.f.ky.raw(),
            );
            let u = Us::new(self.f.u.raw_mut());
            let r = Us::new(self.f.r.raw_mut());
            let z = Us::new(self.f.z.raw_mut());
            // SAFETY: row blocks disjoint.
            pool.run_sum_blocks(mesh.y_cells, &|jj, out| unsafe {
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
        let (r, z) = (self.f.r.raw(), self.f.z.raw());
        let p = Us::new(self.f.p.raw_mut());
        // SAFETY: rows disjoint.
        pool.run(mesh.y_cells, &|jj| unsafe {
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
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::ppcg_init_sd(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let r = self.f.r.raw();
        let sd = Us::new(self.f.sd.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &profile, &|run| unsafe {
            common::run_sd_init(run, theta, r, &sd)
        });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let (h, t) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let p_w = self.grid_profile(h);
        let p_up = self.grid_profile(t);
        let pool = self.pool();
        {
            let space = ExecutionSpace::new(&self.ctx, pool);
            let (sd, kx, ky) = (self.f.sd.raw(), self.f.kx.raw(), self.f.ky.raw());
            let w = Us::new(self.f.w.raw_mut());
            // SAFETY: chunks and teams own disjoint runs.
            grid_for(hp, mesh, &space, &p_w, &|run| unsafe {
                common::run_ppcg_w(run, sd, kx, ky, &w)
            });
        }
        let space = ExecutionSpace::new(&self.ctx, pool);
        let w = self.f.w.raw();
        let u = Us::new(self.f.u.raw_mut());
        let r = Us::new(self.f.r.raw_mut());
        let sd = Us::new(self.f.sd.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &p_up, &|run| unsafe {
            common::run_ppcg_update(run, alpha, beta, w, &u, &r, &sd)
        });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let p_copy = self.grid_profile(profiles::jacobi_copy(self.n()));
        let p_it = self.grid_profile(profiles::jacobi_iterate(self.n()));
        let pool = self.pool();
        {
            let space = ExecutionSpace::new(&self.ctx, pool);
            let u = self.f.u.raw();
            let r = Us::new(self.f.r.raw_mut());
            // SAFETY: chunks and teams own disjoint runs.
            grid_for(hp, mesh, &space, &p_copy, &|run| unsafe {
                common::run_jacobi_copy(run, u, &r)
            });
        }
        let space = ExecutionSpace::new(&self.ctx, pool);
        let (u0, r, kx, ky) = (
            self.f.u0.raw(),
            self.f.r.raw(),
            self.f.kx.raw(),
            self.f.ky.raw(),
        );
        let u = Us::new(self.f.u.raw_mut());
        // SAFETY: row blocks disjoint (one row per team).
        grid_reduce(hp, mesh, &space, &p_it, &|jj, out| unsafe {
            common::block_jacobi_iterate(mesh, jj, Pass::Reduce(out), u0, r, kx, ky, &u)
        })
    }

    fn residual(&mut self) {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::residual(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let (u, u0, kx, ky) = (
            self.f.u.raw(),
            self.f.u0.raw(),
            self.f.kx.raw(),
            self.f.ky.raw(),
        );
        let r = Us::new(self.f.r.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &profile, &|run| unsafe {
            common::run_residual(run, u, u0, kx, ky, &r)
        });
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::norm(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let x = match field {
            NormField::U0 => self.f.u0.raw(),
            NormField::R => self.f.r.raw(),
        };
        grid_reduce(hp, mesh, &space, &profile, &|jj, out| {
            common::block_norm(mesh, jj, Pass::Reduce(out), x)
        })
    }

    fn finalise(&mut self) {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let profile = self.grid_profile(profiles::finalise(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let (u, density) = (self.f.u.raw(), self.f.density.raw());
        let energy = Us::new(self.f.energy.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &profile, &|run| unsafe {
            common::run_finalise(run, u, density, &energy)
        });
    }

    fn field_summary(&mut self) -> Summary {
        // The multi-variable reduction that needed a custom reducer in the
        // paper's port (§3.3) — here via Kokkos' custom-reducer dispatch,
        // one component at a time would lose fusion, so use the array
        // reducer over rows.
        let mesh = &self.f.mesh;
        let profile = self.grid_profile(profiles::field_summary(self.n()));
        let space = ExecutionSpace::new(&self.ctx, self.pool());
        let i0 = mesh.i0();
        let vol = mesh.cell_volume();
        let (density, energy, u) = (self.f.density.raw(), self.f.energy.raw(), self.f.u.raw());
        let acc = space.parallel_reduce_custom(
            &profile,
            RangePolicy::new(0, mesh.y_cells),
            &kokkos_rs::reducer::ArraySumReducer::<4>,
            &|jj| common::row_summary(mesh, i0 + jj, density, energy, u, vol),
        );
        Summary::from(acc)
    }

    fn read_u(&mut self) -> Vec<f64> {
        let mut h = View::host("h_u", self.f.mesh.len(), 1);
        deep_copy(&self.ctx, &mut h, &self.f.u);
        h.raw().to_vec()
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

impl KokkosPort {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let hp = self.hp;
        let (h, t) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        let p_p = self.grid_profile(h);
        let p_u = self.grid_profile(t);
        let pool = self.pool();
        {
            let space = ExecutionSpace::new(&self.ctx, pool);
            let (u, u0, kx, ky) = (
                self.f.u.raw(),
                self.f.u0.raw(),
                self.f.kx.raw(),
                self.f.ky.raw(),
            );
            let w = Us::new(self.f.w.raw_mut());
            let r = Us::new(self.f.r.raw_mut());
            let p = Us::new(self.f.p.raw_mut());
            // SAFETY: chunks and teams own disjoint runs.
            grid_for(hp, mesh, &space, &p_p, &|run| unsafe {
                common::run_cheby_calc_p(run, first, theta, alpha, beta, u, u0, kx, ky, &w, &r, &p)
            });
        }
        let space = ExecutionSpace::new(&self.ctx, pool);
        let p = self.f.p.raw();
        let u = Us::new(self.f.u.raw_mut());
        // SAFETY: chunks and teams own disjoint runs.
        grid_for(hp, mesh, &space, &p_u, &|run| unsafe {
            common::run_add_p_to_u(run, p, &u)
        });
    }
}
