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
//! through a functor (`parallel_for_functor`): each chunk reaches the
//! shared run bodies as the interior runs [`RunBox::clip`] cuts from it,
//! so the guard is evaluated once per run while the simulated clock still
//! charges the branch.
//!
//! The `Kokkos HP` variant is Sandia's fix (Figure 7): hierarchical
//! parallelism with a league of teams over interior rows and
//! `team_thread_range` over columns, which re-encodes the halo exclusion
//! into the iteration space (no branch) at the price of per-team dispatch
//! overhead — hurting the GPU Chebyshev/PPCG results by >20 % while
//! roughly halving KNC CG/PPCG time (§4.2, §4.3).

use std::ops::Range;

use kokkos_rs::reducer::ArraySumReducer;
use kokkos_rs::{deep_copy, ExecutionSpace, Functor, RangePolicy, TeamMember, TeamPolicy, View};
use parpool::Executor;
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

/// Kokkos TeaLeaf (flat or hierarchical-parallelism).
pub struct KokkosPort {
    model: ModelId,
    launch: Space,
    f: Fields<View>,
}

/// The default execution space on the static pool: flat `RangePolicy`
/// dispatch over the padded range (`hp == false`) or a league of row
/// teams (`hp == true`).
struct Space {
    hp: bool,
    ctx: SimContext,
}

impl Space {
    fn space(&self) -> ExecutionSpace<'_> {
        ExecutionSpace::new(&self.ctx, parpool::global_static())
    }

    /// Finalise a kernel profile: the flat port's halo guard is a
    /// loop-body branch; HP has none.
    fn profile(&self, p: &KernelProfile) -> KernelProfile {
        if self.hp {
            p.clone()
        } else {
            p.clone().with_interior_branch()
        }
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

/// The flat port's functor (§2.4: "the function operator is overloaded
/// and encapsulates the core functional logic"), including the §3.3
/// halo-exclusion conditional in the functor body that the flat port is
/// charged for — here evaluated once per run of each chunk.
struct Guarded<'a, F> {
    cover: RunBox,
    body: &'a F,
}

impl<F: Fn(Run) + Sync> Functor for Guarded<'_, F> {
    fn operator(&self, k: usize) {
        self.operator_range(k..k + 1);
    }

    fn operator_range(&self, ids: Range<usize>) {
        self.cover.clip(ids, self.body);
    }
}

impl Launch for Space {
    /// The flat padded range one chunk at a time, each chunk's runs of
    /// `bx` handed over by the guarded functor; or, for the interior, a
    /// league of row teams, each team's row one run (HP). The
    /// coefficients' extended box is flat in both variants.
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        let (space, p) = (self.space(), self.profile(p));
        if self.hp && bx == RunBox::interior(mesh) {
            space.team_parallel_for(&p, row_teams(mesh), &|m| body(team_row(mesh, m)));
        } else {
            let functor = Guarded { cover: bx, body };
            space.parallel_for_functor(&p, RangePolicy::new(0, mesh.len()), &functor);
        }
    }

    /// A `parallel_reduce` over blocks of rows, or one team per row, each
    /// a one-row block (HP). Both fold the row partials in row order.
    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        let (space, p) = (self.space(), self.profile(p));
        if self.hp {
            space.team_parallel_reduce(&p, row_teams(mesh), &|m| {
                let mut acc = [0.0];
                body(m.league_rank..m.league_rank + 1, &mut acc);
                acc[0]
            })
        } else {
            space.parallel_reduce_blocks(&p, RangePolicy::new(0, mesh.y_cells), body)
        }
    }

    /// The multi-variable reduction that needed a custom reducer in the
    /// paper's port (§3.3): the array reducer over rows.
    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        let policy = RangePolicy::new(0, mesh.y_cells);
        let (space, p) = (self.space(), self.profile(p));
        space.parallel_reduce_custom(&p, policy, &ArraySumReducer::<4>, &|jj| {
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
        KokkosPort {
            model,
            launch: Space { hp, ctx },
            f,
        }
    }
}

impl TeaLeafPort for KokkosPort {
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
        // One launch charge per field (unchanged), all ghost writes as one
        // batched dispatch on the execution space's pool.
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

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps { fused_launch: true }
    }

    /// One launch covers both sweeps (the p-update is a zero-overhead
    /// tail); they run directly on the execution space's pool with the
    /// same row-ordered arithmetic as the unfused pair.
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.f.cg_fused_ur_p(
            &self.launch,
            self.lowering_caps(),
            alpha,
            rro,
            preconditioner,
        )
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
        let mut h = View::host("h_u", self.f.mesh.len(), 1);
        deep_copy(&self.launch.ctx, &mut h, &self.f.u);
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
