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

use std::ops::Range;

use directive_rs::{DeviceEnv, Flavor, MapClause, MapDir};
use parpool::Executor;
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

/// OpenMP 4.0 / OpenACC TeaLeaf.
pub struct DirectivePort {
    model: ModelId,
    launch: Targets,
    f: PortFields,
}

/// One `target` region per launch, over rows, in the port's dialect.
struct Targets {
    flavor: Flavor,
    ctx: SimContext,
}

impl Targets {
    fn env(&self) -> DeviceEnv<'_> {
        DeviceEnv::new(&self.ctx, parpool::global_static(), self.flavor)
    }
}

impl Launch for Targets {
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        _: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        let rows = bx.rows();
        self.env()
            .target_parallel_for(p, rows.len(), &|jj| body(bx.row(rows.start + jj)));
    }

    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        self.env().target_reduce_blocks(p, mesh.y_cells, body)
    }

    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        self.env().target_reduce_many(p, mesh.y_cells, &|jj| {
            let mut acc = [0.0; 4];
            body(jj, &mut acc);
            acc
        })
    }

    fn charge(&self, _: KernelId, p: &KernelProfile) {
        self.ctx.launch(p);
    }

    fn exec(&self) -> &dyn Executor {
        parpool::global_static()
    }
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
            launch: Targets { flavor, ctx },
            f,
        };
        // Highest-scope data region: density and energy move to the
        // device, the work arrays are device-allocated only.
        let bytes = (port.f.mesh.len() * 8) as u64;
        port.launch.env().enter_data(&[
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
        port
    }
}

impl TeaLeafPort for DirectivePort {
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
        // Each halo pass is still charged as its own small target region —
        // the paper's per-target overhead applies per field — but the ghost
        // writes execute as one batched pair of parallel regions.
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

    /// `energy` stays resident: the field summary reduces on the device
    /// and only scalars come back, as in the reference ports.
    fn finalise(&mut self) {
        self.f.finalise(&self.launch)
    }

    fn field_summary(&mut self) -> Summary {
        self.f.field_summary(&self.launch)
    }

    fn read_u(&mut self) -> Vec<f64> {
        let bytes = (self.f.mesh.len() * 8) as u64;
        self.launch
            .env()
            .exit_data(&[MapClause::new("u", bytes, MapDir::From)]);
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
