//! The serial reference port.
//!
//! Plain nested loops over [`common::PortFields`], no parallel substrate,
//! no model crate. Every other port must produce bit-identical fields and
//! reductions to this one — it is the behavioural oracle of the test
//! suite. Its simulated-time profile mirrors the OpenMP C implementation
//! so its reports are still meaningful.

use std::ops::Range;

use parpool::{Executor, SerialExec};
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

/// Serial reference implementation of every TeaLeaf kernel.
pub struct SerialPort {
    launch: Loops,
    f: PortFields,
}

/// Plain loops over the interior rows on the calling thread, each launch
/// charged before it runs.
struct Loops {
    ctx: SimContext,
}

impl Launch for Loops {
    fn grid(
        &self,
        _: KernelId,
        p: &KernelProfile,
        _: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        self.ctx.launch(p);
        bx.rows().for_each(|j| body(bx.row(j)));
    }

    fn sum_rows(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        self.ctx.launch(p);
        SerialExec.run_sum_blocks(mesh.y_cells, body)
    }

    fn sum4(
        &self,
        _: KernelId,
        p: &KernelProfile,
        mesh: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        self.ctx.launch(p);
        let mut acc = [0.0; 4];
        for jj in 0..mesh.y_cells {
            let mut row = [0.0; 4];
            body(jj, &mut row);
            for k in 0..4 {
                acc[k] += row[k];
            }
        }
        acc
    }

    fn charge(&self, _: KernelId, p: &KernelProfile) {
        self.ctx.launch(p);
    }

    fn exec(&self) -> &dyn Executor {
        &SerialExec
    }
}

impl SerialPort {
    /// Build the port and install the problem's initial fields.
    pub fn new(device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let ctx = common::make_context(ModelId::Serial, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        SerialPort {
            launch: Loops { ctx },
            f,
        }
    }
}

impl TeaLeafPort for SerialPort {
    fn model(&self) -> ModelId {
        ModelId::Serial
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
        // One launch charge per field (unchanged), one batched update.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.launch.ctx.launch(&profile);
        }
        self.f.halo_batch(fields, depth, &parpool::SerialExec);
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
