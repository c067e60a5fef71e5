//! The serial reference port.
//!
//! Plain nested loops over [`common::PortFields`], no parallel substrate,
//! no model crate. Every other port must produce bit-identical fields and
//! reductions to this one — it is the behavioural oracle of the test
//! suite. Its simulated-time profile mirrors the OpenMP C implementation
//! so its reports are still meaningful.

use parpool::{Executor, SerialExec};
use simdev::{DeviceSpec, SimContext};
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, profiles, Pass, PortFields, Us};
use crate::problem::Problem;

/// Serial reference implementation of every TeaLeaf kernel.
pub struct SerialPort {
    ctx: SimContext,
    f: PortFields,
}

impl SerialPort {
    /// Build the port and install the problem's initial fields.
    pub fn new(device: DeviceSpec, problem: &Problem, seed: u64) -> Self {
        let ctx = common::make_context(ModelId::Serial, device, problem, seed);
        let f = PortFields::new(&problem.mesh, &problem.density, &problem.energy);
        SerialPort { ctx, f }
    }

    fn n(&self) -> u64 {
        profiles::cells(&self.f.mesh)
    }
}

impl TeaLeafPort for SerialPort {
    fn model(&self) -> ModelId {
        ModelId::Serial
    }

    fn context(&self) -> &SimContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::init_u0(self.n()));
        {
            let (u0, u) = (Us::new(&mut self.f.u0), Us::new(&mut self.f.u));
            for j in mesh.i0()..mesh.j1() {
                // SAFETY: single-threaded; rows written once.
                unsafe { common::row_init_u0(mesh, j, &self.f.density, &self.f.energy, &u0, &u) };
            }
        }
        self.ctx.launch(&profiles::init_coeffs(self.n()));
        {
            let (kx, ky) = (Us::new(&mut self.f.kx), Us::new(&mut self.f.ky));
            for j in mesh.i0()..=mesh.j1() {
                // SAFETY: single-threaded.
                unsafe {
                    common::row_init_coeffs(mesh, j, coefficient, rx, ry, &self.f.density, &kx, &ky)
                };
            }
        }
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        // One launch charge per field (unchanged), one batched update.
        let profile = profiles::halo(&self.f.mesh, depth);
        for _ in fields {
            self.ctx.launch(&profile);
        }
        self.f.halo_batch(fields, depth, &parpool::SerialExec);
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        self.ctx
            .launch(&profiles::cg_init(self.n(), preconditioner));
        let (w, r, p, z) = (
            Us::new(&mut self.f.w),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.p),
            Us::new(&mut self.f.z),
        );
        let (u, u0, kx, ky) = (&self.f.u, &self.f.u0, &self.f.kx, &self.f.ky);
        SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| unsafe {
            // SAFETY: single-threaded.
            common::block_cg_init(
                mesh,
                rows,
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
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::cg_calc_w(self.n()));
        let w = Us::new(&mut self.f.w);
        let (p, kx, ky) = (&self.f.p, &self.f.kx, &self.f.ky);
        SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| unsafe {
            // SAFETY: single-threaded.
            common::block_cg_calc_w(mesh, rows, Pass::Reduce(out), p, kx, ky, &w)
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let mesh = &self.f.mesh;
        self.ctx
            .launch(&profiles::cg_calc_ur(self.n(), preconditioner));
        let (u, r, z) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.z),
        );
        let (p, w, kx, ky) = (&self.f.p, &self.f.w, &self.f.kx, &self.f.ky);
        SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| unsafe {
            // SAFETY: single-threaded.
            common::block_cg_calc_ur(
                mesh,
                rows,
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
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::cg_calc_p(self.n()));
        let p = Us::new(&mut self.f.p);
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe {
                common::row_cg_calc_p(mesh, j, beta, preconditioner, &self.f.r, &self.f.z, &p)
            };
        }
    }

    fn cheby_init(&mut self, theta: f64) {
        self.cheby_step(true, theta, 0.0, 0.0);
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.cheby_step(false, 0.0, alpha, beta);
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::ppcg_init_sd(self.n()));
        let sd = Us::new(&mut self.f.sd);
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe { common::row_sd_init(mesh, j, theta, &self.f.r, &sd) };
        }
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let (p_w, p_upd) = profiles::fused_pair(
            crate::ir::FusionKind::PpcgInner,
            self.n(),
            false,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_w);
        {
            let w = Us::new(&mut self.f.w);
            for j in mesh.i0()..mesh.j1() {
                // SAFETY: single-threaded.
                unsafe { common::row_ppcg_w(mesh, j, &self.f.sd, &self.f.kx, &self.f.ky, &w) };
            }
        }
        self.ctx.launch(&p_upd);
        let (u, r, sd) = (
            Us::new(&mut self.f.u),
            Us::new(&mut self.f.r),
            Us::new(&mut self.f.sd),
        );
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe { common::row_ppcg_update(mesh, j, alpha, beta, &self.f.w, &u, &r, &sd) };
        }
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::jacobi_copy(self.n()));
        {
            let r = Us::new(&mut self.f.r);
            for j in mesh.i0()..mesh.j1() {
                // SAFETY: single-threaded.
                unsafe { common::row_jacobi_copy(mesh, j, &self.f.u, &r) };
            }
        }
        self.ctx.launch(&profiles::jacobi_iterate(self.n()));
        let u = Us::new(&mut self.f.u);
        let (u0, r, kx, ky) = (&self.f.u0, &self.f.r, &self.f.kx, &self.f.ky);
        SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| unsafe {
            // SAFETY: single-threaded.
            common::block_jacobi_iterate(mesh, rows, Pass::Reduce(out), u0, r, kx, ky, &u)
        })
    }

    fn residual(&mut self) {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::residual(self.n()));
        let r = Us::new(&mut self.f.r);
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe {
                common::row_residual(mesh, j, &self.f.u, &self.f.u0, &self.f.kx, &self.f.ky, &r)
            };
        }
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::norm(self.n()));
        let x = match field {
            NormField::U0 => &self.f.u0,
            NormField::R => &self.f.r,
        };
        SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| {
            common::block_norm(mesh, rows, Pass::Reduce(out), x)
        })
    }

    fn finalise(&mut self) {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::finalise(self.n()));
        let energy = Us::new(&mut self.f.energy);
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe { common::row_finalise(mesh, j, &self.f.u, &self.f.density, &energy) };
        }
    }

    fn field_summary(&mut self) -> Summary {
        let mesh = &self.f.mesh;
        self.ctx.launch(&profiles::field_summary(self.n()));
        let vol = mesh.cell_volume();
        let mut acc = [0.0; 4];
        for j in mesh.i0()..mesh.j1() {
            let row = common::row_summary(mesh, j, &self.f.density, &self.f.energy, &self.f.u, vol);
            for k in 0..4 {
                acc[k] += row[k];
            }
        }
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

impl SerialPort {
    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        let mesh = &self.f.mesh;
        let (p_p, p_u) = profiles::fused_pair(
            crate::ir::FusionKind::ChebyStep,
            self.n(),
            false,
            self.lowering_caps(),
        );
        self.ctx.launch(&p_p);
        {
            let (w, r, p) = (
                Us::new(&mut self.f.w),
                Us::new(&mut self.f.r),
                Us::new(&mut self.f.p),
            );
            for j in mesh.i0()..mesh.j1() {
                // SAFETY: single-threaded.
                unsafe {
                    common::row_cheby_calc_p(
                        mesh, j, first, theta, alpha, beta, &self.f.u, &self.f.u0, &self.f.kx,
                        &self.f.ky, &w, &r, &p,
                    )
                };
            }
        }
        self.ctx.launch(&p_u);
        let u = Us::new(&mut self.f.u);
        for j in mesh.i0()..mesh.j1() {
            // SAFETY: single-threaded.
            unsafe { common::row_add_p_to_u(mesh, j, &self.f.p, &u) };
        }
    }
}
