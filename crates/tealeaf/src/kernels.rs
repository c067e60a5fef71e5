//! The kernel set every programming-model port implements.
//!
//! The trait's methods are the kernels of the reference TeaLeaf,
//! one-for-one (`tea_leaf_cg_*`, `tea_leaf_cheby_*`, `tea_leaf_ppcg_*`,
//! `tea_leaf_jacobi_*`, `update_halo`, `field_summary`, …). The solver
//! drivers in [`crate::solver`] are written once against this trait; ports
//! differ only in *how* each kernel iterates, dispatches, transfers and is
//! charged — which is precisely the axis the paper evaluates.
//!
//! ## Determinism contract
//!
//! Every port must perform identical per-cell arithmetic (use the shared
//! helpers in [`crate::ports::common`]) and reduce with per-interior-row
//! partials combined in row order. Under that contract all ports produce
//! **bit-identical** fields and reductions, which the cross-port
//! integration tests assert. (The devices' real reduction strategies
//! differ, of course — that difference lives in the *cost model*, not in
//! the arithmetic.)

use simdev::SimContext;
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::model_id::ModelId;
use crate::resilience::{CutSnapshot, PhaseStart};

/// Which field a 2-norm is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormField {
    /// `‖u0‖²` — the right-hand side (initial) norm.
    U0,
    /// `‖r‖²` — the current residual.
    R,
}

/// One programming-model port of TeaLeaf.
pub trait TeaLeafPort {
    /// Which model this is.
    fn model(&self) -> ModelId;

    /// The simulated-device context the port charges.
    fn context(&self) -> &SimContext;

    /// Mutable access to the same context — how the driver installs a
    /// [`simdev::TelemetrySink`] on an already-constructed port. Wrapper
    /// ports (recorder, lock-step differ) delegate to their inner port so
    /// the sink lands on the context that actually charges.
    fn context_mut(&mut self) -> &mut SimContext;

    /// Set `u0 = energy·density`, `u = u0`, and build the scaled face
    /// coefficients `Kx`, `Ky` from the density field
    /// (`tea_leaf_common_init`).
    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64);

    /// Reflective halo update of `depth` ghost layers for each listed
    /// field (`update_halo`).
    fn halo_update(&mut self, fields: &[FieldId], depth: usize);

    // --- CG (tea_leaf_cg) ---

    /// `w = A·u`, `r = u0 − w`, `p = M⁻¹r` (or `r`); returns
    /// `rro = r·p`.
    fn cg_init(&mut self, preconditioner: bool) -> f64;

    /// `w = A·p`; returns `pw = p·w`.
    fn cg_calc_w(&mut self) -> f64;

    /// `u += α·p`, `r −= α·w`, optionally `z = M⁻¹r`; returns
    /// `rrn = r·r` (or `r·z`).
    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64;

    /// `p = (z|r) + β·p`.
    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool);

    /// [`cg_calc_ur`](TeaLeafPort::cg_calc_ur) for a caller that discards
    /// the reduction (the PPCG outer loop). The default runs the whole
    /// kernel, reduction included, as every node-level port does; an
    /// executor whose reductions are collectives skips the global sum.
    fn cg_update_ur(&mut self, alpha: f64, preconditioner: bool) {
        let _ = self.cg_calc_ur(alpha, preconditioner);
    }

    /// How this port lowers the shared kernel IR ([`crate::ir`]): which
    /// structural idioms its programming model can express. The solver
    /// drivers never ask "does port X fuse kernel Y" — they ask the IR
    /// whether a fusion is *legal* ([`crate::ir::legal_pair`]) and the
    /// port whether the idiom is *expressible*; the product of the two
    /// ([`crate::ir::fusion_active`]) decides the schedule. Ports that
    /// keep the default (no fused launches) retain the unfused schedule
    /// and its per-kernel cost charges.
    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        crate::ir::LoweringCaps::default()
    }

    /// Fused CG tail: `cg_calc_ur` (yielding `rrn`), then `β = rrn/rro`,
    /// then `cg_calc_p` — dispatched as **one** kernel launch on ports
    /// that support it. Returns `(rrn, β)`.
    ///
    /// A single data sweep is impossible (β depends on the completed
    /// reduction), so "fused" means one launch charge covering both
    /// sweeps, with the p-update running cache-hot right after the
    /// reduction. The per-cell arithmetic and the row-ordered reduction
    /// are exactly those of the unfused kernels, so the result is
    /// bit-identical either way; the default is the unfused fallback.
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let rrn = self.cg_calc_ur(alpha, preconditioner);
        let beta = rrn / rro;
        self.cg_calc_p(beta, preconditioner);
        (rrn, beta)
    }

    // --- Chebyshev (tea_leaf_cheby) ---

    /// First Chebyshev step: `w = A·u`, `r = u0 − w`, `p = r/θ`,
    /// `u += p`.
    fn cheby_init(&mut self, theta: f64);

    /// One Chebyshev iteration: `w = A·u`, `r = u0 − w`,
    /// `p = α·p + β·r`, `u += p`.
    fn cheby_iterate(&mut self, alpha: f64, beta: f64);

    // --- PPCG (tea_leaf_ppcg) ---

    /// `sd = r/θ` — start the inner smoothing sweep.
    fn ppcg_init_sd(&mut self, theta: f64);

    /// One inner step: `w = A·sd`, `r −= w`, `u += sd`,
    /// `sd = α·sd + β·r`.
    fn ppcg_inner(&mut self, alpha: f64, beta: f64);

    // --- Jacobi (tea_leaf_jacobi) ---

    /// One Jacobi sweep: save `u` (into `r` as scratch), recompute `u`
    /// from the neighbours; returns `Σ|Δu|`.
    fn jacobi_iterate(&mut self) -> f64;

    // --- shared ---

    /// `r = u0 − A·u` (`tea_leaf_calc_residual`).
    fn residual(&mut self);

    /// `Σ field²` over the interior (`tea_leaf_calc_2norm`).
    fn calc_2norm(&mut self, field: NormField) -> f64;

    /// `energy = u / density` (`tea_leaf_finalise`).
    fn finalise(&mut self);

    /// Volume/mass/internal-energy/temperature integrals
    /// (`field_summary`) — a 4-component reduction.
    fn field_summary(&mut self) -> Summary;

    /// Copy the temperature field back to the host (charged as a
    /// transfer on offload devices); padded row-major layout.
    fn read_u(&mut self) -> Vec<f64>;

    // --- conformance observation hooks ---

    /// Cost-free read-back of one solver field in padded row-major
    /// layout — the observation hook of the conformance harness
    /// (`tea-conformance`). Unlike [`read_u`](TeaLeafPort::read_u) this
    /// charges **nothing** to the simulated device, so a lock-step
    /// differential run observes exactly the same cost stream as a plain
    /// run. An alias reads the array it shares (`Mi` reads `Z`, see
    /// [`FieldId::slot`]); `None` means the port cannot read back.
    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>>;

    /// [`inspect_field`](TeaLeafPort::inspect_field) into a buffer the
    /// caller owns: on `true`, `out` holds exactly the field's padded
    /// storage; on `false` (a field the port does not store) its
    /// contents are unspecified. Ports override it with
    /// `out.clear(); out.extend_from_slice(..)`, so a checkpoint that
    /// recycles its buffers copies into memory that is already
    /// resident; the default allocates through `inspect_field`.
    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        match self.inspect_field(id) {
            Some(data) => {
                *out = data;
                true
            }
            None => false,
        }
    }

    /// Cost-free debug mutation of one cell of a solver field (padded
    /// row-major flat index `k`). Exists so the conformance suite can
    /// *plant* a fault in an otherwise-correct port and assert the
    /// differential harness localizes it; never called on production
    /// paths.
    fn poke_field(&mut self, id: FieldId, k: usize, value: f64);

    // --- checkpoint cuts (the resilience layer's hooks) ---

    /// Step cut: the step loop calls this at the top of every timestep,
    /// before [`init_fields`](TeaLeafPort::init_fields), with the run
    /// totals so far. The default keeps nothing.
    fn step_cut(&mut self, _step: usize, _total_iterations: usize, _converged: bool) {}

    /// Phase cut: [`PhaseGuard`](crate::resilience::PhaseGuard) calls
    /// this at every `tl_checkpoint_interval`-th loop top of the solve's
    /// `phase`-th CG phase. The answer says who keeps the rollback
    /// snapshot; the default leaves it to the guard.
    fn phase_cut(&mut self, _phase: u8, _cut: &PhaseStart) -> CutSnapshot {
        CutSnapshot::Fields
    }

    /// Restore the fields of the latest phase cut this port kept (only
    /// called after [`phase_cut`](TeaLeafPort::phase_cut) answered
    /// [`CutSnapshot::Port`]).
    fn restore_cut(&mut self) {
        unreachable!("{:?} keeps no checkpoint cuts", self.model())
    }
}

/// Run a halo update wrapped in a `halo` telemetry span covering the
/// exchange's simulated interval. With the sink disabled this is exactly
/// [`TeaLeafPort::halo_update`] — no formatting, no allocation — which is
/// how the driver and solvers call every halo on the hot path.
pub fn traced_halo(port: &mut dyn TeaLeafPort, fields: &[FieldId], depth: usize) {
    if !port.context().telemetry().enabled() {
        port.halo_update(fields, depth);
        return;
    }
    let ctx = port.context();
    let tel = ctx.telemetry().clone();
    let t0 = ctx.clock.seconds();
    port.halo_update(fields, depth);
    let names: Vec<&str> = fields.iter().map(|f| f.name()).collect();
    tel.complete_span(
        "halo",
        format_args!("halo {} depth={depth}", names.join("+")),
        t0,
        port.context().clock.seconds(),
    );
}
