//! Recording wrapper around [`TeaLeafPort`] — the one forwarding layer of
//! the conformance harness.
//!
//! [`RecordingPort`] turns every kernel invocation into a [`KernelCall`]
//! carrying all of the call's arguments, [applies](KernelCall::apply) it
//! to an inner port unchanged (the fusion caps are forwarded too, so the
//! solver schedule is exactly what the bare port would see), appends the
//! completed call, results filled in, to an in-memory log, and then runs
//! a [`CallHook`]. With the default hook `()` the wrapper is
//! bit-transparent. The differential executor in `tea-conformance` is
//! two hooks on this wrapper — one replays every logged call on a second
//! port and compares, one plants a known fault — and the log indexes
//! "which kernel, which invocation" for both.

use simdev::SimContext;
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::ir::LoweringCaps;
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;

/// One recorded kernel invocation: the trait call, all its arguments and
/// its results — a record that can be replayed on another port with
/// [`KernelCall::apply`]. Field state lives in the port, observed
/// separately via [`TeaLeafPort::inspect_field`].
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCall {
    /// `init_fields(coefficient, rx, ry)`.
    InitFields {
        coefficient: Coefficient,
        rx: f64,
        ry: f64,
    },
    /// `halo_update(fields, depth)`.
    HaloUpdate { fields: Vec<FieldId>, depth: usize },
    /// `cg_init(preconditioner)` returning `rro`.
    CgInit { preconditioner: bool, rro: f64 },
    /// `cg_calc_w` returning `pw`.
    CgCalcW { pw: f64 },
    /// `cg_calc_ur(alpha, preconditioner)` returning `rrn`.
    CgCalcUr {
        alpha: f64,
        preconditioner: bool,
        rrn: f64,
    },
    /// `cg_calc_p(beta, preconditioner)`.
    CgCalcP { beta: f64, preconditioner: bool },
    /// `cg_fused_ur_p(alpha, rro, preconditioner)` returning
    /// `(rrn, beta)`.
    CgFusedUrP {
        alpha: f64,
        rro: f64,
        preconditioner: bool,
        rrn: f64,
        beta: f64,
    },
    /// `cheby_init(theta)`.
    ChebyInit { theta: f64 },
    /// `cheby_iterate(alpha, beta)`.
    ChebyIterate { alpha: f64, beta: f64 },
    /// `ppcg_init_sd(theta)`.
    PpcgInitSd { theta: f64 },
    /// `ppcg_inner(alpha, beta)`.
    PpcgInner { alpha: f64, beta: f64 },
    /// `jacobi_iterate` returning `Σ|Δu|`.
    JacobiIterate { err: f64 },
    /// `residual`.
    Residual,
    /// `calc_2norm(field)` returning the norm.
    Calc2Norm { field: NormField, norm: f64 },
    /// `finalise`.
    Finalise,
    /// `field_summary` returning the integrals.
    FieldSummary { summary: Summary },
    /// `read_u` returning the temperature field.
    ReadU { u: Vec<f64> },
}

impl KernelCall {
    /// Stable kernel name for reports (matches the profile names used in
    /// the cost model where one exists).
    pub fn kernel_name(&self) -> &'static str {
        match self {
            KernelCall::InitFields { .. } => "init_fields",
            KernelCall::HaloUpdate { .. } => "halo_update",
            KernelCall::CgInit { .. } => "cg_init",
            KernelCall::CgCalcW { .. } => "cg_calc_w",
            KernelCall::CgCalcUr { .. } => "cg_calc_ur",
            KernelCall::CgCalcP { .. } => "cg_calc_p",
            KernelCall::CgFusedUrP { .. } => "cg_fused_ur_p",
            KernelCall::ChebyInit { .. } => "cheby_init",
            KernelCall::ChebyIterate { .. } => "cheby_iterate",
            KernelCall::PpcgInitSd { .. } => "ppcg_init_sd",
            KernelCall::PpcgInner { .. } => "ppcg_inner",
            KernelCall::JacobiIterate { .. } => "jacobi_iterate",
            KernelCall::Residual => "residual",
            KernelCall::Calc2Norm { .. } => "calc_2norm",
            KernelCall::Finalise => "finalise",
            KernelCall::FieldSummary { .. } => "field_summary",
            KernelCall::ReadU { .. } => "read_u",
        }
    }

    /// The scalar result the call produced, when it has one — the first
    /// thing two lock-stepped ports are compared on.
    pub fn scalar_result(&self) -> Option<f64> {
        match *self {
            KernelCall::CgInit { rro, .. } => Some(rro),
            KernelCall::CgCalcW { pw } => Some(pw),
            KernelCall::CgCalcUr { rrn, .. } => Some(rrn),
            KernelCall::CgFusedUrP { rrn, .. } => Some(rrn),
            KernelCall::JacobiIterate { err } => Some(err),
            KernelCall::Calc2Norm { norm, .. } => Some(norm),
            _ => None,
        }
    }

    /// Run the call's kernel on `port` with the arguments it carries and
    /// return the call with its results filled in (the result fields of
    /// `self` are overwritten, never read).
    pub fn apply(mut self, port: &mut dyn TeaLeafPort) -> KernelCall {
        match &mut self {
            KernelCall::InitFields {
                coefficient,
                rx,
                ry,
            } => port.init_fields(*coefficient, *rx, *ry),
            KernelCall::HaloUpdate { fields, depth } => port.halo_update(fields, *depth),
            KernelCall::CgInit {
                preconditioner,
                rro,
            } => *rro = port.cg_init(*preconditioner),
            KernelCall::CgCalcW { pw } => *pw = port.cg_calc_w(),
            KernelCall::CgCalcUr {
                alpha,
                preconditioner,
                rrn,
            } => *rrn = port.cg_calc_ur(*alpha, *preconditioner),
            KernelCall::CgCalcP {
                beta,
                preconditioner,
            } => port.cg_calc_p(*beta, *preconditioner),
            KernelCall::CgFusedUrP {
                alpha,
                rro,
                preconditioner,
                rrn,
                beta,
            } => (*rrn, *beta) = port.cg_fused_ur_p(*alpha, *rro, *preconditioner),
            KernelCall::ChebyInit { theta } => port.cheby_init(*theta),
            KernelCall::ChebyIterate { alpha, beta } => port.cheby_iterate(*alpha, *beta),
            KernelCall::PpcgInitSd { theta } => port.ppcg_init_sd(*theta),
            KernelCall::PpcgInner { alpha, beta } => port.ppcg_inner(*alpha, *beta),
            KernelCall::JacobiIterate { err } => *err = port.jacobi_iterate(),
            KernelCall::Residual => port.residual(),
            KernelCall::Calc2Norm { field, norm } => *norm = port.calc_2norm(*field),
            KernelCall::Finalise => port.finalise(),
            KernelCall::FieldSummary { summary } => *summary = port.field_summary(),
            KernelCall::ReadU { u } => *u = port.read_u(),
        }
        self
    }
}

/// What a [`RecordingPort`] does beyond forwarding and logging. Every
/// method defaults to plain forwarding, which is the `()` hook.
pub trait CallHook {
    /// Runs after each call was applied to `inner` and logged (`log` ends
    /// with it). May poke `inner`'s fields. Returns the scalar result the
    /// caller sees; `scalar` is the call's own, which the log keeps.
    fn after_call(
        &mut self,
        _inner: &mut dyn TeaLeafPort,
        _log: &[KernelCall],
        scalar: Option<f64>,
    ) -> Option<f64> {
        scalar
    }

    /// The lowering caps the solver sees, given the inner port's.
    fn lowering_caps(&self, inner: LoweringCaps) -> LoweringCaps {
        inner
    }

    /// Sees every [`TeaLeafPort::poke_field`] after it reached the inner
    /// port.
    fn poke(&mut self, _id: FieldId, _k: usize, _value: f64) {}
}

impl CallHook for () {}

/// A [`TeaLeafPort`] that logs every kernel invocation while forwarding
/// it to the wrapped port, then runs its hook `H` — bit-transparently
/// with the default `()`.
pub struct RecordingPort<H: CallHook = ()> {
    inner: Box<dyn TeaLeafPort>,
    log: Vec<KernelCall>,
    hook: H,
}

impl RecordingPort {
    /// Wrap `inner`; the log starts empty.
    pub fn new(inner: Box<dyn TeaLeafPort>) -> Self {
        RecordingPort::with_hook(inner, ())
    }
}

impl<H: CallHook> RecordingPort<H> {
    /// Wrap `inner` with `hook`; the log starts empty.
    pub fn with_hook(inner: Box<dyn TeaLeafPort>, hook: H) -> Self {
        RecordingPort {
            inner,
            log: Vec::new(),
            hook,
        }
    }

    /// The invocations recorded so far, in call order.
    pub fn log(&self) -> &[KernelCall] {
        &self.log
    }

    /// Number of invocations recorded so far (the sequence index the
    /// next call will get).
    pub fn seq(&self) -> usize {
        self.log.len()
    }

    /// The hook, for reading what it observed.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Apply `call` to the inner port, log it and run the hook; returns
    /// the logged call and the scalar result the caller sees.
    fn record(&mut self, call: KernelCall) -> (&KernelCall, Option<f64>) {
        let call = call.apply(self.inner.as_mut());
        let scalar = call.scalar_result();
        self.log.push(call);
        let scalar = self.hook.after_call(self.inner.as_mut(), &self.log, scalar);
        (&self.log[self.log.len() - 1], scalar)
    }

    /// [`record`](Self::record) for a kernel that returns one scalar.
    fn scalar(&mut self, call: KernelCall) -> f64 {
        self.record(call)
            .1
            .expect("a reduction kernel returns a scalar")
    }
}

impl<H: CallHook> TeaLeafPort for RecordingPort<H> {
    fn model(&self) -> ModelId {
        self.inner.model()
    }

    fn context(&self) -> &SimContext {
        self.inner.context()
    }

    fn context_mut(&mut self) -> &mut SimContext {
        self.inner.context_mut()
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        self.record(KernelCall::InitFields {
            coefficient,
            rx,
            ry,
        });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.record(KernelCall::HaloUpdate {
            fields: fields.to_vec(),
            depth,
        });
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        self.scalar(KernelCall::CgInit {
            preconditioner,
            rro: 0.0,
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.scalar(KernelCall::CgCalcW { pw: 0.0 })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.scalar(KernelCall::CgCalcUr {
            alpha,
            preconditioner,
            rrn: 0.0,
        })
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.record(KernelCall::CgCalcP {
            beta,
            preconditioner,
        });
    }

    fn lowering_caps(&self) -> LoweringCaps {
        self.hook.lowering_caps(self.inner.lowering_caps())
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let call = KernelCall::CgFusedUrP {
            alpha,
            rro,
            preconditioner,
            rrn: 0.0,
            beta: 0.0,
        };
        match self.record(call) {
            (KernelCall::CgFusedUrP { beta, .. }, Some(rrn)) => (rrn, *beta),
            _ => unreachable!("cg_fused_ur_p logs a CgFusedUrP"),
        }
    }

    fn cheby_init(&mut self, theta: f64) {
        self.record(KernelCall::ChebyInit { theta });
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.record(KernelCall::ChebyIterate { alpha, beta });
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.record(KernelCall::PpcgInitSd { theta });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.record(KernelCall::PpcgInner { alpha, beta });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        self.scalar(KernelCall::JacobiIterate { err: 0.0 })
    }

    fn residual(&mut self) {
        self.record(KernelCall::Residual);
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.scalar(KernelCall::Calc2Norm { field, norm: 0.0 })
    }

    fn finalise(&mut self) {
        self.record(KernelCall::Finalise);
    }

    fn field_summary(&mut self) -> Summary {
        let call = KernelCall::FieldSummary {
            summary: Summary::default(),
        };
        match self.record(call).0 {
            KernelCall::FieldSummary { summary } => *summary,
            _ => unreachable!("field_summary logs a FieldSummary"),
        }
    }

    fn read_u(&mut self) -> Vec<f64> {
        match self.record(KernelCall::ReadU { u: Vec::new() }).0 {
            KernelCall::ReadU { u } => u.clone(),
            _ => unreachable!("read_u logs a ReadU"),
        }
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        self.inner.inspect_field(id)
    }

    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        self.inner.inspect_field_into(id, out)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.inner.poke_field(id, k, value);
        self.hook.poke(id, k, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::make_port;
    use crate::problem::Problem;
    use simdev::devices;
    use tea_core::config::{SolverKind, TeaConfig};

    fn config(solver: SolverKind) -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.solver = solver;
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    #[test]
    fn recording_is_transparent_and_logs_the_cg_schedule() {
        let cpu = devices::cpu_xeon_e5_2670_x2();
        let cfg = config(SolverKind::ConjugateGradient);
        let problem = Problem::from_config(&cfg).expect("valid config");

        let mut bare = make_port(ModelId::Serial, cpu.clone(), &problem, 1).unwrap();
        let plain = crate::driver::drive(bare.as_mut(), &problem, &cpu, &cfg);

        let inner = make_port(ModelId::Serial, cpu.clone(), &problem, 1).unwrap();
        let mut recorded = RecordingPort::new(inner);
        let wrapped = crate::driver::drive(&mut recorded, &problem, &cpu, &cfg);

        assert_eq!(plain.summary, wrapped.summary, "wrapper changed numerics");
        assert_eq!(plain.total_iterations, wrapped.total_iterations);

        let log = recorded.log();
        assert!(log.len() > 4);
        assert!(matches!(log[0], KernelCall::HaloUpdate { depth: 2, .. }));
        assert!(log.iter().any(|c| matches!(c, KernelCall::CgInit { .. })));
        let n_w = log
            .iter()
            .filter(|c| c.kernel_name() == "cg_calc_w")
            .count();
        assert_eq!(
            n_w, wrapped.total_iterations,
            "one cg_calc_w per CG iteration"
        );
    }

    #[test]
    fn fused_capability_forwards() {
        let cpu = devices::cpu_xeon_e5_2670_x2();
        let cfg = config(SolverKind::ConjugateGradient);
        let problem = Problem::from_config(&cfg).expect("valid config");
        for model in [ModelId::Serial, ModelId::Cuda] {
            let device = if model == ModelId::Cuda {
                devices::gpu_k20x()
            } else {
                cpu.clone()
            };
            let inner = make_port(model, device, &problem, 1).unwrap();
            let caps = inner.lowering_caps();
            let rec = RecordingPort::new(inner);
            assert_eq!(rec.lowering_caps(), caps, "{model:?}");
        }
    }
}
