//! A timing wrapper around [`TeaLeafPort`], modelled on
//! `tealeaf::recorder::RecordingPort`: every trait call is forwarded
//! unchanged (including the lowering capabilities, so the solver schedule
//! is the bare port's) and its host duration is added to a per-call
//! tally. With a span sink installed, each call also lands as a host-time
//! span.

use std::collections::BTreeMap;
use std::time::Instant;

use simdev::SimContext;
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;
use tea_telemetry::TelemetrySink;
use tealeaf::ir::LoweringCaps;
use tealeaf::{ModelId, NormField, TeaLeafPort};

/// Calls and host nanoseconds spent in one trait method.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    pub ns: u64,
}

/// Per-method tallies, keyed by the trait method name.
pub type CallTally = BTreeMap<&'static str, CallStats>;

/// Host-time span sink plus the instant its timestamps count from.
#[derive(Clone)]
pub struct HostSpans {
    pub sink: TelemetrySink,
    pub epoch: Instant,
}

impl HostSpans {
    /// Seconds since the epoch (the span timestamp for `t`).
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }
}

pub struct TimingPort<'a> {
    inner: Box<dyn TeaLeafPort>,
    tally: &'a mut CallTally,
    spans: Option<HostSpans>,
}

impl<'a> TimingPort<'a> {
    /// Wrap `inner`, adding each call's duration to `tally`.
    pub fn new(
        inner: Box<dyn TeaLeafPort>,
        tally: &'a mut CallTally,
        spans: Option<HostSpans>,
    ) -> Self {
        TimingPort {
            inner,
            tally,
            spans,
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn TeaLeafPort) -> R) -> R {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        let t1 = Instant::now();
        let entry = self.tally.entry(name).or_default();
        entry.calls += 1;
        entry.ns += t1.duration_since(t0).as_nanos() as u64;
        if let Some(spans) = &self.spans {
            spans
                .sink
                .complete_span("port", format_args!("{name}"), spans.at(t0), spans.at(t1));
        }
        out
    }
}

impl TeaLeafPort for TimingPort<'_> {
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
        self.timed("init_fields", |p| p.init_fields(coefficient, rx, ry))
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.timed("halo_update", |p| p.halo_update(fields, depth))
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        self.timed("cg_init", |p| p.cg_init(preconditioner))
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.timed("cg_calc_w", |p| p.cg_calc_w())
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.timed("cg_calc_ur", |p| p.cg_calc_ur(alpha, preconditioner))
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.timed("cg_calc_p", |p| p.cg_calc_p(beta, preconditioner))
    }

    fn lowering_caps(&self) -> LoweringCaps {
        self.inner.lowering_caps()
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.timed("cg_fused_ur_p", |p| {
            p.cg_fused_ur_p(alpha, rro, preconditioner)
        })
    }

    fn cheby_init(&mut self, theta: f64) {
        self.timed("cheby_init", |p| p.cheby_init(theta))
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.timed("cheby_iterate", |p| p.cheby_iterate(alpha, beta))
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.timed("ppcg_init_sd", |p| p.ppcg_init_sd(theta))
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.timed("ppcg_inner", |p| p.ppcg_inner(alpha, beta))
    }

    fn jacobi_iterate(&mut self) -> f64 {
        self.timed("jacobi_iterate", |p| p.jacobi_iterate())
    }

    fn residual(&mut self) {
        self.timed("residual", |p| p.residual())
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.timed("calc_2norm", |p| p.calc_2norm(field))
    }

    fn finalise(&mut self) {
        self.timed("finalise", |p| p.finalise())
    }

    fn field_summary(&mut self) -> Summary {
        self.timed("field_summary", |p| p.field_summary())
    }

    fn read_u(&mut self) -> Vec<f64> {
        self.timed("read_u", |p| p.read_u())
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        self.inner.inspect_field(id)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.inner.poke_field(id, k, value);
    }
}
