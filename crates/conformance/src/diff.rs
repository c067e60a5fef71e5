//! The differential executor: two ports in lock-step, with kernel-level
//! divergence bisection.
//!
//! A [`LockstepPort`] is a [`RecordingPort`] over a *reference* port with
//! the [`Lockstep`] hook: every kernel call the reference runs is
//! replayed on a *candidate* port ([`KernelCall::apply`]), then the
//! scalar results and the full solver field state are compared
//! bit-for-bit. The first mismatch is frozen as a [`DivergenceReport`]
//! naming the kernel, its invocation number, the solver iteration, the
//! field and the first differing cell with its ULP distance — the
//! bisection the paper's port-debugging workflow needed by hand.
//!
//! After a divergence the run *continues in lock-step*: the reference's
//! scalars drive the solver on both ports, so the candidate sees exactly
//! the reference's control flow and the report stays a pure function of
//! the first fault rather than of error propagation.
//!
//! A [`SabotagedPort`] is the same wrapper with the [`Sabotage`] hook,
//! which plants one known fault — the answer the harness must find.

use std::fmt;

use simdev::DeviceSpec;
use tea_core::compare::{first_divergence, hex_bits, ulp_distance, Divergence};
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tea_core::summary::Summary;
use tealeaf::ir::LoweringCaps;
use tealeaf::ports::{make_port, PortError};
use tealeaf::recorder::{CallHook, KernelCall, RecordingPort};
use tealeaf::{driver, ModelId, Problem, TeaLeafPort};

use crate::matrix::natural_device;

/// Kernels that mark the start of one solver iteration: `cg_calc_w`
/// (CG, the Chebyshev/PPCG presteps and every PPCG outer iteration),
/// `cheby_iterate` and `jacobi_iterate` — matching how
/// [`tealeaf::solver::SolveOutcome`] counts iterations.
const ITERATION_MARKS: [&str; 3] = ["cg_calc_w", "cheby_iterate", "jacobi_iterate"];

/// What exactly differed on the diverging kernel call.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// A solver field differs; `divergence` holds the first differing
    /// cell, both bit patterns and the ULP distance.
    Field {
        field: FieldId,
        divergence: Divergence,
    },
    /// The kernel's scalar reduction differs (fields may still agree —
    /// e.g. a broken reduction tree).
    Scalar {
        expected: f64,
        actual: f64,
        ulps: u64,
    },
    /// One component of the `field_summary` integrals differs.
    Summary {
        component: &'static str,
        expected: f64,
        actual: f64,
        ulps: u64,
    },
}

/// Where two lock-stepped ports first disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Kernel name (stable, from [`KernelCall::kernel_name`]).
    pub kernel: &'static str,
    /// 0-based position in the full kernel call sequence.
    pub call_index: usize,
    /// 1-based count of calls *to this kernel* so far.
    pub invocation: usize,
    /// Solver iterations begun up to and including this call.
    pub iteration: usize,
    pub mismatch: Mismatch,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at kernel `{}` (invocation {}, call {}, solver iteration {}): ",
            self.kernel, self.invocation, self.call_index, self.iteration
        )?;
        match &self.mismatch {
            Mismatch::Field { field, divergence } => write!(
                f,
                "field {:?} differs first at index {}: {} vs {} ({} ulps, {} cells differ)",
                field,
                divergence.index,
                hex_bits(divergence.expected),
                hex_bits(divergence.actual),
                divergence.ulps,
                divergence.count
            ),
            Mismatch::Scalar {
                expected,
                actual,
                ulps,
            } => write!(
                f,
                "scalar result differs: {} vs {} ({} ulps)",
                hex_bits(*expected),
                hex_bits(*actual),
                ulps
            ),
            Mismatch::Summary {
                component,
                expected,
                actual,
                ulps,
            } => write!(
                f,
                "summary component {component} differs: {} vs {} ({} ulps)",
                hex_bits(*expected),
                hex_bits(*actual),
                ulps
            ),
        }
    }
}

impl DivergenceReport {
    /// The report for a mismatch on the last call of `log`.
    fn at(log: &[KernelCall], mismatch: Mismatch) -> Self {
        let count = |names: &[&str]| {
            log.iter()
                .filter(|c| names.contains(&c.kernel_name()))
                .count()
        };
        let kernel = log.last().expect("a call was logged").kernel_name();
        DivergenceReport {
            kernel,
            call_index: log.len() - 1,
            invocation: count(&[kernel]),
            iteration: count(&ITERATION_MARKS),
            mismatch,
        }
    }
}

/// Two ports in lock-step: a [`RecordingPort`] over the reference port
/// whose [`Lockstep`] hook replays every call on the candidate.
pub type LockstepPort = RecordingPort<Lockstep>;

/// The lock-step hook: replays each call the reference just ran on the
/// candidate port and compares the two; the first mismatch is frozen.
pub struct Lockstep {
    candidate: Box<dyn TeaLeafPort>,
    divergence: Option<DivergenceReport>,
}

impl Lockstep {
    pub fn new(candidate: Box<dyn TeaLeafPort>) -> Self {
        Lockstep {
            candidate,
            divergence: None,
        }
    }

    /// The frozen first divergence, if any.
    pub fn divergence(&self) -> Option<&DivergenceReport> {
        self.divergence.as_ref()
    }

    /// Compare the two calls' results, then every solver field — except
    /// after `read_u`, whose output is itself the field compared.
    fn compare(
        &self,
        reference: &dyn TeaLeafPort,
        expected: &KernelCall,
        actual: &KernelCall,
    ) -> Option<Mismatch> {
        if let (KernelCall::ReadU { u: e }, KernelCall::ReadU { u: a }) = (expected, actual) {
            return first_divergence(e, a).map(|divergence| Mismatch::Field {
                field: FieldId::U,
                divergence,
            });
        }
        Self::compare_scalars(expected, actual).or_else(|| self.compare_fields(reference))
    }

    fn compare_scalars(expected: &KernelCall, actual: &KernelCall) -> Option<Mismatch> {
        if let (KernelCall::FieldSummary { summary: e }, KernelCall::FieldSummary { summary: a }) =
            (expected, actual)
        {
            for (component, ev, av) in [
                ("volume", e.volume, a.volume),
                ("mass", e.mass, a.mass),
                ("internal_energy", e.internal_energy, a.internal_energy),
                ("temperature", e.temperature, a.temperature),
            ] {
                let ulps = ulp_distance(ev, av);
                if ulps != 0 {
                    return Some(Mismatch::Summary {
                        component,
                        expected: ev,
                        actual: av,
                        ulps,
                    });
                }
            }
            return None;
        }
        let (e, a) = (expected.scalar_result()?, actual.scalar_result()?);
        let ulps = ulp_distance(e, a);
        (ulps != 0).then_some(Mismatch::Scalar {
            expected: e,
            actual: a,
            ulps,
        })
    }

    fn compare_fields(&self, reference: &dyn TeaLeafPort) -> Option<Mismatch> {
        for field in FieldId::STORED {
            let (Some(e), Some(a)) = (
                reference.inspect_field(field),
                self.candidate.inspect_field(field),
            ) else {
                continue;
            };
            assert_eq!(e.len(), a.len(), "ports solve different problems");
            if let Some(divergence) = first_divergence(&e, &a) {
                return Some(Mismatch::Field { field, divergence });
            }
        }
        None
    }
}

impl CallHook for Lockstep {
    fn after_call(
        &mut self,
        reference: &mut dyn TeaLeafPort,
        log: &[KernelCall],
        scalar: Option<f64>,
    ) -> Option<f64> {
        let call = log.last().expect("the hook runs after a call");
        let replayed = call.clone().apply(self.candidate.as_mut());
        if self.divergence.is_none() {
            self.divergence = self
                .compare(reference, call, &replayed)
                .map(|mismatch| DivergenceReport::at(log, mismatch));
        }
        scalar
    }

    // Deliberately default caps (no fused launches): both ports then run
    // `cg_calc_ur` and `cg_calc_p` as separate calls, giving two
    // comparison points per CG tail instead of one. The fused and unfused
    // schedules are bit-identical by the determinism contract, so this
    // costs nothing but localization precision gained.
    fn lowering_caps(&self, _inner: LoweringCaps) -> LoweringCaps {
        LoweringCaps::default()
    }

    fn poke(&mut self, id: FieldId, k: usize, value: f64) {
        self.candidate.poke_field(id, k, value);
    }
}

/// Result of one differential run.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    pub reference: ModelId,
    pub candidate: ModelId,
    pub solver: SolverKind,
    /// Total kernel calls both ports executed in lock-step.
    pub calls: usize,
    /// Solver iterations the (reference-driven) run took.
    pub iterations: usize,
    pub converged: bool,
    /// The reference port's field summary.
    pub summary: Summary,
    pub divergence: Option<DivergenceReport>,
}

impl fmt::Display for DiffOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {} ({}, {} kernel calls, {} iterations): ",
            self.reference.label(),
            self.candidate.label(),
            self.solver,
            self.calls,
            self.iterations
        )?;
        match &self.divergence {
            None => write!(f, "bit-identical"),
            Some(d) => write!(f, "{d}"),
        }
    }
}

/// Run two already-built ports in lock-step through the full driver.
pub fn diff_ports(
    reference: Box<dyn TeaLeafPort>,
    candidate: Box<dyn TeaLeafPort>,
    problem: &Problem,
    device: &DeviceSpec,
    config: &TeaConfig,
) -> DiffOutcome {
    let (ref_model, cand_model) = (reference.model(), candidate.model());
    let mut lockstep = RecordingPort::with_hook(reference, Lockstep::new(candidate));
    let report = driver::drive(&mut lockstep, problem, device, config);
    DiffOutcome {
        reference: ref_model,
        candidate: cand_model,
        solver: config.solver,
        calls: lockstep.seq(),
        iterations: report.total_iterations,
        converged: report.converged,
        summary: report.summary,
        divergence: lockstep.hook().divergence().cloned(),
    }
}

/// Build `reference` and `candidate` on their natural devices and run
/// them in lock-step on `config`.
pub fn diff_models(
    reference: ModelId,
    candidate: ModelId,
    config: &TeaConfig,
    seed: u64,
) -> Result<DiffOutcome, PortError> {
    let problem = Problem::from_config(config).expect("valid config");
    let ref_device = natural_device(reference);
    let ref_port = make_port(reference, ref_device.clone(), &problem, seed)?;
    let cand_port = make_port(candidate, natural_device(candidate), &problem, seed)?;
    Ok(diff_ports(
        ref_port,
        cand_port,
        &problem,
        &ref_device,
        config,
    ))
}

/// How a [`SabotagePlan`] corrupts the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageMode {
    /// Flip the low mantissa bit of `field[index]` — the smallest
    /// possible corruption, which the differential harness must still
    /// localize exactly.
    UlpFlip,
    /// Overwrite `field[index]` with NaN — the poison the resilience
    /// sentinels must catch as [`tealeaf::SolverHealth::NonFinite`]
    /// within a bounded number of iterations.
    PlantNan,
    /// Negate the kernel's returned scalar reduction (`field`/`index`
    /// are ignored) — models a sign-flipped α/β reaching the solver's
    /// control flow, the fault class field comparison alone cannot see.
    NegateScalar,
}

/// A fault to plant in an otherwise-correct port: after the
/// `invocation`-th call (1-based) of `kernel`, apply `mode`.
#[derive(Debug, Clone, Copy)]
pub struct SabotagePlan {
    pub kernel: &'static str,
    pub invocation: usize,
    pub field: FieldId,
    pub index: usize,
    pub mode: SabotageMode,
}

/// A port wrapper that executes a [`SabotagePlan`] — the known-answer
/// fault the harness must localize exactly (kernel, invocation, field,
/// index, 1 ulp): a [`RecordingPort`] with the [`Sabotage`] hook.
pub type SabotagedPort = RecordingPort<Sabotage>;

/// The hook that fires a [`SabotagePlan`] once, right after the planned
/// call. The log keeps the call's true result.
pub struct Sabotage {
    plan: SabotagePlan,
    fired: bool,
}

impl Sabotage {
    pub fn new(plan: SabotagePlan) -> Self {
        Sabotage { plan, fired: false }
    }

    /// Whether the planted fault has been injected yet.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl CallHook for Sabotage {
    fn after_call(
        &mut self,
        inner: &mut dyn TeaLeafPort,
        log: &[KernelCall],
        scalar: Option<f64>,
    ) -> Option<f64> {
        let plan = self.plan;
        let planned = |c: &KernelCall| c.kernel_name() == plan.kernel;
        if self.fired
            || !log.last().is_some_and(planned)
            || log.iter().filter(|c| planned(c)).count() != plan.invocation
        {
            return scalar;
        }
        let poison = match plan.mode {
            // Scalar sabotage rewrites the return value, not a field; a
            // call that returns no scalar cannot fire it.
            SabotageMode::NegateScalar => {
                self.fired = scalar.is_some();
                return scalar.map(|v| -v);
            }
            SabotageMode::UlpFlip => {
                let current = inner
                    .inspect_field(plan.field)
                    .expect("sabotaged field must be inspectable")[plan.index];
                f64::from_bits(current.to_bits() ^ 1)
            }
            SabotageMode::PlantNan => f64::NAN,
        };
        inner.poke_field(plan.field, plan.index, poison);
        self.fired = true;
        scalar
    }
}
