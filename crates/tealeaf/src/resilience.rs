//! The resilience layer: numerical-health sentinels, field
//! checkpoint/rollback, and solver fallback chains.
//!
//! The paper's premise is that the *same* numerics must survive hostile
//! execution environments; this module makes the solve survive hostile
//! *numerics*. Three pieces:
//!
//! * [`Sentinel`] — cheap per-iteration health checks every solver runs
//!   on its residual stream: NaN/Inf, divergence beyond a configurable
//!   factor of the initial residual, and stagnation (no improvement on
//!   the best residual inside a window). Trips surface as typed
//!   [`SolverHealth`] events on [`crate::solver::SolveOutcome`].
//! * [`FieldCheckpoint`] — a bit-exact snapshot of the solve-relevant
//!   fields taken through the cost-free
//!   [`inspect_field`](TeaLeafPort::inspect_field) /
//!   [`poke_field`](TeaLeafPort::poke_field) hooks, so checkpointing is
//!   invisible to the simulated cost stream and a rolled-back replay is
//!   bit-identical to a run that never faulted. Snapshots own their
//!   memory and copy into it through
//!   [`inspect_field_into`](TeaLeafPort::inspect_field_into): a
//!   [`PhaseGuard`] recaptures its one snapshot in place, and a dropped
//!   snapshot leaves its buffers on a per-thread spare list for the next
//!   capture. A thread therefore holds at most two snapshot sets, live
//!   or spare (the solve-start baseline and the phase snapshot), and
//!   keeps the spare ones, sized for the largest mesh it captured, until
//!   it exits.
//! * [`run_with_recovery`] — the fallback-chain harness wrapped around
//!   [`crate::solver::solve`]: on a sentinel trip it restores the
//!   solve-start checkpoint and degrades along a configurable chain
//!   (retry the primary — with exponentially widened eigenvalue
//!   estimation windows for Chebyshev/PPCG — then CG, then Jacobi),
//!   with every action recorded as a [`RecoveryEvent`].
//!
//! The determinism contract carries over: sentinels are pure functions
//! of residual values, checkpoints capture exact bits, and recovery
//! actions replay the same arithmetic — so a *recovered* run of a
//! transient fault finishes bit-identical to the clean run.

use std::cell::RefCell;
use std::fmt;

use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;

use crate::kernels::TeaLeafPort;
use crate::solver::cg::CgHistory;
use crate::solver::{solve_once, SolveOutcome};

/// A numerical-health event observed during a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverHealth {
    /// The residual measure became NaN or ±Inf.
    NonFinite { iteration: usize },
    /// The residual grew beyond `tl_divergence_factor` times the
    /// initial residual.
    Diverging { iteration: usize, ratio: f64 },
    /// No improvement on the best residual for `window` consecutive
    /// observations.
    Stagnating { iteration: usize, window: usize },
    /// The recovery chain is exhausted; the solve is unrecoverable and
    /// the driver must stop stepping.
    Fatal { solver: SolverKind },
    /// A distributed world died: `rank` aborted with a transport
    /// diagnostic (injected kill, hopeless channel, exhausted deadline).
    /// The distributed resilience driver answers with a
    /// [`RecoveryAction::Restart`] or [`RecoveryAction::Regrid`].
    DistributedFault { rank: usize },
}

impl SolverHealth {
    /// Iteration the event fired at (0 for `Fatal`).
    pub fn iteration(&self) -> usize {
        match self {
            SolverHealth::NonFinite { iteration }
            | SolverHealth::Diverging { iteration, .. }
            | SolverHealth::Stagnating { iteration, .. } => *iteration,
            SolverHealth::Fatal { .. } | SolverHealth::DistributedFault { .. } => 0,
        }
    }

    /// True for [`SolverHealth::Fatal`].
    pub fn is_fatal(&self) -> bool {
        matches!(self, SolverHealth::Fatal { .. })
    }
}

impl fmt::Display for SolverHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverHealth::NonFinite { iteration } => {
                write!(f, "non-finite residual at iteration {iteration}")
            }
            SolverHealth::Diverging { iteration, ratio } => {
                write!(
                    f,
                    "diverging at iteration {iteration} ({ratio:.3e}× initial)"
                )
            }
            SolverHealth::Stagnating { iteration, window } => write!(
                f,
                "stagnating at iteration {iteration} (no improvement in {window} observations)"
            ),
            SolverHealth::Fatal { solver } => {
                write!(
                    f,
                    "unrecoverable: {} recovery chain exhausted",
                    solver.name()
                )
            }
            SolverHealth::DistributedFault { rank } => {
                write!(f, "rank {rank} lost (transport fault)")
            }
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::Rollback { to_iteration } => {
                write!(f, "rolled back to iteration {to_iteration}")
            }
            RecoveryAction::Retry { solver, presteps } => {
                write!(f, "retried {} with {presteps} presteps", solver.name())
            }
            RecoveryAction::Fallback { from, to } => {
                write!(f, "fell back {} → {}", from.name(), to.name())
            }
            RecoveryAction::Abort => write!(f, "aborted (chain exhausted)"),
            RecoveryAction::Restart { step, iteration } => {
                write!(
                    f,
                    "restarted world from checkpoint (step {step}, iteration {iteration})"
                )
            }
            RecoveryAction::Regrid { from, to } => {
                write!(
                    f,
                    "re-decomposed {}x{} → {}x{} on surviving ranks",
                    from.0, from.1, to.0, to.1
                )
            }
        }
    }
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {} — {}", self.step, self.trigger, self.action)
    }
}

/// What the recovery harness did in response to a sentinel trip.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// Restored an in-solve checkpoint and replayed from `to_iteration`.
    Rollback { to_iteration: usize },
    /// Restored the solve-start checkpoint and re-ran `solver` (for the
    /// Chebyshev family, with a widened `presteps` estimation window).
    Retry { solver: SolverKind, presteps: usize },
    /// Restored the solve-start checkpoint and degraded `from` → `to`.
    Fallback { from: SolverKind, to: SolverKind },
    /// Chain exhausted; the outcome is the last attempt's, unrecovered.
    Abort,
    /// Rebuilt the distributed world on the same tile grid and resumed
    /// every rank from the latest consistent checkpoint cut.
    Restart { step: usize, iteration: usize },
    /// Gathered the surviving tile state and re-tiled the mesh onto a
    /// smaller grid (`from` → `to`, as `(gx, gy)` tile counts).
    Regrid {
        from: (usize, usize),
        to: (usize, usize),
    },
}

/// One recovery action with its trigger, stamped by the driver with the
/// timestep it happened in.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Timestep (1-based; 0 until the driver stamps it).
    pub step: usize,
    /// The sentinel trip that forced the action.
    pub trigger: SolverHealth,
    /// What was done about it.
    pub action: RecoveryAction,
}

/// Per-iteration residual health checks. All state is a pure function
/// of the observed residual stream, so trips are deterministic and fire
/// identically on every port.
#[derive(Debug, Clone)]
pub struct Sentinel {
    divergence_factor: f64,
    stagnation_window: usize,
    initial: f64,
    best: f64,
    since_best: usize,
}

impl Sentinel {
    /// A sentinel with the deck's thresholds, not yet armed.
    pub fn new(config: &TeaConfig) -> Self {
        Sentinel {
            divergence_factor: config.tl_divergence_factor,
            stagnation_window: config.tl_stagnation_window,
            initial: 0.0,
            best: f64::INFINITY,
            since_best: 0,
        }
    }

    /// Arm the sentinel with the solve's initial residual measure.
    pub fn arm(&mut self, initial: f64) {
        self.initial = initial.abs();
        self.best = self.initial;
        self.since_best = 0;
    }

    /// Observe one residual measure; returns the sentinel trip, if any.
    /// `iteration` is the solver iteration the measure belongs to.
    pub fn observe(&mut self, iteration: usize, rrn: f64) -> Option<SolverHealth> {
        if !rrn.is_finite() {
            return Some(SolverHealth::NonFinite { iteration });
        }
        let mag = rrn.abs();
        if self.initial > 0.0 && mag > self.divergence_factor * self.initial {
            return Some(SolverHealth::Diverging {
                iteration,
                ratio: mag / self.initial,
            });
        }
        if mag < self.best {
            self.best = mag;
            self.since_best = 0;
        } else {
            self.since_best += 1;
            if self.stagnation_window > 0 && self.since_best >= self.stagnation_window {
                return Some(SolverHealth::Stagnating {
                    iteration,
                    window: self.stagnation_window,
                });
            }
        }
        None
    }
}

/// Fields a checkpoint must capture to make a solver replay bit-exact:
/// everything any of the four solvers reads or writes between
/// `init_fields` and `finalise` (halo cells included — the snapshots are
/// of the full padded storage).
pub const SOLVE_FIELDS: [FieldId; 9] = [
    FieldId::U,
    FieldId::U0,
    FieldId::P,
    FieldId::R,
    FieldId::W,
    FieldId::Z,
    FieldId::Sd,
    FieldId::Kx,
    FieldId::Ky,
];

/// A bit-exact snapshot of solver fields, captured and restored through
/// the cost-free observation hooks so it never perturbs the simulated
/// cost stream.
///
/// Snapshot memory is recycled: a [`PhaseGuard`] recaptures its snapshot
/// into the snapshot's own buffers, and a dropped snapshot hands
/// its buffers to a per-thread spare list that the next capture draws
/// from. Every copy after the first on a thread therefore lands in pages
/// that are already resident.
#[derive(Debug, Clone, Default)]
pub struct FieldCheckpoint {
    fields: Vec<(FieldId, Vec<f64>)>,
}

/// Most buffers a thread keeps for reuse: one solve-start baseline plus
/// one phase snapshot, the two sets [`run_with_recovery`] and its
/// [`PhaseGuard`] hold at once.
const SPARE_BUFFERS: usize = 2 * SOLVE_FIELDS.len();

thread_local! {
    static SPARE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// A buffer from this thread's spare list, if it holds one.
fn take_spare() -> Option<Vec<f64>> {
    SPARE
        .try_with(|spare| spare.borrow_mut().pop())
        .ok()
        .flatten()
}

/// Return `data` to this thread's spare list, or free it when the list
/// is full or the thread is being torn down.
fn give_spare(data: Vec<f64>) {
    let _ = SPARE.try_with(move |spare| {
        let mut spare = spare.borrow_mut();
        if spare.len() < SPARE_BUFFERS {
            spare.push(data);
        }
    });
}

impl FieldCheckpoint {
    /// Snapshot every inspectable field in `ids`.
    pub fn capture(port: &dyn TeaLeafPort, ids: &[FieldId]) -> Self {
        let mut checkpoint = FieldCheckpoint::default();
        checkpoint.recapture(port, ids);
        checkpoint
    }

    /// Snapshot `ids` again, into this snapshot's own buffers (topped up
    /// from the spare list). A buffer from a different mesh is cleared
    /// and refilled to the field's length.
    fn recapture(&mut self, port: &dyn TeaLeafPort, ids: &[FieldId]) {
        self.recapture_with(ids, |id, out| port.inspect_field_into(id, out));
    }

    /// [`recapture`](FieldCheckpoint::recapture) over any field reader,
    /// so a test can stand in for a port's hook.
    fn recapture_with(
        &mut self,
        ids: &[FieldId],
        mut inspect: impl FnMut(FieldId, &mut Vec<f64>) -> bool,
    ) {
        let old = std::mem::replace(&mut self.fields, Vec::with_capacity(ids.len()));
        let mut own = old.into_iter().map(|(_, data)| data);
        for &id in ids {
            let mut data = own.next().or_else(take_spare).unwrap_or_default();
            if inspect(id, &mut data) {
                self.fields.push((id, data));
            } else {
                give_spare(data);
            }
        }
        own.for_each(give_spare);
    }

    /// Write every captured cell back, restoring the exact bits.
    pub fn restore(&self, port: &mut dyn TeaLeafPort) {
        for (id, data) in &self.fields {
            for (k, &value) in data.iter().enumerate() {
                port.poke_field(*id, k, value);
            }
        }
    }
}

impl Drop for FieldCheckpoint {
    fn drop(&mut self) {
        self.fields.drain(..).for_each(|(_, data)| give_spare(data));
    }
}

/// The loop-top state of a CG phase at a checkpoint cut: everything
/// besides the fields that [`crate::solver::cg::run_phase`] needs to
/// resume there bit-exactly. Every value is a global-reduction output or
/// a pure function of one, so all ranks of a distributed run hold the
/// same `PhaseStart` at the same cut.
#[derive(Debug, Clone)]
pub struct PhaseStart {
    /// Iterations the phase had completed.
    pub iteration: usize,
    /// The live residual measure.
    pub rro: f64,
    /// The phase's initial residual measure.
    pub initial: f64,
    /// The α/β history accumulated so far.
    pub history: CgHistory,
    /// The sentinel's window state.
    pub sentinel: Sentinel,
}

/// Who keeps the rollback snapshot of a phase-loop cut
/// ([`TeaLeafPort::phase_cut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutSnapshot {
    /// The guard snapshots [`SOLVE_FIELDS`] through the cost-free hooks.
    Fields,
    /// The port kept the cut; rollback goes through
    /// [`TeaLeafPort::restore_cut`].
    Port,
    /// No snapshot: the executor takes no field copies, so a trip bails.
    Off,
}

/// In-solve guard the CG-family phase loop drives: sentinel checks plus
/// K-iteration checkpoints with capped rollback. Shared by plain CG and
/// the Chebyshev/PPCG presteps through [`crate::solver::cg::run_phase`].
pub struct PhaseGuard {
    /// The sentinel the phase feeds.
    pub sentinel: Sentinel,
    checkpoint_interval: usize,
    rollback: bool,
    rollback_budget: usize,
    /// Phases started so far (1 for the solve's first `run_phase`).
    phase: u8,
    checkpoint: Option<PhaseCheckpoint>,
    /// Sentinel trips that ended (not rolled back within) the phase.
    pub events: Vec<SolverHealth>,
    /// Rollbacks performed inside the phase.
    pub recoveries: Vec<RecoveryEvent>,
}

/// The CG phase state a mid-solve rollback restores.
struct PhaseCheckpoint {
    cut: PhaseStart,
    /// `None` when the port keeps the cut itself.
    fields: Option<FieldCheckpoint>,
}

/// What [`PhaseGuard::on_residual`] tells the phase loop to do.
pub enum PhaseVerdict {
    /// Keep iterating.
    Continue,
    /// A checkpoint was restored: resume the loop from its cut.
    RolledBack(PhaseStart),
    /// Unrecoverable inside the phase: stop and surface the event.
    Bail,
}

impl PhaseGuard {
    /// A guard with the deck's thresholds and rollback budget. Cuts are
    /// offered to the port every `tl_checkpoint_interval` iterations on
    /// every deck; with `tl_resilience` off the guard keeps the sentinel
    /// but never snapshots or rolls back.
    pub fn new(config: &TeaConfig) -> Self {
        PhaseGuard {
            sentinel: Sentinel::new(config),
            checkpoint_interval: config.tl_checkpoint_interval,
            rollback: config.tl_resilience,
            rollback_budget: if config.tl_resilience {
                config.tl_max_recoveries
            } else {
                0
            },
            phase: 0,
            checkpoint: None,
            events: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Arm the sentinel at phase start.
    pub fn arm(&mut self, initial: f64) {
        self.phase += 1;
        self.sentinel.arm(initial);
    }

    /// Start a phase from a checkpoint cut instead of arming afresh: the
    /// sentinel resumes with the window state it had at the cut.
    pub fn resume(&mut self, start: &PhaseStart) {
        self.phase += 1;
        self.sentinel = start.sentinel.clone();
    }

    /// Called at the top of each phase iteration: every K iterations
    /// (including iteration 0, so the earliest fault is recoverable)
    /// offer the port a checkpoint cut and keep a rollback snapshot.
    pub fn maybe_checkpoint(
        &mut self,
        port: &mut dyn TeaLeafPort,
        iteration: usize,
        rro: f64,
        initial: f64,
        history: &CgHistory,
    ) {
        if self.checkpoint_interval == 0 || !iteration.is_multiple_of(self.checkpoint_interval) {
            return;
        }
        let cut = PhaseStart {
            iteration,
            rro,
            initial,
            history: history.clone(),
            sentinel: self.sentinel.clone(),
        };
        // The port sees every cut (a distributed rank's ring feeds world
        // restarts); only a rolling-back guard keeps a snapshot.
        let snapshot = port.phase_cut(self.phase, &cut);
        if !self.rollback {
            return;
        }
        let fields = match snapshot {
            CutSnapshot::Fields => {
                // Recapture over the previous snapshot, so a guard never
                // holds more than one set.
                let mut fields = self
                    .checkpoint
                    .take()
                    .and_then(|ck| ck.fields)
                    .unwrap_or_default();
                fields.recapture(port, &SOLVE_FIELDS);
                Some(fields)
            }
            CutSnapshot::Port => None,
            CutSnapshot::Off => {
                self.checkpoint = None;
                return;
            }
        };
        self.checkpoint = Some(PhaseCheckpoint { cut, fields });
        let ctx = port.context();
        ctx.telemetry().event(
            "checkpoint",
            format_args!("checkpoint @ iteration {iteration}"),
            ctx.clock.seconds(),
        );
    }

    /// Feed one residual observation; on a NaN/Inf or divergence trip
    /// with rollback budget left, restore the last checkpoint (the trip
    /// may be a transient fault a clean replay outruns). Stagnation is
    /// systematic — replaying identical arithmetic stagnates again — so
    /// it always bails to the fallback chain.
    pub fn on_residual(
        &mut self,
        port: &mut dyn TeaLeafPort,
        iteration: usize,
        rrn: f64,
    ) -> PhaseVerdict {
        let Some(event) = self.sentinel.observe(iteration, rrn) else {
            return PhaseVerdict::Continue;
        };
        {
            let ctx = port.context();
            ctx.telemetry()
                .event("sentinel", format_args!("{event}"), ctx.clock.seconds());
        }
        let transient = matches!(
            event,
            SolverHealth::NonFinite { .. } | SolverHealth::Diverging { .. }
        );
        if transient && self.rollback_budget > 0 {
            if let Some(ck) = self.checkpoint.take() {
                self.rollback_budget -= 1;
                match &ck.fields {
                    Some(fields) => fields.restore(port),
                    None => port.restore_cut(),
                }
                let cut = ck.cut.clone();
                self.sentinel = cut.sentinel.clone();
                self.recoveries.push(RecoveryEvent {
                    step: 0,
                    trigger: event,
                    action: RecoveryAction::Rollback {
                        to_iteration: cut.iteration,
                    },
                });
                let ctx = port.context();
                ctx.telemetry().event(
                    "recovery",
                    format_args!("rolled back to iteration {}", cut.iteration),
                    ctx.clock.seconds(),
                );
                let verdict = PhaseVerdict::RolledBack(cut);
                self.checkpoint = Some(ck);
                return verdict;
            }
        }
        self.events.push(event);
        PhaseVerdict::Bail
    }
}

/// One attempt in the degradation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    solver: SolverKind,
    presteps: usize,
}

/// The degradation plan for a primary solver: the primary itself, then
/// `tl_max_recoveries` retries (Chebyshev/PPCG widen the eigenvalue
/// estimation window exponentially each retry — the bounds were probably
/// estimated from too few Lanczos steps), then the fallback chain
/// (configured, or PPCG/Chebyshev → CG → Jacobi, CG → Jacobi).
fn plan_attempts(config: &TeaConfig) -> Vec<Attempt> {
    let primary = config.solver;
    let eigen_family = matches!(primary, SolverKind::Chebyshev | SolverKind::Ppcg);
    let mut plan = vec![Attempt {
        solver: primary,
        presteps: config.tl_ch_cg_presteps,
    }];
    let mut presteps = config.tl_ch_cg_presteps;
    for _ in 0..config.tl_max_recoveries {
        if eigen_family {
            presteps = (presteps * 2).min(config.tl_max_iters);
        }
        plan.push(Attempt {
            solver: primary,
            presteps,
        });
        if !eigen_family {
            break; // one deterministic re-run is enough for CG/Jacobi
        }
        if presteps == config.tl_max_iters {
            break; // the window cannot widen further
        }
    }
    let fallbacks: Vec<SolverKind> = if config.tl_fallback_chain.is_empty() {
        match primary {
            SolverKind::Ppcg | SolverKind::Chebyshev => {
                vec![SolverKind::ConjugateGradient, SolverKind::Jacobi]
            }
            SolverKind::ConjugateGradient => vec![SolverKind::Jacobi],
            SolverKind::Jacobi => Vec::new(),
        }
    } else {
        config.tl_fallback_chain.clone()
    };
    for solver in fallbacks {
        if solver != primary {
            plan.push(Attempt {
                solver,
                presteps: config.tl_ch_cg_presteps,
            });
        }
    }
    plan
}

/// True when the attempt ended without any sentinel trip (converged or
/// merely out of budget — plain non-convergence is not a health event
/// and must not trigger degradation, preserving pre-resilience
/// behaviour for legitimately hard problems).
fn healthy(outcome: &SolveOutcome) -> bool {
    outcome.health.is_empty()
}

/// Run the configured solver under the recovery harness: capture the
/// solve-start checkpoint, attempt the degradation plan in order, and
/// accumulate every health event and recovery action onto the returned
/// outcome. On healthy runs this is numerically inert — the checkpoint
/// capture reads cost-free hooks and the first attempt is exactly the
/// plain solve.
pub fn run_with_recovery(port: &mut dyn TeaLeafPort, config: &TeaConfig) -> SolveOutcome {
    let baseline = FieldCheckpoint::capture(port, &SOLVE_FIELDS);
    let plan = plan_attempts(config);
    let mut health: Vec<SolverHealth> = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut last: Option<SolveOutcome> = None;

    for (i, attempt) in plan.iter().enumerate() {
        if i > 0 {
            // The previous attempt tripped: restore the pristine solve
            // state and record what we are about to do about it.
            baseline.restore(port);
            let trigger = health.last().cloned().unwrap_or(SolverHealth::Fatal {
                solver: config.solver,
            });
            let action = if attempt.solver == config.solver {
                RecoveryAction::Retry {
                    solver: attempt.solver,
                    presteps: attempt.presteps,
                }
            } else {
                RecoveryAction::Fallback {
                    from: config.solver,
                    to: attempt.solver,
                }
            };
            let ctx = port.context();
            ctx.telemetry().event(
                "recovery",
                format_args!("{trigger} — {action}"),
                ctx.clock.seconds(),
            );
            recoveries.push(RecoveryEvent {
                step: 0,
                trigger,
                action,
            });
        }
        let mut cfg = config.clone();
        cfg.solver = attempt.solver;
        cfg.tl_ch_cg_presteps = attempt.presteps;
        let mut outcome = solve_once(port, &cfg, None);
        recoveries.append(&mut outcome.recoveries);
        if healthy(&outcome) {
            outcome.health = health;
            outcome.recoveries = recoveries;
            return outcome;
        }
        health.append(&mut outcome.health);
        last = Some(outcome);
    }

    // Chain exhausted: surface the failure loudly and typed.
    let trigger = health.last().cloned().unwrap_or(SolverHealth::Fatal {
        solver: config.solver,
    });
    recoveries.push(RecoveryEvent {
        step: 0,
        trigger,
        action: RecoveryAction::Abort,
    });
    health.push(SolverHealth::Fatal {
        solver: config.solver,
    });
    {
        let ctx = port.context();
        ctx.telemetry().event(
            "recovery",
            format_args!("aborted: {} recovery chain exhausted", config.solver.name()),
            ctx.clock.seconds(),
        );
    }
    let mut outcome = last.expect("plan always has at least one attempt");
    outcome.converged = false;
    outcome.health = health;
    outcome.recoveries = recoveries;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TeaConfig {
        TeaConfig::paper_problem(16)
    }

    #[test]
    fn sentinel_trips_on_nan_and_inf() {
        let mut s = Sentinel::new(&config());
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.5), None);
        assert!(matches!(
            s.observe(2, f64::NAN),
            Some(SolverHealth::NonFinite { iteration: 2 })
        ));
        assert!(matches!(
            s.observe(3, f64::INFINITY),
            Some(SolverHealth::NonFinite { iteration: 3 })
        ));
    }

    #[test]
    fn sentinel_trips_on_divergence_beyond_factor() {
        let mut cfg = config();
        cfg.tl_divergence_factor = 1.0e3;
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 999.0), None);
        let trip = s.observe(2, 1.5e3);
        let Some(SolverHealth::Diverging { iteration, ratio }) = trip else {
            panic!("expected divergence, got {trip:?}");
        };
        assert_eq!(iteration, 2);
        assert!((ratio - 1.5e3).abs() < 1e-9);
    }

    #[test]
    fn sentinel_trips_on_stagnation_within_window() {
        let mut cfg = config();
        cfg.tl_stagnation_window = 3;
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.9), None); // improves
        assert_eq!(s.observe(2, 0.95), None);
        assert_eq!(s.observe(3, 0.95), None);
        assert!(matches!(
            s.observe(4, 0.95),
            Some(SolverHealth::Stagnating {
                iteration: 4,
                window: 3
            })
        ));
        // improvement resets the window
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.9), None);
        assert_eq!(s.observe(2, 0.95), None);
        assert_eq!(s.observe(3, 0.8), None);
        assert_eq!(s.observe(4, 0.85), None);
        assert_eq!(s.observe(5, 0.85), None);
        assert!(s.observe(6, 0.85).is_some());
    }

    #[test]
    fn sentinel_never_trips_on_a_decreasing_residual() {
        let mut s = Sentinel::new(&config());
        s.arm(100.0);
        let mut rrn = 100.0;
        for i in 1..=10_000 {
            rrn *= 0.999;
            assert_eq!(s.observe(i, rrn), None, "iteration {i}");
        }
    }

    fn serial_port(cells: usize) -> crate::ports::serial::SerialPort {
        let problem = crate::Problem::from_config(&TeaConfig::paper_problem(cells)).unwrap();
        crate::ports::serial::SerialPort::new(simdev::devices::cpu_xeon_e5_2670_x2(), &problem, 1)
    }

    fn snapshot(port: &dyn TeaLeafPort) -> Vec<Vec<f64>> {
        SOLVE_FIELDS
            .iter()
            .map(|&id| port.inspect_field(id).unwrap())
            .collect()
    }

    /// Overwrite every cell of every solve field.
    fn scramble(port: &mut dyn TeaLeafPort, salt: f64) {
        for (&id, data) in SOLVE_FIELDS.iter().zip(snapshot(port)) {
            for k in 0..data.len() {
                port.poke_field(id, k, salt - k as f64);
            }
        }
    }

    /// This thread's spare list, emptied so a test starts from nothing.
    fn clear_spares() {
        SPARE.with(|spare| spare.borrow_mut().clear());
    }

    fn spare_len() -> usize {
        SPARE.with(|spare| spare.borrow().len())
    }

    #[test]
    fn recycled_buffers_from_a_larger_mesh_restore_the_smaller_mesh() {
        clear_spares();
        let large = serial_port(24);
        let ck = FieldCheckpoint::capture(&large, &SOLVE_FIELDS);
        drop(ck);
        assert_eq!(spare_len(), SOLVE_FIELDS.len());

        let mut small = serial_port(12);
        let want = snapshot(&small);
        let ck = FieldCheckpoint::capture(&small, &SOLVE_FIELDS);
        assert_eq!(spare_len(), 0, "the capture drew every spare buffer");
        scramble(&mut small, 7.0);
        ck.restore(&mut small);
        for ((&id, got), want) in SOLVE_FIELDS.iter().zip(snapshot(&small)).zip(&want) {
            assert_eq!(got.len(), want.len(), "{id:?} length");
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{id:?} bits"
            );
        }
        for (_, data) in &ck.fields {
            assert_eq!(
                data.len(),
                want[0].len(),
                "buffer refilled to the new length"
            );
        }

        // Three live sets drop back into a list bounded at two.
        let extra = [
            FieldCheckpoint::capture(&small, &SOLVE_FIELDS),
            FieldCheckpoint::capture(&small, &SOLVE_FIELDS),
        ];
        drop(ck);
        drop(extra);
        assert_eq!(spare_len(), SPARE_BUFFERS);
    }

    #[test]
    fn recapture_in_place_restores_the_new_bits() {
        clear_spares();
        let mut port = serial_port(16);
        let mut ck = FieldCheckpoint::capture(&port, &SOLVE_FIELDS);
        let buffers: Vec<*const f64> = ck.fields.iter().map(|(_, d)| d.as_ptr()).collect();

        scramble(&mut port, 3.0);
        let want = snapshot(&port);
        ck.recapture(&port, &SOLVE_FIELDS);
        let reused: Vec<*const f64> = ck.fields.iter().map(|(_, d)| d.as_ptr()).collect();
        assert_eq!(reused, buffers, "recapture copies into its own buffers");
        assert_eq!(spare_len(), 0);

        scramble(&mut port, -5.0);
        ck.restore(&mut port);
        let got = snapshot(&port);
        for ((&id, got), want) in SOLVE_FIELDS.iter().zip(&got).zip(&want) {
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{id:?} restored the old bits"
            );
        }
    }

    #[test]
    fn an_uninspectable_field_is_omitted_and_its_buffer_spared() {
        clear_spares();
        let fill = |id: FieldId, out: &mut Vec<f64>| {
            out.clear();
            out.extend(std::iter::repeat_n(id as usize as f64, 8));
            true
        };
        let mut ck = FieldCheckpoint::default();
        ck.recapture_with(&SOLVE_FIELDS, fill);
        assert_eq!(ck.fields.len(), SOLVE_FIELDS.len());

        ck.recapture_with(&SOLVE_FIELDS, |id, out| id != FieldId::Z && fill(id, out));
        let ids: Vec<FieldId> = ck.fields.iter().map(|(id, _)| *id).collect();
        let mut want = SOLVE_FIELDS.to_vec();
        want.retain(|&id| id != FieldId::Z);
        assert_eq!(ids, want);
        assert_eq!(spare_len(), 1, "the omitted field's buffer is spared");

        drop(ck);
        assert_eq!(spare_len(), SOLVE_FIELDS.len());
    }

    #[test]
    fn default_plan_degrades_ppcg_to_cg_to_jacobi() {
        let mut cfg = config();
        cfg.solver = SolverKind::Ppcg;
        cfg.tl_ch_cg_presteps = 10;
        cfg.tl_max_recoveries = 2;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(
            solvers,
            vec![
                SolverKind::Ppcg,
                SolverKind::Ppcg,
                SolverKind::Ppcg,
                SolverKind::ConjugateGradient,
                SolverKind::Jacobi
            ]
        );
        // exponential backoff on the estimation window
        assert_eq!(plan[0].presteps, 10);
        assert_eq!(plan[1].presteps, 20);
        assert_eq!(plan[2].presteps, 40);
    }

    #[test]
    fn explicit_fallback_chain_overrides_default() {
        let mut cfg = config();
        cfg.solver = SolverKind::ConjugateGradient;
        cfg.tl_fallback_chain = vec![SolverKind::Jacobi];
        cfg.tl_max_recoveries = 1;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(
            solvers,
            vec![
                SolverKind::ConjugateGradient,
                SolverKind::ConjugateGradient,
                SolverKind::Jacobi
            ]
        );
    }

    #[test]
    fn jacobi_has_no_fallback_but_one_retry() {
        let mut cfg = config();
        cfg.solver = SolverKind::Jacobi;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(solvers, vec![SolverKind::Jacobi, SolverKind::Jacobi]);
    }

    #[test]
    fn presteps_backoff_caps_at_max_iters() {
        let mut cfg = config();
        cfg.solver = SolverKind::Chebyshev;
        cfg.tl_ch_cg_presteps = 30;
        cfg.tl_max_iters = 100;
        cfg.tl_max_recoveries = 10;
        let plan = plan_attempts(&cfg);
        let retries: Vec<usize> = plan
            .iter()
            .filter(|a| a.solver == SolverKind::Chebyshev)
            .map(|a| a.presteps)
            .collect();
        assert_eq!(retries, vec![30, 60, 100]);
    }
}
