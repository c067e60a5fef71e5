//! Conjugate Gradient (`tea_leaf_cg`).

use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;

use crate::kernels::{traced_halo, TeaLeafPort};
use crate::resilience::{PhaseGuard, PhaseStart, PhaseVerdict};
use crate::solver::SolveOutcome;

/// The coefficient history a CG phase produces — the Lanczos data
/// Chebyshev and PPCG estimate eigenvalues from.
#[derive(Debug, Clone, Default)]
pub struct CgHistory {
    pub alphas: Vec<f64>,
    pub betas: Vec<f64>,
}

/// Run plain CG to convergence, or from `resume` on.
pub fn solve(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    resume: Option<PhaseStart>,
) -> SolveOutcome {
    let mut history = CgHistory::default();
    let mut guard = PhaseGuard::new(config);
    let (mut outcome, _) = run_phase(
        port,
        config.tl_preconditioner,
        config.tl_eps,
        config.tl_max_iters,
        &mut history,
        &mut guard,
        resume,
    );
    outcome.health = guard.events;
    outcome.recoveries = guard.recoveries;
    outcome
}

/// Run a CG phase for at most `max_iters` iterations, recording the α/β
/// history. Returns the outcome and `rro` after the last iteration (the
/// live residual measure, used when another solver continues from here).
///
/// The `guard` supplies the resilience hooks: it is armed with the
/// phase's initial residual, observes every `rrn`, captures a bit-exact
/// field checkpoint every `tl_checkpoint_interval` iterations, and on a
/// transient sentinel trip (NaN/Inf or divergence) rolls the phase back
/// to the last checkpoint — iteration counter, `rro` and the α/β history
/// included, so a recovered phase is indistinguishable from one that
/// never faulted. Sentinel trips that cannot be rolled back end the
/// phase and land in `guard.events`.
///
/// `start` resumes the phase at a checkpoint cut instead of running
/// `cg_init`: the port's fields must already hold the cut's state.
pub fn run_phase(
    port: &mut dyn TeaLeafPort,
    preconditioner: bool,
    eps: f64,
    max_iters: usize,
    history: &mut CgHistory,
    guard: &mut PhaseGuard,
    start: Option<PhaseStart>,
) -> (SolveOutcome, f64) {
    let tel = port.context().telemetry().clone();
    let (mut rro, initial, mut iterations) = match start {
        Some(cut) => {
            guard.resume(&cut);
            *history = cut.history;
            (cut.rro, cut.initial, cut.iteration)
        }
        None => {
            let rro = port.cg_init(preconditioner);
            guard.arm(rro);
            (rro, rro, 0)
        }
    };
    let mut converged = initial.abs() <= f64::MIN_POSITIVE; // trivially solved
    while !converged && iterations < max_iters {
        let iter_span = tel.open_span(
            "iteration",
            format_args!("cg iteration {}", iterations + 1),
            port.context().clock.seconds(),
        );
        guard.maybe_checkpoint(port, iterations, rro, initial, history);
        traced_halo(port, &[FieldId::P], 1);
        let pw = port.cg_calc_w();
        let alpha = rro / pw;
        // The IR says whether fusing the ur-update and p-update is legal;
        // the port's lowering caps say whether its model can express one
        // launch covering both. The arithmetic (and thus the α/β history
        // and every field) is bit-identical to the two-launch schedule.
        let (rrn, beta) =
            if crate::ir::fusion_active(port.lowering_caps(), crate::ir::FusionKind::CgTail) {
                port.cg_fused_ur_p(alpha, rro, preconditioner)
            } else {
                let rrn = port.cg_calc_ur(alpha, preconditioner);
                let beta = rrn / rro;
                port.cg_calc_p(beta, preconditioner);
                (rrn, beta)
            };
        history.alphas.push(alpha);
        history.betas.push(beta);
        rro = rrn;
        iterations += 1;
        let mut bail = false;
        if rrn.abs() <= eps * initial.abs() {
            converged = true;
        } else {
            match guard.on_residual(port, iterations, rrn) {
                PhaseVerdict::Continue => {}
                PhaseVerdict::RolledBack(cut) => {
                    iterations = cut.iteration;
                    rro = cut.rro;
                    *history = cut.history;
                }
                PhaseVerdict::Bail => bail = true,
            }
        }
        tel.close_span(iter_span, port.context().clock.seconds());
        if bail {
            break;
        }
    }
    (
        SolveOutcome::clean(iterations, converged, rro, initial, None),
        rro,
    )
}

#[cfg(test)]
mod tests {
    // CG behaviour is exercised end-to-end through the ports in the
    // integration tests; here we only check the trivial-guard logic needs
    // a port, so unit coverage lives at the driver level.
}
