//! Chebyshev Polynomially Preconditioned CG (`tea_leaf_ppcg`).
//!
//! PPCG wraps each CG iteration with `tl_ppcg_inner_steps` Chebyshev
//! smoothing steps on the residual (Boulton & McIntosh-Smith, ref \[2\]). The
//! inner steps are reduction-free stencil sweeps, so PPCG trades CG's
//! reduction traffic for extra bandwidth — fewer outer iterations, fewer
//! global synchronisations.

use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;

use crate::cheby::{ChebyCoeffs, ChebyShift};
use crate::eigen::eigenvalue_estimate;
use crate::kernels::{traced_halo, NormField, TeaLeafPort};
use crate::resilience::{PhaseGuard, PhaseStart};
use crate::solver::cg::{self, CgHistory};
use crate::solver::SolveOutcome;

/// Run the PPCG solver, or from `resume` — a cut inside the presteps — on.
pub fn solve(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    resume: Option<PhaseStart>,
) -> SolveOutcome {
    let mut history = CgHistory::default();
    let mut guard = PhaseGuard::new(config);
    let presteps = config.tl_ch_cg_presteps.min(config.tl_max_iters);
    let (pre_outcome, mut rro) = cg::run_phase(
        port,
        false,
        config.tl_eps,
        presteps,
        &mut history,
        &mut guard,
        resume,
    );
    if pre_outcome.converged || !guard.events.is_empty() {
        return annotate(pre_outcome, guard);
    }
    let initial = pre_outcome.initial;

    let Some((eigmin, eigmax)) = eigenvalue_estimate(&history.alphas, &history.betas) else {
        let (outcome, _) = cg::run_phase(
            port,
            false,
            config.tl_eps,
            config.tl_max_iters.saturating_sub(presteps),
            &mut history,
            &mut guard,
            None,
        );
        return annotate(
            SolveOutcome {
                iterations: outcome.iterations + pre_outcome.iterations,
                ..outcome
            },
            guard,
        );
    };
    let shift = ChebyShift::from_bounds(eigmin, eigmax);
    let inner = ChebyCoeffs::take_pairs(shift, config.tl_ppcg_inner_steps);

    let tel = port.context().telemetry().clone();
    let mut iterations = pre_outcome.iterations;
    let mut converged = false;
    let max_outer = config.tl_max_iters.saturating_sub(presteps);
    let mut outer = 0;
    while !converged && outer < max_outer {
        let iter_span = tel.open_span(
            "iteration",
            format_args!("ppcg outer {}", outer + 1),
            port.context().clock.seconds(),
        );
        traced_halo(port, &[FieldId::P], 1);
        let pw = port.cg_calc_w();
        let alpha = rro / pw;
        port.cg_update_ur(alpha, false);
        // Inner polynomial smoothing: sd = r/θ, then inner_steps sweeps of
        // w = A·sd; r -= w; u += sd; sd = αₖ·sd + βₖ·r.
        port.ppcg_init_sd(shift.theta);
        for &(a, b) in &inner {
            traced_halo(port, &[FieldId::Sd], 1);
            port.ppcg_inner(a, b);
        }
        let rrn = port.calc_2norm(NormField::R);
        let beta = rrn / rro;
        port.cg_calc_p(beta, false);
        rro = rrn;
        outer += 1;
        iterations += 1;
        let mut bail = false;
        if rrn.abs() <= config.tl_eps * initial.abs() {
            converged = true;
        } else if let Some(event) = guard.sentinel.observe(iterations, rrn) {
            // Inner Chebyshev smoothing diverges when the eigenvalue
            // bounds miss the top of the spectrum (too few presteps);
            // with the default `tl_divergence_factor` of 1e12 this trips
            // exactly where the old hard-coded bail did, but now surfaces
            // a typed event the fallback chain reacts to (retry with a
            // widened estimation window) instead of silently giving up.
            tel.event(
                "sentinel",
                format_args!("{event}"),
                port.context().clock.seconds(),
            );
            guard.events.push(event);
            bail = true;
        }
        tel.close_span(iter_span, port.context().clock.seconds());
        if bail {
            break;
        }
    }
    annotate(
        SolveOutcome::clean(iterations, converged, rro, initial, Some((eigmin, eigmax))),
        guard,
    )
}

/// Move the guard's accumulated events onto the outcome.
fn annotate(mut outcome: SolveOutcome, guard: PhaseGuard) -> SolveOutcome {
    outcome.health = guard.events;
    outcome.recoveries = guard.recoveries;
    outcome
}
