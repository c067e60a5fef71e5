//! Chebyshev semi-iteration (`tea_leaf_cheby`).
//!
//! The paper's Chebyshev solver bootstraps with CG: `tl_ch_cg_presteps`
//! CG iterations provide the Lanczos coefficients from which the extremal
//! eigenvalues are estimated; the Chebyshev iteration then runs reduction-
//! free (a residual norm is recomputed only every [`CHECK_INTERVAL`]
//! iterations), which is exactly why its performance profile differs from
//! CG on devices with expensive reductions.

use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;

use crate::cheby::{estimated_iterations, ChebyCoeffs, ChebyShift};
use crate::eigen::eigenvalue_estimate;
use crate::kernels::{traced_halo, NormField, TeaLeafPort};
use crate::resilience::{PhaseGuard, PhaseStart};
use crate::solver::cg::{self, CgHistory};
use crate::solver::SolveOutcome;

/// Iterations between residual-norm convergence checks.
pub const CHECK_INTERVAL: usize = 10;

/// Run the Chebyshev solver (CG presteps + Chebyshev iteration), or from
/// `resume` — a cut inside the presteps — on.
pub fn solve(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    resume: Option<PhaseStart>,
) -> SolveOutcome {
    let mut history = CgHistory::default();
    let mut guard = PhaseGuard::new(config);
    let presteps = config.tl_ch_cg_presteps.min(config.tl_max_iters);
    let (pre_outcome, _rro) = cg::run_phase(
        port,
        false,
        config.tl_eps,
        presteps,
        &mut history,
        &mut guard,
        resume,
    );
    if pre_outcome.converged || !guard.events.is_empty() {
        // Converged in the presteps, or the presteps tripped a sentinel
        // they could not roll back — either way the Chebyshev iteration
        // must not run on this state.
        return annotate(pre_outcome, guard);
    }
    let initial = pre_outcome.initial;

    let Some((eigmin, eigmax)) = eigenvalue_estimate(&history.alphas, &history.betas) else {
        // Eigenvalue estimation failed (degenerate problem): fall back to
        // finishing with CG, as a robust implementation must.
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
    let mut coeffs = ChebyCoeffs::new(shift);

    // A-priori bound on the iterations needed, as TeaLeaf estimates
    // (`tl_ch_est_itc`), capped by the deck's maximum.
    let eps_ratio = (config.tl_eps * initial.abs()
        / pre_outcome.final_rrn.abs().max(f64::MIN_POSITIVE))
    .clamp(1e-300, 0.999_999);
    // The a-priori estimate guides reporting, but the live budget is the
    // deck's tl_max_iters: with only `presteps` Lanczos iterations the
    // eigenvalue bounds can be loose enough that the true count exceeds
    // the estimate (observed on fine meshes), so the residual check is
    // what actually terminates the loop.
    let est = estimated_iterations(shift, eps_ratio);
    let budget = (4 * est + CHECK_INTERVAL)
        .max(64)
        .min(config.tl_max_iters.saturating_sub(presteps));

    let tel = port.context().telemetry().clone();
    traced_halo(port, &[FieldId::U], 1);
    port.cheby_init(shift.theta);
    let mut iterations = pre_outcome.iterations + 1;
    let mut converged = false;
    let mut rrn = pre_outcome.final_rrn;
    let mut done = 1usize; // cheby_init counts as the first Chebyshev step
    while !converged && done < budget {
        let iter_span = tel.open_span(
            "iteration",
            format_args!("cheby iteration {}", done + 1),
            port.context().clock.seconds(),
        );
        traced_halo(port, &[FieldId::U], 1);
        let (alpha, beta) = coeffs.next_pair();
        port.cheby_iterate(alpha, beta);
        done += 1;
        iterations += 1;
        let mut bail = false;
        if done.is_multiple_of(CHECK_INTERVAL) {
            rrn = port.calc_2norm(NormField::R);
            if rrn.abs() <= config.tl_eps * initial.abs() {
                converged = true;
            } else if let Some(event) = guard.sentinel.observe(iterations, rrn) {
                // The reduction-free iteration has no per-iteration state
                // worth rolling back to (the fault is in the eigenvalue
                // bounds, not a transient): bail to the fallback chain.
                tel.event(
                    "sentinel",
                    format_args!("{event}"),
                    port.context().clock.seconds(),
                );
                guard.events.push(event);
                bail = true;
            }
        }
        tel.close_span(iter_span, port.context().clock.seconds());
        if bail {
            break;
        }
    }
    if !converged && guard.events.is_empty() {
        // final norm check at budget exhaustion
        rrn = port.calc_2norm(NormField::R);
        converged = rrn.abs() <= config.tl_eps * initial.abs();
        if !converged {
            if let Some(event) = guard.sentinel.observe(iterations, rrn) {
                tel.event(
                    "sentinel",
                    format_args!("{event}"),
                    port.context().clock.seconds(),
                );
                guard.events.push(event);
            }
        }
    }
    annotate(
        SolveOutcome::clean(iterations, converged, rrn, initial, Some((eigmin, eigmax))),
        guard,
    )
}

/// Move the guard's accumulated events onto the outcome.
fn annotate(mut outcome: SolveOutcome, guard: PhaseGuard) -> SolveOutcome {
    outcome.health = guard.events;
    outcome.recoveries = guard.recoveries;
    outcome
}
