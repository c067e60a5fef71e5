//! Property tests of the resilience sentinels against the conformance
//! harness's sabotage machinery.
//!
//! Two directions of the same contract:
//!
//! * **No false positives** — on healthy runs (both conformance decks,
//!   all four solvers, every golden port) the sentinels must stay
//!   silent: no health events, no recovery actions, golden bits
//!   unchanged.
//! * **No false negatives** — when a [`SabotagedPort`] plants a NaN or
//!   flips the sign of a CG scalar, a sentinel must trip within a
//!   bounded number of iterations, and the recovery harness must bring
//!   the run back **bit-identical** to the clean run (the fault is
//!   transient: the sabotage fires once, so a rollback or retry replays
//!   clean arithmetic).

use proptest::prelude::*;

use tea_conformance::{
    builtin_decks, natural_device, Sabotage, SabotageMode, SabotagePlan, SabotagedPort,
    GOLDEN_PORTS, GOLDEN_SOLVERS,
};
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tealeaf::ports::{common, make_port};
use tealeaf::recorder::RecordingPort;
use tealeaf::{driver, ModelId, Problem, RunReport, SolverHealth};

/// Drive `model` through the full timestep loop on `cfg`, no sabotage.
fn drive_clean(cfg: &TeaConfig, model: ModelId) -> RunReport {
    let problem = Problem::from_config(cfg).expect("valid config");
    let device = natural_device(model);
    let mut port = make_port(model, device.clone(), &problem, 1).expect("port builds");
    driver::drive(port.as_mut(), &problem, &device, cfg)
}

/// Same run with a sabotage plan wrapped around the port; returns the
/// report and whether the planted fault actually fired.
fn drive_sabotaged(cfg: &TeaConfig, model: ModelId, plan: SabotagePlan) -> (RunReport, bool) {
    let problem = Problem::from_config(cfg).expect("valid config");
    let device = natural_device(model);
    let port = make_port(model, device.clone(), &problem, 1).expect("port builds");
    let mut sabotaged: SabotagedPort = RecordingPort::with_hook(port, Sabotage::new(plan));
    let report = driver::drive(&mut sabotaged, &problem, &device, cfg);
    (report, sabotaged.hook().fired())
}

/// Every sentinel trip a run surfaced: recovery triggers plus the health
/// events of the final attempt.
fn trips(report: &RunReport) -> Vec<SolverHealth> {
    report
        .recoveries
        .iter()
        .map(|e| e.trigger.clone())
        .chain(report.health.iter().map(|(_, h)| h.clone()))
        .collect()
}

fn healthy_sweep(ports: &[ModelId], decks: &[&str]) {
    for (name, text) in builtin_decks() {
        if !decks.contains(&name) {
            continue;
        }
        let base = TeaConfig::parse(text).expect("committed deck parses");
        for solver in GOLDEN_SOLVERS {
            let mut cfg = base.clone();
            cfg.solver = solver;
            for &model in ports {
                let report = drive_clean(&cfg, model);
                assert!(
                    report.health.is_empty(),
                    "{name}/{solver}/{model:?}: healthy run raised {:?}",
                    report.health
                );
                assert!(
                    report.recoveries.is_empty(),
                    "{name}/{solver}/{model:?}: healthy run recovered {:?}",
                    report.recoveries
                );
                assert_eq!(
                    report.failed_step, None,
                    "{name}/{solver}/{model:?}: healthy run failed"
                );
            }
        }
    }
}

/// Quick tier-1 slice of the no-false-positive sweep: the smallest deck
/// on the two ports with distinct device kinds.
#[test]
fn sentinels_stay_quiet_on_healthy_runs() {
    healthy_sweep(&[ModelId::Serial, ModelId::Cuda], &["conf_tiny"]);
}

/// The full no-false-positive matrix — both decks, all four solvers,
/// every golden port. Run by the CI conformance job via `-- --ignored`.
#[test]
#[ignore = "full deck x solver x port sweep; the CI conformance job runs it"]
fn sentinels_stay_quiet_on_every_deck_solver_and_port() {
    healthy_sweep(&GOLDEN_PORTS, &["conf_tiny", "conf_small"]);
}

fn cg_config(cells: usize) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-10;
    cfg.tl_max_iters = 2000;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A NaN planted into the CG search direction must trip
    /// [`SolverHealth::NonFinite`] within two iterations of the plant,
    /// and the recovered run must match the clean run bit-for-bit.
    #[test]
    fn planted_nan_trips_nonfinite_and_recovery_is_bit_exact(
        cells in 16usize..32,
        pick in 0usize..1000,
    ) {
        let cfg = cg_config(cells);
        let clean = drive_clean(&cfg, ModelId::Serial);
        prop_assume!(clean.converged && clean.total_iterations >= 4);
        // Plant strictly before the clean run converges so the fault
        // actually fires mid-solve.
        let invocation = 2 + pick % (clean.total_iterations - 2);
        let mesh = cfg.mesh();
        let plan = SabotagePlan {
            kernel: "cg_calc_w",
            invocation,
            field: FieldId::P,
            index: common::idx(mesh.width(), mesh.i0() + 2, mesh.i0() + 3),
            mode: SabotageMode::PlantNan,
        };
        let (report, fired) = drive_sabotaged(&cfg, ModelId::Serial, plan);
        prop_assert!(fired, "sabotage at cg_calc_w #{invocation} never fired");
        let trips = trips(&report);
        prop_assert!(
            trips.iter().any(|h| matches!(
                h,
                SolverHealth::NonFinite { iteration } if *iteration <= invocation + 2
            )),
            "NaN at cg_calc_w #{} must trip NonFinite within 2 iterations: {:?}",
            invocation,
            trips
        );
        prop_assert!(report.converged, "recovery must finish the solve");
        prop_assert_eq!(report.total_iterations, clean.total_iterations);
        prop_assert_eq!(report.summary, clean.summary, "recovered bits differ from clean");
    }

    /// A sign-flipped `p·w` (hence a sign-flipped α) makes the CG
    /// residual grow at exactly the flipped iteration, so with a
    /// one-iteration stagnation window the sentinel must trip *at* the
    /// sabotaged iteration — and recovery must restore clean bits.
    #[test]
    fn sign_flipped_alpha_trips_a_sentinel_and_recovery_is_bit_exact(
        cells in 16usize..32,
        pick in 0usize..1000,
    ) {
        let mut cfg = cg_config(cells);
        cfg.tl_stagnation_window = 1;
        let clean = drive_clean(&cfg, ModelId::Serial);
        prop_assume!(clean.converged && clean.total_iterations >= 4);
        // A window of 1 demands a strictly decreasing clean residual;
        // skip the rare problem where plain CG itself plateaus.
        prop_assume!(clean.health.is_empty() && clean.recoveries.is_empty());
        let invocation = 2 + pick % (clean.total_iterations - 2);
        let plan = SabotagePlan {
            kernel: "cg_calc_w",
            invocation,
            // Ignored by NegateScalar: the fault is in the reduction,
            // not in any field.
            field: FieldId::W,
            index: 0,
            mode: SabotageMode::NegateScalar,
        };
        let (report, fired) = drive_sabotaged(&cfg, ModelId::Serial, plan);
        prop_assert!(fired, "sabotage at cg_calc_w #{invocation} never fired");
        let trips = trips(&report);
        prop_assert!(
            !trips.is_empty(),
            "sign-flipped alpha at cg_calc_w #{invocation} raised no sentinel"
        );
        prop_assert!(
            trips.iter().any(|h| h.iteration() >= invocation && h.iteration() <= invocation + 2),
            "trip must localize to the sabotaged iteration {}: {:?}",
            invocation,
            trips
        );
        prop_assert!(report.converged, "recovery must finish the solve");
        prop_assert_eq!(report.total_iterations, clean.total_iterations);
        prop_assert_eq!(report.summary, clean.summary, "recovered bits differ from clean");
    }
}

/// The non-CG sentinels catch poison too: a NaN planted into `u` under
/// Jacobi trips `NonFinite` on the next sweep and the retry restores the
/// clean bits.
#[test]
fn jacobi_sentinel_catches_planted_nan_and_retry_restores_clean_bits() {
    let mut cfg = TeaConfig::paper_problem(16);
    cfg.solver = SolverKind::Jacobi;
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-8;
    cfg.tl_max_iters = 4000;
    let clean = drive_clean(&cfg, ModelId::Serial);
    assert!(clean.total_iterations >= 4, "problem too easy to sabotage");
    let invocation = clean.total_iterations / 2;
    let mesh = cfg.mesh();
    let plan = SabotagePlan {
        kernel: "jacobi_iterate",
        invocation,
        field: FieldId::U,
        index: common::idx(mesh.width(), mesh.i0() + 4, mesh.i0() + 4),
        mode: SabotageMode::PlantNan,
    };
    let (report, fired) = drive_sabotaged(&cfg, ModelId::Serial, plan);
    assert!(fired, "jacobi sweep {invocation} must be reached");
    let trips = trips(&report);
    assert!(
        trips.iter().any(
            |h| matches!(h, SolverHealth::NonFinite { iteration } if *iteration <= invocation + 2)
        ),
        "NaN in u must trip NonFinite promptly: {trips:?}"
    );
    assert_eq!(report.converged, clean.converged);
    assert_eq!(report.total_iterations, clean.total_iterations);
    assert_eq!(
        report.summary, clean.summary,
        "retry bits differ from clean"
    );
}
