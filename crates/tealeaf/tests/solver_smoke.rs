//! Smoke tests: every solver converges on the serial reference port and
//! conserves the physics invariants.

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::{run, Exec, ModelId, RunSpec};

fn config(solver: SolverKind) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(64);
    cfg.solver = solver;
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_max_iters = 4000;
    cfg.tl_ch_cg_presteps = 10;
    cfg
}

#[test]
fn all_solvers_converge_serially() {
    let device = devices::cpu_xeon_e5_2670_x2();
    for solver in [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
        SolverKind::Jacobi,
    ] {
        let report = run(&RunSpec::new(
            &config(solver),
            Exec::port(ModelId::Serial, &device),
        ))
        .unwrap()
        .report;
        assert!(report.converged, "{solver} must converge");
        assert!(report.total_iterations > 0);
        assert!(report.sim.seconds > 0.0);
        // zero-flux boundaries conserve energy: temperature integral equals
        // internal energy integral (u = energy·density solved implicitly)
        let s = report.summary;
        assert!(s.volume > 0.0 && s.mass > 0.0);
        assert!(
            (s.temperature - s.internal_energy).abs() < 1e-6 * s.internal_energy.abs(),
            "{solver}: temperature {} vs internal energy {}",
            s.temperature,
            s.internal_energy
        );
    }
}

#[test]
fn preconditioned_cg_converges_in_fewer_iterations() {
    let device = devices::cpu_xeon_e5_2670_x2();
    let plain = run(&RunSpec::new(
        &config(SolverKind::ConjugateGradient),
        Exec::port(ModelId::Serial, &device),
    ))
    .unwrap()
    .report;
    let mut pre_cfg = config(SolverKind::ConjugateGradient);
    pre_cfg.tl_preconditioner = true;
    let pre = run(&RunSpec::new(
        &pre_cfg,
        Exec::port(ModelId::Serial, &device),
    ))
    .unwrap()
    .report;
    assert!(pre.converged);
    assert!(
        pre.total_iterations <= plain.total_iterations,
        "Jacobi preconditioning must not increase iterations ({} vs {})",
        pre.total_iterations,
        plain.total_iterations
    );
}

#[test]
fn ppcg_uses_fewer_outer_iterations_than_cg() {
    let device = devices::cpu_xeon_e5_2670_x2();
    let cg = run(&RunSpec::new(
        &config(SolverKind::ConjugateGradient),
        Exec::port(ModelId::Serial, &device),
    ))
    .unwrap()
    .report;
    let ppcg = run(&RunSpec::new(
        &config(SolverKind::Ppcg),
        Exec::port(ModelId::Serial, &device),
    ))
    .unwrap()
    .report;
    assert!(ppcg.converged && cg.converged);
    assert!(
        ppcg.total_iterations < cg.total_iterations,
        "polynomial preconditioning must reduce iterations ({} vs {})",
        ppcg.total_iterations,
        cg.total_iterations
    );
}
