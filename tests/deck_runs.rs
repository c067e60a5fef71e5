//! The shipped benchmark decks parse and run end-to-end.

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::{run, Exec, ModelId, RunSpec};

fn load(name: &str) -> TeaConfig {
    let path = format!("{}/decks/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    TeaConfig::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn bm1_cg_deck_runs() {
    let mut cfg = load("tea_bm_1.in");
    assert_eq!(cfg.solver, SolverKind::ConjugateGradient);
    assert_eq!(cfg.x_cells, 64);
    cfg.end_step = 2; // keep the test fast
    let report = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Omp3F90, &devices::cpu_xeon_e5_2670_x2()),
    ))
    .unwrap()
    .report;
    assert!(report.converged);
}

#[test]
fn bm2_chebyshev_deck_runs() {
    let mut cfg = load("tea_bm_2_cheby.in");
    assert_eq!(cfg.solver, SolverKind::Chebyshev);
    assert_eq!(cfg.tl_ch_cg_presteps, 30);
    cfg.end_step = 1;
    let report = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Kokkos, &devices::gpu_k20x()),
    ))
    .unwrap()
    .report;
    assert!(report.converged);
    assert!(
        report.eigenvalues.is_some(),
        "Chebyshev must estimate eigenvalues"
    );
}

#[test]
fn bm3_ppcg_deck_runs() {
    let mut cfg = load("tea_bm_3_ppcg.in");
    assert_eq!(cfg.solver, SolverKind::Ppcg);
    assert_eq!(cfg.tl_ppcg_inner_steps, 10);
    cfg.end_step = 1;
    let report = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Cuda, &devices::gpu_k20x()),
    ))
    .unwrap()
    .report;
    assert!(report.converged);
}

#[test]
fn bm5_paper_deck_parses_to_the_evaluation_parameters() {
    // parse-only (the full run is hours of functional time): §4's setup
    let cfg = load("tea_bm_5.in");
    assert_eq!(cfg.x_cells, 4096);
    assert_eq!(cfg.y_cells, 4096);
    assert_eq!(cfg.end_step, 10);
    assert_eq!(cfg.tl_eps, 1.0e-15);
    assert_eq!(cfg.solver, SolverKind::ConjugateGradient);
    assert_eq!(cfg.states.len(), 3);
}
