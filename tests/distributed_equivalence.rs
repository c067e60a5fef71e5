//! The distributed (multi-chunk, MPI-style) solve must be bit-identical
//! to the single-chunk serial reference for any rank count — the property
//! that makes the decomposition a pure implementation detail, as MPI is
//! in the reference TeaLeaf (§3).

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::distributed::DistributedSpec;
use tealeaf::{run, Exec, ModelId, RunReport, RunSpec};

fn config(cells: usize) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_max_iters = 2000;
    cfg
}

/// A fault-free run of `cfg` on a `tiles` grid, overlapped or blocking.
fn distributed(cfg: &TeaConfig, tiles: (usize, usize), overlap: bool) -> RunReport {
    let spec = DistributedSpec {
        overlap,
        ..DistributedSpec::new(tiles.0, tiles.1)
    };
    run(&RunSpec::new(cfg, Exec::Tiled(spec)))
        .expect("a fault-free run cannot abort")
        .report
}

#[test]
fn distributed_cg_bit_identical_to_serial() {
    let cfg = config(48);
    let serial = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
    ))
    .unwrap()
    .report;
    assert!(serial.converged);
    for ranks in [1, 2, 3, 4] {
        let dist = distributed(&cfg, (1, ranks), true);
        assert!(dist.converged, "{ranks} ranks must converge");
        assert_eq!(
            dist.total_iterations, serial.total_iterations,
            "{ranks} ranks: iteration count drifted"
        );
        let diff = dist.summary.max_abs_diff(&serial.summary);
        assert_eq!(diff, 0.0, "{ranks} ranks: summary differs by {diff:e}");
    }
}

#[test]
fn uneven_stripes_still_exact() {
    // 50 rows across 3 ranks → stripes of 16/17/17
    let cfg = config(50);
    let serial = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
    ))
    .unwrap()
    .report;
    let dist = distributed(&cfg, (1, 3), true);
    assert_eq!(dist.summary.max_abs_diff(&serial.summary), 0.0);
    assert_eq!(dist.total_iterations, serial.total_iterations);
}

#[test]
fn all_solvers_on_2d_grids_bit_identical_to_serial() {
    let mut cfg = TeaConfig::paper_problem(16);
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-10;
    for solver in [
        SolverKind::Jacobi,
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
    ] {
        cfg.solver = solver;
        let serial = run(&RunSpec::new(
            &cfg,
            Exec::port(ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
        ))
        .unwrap()
        .report;
        for (gx, gy) in [(2usize, 2usize), (3, 1), (1, 3)] {
            let overlapped = distributed(&cfg, (gx, gy), true);
            let blocking = distributed(&cfg, (gx, gy), false);
            assert_eq!(
                overlapped.total_iterations, serial.total_iterations,
                "{solver:?} on {gx}x{gy}: iteration count drifted"
            );
            assert_eq!(
                overlapped.summary.max_abs_diff(&serial.summary),
                0.0,
                "{solver:?} on {gx}x{gy}: summary drifted"
            );
            assert_eq!(overlapped.converged, serial.converged);
            assert_eq!(
                blocking.summary, overlapped.summary,
                "{solver:?} on {gx}x{gy}: overlap must not change bits"
            );
            assert_eq!(blocking.total_iterations, overlapped.total_iterations);
        }
    }
}

#[test]
fn rank_scaling_changes_nothing_numerically() {
    let cfg = config(40);
    let two = distributed(&cfg, (1, 2), true);
    let five = distributed(&cfg, (1, 5), true);
    assert_eq!(two.summary, five.summary);
    assert_eq!(two.total_iterations, five.total_iterations);
}
