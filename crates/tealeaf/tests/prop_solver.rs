//! Property-based tests of the solver mathematics: operator SPD-ness,
//! solver convergence on random problems, eigenvalue machinery.

use proptest::prelude::*;

use parpool::UnsafeSlice;
use simdev::devices;
use tea_core::config::{Coefficient, SolverKind, TeaConfig};
use tea_core::halo::update_halo;
use tea_core::mesh::Mesh2d;
use tea_core::physics;
use tea_core::state::{Geometry, State};
use tealeaf::eigen::tqli;
use tealeaf::ports::common;
use tealeaf::{run, Exec, ModelId, RunSpec};

/// Build scaled face coefficients from a random positive density field.
fn coefficients(mesh: &Mesh2d, density: &[f64], rx: f64, ry: f64) -> (Vec<f64>, Vec<f64>) {
    let mut kx = vec![0.0; mesh.len()];
    let mut ky = vec![0.0; mesh.len()];
    {
        let (kxs, kys) = (UnsafeSlice::new(&mut kx), UnsafeSlice::new(&mut ky));
        for j in mesh.i0()..=mesh.j1() {
            // SAFETY: single-threaded.
            unsafe {
                common::row_init_coeffs(
                    mesh,
                    j,
                    Coefficient::Conductivity,
                    rx,
                    ry,
                    density,
                    &kxs,
                    &kys,
                )
            };
        }
    }
    (kx, ky)
}

/// `x · A x` over the interior with reflective-halo `x`.
fn x_ax(mesh: &Mesh2d, x: &[f64], kx: &[f64], ky: &[f64]) -> f64 {
    let mut x = x.to_vec();
    update_halo(mesh, &mut x, 1);
    let width = mesh.width();
    let mut acc = 0.0;
    for j in mesh.i0()..mesh.j1() {
        for i in mesh.i0()..mesh.i1() {
            let k = common::idx(width, i, j);
            acc += x[k] * common::apply_a(width, k, &x, kx, ky);
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn operator_is_positive_definite(
        densities in proptest::collection::vec(0.05..100.0f64, 144),
        xs in proptest::collection::vec(-10.0..10.0f64, 144),
        rx in 0.01..2.0f64,
    ) {
        // 8×8 interior on a 12×12 padded mesh
        let mesh = Mesh2d::square(8);
        let mut density = vec![1.0; mesh.len()];
        density.copy_from_slice(&densities);
        update_halo(&mesh, &mut density, 2);
        let (kx, ky) = coefficients(&mesh, &density, rx, rx);
        let mut x = vec![0.0; mesh.len()];
        x.copy_from_slice(&xs);
        // zero the halo so only interior dofs enter the quadratic form
        let quad = x_ax(&mesh, &x, &kx, &ky);
        let norm: f64 = {
            let mut n = 0.0;
            for (i, j) in mesh.interior().collect::<Vec<_>>() {
                let v = x[mesh.idx(i, j)];
                n += v * v;
            }
            n
        };
        prop_assume!(norm > 1e-9);
        // with reflective halos A is an M-matrix with unit diagonal shift:
        // x·Ax ≥ ‖x‖² > 0
        prop_assert!(quad > 0.0, "x·Ax = {quad}");
        prop_assert!(quad >= 0.99 * norm, "x·Ax = {quad} < ‖x‖² = {norm}");
    }

    #[test]
    fn cg_solves_random_two_state_problems(
        bg_density in 0.5..50.0f64,
        bg_energy in 0.01..10.0f64,
        hot_density in 0.05..5.0f64,
        hot_energy in 1.0..50.0f64,
        seed_cells in 16usize..40,
    ) {
        let mut cfg = TeaConfig::paper_problem(seed_cells);
        cfg.states = vec![
            State::background(bg_density, bg_energy),
            State {
                density: hot_density,
                energy: hot_energy,
                geometry: Geometry::Rectangle { xmin: 1.0, xmax: 4.0, ymin: 2.0, ymax: 5.0 },
            },
        ];
        cfg.solver = SolverKind::ConjugateGradient;
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg.tl_max_iters = 5_000;
        let report = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()))).unwrap().report;
        prop_assert!(report.converged, "CG must converge on any SPD problem");
        // conservation: the solve redistributes u but conserves its integral
        prop_assert!(report.summary.temperature > 0.0);
        prop_assert!(report.summary.mass > 0.0);
    }

    #[test]
    fn solvers_agree_on_random_problems(
        hot_energy in 1.0..40.0f64,
        cells in 16usize..32,
    ) {
        let mut cfg = TeaConfig::paper_problem(cells);
        cfg.states = vec![
            State::background(10.0, 0.01),
            State {
                density: 0.2,
                energy: hot_energy,
                geometry: Geometry::Circle { cx: 5.0, cy: 5.0, radius: 2.5 },
            },
        ];
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-13;
        cfg.tl_max_iters = 8_000;
        cfg.tl_ch_cg_presteps = 10;
        let device = devices::cpu_xeon_e5_2670_x2();
        let mut temps = Vec::new();
        for solver in [SolverKind::ConjugateGradient, SolverKind::Chebyshev, SolverKind::Ppcg] {
            cfg.solver = solver;
            let r = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device))).unwrap().report;
            prop_assert!(r.converged, "{solver} diverged");
            temps.push(r.summary.temperature);
        }
        // all three iterative solvers reach the same solution within the
        // solve tolerance
        let spread = (temps[0] - temps[1]).abs().max((temps[0] - temps[2]).abs());
        prop_assert!(spread < 1e-6 * temps[0].abs().max(1.0), "solver spread {spread}");
    }

    #[test]
    fn tqli_recovers_diagonal(mut diag in proptest::collection::vec(-100.0..100.0f64, 1..12)) {
        let off = vec![0.0; diag.len()];
        let eig = tqli(&diag, &off).unwrap();
        diag.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (e, d) in eig.iter().zip(&diag) {
            prop_assert!((e - d).abs() < 1e-10 * d.abs().max(1.0));
        }
    }

    #[test]
    fn tqli_respects_gershgorin(
        diag in proptest::collection::vec(0.1..50.0f64, 2..12),
        offs in proptest::collection::vec(-5.0..5.0f64, 12),
    ) {
        let n = diag.len();
        let mut off = vec![0.0; n];
        off[1..n].copy_from_slice(&offs[1..n]);
        let eig = tqli(&diag, &off).unwrap();
        // Gershgorin: every eigenvalue lies within max row-sum bounds
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let mut radius = 0.0;
            if i > 0 {
                radius += off[i].abs();
            }
            if i + 1 < n {
                radius += off[i + 1].abs();
            }
            lo = lo.min(diag[i] - radius);
            hi = hi.max(diag[i] + radius);
        }
        for e in eig {
            prop_assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "{e} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn tqli_eigenvalue_sum_is_trace(
        diag in proptest::collection::vec(-20.0..20.0f64, 2..10),
        offs in proptest::collection::vec(-3.0..3.0f64, 10),
    ) {
        let n = diag.len();
        let mut off = vec![0.0; n];
        off[1..n].copy_from_slice(&offs[1..n]);
        let eig = tqli(&diag, &off).unwrap();
        let trace: f64 = diag.iter().sum();
        let sum: f64 = eig.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn cheby_coefficients_bounded(
        lo in 0.01..1.0f64,
        ratio in 1.1..100.0f64,
        n in 1usize..200,
    ) {
        use tealeaf::cheby::{ChebyCoeffs, ChebyShift};
        let shift = ChebyShift::from_bounds(lo, lo * ratio);
        let pairs = ChebyCoeffs::take_pairs(shift, n);
        for (alpha, beta) in pairs {
            prop_assert!(alpha > 0.0 && alpha < 1.0, "α={alpha}");
            prop_assert!(beta > 0.0, "β={beta}");
        }
    }

    #[test]
    fn jacobi_diagonal_dominance_guarantees_contraction(
        densities in proptest::collection::vec(0.1..10.0f64, 64),
    ) {
        // jacobi_update's weights sum to < 1 ⇒ the sweep is a contraction
        let mesh = Mesh2d::square(4);
        let mut density = vec![1.0; mesh.len()];
        density[..64.min(mesh.len())].copy_from_slice(&densities[..64.min(mesh.len())]);
        update_halo(&mesh, &mut density, 2);
        let (kx, ky) = coefficients(&mesh, &density, 0.5, 0.5);
        let width = mesh.width();
        for (i, j) in mesh.interior().collect::<Vec<_>>() {
            let k = mesh.idx(i, j);
            let diag = physics::diagonal(kx[k], kx[k + 1], ky[k], ky[k + width]);
            let offsum = kx[k] + kx[k + 1] + ky[k] + ky[k + width];
            prop_assert!(offsum / diag < 1.0);
        }
    }
}
