//! Physics validation: conservation, equilibration, symmetry and mesh
//! refinement — the properties a heat-conduction solver must satisfy
//! regardless of programming model.

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::state::{Geometry, State};
use tealeaf::{driver, ports::make_port, run, Exec, ModelId, Problem, RunSpec};

fn hot_block(cells: usize) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.tl_eps = 1.0e-13;
    cfg.tl_max_iters = 8_000;
    cfg
}

#[test]
fn energy_is_conserved_across_steps() {
    // Zero-flux (reflective) boundaries: the temperature integral ∫u dV is
    // invariant from step to step up to solver tolerance.
    let device = devices::cpu_xeon_e5_2670_x2();
    let mut reference = None;
    for steps in [1usize, 4, 8] {
        let mut cfg = hot_block(24);
        cfg.end_step = steps;
        let report = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device)))
            .unwrap()
            .report;
        assert!(report.converged);
        let temp = report.summary.temperature;
        let baseline = *reference.get_or_insert(temp);
        assert!(
            (temp - baseline).abs() < 1e-8 * baseline.abs(),
            "temperature integral drifted after {steps} steps: {temp} vs {baseline}"
        );
    }
}

#[test]
fn solution_equilibrates_toward_uniform_temperature() {
    // Diffusion must monotonically flatten the field: the spatial spread of
    // u shrinks as steps accumulate.
    let device = devices::cpu_xeon_e5_2670_x2();
    let spread_after = |steps: usize| -> f64 {
        let mut cfg = hot_block(24);
        cfg.end_step = steps;
        let problem = Problem::from_config(&cfg).expect("valid config");
        let mut port = make_port(ModelId::Serial, device.clone(), &problem, 0).unwrap();
        driver::drive(port.as_mut(), &problem, &device, &cfg);
        let u = port.read_u();
        let mesh = problem.mesh;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, j) in mesh.interior().collect::<Vec<_>>() {
            let v = u[mesh.idx(i, j)];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    };
    let early = spread_after(1);
    let mid = spread_after(5);
    let late = spread_after(15);
    assert!(mid < early, "spread must shrink: {early} -> {mid}");
    assert!(late < mid, "spread must keep shrinking: {mid} -> {late}");
}

#[test]
fn symmetric_problem_produces_symmetric_solution() {
    // A centred hot disc on a uniform background: u must be mirror-
    // symmetric in x and in y to machine precision.
    let device = devices::cpu_xeon_e5_2670_x2();
    let mut cfg = TeaConfig::paper_problem(32);
    cfg.states = vec![
        State::background(5.0, 0.1),
        State {
            density: 0.5,
            energy: 10.0,
            geometry: Geometry::Circle {
                cx: 5.0,
                cy: 5.0,
                radius: 2.0,
            },
        },
    ];
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.end_step = 3;
    cfg.tl_eps = 1.0e-14;
    cfg.tl_max_iters = 8_000;
    let problem = Problem::from_config(&cfg).expect("valid config");
    let mut port = make_port(ModelId::Serial, device.clone(), &problem, 0).unwrap();
    driver::drive(port.as_mut(), &problem, &device, &cfg);
    let u = port.read_u();
    let mesh = problem.mesh;
    let (i0, i1, j1) = (mesh.i0(), mesh.i1(), mesh.j1());
    let mut max_asym: f64 = 0.0;
    for j in i0..j1 {
        for i in i0..i1 {
            let v = u[mesh.idx(i, j)];
            let mx = u[mesh.idx(i1 - 1 - (i - i0), j)];
            let my = u[mesh.idx(i, j1 - 1 - (j - i0))];
            max_asym = max_asym.max((v - mx).abs()).max((v - my).abs());
        }
    }
    assert!(max_asym < 1e-9, "solution asymmetry {max_asym}");
}

#[test]
fn analytic_cosine_mode_decay_is_exact() {
    // On a uniform material, cell-centred cosine modes are *exact*
    // eigenvectors of the discrete Neumann (reflective-halo) operator:
    //   A·[cos(mπ(i+½)/N)·cos(nπ(j+½)/N)]
    //     = (1 + 2rx(1−cos(mπ/N)) + 2ry(1−cos(nπ/N))) · mode
    // so each implicit-Euler step divides the mode amplitude by exactly
    // that factor. The full pipeline (init, coefficients, CG solve,
    // finalise) must reproduce the closed-form decay to solver tolerance.
    let device = devices::cpu_xeon_e5_2670_x2();
    let cells = 32usize;
    let steps = 3usize;
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.end_step = steps;
    cfg.initial_timestep = 0.05;
    cfg.tl_eps = 1.0e-16;
    cfg.tl_max_iters = 20_000;
    cfg.states = vec![State::background(1.0, 1.0)];

    // hand-build the problem: density 1, energy = 1 + a·cos·cos
    let mut problem = Problem::from_config(&cfg).expect("valid config");
    let mesh = problem.mesh.clone();
    let n = cells as f64;
    let amp = 0.25;
    let mode = |i: usize, j: usize| {
        let x = (i as f64 - mesh.i0() as f64 + 0.5) / n;
        let y = (j as f64 - mesh.i0() as f64 + 0.5) / n;
        (std::f64::consts::PI * x).cos() * (std::f64::consts::PI * y).cos()
    };
    for j in 0..mesh.height() {
        for i in 0..mesh.width() {
            problem.energy.set(i, j, 1.0 + amp * mode(i, j));
            problem.density.set(i, j, 1.0);
        }
    }

    let mut port = make_port(ModelId::Serial, device.clone(), &problem, 0).unwrap();
    let report = driver::drive(port.as_mut(), &problem, &device, &cfg);
    assert!(report.converged);
    let u = port.read_u();

    // closed-form decay factor of the (1,1) mode
    let (rx, ry) = mesh.rx_ry(cfg.initial_timestep);
    let theta = std::f64::consts::PI / n;
    let lambda = 1.0 + 2.0 * rx * (1.0 - theta.cos()) + 2.0 * ry * (1.0 - theta.cos());
    let decay = lambda.powi(-(steps as i32));

    let mut max_err: f64 = 0.0;
    for j in mesh.i0()..mesh.j1() {
        for i in mesh.i0()..mesh.i1() {
            let expect = 1.0 + amp * decay * mode(i, j);
            max_err = max_err.max((u[mesh.idx(i, j)] - expect).abs());
        }
    }
    assert!(
        max_err < 1.0e-9,
        "analytic mode decay violated: max err {max_err:e}"
    );
}

#[test]
fn recip_conductivity_mode_also_converges() {
    let device = devices::cpu_xeon_e5_2670_x2();
    let mut cfg = hot_block(24);
    cfg.coefficient = tea_core::Coefficient::RecipConductivity;
    cfg.end_step = 2;
    let report = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device)))
        .unwrap()
        .report;
    assert!(report.converged);
    assert!(report.summary.temperature.is_finite());
    // and all ports still agree under the alternate coefficient
    let kokkos = run(&RunSpec::new(&cfg, Exec::port(ModelId::Kokkos, &device)))
        .unwrap()
        .report;
    assert_eq!(kokkos.summary, report.summary);
}
