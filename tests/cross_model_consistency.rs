//! Cross-port consistency: every programming-model port, on every device
//! it supports, must reproduce the serial reference bit-for-bit.
//!
//! This is the reproduction of the paper's methodological core —
//! "TeaLeaf's core solver logic and parameters were kept consistent
//! between ports" (§3) — strengthened to exact equality by the shared
//! per-cell kernels and the row-ordered deterministic reductions.

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tealeaf::{run, Exec, ModelId, RunSpec};

fn config(solver: SolverKind, cells: usize) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = solver;
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_max_iters = 2000;
    cfg.tl_ch_cg_presteps = 10;
    cfg
}

fn check_solver(solver: SolverKind) {
    let cpu = devices::cpu_xeon_e5_2670_x2();
    let cfg = config(solver, 48);
    let reference = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &cpu)))
        .expect("serial runs on cpu")
        .report;
    assert!(reference.converged, "reference must converge for {solver}");

    for device in devices::paper_devices() {
        for model in ModelId::ALL {
            if model == ModelId::Serial || model.supports(device.kind).is_none() {
                continue;
            }
            let report = run(&RunSpec::new(&cfg, Exec::port(model, &device)))
                .map(|r| r.report)
                .unwrap_or_else(|e| panic!("{model:?} on {}: {e}", device.name));
            assert!(
                report.converged,
                "{model:?}/{}/{solver} must converge",
                device.name
            );
            assert_eq!(
                report.total_iterations, reference.total_iterations,
                "{model:?}/{}/{solver}: iteration count drifted",
                device.name
            );
            let diff = report.summary.max_abs_diff(&reference.summary);
            assert_eq!(
                diff, 0.0,
                "{model:?}/{}/{solver}: summary differs from serial by {diff:e}",
                device.name
            );
        }
    }
}

#[test]
fn cg_identical_across_ports_and_devices() {
    check_solver(SolverKind::ConjugateGradient);
}

#[test]
fn chebyshev_identical_across_ports_and_devices() {
    check_solver(SolverKind::Chebyshev);
}

#[test]
fn ppcg_identical_across_ports_and_devices() {
    check_solver(SolverKind::Ppcg);
}

#[test]
fn jacobi_identical_across_ports_and_devices() {
    check_solver(SolverKind::Jacobi);
}

#[test]
fn preconditioned_cg_identical_across_ports() {
    let cpu = devices::cpu_xeon_e5_2670_x2();
    let mut cfg = config(SolverKind::ConjugateGradient, 48);
    cfg.tl_preconditioner = true;
    let reference = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &cpu)))
        .unwrap()
        .report;
    for model in [
        ModelId::Omp3F90,
        ModelId::Kokkos,
        ModelId::Raja,
        ModelId::OpenCl,
    ] {
        let report = run(&RunSpec::new(&cfg, Exec::port(model, &cpu)))
            .unwrap()
            .report;
        assert_eq!(
            report.summary.max_abs_diff(&reference.summary),
            0.0,
            "{model:?}"
        );
        assert_eq!(report.total_iterations, reference.total_iterations);
    }
}

#[test]
fn temperature_field_identical_bitwise() {
    // Beyond summaries: the full temperature field must match element-wise.
    let cpu = devices::cpu_xeon_e5_2670_x2();
    let gpu = devices::gpu_k20x();
    let cfg = config(SolverKind::ConjugateGradient, 32);

    // Use ports directly to read the raw field back.
    let problem = tealeaf::Problem::from_config(&cfg).expect("valid config");
    let mut reference =
        tealeaf::ports::make_port(ModelId::Serial, cpu.clone(), &problem, 1).unwrap();
    tealeaf::driver::drive(reference.as_mut(), &problem, &cpu, &cfg);
    let u_ref = reference.read_u();

    for (model, device) in [
        (ModelId::Omp3Cpp, cpu.clone()),
        (ModelId::Omp4, cpu.clone()),
        (ModelId::Kokkos, gpu.clone()),
        (ModelId::KokkosHP, gpu.clone()),
        (ModelId::Cuda, gpu.clone()),
        (ModelId::OpenCl, gpu.clone()),
        (ModelId::Raja, cpu.clone()),
        (ModelId::RajaSimd, cpu.clone()),
        (ModelId::OpenAcc, gpu.clone()),
    ] {
        let mut port = tealeaf::ports::make_port(model, device.clone(), &problem, 1).unwrap();
        tealeaf::driver::drive(port.as_mut(), &problem, &device, &cfg);
        let u = port.read_u();
        assert_eq!(u.len(), u_ref.len());
        let max_diff = u
            .iter()
            .zip(&u_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert_eq!(
            max_diff, 0.0,
            "{model:?} temperature field deviates by {max_diff:e}"
        );
    }
}

#[test]
fn field_map_resolves_aliases_and_keeps_arrays_apart_on_every_port() {
    // Every port stores its arrays in one shared field set; check the map
    // through each port's hooks, on the device each model targets.
    let cfg = config(SolverKind::ConjugateGradient, 16);
    let problem = tealeaf::Problem::from_config(&cfg).expect("valid config");
    let k = problem.mesh.len() / 2;
    for model in ModelId::ALL {
        let device = match model {
            ModelId::Cuda => devices::gpu_k20x(),
            _ => devices::cpu_xeon_e5_2670_x2(),
        };
        let mut port = tealeaf::ports::make_port(model, device, &problem, 1).unwrap();
        for (alias, stored) in [
            (FieldId::Energy1, FieldId::Energy0),
            (FieldId::Mi, FieldId::Z),
        ] {
            port.poke_field(alias, k, 7.25);
            let seen = port.inspect_field(stored).expect("every port reads back");
            assert_eq!(
                seen[k], 7.25,
                "{model:?}: {alias:?} poke not seen through {stored:?}"
            );
        }
        let mut out = Vec::new();
        for id in FieldId::ALL {
            assert!(port.inspect_field_into(id, &mut out), "{model:?}: {id:?}");
            assert_eq!(
                Some(&out),
                port.inspect_field(id).as_ref(),
                "{model:?}: {id:?}"
            );
        }
        for (n, target) in FieldId::STORED.into_iter().enumerate() {
            let before = FieldId::STORED.map(|id| port.inspect_field(id).unwrap());
            port.poke_field(target, k, 100.0 + n as f64);
            for (id, old) in FieldId::STORED.into_iter().zip(before) {
                let now = port.inspect_field(id).unwrap();
                if id == target {
                    assert_eq!(now[k], 100.0 + n as f64, "{model:?}: {id:?} poke lost");
                    assert_eq!(now[..k], old[..k], "{model:?}: {id:?} poke spread");
                    assert_eq!(now[k + 1..], old[k + 1..], "{model:?}: {id:?} poke spread");
                } else {
                    assert_eq!(now, old, "{model:?}: poking {target:?} changed {id:?}");
                }
            }
        }
    }
}
