//! End-to-end conformance harness tests.
//!
//! The quick tests here run on every `--workspace` test invocation; the
//! `#[ignore]`d ones are the full matrices the CI `conformance` job runs
//! with `-- --ignored` (they re-execute every golden run and a larger
//! fault sweep, which is too slow for the tier-1 path).

use tea_conformance::{
    builtin_decks, chaos_rows, diff_models, diff_ports, kill_rows, lossy_rows, run_fault_matrix,
    run_schedule_fuzz, Lockstep, Mismatch, Sabotage, SabotageMode, SabotagePlan, GOLDEN_PORTS,
};
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tealeaf::distributed::DistributedSpec;
use tealeaf::ports::{common, make_port};
use tealeaf::recorder::RecordingPort;
use tealeaf::{driver, run, Exec, ModelId, NormField, Problem, RunSpec, TeaLeafPort};

fn config(solver: SolverKind, cells: usize) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(cells);
    cfg.solver = solver;
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-10;
    cfg.tl_max_iters = 2000;
    cfg.tl_ch_cg_presteps = 10;
    cfg
}

const SOLVERS: [SolverKind; 4] = [
    SolverKind::ConjugateGradient,
    SolverKind::Chebyshev,
    SolverKind::Ppcg,
    SolverKind::Jacobi,
];

/// The fault-matrix deck: 16² cells, one step.
fn fault_config() -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(16);
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-10;
    cfg
}

/// One attempt per row (no restart, no regrid) over the lossy profile's
/// own 5 s deadline.
fn one_attempt_config() -> TeaConfig {
    let mut cfg = fault_config();
    cfg.tl_max_recoveries = 0;
    cfg.tl_elastic_regrid = false;
    cfg.tl_exchange_deadline = 5.0;
    cfg
}

/// Two tighter steps with frequent checkpoints, so kills fire mid-solve
/// and restarts resume from a cut.
fn recovering_config() -> TeaConfig {
    let mut cfg = fault_config();
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_checkpoint_interval = 2;
    cfg
}

/// The acceptance criterion for the differential harness: mutate one
/// kernel of one port and the report must name that exact kernel,
/// invocation, solver iteration, field and cell — at 1 ulp.
#[test]
fn planted_fault_is_localised_to_kernel_invocation_field_and_cell() {
    let cfg = config(SolverKind::ConjugateGradient, 32);
    let mesh = cfg.mesh();
    let index = common::idx(mesh.width(), mesh.i0() + 7, mesh.i0() + 9);
    let plan = SabotagePlan {
        kernel: "cg_calc_w",
        invocation: 3,
        field: FieldId::W,
        index,
        mode: SabotageMode::UlpFlip,
    };

    let problem = Problem::from_config(&cfg).expect("valid config");
    let device = tea_conformance::natural_device(ModelId::Serial);
    let reference = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let victim = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let candidate = Box::new(RecordingPort::with_hook(victim, Sabotage::new(plan)));

    let outcome = diff_ports(reference, candidate, &problem, &device, &cfg);
    let report = outcome.divergence.expect("planted fault must be caught");
    assert_eq!(report.kernel, "cg_calc_w");
    assert_eq!(report.invocation, 3);
    assert_eq!(report.iteration, 3, "3rd cg_calc_w == 3rd CG iteration");
    let Mismatch::Field { field, divergence } = &report.mismatch else {
        panic!("expected a field mismatch, got {:?}", report.mismatch)
    };
    assert_eq!(*field, FieldId::W);
    assert_eq!(divergence.index, index);
    assert_eq!(divergence.ulps, 1, "exactly the planted bit flip");
    assert_eq!(divergence.count, 1, "exactly one poisoned cell");
}

#[test]
fn planted_fault_in_chebyshev_names_the_iterate_kernel() {
    let mut cfg = config(SolverKind::Chebyshev, 48);
    // Hard enough that the CG presteps cannot finish the solve, so the
    // Chebyshev iteration actually runs.
    cfg.tl_eps = 1.0e-13;
    cfg.tl_ch_cg_presteps = 8;
    let mesh = cfg.mesh();
    let index = common::idx(mesh.width(), mesh.i0() + 3, mesh.i0() + 2);
    let plan = SabotagePlan {
        kernel: "cheby_iterate",
        invocation: 2,
        field: FieldId::U,
        index,
        mode: SabotageMode::UlpFlip,
    };
    let problem = Problem::from_config(&cfg).expect("valid config");
    let device = tea_conformance::natural_device(ModelId::Serial);
    let reference = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let victim = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let outcome = diff_ports(
        reference,
        Box::new(RecordingPort::with_hook(victim, Sabotage::new(plan))),
        &problem,
        &device,
        &cfg,
    );
    let report = outcome.divergence.expect("planted fault must be caught");
    assert_eq!(report.kernel, "cheby_iterate");
    assert_eq!(report.invocation, 2);
    assert_eq!(
        report.iteration, 10,
        "8 CG presteps + the 2nd Chebyshev iterate"
    );
    assert!(matches!(
        report.mismatch,
        Mismatch::Field {
            field: FieldId::U,
            ..
        }
    ));
}

/// After a divergence the reference's scalars keep driving the solve, so
/// the run's control flow (and its iteration count) is untouched by the
/// candidate's fault — localization is a pure function of the fault.
#[test]
fn control_flow_stays_reference_driven_after_divergence() {
    let cfg = config(SolverKind::ConjugateGradient, 24);
    let device = tea_conformance::natural_device(ModelId::Serial);
    let plain = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device)))
        .unwrap()
        .report;

    let mesh = cfg.mesh();
    let plan = SabotagePlan {
        kernel: "cg_init",
        invocation: 1,
        field: FieldId::R,
        index: common::idx(mesh.width(), mesh.i0() + 1, mesh.i0() + 1),
        mode: SabotageMode::UlpFlip,
    };
    let problem = Problem::from_config(&cfg).expect("valid config");
    let reference = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let victim = make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();
    let outcome = diff_ports(
        reference,
        Box::new(RecordingPort::with_hook(victim, Sabotage::new(plan))),
        &problem,
        &device,
        &cfg,
    );
    let report = outcome.divergence.expect("cg_init fault caught");
    assert_eq!(report.kernel, "cg_init");
    assert_eq!(report.iteration, 0, "before the first iteration");
    assert_eq!(
        outcome.iterations, plain.total_iterations,
        "fault must not perturb the reference-driven control flow"
    );
    assert_eq!(outcome.summary, plain.summary, "reference summary returned");
}

#[test]
fn clean_cross_port_pairs_show_no_divergence_on_any_solver() {
    for solver in [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
        SolverKind::Jacobi,
    ] {
        let cfg = config(solver, 24);
        let outcome = diff_models(ModelId::Serial, ModelId::Cuda, &cfg, 1).unwrap();
        assert!(
            outcome.divergence.is_none(),
            "serial vs cuda diverged on {solver}: {}",
            outcome
        );
        assert!(outcome.converged, "{solver} must converge");
    }
    // One offload + one work-stealing host port on CG for wider coverage.
    let cfg = config(SolverKind::ConjugateGradient, 24);
    for candidate in [ModelId::OpenCl, ModelId::Kokkos] {
        let outcome = diff_models(ModelId::Serial, candidate, &cfg, 1).unwrap();
        assert!(outcome.divergence.is_none(), "{}", outcome);
    }
    // Preconditioned CG: the replay must carry the preconditioner flag.
    let cfg = TeaConfig {
        tl_preconditioner: true,
        ..cfg
    };
    let outcome = diff_models(ModelId::Serial, ModelId::Cuda, &cfg, 1).unwrap();
    assert!(outcome.divergence.is_none(), "preconditioned: {}", outcome);
    assert!(outcome.converged);
}

/// Recording, and a sabotage plan that never fires, must leave every
/// port's run bit-identical on the simulated clock too: same summary,
/// iterations, simulated seconds and per-kernel profile (so the wrapper
/// neither adds a charge nor un-fuses a fused launch).
#[test]
fn wrappers_are_transparent_on_every_port_solver_and_preconditioner() {
    let never = SabotagePlan {
        kernel: "no_such_kernel",
        invocation: 1,
        field: FieldId::U,
        index: 0,
        mode: SabotageMode::UlpFlip,
    };
    for model in GOLDEN_PORTS {
        let device = tea_conformance::natural_device(model);
        for solver in SOLVERS {
            for tl_preconditioner in [false, true] {
                let cfg = TeaConfig {
                    tl_preconditioner,
                    ..config(solver, 16)
                };
                let problem = Problem::from_config(&cfg).expect("valid config");
                let port = || make_port(model, device.clone(), &problem, 1).unwrap();
                let bare = driver::drive(port().as_mut(), &problem, &device, &cfg);
                let mut recorded = RecordingPort::new(port());
                let mut sabotaged = RecordingPort::with_hook(port(), Sabotage::new(never));
                let runs = [
                    driver::drive(&mut recorded, &problem, &device, &cfg),
                    driver::drive(&mut sabotaged, &problem, &device, &cfg),
                ];
                assert!(!sabotaged.hook().fired());
                for run in runs {
                    let at = format!("{model:?}/{solver}/precond={tl_preconditioner}");
                    assert_eq!(run.summary, bare.summary, "{at}");
                    assert_eq!(run.total_iterations, bare.total_iterations, "{at}");
                    assert_eq!(
                        run.sim.seconds.to_bits(),
                        bare.sim.seconds.to_bits(),
                        "{at}"
                    );
                    assert_eq!(run.sim.kernel_profile, bare.sim.kernel_profile, "{at}");
                }
            }
        }
    }
}

/// The hooks' side channels: pokes reach both lock-stepped ports, a
/// `read_u` mismatch is reported, and a scalar sabotage rewrites only
/// the value the caller sees — the log keeps the true one.
#[test]
fn lockstep_sees_pokes_and_read_u_and_sabotage_spares_the_log() {
    let cfg = config(SolverKind::ConjugateGradient, 16);
    let mesh = cfg.mesh();
    let index = common::idx(mesh.width(), mesh.i0() + 2, mesh.i0() + 5);
    let problem = Problem::from_config(&cfg).expect("valid config");
    let device = tea_conformance::natural_device(ModelId::Serial);
    let port = || make_port(ModelId::Serial, device.clone(), &problem, 1).unwrap();

    let mut lockstep = RecordingPort::with_hook(port(), Lockstep::new(port()));
    lockstep.poke_field(FieldId::U, index, 1.0);
    assert_eq!(lockstep.read_u()[index], 1.0);
    assert_eq!(lockstep.hook().divergence(), None, "the poke reached both");

    let mut candidate = port();
    candidate.poke_field(FieldId::U, index, 1.0);
    let mut lockstep = RecordingPort::with_hook(port(), Lockstep::new(candidate));
    assert_eq!(
        lockstep.read_u()[index],
        0.0,
        "the reference's u is returned"
    );
    let report = lockstep.hook().divergence().expect("read_u compared");
    assert_eq!((report.kernel, report.invocation), ("read_u", 1));
    let Mismatch::Field { field, divergence } = &report.mismatch else {
        panic!("expected a field mismatch, got {:?}", report.mismatch)
    };
    assert_eq!((*field, divergence.index), (FieldId::U, index));

    let plan = SabotagePlan {
        kernel: "calc_2norm",
        invocation: 1,
        field: FieldId::U,
        index: 0,
        mode: SabotageMode::NegateScalar,
    };
    let mut sabotaged = RecordingPort::with_hook(port(), Sabotage::new(plan));
    let (rx, ry) = problem.rx_ry();
    sabotaged.init_fields(cfg.coefficient, rx, ry);
    let seen = sabotaged.calc_2norm(NormField::U0);
    assert!(sabotaged.hook().fired());
    assert!(seen < 0.0, "the caller sees the negated norm");
    assert_eq!(sabotaged.log()[1].scalar_result(), Some(-seen));
}

/// Distributed CG must agree with the single-chunk serial port
/// bit-for-bit: same iteration count, same summary bits, at every rank
/// count — the property the golden registry's `mpisim-N` rows pin.
#[test]
fn distributed_cg_matches_the_serial_port_bitwise() {
    let (name, text) = builtin_decks()[1]; // conf_tiny
    let cfg = tea_conformance::matrix::deck_config(name, text);
    let device = tea_conformance::natural_device(ModelId::Serial);
    let serial = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device)))
        .unwrap()
        .report;
    let cfg = TeaConfig {
        solver: SolverKind::ConjugateGradient,
        ..cfg
    };
    for ranks in [1, 2, 4] {
        let spec = DistributedSpec::new(1, ranks);
        let dist = run(&RunSpec::new(&cfg, Exec::Tiled(spec)))
            .expect("a fault-free run cannot abort")
            .report;
        assert_eq!(
            dist.total_iterations, serial.total_iterations,
            "{ranks} ranks"
        );
        assert_eq!(dist.summary, serial.summary, "{ranks} ranks");
        assert!(dist.converged);
    }
}

/// The committed registries must encode the tentpole invariant directly:
/// every 2-D tile-grid row (`mpisim-{gx}x{gy}`) carries exactly the same
/// bits, iteration count and convergence flag as the serial row for the
/// same solver. This parses the committed files only — no runs — so it
/// guards the *registry contents* cheaply on every tier-1 invocation;
/// the `--ignored` golden matrix re-executes the runs themselves.
#[test]
fn committed_2d_grid_rows_bit_equal_their_serial_rows() {
    use tea_conformance::golden::{golden_path, parse_registry};
    for (name, _) in builtin_decks() {
        let text = std::fs::read_to_string(golden_path(name)).expect("committed registry");
        let entries = parse_registry(&text).expect("registry parses");
        let grid_rows: Vec<_> = entries
            .iter()
            .filter(|e| e.port.starts_with("mpisim-") && e.port.contains('x'))
            .collect();
        assert_eq!(grid_rows.len(), 16, "{name}: 4 solvers x 4 grids");
        for row in grid_rows {
            let serial = entries
                .iter()
                .find(|e| e.solver == row.solver && e.port == "serial")
                .unwrap_or_else(|| panic!("{name}: no serial row for {}", row.solver));
            assert_eq!(
                row.bits, serial.bits,
                "{name}: {}:{} drifted from serial",
                row.solver, row.port
            );
            assert_eq!(row.iterations, serial.iterations, "{name}: {}", row.port);
            assert_eq!(row.converged, serial.converged);
        }
    }
}

#[test]
fn short_schedule_fuzz_budget_is_clean() {
    let report = run_schedule_fuzz(0x7EA1EAF, 2).expect("schedules must not change bits");
    assert_eq!(report.rounds, 2);
}

#[test]
fn small_fault_matrix_is_never_silently_wrong() {
    let report = run_fault_matrix(
        &one_attempt_config(),
        &[(1, 2)],
        &[SolverKind::ConjugateGradient],
        |cfg, _| lossy_rows(cfg, &[3, 4]),
    )
    .expect("never silently wrong");
    assert_eq!(report.runs, 2);
}

// ---- full matrices: the CI `conformance` job runs these with --ignored ----

#[test]
#[ignore = "full golden matrix; run via the CI conformance job or locally with -- --ignored"]
fn golden_registry_matches_committed_files() {
    for (name, text) in builtin_decks() {
        match tea_conformance::check_deck(name, text) {
            Ok(n) => assert!(n >= 51, "deck {name}: expected full matrix, got {n} rows"),
            Err(problems) => panic!(
                "deck {name}: {} golden mismatches:\n  {}",
                problems.len(),
                problems.join("\n  ")
            ),
        }
    }
}

#[test]
#[ignore = "larger fault sweep; run via the CI conformance job or locally with -- --ignored"]
fn full_fault_matrix_across_ranks_and_seeds() {
    let seeds: Vec<u64> = (1..=8).collect();
    let report = run_fault_matrix(
        &one_attempt_config(),
        &[(1, 1), (1, 2), (1, 4)],
        &[SolverKind::ConjugateGradient],
        |cfg, _| lossy_rows(cfg, &seeds),
    )
    .expect("never silently wrong");
    assert_eq!(report.runs, 24);
    assert!(
        report.recovered > 0,
        "at least some lossy runs must recover: {report:?}"
    );
}

#[test]
#[ignore = "full 2-D fault matrix; run via the CI conformance job or locally with -- --ignored"]
fn full_2d_fault_matrix_every_solver_every_grid() {
    let grids = [(2, 1), (1, 2), (2, 2)];
    let seeds: Vec<u64> = (1..=4).collect();
    let report = run_fault_matrix(&one_attempt_config(), &grids, &SOLVERS, |cfg, _| {
        lossy_rows(cfg, &seeds)
    })
    .expect("never silently wrong");
    assert_eq!(report.runs, 48, "4 solvers x 3 grids x 4 seeds");
    assert!(
        report.recovered > 0,
        "at least some lossy 2-D runs must recover: {report:?}"
    );
}

/// The recovery-enabled fault matrix the CI conformance job runs: with
/// checkpoint-restart on, every lossy-network row *and* every injected
/// rank loss must finish bit-identical to the clean baseline — an abort
/// or a bitwise divergence fails the matrix outright.
#[test]
#[ignore = "recovery fault matrix; run via the CI conformance job or locally with -- --ignored"]
fn full_recovering_fault_matrix_is_bit_identical() {
    let mut cfg = recovering_config();
    cfg.tl_max_recoveries = 4;
    cfg.tl_elastic_regrid = false;
    let kills = [
        mpisim::KillSpec::transient(0, 2),
        mpisim::KillSpec::transient(1, 25),
        mpisim::KillSpec::transient(3, 40),
    ];
    let report = run_fault_matrix(
        &cfg,
        &[(1, 2), (1, 4)],
        &[SolverKind::ConjugateGradient],
        |cfg, ranks| [lossy_rows(cfg, &[3, 5, 11]), kill_rows(cfg, ranks, &kills)].concat(),
    )
    .expect("never silently wrong");
    // 2 ranks: 3 lossy + 2 applicable kills; 4 ranks: 3 lossy + 3 kills.
    assert_eq!(report.runs, 11);
    assert_eq!(report.aborted, 0, "every row must recover: {report:?}");
    assert!(
        report.restarts >= 2,
        "the kill rows must exercise checkpoint restarts: {report:?}"
    );
}

/// The 2-D recovery matrix the CI chaos job runs: every solver on every
/// tile grid must replay injected rank losses bit-identically through
/// the self-healing driver — aborts and divergences both fail.
#[test]
#[ignore = "2-D recovery matrix; run via the CI chaos job or locally with -- --ignored"]
fn full_2d_recovering_matrix_is_bit_identical() {
    let grids = [(2, 1), (1, 2), (2, 2)];
    let kills = [
        mpisim::KillSpec::transient(1, 25),
        mpisim::KillSpec::transient(3, 40),
    ];
    let report = run_fault_matrix(&recovering_config(), &grids, &SOLVERS, |cfg, ranks| {
        [lossy_rows(cfg, &[13]), kill_rows(cfg, ranks, &kills)].concat()
    })
    .expect("never silently wrong");
    // Per solver: 2-rank grids take 1 lossy + 1 kill, the 2x2 grid 1 + 2.
    assert_eq!(report.runs, 28);
    assert_eq!(report.aborted, 0, "every row must recover: {report:?}");
    assert!(
        report.restarts >= 4,
        "the kill rows must exercise checkpoint restarts: {report:?}"
    );
}

/// The seeded chaos matrix the CI chaos job runs: kill × corrupt ×
/// delay × partition over every solver and four tile grids. Every row
/// must recover bit-identical, degrade with explicit events, or abort
/// loudly — a silent divergence fails immediately.
#[test]
#[ignore = "seeded chaos matrix; run via the CI chaos job or locally with -- --ignored"]
fn full_chaos_matrix_never_silently_wrong() {
    let mut cfg = recovering_config();
    cfg.tl_max_recoveries = 2;
    let grids = [(2, 1), (1, 2), (2, 2), (4, 1)];
    let seeds = [0x5eed, 0xc4a0];
    let report = run_fault_matrix(&cfg, &grids, &SOLVERS, |cfg, ranks| {
        chaos_rows(cfg, ranks, &seeds)
    })
    .expect("chaos invariant must hold");
    // Every grid is multi-rank, so all four families run per row.
    assert_eq!(
        report.runs, 128,
        "4 solvers x 4 grids x 2 seeds x 4 families"
    );
    assert_eq!(
        report.recovered + report.restarted + report.regridded + report.aborted,
        report.runs
    );
    assert!(
        report.restarted >= 8,
        "kill rows must restart worlds: {report:?}"
    );
    assert!(
        report.recovered >= report.runs / 2,
        "most corruption/delay/partition rows should be absorbed in-transport: {report:?}"
    );
}

#[test]
#[ignore = "longer fuzz budget; run via the CI conformance job or locally with -- --ignored"]
fn extended_schedule_fuzz_budget() {
    let report = run_schedule_fuzz(0xF00D, 16).expect("schedules must not change bits");
    assert_eq!(report.rounds, 16);
}
