//! Energy-accounting inertness and identity guarantees.
//!
//! The power model must be a pure observer of the simulated time stream:
//! runs with it enabled (the default) must produce bit-identical
//! numbers — field summaries, simulated seconds, iteration counts — to
//! runs with it disabled and to the committed golden registry, while the
//! energy figures themselves obey the accounting identity the profiler's
//! `--energy --validate` enforces: the name-sorted per-kernel joules
//! fold, plus transfer and idle energy, equals joules-per-solve to the
//! bit.

use tea_conformance::golden::{golden_path, parse_registry};
use tea_conformance::{
    builtin_deck, deck_config, model_name, natural_device, GOLDEN_PORTS, GOLDEN_SOLVERS,
};
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::{Exec, ModelId, RunReport, RunSpec};

fn tiny_config(solver: SolverKind) -> TeaConfig {
    let mut cfg = deck_config("conf_tiny", builtin_deck("conf_tiny").expect("builtin"));
    cfg.solver = solver;
    cfg
}

fn run(model: ModelId, cfg: &TeaConfig) -> RunReport {
    tealeaf::run(&RunSpec::new(
        cfg,
        Exec::port(model, &natural_device(model)),
    ))
    .expect("run")
    .report
}

fn summary_bits(report: &RunReport) -> [u64; 4] {
    [
        report.summary.volume.to_bits(),
        report.summary.mass.to_bits(),
        report.summary.internal_energy.to_bits(),
        report.summary.temperature.to_bits(),
    ]
}

/// Every port: power model on vs off must agree to the bit on every
/// scalar except the joules, which are positive when on and exactly
/// zero when off.
#[test]
fn power_model_runs_are_bit_identical_to_unpowered_runs() {
    let cfg_on = tiny_config(SolverKind::ConjugateGradient);
    let mut cfg_off = cfg_on.clone();
    cfg_off.tl_power_model = false;
    for model in GOLDEN_PORTS {
        let on = run(model, &cfg_on);
        let off = run(model, &cfg_off);
        let name = model_name(model);
        assert!(
            on.joules_per_solve() > 0.0,
            "{name}: powered run drew no energy"
        );
        assert_eq!(
            off.joules_per_solve(),
            0.0,
            "{name}: unpowered run drew energy"
        );
        assert_eq!(
            summary_bits(&on),
            summary_bits(&off),
            "{name}: the power model perturbed the field summary"
        );
        assert_eq!(
            on.sim.seconds.to_bits(),
            off.sim.seconds.to_bits(),
            "{name}: the power model perturbed the simulated clock"
        );
        assert_eq!(on.total_iterations, off.total_iterations, "{name}");
        assert_eq!(on.converged, off.converged, "{name}");
        assert_eq!(on.sim.kernels, off.sim.kernels, "{name}");
        assert_eq!(on.sim.app_bytes, off.sim.app_bytes, "{name}");
    }
}

/// Every port: the per-kernel joules fold plus transfer and idle energy
/// must reproduce joules-per-solve bit-exactly — the identity is by
/// construction (one canonical fold), so any drift means a second
/// accumulator crept in.
#[test]
fn per_kernel_joules_fold_to_joules_per_solve_bit_exactly() {
    for solver in [SolverKind::ConjugateGradient, SolverKind::Chebyshev] {
        let cfg = tiny_config(solver);
        for model in GOLDEN_PORTS {
            let report = run(model, &cfg);
            let fold: f64 = report.kernel_joules().iter().map(|(_, j)| j).sum();
            let total = fold + report.sim.energy.transfer_joules + report.sim.energy.idle_joules;
            assert_eq!(
                total.to_bits(),
                report.joules_per_solve().to_bits(),
                "{}/{}: per-kernel joules do not fold to the total",
                solver.name(),
                model_name(model)
            );
        }
    }
}

/// Powered runs must still match the committed golden registry (spot
/// check; the full sweep is the `#[ignore]` test below): energy
/// accounting never feeds back into the numbers the registry pins.
#[test]
fn powered_runs_match_committed_goldens_spot() {
    let committed = std::fs::read_to_string(golden_path("conf_tiny")).expect("registry");
    let goldens = parse_registry(&committed).expect("registry parses");
    for (model, solver) in [
        (ModelId::Serial, SolverKind::ConjugateGradient),
        (ModelId::Cuda, SolverKind::Chebyshev),
    ] {
        let report = run(model, &tiny_config(solver));
        assert!(report.joules_per_solve() > 0.0, "power model is on");
        let golden = goldens
            .iter()
            .find(|g| g.solver == solver.name() && g.port == model_name(model))
            .unwrap_or_else(|| panic!("no golden row for {}/{}", solver.name(), model_name(model)));
        assert_eq!(golden.iterations, report.total_iterations);
        assert_eq!(golden.converged, report.converged);
        assert_eq!(
            golden.bits,
            summary_bits(&report),
            "{}/{}: powered run drifted from the golden registry",
            solver.name(),
            model_name(model)
        );
    }
}

/// The wall-clock partition: active + transfer + idle seconds must cover
/// the simulated clock (to accumulation roundoff on real runs), and on
/// host-only devices the transfer bucket stays empty of link time.
#[test]
fn energy_partition_covers_the_simulated_clock() {
    let cfg = tiny_config(SolverKind::ConjugateGradient);
    for model in GOLDEN_PORTS {
        let report = run(model, &cfg);
        let e = &report.sim.energy;
        let covered = e.active_seconds + e.transfer_seconds + e.idle_seconds;
        assert!(
            (covered - report.sim.seconds).abs() <= 1e-9 * report.sim.seconds.max(1.0),
            "{}: partition {covered} vs clock {}",
            model_name(model),
            report.sim.seconds
        );
    }
}

/// Energy figures are deterministic: two identical runs report the same
/// joules to the bit (the jittered OpenCL CPU port included, since the
/// seed is fixed).
#[test]
fn identical_runs_report_identical_joules() {
    for model in [ModelId::Serial, ModelId::OpenCl, ModelId::Cuda] {
        let cfg = tiny_config(SolverKind::Ppcg);
        let a = run(model, &cfg);
        let b = run(model, &cfg);
        assert_eq!(
            a.joules_per_solve().to_bits(),
            b.joules_per_solve().to_bits(),
            "{}: energy is not deterministic",
            model_name(model)
        );
    }
}

/// Full sweep: both decks × all four solvers × all eight ports with the
/// power model on, against the committed registry, with the fold
/// identity checked on every run. Slow; run with `--ignored`.
#[test]
#[ignore = "full powered golden sweep; minutes of runtime"]
fn powered_sweep_matches_committed_goldens() {
    for deck in ["conf_tiny", "conf_small"] {
        let committed = std::fs::read_to_string(golden_path(deck)).expect("registry");
        let goldens = parse_registry(&committed).expect("registry parses");
        let base = deck_config(deck, builtin_deck(deck).expect("builtin"));
        for solver in GOLDEN_SOLVERS {
            let mut cfg = base.clone();
            cfg.solver = solver;
            for model in GOLDEN_PORTS {
                let report = run(model, &cfg);
                let fold: f64 = report.kernel_joules().iter().map(|(_, j)| j).sum();
                let total =
                    fold + report.sim.energy.transfer_joules + report.sim.energy.idle_joules;
                assert_eq!(total.to_bits(), report.joules_per_solve().to_bits());
                let golden = goldens
                    .iter()
                    .find(|g| g.solver == solver.name() && g.port == model_name(model))
                    .unwrap_or_else(|| {
                        panic!(
                            "no golden row for {deck}/{}/{}",
                            solver.name(),
                            model_name(model)
                        )
                    });
                assert_eq!(golden.iterations, report.total_iterations, "{deck}");
                assert_eq!(
                    golden.bits,
                    summary_bits(&report),
                    "{deck}/{}/{}: powered run drifted",
                    solver.name(),
                    model_name(model)
                );
            }
        }
    }
}
