//! The one run API. `tealeaf::run` on a port must be exactly `drive` on
//! the port it builds, and on a 2×1 tile grid — overlapped or blocking,
//! traced or not — it must reproduce the committed golden rows.

use tea_conformance::golden::{golden_path, parse_registry};
use tea_conformance::{builtin_deck, deck_config, natural_device, GOLDEN_SOLVERS};
use tea_core::config::{SolverKind, TeaConfig};
use tea_telemetry::Record;
use tealeaf::distributed::DistributedSpec;
use tealeaf::driver::{drive, powered_device, TEA_DEFAULT_SEED};
use tealeaf::ports::make_port;
use tealeaf::{run, Exec, ModelId, Problem, Run, RunSpec, TelemetrySink};

fn tiny_config(solver: SolverKind) -> TeaConfig {
    let mut cfg = deck_config("conf_tiny", builtin_deck("conf_tiny").expect("builtin"));
    cfg.solver = solver;
    cfg
}

/// `run` with a collector installed when `traced`; the records come back
/// beside the run (empty when untraced).
fn run_spec(cfg: &TeaConfig, exec: Exec, traced: bool) -> (Run, Vec<Record>) {
    let (sink, collector) = if traced {
        let (sink, collector) = TelemetrySink::collecting();
        (sink, Some(collector))
    } else {
        (TelemetrySink::disabled(), None)
    };
    let run = run(&RunSpec {
        sink,
        ..RunSpec::new(cfg, exec)
    })
    .expect("golden matrix runs are supported");
    (run, collector.map_or_else(Vec::new, |c| c.records()))
}

/// OpenCL on the CPU: the one port whose cost reads the seed, so `run`
/// must hand `drive` the same seed as well as the same powered device.
#[test]
fn a_port_run_is_drive_on_the_port_it_builds() {
    let (model, cfg) = (ModelId::OpenCl, tiny_config(SolverKind::ConjugateGradient));
    let device = natural_device(model);
    let problem = Problem::from_config(&cfg).expect("valid deck");
    let powered = powered_device(&device, &cfg);
    let mut port = make_port(model, powered.clone(), &problem, TEA_DEFAULT_SEED).unwrap();
    let want = drive(port.as_mut(), &problem, &powered, &cfg);
    for traced in [false, true] {
        let (got, records) = run_spec(&cfg, Exec::port(model, &device), traced);
        let report = &got.report;
        assert_eq!(report.summary, want.summary, "traced={traced}");
        assert_eq!(report.total_iterations, want.total_iterations);
        assert_eq!(report.sim.seconds.to_bits(), want.sim.seconds.to_bits());
        assert_eq!(
            report.joules_per_solve().to_bits(),
            want.joules_per_solve().to_bits()
        );
        assert_eq!(report.ranks, 1);
        assert_eq!(records.is_empty(), !traced);
        assert_eq!(got.overlap, Default::default(), "no tiles");
        assert_eq!(got.exchange, Default::default(), "no messages");
        assert_eq!(got.recovery, Default::default(), "no recovery");
    }
}

#[test]
fn a_tiled_run_reproduces_the_golden_rows() {
    let registry = std::fs::read_to_string(golden_path("conf_tiny")).expect("committed goldens");
    let golden = parse_registry(&registry).expect("registry parses");
    for solver in GOLDEN_SOLVERS {
        let cfg = tiny_config(solver);
        let row = golden
            .iter()
            .find(|e| e.solver == solver.name() && e.port == "mpisim-2x1")
            .expect("a 2x1 row per solver");
        for overlap in [true, false] {
            for traced in [false, true] {
                let what = format!("{} overlap={overlap} traced={traced}", solver.name());
                let tiles = DistributedSpec {
                    overlap,
                    ..DistributedSpec::new(2, 1)
                };
                let (got, records) = run_spec(&cfg, Exec::Tiled(tiles), traced);
                let report = &got.report;
                let s = report.summary;
                let bits = [s.volume, s.mass, s.internal_energy, s.temperature].map(f64::to_bits);
                assert_eq!(bits, row.bits, "{what}");
                assert_eq!(report.total_iterations, row.iterations, "{what}");
                assert_eq!(report.converged, row.converged, "{what}");
                assert_eq!(report.ranks, 2, "{what}");
                assert_eq!(got.recovery.final_grid, (2, 1), "{what}");
                assert_eq!(got.overlap.hidden_elements > 0, overlap, "{what}");
                let exchanges = records
                    .iter()
                    .filter(|r| matches!(r, Record::Complete { cat, .. } if *cat == "exchange"))
                    .count();
                assert_eq!(exchanges > 0, traced, "{what}");
            }
        }
    }
}
