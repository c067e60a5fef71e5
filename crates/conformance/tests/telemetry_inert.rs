//! Telemetry inertness and trace-shape guarantees.
//!
//! The telemetry layer must be a pure observer: a run with a collector
//! installed must produce bit-identical numbers to an untraced run (and
//! therefore to the committed golden registry), and the trace itself
//! must be deterministic — two runs of the same (deck, model, solver,
//! seed) emit byte-identical JSONL, because every record is stamped with
//! *simulated* time.

use tea_conformance::golden::{golden_path, parse_registry};
use tea_conformance::{
    builtin_deck, deck_config, model_name, natural_device, GOLDEN_PORTS, GOLDEN_SOLVERS,
};
use tea_core::config::{SolverKind, TeaConfig};
use tea_telemetry::export::to_jsonl;
use tea_telemetry::Record;
use tealeaf::{run, Exec, ModelId, RunReport, RunSpec, TelemetrySink};

fn tiny_config(solver: SolverKind) -> TeaConfig {
    let mut cfg = deck_config("conf_tiny", builtin_deck("conf_tiny").expect("builtin"));
    cfg.solver = solver;
    cfg
}

fn run_traced(model: ModelId, cfg: &TeaConfig) -> (RunReport, Vec<Record>) {
    let (sink, collector) = TelemetrySink::collecting();
    let report = run(&RunSpec {
        sink,
        ..RunSpec::new(cfg, Exec::port(model, &natural_device(model)))
    })
    .expect("traced run")
    .report;
    (report, collector.records())
}

fn summary_bits(report: &RunReport) -> [u64; 4] {
    [
        report.summary.volume.to_bits(),
        report.summary.mass.to_bits(),
        report.summary.internal_energy.to_bits(),
        report.summary.temperature.to_bits(),
    ]
}

/// Every port, traced vs untraced, must agree to the bit — including the
/// simulated clock, which the telemetry reads but must never advance.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    let cfg = tiny_config(SolverKind::ConjugateGradient);
    for model in GOLDEN_PORTS {
        let plain = run(&RunSpec::new(
            &cfg,
            Exec::port(model, &natural_device(model)),
        ))
        .expect("untraced run")
        .report;
        let (traced, records) = run_traced(model, &cfg);
        assert!(
            !records.is_empty(),
            "{}: collector saw nothing",
            model_name(model)
        );
        assert_eq!(
            summary_bits(&plain),
            summary_bits(&traced),
            "{}: telemetry perturbed the field summary",
            model_name(model)
        );
        assert_eq!(
            plain.sim.seconds.to_bits(),
            traced.sim.seconds.to_bits(),
            "{}: telemetry perturbed the simulated clock",
            model_name(model)
        );
        assert_eq!(plain.total_iterations, traced.total_iterations);
        assert_eq!(plain.sim.kernels, traced.sim.kernels);
    }
}

/// Traced runs must also match the committed golden registry (spot
/// check; the full sweep is the `#[ignore]` test below).
#[test]
fn traced_runs_match_committed_goldens_spot() {
    let committed = std::fs::read_to_string(golden_path("conf_tiny")).expect("registry");
    let goldens = parse_registry(&committed).expect("registry parses");
    for (model, solver) in [
        (ModelId::Serial, SolverKind::ConjugateGradient),
        (ModelId::Cuda, SolverKind::Chebyshev),
    ] {
        let (report, _) = run_traced(model, &tiny_config(solver));
        let golden = goldens
            .iter()
            .find(|g| g.solver == solver.name() && g.port == model_name(model))
            .unwrap_or_else(|| panic!("no golden row for {}/{}", solver.name(), model_name(model)));
        assert_eq!(golden.iterations, report.total_iterations);
        assert_eq!(golden.converged, report.converged);
        assert_eq!(
            golden.bits,
            summary_bits(&report),
            "{}/{}: traced run drifted from the golden registry",
            solver.name(),
            model_name(model)
        );
    }
}

/// Full sweep: both decks × all four solvers × all eight ports, traced,
/// against the committed registry. Slow; run with `--ignored`.
#[test]
#[ignore = "full traced golden sweep; minutes of runtime"]
fn traced_sweep_matches_committed_goldens() {
    for deck in ["conf_tiny", "conf_small"] {
        let committed = std::fs::read_to_string(golden_path(deck)).expect("registry");
        let goldens = parse_registry(&committed).expect("registry parses");
        let base = deck_config(deck, builtin_deck(deck).expect("builtin"));
        for solver in GOLDEN_SOLVERS {
            let mut cfg = base.clone();
            cfg.solver = solver;
            for model in GOLDEN_PORTS {
                let (report, _) = run_traced(model, &cfg);
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
                    "{deck}/{}/{}: traced run drifted",
                    solver.name(),
                    model_name(model)
                );
            }
        }
    }
}

/// Traces are stamped with simulated time only, so two identical runs
/// must serialize to byte-identical JSONL.
#[test]
fn identical_runs_emit_byte_identical_traces() {
    for solver in [SolverKind::ConjugateGradient, SolverKind::Ppcg] {
        let cfg = tiny_config(solver);
        let (_, records_a) = run_traced(ModelId::OpenCl, &cfg);
        let (_, records_b) = run_traced(ModelId::OpenCl, &cfg);
        assert_eq!(
            to_jsonl(&records_a),
            to_jsonl(&records_b),
            "{}: trace is not deterministic",
            solver.name()
        );
    }
}

/// Structural invariants of a full-run trace: every opened span is
/// closed, parents reference earlier opens, and the hierarchy runs
/// step → solve → iteration → kernel.
#[test]
fn trace_spans_nest_step_solve_iteration_kernel() {
    let (_, records) = run_traced(ModelId::Serial, &tiny_config(SolverKind::ConjugateGradient));
    let mut open_cats = std::collections::HashMap::new(); // id -> cat
    let mut unclosed = std::collections::HashSet::new();
    let mut kernels_under_iterations = 0usize;
    for record in &records {
        match record {
            Record::Open { id, cat, .. } => {
                open_cats.insert(*id, *cat);
                unclosed.insert(*id);
            }
            Record::Close { id, .. } => {
                assert!(unclosed.remove(id), "close without open (id {id})");
            }
            Record::Complete { parent, cat, .. } => {
                if *parent != 0 {
                    let parent_cat = open_cats
                        .get(parent)
                        .unwrap_or_else(|| panic!("{cat} span parented to unknown id"));
                    if *cat == "kernel" && *parent_cat == "iteration" {
                        kernels_under_iterations += 1;
                    }
                }
            }
            Record::Instant { .. } => {}
        }
    }
    assert!(unclosed.is_empty(), "{} spans never closed", unclosed.len());
    let cats: Vec<&str> = open_cats.values().copied().collect();
    for expected in ["step", "solve", "iteration"] {
        assert!(
            cats.contains(&expected),
            "no '{expected}' span in a full run"
        );
    }
    assert!(
        kernels_under_iterations > 0,
        "kernel spans must nest under iteration spans"
    );
}

/// The disabled sink (the default) must leave no trace anywhere: the
/// plain entry points produce reports with no collector attached and
/// identical numbers whether or not telemetry code is linked in.
#[test]
fn default_runs_carry_no_collector() {
    let cfg = tiny_config(SolverKind::Jacobi);
    let report = run(&RunSpec::new(
        &cfg,
        Exec::port(ModelId::Serial, &natural_device(ModelId::Serial)),
    ))
    .expect("plain run")
    .report;
    let (traced, records) = run_traced(ModelId::Serial, &cfg);
    assert_eq!(summary_bits(&report), summary_bits(&traced));
    assert!(records.iter().any(|r| r.cat() == "iteration"));
}
