//! The timestep driver: the `tea_leaf` main loop.

use std::time::Instant;

use simdev::{DeviceSpec, TelemetrySink};
use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;

use crate::kernels::{traced_halo, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::{make_port, PortError};
use crate::problem::Problem;
use crate::report::RunReport;
use crate::resilience::{PhaseStart, RecoveryEvent, SolverHealth};
use crate::solver::{self, SolveOutcome};

/// Run the full simulation for `config` with `model` on `device`,
/// seeding any stochastic cost terms (the OpenCL CPU jitter) from `seed`.
pub fn run_simulation_seeded(
    model: ModelId,
    device: &DeviceSpec,
    config: &TeaConfig,
    seed: u64,
) -> Result<RunReport, PortError> {
    run_simulation_traced(model, device, config, seed, TelemetrySink::disabled())
}

/// Apply the deck's power-model settings to `device`: `tl_power_model off`
/// zeroes every power parameter (energy reads exactly 0 J; times are
/// untouched either way), and `tl_idle_watts` / `tl_active_watts` override
/// the calibrated board figures.
pub fn powered_device(device: &DeviceSpec, config: &TeaConfig) -> DeviceSpec {
    if !config.tl_power_model {
        return simdev::devices::unpowered(device.clone());
    }
    let mut device = device.clone();
    if let Some(idle) = config.tl_idle_watts {
        device.idle_watts = idle;
    }
    if let Some(active) = config.tl_active_watts {
        device.active_watts = active;
    }
    device
}

/// Default seed for reproducible runs.
pub const TEA_DEFAULT_SEED: u64 = 0x7EA1EAF;

/// [`run_simulation_seeded`] with a fixed default seed.
pub fn run_simulation(
    model: ModelId,
    device: &DeviceSpec,
    config: &TeaConfig,
) -> Result<RunReport, PortError> {
    run_simulation_seeded(model, device, config, TEA_DEFAULT_SEED)
}

/// [`run_simulation_seeded`] with a telemetry sink installed on the
/// port before the first kernel: the whole run — step spans, solve
/// attempts, iterations, kernels, halos, recovery events — lands in the
/// sink's collector, stamped with simulated time. The instrumentation
/// is numerically inert: the report is bit-identical to an untraced run.
pub fn run_simulation_traced(
    model: ModelId,
    device: &DeviceSpec,
    config: &TeaConfig,
    seed: u64,
    sink: TelemetrySink,
) -> Result<RunReport, PortError> {
    let problem = Problem::from_config(config)?;
    let device = powered_device(device, config);
    let mut port = make_port(model, device.clone(), &problem, seed)?;
    port.context_mut().set_telemetry(sink);
    Ok(drive(port.as_mut(), &problem, &device, config))
}

/// Run one already-constructed port through the timestep loop. Exposed so
/// benchmarks can reuse a port or inspect it mid-run.
pub fn drive(
    port: &mut dyn TeaLeafPort,
    problem: &Problem,
    device: &DeviceSpec,
    config: &TeaConfig,
) -> RunReport {
    let start = Instant::now();
    let (rx, ry) = problem.rx_ry();
    let steps = run_steps(port, config, rx, ry, None, |port, config, _| {
        solver::solve(port, config)
    });
    let summary = port.field_summary();
    RunReport {
        model: port.model(),
        device: device.name.clone(),
        solver: config.solver,
        x_cells: config.x_cells,
        y_cells: config.y_cells,
        steps: config.end_step,
        total_iterations: steps.total_iterations,
        converged: steps.converged,
        summary,
        sim: port.context().clock.snapshot(),
        wall_seconds: start.elapsed().as_secs_f64(),
        eigenvalues: steps.eigenvalues,
        recoveries: steps.recoveries,
        health: steps.health,
        failed_step: steps.failed_step,
    }
}

/// Where a resumed step loop picks up: the run totals at the top of
/// `step`, plus the CG phase state when the cut lies inside the step's
/// solve (the port's fields then already hold that state).
pub(crate) struct StepResume {
    pub step: usize,
    pub total_iterations: usize,
    pub converged: bool,
    pub phase: Option<PhaseStart>,
}

/// What the step loop accumulated over the run.
pub(crate) struct Steps {
    pub total_iterations: usize,
    pub converged: bool,
    pub eigenvalues: Option<(f64, f64)>,
    pub recoveries: Vec<RecoveryEvent>,
    pub health: Vec<(usize, SolverHealth)>,
    pub failed_step: Option<usize>,
}

/// The timestep loop every executor runs — serial ports through
/// [`drive`], each distributed rank through its tile port. `solve` is
/// the per-step solve: [`solver::solve`] (with the fallback chain) for
/// `drive`, [`solver::solve_once`] for ranks.
pub(crate) fn run_steps(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    rx: f64,
    ry: f64,
    resume: Option<StepResume>,
    solve: fn(&mut dyn TeaLeafPort, &TeaConfig, Option<PhaseStart>) -> SolveOutcome,
) -> Steps {
    let tel = port.context().telemetry().clone();
    let mut steps = Steps {
        total_iterations: 0,
        converged: true,
        eigenvalues: None,
        recoveries: Vec::new(),
        health: Vec::new(),
        failed_step: None,
    };
    let (first_step, mut phase) = match resume {
        Some(r) => {
            steps.total_iterations = r.total_iterations;
            steps.converged = r.converged;
            (r.step, r.phase)
        }
        None => {
            // Initial halo fill for the generated fields (depth 2, as
            // TeaLeaf's start-of-run `update_halo`).
            traced_halo(port, &[FieldId::Density, FieldId::Energy0], 2);
            (1, None)
        }
    };
    for step in first_step..=config.end_step {
        let step_span = tel.open_span(
            "step",
            format_args!("step {step}"),
            port.context().clock.seconds(),
        );
        let resume = phase.take();
        if resume.is_none() {
            port.step_cut(step, steps.total_iterations, steps.converged);
            port.init_fields(config.coefficient, rx, ry);
            traced_halo(port, &[FieldId::U], 1);
        }
        let outcome = solve(port, config, resume);
        steps.total_iterations += outcome.iterations;
        steps.converged &= outcome.converged;
        if outcome.eigenvalues.is_some() {
            steps.eigenvalues = outcome.eigenvalues;
        }
        let fatal = outcome.health.iter().any(|h| h.is_fatal());
        for mut event in outcome.recoveries {
            event.step = step;
            steps.recoveries.push(event);
        }
        for event in outcome.health {
            steps.health.push((step, event));
        }
        if fatal {
            // The recovery chain is exhausted: every later step would
            // solve on garbage state and accumulate garbage iterations.
            // Stop here and report the step the run died on.
            steps.failed_step = Some(step);
            steps.converged = false;
            tel.close_span(step_span, port.context().clock.seconds());
            break;
        }
        port.finalise();
        traced_halo(port, &[FieldId::Energy1], 1);
        tel.close_span(step_span, port.context().clock.seconds());
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::devices;
    use tea_core::config::SolverKind;

    fn config() -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(24);
        cfg.solver = SolverKind::ConjugateGradient;
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    #[test]
    fn unsupported_pair_is_an_error() {
        let err = run_simulation(ModelId::Cuda, &devices::cpu_xeon_e5_2670_x2(), &config());
        assert!(err.is_err());
    }

    #[test]
    fn report_carries_run_metadata() {
        let device = devices::gpu_k20x();
        let report = run_simulation(ModelId::Cuda, &device, &config()).unwrap();
        assert_eq!(report.model, ModelId::Cuda);
        assert_eq!(report.device, device.name);
        assert_eq!(report.solver, SolverKind::ConjugateGradient);
        assert_eq!(report.x_cells, 24);
        assert!(report.sim.kernels > 0);
        assert!(report.sim.transfers >= 2, "install memcpys recorded");
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn same_seed_reproduces_jittered_runs_exactly() {
        let device = devices::cpu_xeon_e5_2670_x2();
        let a = run_simulation_seeded(ModelId::OpenCl, &device, &config(), 99).unwrap();
        let b = run_simulation_seeded(ModelId::OpenCl, &device, &config(), 99).unwrap();
        assert_eq!(a.sim.seconds, b.sim.seconds);
        assert_eq!(a.summary, b.summary);
        let c = run_simulation_seeded(ModelId::OpenCl, &device, &config(), 100).unwrap();
        assert_ne!(
            a.sim.seconds, c.sim.seconds,
            "different seed, different jitter"
        );
        assert_eq!(a.summary, c.summary, "numerics independent of jitter");
    }

    #[test]
    fn runs_report_positive_energy_by_default() {
        let device = devices::gpu_k20x();
        let report = run_simulation(ModelId::Cuda, &device, &config()).unwrap();
        assert!(report.joules_per_solve() > 0.0);
        assert!(report.avg_watts() > device.idle_watts);
        assert!(report.avg_watts() <= device.active_watts + 1e-9);
        // the canonical fold reproduces the headline number to the bit
        let fold: f64 = report.kernel_joules().iter().map(|(_, j)| j).sum();
        let total = fold + report.sim.energy.transfer_joules + report.sim.energy.idle_joules;
        assert_eq!(total.to_bits(), report.joules_per_solve().to_bits());
    }

    #[test]
    fn power_model_off_zeroes_energy_and_nothing_else() {
        let device = devices::gpu_k20x();
        let on = run_simulation(ModelId::Cuda, &device, &config()).unwrap();
        let mut cfg = config();
        cfg.tl_power_model = false;
        let off = run_simulation(ModelId::Cuda, &device, &cfg).unwrap();
        assert_eq!(off.joules_per_solve(), 0.0);
        assert!(on.joules_per_solve() > 0.0);
        // energy is inert: identical times, iterations and numerics
        assert_eq!(on.sim.seconds.to_bits(), off.sim.seconds.to_bits());
        assert_eq!(on.total_iterations, off.total_iterations);
        assert_eq!(on.summary, off.summary);
    }

    #[test]
    fn watt_overrides_rescale_reported_energy() {
        let device = devices::cpu_xeon_e5_2670_x2();
        let mut cfg = config();
        cfg.tl_idle_watts = Some(10.0);
        cfg.tl_active_watts = Some(20.0);
        let low = run_simulation(ModelId::Serial, &device, &cfg).unwrap();
        cfg.tl_idle_watts = Some(100.0);
        cfg.tl_active_watts = Some(200.0);
        let high = run_simulation(ModelId::Serial, &device, &cfg).unwrap();
        // watts scaled ×10 on identical runs ⇒ joules scale ×10
        let ratio = high.joules_per_solve() / low.joules_per_solve();
        assert!((ratio - 10.0).abs() < 1e-9, "ratio={ratio}");
        assert_eq!(low.sim.seconds.to_bits(), high.sim.seconds.to_bits());
    }

    #[test]
    fn eigenvalues_reported_only_for_chebyshev_family() {
        let device = devices::cpu_xeon_e5_2670_x2();
        let mut cfg = config();
        let cg = run_simulation(ModelId::Serial, &device, &cfg).unwrap();
        assert!(cg.eigenvalues.is_none());
        cfg.solver = SolverKind::Chebyshev;
        cfg.x_cells = 48;
        cfg.y_cells = 48;
        cfg.tl_eps = 1.0e-13; // hard enough that CG does not finish in the presteps
        cfg.tl_ch_cg_presteps = 8;
        let cheby = run_simulation(ModelId::Serial, &device, &cfg).unwrap();
        let (lo, hi) = cheby.eigenvalues.expect("chebyshev estimates eigenvalues");
        assert!(lo > 0.0 && hi > lo);
    }
}
