//! The timestep driver: [`run`], the one entry point that runs a deck on
//! a port or on a tile grid, [`drive`] for callers that own a port, and
//! the `tea_leaf` main loop both share.

use std::fmt;
use std::time::Instant;

use mpisim::{ExchangeMetrics, FaultDiagnostic};
use simdev::{DeviceSpec, TelemetrySink};
use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;

use crate::distributed::{self, DistributedSpec, RecoveryLog};
use crate::kernels::{traced_halo, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::{make_port, PortError};
use crate::problem::Problem;
use crate::report::RunReport;
use crate::resilience::PhaseStart;
use crate::solver::{self, SolveOutcome};
use crate::tile::OverlapStats;

/// What executes a deck.
#[derive(Debug, Clone)]
pub enum Exec<'a> {
    /// One port of `model` on `device` (with the deck's power settings
    /// applied, see [`powered_device`]); `seed` seeds the stochastic cost
    /// terms (the OpenCL CPU jitter).
    Port {
        model: ModelId,
        device: &'a DeviceSpec,
        seed: u64,
    },
    /// The deck decomposed over a grid of `mpisim` ranks, one tile port
    /// each (see [`crate::distributed`]).
    Tiled(DistributedSpec),
}

impl<'a> Exec<'a> {
    /// `model` on `device` under [`TEA_DEFAULT_SEED`].
    pub fn port(model: ModelId, device: &'a DeviceSpec) -> Self {
        Exec::Port {
            model,
            device,
            seed: TEA_DEFAULT_SEED,
        }
    }
}

/// One run: the deck, what executes it, and where its trace goes.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    pub config: &'a TeaConfig,
    pub exec: Exec<'a>,
    /// Installed before the first kernel. A port run traces everything —
    /// step spans, solve attempts, iterations, kernels, halos, recovery
    /// events — stamped with simulated time. A tiled run traces rank 0's
    /// step loop and an `exchange`, `interior` and `boundary` span per
    /// halo window on the logical clock, plus the driver's restart and
    /// regrid events. Tracing is numerically inert.
    pub sink: TelemetrySink,
}

impl<'a> RunSpec<'a> {
    /// An untraced run of `config` on `exec`.
    pub fn new(config: &'a TeaConfig, exec: Exec<'a>) -> Self {
        RunSpec {
            config,
            exec,
            sink: TelemetrySink::disabled(),
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    pub report: RunReport,
    /// What a tiled run's exchange windows hid, merged over the ranks of
    /// the attempt that finished (zero for a port run).
    pub overlap: OverlapStats,
    /// A tiled run's per-direction message counters, merged the same way
    /// (zero for a port run).
    pub exchange: ExchangeMetrics,
    /// A tiled run's restarts and regrids (empty for a port run).
    pub recovery: RecoveryLog,
}

/// Why a run did not finish.
#[derive(Debug)]
pub enum RunError {
    /// The model has no port for the device (Table 1), or the deck is
    /// invalid.
    Port(PortError),
    /// The tile grid is too fine for the deck's halo; no rank started.
    Grid(String),
    /// A faulty tiled run used up its restarts and regrids.
    Fault(FaultDiagnostic),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Port(e) => e.fmt(f),
            RunError::Grid(msg) => f.write_str(msg),
            RunError::Fault(diag) => diag.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// Run `spec` to completion.
///
/// A port run builds the port and drives it through [`drive`]. A tiled
/// run is bit-identical to the serial port's (`ranks` aside); with
/// faults it either recovers to that same result or fails loudly with
/// [`RunError::Fault`] — never a silently wrong answer.
pub fn run(spec: &RunSpec) -> Result<Run, RunError> {
    let config = spec.config;
    let (model, device, seed) = match &spec.exec {
        &Exec::Port {
            model,
            device,
            seed,
        } => (model, device, seed),
        Exec::Tiled(tiles) => return distributed::run_tiled(config, tiles, &spec.sink),
    };
    let problem = Problem::from_config(config).map_err(|e| RunError::Port(e.into()))?;
    let device = powered_device(device, config);
    let mut port = make_port(model, device.clone(), &problem, seed).map_err(RunError::Port)?;
    port.context_mut().set_telemetry(spec.sink.clone());
    Ok(Run {
        report: drive(port.as_mut(), &problem, &device, config),
        ..Run::default()
    })
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

/// Run one already-constructed port through the timestep loop — the one
/// port-level entry, for callers that own a port (a benchmark reusing
/// it, a wrapper observing it mid-run).
pub fn drive(
    port: &mut dyn TeaLeafPort,
    problem: &Problem,
    device: &DeviceSpec,
    config: &TeaConfig,
) -> RunReport {
    let start = Instant::now();
    let solve: SolveFn = |port, config, _| solver::solve(port, config);
    let mut report = run_steps(port, config, problem.rx_ry(), None, solve);
    report.device = device.name.clone();
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
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

/// The per-step solve of [`run_steps`]: [`solver::solve`] (with the
/// fallback chain) for [`drive`], [`solver::solve_once`] for ranks.
pub(crate) type SolveFn = fn(&mut dyn TeaLeafPort, &TeaConfig, Option<PhaseStart>) -> SolveOutcome;

/// The timestep loop every executor runs — serial ports through
/// [`drive`], each distributed rank through its tile port. Returns the
/// run's report for one rank, with `device` and `wall_seconds` left for
/// the caller to fill. Ranks must not name a device: a string a rank
/// thread allocates early in the run and its caller frees later pins
/// that thread's malloc arena, and peak RSS creeps up (by 2 MB over a
/// 30 s `tiled_2x1` hostbench run on a 2-vCPU Xeon).
pub(crate) fn run_steps(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    (rx, ry): (f64, f64),
    resume: Option<StepResume>,
    solve: SolveFn,
) -> RunReport {
    let tel = port.context().telemetry().clone();
    let mut report = RunReport {
        model: port.model(),
        solver: config.solver,
        x_cells: config.x_cells,
        y_cells: config.y_cells,
        steps: config.end_step,
        ranks: 1,
        converged: true,
        ..RunReport::default()
    };
    let (first_step, mut phase) = match resume {
        Some(r) => {
            report.total_iterations = r.total_iterations;
            report.converged = r.converged;
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
            port.step_cut(step, report.total_iterations, report.converged);
            port.init_fields(config.coefficient, rx, ry);
            traced_halo(port, &[FieldId::U], 1);
        }
        let outcome = solve(port, config, resume);
        report.total_iterations += outcome.iterations;
        report.converged &= outcome.converged;
        if outcome.eigenvalues.is_some() {
            report.eigenvalues = outcome.eigenvalues;
        }
        let fatal = outcome.health.iter().any(|h| h.is_fatal());
        for mut event in outcome.recoveries {
            event.step = step;
            report.recoveries.push(event);
        }
        for event in outcome.health {
            report.health.push((step, event));
        }
        if fatal {
            // The recovery chain is exhausted: every later step would
            // solve on garbage state and accumulate garbage iterations.
            // Stop here and report the step the run died on.
            report.failed_step = Some(step);
            report.converged = false;
            tel.close_span(step_span, port.context().clock.seconds());
            break;
        }
        port.finalise();
        traced_halo(port, &[FieldId::Energy1], 1);
        tel.close_span(step_span, port.context().clock.seconds());
    }
    report.summary = port.field_summary();
    report.sim = port.context().clock.snapshot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::devices;
    use tea_core::config::SolverKind;

    fn run_port(model: ModelId, device: &DeviceSpec, cfg: &TeaConfig) -> RunReport {
        run(&RunSpec::new(cfg, Exec::port(model, device)))
            .unwrap()
            .report
    }

    fn config() -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(24);
        cfg.solver = SolverKind::ConjugateGradient;
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    #[test]
    fn unsupported_pair_is_an_error() {
        let cpu = devices::cpu_xeon_e5_2670_x2();
        let err = run(&RunSpec::new(&config(), Exec::port(ModelId::Cuda, &cpu)));
        assert!(matches!(err, Err(RunError::Port(_))));
    }

    #[test]
    fn report_carries_run_metadata() {
        let device = devices::gpu_k20x();
        let report = run_port(ModelId::Cuda, &device, &config());
        assert_eq!(report.model, ModelId::Cuda);
        assert_eq!(report.device, device.name);
        assert_eq!(report.solver, SolverKind::ConjugateGradient);
        assert_eq!(report.x_cells, 24);
        assert_eq!(report.ranks, 1);
        assert!(report.sim.kernels > 0);
        assert!(report.sim.transfers >= 2, "install memcpys recorded");
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn same_seed_reproduces_jittered_runs_exactly() {
        let (device, cfg) = (devices::cpu_xeon_e5_2670_x2(), config());
        let seeded = |seed| {
            let exec = Exec::Port {
                model: ModelId::OpenCl,
                device: &device,
                seed,
            };
            run(&RunSpec::new(&cfg, exec)).unwrap().report
        };
        let (a, b) = (seeded(99), seeded(99));
        assert_eq!(a.sim.seconds, b.sim.seconds);
        assert_eq!(a.summary, b.summary);
        let c = seeded(100);
        assert_ne!(
            a.sim.seconds, c.sim.seconds,
            "different seed, different jitter"
        );
        assert_eq!(a.summary, c.summary, "numerics independent of jitter");
    }

    #[test]
    fn runs_report_positive_energy_by_default() {
        let device = devices::gpu_k20x();
        let report = run_port(ModelId::Cuda, &device, &config());
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
        let on = run_port(ModelId::Cuda, &device, &config());
        let mut cfg = config();
        cfg.tl_power_model = false;
        let off = run_port(ModelId::Cuda, &device, &cfg);
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
        let low = run_port(ModelId::Serial, &device, &cfg);
        cfg.tl_idle_watts = Some(100.0);
        cfg.tl_active_watts = Some(200.0);
        let high = run_port(ModelId::Serial, &device, &cfg);
        // watts scaled ×10 on identical runs ⇒ joules scale ×10
        let ratio = high.joules_per_solve() / low.joules_per_solve();
        assert!((ratio - 10.0).abs() < 1e-9, "ratio={ratio}");
        assert_eq!(low.sim.seconds.to_bits(), high.sim.seconds.to_bits());
    }

    #[test]
    fn eigenvalues_reported_only_for_chebyshev_family() {
        let device = devices::cpu_xeon_e5_2670_x2();
        let mut cfg = config();
        let cg = run_port(ModelId::Serial, &device, &cfg);
        assert!(cg.eigenvalues.is_none());
        cfg.solver = SolverKind::Chebyshev;
        cfg.x_cells = 48;
        cfg.y_cells = 48;
        cfg.tl_eps = 1.0e-13; // hard enough that CG does not finish in the presteps
        cfg.tl_ch_cg_presteps = 8;
        let cheby = run_port(ModelId::Serial, &device, &cfg);
        let (lo, hi) = cheby.eigenvalues.expect("chebyshev estimates eigenvalues");
        assert!(lo > 0.0 && hi > lo);
    }
}
