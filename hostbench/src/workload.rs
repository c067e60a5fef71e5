//! The benchmark's workloads and the runner for one case of a workload.
//!
//! A *case* is one run of the public run API: one (solver, port) pair
//! driven by `tealeaf::driver::drive`, or one solver through
//! `run_distributed_solver_instrumented` on a tile grid. A *pass* runs
//! every case of the workload once, in an order drawn from `--seed`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mpisim::ExchangeMetrics;
use parpool::PoolMetrics;
use simdev::{devices, DeviceSpec};
use tea_core::config::{SolverKind, TeaConfig};
use tea_telemetry::TelemetrySink;
use tealeaf::distributed::{run_distributed_solver_instrumented, run_distributed_solver_traced};
use tealeaf::driver::{drive, powered_device, TEA_DEFAULT_SEED};
use tealeaf::ports::make_port;
use tealeaf::tile::OverlapStats;
use tealeaf::{ModelId, Problem};

use crate::probe::{CallTally, HostSpans, TimingPort};
use crate::reference::{Fingerprint, Reference, RunKey};

/// Seed of every port's stochastic cost terms. Fixed, so each port's
/// simulated seconds are a reproducible fingerprint.
pub const PORT_SEED: u64 = TEA_DEFAULT_SEED;

/// Solver tolerance of every workload.
pub const TL_EPS: f64 = 1.0e-12;

/// Input sizes: the measured workloads, or a seconds-scale pass for the
/// benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One port of a sweep: report key, model and the device it runs on.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    pub key: &'static str,
    pub model: ModelId,
    pub device: fn() -> DeviceSpec,
}

/// The ports of `small_sweep`: the Serial reference plus one port per
/// pool and transfer path (OpenCL on the CPU posts to the steal pool,
/// CUDA exercises the offload transfers).
pub const SWEEP_PORTS: [PortSpec; 6] = [
    PortSpec {
        key: "serial",
        model: ModelId::Serial,
        device: devices::cpu_xeon_e5_2670_x2,
    },
    PortSpec {
        key: "omp3_f90",
        model: ModelId::Omp3F90,
        device: devices::cpu_xeon_e5_2670_x2,
    },
    PortSpec {
        key: "kokkos",
        model: ModelId::Kokkos,
        device: devices::knc_xeon_phi,
    },
    PortSpec {
        key: "raja",
        model: ModelId::Raja,
        device: devices::cpu_xeon_e5_2670_x2,
    },
    PortSpec {
        key: "opencl",
        model: ModelId::OpenCl,
        device: devices::cpu_xeon_e5_2670_x2,
    },
    PortSpec {
        key: "cuda",
        model: ModelId::Cuda,
        device: devices::gpu_k20x,
    },
];

/// How a workload executes its solves.
#[derive(Debug, Clone)]
pub enum Exec {
    /// Every solver on every listed port.
    Ports(Vec<PortSpec>),
    /// Every solver on a `tiles_x × tiles_y` rank grid, overlapped.
    Tiled { tiles_x: usize, tiles_y: usize },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub mesh: usize,
    pub steps: usize,
    pub solvers: Vec<SolverKind>,
    /// CG iterations Chebyshev runs to estimate its eigenvalue bounds.
    pub cheby_presteps: usize,
    pub exec: Exec,
}

pub const NAMES: [&str; 3] = ["small_sweep", "large_cg_cheby", "tiled_2x1"];

/// The named workload at `scale`, or `None` for an unknown name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    use SolverKind::*;
    let full = scale == Scale::Full;
    let presteps = TeaConfig::default().tl_ch_cg_presteps;
    Some(match name {
        "small_sweep" => Workload {
            name: "small_sweep",
            mesh: if full { 128 } else { 16 },
            steps: 2,
            solvers: vec![ConjugateGradient, Chebyshev, Ppcg],
            cheby_presteps: presteps,
            exec: Exec::Ports(SWEEP_PORTS.to_vec()),
        },
        "large_cg_cheby" => Workload {
            name: "large_cg_cheby",
            mesh: if full { 1024 } else { 32 },
            steps: 1,
            solvers: vec![ConjugateGradient, Chebyshev],
            // With the default 30 presteps the bounds are too loose at
            // 1024²: Chebyshev spends its budget (420 iterations) without
            // reaching 1e-12. 100 presteps converge in 380.
            cheby_presteps: 100,
            exec: Exec::Ports(vec![SWEEP_PORTS[1]]),
        },
        "tiled_2x1" => Workload {
            name: "tiled_2x1",
            mesh: if full { 512 } else { 24 },
            steps: 1,
            solvers: vec![ConjugateGradient, Ppcg],
            cheby_presteps: presteps,
            exec: Exec::Tiled {
                tiles_x: 2,
                tiles_y: 1,
            },
        },
        _ => return None,
    })
}

/// One case of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub solver: SolverKind,
    /// `None` for a tiled case.
    pub port: Option<PortSpec>,
}

/// How a case is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Tracing off: the end-to-end configuration.
    Plain,
    /// Simulated-time telemetry on, plus the host timing wrapper.
    Traced,
    /// Tiled workloads only: the same solve on a 1×1 grid.
    SingleTile,
}

impl Workload {
    pub fn config(&self, solver: SolverKind) -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(self.mesh);
        cfg.solver = solver;
        cfg.end_step = self.steps;
        cfg.tl_eps = TL_EPS;
        cfg.tl_ch_cg_presteps = self.cheby_presteps;
        cfg
    }

    pub fn key(&self, solver: SolverKind) -> RunKey {
        (self.mesh, self.steps, solver.name().to_string())
    }

    pub fn ports(&self) -> &[PortSpec] {
        match &self.exec {
            Exec::Ports(ports) => ports,
            Exec::Tiled { .. } => &[],
        }
    }

    pub fn cases(&self) -> Vec<Case> {
        let mut cases = Vec::new();
        for &solver in &self.solvers {
            match &self.exec {
                Exec::Ports(ports) => cases.extend(ports.iter().map(|&p| Case {
                    solver,
                    port: Some(p),
                })),
                Exec::Tiled { .. } => cases.push(Case { solver, port: None }),
            }
        }
        cases
    }

    pub fn cells(&self) -> usize {
        self.mesh * self.mesh
    }

    /// Computed bytes of the field arrays one solve keeps live: the
    /// eleven padded `f64` arrays of `ports::common::PortFields` (the
    /// tiles of a grid hold the same arrays between them, plus halos).
    pub fn working_set_bytes(&self) -> u64 {
        let side = (self.mesh + 2 * TeaConfig::default().halo_depth) as u64;
        side * side * 8 * 11
    }
}

/// What one case measured. Counter fields are deltas over the case.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub wall_s: f64,
    pub timestep_solves: usize,
    pub iterations: usize,
    /// Interior cells × solver iterations.
    pub cell_iters: f64,
    pub static_pool: PoolMetrics,
    pub steal_pool: PoolMetrics,
    pub launches: u64,
    pub transfers: u64,
    pub app_bytes: u64,
    /// Telemetry records the traced run produced.
    pub records: usize,
    pub exchange: ExchangeMetrics,
    pub overlap: OverlapStats,
    /// Per-method host time (traced port cases only).
    pub tally: CallTally,
}

fn pools() -> (PoolMetrics, PoolMetrics) {
    (
        parpool::global_static().metrics(),
        parpool::global_steal().metrics(),
    )
}

/// Run `case` once and check it against `reference`. `Err` carries why
/// the solve failed (construction error, panic, no convergence, or a
/// result that differs from the reference bits).
pub fn run_case(
    wl: &Workload,
    problem: &Problem,
    case: Case,
    variant: Variant,
    reference: &Reference,
    spans: Option<&HostSpans>,
) -> Result<Sample, String> {
    let cfg = wl.config(case.solver);
    let key = wl.key(case.solver);
    let mut sample = Sample {
        timestep_solves: wl.steps,
        ..Sample::default()
    };
    let before = pools();
    match (case.port, &wl.exec) {
        (Some(spec), _) => {
            let device = powered_device(&(spec.device)(), &cfg);
            let mut port = make_port(spec.model, device.clone(), problem, PORT_SEED)
                .map_err(|e| format!("{}: {e}", spec.key))?;
            let collector = (variant == Variant::Traced).then(|| {
                let (sink, collector) = TelemetrySink::collecting();
                port.context_mut().set_telemetry(sink);
                collector
            });
            let start = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| {
                if collector.is_some() {
                    let mut timed = TimingPort::new(port, &mut sample.tally, spans.cloned());
                    drive(&mut timed, problem, &device, &cfg)
                } else {
                    drive(port.as_mut(), problem, &device, &cfg)
                }
            }))
            .map_err(|_| format!("{} {:?} panicked", spec.key, case.solver))?;
            sample.wall_s = start.elapsed().as_secs_f64();
            sample.records = collector.map_or(0, |c| c.len());
            if !report.converged {
                return Err(format!("{} {:?} did not converge", spec.key, case.solver));
            }
            reference.check_fingerprint(
                &key,
                Fingerprint::new(report.total_iterations, &report.summary),
            )?;
            reference.check_sim_seconds(&key, spec.key, report.sim.seconds)?;
            sample.iterations = report.total_iterations;
            sample.launches = report.sim.kernels;
            sample.transfers = report.sim.transfers;
            sample.app_bytes = report.sim.app_bytes;
        }
        (None, &Exec::Tiled { tiles_x, tiles_y }) => {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| match variant {
                Variant::Plain => run_distributed_solver_instrumented(tiles_x, tiles_y, &cfg, true),
                Variant::SingleTile => run_distributed_solver_instrumented(1, 1, &cfg, true),
                Variant::Traced => {
                    let (report, overlap, exchange, records) =
                        run_distributed_solver_traced(tiles_x, tiles_y, &cfg);
                    sample.records = records.len();
                    (report, overlap, exchange)
                }
            }))
            .map_err(|_| format!("tiled {:?} panicked", case.solver))?;
            sample.wall_s = start.elapsed().as_secs_f64();
            let (report, overlap, exchange) = outcome;
            if !report.converged {
                return Err(format!("tiled {:?} did not converge", case.solver));
            }
            reference.check_fingerprint(
                &key,
                Fingerprint::new(report.total_iterations, &report.summary),
            )?;
            sample.iterations = report.total_iterations;
            sample.overlap = overlap;
            sample.exchange = exchange;
        }
        (None, Exec::Ports(_)) => unreachable!("port workloads have a port on every case"),
    }
    let after = pools();
    sample.static_pool = after.0.since(&before.0);
    sample.steal_pool = after.1.since(&before.1);
    sample.cell_iters = (wl.cells() * sample.iterations) as f64;
    Ok(sample)
}

/// Record the reference for every workload at both scales: the Serial
/// fingerprint of each (mesh, steps, solver), and the simulated seconds
/// of each port row.
pub fn record_reference() -> Result<Reference, String> {
    let mut reference = Reference::default();
    for scale in [Scale::Tiny, Scale::Full] {
        for name in NAMES {
            let wl = workload(name, scale).expect("listed workload");
            let problem =
                Problem::from_config(&wl.config(wl.solvers[0])).map_err(|e| e.to_string())?;
            for &solver in &wl.solvers {
                let cfg = wl.config(solver);
                let key = wl.key(solver);
                let mut specs = vec![SWEEP_PORTS[0]];
                specs.extend(wl.ports().iter().filter(|p| p.key != "serial"));
                for spec in specs {
                    let device = powered_device(&(spec.device)(), &cfg);
                    let mut port = make_port(spec.model, device.clone(), &problem, PORT_SEED)
                        .map_err(|e| e.to_string())?;
                    let report = drive(port.as_mut(), &problem, &device, &cfg);
                    if !report.converged {
                        return Err(format!(
                            "{key:?} on {} did not converge after {} iterations: {}",
                            spec.key,
                            report.total_iterations,
                            report.recovery_summary()
                        ));
                    }
                    let found = Fingerprint::new(report.total_iterations, &report.summary);
                    if spec.key == "serial" {
                        reference.fingerprints.insert(key.clone(), found);
                    } else {
                        reference.check_fingerprint(&key, found)?;
                    }
                    if wl.ports().iter().any(|p| p.key == spec.key) {
                        reference.sim_seconds.insert(
                            (key.clone(), spec.key.to_string()),
                            report.sim.seconds.to_bits(),
                        );
                    }
                    eprintln!(
                        "recorded {key:?} on {} ({} iterations)",
                        spec.key, report.total_iterations
                    );
                }
            }
        }
    }
    Ok(reference)
}
