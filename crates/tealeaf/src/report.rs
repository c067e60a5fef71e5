//! Run reports: what one (model, device, solver, mesh) execution
//! produced, on one port or on a tile grid.

use simdev::{ClockSnapshot, DeviceSpec, KernelStats};
use tea_core::config::SolverKind;
use tea_core::summary::Summary;
use tea_telemetry::export::{energy_table, profile_table};

use crate::model_id::ModelId;
use crate::resilience::{RecoveryAction, RecoveryEvent, SolverHealth};

/// The result of one full simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// A tiled run reports `Serial`: every rank runs the serial port's
    /// row bodies.
    pub model: ModelId,
    /// Empty for a tiled run: its ranks charge logical clocks, not a
    /// device.
    pub device: String,
    pub solver: SolverKind,
    /// Interior mesh extent (square meshes: the side length).
    pub x_cells: usize,
    pub y_cells: usize,
    pub steps: usize,
    /// Ranks that computed the result: 1 for a port run, the final tile
    /// grid's size for a tiled run (it shrinks after an elastic regrid).
    pub ranks: usize,
    /// Sum of solver iterations over all steps.
    pub total_iterations: usize,
    /// Did every step's solve converge?
    pub converged: bool,
    /// Final field summary (the cross-port correctness fingerprint).
    pub summary: Summary,
    /// Simulated device-time counters. A tiled run holds rank 0's logical
    /// clock over the attempt that finished.
    pub sim: ClockSnapshot,
    /// Host wall-clock seconds for the functional execution. A tiled run
    /// counts the whole run: rank spawns, and every restart and regrid.
    pub wall_seconds: f64,
    /// Eigenvalue estimate from the last step (Chebyshev/PPCG).
    pub eigenvalues: Option<(f64, f64)>,
    /// Every recovery action the resilience layer took, stamped with the
    /// timestep it happened in (empty on healthy runs). A tiled run holds
    /// rank 0's in-solve rollbacks; its restarts and regrids are in
    /// [`Run::recovery`](crate::driver::Run::recovery).
    pub recoveries: Vec<RecoveryEvent>,
    /// Every sentinel trip, as `(step, event)` (empty on healthy runs).
    pub health: Vec<(usize, SolverHealth)>,
    /// The step an unrecoverable solve died on; `None` when the run
    /// completed all `steps`.
    pub failed_step: Option<usize>,
}

impl RunReport {
    /// This report with its clocks zeroed: the global result, which
    /// every rank of a tiled run computes alike and a run that recovered
    /// from faults reproduces bit for bit.
    pub fn without_clocks(&self) -> RunReport {
        RunReport {
            sim: ClockSnapshot::default(),
            wall_seconds: 0.0,
            ..self.clone()
        }
    }

    /// Simulated runtime in seconds — the quantity Figures 8–11 plot.
    pub fn sim_seconds(&self) -> f64 {
        self.sim.seconds
    }

    /// Fraction of the device's STREAM bandwidth achieved (Figure 12).
    pub fn stream_fraction(&self, device: &DeviceSpec) -> f64 {
        self.sim.achieved_bw_gbs() / device.stream_bw_gbs
    }

    /// Interior cell count.
    pub fn cells(&self) -> usize {
        self.x_cells * self.y_cells
    }

    /// Per-kernel profile rows (name-sorted, as carried on the snapshot).
    pub fn kernel_rows(&self) -> Vec<(&str, KernelStats)> {
        self.sim
            .kernel_profile
            .iter()
            .map(|(name, stats)| (*name, *stats))
            .collect()
    }

    /// Per-kernel achieved-bandwidth fraction of the device's STREAM
    /// bandwidth — Figure 12 at kernel granularity. Rows are name-sorted.
    pub fn kernel_stream_fractions(&self, device: &DeviceSpec) -> Vec<(&str, f64)> {
        self.sim
            .kernel_profile
            .iter()
            .map(|(name, stats)| (*name, stats.bw_gbs() / device.stream_bw_gbs))
            .collect()
    }

    /// Total simulated energy-to-solution in joules — the canonical fold:
    /// name-sorted per-kernel joules summed left to right, plus transfer
    /// and idle energy. Every consumer that claims "per-kernel joules sum
    /// to the total" recomputes this same fold, so the identity holds
    /// bit-exactly.
    pub fn joules_per_solve(&self) -> f64 {
        self.sim.total_joules()
    }

    /// Average simulated board power over the run, in watts.
    pub fn avg_watts(&self) -> f64 {
        if self.sim.seconds <= 0.0 {
            return 0.0;
        }
        self.joules_per_solve() / self.sim.seconds
    }

    /// Energy-delay product in J·s — the figure of merit that punishes
    /// trading a little energy for a lot of runtime (and vice versa).
    pub fn energy_delay_product(&self) -> f64 {
        self.joules_per_solve() * self.sim.seconds
    }

    /// Per-kernel joules rows (name-sorted, as carried on the snapshot).
    pub fn kernel_joules(&self) -> Vec<(&str, f64)> {
        self.sim
            .kernel_profile
            .iter()
            .map(|(name, stats)| (*name, stats.joules))
            .collect()
    }

    /// Render the per-kernel energy budget as an aligned table, sorted by
    /// joules and truncated to the `top` hottest kernels (0 = all), with
    /// transfer/idle energy and the total as footer rows.
    pub fn render_energy(&self, top: usize) -> String {
        let rows = self.kernel_rows();
        let title = format!(
            "{} · {} · {} · {}×{} · energy",
            self.model.label(),
            self.device,
            self.solver.name(),
            self.x_cells,
            self.y_cells
        );
        energy_table(
            &title,
            &rows,
            self.sim.energy.transfer_joules,
            self.sim.energy.idle_joules,
            top,
        )
        .render()
    }

    /// Render the per-kernel profile as an aligned table, time-ordered
    /// and truncated to the `top` hottest kernels (0 = all).
    pub fn render_profile(&self, device: &DeviceSpec, top: usize) -> String {
        let rows = self.kernel_rows();
        let title = format!(
            "{} · {} · {} · {}×{}",
            self.model.label(),
            self.device,
            self.solver.name(),
            self.x_cells,
            self.y_cells
        );
        profile_table(&title, &rows, Some(device.stream_bw_gbs), top).render()
    }

    /// One human-readable line summarising the run's resilience history:
    /// `"healthy"` on clean runs, otherwise trip and action counts with
    /// the first event spelled out.
    pub fn recovery_summary(&self) -> String {
        if self.health.is_empty() && self.recoveries.is_empty() {
            return "healthy".to_string();
        }
        let count_action = |pred: fn(&RecoveryAction) -> bool| {
            self.recoveries.iter().filter(|e| pred(&e.action)).count()
        };
        let rollbacks = count_action(|a| matches!(a, RecoveryAction::Rollback { .. }));
        let retries = count_action(|a| matches!(a, RecoveryAction::Retry { .. }));
        let fallbacks = count_action(|a| matches!(a, RecoveryAction::Fallback { .. }));
        let aborts = count_action(|a| matches!(a, RecoveryAction::Abort));
        let mut line = format!(
            "{} sentinel trip(s): {} rollback(s), {} retr(y/ies), {} fallback(s), {} abort(s)",
            self.health.len(),
            rollbacks,
            retries,
            fallbacks,
            aborts
        );
        if let Some(first) = self.recoveries.first() {
            line.push_str(&format!("; first: {first}"));
        } else if let Some((step, event)) = self.health.first() {
            line.push_str(&format!("; first: step {step}: {event}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            model: ModelId::Cuda,
            device: "NVIDIA K20X GPU".into(),
            solver: SolverKind::ConjugateGradient,
            x_cells: 128,
            y_cells: 128,
            steps: 2,
            ranks: 1,
            total_iterations: 100,
            converged: true,
            summary: Summary::default(),
            sim: ClockSnapshot {
                seconds: 2.0,
                kernels: 400,
                app_bytes: 300_000_000_000,
                transfers: 4,
                transfer_bytes: 1 << 20,
                flops: 1 << 30,
                kernel_profile: vec![
                    (
                        "cg_calc_w",
                        KernelStats {
                            count: 300,
                            seconds: 1.5,
                            bytes: 270_000_000_000,
                            flops: 1 << 29,
                            joules: 300.0,
                        },
                    ),
                    (
                        "halo",
                        KernelStats {
                            count: 100,
                            seconds: 0.5,
                            bytes: 30_000_000_000,
                            flops: 0,
                            joules: 100.0,
                        },
                    ),
                ],
                energy: simdev::EnergySnapshot {
                    transfer_joules: 8.0,
                    idle_joules: 2.0,
                    active_seconds: 2.0,
                    transfer_seconds: 0.0,
                    idle_seconds: 0.0,
                },
            },
            wall_seconds: 0.5,
            eigenvalues: None,
            recoveries: Vec::new(),
            health: Vec::new(),
            failed_step: None,
        }
    }

    #[test]
    fn stream_fraction() {
        let r = report();
        let device = simdev::devices::gpu_k20x();
        // 150 GB/s achieved over 180.1 GB/s STREAM
        let f = r.stream_fraction(&device);
        assert!((f - 150.0 / 180.1).abs() < 1e-9);
        assert_eq!(r.cells(), 128 * 128);
        assert_eq!(r.sim_seconds(), 2.0);
    }

    #[test]
    fn per_kernel_stream_fractions_decompose_figure_12() {
        let r = report();
        let device = simdev::devices::gpu_k20x();
        let fractions = r.kernel_stream_fractions(&device);
        assert_eq!(fractions.len(), 2);
        // cg_calc_w: 270 GB over 1.5 s = 180 GB/s
        let (name, frac) = fractions[0];
        assert_eq!(name, "cg_calc_w");
        assert!((frac - 180.0 / 180.1).abs() < 1e-9);
        // halo: 30 GB over 0.5 s = 60 GB/s
        let (name, frac) = fractions[1];
        assert_eq!(name, "halo");
        assert!((frac - 60.0 / 180.1).abs() < 1e-9);
    }

    #[test]
    fn profile_table_renders_hot_kernels_first() {
        let r = report();
        let device = simdev::devices::gpu_k20x();
        let text = r.render_profile(&device, 0);
        let w = text.find("cg_calc_w").expect("cg_calc_w row");
        let h = text.find("halo").expect("halo row");
        assert!(w < h, "hotter kernel listed first:\n{text}");
        assert!(text.contains("STREAM%"), "{text}");
        // top=1 drops the cooler kernel
        let short = r.render_profile(&device, 1);
        assert!(!short.contains("halo"), "{short}");
    }

    #[test]
    fn energy_metrics_derive_from_the_snapshot() {
        let r = report();
        // canonical fold: 300 + 100 kernel J, + 8 transfer + 2 idle
        assert_eq!(r.joules_per_solve().to_bits(), 410.0f64.to_bits());
        assert!((r.avg_watts() - 205.0).abs() < 1e-12);
        assert!((r.energy_delay_product() - 820.0).abs() < 1e-9);
        let rows = r.kernel_joules();
        assert_eq!(rows, vec![("cg_calc_w", 300.0), ("halo", 100.0)]);
        // the identity the profiler's --validate asserts: recomputing the
        // fold from the rows reproduces the headline number to the bit
        let fold: f64 = rows.iter().map(|(_, j)| j).sum();
        let total = fold + r.sim.energy.transfer_joules + r.sim.energy.idle_joules;
        assert_eq!(total.to_bits(), r.joules_per_solve().to_bits());
    }

    #[test]
    fn energy_table_renders_budget_rows() {
        let r = report();
        let text = r.render_energy(0);
        let w = text.find("cg_calc_w").expect("cg_calc_w row");
        let h = text.find("halo").expect("halo row");
        assert!(w < h, "hotter kernel first:\n{text}");
        assert!(text.contains("(transfers)"), "{text}");
        assert!(text.contains("(idle)"), "{text}");
        assert!(text.contains("total"), "{text}");
        // top=1 drops the cooler kernel but keeps the budget footer
        let short = r.render_energy(1);
        assert!(!short.contains("halo"), "{short}");
        assert!(short.contains("total"), "{short}");
    }

    #[test]
    fn recovery_summary_reads_cleanly() {
        let mut r = report();
        assert_eq!(r.recovery_summary(), "healthy");
        r.health.push((
            1,
            SolverHealth::Diverging {
                iteration: 7,
                ratio: 12.5,
            },
        ));
        r.recoveries.push(RecoveryEvent {
            step: 1,
            trigger: SolverHealth::Diverging {
                iteration: 7,
                ratio: 12.5,
            },
            action: RecoveryAction::Fallback {
                from: SolverKind::ConjugateGradient,
                to: SolverKind::Jacobi,
            },
        });
        let line = r.recovery_summary();
        assert!(line.contains("1 sentinel trip(s)"), "{line}");
        assert!(line.contains("1 fallback(s)"), "{line}");
        assert!(line.contains("step 1"), "{line}");
        assert!(line.contains("diverging"), "{line}");
    }
}
