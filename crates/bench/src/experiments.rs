//! The table/figure drivers.

use simdev::{devices, DeviceKind, DeviceSpec};
use tea_core::config::SolverKind;
use tea_core::tablefmt::{fmt_pct, fmt_secs, Table};
use tealeaf::{run, ModelId, RunReport, RunSpec};

use crate::scale::Scale;

/// One plotted series: a model on a device.
#[derive(Debug, Clone)]
pub struct ModelOnDevice {
    pub model: ModelId,
    pub device: DeviceSpec,
}

/// The model set of each runtime figure, in the paper's presentation
/// order.
pub fn figure_models(kind: DeviceKind) -> Vec<ModelId> {
    match kind {
        // Figure 8 (§4.1): the CPU-capable models the paper plots.
        DeviceKind::Cpu => vec![
            ModelId::Omp3F90,
            ModelId::Omp3Cpp,
            ModelId::Kokkos,
            ModelId::Raja,
            ModelId::RajaSimd,
            ModelId::OpenCl,
        ],
        // Figure 9 (§4.2): GPU implementations on the K20X.
        DeviceKind::Gpu => vec![
            ModelId::Cuda,
            ModelId::OpenCl,
            ModelId::OpenAcc,
            ModelId::Kokkos,
            ModelId::KokkosHP,
        ],
        // Figure 10 (§4.3): the KNC line-up.
        DeviceKind::Accelerator => vec![
            ModelId::Omp3F90,
            ModelId::Omp4,
            ModelId::OpenCl,
            ModelId::Raja,
            ModelId::Kokkos,
            ModelId::KokkosHP,
        ],
    }
}

/// Run one figure's model set over the paper's three solvers.
///
/// Every run is seeded from `scale.seed` (default `TEA_DEFAULT_SEED`,
/// override with `TEA_SEED`), so the figures — including the OpenCL CPU
/// series, whose cost model draws enqueue jitter — reproduce exactly.
pub fn runtime_figure(device: &DeviceSpec, scale: Scale) -> Vec<(ModelId, Vec<RunReport>)> {
    // Figures 8-10 report the mesh-convergence point (§4): on reduced
    // functional meshes the device is rescaled into that regime.
    let regime = scale.regime_device(device);
    figure_models(device.kind)
        .into_iter()
        .map(|model| {
            let reports = SolverKind::PAPER
                .iter()
                .map(|&solver| {
                    let cfg = scale.config(solver);
                    let report = run(&RunSpec::new(&cfg, scale.exec(model, &regime)))
                        .expect("figure models are supported on their figure's device")
                        .report;
                    assert!(
                        report.converged,
                        "{} / {} / {} did not converge — a figure over diverged runs is meaningless",
                        model.label(),
                        device.name,
                        solver
                    );
                    report
                })
                .collect();
            (model, reports)
        })
        .collect()
}

fn runtime_table(title: &str, device: &DeviceSpec, scale: Scale) -> Table {
    let mut table = Table::new(title, &["model", "cg (s)", "chebyshev (s)", "ppcg (s)"]);
    for (model, reports) in runtime_figure(device, scale) {
        let mut row = vec![model.label().to_string()];
        row.extend(reports.iter().map(|r| fmt_secs(r.sim_seconds())));
        table.row(&row);
    }
    table
}

/// **Table 1** — supported implementations for each model.
pub fn table1() -> Table {
    let mut table = Table::new(
        "Table 1: Supported implementations for each model",
        &["Model", "CPUs", "NVIDIA GPUs", "KNC"],
    );
    let rows = [
        ModelId::Omp3F90,
        ModelId::OpenCl,
        ModelId::Cuda,
        ModelId::Omp4,
        ModelId::Kokkos,
        ModelId::Raja,
        ModelId::OpenAcc,
    ];
    for model in rows {
        let cell = |kind| model.supports(kind).unwrap_or("").to_string();
        let label = match model {
            ModelId::Omp3F90 => "OpenMP 3.0".to_string(),
            other => other.label().to_string(),
        };
        table.row(&[
            label,
            cell(DeviceKind::Cpu),
            cell(DeviceKind::Gpu),
            cell(DeviceKind::Accelerator),
        ]);
    }
    table
}

/// **Table 2** — devices and memory bandwidth, with the simulated STREAM
/// triad alongside the calibration target.
pub fn table2() -> Table {
    let mut table = Table::new(
        "Table 2: Devices and corresponding memory bandwidth (BW)",
        &["Device", "Peak BW", "STREAM BW", "simulated triad"],
    );
    for device in devices::paper_devices() {
        let triad = stream_rs::sim::triad_gbs(&device, 50_000_000);
        table.row(&[
            device.name.clone(),
            format!("{:.1} GB/s", device.peak_bw_gbs),
            format!("{:.1} GB/s", device.stream_bw_gbs),
            format!("{triad:.1} GB/s"),
        ]);
    }
    table
}

/// **Figure 8** — CPU runtimes (dual Xeon E5-2670), three solvers.
pub fn fig8(scale: Scale) -> Table {
    runtime_table(
        "Figure 8: dual-socket Xeon E5-2670 CPU runtimes (simulated; lower is better)",
        &devices::cpu_xeon_e5_2670_x2(),
        scale,
    )
}

/// **Figure 9** — GPU runtimes (NVIDIA K20X).
pub fn fig9(scale: Scale) -> Table {
    runtime_table(
        "Figure 9: NVIDIA K20X GPU runtimes (simulated; lower is better)",
        &devices::gpu_k20x(),
        scale,
    )
}

/// **Figure 10** — KNC runtimes (Xeon Phi).
pub fn fig10(scale: Scale) -> Table {
    runtime_table(
        "Figure 10: Intel Xeon Phi (KNC) runtimes (simulated; lower is better)",
        &devices::knc_xeon_phi(),
        scale,
    )
}

/// One point of the Figure 11 sweep.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    pub model: ModelId,
    pub device: String,
    pub cells_edge: usize,
    pub sim_seconds: f64,
    /// Simulated energy-to-solution of the same run, joules.
    pub joules: f64,
}

/// Joules cell formatting shared by the energy figures.
fn fmt_joules(j: f64) -> String {
    format!("{j:.4}")
}

/// **Figure 11** — runtime versus mesh size in even steps, every
/// model/device series of Figures 8–10, CG solver, one timestep. Each
/// mesh size gets a seconds column and, beside the sweep, an
/// energy-to-solution column from the same runs.
pub fn fig11(scale: Scale) -> (Table, Vec<Fig11Point>) {
    let sizes = scale.sweep_sizes();
    let mut points = Vec::new();
    let mut header: Vec<String> = vec!["series".into()];
    header.extend(sizes.iter().map(|s| format!("{s}x{s} (s)")));
    header.extend(sizes.iter().map(|s| format!("{s}x{s} (J)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 11: runtime vs mesh size, even-step increments (CG, simulated seconds and joules)",
        &header_refs,
    );
    for device in devices::paper_devices() {
        for model in figure_models(device.kind) {
            let mut row = vec![format!("{} / {}", model.label(), device.kind.name())];
            let mut joules_cells = Vec::with_capacity(sizes.len());
            for &edge in &sizes {
                let mut cfg = Scale {
                    cells: edge,
                    steps: 1,
                    ..scale
                }
                .config(SolverKind::ConjugateGradient);
                // single step and a moderate tolerance: the sweep isolates
                // runtime *growth*, not convergence depth
                cfg.tl_eps = scale.eps.max(1.0e-10);
                cfg.tl_max_iters = 20_000;
                let report = run(&RunSpec::new(&cfg, scale.exec(model, &device)))
                    .expect("sweep models are supported on their device")
                    .report;
                row.push(fmt_secs(report.sim_seconds()));
                joules_cells.push(fmt_joules(report.joules_per_solve()));
                points.push(Fig11Point {
                    model,
                    device: device.name.clone(),
                    cells_edge: edge,
                    sim_seconds: report.sim_seconds(),
                    joules: report.joules_per_solve(),
                });
            }
            row.extend(joules_cells);
            table.row(&row);
        }
    }
    (table, points)
}

/// Fraction of the device's STREAM bandwidth achieved, rebuilt from the
/// per-kernel profile instead of the aggregate counters. The cost model
/// attributes every application byte to a named kernel
/// (`charge_kernel_named`), so the decomposition is exhaustive: summing
/// per-kernel traffic over total simulated time reproduces
/// [`RunReport::stream_fraction`] to the bit (a unit test holds the two
/// together).
fn per_kernel_fraction(report: &RunReport, device: &DeviceSpec) -> f64 {
    if report.sim.seconds <= 0.0 {
        return 0.0;
    }
    let bytes: u64 = report.kernel_rows().iter().map(|(_, s)| s.bytes).sum();
    bytes as f64 / report.sim.seconds / 1e9 / device.stream_bw_gbs
}

/// **Figure 12** — percentage of STREAM bandwidth achieved by each model,
/// averaged over the three solvers, per device. Computed from the
/// per-kernel bandwidth metrics (see `per_kernel_fraction`); the
/// kernel-level breakdown the average hides is [`fig12_kernels`].
pub fn fig12(scale: Scale) -> Table {
    let mut table = Table::new(
        "Figure 12: percentage of STREAM bandwidth achieved, averaged over solvers (higher is better)",
        &["model", "cpu", "gpu", "knc"],
    );
    // collect per-device fractions
    let mut rows: Vec<(ModelId, [Option<f64>; 3])> = ModelId::ALL
        .iter()
        .filter(|m| **m != ModelId::Serial)
        .map(|&m| (m, [None, None, None]))
        .collect();
    for (slot, device) in devices::paper_devices().into_iter().enumerate() {
        let regime = scale.regime_device(&device);
        for (model, reports) in runtime_figure(&device, scale) {
            let avg = reports
                .iter()
                .map(|r| per_kernel_fraction(r, &regime))
                .sum::<f64>()
                / reports.len() as f64;
            if let Some(entry) = rows.iter_mut().find(|(m, _)| *m == model) {
                entry.1[slot] = Some(avg);
            }
        }
    }
    for (model, fractions) in rows {
        if fractions.iter().all(Option::is_none) {
            continue;
        }
        let cell = |f: Option<f64>| f.map(fmt_pct).unwrap_or_default();
        table.row(&[
            model.label().to_string(),
            cell(fractions[0]),
            cell(fractions[1]),
            cell(fractions[2]),
        ]);
    }
    table
}

/// **Energy-to-solution beside Figure 12** — simulated joules per solve
/// for one device's model set over the paper's three solvers, plus the
/// run-averaged board power and energy-delay product. TeaLeaf is
/// bandwidth-bound, so on a fixed device energy ordering largely tracks
/// the runtime ordering of Figures 8–10 — *except* where a model holds
/// the board at high draw while stalled (offload reductions), which is
/// exactly what the EDP column surfaces.
pub fn fig12_energy(device: &DeviceSpec, scale: Scale) -> Table {
    let mut table = Table::new(
        &format!(
            "Energy to solution: simulated joules per solve, {} (lower is better)",
            device.name
        ),
        &[
            "model",
            "cg (J)",
            "chebyshev (J)",
            "ppcg (J)",
            "mean W",
            "mean EDP (J·s)",
        ],
    );
    for (model, reports) in runtime_figure(device, scale) {
        let mut row = vec![model.label().to_string()];
        row.extend(reports.iter().map(|r| fmt_joules(r.joules_per_solve())));
        let mean = |f: &dyn Fn(&RunReport) -> f64| {
            reports.iter().map(f).sum::<f64>() / reports.len() as f64
        };
        row.push(format!("{:.1}", mean(&RunReport::avg_watts)));
        row.push(fmt_joules(mean(&RunReport::energy_delay_product)));
        table.row(&row);
    }
    table
}

/// **Figure 12 at kernel granularity** — per-kernel percentage of STREAM
/// bandwidth for one device's model set, CG solver, hottest kernel
/// first. This is the breakdown the aggregate Figure 12 averages away:
/// the streaming kernels run near the bandwidth ceiling on every model,
/// while the reduction kernels fall far below it — and the per-model
/// spread of those reduction rows is what separates the models (§6).
pub fn fig12_kernels(device: &DeviceSpec, scale: Scale) -> Table {
    let regime = scale.regime_device(device);
    let runs: Vec<(ModelId, RunReport)> = figure_models(device.kind)
        .into_iter()
        .map(|model| {
            let cfg = scale.config(SolverKind::ConjugateGradient);
            let report = run(&RunSpec::new(&cfg, scale.exec(model, &regime)))
                .expect("figure models are supported on their figure's device")
                .report;
            (model, report)
        })
        .collect();
    // Order kernels by total simulated time across the model set (name
    // tiebreak, so the ordering is total and deterministic).
    let mut totals: Vec<(&str, f64)> = Vec::new();
    for (_, report) in &runs {
        for (name, stats) in report.kernel_rows() {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some(entry) => entry.1 += stats.seconds,
                None => totals.push((name, stats.seconds)),
            }
        }
    }
    totals.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite times")
            .then_with(|| a.0.cmp(b.0))
    });

    let mut header: Vec<String> = vec!["kernel".into()];
    header.extend(runs.iter().map(|(m, _)| m.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "Figure 12 (kernel granularity): % of STREAM bandwidth per kernel, {}, CG",
            device.name
        ),
        &header_refs,
    );
    for (kernel, _) in &totals {
        let mut row = vec![kernel.to_string()];
        for (_, report) in &runs {
            let cell = report
                .kernel_rows()
                .iter()
                .find(|(n, _)| n == kernel)
                .map(|(_, s)| fmt_pct(s.bw_gbs() / regime.stream_bw_gbs))
                .unwrap_or_default();
            row.push(cell);
        }
        table.row(&row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shape() {
        let t = table1();
        assert_eq!(t.len(), 7);
        let text = t.render();
        assert!(text.contains("OpenMP 3.0"));
        assert!(text.contains("Offload"));
        assert!(text.contains("Native"));
    }

    #[test]
    fn table2_reports_three_devices() {
        let t = table2();
        assert_eq!(t.len(), 3);
        let text = t.render();
        assert!(text.contains("76.2 GB/s"));
        assert!(text.contains("180.1 GB/s"));
        assert!(text.contains("159.9 GB/s"));
    }

    #[test]
    fn figure_model_sets_match_table1() {
        for device in devices::paper_devices() {
            for model in figure_models(device.kind) {
                assert!(
                    model.supports(device.kind).is_some(),
                    "{model:?} plotted on {:?} but unsupported",
                    device.kind
                );
            }
        }
    }

    #[test]
    fn fig8_runs_at_small_scale() {
        let t = fig8(Scale::small());
        assert_eq!(t.len(), 6, "six CPU series as in the paper");
    }

    #[test]
    fn per_kernel_fraction_decomposes_the_aggregate_exactly() {
        // Every application byte is charged to a named kernel, so the
        // per-kernel rebuild of Figure 12 must agree with the aggregate
        // counters to the bit.
        let scale = Scale::small();
        for (model, device) in [
            (ModelId::Cuda, devices::gpu_k20x()),
            (ModelId::OpenCl, devices::cpu_xeon_e5_2670_x2()),
            (ModelId::Kokkos, devices::knc_xeon_phi()),
        ] {
            let regime = scale.regime_device(&device);
            let report = run(&RunSpec::new(
                &scale.config(SolverKind::ConjugateGradient),
                scale.exec(model, &regime),
            ))
            .expect("figure models run on their devices")
            .report;
            assert_eq!(
                per_kernel_fraction(&report, &regime).to_bits(),
                report.stream_fraction(&regime).to_bits(),
                "{}: per-kernel profile does not account for all application traffic",
                model.label()
            );
        }
    }

    #[test]
    fn fig11_points_carry_energy_beside_seconds() {
        // a single 125-edge sweep point keeps the full-series test fast
        let (table, points) = fig11(Scale {
            sweep_max: 125,
            ..Scale::small()
        });
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.sim_seconds > 0.0);
            assert!(
                p.joules > 0.0,
                "{} on {} reported no energy",
                p.model.label(),
                p.device
            );
        }
        let text = table.render();
        assert!(text.contains("(s)"), "{text}");
        assert!(text.contains("(J)"), "{text}");
    }

    #[test]
    fn fig12_energy_tables_every_gpu_model_with_positive_joules() {
        // runtime_figure applies the regime rescale internally
        let t = fig12_energy(&devices::gpu_k20x(), Scale::small());
        assert_eq!(t.len(), 5, "five GPU series as in Figure 9");
        let text = t.render();
        for label in ["CUDA", "Kokkos", "cg (J)", "mean W", "EDP"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
        // no zero-energy cells: the power model is on by default
        assert!(!text.contains(" 0.0000 "), "zero joules cell in:\n{text}");
    }

    #[test]
    fn fig12_kernels_tables_every_gpu_model() {
        let t = fig12_kernels(&devices::gpu_k20x(), Scale::small());
        assert!(t.len() >= 5, "a CG run exercises at least five kernels");
        let text = t.render();
        for label in ["CUDA", "Kokkos", "cg_calc_w"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
    }
}
