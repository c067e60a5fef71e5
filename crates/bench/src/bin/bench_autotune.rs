//! Tuned-vs-default launch-configuration harness.
//!
//! Runs every solver on every paper device twice — once with the
//! committed tuning registry (`tl_autotune=on`, the default) and once
//! charging the generic per-device default launch shape
//! (`tl_autotune=off`) — and writes the simulated-seconds and joules
//! speedups to `BENCH_autotune.json`:
//!
//! ```sh
//! cargo run --release -p tea-bench --bin bench_autotune
//! ```
//!
//! Unlike `bench_kernels` this measures the **simulated** clock, not the
//! host wall clock: the numbers are fully deterministic (same registry,
//! same devices ⇒ byte-identical JSON), which is what lets CI diff a
//! regeneration against the committed file. Every row must show
//! `speedup ≥ 1` — the tuner's invariant is that the registry's
//! configuration is at least as good as the default everywhere — and the
//! harness exits non-zero if any row regresses.

use simdev::{devices, CostModel, DeviceSpec};
use tea_core::config::SolverKind;
use tealeaf::ir::{FusionKind, LoweringCaps};
use tealeaf::ports::common::profiles;
use tealeaf::profiles::{model_profile, model_quirks};
use tealeaf::{run, Exec, ModelId, RunSpec};

/// One device × solver measurement.
struct Row {
    device: &'static str,
    model: ModelId,
    solver: SolverKind,
    untuned_s: f64,
    tuned_s: f64,
    untuned_j: f64,
    tuned_j: f64,
    iterations: usize,
}

fn config(solver: SolverKind) -> tea_core::TeaConfig {
    let mut cfg = tea_core::TeaConfig {
        x_cells: 128,
        y_cells: 128,
        end_step: 1,
        solver,
        ..Default::default()
    };
    // Jacobi on this mesh would otherwise burn thousands of sweeps
    // converging; the speedup ratio is iteration-count-independent.
    if solver == SolverKind::Jacobi {
        cfg.tl_max_iters = 500;
    }
    cfg
}

/// Cost-model ablation of one fused pair: simulated seconds for
/// head + tail charged as two launches vs. as one fused launch, on the
/// port's own cost model (untuned, so fusion is isolated from tuning).
fn fusion_row(model: ModelId, device: &DeviceSpec, kind: FusionKind, n: u64) -> (f64, f64) {
    let cost = CostModel::new(device.clone(), model_profile(model), model_quirks(model), 0);
    let charge = |caps: LoweringCaps| {
        let (head, tail) = profiles::fused_pair(kind, n, false, caps);
        cost.kernel_seconds(&head) + cost.kernel_seconds(&tail)
    };
    let unfused = charge(LoweringCaps::default());
    let fused = charge(LoweringCaps { fused_launch: true });
    (unfused, fused)
}

fn main() {
    // The port whose natural home is each paper device, as in Table 2:
    // OpenMP on the Xeon and the Phi, CUDA on the K20X.
    let setups: [(&'static str, DeviceSpec, ModelId); 3] = [
        ("cpu", devices::cpu_xeon_e5_2670_x2(), ModelId::Omp3F90),
        ("gpu", devices::gpu_k20x(), ModelId::Cuda),
        ("knc", devices::knc_xeon_phi(), ModelId::Omp3F90),
    ];
    let solvers = [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
        SolverKind::Jacobi,
    ];
    let mut rows = Vec::new();
    for (device_name, device, model) in &setups {
        for solver in solvers {
            let mut cfg = config(solver);
            cfg.tl_autotune = false;
            let untuned = run(&RunSpec::new(&cfg, Exec::port(*model, device)))
                .expect("untuned run failed")
                .report;
            cfg.tl_autotune = true;
            let tuned = run(&RunSpec::new(&cfg, Exec::port(*model, device)))
                .expect("tuned run failed")
                .report;
            assert_eq!(
                untuned.total_iterations, tuned.total_iterations,
                "launch configuration changed the numerics"
            );
            rows.push(Row {
                device: device_name,
                model: *model,
                solver,
                untuned_s: untuned.sim.seconds,
                tuned_s: tuned.sim.seconds,
                untuned_j: untuned.joules_per_solve(),
                tuned_j: tuned.joules_per_solve(),
                iterations: tuned.total_iterations,
            });
        }
    }

    let mut regressed = false;
    let mut json = String::from("{\n");
    json.push_str("  \"harness\": \"cargo run --release -p tea-bench --bin bench_autotune\",\n");
    json.push_str(
        "  \"unit\": \"simulated seconds (deterministic; regeneration is byte-identical)\",\n",
    );
    json.push_str("  \"mesh\": \"128x128, 1 step\",\n");
    json.push_str(
        "  \"note\": \"untuned = generic per-device default launch shape (tl_autotune=off); tuned = committed tuning registry; the registry's invariant is speedup >= 1 everywhere\",\n",
    );
    json.push_str("  \"entries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.untuned_s / r.tuned_s;
        let jsave = r.untuned_j / r.tuned_j;
        if speedup < 1.0 {
            regressed = true;
        }
        json.push_str(&format!(
            "    {{\"device\": \"{}\", \"model\": \"{}\", \"solver\": \"{}\", \"iterations\": {}, \
             \"untuned_s\": {:.6e}, \"tuned_s\": {:.6e}, \"speedup\": {:.4}, \
             \"untuned_j\": {:.6e}, \"tuned_j\": {:.6e}, \"joules_ratio\": {:.4}}}{}\n",
            r.device,
            r.model.label(),
            r.solver.name(),
            r.iterations,
            r.untuned_s,
            r.tuned_s,
            speedup,
            r.untuned_j,
            r.tuned_j,
            jsave,
            if i + 1 == rows.len() { "" } else { "," }
        ));
        println!(
            "{:>3} {:>10} {:>10}  untuned {:>12.6e} s  tuned {:>12.6e} s  speedup {:>6.4}x  joules {:>6.4}x",
            r.device,
            r.model.label(),
            r.solver.name(),
            r.untuned_s,
            r.tuned_s,
            speedup,
            jsave
        );
    }
    json.push_str("  ],\n");

    // The fused launches the IR unlocked beyond the CG tail: charge each
    // head+tail pair both ways on every paper device's natural fused
    // port. Dispatch savings are what fusion buys, so the win tracks the
    // device's launch overhead (GPU ≫ KNC offload ≫ CPU).
    json.push_str("  \"fusion\": [\n");
    let n = 128u64 * 128;
    let kinds = [
        FusionKind::CgTail,
        FusionKind::PpcgInner,
        FusionKind::ChebyStep,
    ];
    for (i, (device_name, device, model)) in setups.iter().enumerate() {
        for (k, kind) in kinds.iter().enumerate() {
            let (unfused, fused) = fusion_row(*model, device, *kind, n);
            let speedup = unfused / fused;
            if speedup < 1.0 {
                regressed = true;
            }
            json.push_str(&format!(
                "    {{\"device\": \"{}\", \"model\": \"{}\", \"pair\": \"{:?}\", \
                 \"unfused_s\": {:.6e}, \"fused_s\": {:.6e}, \"speedup\": {:.4}}}{}\n",
                device_name,
                model.label(),
                kind,
                unfused,
                fused,
                speedup,
                if i + 1 == setups.len() && k + 1 == kinds.len() {
                    ""
                } else {
                    ","
                }
            ));
            println!(
                "{:>3} {:>10} {:>10}  unfused {:>12.6e} s  fused {:>12.6e} s  speedup {:>6.4}x",
                device_name,
                model.label(),
                format!("{kind:?}"),
                unfused,
                fused,
                speedup
            );
        }
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_autotune.json", json).expect("cannot write BENCH_autotune.json");
    println!("wrote BENCH_autotune.json");
    if regressed {
        eprintln!("tuned registry REGRESSES at least one device x solver row");
        std::process::exit(1);
    }
}
