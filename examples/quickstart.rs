//! Quickstart: solve one TeaLeaf problem with one programming model on
//! one simulated device and print the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tealeaf_repro::prelude::*;

fn main() {
    // The paper's benchmark problem at a laptop-friendly mesh. The full
    // evaluation uses 4096×4096 (the mesh-convergence point, §4).
    let mut config = TeaConfig::paper_problem(128);
    config.solver = SolverKind::ConjugateGradient;
    config.end_step = 2;
    config.tl_eps = 1.0e-12;

    // Pick a device (Table 2) and a programming model to port with.
    let device = devices::gpu_k20x();
    let report = run(&RunSpec::new(&config, Exec::port(ModelId::Cuda, &device)))
        .expect("CUDA supports the K20X (Table 1)")
        .report;

    println!("TeaLeaf {} on {}", report.model.label(), report.device);
    println!(
        "  mesh                 : {}x{}",
        report.x_cells, report.y_cells
    );
    println!("  solver               : {}", report.solver);
    println!("  steps                : {}", report.steps);
    println!("  iterations           : {}", report.total_iterations);
    println!("  converged            : {}", report.converged);
    println!("  simulated runtime    : {:.4} s", report.sim_seconds());
    println!("  kernels launched     : {}", report.sim.kernels);
    println!(
        "  achieved bandwidth   : {:.1} GB/s",
        report.sim.achieved_bw_gbs()
    );
    println!(
        "  fraction of STREAM   : {:.1} %",
        report.stream_fraction(&device) * 100.0
    );
    println!("  wall (functional)    : {:.3} s", report.wall_seconds);
    let s = report.summary;
    println!(
        "  field summary        : vol={:.1} mass={:.1} ie={:.4} temp={:.4}",
        s.volume, s.mass, s.internal_energy, s.temperature
    );

    // The same problem through a different model must produce the same
    // physics (bit-for-bit — the reproduction's consistency guarantee).
    let kokkos = run(&RunSpec::new(&config, Exec::port(ModelId::Kokkos, &device)))
        .unwrap()
        .report;
    assert_eq!(kokkos.summary, report.summary, "ports are bit-identical");
    println!(
        "\nKokkos solves the identical problem in {:.4} s ({:+.1} % vs CUDA)",
        kokkos.sim_seconds(),
        (kokkos.sim_seconds() / report.sim_seconds() - 1.0) * 100.0
    );
}
