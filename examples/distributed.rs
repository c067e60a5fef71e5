//! Distributed TeaLeaf: the inter-node layer the paper notes is "handled
//! with MPI in TeaLeaf" (§3), over the mpisim message-passing world.
//!
//! Decomposes the mesh into tiles across ranks (each a real thread) —
//! row strips, column strips and 2-D grids — exchanges halos every
//! iteration, reduces dot products with exactly-ordered allreduces — and
//! proves the decomposition is a pure implementation detail by comparing
//! against the single-chunk serial reference bit-for-bit.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```

use simdev::devices;
use tealeaf_repro::prelude::*;

fn main() {
    let mut config = TeaConfig::paper_problem(96);
    config.solver = SolverKind::ConjugateGradient;
    config.end_step = 2;
    config.tl_eps = 1.0e-12;

    let serial = run(&RunSpec::new(
        &config,
        Exec::port(ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
    ))
    .expect("serial reference")
    .report;
    println!(
        "single chunk : {} iterations, temperature integral {:.12}",
        serial.total_iterations, serial.summary.temperature
    );

    for (gx, gy) in [(1, 2), (1, 3), (1, 4), (1, 6), (2, 1), (2, 2), (3, 2)] {
        let dist = run(&RunSpec::new(
            &config,
            Exec::Tiled(DistributedSpec::new(gx, gy)),
        ))
        .expect("a fault-free run cannot abort")
        .report;
        let diff = dist.summary.max_abs_diff(&serial.summary);
        println!(
            "{gx}x{gy} tiles    : {} iterations, temperature integral {:.12}  (max |Δ| vs serial = {diff:e})",
            dist.total_iterations, dist.summary.temperature
        );
        assert_eq!(diff, 0.0, "the decomposition must be exact");
        assert_eq!(dist.total_iterations, serial.total_iterations);
    }
    println!("\nAll decompositions bit-identical: halo exchange + exactly-ordered allreduces.");
}
