//! Custom device: the generalisation the paper's §8 asks for —
//! "performance portability could be assessed on additional target
//! hardware … such as the Intel Xeon Phi Knights Landing with its high
//! bandwidth memory."
//!
//! Builds a hypothetical KNL-like self-hosted accelerator (high-bandwidth
//! memory, no PCIe offload, strong vector units) and re-runs the
//! portable models on it.
//!
//! ```sh
//! cargo run --release --example custom_device
//! ```

use simdev::{devices, DeviceKind};
use tea_core::config::SolverKind;
use tea_core::tablefmt::{fmt_secs, Table};
use tealeaf_repro::prelude::*;

fn main() {
    // A Knights-Landing-flavoured device: MCDRAM-class bandwidth,
    // out-of-order cores (mild branch penalty), self-hosted (no offload
    // latency), AVX-512.
    let mut knl = devices::custom(
        "Xeon Phi KNL (hypothetical)",
        DeviceKind::Accelerator,
        420.0,
    );
    knl.peak_bw_gbs = 490.0;
    knl.cores = 64;
    knl.simd_width = 8;
    knl.launch_overhead_us = 2.0;
    knl.offload_latency_us = 0.0; // self-hosted: no PCIe command path
    knl.pcie_bw_gbs = f64::INFINITY;
    knl.branch_penalty = 1.25; // out-of-order cores handle the halo guard
    knl.novec_penalty = 2.0; // AVX-512 still demands vectorization
    knl.reduction_cost_us = 10.0;

    let knc = devices::knc_xeon_phi();
    let mut cfg = TeaConfig::paper_problem(256);
    cfg.solver = SolverKind::ConjugateGradient;
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-12;

    let mut table = Table::new(
        "CG runtime: KNC (measured-device model) vs hypothetical KNL",
        &["model", "knc (s)", "knl (s)", "speedup"],
    );
    for model in [
        ModelId::Omp3F90,
        ModelId::Omp4,
        ModelId::Kokkos,
        ModelId::KokkosHP,
        ModelId::Raja,
    ] {
        let on_knc = run(&RunSpec::new(&cfg, Exec::port(model, &knc)))
            .unwrap()
            .report;
        let on_knl = run(&RunSpec::new(&cfg, Exec::port(model, &knl)))
            .unwrap()
            .report;
        table.row(&[
            model.label().to_string(),
            fmt_secs(on_knc.sim_seconds()),
            fmt_secs(on_knl.sim_seconds()),
            format!("{:.2}x", on_knc.sim_seconds() / on_knl.sim_seconds()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The mechanism generalises: higher bandwidth lifts every model, while the\n\
         removal of the offload path and the milder in-order penalties shrink the\n\
         gaps that made the KNC hard to target (§4.3)."
    );
}
