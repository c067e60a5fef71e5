//! Mesh sweep: the paper's Figure 11 ("Even-Step Mesh Increment
//! Analysis") in miniature — runtime growth as the problem grows, for a
//! few representative model/device series.
//!
//! Shows the two behaviours §5 highlights: offload models have a high
//! intercept that is amortised as the mesh grows, and the CPU hits a
//! cache knee (around 9·10⁵ cells on the real machine) after which its
//! growth steepens while the GPU stays linear.
//!
//! ```sh
//! cargo run --release --example mesh_sweep
//! ```

use simdev::devices;
use tea_core::config::SolverKind;
use tea_core::tablefmt::{fmt_secs, Table};
use tealeaf_repro::prelude::*;

fn main() {
    let sizes = [125usize, 250, 375, 500, 625];
    let series: [(ModelId, simdev::DeviceSpec); 4] = [
        (ModelId::Omp3F90, devices::cpu_xeon_e5_2670_x2()),
        (ModelId::Cuda, devices::gpu_k20x()),
        (ModelId::Omp4, devices::knc_xeon_phi()),
        (ModelId::Kokkos, devices::knc_xeon_phi()),
    ];

    let mut header = vec!["series".to_string()];
    header.extend(sizes.iter().map(|s| format!("{s}^2 (s)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("Runtime vs mesh size (CG, simulated seconds)", &header_refs);

    for (model, device) in &series {
        let mut row = vec![format!("{} / {}", model.label(), device.kind.name())];
        for &cells in &sizes {
            let mut cfg = TeaConfig::paper_problem(cells);
            cfg.solver = SolverKind::ConjugateGradient;
            cfg.end_step = 1;
            cfg.tl_eps = 1.0e-10;
            cfg.tl_max_iters = 20_000;
            let report = run(&RunSpec::new(&cfg, Exec::port(*model, device)))
                .unwrap()
                .report;
            row.push(fmt_secs(report.sim_seconds()));
        }
        table.row(&row);
    }
    println!("{}", table.render());
    println!(
        "Note the offload series' higher small-mesh intercepts (launch overheads,\n\
         §5) and how they fade as computation grows."
    );
}
