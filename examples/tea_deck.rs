//! Run a `tea.in` deck, exactly like the reference mini-app.
//!
//! ```sh
//! cargo run --release --example tea_deck                 # built-in benchmark deck
//! cargo run --release --example tea_deck -- my_tea.in    # your own deck
//! cargo run --release --example tea_deck -- my_tea.in kokkos gpu
//! ```

use simdev::devices;
use tealeaf_repro::prelude::*;

const BUILTIN_DECK: &str = r#"
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
state 3 density=0.1 energy=0.1 geometry=rectangle xmin=1.0 xmax=6.0 ymin=1.0 ymax=2.0
x_cells=160
y_cells=160
xmin=0.0
xmax=10.0
ymin=0.0
ymax=10.0
initial_timestep=0.004
end_step=3
tl_max_iters=10000
tl_use_ppcg
tl_ppcg_inner_steps=10
tl_eps=1.0e-12
*endtea
"#;

fn parse_model(name: &str) -> ModelId {
    match name {
        "serial" => ModelId::Serial,
        "omp3" | "openmp" | "f90" => ModelId::Omp3F90,
        "omp3cpp" | "c++" => ModelId::Omp3Cpp,
        "omp4" => ModelId::Omp4,
        "openacc" | "acc" => ModelId::OpenAcc,
        "kokkos" => ModelId::Kokkos,
        "kokkos-hp" | "hp" => ModelId::KokkosHP,
        "raja" => ModelId::Raja,
        "raja-simd" => ModelId::RajaSimd,
        "opencl" | "cl" => ModelId::OpenCl,
        "cuda" => ModelId::Cuda,
        other => panic!("unknown model '{other}'"),
    }
}

fn parse_device(name: &str) -> simdev::DeviceSpec {
    match name {
        "cpu" => devices::cpu_xeon_e5_2670_x2(),
        "gpu" => devices::gpu_k20x(),
        "knc" | "phi" => devices::knc_xeon_phi(),
        other => panic!("unknown device '{other}' (cpu|gpu|knc)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deck = match args.first() {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read deck '{path}': {e}")),
        None => BUILTIN_DECK.to_string(),
    };
    let model = args
        .get(1)
        .map(|s| parse_model(s))
        .unwrap_or(ModelId::Omp3F90);
    let device = args
        .get(2)
        .map(|s| parse_device(s))
        .unwrap_or_else(devices::cpu_xeon_e5_2670_x2);

    let config = TeaConfig::parse(&deck).expect("valid tea.in deck");
    println!(
        "Tea (reproduction): {}x{} mesh, solver {}, {} steps, {} on {}",
        config.x_cells,
        config.y_cells,
        config.solver,
        config.end_step,
        model.label(),
        device.name
    );
    let report = run(&RunSpec::new(&config, Exec::port(model, &device)))
        .expect("supported model/device pair")
        .report;
    let s = report.summary;
    println!(
        "\n Time {:.6}",
        config.initial_timestep * config.end_step as f64
    );
    println!(
        "       Volume          Mass       Density        Energy            U\n {:13.5e} {:13.5e} {:13.5e} {:13.5e} {:13.5e}",
        s.volume,
        s.mass,
        s.mass / s.volume,
        s.internal_energy,
        s.temperature
    );
    println!(
        "\n solver iterations {}  converged {}\n simulated runtime {:.4} s  achieved bandwidth {:.1} GB/s",
        report.total_iterations,
        report.converged,
        report.sim_seconds(),
        report.sim.achieved_bw_gbs()
    );

    // optional visualisation dump, like the reference mini-app's .vtk files
    if let Ok(path) = std::env::var("TEA_VTK") {
        use tealeaf_repro::tealeaf::{driver, ports::make_port, Problem};
        let problem = Problem::from_config(&config).expect("valid config");
        let mut port = make_port(model, device.clone(), &problem, 0).expect("supported pair");
        driver::drive(port.as_mut(), &problem, &device, &config);
        let u_flat = port.read_u();
        let mesh = config.mesh();
        let u = tealeaf_repro::core::field::Field2d::from_vec(mesh.width(), mesh.height(), u_flat);
        tealeaf_repro::core::vtk::write_vtk(
            std::path::Path::new(&path),
            &mesh,
            &[
                ("temperature", &u),
                ("density", &problem.density),
                ("energy", &problem.energy),
            ],
        )
        .expect("write vtk");
        println!(" wrote {path}");
    }
}
