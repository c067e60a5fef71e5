//! Ablation study of the cost-model mechanisms (run via `cargo bench -p
//! tea-bench --bench ablations`).
//!
//! DESIGN.md claims each of the paper's headline effects arises from a
//! specific mechanism. This harness verifies that causally: it re-runs
//! the affected experiment with one mechanism neutralised and reports the
//! effect with and without it.
//!
//! | mechanism ablated | paper effect that should disappear |
//! |---|---|
//! | KNC branch penalty | flat Kokkos' KNC pain vs Kokkos HP (§3.3/§4.3) |
//! | lost-vectorization penalty | RAJA's KNC collapse (§4.1/§4.3) |
//! | fixed launch overheads | Figure 11's offload intercepts (§5) |
//! | LLC bandwidth plateau | Figure 11's CPU cache knee (§5) |

use simdev::{devices, DeviceSpec};
use tea_bench::Scale;
use tea_core::config::SolverKind;
use tea_core::tablefmt::Table;
use tealeaf::{Exec, ModelId, RunSpec};

fn scale() -> Scale {
    Scale {
        cells: 192,
        steps: 1,
        eps: 1.0e-12,
        sweep_max: 0,
        seed: tealeaf::driver::TEA_DEFAULT_SEED,
    }
}

fn run(model: ModelId, device: &DeviceSpec, solver: SolverKind) -> f64 {
    tealeaf::run(&RunSpec::new(
        &scale().config(solver),
        Exec::port(model, device),
    ))
    .expect("supported pair")
    .report
    .sim_seconds()
}

fn ratio(model: ModelId, baseline: ModelId, device: &DeviceSpec, solver: SolverKind) -> f64 {
    run(model, device, solver) / run(baseline, device, solver)
}

fn ablate_branch_penalty(table: &mut Table) {
    let knc = scale().regime_device(&devices::knc_xeon_phi());
    let mut no_branch = knc.clone();
    no_branch.branch_penalty = 1.0;
    let with = ratio(
        ModelId::Kokkos,
        ModelId::KokkosHP,
        &knc,
        SolverKind::ConjugateGradient,
    );
    let without = ratio(
        ModelId::Kokkos,
        ModelId::KokkosHP,
        &no_branch,
        SolverKind::ConjugateGradient,
    );
    table.row(&[
        "KNC branch penalty".into(),
        "Kokkos flat / Kokkos HP, KNC CG".into(),
        format!("{with:.2}x"),
        format!("{without:.2}x"),
        assess(with > 1.6, without < 1.2),
    ]);
}

fn ablate_novec_penalty(table: &mut Table) {
    // Vectorization loss matters most where vectors are widest: the KNC
    // (novec penalty 2.4). RAJA's "substantially higher runtimes for all
    // solvers" there (§4.3) should collapse towards the index-traffic
    // residue without it. (On the CPU the Chebyshev-vs-CG differential is
    // carried jointly with the cited §4.1 quirk, so the KNC is the clean
    // observable.)
    let knc = scale().regime_device(&devices::knc_xeon_phi());
    let mut no_novec = knc.clone();
    no_novec.novec_penalty = 1.0;
    let with = ratio(ModelId::Raja, ModelId::Omp3F90, &knc, SolverKind::Ppcg);
    let without = ratio(ModelId::Raja, ModelId::Omp3F90, &no_novec, SolverKind::Ppcg);
    table.row(&[
        "lost-vectorization penalty".into(),
        "RAJA / OpenMP F90, KNC PPCG".into(),
        format!("{with:.2}x"),
        format!("{without:.2}x"),
        assess(with > 1.8, without < with - 0.4),
    ]);
}

fn ablate_launch_overheads(table: &mut Table) {
    // Figure 11 intercept: unscaled GPU device at a tiny mesh.
    let gpu = devices::gpu_k20x();
    let mut free_launch = gpu.clone();
    free_launch.overhead_scale = 0.0;
    let tiny = Scale {
        cells: 64,
        ..scale()
    };
    let sweep = |device: &DeviceSpec| {
        let mut cfg = tiny.config(SolverKind::ConjugateGradient);
        cfg.tl_eps = 1.0e-10;
        let small = tealeaf::run(&RunSpec::new(&cfg, Exec::port(ModelId::Cuda, device)))
            .unwrap()
            .report;
        // per-iteration cost at the tiny mesh ÷ the asymptotic per-byte
        // bound: >> 1 when overhead-dominated
        let per_iter = small.sim_seconds() / small.total_iterations as f64;
        let bw_bound = (small.sim.app_bytes as f64 / small.total_iterations as f64)
            / (device.stream_bw_gbs * 1e9);
        per_iter / bw_bound
    };
    let with = sweep(&gpu);
    let without = sweep(&free_launch);
    table.row(&[
        "fixed launch overheads".into(),
        "CUDA 64x64 per-iter cost / bandwidth bound".into(),
        format!("{with:.1}x"),
        format!("{without:.1}x"),
        assess(with > 3.0, without < 1.5),
    ]);
}

fn ablate_cache_plateau(table: &mut Table) {
    // the CPU knee: per-cell-iteration cost growth from the cache plateau
    // to a DRAM-resident mesh
    let cpu = devices::cpu_xeon_e5_2670_x2();
    let mut no_cache = cpu.clone();
    no_cache.llc_bytes = 0;
    let knee = |device: &DeviceSpec| {
        let unit = |cells: usize| {
            let mut cfg = Scale { cells, ..scale() }.config(SolverKind::ConjugateGradient);
            cfg.tl_eps = 1.0e-8;
            cfg.tl_max_iters = 20_000;
            let r = tealeaf::run(&RunSpec::new(&cfg, Exec::port(ModelId::Omp3F90, device)))
                .unwrap()
                .report;
            r.sim_seconds() / (r.cells() as f64 * r.total_iterations as f64)
        };
        unit(1250) / unit(625)
    };
    let with = knee(&cpu);
    let without = knee(&no_cache);
    table.row(&[
        "LLC bandwidth plateau".into(),
        "CPU per-cell-iter cost, 1250^2 / 625^2".into(),
        format!("{with:.2}x"),
        format!("{without:.2}x"),
        assess(with > 1.25, (without - 1.0).abs() < 0.1),
    ]);
}

fn assess(effect_present: bool, effect_gone: bool) -> String {
    match (effect_present, effect_gone) {
        (true, true) => "mechanism causal".into(),
        (true, false) => "effect persists — NOT causal".into(),
        (false, _) => "effect missing with mechanism on".into(),
    }
}

fn main() {
    let mut table = Table::new(
        "Ablations: each cost-model mechanism vs the paper effect it produces",
        &[
            "mechanism ablated",
            "observable",
            "with",
            "without",
            "verdict",
        ],
    );
    ablate_branch_penalty(&mut table);
    ablate_novec_penalty(&mut table);
    ablate_launch_overheads(&mut table);
    ablate_cache_plateau(&mut table);
    println!("{}", table.render());
    let rendered = table.render();
    assert!(
        !rendered.contains("NOT causal") && !rendered.contains("effect missing"),
        "an ablation failed — a DESIGN.md mechanism claim does not hold"
    );
    println!("All mechanism claims verified causally.");
}
