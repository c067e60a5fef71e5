//! Paper-shape assertions: the qualitative results of the paper's
//! evaluation (§4–§6) must hold in the reproduction — who wins, by
//! roughly what factor, and where the anomalies sit. Tolerances are
//! generous (the substrate is a simulator, not the authors' testbed);
//! what is asserted is the *shape*.
//!
//! Runs at a reduced functional scale with the convergence-regime device
//! scaling the benchmark harness uses (see `tea-bench`).

use simdev::devices;
use tea_bench::{figure_models, runtime_figure, Scale};
use tea_core::config::SolverKind;
use tealeaf::{run, Exec, ModelId, RunSpec};

fn scale() -> Scale {
    Scale {
        cells: 192,
        steps: 1,
        eps: 1.0e-12,
        sweep_max: 250,
        seed: tealeaf::driver::TEA_DEFAULT_SEED,
    }
}

/// `model` on `device` under the default seed (only the OpenCL CPU
/// jitter reads the seed).
fn port_run(
    model: ModelId,
    device: &simdev::DeviceSpec,
    cfg: &tea_core::config::TeaConfig,
) -> tealeaf::RunReport {
    run(&RunSpec::new(cfg, Exec::port(model, device)))
        .unwrap()
        .report
}

/// sim seconds per solver for `model` in a completed figure run.
fn times(figure: &[(ModelId, Vec<tealeaf::RunReport>)], model: ModelId) -> [f64; 3] {
    let (_, reports) = figure
        .iter()
        .find(|(m, _)| *m == model)
        .unwrap_or_else(|| panic!("{model:?} missing from figure"));
    [
        reports[0].sim_seconds(),
        reports[1].sim_seconds(),
        reports[2].sim_seconds(),
    ]
}

fn ratios(
    figure: &[(ModelId, Vec<tealeaf::RunReport>)],
    model: ModelId,
    baseline: ModelId,
) -> [f64; 3] {
    let m = times(figure, model);
    let b = times(figure, baseline);
    [m[0] / b[0], m[1] / b[1], m[2] / b[2]]
}

#[test]
fn figure8_cpu_shape() {
    let fig = runtime_figure(&devices::cpu_xeon_e5_2670_x2(), scale());

    // §4.1: "The pure OpenMP implementations are the fastest options."
    let f90 = times(&fig, ModelId::Omp3F90);
    for (model, _) in &fig {
        if *model == ModelId::Omp3F90 {
            continue;
        }
        let t = times(&fig, *model);
        for s in 0..3 {
            assert!(
                t[s] >= f90[s] * 0.99,
                "{model:?} solver {s} beat the tuned baseline: {} vs {}",
                t[s],
                f90[s]
            );
        }
    }

    // §4.1: C++ flavour ≈ F90 except ~15 % slower Chebyshev.
    let [cg, cheby, ppcg] = ratios(&fig, ModelId::Omp3Cpp, ModelId::Omp3F90);
    assert!((cg - 1.0).abs() < 0.05, "C++ CG ratio {cg}");
    assert!((ppcg - 1.0).abs() < 0.05, "C++ PPCG ratio {ppcg}");
    assert!(
        cheby > 1.05 && cheby < 1.25,
        "C++ Chebyshev ratio {cheby} (paper ≈ 1.15)"
    );

    // §4.1: Kokkos within ~10 % of the C++ implementation.
    let k = ratios(&fig, ModelId::Kokkos, ModelId::Omp3Cpp);
    for (s, r) in k.iter().enumerate() {
        assert!(*r < 1.15, "Kokkos solver {s} ratio {r} (paper ≤ ~1.10)");
    }

    // §4.1: RAJA ≈ +20 % CG/PPCG but ~+40 % Chebyshev; the SIMD variant
    // brings Chebyshev back in line.
    let [r_cg, r_cheby, r_ppcg] = ratios(&fig, ModelId::Raja, ModelId::Omp3F90);
    assert!(
        r_cg > 1.1 && r_cg < 1.45,
        "RAJA CG ratio {r_cg} (paper ≈ 1.2)"
    );
    assert!(
        r_ppcg > 1.1 && r_ppcg < 1.45,
        "RAJA PPCG ratio {r_ppcg} (paper ≈ 1.2)"
    );
    assert!(
        r_cheby > 1.25 && r_cheby < 1.6,
        "RAJA Chebyshev ratio {r_cheby} (paper ≈ 1.4)"
    );
    assert!(r_cheby > r_cg, "Chebyshev must be RAJA's worst solver");
    let [_, simd_cheby, _] = ratios(&fig, ModelId::RajaSimd, ModelId::Omp3F90);
    assert!(
        simd_cheby < r_cheby - 0.15,
        "RAJA SIMD must recover ≈20 pp on Chebyshev ({simd_cheby} vs {r_cheby})"
    );

    // §4: "at most a 20% performance penalty is likely to be observed by
    // choosing any of the performance portable options" — excepting the
    // noted RAJA/OpenCL issues.
    let kk = ratios(&fig, ModelId::Kokkos, ModelId::Omp3F90);
    assert!(
        kk.iter().all(|r| *r < 1.25),
        "Kokkos CPU within ~20 %: {kk:?}"
    );
}

#[test]
fn figure8_opencl_cpu_variance() {
    // §4.1: 15 runs ranged 1631 s – 2813 s (≈ 1.7×). Different seeds must
    // reproduce a comparable run-level spread on the CPU — and none on
    // the GPU.
    let cfg = scale().config(SolverKind::ConjugateGradient);
    let cpu = scale().regime_device(&devices::cpu_xeon_e5_2670_x2());
    let runs: Vec<f64> = (0..15)
        .map(|seed| {
            run(&RunSpec::new(
                &cfg,
                Exec::Port {
                    model: ModelId::OpenCl,
                    device: &cpu,
                    seed,
                },
            ))
            .unwrap()
            .report
            .sim_seconds()
        })
        .collect();
    let (min, max) = runs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
        (lo.min(t), hi.max(t))
    });
    let spread = max / min;
    assert!(
        spread > 1.3 && spread < 1.85,
        "OpenCL CPU spread {spread} (paper ≈ 2813/1631 = 1.72)"
    );

    let gpu = scale().regime_device(&devices::gpu_k20x());
    let g: Vec<f64> = (0..5)
        .map(|seed| {
            run(&RunSpec::new(
                &cfg,
                Exec::Port {
                    model: ModelId::OpenCl,
                    device: &gpu,
                    seed,
                },
            ))
            .unwrap()
            .report
            .sim_seconds()
        })
        .collect();
    let gpu_spread =
        g.iter().cloned().fold(0.0f64, f64::max) / g.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        gpu_spread < 1.001,
        "GPU runs are hardware-scheduled: spread {gpu_spread}"
    );
}

#[test]
fn figure9_gpu_shape() {
    let fig = runtime_figure(&devices::gpu_k20x(), scale());

    // §4.2: "both CUDA and OpenCL perform almost identically, and achieve
    // better results than the other models."
    let cl = ratios(&fig, ModelId::OpenCl, ModelId::Cuda);
    for (s, r) in cl.iter().enumerate() {
        assert!((r - 1.0).abs() < 0.08, "OpenCL/CUDA solver {s} ratio {r}");
    }
    let cuda = times(&fig, ModelId::Cuda);
    for (model, _) in &fig {
        if matches!(model, ModelId::Cuda | ModelId::OpenCl) {
            continue;
        }
        let t = times(&fig, *model);
        for s in 0..3 {
            assert!(t[s] > cuda[s], "{model:?} cannot beat CUDA (solver {s})");
        }
    }

    // §4.2: OpenACC ≈ +30 % CG, ≈ +10 % for the other two solvers.
    let [acc_cg, acc_cheby, acc_ppcg] = ratios(&fig, ModelId::OpenAcc, ModelId::Cuda);
    assert!(
        acc_cg > 1.15 && acc_cg < 1.5,
        "OpenACC CG ratio {acc_cg} (paper ≈ 1.3)"
    );
    assert!(
        acc_cheby < 1.25 && acc_ppcg < 1.3,
        "OpenACC others ≈ +10-20 %: {acc_cheby} {acc_ppcg}"
    );
    assert!(acc_cg > acc_cheby, "OpenACC's CG must be its worst solver");

    // §4.2: Kokkos — "unexplained performance problem" on CG (~+50 %),
    // Chebyshev/PPCG close to CUDA. At the reduced functional scale the
    // 30 CG eigenvalue presteps are a large fraction of the Chebyshev and
    // (especially) PPCG solves, bleeding the CG quirk into those columns
    // — at the paper's 4096² they are <2 % — so the caps here are looser
    // and the *differential* (the anomaly is CG-specific) is the binding
    // assertion.
    let [k_cg, k_cheby, k_ppcg] = ratios(&fig, ModelId::Kokkos, ModelId::Cuda);
    assert!(
        k_cg > 1.35 && k_cg < 1.65,
        "Kokkos GPU CG ratio {k_cg} (paper ≈ 1.5)"
    );
    assert!(
        k_cheby < 1.35 && k_ppcg < 1.40,
        "Kokkos GPU others: {k_cheby} {k_ppcg}"
    );
    assert!(
        k_cg > k_cheby + 0.15 && k_cg > k_ppcg + 0.1,
        "the Kokkos GPU problem must be CG-specific: cg {k_cg}, cheby {k_cheby}, ppcg {k_ppcg}"
    );

    // §4.2: Kokkos HP improves CG ~10 % but costs >20 % on Chebyshev/PPCG.
    // The cost side is checked at a larger mesh where the Chebyshev/PPCG
    // phases dominate the shared CG presteps (see the bleed note above).
    let [hp_cg, _, _] = ratios(&fig, ModelId::KokkosHP, ModelId::Kokkos);
    assert!(
        hp_cg < 0.97,
        "HP must improve the CG solver (ratio {hp_cg})"
    );
    let big = Scale {
        cells: 384,
        ..scale()
    };
    let mut cheby_cfg = big.config(SolverKind::Chebyshev);
    cheby_cfg.tl_eps = 1.0e-10;
    let regime = big.regime_device(&devices::gpu_k20x());
    let flat = port_run(ModelId::Kokkos, &regime, &cheby_cfg);
    let hp = port_run(ModelId::KokkosHP, &regime, &cheby_cfg);
    let hp_cheby = hp.sim_seconds() / flat.sim_seconds();
    assert!(
        hp_cheby > 1.05,
        "HP must cost on the Chebyshev solver once presteps are amortised: {hp_cheby}"
    );
}

#[test]
fn figure10_knc_shape() {
    let fig = runtime_figure(&devices::knc_xeon_phi(), scale());

    // §4.3: the native Fortran OpenMP build is the best for all solvers.
    let f90 = times(&fig, ModelId::Omp3F90);
    for (model, _) in &fig {
        if *model == ModelId::Omp3F90 {
            continue;
        }
        let t = times(&fig, *model);
        for s in 0..3 {
            assert!(
                t[s] > f90[s],
                "{model:?} cannot beat native F90 on KNC (solver {s})"
            );
        }
    }

    // §4.3: OpenMP 4.0 ≈ +45 % CG, within ~10-20 % for Chebyshev/PPCG.
    let [o4_cg, o4_cheby, o4_ppcg] = ratios(&fig, ModelId::Omp4, ModelId::Omp3F90);
    assert!(
        o4_cg > 1.3 && o4_cg < 1.6,
        "OpenMP 4.0 KNC CG ratio {o4_cg} (paper ≈ 1.45)"
    );
    assert!(
        o4_cheby < 1.3 && o4_ppcg < 1.3,
        "OpenMP 4.0 others: {o4_cheby} {o4_ppcg}"
    );

    // §4.3: OpenCL CG ≈ 3× the best port; other solvers acceptable.
    let [cl_cg, cl_cheby, _] = ratios(&fig, ModelId::OpenCl, ModelId::Omp3F90);
    assert!(
        cl_cg > 2.4 && cl_cg < 3.6,
        "OpenCL KNC CG ratio {cl_cg} (paper ≈ 3×)"
    );
    assert!(
        cl_cheby < 2.0,
        "OpenCL KNC Chebyshev acceptable: {cl_cheby}"
    );
    assert!(cl_cg / cl_cheby > 1.5, "the anomaly must be CG-specific");

    // §4.3: RAJA native — "substantially higher runtimes ... for all
    // solvers".
    let raja = ratios(&fig, ModelId::Raja, ModelId::Omp3F90);
    assert!(
        raja.iter().all(|r| *r > 1.6),
        "RAJA KNC substantially slower: {raja:?}"
    );

    // §4.3: hierarchical parallelism "roughly halving the solve time for
    // the CG and PPCG solvers on the KNC".
    let [flat_cg, _, flat_ppcg] = times(&fig, ModelId::Kokkos);
    let [hp_cg, _, hp_ppcg] = times(&fig, ModelId::KokkosHP);
    let cg_gain = flat_cg / hp_cg;
    let ppcg_gain = flat_ppcg / hp_ppcg;
    assert!(
        cg_gain > 1.7 && cg_gain < 2.4,
        "HP CG gain {cg_gain} (paper ≈ 2×)"
    );
    assert!(
        ppcg_gain > 1.7 && ppcg_gain < 2.4,
        "HP PPCG gain {ppcg_gain} (paper ≈ 2×)"
    );
}

#[test]
fn figure11_growth_shape() {
    // §5: offload models have high intercepts (overheads dominate small
    // meshes) that are hidden as the mesh grows; GPU growth is linear.
    let cfg_of = |cells: usize| {
        let mut cfg = Scale {
            cells,
            steps: 1,
            eps: 1.0e-10,
            sweep_max: 0,
            seed: tealeaf::driver::TEA_DEFAULT_SEED,
        }
        .config(SolverKind::ConjugateGradient);
        cfg.tl_max_iters = 20_000;
        cfg
    };
    let gpu = devices::gpu_k20x();
    let cpu = devices::cpu_xeon_e5_2670_x2();

    // intercept: at a tiny mesh the offloaded CUDA run must be far slower
    // than the host OpenMP run; at a large mesh the gap must shrink below
    // the bandwidth ratio.
    let small_cuda = port_run(ModelId::Cuda, &gpu, &cfg_of(64));
    let small_omp = port_run(ModelId::Omp3F90, &cpu, &cfg_of(64));
    assert!(
        small_cuda.sim_seconds() > 3.0 * small_omp.sim_seconds(),
        "offload overheads must dominate tiny meshes ({} vs {})",
        small_cuda.sim_seconds(),
        small_omp.sim_seconds()
    );
    // §5: "the OpenMP Fortran 90 implementation achieves the best
    // performance up to 9×10⁵ cells" — the CPU is cache-resident below
    // the knee and must still beat the overhead-laden GPU there…
    let mid_cuda = port_run(ModelId::Cuda, &gpu, &cfg_of(500));
    let mid_omp = port_run(ModelId::Omp3F90, &cpu, &cfg_of(500));
    assert!(
        mid_omp.sim_seconds() < mid_cuda.sim_seconds(),
        "below the cache knee the tuned CPU must lead ({} vs {})",
        mid_omp.sim_seconds(),
        mid_cuda.sim_seconds()
    );
    // …while past the knee (the paper's crossover) the GPU pulls ahead.
    let mut big = cfg_of(1225);
    big.tl_eps = 1.0e-8; // growth comparison, not convergence depth
    let big_cuda = port_run(ModelId::Cuda, &gpu, &big);
    let big_omp = port_run(ModelId::Omp3F90, &cpu, &big);
    assert!(
        big_cuda.sim_seconds() < big_omp.sim_seconds(),
        "past the crossover the GPU must lead ({} vs {})",
        big_cuda.sim_seconds(),
        big_omp.sim_seconds()
    );

    // CPU cache knee (§5: "CPU caches have become saturated ... creating a
    // memory latency and bandwidth bottleneck"): per-cell-per-iteration
    // cost must rise between a cache-resident and a DRAM-resident mesh.
    // anchor on the cache plateau (750² ≈ 5.6·10⁵ cells, below the
    // paper's 9·10⁵ knee) and past it (1250² ≈ 1.6·10⁶ cells)
    let small = port_run(ModelId::Omp3F90, &cpu, &cfg_of(750));
    let large = port_run(ModelId::Omp3F90, &cpu, &cfg_of(1250));
    let unit =
        |r: &tealeaf::RunReport| r.sim_seconds() / (r.cells() as f64 * r.total_iterations as f64);
    // the blend region of the cache model makes the decay gradual, as the
    // paper describes ("over time creating a memory latency and bandwidth
    // bottleneck")
    assert!(
        unit(&large) > 1.3 * unit(&small),
        "cache knee: per-cell-iteration cost {:.3e} -> {:.3e}",
        unit(&small),
        unit(&large)
    );
}

#[test]
fn figure12_bandwidth_shape() {
    let s = scale();
    // §6: "the device-optimised implementations, OpenMP 3.0 and CUDA,
    // achieve the best overall memory bandwidth utilisation."
    let cpu = devices::cpu_xeon_e5_2670_x2();
    let cpu_regime = s.regime_device(&cpu);
    let fig_cpu = runtime_figure(&cpu, s);
    let frac = |fig: &[(ModelId, Vec<tealeaf::RunReport>)], m: ModelId, d: &simdev::DeviceSpec| {
        let (_, reports) = fig.iter().find(|(mm, _)| *mm == m).unwrap();
        reports.iter().map(|r| r.stream_fraction(d)).sum::<f64>() / reports.len() as f64
    };
    let f90 = frac(&fig_cpu, ModelId::Omp3F90, &cpu_regime);
    assert!(f90 > 0.8 && f90 <= 1.0, "tuned CPU utilisation {f90}");
    for m in figure_models(simdev::DeviceKind::Cpu) {
        let f = frac(&fig_cpu, m, &cpu_regime);
        assert!(
            f <= f90 + 1e-9,
            "{m:?} cannot beat the tuned baseline ({f} vs {f90})"
        );
        assert!(f > 0.4, "{m:?} achieves a plausible fraction ({f})");
    }

    // §6: Kokkos "performs to within 10% of the best achieved memory
    // bandwidth for both the CPU and GPU".
    let gpu = devices::gpu_k20x();
    let gpu_regime = s.regime_device(&gpu);
    let fig_gpu = runtime_figure(&gpu, s);
    let cuda = frac(&fig_gpu, ModelId::Cuda, &gpu_regime);
    let kokkos_gpu = frac(&fig_gpu, ModelId::Kokkos, &gpu_regime);
    assert!(cuda > 0.85, "CUDA utilisation {cuda}");
    assert!(
        kokkos_gpu > cuda * 0.72,
        "Kokkos GPU within ~25 % of CUDA ({kokkos_gpu} vs {cuda})"
    );

    // §6: "The results on the KNC are poor" for the portable models, and
    // HP improves on flat Kokkos.
    let knc = devices::knc_xeon_phi();
    let knc_regime = s.regime_device(&knc);
    let fig_knc = runtime_figure(&knc, s);
    let flat = frac(&fig_knc, ModelId::Kokkos, &knc_regime);
    let hp = frac(&fig_knc, ModelId::KokkosHP, &knc_regime);
    assert!(
        flat < 0.5,
        "flat Kokkos KNC utilisation must be poor ({flat})"
    );
    assert!(
        hp > flat * 1.5,
        "HP must substantially improve KNC utilisation ({hp} vs {flat})"
    );
}
