//! IR-lowering equivalence suite: kernels lowered from the shared IR
//! must be bit-for-bit identical to the serial reference under every
//! schedule a tuned launch configuration can legally produce.
//!
//! Three layers are fuzzed:
//!
//! * **row kernels × schedules** — the shared row bodies driven through
//!   [`parpool::TiledExec`] (fuzzed tile/team shapes, the autotuner's
//!   parameter space) and [`parpool::PermutedExec`] (adversarial order)
//!   must write the same field bytes and fold the same reduction bits
//!   as a plain serial sweep;
//! * **registry shapes** — every committed tuning-registry entry's
//!   tile/team shape, replayed as an actual schedule, leaves
//!   reductions bit-identical;
//! * **whole solves × ports × tuning** — every supported port solves a
//!   randomised problem to the same temperature bits with the tuning
//!   registry on and off, and fused ports (CUDA, OpenCL, OpenMP 3.0,
//!   Kokkos) agree bitwise with the unfused serial lowering — fusion
//!   and tuning are cost-model effects only.

use proptest::prelude::*;

use parpool::{Executor, PermutedExec, SerialExec, StaticPool, TiledExec, UnsafeSlice};
use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::update_halo;
use tea_core::mesh::Mesh2d;
use tea_core::state::{Geometry, State};
use tealeaf::ir::{KernelId, KERNELS};
use tealeaf::ports::common;
use tealeaf::{run, tune, Exec, ModelId, RunSpec};

/// Deterministic pseudo-random positive field from a seed.
fn field(len: usize, seed: u64, lo: f64, span: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + span * ((state >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// One matvec + one CG update through `exec`; returns the reduction
/// pair and the mutated fields.
fn cg_round(
    mesh: &Mesh2d,
    exec: &dyn Executor,
    p: &[f64],
    kx: &[f64],
    ky: &[f64],
    u0: &[f64],
    r0: &[f64],
) -> (f64, f64, Vec<f64>, Vec<f64>, Vec<f64>) {
    let j0 = mesh.i0();
    let mut w = vec![0.0; mesh.len()];
    let mut u = u0.to_vec();
    let mut r = r0.to_vec();
    let mut z = vec![0.0; mesh.len()];
    let pw = {
        let wv = UnsafeSlice::new(&mut w);
        exec.run_sum(mesh.y_cells, &|jj| {
            // SAFETY: rows are disjoint.
            unsafe { common::row_cg_calc_w(mesh, j0 + jj, p, kx, ky, &wv) }
        })
    };
    let alpha = 0.125; // any finite value exercises the same arithmetic
    let rrn = {
        let (uv, rv, zv) = (
            UnsafeSlice::new(&mut u),
            UnsafeSlice::new(&mut r),
            UnsafeSlice::new(&mut z),
        );
        exec.run_sum(mesh.y_cells, &|jj| {
            // SAFETY: rows are disjoint.
            unsafe {
                common::row_cg_calc_ur(mesh, j0 + jj, alpha, false, p, &w, kx, ky, &uv, &rv, &zv)
            }
        })
    };
    (pw, rrn, w, u, r)
}

fn assert_bits_eq(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}[{k}]: {x:e} != {y:e} (bitwise)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row kernels through fuzzed tiled/teamed and permuted schedules
    /// produce the same field bytes and reduction bits as the serial
    /// sweep.
    #[test]
    fn row_kernels_bit_identical_under_tuned_schedules(
        tile in 1usize..96,
        team in 1usize..12,
        seed in 0u64..=u64::MAX,
        threads in 1usize..6,
    ) {
        let mesh = Mesh2d::square(24);
        let len = mesh.len();
        let mut p = field(len, seed, -2.0, 4.0);
        update_halo(&mesh, &mut p, 1);
        let kx = field(len, seed ^ 0xA5A5, 0.05, 3.0);
        let ky = field(len, seed ^ 0x5A5A, 0.05, 3.0);
        let u0 = field(len, seed ^ 0x1111, -1.0, 2.0);
        let r0 = field(len, seed ^ 0x2222, -1.0, 2.0);

        let reference = cg_round(&mesh, &SerialExec, &p, &kx, &ky, &u0, &r0);

        let pool = StaticPool::new(threads);
        let tiled_serial = TiledExec::new(&SerialExec, tile, team);
        let tiled_pool = TiledExec::new(&pool, tile, team);
        let permuted = PermutedExec::new(&tiled_pool, seed);
        let schedules: [(&str, &dyn Executor); 3] = [
            ("tiled(serial)", &tiled_serial),
            ("tiled(pool)", &tiled_pool),
            ("permuted(tiled(pool))", &permuted),
        ];
        for (name, exec) in schedules {
            let got = cg_round(&mesh, exec, &p, &kx, &ky, &u0, &r0);
            prop_assert_eq!(reference.0.to_bits(), got.0.to_bits(), "{}: p·w", name);
            prop_assert_eq!(reference.1.to_bits(), got.1.to_bits(), "{}: r·r", name);
            assert_bits_eq(name, &reference.2, &got.2);
            assert_bits_eq(name, &reference.3, &got.3);
            assert_bits_eq(name, &reference.4, &got.4);
        }
    }

    /// Full solves on a randomised two-state problem: every supported
    /// port reaches the serial reference's temperature bits, with the
    /// tuning registry active and inactive.
    #[test]
    fn solves_bit_identical_across_ports_and_tuning(
        hot_energy in 1.0..40.0f64,
        cells in 16usize..26,
        solver_pick in 0usize..3,
    ) {
        let solver = [
            SolverKind::ConjugateGradient,
            SolverKind::Chebyshev,
            SolverKind::Ppcg,
        ][solver_pick];
        let mut cfg = TeaConfig::paper_problem(cells);
        cfg.states = vec![
            State::background(10.0, 0.01),
            State {
                density: 0.2,
                energy: hot_energy,
                geometry: Geometry::Circle { cx: 5.0, cy: 5.0, radius: 2.5 },
            },
        ];
        cfg.solver = solver;
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_max_iters = 8_000;
        cfg.tl_ch_cg_presteps = 10;

        // Fused ports must match the serial (unfused) lowering bitwise,
        // so fusion is numerics-inert; use one device every model runs on.
        let device = devices::cpu_xeon_e5_2670_x2();
        let reference = run(&RunSpec::new(&cfg, Exec::port(ModelId::Serial, &device))).unwrap().report;
        prop_assert!(reference.converged, "{solver} diverged");
        let want = reference.summary.temperature.to_bits();

        for model in ModelId::ALL {
            if model.supports(device.kind).is_none() {
                continue;
            }
            for autotune in [true, false] {
                cfg.tl_autotune = autotune;
                let r = run(&RunSpec::new(&cfg, Exec::port(model, &device))).unwrap().report;
                prop_assert_eq!(
                    want,
                    r.summary.temperature.to_bits(),
                    "{:?} autotune={} drifted from serial reference",
                    model,
                    autotune
                );
                prop_assert_eq!(
                    reference.total_iterations,
                    r.total_iterations,
                    "{:?} autotune={} changed iteration count",
                    model,
                    autotune
                );
            }
        }
        // CUDA never runs on the CPU device, and it lowers the fused
        // CG/PPCG/Chebyshev tails — cover it on its own device. The
        // numerics are device-independent (devices only shape cost), so
        // the same reference bits apply.
        let gpu = devices::gpu_k20x();
        for autotune in [true, false] {
            cfg.tl_autotune = autotune;
            let r = run(&RunSpec::new(&cfg, Exec::port(ModelId::Cuda, &gpu))).unwrap().report;
            prop_assert_eq!(
                want,
                r.summary.temperature.to_bits(),
                "Cuda autotune={} drifted from serial reference",
                autotune
            );
        }
        cfg.tl_autotune = true;
    }
}

/// Every committed tuning-registry shape, replayed as a real schedule,
/// keeps reductions bit-identical to serial — the registry can never
/// pick a configuration that perturbs numerics.
#[test]
fn registry_shapes_preserve_reduction_bits() {
    let n = 10_000;
    let f = |i: usize| ((i as f64) * 0.37).sin() / ((i % 11) as f64 + 0.5);
    let expect = SerialExec.run_sum(n, &f);
    let pool = StaticPool::new(4);
    let mut checked = 0usize;
    for device in [
        devices::cpu_xeon_e5_2670_x2(),
        devices::gpu_k20x(),
        devices::knc_xeon_phi(),
    ] {
        for desc in KERNELS {
            let Some(params) = tune::tuned_params(device.kind, desc.name) else {
                panic!("registry misses {} for {:?}", desc.name, device.kind);
            };
            let tile = (params.tile_x as usize) * (params.tile_y as usize);
            let exec = TiledExec::new(&pool, tile, params.team as usize);
            assert_eq!(
                exec.run_sum(n, &f).to_bits(),
                expect.to_bits(),
                "{:?}/{} shape tile={} team={} changed the sum",
                device.kind,
                desc.name,
                tile,
                params.team
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 3 * KERNELS.len(), "registry coverage incomplete");
}

/// The IR's fusion legality is consistent with the data-flow it
/// declares: a legal pair's tail never stencil-reads a field its head
/// writes mid-flight.
#[test]
fn fusion_legality_matches_declared_dataflow() {
    use tealeaf::ir::FusionKind;
    for kind in FusionKind::ALL {
        assert!(
            kind.legal(),
            "{kind:?}: shipped fusion kinds must be legal by construction"
        );
        let head = kind.head().desc();
        let tail = kind.tail().desc();
        if let Some(read) = tail.stencil_read {
            assert!(
                !head.writes.contains(&read),
                "{kind:?}: tail stencil-reads {read:?} which head writes"
            );
        }
    }
    // And a deliberately illegal pair is rejected: CgCalcW's 5-point
    // read of `p` cannot ride behind CgCalcP's write of `p`.
    assert!(
        !tealeaf::ir::legal_pair(KernelId::CgCalcP.desc(), KernelId::CgCalcW.desc()),
        "matvec-after-p-update must be illegal to fuse"
    );
}
