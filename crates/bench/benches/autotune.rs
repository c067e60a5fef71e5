//! Criterion benchmarks of the deterministic autotuner (run via
//! `cargo bench -p tea-bench --bench autotune`).
//!
//! Two things are measured, both in host wall time:
//!
//! * `tune_search` — the exhaustive per-kernel configuration search
//!   itself, per paper device. The registry is regenerated offline by
//!   `tea-tune --bless`, so search cost is a developer-loop number, but
//!   it bounds how freely the parameter grid can grow.
//! * `tuned_solve` — a full simulated solve with the committed registry
//!   active vs. charging the generic default shape. The *simulated*
//!   seconds differ (that is the point — see `BENCH_autotune.json`);
//!   host wall time must not, because the tuning table is a per-kernel
//!   constant multiplier, not extra work. A gap here would mean the
//!   tuning lookup leaked into the hot path.
//!
//! Determinism of the search result is asserted once up front: two
//! registry regenerations must be byte-identical (same grid, same
//! fixed seed), which is the property the CI drift gate relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use simdev::{devices, DeviceSpec};
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::ir::KERNELS;
use tealeaf::{run, tune, Exec, ModelId, RunSpec};

fn paper_devices() -> [(&'static str, DeviceSpec); 3] {
    [
        ("cpu", devices::cpu_xeon_e5_2670_x2()),
        ("gpu", devices::gpu_k20x()),
        ("knc", devices::knc_xeon_phi()),
    ]
}

fn bench_tune_search(c: &mut Criterion) {
    // The search is seeded and wall-clock-free: regenerating twice must
    // produce the same bytes, or the committed registry could drift.
    assert_eq!(
        tune::registry_text(),
        tune::registry_text(),
        "autotuner search is not deterministic"
    );

    let mut group = c.benchmark_group("tune_search");
    group.sample_size(10);
    for (name, device) in paper_devices() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &device, |b, device| {
            b.iter(|| {
                for desc in KERNELS {
                    black_box(tune::tune_kernel(device, desc));
                }
            });
        });
    }
    group.finish();
}

fn bench_tuned_solve(c: &mut Criterion) {
    let mut cfg = TeaConfig {
        x_cells: 96,
        y_cells: 96,
        end_step: 1,
        solver: SolverKind::ConjugateGradient,
        ..Default::default()
    };
    let device = devices::cpu_xeon_e5_2670_x2();

    let mut group = c.benchmark_group("tuned_solve_cg_96");
    group.sample_size(10);
    for tuned in [false, true] {
        cfg.tl_autotune = tuned;
        group.bench_with_input(
            BenchmarkId::from_parameter(if tuned { "tuned" } else { "untuned" }),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    black_box(
                        run(&RunSpec::new(cfg, Exec::port(ModelId::Omp3F90, &device)))
                            .expect("supported pair")
                            .report,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tune_search, bench_tuned_solve);
criterion_main!(benches);
