//! Criterion micro-benchmarks of the real (host) execution substrates:
//! stencil and streaming kernels through each pool, deterministic
//! reductions, halo exchange, and pool dispatch overhead.
//!
//! These measure *wall time* of the Rust implementations themselves (not
//! simulated device time): the data-parallel machinery under every port.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parpool::{Executor, SerialExec, StaticPool, StealPool, UnsafeSlice};
use tea_bench::baseline::BaselinePool;
use tea_core::halo::{update_halo, update_halo_batch};
use tea_core::mesh::Mesh2d;
use tealeaf::ports::common::{self, Us};

fn fields(mesh: &Mesh2d) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let len = mesh.len();
    let gen = |s: f64| {
        (0..len)
            .map(|k| 1.0 + s * ((k % 13) as f64))
            .collect::<Vec<f64>>()
    };
    (gen(0.01), gen(0.002), gen(0.003), vec![0.0; len])
}

fn bench_matvec(c: &mut Criterion) {
    let mesh = Mesh2d::square(512);
    let (p, kx, ky, mut w) = fields(&mesh);
    let mut group = c.benchmark_group("matvec_5pt");
    group.sample_size(20);
    group.throughput(Throughput::Elements(mesh.interior_len() as u64));

    let serial = SerialExec;
    let static_pool = StaticPool::new(parpool::default_threads());
    let steal_pool = StealPool::new(parpool::default_threads());
    let execs: [(&str, &dyn Executor); 3] = [
        ("serial", &serial),
        ("static_pool", &static_pool),
        ("steal_pool", &steal_pool),
    ];

    for (name, exec) in execs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &exec, |b, exec| {
            let j0 = mesh.i0();
            b.iter(|| {
                let pw = {
                    let wv: Us = UnsafeSlice::new(&mut w);
                    exec.run_sum(mesh.y_cells, &|jj| {
                        // SAFETY: rows disjoint.
                        unsafe { common::row_cg_calc_w(&mesh, j0 + jj, &p, &kx, &ky, &wv) }
                    })
                };
                black_box(pw)
            });
        });
    }
    group.finish();
}

fn bench_streaming_update(c: &mut Criterion) {
    let mesh = Mesh2d::square(512);
    let (r, z, _ky, mut p) = fields(&mesh);
    let mut group = c.benchmark_group("axpy_cg_calc_p");
    group.sample_size(20);
    group.throughput(Throughput::Elements(mesh.interior_len() as u64));
    let static_pool = StaticPool::new(parpool::default_threads());
    group.bench_function("static_pool", |b| {
        let j0 = mesh.i0();
        b.iter(|| {
            let pv: Us = UnsafeSlice::new(&mut p);
            static_pool.run(mesh.y_cells, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_cg_calc_p(&mesh, j0 + jj, 0.3, false, &r, &z, &pv) };
            });
        });
    });
    group.finish();
}

fn bench_halo(c: &mut Criterion) {
    let mut group = c.benchmark_group("halo_update");
    group.sample_size(30);
    for cells in [128usize, 512] {
        let mesh = Mesh2d::square(cells);
        let mut field = vec![1.0; mesh.len()];
        group.bench_with_input(BenchmarkId::from_parameter(cells), &mesh, |b, mesh| {
            b.iter(|| update_halo(mesh, black_box(&mut field), 2));
        });
    }
    group.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    // Cost of one small parallel region — the fork/join overhead the
    // paper's directive models multiply by their target-region count.
    let mut group = c.benchmark_group("dispatch_overhead");
    group.sample_size(30);
    let static_pool = StaticPool::new(parpool::default_threads());
    let steal_pool = StealPool::new(parpool::default_threads());
    group.bench_function("static_pool_64", |b| {
        b.iter(|| {
            static_pool.run(64, &|i| {
                black_box(i);
            })
        });
    });
    group.bench_function("steal_pool_64", |b| {
        b.iter(|| {
            steal_pool.run(64, &|i| {
                black_box(i);
            })
        });
    });
    group.finish();
}

fn bench_reduction_determinism_cost(c: &mut Criterion) {
    // The ordered per-row reduction vs a plain serial loop: the price of
    // bit-reproducibility.
    let mesh = Mesh2d::square(512);
    let (x, _, _, _) = fields(&mesh);
    let mut group = c.benchmark_group("norm_reduction");
    group.sample_size(20);
    group.throughput(Throughput::Elements(mesh.interior_len() as u64));
    group.bench_function("row_ordered_serial", |b| {
        b.iter(|| {
            black_box(SerialExec.run_sum_blocks(mesh.y_cells, &|rows, out| {
                common::block_norm(&mesh, rows, common::Pass::Reduce(out), &x)
            }))
        });
    });
    let static_pool = StaticPool::new(parpool::default_threads());
    group.bench_function("row_ordered_pool", |b| {
        b.iter(|| {
            black_box(static_pool.run_sum_blocks(mesh.y_cells, &|rows, out| {
                common::block_norm(&mesh, rows, common::Pass::Reduce(out), &x)
            }))
        });
    });
    group.finish();
}

fn bench_seed_vs_current(c: &mut Criterion) {
    // Before/after the fork-join rework: the vendored seed substrate
    // (`BaselinePool`: mutex+condvar wake per region, allocating
    // reductions) against the reworked `StaticPool` (inline fast path for
    // `n < n_threads`, spin-then-park barrier, persistent reduction
    // scratch). The `dispatch_3` pair uses ≥ 4 workers so the seed's wake
    // round-trip is actually exercised; the mesh pairs run at the
    // production thread count.
    let mut group = c.benchmark_group("seed_vs_current");
    group.sample_size(20);

    let n_dispatch = parpool::default_threads().max(4);
    {
        let seed = BaselinePool::new(n_dispatch);
        let current = StaticPool::new(n_dispatch);
        group.bench_function("dispatch_3/seed", |b| {
            b.iter(|| {
                seed.run(3, &|i| {
                    black_box(i);
                })
            });
        });
        group.bench_function("dispatch_3/current", |b| {
            b.iter(|| {
                current.run(3, &|i| {
                    black_box(i);
                })
            });
        });
    }

    let mesh = Mesh2d::square(256);
    let (p, kx, ky, mut w) = fields(&mesh);
    let j0 = mesh.i0();
    let seed = BaselinePool::new(parpool::default_threads());
    let current = StaticPool::new(parpool::default_threads());

    group.bench_function("matvec_256/seed", |b| {
        b.iter(|| {
            let wv: Us = UnsafeSlice::new(&mut w);
            black_box(seed.run_sum(mesh.y_cells, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_cg_calc_w(&mesh, j0 + jj, &p, &kx, &ky, &wv) }
            }))
        });
    });
    group.bench_function("matvec_256/current", |b| {
        b.iter(|| {
            let wv: Us = UnsafeSlice::new(&mut w);
            black_box(current.run_sum(mesh.y_cells, &|jj| {
                // SAFETY: rows disjoint.
                unsafe { common::row_cg_calc_w(&mesh, j0 + jj, &p, &kx, &ky, &wv) }
            }))
        });
    });

    let mut h: Vec<Vec<f64>> = (0..4).map(|_| vec![1.0; mesh.len()]).collect();
    group.bench_function("halo_x4_256/seed", |b| {
        b.iter(|| {
            for f in h.iter_mut() {
                update_halo(&mesh, f, 2);
            }
        });
    });
    group.bench_function("halo_x4_256/current", |b| {
        b.iter(|| {
            let mut views: Vec<&mut [f64]> = h.iter_mut().map(|f| f.as_mut_slice()).collect();
            update_halo_batch(&mesh, &mut views, 2, &current);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matvec,
    bench_streaming_update,
    bench_halo,
    bench_dispatch_overhead,
    bench_reduction_determinism_cost,
    bench_seed_vs_current
);
criterion_main!(benches);
