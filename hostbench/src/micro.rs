//! Microbenchmarks that time one layer from outside, at the workload's
//! sizes: pool post/join, row-kernel bodies, the STREAM triad, simdev
//! launch charging, and one mpisim message.

use std::hint::black_box;
use std::time::Instant;

use parpool::{Executor, SerialExec, UnsafeSlice};
use simdev::KernelProfile;
use stream_rs::StreamKernel;
use tea_core::mesh::Mesh2d;
use tealeaf::driver::powered_device;
use tealeaf::ir::KernelId;
use tealeaf::ports::common::{self, profiles};
use tealeaf::Problem;

use crate::stats::{median, median_ns};
use crate::workload::{PortSpec, Scale, PORT_SEED};

/// Samples per microbenchmark, and the minimum length of one sample.
fn budget(scale: Scale) -> (usize, u128) {
    match scale {
        Scale::Full => (9, 5_000_000),
        Scale::Tiny => (3, 200_000),
    }
}

/// Median µs of one no-op region of `rows` items posted to `exec`.
pub fn post_join_us(exec: &dyn Executor, rows: usize, scale: Scale) -> f64 {
    let (samples, min_ns) = budget(scale);
    median_ns(samples, min_ns, || {
        exec.run(rows, &|i| {
            black_box(i);
        })
    }) / 1e3
}

/// The row kernels timed on [`SerialExec`], with their report names.
pub const KERNELS: [&str; 4] = ["cg_calc_w", "cg_calc_ur", "cg_calc_p", "cheby_iterate"];

/// Kernel-body timings at one mesh size.
pub struct KernelBodies {
    /// ns per interior cell, in [`KERNELS`] order.
    pub ns_per_cell: [f64; 4],
}

/// Time each of [`KERNELS`] over a `side²` mesh on [`SerialExec`], using
/// the row kernels every port shares.
pub fn kernel_bodies(side: usize, scale: Scale) -> KernelBodies {
    let (samples, min_ns) = budget(scale);
    let mesh = Mesh2d::square(side);
    let field = |s: f64| -> Vec<f64> {
        (0..mesh.len())
            .map(|k| 1.0 + s * ((k % 13) as f64))
            .collect()
    };
    let (kx, ky, u0) = (field(0.01), field(0.02), field(0.03));
    let (mut u, mut p, mut r, mut w, mut z) = (
        field(0.04),
        field(0.05),
        field(0.06),
        field(0.07),
        field(0.0),
    );
    let rows = mesh.j1() - mesh.i0();
    let j0 = mesh.i0();
    let cells = mesh.interior_len() as f64;
    let exec = SerialExec;

    let calc_w = median_ns(samples, min_ns, || {
        let w = UnsafeSlice::new(&mut w);
        // SAFETY: each row index is visited once, so row writes are disjoint.
        black_box(exec.run_sum(rows, &|jj| unsafe {
            common::row_cg_calc_w(&mesh, j0 + jj, &p, &kx, &ky, &w)
        }));
    });
    let calc_ur = median_ns(samples, min_ns, || {
        let (us, rs, zs) = (
            UnsafeSlice::new(&mut u),
            UnsafeSlice::new(&mut r),
            UnsafeSlice::new(&mut z),
        );
        // SAFETY: disjoint rows, as above. `alpha = 0` keeps the fields
        // fixed from sample to sample.
        black_box(exec.run_sum(rows, &|jj| unsafe {
            common::row_cg_calc_ur(&mesh, j0 + jj, 0.0, false, &p, &w, &kx, &ky, &us, &rs, &zs)
        }));
    });
    let calc_p = median_ns(samples, min_ns, || {
        let ps = UnsafeSlice::new(&mut p);
        // SAFETY: disjoint rows, as above. `beta = 1` grows p by the fixed
        // r each sample: linear growth, never overflow or subnormals.
        exec.run(rows, &|jj| unsafe {
            common::row_cg_calc_p(&mesh, j0 + jj, 1.0, false, &r, &z, &ps)
        });
    });
    let cheby = median_ns(samples, min_ns, || {
        {
            let (ws, rs, ps) = (
                UnsafeSlice::new(&mut w),
                UnsafeSlice::new(&mut r),
                UnsafeSlice::new(&mut p),
            );
            // SAFETY: disjoint rows, as above. `alpha = 1, beta = 0` keep p
            // fixed, so u grows linearly: the same arithmetic every sample,
            // never overflow or subnormals.
            exec.run(rows, &|jj| unsafe {
                common::row_cheby_calc_p(
                    &mesh,
                    j0 + jj,
                    false,
                    0.0,
                    1.0,
                    0.0,
                    &u,
                    &u0,
                    &kx,
                    &ky,
                    &ws,
                    &rs,
                    &ps,
                )
            });
        }
        let us = UnsafeSlice::new(&mut u);
        // SAFETY: disjoint rows, as above.
        exec.run(rows, &|jj| unsafe {
            common::row_add_p_to_u(&mesh, j0 + jj, &p, &us)
        });
    });
    black_box((&u, &p, &r, &w, &z));
    KernelBodies {
        ns_per_cell: [
            calc_w / cells,
            calc_ur / cells,
            calc_p / cells,
            cheby / cells,
        ],
    }
}

/// Array length of the STREAM triad at `scale`: 8 Mi elements (three
/// 64 MiB arrays) for the measured workloads.
pub fn triad_elements(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1 << 23,
        Scale::Tiny => 1 << 16,
    }
}

/// Best-of-trials STREAM triad GB/s on `exec` (`stream_rs::host::run`).
pub fn triad_gbs(exec: &dyn Executor, scale: Scale) -> f64 {
    let trials = if scale == Scale::Full { 5 } else { 2 };
    stream_rs::host::run(exec, triad_elements(scale), trials)
        .into_iter()
        .find(|r| r.kernel == StreamKernel::Triad)
        .map_or(0.0, |r| r.best_gbs)
}

/// The IR's launch profiles at one mesh size: every kernel once, with a
/// depth-1 halo standing in for the halo exchange.
fn ir_profiles(mesh: &Mesh2d) -> Vec<KernelProfile> {
    use KernelId::*;
    let n = profiles::cells(mesh);
    let mut out: Vec<KernelProfile> = [
        InitU0,
        InitCoeffs,
        CgInit,
        CgCalcW,
        CgCalcUr,
        CgCalcP,
        ChebyCalcP,
        ChebyCalcU,
        PpcgInitSd,
        PpcgCalcW,
        PpcgUpdate,
        JacobiCopy,
        JacobiSolve,
        Residual,
        Calc2Norm,
        Finalise,
        FieldSummary,
    ]
    .into_iter()
    .map(|k| k.desc().profile(n, false))
    .collect();
    out.push(profiles::halo(mesh, 1));
    out
}

/// Median host ns one `SimContext::launch` costs on `spec`'s own cost
/// model, averaged over the IR kernel profiles.
pub fn charge_ns_per_launch(problem: &Problem, spec: PortSpec, scale: Scale) -> f64 {
    let (samples, min_ns) = budget(scale);
    let device = powered_device(&(spec.device)(), &problem.config);
    let ctx = common::make_context(spec.model, device, problem, PORT_SEED);
    let launches = ir_profiles(&problem.mesh);
    median_ns(samples, min_ns, || {
        for p in &launches {
            black_box(ctx.launch(p));
        }
    }) / launches.len() as f64
}

/// Median µs per message of a ping-pong of `elements`-long payloads
/// between 2 ranks under `mpisim::run_spmd`.
pub fn us_per_message(elements: usize, scale: Scale) -> f64 {
    let (samples, _) = budget(scale);
    let round_trips = if scale == Scale::Full { 200 } else { 20 };
    let per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let times = mpisim::run_spmd(2, |rank| {
                let peer = 1 - rank.id();
                let payload = vec![1.0f64; elements];
                let start = Instant::now();
                for _ in 0..round_trips {
                    if rank.id() == 0 {
                        rank.send(peer, 7, payload.clone());
                        black_box(rank.recv(peer, 7));
                    } else {
                        let back = rank.recv(peer, 7);
                        rank.send(peer, 7, back);
                    }
                }
                start.elapsed().as_secs_f64()
            });
            times[0] * 1e6 / (2 * round_trips) as f64
        })
        .collect();
    median(&per_sample)
}
