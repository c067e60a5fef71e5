//! Property tests for the interior/boundary split the overlapped
//! distributed solvers run ([`tealeaf::tile::Span`]).
//!
//! The overlap scheme updates a tile's interior cells (`Span::Inner`)
//! while the depth-1 halo exchange is in flight, then sweeps the
//! perimeter ring (`Span::Ring`) once the ghost cells are fresh. The
//! whole design rests on one claim: because **no TeaLeaf kernel writes a
//! field its stencil reads**, splitting a monolithic pass (`Span::All`)
//! into interior + ring — in either order, on any executor, under any
//! schedule — produces bit-identical field contents.
//!
//! That claim is a property over all tile shapes, field contents and
//! schedules, not over a handful of decks, so it is fuzzed here: random
//! tile meshes (including degenerate 1-wide/1-tall tiles where the ring
//! swallows everything), random field bits, every stencil and pointwise
//! cell kernel the distributed drivers split, executors from inline
//! serial through work-stealing pools, and adversarial index
//! permutations via [`parpool::PermutedExec`].

use std::sync::OnceLock;

use parpool::{Executor, PermutedExec, SerialExec, StaticPool, StealPool};
use proptest::prelude::*;
use tea_core::mesh::Mesh2d;
use tealeaf::ports::common::{self, Run, Us};
use tealeaf::tile::{for_cells, span_cells, Span};

/// Every solver field a split kernel touches, with fuzzed contents.
#[derive(Debug, Clone)]
struct Mats {
    u0: Vec<f64>,
    u: Vec<f64>,
    p: Vec<f64>,
    r: Vec<f64>,
    w: Vec<f64>,
    z: Vec<f64>,
    sd: Vec<f64>,
    kx: Vec<f64>,
    ky: Vec<f64>,
}

/// Scalar kernel parameters, fuzzed alongside the fields.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    precond: bool,
    first: bool,
    theta: f64,
    alpha: f64,
    beta: f64,
}

/// The cell kernels the distributed drivers run span-by-span. The first
/// five read a 5-point stencil (the ones the overlap window actually
/// splits); the rest are pointwise but must satisfy the same property
/// since they share the span machinery.
const KERNELS: [&str; 8] = [
    "cg_init",
    "cg_calc_w",
    "cheby_calc_p",
    "ppcg_w",
    "jacobi_iterate",
    "cg_calc_ur",
    "cg_calc_p",
    "ppcg_update",
];

/// Run one kernel over `spans` (in order) on `exec`, mutating `m` in
/// place, span by span as `ports::tile::TilePort` splits a pass: collect
/// the span's flat indices row-major, then dispatch them as one parallel
/// region per span.
fn run_kernel(
    kernel: &str,
    mesh: &Mesh2d,
    m: &mut Mats,
    s: Scalars,
    spans: &[Span],
    exec: &dyn Executor,
) {
    let width = mesh.width();
    let Mats {
        u0,
        u,
        p,
        r,
        w,
        z,
        sd,
        kx,
        ky,
    } = m;
    // Each cell is a length-1 run, dispatched on its own.
    let cell = |k: usize| Run {
        b: k,
        len: 1,
        width,
    };
    for &span in spans {
        let mut idxs = Vec::new();
        for_cells(mesh, span, |k| idxs.push(k));
        assert_eq!(idxs.len() as u64, span_cells(mesh, span));
        match kernel {
            "cg_init" => {
                let (w, r, p, z) = (Us::new(w), Us::new(r), Us::new(p), Us::new(z));
                exec.run(idxs.len(), &|i| {
                    unsafe {
                        common::run_cg_init(cell(idxs[i]), s.precond, u, u0, kx, ky, &w, &r, &p, &z)
                    };
                });
            }
            "cg_calc_w" => {
                let w = Us::new(w);
                exec.run(idxs.len(), &|i| {
                    unsafe { common::run_cg_calc_w(cell(idxs[i]), p, kx, ky, &w) };
                });
            }
            "cheby_calc_p" => {
                let (w, r, p) = (Us::new(w), Us::new(r), Us::new(p));
                exec.run(idxs.len(), &|i| unsafe {
                    common::run_cheby_calc_p(
                        cell(idxs[i]),
                        s.first,
                        s.theta,
                        s.alpha,
                        s.beta,
                        u,
                        u0,
                        kx,
                        ky,
                        &w,
                        &r,
                        &p,
                    );
                });
            }
            "ppcg_w" => {
                let w = Us::new(w);
                exec.run(idxs.len(), &|i| unsafe {
                    common::run_ppcg_w(cell(idxs[i]), sd, kx, ky, &w);
                });
            }
            "jacobi_iterate" => {
                let u = Us::new(u);
                exec.run(idxs.len(), &|i| {
                    unsafe { common::run_jacobi_iterate(cell(idxs[i]), u0, r, kx, ky, &u) };
                });
            }
            "cg_calc_ur" => {
                let (u, r, z) = (Us::new(u), Us::new(r), Us::new(z));
                exec.run(idxs.len(), &|i| {
                    unsafe {
                        common::run_cg_calc_ur(
                            cell(idxs[i]),
                            s.alpha,
                            s.precond,
                            p,
                            w,
                            kx,
                            ky,
                            &u,
                            &r,
                            &z,
                        )
                    };
                });
            }
            "cg_calc_p" => {
                let p = Us::new(p);
                exec.run(idxs.len(), &|i| unsafe {
                    common::run_cg_calc_p(cell(idxs[i]), s.beta, s.precond, r, z, &p);
                });
            }
            "ppcg_update" => {
                let (u, r, sd) = (Us::new(u), Us::new(r), Us::new(sd));
                exec.run(idxs.len(), &|i| unsafe {
                    common::run_ppcg_update(cell(idxs[i]), s.alpha, s.beta, w, &u, &r, &sd);
                });
            }
            other => panic!("unknown kernel {other}"),
        }
    }
}

/// Bitwise comparison of every field, naming the first divergent cell.
fn assert_bits_equal(kernel: &str, label: &str, a: &Mats, b: &Mats) {
    let pairs: [(&str, &[f64], &[f64]); 7] = [
        ("u0", &a.u0, &b.u0),
        ("u", &a.u, &b.u),
        ("p", &a.p, &b.p),
        ("r", &a.r, &b.r),
        ("w", &a.w, &b.w),
        ("z", &a.z, &b.z),
        ("sd", &a.sd, &b.sd),
    ];
    for (name, xs, ys) in pairs {
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{kernel} under {label}: field {name} cell {k} split={y:e} vs monolithic={x:e}"
            );
        }
    }
}

/// The executors the split is fuzzed over, built once: the inline
/// reference, static pools (including more threads than small tiles have
/// cells — the inline fast-path boundary) and a work stealer.
fn executors() -> &'static [Box<dyn Executor>] {
    static POOLS: OnceLock<Vec<Box<dyn Executor>>> = OnceLock::new();
    POOLS.get_or_init(|| {
        vec![
            Box::new(SerialExec),
            Box::new(StaticPool::new(2)),
            Box::new(StaticPool::new(5)),
            Box::new(StealPool::new(3)),
        ]
    })
}

fn field(len: usize, lo: f64, hi: f64) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(lo..hi, len)
}

fn mats_strategy() -> impl Strategy<Value = (Mesh2d, Mats)> {
    (1usize..9, 1usize..9, 1usize..3).prop_flat_map(|(cols, rows, halo)| {
        let mesh = Mesh2d::new(cols, rows, halo, (0.0, 1.0), (0.0, 1.0));
        let n = mesh.len();
        (
            Just(mesh),
            (
                field(n, -2.0, 2.0),
                field(n, -2.0, 2.0),
                field(n, -2.0, 2.0),
                field(n, -2.0, 2.0),
            ),
            (
                field(n, -2.0, 2.0),
                field(n, -2.0, 2.0),
                field(n, -2.0, 2.0),
            ),
            (field(n, 0.05, 3.0), field(n, 0.05, 3.0)),
        )
            .prop_map(|(mesh, (u0, u, p, r), (w, z, sd), (kx, ky))| {
                (
                    mesh,
                    Mats {
                        u0,
                        u,
                        p,
                        r,
                        w,
                        z,
                        sd,
                        kx,
                        ky,
                    },
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole invariant: Inner+Ring ≡ All, bit for bit, for every
    /// kernel, on every executor, under an adversarial schedule, in both
    /// split orders. The monolithic reference always runs inline serial —
    /// exactly the sweep the non-overlapped (blocking) driver performs.
    #[test]
    fn split_pass_bit_identical_to_monolithic(
        (mesh, mats) in mats_strategy(),
        precond in 0u8..2,
        first in 0u8..2,
        theta in 0.3..3.0f64,
        alpha in -1.5..1.5f64,
        beta in -1.5..1.5f64,
        exec_pick in 0usize..4,
        seed in 0u64..=u64::MAX,
        ring_first in 0u8..2,
    ) {
        let (precond, first, ring_first) = (precond == 1, first == 1, ring_first == 1);
        let s = Scalars { precond, first, theta, alpha, beta };
        let spans: [Span; 2] = if ring_first {
            [Span::Ring, Span::Inner]
        } else {
            [Span::Inner, Span::Ring]
        };
        let inner: &dyn Executor = executors()[exec_pick].as_ref();
        for kernel in KERNELS {
            let mut reference = mats.clone();
            run_kernel(kernel, &mesh, &mut reference, s, &[Span::All], &SerialExec);

            let hostile = PermutedExec::new(inner, seed);
            let mut split = mats.clone();
            run_kernel(kernel, &mesh, &mut split, s, &spans, &hostile);

            let label = format!(
                "exec #{exec_pick}, seed {seed}, {} first",
                if ring_first { "ring" } else { "inner" }
            );
            assert_bits_equal(kernel, &label, &reference, &split);
        }
    }

    /// The span decomposition itself: Inner and Ring partition All —
    /// same cells, each exactly once, and the counts match
    /// [`span_cells`]. Degenerate 1-wide/1-tall tiles put everything in
    /// the ring.
    #[test]
    fn spans_partition_the_interior(
        cols in 1usize..12,
        rows in 1usize..12,
        halo in 1usize..4,
    ) {
        let mesh = Mesh2d::new(cols, rows, halo, (0.0, 1.0), (0.0, 1.0));
        let collect = |span| {
            let mut v = Vec::new();
            for_cells(&mesh, span, |k| v.push(k));
            v
        };
        let all = collect(Span::All);
        let inner = collect(Span::Inner);
        let ring = collect(Span::Ring);
        prop_assert_eq!(all.len() as u64, span_cells(&mesh, Span::All));
        prop_assert_eq!(inner.len() as u64, span_cells(&mesh, Span::Inner));
        prop_assert_eq!(ring.len() as u64, span_cells(&mesh, Span::Ring));
        prop_assert_eq!(all.len(), cols * rows);

        let mut merged: Vec<usize> = inner.iter().chain(&ring).copied().collect();
        merged.sort_unstable();
        let mut sorted_all = all.clone();
        sorted_all.sort_unstable();
        prop_assert_eq!(merged, sorted_all, "inner + ring must partition all");
    }
}
