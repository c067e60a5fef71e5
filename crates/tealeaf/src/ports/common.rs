//! Shared kernel bodies, launch profiles and the field set.
//!
//! Every port performs *identical per-cell arithmetic* by calling the run
//! bodies here (which in turn use [`tea_core::physics`]); what differs
//! between ports is dispatch, data containers, transfers and cost profiles.
//! This is the reproduction of the paper's methodology: "TeaLeaf's core
//! solver logic and parameters were kept consistent between ports to
//! ensure that each of the programming models were objectively compared"
//! (§3).
//!
//! A body works on a [`Run`], a contiguous stretch of cells within one
//! row. Row-dispatch ports hand it whole rows (the `row_*` forms); the
//! flat-index models (Kokkos, RAJA, OpenCL, CUDA) hand it each block,
//! work-group or chunk cut into runs by [`RunBox::clip`], which is their
//! in-kernel halo guard evaluated once per run.
//!
//! The `unsafe` functions write through [`parpool::UnsafeSlice`]; their
//! safety contract is always the same: **each output cell is written by
//! exactly one concurrent caller** (ports dispatch disjoint runs).
//!
//! Every port also keeps its arrays in one [`Fields`], with its own
//! model's container as the element type: `Vec<f64>` ([`PortFields`]) for
//! the host ports and the tile, a `View` for Kokkos, a `Buffer` for
//! OpenCL, a `DeviceBuffer` for CUDA. The containers differ; the map from
//! a [`FieldId`] to its array (aliases included), the conformance
//! read-back and poke, and the batched halo update are written once here.

use std::ops::Range;

use parpool::UnsafeSlice;
use simdev::KernelProfile;
use tea_core::config::Coefficient;
use tea_core::field::Field2d;
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::physics;

/// Shorthand for the shared-write slice of `f64`.
pub type Us<'a> = UnsafeSlice<'a, f64>;

/// Build a port's [`simdev::SimContext`] — calibrated profile, quirks
/// and the launch-configuration tuning table — in one place.
///
/// The committed tuning registry (`crate::tune`) describes the autotuned
/// launch shape per device per kernel. With `tl_autotune` on (the
/// default) the tuned table is charge-inert: the calibrated profiles
/// already model the paper's hand-tuned codes. Turning it off charges
/// the generic per-device default configuration instead, slowing each
/// kernel's data term by the tuner-measured efficiency ratio.
pub fn make_context(
    model: crate::ModelId,
    device: simdev::DeviceSpec,
    problem: &crate::Problem,
    seed: u64,
) -> simdev::SimContext {
    use crate::profiles::{model_profile, model_quirks};
    let mut ctx = simdev::SimContext::new(device, model_profile(model), model_quirks(model), seed);
    ctx.cost.tuning = crate::tune::tuning_table(&ctx.cost.device, problem.config.tl_autotune);
    ctx
}

/// Flat index into a padded row-major field.
#[inline(always)]
pub fn idx(width: usize, i: usize, j: usize) -> usize {
    j * width + i
}

/// Apply the 5-point operator `A` to `x` at flat index `k`.
#[inline(always)]
pub fn apply_a(width: usize, k: usize, x: &[f64], kx: &[f64], ky: &[f64]) -> f64 {
    physics::apply_stencil(
        x[k],
        x[k - 1],
        x[k + 1],
        x[k - width],
        x[k + width],
        kx[k],
        kx[k + 1],
        ky[k],
        ky[k + width],
    )
}

// ---------------------------------------------------------------------------
// runs: the unit every kernel body works on
// ---------------------------------------------------------------------------

/// `len` contiguous cells of one padded row, starting at flat index `b`, in
/// a field `width` cells wide. A whole interior row is one run
/// ([`Run::row`]); the model shims hand each block, work-group or chunk to
/// the bodies as the runs [`RunBox::clip`] cuts from its index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub b: usize,
    pub len: usize,
    pub width: usize,
}

impl Run {
    /// Interior row `j` of `mesh`.
    #[inline(always)]
    pub fn row(mesh: &Mesh2d, j: usize) -> Run {
        RunBox::interior(mesh).row(j)
    }

    /// The run's cells of `x`.
    #[inline(always)]
    fn of(self, x: &[f64]) -> &[f64] {
        &x[self.b..self.b + self.len]
    }

    /// The run's cells of a shared-write field, for reading.
    ///
    /// # Safety
    /// No other concurrent caller may write the run's cells of `x`.
    #[inline(always)]
    unsafe fn view<'a>(self, x: &Us<'a>) -> &'a [f64] {
        unsafe { x.slice(self.b, self.b + self.len) }
    }

    /// The run's cells of `x`, writable.
    ///
    /// # Safety
    /// No other concurrent caller may touch the run's cells of `x`.
    #[inline(always)]
    unsafe fn out<'a>(self, x: &Us<'a>) -> &'a mut [f64] {
        unsafe { x.slice_mut(self.b, self.b + self.len) }
    }
}

/// The box of cells a grid kernel writes, `[i0, i1) × [j0, j1)` of a
/// padded field `width` cells wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBox {
    width: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

impl RunBox {
    /// The interior cells: every kernel but `init_coeffs`.
    pub fn interior(mesh: &Mesh2d) -> Self {
        let (i0, i1, width) = row_bounds(mesh);
        RunBox {
            width,
            i0,
            i1,
            j0: mesh.i0(),
            j1: mesh.j1(),
        }
    }

    /// `init_coeffs`' inclusive box `[i0, i1] × [j0, j1]`, one cell past
    /// the interior on the high sides so the east and north faces of the
    /// last interior cells exist.
    pub fn coeffs(mesh: &Mesh2d) -> Self {
        let b = Self::interior(mesh);
        RunBox {
            i1: b.i1 + 1,
            j1: b.j1 + 1,
            ..b
        }
    }

    /// The box's run on row `j`.
    #[inline(always)]
    pub fn row(&self, j: usize) -> Run {
        Run {
            b: idx(self.width, self.i0, j),
            len: self.i1 - self.i0,
            width: self.width,
        }
    }

    /// Hand `f`, in order, every run of box cells inside the flat range
    /// `ids`. This is the models' in-kernel guard evaluated once per run:
    /// halo cells, cells past the box and a launch's overspill past the
    /// field never reach a body.
    #[inline(always)]
    pub fn clip(&self, ids: Range<usize>, mut f: impl FnMut(Run)) {
        let w = self.width;
        let lo = ids.start.max(idx(w, self.i0, self.j0));
        let hi = ids.end.min(idx(w, self.i1, self.j1 - 1));
        if lo >= hi {
            return;
        }
        for j in lo / w..=(hi - 1) / w {
            let (a, e) = (lo.max(idx(w, self.i0, j)), hi.min(idx(w, self.i1, j)));
            if a < e {
                f(Run {
                    b: a,
                    len: e - a,
                    width: w,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// run bodies (every port; whole rows are one case)
// ---------------------------------------------------------------------------
//
// Each body works on run slices: it reborrows its own cells of every output
// field once ([`Run::out`]) and reads its inputs through sub-slices sized to
// the run, so the loops carry no per-cell bounds checks and no branch on a
// loop-invariant flag (`first`, `precond` select one loop each). The stencil
// is one shared loop, [`RowStencil::each`]: it reads the centre row
// `[b−1, b+len+1)`, the north and south rows, `kx[b..b+len+1]` and `ky` of
// this row and the north row, and it vectorises as long as its per-cell
// tail only stores. So the stencil-bearing bodies take one of two shapes:
//
// 1. **No fold** (`cheby_calc_p`, `residual`, `ppcg_w`): the tail
//    (`res = u0 − A·u`, the p update) rides the stencil loop.
// 2. **Update before a fold** (`cg_init`, `jacobi_iterate`): a stencil
//    pass writes the run (`w`, or the new `u`), then an elementwise pass
//    over the still L1-resident run does the rest. The reducing kernels'
//    run bodies are update passes only; their folds are the row-block
//    tail below ([`fold_rows`]).
//
// Both shapes are bit-identical to evaluating each cell on its own: every
// cell evaluates the same `physics` expression on the same operands (Rust
// never contracts `a*b + c` to an FMA).
//
// Every body's `# Safety` contract is the same: **the run's cells of every
// output field are written by this caller alone**. Its reads may reach the
// run's neighbours; no kernel writes a field it reads.

/// Interior row bounds for `mesh`: `(i0, i1, width)`.
#[inline(always)]
pub fn row_bounds(mesh: &Mesh2d) -> (usize, usize, usize) {
    (mesh.i0(), mesh.i1(), mesh.width())
}

/// The face coefficients of one run: `kx` on its `len + 1` west faces (the
/// last is the east face of the last cell), `ky` on its south and north
/// faces.
struct RowCoeffs<'a> {
    kx: &'a [f64],
    ky_s: &'a [f64],
    ky_n: &'a [f64],
}

impl<'a> RowCoeffs<'a> {
    #[inline(always)]
    fn new(run: Run, kx: &'a [f64], ky: &'a [f64]) -> Self {
        let Run { b, len, width } = run;
        RowCoeffs {
            kx: &kx[b..b + len + 1],
            ky_s: &ky[b..b + len],
            ky_n: &ky[b + width..b + width + len],
        }
    }

    /// Diagonal of `A` at run cell `i`.
    #[inline(always)]
    fn diag(&self, i: usize) -> f64 {
        physics::diagonal(self.kx[i], self.kx[i + 1], self.ky_s[i], self.ky_n[i])
    }
}

/// One run's 5-point neighbourhood of `x` as row slices: the centre row
/// with one cell either side, the south and north rows, and the run's face
/// coefficients.
struct RowStencil<'a> {
    c: &'a [f64],
    s: &'a [f64],
    n: &'a [f64],
    k: RowCoeffs<'a>,
}

impl<'a> RowStencil<'a> {
    #[inline(always)]
    fn new(run: Run, x: &'a [f64], kx: &'a [f64], ky: &'a [f64]) -> Self {
        let Run { b, len, width } = run;
        RowStencil {
            c: &x[b - 1..b + len + 1],
            s: &x[b - width..b - width + len],
            n: &x[b + width..b + width + len],
            k: RowCoeffs::new(run, kx, ky),
        }
    }

    /// Hand `(A·x)` at every cell of the run, in order, to `tail(i, ax)`
    /// ([`apply_a`]). A tail that only stores keeps the loop vectorised.
    #[inline(always)]
    fn each(&self, len: usize, mut tail: impl FnMut(usize, f64)) {
        let (c, s, n) = (&self.c[..len + 2], &self.s[..len], &self.n[..len]);
        let (kx, ky_s, ky_n) = (
            &self.k.kx[..len + 1],
            &self.k.ky_s[..len],
            &self.k.ky_n[..len],
        );
        for i in 0..len {
            tail(
                i,
                physics::apply_stencil(
                    c[i + 1],
                    c[i],
                    c[i + 2],
                    s[i],
                    n[i],
                    kx[i],
                    kx[i + 1],
                    ky_s[i],
                    ky_n[i],
                ),
            );
        }
    }

    /// `out[i] = (A·x)` at every cell of the run.
    #[inline(always)]
    fn apply(&self, out: &mut [f64]) {
        self.each(out.len(), move |i, ax| out[i] = ax);
    }
}

/// `u0 = density·energy; u = u0`.
///
/// # Safety
/// The run's cells of every output are this caller's alone.
pub unsafe fn run_init_u0(run: Run, density: &[f64], energy: &[f64], u0: &Us, u: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let (u0, u) = unsafe { (run.out(u0), run.out(u)) };
    let (d, e) = (run.of(density), run.of(energy));
    for i in 0..run.len {
        let v = d[i] * e[i];
        u0[i] = v;
        u[i] = v;
    }
}

/// Scaled face coefficients: `kx = rx·f(w_west, w)`, `ky = ry·f(w_south,
/// w)`, with `w` the cell weight of `density`. Runs come from
/// [`RunBox::coeffs`].
///
/// # Safety
/// As [`run_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_init_coeffs(
    run: Run,
    coefficient: Coefficient,
    rx: f64,
    ry: f64,
    density: &[f64],
    kx: &Us,
    ky: &Us,
) {
    let Run { b, len, width } = run;
    // SAFETY: the run is this caller's alone (# Safety).
    let (kx, ky) = unsafe { (run.out(kx), run.out(ky)) };
    let (c, s) = (
        &density[b - 1..b + len],
        &density[b - width..b - width + len],
    );
    let weight = |d| physics::cell_weight(coefficient, d);
    for i in 0..len {
        let w_c = weight(c[i + 1]);
        kx[i] = rx * physics::face_coefficient(weight(c[i]), w_c);
        ky[i] = ry * physics::face_coefficient(weight(s[i]), w_c);
    }
}

/// CG init's update pass: `w = A·u`, `r = u0 − w`, `p = (M⁻¹r | r)`
/// (its fold is `r·p`, [`block_cg_init`]).
///
/// # Safety
/// As [`run_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_cg_init(
    run: Run,
    precond: bool,
    u: &[f64],
    u0: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
    r: &Us,
    p: &Us,
    z: &Us,
) {
    let len = run.len;
    // SAFETY: the run is this caller's alone (# Safety).
    let (w, r, p) = unsafe { (run.out(w), run.out(r), run.out(p)) };
    let st = RowStencil::new(run, u, kx, ky);
    st.apply(w);
    let u0 = run.of(u0);
    if precond {
        // SAFETY: the run is this caller's alone (# Safety).
        let z = unsafe { run.out(z) };
        for i in 0..len {
            let res = u0[i] - w[i];
            r[i] = res;
            let zv = res / st.k.diag(i);
            z[i] = zv;
            p[i] = zv;
        }
    } else {
        for i in 0..len {
            let res = u0[i] - w[i];
            r[i] = res;
            p[i] = res;
        }
    }
}

/// CG `w = A·p`, the update pass of `cg_calc_w` (its fold is `p·w`,
/// [`block_cg_calc_w`]).
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_cg_calc_w(run: Run, p: &[f64], kx: &[f64], ky: &[f64], w: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let w = unsafe { run.out(w) };
    RowStencil::new(run, p, kx, ky).apply(w);
}

/// CG update pass: `u += α·p`, `r −= α·w`, optionally `z = M⁻¹r` (its
/// fold is `r·r` or `r·z`, [`block_cg_calc_ur`]).
///
/// # Safety
/// As [`run_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_cg_calc_ur(
    run: Run,
    alpha: f64,
    precond: bool,
    p: &[f64],
    w: &[f64],
    kx: &[f64],
    ky: &[f64],
    u: &Us,
    r: &Us,
    z: &Us,
) {
    let len = run.len;
    // SAFETY: the run is this caller's alone (# Safety).
    let (u, r) = unsafe { (run.out(u), run.out(r)) };
    let (p, w) = (run.of(p), run.of(w));
    for i in 0..len {
        u[i] += alpha * p[i];
        r[i] -= alpha * w[i];
    }
    if precond {
        // SAFETY: the run is this caller's alone (# Safety).
        let z = unsafe { run.out(z) };
        let k = RowCoeffs::new(run, kx, ky);
        for i in 0..len {
            z[i] = r[i] / k.diag(i);
        }
    }
}

/// `p = (z|r) + β·p`.
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_cg_calc_p(run: Run, beta: f64, precond: bool, r: &[f64], z: &[f64], p: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let p = unsafe { run.out(p) };
    let base = run.of(if precond { z } else { r });
    for i in 0..run.len {
        p[i] = base[i] + beta * p[i];
    }
}

/// Chebyshev p-update: `w = A·u`, `r = u0 − w`, and either `p = r/θ`
/// (first step) or `p = α·p + β·r`.
///
/// # Safety
/// As [`run_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_cheby_calc_p(
    run: Run,
    first: bool,
    theta: f64,
    alpha: f64,
    beta: f64,
    u: &[f64],
    u0: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
    r: &Us,
    p: &Us,
) {
    // SAFETY: the run is this caller's alone (# Safety).
    let (w, r, p) = unsafe { (run.out(w), run.out(r), run.out(p)) };
    let st = RowStencil::new(run, u, kx, ky);
    let u0 = run.of(u0);
    if first {
        st.each(run.len, move |i, au| {
            let res = u0[i] - au;
            w[i] = au;
            r[i] = res;
            p[i] = res / theta;
        });
    } else {
        st.each(run.len, move |i, au| {
            let res = u0[i] - au;
            w[i] = au;
            r[i] = res;
            p[i] = alpha * p[i] + beta * res;
        });
    }
}

/// `u += p` (Chebyshev `calc_u`; PPCG's `u += sd`).
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_add_p_to_u(run: Run, p: &[f64], u: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let u = unsafe { run.out(u) };
    let p = run.of(p);
    for i in 0..run.len {
        u[i] += p[i];
    }
}

/// `sd = r/θ`.
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_sd_init(run: Run, theta: f64, r: &[f64], sd: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let sd = unsafe { run.out(sd) };
    let r = run.of(r);
    for i in 0..run.len {
        sd[i] = r[i] / theta;
    }
}

/// `w = A·sd` (PPCG inner stencil pass).
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_ppcg_w(run: Run, sd: &[f64], kx: &[f64], ky: &[f64], w: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let w = unsafe { run.out(w) };
    RowStencil::new(run, sd, kx, ky).apply(w);
}

/// PPCG inner local update: `r −= w`, `u += sd`, `sd = α·sd + β·r` (with
/// the *new* `r`).
///
/// # Safety
/// As [`run_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_ppcg_update(run: Run, alpha: f64, beta: f64, w: &[f64], u: &Us, r: &Us, sd: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let (u, r, sd) = unsafe { (run.out(u), run.out(r), run.out(sd)) };
    let w = run.of(w);
    for i in 0..run.len {
        let rn = r[i] - w[i];
        r[i] = rn;
        let sv = sd[i];
        u[i] += sv;
        sd[i] = alpha * sv + beta * rn;
    }
}

/// `r = u0 − A·u` (residual).
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_residual(run: Run, u: &[f64], u0: &[f64], kx: &[f64], ky: &[f64], r: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let r = unsafe { run.out(r) };
    let u0 = run.of(u0);
    RowStencil::new(run, u, kx, ky).each(run.len, move |i, au| r[i] = u0[i] - au);
}

/// Jacobi: save the previous `u` into `r` (scratch).
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_jacobi_copy(run: Run, u: &[f64], r: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    unsafe { run.out(r) }.copy_from_slice(run.of(u));
}

/// Jacobi sweep's update pass: `u = (u0 + Σ k·u_old_neighbours)/diag`,
/// with `r` holding the previous iterate (its fold is `Σ|u − r|`,
/// [`block_jacobi_iterate`]). The sweep reads the same row slices as
/// `RowStencil::each` with its own update.
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_jacobi_iterate(run: Run, u0: &[f64], r: &[f64], kx: &[f64], ky: &[f64], u: &Us) {
    let len = run.len;
    // SAFETY: the run is this caller's alone (# Safety).
    let u = unsafe { run.out(u) };
    let st = RowStencil::new(run, r, kx, ky);
    let (c, s, n) = (&st.c[..len + 2], &st.s[..len], &st.n[..len]);
    let (kx, ky_s, ky_n) = (&st.k.kx[..len + 1], &st.k.ky_s[..len], &st.k.ky_n[..len]);
    let u0 = run.of(u0);
    for i in 0..len {
        u[i] = physics::jacobi_update(
            u0[i],
            c[i],
            c[i + 2],
            s[i],
            n[i],
            kx[i],
            kx[i + 1],
            ky_s[i],
            ky_n[i],
        );
    }
}

/// The run's partial of the 4-component field summary
/// `[volume, mass, internal energy, temperature]`, continued from `acc`
/// (`[0.0; 4]` for a fresh partial).
pub fn run_summary(
    run: Run,
    density: &[f64],
    energy: &[f64],
    u: &[f64],
    cell_vol: f64,
    acc: &mut [f64; 4],
) {
    let (d, e, u) = (run.of(density), run.of(energy), run.of(u));
    for i in 0..run.len {
        acc[0] += cell_vol;
        acc[1] += d[i] * cell_vol;
        acc[2] += d[i] * e[i] * cell_vol;
        acc[3] += u[i] * cell_vol;
    }
}

/// `energy = u/density`.
///
/// # Safety
/// As [`run_init_u0`].
pub unsafe fn run_finalise(run: Run, u: &[f64], density: &[f64], energy: &Us) {
    // SAFETY: the run is this caller's alone (# Safety).
    let energy = unsafe { run.out(energy) };
    let (u, d) = (run.of(u), run.of(density));
    for i in 0..run.len {
        energy[i] = u[i] / d[i];
    }
}

// ---------------------------------------------------------------------------
// row-block reductions (every reducing kernel, every port)
// ---------------------------------------------------------------------------
//
// A reducing kernel's row partial is a left-to-right fold from `0.0` over
// its row's terms, and the ports sum the partials in row order. One fold
// per row is one serial chain of floating-point adds, so a row's fold runs
// at the add latency however well its update pass vectorises. The block
// bodies below run the update pass over a block of rows and then fold
// [`FOLD_ROWS`] rows side by side ([`fold_rows`]): each row keeps its own
// accumulator and folds its own terms in its own order, so every row
// partial — and every sum built from them — keeps its bits; only chains
// that never meet interleave. A block arrives as the interior rows `rows`
// (0 is the first interior row) and, per [`Pass`], the accumulators of
// those rows: `+0.0` for a fresh partial, or the running sums a tile
// receives from its west neighbour.

/// Rows a block reduction folds side by side, one accumulator each. Four
/// chains already keep the adds of one row busy with the loads of the
/// others, and their eight operand rows and four sums stay in registers:
/// at 128 and 1024 cells a row, eight interleaved chains (sixteen operand
/// rows, spilled) folded `p·w` in 0.64 and 0.53 ns/cell against 0.47 and
/// 0.39 for two rounds of four, and 0.65 and 0.73 for one row at a time
/// (2-vCPU Xeon VM, best of 15 timed batches).
pub const FOLD_ROWS: usize = 4;

/// What a reducing block body runs over its rows.
pub enum Pass<'a> {
    /// The update pass alone: the fold is not wanted (a tile's
    /// `cg_update_ur`, whose reduction PPCG discards).
    Update,
    /// The update pass, then the fold onto `acc[r]` for row
    /// `rows.start + r`, [`FOLD_ROWS`] rows at a time.
    Reduce(&'a mut [f64]),
}

/// The fold tail of every reducing kernel: `acc[r] += term(a[i], b[i])`
/// for every cell `i` of row `r`, left to right, where `(a, b) =
/// ops(r)` are the row's operand cells. Full blocks of [`FOLD_ROWS`] rows
/// (all of one length) interleave their chains; the rest fold row by row
/// in the same order.
#[inline(always)]
fn fold_rows<'a>(
    acc: &mut [f64],
    ops: impl Fn(usize) -> (&'a [f64], &'a [f64]),
    term: impl Fn(f64, f64) -> f64,
) {
    for (k, acc) in acc.chunks_mut(FOLD_ROWS).enumerate() {
        let first = k * FOLD_ROWS;
        if let Ok(acc) = <&mut [f64; FOLD_ROWS]>::try_from(&mut *acc) {
            let rows: [(&[f64], &[f64]); FOLD_ROWS] = std::array::from_fn(|r| ops(first + r));
            let len = rows[0].0.len();
            let rows = rows.map(|(a, b)| (&a[..len], &b[..len]));
            let mut s = *acc;
            for i in 0..len {
                for r in 0..FOLD_ROWS {
                    s[r] += term(rows[r].0[i], rows[r].1[i]);
                }
            }
            *acc = s;
        } else {
            for (r, acc) in acc.iter_mut().enumerate() {
                let (a, b) = ops(first + r);
                for (&x, &y) in a.iter().zip(b) {
                    *acc += term(x, y);
                }
            }
        }
    }
}

/// `a·b`, the dot-product term.
#[inline(always)]
fn dot(a: f64, b: f64) -> f64 {
    a * b
}

/// Run a reducing kernel's [`Pass`] over interior rows `rows`: `update`
/// on each row's run, and [`fold_rows`] of `term` over `ops` of each run.
/// [`Pass::Reduce`] folds each block of [`FOLD_ROWS`] rows right after
/// updating it, while the block is still in cache.
#[inline(always)]
fn block<'a>(
    mesh: &Mesh2d,
    rows: Range<usize>,
    pass: Pass<'_>,
    update: impl Fn(Run),
    ops: impl Fn(Run) -> (&'a [f64], &'a [f64]),
    term: impl Fn(f64, f64) -> f64 + Copy,
) {
    let bx = RunBox::interior(mesh);
    let run = |jj: usize| bx.row(mesh.i0() + jj);
    match pass {
        Pass::Update => rows.for_each(|jj| update(run(jj))),
        Pass::Reduce(acc) => {
            debug_assert_eq!(acc.len(), rows.len());
            for (k, acc) in acc.chunks_mut(FOLD_ROWS).enumerate() {
                let first = rows.start + k * FOLD_ROWS;
                (first..first + acc.len()).for_each(|jj| update(run(jj)));
                fold_rows(acc, |r| ops(run(first + r)), term);
            }
        }
    }
}

/// [`run_cg_init`] over interior rows `rows`, folding `r·p`.
///
/// # Safety
/// Rows `rows` of every output are this caller's alone.
#[allow(clippy::too_many_arguments)]
pub unsafe fn block_cg_init(
    mesh: &Mesh2d,
    rows: Range<usize>,
    pass: Pass<'_>,
    precond: bool,
    u: &[f64],
    u0: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
    r: &Us,
    p: &Us,
    z: &Us,
) {
    // SAFETY throughout: the rows are this caller's alone (# Safety).
    block(
        mesh,
        rows,
        pass,
        |run| unsafe { run_cg_init(run, precond, u, u0, kx, ky, w, r, p, z) },
        |run| unsafe { (run.view(r), run.view(p)) },
        dot,
    )
}

/// [`run_cg_calc_w`] over interior rows `rows`, folding `p·w`.
///
/// # Safety
/// As [`block_cg_init`].
pub unsafe fn block_cg_calc_w(
    mesh: &Mesh2d,
    rows: Range<usize>,
    pass: Pass<'_>,
    p: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
) {
    // SAFETY throughout: the rows are this caller's alone (# Safety).
    block(
        mesh,
        rows,
        pass,
        |run| unsafe { run_cg_calc_w(run, p, kx, ky, w) },
        |run| (run.of(p), unsafe { run.view(w) }),
        dot,
    )
}

/// [`run_cg_calc_ur`] over interior rows `rows`, folding `r·z`
/// (preconditioned) or `r·r`.
///
/// # Safety
/// As [`block_cg_init`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn block_cg_calc_ur(
    mesh: &Mesh2d,
    rows: Range<usize>,
    pass: Pass<'_>,
    alpha: f64,
    precond: bool,
    p: &[f64],
    w: &[f64],
    kx: &[f64],
    ky: &[f64],
    u: &Us,
    r: &Us,
    z: &Us,
) {
    let by = if precond { z } else { r };
    // SAFETY throughout: the rows are this caller's alone (# Safety).
    block(
        mesh,
        rows,
        pass,
        |run| unsafe { run_cg_calc_ur(run, alpha, precond, p, w, kx, ky, u, r, z) },
        |run| unsafe { (run.view(r), run.view(by)) },
        dot,
    )
}

/// [`run_jacobi_iterate`] over interior rows `rows`, folding `|u − r|`
/// (`r` holds the previous iterate).
///
/// # Safety
/// As [`block_cg_init`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn block_jacobi_iterate(
    mesh: &Mesh2d,
    rows: Range<usize>,
    pass: Pass<'_>,
    u0: &[f64],
    r: &[f64],
    kx: &[f64],
    ky: &[f64],
    u: &Us,
) {
    // SAFETY throughout: the rows are this caller's alone (# Safety).
    block(
        mesh,
        rows,
        pass,
        |run| unsafe { run_jacobi_iterate(run, u0, r, kx, ky, u) },
        |run| (unsafe { run.view(u) }, run.of(r)),
        |new, old| (new - old).abs(),
    )
}

/// `calc_2norm` over interior rows `rows`, folding `x²`. It has no update
/// pass.
pub fn block_norm(mesh: &Mesh2d, rows: Range<usize>, pass: Pass<'_>, x: &[f64]) {
    block(mesh, rows, pass, |_| {}, |run| (run.of(x), run.of(x)), dot)
}

// ---------------------------------------------------------------------------
// row forms (row-dispatch ports)
// ---------------------------------------------------------------------------

/// `row_*`: the `run_*` body over interior row `j` — the whole-row entry the
/// row-dispatch ports call.
macro_rules! row_forms {
    ($($row:ident => $run:ident($($a:ident: $t:ty),*) $(-> $ret:ty)?;)*) => {$(
        #[doc = concat!("[`", stringify!($run), "`] over interior row `j`.")]
        ///
        /// # Safety
        /// Row `j` of every output is this caller's alone.
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn $row(mesh: &Mesh2d, j: usize, $($a: $t),*) $(-> $ret)? {
            // SAFETY: forwarded (# Safety).
            unsafe { $run(Run::row(mesh, j), $($a),*) }
        }
    )*};
}

row_forms! {
    row_init_u0 => run_init_u0(density: &[f64], energy: &[f64], u0: &Us, u: &Us);
    row_cg_calc_p => run_cg_calc_p(beta: f64, precond: bool, r: &[f64], z: &[f64], p: &Us);
    row_cheby_calc_p => run_cheby_calc_p(
        first: bool, theta: f64, alpha: f64, beta: f64, u: &[f64], u0: &[f64],
        kx: &[f64], ky: &[f64], w: &Us, r: &Us, p: &Us
    );
    row_add_p_to_u => run_add_p_to_u(p: &[f64], u: &Us);
    row_sd_init => run_sd_init(theta: f64, r: &[f64], sd: &Us);
    row_ppcg_w => run_ppcg_w(sd: &[f64], kx: &[f64], ky: &[f64], w: &Us);
    row_ppcg_update => run_ppcg_update(alpha: f64, beta: f64, w: &[f64], u: &Us, r: &Us, sd: &Us);
    row_residual => run_residual(u: &[f64], u0: &[f64], kx: &[f64], ky: &[f64], r: &Us);
    row_jacobi_copy => run_jacobi_copy(u: &[f64], r: &Us);
    row_finalise => run_finalise(u: &[f64], density: &[f64], energy: &Us);
}

/// [`run_init_coeffs`] over row `j` of [`RunBox::coeffs`], covering
/// `i0..=i1`. Call for `j` in `i0..=j1`.
///
/// # Safety
/// Row `j` of every output is this caller's alone.
#[allow(clippy::too_many_arguments)]
pub unsafe fn row_init_coeffs(
    mesh: &Mesh2d,
    j: usize,
    coefficient: Coefficient,
    rx: f64,
    ry: f64,
    density: &[f64],
    kx: &Us,
    ky: &Us,
) {
    let run = RunBox::coeffs(mesh).row(j);
    // SAFETY: forwarded (# Safety).
    unsafe { run_init_coeffs(run, coefficient, rx, ry, density, kx, ky) }
}

/// [`block_cg_calc_w`] over interior row `j` alone; returns its `p·w`
/// partial.
///
/// # Safety
/// Row `j` of every output is this caller's alone.
pub unsafe fn row_cg_calc_w(
    mesh: &Mesh2d,
    j: usize,
    p: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
) -> f64 {
    let mut acc = [0.0];
    let jj = j - mesh.i0();
    // SAFETY: forwarded (# Safety).
    unsafe { block_cg_calc_w(mesh, jj..jj + 1, Pass::Reduce(&mut acc), p, kx, ky, w) };
    acc[0]
}

/// [`block_cg_calc_ur`] over interior row `j` alone; returns its `r·r`
/// (or `r·z`) partial.
///
/// # Safety
/// Row `j` of every output is this caller's alone.
#[allow(clippy::too_many_arguments)]
pub unsafe fn row_cg_calc_ur(
    mesh: &Mesh2d,
    j: usize,
    alpha: f64,
    precond: bool,
    p: &[f64],
    w: &[f64],
    kx: &[f64],
    ky: &[f64],
    u: &Us,
    r: &Us,
    z: &Us,
) -> f64 {
    let mut acc = [0.0];
    let jj = j - mesh.i0();
    let pass = Pass::Reduce(&mut acc);
    // SAFETY: forwarded (# Safety).
    unsafe {
        block_cg_calc_ur(
            mesh,
            jj..jj + 1,
            pass,
            alpha,
            precond,
            p,
            w,
            kx,
            ky,
            u,
            r,
            z,
        )
    };
    acc[0]
}

/// [`run_summary`] over interior row `j`, from `[0.0; 4]`.
pub fn row_summary(
    mesh: &Mesh2d,
    j: usize,
    density: &[f64],
    energy: &[f64],
    u: &[f64],
    cell_vol: f64,
) -> [f64; 4] {
    let mut acc = [0.0; 4];
    run_summary(Run::row(mesh, j), density, energy, u, cell_vol, &mut acc);
    acc
}

// ---------------------------------------------------------------------------
// launch profiles (application bytes per kernel)
// ---------------------------------------------------------------------------

/// Launch profiles for every TeaLeaf kernel, parameterised by interior
/// cell count. Since the shared kernel IR ([`crate::ir`]) every profile
/// is *derived* from its [`crate::ir::KernelDesc`] — the per-kernel
/// array counts live in one table and `ir::tests` pins them against the
/// original hand-written values.
pub mod profiles {
    use super::*;
    use crate::ir::{self, FusionKind, KernelId, LoweringCaps};

    /// Interior cell count as `u64`.
    pub fn cells(mesh: &Mesh2d) -> u64 {
        mesh.interior_len() as u64
    }

    /// `init_u0`: read density, energy; write u0, u.
    pub fn init_u0(n: u64) -> KernelProfile {
        KernelId::InitU0.desc().profile(n, false)
    }

    /// `init_coeffs`: read density (stencil); write kx, ky.
    pub fn init_coeffs(n: u64) -> KernelProfile {
        KernelId::InitCoeffs.desc().profile(n, false)
    }

    /// `cg_init`: stencil on u + u0, kx, ky; write w, r, p (+z); reduce.
    pub fn cg_init(n: u64, precond: bool) -> KernelProfile {
        KernelId::CgInit.desc().profile(n, precond)
    }

    /// `cg_calc_w`: stencil on p with kx, ky; write w; reduce `p·w`.
    pub fn cg_calc_w(n: u64) -> KernelProfile {
        KernelId::CgCalcW.desc().profile(n, false)
    }

    /// `cg_calc_ur`: read p, w, u, r (+kx, ky for M⁻¹); write u, r (+z);
    /// reduce `r·r`.
    pub fn cg_calc_ur(n: u64, precond: bool) -> KernelProfile {
        KernelId::CgCalcUr.desc().profile(n, precond)
    }

    /// `cg_calc_p`: read r|z, p; write p.
    pub fn cg_calc_p(n: u64) -> KernelProfile {
        KernelId::CgCalcP.desc().profile(n, false)
    }

    /// The β·p sweep when it rides the fused ur launch: the same data
    /// traffic as [`cg_calc_p`], but no dispatch of its own. Fused ports
    /// charge `cg_calc_ur` (the reduction sweep, costed exactly as
    /// unfused) followed by this tail — the net saving is precisely one
    /// launch overhead per CG iteration, without leaking the model's
    /// reduction penalty onto the streaming p-update's bytes.
    pub fn cg_fused_p_tail(n: u64) -> KernelProfile {
        fused_tail(FusionKind::CgTail, n)
    }

    /// `cheby_calc_p` (both first and iterate forms): stencil on u; read
    /// u0, kx, ky, p; write w, r, p.
    pub fn cheby_calc_p(n: u64) -> KernelProfile {
        KernelId::ChebyCalcP.desc().profile(n, false)
    }

    /// `cheby_calc_u` / PPCG's `u += sd`: read p|sd, u; write u.
    pub fn add_to_u(n: u64) -> KernelProfile {
        KernelId::ChebyCalcU.desc().profile(n, false)
    }

    /// `ppcg_init_sd`: read r; write sd.
    pub fn ppcg_init_sd(n: u64) -> KernelProfile {
        KernelId::PpcgInitSd.desc().profile(n, false)
    }

    /// `ppcg_calc_w`: stencil on sd with kx, ky; write w.
    pub fn ppcg_calc_w(n: u64) -> KernelProfile {
        KernelId::PpcgCalcW.desc().profile(n, false)
    }

    /// `ppcg_update`: read w, sd, r, u; write r, u, sd.
    pub fn ppcg_update(n: u64) -> KernelProfile {
        KernelId::PpcgUpdate.desc().profile(n, false)
    }

    /// `jacobi_copy_u`: read u; write r.
    pub fn jacobi_copy(n: u64) -> KernelProfile {
        KernelId::JacobiCopy.desc().profile(n, false)
    }

    /// `jacobi_solve`: stencil on old u (r) with u0, kx, ky; write u;
    /// reduce `Σ|Δu|`.
    pub fn jacobi_iterate(n: u64) -> KernelProfile {
        KernelId::JacobiSolve.desc().profile(n, false)
    }

    /// `calc_residual`: stencil on u with u0, kx, ky; write r.
    pub fn residual(n: u64) -> KernelProfile {
        KernelId::Residual.desc().profile(n, false)
    }

    /// `calc_2norm`: read one field; reduce.
    pub fn norm(n: u64) -> KernelProfile {
        KernelId::Calc2Norm.desc().profile(n, false)
    }

    /// `finalise`: read u, density; write energy.
    pub fn finalise(n: u64) -> KernelProfile {
        KernelId::Finalise.desc().profile(n, false)
    }

    /// `field_summary`: read density, energy, u; 4-component reduce.
    pub fn field_summary(n: u64) -> KernelProfile {
        KernelId::FieldSummary.desc().profile(n, false)
    }

    /// One halo-exchange kernel for a single field at `depth`.
    pub fn halo(mesh: &Mesh2d, depth: usize) -> KernelProfile {
        let elems = tea_core::halo::halo_elements(mesh, depth);
        let d = KernelId::HaloUpdate.desc();
        KernelProfile::streaming(
            d.name,
            elems,
            d.reads_per_cell as u64,
            d.writes_per_cell as u64,
            d.flops_per_cell as u64,
        )
        .with_working_set(ir::working_set(cells(mesh)))
    }

    /// The tail sweep of a fusion site when it rides the head's launch:
    /// same data traffic, no dispatch of its own, renamed so quirk rules
    /// still match its solver prefix.
    fn fused_tail(kind: FusionKind, n: u64) -> KernelProfile {
        let mut p = kind.tail().desc().profile(n, false).with_fused_tail();
        p.name = kind.fused_tail_name();
        p
    }

    /// The head/tail launch-profile pair for one fusion site, written
    /// once for all eight ports. When the port's [`LoweringCaps`] admit a
    /// fused launch (and the IR says the pairing is legal), the tail is
    /// charged as a dispatch-free `fused_tail`; otherwise both kernels
    /// carry their own launch, exactly as the hand-written ports did.
    pub fn fused_pair(
        kind: FusionKind,
        n: u64,
        precond: bool,
        caps: LoweringCaps,
    ) -> (KernelProfile, KernelProfile) {
        let head = kind.head().desc().profile(n, precond);
        let tail = if ir::fusion_active(caps, kind) {
            fused_tail(kind, n)
        } else {
            kind.tail().desc().profile(n, false)
        };
        (head, tail)
    }
}

// ---------------------------------------------------------------------------
// the field set every port stores its arrays in
// ---------------------------------------------------------------------------

/// A container one TeaLeaf array lives in — a host `Vec`, a Kokkos
/// `View`, an OpenCL `Buffer`, a CUDA `DeviceBuffer` — seen as the plain
/// padded slice the shared field map hands out.
pub trait FieldStore {
    fn data(&self) -> &[f64];
    fn data_mut(&mut self) -> &mut [f64];
}

impl FieldStore for Vec<f64> {
    fn data(&self) -> &[f64] {
        self
    }
    fn data_mut(&mut self) -> &mut [f64] {
        self
    }
}

impl FieldStore for kokkos_rs::View {
    fn data(&self) -> &[f64] {
        self.raw()
    }
    fn data_mut(&mut self) -> &mut [f64] {
        self.raw_mut()
    }
}

impl FieldStore for opencl_rs::Buffer<f64> {
    fn data(&self) -> &[f64] {
        self.arg_view()
    }
    fn data_mut(&mut self) -> &mut [f64] {
        self.arg_view_mut()
    }
}

impl FieldStore for cuda_rs::DeviceBuffer<f64> {
    fn data(&self) -> &[f64] {
        self.device()
    }
    fn data_mut(&mut self) -> &mut [f64] {
        self.device_mut()
    }
}

/// The mesh and the eleven TeaLeaf arrays of one port, each held in the
/// port's own model container `S`. Kernels name the arrays directly
/// (`f.u`, `f.kx`) and use the model's accessors; the conformance hooks
/// and the batched halo update go through [`FieldId`], which resolves —
/// aliases included — by [`FieldId::slot`] alone, the same for every
/// port.
#[derive(Debug, Clone)]
pub struct Fields<S> {
    pub mesh: Mesh2d,
    pub density: S,
    pub energy: S,
    pub u: S,
    pub u0: S,
    pub p: S,
    pub r: S,
    pub w: S,
    pub z: S,
    pub kx: S,
    pub ky: S,
    pub sd: S,
}

/// The host field set of the serial, OpenMP, RAJA, directive and tile
/// ports: one flat `Vec<f64>` per array.
pub type PortFields = Fields<Vec<f64>>;

impl PortFields {
    /// Allocate all arrays and copy in the initial density and energy.
    pub fn new(mesh: &Mesh2d, density: &Field2d, energy: &Field2d) -> Self {
        Self::from_state(mesh, density.clone(), energy.clone())
    }

    /// [`PortFields::new`] taking ownership of the initial state.
    pub fn from_state(mesh: &Mesh2d, density: Field2d, energy: Field2d) -> Self {
        let len = mesh.len();
        Fields::with(mesh, density.into_vec(), energy.into_vec(), |_| {
            vec![0.0; len]
        })
    }
}

impl<S: FieldStore> Fields<S> {
    /// Assemble the set from the input `density` and `energy` arrays and
    /// `alloc(id)` for each of the other nine, called in
    /// [`FieldId::STORED`] order.
    pub fn with(mesh: &Mesh2d, density: S, energy: S, mut alloc: impl FnMut(FieldId) -> S) -> Self {
        Fields {
            mesh: mesh.clone(),
            density,
            energy,
            u: alloc(FieldId::U),
            u0: alloc(FieldId::U0),
            p: alloc(FieldId::P),
            r: alloc(FieldId::R),
            w: alloc(FieldId::W),
            z: alloc(FieldId::Z),
            kx: alloc(FieldId::Kx),
            ky: alloc(FieldId::Ky),
            sd: alloc(FieldId::Sd),
        }
    }

    /// The arrays in [`FieldId::STORED`] order.
    fn stored(&self) -> [&S; 11] {
        let Fields {
            mesh: _,
            density,
            energy,
            u,
            u0,
            p,
            r,
            w,
            z,
            kx,
            ky,
            sd,
        } = self;
        [density, energy, u, u0, p, r, w, z, kx, ky, sd]
    }

    /// The mesh beside the arrays, mutable, in [`FieldId::STORED`] order.
    fn stored_mut(&mut self) -> (&Mesh2d, [&mut S; 11]) {
        let Fields {
            mesh,
            density,
            energy,
            u,
            u0,
            p,
            r,
            w,
            z,
            kx,
            ky,
            sd,
        } = self;
        (mesh, [density, energy, u, u0, p, r, w, z, kx, ky, sd])
    }

    /// Borrow the array `id` names — the conformance read-back hook.
    pub fn field(&self, id: FieldId) -> &[f64] {
        self.stored()[id.slot()].data()
    }

    /// Borrow the array `id` names mutably.
    pub fn field_mut(&mut self, id: FieldId) -> &mut [f64] {
        let (_, stored) = self.stored_mut();
        stored
            .into_iter()
            .nth(id.slot())
            .expect("every slot indexes STORED")
            .data_mut()
    }

    /// Copy the array `id` names into `out`, reusing its allocation —
    /// every port's `inspect_field_into`.
    pub fn copy_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        out.clear();
        out.extend_from_slice(self.field(id));
        true
    }

    /// Total bytes of the residency set a solver keeps on the device —
    /// used as the transfer size for whole-problem maps.
    pub fn resident_bytes(&self) -> u64 {
        (self.mesh.len() * 8 * FieldId::STORED.len()) as u64
    }

    /// Reflective halo update of several fields as **one** batched pair of
    /// parallel regions on `exec` (instead of two regions per field). The
    /// cost-model charges stay per-field and live with the caller.
    ///
    /// # Panics
    /// Panics if two ids name the same array (`Energy0`/`Energy1`, or
    /// `Z`/`Mi`) in one batch — the batched update needs disjoint slices.
    pub fn halo_batch(&mut self, ids: &[FieldId], depth: usize, exec: &dyn parpool::Executor) {
        let (mesh, stored) = self.stored_mut();
        let mut slots = stored.map(Some);
        let mut fields: Vec<&mut [f64]> = ids
            .iter()
            .map(|&id| {
                slots[id.slot()]
                    .take()
                    .unwrap_or_else(|| panic!("{} batched twice in one halo update", id.name()))
                    .data_mut()
            })
            .collect();
        tea_core::halo::update_halo_batch(mesh, &mut fields, depth, exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Per-cell bodies, one flat index each: the oracle every run body must
    // match bit for bit.

    /// Diagonal of `A` at flat index `k` (for the Jacobi preconditioner).
    #[inline(always)]
    fn diag_a(width: usize, k: usize, kx: &[f64], ky: &[f64]) -> f64 {
        physics::diagonal(kx[k], kx[k + 1], ky[k], ky[k + width])
    }

    /// `u0[k] = density[k]·energy[k]; u[k] = u0[k]`.
    ///
    /// # Safety
    /// `k` must be written by exactly one concurrent caller and in bounds.
    #[inline(always)]
    unsafe fn cell_init_u0(k: usize, density: &[f64], energy: &[f64], u0: &Us, u: &Us) {
        let v = density[k] * energy[k];
        unsafe {
            u0.set(k, v);
            u.set(k, v);
        }
    }

    /// Scaled face coefficients at `k`: `kx[k] = rx·f(w[k-1],w[k])`,
    /// `ky[k] = ry·f(w[k-width],w[k])`.
    ///
    /// # Safety
    /// As [`cell_init_u0`]; additionally `k` must have west/south neighbours.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn cell_init_coeffs(
        width: usize,
        k: usize,
        coefficient: Coefficient,
        rx: f64,
        ry: f64,
        density: &[f64],
        kx: &Us,
        ky: &Us,
    ) {
        let w_c = physics::cell_weight(coefficient, density[k]);
        let w_w = physics::cell_weight(coefficient, density[k - 1]);
        let w_s = physics::cell_weight(coefficient, density[k - width]);
        unsafe {
            kx.set(k, rx * physics::face_coefficient(w_w, w_c));
            ky.set(k, ry * physics::face_coefficient(w_s, w_c));
        }
    }

    /// `p[k] = (z|r)[k] + β·p[k]`.
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[inline(always)]
    unsafe fn cell_cg_calc_p(k: usize, beta: f64, precond: bool, r: &[f64], z: &[f64], p: &Us) {
        let base = if precond { z[k] } else { r[k] };
        unsafe {
            let old = p.get(k);
            p.set(k, base + beta * old);
        }
    }

    /// Chebyshev p-update at `k`: `w = A·u`, `r = u0 − w`, and either
    /// `p = r/θ` (first step) or `p = α·p + β·r`.
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn cell_cheby_calc_p(
        width: usize,
        k: usize,
        first: bool,
        theta: f64,
        alpha: f64,
        beta: f64,
        u: &[f64],
        u0: &[f64],
        kx: &[f64],
        ky: &[f64],
        w: &Us,
        r: &Us,
        p: &Us,
    ) {
        let au = apply_a(width, k, u, kx, ky);
        let res = u0[k] - au;
        unsafe {
            w.set(k, au);
            r.set(k, res);
            if first {
                p.set(k, res / theta);
            } else {
                let old = p.get(k);
                p.set(k, alpha * old + beta * res);
            }
        }
    }

    /// `u[k] += p[k]`.
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[inline(always)]
    unsafe fn cell_add_p_to_u(k: usize, p: &[f64], u: &Us) {
        unsafe {
            let v = u.get(k) + p[k];
            u.set(k, v);
        }
    }

    /// `sd[k] = r[k]/θ`.
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[inline(always)]
    unsafe fn cell_sd_init(k: usize, theta: f64, r: &[f64], sd: &Us) {
        unsafe { sd.set(k, r[k] / theta) };
    }

    /// `w[k] = A·sd` (PPCG inner stencil pass).
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[inline(always)]
    unsafe fn cell_ppcg_w(width: usize, k: usize, sd: &[f64], kx: &[f64], ky: &[f64], w: &Us) {
        unsafe { w.set(k, apply_a(width, k, sd, kx, ky)) };
    }

    /// PPCG inner local update: `r[k] −= w[k]`, `u[k] += sd[k]`,
    /// `sd[k] = α·sd[k] + β·r[k]` (with the *new* `r`).
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[inline(always)]
    unsafe fn cell_ppcg_update(
        k: usize,
        alpha: f64,
        beta: f64,
        w: &[f64],
        u: &Us,
        r: &Us,
        sd: &Us,
    ) {
        unsafe {
            let rn = r.get(k) - w[k];
            r.set(k, rn);
            let sv = sd.get(k);
            u.set(k, u.get(k) + sv);
            sd.set(k, alpha * sv + beta * rn);
        }
    }

    /// Fused CG-init at one cell: `w = A·u`, `r = u0 − w`, `p = (M⁻¹r | r)`;
    /// returns the cell's `r·p` contribution.
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn cell_cg_init(
        width: usize,
        k: usize,
        precond: bool,
        u: &[f64],
        u0: &[f64],
        kx: &[f64],
        ky: &[f64],
        w: &Us,
        r: &Us,
        p: &Us,
        z: &Us,
    ) -> f64 {
        let au = apply_a(width, k, u, kx, ky);
        let res = u0[k] - au;
        unsafe {
            w.set(k, au);
            r.set(k, res);
            let dir = if precond {
                let zv = res / diag_a(width, k, kx, ky);
                z.set(k, zv);
                zv
            } else {
                res
            };
            p.set(k, dir);
            res * dir
        }
    }

    /// Fused CG `w = A·p` at one cell; returns the `p·w` contribution.
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[inline(always)]
    unsafe fn cell_cg_calc_w(
        width: usize,
        k: usize,
        p: &[f64],
        kx: &[f64],
        ky: &[f64],
        w: &Us,
    ) -> f64 {
        let ap = apply_a(width, k, p, kx, ky);
        unsafe { w.set(k, ap) };
        p[k] * ap
    }

    /// Fused CG update at one cell: `u += α·p`, `r −= α·w`, optionally
    /// `z = M⁻¹r`; returns the `r·r` (or `r·z`) contribution.
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn cell_cg_calc_ur(
        width: usize,
        k: usize,
        alpha: f64,
        precond: bool,
        p: &[f64],
        w: &[f64],
        kx: &[f64],
        ky: &[f64],
        u: &Us,
        r: &Us,
        z: &Us,
    ) -> f64 {
        unsafe {
            u.set(k, u.get(k) + alpha * p[k]);
            let rv = r.get(k) - alpha * w[k];
            r.set(k, rv);
            if precond {
                let zv = rv / diag_a(width, k, kx, ky);
                z.set(k, zv);
                rv * zv
            } else {
                rv * rv
            }
        }
    }

    /// One Jacobi-sweep cell; returns the `|Δu|` contribution. `r` holds the
    /// previous iterate.
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[inline(always)]
    unsafe fn cell_jacobi_iterate(
        width: usize,
        k: usize,
        u0: &[f64],
        r: &[f64],
        kx: &[f64],
        ky: &[f64],
        u: &Us,
    ) -> f64 {
        let new = physics::jacobi_update(
            u0[k],
            r[k - 1],
            r[k + 1],
            r[k - width],
            r[k + width],
            kx[k],
            kx[k + 1],
            ky[k],
            ky[k + width],
        );
        unsafe { u.set(k, new) };
        (new - r[k]).abs()
    }

    /// `r[k] = u0[k] − A·u` (residual).
    ///
    /// # Safety
    /// As [`cell_init_u0`]; `k` must have all four neighbours.
    #[inline(always)]
    unsafe fn cell_residual(
        width: usize,
        k: usize,
        u: &[f64],
        u0: &[f64],
        kx: &[f64],
        ky: &[f64],
        r: &Us,
    ) {
        unsafe { r.set(k, u0[k] - apply_a(width, k, u, kx, ky)) };
    }

    /// `energy[k] = u[k]/density[k]`.
    ///
    /// # Safety
    /// As [`cell_init_u0`].
    #[inline(always)]
    unsafe fn cell_finalise(k: usize, u: &[f64], density: &[f64], energy: &Us) {
        unsafe { energy.set(k, u[k] / density[k]) };
    }

    fn mesh() -> Mesh2d {
        Mesh2d::square(8)
    }

    fn seq(mesh: &Mesh2d, scale: f64) -> Vec<f64> {
        (0..mesh.len())
            .map(|k| 1.0 + scale * (k as f64 % 7.0))
            .collect()
    }

    #[test]
    fn apply_a_matches_physics_directly() {
        let m = mesh();
        let width = m.width();
        let u = seq(&m, 0.3);
        let kx = seq(&m, 0.01);
        let ky = seq(&m, 0.02);
        let k = idx(width, 4, 4);
        let direct = physics::apply_stencil(
            u[k],
            u[k - 1],
            u[k + 1],
            u[k - width],
            u[k + width],
            kx[k],
            kx[k + 1],
            ky[k],
            ky[k + width],
        );
        assert_eq!(apply_a(width, k, &u, &kx, &ky), direct);
    }

    #[test]
    fn constant_field_is_fixed_point_of_a() {
        // A·c = c for constant c (coefficient terms cancel)
        let m = mesh();
        let width = m.width();
        let u = vec![3.25; m.len()];
        let kx = seq(&m, 0.05);
        let ky = seq(&m, 0.07);
        for (i, j) in m.interior().collect::<Vec<_>>() {
            let v = apply_a(width, idx(width, i, j), &u, &kx, &ky);
            assert!((v - 3.25).abs() < 1e-12);
        }
    }

    /// Every field a row body reads or writes, each filled with its own
    /// irregular positive values.
    #[derive(Clone)]
    struct Fields {
        width: usize,
        density: Vec<f64>,
        energy: Vec<f64>,
        u: Vec<f64>,
        u0: Vec<f64>,
        p: Vec<f64>,
        r: Vec<f64>,
        w: Vec<f64>,
        z: Vec<f64>,
        kx: Vec<f64>,
        ky: Vec<f64>,
        sd: Vec<f64>,
    }

    /// Shared-write views of the fields a kernel writes.
    struct Outs<'a> {
        energy: Us<'a>,
        u: Us<'a>,
        u0: Us<'a>,
        p: Us<'a>,
        r: Us<'a>,
        w: Us<'a>,
        z: Us<'a>,
        sd: Us<'a>,
    }

    impl Fields {
        fn new(mesh: &Mesh2d) -> Self {
            let f = |salt: usize, scale: f64| -> Vec<f64> {
                (0..mesh.len())
                    .map(|k| 1.0 + scale * ((k * 7 + salt) as f64).sin().abs())
                    .collect()
            };
            Fields {
                width: mesh.width(),
                density: f(1, 0.9),
                energy: f(2, 0.7),
                u: f(3, 0.5),
                u0: f(4, 0.6),
                p: f(5, 0.4),
                r: f(6, 0.3),
                w: f(7, 0.8),
                z: f(8, 0.2),
                kx: f(9, 0.05),
                ky: f(10, 0.07),
                sd: f(11, 0.35),
            }
        }

        fn outs(&mut self) -> Outs<'_> {
            Outs {
                energy: Us::new(&mut self.energy),
                u: Us::new(&mut self.u),
                u0: Us::new(&mut self.u0),
                p: Us::new(&mut self.p),
                r: Us::new(&mut self.r),
                w: Us::new(&mut self.w),
                z: Us::new(&mut self.z),
                sd: Us::new(&mut self.sd),
            }
        }

        fn all(&self) -> [(&str, &Vec<f64>); 11] {
            [
                ("density", &self.density),
                ("energy", &self.energy),
                ("u", &self.u),
                ("u0", &self.u0),
                ("p", &self.p),
                ("r", &self.r),
                ("w", &self.w),
                ("z", &self.z),
                ("kx", &self.kx),
                ("ky", &self.ky),
                ("sd", &self.sd),
            ]
        }
    }

    /// A cell body: reads `inputs` (no kernel writes a field it reads
    /// through a slice), writes through the views at one flat index,
    /// returns its reduction terms.
    type Cell<'b> = &'b dyn Fn(&Fields, &Outs, usize) -> [f64; 4];

    /// A run body, likewise over one run.
    type Body<'b> = &'b dyn Fn(&Fields, &Outs, Run) -> [f64; 4];

    /// The ways a row is cut into runs: the whole row; one run per cell;
    /// and, for rows of three or more cells, a length-1 run, a run that
    /// starts and ends mid-row, and another length-1 run.
    fn cuts(row: Run) -> Vec<Vec<Run>> {
        let n = row.len;
        let at = |s: usize, e: usize| Run {
            b: row.b + s,
            len: e - s,
            width: row.width,
        };
        let mut cuts = vec![vec![row], (0..n).map(|i| at(i, i + 1)).collect()];
        if n >= 3 {
            cuts.push(vec![at(0, 1), at(1, n - 1), at(n - 1, n)]);
        }
        cuts
    }

    /// For each way of cutting the rows of `bx`, run `run` over every run
    /// and, on a copy of the same fields, `cell` over each run's cells
    /// with the run's terms folded left to right from `0.0`, as the
    /// per-cell bodies did; the run partials and every field must agree
    /// bit for bit.
    fn runs_match_cells(mesh: &Mesh2d, bx: RunBox, what: &str, run: Body, cell: Cell) {
        let inputs = Fields::new(mesh);
        for cut in 0..cuts(bx.row(bx.j0)).len() {
            let (mut a, mut b) = (inputs.clone(), inputs.clone());
            {
                let (oa, ob) = (a.outs(), b.outs());
                for j in bx.j0..bx.j1 {
                    for r in cuts(bx.row(j)).swap_remove(cut) {
                        let mut acc = [0.0; 4];
                        for k in r.b..r.b + r.len {
                            let c = cell(&inputs, &ob, k);
                            for q in 0..4 {
                                acc[q] += c[q];
                            }
                        }
                        let got = run(&inputs, &oa, r);
                        assert_eq!(
                            got.map(f64::to_bits),
                            acc.map(f64::to_bits),
                            "{what}: {r:?} partial"
                        );
                    }
                }
            }
            for ((name, x), (_, y)) in a.all().into_iter().zip(b.all()) {
                for (k, (x, y)) in x.iter().zip(y).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}, cut {cut}: {name}[{k}]");
                }
            }
        }
    }

    /// A block body: updates and/or folds interior rows `rows` as `pass`
    /// asks, reading `inputs` and writing through the views.
    type BlockBody<'b> = &'b dyn Fn(&Fields, &Outs, Range<usize>, Pass<'_>);

    /// The reducing kernels' cell oracles, as [`Cell`]s returning the
    /// cell's term (the test meshes' width is the width of `inputs`).
    fn cg_init(pre: bool) -> impl Fn(&Fields, &Outs, usize) -> [f64; 4] {
        move |i, o, k| unsafe {
            let (u, u0, kx, ky) = (&i.u, &i.u0, &i.kx, &i.ky);
            let t = cell_cg_init(i.width, k, pre, u, u0, kx, ky, &o.w, &o.r, &o.p, &o.z);
            [t, 0.0, 0.0, 0.0]
        }
    }

    fn cg_calc_ur(pre: bool, alpha: f64) -> impl Fn(&Fields, &Outs, usize) -> [f64; 4] {
        move |i, o, k| unsafe {
            let (p, w, kx, ky) = (&i.p, &i.w, &i.kx, &i.ky);
            let t = cell_cg_calc_ur(i.width, k, alpha, pre, p, w, kx, ky, &o.u, &o.r, &o.z);
            [t, 0.0, 0.0, 0.0]
        }
    }

    fn cg_calc_w(i: &Fields, o: &Outs, k: usize) -> [f64; 4] {
        let t = unsafe { cell_cg_calc_w(i.width, k, &i.p, &i.kx, &i.ky, &o.w) };
        [t, 0.0, 0.0, 0.0]
    }

    fn jacobi_iterate(i: &Fields, o: &Outs, k: usize) -> [f64; 4] {
        let t = unsafe { cell_jacobi_iterate(i.width, k, &i.u0, &i.r, &i.kx, &i.ky, &o.u) };
        [t, 0.0, 0.0, 0.0]
    }

    /// A cell oracle's update alone (its term dropped).
    fn update(_term: [f64; 4]) -> [f64; 4] {
        [0.0; 4]
    }

    /// For every block `a..b` of the mesh's interior rows: the block body
    /// with [`Pass::Reduce`] from `+0.0`, and seeded with irregular carries
    /// (the tile port's continuation), against `cell` over each row's cells
    /// with the row's terms folded left to right from the same start. Row
    /// partials and every field must agree bit for bit. [`Pass::Update`]
    /// must write the same fields.
    fn blocks_match_cells(mesh: &Mesh2d, what: &str, block: BlockBody, cell: Cell) {
        let inputs = Fields::new(mesh);
        let ny = mesh.y_cells;
        let oracle = |rows: Range<usize>, seeds: &[f64]| {
            let mut f = inputs.clone();
            let mut acc = seeds.to_vec();
            {
                let o = f.outs();
                for (s, jj) in acc.iter_mut().zip(rows) {
                    let run = Run::row(mesh, mesh.i0() + jj);
                    for k in run.b..run.b + run.len {
                        *s += cell(&inputs, &o, k)[0];
                    }
                }
            }
            (f, acc)
        };
        let same = |got: &Fields, want: &Fields, acc: &[f64], want_acc: &[f64], how: &str| {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(acc), bits(want_acc), "{what}, {how}: row partials");
            for ((name, x), (_, y)) in got.all().into_iter().zip(want.all()) {
                assert_eq!(bits(x), bits(y), "{what}, {how}: {name}");
            }
        };
        for a in 0..ny {
            for b in a + 1..=ny {
                let how = format!("rows {a}..{b}");
                let zeros = vec![0.0; b - a];
                let (want, want_acc) = oracle(a..b, &zeros);
                let (mut got, mut acc) = (inputs.clone(), zeros.clone());
                block(&inputs, &got.outs(), a..b, Pass::Reduce(&mut acc));
                same(&got, &want, &acc, &want_acc, &format!("{how}, reduce"));

                let seeds: Vec<f64> = (a..b).map(|jj| (jj as f64 + 0.3).sin() * 7.0).collect();
                let (want, want_acc) = oracle(a..b, &seeds);
                let (mut got, mut acc) = (inputs.clone(), seeds.clone());
                block(&inputs, &got.outs(), a..b, Pass::Reduce(&mut acc));
                same(&got, &want, &acc, &want_acc, &format!("{how}, seeded"));

                let mut got = inputs.clone();
                block(&inputs, &got.outs(), a..b, Pass::Update);
                same(&got, &want, &[], &[], &format!("{how}, update"));
            }
        }
    }

    #[test]
    fn row_bodies_match_cell_bodies_bit_for_bit() {
        let (alpha, beta, theta) = (0.37, 0.61, 1.7);
        let none = [0.0; 4];
        for (nx, ny) in [(1, 3), (7, 5), (13, 2)] {
            let m = &Mesh2d::new(nx, ny, 2, (0.0, nx as f64), (0.0, ny as f64));
            let wd = m.width();
            let check = |what: &str, run: Body, cell: Cell| {
                let what = format!("{what} on {nx}x{ny}");
                runs_match_cells(m, RunBox::interior(m), &what, run, cell)
            };
            // SAFETY throughout: single-threaded, every run and cell is
            // written by one call.
            unsafe {
                check(
                    "init_u0",
                    &|i, o, r| {
                        run_init_u0(r, &i.density, &i.energy, &o.u0, &o.u);
                        none
                    },
                    &|i, o, k| {
                        cell_init_u0(k, &i.density, &i.energy, &o.u0, &o.u);
                        none
                    },
                );
                for coef in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
                    runs_match_cells(
                        m,
                        RunBox::coeffs(m),
                        &format!("init_coeffs {coef:?} on {nx}x{ny}"),
                        &|i, o, r| {
                            run_init_coeffs(r, coef, alpha, beta, &i.density, &o.p, &o.w);
                            none
                        },
                        &|i, o, k| {
                            cell_init_coeffs(wd, k, coef, alpha, beta, &i.density, &o.p, &o.w);
                            none
                        },
                    );
                }
                for pre in [false, true] {
                    check(
                        &format!("cg_init precond={pre}"),
                        &|i, o, r| {
                            run_cg_init(r, pre, &i.u, &i.u0, &i.kx, &i.ky, &o.w, &o.r, &o.p, &o.z);
                            none
                        },
                        &|i, o, k| update(cg_init(pre)(i, o, k)),
                    );
                    check(
                        &format!("cg_calc_ur precond={pre}"),
                        &|i, o, r| {
                            let (p, w, kx, ky) = (&i.p, &i.w, &i.kx, &i.ky);
                            run_cg_calc_ur(r, alpha, pre, p, w, kx, ky, &o.u, &o.r, &o.z);
                            none
                        },
                        &|i, o, k| update(cg_calc_ur(pre, alpha)(i, o, k)),
                    );
                    check(
                        &format!("cg_calc_p precond={pre}"),
                        &|i, o, r| {
                            run_cg_calc_p(r, beta, pre, &i.r, &i.z, &o.p);
                            none
                        },
                        &|i, o, k| {
                            cell_cg_calc_p(k, beta, pre, &i.r, &i.z, &o.p);
                            none
                        },
                    );
                }
                check(
                    "cg_calc_w",
                    &|i, o, r| {
                        run_cg_calc_w(r, &i.p, &i.kx, &i.ky, &o.w);
                        none
                    },
                    &|i, o, k| update(cg_calc_w(i, o, k)),
                );
                for first in [true, false] {
                    check(
                        &format!("cheby_calc_p first={first}"),
                        &|i, o, r| {
                            let (u, u0, kx, ky) = (&i.u, &i.u0, &i.kx, &i.ky);
                            run_cheby_calc_p(
                                r, first, theta, alpha, beta, u, u0, kx, ky, &o.w, &o.r, &o.p,
                            );
                            none
                        },
                        &|i, o, k| {
                            let (u, u0, kx, ky) = (&i.u, &i.u0, &i.kx, &i.ky);
                            cell_cheby_calc_p(
                                wd, k, first, theta, alpha, beta, u, u0, kx, ky, &o.w, &o.r, &o.p,
                            );
                            none
                        },
                    );
                }
                check(
                    "add_p_to_u",
                    &|i, o, r| {
                        run_add_p_to_u(r, &i.p, &o.u);
                        none
                    },
                    &|i, o, k| {
                        cell_add_p_to_u(k, &i.p, &o.u);
                        none
                    },
                );
                check(
                    "sd_init",
                    &|i, o, r| {
                        run_sd_init(r, theta, &i.r, &o.sd);
                        none
                    },
                    &|i, o, k| {
                        cell_sd_init(k, theta, &i.r, &o.sd);
                        none
                    },
                );
                check(
                    "ppcg_w",
                    &|i, o, r| {
                        run_ppcg_w(r, &i.sd, &i.kx, &i.ky, &o.w);
                        none
                    },
                    &|i, o, k| {
                        cell_ppcg_w(wd, k, &i.sd, &i.kx, &i.ky, &o.w);
                        none
                    },
                );
                check(
                    "ppcg_update",
                    &|i, o, r| {
                        run_ppcg_update(r, alpha, beta, &i.w, &o.u, &o.r, &o.sd);
                        none
                    },
                    &|i, o, k| {
                        cell_ppcg_update(k, alpha, beta, &i.w, &o.u, &o.r, &o.sd);
                        none
                    },
                );
                check(
                    "residual",
                    &|i, o, r| {
                        run_residual(r, &i.u, &i.u0, &i.kx, &i.ky, &o.r);
                        none
                    },
                    &|i, o, k| {
                        cell_residual(wd, k, &i.u, &i.u0, &i.kx, &i.ky, &o.r);
                        none
                    },
                );
                check(
                    "jacobi_copy",
                    &|i, o, r| {
                        run_jacobi_copy(r, &i.u, &o.r);
                        none
                    },
                    &|i, o, k| {
                        o.r.set(k, i.u[k]);
                        none
                    },
                );
                check(
                    "jacobi_iterate",
                    &|i, o, r| {
                        run_jacobi_iterate(r, &i.u0, &i.r, &i.kx, &i.ky, &o.u);
                        none
                    },
                    &|i, o, k| update(jacobi_iterate(i, o, k)),
                );
                check(
                    "finalise",
                    &|i, o, r| {
                        run_finalise(r, &i.u, &i.density, &o.energy);
                        none
                    },
                    &|i, o, k| {
                        cell_finalise(k, &i.u, &i.density, &o.energy);
                        none
                    },
                );
            }
            let vol = m.cell_volume();
            check(
                "summary",
                &|i, _, r| {
                    let mut acc = [0.0; 4];
                    run_summary(r, &i.density, &i.energy, &i.u, vol, &mut acc);
                    acc
                },
                &|i, _, k| {
                    let (d, e, u) = (i.density[k], i.energy[k], i.u[k]);
                    [vol, d * vol, d * e * vol, u * vol]
                },
            );
        }
        // The reducing kernels' block bodies (update pass and row-block
        // fold) against the same cells, on blocks of 1 to 9 rows of
        // meshes 1, 7 and 128 cells wide.
        for nx in [1, 7, 128] {
            for ny in 1..=9 {
                let m = &Mesh2d::new(nx, ny, 2, (0.0, nx as f64), (0.0, ny as f64));
                let check = |what: &str, block: BlockBody, cell: Cell| {
                    blocks_match_cells(m, &format!("{what} on {nx}x{ny}"), block, cell)
                };
                // SAFETY throughout: single-threaded, every row written by
                // one call.
                for pre in [false, true] {
                    check(
                        &format!("cg_init precond={pre}"),
                        &|i, o, rows, pass| unsafe {
                            let (u, u0, kx, ky) = (&i.u, &i.u0, &i.kx, &i.ky);
                            block_cg_init(m, rows, pass, pre, u, u0, kx, ky, &o.w, &o.r, &o.p, &o.z)
                        },
                        &cg_init(pre),
                    );
                    check(
                        &format!("cg_calc_ur precond={pre}"),
                        &|i, o, rows, pass| unsafe {
                            let (p, w, kx, ky) = (&i.p, &i.w, &i.kx, &i.ky);
                            let (u, r, z) = (&o.u, &o.r, &o.z);
                            block_cg_calc_ur(m, rows, pass, alpha, pre, p, w, kx, ky, u, r, z)
                        },
                        &cg_calc_ur(pre, alpha),
                    );
                }
                check(
                    "cg_calc_w",
                    &|i, o, rows, pass| unsafe {
                        block_cg_calc_w(m, rows, pass, &i.p, &i.kx, &i.ky, &o.w)
                    },
                    &cg_calc_w,
                );
                check(
                    "jacobi_iterate",
                    &|i, o, rows, pass| unsafe {
                        block_jacobi_iterate(m, rows, pass, &i.u0, &i.r, &i.kx, &i.ky, &o.u)
                    },
                    &jacobi_iterate,
                );
                check(
                    "norm",
                    &|i, _, rows, pass| block_norm(m, rows, pass, &i.r),
                    &|i, _, k| [i.r[k] * i.r[k], 0.0, 0.0, 0.0],
                );
            }
        }
    }

    proptest::proptest! {
        /// Any tiling of the padded flat range, overspill included, clips
        /// to exactly the box's cells, each once, in row-major order, as
        /// runs that never leave a row.
        #[test]
        fn clip_covers_each_box_cell_once_in_order(
            shape in 0usize..3,
            n in 1usize..12,
            halo in 1usize..3,
            coeffs in 0usize..2,
            pick in 0usize..6,
            cuts in proptest::collection::vec(0usize..4096, 0..8),
        ) {
            let (nx, ny) = match shape {
                0 => (1, n),
                1 => (n, 1),
                _ => (n | 1, (n + 2) | 1),
            };
            let m = Mesh2d::new(nx, ny, halo, (0.0, 1.0), (0.0, 1.0));
            let bx = if coeffs == 1 { RunBox::coeffs(&m) } else { RunBox::interior(&m) };
            let (len, width) = (m.len(), m.width());
            let chunk = [1, 7, 256, width - 1, width + 1, len + 5][pick];
            let end = len.div_ceil(chunk) * chunk;
            let mut bounds: Vec<usize> = (0..=end / chunk).map(|c| c * chunk).collect();
            bounds.extend(cuts.iter().map(|c| c % end));
            bounds.sort_unstable();
            let mut got = Vec::new();
            for w in bounds.windows(2) {
                bx.clip(w[0]..w[1], |r| {
                    assert!(r.len > 0 && r.width == width, "{r:?}");
                    assert_eq!(r.b / width, (r.b + r.len - 1) / width, "{r:?} leaves its row");
                    got.extend(r.b..r.b + r.len);
                });
            }
            let want: Vec<usize> = (bx.j0..bx.j1)
                .flat_map(|j| (bx.i0..bx.i1).map(move |i| idx(width, i, j)))
                .collect();
            assert_eq!(got, want, "{nx}x{ny} halo {halo}, chunk {chunk}");
        }
    }

    #[test]
    fn jacobi_fixed_point() {
        // If u solves A u = u0 then a Jacobi sweep leaves it unchanged.
        let m = mesh();
        let width = m.width();
        let u = seq(&m, 0.2);
        let kx = seq(&m, 0.01);
        let ky = seq(&m, 0.03);
        let mut u0 = vec![0.0; m.len()];
        for (i, j) in m.interior().collect::<Vec<_>>() {
            let k = idx(width, i, j);
            u0[k] = apply_a(width, k, &u, &kx, &ky);
        }
        let r = u.clone(); // "old" iterate
        let mut u_new = u.clone();
        let err = {
            let uv = Us::new(&mut u_new);
            let mut rows = vec![0.0; m.y_cells];
            let pass = Pass::Reduce(&mut rows);
            unsafe { block_jacobi_iterate(&m, 0..m.y_cells, pass, &u0, &r, &kx, &ky, &uv) };
            rows.iter().sum::<f64>()
        };
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn profile_names_match_kernels() {
        assert_eq!(profiles::cg_calc_w(10).name, "cg_calc_w");
        assert!(profiles::cg_calc_w(10).traits.reduction);
        assert!(profiles::cheby_calc_p(10).traits.stencil);
        assert!(!profiles::cg_calc_p(10).traits.reduction);
        assert!(profiles::field_summary(10).traits.reduction);
    }

    #[test]
    fn precond_profiles_move_more_bytes() {
        assert!(profiles::cg_init(100, true).bytes() > profiles::cg_init(100, false).bytes());
        assert!(profiles::cg_calc_ur(100, true).bytes() > profiles::cg_calc_ur(100, false).bytes());
    }

    #[test]
    fn halo_profile_uses_ghost_elements() {
        let m = mesh();
        let p = profiles::halo(&m, 1);
        assert_eq!(p.elems, tea_core::halo::halo_elements(&m, 1));
        assert_eq!(p.name, "halo_update");
    }

    #[test]
    fn port_fields_allocation() {
        let m = mesh();
        let d = Field2d::filled(&m, 2.0);
        let e = Field2d::filled(&m, 3.0);
        let f = PortFields::new(&m, &d, &e);
        assert_eq!(f.density.len(), m.len());
        assert_eq!(f.density[0], 2.0);
        assert_eq!(f.energy[5], 3.0);
        assert_eq!(f.resident_bytes(), (m.len() * 88) as u64);
    }

    #[test]
    #[should_panic(expected = "energy1 batched twice")]
    fn halo_batch_rejects_an_alias_of_a_batched_field() {
        let m = mesh();
        let mut f = PortFields::new(&m, &Field2d::filled(&m, 2.0), &Field2d::filled(&m, 3.0));
        f.halo_batch(
            &[FieldId::Energy0, FieldId::Energy1],
            1,
            &parpool::SerialExec,
        );
    }
}
