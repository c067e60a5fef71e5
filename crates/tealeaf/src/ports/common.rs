//! Shared kernel bodies and launch profiles.
//!
//! Every port performs *identical per-cell arithmetic* by calling the cell
//! and row helpers here (which in turn use [`tea_core::physics`]); what
//! differs between ports is dispatch, data containers, transfers and cost
//! profiles. This is the reproduction of the paper's methodology:
//! "TeaLeaf's core solver logic and parameters were kept consistent
//! between ports to ensure that each of the programming models were
//! objectively compared" (§3).
//!
//! The `unsafe` functions write through [`parpool::UnsafeSlice`]; their
//! safety contract is always the same: **each output index is written by
//! exactly one concurrent caller** (ports dispatch disjoint rows/cells).

use parpool::UnsafeSlice;
use simdev::KernelProfile;
use tea_core::config::Coefficient;
use tea_core::field::Field2d;
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

/// Diagonal of `A` at flat index `k` (for the Jacobi preconditioner).
#[inline(always)]
pub fn diag_a(width: usize, k: usize, kx: &[f64], ky: &[f64]) -> f64 {
    physics::diagonal(kx[k], kx[k + 1], ky[k], ky[k + width])
}

// ---------------------------------------------------------------------------
// per-cell bodies (flat-index ports: Kokkos, CUDA, OpenCL, OpenACC collapse)
// ---------------------------------------------------------------------------

/// `u0[k] = density[k]·energy[k]; u[k] = u0[k]`.
///
/// # Safety
/// `k` must be written by exactly one concurrent caller and in bounds.
#[inline(always)]
pub unsafe fn cell_init_u0(k: usize, density: &[f64], energy: &[f64], u0: &Us, u: &Us) {
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
pub unsafe fn cell_init_coeffs(
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
pub unsafe fn cell_cg_calc_p(k: usize, beta: f64, precond: bool, r: &[f64], z: &[f64], p: &Us) {
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
pub unsafe fn cell_cheby_calc_p(
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
pub unsafe fn cell_add_p_to_u(k: usize, p: &[f64], u: &Us) {
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
pub unsafe fn cell_sd_init(k: usize, theta: f64, r: &[f64], sd: &Us) {
    unsafe { sd.set(k, r[k] / theta) };
}

/// `w[k] = A·sd` (PPCG inner stencil pass).
///
/// # Safety
/// As [`cell_init_u0`]; `k` must have all four neighbours.
#[inline(always)]
pub unsafe fn cell_ppcg_w(width: usize, k: usize, sd: &[f64], kx: &[f64], ky: &[f64], w: &Us) {
    unsafe { w.set(k, apply_a(width, k, sd, kx, ky)) };
}

/// PPCG inner local update: `r[k] −= w[k]`, `u[k] += sd[k]`,
/// `sd[k] = α·sd[k] + β·r[k]` (with the *new* `r`).
///
/// # Safety
/// As [`cell_init_u0`].
#[inline(always)]
pub unsafe fn cell_ppcg_update(
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
pub unsafe fn cell_cg_init(
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
pub unsafe fn cell_cg_calc_w(
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
pub unsafe fn cell_cg_calc_ur(
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
pub unsafe fn cell_jacobi_iterate(
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

/// `x[k]²` — the norm contribution of one cell.
#[inline(always)]
pub fn cell_norm(k: usize, x: &[f64]) -> f64 {
    x[k] * x[k]
}

/// One cell's `[volume, mass, internal energy, temperature]` contribution.
#[inline(always)]
pub fn cell_summary(
    k: usize,
    density: &[f64],
    energy: &[f64],
    u: &[f64],
    cell_vol: f64,
) -> [f64; 4] {
    [
        cell_vol,
        density[k] * cell_vol,
        density[k] * energy[k] * cell_vol,
        u[k] * cell_vol,
    ]
}

/// `r[k] = u0[k] − A·u` (residual).
///
/// # Safety
/// As [`cell_init_u0`]; `k` must have all four neighbours.
#[inline(always)]
pub unsafe fn cell_residual(
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
pub unsafe fn cell_finalise(k: usize, u: &[f64], density: &[f64], energy: &Us) {
    unsafe { energy.set(k, u[k] / density[k]) };
}

// ---------------------------------------------------------------------------
// per-row bodies (row-dispatch ports, and all reductions)
// ---------------------------------------------------------------------------

/// Interior row bounds for `mesh`: `(i0, i1, width)`.
#[inline(always)]
pub fn row_bounds(mesh: &Mesh2d) -> (usize, usize, usize) {
    (mesh.i0(), mesh.i1(), mesh.width())
}

/// Row form of [`cell_init_u0`].
///
/// # Safety
/// Row `j` must be written by exactly one concurrent caller.
pub unsafe fn row_init_u0(
    mesh: &Mesh2d,
    j: usize,
    density: &[f64],
    energy: &[f64],
    u0: &Us,
    u: &Us,
) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_init_u0(idx(width, i, j), density, energy, u0, u) };
    }
}

/// Row form of [`cell_init_coeffs`], covering `i0..=i1` so the east face
/// of the last interior cell exists. Call for `j` in `i0..=j1`.
///
/// # Safety
/// As [`row_init_u0`].
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
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..=i1 {
        unsafe {
            cell_init_coeffs(
                width,
                idx(width, i, j),
                coefficient,
                rx,
                ry,
                density,
                kx,
                ky,
            )
        };
    }
}

/// CG init row: `w = A·u`, `r = u0 − w`, `p = (M⁻¹r | r)`; returns the
/// row's `r·p` partial.
///
/// # Safety
/// As [`row_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn row_cg_init(
    mesh: &Mesh2d,
    j: usize,
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
    let (i0, i1, width) = row_bounds(mesh);
    let mut rro = 0.0;
    for i in i0..i1 {
        rro += unsafe { cell_cg_init(width, idx(width, i, j), precond, u, u0, kx, ky, w, r, p, z) };
    }
    rro
}

/// CG `w = A·p` row; returns the row's `p·w` partial.
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_cg_calc_w(
    mesh: &Mesh2d,
    j: usize,
    p: &[f64],
    kx: &[f64],
    ky: &[f64],
    w: &Us,
) -> f64 {
    let (i0, i1, width) = row_bounds(mesh);
    let mut pw = 0.0;
    for i in i0..i1 {
        pw += unsafe { cell_cg_calc_w(width, idx(width, i, j), p, kx, ky, w) };
    }
    pw
}

/// CG update row: `u += α·p`, `r −= α·w`, optionally `z = M⁻¹r`; returns
/// the row's `r·r` (or `r·z`) partial.
///
/// # Safety
/// As [`row_init_u0`].
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
    let (i0, i1, width) = row_bounds(mesh);
    let mut rrn = 0.0;
    for i in i0..i1 {
        rrn += unsafe {
            cell_cg_calc_ur(
                width,
                idx(width, i, j),
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
    }
    rrn
}

/// Row form of [`cell_cg_calc_p`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_cg_calc_p(
    mesh: &Mesh2d,
    j: usize,
    beta: f64,
    precond: bool,
    r: &[f64],
    z: &[f64],
    p: &Us,
) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_cg_calc_p(idx(width, i, j), beta, precond, r, z, p) };
    }
}

/// Row form of [`cell_cheby_calc_p`].
///
/// # Safety
/// As [`row_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn row_cheby_calc_p(
    mesh: &Mesh2d,
    j: usize,
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
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe {
            cell_cheby_calc_p(
                width,
                idx(width, i, j),
                first,
                theta,
                alpha,
                beta,
                u,
                u0,
                kx,
                ky,
                w,
                r,
                p,
            )
        };
    }
}

/// Row form of [`cell_add_p_to_u`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_add_p_to_u(mesh: &Mesh2d, j: usize, p: &[f64], u: &Us) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_add_p_to_u(idx(width, i, j), p, u) };
    }
}

/// Row form of [`cell_sd_init`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_sd_init(mesh: &Mesh2d, j: usize, theta: f64, r: &[f64], sd: &Us) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_sd_init(idx(width, i, j), theta, r, sd) };
    }
}

/// Row form of [`cell_ppcg_w`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_ppcg_w(mesh: &Mesh2d, j: usize, sd: &[f64], kx: &[f64], ky: &[f64], w: &Us) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_ppcg_w(width, idx(width, i, j), sd, kx, ky, w) };
    }
}

/// Row form of [`cell_ppcg_update`].
///
/// # Safety
/// As [`row_init_u0`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn row_ppcg_update(
    mesh: &Mesh2d,
    j: usize,
    alpha: f64,
    beta: f64,
    w: &[f64],
    u: &Us,
    r: &Us,
    sd: &Us,
) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_ppcg_update(idx(width, i, j), alpha, beta, w, u, r, sd) };
    }
}

/// Row form of [`cell_residual`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_residual(
    mesh: &Mesh2d,
    j: usize,
    u: &[f64],
    u0: &[f64],
    kx: &[f64],
    ky: &[f64],
    r: &Us,
) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_residual(width, idx(width, i, j), u, u0, kx, ky, r) };
    }
}

/// Jacobi: save the previous `u` row into `r` (scratch).
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_jacobi_copy(mesh: &Mesh2d, j: usize, u: &[f64], r: &Us) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { r.set(idx(width, i, j), u[idx(width, i, j)]) };
    }
}

/// Jacobi sweep row: `u = (u0 + Σ k·u_old_neighbours)/diag`; returns the
/// row's `Σ|Δu|` partial. `r` holds the previous iterate.
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_jacobi_iterate(
    mesh: &Mesh2d,
    j: usize,
    u0: &[f64],
    r: &[f64],
    kx: &[f64],
    ky: &[f64],
    u: &Us,
) -> f64 {
    let (i0, i1, width) = row_bounds(mesh);
    let mut err = 0.0;
    for i in i0..i1 {
        err += unsafe { cell_jacobi_iterate(width, idx(width, i, j), u0, r, kx, ky, u) };
    }
    err
}

/// Row `Σ x²` partial.
pub fn row_norm(mesh: &Mesh2d, j: usize, x: &[f64]) -> f64 {
    let (i0, i1, width) = row_bounds(mesh);
    let mut n = 0.0;
    for i in i0..i1 {
        n += cell_norm(idx(width, i, j), x);
    }
    n
}

/// Row partial of the 4-component field summary
/// `[volume, mass, internal energy, temperature]`.
pub fn row_summary(
    mesh: &Mesh2d,
    j: usize,
    density: &[f64],
    energy: &[f64],
    u: &[f64],
    cell_vol: f64,
) -> [f64; 4] {
    let (i0, i1, width) = row_bounds(mesh);
    let mut acc = [0.0; 4];
    for i in i0..i1 {
        let c = cell_summary(idx(width, i, j), density, energy, u, cell_vol);
        for q in 0..4 {
            acc[q] += c[q];
        }
    }
    acc
}

/// Row form of [`cell_finalise`].
///
/// # Safety
/// As [`row_init_u0`].
pub unsafe fn row_finalise(mesh: &Mesh2d, j: usize, u: &[f64], density: &[f64], energy: &Us) {
    let (i0, i1, width) = row_bounds(mesh);
    for i in i0..i1 {
        unsafe { cell_finalise(idx(width, i, j), u, density, energy) };
    }
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
    /// charged as a dispatch-free [`fused_tail`]; otherwise both kernels
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
// host-style field storage shared by the plain-array ports
// ---------------------------------------------------------------------------

/// Host-side field set used by the serial, OpenMP and directive-based
/// ports (flat `Vec<f64>` per TeaLeaf array).
#[derive(Debug, Clone)]
pub struct PortFields {
    pub mesh: Mesh2d,
    pub density: Vec<f64>,
    pub energy: Vec<f64>,
    pub u: Vec<f64>,
    pub u0: Vec<f64>,
    pub p: Vec<f64>,
    pub r: Vec<f64>,
    pub w: Vec<f64>,
    pub z: Vec<f64>,
    pub kx: Vec<f64>,
    pub ky: Vec<f64>,
    pub sd: Vec<f64>,
}

impl PortFields {
    /// Allocate all arrays and copy in the initial density and energy.
    pub fn new(mesh: &Mesh2d, density: &Field2d, energy: &Field2d) -> Self {
        Self::from_state(mesh, density.clone(), energy.clone())
    }

    /// [`PortFields::new`] taking ownership of the initial state.
    pub fn from_state(mesh: &Mesh2d, density: Field2d, energy: Field2d) -> Self {
        let len = mesh.len();
        PortFields {
            mesh: mesh.clone(),
            density: density.into_vec(),
            energy: energy.into_vec(),
            u: vec![0.0; len],
            u0: vec![0.0; len],
            p: vec![0.0; len],
            r: vec![0.0; len],
            w: vec![0.0; len],
            z: vec![0.0; len],
            kx: vec![0.0; len],
            ky: vec![0.0; len],
            sd: vec![0.0; len],
        }
    }

    /// Borrow the named field (shared) — the conformance read-back hook.
    /// Aliases resolve exactly as in [`PortFields::field_mut`].
    pub fn field(&self, id: tea_core::halo::FieldId) -> &[f64] {
        use tea_core::halo::FieldId::*;
        match id {
            Density => &self.density,
            Energy0 | Energy1 => &self.energy,
            U => &self.u,
            U0 => &self.u0,
            P => &self.p,
            R => &self.r,
            W => &self.w,
            Z | Mi => &self.z,
            Kx => &self.kx,
            Ky => &self.ky,
            Sd => &self.sd,
        }
    }

    /// Borrow the named field mutably (for halo updates).
    pub fn field_mut(&mut self, id: tea_core::halo::FieldId) -> &mut Vec<f64> {
        use tea_core::halo::FieldId::*;
        match id {
            Density => &mut self.density,
            Energy0 | Energy1 => &mut self.energy,
            U => &mut self.u,
            U0 => &mut self.u0,
            P => &mut self.p,
            R => &mut self.r,
            W => &mut self.w,
            Z | Mi => &mut self.z,
            Kx => &mut self.kx,
            Ky => &mut self.ky,
            Sd => &mut self.sd,
        }
    }

    /// Total bytes of the residency set a solver keeps on the device —
    /// used as the transfer size for whole-problem maps.
    pub fn resident_bytes(&self) -> u64 {
        (self.mesh.len() * 8 * 11) as u64
    }

    /// Reflective halo update of several fields as **one** batched pair of
    /// parallel regions on `exec` (instead of two regions per field). The
    /// cost-model charges stay per-field and live with the caller.
    ///
    /// # Panics
    /// Panics if two ids alias the same storage (`Energy0`/`Energy1`, or
    /// `Z`/`Mi`) in one batch — the batched update needs disjoint slices.
    pub fn halo_batch(
        &mut self,
        ids: &[tea_core::halo::FieldId],
        depth: usize,
        exec: &dyn parpool::Executor,
    ) {
        use tea_core::halo::FieldId::*;
        let PortFields {
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
        let mut slots = [
            Some(density),
            Some(energy),
            Some(u),
            Some(u0),
            Some(p),
            Some(r),
            Some(w),
            Some(z),
            Some(kx),
            Some(ky),
            Some(sd),
        ];
        let mut fields: Vec<&mut [f64]> = ids
            .iter()
            .map(|&id| {
                let slot = match id {
                    Density => 0,
                    Energy0 | Energy1 => 1,
                    U => 2,
                    U0 => 3,
                    P => 4,
                    R => 5,
                    W => 6,
                    Z | Mi => 7,
                    Kx => 8,
                    Ky => 9,
                    Sd => 10,
                };
                slots[slot]
                    .take()
                    .unwrap_or_else(|| panic!("{} batched twice in one halo update", id.name()))
                    .as_mut_slice()
            })
            .collect();
        tea_core::halo::update_halo_batch(mesh, &mut fields, depth, exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn row_cg_init_consistent_with_cells() {
        let m = mesh();
        let u = seq(&m, 0.2);
        let u0 = seq(&m, 0.4);
        let kx = seq(&m, 0.01);
        let ky = seq(&m, 0.03);
        let mut w = vec![0.0; m.len()];
        let mut r = vec![0.0; m.len()];
        let mut p = vec![0.0; m.len()];
        let mut z = vec![0.0; m.len()];
        let rro = {
            let (wv, rv, pv, zv) = (
                Us::new(&mut w),
                Us::new(&mut r),
                Us::new(&mut p),
                Us::new(&mut z),
            );
            let mut acc = 0.0;
            for j in m.i0()..m.j1() {
                acc += unsafe { row_cg_init(&m, j, false, &u, &u0, &kx, &ky, &wv, &rv, &pv, &zv) };
            }
            acc
        };
        // r = u0 - A u, p = r, rro = Σ r²
        let width = m.width();
        let mut expect = 0.0;
        for j in m.i0()..m.j1() {
            for i in m.i0()..m.i1() {
                let k = idx(width, i, j);
                let res = u0[k] - apply_a(width, k, &u, &kx, &ky);
                assert_eq!(r[k], res);
                assert_eq!(p[k], res);
                expect += res * res;
            }
        }
        assert!((rro - expect).abs() < 1e-12 * expect.abs().max(1.0));
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
            let mut e = 0.0;
            for j in m.i0()..m.j1() {
                e += unsafe { row_jacobi_iterate(&m, j, &u0, &r, &kx, &ky, &uv) };
            }
            e
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
}
