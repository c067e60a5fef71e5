//! Reflective halo updates.
//!
//! TeaLeaf's single-chunk boundary condition is reflective: ghost layer `k`
//! mirrors interior layer `k-1`, which together with the face-centred
//! conduction coefficients yields a zero-flux (Neumann) boundary, so total
//! energy is conserved — an invariant the property tests lean on.
//!
//! The update is expressed over raw slices so that every programming-model
//! port (whose containers differ) can reuse the identical ordering: bottom
//! and top edges first over the full padded width, then left and right over
//! the full padded height, which also fills the corner ghosts consistently.

use crate::mesh::Mesh2d;

/// Identifier for the exchanged fields, mirroring TeaLeaf's
/// `CHUNK_FIELD_*` constants. Ports use these to name halo kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldId {
    Density,
    Energy0,
    Energy1,
    U,
    P,
    Sd,
    R,
    W,
    Z,
    Kx,
    Ky,
    U0,
    Mi,
}

impl FieldId {
    /// Short lower-case name used in kernel labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            FieldId::Density => "density",
            FieldId::Energy0 => "energy0",
            FieldId::Energy1 => "energy1",
            FieldId::U => "u",
            FieldId::P => "p",
            FieldId::Sd => "sd",
            FieldId::R => "r",
            FieldId::W => "w",
            FieldId::Z => "z",
            FieldId::Kx => "kx",
            FieldId::Ky => "ky",
            FieldId::U0 => "u0",
            FieldId::Mi => "mi",
        }
    }

    /// All field identifiers, used by table-driven tests.
    pub const ALL: [FieldId; 13] = [
        FieldId::Density,
        FieldId::Energy0,
        FieldId::Energy1,
        FieldId::U,
        FieldId::P,
        FieldId::Sd,
        FieldId::R,
        FieldId::W,
        FieldId::Z,
        FieldId::Kx,
        FieldId::Ky,
        FieldId::U0,
        FieldId::Mi,
    ];
}

/// Apply a reflective halo update of the given `depth` to `data`.
///
/// Serial convenience wrapper over [`update_halo_batch`].
///
/// # Panics
/// Panics if `depth` exceeds the mesh halo or `data` is mis-sized.
pub fn update_halo(mesh: &Mesh2d, data: &mut [f64], depth: usize) {
    update_halo_batch(mesh, &mut [data], depth, &parpool::SerialExec);
}

/// Apply a reflective halo update of `depth` to `data`, with the two edge
/// sweeps dispatched as parallel regions on `exec`.
pub fn update_halo_exec(
    mesh: &Mesh2d,
    data: &mut [f64],
    depth: usize,
    exec: &dyn parpool::Executor,
) {
    update_halo_batch(mesh, &mut [data], depth, exec);
}

/// Rows per executor item in the left/right phase of [`update_halo_batch`].
const ROW_BLOCK: usize = 64;

/// Apply a reflective halo update of `depth` to several fields at once, as
/// **two** parallel regions on `exec` (instead of two per field).
///
/// Phase 1 writes the bottom/top ghost rows over the interior columns, one
/// row-slice copy per ghost row (one item per field, layers in order: on a
/// mesh thinner than the halo a deeper layer mirrors a ghost row a
/// shallower one just wrote). Phase 2 writes the left/right ghost columns
/// over the full padded height, filling corners (one item per field and
/// block of `ROW_BLOCK` rows). The phases must stay sequenced — phase 2
/// reads the ghost rows phase 1 wrote — and `run` blocking until the
/// region completes provides exactly that barrier. Within a phase every
/// item writes a disjoint set of elements and reads only what no other
/// item writes, so the result is independent of scheduling and
/// bit-identical to the serial ordering for any executor.
///
/// # Panics
/// Panics if `depth` exceeds the mesh halo, any field is mis-sized, or the
/// same field slice appears twice (the borrow system already rules that
/// out for callers that did not construct aliasing slices unsafely).
pub fn update_halo_batch(
    mesh: &Mesh2d,
    fields: &mut [&mut [f64]],
    depth: usize,
    exec: &dyn parpool::Executor,
) {
    assert!(
        depth >= 1 && depth <= mesh.halo_depth,
        "depth must be in 1..=halo_depth"
    );
    for data in fields.iter() {
        assert_eq!(data.len(), mesh.len(), "field length must match mesh");
    }
    if fields.is_empty() {
        return;
    }
    let w = mesh.width();
    let h = mesh.height();
    let (i0, i1, j0, j1) = (mesh.i0(), mesh.i1(), mesh.i0(), mesh.j1());
    let slices: Vec<parpool::UnsafeSlice<'_, f64>> = fields
        .iter_mut()
        .map(|d| parpool::UnsafeSlice::new(d))
        .collect();

    // Phase 1 — bottom and top edges: mirror interior rows outward over
    // interior columns. Item = field.
    exec.run(slices.len(), &|item| {
        let f = &slices[item];
        for k in 1..=depth {
            for (dst, src) in [(j0 - k, j0 + k - 1), (j1 + k - 1, j1 - k)] {
                // SAFETY: this item alone touches its field in this phase,
                // and the ghost row `dst` is never the row `src` it mirrors.
                unsafe {
                    f.slice_mut(dst * w + i0, dst * w + i1)
                        .copy_from_slice(f.slice(src * w + i0, src * w + i1));
                }
            }
        }
    });
    // Phase 2 — left and right edges over the full padded height (fills
    // corners using the ghost rows written in phase 1). Item = (field,
    // block of rows).
    let blocks = h.div_ceil(ROW_BLOCK);
    exec.run(slices.len() * blocks, &|item| {
        let f = &slices[item / blocks];
        let rows = item % blocks * ROW_BLOCK..((item % blocks + 1) * ROW_BLOCK).min(h);
        for j in rows {
            for k in 1..=depth {
                // SAFETY: this item writes only ghost columns (i0-k and
                // i1+k-1) in its own rows of its own field, and reads only
                // those rows.
                unsafe {
                    f.set(j * w + (i0 - k), f.get(j * w + (i0 + k - 1)));
                    f.set(j * w + (i1 + k - 1), f.get(j * w + (i1 - k)));
                }
            }
        }
    });
}

/// Number of ghost elements written by [`update_halo`] — used by the cost
/// model to charge halo kernels accurately.
pub fn halo_elements(mesh: &Mesh2d, depth: usize) -> u64 {
    let horiz = depth * mesh.x_cells * 2;
    let vert = depth * mesh.height() * 2;
    (horiz + vert) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field2d;

    fn filled_interior(mesh: &Mesh2d) -> Field2d {
        let mut f = Field2d::zeros(mesh);
        for (i, j) in mesh.interior().collect::<Vec<_>>() {
            f.set(i, j, (i * 100 + j) as f64);
        }
        f
    }

    #[test]
    fn depth_one_mirrors_first_interior_layer() {
        let m = Mesh2d::square(4);
        let mut f = filled_interior(&m);
        update_halo(&m, f.as_mut_slice(), 1);
        for i in m.i0()..m.i1() {
            assert_eq!(f.at(i, m.i0() - 1), f.at(i, m.i0()));
            assert_eq!(f.at(i, m.j1()), f.at(i, m.j1() - 1));
        }
        for j in m.i0()..m.j1() {
            assert_eq!(f.at(m.i0() - 1, j), f.at(m.i0(), j));
            assert_eq!(f.at(m.i1(), j), f.at(m.i1() - 1, j));
        }
    }

    #[test]
    fn depth_two_mirrors_second_layer() {
        let m = Mesh2d::square(4);
        let mut f = filled_interior(&m);
        update_halo(&m, f.as_mut_slice(), 2);
        // ghost layer 2 mirrors interior layer 1 (one further in)
        for i in m.i0()..m.i1() {
            assert_eq!(f.at(i, m.i0() - 2), f.at(i, m.i0() + 1));
            assert_eq!(f.at(i, m.j1() + 1), f.at(i, m.j1() - 2));
        }
    }

    #[test]
    fn corners_filled() {
        let m = Mesh2d::square(4);
        let mut f = filled_interior(&m);
        update_halo(&m, f.as_mut_slice(), 2);
        // corner ghost equals double reflection of the corner interior cell
        assert_eq!(f.at(m.i0() - 1, m.i0() - 1), f.at(m.i0(), m.i0()));
    }

    #[test]
    fn idempotent() {
        let m = Mesh2d::square(5);
        let mut f = filled_interior(&m);
        update_halo(&m, f.as_mut_slice(), 2);
        let once = f.clone();
        update_halo(&m, f.as_mut_slice(), 2);
        assert_eq!(f, once, "halo update must be idempotent");
    }

    #[test]
    fn interior_untouched() {
        let m = Mesh2d::square(6);
        let mut f = filled_interior(&m);
        let before = f.clone();
        update_halo(&m, f.as_mut_slice(), 2);
        for (i, j) in m.interior().collect::<Vec<_>>() {
            assert_eq!(f.at(i, j), before.at(i, j));
        }
    }

    #[test]
    fn halo_element_count() {
        let m = Mesh2d::square(4);
        // depth 1: 2*4 horizontal + 2*8 vertical = 24
        assert_eq!(halo_elements(&m, 1), 24);
    }

    #[test]
    #[should_panic]
    fn depth_zero_rejected() {
        let m = Mesh2d::square(4);
        let mut f = Field2d::zeros(&m);
        update_halo(&m, f.as_mut_slice(), 0);
    }

    #[test]
    fn batch_matches_per_field_serial() {
        let m = Mesh2d::square(7);
        let mk = |s: usize| {
            let mut f = Field2d::zeros(&m);
            for (i, j) in m.interior().collect::<Vec<_>>() {
                f.set(i, j, (i * 100 + j + s * 7) as f64 * 0.125);
            }
            f
        };
        for depth in 1..=2 {
            let (mut a, mut b, mut c) = (mk(1), mk(2), mk(3));
            let (mut a2, mut b2, mut c2) = (a.clone(), b.clone(), c.clone());
            update_halo(&m, a.as_mut_slice(), depth);
            update_halo(&m, b.as_mut_slice(), depth);
            update_halo(&m, c.as_mut_slice(), depth);
            update_halo_batch(
                &m,
                &mut [a2.as_mut_slice(), b2.as_mut_slice(), c2.as_mut_slice()],
                depth,
                &parpool::SerialExec,
            );
            assert_eq!(a, a2, "depth {depth}");
            assert_eq!(b, b2, "depth {depth}");
            assert_eq!(c, c2, "depth {depth}");
        }
    }

    #[test]
    fn parallel_exec_matches_serial_bitwise() {
        let m = Mesh2d::square(9);
        let pool = parpool::StaticPool::new(4);
        let mut f = filled_interior(&m);
        let mut g = f.clone();
        for depth in 1..=2 {
            update_halo(&m, f.as_mut_slice(), depth);
            update_halo_exec(&m, g.as_mut_slice(), depth, &pool);
            assert_eq!(f, g, "depth {depth}: pooled halo diverged from serial");
        }
    }

    #[test]
    fn thin_meshes_match_elementwise_reflection() {
        // Meshes thinner than the halo mirror ghost cells into deeper
        // ghost cells; the row copies must keep the element-wise order.
        let pool = parpool::StaticPool::new(3);
        for (nx, ny) in [(1, 1), (1, 9), (9, 1), (2, 70), (3, 130)] {
            let m = Mesh2d::new(nx, ny, 2, (0.0, 1.0), (0.0, 1.0));
            let (w, h) = (m.width(), m.height());
            let (i0, i1, j0, j1) = (m.i0(), m.i1(), m.i0(), m.j1());
            for depth in 1..=2 {
                let mut want = filled_interior(&m).as_slice().to_vec();
                for i in i0..i1 {
                    for k in 1..=depth {
                        want[(j0 - k) * w + i] = want[(j0 + k - 1) * w + i];
                        want[(j1 + k - 1) * w + i] = want[(j1 - k) * w + i];
                    }
                }
                for j in 0..h {
                    for k in 1..=depth {
                        want[j * w + i0 - k] = want[j * w + i0 + k - 1];
                        want[j * w + i1 + k - 1] = want[j * w + i1 - k];
                    }
                }
                let mut got = filled_interior(&m);
                update_halo_exec(&m, got.as_mut_slice(), depth, &pool);
                assert_eq!(got.as_slice(), &want[..], "{nx}x{ny} depth {depth}");
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let m = Mesh2d::square(4);
        update_halo_batch(&m, &mut [], 1, &parpool::SerialExec);
    }
}
