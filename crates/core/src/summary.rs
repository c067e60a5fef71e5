//! Field summary diagnostics.
//!
//! After each timestep TeaLeaf reports volume, mass, internal energy and
//! temperature integrated over the interior cells. The summary doubles as
//! the cross-port correctness check: every programming-model port must
//! produce the identical summary for the identical problem.

use crate::field::Field2d;
use crate::mesh::Mesh2d;

/// Integrated diagnostics over the interior cells.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Total cell volume.
    pub volume: f64,
    /// `Σ density · vol`
    pub mass: f64,
    /// `Σ density · energy · vol`
    pub internal_energy: f64,
    /// `Σ u · vol` — the temperature integral the solvers drive.
    pub temperature: f64,
}

impl Summary {
    /// Compute the summary serially in row-major order (the deterministic
    /// reference ordering all ports reproduce).
    pub fn compute(mesh: &Mesh2d, density: &Field2d, energy: &Field2d, u: &Field2d) -> Summary {
        let vol_cell = mesh.cell_volume();
        let mut s = Summary::default();
        for j in mesh.i0()..mesh.j1() {
            let mut row = Summary::default();
            for i in mesh.i0()..mesh.i1() {
                let d = density.at(i, j);
                let e = energy.at(i, j);
                row.volume += vol_cell;
                row.mass += d * vol_cell;
                row.internal_energy += d * e * vol_cell;
                row.temperature += u.at(i, j) * vol_cell;
            }
            s.volume += row.volume;
            s.mass += row.mass;
            s.internal_energy += row.internal_energy;
            s.temperature += row.temperature;
        }
        s
    }

    /// Largest absolute component-wise difference to `other`; used by the
    /// consistency tests.
    pub fn max_abs_diff(&self, other: &Summary) -> f64 {
        [
            (self.volume - other.volume).abs(),
            (self.mass - other.mass).abs(),
            (self.internal_energy - other.internal_energy).abs(),
            (self.temperature - other.temperature).abs(),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// The four reduced components in field order — volume, mass, internal
/// energy, temperature — as every port's `field_summary` folds them.
impl From<[f64; 4]> for Summary {
    fn from([volume, mass, internal_energy, temperature]: [f64; 4]) -> Self {
        Summary {
            volume,
            mass,
            internal_energy,
            temperature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fields() {
        let m = Mesh2d::new(10, 10, 2, (0.0, 10.0), (0.0, 10.0));
        let density = Field2d::filled(&m, 2.0);
        let energy = Field2d::filled(&m, 3.0);
        let u = Field2d::filled(&m, 6.0);
        let s = Summary::compute(&m, &density, &energy, &u);
        assert!((s.volume - 100.0).abs() < 1e-12);
        assert!((s.mass - 200.0).abs() < 1e-12);
        assert!((s.internal_energy - 600.0).abs() < 1e-12);
        assert!((s.temperature - 600.0).abs() < 1e-12);
    }

    #[test]
    fn halo_ignored() {
        let m = Mesh2d::square(4);
        let mut density = Field2d::filled(&m, 1.0);
        density.set(0, 0, 1e12);
        let energy = Field2d::filled(&m, 1.0);
        let u = Field2d::filled(&m, 1.0);
        let s = Summary::compute(&m, &density, &energy, &u);
        let cell = m.cell_volume();
        assert!((s.mass - 16.0 * cell).abs() < 1e-9);
    }

    #[test]
    fn diff_metric() {
        let a = Summary {
            volume: 1.0,
            mass: 2.0,
            internal_energy: 3.0,
            temperature: 4.0,
        };
        let b = Summary {
            volume: 1.0,
            mass: 2.5,
            internal_energy: 3.0,
            temperature: 3.0,
        };
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
