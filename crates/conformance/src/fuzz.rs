//! The schedule fuzzer: adversarial chunk orderings over the real row
//! kernels.
//!
//! Every round builds seeded pseudo-random fields on a TeaLeaf mesh,
//! computes the row-kernel reductions (`calc_2norm`, `field_summary`,
//! `cg_calc_w`) once with [`SerialExec`] as the reference, then replays
//! them under [`PermutedExec`]-wrapped [`StaticPool`]s and
//! [`StealPool`]s of several widths — schedules the real pools could
//! legally produce, permuted into hostile orders. The determinism
//! contract (one partial per index, folded in index order) makes
//! bit-identical results mandatory; any drift is reported with the
//! schedule that produced it so the seed replays it exactly.
//!
//! A deliberately tiny mesh (fewer rows than workers) rides along in
//! every round to keep the `StaticPool` inline small-`n` fast path under
//! permutation pressure — the interaction the fix in
//! `parpool::permute` pins down.

use parpool::{Executor, PermutedExec, SerialExec, StaticPool, StealPool};
use tea_core::mesh::Mesh2d;
use tealeaf::ports::common::{self, Us};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A field of seeded positive values in `[0.5, 1.5)` — dense mantissas,
/// no special values, so reassociation errors cannot hide behind zeros.
fn random_field(state: &mut u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| 0.5 + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64)
        .collect()
}

/// What a completed fuzz run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    pub rounds: usize,
    /// (pool, permutation-seed) schedules exercised.
    pub schedules: usize,
    /// Individual bit-exact comparisons that all passed.
    pub comparisons: usize,
}

struct Workload {
    mesh: Mesh2d,
    u: Vec<f64>,
    density: Vec<f64>,
    energy: Vec<f64>,
    p: Vec<f64>,
    kx: Vec<f64>,
    ky: Vec<f64>,
}

impl Workload {
    fn build(state: &mut u64, x_cells: usize, y_cells: usize) -> Workload {
        let mesh = Mesh2d::new(x_cells, y_cells, 2, (0.0, 10.0), (0.0, 10.0));
        let len = mesh.len();
        Workload {
            u: random_field(state, len),
            density: random_field(state, len),
            energy: random_field(state, len),
            p: random_field(state, len),
            kx: random_field(state, len),
            ky: random_field(state, len),
            mesh,
        }
    }

    fn rows(&self) -> usize {
        self.mesh.j1() - self.mesh.i0()
    }

    /// The three reductions of one schedule: `‖u‖²`, the 4-component
    /// field summary, and `p·Ap` with the `w = A·p` stencil written as a
    /// side effect (returned for bit comparison too).
    fn reduce(&self, exec: &dyn Executor) -> (f64, [f64; 4], f64, Vec<f64>) {
        let (mesh, i0) = (&self.mesh, self.mesh.i0());
        let n = self.rows();
        let norm = exec.run_sum_blocks(n, &|rows, out| {
            common::block_norm(mesh, rows, common::Pass::Reduce(out), &self.u)
        });
        let vol = mesh.cell_volume();
        let summary = exec.run_sum4(n, &|j| {
            common::row_summary(mesh, i0 + j, &self.density, &self.energy, &self.u, vol)
        });
        let mut w = vec![0.0; mesh.len()];
        let pw = {
            let ws = Us::new(&mut w);
            exec.run_sum(n, &|j| {
                // SAFETY: each row is written by exactly one index.
                unsafe { common::row_cg_calc_w(mesh, i0 + j, &self.p, &self.kx, &self.ky, &ws) }
            })
        };
        (norm, summary, pw, w)
    }
}

fn bits_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Run `rounds` rounds of schedule fuzzing from `seed`. `Err` carries
/// the first divergence with enough context to replay it.
pub fn run_schedule_fuzz(seed: u64, rounds: usize) -> Result<FuzzReport, String> {
    let static_pools: Vec<StaticPool> = [2, 3, 5, 8].map(StaticPool::new).into_iter().collect();
    let steal_pools: Vec<StealPool> = [2, 4].map(StealPool::new).into_iter().collect();
    let mut pools: Vec<(String, &dyn Executor)> = Vec::new();
    for p in &static_pools {
        pools.push((format!("StaticPool({})", p.threads()), p as &dyn Executor));
    }
    for p in &steal_pools {
        pools.push((format!("StealPool({})", p.threads()), p as &dyn Executor));
    }

    let mut state = seed;
    let mut schedules = 0;
    let mut comparisons = 0;
    for round in 0..rounds {
        // A production-shaped mesh plus a tiny one with fewer rows than
        // any pool has workers (inline fast-path coverage).
        let workloads = [
            Workload::build(&mut state, 41, 29),
            Workload::build(&mut state, 16, 5),
        ];
        for (wi, workload) in workloads.iter().enumerate() {
            let (norm0, sum0, pw0, w0) = workload.reduce(&SerialExec);
            for (name, pool) in &pools {
                let perm_seed = splitmix64(&mut state);
                let permuted = PermutedExec::new(*pool, perm_seed);
                let (norm, sum, pw, w) = workload.reduce(&permuted);
                schedules += 1;
                let fail = |what: &str| {
                    Err(format!(
                        "schedule fuzz divergence: {what} under {name} \
                         (round {round}, workload {wi}, perm seed {perm_seed:#x}, fuzz seed {seed:#x})"
                    ))
                };
                if !bits_equal(norm, norm0) {
                    return fail("calc_2norm");
                }
                if !(0..4).all(|q| bits_equal(sum[q], sum0[q])) {
                    return fail("field_summary");
                }
                if !bits_equal(pw, pw0) {
                    return fail("cg_calc_w reduction");
                }
                if w.iter().zip(&w0).any(|(a, b)| !bits_equal(*a, *b)) {
                    return fail("cg_calc_w stencil field");
                }
                comparisons += 3 + 4 + w.len();
            }
        }
    }
    Ok(FuzzReport {
        rounds,
        schedules,
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_of_fuzzing_is_clean() {
        let report = run_schedule_fuzz(0xC0FFEE, 1).expect("deterministic reductions");
        assert_eq!(report.rounds, 1);
        assert_eq!(report.schedules, 2 * 6, "2 workloads x 6 pools");
        assert!(report.comparisons > 0);
    }

    #[test]
    fn fuzz_is_reproducible() {
        assert_eq!(run_schedule_fuzz(7, 1), run_schedule_fuzz(7, 1));
    }
}
