//! Weak/strong scaling sweeps over the 2-D tiled distributed solvers.
//!
//! The paper's scaling story (Figures 10–12) is runtime versus mesh
//! growth; the distributed reproduction extends it to rank growth. The
//! metric here is **deterministic logical cost units**, not wall time:
//! the distributed workers charge one unit per cell update and one per
//! exchanged halo element, with elements hidden behind interior compute
//! (the overlap window) not charged — exactly the counters
//! [`OverlapStats`] accumulates. Every input to the CSV is an exact
//! integer counter from a bit-reproducible run, so the committed files
//! regenerate byte-identical on any host at any thread count.
//!
//! * **Weak scaling** holds the per-rank tile fixed (`base²` cells) and
//!   grows the mesh with the rank grid: `g×g` ranks solve a
//!   `(base·g)²` mesh. Ideal efficiency keeps per-rank cost flat;
//!   iterative reality adds iteration growth with the mesh edge, which
//!   the `iterations` column exposes separately.
//! * **Strong scaling** holds the mesh fixed and splits it over growing
//!   rank grids. Iteration counts are bit-identical across grids (the
//!   decomposition is numerically invisible), so speedup isolates the
//!   surface-to-volume communication term.

use tea_core::config::{SolverKind, TeaConfig};
use tea_core::tablefmt::Table;
use tealeaf::distributed::DistributedSpec;
use tealeaf::tile::OverlapStats;
use tealeaf::{run, Exec, RunSpec};

/// The four distributed solvers, in registry order.
pub const SCALING_SOLVERS: [SolverKind; 4] = [
    SolverKind::ConjugateGradient,
    SolverKind::Chebyshev,
    SolverKind::Ppcg,
    SolverKind::Jacobi,
];

/// Square rank grids of the weak sweep (per-rank work constant).
pub const WEAK_GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];

/// Rank grids of the strong sweep (fixed mesh, growing decomposition).
pub const STRONG_GRIDS: [(usize, usize); 5] = [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)];

/// Mesh/tolerance scale of one sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepScale {
    /// Weak sweep: per-rank tile edge (mesh edge = `base · g`).
    pub base: usize,
    /// Strong sweep: fixed mesh edge.
    pub strong: usize,
    pub eps: f64,
    /// Iteration cap, applied identically at every grid so capped runs
    /// stay bit-identical across decompositions.
    pub max_iters: usize,
}

impl SweepScale {
    /// The committed-CSV scale: small enough for CI, large enough that
    /// every tile still has interior cells at the 4×4 grid. The
    /// tolerance is tight enough that Chebyshev/PPCG outlive their 30
    /// CG presteps and run their own iterations (at 1e-10 the presteps
    /// alone converge and every row degenerates to CG).
    pub fn smoke() -> Self {
        SweepScale {
            base: 32,
            strong: 96,
            eps: 1.0e-13,
            max_iters: 2000,
        }
    }

    /// Environment-driven scale: `TEA_SCALING_FULL=1` selects the
    /// paper-shaped sweep (weak to 16384² over 16 ranks, strong at
    /// 8192² — hours of functional execution and tens of GB of fields;
    /// see EXPERIMENTS.md), `TEA_SCALING_BASE`/`TEA_SCALING_STRONG`
    /// override the smoke edges individually.
    pub fn from_env() -> Self {
        if std::env::var("TEA_SCALING_FULL").is_ok_and(|v| v == "1") {
            return SweepScale {
                base: 4096,
                strong: 8192,
                eps: 1.0e-12,
                max_iters: 20_000,
            };
        }
        let mut scale = SweepScale::smoke();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(b) = get("TEA_SCALING_BASE") {
            scale.base = b;
        }
        if let Some(s) = get("TEA_SCALING_STRONG") {
            scale.strong = s;
        }
        scale
    }

    fn config(&self, solver: SolverKind, edge: usize) -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(edge);
        cfg.solver = solver;
        cfg.end_step = 1;
        cfg.tl_eps = self.eps;
        cfg.tl_max_iters = self.max_iters;
        cfg
    }
}

/// One run of one sweep: a solver on a rank grid.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub solver: SolverKind,
    pub mesh_edge: usize,
    pub grid: (usize, usize),
    pub iterations: usize,
    pub converged: bool,
    pub stats: OverlapStats,
}

impl ScalingPoint {
    pub fn ranks(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Per-rank logical cost: all cell updates plus the exchanged
    /// elements that interior compute did *not* hide, divided by the
    /// rank count (the counters are global sums over ranks).
    pub fn cost_units(&self) -> f64 {
        let s = &self.stats;
        let total =
            s.interior_cells + s.boundary_cells + (s.exchanged_elements - s.hidden_elements);
        total as f64 / self.ranks() as f64
    }
}

fn run_point(
    scale: SweepScale,
    solver: SolverKind,
    edge: usize,
    grid: (usize, usize),
) -> ScalingPoint {
    let cfg = scale.config(solver, edge);
    let run = run(&RunSpec::new(
        &cfg,
        Exec::Tiled(DistributedSpec::new(grid.0, grid.1)),
    ))
    .expect("a fault-free run cannot abort");
    ScalingPoint {
        solver,
        mesh_edge: edge,
        grid,
        iterations: run.report.total_iterations,
        converged: run.report.converged,
        stats: run.overlap,
    }
}

/// The weak sweep: every solver × every square grid, mesh grown with
/// the grid so per-rank work is constant.
pub fn weak_scaling(scale: SweepScale) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for solver in SCALING_SOLVERS {
        for grid in WEAK_GRIDS {
            points.push(run_point(scale, solver, scale.base * grid.0, grid));
        }
    }
    points
}

/// The strong sweep: every solver × every grid on the fixed mesh.
pub fn strong_scaling(scale: SweepScale) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for solver in SCALING_SOLVERS {
        for grid in STRONG_GRIDS {
            points.push(run_point(scale, solver, scale.strong, grid));
        }
    }
    points
}

/// Efficiency of `p` against its solver's 1-rank row: cost ratio for
/// weak scaling (ideal = flat per-rank cost), cost ratio per rank for
/// strong scaling (ideal = perfect division of the 1-rank cost).
fn efficiency(points: &[ScalingPoint], p: &ScalingPoint, strong: bool) -> Option<f64> {
    let baseline = points
        .iter()
        .find(|q| q.solver == p.solver && q.grid == (1, 1))?;
    let ratio = baseline.cost_units() / p.cost_units();
    Some(if strong {
        ratio / p.ranks() as f64
    } else {
        ratio
    })
}

fn scaling_table(title: &str, points: &[ScalingPoint], strong: bool) -> Table {
    let mut table = Table::new(
        title,
        &[
            "solver",
            "mesh",
            "tiles",
            "ranks",
            "iterations",
            "converged",
            "interior_cells",
            "boundary_cells",
            "exchanged",
            "hidden",
            "overlap_pct",
            "cost_units",
            "efficiency_pct",
        ],
    );
    for p in points {
        let s = &p.stats;
        table.row(&[
            p.solver.name().to_string(),
            format!("{0}x{0}", p.mesh_edge),
            format!("{}x{}", p.grid.0, p.grid.1),
            p.ranks().to_string(),
            p.iterations.to_string(),
            p.converged.to_string(),
            s.interior_cells.to_string(),
            s.boundary_cells.to_string(),
            s.exchanged_elements.to_string(),
            s.hidden_elements.to_string(),
            format!("{:.2}", 100.0 * s.overlap_efficiency()),
            format!("{:.1}", p.cost_units()),
            efficiency(points, p, strong)
                .map(|e| format!("{:.2}", 100.0 * e))
                .unwrap_or_default(),
        ]);
    }
    table
}

/// The `results/scaling_weak.csv` table.
pub fn weak_table(points: &[ScalingPoint]) -> Table {
    scaling_table(
        "Weak scaling: per-rank tile fixed, mesh grown with the rank grid (logical cost units)",
        points,
        false,
    )
}

/// The `results/scaling_strong.csv` table.
pub fn strong_table(points: &[ScalingPoint]) -> Table {
    scaling_table(
        "Strong scaling: fixed mesh over growing rank grids (logical cost units)",
        points,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepScale {
        SweepScale {
            base: 8,
            strong: 16,
            eps: 1.0e-10,
            max_iters: 400,
        }
    }

    #[test]
    fn strong_sweep_is_iteration_invariant_and_overlapped() {
        let points = strong_scaling(tiny());
        assert_eq!(points.len(), SCALING_SOLVERS.len() * STRONG_GRIDS.len());
        for solver in SCALING_SOLVERS {
            let rows: Vec<&ScalingPoint> = points.iter().filter(|p| p.solver == solver).collect();
            let baseline = rows[0];
            for p in &rows {
                assert_eq!(
                    p.iterations, baseline.iterations,
                    "{solver:?} {0}x{1}: decomposition changed the iteration count",
                    p.grid.0, p.grid.1
                );
                if p.ranks() > 1 {
                    assert!(
                        p.stats.hidden_elements > 0,
                        "{solver:?} {0}x{1}: no overlap recorded",
                        p.grid.0,
                        p.grid.1
                    );
                }
            }
        }
    }

    #[test]
    fn weak_sweep_grows_mesh_with_ranks() {
        let scale = tiny();
        let points = weak_scaling(scale);
        assert_eq!(points.len(), SCALING_SOLVERS.len() * WEAK_GRIDS.len());
        for p in &points {
            assert_eq!(p.mesh_edge, scale.base * p.grid.0);
            assert!(p.cost_units() > 0.0);
        }
    }

    #[test]
    fn tables_render_with_efficiency_against_one_rank() {
        let points = strong_scaling(tiny());
        let table = strong_table(&points);
        let csv = table.to_csv();
        assert!(csv.contains("efficiency_pct"));
        // every row has a 1-rank baseline of its own solver
        assert_eq!(csv.lines().count(), points.len() + 1);
    }
}
