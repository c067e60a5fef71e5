//! Experiment scale selection (environment-driven).

use simdev::DeviceSpec;
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::driver::TEA_DEFAULT_SEED;
use tealeaf::{Exec, ModelId};

/// Mesh/step/tolerance scale for the experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub cells: usize,
    pub steps: usize,
    pub eps: f64,
    /// Mesh edges for the Figure 11 even-step sweep.
    pub sweep_max: usize,
    /// Seed for every stochastic cost term (the OpenCL CPU enqueue
    /// jitter) in the figure runs. Fixed by default so committed numbers
    /// reproduce bit-for-bit; override with `TEA_SEED` to check that a
    /// conclusion is not an artefact of one jitter draw.
    pub seed: u64,
}

impl Scale {
    /// Resolve from the environment (see crate docs for the variables).
    pub fn from_env() -> Self {
        if std::env::var("TEA_PAPER_SCALE").is_ok_and(|v| v == "1") {
            return Scale::paper();
        }
        let get = |k: &str, d: f64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(d)
        };
        Scale {
            cells: get("TEA_CELLS", 256.0) as usize,
            steps: get("TEA_STEPS", 2.0) as usize,
            eps: get("TEA_EPS", 1.0e-12),
            sweep_max: get("TEA_SWEEP_MAX", 625.0) as usize,
            seed: std::env::var("TEA_SEED")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(TEA_DEFAULT_SEED),
        }
    }

    /// The paper's full scale (§4: 4096² mesh-convergence point).
    pub fn paper() -> Self {
        Scale {
            cells: 4096,
            steps: 10,
            eps: 1.0e-15,
            sweep_max: 1225,
            seed: TEA_DEFAULT_SEED,
        }
    }

    /// Reduced scale for fast CI runs and tests.
    pub fn small() -> Self {
        Scale {
            cells: 96,
            steps: 1,
            eps: 1.0e-10,
            sweep_max: 250,
            seed: TEA_DEFAULT_SEED,
        }
    }

    /// `model` on `device`, jittered under this scale's seed.
    pub fn exec<'a>(&self, model: ModelId, device: &'a DeviceSpec) -> Exec<'a> {
        Exec::Port {
            model,
            device,
            seed: self.seed,
        }
    }

    /// Problem configuration for one solver at this scale.
    pub fn config(&self, solver: SolverKind) -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(self.cells);
        cfg.solver = solver;
        cfg.end_step = self.steps;
        cfg.tl_eps = self.eps;
        // Keep the paper's tl_ch_cg_presteps = 30: the Lanczos eigenvalue
        // estimate needs that many iterations to bracket λmax reliably —
        // with fewer, Chebyshev's interval misses the top of the spectrum
        // and PPCG's inner smoothing can diverge. (On reduced meshes this
        // makes the presteps a larger *fraction* of Chebyshev/PPCG runs
        // than at 4096², which slightly inflates any CG-specific model
        // quirk in those columns; EXPERIMENTS.md notes this.)
        cfg
    }

    /// Emulate the paper's convergence-mesh bandwidth regime on a reduced
    /// functional mesh: cache capacity and every fixed per-launch cost are
    /// scaled by the cell ratio `(cells/4096)²`, preserving the paper
    /// mesh's bytes-to-overhead balance (at 4096² TeaLeaf is DRAM-resident
    /// and launch overheads are amortised — §5: overheads "are hidden as
    /// the amount of computation and data processing is increased").
    ///
    /// Figures 8–10 and 12 use the scaled device; Figure 11 deliberately
    /// does not (small-mesh overheads are its subject).
    pub fn regime_device(&self, device: &simdev::DeviceSpec) -> simdev::DeviceSpec {
        if self.cells >= 4096 {
            return device.clone();
        }
        let factor = (self.cells as f64 / 4096.0).powi(2);
        let mut d = device.clone();
        d.llc_bytes = (d.llc_bytes as f64 * factor) as u64;
        d.overhead_scale = factor;
        // One-off whole-mesh transfers shrink only linearly with the mesh
        // while kernel time shrinks with cells × iterations; rescale the
        // link so the transfer:kernel balance matches the paper mesh
        // (iterations ∝ edge, so the residual imbalance is edge × steps).
        d.pcie_bw_gbs *= (4096.0 / self.cells as f64) * (10.0 / self.steps.max(1) as f64);
        d
    }

    /// The Figure 11 "even-step mesh increment" sizes: multiples of 125 up
    /// to `sweep_max`, ending exactly at the cap (the paper sweeps to
    /// 1225²  ≈ 15·10⁵ cells).
    pub fn sweep_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = (1..)
            .map(|k| k * 125)
            .take_while(|&s| s < self.sweep_max)
            .collect();
        sizes.push(self.sweep_max);
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_evaluation_section() {
        let s = Scale::paper();
        assert_eq!(s.cells, 4096);
        assert_eq!(s.steps, 10);
        assert_eq!(s.eps, 1.0e-15);
        assert_eq!(s.sweep_max, 1225);
    }

    #[test]
    fn sweep_ends_at_cap() {
        let s = Scale {
            cells: 0,
            steps: 0,
            eps: 1.0,
            sweep_max: 625,
            seed: TEA_DEFAULT_SEED,
        };
        assert_eq!(s.sweep_sizes(), vec![125, 250, 375, 500, 625]);
        let p = Scale::paper();
        let sizes = p.sweep_sizes();
        assert_eq!(*sizes.last().unwrap(), 1225);
        assert_eq!(sizes[0], 125);
    }

    #[test]
    fn config_carries_scale() {
        let s = Scale::small();
        let cfg = s.config(SolverKind::Ppcg);
        assert_eq!(cfg.x_cells, 96);
        assert_eq!(cfg.end_step, 1);
        assert_eq!(cfg.solver, SolverKind::Ppcg);
    }
}

#[cfg(test)]
mod regime_tests {
    use super::*;
    use simdev::devices;

    #[test]
    fn regime_scales_fixed_costs_by_cell_ratio() {
        let s = Scale {
            cells: 256,
            steps: 2,
            eps: 1e-12,
            sweep_max: 0,
            seed: TEA_DEFAULT_SEED,
        };
        let gpu = devices::gpu_k20x();
        let regime = s.regime_device(&gpu);
        let factor = (256.0f64 / 4096.0).powi(2);
        assert!((regime.overhead_scale - factor).abs() < 1e-15);
        assert_eq!(regime.llc_bytes, (gpu.llc_bytes as f64 * factor) as u64);
        // bandwidths untouched — they are the physics, not the regime
        assert_eq!(regime.stream_bw_gbs, gpu.stream_bw_gbs);
        assert_eq!(regime.peak_bw_gbs, gpu.peak_bw_gbs);
        // the PCIe rebalance compensates the one-off whole-mesh transfers
        assert!(regime.pcie_bw_gbs > gpu.pcie_bw_gbs);
    }

    #[test]
    fn paper_scale_is_identity() {
        let s = Scale::paper();
        let gpu = devices::gpu_k20x();
        assert_eq!(s.regime_device(&gpu), gpu);
    }

    #[test]
    fn env_scale_defaults() {
        // no env vars set in the test environment → defaults
        let s = Scale::from_env();
        assert!(s.cells >= 64);
        assert!(s.steps >= 1);
        assert!(s.eps > 0.0);
        assert_eq!(s.seed, TEA_DEFAULT_SEED, "unset TEA_SEED uses the default");
    }
}
