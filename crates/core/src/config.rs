//! `tea.in`-style problem configuration.
//!
//! The reference TeaLeaf reads its problem description from a small
//! keyword file. This module reproduces that format closely enough that the
//! upstream benchmark decks (e.g. `tea_bm_5.in`) parse unchanged:
//!
//! ```text
//! *tea
//! state 1 density=100.0 energy=0.0001
//! state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
//! x_cells=4096
//! y_cells=4096
//! xmin=0.0
//! xmax=10.0
//! ymin=0.0
//! ymax=10.0
//! initial_timestep=0.004
//! end_step=10
//! tl_max_iters=10000
//! tl_use_cg
//! tl_eps=1.0e-15
//! *endtea
//! ```

use std::fmt;
use std::str::FromStr;

use crate::state::{Geometry, State};

/// How the conduction coefficient is derived from density (paper §1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coefficient {
    /// `w = density`
    Conductivity,
    /// `w = 1/density` (the TeaLeaf default)
    RecipConductivity,
}

/// Which of the iterative solvers drives the implicit solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Pointwise Jacobi — the simple baseline solver in upstream TeaLeaf.
    Jacobi,
    /// Conjugate Gradient (paper's `CG`), the default.
    #[default]
    ConjugateGradient,
    /// Chebyshev semi-iteration seeded by CG eigenvalue estimates.
    Chebyshev,
    /// Chebyshev Polynomially Preconditioned CG (paper's `PPCG`).
    Ppcg,
}

impl SolverKind {
    /// Short lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Jacobi => "jacobi",
            SolverKind::ConjugateGradient => "cg",
            SolverKind::Chebyshev => "chebyshev",
            SolverKind::Ppcg => "ppcg",
        }
    }

    /// The three solvers evaluated by the paper (§4): CG, Chebyshev, PPCG.
    pub const PAPER: [SolverKind; 3] = [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
    ];
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed problem configuration with TeaLeaf-compatible defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct TeaConfig {
    pub x_cells: usize,
    pub y_cells: usize,
    pub xmin: f64,
    pub xmax: f64,
    pub ymin: f64,
    pub ymax: f64,
    pub initial_timestep: f64,
    pub end_step: usize,
    pub solver: SolverKind,
    pub tl_max_iters: usize,
    pub tl_eps: f64,
    /// Use the Jacobi (diagonal) preconditioner inside CG.
    pub tl_preconditioner: bool,
    /// CG iterations run before Chebyshev/PPCG to estimate eigenvalues.
    pub tl_ch_cg_presteps: usize,
    /// Inner Chebyshev smoothing steps per PPCG outer iteration.
    pub tl_ppcg_inner_steps: usize,
    pub coefficient: Coefficient,
    pub halo_depth: usize,
    pub states: Vec<State>,
    /// Enable the resilience layer (sentinels + checkpoint/rollback +
    /// fallback chains). On healthy runs the layer is numerically inert,
    /// so goldens are unchanged either way.
    pub tl_resilience: bool,
    /// Solver iterations between in-solve field checkpoints (0 disables
    /// mid-solve rollback; the solve-start checkpoint always exists).
    pub tl_checkpoint_interval: usize,
    /// Divergence sentinel: trip when `|rrn| > factor · |rro₀|`.
    pub tl_divergence_factor: f64,
    /// Stagnation sentinel: trip after this many residual observations
    /// without improving on the best residual seen so far.
    pub tl_stagnation_window: usize,
    /// Cap on recovery attempts (rollbacks or same-solver retries) per
    /// solve before degrading along the fallback chain.
    pub tl_max_recoveries: usize,
    /// Explicit fallback chain; empty means the built-in degradation
    /// (PPCG/Chebyshev → CG → Jacobi, CG → Jacobi).
    pub tl_fallback_chain: Vec<SolverKind>,
    /// Base seed for the deterministic chaos harness (fault injection in
    /// the distributed transport). The same deck + seed replays the same
    /// fault schedule bit-for-bit; 0 is an ordinary seed, not "off".
    pub tl_chaos_seed: u64,
    /// Per-receive recovery deadline (seconds) for the distributed
    /// transport: how long a rank starves on a channel — through NACKs,
    /// backoff and straggler flushes — before declaring the peer dead.
    pub tl_exchange_deadline: f64,
    /// Allow the resilient distributed driver to re-decompose onto a
    /// smaller tile grid when a rank stays dead past the
    /// `tl_max_recoveries` restart budget. Off means such a loss aborts.
    pub tl_elastic_regrid: bool,
    /// Enable the simulated power model. Off means every run reports
    /// exactly 0 J; energy never feeds back into kernel times, so the
    /// numerics and simulated seconds are bit-identical either way.
    pub tl_power_model: bool,
    /// Use the committed autotuned launch configurations (the tuning
    /// registry). The calibrated device profiles already describe the
    /// paper's hand-tuned codes, so the tuned configuration is the
    /// no-penalty baseline; turning this *off* charges the generic
    /// per-device default launch shape instead, slowing the data term of
    /// every kernel by the tuner-measured configuration-efficiency
    /// ratio. Numerics are bit-identical either way.
    pub tl_autotune: bool,
    /// Override the device's calibrated idle board power, watts.
    pub tl_idle_watts: Option<f64>,
    /// Override the device's calibrated active board power, watts.
    pub tl_active_watts: Option<f64>,
}

impl Default for TeaConfig {
    fn default() -> Self {
        TeaConfig {
            x_cells: 128,
            y_cells: 128,
            xmin: 0.0,
            xmax: 10.0,
            ymin: 0.0,
            ymax: 10.0,
            initial_timestep: 0.004,
            end_step: 10,
            solver: SolverKind::ConjugateGradient,
            tl_max_iters: 10_000,
            tl_eps: 1.0e-15,
            tl_preconditioner: false,
            tl_ch_cg_presteps: 30,
            tl_ppcg_inner_steps: 10,
            coefficient: Coefficient::Conductivity,
            halo_depth: 2,
            tl_resilience: true,
            tl_checkpoint_interval: 50,
            tl_divergence_factor: 1.0e12,
            tl_stagnation_window: 400,
            tl_max_recoveries: 3,
            tl_fallback_chain: Vec::new(),
            tl_chaos_seed: 0,
            tl_exchange_deadline: 0.25,
            tl_elastic_regrid: true,
            tl_power_model: true,
            tl_autotune: true,
            tl_idle_watts: None,
            tl_active_watts: None,
            states: vec![
                State::background(100.0, 0.0001),
                State {
                    density: 0.1,
                    energy: 25.0,
                    geometry: Geometry::Rectangle {
                        xmin: 0.0,
                        xmax: 1.0,
                        ymin: 1.0,
                        ymax: 2.0,
                    },
                },
                State {
                    density: 0.1,
                    energy: 0.1,
                    geometry: Geometry::Rectangle {
                        xmin: 1.0,
                        xmax: 6.0,
                        ymin: 1.0,
                        ymax: 2.0,
                    },
                },
            ],
        }
    }
}

impl TeaConfig {
    /// The paper's benchmark problem at an arbitrary square mesh size
    /// (§4 uses 4096×4096, the mesh-convergence point).
    pub fn paper_problem(cells: usize) -> Self {
        TeaConfig {
            x_cells: cells,
            y_cells: cells,
            ..TeaConfig::default()
        }
    }

    /// Build the [`crate::Mesh2d`] described by this configuration.
    pub fn mesh(&self) -> crate::mesh::Mesh2d {
        crate::mesh::Mesh2d::new(
            self.x_cells,
            self.y_cells,
            self.halo_depth,
            (self.xmin, self.xmax),
            (self.ymin, self.ymax),
        )
    }

    /// Parse a `tea.in`-format deck.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = TeaConfig {
            states: Vec::new(),
            ..TeaConfig::default()
        };
        let mut in_block = false;
        let mut saw_block_marker = false;
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let lower = line.to_ascii_lowercase();
            match lower.as_str() {
                "*tea" => {
                    in_block = true;
                    saw_block_marker = true;
                    continue;
                }
                "*endtea" => {
                    in_block = false;
                    continue;
                }
                _ => {}
            }
            if saw_block_marker && !in_block {
                continue; // content outside the *tea block is ignored
            }
            parse_line(&mut cfg, &lower).map_err(|kind| ConfigError { line: ln + 1, kind })?;
        }
        if cfg.states.is_empty() {
            cfg.states = TeaConfig::default().states;
        }
        if !matches!(cfg.states[0].geometry, Geometry::Background) {
            return Err(ConfigError {
                line: 0,
                kind: ErrorKind::MissingBackgroundState,
            });
        }
        Ok(cfg)
    }

    /// Check the semantic invariants a deck can violate even when it
    /// parses: mesh extent, tolerance, iteration budget, timestep and
    /// domain must all be usable. Called by `Problem::from_config` so a
    /// bad deck fails with a typed error instead of panicking deep in
    /// mesh setup.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        // NaN-safe strict ordering: NaN on either side is a violation.
        fn strictly_less(lo: f64, hi: f64) -> bool {
            matches!(lo.partial_cmp(&hi), Some(core::cmp::Ordering::Less))
        }
        if self.x_cells == 0 || self.y_cells == 0 {
            return Err(InvalidConfig::EmptyMesh {
                x_cells: self.x_cells,
                y_cells: self.y_cells,
            });
        }
        if !strictly_less(0.0, self.tl_eps) || !self.tl_eps.is_finite() {
            return Err(InvalidConfig::NonPositiveEps(self.tl_eps));
        }
        if self.tl_max_iters == 0 {
            return Err(InvalidConfig::ZeroMaxIters);
        }
        if !strictly_less(0.0, self.initial_timestep) || !self.initial_timestep.is_finite() {
            return Err(InvalidConfig::NonPositiveTimestep(self.initial_timestep));
        }
        if !strictly_less(self.xmin, self.xmax) || !strictly_less(self.ymin, self.ymax) {
            return Err(InvalidConfig::EmptyDomain {
                x: (self.xmin, self.xmax),
                y: (self.ymin, self.ymax),
            });
        }
        if self.halo_depth == 0 {
            return Err(InvalidConfig::ZeroHaloDepth);
        }
        if !strictly_less(1.0, self.tl_divergence_factor) {
            return Err(InvalidConfig::BadDivergenceFactor(
                self.tl_divergence_factor,
            ));
        }
        if !strictly_less(0.0, self.tl_exchange_deadline) || !self.tl_exchange_deadline.is_finite()
        {
            return Err(InvalidConfig::NonPositiveExchangeDeadline(
                self.tl_exchange_deadline,
            ));
        }
        for (key, watts) in [
            ("tl_idle_watts", self.tl_idle_watts),
            ("tl_active_watts", self.tl_active_watts),
        ] {
            if let Some(w) = watts {
                if !strictly_less(0.0, w) || !w.is_finite() {
                    return Err(InvalidConfig::NonPositiveWatts { key, watts: w });
                }
            }
        }
        if let (Some(idle), Some(active)) = (self.tl_idle_watts, self.tl_active_watts) {
            if !strictly_less(idle, active) && idle != active {
                return Err(InvalidConfig::IdleExceedsActiveWatts { idle, active });
            }
        }
        Ok(())
    }
}

/// A semantically unusable [`TeaConfig`] (parsed fine, cannot run).
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidConfig {
    /// `x_cells`/`y_cells` of zero describe no mesh.
    EmptyMesh { x_cells: usize, y_cells: usize },
    /// `tl_eps` must be a positive finite tolerance.
    NonPositiveEps(f64),
    /// `tl_max_iters == 0` gives every solver an empty iteration budget.
    ZeroMaxIters,
    /// `initial_timestep` must be positive and finite.
    NonPositiveTimestep(f64),
    /// The physical domain must have positive extent on both axes.
    EmptyDomain { x: (f64, f64), y: (f64, f64) },
    /// Zero halo depth leaves the stencils nothing to read.
    ZeroHaloDepth,
    /// The divergence sentinel factor must exceed 1.
    BadDivergenceFactor(f64),
    /// `tl_exchange_deadline` must be a positive finite duration.
    NonPositiveExchangeDeadline(f64),
    /// Watt overrides must be positive and finite.
    NonPositiveWatts { key: &'static str, watts: f64 },
    /// When both watt overrides are set, idle must not exceed active
    /// (the dynamic power `active − idle` would go negative).
    IdleExceedsActiveWatts { idle: f64, active: f64 },
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfig::EmptyMesh { x_cells, y_cells } => {
                write!(f, "mesh is empty: x_cells={x_cells}, y_cells={y_cells}")
            }
            InvalidConfig::NonPositiveEps(eps) => {
                write!(f, "tl_eps must be positive and finite, got {eps}")
            }
            InvalidConfig::ZeroMaxIters => write!(f, "tl_max_iters must be at least 1"),
            InvalidConfig::NonPositiveTimestep(dt) => {
                write!(f, "initial_timestep must be positive and finite, got {dt}")
            }
            InvalidConfig::EmptyDomain { x, y } => write!(
                f,
                "domain has no area: x=({}, {}), y=({}, {})",
                x.0, x.1, y.0, y.1
            ),
            InvalidConfig::ZeroHaloDepth => write!(f, "halo_depth must be at least 1"),
            InvalidConfig::BadDivergenceFactor(v) => {
                write!(f, "tl_divergence_factor must exceed 1, got {v}")
            }
            InvalidConfig::NonPositiveExchangeDeadline(v) => {
                write!(
                    f,
                    "tl_exchange_deadline must be positive and finite, got {v}"
                )
            }
            InvalidConfig::NonPositiveWatts { key, watts } => {
                write!(f, "{key} must be positive and finite, got {watts}")
            }
            InvalidConfig::IdleExceedsActiveWatts { idle, active } => {
                write!(
                    f,
                    "tl_idle_watts ({idle}) must not exceed tl_active_watts ({active})"
                )
            }
        }
    }
}

impl std::error::Error for InvalidConfig {}

/// Parse a comma-separated solver list (`tl_fallback_chain=cg,jacobi`).
fn parse_solver_list(value: &str) -> Option<Vec<SolverKind>> {
    value
        .split(',')
        .map(|s| match s.trim() {
            "jacobi" => Some(SolverKind::Jacobi),
            "cg" => Some(SolverKind::ConjugateGradient),
            "chebyshev" | "cheby" => Some(SolverKind::Chebyshev),
            "ppcg" => Some(SolverKind::Ppcg),
            _ => None,
        })
        .collect()
}

/// Error from [`TeaConfig::parse`], carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    pub line: usize,
    pub kind: ErrorKind,
}

/// The specific parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    UnknownKeyword(String),
    BadValue { key: String, value: String },
    BadState(String),
    MissingBackgroundState,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnknownKeyword(k) => write!(f, "line {}: unknown keyword '{k}'", self.line),
            ErrorKind::BadValue { key, value } => {
                write!(f, "line {}: bad value '{value}' for '{key}'", self.line)
            }
            ErrorKind::BadState(m) => write!(f, "line {}: bad state: {m}", self.line),
            ErrorKind::MissingBackgroundState => {
                write!(f, "state 1 must be the background state (no geometry)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn strip_comment(line: &str) -> &str {
    match line.find(['!', '#']) {
        Some(p) => &line[..p],
        None => line,
    }
}

fn parse_num<T: FromStr>(key: &str, value: &str) -> Result<T, ErrorKind> {
    value.parse::<T>().map_err(|_| ErrorKind::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    })
}

fn parse_line(cfg: &mut TeaConfig, line: &str) -> Result<(), ErrorKind> {
    if let Some(rest) = line.strip_prefix("state ") {
        return parse_state(cfg, rest);
    }
    // bare switches
    match line {
        "tl_use_jacobi" => {
            cfg.solver = SolverKind::Jacobi;
            return Ok(());
        }
        "tl_use_cg" => {
            cfg.solver = SolverKind::ConjugateGradient;
            return Ok(());
        }
        "tl_use_chebyshev" => {
            cfg.solver = SolverKind::Chebyshev;
            return Ok(());
        }
        "tl_use_ppcg" => {
            cfg.solver = SolverKind::Ppcg;
            return Ok(());
        }
        "tl_preconditioner_on" => {
            cfg.tl_preconditioner = true;
            return Ok(());
        }
        "tl_resilience_on" => {
            cfg.tl_resilience = true;
            return Ok(());
        }
        "tl_resilience_off" => {
            cfg.tl_resilience = false;
            return Ok(());
        }
        "use_c_kernels" | "profiler_on" | "verbose_on" | "tl_check_result" => return Ok(()),
        _ => {}
    }
    let (key, value) = match line.split_once('=') {
        Some((k, v)) => (k.trim(), v.trim()),
        None => return Err(ErrorKind::UnknownKeyword(line.to_string())),
    };
    match key {
        "x_cells" => cfg.x_cells = parse_num(key, value)?,
        "y_cells" => cfg.y_cells = parse_num(key, value)?,
        "xmin" => cfg.xmin = parse_num(key, value)?,
        "xmax" => cfg.xmax = parse_num(key, value)?,
        "ymin" => cfg.ymin = parse_num(key, value)?,
        "ymax" => cfg.ymax = parse_num(key, value)?,
        "initial_timestep" => cfg.initial_timestep = parse_num(key, value)?,
        "end_step" => cfg.end_step = parse_num(key, value)?,
        "end_time" => {} // accepted for deck compatibility; stepping is by end_step
        "tl_max_iters" => cfg.tl_max_iters = parse_num(key, value)?,
        "tl_eps" => cfg.tl_eps = parse_num(key, value)?,
        "tl_ch_cg_presteps" => cfg.tl_ch_cg_presteps = parse_num(key, value)?,
        "tl_ppcg_inner_steps" => cfg.tl_ppcg_inner_steps = parse_num(key, value)?,
        "halo_depth" => cfg.halo_depth = parse_num(key, value)?,
        "tl_checkpoint_interval" => cfg.tl_checkpoint_interval = parse_num(key, value)?,
        "tl_divergence_factor" => cfg.tl_divergence_factor = parse_num(key, value)?,
        "tl_stagnation_window" => cfg.tl_stagnation_window = parse_num(key, value)?,
        "tl_max_recoveries" => cfg.tl_max_recoveries = parse_num(key, value)?,
        "tl_chaos_seed" => cfg.tl_chaos_seed = parse_num(key, value)?,
        "tl_exchange_deadline" => cfg.tl_exchange_deadline = parse_num(key, value)?,
        "tl_elastic_regrid" => {
            cfg.tl_elastic_regrid = match value {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                _ => {
                    return Err(ErrorKind::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                }
            };
        }
        "tl_autotune" => {
            cfg.tl_autotune = match value {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                _ => {
                    return Err(ErrorKind::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                }
            };
        }
        "tl_idle_watts" => cfg.tl_idle_watts = Some(parse_num(key, value)?),
        "tl_active_watts" => cfg.tl_active_watts = Some(parse_num(key, value)?),
        "tl_power_model" => {
            cfg.tl_power_model = match value {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                _ => {
                    return Err(ErrorKind::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                }
            };
        }
        "tl_resilience" => {
            cfg.tl_resilience = match value {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                _ => {
                    return Err(ErrorKind::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                }
            };
        }
        "tl_fallback_chain" => {
            cfg.tl_fallback_chain =
                parse_solver_list(value).ok_or_else(|| ErrorKind::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })?;
        }
        "tl_preconditioner_type" => {
            cfg.tl_preconditioner = matches!(value, "jac_diag" | "jacobi" | "on");
        }
        "tl_coefficient" | "coefficient" => {
            cfg.coefficient = match value {
                "density" | "conductivity" => Coefficient::Conductivity,
                "recip_density" | "recip_conductivity" => Coefficient::RecipConductivity,
                _ => {
                    return Err(ErrorKind::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                }
            };
        }
        _ => return Err(ErrorKind::UnknownKeyword(key.to_string())),
    }
    Ok(())
}

fn parse_state(cfg: &mut TeaConfig, rest: &str) -> Result<(), ErrorKind> {
    let mut parts = rest.split_whitespace();
    let _index: usize = parts
        .next()
        .ok_or_else(|| ErrorKind::BadState("missing state number".into()))?
        .parse()
        .map_err(|_| ErrorKind::BadState("state number must be an integer".into()))?;

    let mut density = None;
    let mut energy = None;
    let mut geometry_kind: Option<String> = None;
    let (mut gxmin, mut gxmax, mut gymin, mut gymax) = (0.0, 0.0, 0.0, 0.0);
    let mut radius = 0.0;

    for tok in parts {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| ErrorKind::BadState(format!("expected key=value, got '{tok}'")))?;
        match k {
            "density" => density = Some(parse_num::<f64>(k, v)?),
            "energy" => energy = Some(parse_num::<f64>(k, v)?),
            "geometry" => geometry_kind = Some(v.to_string()),
            "xmin" => gxmin = parse_num(k, v)?,
            "xmax" => gxmax = parse_num(k, v)?,
            "ymin" => gymin = parse_num(k, v)?,
            "ymax" => gymax = parse_num(k, v)?,
            "radius" => radius = parse_num(k, v)?,
            _ => return Err(ErrorKind::BadState(format!("unknown state key '{k}'"))),
        }
    }
    let density = density.ok_or_else(|| ErrorKind::BadState("state needs density".into()))?;
    let energy = energy.ok_or_else(|| ErrorKind::BadState("state needs energy".into()))?;
    let geometry = match geometry_kind.as_deref() {
        None => Geometry::Background,
        Some("rectangle") => Geometry::Rectangle {
            xmin: gxmin,
            xmax: gxmax,
            ymin: gymin,
            ymax: gymax,
        },
        Some("circle") | Some("circular") => Geometry::Circle {
            cx: gxmin,
            cy: gymin,
            radius,
        },
        Some("point") => Geometry::Point { x: gxmin, y: gymin },
        Some(other) => return Err(ErrorKind::BadState(format!("unknown geometry '{other}'"))),
    };
    cfg.states.push(State {
        density,
        energy,
        geometry,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = r#"
*tea
! the benchmark deck
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
x_cells=512
y_cells=256
xmin=0.0
xmax=10.0
ymin=0.0
ymax=5.0
initial_timestep=0.004
end_step=8
tl_max_iters=5000
tl_use_ppcg
tl_eps=1.0e-12
tl_ppcg_inner_steps=12
*endtea
"#;

    #[test]
    fn parses_full_deck() {
        let cfg = TeaConfig::parse(DECK).unwrap();
        assert_eq!(cfg.x_cells, 512);
        assert_eq!(cfg.y_cells, 256);
        assert_eq!(cfg.ymax, 5.0);
        assert_eq!(cfg.end_step, 8);
        assert_eq!(cfg.solver, SolverKind::Ppcg);
        assert_eq!(cfg.tl_eps, 1.0e-12);
        assert_eq!(cfg.tl_ppcg_inner_steps, 12);
        assert_eq!(cfg.states.len(), 2);
        assert_eq!(cfg.states[1].density, 0.1);
    }

    #[test]
    fn defaults_without_deck_content() {
        let cfg = TeaConfig::parse("*tea\n*endtea\n").unwrap();
        assert_eq!(
            cfg,
            TeaConfig {
                ..TeaConfig::default()
            }
        );
    }

    #[test]
    fn comments_stripped() {
        let cfg = TeaConfig::parse("x_cells=64 ! trailing comment\n# whole line\n").unwrap();
        assert_eq!(cfg.x_cells, 64);
    }

    #[test]
    fn unknown_keyword_reports_line() {
        let err = TeaConfig::parse("\nbogus_key=1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ErrorKind::UnknownKeyword(_)));
    }

    #[test]
    fn bad_value_reported() {
        let err = TeaConfig::parse("x_cells=many\n").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::BadValue { .. }));
    }

    #[test]
    fn solver_switches() {
        for (line, solver) in [
            ("tl_use_jacobi", SolverKind::Jacobi),
            ("tl_use_cg", SolverKind::ConjugateGradient),
            ("tl_use_chebyshev", SolverKind::Chebyshev),
            ("tl_use_ppcg", SolverKind::Ppcg),
        ] {
            assert_eq!(TeaConfig::parse(line).unwrap().solver, solver);
        }
    }

    #[test]
    fn circle_state() {
        let cfg =
            TeaConfig::parse("state 1 density=1.0 energy=1.0\nstate 2 density=2.0 energy=2.0 geometry=circle xmin=5.0 ymin=5.0 radius=1.5\n")
                .unwrap();
        assert_eq!(
            cfg.states[1].geometry,
            Geometry::Circle {
                cx: 5.0,
                cy: 5.0,
                radius: 1.5
            }
        );
    }

    #[test]
    fn coefficient_parsing() {
        let cfg = TeaConfig::parse("tl_coefficient=recip_density\n").unwrap();
        assert_eq!(cfg.coefficient, Coefficient::RecipConductivity);
    }

    #[test]
    fn state_missing_density_fails() {
        let err = TeaConfig::parse("state 1 energy=1.0\n").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::BadState(_)));
    }

    #[test]
    fn mesh_construction() {
        let cfg = TeaConfig::parse(DECK).unwrap();
        let mesh = cfg.mesh();
        assert_eq!(mesh.x_cells, 512);
        assert_eq!(mesh.y_cells, 256);
        assert_eq!(mesh.halo_depth, 2);
    }

    // ---- edge cases ----

    #[test]
    fn keywords_are_case_insensitive() {
        let cfg = TeaConfig::parse("*TEA\nX_CELLS=32\nTL_USE_CHEBYSHEV\n*ENDTEA\n").unwrap();
        assert_eq!(cfg.x_cells, 32);
        assert_eq!(cfg.solver, SolverKind::Chebyshev);
    }

    #[test]
    fn whitespace_around_equals_is_accepted() {
        let cfg = TeaConfig::parse("x_cells = 48\n  tl_eps =  1.0e-9  \n").unwrap();
        assert_eq!(cfg.x_cells, 48);
        assert_eq!(cfg.tl_eps, 1.0e-9);
    }

    #[test]
    fn content_outside_tea_block_is_ignored() {
        // Upstream decks carry unrelated sections after *endtea; none of
        // it may leak into (or fail) the parse.
        let cfg = TeaConfig::parse(
            "*tea\nx_cells=40\n*endtea\nsome_other_section=1\nutter nonsense here\n",
        )
        .unwrap();
        assert_eq!(cfg.x_cells, 40);
    }

    #[test]
    fn unspecified_keys_keep_tealeaf_defaults() {
        // A deck that only sets the mesh must leave every solver control
        // at the upstream default.
        let cfg = TeaConfig::parse("*tea\nx_cells=64\ny_cells=64\n*endtea\n").unwrap();
        let default = TeaConfig::default();
        assert_eq!(cfg.tl_eps, default.tl_eps);
        assert_eq!(cfg.tl_max_iters, default.tl_max_iters);
        assert_eq!(cfg.solver, default.solver);
        assert_eq!(cfg.tl_ch_cg_presteps, default.tl_ch_cg_presteps);
        assert_eq!(cfg.coefficient, default.coefficient);
        assert_eq!(cfg.states, default.states);
    }

    #[test]
    fn compatibility_keys_are_accepted_and_ignored() {
        let cfg = TeaConfig::parse(
            "end_time=10.0\nuse_c_kernels\nprofiler_on\nverbose_on\ntl_check_result\n",
        )
        .unwrap();
        assert_eq!(cfg, TeaConfig::default());
    }

    #[test]
    fn preconditioner_type_values() {
        for (value, on) in [("jac_diag", true), ("jacobi", true), ("none", false)] {
            let cfg = TeaConfig::parse(&format!("tl_preconditioner_type={value}\n")).unwrap();
            assert_eq!(cfg.tl_preconditioner, on, "{value}");
        }
        assert!(
            TeaConfig::parse("tl_preconditioner_on\n")
                .unwrap()
                .tl_preconditioner
        );
    }

    #[test]
    fn first_state_must_be_background() {
        let err = TeaConfig::parse(
            "state 1 density=1.0 energy=1.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=0.0 ymax=1.0\n",
        )
        .unwrap_err();
        assert!(matches!(err.kind, ErrorKind::MissingBackgroundState));
    }

    #[test]
    fn unknown_geometry_rejected_with_line() {
        let err = TeaConfig::parse(
            "state 1 density=1.0 energy=1.0\nstate 2 density=1.0 energy=1.0 geometry=hexagon\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ErrorKind::BadState(_)));
    }

    #[test]
    fn state_number_must_be_an_integer() {
        let err = TeaConfig::parse("state one density=1.0 energy=1.0\n").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::BadState(_)));
    }

    #[test]
    fn point_geometry_parses() {
        let cfg = TeaConfig::parse(
            "state 1 density=1.0 energy=1.0\nstate 2 density=2.0 energy=3.0 geometry=point xmin=4.5 ymin=7.25\n",
        )
        .unwrap();
        assert_eq!(cfg.states[1].geometry, Geometry::Point { x: 4.5, y: 7.25 });
    }

    #[test]
    fn hash_comments_strip_mid_line() {
        let cfg = TeaConfig::parse("y_cells=96 # the mesh\ntl_use_jacobi # solver\n").unwrap();
        assert_eq!(cfg.y_cells, 96);
        assert_eq!(cfg.solver, SolverKind::Jacobi);
    }

    #[test]
    fn paper_scale_deck_overrides_every_default() {
        // The §4 mesh-convergence deck: 4096² at eps 1e-15 over 10 steps.
        let cfg = TeaConfig::parse(
            "*tea\nstate 1 density=100.0 energy=0.0001\n\
             state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0\n\
             x_cells=4096\ny_cells=4096\nend_step=10\ntl_max_iters=10000\n\
             tl_use_cg\ntl_eps=1.0e-15\n*endtea\n",
        )
        .unwrap();
        assert_eq!((cfg.x_cells, cfg.y_cells), (4096, 4096));
        assert_eq!(cfg.end_step, 10);
        assert_eq!(cfg.tl_eps, 1.0e-15);
        assert_eq!(cfg.solver, SolverKind::ConjugateGradient);
        assert_eq!(cfg.states.len(), 2);
    }

    #[test]
    fn resilience_keys_parse() {
        let cfg = TeaConfig::parse(
            "tl_checkpoint_interval=25\ntl_divergence_factor=1.0e9\n\
             tl_stagnation_window=120\ntl_max_recoveries=5\n\
             tl_fallback_chain=cg,jacobi\ntl_resilience=off\n",
        )
        .unwrap();
        assert_eq!(cfg.tl_checkpoint_interval, 25);
        assert_eq!(cfg.tl_divergence_factor, 1.0e9);
        assert_eq!(cfg.tl_stagnation_window, 120);
        assert_eq!(cfg.tl_max_recoveries, 5);
        assert_eq!(
            cfg.tl_fallback_chain,
            vec![SolverKind::ConjugateGradient, SolverKind::Jacobi]
        );
        assert!(!cfg.tl_resilience);
        assert!(
            !TeaConfig::parse("tl_resilience_off\n")
                .unwrap()
                .tl_resilience
        );
        assert!(
            TeaConfig::parse("tl_resilience_on\n")
                .unwrap()
                .tl_resilience
        );
        assert!(TeaConfig::parse("tl_fallback_chain=warp_drive\n").is_err());
        assert!(TeaConfig::parse("tl_resilience=maybe\n").is_err());
    }

    #[test]
    fn chaos_keys_parse_validate_and_reject_junk() {
        let cfg = TeaConfig::parse(
            "tl_chaos_seed=18446744073709551615\ntl_exchange_deadline=0.05\n\
             tl_elastic_regrid=off\n",
        )
        .unwrap();
        assert_eq!(cfg.tl_chaos_seed, u64::MAX);
        assert_eq!(cfg.tl_exchange_deadline, 0.05);
        assert!(!cfg.tl_elastic_regrid);
        assert!(cfg.validate().is_ok());

        // defaults: seed 0, a quarter-second deadline, regrid allowed
        let d = TeaConfig::default();
        assert_eq!(d.tl_chaos_seed, 0);
        assert_eq!(d.tl_exchange_deadline, 0.25);
        assert!(d.tl_elastic_regrid);

        // every truthy/falsy spelling of the regrid switch
        for (value, want) in [("on", true), ("true", true), ("1", true)] {
            let cfg = TeaConfig::parse(&format!("tl_elastic_regrid={value}\n")).unwrap();
            assert_eq!(cfg.tl_elastic_regrid, want);
        }
        for value in ["false", "0"] {
            let cfg = TeaConfig::parse(&format!("tl_elastic_regrid={value}\n")).unwrap();
            assert!(!cfg.tl_elastic_regrid);
        }

        // parser edge cases: junk values are typed BadValue errors
        for deck in [
            "tl_chaos_seed=-1\n",
            "tl_chaos_seed=0x2a\n",
            "tl_chaos_seed=\n",
            "tl_exchange_deadline=soon\n",
            "tl_elastic_regrid=maybe\n",
            "tl_elastic_regrid=\n",
        ] {
            let err = TeaConfig::parse(deck).expect_err(deck);
            assert!(
                matches!(err.kind, ErrorKind::BadValue { .. }),
                "{deck} must be a typed BadValue, got {err:?}"
            );
        }

        // validation: the deadline must be a positive finite duration
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let cfg = TeaConfig {
                tl_exchange_deadline: bad,
                ..TeaConfig::default()
            };
            assert!(
                matches!(
                    cfg.validate(),
                    Err(InvalidConfig::NonPositiveExchangeDeadline(_))
                ),
                "deadline {bad} must be rejected"
            );
        }
        // the parser accepts a negative deadline; validate() is the gate
        let parsed = TeaConfig::parse("tl_exchange_deadline=-2.0\n").unwrap();
        assert!(matches!(
            parsed.validate(),
            Err(InvalidConfig::NonPositiveExchangeDeadline(_))
        ));
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_degenerate_configs() {
        fn with(mutate: impl FnOnce(&mut TeaConfig)) -> TeaConfig {
            let mut cfg = TeaConfig::default();
            mutate(&mut cfg);
            cfg
        }

        assert_eq!(TeaConfig::default().validate(), Ok(()));

        assert!(matches!(
            with(|c| c.x_cells = 0).validate(),
            Err(InvalidConfig::EmptyMesh { x_cells: 0, .. })
        ));

        for bad_eps in [0.0, -1.0e-10, f64::NAN] {
            assert!(matches!(
                with(|c| c.tl_eps = bad_eps).validate(),
                Err(InvalidConfig::NonPositiveEps(_))
            ));
        }

        assert_eq!(
            with(|c| c.tl_max_iters = 0).validate(),
            Err(InvalidConfig::ZeroMaxIters)
        );

        assert!(matches!(
            with(|c| c.initial_timestep = -0.5).validate(),
            Err(InvalidConfig::NonPositiveTimestep(_))
        ));

        assert!(matches!(
            with(|c| c.xmax = c.xmin).validate(),
            Err(InvalidConfig::EmptyDomain { .. })
        ));

        assert_eq!(
            with(|c| c.halo_depth = 0).validate(),
            Err(InvalidConfig::ZeroHaloDepth)
        );

        assert!(matches!(
            with(|c| c.tl_divergence_factor = 1.0).validate(),
            Err(InvalidConfig::BadDivergenceFactor(_))
        ));

        // every variant renders a message
        for err in [
            InvalidConfig::EmptyMesh {
                x_cells: 0,
                y_cells: 4,
            },
            InvalidConfig::NonPositiveEps(-1.0),
            InvalidConfig::ZeroMaxIters,
            InvalidConfig::NonPositiveTimestep(0.0),
            InvalidConfig::EmptyDomain {
                x: (0.0, 0.0),
                y: (0.0, 1.0),
            },
            InvalidConfig::ZeroHaloDepth,
            InvalidConfig::BadDivergenceFactor(0.5),
            InvalidConfig::NonPositiveExchangeDeadline(0.0),
            InvalidConfig::NonPositiveWatts {
                key: "tl_idle_watts",
                watts: -5.0,
            },
            InvalidConfig::IdleExceedsActiveWatts {
                idle: 300.0,
                active: 200.0,
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn power_keys_parse_validate_and_reject_junk() {
        let cfg =
            TeaConfig::parse("tl_power_model=off\ntl_idle_watts=42.5\ntl_active_watts=180.0\n")
                .unwrap();
        assert!(!cfg.tl_power_model);
        assert_eq!(cfg.tl_idle_watts, Some(42.5));
        assert_eq!(cfg.tl_active_watts, Some(180.0));
        assert!(cfg.validate().is_ok());

        // defaults: power model on, no watt overrides
        let d = TeaConfig::default();
        assert!(d.tl_power_model);
        assert_eq!(d.tl_idle_watts, None);
        assert_eq!(d.tl_active_watts, None);

        // every truthy/falsy spelling of the switch
        for (value, want) in [
            ("on", true),
            ("true", true),
            ("1", true),
            ("off", false),
            ("false", false),
            ("0", false),
        ] {
            let cfg = TeaConfig::parse(&format!("tl_power_model={value}\n")).unwrap();
            assert_eq!(cfg.tl_power_model, want, "{value}");
        }

        // parser edge cases: junk values are typed BadValue errors
        for deck in [
            "tl_power_model=maybe\n",
            "tl_power_model=\n",
            "tl_idle_watts=warm\n",
            "tl_idle_watts=\n",
            "tl_active_watts=12W\n",
        ] {
            let err = TeaConfig::parse(deck).expect_err(deck);
            assert!(
                matches!(err.kind, ErrorKind::BadValue { .. }),
                "{deck} must be a typed BadValue, got {err:?}"
            );
        }

        // validation: watt overrides must be positive and finite…
        for bad in [0.0, -70.0, f64::NAN, f64::INFINITY] {
            let cfg = TeaConfig {
                tl_idle_watts: Some(bad),
                ..TeaConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(InvalidConfig::NonPositiveWatts { .. })),
                "idle watts {bad} must be rejected"
            );
            let cfg = TeaConfig {
                tl_active_watts: Some(bad),
                ..TeaConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(InvalidConfig::NonPositiveWatts { .. })),
                "active watts {bad} must be rejected"
            );
        }
        // …and idle must not exceed active when both are set
        let inverted = TeaConfig {
            tl_idle_watts: Some(250.0),
            tl_active_watts: Some(100.0),
            ..TeaConfig::default()
        };
        assert!(matches!(
            inverted.validate(),
            Err(InvalidConfig::IdleExceedsActiveWatts { .. })
        ));
        // equal idle and active (a constant-power board) is allowed
        let flat = TeaConfig {
            tl_idle_watts: Some(150.0),
            tl_active_watts: Some(150.0),
            ..TeaConfig::default()
        };
        assert!(flat.validate().is_ok());

        // the parser accepts a negative override; validate() is the gate
        let parsed = TeaConfig::parse("tl_active_watts=-1.0\n").unwrap();
        assert!(matches!(
            parsed.validate(),
            Err(InvalidConfig::NonPositiveWatts { .. })
        ));
    }

    #[test]
    fn empty_deck_is_the_default_problem() {
        let cfg = TeaConfig::parse("").unwrap();
        assert_eq!(cfg, TeaConfig::default());
        let cfg = TeaConfig::parse("\n\n   \n! only comments\n").unwrap();
        assert_eq!(cfg, TeaConfig::default());
    }
}
