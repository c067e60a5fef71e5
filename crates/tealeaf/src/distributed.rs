//! Distributed (multi-tile) TeaLeaf over the MPI-like layer.
//!
//! The paper's models are node-level; "inter-node communications … is
//! handled with MPI in TeaLeaf" (§3). This module supplies that layer for
//! the reproduction: the global mesh is decomposed over a 2-D Cartesian
//! [`Grid2d`] of [`mpisim`] ranks, one rectangular [`Tile`] each. Each
//! rank wraps its tile in a [`TilePort`] and runs the same step loop and
//! the same solvers ([`crate::solver`]) a serial port runs — Jacobi, CG,
//! Chebyshev and PPCG, sentinels included. The port exchanges halos with
//! up to eight neighbours (four edges, four corners) per stencil pass,
//! charging each exchange as overlapped with the pass's interior on the
//! logical clock, and combines reductions with the exactly-ordered carry
//! pipeline in [`crate::tile`].
//!
//! This module owns what is specific to a world of ranks: setting the
//! world up, checking that every rank agrees on the result, the
//! checkpoint rings, and the restart/regrid ladder of faulty runs. Every
//! run goes through [`run_distributed`], configured by one
//! [`DistributedSpec`].
//!
//! ## Bit-identity
//!
//! Ranks own contiguous rectangles, reductions are carry-pipelined west
//! to east and folded in rank order (= global row order, thanks to the
//! row-major rank numbering), and ghost cells hold exactly the serial
//! padded-mesh values after every exchange — so a distributed run on any
//! `tiles_x × tiles_y` grid is bit-identical to the serial reference
//! (asserted by the integration tests and the conformance goldens).
//! With [`DistributedSpec::overlap`] off every exchange is charged before
//! its stencil pass, so tests can assert the overlap changes no bit, and
//! [`OverlapStats`] reports what each window hid in deterministic logical
//! units.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mpisim::{
    run_spmd, run_spmd_faulty, ExchangeMetrics, FaultDiagnostic, FaultSpec, Grid2d, Rank,
};
use tea_core::config::TeaConfig;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;
use tea_telemetry::{Record, TelemetrySink};

use crate::driver::{run_steps, StepResume};
use crate::kernels::TeaLeafPort;
use crate::ports::tile::TilePort;
use crate::resilience::{PhaseStart, RecoveryAction, RecoveryEvent, SolverHealth};
use crate::solver;
use crate::tile::{self, OverlapStats, Tile, TileGeom};

/// Result of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    pub ranks: usize,
    pub total_iterations: usize,
    pub converged: bool,
    pub summary: Summary,
    /// Eigenvalue estimate from the last step (Chebyshev/PPCG).
    pub eigenvalues: Option<(f64, f64)>,
    /// Every sentinel trip, as `(step, event)` (empty on healthy runs).
    pub health: Vec<(usize, SolverHealth)>,
    /// The step an unrecoverable solve died on; `None` when the run
    /// completed every step.
    pub failed_step: Option<usize>,
}

/// How to run one distributed solve of a deck.
#[derive(Debug, Clone)]
pub struct DistributedSpec {
    /// `(tiles_x, tiles_y)`: the rank grid, ranks numbered row-major.
    pub tiles: (usize, usize),
    /// Charge each halo exchange as overlapped with its pass's interior
    /// on the logical clock. Off charges every exchange before its
    /// stencil pass — bit-identical by construction, so tests and
    /// benchmarks can assert and measure it.
    pub overlap: bool,
    /// `None` runs the reliable world with no checkpoint store. `Some`
    /// runs over the fault-injected transport under the self-healing
    /// driver: checkpoint rings every `tl_checkpoint_interval`
    /// iterations, up to `tl_max_recoveries` world restarts per grid
    /// level, and — when `tl_elastic_regrid` allows — re-decomposition
    /// onto a smaller grid when a rank stays dead. A deck with no restart
    /// budget and no regrid gets exactly one attempt under the spec's
    /// seed.
    pub faults: Option<FaultSpec>,
    /// Rank 0 traces the shared solver loop's spans and an `exchange`,
    /// `interior` and `boundary` span per halo window on the logical
    /// clock; the driver adds restart and regrid events.
    pub sink: TelemetrySink,
}

impl DistributedSpec {
    /// A fault-free, overlapped, untraced run on `tiles_x × tiles_y`.
    pub fn new(tiles_x: usize, tiles_y: usize) -> Self {
        DistributedSpec {
            tiles: (tiles_x, tiles_y),
            overlap: true,
            faults: None,
            sink: TelemetrySink::disabled(),
        }
    }
}

/// What one distributed run produced: the global report (identical on
/// every rank, and bit-identical to the serial reference), the merged
/// overlap accounting and per-direction exchange counters of the
/// attempt that finished, and the recovery log (empty for a fault-free
/// run).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedRun {
    pub report: DistributedReport,
    pub overlap: OverlapStats,
    pub exchange: ExchangeMetrics,
    pub recovery: RecoveryLog,
}

// ---------------------------------------------------------------------------
// the SPMD body
// ---------------------------------------------------------------------------

/// One rank's run: a tile port driven through the shared step loop, one
/// solve attempt per step (distributed runs have no fallback chain).
/// Rank 0 traces into `sink`. With a `store` the port saves checkpoint
/// cuts into it; `resume` replays from one, skipping the start-of-run
/// exchanges and the dead step prefix — the snapshot already holds those
/// bits.
fn body(
    rank: &Rank,
    grid: Grid2d,
    config: &TeaConfig,
    overlap: bool,
    sink: &TelemetrySink,
    store: Option<&CheckpointStore>,
    resume: Option<&TileCheckpoint>,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    let mut port = match resume {
        Some(ck) => TilePort::with_tile(rank, ck.tile.clone(), overlap),
        None => TilePort::new(rank, config, grid, overlap),
    };
    if rank.id() == 0 {
        port.context_mut().set_telemetry(sink.clone());
    }
    let at = resume.map(|ck| StepResume {
        step: ck.key.0,
        total_iterations: ck.total_iterations,
        converged: ck.converged_all,
        phase: ck.phase.clone(),
    });
    if let Some(store) = store {
        let step = at
            .as_ref()
            .map_or((1, 0, true), |r| (r.step, r.total_iterations, r.converged));
        port.keep_cuts(store, config.tl_checkpoint_interval, step);
    }
    let (rx, ry) = port.tile().geom.rx_ry;
    let steps = run_steps(&mut port, config, rx, ry, at, solver::solve_once);
    let summary = port.field_summary();
    let (stats, metrics) = port.instrumentation();
    let report = DistributedReport {
        ranks: rank.size(),
        total_iterations: steps.total_iterations,
        converged: steps.converged,
        summary,
        eigenvalues: steps.eigenvalues,
        health: steps.health,
        failed_step: steps.failed_step,
    };
    (report, stats, metrics)
}

// ---------------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------------

/// Every rank must report the same global result; merge the per-rank
/// instrumentation.
fn agree(
    results: Vec<(DistributedReport, OverlapStats, ExchangeMetrics)>,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    let first = results[0].0.clone();
    let mut stats = OverlapStats::default();
    let mut metrics = ExchangeMetrics::default();
    for (r, s, m) in &results {
        assert_eq!(*r, first, "ranks must agree on the global result");
        stats.merge(s);
        metrics.merge(m);
    }
    (first, stats, metrics)
}

/// Solve the configured problem with the deck's solver as `spec` says.
///
/// Without faults this always returns `Ok`. With faults, either the
/// report is bit-identical to the fault-free run's (after an elastic
/// regrid only `ranks` shrinks with the world), or the run aborts loudly
/// with a [`FaultDiagnostic`] — never a silently wrong answer.
///
/// # Panics
///
/// On the calling thread, before any rank starts, if the grid's smallest
/// tile cannot carry the deck's `halo_depth`.
pub fn run_distributed(
    config: &TeaConfig,
    spec: &DistributedSpec,
) -> Result<DistributedRun, FaultDiagnostic> {
    let grid = Grid2d::new(spec.tiles.0, spec.tiles.1);
    tile::check_grid(config, grid);
    let Some(faults) = spec.faults else {
        let results = run_spmd(grid.ranks(), |rank| {
            body(rank, grid, config, spec.overlap, &spec.sink, None, None)
        });
        let (report, overlap, exchange) = agree(results);
        return Ok(DistributedRun {
            report,
            overlap,
            exchange,
            recovery: RecoveryLog {
                final_grid: spec.tiles,
                ..RecoveryLog::default()
            },
        });
    };
    resilient_core(grid, config, spec, faults)
}

/// A fault-free run's report and instrumentation. Pinned by the
/// host-clock benchmark (`hostbench/`), which calls it by this
/// signature; new code calls [`run_distributed`].
pub fn run_distributed_solver_instrumented(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    overlap: bool,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    let spec = DistributedSpec {
        overlap,
        ..DistributedSpec::new(tiles_x, tiles_y)
    };
    let run = run_distributed(config, &spec).expect("a fault-free run cannot abort");
    (run.report, run.overlap, run.exchange)
}

/// A fault-free overlapped run with rank 0's trace collected. Pinned by
/// the host-clock benchmark (`hostbench/`), which calls it by this
/// signature; new code calls [`run_distributed`].
pub fn run_distributed_solver_traced(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
) -> (
    DistributedReport,
    OverlapStats,
    ExchangeMetrics,
    Vec<Record>,
) {
    let (sink, collector) = TelemetrySink::collecting();
    let spec = DistributedSpec {
        sink,
        ..DistributedSpec::new(tiles_x, tiles_y)
    };
    let run = run_distributed(config, &spec).expect("a fault-free run cannot abort");
    (run.report, run.overlap, run.exchange, collector.records())
}

// ---------------------------------------------------------------------------
// checkpoint/restart and elastic re-decomposition
// ---------------------------------------------------------------------------

/// How many checkpoints each rank's ring keeps. Ranks run in lockstep
/// (every solver iteration has ordered allreduces), so any two ranks'
/// latest checkpoints are at most one interval apart — a ring of a few
/// entries always contains a key common to all ranks.
const CHECKPOINT_KEEP: usize = 4;

/// Checkpoint key: `(step, phase, iteration)`, ordered lexicographically
/// so "latest" means furthest through the run. Phase 0 is the step cut
/// (iteration 0, taken before `init_fields`); phase 1 the cuts of the
/// solve's first CG phase — plain CG, or the presteps of Chebyshev and
/// PPCG — at their loop-top iteration. Tuple order is execution order.
pub type CkptKey = (usize, u8, usize);

/// One rank's checkpoint: the complete tile (halo cells included), the
/// run totals at the top of its step and, for a phase cut, the CG phase
/// state to resume from. The phase state comes from global exactly
/// ordered reductions, so every rank stores identical values — which is
/// what lets an elastic re-decomposition seed a *different* number of
/// ranks from one rank's cut.
#[derive(Clone)]
pub(crate) struct TileCheckpoint {
    pub key: CkptKey,
    pub total_iterations: usize,
    pub converged_all: bool,
    pub phase: Option<PhaseStart>,
    pub tile: Tile,
}

impl TileCheckpoint {
    /// Field bytes this snapshot restores into a restarted rank — the
    /// unit of the recovery log's "bytes replayed" ledger.
    fn payload_bytes(&self) -> u64 {
        self.tile.f.resident_bytes()
    }
}

/// Shared checkpoint registry for one resilient distributed run: one
/// bounded ring of [`TileCheckpoint`]s per rank, written by the rank
/// threads mid-solve and read by the restart loop after a world dies.
pub struct CheckpointStore {
    slots: Vec<Mutex<VecDeque<TileCheckpoint>>>,
    saves: AtomicU64,
}

impl CheckpointStore {
    fn new(ranks: usize) -> Self {
        CheckpointStore {
            slots: (0..ranks).map(|_| Mutex::new(VecDeque::new())).collect(),
            saves: AtomicU64::new(0),
        }
    }

    pub(crate) fn save(&self, rank: usize, ck: TileCheckpoint) {
        self.saves.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.slots[rank].lock().expect("checkpoint lock");
        // A restarted attempt re-saves the same keys with identical bits
        // (the replay is deterministic); replace rather than duplicate.
        ring.retain(|c| c.key != ck.key);
        ring.push_back(ck);
        while ring.len() > CHECKPOINT_KEEP {
            ring.pop_front();
        }
    }

    /// Checkpoints written so far (re-saves of a replayed key included).
    fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Every rank's ring keys, oldest first.
    fn keys(&self) -> Vec<Vec<CkptKey>> {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("checkpoint lock")
                    .iter()
                    .map(|c| c.key)
                    .collect()
            })
            .collect()
    }

    /// The consistent cut a restart resumes from. `None` means no common
    /// checkpoint exists yet (restart from scratch).
    fn latest_common(&self) -> Option<CkptKey> {
        latest_common_key(&self.keys())
    }

    /// Clone rank `rank`'s checkpoint for `key`, if present.
    pub(crate) fn get(&self, rank: usize, key: CkptKey) -> Option<TileCheckpoint> {
        self.slots[rank]
            .lock()
            .expect("checkpoint lock")
            .iter()
            .find(|c| c.key == key)
            .cloned()
    }
}

/// The most advanced [`CkptKey`] present in **every** ring — the latest
/// consistent cut of the checkpoint rings. Pure so the property tests
/// can fuzz it directly: the result is always a member of every ring,
/// and no strictly greater key is.
pub fn latest_common_key(rings: &[Vec<CkptKey>]) -> Option<CkptKey> {
    let (first, rest) = rings.split_first()?;
    first
        .iter()
        .copied()
        .filter(|k| rest.iter().all(|ring| ring.contains(k)))
        .max()
}

// ---------------------------------------------------------------------------

/// Every array a tile stores, each named once.
const TILE_FIELDS: [FieldId; 11] = [
    FieldId::Density,
    FieldId::Energy0,
    FieldId::U,
    FieldId::U0,
    FieldId::P,
    FieldId::R,
    FieldId::W,
    FieldId::Z,
    FieldId::Sd,
    FieldId::Kx,
    FieldId::Ky,
];

/// Visit `geom`'s padded cells (only its interior with `interior_only`)
/// as `(local, global)` flat-index pairs into a global padded canvas `gw`
/// cells wide. A tile's local padded cell `(li, lj)` sits at global
/// padded `(c0 + li, r0 + lj)` where `(c0, r0)` are its interior span
/// starts — the halo offsets cancel.
fn tile_cells(
    config: &TeaConfig,
    geom: &TileGeom,
    gw: usize,
    interior_only: bool,
    mut visit: impl FnMut(usize, usize),
) {
    let (c0, _) = tile::tile_span(config.x_cells, geom.tx, geom.grid.tiles_x());
    let (r0, _) = tile::tile_span(config.y_cells, geom.ty, geom.grid.tiles_y());
    let (m, lw) = (&geom.mesh, geom.mesh.width());
    let (is, js) = if interior_only {
        (m.i0()..m.i1(), m.i0()..m.j1())
    } else {
        (0..lw, 0..m.height())
    };
    for lj in js {
        for li in is.clone() {
            visit(lj * lw + li, (r0 + lj) * gw + (c0 + li));
        }
    }
}

/// Copy `tile`'s cells into the global padded canvas at their global
/// coordinates.
fn blit_into_global(config: &TeaConfig, global: &mut Tile, tile: &Tile, interior_only: bool) {
    let gw = global.geom.mesh.width();
    for id in TILE_FIELDS {
        let (src, dst) = (tile.f.field(id), global.f.field_mut(id));
        tile_cells(config, &tile.geom, gw, interior_only, |l, g| {
            dst[g] = src[l]
        });
    }
}

/// Reassemble the global padded fields from every surviving tile at one
/// consistent cut. Full padded blocks land first (they are the only
/// cover of the global boundary ring, where the reflective halo values
/// live), then interiors in rank order — interiors are authoritative
/// where blocks overlap. Every cell a resumed solve reads before its
/// next halo refresh ends up holding exactly the serial padded-mesh
/// value, because the exchange invariant (ghosts = serial values at the
/// same global coordinate) held when the cut was taken.
fn reassemble_global(config: &TeaConfig, tiles: &[&Tile]) -> Tile {
    let mut global = Tile::build(config, Grid2d::new(1, 1), 0);
    for t in tiles {
        blit_into_global(config, &mut global, t, false);
    }
    for t in tiles {
        blit_into_global(config, &mut global, t, true);
    }
    global
}

/// Carve rank `rank`'s tile of `grid` out of the global canvas — the
/// inverse of [`blit_into_global`], ghost cells included.
fn carve_tile(config: &TeaConfig, global: &Tile, grid: Grid2d, rank: usize) -> Tile {
    let mut t = Tile::build(config, grid, rank);
    let gw = global.geom.mesh.width();
    for id in TILE_FIELDS {
        let (src, dst) = (global.f.field(id), t.f.field_mut(id));
        tile_cells(config, &t.geom, gw, false, |l, g| dst[l] = src[g]);
    }
    t
}

/// Re-tile one consistent cut's checkpoints onto a smaller grid: gather
/// the surviving tile state into the global canvas, carve one fresh tile
/// per new rank, and stamp each with the cut's phase state (identical on
/// every old rank — it is all global-reduction output).
fn regrid_checkpoints(
    config: &TeaConfig,
    old: &[TileCheckpoint],
    to: Grid2d,
) -> Vec<TileCheckpoint> {
    let tiles: Vec<&Tile> = old.iter().map(|c| &c.tile).collect();
    let global = reassemble_global(config, &tiles);
    let meta = &old[0];
    (0..to.ranks())
        .map(|r| TileCheckpoint {
            key: meta.key,
            total_iterations: meta.total_iterations,
            converged_all: meta.converged_all,
            phase: meta.phase.clone(),
            tile: carve_tile(config, &global, to, r),
        })
        .collect()
}

/// One rung down the elastic ladder: halve the taller tile axis with
/// ceiling division, so `2x2 → 2x1 → 1x1` and `4x1 → 2x1 → 1x1`.
fn degrade(grid: Grid2d) -> Grid2d {
    let (gx, gy) = (grid.tiles_x(), grid.tiles_y());
    if gy >= gx && gy > 1 {
        Grid2d::new(gx, gy.div_ceil(2))
    } else {
        Grid2d::new(gx.div_ceil(2), gy)
    }
}

/// What one faulty distributed run did to stay alive: the recovery
/// timeline plus the counters `tea-prof --recovery` tables. A
/// fault-free run's log is empty apart from `final_grid`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryLog {
    /// Every restart and regrid, in order, stamped with the timestep of
    /// the cut it resumed from (0 = restarted from scratch).
    pub events: Vec<RecoveryEvent>,
    /// World relaunches on the same tile grid.
    pub restarts: usize,
    /// Elastic re-decompositions onto a smaller grid.
    pub regrids: usize,
    /// Checkpoints written across all attempts and grid levels.
    pub checkpoints_taken: u64,
    /// Worlds lost to a transport fault (one per failed attempt).
    pub ranks_lost: usize,
    /// Checkpoint field bytes loaded into restarted worlds.
    pub replayed_bytes: u64,
    /// The tile grid the run finished on.
    pub final_grid: (usize, usize),
}

/// The self-healing driver behind every faulty run: restart the world
/// from the latest consistent cut up to `tl_max_recoveries` times per
/// grid level; when a level's budget is exhausted (a rank that stays
/// dead — e.g. a permanent [`mpisim::KillSpec`]), and `tl_elastic_regrid`
/// allows, gather the surviving tile state and re-tile onto a smaller
/// grid. Transient kills are dropped after they fire (the node comes
/// back); permanent kills re-arm on every same-grid restart and only go
/// away when a regrid removes the dead rank from the world. Fault seeds
/// are remixed deterministically per attempt; none of this affects
/// numerics, so any recovered report is **bit-identical** to the clean
/// run's.
fn resilient_core(
    mut grid: Grid2d,
    config: &TeaConfig,
    run: &DistributedSpec,
    spec: FaultSpec,
) -> Result<DistributedRun, FaultDiagnostic> {
    let tel = &run.sink;
    let mut carried: Option<Vec<TileCheckpoint>> = None;
    let mut armed_kill = spec.kill_rank;
    let mut log = RecoveryLog {
        final_grid: run.tiles,
        ..RecoveryLog::default()
    };
    let mut attempt = 0u64; // across grid levels, for seed remixing
    let mut tick = 0.0; // driver-side event clock
    loop {
        let store = CheckpointStore::new(grid.ranks());
        let mut level_restarts = 0usize;
        let outcome = loop {
            let mut attempt_spec = spec;
            attempt_spec.kill_rank = armed_kill.filter(|k| k.rank < grid.ranks());
            if attempt > 0 {
                // Deterministic remix: a restarted transport draws a
                // fresh but reproducible fault schedule.
                attempt_spec.seed = spec.seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            let resumes: Vec<Option<TileCheckpoint>> = match store.latest_common() {
                Some(key) => (0..grid.ranks()).map(|r| store.get(r, key)).collect(),
                None => match &carried {
                    Some(seeds) => seeds.iter().cloned().map(Some).collect(),
                    None => (0..grid.ranks()).map(|_| None).collect(),
                },
            };
            log.replayed_bytes += resumes
                .iter()
                .flatten()
                .map(TileCheckpoint::payload_bytes)
                .sum::<u64>();
            let result = run_spmd_faulty(grid.ranks(), attempt_spec, |rank| {
                let resume = resumes[rank.id()].as_ref();
                body(rank, grid, config, run.overlap, tel, Some(&store), resume)
            });
            attempt += 1;
            match result {
                Ok(results) => break Ok(agree(results)),
                Err(diag) => {
                    log.ranks_lost += 1;
                    tel.event("resilience", format_args!("world died: {diag}"), tick);
                    tick += 1.0;
                    if let Some(k) = armed_kill {
                        if !k.permanent {
                            armed_kill = None; // transient crash: the node comes back
                        }
                    }
                    if level_restarts >= config.tl_max_recoveries {
                        break Err(diag);
                    }
                    level_restarts += 1;
                    log.restarts += 1;
                    let cut = store
                        .latest_common()
                        .or_else(|| carried.as_ref().map(|s| s[0].key));
                    let (estep, eiter) = cut.map_or((0, 0), |k| (k.0, k.2));
                    log.events.push(RecoveryEvent {
                        step: estep,
                        trigger: SolverHealth::DistributedFault { rank: diag.rank },
                        action: RecoveryAction::Restart {
                            step: estep,
                            iteration: eiter,
                        },
                    });
                    tel.event(
                        "resilience",
                        format_args!(
                            "restart from (step {estep}, iteration {eiter}) on {}x{} tiles",
                            grid.tiles_x(),
                            grid.tiles_y()
                        ),
                        tick,
                    );
                    tick += 1.0;
                }
            }
        };
        log.checkpoints_taken += store.saves();
        match outcome {
            Ok((report, overlap, exchange)) => {
                log.final_grid = (grid.tiles_x(), grid.tiles_y());
                return Ok(DistributedRun {
                    report,
                    overlap,
                    exchange,
                    recovery: log,
                });
            }
            Err(diag) => {
                if !(config.tl_elastic_regrid && grid.ranks() > 1) {
                    return Err(diag);
                }
                let to = degrade(grid);
                let source: Option<Vec<TileCheckpoint>> = match store.latest_common() {
                    Some(key) => Some(
                        (0..grid.ranks())
                            .map(|r| store.get(r, key).expect("common key present on every rank"))
                            .collect(),
                    ),
                    None => carried.take(),
                };
                let estep = source.as_ref().map_or(0, |s| s[0].key.0);
                log.events.push(RecoveryEvent {
                    step: estep,
                    trigger: SolverHealth::DistributedFault { rank: diag.rank },
                    action: RecoveryAction::Regrid {
                        from: (grid.tiles_x(), grid.tiles_y()),
                        to: (to.tiles_x(), to.tiles_y()),
                    },
                });
                tel.event(
                    "resilience",
                    format_args!(
                        "regrid {}x{} -> {}x{} on surviving state",
                        grid.tiles_x(),
                        grid.tiles_y(),
                        to.tiles_x(),
                        to.tiles_y()
                    ),
                    tick,
                );
                tick += 1.0;
                log.regrids += 1;
                carried = source.map(|old| regrid_checkpoints(config, &old, to));
                grid = to;
                // The dead node is not part of the smaller world.
                armed_kill = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_core::config::SolverKind;

    const SOLVERS: [SolverKind; 4] = [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
        SolverKind::Jacobi,
    ];

    fn small_config() -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    /// The deck forced onto CG.
    fn cg(mut cfg: TeaConfig) -> TeaConfig {
        cfg.solver = SolverKind::ConjugateGradient;
        cfg
    }

    /// A fault-free run on `tiles`, overlapped or blocking.
    fn plain(cfg: &TeaConfig, tiles: (usize, usize), overlap: bool) -> DistributedRun {
        let spec = DistributedSpec {
            overlap,
            ..DistributedSpec::new(tiles.0, tiles.1)
        };
        run_distributed(cfg, &spec).expect("a fault-free run cannot abort")
    }

    fn faulty(
        cfg: &TeaConfig,
        tiles: (usize, usize),
        faults: FaultSpec,
    ) -> Result<DistributedRun, FaultDiagnostic> {
        let spec = DistributedSpec {
            faults: Some(faults),
            ..DistributedSpec::new(tiles.0, tiles.1)
        };
        run_distributed(cfg, &spec)
    }

    /// A deck whose faulty runs get one attempt: no restarts, no regrid.
    fn one_attempt(mut cfg: TeaConfig) -> TeaConfig {
        cfg.tl_max_recoveries = 0;
        cfg.tl_elastic_regrid = false;
        cfg
    }

    /// A kill-row transport: short quiet period and deadline so a lost
    /// rank is detected inside test budgets.
    fn kill_spec(seed: u64, kill: mpisim::KillSpec) -> FaultSpec {
        FaultSpec {
            quiet: std::time::Duration::from_millis(2),
            deadline: std::time::Duration::from_millis(250),
            kill_rank: Some(kill),
            ..FaultSpec::clean(seed)
        }
    }

    #[test]
    fn one_rank_runs() {
        let report = plain(&cg(small_config()), (1, 1), true).report;
        assert!(report.converged);
        assert_eq!(report.ranks, 1);
    }

    #[test]
    fn all_solvers_agree_across_grids_and_overlap_modes() {
        let mut cfg = small_config();
        for solver in SOLVERS {
            cfg.solver = solver;
            let reference = plain(&cfg, (1, 1), true).report;
            assert!(reference.converged, "{solver:?} must converge");
            for (gx, gy) in [(1usize, 2usize), (2, 1), (2, 2)] {
                let overlapped = plain(&cfg, (gx, gy), true).report;
                let blocking = plain(&cfg, (gx, gy), false).report;
                assert_eq!(
                    overlapped.summary, reference.summary,
                    "{solver:?} on {gx}x{gy} must be bit-identical to 1 rank"
                );
                assert_eq!(overlapped.total_iterations, reference.total_iterations);
                assert_eq!(overlapped.converged, reference.converged);
                assert_eq!(
                    blocking.summary, overlapped.summary,
                    "{solver:?} on {gx}x{gy}: overlap must not change bits"
                );
                assert_eq!(blocking.total_iterations, overlapped.total_iterations);
            }
        }
    }

    #[test]
    fn overlapped_windows_hide_traffic_and_cross_corners() {
        let cfg = small_config();
        let run = plain(&cfg, (2, 2), true);
        let (stats, metrics) = (run.overlap, run.exchange);
        assert!(stats.windows > 0);
        assert!(stats.hidden_elements > 0, "overlap must hide some traffic");
        assert!(stats.overlap_efficiency() > 0.0);
        assert!(
            metrics.corner_elements() > 0,
            "a 2x2 grid must exchange corner blocks"
        );
        assert!(metrics.edge_elements() > metrics.corner_elements());
        let blocking_stats = plain(&cfg, (2, 2), false).overlap;
        assert_eq!(blocking_stats.hidden_elements, 0);
        assert_eq!(blocking_stats.overlap_efficiency(), 0.0);
    }

    #[test]
    fn traced_run_emits_phase_spans() {
        let (sink, collector) = TelemetrySink::collecting();
        let spec = DistributedSpec {
            sink,
            ..DistributedSpec::new(2, 1)
        };
        let run = run_distributed(&small_config(), &spec).expect("fault-free");
        assert!(run.report.converged);
        assert!(run.overlap.windows > 0);
        let records = collector.records();
        let cat_count = |want: &str| {
            records
                .iter()
                .filter(|r| matches!(r, Record::Complete { cat, .. } if *cat == want))
                .count()
        };
        assert!(cat_count("exchange") > 0);
        assert!(cat_count("interior") > 0);
        assert!(cat_count("boundary") > 0);
    }

    #[test]
    fn faulty_world_reproduces_plain_distributed_run() {
        let cfg = one_attempt(cg(small_config()));
        let plain = plain(&cfg, (1, 2), true).report;
        let clean = faulty(&cfg, (1, 2), FaultSpec::clean(11)).expect("clean transport");
        assert_eq!(clean.report, plain);
        let mut spec = FaultSpec::lossy(11);
        spec.quiet = std::time::Duration::from_millis(2);
        let lossy = faulty(&cfg, (1, 2), spec).expect("recoverable network");
        assert_eq!(lossy.report, plain, "recovered run must be bit-identical");
    }

    #[test]
    fn resilient_clean_run_keeps_the_plain_run_instrumentation() {
        let mut cfg = small_config();
        cfg.tl_checkpoint_interval = 2;
        for solver in [SolverKind::ConjugateGradient, SolverKind::Jacobi] {
            cfg.solver = solver;
            let plain = plain(&cfg, (2, 2), true);
            let resilient = faulty(&cfg, (2, 2), FaultSpec::clean(29)).expect("clean world");
            assert_eq!(resilient.report, plain.report, "{solver:?}");
            assert_eq!(resilient.overlap, plain.overlap, "{solver:?}");
            assert_eq!(resilient.exchange, plain.exchange, "{solver:?}");
            assert!(resilient.recovery.checkpoints_taken > 0, "{solver:?}");
        }
    }

    #[test]
    fn resilient_run_without_faults_uses_no_restarts() {
        let mut cfg = cg(small_config());
        cfg.tl_checkpoint_interval = 5;
        cfg.tl_max_recoveries = 2;
        cfg.tl_elastic_regrid = false;
        let plain = plain(&cfg, (1, 2), true).report;
        let run = faulty(&cfg, (1, 2), FaultSpec::clean(31)).expect("clean world");
        assert_eq!(run.recovery.restarts, 0);
        assert_eq!(run.report, plain, "checkpointing must be numerically inert");
    }

    #[test]
    fn killed_rank_replays_from_checkpoint_bit_identically() {
        let mut cfg = cg(small_config());
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        let plain = plain(&cfg, (1, 2), true).report;

        // Kill rank 1 deep enough into its send schedule that both ranks
        // are mid-CG with checkpoints behind them.
        let spec = kill_spec(37, mpisim::KillSpec::transient(1, 25));
        // Without restart, the world must die loudly...
        faulty(&one_attempt(cfg.clone()), (1, 2), spec).expect_err("a dead rank cannot finish");
        // ...with restart, it must finish bit-identical to the clean run.
        cfg.tl_max_recoveries = 2;
        cfg.tl_elastic_regrid = false;
        let run = faulty(&cfg, (1, 2), spec).expect("restart must recover");
        assert!(
            run.recovery.restarts >= 1,
            "the kill must have forced a restart"
        );
        assert_eq!(
            run.report, plain,
            "replay from checkpoint must be bit-identical"
        );
    }

    #[test]
    fn kill_before_any_checkpoint_restarts_from_scratch() {
        let mut cfg = cg(small_config());
        // Interval larger than the iteration count: only the iteration-0
        // checkpoint exists, so the restart is effectively from scratch —
        // still bit-identical.
        cfg.tl_checkpoint_interval = 10_000;
        cfg.tl_max_recoveries = 2;
        cfg.tl_elastic_regrid = false;
        let plain = plain(&cfg, (1, 2), true).report;
        let spec = kill_spec(41, mpisim::KillSpec::transient(0, 2));
        let run = faulty(&cfg, (1, 2), spec).expect("restart must recover");
        assert!(run.recovery.restarts >= 1);
        assert_eq!(run.report, plain);
    }

    #[test]
    fn all_solvers_replay_transient_kill_bit_identically() {
        let mut cfg = small_config();
        cfg.tl_checkpoint_interval = 2;
        for solver in SOLVERS {
            cfg.solver = solver;
            let plain = plain(&cfg, (2, 2), true).report;
            let spec = kill_spec(43, mpisim::KillSpec::transient(1, 25));
            let run = faulty(&cfg, (2, 2), spec)
                .unwrap_or_else(|d| panic!("{solver:?} must recover, got {d}"));
            let log = &run.recovery;
            assert!(log.restarts >= 1, "{solver:?}: kill must force a restart");
            assert_eq!(log.regrids, 0, "{solver:?}: a transient kill never regrids");
            assert_eq!(log.final_grid, (2, 2));
            assert!(
                log.events
                    .iter()
                    .any(|e| matches!(e.action, RecoveryAction::Restart { .. })),
                "{solver:?}: restart must be on the timeline: {:?}",
                log.events
            );
            assert_eq!(
                run.report, plain,
                "{solver:?}: replay from checkpoint must be bit-identical"
            );
        }
    }

    #[test]
    fn permanent_kill_regrids_onto_survivors_bit_identically() {
        let mut cfg = small_config();
        // Two tighter steps: long enough that the re-armed kill fires
        // again in every same-grid restart (a resumed world replays only
        // the tail, so a short deck would finish under the kill's send
        // count and never exhaust the budget).
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        cfg.tl_max_recoveries = 1;
        let plain = plain(&cfg, (2, 2), true).report;
        // Rank 3 never comes back: same-grid restarts keep dying until
        // the budget forces an elastic re-decomposition.
        let spec = kill_spec(47, mpisim::KillSpec::permanent(3, 25));
        let run = faulty(&cfg, (2, 2), spec).expect("regrid must recover");
        let (report, log) = (&run.report, &run.recovery);
        assert!(log.regrids >= 1, "budget exhaustion must regrid: {log:?}");
        assert!(log.restarts >= 1);
        assert!(log.ranks_lost >= 2, "initial attempt plus restart died");
        assert!(
            log.events.iter().any(|e| matches!(
                e.action,
                RecoveryAction::Regrid {
                    from: (2, 2),
                    to: (2, 1)
                }
            )),
            "2x2 must degrade to 2x1 first: {:?}",
            log.events
        );
        assert!(log.final_grid.0 * log.final_grid.1 < 4);
        // The report's rank count legitimately shrinks with the world;
        // every numeric field must stay bit-identical to the clean run.
        assert_eq!(report.ranks, log.final_grid.0 * log.final_grid.1);
        assert_eq!(report.total_iterations, plain.total_iterations);
        assert_eq!(report.converged, plain.converged);
        assert_eq!(
            report.summary, plain.summary,
            "re-decomposed continuation must be bit-identical"
        );
    }

    #[test]
    fn permanent_kill_without_elastic_regrid_aborts_loudly() {
        let mut cfg = small_config();
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        cfg.tl_max_recoveries = 1;
        cfg.tl_elastic_regrid = false;
        let spec = kill_spec(47, mpisim::KillSpec::permanent(3, 25));
        let diag = faulty(&cfg, (2, 2), spec)
            .expect_err("a permanently dead rank with regrid off cannot finish");
        // The surfaced diagnostic is the first rank's in rank order:
        // either the kill itself or a survivor's starved deadline.
        assert!(diag.rank < 4);
    }

    #[test]
    fn resilient_solver_clean_run_has_inert_log() {
        let mut cfg = small_config();
        cfg.tl_checkpoint_interval = 3;
        cfg.solver = SolverKind::Ppcg;
        let plain = plain(&cfg, (2, 1), true).report;
        let run = faulty(&cfg, (2, 1), FaultSpec::clean(53)).expect("clean world");
        let log = &run.recovery;
        assert_eq!(run.report, plain, "checkpointing must be numerically inert");
        assert_eq!(log.restarts, 0);
        assert_eq!(log.regrids, 0);
        assert_eq!(log.ranks_lost, 0);
        assert_eq!(log.replayed_bytes, 0);
        assert!(log.events.is_empty());
        assert_eq!(log.final_grid, (2, 1));
        assert!(log.checkpoints_taken > 0, "the rings must actually fill");
    }

    #[test]
    fn latest_common_key_is_max_of_intersection() {
        let a = vec![(1, 0, 0), (1, 0, 2), (1, 1, 1)];
        let b = vec![(1, 0, 2), (1, 1, 1), (1, 1, 3)];
        assert_eq!(latest_common_key(&[a.clone(), b.clone()]), Some((1, 1, 1)));
        assert_eq!(latest_common_key(&[a, vec![]]), None);
        assert_eq!(latest_common_key(&[]), None);
    }

    #[test]
    #[should_panic(expected = "cannot carry a depth-2 halo")]
    fn too_many_ranks_rejected() {
        // 8 rows across 8 ranks → 1-row tiles < halo depth 2. The message
        // proves the check ran on the calling thread: a rank-thread panic
        // would surface as "a rank panicked".
        let mut cfg = TeaConfig::paper_problem(8);
        cfg.end_step = 1;
        let _ = run_distributed(&cfg, &DistributedSpec::new(1, 8));
    }
}
