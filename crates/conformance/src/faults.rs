//! The mpisim fault matrix: distributed solves over hostile networks.
//!
//! For every solver × tile grid the clean distributed run is the
//! baseline; each row then runs the same deck over a seeded
//! [`FaultSpec`] — drops, duplicates, reorders and delays, corrupted
//! payloads, a transient partition or a killed rank — through the
//! self-healing driver. The deck decides how hard the driver fights:
//! `tl_max_recoveries = 0` with `tl_elastic_regrid = false` is one
//! attempt per row, anything more restarts (and maybe re-tiles) the
//! world. The acceptance property is binary: a row either finishes
//! **bit-identical** to the baseline with every restart and regrid on
//! its recovery timeline, or aborts loudly with a
//! [`mpisim::FaultDiagnostic`]. A silently different answer or a
//! recovery off the timeline is the one outcome that must never happen,
//! and [`run_fault_matrix`] returns `Err` the moment it sees one.
//! Matrices that must always recover assert `aborted == 0` on the tally.

use std::time::Duration;

use mpisim::{FaultSpec, KillSpec, PartitionSpec};
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::distributed::DistributedSpec;
use tealeaf::{run, Exec, Run, RunError, RunReport, RunSpec};

/// One matrix row: the fault family's name and the transport it runs
/// over.
pub type FaultRow = (&'static str, FaultSpec);

/// Outcome tally of one fault matrix sweep, by recovery depth.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Fault-injected rows executed.
    pub runs: usize,
    /// Rows the transport absorbed without a world restart.
    pub recovered: usize,
    /// Rows that needed at least one checkpoint restart.
    pub restarted: usize,
    /// Rows that degraded onto a smaller tile grid.
    pub regridded: usize,
    /// Rows that aborted loudly with a diagnostic.
    pub aborted: usize,
    /// Checkpoint restarts consumed across all rows.
    pub restarts: usize,
    /// The first abort's row and diagnostic.
    pub first_abort: Option<String>,
}

/// The matrix [`FaultSpec`] for `config` and `seed`: the lossy profile
/// with the deck's deadline budget (`tl_exchange_deadline`) and its
/// chaos seed (`tl_chaos_seed`) mixed into the fault stream, so one deck
/// key re-rolls every fault schedule reproducibly.
pub fn fault_spec_for(config: &TeaConfig, seed: u64) -> FaultSpec {
    FaultSpec {
        quiet: Duration::from_millis(2),
        deadline: Duration::from_secs_f64(config.tl_exchange_deadline),
        ..FaultSpec::lossy(config.tl_chaos_seed ^ seed)
    }
}

/// One lossy-network row per seed.
pub fn lossy_rows(config: &TeaConfig, seeds: &[u64]) -> Vec<FaultRow> {
    seeds
        .iter()
        .map(|&seed| ("lossy", fault_spec_for(config, seed)))
        .collect()
}

/// One rank-loss row per kill that names a rank of a `ranks`-rank
/// world, over an otherwise clean transport. A lost rank is detected by
/// its peers' deadlines (`tl_exchange_deadline`).
pub fn kill_rows(config: &TeaConfig, ranks: usize, kills: &[KillSpec]) -> Vec<FaultRow> {
    kills
        .iter()
        .filter(|k| k.rank < ranks)
        .map(|&kill| {
            let spec = FaultSpec {
                quiet: Duration::from_millis(2),
                deadline: Duration::from_secs_f64(config.tl_exchange_deadline),
                kill_rank: Some(kill),
                ..FaultSpec::clean(kill.rank as u64 ^ kill.after_sends)
            };
            ("kill", spec)
        })
        .collect()
}

/// The chaos families per seed: payload corruption and a reorder/delay
/// storm; on multi-rank worlds also a transient kill of the highest rank
/// and a transient partition isolating it.
pub fn chaos_rows(config: &TeaConfig, ranks: usize, seeds: &[u64]) -> Vec<FaultRow> {
    let mut rows = Vec::new();
    for &seed in seeds {
        let base = fault_spec_for(config, seed);
        let quiet_net = FaultSpec {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            ..base
        };
        rows.push((
            "corrupt",
            FaultSpec {
                quiet: base.quiet,
                deadline: base.deadline,
                ..FaultSpec::corrupting(config.tl_chaos_seed ^ seed)
            },
        ));
        rows.push((
            "delay",
            FaultSpec {
                reorder: 0.15,
                delay: 0.15,
                drop: 0.0,
                duplicate: 0.0,
                ..base
            },
        ));
        if ranks > 1 {
            // Kill the highest rank a deterministic distance into its
            // send schedule; the partition isolates it for a window of
            // everyone's schedule instead.
            rows.push((
                "kill",
                FaultSpec {
                    kill_rank: Some(KillSpec::transient(ranks - 1, 20 + seed % 13)),
                    ..quiet_net
                },
            ));
            rows.push((
                "partition",
                FaultSpec {
                    partition: Some(PartitionSpec {
                        rank: ranks - 1,
                        from_send: 5 + seed % 7,
                        until_send: 20 + seed % 7,
                    }),
                    ..quiet_net
                },
            ));
        }
    }
    rows
}

/// What is wrong with a finished row, if anything. Without a regrid the
/// whole report must be bit-identical to the clean baseline; after an
/// elastic regrid the rank count legitimately shrinks with the world and
/// every numeric field must still match bit-for-bit. The self-healing
/// driver logs exactly one event per restart and one per regrid, so any
/// other event count is recovery off the timeline.
fn row_violation(baseline: &RunReport, run: &Run) -> Option<&'static str> {
    let (report, log) = (&run.report, &run.recovery);
    let identical = if log.regrids == 0 {
        report.without_clocks() == baseline.without_clocks()
    } else {
        report.ranks == log.final_grid.0 * log.final_grid.1
            && report.total_iterations == baseline.total_iterations
            && report.converged == baseline.converged
            && report.summary == baseline.summary
    };
    if !identical {
        Some("SILENTLY WRONG")
    } else if log.restarts + log.regrids != log.events.len() {
        Some("SILENT DEGRADE")
    } else {
        None
    }
}

/// Sweep every solver × tile grid × row, where `rows(cfg, ranks)` builds
/// the rows for one solver's deck on a `ranks`-rank grid. Returns the
/// tally, or `Err` on the first row that is silently wrong or silently
/// degraded.
pub fn run_fault_matrix(
    config: &TeaConfig,
    grids: &[(usize, usize)],
    solvers: &[SolverKind],
    rows: impl Fn(&TeaConfig, usize) -> Vec<FaultRow>,
) -> Result<FaultTally, String> {
    let mut tally = FaultTally::default();
    for &solver in solvers {
        let cfg = TeaConfig {
            solver,
            ..config.clone()
        };
        for &(gx, gy) in grids {
            let clean = DistributedSpec::new(gx, gy);
            let baseline = run(&RunSpec::new(&cfg, Exec::Tiled(clean)))
                .expect("a fault-free run cannot abort")
                .report;
            for (family, spec) in rows(&cfg, gx * gy) {
                tally.runs += 1;
                let faulty = DistributedSpec {
                    faults: Some(spec),
                    ..DistributedSpec::new(gx, gy)
                };
                let row = format!("family={family} solver={solver:?} grid={gx}x{gy} spec={spec:?}");
                match run(&RunSpec::new(&cfg, Exec::Tiled(faulty))) {
                    Ok(run) => {
                        if let Some(violation) = row_violation(&baseline, &run) {
                            return Err(format!(
                                "{violation}: {row}: {:?} vs clean baseline {baseline:?}, \
                                 log {:?}",
                                run.report, run.recovery
                            ));
                        }
                        let log = &run.recovery;
                        tally.restarts += log.restarts;
                        if log.regrids > 0 {
                            tally.regridded += 1;
                        } else if log.restarts > 0 {
                            tally.restarted += 1;
                        } else {
                            tally.recovered += 1;
                        }
                    }
                    Err(RunError::Fault(diagnostic)) => {
                        // A loud abort is an acceptable outcome; tally it
                        // so callers can flag rows that must recover.
                        tally.aborted += 1;
                        tally
                            .first_abort
                            .get_or_insert_with(|| format!("{row}: {diagnostic}"));
                    }
                    Err(e) => return Err(format!("{row}: {e}")),
                }
            }
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tealeaf::distributed::RecoveryLog;
    use tealeaf::{RecoveryAction, RecoveryEvent, SolverHealth};

    fn small_config() -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    /// One attempt per row, over the lossy profile's own 5 s deadline.
    fn one_attempt(mut cfg: TeaConfig) -> TeaConfig {
        cfg.tl_max_recoveries = 0;
        cfg.tl_elastic_regrid = false;
        cfg.tl_exchange_deadline = 5.0;
        cfg
    }

    /// Long enough that a kill fires mid-solve, with checkpoints
    /// frequent enough that a restart resumes rather than redoing the
    /// whole run.
    fn recovering_config() -> TeaConfig {
        let mut cfg = small_config();
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        cfg
    }

    #[test]
    fn small_matrix_never_silently_wrong() {
        let cfg = one_attempt(small_config());
        let tally = run_fault_matrix(
            &cfg,
            &[(1, 1), (1, 2)],
            &[SolverKind::ConjugateGradient],
            |cfg, _| lossy_rows(cfg, &[1, 2]),
        )
        .expect("property holds");
        assert_eq!(tally.runs, 4);
        assert_eq!(tally.recovered + tally.aborted, tally.runs);
        assert!(
            tally.recovered >= tally.runs / 2,
            "lossy() at 2ms quiet should mostly recover: {tally:?}"
        );
    }

    #[test]
    fn small_2d_matrix_crosses_corners_and_stays_honest() {
        // A 2×2 grid puts corner messages on the lossy channels; one
        // pointwise-window solver (CG) and one double-window solver
        // (Jacobi, whose scratch travels unreflected) cover the two
        // exchange shapes.
        let tally = run_fault_matrix(
            &one_attempt(small_config()),
            &[(2, 2)],
            &[SolverKind::ConjugateGradient, SolverKind::Jacobi],
            |cfg, _| lossy_rows(cfg, &[3]),
        )
        .expect("property holds");
        assert_eq!(tally.runs, 2);
        assert_eq!(tally.recovered + tally.aborted, tally.runs);
    }

    #[test]
    fn recovering_matrix_survives_lossy_networks_and_a_rank_loss() {
        let mut cfg = recovering_config();
        cfg.tl_max_recoveries = 4;
        cfg.tl_elastic_regrid = false;
        let kills = [KillSpec::transient(1, 25)];
        let tally = run_fault_matrix(
            &cfg,
            &[(1, 2)],
            &[SolverKind::ConjugateGradient],
            |cfg, ranks| [lossy_rows(cfg, &[7]), kill_rows(cfg, ranks, &kills)].concat(),
        )
        .expect("never silently wrong");
        assert_eq!(tally.runs, 2, "one lossy row + one kill row");
        assert_eq!(tally.aborted, 0, "every row must recover: {tally:?}");
        assert!(
            tally.restarts >= 1,
            "the kill row must consume at least one restart: {tally:?}"
        );
    }

    #[test]
    fn recovering_2d_matrix_replays_kills_on_tile_grids() {
        let kills = [KillSpec::transient(1, 25)];
        let tally = run_fault_matrix(
            &recovering_config(),
            &[(2, 1), (2, 2)],
            &[SolverKind::ConjugateGradient, SolverKind::Jacobi],
            |cfg, ranks| [lossy_rows(cfg, &[9]), kill_rows(cfg, ranks, &kills)].concat(),
        )
        .expect("never silently wrong");
        assert_eq!(tally.runs, 8, "2 solvers × 2 grids × (1 lossy + 1 kill)");
        assert_eq!(tally.aborted, 0, "every row must recover: {tally:?}");
        assert!(
            tally.restarts >= 1,
            "kill rows must consume restarts: {tally:?}"
        );
    }

    #[test]
    fn chaos_matrix_never_silently_wrong_or_silently_degraded() {
        let mut cfg = recovering_config();
        cfg.tl_max_recoveries = 2;
        let tally = run_fault_matrix(
            &cfg,
            &[(2, 2)],
            &[SolverKind::ConjugateGradient],
            |cfg, ranks| chaos_rows(cfg, ranks, &[0x5eed]),
        )
        .expect("chaos invariant must hold");
        assert_eq!(tally.runs, 4, "corrupt + delay + kill + partition");
        assert_eq!(
            tally.recovered + tally.restarted + tally.regridded + tally.aborted,
            tally.runs
        );
        assert!(
            tally.restarted >= 1,
            "the kill row must restart the world: {tally:?}"
        );
        assert!(
            tally.recovered >= 2,
            "corrupt/delay/partition rows should be absorbed in-transport: {tally:?}"
        );
    }

    #[test]
    fn a_restart_missing_from_the_timeline_is_a_silent_degrade() {
        let cfg = small_config();
        let baseline = run(&RunSpec::new(&cfg, Exec::Tiled(DistributedSpec::new(1, 1))))
            .expect("fault-free")
            .report;
        let event = RecoveryEvent {
            step: 1,
            trigger: SolverHealth::DistributedFault { rank: 1 },
            action: RecoveryAction::Restart {
                step: 1,
                iteration: 0,
            },
        };
        let mut run = Run {
            report: baseline.clone(),
            overlap: Default::default(),
            exchange: Default::default(),
            recovery: RecoveryLog {
                events: vec![event.clone(), event],
                restarts: 2,
                final_grid: (1, 1),
                ..RecoveryLog::default()
            },
        };
        assert_eq!(row_violation(&baseline, &run), None);
        run.recovery.events.pop();
        assert_eq!(row_violation(&baseline, &run), Some("SILENT DEGRADE"));
        run.report.total_iterations += 1;
        assert_eq!(row_violation(&baseline, &run), Some("SILENTLY WRONG"));
    }
}
