//! Set-up cost: build the problem, construct the ports, spawn and warm
//! the pools. Paid before timing starts, measured several times, and
//! reported as medians.

use std::hint::black_box;
use std::time::Instant;

use mpisim::Grid2d;
use parpool::{Executor, StaticPool, StealPool};
use tealeaf::driver::powered_device;
use tealeaf::ports::make_port;
use tealeaf::tile::Tile;
use tealeaf::Problem;

use crate::stats::median;
use crate::workload::{Exec, Workload, PORT_SEED};

/// No-op regions posted to each pool to warm it: enough for every worker
/// to have been scheduled once. More only adds post/join wake-ups, whose
/// cost on a shared host varies severalfold from run to run.
const WARM_REGIONS: usize = 2;

pub struct Setup {
    pub problem: Problem,
    /// Median seconds per phase, and of the whole set-up.
    pub problem_s: f64,
    pub port_s: f64,
    pub pool_spawn_s: f64,
    pub total_s: f64,
}

fn warm(exec: &dyn Executor, rows: usize) {
    for _ in 0..WARM_REGIONS {
        exec.run(rows, &|i| {
            black_box(i);
        });
    }
}

/// Set the workload up `reps` times. Each repetition builds the problem
/// (and, for tiled workloads, every rank's tile), constructs one port of
/// each model the workload runs, and spawns, warms and joins a static
/// and a stealing pool of `parpool::default_threads()` workers — the
/// size of the process-wide pools, which are spawned and warmed once
/// afterwards, ready for the timed passes.
pub fn set_up(wl: &Workload, reps: usize) -> Result<Setup, String> {
    let threads = parpool::default_threads();
    let cfg = wl.config(wl.solvers[0]);
    let (mut problem_t, mut port_t, mut pool_t, mut total_t) = (vec![], vec![], vec![], vec![]);
    let mut problem = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let built = Problem::from_config(&cfg).map_err(|e| e.to_string())?;
        if let Exec::Tiled { tiles_x, tiles_y } = wl.exec {
            let grid = Grid2d::new(tiles_x, tiles_y);
            for rank in 0..grid.ranks() {
                black_box(Tile::build(&cfg, grid, rank));
            }
        }
        let t1 = Instant::now();
        for spec in wl.ports() {
            let device = powered_device(&(spec.device)(), &cfg);
            black_box(make_port(spec.model, device, &built, PORT_SEED).map_err(|e| e.to_string())?);
        }
        let t2 = Instant::now();
        {
            let (fixed, stealing) = (StaticPool::new(threads), StealPool::new(threads));
            warm(&fixed, wl.mesh);
            warm(&stealing, wl.mesh);
        }
        let t3 = Instant::now();
        problem_t.push((t1 - t0).as_secs_f64());
        port_t.push((t2 - t1).as_secs_f64());
        pool_t.push((t3 - t2).as_secs_f64());
        total_t.push((t3 - t0).as_secs_f64());
        problem = Some(built);
    }
    warm(parpool::global_static(), wl.mesh);
    warm(parpool::global_steal(), wl.mesh);
    Ok(Setup {
        problem: problem.expect("at least one repetition"),
        problem_s: median(&problem_t),
        port_s: median(&port_t),
        pool_spawn_s: median(&pool_t),
        total_s: median(&total_t),
    })
}
