//! The tile port ([`tealeaf::ports::tile::TilePort`]) against the serial
//! reference, and the schedule it lowers the shared solver loop to.
//!
//! Three claims. The lowering is pinned: the overlap accounting, the
//! per-direction message counters and the iteration counts of every
//! solver on three grids, with overlap on and off, equal the values the
//! hand-written distributed solver loops produced before the ranks ran
//! the shared loop. The sentinels now guard distributed solves exactly as
//! they guard serial ones. And a one-tile port is the serial port kernel
//! for kernel: every field agrees after every call.

use mpisim::{run_spmd, Grid2d};
use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tealeaf::distributed::{run_distributed_solver, run_distributed_solver_instrumented};
use tealeaf::ports::serial::SerialPort;
use tealeaf::ports::tile::TilePort;
use tealeaf::{run_simulation, Problem, TeaLeafPort};

const SOLVERS: [SolverKind; 4] = [
    SolverKind::ConjugateGradient,
    SolverKind::Chebyshev,
    SolverKind::Ppcg,
    SolverKind::Jacobi,
];

/// `run_distributed_solver_instrumented` on the pinned deck, recorded
/// from the per-solver distributed loops this port replaced.
const PINNED: [&str; 24] = [
        "cg 2x1 overlap iters=20 conv=true windows=44 interior=10100 boundary=2720 exchanged=1232 hidden=1232 messages=[0, 0, 26, 26, 0, 0, 0, 0] elements=[0, 0, 784, 784, 0, 0, 0, 0]",
        "cg 2x1 blocking iters=20 conv=true windows=44 interior=0 boundary=12820 exchanged=1232 hidden=0 messages=[0, 0, 26, 26, 0, 0, 0, 0] elements=[0, 0, 784, 784, 0, 0, 0, 0]",
        "cg 1x2 overlap iters=20 conv=true windows=44 interior=10100 boundary=2720 exchanged=1232 hidden=1232 messages=[26, 26, 0, 0, 0, 0, 0, 0] elements=[784, 784, 0, 0, 0, 0, 0, 0]",
        "cg 1x2 blocking iters=20 conv=true windows=44 interior=0 boundary=12820 exchanged=1232 hidden=0 messages=[26, 26, 0, 0, 0, 0, 0, 0] elements=[784, 784, 0, 0, 0, 0, 0, 0]",
        "cg 2x2 overlap iters=20 conv=true windows=88 interior=9352 boundary=3520 exchanged=2904 hidden=2904 messages=[52, 52, 52, 52, 26, 26, 26, 26] elements=[896, 896, 896, 896, 32, 32, 32, 32]",
        "cg 2x2 blocking iters=20 conv=true windows=88 interior=0 boundary=12872 exchanged=2904 hidden=0 messages=[52, 52, 52, 52, 26, 26, 26, 26] elements=[896, 896, 896, 896, 32, 32, 32, 32]",
        "chebyshev 2x1 overlap iters=36 conv=true windows=76 interior=17140 boundary=4896 exchanged=2128 hidden=2128 messages=[0, 0, 42, 42, 0, 0, 0, 0] elements=[0, 0, 1232, 1232, 0, 0, 0, 0]",
        "chebyshev 2x1 blocking iters=36 conv=true windows=76 interior=0 boundary=22036 exchanged=2128 hidden=0 messages=[0, 0, 42, 42, 0, 0, 0, 0] elements=[0, 0, 1232, 1232, 0, 0, 0, 0]",
        "chebyshev 1x2 overlap iters=36 conv=true windows=76 interior=17140 boundary=4896 exchanged=2128 hidden=2128 messages=[42, 42, 0, 0, 0, 0, 0, 0] elements=[1232, 1232, 0, 0, 0, 0, 0, 0]",
        "chebyshev 1x2 blocking iters=36 conv=true windows=76 interior=0 boundary=22036 exchanged=2128 hidden=0 messages=[42, 42, 0, 0, 0, 0, 0, 0] elements=[1232, 1232, 0, 0, 0, 0, 0, 0]",
        "chebyshev 2x2 overlap iters=36 conv=true windows=152 interior=15752 boundary=6336 exchanged=5016 hidden=5016 messages=[84, 84, 84, 84, 42, 42, 42, 42] elements=[1408, 1408, 1408, 1408, 48, 48, 48, 48]",
        "chebyshev 2x2 blocking iters=36 conv=true windows=152 interior=0 boundary=22088 exchanged=5016 hidden=0 messages=[84, 84, 84, 84, 42, 42, 42, 42] elements=[1408, 1408, 1408, 1408, 48, 48, 48, 48]",
        "ppcg 2x1 overlap iters=18 conv=true windows=80 interior=18020 boundary=5168 exchanged=2240 hidden=2240 messages=[0, 0, 44, 44, 0, 0, 0, 0] elements=[0, 0, 1288, 1288, 0, 0, 0, 0]",
        "ppcg 2x1 blocking iters=18 conv=true windows=80 interior=0 boundary=23188 exchanged=2240 hidden=0 messages=[0, 0, 44, 44, 0, 0, 0, 0] elements=[0, 0, 1288, 1288, 0, 0, 0, 0]",
        "ppcg 1x2 overlap iters=18 conv=true windows=80 interior=18020 boundary=5168 exchanged=2240 hidden=2240 messages=[44, 44, 0, 0, 0, 0, 0, 0] elements=[1288, 1288, 0, 0, 0, 0, 0, 0]",
        "ppcg 1x2 blocking iters=18 conv=true windows=80 interior=0 boundary=23188 exchanged=2240 hidden=0 messages=[44, 44, 0, 0, 0, 0, 0, 0] elements=[1288, 1288, 0, 0, 0, 0, 0, 0]",
        "ppcg 2x2 overlap iters=18 conv=true windows=160 interior=16552 boundary=6688 exchanged=5280 hidden=5280 messages=[88, 88, 88, 88, 44, 44, 44, 44] elements=[1472, 1472, 1472, 1472, 50, 50, 50, 50]",
        "ppcg 2x2 blocking iters=18 conv=true windows=160 interior=0 boundary=23240 exchanged=5280 hidden=0 messages=[88, 88, 88, 88, 44, 44, 44, 44] elements=[1472, 1472, 1472, 1472, 50, 50, 50, 50]",
        "jacobi 2x1 overlap iters=62 conv=true windows=252 interior=55860 boundary=16864 exchanged=7056 hidden=7056 messages=[0, 0, 130, 130, 0, 0, 0, 0] elements=[0, 0, 3696, 3696, 0, 0, 0, 0]",
        "jacobi 2x1 blocking iters=62 conv=true windows=252 interior=0 boundary=72724 exchanged=7056 hidden=0 messages=[0, 0, 130, 130, 0, 0, 0, 0] elements=[0, 0, 3696, 3696, 0, 0, 0, 0]",
        "jacobi 1x2 overlap iters=62 conv=true windows=252 interior=55860 boundary=16864 exchanged=7056 hidden=7056 messages=[130, 130, 0, 0, 0, 0, 0, 0] elements=[3696, 3696, 0, 0, 0, 0, 0, 0]",
        "jacobi 1x2 blocking iters=62 conv=true windows=252 interior=0 boundary=72724 exchanged=7056 hidden=0 messages=[130, 130, 0, 0, 0, 0, 0, 0] elements=[3696, 3696, 0, 0, 0, 0, 0, 0]",
        "jacobi 2x2 overlap iters=62 conv=true windows=504 interior=50952 boundary=21824 exchanged=16632 hidden=16632 messages=[260, 260, 260, 260, 130, 130, 130, 130] elements=[4224, 4224, 4224, 4224, 136, 136, 136, 136]",
        "jacobi 2x2 blocking iters=62 conv=true windows=504 interior=0 boundary=72776 exchanged=16632 hidden=0 messages=[260, 260, 260, 260, 130, 130, 130, 130] elements=[4224, 4224, 4224, 4224, 136, 136, 136, 136]",
];

/// Two steps at 24², presteps short enough that Chebyshev and PPCG reach
/// their main loops.
fn pinned_deck(solver: SolverKind) -> TeaConfig {
    let mut cfg = TeaConfig::paper_problem(24);
    cfg.end_step = 2;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_ch_cg_presteps = 8;
    cfg.solver = solver;
    cfg
}

#[test]
fn lowering_keeps_the_pinned_schedule() {
    let mut rows = Vec::new();
    for solver in SOLVERS {
        let cfg = pinned_deck(solver);
        for (gx, gy) in [(2usize, 1usize), (1, 2), (2, 2)] {
            for overlap in [true, false] {
                let (r, s, m) = run_distributed_solver_instrumented(gx, gy, &cfg, overlap);
                rows.push(format!(
                    "{} {gx}x{gy} {} iters={} conv={} windows={} interior={} boundary={} \
                     exchanged={} hidden={} messages={:?} elements={:?}",
                    solver.name(),
                    if overlap { "overlap" } else { "blocking" },
                    r.total_iterations,
                    r.converged,
                    s.windows,
                    s.interior_cells,
                    s.boundary_cells,
                    s.exchanged_elements,
                    s.hidden_elements,
                    m.messages,
                    m.elements
                ));
            }
        }
    }
    assert_eq!(rows, PINNED);
}

#[test]
fn distributed_sentinels_trip_like_serial() {
    // A one-observation stagnation window trips on the first residual
    // that fails to improve. A hundredfold timestep makes the CG residual
    // non-monotone, so every step trips deterministically and stops its
    // solve there.
    let mut cfg = pinned_deck(SolverKind::ConjugateGradient);
    cfg.initial_timestep *= 100.0;
    cfg.tl_stagnation_window = 1;
    cfg.tl_resilience = false;
    let serial = run_simulation(
        tealeaf::ModelId::Serial,
        &devices::cpu_xeon_e5_2670_x2(),
        &cfg,
    )
    .expect("serial run");
    assert!(!serial.converged, "the sentinel must stop the serial solve");
    assert!(!serial.health.is_empty());
    for (gx, gy) in [(1usize, 1usize), (2, 1), (2, 2)] {
        let dist = run_distributed_solver(gx, gy, &cfg);
        assert!(
            !dist.converged,
            "{gx}x{gy}: the sentinel must stop the solve"
        );
        assert_eq!(dist.total_iterations, serial.total_iterations, "{gx}x{gy}");
        assert_eq!(dist.summary, serial.summary, "{gx}x{gy}: summary bits");
    }
}

/// Assert every field of the two ports holds the same bits.
fn same_fields(tile: &dyn TeaLeafPort, serial: &dyn TeaLeafPort, after: &str) {
    for id in FieldId::ALL {
        let (a, b) = (tile.inspect_field(id), serial.inspect_field(id));
        let (a, b) = (a.expect("tile field"), b.expect("serial field"));
        assert_eq!(a.len(), b.len(), "{} after {after}", id.name());
        for (k, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{}[{k}] after {after}", id.name());
        }
    }
}

#[test]
fn one_tile_port_matches_serial_kernel_by_kernel() {
    let cfg = pinned_deck(SolverKind::ConjugateGradient);
    let problem = Problem::from_config(&cfg).expect("valid deck");
    run_spmd(1, |rank| {
        let mut tile = TilePort::new(rank, &cfg, Grid2d::new(1, 1), true);
        let mut serial = SerialPort::new(devices::cpu_xeon_e5_2670_x2(), &problem, 1);
        let (rx, ry) = problem.rx_ry();
        assert_eq!((rx, ry), tile.tile().geom.mesh.rx_ry(cfg.initial_timestep));
        let ports: [&mut dyn TeaLeafPort; 2] = [&mut tile, &mut serial];
        let [t, s] = ports;
        macro_rules! both {
            ($call:ident ( $($arg:expr),* )) => {{
                let a = t.$call($($arg),*);
                let b = s.$call($($arg),*);
                same_fields(t, s, stringify!($call));
                (a, b)
            }};
        }
        let bits = |(a, b): (f64, f64)| {
            assert_eq!(a.to_bits(), b.to_bits());
            a
        };
        both!(halo_update(&[FieldId::Density, FieldId::Energy0], 2));
        // One CG step, as the step loop and `cg::run_phase` drive it.
        both!(init_fields(cfg.coefficient, rx, ry));
        both!(halo_update(&[FieldId::U], 1));
        let mut rro = bits(both!(cg_init(false)));
        for _ in 0..3 {
            both!(halo_update(&[FieldId::P], 1));
            let pw = bits(both!(cg_calc_w()));
            let rrn = bits(both!(cg_calc_ur(rro / pw, false)));
            both!(cg_calc_p(rrn / rro, false));
            rro = rrn;
        }
        both!(finalise());
        both!(halo_update(&[FieldId::Energy1], 1));
        // One Jacobi step.
        both!(init_fields(cfg.coefficient, rx, ry));
        both!(halo_update(&[FieldId::U], 1));
        for _ in 0..3 {
            both!(halo_update(&[FieldId::U], 1));
            bits(both!(jacobi_iterate()));
        }
        both!(finalise());
        both!(halo_update(&[FieldId::Energy1], 1));
        let (a, b) = both!(field_summary());
        assert_eq!(a, b);
    });
}
