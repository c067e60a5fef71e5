//! The tile port ([`tealeaf::ports::tile::TilePort`]) against the serial
//! reference, and the schedule it lowers the shared solver loop to.
//!
//! Four claims. The lowering is pinned: the overlap accounting, the
//! per-direction message counters and the iteration counts of every
//! solver on three grids, with overlap on and off, equal the values the
//! hand-written distributed solver loops produced before the ranks ran
//! the shared loop. The logical clock is pinned too: rank 0's trace
//! digests equal those of the split interior/ring lowering, recorded
//! before the port drained first and ran one row pass. The sentinels
//! guard distributed solves exactly as they guard serial ones. And every
//! tile port is the serial port kernel for kernel: a one-tile port
//! agrees on every field after every call of a CG and a Jacobi step,
//! and on 1×1, 2×1 and 3×1 grids every tile interior agrees with its
//! serial sub-block and every reduction with the serial bits after every
//! kernel the port lowers — on west-most tiles that fuse their folds, on
//! tiles that carry them through, and on east-most tiles.

use mpisim::{run_spmd, Grid2d};
use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tea_telemetry::Record;
use tealeaf::distributed::DistributedSpec;
use tealeaf::ports::serial::SerialPort;
use tealeaf::ports::tile::TilePort;
use tealeaf::tile::{tile_span, CARRY_ROWS};
use tealeaf::{run, Exec, NormField, Problem, Run, RunSpec, TeaLeafPort, TelemetrySink};

const SOLVERS: [SolverKind; 4] = [
    SolverKind::ConjugateGradient,
    SolverKind::Chebyshev,
    SolverKind::Ppcg,
    SolverKind::Jacobi,
];

/// Fault-free tiled [`run`]s on the pinned deck, recorded
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
/// A fault-free run of `cfg` on `gx × gy` tiles, overlapped or blocking.
fn distributed(cfg: &TeaConfig, gx: usize, gy: usize, overlap: bool) -> Run {
    let spec = DistributedSpec {
        overlap,
        ..DistributedSpec::new(gx, gy)
    };
    run(&RunSpec::new(cfg, Exec::Tiled(spec))).expect("a fault-free run cannot abort")
}

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
                let Run {
                    report: r,
                    overlap: s,
                    exchange: m,
                    ..
                } = distributed(&cfg, gx, gy, overlap);
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
    let serial = run(&RunSpec::new(
        &cfg,
        Exec::port(tealeaf::ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
    ))
    .expect("serial run")
    .report;
    assert!(!serial.converged, "the sentinel must stop the serial solve");
    assert!(!serial.health.is_empty());
    for (gx, gy) in [(1usize, 1usize), (2, 1), (2, 2)] {
        let dist = distributed(&cfg, gx, gy, true).report;
        assert!(
            !dist.converged,
            "{gx}x{gy}: the sentinel must stop the solve"
        );
        assert_eq!(dist.total_iterations, serial.total_iterations, "{gx}x{gy}");
        assert_eq!(dist.summary, serial.summary, "{gx}x{gy}: summary bits");
        assert_eq!(dist.health, serial.health, "{gx}x{gy}: sentinel trips");
        assert_eq!(dist.failed_step, serial.failed_step, "{gx}x{gy}");
    }
}

#[test]
fn tiles_take_rx_ry_from_the_global_mesh() {
    // 24 columns split three ways: the east tile's own mesh derives
    // rx = 0.023040000000000005 against the global 0.023039999999999998.
    let cfg = pinned_deck(SolverKind::ConjugateGradient);
    let global = Problem::from_config(&cfg).expect("valid deck").rx_ry();
    let bits = |(rx, ry): (f64, f64)| (rx.to_bits(), ry.to_bits());
    for (gx, gy) in [(3usize, 1usize), (3, 2)] {
        let per_rank = run_spmd(gx * gy, |rank| {
            let tile = TilePort::new(rank, &cfg, Grid2d::new(gx, gy), true);
            let geom = &tile.tile().geom;
            (geom.rx_ry, geom.mesh.rx_ry(cfg.initial_timestep))
        });
        for (rank, (rx_ry, _)) in per_rank.iter().enumerate() {
            assert_eq!(bits(*rx_ry), bits(global), "rank {rank} of {gx}x{gy}");
        }
        assert!(
            per_rank
                .iter()
                .any(|(_, local)| bits(*local) != bits(global)),
            "{gx}x{gy}: some tile mesh must be an ulp off, or this case tests nothing"
        );
        for solver in SOLVERS {
            let cfg = pinned_deck(solver);
            let serial = run(&RunSpec::new(
                &cfg,
                Exec::port(tealeaf::ModelId::Serial, &devices::cpu_xeon_e5_2670_x2()),
            ))
            .expect("serial run")
            .report;
            let dist = distributed(&cfg, gx, gy, true).report;
            let what = format!("{} {gx}x{gy}", solver.name());
            assert_eq!(dist.total_iterations, serial.total_iterations, "{what}");
            assert_eq!(dist.summary, serial.summary, "{what}: summary bits");
        }
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

/// FNV-1a digests of rank 0's trace — every record's category, name and
/// timestamp bits — for each pinned-deck run, recorded from the split
/// interior/ring lowering.
const TRACE_DIGESTS: [&str; 24] = [
    "cg 2x1 overlap records=141 digest=0x22d3a3d8a695cca9",
    "cg 2x1 blocking records=121 digest=0x308b9f4b96872b02",
    "cg 1x2 overlap records=141 digest=0x22d3a3d8a695cca9",
    "cg 1x2 blocking records=121 digest=0x308b9f4b96872b02",
    "cg 2x2 overlap records=141 digest=0x6a0d62360c0c4184",
    "cg 2x2 blocking records=121 digest=0x099a971bf213f821",
    "chebyshev 2x1 overlap records=233 digest=0xa30a0484a3dede07",
    "chebyshev 2x1 blocking records=197 digest=0x6fd066d776ee26f4",
    "chebyshev 1x2 overlap records=233 digest=0xa30a0484a3dede07",
    "chebyshev 1x2 blocking records=197 digest=0x6fd066d776ee26f4",
    "chebyshev 2x2 overlap records=233 digest=0x77cec7435540ae2a",
    "chebyshev 2x2 blocking records=197 digest=0x6df37d7f2fec903c",
    "ppcg 2x1 overlap records=209 digest=0x39b855d65f098bc3",
    "ppcg 2x1 blocking records=171 digest=0xed38ed41b6084794",
    "ppcg 1x2 overlap records=209 digest=0x39b855d65f098bc3",
    "ppcg 1x2 blocking records=171 digest=0xed38ed41b6084794",
    "ppcg 2x2 overlap records=209 digest=0x8bed6567751b9e13",
    "ppcg 2x2 blocking records=171 digest=0x6037b346b76f1f6d",
    "jacobi 2x1 overlap records=579 digest=0x4c4fa0dea163e7c7",
    "jacobi 2x1 blocking records=455 digest=0x79a16df4760d1af7",
    "jacobi 1x2 overlap records=579 digest=0x4c4fa0dea163e7c7",
    "jacobi 1x2 blocking records=455 digest=0x79a16df4760d1af7",
    "jacobi 2x2 overlap records=579 digest=0xf4093cb19417f7a5",
    "jacobi 2x2 blocking records=455 digest=0x0ac2c37b16908178",
];

/// FNV-1a over `bytes`, folded into `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of one trace: category, name and the `t0`/`t1` bits of
/// every record, in record order.
fn trace_digest(records: &[Record]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in records {
        let (t0, t1) = match *r {
            Record::Open { t, .. } | Record::Close { t, .. } | Record::Instant { t, .. } => (t, t),
            Record::Complete { t0, t1, .. } => (t0, t1),
        };
        h = fnv1a(h, r.cat().as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, r.name().as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &t0.to_bits().to_le_bytes());
        h = fnv1a(h, &t1.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn lowering_keeps_the_logical_clock() {
    let mut rows = Vec::new();
    for solver in SOLVERS {
        let cfg = pinned_deck(solver);
        for (gx, gy) in [(2usize, 1usize), (1, 2), (2, 2)] {
            for overlap in [true, false] {
                let (sink, collector) = TelemetrySink::collecting();
                let tiles = DistributedSpec {
                    overlap,
                    ..DistributedSpec::new(gx, gy)
                };
                let spec = RunSpec {
                    sink,
                    ..RunSpec::new(&cfg, Exec::Tiled(tiles))
                };
                run(&spec).expect("a fault-free run cannot abort");
                let records = collector.records();
                rows.push(format!(
                    "{} {gx}x{gy} {} records={} digest={:#018x}",
                    solver.name(),
                    if overlap { "overlap" } else { "blocking" },
                    records.len(),
                    trace_digest(&records)
                ));
            }
        }
    }
    assert_eq!(rows, TRACE_DIGESTS);
}

/// The first cell, over every field, where the tile port and the serial
/// port disagree; `cells` pairs a tile index with its serial index.
fn first_mismatch(
    t: &dyn TeaLeafPort,
    s: &dyn TeaLeafPort,
    cells: &[(usize, usize)],
) -> Option<String> {
    for id in FieldId::ALL {
        let a = t.inspect_field(id).expect("tile field");
        let b = s.inspect_field(id).expect("serial field");
        if let Some(&(k, g)) = cells
            .iter()
            .find(|&&(k, g)| a[k].to_bits() != b[g].to_bits())
        {
            return Some(format!(
                "{}[{k}] = {:e}, serial [{g}] = {:e}",
                id.name(),
                a[k],
                b[g]
            ));
        }
    }
    None
}

/// Drive `t` and `s` through every kernel the tile port lowers, as the
/// step loop and the solvers call them, comparing every reduction's bits
/// and the fields at `cells` after every call. Mismatches are returned,
/// not raised: a rank that panicked would leave its neighbours blocked
/// on messages it never sends.
fn drive_every_kernel(
    t: &mut dyn TeaLeafPort,
    s: &mut dyn TeaLeafPort,
    cfg: &TeaConfig,
    (rx, ry): (f64, f64),
    cells: &[(usize, usize)],
) -> Vec<String> {
    let mut errors = Vec::new();
    macro_rules! both {
        ($call:ident ( $($arg:expr),* )) => {{
            let a = t.$call($($arg),*);
            let b = s.$call($($arg),*);
            if let Some(m) = first_mismatch(&*t, &*s, cells) {
                errors.push(format!("after {}: {m}", stringify!($call)));
            }
            (a, b)
        }};
    }
    macro_rules! reduced {
        ($call:ident ( $($arg:expr),* )) => {{
            let (a, b): (f64, f64) = both!($call($($arg),*));
            if a.to_bits() != b.to_bits() {
                errors.push(format!("{} returned {a:e}, serial {b:e}", stringify!($call)));
            }
            a
        }};
    }
    both!(halo_update(&[FieldId::Density, FieldId::Energy0], 2));
    both!(init_fields(cfg.coefficient, rx, ry));
    reduced!(calc_2norm(NormField::U0));
    // CG, unpreconditioned then preconditioned.
    for precond in [false, true] {
        both!(halo_update(&[FieldId::U], 1));
        let mut rro = reduced!(cg_init(precond));
        for _ in 0..2 {
            both!(halo_update(&[FieldId::P], 1));
            let pw = reduced!(cg_calc_w());
            let rrn = reduced!(cg_calc_ur(rro / pw, precond));
            both!(cg_calc_p(rrn / rro, precond));
            rro = rrn;
        }
    }
    // PPCG's outer step: the discarded reduction, then the inner loop.
    both!(halo_update(&[FieldId::P], 1));
    let pw = reduced!(cg_calc_w());
    both!(cg_update_ur(0.5 / pw, false));
    both!(ppcg_init_sd(1.7));
    for (alpha, beta) in [(0.6, 0.3), (0.7, 0.2)] {
        both!(halo_update(&[FieldId::Sd], 1));
        both!(ppcg_inner(alpha, beta));
    }
    reduced!(calc_2norm(NormField::R));
    // Chebyshev.
    both!(halo_update(&[FieldId::U], 1));
    both!(cheby_init(1.3));
    for (alpha, beta) in [(0.8, 0.4), (0.9, 0.35)] {
        both!(halo_update(&[FieldId::U], 1));
        both!(cheby_iterate(alpha, beta));
    }
    both!(halo_update(&[FieldId::U], 1));
    both!(residual());
    reduced!(calc_2norm(NormField::R));
    // Jacobi.
    for _ in 0..2 {
        both!(halo_update(&[FieldId::U], 1));
        reduced!(jacobi_iterate());
    }
    both!(finalise());
    both!(halo_update(&[FieldId::Energy1], 1));
    let (a, b) = both!(field_summary());
    if a != b {
        errors.push(format!("field_summary {a:?}, serial {b:?}"));
    }
    errors
}

/// Run every rank of a `gx`×1 grid of `cfg` beside a serial port, kernel
/// by kernel (see [`drive_every_kernel`]), and assert no rank diverged.
fn tiles_match_serial(cfg: &TeaConfig, gx: usize) {
    let problem = Problem::from_config(cfg).expect("valid deck");
    let global = &problem.mesh;
    for overlap in [true, false] {
        let errors = run_spmd(gx, |rank| {
            let mut tile = TilePort::new(rank, cfg, Grid2d::new(gx, 1), overlap);
            let mut serial = SerialPort::new(devices::cpu_xeon_e5_2670_x2(), &problem, 1);
            let local = tile.tile().geom.mesh.clone();
            // Local padded column `i` is global padded column `c0 + i`:
            // both meshes pad by the same halo depth.
            let (c0, _) = tile_span(cfg.x_cells, rank.id(), gx);
            let cells: Vec<_> = (local.i0()..local.j1())
                .flat_map(|j| (local.i0()..local.i1()).map(move |i| (j, i)))
                .map(|(j, i)| (j * local.width() + i, j * global.width() + c0 + i))
                .collect();
            let mut errors = Vec::new();
            if local.rx_ry(cfg.initial_timestep) != problem.rx_ry() {
                errors.push("the tile's rx/ry differ from the serial mesh's".to_string());
            }
            errors.extend(drive_every_kernel(
                &mut tile,
                &mut serial,
                cfg,
                problem.rx_ry(),
                &cells,
            ));
            errors
        });
        for (rank, errors) in errors.iter().enumerate() {
            let what = if overlap { "overlap" } else { "blocking" };
            assert!(
                errors.is_empty(),
                "rank {rank} of {gx}x1 {what}: {errors:#?}"
            );
        }
    }
}

#[test]
fn tile_ports_match_serial_sub_blocks_kernel_by_kernel() {
    // 32 columns split two and three ways give every tile the global
    // mesh's `rx`/`ry` bits; 24 split three ways would not.
    let cfg = TeaConfig::paper_problem(32);
    for gx in [1usize, 2, 3] {
        tiles_match_serial(&cfg, gx);
    }
}

/// On a 3×1 grid the middle and east tiles fold their cells onto the
/// carries they receive (the row-block fold seeded with them). 21 rows
/// are five full fold blocks of four and a ragged row, all in one carry
/// block, so every reduction's seeded continuation runs both the
/// interleaved and the row-by-row fold.
#[test]
fn seeded_carry_continuation_on_3x1_ragged_row_blocks() {
    let cfg = TeaConfig {
        y_cells: 21,
        ..TeaConfig::paper_problem(32)
    };
    tiles_match_serial(&cfg, 3);
}

/// Rows stream east in blocks of `CARRY_ROWS`. `2·CARRY_ROWS + 13` rows
/// are two full blocks and a ragged third block that is no whole number
/// of fold blocks; on 3×1 the middle tile receives and forwards every
/// block. Overlap on and off.
#[test]
fn streamed_carries_over_several_row_blocks_on_2x1_and_3x1() {
    let cfg = TeaConfig {
        y_cells: 2 * CARRY_ROWS + 13,
        ..TeaConfig::paper_problem(32)
    };
    for gx in [2usize, 3] {
        tiles_match_serial(&cfg, gx);
    }
}
