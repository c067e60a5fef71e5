//! The tile port: one rank's [`Tile`] of a distributed run as a
//! [`TeaLeafPort`], so the step loop and the solvers in
//! [`crate::solver`] drive every rank exactly as they drive a node-level
//! port.
//!
//! What differs is how the port lowers the kernel calls onto a tile —
//! the same kind of decision fusion is for the node-level ports
//! ([`crate::ir`]):
//!
//! * **Halo windows.** `halo_update` of a field a stencil kernel reads
//!   next (`u`, `p`, `sd`) only *opens* the exchange window: the
//!   reflective refresh and the sends happen now, the receives wait. The
//!   next stencil kernel drains the window, then runs once over the whole
//!   tile, row by row, through the serial port's row bodies. The overlap
//!   schedule lives on the logical clock: with overlap on, the pass is
//!   charged as an interior ([`Span::Inner`]) running from the window's
//!   start beside the exchange, then the boundary ring ([`Span::Ring`]);
//!   with overlap off, as one monolithic pass after the exchange. No
//!   kernel writes a field its stencil reads, so the split schedule and
//!   the one pass write identical bits (`tests/prop_tile_split.rs`), and
//!   the drain moves no message: no send sits between it and the split
//!   schedule's receive. When the IR proves the ring safe to batch
//!   ([`ir::concurrent_ring`]) the ring is charged behind the drain
//!   rather than behind the interior. The coefficient build of
//!   `init_fields` reads only density and writes only `kx`/`ky`, so it
//!   is charged as riding the `u` window that follows it.
//! * **Reductions** return the streamed carry pipeline's global sum,
//!   [`tile::ordered_reduce`] — bit-equal to the serial row fold. The
//!   whole stream is the kernel pass: every [`tile::CARRY_ROWS`] rows, the
//!   serial port's block body runs once with [`Pass::Reduce`] seeded with
//!   the carries the west tile sent for those rows (`+0.0` on a west-most
//!   tile), and the block's sums go east. Each tile makes one fused pass,
//!   and an east tile starts as soon as the first block arrives.
//! * **Jacobi's scratch** (the previous iterate, kept in `r`) is
//!   exchanged raw inside `jacobi_iterate`: the serial sweep reads 0.0
//!   in its physical ghosts, so no reflective refresh.
//!
//! Logical units — one per cell update and per exchanged element — are
//! charged as host time on the port's [`SimContext`], so solver spans
//! and exchange spans share one deterministic clock. The port keeps
//! [`OverlapStats`] and [`ExchangeMetrics`] for [`crate::run`].
//!
//! Checkpoint cuts go into the world-restart rings of a resilient run
//! ([`crate::distributed`]); a plain run keeps no snapshots at all.

use std::ops::Range;

use mpisim::{ExchangeMetrics, Grid2d, Rank, Tag};
use simdev::SimContext;
use tea_core::config::{Coefficient, TeaConfig};
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::distributed::{CheckpointStore, CkptKey, TileCheckpoint};
use crate::ir::{self, KernelId};
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{self, Pass, PortFields, Run, Us};
use crate::resilience::{CutSnapshot, PhaseStart};
use crate::tile::{self, OverlapStats, Span, Tile};

/// The base tag of `id`'s halo exchange. `R` names Jacobi's
/// previous-iterate scratch, the one field exchanged raw.
fn base_tag(id: FieldId) -> Tag {
    match id {
        FieldId::Density => 1,
        FieldId::Energy0 | FieldId::Energy1 => 2,
        FieldId::U => 3,
        FieldId::P => 4,
        FieldId::Sd => 5,
        FieldId::R => 6,
        other => panic!("the tile port exchanges no {} halo", other.name()),
    }
}

/// The exchange's name in `exchange` spans.
fn halo_name(id: FieldId) -> &'static str {
    match id {
        FieldId::Energy0 | FieldId::Energy1 => "energy",
        FieldId::R => "r-scratch",
        other => other.name(),
    }
}

/// An exchange window `halo_update` left open for the next stencil
/// kernel: its field, depth and logical start.
#[derive(Clone, Copy)]
struct Window {
    field: FieldId,
    depth: usize,
    t0: f64,
}

/// Run `row` over the tile's interior rows in order.
fn rows(mesh: &Mesh2d, row: impl FnMut(usize)) {
    (mesh.i0()..mesh.j1()).for_each(row)
}

/// The world-restart checkpointing of a resilient run.
struct Cuts<'a> {
    store: &'a CheckpointStore,
    interval: usize,
    /// `(step, total_iterations, converged)` at the top of this step.
    step: (usize, usize, bool),
    /// The latest phase cut — what a rollback restores.
    last: Option<CkptKey>,
}

/// One rank's tile as a [`TeaLeafPort`]. See the module docs.
pub struct TilePort<'a> {
    rank: &'a Rank,
    t: Tile,
    ctx: SimContext,
    overlap: bool,
    stats: OverlapStats,
    metrics: ExchangeMetrics,
    window: Option<Window>,
    /// Cells of the coefficient build that rides the next `u` window.
    rider: Option<u64>,
    cuts: Option<Cuts<'a>>,
}

impl<'a> TilePort<'a> {
    /// `rank`'s tile of `grid`, generated from the deck. `overlap` picks
    /// the split schedule over the blocking one.
    pub fn new(rank: &'a Rank, config: &TeaConfig, grid: Grid2d, overlap: bool) -> Self {
        Self::with_tile(rank, Tile::build(config, grid, rank.id()), overlap)
    }

    /// A port over an existing tile (a checkpoint being resumed).
    pub(crate) fn with_tile(rank: &'a Rank, t: Tile, overlap: bool) -> Self {
        let device = simdev::devices::unpowered(simdev::devices::cpu_xeon_e5_2670_x2());
        TilePort {
            rank,
            t,
            ctx: SimContext::new(
                device,
                crate::profiles::model_profile(ModelId::Serial),
                Vec::new(),
                0,
            ),
            overlap,
            stats: OverlapStats::default(),
            metrics: ExchangeMetrics::default(),
            window: None,
            rider: None,
            cuts: None,
        }
    }

    /// Save checkpoint cuts into `store`: a step cut every step and a
    /// phase cut wherever the phase guard offers one, when `interval` is
    /// non-zero. `step` is `(step, total_iterations, converged)` at the
    /// top of the step the port starts in.
    pub(crate) fn keep_cuts(
        &mut self,
        store: &'a CheckpointStore,
        interval: usize,
        step: (usize, usize, bool),
    ) {
        self.cuts = Some(Cuts {
            store,
            interval,
            step,
            last: None,
        });
    }

    /// The tile this port runs on.
    pub fn tile(&self) -> &Tile {
        &self.t
    }

    /// What the port's exchange windows hid, and the per-direction
    /// message counters.
    pub fn instrumentation(&self) -> (OverlapStats, ExchangeMetrics) {
        (self.stats, self.metrics)
    }

    // --- the logical clock ---

    fn now(&self) -> f64 {
        self.ctx.clock.seconds()
    }

    fn advance_to(&self, t: f64) {
        self.ctx.host(t - self.now());
    }

    fn span(&self, cat: &'static str, name: std::fmt::Arguments<'_>, t0: f64, t1: f64) {
        self.ctx.telemetry().complete_span(cat, name, t0, t1);
    }

    // --- exchanges ---

    fn post(&mut self, id: FieldId, depth: usize) {
        let field = self.t.f.field_mut(id);
        let (tag, reflect) = (base_tag(id), id != FieldId::R);
        tile::post_halo(
            self.rank,
            &self.t.geom,
            field,
            tag,
            depth,
            reflect,
            &mut self.metrics,
        );
    }

    /// Drain `id`'s window and trace it as an exchange span from `t0`;
    /// returns the elements received.
    fn drain(&mut self, id: FieldId, depth: usize, t0: f64) -> u64 {
        let field = self.t.f.field_mut(id);
        let got = tile::complete_halo(self.rank, &self.t.geom, field, base_tag(id), depth);
        let name = halo_name(id);
        self.span("exchange", format_args!("{name} halo"), t0, t0 + got as f64);
        got
    }

    /// Exchanges with no kernel to overlap. With overlap on, every
    /// window's sends are posted before any is drained, so the wires run
    /// concurrently and the batch is charged its slowest exchange; the
    /// tags keep the messages apart, so the bits equal back-to-back
    /// exchanges — which is what blocking mode runs.
    fn exchange(&mut self, fields: &[FieldId], depth: usize) {
        if !self.overlap && fields.len() > 1 {
            for &id in fields {
                self.exchange(&[id], depth);
            }
            return;
        }
        let t0 = self.now();
        for &id in fields {
            self.post(id, depth);
        }
        let mut slowest = 0u64;
        for &id in fields {
            slowest = slowest.max(self.drain(id, depth, t0));
        }
        self.advance_to(t0 + slowest as f64);
    }

    /// Open a window for the next stencil pass.
    fn open(&mut self, field: FieldId, depth: usize) {
        self.settle();
        let t0 = self.now();
        self.post(field, depth);
        self.window = Some(Window { field, depth, t0 });
    }

    /// Complete a window no stencil pass consumed, as a plain exchange.
    fn settle(&mut self) {
        if let Some(Window { field, depth, t0 }) = self.window.take() {
            let got = self.drain(field, depth, t0);
            self.advance_to(t0 + got as f64);
        }
    }

    /// The `u` window after `init_fields`, charged with the coefficient
    /// build of `cells` cells riding it (the build already ran: it reads
    /// no `u` cell, so running it before the sends changes no bit).
    fn ride(&mut self, depth: usize, cells: u64) {
        let t0 = self.now();
        self.post(FieldId::U, depth);
        let got = self.drain(FieldId::U, depth, t0);
        let t_exchange = t0 + got as f64;
        if self.overlap {
            let t_run = t0 + cells as f64;
            self.span("interior", format_args!("init_coeffs"), t0, t_run);
            self.advance_to(t_run.max(t_exchange));
            self.stats.absorb_window(cells, 0, got);
        } else {
            self.advance_to(t_exchange);
            let t_run = t_exchange + cells as f64;
            self.span("boundary", format_args!("init_coeffs"), t_exchange, t_run);
            self.advance_to(t_run);
            self.stats.absorb_window(0, cells, got);
        }
    }

    /// One stencil pass around the open window (see the module docs):
    /// drain the window, run `run` once over the whole tile, then charge
    /// the schedule on the logical clock. A plain pass when no window is
    /// open.
    fn pass<R>(
        &mut self,
        kernel: KernelId,
        label: &str,
        run: impl FnOnce(&mut PortFields) -> R,
    ) -> R {
        let Some(Window { field, depth, t0 }) = self.window.take() else {
            return run(&mut self.t.f);
        };
        let got = self.drain(field, depth, t0);
        let out = run(&mut self.t.f);
        let mesh = &self.t.geom.mesh;
        if self.overlap {
            let (interior, ring) = (
                tile::span_cells(mesh, Span::Inner),
                tile::span_cells(mesh, Span::Ring),
            );
            // Logical timeline: the exchange and the interior pass share
            // the window's start; the window closes when both are done.
            let t_interior = t0 + interior as f64;
            let t_exchange = t0 + got as f64;
            self.span("interior", format_args!("{label} interior"), t0, t_interior);
            let tb = if ir::concurrent_ring(kernel.desc()) {
                // Batched: the ring rides the drain's stream and overlaps
                // the interior tail.
                t_exchange
            } else {
                // A self-clobbering kernel would have to wait for both.
                t_interior.max(t_exchange)
            };
            self.advance_to(t_interior.max(tb + ring as f64));
            self.span(
                "boundary",
                format_args!("{label} ring"),
                tb,
                tb + ring as f64,
            );
            self.stats.absorb_window(interior, ring, got);
        } else {
            let all = tile::span_cells(mesh, Span::All);
            let ta = t0 + got as f64;
            // Two charges, not one: the clock's bits are pinned to the
            // drain and the pass each charging their own step.
            self.advance_to(ta);
            self.advance_to(ta + all as f64);
            self.span("boundary", format_args!("{label}"), ta, ta + all as f64);
            self.stats.absorb_window(0, all, got);
        }
        out
    }

    /// A reducing kernel on the tile, as one exactly-ordered global
    /// reduction ([`tile::ordered_reduce`]). `body(fields, rows, pass)`
    /// runs the kernel's block body over the interior rows `rows`. The
    /// kernel pass (around the open window of `stencil`, see
    /// [`TilePort::pass`]) is the streamed carry pipeline: block by block,
    /// the fused update and fold ([`Pass::Reduce`]) seeded with the
    /// carries from the west tile, or from `+0.0` on a west-most tile.
    fn reduce(
        &mut self,
        stencil: Option<(KernelId, &str)>,
        body: impl Fn(&mut PortFields, Range<usize>, Pass<'_>),
    ) -> f64 {
        let (rank, geom) = (self.rank, self.t.geom.clone());
        let run = |f: &mut PortFields| {
            let fold = |rows, acc: &mut [f64]| body(f, rows, Pass::Reduce(acc));
            tile::ordered_reduce::<1>(rank, &geom, fold)[0]
        };
        match stencil {
            Some((kernel, label)) => self.pass(kernel, label, run),
            None => run(&mut self.t.f),
        }
    }

    // --- kernel bodies ---
    //
    // The serial port's row and block bodies over the same field storage,
    // one row loop or block call per kernel. SAFETY throughout:
    // single-threaded within the rank, each row written by exactly one
    // call per pass.

    /// The CG update over the interior rows `rows`, as the `pass` asks.
    fn update_ur(
        f: &mut PortFields,
        rows: Range<usize>,
        pass: Pass<'_>,
        alpha: f64,
        preconditioner: bool,
    ) {
        let (u, r, z) = (Us::new(&mut f.u), Us::new(&mut f.r), Us::new(&mut f.z));
        let (p, w, kx, ky) = (&f.p, &f.w, &f.kx, &f.ky);
        unsafe {
            common::block_cg_calc_ur(
                &f.mesh,
                rows,
                pass,
                alpha,
                preconditioner,
                p,
                w,
                kx,
                ky,
                &u,
                &r,
                &z,
            )
        }
    }

    fn cheby_step(&mut self, first: bool, theta: f64, alpha: f64, beta: f64) {
        self.pass(KernelId::ChebyCalcP, "cheby_calc_p", |f| {
            let (w, r, p) = (Us::new(&mut f.w), Us::new(&mut f.r), Us::new(&mut f.p));
            rows(&f.mesh, |j| unsafe {
                common::row_cheby_calc_p(
                    &f.mesh, j, first, theta, alpha, beta, &f.u, &f.u0, &f.kx, &f.ky, &w, &r, &p,
                )
            });
        });
        let f = &mut self.t.f;
        let u = Us::new(&mut f.u);
        rows(&f.mesh, |j| unsafe {
            common::row_add_p_to_u(&f.mesh, j, &f.p, &u)
        });
    }

    /// Save one checkpoint of the tile into the rings.
    fn save(&self, key: CkptKey, phase: Option<PhaseStart>) {
        let Some(cuts) = &self.cuts else { return };
        self.ctx.telemetry().event(
            "resilience",
            format_args!(
                "checkpoint step {} phase {} iteration {}",
                key.0, key.1, key.2
            ),
            self.now(),
        );
        cuts.store.save(
            self.rank.id(),
            TileCheckpoint {
                key,
                total_iterations: cuts.step.1,
                converged_all: cuts.step.2,
                phase,
                tile: self.t.clone(),
            },
        );
    }
}

impl TeaLeafPort for TilePort<'_> {
    fn model(&self) -> ModelId {
        ModelId::Serial
    }

    fn context(&self) -> &SimContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SimContext {
        &mut self.ctx
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        let f = &mut self.t.f;
        let mesh = &f.mesh;
        let (u0, u) = (Us::new(&mut f.u0), Us::new(&mut f.u));
        let (kx, ky) = (Us::new(&mut f.kx), Us::new(&mut f.ky));
        for j in mesh.i0()..mesh.j1() {
            unsafe { common::row_init_u0(mesh, j, &f.density, &f.energy, &u0, &u) };
        }
        for j in mesh.i0()..=mesh.j1() {
            unsafe { common::row_init_coeffs(mesh, j, coefficient, rx, ry, &f.density, &kx, &ky) };
        }
        self.rider = Some(((mesh.x_cells + 1) * (mesh.y_cells + 1)) as u64);
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.settle();
        match *fields {
            [FieldId::U] if self.rider.is_some() => {
                let cells = self.rider.take().expect("checked by the guard");
                self.ride(depth, cells);
            }
            [id @ (FieldId::U | FieldId::P | FieldId::Sd)] => self.open(id, depth),
            _ => self.exchange(fields, depth),
        }
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        // A stencil run as one pass: its ghosts must have landed.
        self.settle();
        self.reduce(None, |f, rows, pass| {
            let (w, r) = (Us::new(&mut f.w), Us::new(&mut f.r));
            let (p, z) = (Us::new(&mut f.p), Us::new(&mut f.z));
            let (u, u0, kx, ky) = (&f.u, &f.u0, &f.kx, &f.ky);
            unsafe {
                common::block_cg_init(
                    &f.mesh,
                    rows,
                    pass,
                    preconditioner,
                    u,
                    u0,
                    kx,
                    ky,
                    &w,
                    &r,
                    &p,
                    &z,
                )
            }
        })
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.reduce(Some((KernelId::CgCalcW, "cg_calc_w")), |f, rows, pass| {
            let w = Us::new(&mut f.w);
            unsafe { common::block_cg_calc_w(&f.mesh, rows, pass, &f.p, &f.kx, &f.ky, &w) }
        })
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.reduce(None, |f, rows, pass| {
            Self::update_ur(f, rows, pass, alpha, preconditioner)
        })
    }

    /// No allreduce and no fold: the PPCG outer loop discards this
    /// reduction, and a collective nobody reads would only add messages.
    fn cg_update_ur(&mut self, alpha: f64, preconditioner: bool) {
        let rows = 0..self.t.f.mesh.y_cells;
        Self::update_ur(&mut self.t.f, rows, Pass::Update, alpha, preconditioner);
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        let f = &mut self.t.f;
        let p = Us::new(&mut f.p);
        rows(&f.mesh, |j| unsafe {
            common::row_cg_calc_p(&f.mesh, j, beta, preconditioner, &f.r, &f.z, &p)
        });
    }

    fn cheby_init(&mut self, theta: f64) {
        self.cheby_step(true, theta, 0.0, 0.0);
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.cheby_step(false, 0.0, alpha, beta);
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        let f = &mut self.t.f;
        let sd = Us::new(&mut f.sd);
        rows(&f.mesh, |j| unsafe {
            common::row_sd_init(&f.mesh, j, theta, &f.r, &sd)
        });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.pass(KernelId::PpcgCalcW, "ppcg_w", |f| {
            let w = Us::new(&mut f.w);
            rows(&f.mesh, |j| unsafe {
                common::row_ppcg_w(&f.mesh, j, &f.sd, &f.kx, &f.ky, &w)
            });
        });
        let f = &mut self.t.f;
        let (u, r, sd) = (Us::new(&mut f.u), Us::new(&mut f.r), Us::new(&mut f.sd));
        rows(&f.mesh, |j| unsafe {
            common::row_ppcg_update(&f.mesh, j, alpha, beta, &f.w, &u, &r, &sd)
        });
    }

    /// Double window: the `u → r` copy consumes the reflective `u`
    /// window, then the sweep consumes the raw exchange of the copy. The
    /// scratch's physical ghosts stay untouched (0.0, as in serial).
    fn jacobi_iterate(&mut self) -> f64 {
        self.pass(KernelId::JacobiCopy, "jacobi_copy", |f| {
            let r = Us::new(&mut f.r);
            rows(&f.mesh, |j| unsafe {
                common::row_jacobi_copy(&f.mesh, j, &f.u, &r)
            });
        });
        self.open(FieldId::R, 1);
        let sweep = (KernelId::JacobiSolve, "jacobi_sweep");
        self.reduce(Some(sweep), |f, rows, pass| {
            let u = Us::new(&mut f.u);
            let (u0, r, kx, ky) = (&f.u0, &f.r, &f.kx, &f.ky);
            unsafe { common::block_jacobi_iterate(&f.mesh, rows, pass, u0, r, kx, ky, &u) }
        })
    }

    fn residual(&mut self) {
        self.settle();
        let f = &mut self.t.f;
        let r = Us::new(&mut f.r);
        rows(&f.mesh, |j| unsafe {
            common::row_residual(&f.mesh, j, &f.u, &f.u0, &f.kx, &f.ky, &r)
        });
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.reduce(None, |f, rows, pass| {
            let x = match field {
                NormField::U0 => &f.u0,
                NormField::R => &f.r,
            };
            common::block_norm(&f.mesh, rows, pass, x)
        })
    }

    fn finalise(&mut self) {
        let f = &mut self.t.f;
        let energy = Us::new(&mut f.energy);
        rows(&f.mesh, |j| unsafe {
            common::row_finalise(&f.mesh, j, &f.u, &f.density, &energy)
        });
    }

    fn field_summary(&mut self) -> Summary {
        self.settle();
        let Tile { geom, f } = &self.t;
        let vol = geom.mesh.cell_volume();
        let global = tile::ordered_reduce::<4>(self.rank, geom, |rows, sums| {
            for (acc, jj) in sums.chunks_exact_mut(4).zip(rows) {
                let acc: &mut [f64; 4] = acc.try_into().expect("four-wide row sums");
                let row = Run::row(&f.mesh, f.mesh.i0() + jj);
                common::run_summary(row, &f.density, &f.energy, &f.u, vol, acc);
            }
        });
        Summary::from(global)
    }

    fn read_u(&mut self) -> Vec<f64> {
        self.t.f.u.clone()
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        Some(self.t.f.field(id).to_vec())
    }

    fn inspect_field_into(&self, id: FieldId, out: &mut Vec<f64>) -> bool {
        self.t.f.copy_into(id, out)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.t.f.field_mut(id)[k] = value;
    }

    fn step_cut(&mut self, step: usize, total_iterations: usize, converged: bool) {
        self.settle();
        let Some(cuts) = &mut self.cuts else { return };
        cuts.step = (step, total_iterations, converged);
        if cuts.interval > 0 {
            self.save((step, 0, 0), None);
        }
    }

    /// Only the solve's first CG phase is resumable (a restart replays
    /// the step from there), so later phases keep no cut.
    fn phase_cut(&mut self, phase: u8, cut: &PhaseStart) -> CutSnapshot {
        self.settle();
        let key = match &mut self.cuts {
            Some(cuts) if phase == 1 => {
                let key = (cuts.step.0, 1, cut.iteration);
                cuts.last = Some(key);
                key
            }
            _ => return CutSnapshot::Off,
        };
        self.save(key, Some(cut.clone()));
        CutSnapshot::Port
    }

    fn restore_cut(&mut self) {
        let cuts = self.cuts.as_ref().expect("only resilient runs keep cuts");
        let key = cuts.last.expect("a phase cut was kept");
        // The latest cut is the newest entry of this rank's ring.
        self.t = cuts
            .store
            .get(self.rank.id(), key)
            .expect("the latest cut is still in the ring")
            .tile;
    }
}
