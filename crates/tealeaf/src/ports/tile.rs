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
//!   tile, row by row, through the shared launch and its run bodies. The
//!   overlap schedule lives on the logical clock: with overlap on, the pass is
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
//!   shared block body runs once with `Pass::Reduce` seeded with
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
use parpool::{Executor, SerialExec};
use simdev::{KernelProfile, SimContext};
use tea_core::config::{Coefficient, TeaConfig};
use tea_core::halo::FieldId;
use tea_core::mesh::Mesh2d;
use tea_core::summary::Summary;

use crate::distributed::{CheckpointStore, CkptKey, TileCheckpoint};
use crate::ir::{self, KernelId};
use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;
use crate::ports::common::{Launch, PortFields, Run, RunBox};
use crate::resilience::{CutSnapshot, PhaseStart};
use crate::tile::{self, OverlapStats, Span, Tile, TileGeom};

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

/// One rank's kernel launches: the serial port's bodies over the tile's
/// rows in order, every reduction the exactly-ordered global one
/// ([`tile::ordered_reduce`]). The port charges its own logical clock, so
/// the launches charge nothing.
struct TileRows<'a> {
    rank: &'a Rank,
    geom: &'a TileGeom,
}

impl Launch for TileRows<'_> {
    fn grid(
        &self,
        _: KernelId,
        _: &KernelProfile,
        _: &Mesh2d,
        bx: RunBox,
        body: &(impl Fn(Run) + Sync),
    ) {
        bx.rows().for_each(|j| body(bx.row(j)));
    }

    /// The streamed carry pipeline: block by block, the fused update and
    /// fold seeded with the carries from the west tile, or from `+0.0` on
    /// a west-most tile.
    fn sum_rows(
        &self,
        _: KernelId,
        _: &KernelProfile,
        _: &Mesh2d,
        body: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
    ) -> f64 {
        tile::ordered_reduce::<1>(self.rank, self.geom, body)[0]
    }

    fn sum4(
        &self,
        _: KernelId,
        _: &KernelProfile,
        _: &Mesh2d,
        body: &(impl Fn(usize, &mut [f64; 4]) + Sync),
    ) -> [f64; 4] {
        tile::ordered_reduce::<4>(self.rank, self.geom, |rows, sums| {
            for (acc, jj) in sums.chunks_exact_mut(4).zip(rows) {
                body(jj, acc.try_into().expect("four-wide row sums"));
            }
        })
    }

    fn charge(&self, _: KernelId, _: &KernelProfile) {}

    fn exec(&self) -> &dyn Executor {
        &SerialExec
    }
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

    /// Run `run` over the tile's fields with the tile's launcher.
    fn on<R>(&mut self, run: impl FnOnce(&mut PortFields, &TileRows) -> R) -> R {
        let Tile { geom, f } = &mut self.t;
        run(
            f,
            &TileRows {
                rank: self.rank,
                geom,
            },
        )
    }

    /// One stencil pass around the open window (see the module docs):
    /// drain the window, run `run` once over the whole tile, then charge
    /// the schedule on the logical clock. A plain pass when no window is
    /// open.
    fn pass<R>(
        &mut self,
        kernel: KernelId,
        label: &str,
        run: impl FnOnce(&mut PortFields, &TileRows) -> R,
    ) -> R {
        let Some(Window { field, depth, t0 }) = self.window.take() else {
            return self.on(run);
        };
        let got = self.drain(field, depth, t0);
        let out = self.on(run);
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
        self.on(|f, l| {
            f.init_u0(l);
            f.init_coeffs(l, coefficient, rx, ry);
        });
        let mesh = &self.t.f.mesh;
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
        self.on(|f, l| f.cg_init(l, preconditioner))
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.pass(KernelId::CgCalcW, "cg_calc_w", |f, l| f.cg_calc_w(l))
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.on(|f, l| f.cg_calc_ur(l, alpha, preconditioner))
    }

    /// No allreduce and no fold: the PPCG outer loop discards this
    /// reduction, and a collective nobody reads would only add messages.
    fn cg_update_ur(&mut self, alpha: f64, preconditioner: bool) {
        self.t.f.cg_update_ur(alpha, preconditioner);
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.on(|f, l| f.cg_calc_p(l, beta, preconditioner))
    }

    /// The `u += p` tail runs inside the stencil's pass: it moves no
    /// message and charges nothing, so the window closes on the same bits.
    fn cheby_init(&mut self, theta: f64) {
        let caps = self.lowering_caps();
        self.pass(KernelId::ChebyCalcP, "cheby_calc_p", |f, l| {
            f.cheby_step(l, caps, true, theta, 0.0, 0.0)
        })
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        let caps = self.lowering_caps();
        self.pass(KernelId::ChebyCalcP, "cheby_calc_p", |f, l| {
            f.cheby_step(l, caps, false, 0.0, alpha, beta)
        })
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.on(|f, l| f.ppcg_init_sd(l, theta))
    }

    /// As Chebyshev: the u/r/sd tail runs inside the `w = A·sd` pass.
    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        let caps = self.lowering_caps();
        self.pass(KernelId::PpcgCalcW, "ppcg_w", |f, l| {
            f.ppcg_inner(l, caps, alpha, beta)
        })
    }

    /// Double window: the `u → r` copy consumes the reflective `u`
    /// window, then the sweep consumes the raw exchange of the copy. The
    /// scratch's physical ghosts stay untouched (0.0, as in serial).
    fn jacobi_iterate(&mut self) -> f64 {
        self.pass(KernelId::JacobiCopy, "jacobi_copy", |f, l| f.jacobi_copy(l));
        self.open(FieldId::R, 1);
        self.pass(KernelId::JacobiSolve, "jacobi_sweep", |f, l| {
            f.jacobi_solve(l)
        })
    }

    fn residual(&mut self) {
        self.settle();
        self.on(|f, l| f.residual(l))
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.on(|f, l| f.calc_2norm(l, field))
    }

    fn finalise(&mut self) {
        self.on(|f, l| f.finalise(l))
    }

    fn field_summary(&mut self) -> Summary {
        self.settle();
        self.on(|f, l| f.field_summary(l))
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
