//! 2-D tile geometry, overlapped halo exchange and exactly-ordered
//! reductions for the distributed solvers.
//!
//! [`distributed`](crate::distributed) decomposes the global mesh over a
//! [`Grid2d`] of ranks, one rectangular tile each. This module owns the
//! pure mechanics that make a tiled run **bit-identical** to the serial
//! reference:
//!
//! * **Exchange** ([`post_halo`]/[`complete_halo`]): every tile sends its
//!   boundary strips to up to eight neighbours (four edges, four
//!   corners), posts all sends up-front, and drains edges before corners
//!   so the depth×depth corner blocks — the only messages carrying true
//!   diagonal-neighbour data — overwrite whatever the full-extent edge
//!   payloads put in the ghost corners. After completion, every ghost
//!   cell a kernel reads holds exactly the value the serial padded mesh
//!   holds at the same global coordinate.
//! * **Interior/boundary split** ([`Span`]): the schedule an overlapped
//!   stencil pass is charged on the logical clock — an interior pass
//!   (cells whose 5-point stencil reads no ghost cell) beside the
//!   exchange, then a boundary ring pass after it completes. The tile
//!   port drains the exchange first and runs one row pass over the
//!   whole tile. No TeaLeaf kernel writes a field its stencil reads, so
//!   cell update order is irrelevant and the split is bit-identical to
//!   the monolithic sweep by construction (property-tested in
//!   `tests/prop_tile_split.rs`).
//! * **Reductions** ([`ordered_reduce`]): the serial reference folds each
//!   interior row left-to-right from 0.0, then folds the per-row partials
//!   in global row order. Splitting a mesh row across tiles breaks the
//!   in-row fold (f64 addition is not associative), so the row fold is
//!   *pipelined* west→east and *streamed* in blocks of [`CARRY_ROWS`]
//!   rows: for each block, a tile receives the running sums of those rows
//!   from its west neighbour (a west-most tile starts from `+0.0`), runs
//!   its kernel's fused update-and-fold over the block seeded with them,
//!   and forwards the block's sums east. Each row is its own accumulator
//!   chain, so the seeded fold continues the serial row fold exactly, and
//!   an east tile works on one block while its west neighbour works on
//!   the next. A reduction sends ⌈rows/32⌉ carry messages across each
//!   column boundary (outside [`ExchangeMetrics`], which counts halos).
//!   East-most tiles hold exact serial row partials and are the only
//!   ranks contributing to the rank-ordered allreduce; row-major rank
//!   numbering makes their rank order the global row order, so the global
//!   fold bit-equals the serial one.

use std::ops::Range;

use mpisim::topology::{dir_tag, Dir, Grid2d};
use mpisim::{ExchangeMetrics, Rank, Tag};
use tea_core::config::TeaConfig;
use tea_core::field::Field2d;
use tea_core::halo::update_halo;
use tea_core::mesh::Mesh2d;
use tea_core::state::generate_chunk;

use crate::ports::common::{PortFields, FOLD_ROWS};

/// Base tag of the reduction carry pipeline (flows west→east only).
pub const TAG_CARRY: Tag = 15;

/// Interior cell span (global cells) owned by tile `index` of `count`
/// along one axis — the same floor split the 1-D stripes used.
pub fn tile_span(cells: usize, index: usize, count: usize) -> (usize, usize) {
    (index * cells / count, (index + 1) * cells / count)
}

/// Panic unless a `cols × rows` tile can carry the deck's halo.
fn assert_carries_halo(config: &TeaConfig, cols: usize, rows: usize) {
    assert!(
        cols >= config.halo_depth && rows >= config.halo_depth,
        "tile of {cols}x{rows} cells cannot carry a depth-{} halo; use a coarser tile grid",
        config.halo_depth
    );
}

/// Panic unless every tile of `grid` can carry the deck's halo. The
/// spans split with floor division, so the smallest tile holds
/// `cells / tiles` cells on each axis.
pub(crate) fn check_grid(config: &TeaConfig, grid: Grid2d) {
    assert_carries_halo(
        config,
        config.x_cells / grid.tiles_x(),
        config.y_cells / grid.tiles_y(),
    );
}

/// Placement of one rank's tile: its grid coordinates and local mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGeom {
    pub grid: Grid2d,
    pub tx: usize,
    pub ty: usize,
    pub mesh: Mesh2d,
    /// The global mesh's `(rx, ry)` at the deck's timestep. Every rank
    /// scales its face coefficients by these bits: the local mesh
    /// re-derives `dx` from its sub-extent, which can land one ulp off
    /// (24 columns split three ways).
    pub rx_ry: (f64, f64),
}

impl TileGeom {
    /// Build the geometry of `rank`'s tile on `grid`.
    ///
    /// The local extents reuse the stripe formula on both axes
    /// (`min + d·span_start`), so a `1×ranks` grid reproduces the 1-D
    /// stripe meshes bit-for-bit. The diffusion numbers do not come from
    /// the local mesh but from the global one ([`TileGeom::rx_ry`]).
    pub fn build(config: &TeaConfig, grid: Grid2d, rank: usize) -> TileGeom {
        let (tx, ty) = grid.coords(rank);
        let (c0, c1) = tile_span(config.x_cells, tx, grid.tiles_x());
        let (r0, r1) = tile_span(config.y_cells, ty, grid.tiles_y());
        let (cols, rows) = (c1 - c0, r1 - r0);
        assert_carries_halo(config, cols, rows);
        let dx = (config.xmax - config.xmin) / config.x_cells as f64;
        let dy = (config.ymax - config.ymin) / config.y_cells as f64;
        let x = if grid.tiles_x() == 1 {
            (config.xmin, config.xmax)
        } else {
            (config.xmin + dx * c0 as f64, config.xmin + dx * c1 as f64)
        };
        let y = if grid.tiles_y() == 1 {
            (config.ymin, config.ymax)
        } else {
            (config.ymin + dy * r0 as f64, config.ymin + dy * r1 as f64)
        };
        TileGeom {
            grid,
            tx,
            ty,
            mesh: Mesh2d::new(cols, rows, config.halo_depth, x, y),
            rx_ry: config.mesh().rx_ry(config.initial_timestep),
        }
    }

    /// This tile's rank in row-major numbering.
    pub fn rank(&self) -> usize {
        self.grid.rank_at(self.tx, self.ty)
    }

    /// The rank neighbouring this tile in `dir`, if any.
    pub fn neighbor(&self, dir: Dir) -> Option<usize> {
        self.grid.neighbor(self.rank(), dir)
    }
}

/// One rank's tile of the global problem: geometry plus every solver
/// field, halo cells included, in the serial port's field storage
/// (`f.mesh` is `geom.mesh`).
#[derive(Clone)]
pub struct Tile {
    pub geom: TileGeom,
    pub f: PortFields,
}

impl Tile {
    pub fn build(config: &TeaConfig, grid: Grid2d, rank: usize) -> Tile {
        let geom = TileGeom::build(config, grid, rank);
        let mut density = Field2d::zeros(&geom.mesh);
        let mut energy = Field2d::zeros(&geom.mesh);
        generate_chunk(&geom.mesh, &config.states, &mut density, &mut energy);
        let f = PortFields::from_state(&geom.mesh, density, energy);
        Tile { geom, f }
    }
}

// ---------------------------------------------------------------------------
// interior/boundary split
// ---------------------------------------------------------------------------

/// Which cells of the tile interior a kernel pass covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Cells whose 5-point stencil reads only interior cells — safe to
    /// update while a depth-1 halo exchange is still in flight.
    Inner,
    /// The one-cell perimeter ring; its stencil reads ghost cells, so it
    /// runs after the exchange completes.
    Ring,
    /// The whole interior in one monolithic pass.
    All,
}

/// Run `f` over every interior flat index the span covers, row-major.
pub fn for_cells(mesh: &Mesh2d, span: Span, mut f: impl FnMut(usize)) {
    let (i0, i1, w, j1) = (mesh.i0(), mesh.i1(), mesh.width(), mesh.j1());
    let inner_j = (i0 + 1)..j1.saturating_sub(1);
    let inner_i = (i0 + 1)..i1.saturating_sub(1);
    match span {
        Span::All => {
            for j in i0..j1 {
                for i in i0..i1 {
                    f(j * w + i);
                }
            }
        }
        Span::Inner => {
            for j in inner_j {
                for i in inner_i.clone() {
                    f(j * w + i);
                }
            }
        }
        Span::Ring => {
            for j in i0..j1 {
                if inner_j.contains(&j) {
                    for i in i0..i1 {
                        if !inner_i.contains(&i) {
                            f(j * w + i);
                        }
                    }
                } else {
                    for i in i0..i1 {
                        f(j * w + i);
                    }
                }
            }
        }
    }
}

/// Number of cells [`for_cells`] visits for this span.
pub fn span_cells(mesh: &Mesh2d, span: Span) -> u64 {
    let nx = mesh.x_cells as u64;
    let ny = mesh.y_cells as u64;
    let inner = nx.saturating_sub(2) * ny.saturating_sub(2);
    match span {
        Span::All => nx * ny,
        Span::Inner => inner,
        Span::Ring => nx * ny - inner,
    }
}

// ---------------------------------------------------------------------------
// halo exchange
// ---------------------------------------------------------------------------

/// Flat indices of the depth-`depth` strip on the `dir` side of the
/// tile, in payload order. A sent strip (`ghost = false`) holds owned
/// cells ordered inward from the edge; a received one (`ghost = true`)
/// the ghost cells beyond it, ordered outward. Edge strips span the full
/// padded extent along the edge; corner strips are `depth × depth`
/// blocks.
fn strip(mesh: &Mesh2d, dir: Dir, depth: usize, ghost: bool) -> Vec<usize> {
    let (w, h) = (mesh.width(), mesh.height());
    let (i0, i1, j1) = (mesh.i0(), mesh.i1(), mesh.j1());
    // Line `k` from the edge on the high or low side of the span `lo..hi`.
    let line = |k: usize, high: bool, lo: usize, hi: usize| match (ghost, high) {
        (false, true) => hi - 1 - k,
        (false, false) => lo + k,
        (true, true) => hi + k,
        (true, false) => lo - 1 - k,
    };
    let (dx, dy) = dir.offset();
    let mut cells = Vec::with_capacity(depth * w.max(h));
    for k in 0..depth {
        match (dx, dy) {
            (0, _) => {
                let j = line(k, dy > 0, i0, j1);
                cells.extend(j * w..(j + 1) * w);
            }
            (_, 0) => {
                let i = line(k, dx > 0, i0, i1);
                cells.extend((0..h).map(|j| j * w + i));
            }
            _ => {
                let j = line(k, dy > 0, i0, j1);
                cells.extend((0..depth).map(|ki| j * w + line(ki, dx > 0, i0, i1)));
            }
        }
    }
    cells
}

/// Pack the strip a neighbour on the `dir` side needs.
fn gather(mesh: &Mesh2d, field: &[f64], dir: Dir, depth: usize) -> Vec<f64> {
    strip(mesh, dir, depth, false)
        .into_iter()
        .map(|k| field[k])
        .collect()
}

/// Unpack a neighbour's payload into this tile's ghost cells on the
/// `dir` side (`dir` = where the neighbour sits; `data` = the
/// neighbour's [`gather`] towards us).
fn scatter(mesh: &Mesh2d, field: &mut [f64], dir: Dir, depth: usize, data: &[f64]) {
    let cells = strip(mesh, dir, depth, true);
    assert_eq!(cells.len(), data.len(), "halo payload size");
    for (k, &value) in cells.into_iter().zip(data) {
        field[k] = value;
    }
}

/// Open one halo-exchange window: refresh the local reflective halo
/// (unless `reflect` is false — Jacobi's previous-iterate scratch keeps
/// its physical ghosts at the serial value 0.0), then post one buffered
/// send per existing neighbour. Compute may proceed on interior cells
/// until [`complete_halo`] drains the matching receives.
pub fn post_halo(
    rank: &Rank,
    geom: &TileGeom,
    field: &mut [f64],
    base: Tag,
    depth: usize,
    reflect: bool,
    metrics: &mut ExchangeMetrics,
) {
    if reflect {
        update_halo(&geom.mesh, field, depth);
    }
    for dir in Dir::ALL {
        let Some(peer) = geom.neighbor(dir) else {
            continue;
        };
        let payload = gather(&geom.mesh, field, dir, depth);
        metrics.record(dir, payload.len());
        rank.send(peer, dir_tag(base, dir), payload);
    }
}

/// Drain the receives of the window [`post_halo`] opened — edges first,
/// corners last, so corner blocks are authoritative in the ghost
/// corners. Returns the number of elements received.
pub fn complete_halo(
    rank: &Rank,
    geom: &TileGeom,
    field: &mut [f64],
    base: Tag,
    depth: usize,
) -> u64 {
    let mut received = 0;
    for dir in Dir::ALL {
        let Some(peer) = geom.neighbor(dir) else {
            continue;
        };
        // The neighbour sent towards us, i.e. with the travel direction
        // opposite to where it sits from our point of view.
        let data = rank.recv(peer, dir_tag(base, dir.opposite()));
        received += data.len() as u64;
        scatter(&geom.mesh, field, dir, depth, &data);
    }
    received
}

// ---------------------------------------------------------------------------
// exactly-ordered reductions
// ---------------------------------------------------------------------------

/// Interior rows per carry message: eight blocks of the kernels' row-block
/// fold. An east tile starts a block as soon as its west neighbour has
/// sent it, so adjacent tile columns lag by one block, not one tile. On a
/// 2×1 grid at 512² (hostbench `tiled_2x1`, 2-vCPU Xeon VM) 16-row blocks
/// read the same as 32 within noise, while 64, 128 and 256 rows read
/// ≈4.8, ≈4.5 and ≈4.4 solves/s against ≈5.0: the larger the block, the
/// longer the east tile waits for its first one.
pub const CARRY_ROWS: usize = 8 * FOLD_ROWS;

/// Exactly-ordered global reduction of `K`-component row sums, flattened
/// `K` wide: the streamed carry pipeline described in the module docs.
/// The tile walks its interior rows in blocks of [`CARRY_ROWS`];
/// `fold(rows, acc)` continues `acc` over the tile's cells of the interior
/// rows `rows`, where `acc` holds the carries received from the west
/// neighbour (`+0.0` on a west-most tile). Bit-equal to the serial
/// row-ordered reduction for any tile grid.
pub fn ordered_reduce<const K: usize>(
    rank: &Rank,
    geom: &TileGeom,
    mut fold: impl FnMut(Range<usize>, &mut [f64]),
) -> [f64; K] {
    let (west, east) = (geom.neighbor(Dir::W), geom.neighbor(Dir::E));
    let (tag, ny) = (dir_tag(TAG_CARRY, Dir::E), geom.mesh.y_cells);
    // Only east-most tiles hold complete row partials; the others
    // contribute nothing to the global fold.
    let mut partials = vec![[0.0; K]; if east.is_none() { ny } else { 0 }];
    for start in (0..ny).step_by(CARRY_ROWS) {
        let block = start..ny.min(start + CARRY_ROWS);
        let mut acc = match west {
            Some(west) => rank.recv(west, tag),
            None => vec![0.0; block.len() * K],
        };
        debug_assert_eq!(acc.len(), block.len() * K);
        fold(block.clone(), &mut acc);
        match east {
            Some(east) => rank.send(east, tag, acc),
            None => partials[block].as_flattened_mut().copy_from_slice(&acc),
        }
    }
    rank.allreduce_ordered_components(&partials)
}

// ---------------------------------------------------------------------------
// overlap accounting
// ---------------------------------------------------------------------------

/// What a rank's overlapped exchange windows hid, in deterministic
/// logical units: cell updates and exchanged elements (never wall
/// time, so reports are reproducible bit-for-bit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapStats {
    /// Exchange windows opened (one per overlapped stencil pass).
    pub windows: u64,
    /// Cell updates run while an exchange window was open.
    pub interior_cells: u64,
    /// Cell updates run after the window completed (the boundary ring).
    pub boundary_cells: u64,
    /// Elements received through overlapped windows.
    pub exchanged_elements: u64,
    /// Exchanged elements hidden behind interior compute:
    /// `min(interior cell updates, exchanged elements)` per window.
    pub hidden_elements: u64,
}

impl OverlapStats {
    /// Account one exchange window.
    pub fn absorb_window(&mut self, interior: u64, boundary: u64, exchanged: u64) {
        self.windows += 1;
        self.interior_cells += interior;
        self.boundary_cells += boundary;
        self.exchanged_elements += exchanged;
        self.hidden_elements += interior.min(exchanged);
    }

    /// Fold another rank's stats into this one.
    pub fn merge(&mut self, other: &OverlapStats) {
        self.windows += other.windows;
        self.interior_cells += other.interior_cells;
        self.boundary_cells += other.boundary_cells;
        self.exchanged_elements += other.exchanged_elements;
        self.hidden_elements += other.hidden_elements;
    }

    /// Fraction of exchanged elements hidden behind interior compute.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.exchanged_elements == 0 {
            0.0
        } else {
            self.hidden_elements as f64 / self.exchanged_elements as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_span_partitions_both_axes() {
        for cells in [7usize, 16, 33, 50] {
            for count in 1..=5 {
                let mut covered = 0;
                for index in 0..count {
                    let (c0, c1) = tile_span(cells, index, count);
                    assert!(c0 <= c1);
                    covered += c1 - c0;
                    if index > 0 {
                        assert_eq!(c0, tile_span(cells, index - 1, count).1);
                    }
                }
                assert_eq!(covered, cells);
            }
        }
    }

    #[test]
    fn inner_and_ring_partition_the_interior() {
        for (nx, ny) in [(6usize, 5usize), (1, 4), (4, 1), (1, 1), (2, 2), (3, 8)] {
            for halo in [1usize, 2] {
                let mesh = Mesh2d::new(nx, ny, halo, (0.0, 1.0), (0.0, 1.0));
                let collect = |span| {
                    let mut v = Vec::new();
                    for_cells(&mesh, span, |k| v.push(k));
                    v
                };
                let all = collect(Span::All);
                let inner = collect(Span::Inner);
                let ring = collect(Span::Ring);
                assert_eq!(all.len() as u64, span_cells(&mesh, Span::All));
                assert_eq!(inner.len() as u64, span_cells(&mesh, Span::Inner));
                assert_eq!(ring.len() as u64, span_cells(&mesh, Span::Ring));
                let mut merged: Vec<usize> = inner.iter().chain(ring.iter()).copied().collect();
                merged.sort_unstable();
                assert_eq!(merged, all, "{nx}x{ny} halo {halo}");
                assert!(inner.iter().all(|k| !ring.contains(k)));
            }
        }
    }

    #[test]
    fn strip_grid_geometry_matches_the_legacy_stripes() {
        let cfg = TeaConfig::paper_problem(16);
        let grid = Grid2d::column_strip(4);
        for rank in 0..4 {
            let geom = TileGeom::build(&cfg, grid, rank);
            let (r0, r1) = tile_span(cfg.y_cells, rank, 4);
            assert_eq!(geom.mesh.x_cells, cfg.x_cells);
            assert_eq!(geom.mesh.y_cells, r1 - r0);
            assert_eq!((geom.mesh.xmin, geom.mesh.xmax), (cfg.xmin, cfg.xmax));
            assert_eq!((geom.tx, geom.ty), (0, rank));
        }
    }

    #[test]
    fn overlap_stats_cap_hidden_at_the_exchange_size() {
        let mut s = OverlapStats::default();
        s.absorb_window(100, 36, 40); // plenty of interior: all hidden
        s.absorb_window(10, 36, 40); // interior too small: partial
        assert_eq!(s.windows, 2);
        assert_eq!(s.hidden_elements, 50);
        assert_eq!(s.exchanged_elements, 80);
        assert!((s.overlap_efficiency() - 50.0 / 80.0).abs() < 1e-15);
    }
}
