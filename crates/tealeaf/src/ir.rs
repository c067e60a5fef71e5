//! The shared kernel IR: one description of every TeaLeaf kernel that
//! all eight ports lower through their own idioms.
//!
//! The paper's central tension is one algorithm hand-written eight ways;
//! this module is the reproduction's answer to that cost. Each kernel is
//! described **once** — its access pattern, the fields it reads and
//! writes, its per-cell traffic and flops, and its reduction arity — and
//! everything that used to be per-port special-casing is *derived*:
//!
//! * the launch profiles the ports charge through `simdev`
//!   ([`KernelDesc::profile`], which every kernel launch in
//!   `ports::common` takes its profile from, fused tails through
//!   `ports::common::profiles::fused_pair`),
//! * fusion legality ([`FusionKind::legal`]): whether a tail sweep may
//!   ride the head's dispatch without reading another work-item's
//!   freshly-written data,
//! * per-port capability flags ([`LoweringCaps`]) replacing the old
//!   `supports_fused_cg` plumbing: a port states *what its runtime can
//!   express* (e.g. appending a second sweep to one parallel region) and
//!   the solver asks [`fusion_active`] instead of hard-coding pairs,
//! * boundary-ring batching legality in the 2-D tiled path
//!   ([`concurrent_ring`]): whether a kernel's boundary ring may be
//!   enqueued behind the halo drain, concurrently with its interior
//!   sweep.
//!
//! Nothing here touches numerics: the IR governs *charging and
//! scheduling shape* only, and every consumer preserves the per-cell
//! arithmetic and index-ordered reductions bit-for-bit (pinned by
//! `tests/prop_ir_lowering.rs` and the golden registry).

use tea_core::halo::FieldId;

/// Memory-access shape of a kernel's sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Per-cell (axpy-like): cell `k` touches only index `k` of every
    /// array it names.
    Streaming,
    /// 5-point stencil: cell `k` additionally reads the four neighbours
    /// of [`KernelDesc::stencil_read`].
    Stencil5,
}

/// Reduction arity a kernel folds (always per-interior-row partials
/// combined in index order — the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    None,
    /// Scalar sum (dot product / norm / residual).
    Sum,
    /// Four-component sum (the field summary).
    Sum4,
}

/// Every TeaLeaf kernel, named once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    InitU0,
    InitCoeffs,
    CgInit,
    CgCalcW,
    CgCalcUr,
    CgCalcP,
    ChebyCalcP,
    ChebyCalcU,
    PpcgInitSd,
    PpcgCalcW,
    PpcgUpdate,
    JacobiCopy,
    JacobiSolve,
    Residual,
    Calc2Norm,
    Finalise,
    FieldSummary,
    HaloUpdate,
}

/// The IR record for one kernel: everything a port or the cost model
/// needs to lower it. Per-cell counts follow the row/cell helpers in
/// `ports::common` — the single arithmetic definition all ports share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDesc {
    pub id: KernelId,
    /// Launch-profile name. Quirk rules match on prefixes of this.
    pub name: &'static str,
    pub access: Access,
    /// The field whose four neighbours a [`Access::Stencil5`] sweep
    /// reads; `None` for streaming kernels.
    pub stencil_read: Option<FieldId>,
    /// Fields read per cell (the stencil field included).
    pub reads: &'static [FieldId],
    /// Fields written per cell.
    pub writes: &'static [FieldId],
    /// Arrays streamed in per cell (unpreconditioned form).
    pub reads_per_cell: u32,
    /// Arrays streamed out per cell (unpreconditioned form).
    pub writes_per_cell: u32,
    /// Extra arrays read when the diagonal preconditioner is on.
    pub precond_reads: u32,
    /// Extra arrays written when the diagonal preconditioner is on.
    pub precond_writes: u32,
    pub flops_per_cell: u32,
    pub reduction: Reduction,
}

use FieldId::{Density, Energy1, Kx, Ky, Sd, P, R, U, U0, W};

/// The kernel table. Counts are the exact bytes/flops the hand-written
/// profiles charged before the IR existed; `profile_table_is_frozen`
/// below pins them.
pub const KERNELS: &[KernelDesc] = &[
    KernelDesc {
        id: KernelId::InitU0,
        name: "init_u0",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[Density, Energy1],
        writes: &[U0, U],
        reads_per_cell: 2,
        writes_per_cell: 2,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 1,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::InitCoeffs,
        name: "init_coeffs",
        access: Access::Stencil5,
        stencil_read: Some(Density),
        reads: &[Density],
        writes: &[Kx, Ky],
        reads_per_cell: 1,
        writes_per_cell: 2,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 10,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::CgInit,
        name: "cg_init",
        access: Access::Stencil5,
        stencil_read: Some(U),
        reads: &[U, U0, Kx, Ky],
        writes: &[W, R, P],
        reads_per_cell: 4,
        writes_per_cell: 3,
        precond_reads: 0,
        precond_writes: 1, // +z
        flops_per_cell: 15,
        reduction: Reduction::Sum,
    },
    KernelDesc {
        id: KernelId::CgCalcW,
        name: "cg_calc_w",
        access: Access::Stencil5,
        stencil_read: Some(P),
        reads: &[P, Kx, Ky],
        writes: &[W],
        reads_per_cell: 3,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 12,
        reduction: Reduction::Sum,
    },
    KernelDesc {
        id: KernelId::CgCalcUr,
        name: "cg_calc_ur",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[P, W, U, R],
        writes: &[U, R],
        reads_per_cell: 4,
        writes_per_cell: 2,
        precond_reads: 2,  // +kx, ky for M⁻¹
        precond_writes: 1, // +z
        flops_per_cell: 8,
        reduction: Reduction::Sum,
    },
    KernelDesc {
        id: KernelId::CgCalcP,
        name: "cg_calc_p",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[R, P],
        writes: &[P],
        reads_per_cell: 2,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 2,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::ChebyCalcP,
        name: "cheby_calc_p",
        access: Access::Stencil5,
        stencil_read: Some(U),
        reads: &[U, U0, Kx, Ky, P],
        writes: &[W, R, P],
        reads_per_cell: 5,
        writes_per_cell: 3,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 14,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::ChebyCalcU,
        name: "cheby_calc_u",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[P, U],
        writes: &[U],
        reads_per_cell: 2,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 1,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::PpcgInitSd,
        name: "ppcg_init_sd",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[R],
        writes: &[Sd],
        reads_per_cell: 1,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 1,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::PpcgCalcW,
        name: "ppcg_calc_w",
        access: Access::Stencil5,
        stencil_read: Some(Sd),
        reads: &[Sd, Kx, Ky],
        writes: &[W],
        reads_per_cell: 3,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 10,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::PpcgUpdate,
        name: "ppcg_update",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[W, Sd, R, U],
        writes: &[U, R, Sd],
        reads_per_cell: 4,
        writes_per_cell: 3,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 6,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::JacobiCopy,
        name: "jacobi_copy_u",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[U],
        writes: &[R],
        reads_per_cell: 1,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 0,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::JacobiSolve,
        name: "jacobi_solve",
        access: Access::Stencil5,
        stencil_read: Some(R), // the scratch copy of old u
        reads: &[R, U0, Kx, Ky],
        writes: &[U],
        reads_per_cell: 4,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 13,
        reduction: Reduction::Sum,
    },
    KernelDesc {
        id: KernelId::Residual,
        name: "calc_residual",
        access: Access::Stencil5,
        stencil_read: Some(U),
        reads: &[U, U0, Kx, Ky],
        writes: &[R],
        reads_per_cell: 4,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 11,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::Calc2Norm,
        name: "calc_2norm",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[R],
        writes: &[],
        reads_per_cell: 1,
        writes_per_cell: 0,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 2,
        reduction: Reduction::Sum,
    },
    KernelDesc {
        id: KernelId::Finalise,
        name: "finalise",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[U, Density],
        writes: &[Energy1],
        reads_per_cell: 2,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 1,
        reduction: Reduction::None,
    },
    KernelDesc {
        id: KernelId::FieldSummary,
        name: "field_summary",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[Density, Energy1, U],
        writes: &[],
        reads_per_cell: 3,
        writes_per_cell: 0,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 7,
        reduction: Reduction::Sum4,
    },
    KernelDesc {
        id: KernelId::HaloUpdate,
        // One exchanged field per launch; reads/writes sets stay empty
        // because the field is launch-dependent, not kernel-dependent.
        name: "halo_update",
        access: Access::Streaming,
        stencil_read: None,
        reads: &[],
        writes: &[],
        reads_per_cell: 1,
        writes_per_cell: 1,
        precond_reads: 0,
        precond_writes: 0,
        flops_per_cell: 0,
        reduction: Reduction::None,
    },
];

impl KernelId {
    /// The IR record for this kernel.
    pub fn desc(self) -> &'static KernelDesc {
        KERNELS
            .iter()
            .find(|d| d.id == self)
            .expect("every KernelId has a table row")
    }
}

impl KernelDesc {
    /// Lower this record to the launch profile `simdev` costs, over `n`
    /// interior cells. Byte-for-byte the profile the hand-written tables
    /// used to build (pinned by `profile_table_is_frozen`).
    pub fn profile(&self, n: u64, precond: bool) -> simdev::KernelProfile {
        let reads = (self.reads_per_cell + if precond { self.precond_reads } else { 0 }) as u64;
        let writes = (self.writes_per_cell + if precond { self.precond_writes } else { 0 }) as u64;
        let traits = simdev::KernelTraits {
            streaming: self.access == Access::Streaming,
            stencil: self.access == Access::Stencil5,
            reduction: self.reduction != Reduction::None,
            ..simdev::KernelTraits::default()
        };
        simdev::KernelProfile::new(
            self.name,
            n,
            reads,
            writes,
            self.flops_per_cell as u64,
            traits,
        )
        .with_working_set(working_set(n))
    }
}

/// The solver's resident working set: all 11 TeaLeaf arrays. Kernels are
/// charged against this (not just their own arrays) because the arrays
/// round-robin through the cache between kernels — this is what
/// positions the Figure 11 CPU knee near the paper's 9·10⁵ cells.
pub fn working_set(n: u64) -> u64 {
    n * 8 * 11
}

// ---------------------------------------------------------------------------
// fusion
// ---------------------------------------------------------------------------

/// A head kernel whose dispatch a tail sweep can ride. The three sites
/// every solver tail shares, written once and lowered per port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionKind {
    /// CG tail: the `ur` reduction sweep carries the β·p update.
    CgTail,
    /// PPCG inner step: the `w = A·sd` stencil carries the u/r/sd update.
    PpcgInner,
    /// Chebyshev iterate: the p-polynomial stencil carries `u += p`.
    ChebyStep,
}

impl FusionKind {
    pub const ALL: [FusionKind; 3] = [
        FusionKind::CgTail,
        FusionKind::PpcgInner,
        FusionKind::ChebyStep,
    ];

    /// The kernel whose dispatch is kept.
    pub fn head(self) -> KernelId {
        match self {
            FusionKind::CgTail => KernelId::CgCalcUr,
            FusionKind::PpcgInner => KernelId::PpcgCalcW,
            FusionKind::ChebyStep => KernelId::ChebyCalcP,
        }
    }

    /// The kernel that rides as the fused tail.
    pub fn tail(self) -> KernelId {
        match self {
            FusionKind::CgTail => KernelId::CgCalcP,
            FusionKind::PpcgInner => KernelId::PpcgUpdate,
            FusionKind::ChebyStep => KernelId::ChebyCalcU,
        }
    }

    /// Profile name the tail is charged under when fused. Prefixes are
    /// preserved (`cg_`, `ppcg_`, `cheby_`) so the per-model quirk rules
    /// keep matching the fused charges.
    pub fn fused_tail_name(self) -> &'static str {
        match self {
            FusionKind::CgTail => "cg_fused_p_tail",
            FusionKind::PpcgInner => "ppcg_fused_update_tail",
            FusionKind::ChebyStep => "cheby_fused_u_tail",
        }
    }

    /// Whether the pairing is legal per the IR — derived, not asserted.
    pub fn legal(self) -> bool {
        legal_pair(self.head().desc(), self.tail().desc())
    }
}

/// May `tail` ride `head`'s dispatch? Legal iff the tail never reads a
/// *neighbour's* copy of data the head writes: per-cell reads of
/// head-written fields are fine (the same work-item runs head then tail
/// over its own cell, preserving program order), but a stencil read of a
/// head-written field would observe other work-items' in-flight writes.
pub fn legal_pair(head: &KernelDesc, tail: &KernelDesc) -> bool {
    match tail.stencil_read {
        Some(f) => !head.writes.contains(&f),
        None => true,
    }
}

/// May a kernel's boundary ring be enqueued behind the halo drain,
/// concurrently with its interior sweep (the 2-D tiled path's batched
/// schedule)? Same data-flow rule as fusion, applied to the kernel
/// against itself: the ring stencil must not read anything the interior
/// sweep writes. Holds for every TeaLeaf kernel — no kernel writes a
/// field its stencil reads — but the decision is derived per kernel, not
/// hard-coded.
pub fn concurrent_ring(desc: &KernelDesc) -> bool {
    legal_pair(desc, desc)
}

// ---------------------------------------------------------------------------
// lowering capabilities
// ---------------------------------------------------------------------------

/// What a port's runtime can express, stated by the port and combined
/// with IR legality by [`fusion_active`]. This replaces the per-pair
/// `supports_fused_cg` plumbing: a port no longer opts into specific
/// fusions — it describes its dispatch model once and every present and
/// future fusion site derives its decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoweringCaps {
    /// The runtime can append a second sweep to one dispatch: an OpenMP
    /// parallel region covering both loops, a CUDA/OpenCL launch whose
    /// work-items run head-then-tail, a Kokkos `parallel_for` over a
    /// fused body. Directive offload models (OpenMP 4.0, OpenACC) and
    /// RAJA's typed per-loop templates cannot, matching the paper's
    /// single-source constraints; serial gains nothing from it.
    pub fused_launch: bool,
}

/// The single fusion decision point: a site is fused iff the port's
/// runtime can express it *and* the IR says the pairing is legal.
pub fn fusion_active(caps: LoweringCaps, kind: FusionKind) -> bool {
    caps.fused_launch && kind.legal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_id_once() {
        for d in KERNELS {
            assert_eq!(d.id.desc().name, d.name);
        }
        let mut names: Vec<_> = KERNELS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KERNELS.len(), "duplicate kernel name");
    }

    #[test]
    fn stencil_kernels_name_their_field_and_streaming_dont() {
        for d in KERNELS {
            match d.access {
                Access::Stencil5 => {
                    let f = d.stencil_read.expect("stencil kernels name their field");
                    assert!(
                        d.reads.contains(&f),
                        "{}: stencil field in read set",
                        d.name
                    );
                }
                Access::Streaming => assert!(d.stencil_read.is_none(), "{}", d.name),
            }
        }
    }

    #[test]
    fn all_three_fusion_sites_are_legal() {
        for kind in FusionKind::ALL {
            assert!(kind.legal(), "{kind:?}");
            // and the tail really is a streaming sweep — the profile's
            // fused-tail charging assumes no stencil gather on the ride.
            assert_eq!(kind.tail().desc().access, Access::Streaming, "{kind:?}");
        }
    }

    #[test]
    fn stencil_read_of_head_written_field_is_illegal() {
        // cg_calc_w stencil-reads p; cg_calc_p writes p. Running the w
        // stencil as a tail on the p-update's dispatch would read other
        // work-items' half-updated p — the IR must refuse it.
        assert!(!legal_pair(
            KernelId::CgCalcP.desc(),
            KernelId::CgCalcW.desc()
        ));
    }

    #[test]
    fn every_kernel_ring_batches_and_a_self_clobbering_one_would_not() {
        for d in KERNELS {
            assert!(concurrent_ring(d), "{}", d.name);
        }
        // A hypothetical Gauss-Seidel-style sweep that writes the field
        // it stencil-reads must be refused.
        let gauss_seidel = KernelDesc {
            id: KernelId::JacobiSolve,
            name: "hypothetical_gauss_seidel",
            access: Access::Stencil5,
            stencil_read: Some(U),
            reads: &[U, Kx, Ky],
            writes: &[U],
            reads_per_cell: 3,
            writes_per_cell: 1,
            precond_reads: 0,
            precond_writes: 0,
            flops_per_cell: 13,
            reduction: Reduction::None,
        };
        assert!(!concurrent_ring(&gauss_seidel));
    }

    #[test]
    fn fusion_needs_both_capability_and_legality() {
        let can = LoweringCaps { fused_launch: true };
        let cannot = LoweringCaps::default();
        for kind in FusionKind::ALL {
            assert!(fusion_active(can, kind));
            assert!(!fusion_active(cannot, kind));
        }
    }

    #[test]
    fn fused_tail_names_keep_quirk_prefixes() {
        for kind in FusionKind::ALL {
            let base = kind.tail().desc().name;
            let fused = kind.fused_tail_name();
            let prefix: String = base.split('_').next().unwrap().to_string() + "_";
            assert!(
                fused.starts_with(&prefix),
                "{fused} must keep the {prefix} quirk prefix"
            );
        }
    }

    #[test]
    fn profiles_match_the_frozen_hand_written_table() {
        // (name, reads, writes, flops, stencil, reduction) — the exact
        // constants of the pre-IR profile table.
        let frozen: &[(&str, u64, u64, u64, bool, bool)] = &[
            ("init_u0", 2, 2, 1, false, false),
            ("init_coeffs", 1, 2, 10, true, false),
            ("cg_init", 4, 3, 15, true, true),
            ("cg_calc_w", 3, 1, 12, true, true),
            ("cg_calc_ur", 4, 2, 8, false, true),
            ("cg_calc_p", 2, 1, 2, false, false),
            ("cheby_calc_p", 5, 3, 14, true, false),
            ("cheby_calc_u", 2, 1, 1, false, false),
            ("ppcg_init_sd", 1, 1, 1, false, false),
            ("ppcg_calc_w", 3, 1, 10, true, false),
            ("ppcg_update", 4, 3, 6, false, false),
            ("jacobi_copy_u", 1, 1, 0, false, false),
            ("jacobi_solve", 4, 1, 13, true, true),
            ("calc_residual", 4, 1, 11, true, false),
            ("calc_2norm", 1, 0, 2, false, true),
            ("finalise", 2, 1, 1, false, false),
            ("field_summary", 3, 0, 7, false, true),
            ("halo_update", 1, 1, 0, false, false),
        ];
        let n = 1000u64;
        for (name, r, w, fl, stencil, reduction) in frozen {
            let d = KERNELS.iter().find(|d| d.name == *name).unwrap();
            let p = d.profile(n, false);
            assert_eq!(p.bytes_read, n * r * 8, "{name} reads");
            assert_eq!(p.bytes_written, n * w * 8, "{name} writes");
            assert_eq!(p.flops, n * fl, "{name} flops");
            assert_eq!(p.traits.stencil, *stencil, "{name} stencil");
            assert_eq!(p.traits.reduction, *reduction, "{name} reduction");
            assert_eq!(p.working_set, working_set(n), "{name} working set");
        }
        // preconditioned variants
        let ur = KernelId::CgCalcUr.desc().profile(n, true);
        assert_eq!(ur.bytes_read, n * 6 * 8);
        assert_eq!(ur.bytes_written, n * 3 * 8);
        let init = KernelId::CgInit.desc().profile(n, true);
        assert_eq!(init.bytes_read, n * 4 * 8);
        assert_eq!(init.bytes_written, n * 4 * 8);
    }
}
