//! Property tests for the consistent-cut selection of the self-healing
//! distributed driver ([`tealeaf::distributed`]).
//!
//! The recovery protocol rests on two claims. First, a structural one:
//! [`tealeaf::distributed::latest_common_key`] picks the **latest** key
//! present in *every* rank's checkpoint ring — the most advanced cut at
//! which all surviving tiles agree — and returns `None` exactly when no
//! such key exists. Second, an end-to-end one: for an arbitrary kill
//! timing and fault seed over fuzzed tile grids and solvers, replaying
//! from that cut is **bit-identical** to the clean run. Both are
//! properties over all kill placements and ring contents, not over a
//! handful of scripted crashes, so they are fuzzed here.

use std::time::Duration;

use mpisim::{FaultSpec, KillSpec};
use proptest::prelude::*;
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::distributed::{latest_common_key, CkptKey, DistributedSpec};
use tealeaf::{run, Exec, RunSpec};

/// One checkpoint key in the shape the drivers emit: a small timestep,
/// a two-valued phase, a bounded iteration.
fn key_strategy() -> impl Strategy<Value = CkptKey> {
    (1usize..4, 0u8..2, 0usize..12)
}

/// A rank's ring: up to a handful of keys, unordered and possibly
/// duplicated — strictly more hostile than the real bounded dedup ring.
fn ring_strategy() -> impl Strategy<Value = Vec<CkptKey>> {
    proptest::collection::vec(key_strategy(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chosen cut is a member of every ring, and it is the latest
    /// one: no key shared by all rings is strictly greater.
    #[test]
    fn cut_is_latest_key_all_ranks_agree_on(
        rings in proptest::collection::vec(ring_strategy(), 1..6)
    ) {
        match latest_common_key(&rings) {
            Some(cut) => {
                for ring in &rings {
                    prop_assert!(ring.contains(&cut), "cut {cut:?} missing from {ring:?}");
                    for &k in ring {
                        if k > cut {
                            prop_assert!(
                                !rings.iter().all(|r| r.contains(&k)),
                                "{k:?} > {cut:?} is present in every ring"
                            );
                        }
                    }
                }
            }
            None => {
                // No common key may exist anywhere.
                for &k in &rings[0] {
                    prop_assert!(
                        !rings.iter().all(|r| r.contains(&k)),
                        "{k:?} is common but no cut was chosen"
                    );
                }
            }
        }
    }

    /// Disjoint rings never produce a cut; identical rings produce their
    /// maximum.
    #[test]
    fn cut_degenerate_cases(ring in ring_strategy(), n in 2usize..5) {
        let copies: Vec<Vec<CkptKey>> = (0..n).map(|_| ring.clone()).collect();
        prop_assert_eq!(latest_common_key(&copies), ring.iter().copied().max());
        let mut shifted = ring.clone();
        for k in &mut shifted {
            k.0 += 100; // no step collides with the original ring
        }
        if !ring.is_empty() {
            prop_assert_eq!(latest_common_key(&[ring, shifted]), None);
        }
    }
}

proptest! {
    // End-to-end runs carry real deadline waits; keep the case count
    // low and the decks tiny.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For an arbitrary kill timing and fault seed over fuzzed grids and
    /// solvers, the resilient driver replays from the chosen cut
    /// bit-identically to the clean run.
    #[test]
    fn replay_from_cut_is_bit_identical(
        grid_idx in 0usize..4,
        solver_idx in 0usize..4,
        victim in 0usize..4,
        after_sends in 3u64..60,
        seed in 0u64..=u64::MAX,
        interval in 1usize..4,
    ) {
        let (gx, gy) = [(1, 1), (2, 1), (1, 2), (2, 2)][grid_idx];
        let solver = [
            SolverKind::ConjugateGradient,
            SolverKind::Chebyshev,
            SolverKind::Ppcg,
            SolverKind::Jacobi,
        ][solver_idx];
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg.tl_checkpoint_interval = interval;
        cfg.solver = solver;
        let baseline = run(&RunSpec::new(&cfg, Exec::Tiled(DistributedSpec::new(gx, gy))))
            .expect("a fault-free run cannot abort")
            .report;
        let spec = FaultSpec {
            quiet: Duration::from_millis(2),
            deadline: Duration::from_millis(200),
            kill_rank: Some(KillSpec::transient(victim % (gx * gy), after_sends)),
            ..FaultSpec::clean(seed)
        };
        let faulty = DistributedSpec {
            faults: Some(spec),
            ..DistributedSpec::new(gx, gy)
        };
        let run = run(&RunSpec::new(&cfg, Exec::Tiled(faulty))).unwrap_or_else(|d| panic!("unrecovered: {d}"));
        let log = run.recovery;
        prop_assert_eq!(run.report.without_clocks(), baseline.without_clocks(), "replay diverged (log {:?})", log);
        prop_assert_eq!(log.regrids, 0, "a transient kill must never regrid");
    }
}
