#![allow(clippy::needless_range_loop)]
//! Property-based tests for Segments and IndexSets.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

use parpool::SerialExec;
use raja_rs::{forall, IndexSet, ListSegment, RajaRuntime, RangeSegment, Segment, SeqExec};
use simdev::{devices, KernelProfile, ModelProfile, SimContext};

proptest! {
    #[test]
    fn interior_list_covers_exactly_the_interior(
        width in 5usize..40,
        height in 5usize..40,
        halo in 1usize..=2,
    ) {
        let list = ListSegment::interior_2d(width, height, halo);
        let expect = (width - 2 * halo) * (height - 2 * halo);
        prop_assert_eq!(list.len(), expect);
        // every listed index is interior, no duplicates, sorted row-major
        let mut prev = None;
        for &k in list.indices() {
            let (i, j) = (k % width, k / width);
            prop_assert!(i >= halo && i < width - halo);
            prop_assert!(j >= halo && j < height - halo);
            if let Some(p) = prev {
                prop_assert!(k > p, "row-major order");
            }
            prev = Some(k);
        }
    }

    #[test]
    fn forall_visits_each_segment_index_once(
        begin in 0usize..100,
        len in 0usize..200,
        extra in proptest::collection::btree_set(300usize..600, 0..50),
    ) {
        let ctx = SimContext::new(devices::cpu_xeon_e5_2670_x2(), ModelProfile::ideal("RAJA"), vec![], 0);
        let rt = RajaRuntime::new(&ctx, &SerialExec);
        let mut set = IndexSet::new();
        set.push_range(RangeSegment::new(begin, begin + len));
        set.push_list(ListSegment::new(extra.iter().copied().collect()));
        let counters: Vec<AtomicUsize> = (0..700).map(|_| AtomicUsize::new(0)).collect();
        let profile = KernelProfile::streaming("k", set.len().max(1) as u64, 1, 0, 0);
        for seg in set.segments() {
            forall::<SeqExec>(&rt, seg, &profile, &|i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        let total: usize = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        prop_assert_eq!(total, set.len());
        for i in begin..begin + len {
            prop_assert_eq!(counters[i].load(Ordering::Relaxed), 1);
        }
        for &i in &extra {
            prop_assert_eq!(counters[i].load(Ordering::Relaxed), 1);
        }
    }

    /// The runs cached at construction, clipped to any position range,
    /// equal a fresh walk of that range's entries.
    #[test]
    fn cached_runs_equal_the_walk(
        steps in proptest::collection::vec(1usize..4, 0..300),
        a in 0usize..320,
        b in 0usize..320,
    ) {
        // Strictly increasing entries with random gaps (step 1 = consecutive).
        let indices: Vec<usize> = steps
            .iter()
            .scan(0, |k, &s| {
                *k += s;
                Some(*k)
            })
            .collect();
        let list = ListSegment::new(indices.clone());
        let (lo, hi) = (a.min(b).min(indices.len()), a.max(b).min(indices.len()));
        let mut walk = Vec::new();
        let ix = &indices[lo..hi];
        let mut start = 0;
        for k in 1..=ix.len() {
            if k == ix.len() || ix[k] != ix[k - 1] + 1 {
                walk.push((lo + start, ix[start]..ix[k - 1] + 1));
                start = k;
            }
        }
        let mut cached = Vec::new();
        list.runs_in(lo..hi, |p, ids| cached.push((p, ids)));
        prop_assert_eq!(cached, walk);
    }

    #[test]
    fn segment_at_enumerates_in_order(begin in 0usize..1000, len in 1usize..500) {
        let seg = Segment::Range(RangeSegment::new(begin, begin + len));
        for k in 0..len {
            prop_assert_eq!(seg.at(k), begin + k);
        }
    }
}
