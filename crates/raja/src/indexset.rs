//! Segments and IndexSets.

/// A contiguous index range `[begin, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSegment {
    pub begin: usize,
    pub end: usize,
}

impl RangeSegment {
    /// Range over `[begin, end)`.
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end);
        RangeSegment { begin, end }
    }

    /// Iteration count.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True for an empty range.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

/// A maximal stretch of consecutive entries of a [`ListSegment`]:
/// iteration positions `pos..pos + len` hold indices `first..first + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ListRun {
    pos: usize,
    first: usize,
    len: usize,
}

/// An explicit list of indices (the indirection array of §3.4), with its
/// maximal runs of consecutive entries found once, at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListSegment {
    indices: Vec<usize>,
    runs: Vec<ListRun>,
}

impl ListSegment {
    /// Wrap a pre-computed indirection list.
    pub fn new(indices: Vec<usize>) -> Self {
        let mut runs: Vec<ListRun> = Vec::new();
        for (pos, &k) in indices.iter().enumerate() {
            match runs.last_mut() {
                Some(r) if r.first + r.len == k => r.len += 1,
                _ => runs.push(ListRun {
                    pos,
                    first: k,
                    len: 1,
                }),
            }
        }
        ListSegment { indices, runs }
    }

    /// Build the interior-cell list for a padded `width × height` grid
    /// with halo `h` — the halo-exclusion list the paper's port
    /// pre-computes "earlier in the application".
    pub fn interior_2d(width: usize, height: usize, h: usize) -> Self {
        let mut indices = Vec::with_capacity((width - 2 * h) * (height - 2 * h));
        for j in h..height - h {
            for i in h..width - h {
                indices.push(j * width + i);
            }
        }
        Self::new(indices)
    }

    /// The raw index list.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Hand `f(p, ids)`, in list order, each run of consecutive entries
    /// that iteration positions `pos` hold — the cached runs clipped to
    /// `pos`, found by lookup; `p` is the run's first position.
    #[inline]
    pub fn runs_in(
        &self,
        pos: std::ops::Range<usize>,
        mut f: impl FnMut(usize, std::ops::Range<usize>),
    ) {
        let from = self.runs.partition_point(|r| r.pos + r.len <= pos.start);
        for r in &self.runs[from..] {
            if r.pos >= pos.end {
                break;
            }
            let (a, e) = (r.pos.max(pos.start), (r.pos + r.len).min(pos.end));
            f(a, r.first + (a - r.pos)..r.first + (e - r.pos));
        }
    }

    /// Iteration count.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True for an empty list.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Either segment kind, as stored in an [`IndexSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    Range(RangeSegment),
    List(ListSegment),
}

impl Segment {
    /// Iteration count of the segment.
    pub fn len(&self) -> usize {
        match self {
            Segment::Range(r) => r.len(),
            Segment::List(l) => l.len(),
        }
    }

    /// True when the segment covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does this segment fetch through an indirection list?
    pub fn is_indirect(&self) -> bool {
        matches!(self, Segment::List(_))
    }

    /// Index at iteration position `k`.
    #[inline(always)]
    pub fn at(&self, k: usize) -> usize {
        match self {
            Segment::Range(r) => r.begin + k,
            Segment::List(l) => l.indices[k],
        }
    }
}

/// An ordered collection of segments dispatched as one loop — RAJA's
/// "Segment dispatch and execution (Indexsets)" abstraction (§2.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSet {
    segments: Vec<Segment>,
}

impl IndexSet {
    /// An empty index set.
    pub fn new() -> Self {
        IndexSet::default()
    }

    /// Append a range segment.
    pub fn push_range(&mut self, seg: RangeSegment) -> &mut Self {
        self.segments.push(Segment::Range(seg));
        self
    }

    /// Append a list segment.
    pub fn push_list(&mut self, seg: ListSegment) -> &mut Self {
        self.segments.push(Segment::List(seg));
        self
    }

    /// The segments in dispatch order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total iteration count over all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// True when no segment holds any index.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does any segment use indirection?
    pub fn has_indirection(&self) -> bool {
        self.segments.iter().any(Segment::is_indirect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_segment_basics() {
        let r = RangeSegment::new(3, 9);
        assert_eq!(r.len(), 6);
        assert!(!r.is_empty());
        assert_eq!(Segment::Range(r).at(2), 5);
    }

    #[test]
    fn interior_list_excludes_halo() {
        // 6×5 grid with halo 1 → interior 4×3 = 12 cells
        let l = ListSegment::interior_2d(6, 5, 1);
        assert_eq!(l.len(), 12);
        assert_eq!(l.indices()[0], 6 + 1);
        assert_eq!(*l.indices().last().unwrap(), 3 * 6 + 4);
        // none of the listed indices touch the border
        for &idx in l.indices() {
            let (i, j) = (idx % 6, idx / 6);
            assert!((1..5).contains(&i) && (1..4).contains(&j));
        }
    }

    #[test]
    fn interior_list_row_major_order() {
        let l = ListSegment::interior_2d(5, 5, 2);
        assert_eq!(l.indices(), &[2 * 5 + 2]);
        let l2 = ListSegment::interior_2d(6, 6, 2);
        assert_eq!(l2.indices(), &[14, 15, 20, 21]);
    }

    #[test]
    fn indexset_aggregates() {
        let mut is = IndexSet::new();
        is.push_range(RangeSegment::new(0, 4));
        is.push_list(ListSegment::new(vec![10, 20]));
        assert_eq!(is.len(), 6);
        assert!(is.has_indirection());
        assert_eq!(is.segments().len(), 2);
    }

    #[test]
    fn pure_range_set_has_no_indirection() {
        let mut is = IndexSet::new();
        is.push_range(RangeSegment::new(0, 4));
        assert!(!is.has_indirection());
    }
}
