//! Custom reducers.
//!
//! Kokkos `parallel_reduce` defaults to a zero-initialised sum; kernels
//! needing more (TeaLeaf's multi-variable field summary — §3.3 "it was
//! necessary to write custom initialisation and join functions") supply a
//! reducer with `init` and `join`.

/// A Kokkos-style custom reduction over values of type `Value`.
pub trait Reducer: Sync {
    /// The reduced value type.
    type Value: Send + Sync;

    /// The identity element ("custom initialisation function").
    fn init(&self) -> Self::Value;

    /// Combine two partial results ("custom join function"). Must be
    /// associative; the framework joins partials in index order so results
    /// are deterministic.
    fn join(&self, into: &mut Self::Value, other: Self::Value);
}

/// The default sum reducer (`f64`, zero-initialised).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumReducer;

impl Reducer for SumReducer {
    type Value = f64;

    fn init(&self) -> f64 {
        0.0
    }

    fn join(&self, into: &mut f64, other: f64) {
        *into += other;
    }
}

/// Fixed-arity array sum, e.g. the 4-component field summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArraySumReducer<const K: usize>;

impl<const K: usize> Reducer for ArraySumReducer<K> {
    type Value = [f64; K];

    fn init(&self) -> [f64; K] {
        [0.0; K]
    }

    fn join(&self, into: &mut [f64; K], other: [f64; K]) {
        for k in 0..K {
            into[k] += other[k];
        }
    }
}

/// A Kokkos *functor*: a C++-style class with an overloaded call operator
/// "where the function operator is overloaded and encapsulates the core
/// functional logic. This pattern requires that Views are declared as
/// local variables inside the class" (paper §2.4). The lambda forms of
/// `parallel_for` are the succinct alternative §3.3 could not use under
/// CUDA 7.0.
pub trait Functor: Sync {
    /// `KOKKOS_INLINE_FUNCTION void operator()(const int i) const`.
    fn operator(&self, i: usize);

    /// The operator over one chunk of consecutive indices; by default one
    /// call per index. A functor whose body works on contiguous runs
    /// overrides it.
    fn operator_range(&self, ids: std::ops::Range<usize>) {
        ids.for_each(|i| self.operator(i));
    }
}

/// A reducing functor: `operator()(const int i, double& sum)`.
pub trait ReduceFunctor: Sync {
    /// Returns this index's contribution to the zero-initialised sum.
    fn operator(&self, i: usize) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reducer() {
        let r = SumReducer;
        let mut acc = r.init();
        r.join(&mut acc, 2.0);
        r.join(&mut acc, 3.5);
        assert_eq!(acc, 5.5);
    }

    #[test]
    fn array_reducer() {
        let r = ArraySumReducer::<3>;
        let mut acc = r.init();
        r.join(&mut acc, [1.0, 2.0, 3.0]);
        r.join(&mut acc, [0.5, 0.5, 0.5]);
        assert_eq!(acc, [1.5, 2.5, 3.5]);
    }
}
