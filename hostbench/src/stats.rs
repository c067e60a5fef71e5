//! Order statistics, a seeded shuffle, and the microbenchmark timer.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The `p`-quantile of `values` (0 for an empty slice), interpolated at
/// position `(n + 1)·p` of the sorted values and clamped to their range:
/// the method of Python's `statistics.quantiles`.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let h = (v.len() as f64 + 1.0) * p;
    if h <= 1.0 {
        return v[0];
    }
    if h >= v.len() as f64 {
        return v[v.len() - 1];
    }
    let lo = h.floor() as usize; // 1-based position of the lower neighbour
    v[lo - 1] + (h - h.floor()) * (v[lo] - v[lo - 1])
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never touches).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: a tiny seeded generator, enough to derive the workload's
/// case order from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median nanoseconds per call of `f`: a batch size is calibrated so one
/// sample takes at least `min_sample_ns`, then `samples` batches are
/// timed.
pub fn median_ns(samples: usize, min_sample_ns: u128, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: first-touch pages, caches, lazily spawned workers
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_nanos() >= min_sample_ns || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v = [7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        // statistics.quantiles([1, 2, 3, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 10.0], 0.25), 1.25);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 10.0], 0.75), 8.25);
        assert_eq!(quantile(&[4.0], 0.75), 4.0);
        assert_eq!(quantile(&[], 0.75), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
