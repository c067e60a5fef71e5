//! Shared-slice cell for disjoint concurrent writes.
//!
//! TeaLeaf kernels have the classic HPC sharing pattern: many threads write
//! *disjoint* rows of the same output array while reading shared inputs.
//! Rust's `&mut` aliasing rules cannot express "disjoint by index math"
//! directly, so — exactly like the CUDA and OpenCL ports in the paper — the
//! kernels take on a narrow `unsafe` obligation, concentrated in this one
//! small, heavily-tested type.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A wrapper around `&mut [T]` that can be shared across threads and
/// written through a shared reference, provided callers uphold the
/// disjointness contract documented on each method.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a UnsafeCell<[T]>>,
}

// SAFETY: `UnsafeSlice` hands out access only through `unsafe` methods whose
// contract requires data-race freedom; with that contract upheld, sharing
// the raw pointer across threads is sound for `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap an exclusive slice borrow. The borrow is held for `'a`, so the
    /// underlying storage cannot be touched through any other path while
    /// the `UnsafeSlice` is alive.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// No other thread may read or write `index` concurrently, and `index`
    /// must be in bounds (checked with `debug_assert` only).
    #[inline(always)]
    pub unsafe fn set(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Read the element at `index`.
    ///
    /// # Safety
    /// No other thread may write `index` concurrently, and `index` must be
    /// in bounds.
    #[inline(always)]
    pub unsafe fn get(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }

    /// Reborrow a sub-range as a shared slice.
    ///
    /// # Safety
    /// The range must be in bounds and no thread may write any index
    /// inside it while the returned borrow lives.
    #[inline]
    pub unsafe fn slice(&self, start: usize, end: usize) -> &'a [T] {
        debug_assert!(start <= end && end <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(start), end - start) }
    }

    /// Reborrow a sub-range as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and no other thread may access any index
    /// inside it while the returned borrow lives.
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &'a mut [T] {
        debug_assert!(start <= end && end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Pads and aligns a value to a 64-byte cache line so hot atomics owned by
/// different threads never share a line (the classic false-sharing fix;
/// mirrors `crossbeam_utils::CachePadded`).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Thread that ran each index of one `n`-index region on `exec`.
#[cfg(test)]
pub(crate) fn runner_per_index(exec: &dyn crate::Executor, n: usize) -> Vec<std::thread::ThreadId> {
    let mut ids = vec![std::thread::current().id(); n];
    let slot = UnsafeSlice::new(&mut ids);
    // SAFETY: each index is visited once → disjoint writes.
    exec.run(n, &|i| unsafe { slot.set(i, std::thread::current().id()) });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_line_aligned() {
        let x = CachePadded::new(7u8);
        assert_eq!(std::mem::align_of_val(&x), 64);
        assert!(std::mem::size_of_val(&x) >= 64);
        assert_eq!(*x, 7);
    }

    #[test]
    fn single_thread_roundtrip() {
        let mut data = vec![0i64; 8];
        {
            let s = UnsafeSlice::new(&mut data);
            for i in 0..8 {
                unsafe { s.set(i, i as i64 * 3) };
            }
            assert_eq!(unsafe { s.get(5) }, 15);
            assert_eq!(s.len(), 8);
            assert!(!s.is_empty());
        }
        assert_eq!(data[7], 21);
    }

    #[test]
    fn disjoint_writes_across_threads() {
        let n = 10_000;
        let mut data = vec![0usize; n];
        {
            let s = UnsafeSlice::new(&mut data);
            std::thread::scope(|scope| {
                let s = &s;
                for t in 0..4 {
                    scope.spawn(move || {
                        let chunk = n / 4;
                        for i in t * chunk..(t + 1) * chunk {
                            // SAFETY: thread ranges are disjoint.
                            unsafe { s.set(i, i * 2) };
                        }
                    });
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn slice_mut_subranges() {
        let mut data = vec![1.0f64; 12];
        {
            let s = UnsafeSlice::new(&mut data);
            // SAFETY: [0,6) and [6,12) do not overlap.
            let (a, b) = unsafe { (s.slice_mut(0, 6), s.slice_mut(6, 12)) };
            a.fill(2.0);
            b.fill(3.0);
        }
        assert_eq!(data[0], 2.0);
        assert_eq!(data[11], 3.0);
    }
}
