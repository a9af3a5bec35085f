//! Cache-line-aligned `f64` buffers.
//!
//! The paper enforces 16-byte alignment with `posix_memalign` so that the
//! Double Hummer / SSE units can issue aligned loads. We align to 64 bytes
//! (one cache line), which satisfies every SIMD ISA in use today and also
//! avoids false sharing when adjacent buffers are written from different
//! threads.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::ptr::NonNull;
use std::slice;

/// Alignment in bytes for all numeric buffers (one cache line).
pub const ALIGN: usize = 64;

/// A growable, heap-allocated, 64-byte-aligned vector of `f64`.
///
/// Unlike `Vec<f64>` the live allocation is guaranteed to start on a
/// cache-line boundary, which lets aligned SIMD loads be used without a
/// scalar prologue; `push`/`swap_remove`/`resize` let it back mutable SoA
/// component arrays (DPD particle storage with open-boundary
/// insertion/deletion). Capacity grows geometrically and every
/// reallocation re-establishes the 64-byte alignment.
///
/// ```
/// use nkg_simd::AlignedBuf;
/// let mut v = AlignedBuf::zeros(128);
/// v[3] = 7.5;
/// assert_eq!(v.as_ptr() as usize % 64, 0);
/// assert_eq!(v[3], 7.5);
/// assert_eq!(v.len(), 128);
/// ```
pub struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedBuf owns its allocation exclusively, just like Vec<f64>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// New empty buffer (no allocation).
    pub fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// New empty buffer with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve_total(cap);
        v
    }

    /// Allocate `len` zero-initialized elements.
    pub fn zeros(len: usize) -> Self {
        let mut v = Self::new();
        v.resize(len, 0.0);
        v
    }

    /// Build from a slice, copying into aligned storage.
    pub fn from_slice(data: &[f64]) -> Self {
        let mut v = Self::with_capacity(data.len());
        // SAFETY: capacity reserved above; src/dst do not overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), v.ptr.as_ptr(), data.len());
        }
        v.len = data.len();
        v
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f64>(), ALIGN)
            .expect("allocation size overflow")
    }

    /// Ensure capacity for at least `total` elements (geometric growth).
    fn reserve_total(&mut self, total: usize) {
        if total <= self.cap {
            return;
        }
        let new_cap = total.max(self.cap * 2).max(8);
        let layout = Self::layout(new_cap);
        // SAFETY: layout has non-zero size (new_cap >= 8).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(new_ptr) = NonNull::new(raw as *mut f64) else {
            handle_alloc_error(layout);
        };
        if self.cap != 0 {
            // SAFETY: old allocation holds len initialized elements.
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, value: f64) {
        if self.len == self.cap {
            self.reserve_total(self.len + 1);
        }
        // SAFETY: len < cap after the reserve.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Remove element `i` by swapping in the last element; O(1).
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> f64 {
        let s = self.as_mut_slice();
        let last = s.len() - 1;
        s.swap(i, last);
        let out = s[last];
        self.len -= 1;
        out
    }

    /// Resize to `new_len`, filling new tail elements with `value`.
    pub fn resize(&mut self, new_len: usize, value: f64) {
        if new_len > self.len {
            self.reserve_total(new_len);
            // SAFETY: capacity reserved; writing the uninitialized tail.
            unsafe {
                for k in self.len..new_len {
                    self.ptr.as_ptr().add(k).write(value);
                }
            }
        }
        self.len = new_len;
    }

    /// Drop all elements, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Raw const pointer to the first element.
    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer to the first element.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr.as_ptr()
    }

    /// View as an immutable slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr valid for len elements (or dangling with len == 0).
        unsafe { slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as above, and we hold &mut self.
        unsafe { slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Set every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.as_mut_slice().fill(value);
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: allocated with the identical layout in reserve_total.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

impl Default for AlignedBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl Index<usize> for AlignedBuf {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for AlignedBuf {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[f64]> for AlignedBuf {
    fn from(v: &[f64]) -> Self {
        Self::from_slice(v)
    }
}

impl From<Vec<f64>> for AlignedBuf {
    fn from(v: Vec<f64>) -> Self {
        Self::from_slice(&v)
    }
}

impl FromIterator<f64> for AlignedBuf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_is_fine() {
        let v = AlignedBuf::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        let _ = v.clone();
    }

    #[test]
    fn alignment_is_cache_line() {
        for len in [1, 3, 8, 127, 4096] {
            let v = AlignedBuf::zeros(len);
            assert_eq!(v.as_ptr() as usize % ALIGN, 0, "len={len}");
        }
    }

    #[test]
    fn zero_initialized() {
        let v = AlignedBuf::zeros(513);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let v = AlignedBuf::from_slice(&data);
        assert_eq!(v.as_slice(), &data[..]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = (0..16).map(|i| i as f64).collect::<AlignedBuf>();
        let b = a.clone();
        a[0] = -1.0;
        assert_eq!(b[0], 0.0);
        assert_eq!(a[1], b[1]);
    }

    #[test]
    fn fill_and_index() {
        let mut v = AlignedBuf::zeros(10);
        v.fill(2.5);
        assert!(v.iter().all(|&x| x == 2.5));
        v[9] = 1.0;
        assert_eq!(v[9], 1.0);
    }

    #[test]
    fn deref_gives_slice_ops() {
        let v = (0..5).map(|i| i as f64).collect::<AlignedBuf>();
        let s: f64 = v.iter().sum();
        assert_eq!(s, 10.0);
    }

    #[test]
    fn buf_push_grows_and_stays_aligned() {
        let mut b = AlignedBuf::new();
        for i in 0..1000 {
            b.push(i as f64);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "misaligned at len {i}");
        }
        assert_eq!(b.len(), 1000);
        assert!(b.capacity() >= 1000);
        assert!((0..1000).all(|i| b[i] == i as f64));
    }

    #[test]
    fn buf_swap_remove_matches_vec_semantics() {
        let mut b = AlignedBuf::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(b.swap_remove(1), v.swap_remove(1));
        assert_eq!(b.as_slice(), &v[..]);
        assert_eq!(b.swap_remove(2), v.swap_remove(2));
        assert_eq!(b.as_slice(), &v[..]);
    }

    #[test]
    fn buf_resize_zeros_then_truncates() {
        let mut b = AlignedBuf::new();
        b.resize(10, 2.5);
        assert!(b.iter().all(|&x| x == 2.5));
        b.resize(3, 0.0);
        assert_eq!(b.len(), 3);
        b.resize(6, -1.0);
        assert_eq!(b.as_slice(), &[2.5, 2.5, 2.5, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn buf_clone_collect_and_eq() {
        let a: AlignedBuf = (0..50).map(|i| i as f64).collect();
        let mut b = a.clone();
        assert_eq!(a, b);
        b[0] = 99.0;
        assert_ne!(a, b);
        assert_eq!(a[0], 0.0);
    }

    #[test]
    fn buf_zeros_and_clear_keep_capacity() {
        let mut b = AlignedBuf::zeros(100);
        assert!(b.iter().all(|&x| x == 0.0));
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }
}
