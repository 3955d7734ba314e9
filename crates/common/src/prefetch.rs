//! Software-prefetch hints for batched probe loops.
//!
//! A d-ary cuckoo probe touches `d` independent cache lines, and a batch of
//! probes touches `d × batch` of them; issuing prefetches for a window of
//! upcoming operations overlaps those misses instead of serializing them.
//! The hint is semantically a no-op — correctness never depends on it — so
//! on targets without a stable prefetch intrinsic it compiles to nothing.

/// Hints the CPU to bring the cache line containing `ptr` into the nearest
/// data-cache level for a future read.
///
/// Safe to call with any pointer value, including dangling or unaligned
/// pointers: prefetch instructions never fault and the pointee is never
/// dereferenced by this function.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    // Miri has no model for the prefetch intrinsic; the hint is a
    // semantic no-op anyway, so it simply disappears under `cfg(miri)`.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `_mm_prefetch` is a hint instruction; it performs no memory
    // access and cannot fault, regardless of the pointer's validity.
    unsafe {
        std::arch::x86_64::_mm_prefetch(ptr.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        let _ = ptr;
    }
}

/// Prefetches element `index` of `slice` for a future read, if it exists.
///
/// Bounds-checked so callers can speculate on indices without care; an
/// out-of-range index simply skips the hint.  An element larger than its
/// alignment (a 24-byte payload aligned to 8, say) can straddle two cache
/// lines, so its last byte is hinted as well; for bytes and words the
/// second hint compiles away.
#[inline(always)]
pub fn prefetch_slice_element<T>(slice: &[T], index: usize) {
    if let Some(element) = slice.get(index) {
        let first = std::ptr::from_ref(element).cast::<u8>();
        prefetch_read(first);
        if std::mem::size_of::<T>() > std::mem::align_of::<T>() {
            prefetch_read(first.wrapping_add(std::mem::size_of::<T>() - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_semantic_noop() {
        let data = vec![1u64, 2, 3];
        prefetch_read(&data[0]);
        prefetch_slice_element(&data, 2);
        prefetch_slice_element(&data, 10_000); // out of range: skipped
        assert_eq!(data, vec![1, 2, 3]);
    }
}
