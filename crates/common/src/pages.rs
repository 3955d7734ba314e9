//! Fixed-length buffers for arrays that can outgrow the TLB's reach.
//!
//! [`PageBuf<T>`] is an owned, fixed-length `[T]`.  Its byte size alone
//! decides where it lives:
//!
//! * below [`HUGE_PAGE_BYTES`] it comes from `std::alloc`, aligned to a
//!   cache line (`CACHE_LINE_BYTES`), and is otherwise what a boxed slice
//!   would be;
//! * from [`HUGE_PAGE_BYTES`] up it is an anonymous mapping of its own,
//!   aligned to a huge page, and the whole huge pages inside it are advised
//!   `MADV_HUGEPAGE` **before anything touches them**, so on a host whose
//!   transparent-huge-page mode is `always` or `madvise` the first touch
//!   faults 2 MiB pages in.  A table of millions of slots probed at random
//!   then stays within the TLB's reach instead of missing it on every
//!   probe.  The tail past the last whole huge page is not advised and
//!   stays on base pages.
//!
//! A huge buffer is mapped, not allocated, so that dropping it returns its
//! memory to the kernel (`munmap`) at once.  Through `malloc` it would not
//! always: glibc raises its mmap threshold to the size of the last mapped
//! chunk it frees, up to 32 MiB, so once an 8 MiB array has been freed the
//! next one comes from the `brk` heap, where the arrays of tables rebuilt
//! one after another fragment and are never given back.  The mapping
//! over-maps by one huge page and trims its head and tail to land on a
//! huge-page boundary; it ends at the next boundary past the buffer, and
//! that address space costs nothing until something touches it.
//!
//! The mapping and the advice are compiled out off Linux and under Miri,
//! where every buffer comes from `std::alloc`, huge ones aligned to
//! [`HUGE_PAGE_BYTES`].  The advice is a hint: a host that says `never`
//! (or a kernel that rejects the call) ignores it, and nothing a buffer
//! holds depends on it.
//!
//! Allocation is fallible: a length whose bytes are not a [`Layout`], an
//! allocator that returns null or a kernel that refuses the mapping is
//! `None` rather than a wrapped multiplication or an abort.  Only `Clone` —
//! which has no error to return — treats a refused allocation the way
//! `Vec::clone` does.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment of every allocated [`PageBuf`] below [`HUGE_PAGE_BYTES`].
pub(crate) const CACHE_LINE_BYTES: usize = 64;

/// The size line: a [`PageBuf`] of at least this many bytes is aligned to
/// it and asks for huge pages.  2 MiB is the transparent-huge-page size of
/// x86-64 and of aarch64 with 4 KiB base pages.
pub const HUGE_PAGE_BYTES: usize = 2 << 20;

/// An owned, fixed-length, at least cache-line-aligned `[T]`, on huge pages
/// when it is large (see the module docs).
///
/// ```
/// use ccd_common::pages::PageBuf;
///
/// let mut tags = PageBuf::filled(1000, 0u8).expect("1000 bytes exist");
/// tags[7] = 0x81;
/// assert_eq!(tags.len(), 1000);
/// assert_eq!(tags.iter().filter(|&&t| t != 0).count(), 1);
/// assert_eq!(tags.as_ptr().addr() % 64, 0); // cache-line aligned
/// ```
pub struct PageBuf<T> {
    ptr: NonNull<T>,
    len: usize,
    /// What `ptr` was allocated with and is released with; zero-sized
    /// (nothing allocated, `ptr` dangling) for an empty buffer or a
    /// zero-sized `T`.
    layout: Layout,
}

// SAFETY: a `PageBuf<T>` owns its elements through `ptr` exactly as a
// `Box<[T]>` does (`len` and `layout` are plain values), so it may move to
// another thread whenever `T` may.
unsafe impl<T: Send> Send for PageBuf<T> {}
// SAFETY: `&PageBuf<T>` only hands out `&[T]`, so sharing it is sharing
// `&T`s; as above, the other fields are plain values.
unsafe impl<T: Sync> Sync for PageBuf<T> {}

/// The layout of a `len`-element buffer — where the size line is drawn.
fn layout_of<T>(len: usize) -> Option<Layout> {
    let array = Layout::array::<T>(len).ok()?;
    let align = if array.size() >= HUGE_PAGE_BYTES {
        HUGE_PAGE_BYTES
    } else {
        CACHE_LINE_BYTES
    };
    array.align_to(align).ok()
}

/// `layout`'s bytes: a mapping of their own from the size line up (see
/// the module docs), the global allocator below it; `None` when either
/// refuses.
///
/// # Safety
///
/// `layout` has a non-zero size.
unsafe fn allocate(layout: Layout) -> Option<NonNull<u8>> {
    #[cfg(all(target_os = "linux", not(miri)))]
    if layout.size() >= HUGE_PAGE_BYTES {
        return mapping::map(layout.size());
    }
    // SAFETY: `layout` has a non-zero size (the caller's).
    NonNull::new(unsafe { alloc(layout) })
}

/// Returns what [`allocate`] gave out for `layout`.
///
/// # Safety
///
/// `ptr` came from `allocate(layout)` and nothing uses it afterwards.
unsafe fn release(ptr: NonNull<u8>, layout: Layout) {
    #[cfg(all(target_os = "linux", not(miri)))]
    if layout.size() >= HUGE_PAGE_BYTES {
        // SAFETY: the caller's; `allocate` mapped `ptr` for this size.
        return unsafe { mapping::unmap(ptr, layout.size()) };
    }
    // SAFETY: the caller's; below the line `ptr` came from `alloc(layout)`.
    unsafe { dealloc(ptr.as_ptr(), layout) }
}

/// Huge buffers as anonymous mappings of their own, advised before the
/// first touch.  The constants are those of `<asm-generic/mman-common.h>`.
#[cfg(all(target_os = "linux", not(miri)))]
mod mapping {
    use super::HUGE_PAGE_BYTES;
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;

    /// Bytes a buffer of `bytes` keeps mapped: up to the next huge-page
    /// boundary, where the trimmed tail starts.
    fn kept(bytes: usize) -> usize {
        bytes.next_multiple_of(HUGE_PAGE_BYTES)
    }

    /// A fresh, zeroed, untouched mapping of at least `bytes` bytes that
    /// starts on a huge-page boundary, its whole huge pages advised, or
    /// `None` when the kernel refuses it.
    pub(super) fn map(bytes: usize) -> Option<NonNull<u8>> {
        let kept = kept(bytes);
        let length = kept + HUGE_PAGE_BYTES;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing: it reads and writes no memory
        // the program already has.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                length,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is `(void *)-1`.
        if raw.addr() == usize::MAX {
            return None;
        }
        let base = raw.cast::<u8>();
        let head = base.addr().next_multiple_of(HUGE_PAGE_BYTES) - base.addr();
        let start = base.wrapping_add(head);
        // SAFETY: the head `[base, start)` and the tail `[start + kept,
        // base + length)` lie inside the mapping made above, which nothing
        // has seen yet; both begin on a page boundary (`base` is page
        // aligned, `start` huge-page aligned and `kept` a multiple of huge
        // pages), and together they are the one huge page mapped beyond
        // `kept`.  A trim the kernel refuses leaves address space mapped
        // and the buffer as it is, so its result is not needed.
        unsafe {
            if head != 0 {
                let _ = munmap(base.cast(), head);
            }
            let _ = munmap(start.wrapping_add(kept).cast(), HUGE_PAGE_BYTES - head);
        }
        // Advised before the first touch: a page already faulted in on base
        // pages is only ever collapsed later, in the background.
        let whole = bytes & !(HUGE_PAGE_BYTES - 1);
        // SAFETY: `madvise(MADV_HUGEPAGE)` reads and writes no memory: it
        // marks the mapping behind a page-aligned range this buffer owns as
        // eligible for huge pages, which changes how the range is faulted
        // in and nothing a program can observe in it.  Its result is
        // ignored: a kernel built without transparent huge pages returns
        // `EINVAL`, and the buffer works the same on base pages.
        let _ = unsafe { madvise(start.cast(), whole, MADV_HUGEPAGE) };
        NonNull::new(start)
    }

    /// Returns a buffer's mapping to the kernel.
    ///
    /// # Safety
    ///
    /// `start` came from `map(bytes)` and nothing uses it afterwards.
    pub(super) unsafe fn unmap(start: NonNull<u8>, bytes: usize) {
        // SAFETY: `[start, start + kept(bytes))` is exactly what `map` left
        // mapped, and the caller's promise makes it unused.  A refusal
        // leaves address space mapped, which `Drop` (the only caller) can
        // neither report nor mend, so the result is not read.
        let _ = unsafe { munmap(start.as_ptr().cast(), kept(bytes)) };
    }
}

impl<T> PageBuf<MaybeUninit<T>> {
    /// A buffer of `len` uninitialised elements, or `None` when no such
    /// allocation exists: `len × size_of::<T>()` is not a [`Layout`], or
    /// the allocator or the kernel refused it.  Nothing is touched, so a
    /// large buffer costs address space until it is written.
    #[must_use]
    pub fn uninit(len: usize) -> Option<Self> {
        let layout = layout_of::<T>(len)?;
        if layout.size() == 0 {
            return Some(PageBuf {
                ptr: NonNull::dangling(),
                len,
                layout,
            });
        }
        // SAFETY: `layout` has a non-zero size.
        let ptr = unsafe { allocate(layout) }?;
        Some(PageBuf {
            ptr: ptr.cast(),
            len,
            layout,
        })
    }

    /// An uninitialised buffer of this one's length, for `Clone`
    /// implementations of types that keep partly initialised buffers.  Like
    /// `Vec::clone` it has no error to return, so a refused allocation goes
    /// to [`handle_alloc_error`].
    #[must_use]
    pub fn uninit_like(&self) -> Self {
        Self::uninit(self.len).unwrap_or_else(|| handle_alloc_error(self.layout))
    }

    /// The same buffer with every element initialised.
    ///
    /// # Safety
    ///
    /// Every element must have been written.
    // SAFETY: the body only re-types the pointer (`MaybeUninit<T>` has
    // `T`'s layout, so the stored `layout` still describes the allocation);
    // the one obligation is the caller's, above.
    unsafe fn assume_init(self) -> PageBuf<T> {
        let this = ManuallyDrop::new(self);
        PageBuf {
            ptr: this.ptr.cast(),
            len: this.len,
            layout: this.layout,
        }
    }
}

impl<T: Copy> PageBuf<T> {
    /// A buffer of `len` copies of `value`, or `None` as
    /// [`PageBuf::uninit`].  The elements are written here, after the
    /// huge-page advice — never trusted to arrive zeroed from the allocator,
    /// which recycles freed memory.
    #[must_use]
    pub fn filled(len: usize, value: T) -> Option<Self> {
        let mut buf = PageBuf::<MaybeUninit<T>>::uninit(len)?;
        for element in buf.iter_mut() {
            element.write(value);
        }
        // SAFETY: the loop above wrote every element.
        Some(unsafe { buf.assume_init() })
    }
}

impl<T: Copy> Clone for PageBuf<T> {
    fn clone(&self) -> Self {
        let mut copy = PageBuf::<MaybeUninit<T>>::uninit(self.len)
            .unwrap_or_else(|| handle_alloc_error(self.layout));
        for (to, from) in copy.iter_mut().zip(self.iter()) {
            to.write(*from);
        }
        // SAFETY: both buffers have `len` elements, so the loop above wrote
        // every element of `copy`.
        unsafe { copy.assume_init() }
    }
}

impl<T> Deref for PageBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is aligned for `T` (dangling, or allocated with at
        // least a cache line's alignment) and, when `layout` is not
        // zero-sized, points at `len` elements this buffer owns, all
        // initialised (`uninit` hands out `MaybeUninit` elements, which
        // always are); a zero-sized layout means no bytes are read.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for PageBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for PageBuf<T> {
    fn drop(&mut self) {
        // SAFETY: the elements are initialised (see `deref`) and dropped
        // exactly once, here.
        unsafe { std::ptr::drop_in_place::<[T]>(&mut **self) };
        if self.layout.size() != 0 {
            // SAFETY: `ptr` came from `allocate(self.layout)` in `uninit`
            // and is released once, with that same layout.
            unsafe { release(self.ptr.cast(), self.layout) };
        }
    }
}

impl<T> fmt::Debug for PageBuf<T> {
    /// The shape, not the elements: these buffers run to millions of them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageBuf")
            .field("len", &self.len)
            .field("bytes", &self.layout.size())
            .field("align", &self.layout.align())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements of a `u64` buffer on either side of the size line.
    const BELOW: usize = HUGE_PAGE_BYTES / 8 - 1;
    const AT: usize = HUGE_PAGE_BYTES / 8;

    #[test]
    fn alignment_follows_the_size_line() {
        // `uninit` touches nothing, so the 2 MiB cases are cheap (Miri too).
        for (len, align) in [
            (1, CACHE_LINE_BYTES),
            (BELOW, CACHE_LINE_BYTES),
            (AT, HUGE_PAGE_BYTES),
            (AT + 1, HUGE_PAGE_BYTES),
            (3 * AT + 5, HUGE_PAGE_BYTES),
        ] {
            let buf = PageBuf::<MaybeUninit<u64>>::uninit(len).unwrap();
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr().addr() % align, 0, "{len} elements");
            // Never rounded up to whole huge pages.
            assert_eq!(buf.layout.size(), len * 8, "{len} elements");
        }
        // The line is drawn in bytes, not elements.
        let bytes = PageBuf::<MaybeUninit<u8>>::uninit(HUGE_PAGE_BYTES - 1).unwrap();
        assert_eq!(bytes.layout.align(), CACHE_LINE_BYTES);
        let bytes = PageBuf::<MaybeUninit<u8>>::uninit(HUGE_PAGE_BYTES).unwrap();
        assert_eq!(bytes.as_ptr().addr() % HUGE_PAGE_BYTES, 0);
        // An over-aligned element keeps its own alignment.
        #[repr(align(128))]
        #[derive(Clone, Copy)]
        struct Wide(u8);
        let wide = PageBuf::filled(3, Wide(7)).unwrap();
        assert_eq!(wide.as_ptr().addr() % 128, 0);
        assert!(wide.iter().all(|w| w.0 == 7));
    }

    #[test]
    fn filled_buffers_do_not_inherit_a_recycled_allocation() {
        // An allocator hands a freed block of the same size straight back;
        // on both sides of the size line the new buffer must read as filled,
        // not as what the old one left behind.
        let lens = if cfg!(miri) {
            vec![100]
        } else {
            vec![100, BELOW, AT, AT + 3]
        };
        for len in lens {
            for _ in 0..2 {
                let mut dirty = PageBuf::filled(len, u64::MAX).unwrap();
                dirty[len / 2] = 0xdead;
                drop(dirty);
                let clean = PageBuf::filled(len, 0u64).unwrap();
                assert!(clean.iter().all(|&word| word == 0), "{len} elements");
            }
        }
    }

    #[test]
    fn clone_copies_and_owns_its_own_allocation() {
        let len = if cfg!(miri) { 300 } else { AT + 300 };
        let mut original = PageBuf::filled(len, 0u64).unwrap();
        for (i, word) in original.iter_mut().enumerate() {
            *word = i as u64 * 3;
        }
        let mut copy = original.clone();
        assert_eq!(copy.layout, original.layout);
        assert_ne!(copy.as_ptr(), original.as_ptr());
        assert!(copy.iter().eq(original.iter()));
        copy[1] = 99;
        assert_eq!(original[1], 3);
        drop(original);
        assert_eq!(copy[len - 1], (len as u64 - 1) * 3);

        let twin = PageBuf::<MaybeUninit<u64>>::uninit(len)
            .unwrap()
            .uninit_like();
        assert_eq!((twin.len(), twin.layout), (len, copy.layout));
    }

    #[test]
    fn empty_buffers_and_zero_sized_elements_allocate_nothing() {
        let empty = PageBuf::filled(0, 0u64).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.layout.size(), 0);
        assert_eq!(empty.clone().len(), 0);

        // `CuckooTable<()>` keeps a payload array of these.
        let mut units = PageBuf::<MaybeUninit<()>>::uninit(1 << 40).unwrap();
        assert_eq!(units.len(), 1 << 40);
        assert_eq!(units.layout.size(), 0);
        units[(1 << 40) - 1].write(());
        assert_eq!(units.uninit_like().len(), 1 << 40);
        let units = PageBuf::filled(5, ()).unwrap();
        assert_eq!(units.iter().count(), 5);
    }

    #[test]
    fn a_length_that_is_not_a_layout_is_none() {
        assert!(PageBuf::<MaybeUninit<u64>>::uninit(usize::MAX).is_none());
        assert!(PageBuf::<MaybeUninit<u64>>::uninit(1 << 60).is_none());
        assert!(PageBuf::<MaybeUninit<u8>>::uninit(isize::MAX as usize).is_none());
        assert!(PageBuf::filled(usize::MAX / 2, 0u16).is_none());
    }

    #[test]
    fn elements_are_dropped_with_the_buffer() {
        use std::rc::Rc;
        let live = Rc::new(());
        let mut slots = PageBuf::<MaybeUninit<Rc<()>>>::uninit(4).unwrap();
        for slot in slots.iter_mut() {
            slot.write(Rc::clone(&live));
        }
        // SAFETY: all four elements were written above.
        let owned = unsafe { slots.assume_init() };
        assert_eq!(Rc::strong_count(&live), 5);
        drop(owned);
        assert_eq!(Rc::strong_count(&live), 1);
    }

    /// Past any address space a process has, so the kernel refuses the
    /// mapping: the same `None` as a refused allocation, which
    /// `CuckooTable::new` turns into `ConfigError::TooLarge`.
    #[test]
    #[cfg(all(target_os = "linux", not(miri)))]
    fn a_mapping_the_kernel_refuses_is_none() {
        assert!(PageBuf::<MaybeUninit<u8>>::uninit(1 << 62).is_none());
        assert!(PageBuf::filled(1 << 61, 0u16).is_none());
    }
}
