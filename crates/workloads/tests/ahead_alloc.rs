//! Allocation accounting for `WorkloadSpec::stream`'s helper thread.
//!
//! The stream's batch buffers are allocated once, when it is built, and
//! then circulate between the consumer and the helper.  So once the first
//! two batches have arrived, pulling more references allocates nothing, on
//! either thread: the counting `#[global_allocator]` below is process-wide,
//! so it sees the helper's allocations too.  This file contains a single
//! `#[test]` so no concurrent test can perturb the counter.

use ccd_workloads::{WorkloadSpec, AHEAD_BATCH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code, reason = "`GlobalAlloc` is an unsafe trait")]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter beside it allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The allocations `f` performs, the smallest of three attempts: the
/// libtest harness's main thread allocates now and then while the test
/// runs, and that noise does not repeat, while a true allocation does.
fn min_allocs(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn pulling_ahead_batches_allocates_nothing_after_the_first_two() {
    // Control: the counter sees an allocation.
    assert!(min_allocs(|| drop(std::hint::black_box(vec![0u8; 64]))) > 0);

    for spec in ["oracle", "ocean", "migratory", "falseshare-b32"] {
        let spec: WorkloadSpec = spec.parse().unwrap();
        let mut stream = spec.stream(16, 3).unwrap();
        for _ in 0..2 * AHEAD_BATCH {
            std::hint::black_box(stream.next().unwrap());
        }
        let allocs = min_allocs(|| {
            for _ in 0..16 * AHEAD_BATCH {
                std::hint::black_box(stream.next().unwrap());
            }
        });
        assert_eq!(allocs, 0, "{spec}: 16 batches pulled");
    }
}
