//! Allocation accounting for the directory hot path.
//!
//! The acceptance criterion of the op/outcome redesign: with a warmed-up,
//! reused [`Outcome`] buffer, the lookup-hit (`Probe`) path and the
//! `AddSharer`-on-existing-entry path perform **zero heap allocations** per
//! operation, for every organization the registry can build.  The same
//! proof covers the batched entry points — the directory-level
//! `apply_batch` (the default's loop and the cuckoo directory's staged
//! pipeline) and the raw cuckoo table's `probe_batch` /
//! `apply_batch`, which probe through the SoA tag arrays with caller-owned
//! buffers.  Up to 64 caches every sharer format goes further: an entry's
//! sharer set is inline data (a presence word, or pointers and a region
//! mask), so even allocating and freeing an entry stays off the heap.
//!
//! The same allocator sees every layout, so it also checks the table's
//! buffers (`ccd_common::pages::PageBuf`): a cache-line-aligned one below
//! the 2 MiB huge-page line is released with exactly the layout it was
//! allocated with, and a huge one never reaches the allocator (on Linux it
//! is a mapping of its own).  Their byte sums also show the key word the
//! registry picks: 4 bytes a slot for skewing from 1,024 sets up, 8
//! otherwise.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this file
//! contains a single `#[test]` so no concurrent test can perturb the
//! counters.

use ccd_common::{CacheId, LineAddr};
use ccd_cuckoo::{narrow_keys, standard_registry, CuckooTable, InsertOutcome};
use ccd_directory::{DirectoryOp, Outcome};
use ccd_hash::HashKind;
use ccd_sharers::{CoarseVector, LimitedPointer, PresenceWord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Sizes and alignments of the live allocations aligned to a cache line or
/// more, each summed: allocated with one layout and released with another,
/// a buffer leaves one of the sums off balance.
static ALIGNED_BYTES: AtomicI64 = AtomicI64::new(0);
static ALIGNED_ALIGNS: AtomicI64 = AtomicI64::new(0);

fn track_aligned(layout: Layout, sign: i64) {
    if layout.align() >= 64 {
        ALIGNED_BYTES.fetch_add(sign * layout.size() as i64, Ordering::Relaxed);
        ALIGNED_ALIGNS.fetch_add(sign * layout.align() as i64, Ordering::Relaxed);
    }
}

fn aligned_live() -> (i64, i64) {
    (
        ALIGNED_BYTES.load(Ordering::Relaxed),
        ALIGNED_ALIGNS.load(Ordering::Relaxed),
    )
}

#[allow(unsafe_code, reason = "`GlobalAlloc` is an unsafe trait")]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters beside it allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track_aligned(layout, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_aligned(layout, -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `rounds` iterations of `f` and returns how many allocations they
/// performed in total.
fn count_allocs(rounds: u64, f: &mut impl FnMut()) -> u64 {
    let before = allocations();
    for _ in 0..rounds {
        f();
    }
    allocations() - before
}

/// Measures `f` up to `attempts` times and returns the smallest
/// allocation count observed.
///
/// The counting allocator is process-wide, and the libtest harness's
/// main thread allocates sporadically (event channel, output
/// buffering) while the test thread runs, so a single measurement can
/// report a couple of phantom allocations.  A true per-operation
/// allocation reproduces in every attempt and keeps the minimum
/// nonzero; harness noise is transient and washes out.
fn min_allocs(attempts: u32, rounds: u64, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        best = best.min(count_allocs(rounds, &mut f));
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    const SPECS: &[&str] = &[
        "cuckoo-4x512-skew",
        "cuckoo-4x512-skew-c16",
        "cuckoo-4x512-skew-c64",
        "cuckoo-4x512-skew-c65",
        "cuckoo-4x512-strong",
        "cuckoo-4x512@coarse",
        "cuckoo-4x512@hier",
        "cuckoo-4x512@limited",
        "sparse-8x512",
        "sparse-8x512@coarse",
        "skewed-4x1024",
        "skewed-4x1024@limited",
        "duplicate-tag-2x32",
        "in-cache-16x64",
        "tagless-2x32",
        "sharded4:cuckoo-4x512-skew",
    ];
    /// Every format's sharer set up to 64 caches: full vectors over 16, 32
    /// (the default) and 64 caches, a 16-, 32- and 64-bit presence word;
    /// coarse and limited pointers; hierarchical entries, presence words
    /// too.
    const INLINE_SPECS: &[&str] = &[
        "cuckoo-4x512-skew",
        "cuckoo-4x512-skew-c16",
        "cuckoo-4x512-skew-c64",
        "cuckoo-4x512@coarse",
        "cuckoo-4x512@hier",
        "cuckoo-4x512@limited",
        "sparse-8x512@coarse",
        "skewed-4x1024@limited",
    ];
    assert_eq!(std::mem::size_of::<PresenceWord<u16>>(), 2);
    assert_eq!(std::mem::size_of::<PresenceWord<u32>>(), 4);
    assert_eq!(std::mem::size_of::<PresenceWord<u64>>(), 8);
    assert!(!std::mem::needs_drop::<PresenceWord<u16>>());
    assert!(!std::mem::needs_drop::<PresenceWord<u32>>());
    assert!(!std::mem::needs_drop::<PresenceWord<u64>>());
    assert!(std::mem::size_of::<CoarseVector>() <= 32);
    assert!(std::mem::size_of::<LimitedPointer>() <= 32);
    let registry = standard_registry();
    for spec in SPECS {
        let mut dir = registry.build_str(spec).expect(spec);
        let caches = dir.num_caches() as u32;
        let mut out = Outcome::new();
        let lines: Vec<LineAddr> = (0..64u64)
            .map(|i| LineAddr::from_block_number(i * 97))
            .collect();

        // Warm up: allocate the entries and let every buffer reach its
        // steady-state capacity (two passes so the Outcome buffers and any
        // per-entry sharer storage have grown to their working size).
        for _pass in 0..2 {
            for (i, &line) in lines.iter().enumerate() {
                for c in 0..3u32 {
                    dir.apply(
                        DirectoryOp::AddSharer {
                            line,
                            cache: CacheId::new((i as u32 + c * 7) % caches),
                        },
                        &mut out,
                    );
                }
                dir.apply(DirectoryOp::Probe { line }, &mut out);
            }
        }

        // Control: the counter itself works — copying each probed sharer
        // list out of the buffer must register allocations.
        let control = count_allocs(1, &mut || {
            for &line in &lines {
                dir.apply(DirectoryOp::Probe { line }, &mut out);
                std::hint::black_box(out.sharers().to_vec());
            }
        });
        assert!(control > 0, "{spec}: counting-allocator control failed");

        // 1. Lookup-hit path: Probe of tracked lines.
        let probes = min_allocs(3, 4, || {
            for &line in &lines {
                dir.apply(DirectoryOp::Probe { line }, &mut out);
                assert!(out.hit());
            }
        });
        assert_eq!(probes, 0, "{spec}: Probe hit path allocated {probes} times");

        // 2. AddSharer on an existing entry (sharer already present).
        let adds = min_allocs(3, 4, || {
            for (i, &line) in lines.iter().enumerate() {
                dir.apply(
                    DirectoryOp::AddSharer {
                        line,
                        cache: CacheId::new(i as u32 % caches),
                    },
                    &mut out,
                );
                assert!(out.hit());
            }
        });
        assert_eq!(
            adds, 0,
            "{spec}: AddSharer-on-existing allocated {adds} times"
        );

        // 3. Pure queries: contains, and may_hold over every cache.
        let queries = min_allocs(3, 4, || {
            for &line in &lines {
                assert!(dir.contains(line));
                let n = (0..caches)
                    .filter(|&c| dir.may_hold(line, CacheId::new(c)))
                    .count();
                assert!(n > 0);
            }
        });
        assert_eq!(queries, 0, "{spec}: pure queries allocated {queries} times");

        // 4. The batched apply path: with warmed-up op/outcome buffers and
        // an allocation-free sink, a batch of Probe + AddSharer-on-existing
        // ops must not allocate.
        let ops: Vec<DirectoryOp> = lines
            .iter()
            .enumerate()
            .flat_map(|(i, &line)| {
                [
                    DirectoryOp::Probe { line },
                    DirectoryOp::AddSharer {
                        line,
                        cache: CacheId::new(i as u32 % caches),
                    },
                ]
            })
            .collect();
        let batched = min_allocs(3, 4, || {
            let mut round_hits = 0u64;
            dir.apply_batch(&ops, &mut out, &mut |_, o| {
                round_hits += u64::from(o.hit());
            });
            assert_eq!(round_hits, ops.len() as u64, "{spec}: batch missed");
        });
        assert_eq!(batched, 0, "{spec}: apply_batch allocated {batched} times");

        // 5. The allocating cycle, where the sharer set is inline: an
        // `AddSharer` of an untracked line allocates an entry and the
        // `RemoveSharer` of its only sharer frees it, one op at a time and
        // batched, without the heap.
        if !INLINE_SPECS.contains(spec) {
            continue;
        }
        let cache = CacheId::new(5);
        let cycle: Vec<DirectoryOp> = (1000..1064u64)
            .map(|i| LineAddr::from_block_number(i * 89))
            .flat_map(|line| {
                [
                    DirectoryOp::AddSharer { line, cache },
                    DirectoryOp::RemoveSharer { line, cache },
                ]
            })
            .collect();
        let single = min_allocs(3, 4, || {
            for op in &cycle {
                dir.apply(*op, &mut out);
            }
        });
        assert_eq!(single, 0, "{spec}: allocate/free allocated {single} times");
        let batched = min_allocs(3, 4, || {
            let (mut allocated, mut freed) = (0u64, 0u64);
            dir.apply_batch(&cycle, &mut out, &mut |_, o| {
                allocated += u64::from(o.allocated_new_entry());
                freed += u64::from(o.removed_entry());
            });
            assert_eq!((allocated, freed), (64, 64), "{spec}: not a cycle");
        });
        assert_eq!(
            batched, 0,
            "{spec}: batched allocate/free allocated {batched} times"
        );
    }

    // --- The raw cuckoo table's batched probe and insert paths ------------

    let mut table: CuckooTable<u64> = CuckooTable::new(4, 512, HashKind::Skewing, 1).unwrap();
    let keys: Vec<u64> = (0..256u64).map(|i| i * 613).collect();
    let mut hits = vec![false; keys.len()];
    let mut entries: Vec<(u64, u64)> = Vec::with_capacity(keys.len());
    let mut outcomes: Vec<InsertOutcome<u64>> = Vec::with_capacity(keys.len());

    // Warm up: populate the table and let every reusable buffer grow.
    entries.extend(keys.iter().map(|&k| (k, k)));
    table.apply_batch(&mut entries, &mut outcomes);
    assert!(outcomes.iter().all(InsertOutcome::succeeded));

    // Batched lookups over caller-owned buffers are allocation-free.
    let probe_allocs = min_allocs(3, 4, || {
        table.probe_batch(&keys, &mut hits);
        assert!(hits.iter().all(|&h| h));
    });
    assert_eq!(
        probe_allocs, 0,
        "CuckooTable::probe_batch allocated {probe_allocs} times"
    );

    // Batched re-insertions (payload replacement on existing keys) reuse
    // the entry and outcome buffers without allocating.
    let insert_allocs = min_allocs(3, 4, || {
        entries.extend(keys.iter().map(|&k| (k, k + 1)));
        outcomes.clear();
        table.apply_batch(&mut entries, &mut outcomes);
        assert_eq!(outcomes.len(), keys.len());
        assert!(outcomes.iter().all(|o| o.attempts == 1));
    });
    assert_eq!(
        insert_allocs, 0,
        "CuckooTable::apply_batch allocated {insert_allocs} times"
    );

    // --- The table's buffers: below the line one layout at allocation and
    // at release, on it nothing through the allocator --------------------

    const LINE: i64 = 64;
    let before = aligned_live();
    {
        // 4 x 512: 2 KiB of tags, 16 KiB of keys and of payloads, all below
        // the huge-page line; 4 x 2^16: 256 KiB of tags below it, 2 MiB of
        // keys and of payloads on it, each a mapping of its own on Linux
        // and so none of the allocator's bytes.  A clone allocates the same
        // again.
        let small: CuckooTable<u64> = CuckooTable::new(4, 512, HashKind::Skewing, 1).unwrap();
        let (bytes, aligns) = aligned_live();
        assert_eq!(bytes - before.0, 2048 + 2 * 16384);
        assert_eq!(aligns - before.1, 3 * LINE);
        let large: CuckooTable<u64> = CuckooTable::new(4, 1 << 16, HashKind::Skewing, 1).unwrap();
        let cloned = large.clone();
        // Narrow keys halve the key array to 1 MiB, below the line.
        let narrow: CuckooTable<u64, u32> =
            CuckooTable::with_key_word(4, 1 << 16, HashKind::Skewing, 1).unwrap();
        let (bytes, aligns) = aligned_live();
        // What each 2 MiB array adds to both sums: nothing where it is
        // mapped, its size and alignment where the allocator holds it.
        let huge: i64 = if cfg!(target_os = "linux") {
            0
        } else {
            2 << 20
        };
        assert_eq!(
            bytes - before.0,
            2048 + 2 * 16384 + 2 * ((256 << 10) + 2 * huge) + (256 << 10) + (1 << 20) + huge,
            "a huge array went through the allocator"
        );
        assert_eq!(
            aligns - before.1,
            3 * LINE + 2 * (LINE + 2 * huge) + 2 * LINE + huge
        );
        drop((small, large, cloned, narrow));
    }
    assert_eq!(
        aligned_live(),
        before,
        "a buffer was released with another layout"
    );

    // --- Key words: a registry-built slice of 16 caches is a tag byte, a
    // key word and a 2-byte presence word a slot, each array below the
    // line ------------------------------------------------------------

    for (spec, kind, key_bytes) in [
        ("cuckoo-4x1024-skew-c16", HashKind::Skewing, 4),
        ("cuckoo-4x4096-c16", HashKind::Skewing, 4),
        ("cuckoo-4x512-skew-c16", HashKind::Skewing, 8),
        ("cuckoo-4x1024-strong-c16", HashKind::Strong, 8),
        ("cuckoo-4x4096-strong-c16", HashKind::Strong, 8),
    ] {
        let before = aligned_live();
        let dir = registry.build_str(spec).expect(spec);
        let sets = dir.capacity() / 4;
        assert_eq!(narrow_keys(kind, sets), key_bytes == 4, "{spec}");
        let (bytes, aligns) = aligned_live();
        assert_eq!(
            bytes - before.0,
            dir.capacity() as i64 * (1 + key_bytes + 2),
            "{spec}: {key_bytes}-byte keys"
        );
        assert_eq!(aligns - before.1, 3 * LINE, "{spec}");
        drop(dir);
        assert_eq!(aligned_live(), before, "{spec}");
    }
}
