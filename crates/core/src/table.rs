//! The raw d-ary cuckoo hash table.
//!
//! This is the structure whose intrinsic behaviour Figure 7 of the paper
//! characterizes: `d` direct-mapped ways indexed by independent hash
//! functions, with displacement-based insertion and a bounded attempt
//! budget.  [`CuckooDirectory`](crate::CuckooDirectory) layers directory
//! semantics (sharer sets, coherence statistics) on top of this table; the
//! hash-characterization experiments use the table directly with `()`
//! payloads.
//!
//! # Storage layout
//!
//! The table stores its slots struct-of-arrays across three parallel dense
//! arrays, each a [`PageBuf`]: a fixed-length buffer that is 64-byte aligned
//! and, from one huge page (2 MiB) of bytes up, huge-page aligned and
//! advised `MADV_HUGEPAGE` before its first touch.  The byte size of each
//! array is the only selector — a 4 × 64 Ki-set table's 2 MiB key array is
//! the smallest that crosses the line — so a slice of millions of entries
//! sits on a few dozen huge pages a TLB can hold instead of tens of
//! thousands of base pages it cannot, and a small table is what it would be
//! in three boxed slices.  `keys` and `values` are always indexed
//! `way * sets + set_index`:
//!
//! * `tags` — one byte per slot: `EMPTY_TAG` (0) for a vacant slot, or a
//!   7-bit key fingerprint with the high bit set for an occupied one.  The
//!   encoding doubles as the occupancy marker, so the probe loop needs no
//!   `Option` and a miss touches one byte per way instead of a full slot.
//! * `keys` — the stored 64-bit keys (garbage where `tags` is empty).
//! * `values` — the payloads, kept as `MaybeUninit<V>` and only initialized
//!   where `tags` is occupied.
//!
//! A probe reduces to *which candidate tags equal the fingerprint / the
//! empty tag?*  The tags live in one of two layouts, each with the match
//! kernel that suits it; which one a table gets is a pure function of its
//! hash family and way count, decided once in `CuckooTable::tag_layout`:
//!
//! * **planar** (every table but the ones below) — tags indexed like the
//!   keys, `way * sets + set_index`; the candidate tags of up to eight ways
//!   are gathered into one integer, matched with SWAR arithmetic, and the
//!   matching lanes folded into way bits by one multiply-shift
//!   (`fold_lanes`): no branch or loop depends on how many ways match.
//! * **line-local** (the `tagalt` hash family with `ways × block_span ≤`
//!   [`MAX_TAG_SPAN`] tag bytes, i.e. up to four ways) — an F14-style
//!   *transposed* layout.  A `tagalt` key's candidate indices all fall in
//!   one aligned [`block_span`](ccd_hash::TagAltFamily::block_span)-set
//!   block, so tags are stored `set_index * ways + way` — the buffer's own
//!   alignment puts block 0 on a cache-line boundary, nothing skids: the
//!   whole candidate block is one contiguous ≤64-byte span — one tag line
//!   per lookup instead of `d` — covered by a single vector compare
//!   ([`crate::simd::VectorEngine`]: sse2 / avx2 / neon, runtime detected
//!   once per table) with no per-way gather at all.
//!
//! Both kernels produce the same way-indexed match masks (the SWAR
//! fingerprint scan may over-report, which the key confirmation filters, so
//! observable behaviour is identical); only ways whose tag matches the
//! key's fingerprint are confirmed with a full key compare, so a negative
//! lookup usually performs **zero** key loads.  Because occupied tags
//! always have their high bit set and the empty tag is zero, the vacancy
//! scan is exact (no false positives).
//!
//! Every entry point picks the probe compiled for the table's way count
//! (`ways_dispatch!`): exactly `d` for tables of up to eight ways, so the
//! hash, the tag gather and the lane mask run a constant number of ways and
//! unroll into straight-line code, one copy per way count from one generic
//! body.  The walks over the resulting masks stay `trailing_zeros` loops —
//! their trip count is the number of matching ways, not the way count, and
//! a branch per way measured slower once the hit way is a coin flip.
//!
//! # The staged batch pipeline
//!
//! Out of cache, what a probe costs is the cache lines it waits for, one
//! after another: a candidate tag, then the key word the tag points at,
//! then the payload.  The batched entry points ([`CuckooTable::probe_batch`],
//! [`CuckooTable::apply_batch`], and the directory's `apply_batch` through
//! `for_each_staged`) take those waits off the critical path by running each
//! window of [`PIPELINE_DEPTH`] operations in three stages:
//!
//! 1. hash each key **once** into a stack row of way indices and prefetch
//!    its candidate tags;
//! 2. read the now-resident tags and prefetch `keys[slot]` and
//!    `values[slot]` of only the ways whose tag equals the key's fingerprint
//!    — about one line pair for a resident key, none for an absent one;
//! 3. run the operations in order through the `_prehashed` entry points,
//!    which take the stage-1 indices instead of hashing again.
//!
//! Stages 1 and 2 only hint.  Stage 3 probes the tags itself, so an earlier
//! operation of the window that fills, moves, displaces or discards a later
//! operation's entry changes nothing the later one computes: a batch is
//! observably the same as its operations applied one by one.
//!
//! # Insertion-attempt accounting
//!
//! The accounting matches Section 5.2 of the paper:
//!
//! * a lookup always precedes an insertion, and implicitly reveals whether
//!   any of the entry's `d` candidate slots is vacant — when one is, the
//!   insertion "succeeds on the first attempt, contributing one toward the
//!   average";
//! * otherwise each displacement round (writing the in-flight entry into one
//!   way and probing the displaced victim's candidate slots) adds one
//!   attempt.
//!
//! The discard rule when the attempt budget expires is exact, and shared by
//! both insertion policies:
//!
//! * the entry discarded is the **most recently displaced** one — the entry
//!   left in flight when `attempts` reaches the budget — and it is reported
//!   in [`InsertOutcome::discarded`] so the caller can invalidate the
//!   corresponding cached blocks (Section 4.2);
//! * the **requested key is never the one discarded**: if the chain circles
//!   back so that the in-flight entry *is* the incoming key (including a
//!   budget of 1, where no displacement round ever ran), the table performs
//!   one final displacement — the incoming entry overwrites its round-robin
//!   candidate slot and that victim is discarded instead — so the requested
//!   block is always tracked when the insertion returns.
//!
//! To keep entries uniformly distributed across the ways, each insertion's
//! displacement chain starts at the way where the previous chain stopped.
//!
//! Each insertion hashes each (key, way) pair exactly once: the hit-probe
//! and vacancy-probe share one [`IndexHashFamily::index_all_into`] pass, and
//! the displacement loop reuses each victim's indices for both its vacancy
//! probe and its next displacement target.
//!
//! # Insertion policies
//!
//! When every candidate slot of a new key is occupied, the table resolves
//! the insertion with one of two [`InsertPolicy`] kernels:
//!
//! * `greedy` (the default, the paper's Section 5.2 procedure) — the
//!   random-walk chain above: kick a victim, probe its alternates, repeat.
//! * `bfs` — breadth-first search for a **shortest displacement path**: the
//!   frontier starts at the key's `d` candidate slots and expands each
//!   victim into its alternate candidates (derived from the tag arrays
//!   alone via [`ccd_hash::TagAltFamily::derive_all_into`] when the family
//!   is `tagalt`, re-hashing the victim key otherwise) until some frontier
//!   victim has a vacant alternate.  The path of moves is then applied
//!   deepest-first, vacating one of the key's candidate slots.  A path of
//!   `L` moves costs `L + 1` attempts, so the budget bounds the search
//!   depth at `max_attempts - 1`; the frontier is additionally bounded by a
//!   fixed preallocated scratch arena ([`BFS_ARENA`] nodes), keeping
//!   steady-state insertions allocation-free.  When the bounded search
//!   finds no path the table falls back to the shared discard rule: one
//!   final displacement into the round-robin candidate way, reported with
//!   `attempts = max_attempts`.
//!
//! Both policies agree on which keys are resident until a budget actually
//! expires, but attempt counts and physical placements differ — the policy
//! is semantic, unlike the two bit-identical tag layouts.

use crate::simd::VectorEngine;
use ccd_common::pages::PageBuf;
use ccd_common::prefetch::prefetch_slice_element;
use ccd_common::{ConfigError, LineAddr};
use ccd_directory::spec::{capacity_too_large, checked_capacity};
use ccd_directory::{DepthMetrics, InsertPolicy};
use ccd_hash::{fingerprint, HashFamily, HashKind, IndexHashFamily, MAX_FAMILY_WAYS};
use std::mem::MaybeUninit;

/// Tag byte of a vacant slot.  Occupied slots always carry the key's
/// fingerprint with the high bit set ([`ccd_hash::fingerprint`] — the one
/// tag encoding shared with the `tagalt` hash family), so `0` is
/// unambiguous.
const EMPTY_TAG: u8 = 0;

/// SWAR helpers: a `0x01` / `0x80` in every byte lane.
const SWAR_LOW: u64 = 0x0101_0101_0101_0101;
const SWAR_HIGH: u64 = 0x8080_8080_8080_8080;

/// Way counts up to this bound get a probe compiled for exactly their way
/// count ([`ways_dispatch!`]); wider tables (up to [`MAX_FAMILY_WAYS`]) share
/// one compiled for full-width buffers and a runtime bound.
const SMALL_WAYS: usize = 8;

/// Operations per window of the staged batch pipeline
/// ([`CuckooTable::probe_batch`], [`CuckooTable::apply_batch`] and the
/// directory's `apply_batch`).  Each stage runs over the whole window
/// before the next starts, so a window has up to `PIPELINE_DEPTH × ways` tag
/// lines, then about one key/payload line pair per resident key, in flight
/// at once.
///
/// Measured on the `dir_spill` benchmark (a 4 Mi-entry slice, 241 MB), eight
/// seeds, median Mop/s: depth 8 — 11.0, depth 16 — 11.6 (ahead of 8 on six
/// seeds, of 32 on seven), depth 32 — 10.3.  A rolling pipeline (stage 3 of
/// operation `i` interleaved with stage 2 of `i + depth` and stage 1 of
/// `i + 2·depth`) measured the same as these windows at depths 4, 8 and 16,
/// so the simpler loop stayed.
pub const PIPELINE_DEPTH: usize = 16;

/// Longest contiguous tag span a line-local probe reads in one vector
/// compare (the [`VectorEngine::eq_mask`] limit: one cache line, one `u64`
/// mask).  A `tagalt` table whose `ways × block_span` fits gets the
/// line-local tag layout.
pub const MAX_TAG_SPAN: usize = 64;

/// How a table lays out its tag bytes, with what the matching probe kernel
/// needs (see the module docs).
#[derive(Clone, Copy, Debug)]
enum TagLayout {
    /// `tags[way * sets + index]`, matched by SWAR over gathered tags.
    Planar,
    /// `tags[index * ways + way]`, matched by one vector compare over the
    /// key's whole candidate block.
    LineLocal {
        /// Sets per aligned candidate block (the family's block span).
        block: usize,
        /// The vector unit the compare runs on, detected once per table.
        engine: VectorEngine,
    },
}

/// Returns a mask with bit 7 of byte lane `i` set when byte `i` of `word`
/// equals `tag` — the classic SWAR byte-equality test.
///
/// With this table's tag encoding the test is exact for `tag == EMPTY_TAG`
/// (occupied tags have their high bit set, which the `!x` term excludes) and
/// may only over-report for fingerprint tags when a *true* match sits in a
/// lower lane (borrow propagation); callers confirm fingerprint candidates
/// with a full key compare anyway.
#[inline]
fn swar_match(word: u64, tag: u8) -> u64 {
    let x = word ^ SWAR_LOW.wrapping_mul(u64::from(tag));
    x.wrapping_sub(SWAR_LOW) & !x & SWAR_HIGH
}

/// Folds a [`swar_match`] result (bit 7 of byte lane `j` set or clear,
/// nothing else) into bit `j` of the low byte: the multiplier's eight set
/// bits, seven apart, carry lane `j`'s bit `8j + 7` to bit `56 + j`, and
/// no two of the 64 partial products land on the same bit, so nothing
/// carries.  One multiply and one shift whatever the number of matching
/// lanes — at half occupancy that number is a coin flip per way.
#[inline]
fn fold_lanes(lanes: u64) -> u64 {
    debug_assert_eq!(lanes & !SWAR_HIGH, 0);
    lanes.wrapping_mul(0x0002_0408_1020_4081) >> 56
}

/// What a fused probe learned about a key's `d` candidate slots.
#[derive(Clone, Copy, Debug)]
struct ProbeOutcome {
    /// Slot currently holding the key (first matching way), if any.
    hit: Option<usize>,
    /// First vacant candidate slot in way order, if any.
    vacant: Option<usize>,
}

/// The outcome of inserting a new key into a [`CuckooTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome<V> {
    /// Number of insertion attempts performed (≥ 1).
    pub attempts: u32,
    /// The key/value pair that had to be discarded because the attempt
    /// budget was exhausted, if any.  `None` means every entry found a home.
    pub discarded: Option<(u64, V)>,
}

impl<V> InsertOutcome<V> {
    /// `true` when the insertion placed every entry without discarding one.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.discarded.is_none()
    }
}

/// Result of [`CuckooTable::find_or_insert_with`]: a mutable borrow of the
/// payload stored for the requested key, plus the insertion outcome when the
/// key was newly inserted.
pub struct FindOrInsert<'a, V> {
    /// The payload stored for the requested key (existing or just created).
    pub value: &'a mut V,
    /// `None` when the key was already present (the payload was left
    /// untouched); the insertion outcome otherwise.
    pub inserted: Option<InsertOutcome<V>>,
}

impl<V> std::fmt::Debug for FindOrInsert<'_, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FindOrInsert")
            .field("was_insert", &self.inserted.is_some())
            .finish_non_exhaustive()
    }
}

/// A resident entry found by [`CuckooTable::occupied`].  It borrows the
/// table mutably, so the slot it names stays occupied for as long as it
/// lives.
pub(crate) struct Occupied<'a, V> {
    table: &'a mut CuckooTable<V>,
    slot: usize,
}

impl<'a, V> Occupied<'a, V> {
    /// The entry's payload.
    #[inline]
    pub(crate) fn get_mut(&mut self) -> &mut V {
        // A reborrowed handle, so `into_mut` holds the one `unsafe` block.
        Occupied {
            table: self.table,
            slot: self.slot,
        }
        .into_mut()
    }

    /// The entry's payload, for the rest of the table borrow.
    #[inline]
    fn into_mut(self) -> &'a mut V {
        // SAFETY: `occupied` only names occupied slots.
        unsafe { self.table.values[self.slot].assume_init_mut() }
    }

    /// Removes the entry, returning its payload.
    #[inline]
    pub(crate) fn remove(self) -> V {
        let pos = self.table.tag_pos_of_slot(self.slot);
        self.table.tags[pos] = EMPTY_TAG;
        self.table.valid -= 1;
        // SAFETY: `occupied` only names occupied slots, and the tag is
        // cleared above so the payload is never read (or dropped) again.
        unsafe { self.table.values[self.slot].assume_init_read() }
    }
}

/// Upper bound on the BFS frontier: the number of scratch-arena nodes one
/// search may allocate across all depths (roots included).  Reached only at
/// extreme occupancy; the search then falls back to the discard rule.
pub const BFS_ARENA: usize = 256;

/// One BFS frontier node: a candidate slot plus the arena position of the
/// node whose expansion enqueued it (`u32::MAX` for the roots).
#[derive(Clone, Copy, Debug)]
struct BfsNode {
    slot: u32,
    parent: u32,
}

/// Preallocated scratch of the BFS insertion kernel: the arena doubles as
/// the FIFO frontier queue, and the bitmap deduplicates visited slots.
/// Allocated once by [`CuckooTable::set_insert_policy`] so steady-state
/// insertions stay allocation-free.
#[derive(Debug)]
struct BfsScratch {
    /// Frontier arena / FIFO queue (capacity [`BFS_ARENA`], never grown).
    nodes: Vec<BfsNode>,
    /// One bit per slot; set while the slot is in the arena.
    visited: Vec<u64>,
}

impl BfsScratch {
    fn new(capacity: usize) -> Self {
        BfsScratch {
            nodes: Vec::with_capacity(BFS_ARENA),
            visited: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Marks `slot` visited, returning `true` when it was not already.
    fn visit(&mut self, slot: usize) -> bool {
        let word = &mut self.visited[slot / 64];
        let mask = 1u64 << (slot % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears the visited bits of every arena node and empties the arena,
    /// ready for the next search — O(arena), not O(table capacity).
    fn reset(&mut self) {
        for i in 0..self.nodes.len() {
            let slot = self.nodes[i].slot as usize;
            self.visited[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.nodes.clear();
    }
}

/// Evaluates `$body` with the constant `$N` bound to the way count `$ways`
/// for tables of up to [`SMALL_WAYS`] ways, and to [`MAX_FAMILY_WAYS`] above.
/// Every probe kernel is generic over `N` and walks its ways as
/// `0..ways_of::<N>()`, which is the constant `N` itself below the bound: the
/// tag gather, the lane mask, the hash and the vacancy and candidate
/// positions of a 3- or 4-way table are straight-line code, compiled once
/// per way count from one body.  Above the bound the buffers are
/// `MAX_FAMILY_WAYS` long and the loops keep the table's runtime count.
macro_rules! ways_dispatch {
    ($ways:expr, $N:ident => $body:expr) => {
        match $ways {
            2 => {
                const $N: usize = 2;
                $body
            }
            3 => {
                const $N: usize = 3;
                $body
            }
            4 => {
                const $N: usize = 4;
                $body
            }
            5 => {
                const $N: usize = 5;
                $body
            }
            6 => {
                const $N: usize = 6;
                $body
            }
            7 => {
                const $N: usize = 7;
                $body
            }
            8 => {
                const $N: usize = 8;
                $body
            }
            _ => {
                const $N: usize = ccd_hash::MAX_FAMILY_WAYS;
                $body
            }
        }
    };
}
pub(crate) use ways_dispatch;

/// A d-ary cuckoo hash table with bounded displacement insertion.
///
/// ```
/// use ccd_cuckoo::CuckooTable;
/// use ccd_hash::HashKind;
///
/// let mut table: CuckooTable<()> = CuckooTable::new(4, 1024, HashKind::Strong, 1)?;
/// let outcome = table.insert(0xabcdef, ());
/// assert!(outcome.succeeded());
/// assert!(table.contains(0xabcdef));
/// assert_eq!(table.len(), 1);
/// # Ok::<(), ccd_common::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct CuckooTable<V> {
    ways: usize,
    sets: usize,
    hashes: HashFamily,
    /// Per-slot occupancy tags; position `tag_pos(way, index)`.
    tags: PageBuf<u8>,
    /// How `tags` is laid out (fixed by [`CuckooTable::tag_layout`]).
    layout: TagLayout,
    /// Stored keys, indexed `way * sets + index` (garbage where the tag is
    /// empty).
    keys: PageBuf<u64>,
    /// Stored payloads, initialized exactly where the tag is occupied.
    values: PageBuf<MaybeUninit<V>>,
    valid: usize,
    max_attempts: u32,
    next_start_way: usize,
    /// How insertions whose candidate slots are all occupied are resolved.
    policy: InsertPolicy,
    /// Scratch arena of the BFS kernel; `Some` exactly when `policy` is
    /// [`InsertPolicy::Bfs`].
    bfs: Option<Box<BfsScratch>>,
    /// Depth distributions (probe depth, displacement-chain length, BFS
    /// path depth), recorded only while armed.  `None` — the default —
    /// costs one branch per record site and must never change what the
    /// table computes (contract #11).
    metrics: Option<Box<DepthMetrics>>,
}

impl<V> CuckooTable<V> {
    /// Creates an empty table of `ways` direct-mapped tables with `sets`
    /// entries each, indexed by the `kind` hash family seeded with `seed`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::TooSmall`] if `ways < 2`,
    /// * [`ConfigError::TooLarge`] (`"directory capacity"`) if `ways × sets`
    ///   overflows, one of the three arrays is not a representable
    ///   allocation, or the allocator refuses it,
    /// * plus the hash family's own validation errors (zero/`!pow2` sets).
    pub fn new(ways: usize, sets: usize, kind: HashKind, seed: u64) -> Result<Self, ConfigError> {
        if ways < 2 {
            return Err(ConfigError::TooSmall {
                what: "ways",
                value: ways as u64,
                min: 2,
            });
        }
        let hashes = HashFamily::with_seed(kind, ways, sets, seed)?;
        debug_assert!(ways <= MAX_FAMILY_WAYS, "hash families cap the way count");
        // The unchecked reads of `tag_at`/`key_at` rest on these lengths:
        // the product is checked, never wrapped.
        let capacity = checked_capacity(ways, sets)?;
        let refused = || capacity_too_large(ways, sets);
        Ok(CuckooTable {
            ways,
            sets,
            layout: Self::tag_layout(&hashes, ways),
            hashes,
            tags: PageBuf::filled(capacity, EMPTY_TAG).ok_or_else(refused)?,
            keys: PageBuf::filled(capacity, 0).ok_or_else(refused)?,
            values: PageBuf::uninit(capacity).ok_or_else(refused)?,
            valid: 0,
            max_attempts: crate::config::DEFAULT_MAX_ATTEMPTS,
            next_start_way: 0,
            policy: InsertPolicy::Greedy,
            bfs: None,
            metrics: None,
        })
    }

    /// The table's one layout decision: line-local when the family's
    /// candidates share an aligned block of at most [`MAX_TAG_SPAN`] tag
    /// bytes, planar otherwise.  Either way the tag array is one byte a slot
    /// in a [`PageBuf`], which starts on a cache-line boundary, so every
    /// aligned line-local candidate block touches at most one extra line.
    fn tag_layout(hashes: &HashFamily, ways: usize) -> TagLayout {
        hashes
            .tag_alt()
            .map(|family| family.block_span())
            .filter(|block| ways * block <= MAX_TAG_SPAN)
            .map_or(TagLayout::Planar, |block| TagLayout::LineLocal {
                block,
                engine: VectorEngine::detect(),
            })
    }

    /// Sets the insertion-attempt budget (default 32).
    ///
    /// When the budget expires the **most recently displaced** entry is
    /// discarded — never the requested key, which is kept resident by one
    /// final displacement if the chain circled back to it (see the module
    /// docs for the exact rule):
    ///
    /// ```
    /// use ccd_cuckoo::CuckooTable;
    /// use ccd_hash::HashKind;
    ///
    /// let mut table: CuckooTable<()> = CuckooTable::new(2, 16, HashKind::Strong, 7)?;
    /// table.set_max_attempts(1); // any fully-conflicted insert discards at once
    /// let discard = (0..10_000u64).find_map(|key| {
    ///     table.insert(key, ()).discarded.map(|(victim, ())| (key, victim))
    /// });
    /// let (key, victim) = discard.expect("a 2x16 table conflicts quickly");
    /// assert_ne!(victim, key, "the requested key is never the one discarded");
    /// assert!(table.contains(key), "the requested block stays tracked");
    /// assert!(!table.contains(victim), "the displaced victim is gone");
    /// # Ok::<(), ccd_common::ConfigError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn set_max_attempts(&mut self, max_attempts: u32) {
        assert!(max_attempts > 0, "attempt budget must be non-zero");
        self.max_attempts = max_attempts;
    }

    /// Selects the insertion policy (default [`InsertPolicy::Greedy`]).
    ///
    /// Switching to [`InsertPolicy::Bfs`] preallocates the policy's fixed
    /// scratch arena, so steady-state insertions remain allocation-free.
    /// The policy only governs future insertions; resident entries are left
    /// where they are.
    pub fn set_insert_policy(&mut self, policy: InsertPolicy) {
        self.policy = policy;
        self.bfs = match policy {
            InsertPolicy::Bfs => Some(Box::new(BfsScratch::new(self.capacity()))),
            InsertPolicy::Greedy => None,
        };
    }

    /// The insertion policy this table runs.
    #[must_use]
    pub fn insert_policy(&self) -> InsertPolicy {
        self.policy
    }

    /// Arms depth-distribution recording at `sig_bits` resolution,
    /// replacing any distributions recorded so far.
    ///
    /// While armed, every mutating operation feeds three
    /// [`LogHistogram`](ccd_common::LogHistogram)s: the ways inspected by
    /// each insertion-path probe, the entries physically displaced by each
    /// greedy chain, and the moves applied by each BFS shortest path.
    /// Pure queries (`find`, `contains`, `probe_batch`) take `&self` and
    /// are deliberately not recorded — observation never adds interior
    /// mutability to the read path.  Recording never changes what the
    /// table computes (contract #11).
    ///
    /// # Panics
    ///
    /// Panics if `sig_bits` is outside `1..=8`.
    pub fn arm_depth_metrics(&mut self, sig_bits: u32) {
        self.metrics = Some(Box::new(DepthMetrics::new(sig_bits)));
    }

    /// Moves the recorded distributions out of the table, disarming it.
    /// The live-resize migration path uses this to keep migration traffic
    /// out of the request-path distributions.
    #[must_use]
    pub fn take_depth_metrics(&mut self) -> Option<Box<DepthMetrics>> {
        self.metrics.take()
    }

    /// Re-installs distributions taken by
    /// [`CuckooTable::take_depth_metrics`], re-arming the table when
    /// `metrics` is `Some`.
    pub fn restore_depth_metrics(&mut self, metrics: Option<Box<DepthMetrics>>) {
        self.metrics = metrics;
    }

    /// The depth distributions recorded since arming, or `None` when
    /// disarmed.
    #[must_use]
    pub fn depth_metrics(&self) -> Option<&DepthMetrics> {
        self.metrics.as_deref()
    }

    /// Records the depth of an insertion-path probe: the 1-based way of
    /// the hit, or every way when the probe missed.
    #[inline]
    fn record_probe_depth(&mut self, hit: Option<usize>) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            let ways_inspected = match hit {
                Some(slot) => slot / self.sets + 1,
                None => self.ways,
            };
            metrics.probe_depth.record(ways_inspected as u64);
        }
    }

    /// Records the number of entries a greedy chain physically displaced.
    #[inline]
    fn record_chain(&mut self, moved: u32) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.displacement_chain.record(u64::from(moved));
        }
    }

    /// Records the number of moves a successful BFS path applied.
    #[inline]
    fn record_bfs_depth(&mut self, moves: u32) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.bfs_path_depth.record(u64::from(moves));
        }
    }

    /// Number of ways.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Entries per way.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total capacity (`ways × sets`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ways * self.sets
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// Current occupancy (0.0 ..= 1.0).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.valid as f64 / self.capacity() as f64
    }

    /// The number of ways a kernel compiled for `N` walks: `N` itself, a
    /// constant, when [`ways_dispatch!`] matched the table's way count
    /// exactly; the runtime count for the wide tables it sends to
    /// `MAX_FAMILY_WAYS`.
    #[inline(always)]
    fn ways_of<const N: usize>(&self) -> usize {
        if N <= SMALL_WAYS {
            debug_assert_eq!(N, self.ways, "a probe compiled for {N} ways");
            N
        } else {
            self.ways
        }
    }

    /// Computes the candidate set index of every way for `key` in one hash
    /// pass, into `indices[..ways]`.
    #[inline(always)]
    fn hash_into<const N: usize>(&self, key: u64, indices: &mut [usize; N]) {
        let ways = self.ways_of::<N>();
        self.hashes
            .index_all_into(LineAddr::from_block_number(key), &mut indices[..ways]);
    }

    /// `key`'s candidate set indices, one a way ([`CuckooTable::hash_into`]).
    #[inline(always)]
    pub(crate) fn hashed<const N: usize>(&self, key: u64) -> [usize; N] {
        let mut indices = [0usize; N];
        self.hash_into(key, &mut indices);
        indices
    }

    /// Position of `(way, index)`'s tag byte inside `tags`.
    #[inline]
    fn tag_pos(&self, way: usize, index: usize) -> usize {
        match self.layout {
            TagLayout::Planar => way * self.sets + index,
            TagLayout::LineLocal { .. } => index * self.ways + way,
        }
    }

    /// Tag position of a `way * sets + index` slot number — the slot number
    /// itself on the planar layout.
    #[inline]
    fn tag_pos_of_slot(&self, slot: usize) -> usize {
        match self.layout {
            TagLayout::Planar => slot,
            TagLayout::LineLocal { .. } => self.tag_pos(slot / self.sets, slot % self.sets),
        }
    }

    /// Reads the tag byte at `pos` without a bounds check: every position
    /// this table computes comes from [`CuckooTable::tag_pos`] with
    /// `way < ways` (enforced by the probe loops) and `index < sets` (the
    /// [`IndexHashFamily`] contract, upheld by masking/shifting in every
    /// family), so both layouts stay below `tags.len()` — the checked
    /// product `ways × sets` that `new` allocated.
    #[inline]
    fn tag_at(&self, pos: usize) -> u8 {
        debug_assert!(pos < self.tags.len());
        // SAFETY: see above — pos < ways * sets == tags.len().
        unsafe { *self.tags.get_unchecked(pos) }
    }

    /// Reads the key word of `slot`; same bounds argument as
    /// [`CuckooTable::tag_at`].
    #[inline]
    fn key_at(&self, slot: usize) -> u64 {
        debug_assert!(slot < self.keys.len());
        // SAFETY: see `tag_at` — slot < ways * sets == keys.len().
        unsafe { *self.keys.get_unchecked(slot) }
    }

    /// Gathers the candidate tags of ways `way .. way + lanes` into one SWAR
    /// word (byte lane `j` = way `way + j`) — the shared chunk primitive of
    /// every probe loop.
    #[inline(always)]
    fn gather_tags<const N: usize>(&self, way: usize, lanes: usize, indices: &[usize; N]) -> u64 {
        let mut word = 0u64;
        for j in 0..lanes {
            let w = way + j;
            word |= u64::from(self.tag_at(w * self.sets + indices[w])) << (8 * j);
        }
        word
    }

    /// Mask covering the low `lanes` byte lanes of a SWAR word.  Padding
    /// lanes of a partial chunk are zero bytes: they can never alias a
    /// fingerprint (fingerprints have the high bit set) but *do* look
    /// vacant, so vacancy scans must clip with this mask.
    #[inline]
    fn lane_mask(lanes: usize) -> u64 {
        if lanes == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * lanes)) - 1
        }
    }

    /// The shared probe primitive behind both layouts: way-indexed
    /// bitmasks over `key`'s candidate slots — bit `w` of the first mask is
    /// set when way `w`'s candidate tag equals `fp` (SWAR may over-report;
    /// callers confirm with a key compare), bit `w` of the second when it
    /// is vacant (always exact).  Unwanted masks (per the const flags) are
    /// zero.  All selection downstream walks these masks with
    /// `trailing_zeros`, so both kernels scan ways in ascending order —
    /// exactly the order the displacement procedure relies on.
    #[inline(always)]
    fn way_masks<const N: usize, const WANT_FP: bool, const WANT_EMPTY: bool>(
        &self,
        fp: u8,
        indices: &[usize; N],
    ) -> (u64, u64) {
        match self.layout {
            TagLayout::Planar => self.way_masks_swar::<N, WANT_FP, WANT_EMPTY>(fp, indices),
            TagLayout::LineLocal { block, engine } => {
                self.way_masks_line_local::<N, WANT_FP, WANT_EMPTY>(block, engine, fp, indices)
            }
        }
    }

    /// Planar layout: up to eight candidate tags a chunk gathered into one
    /// integer and matched with SWAR arithmetic; [`fold_lanes`] turns the
    /// chunk's lane bits into way bits, shifted to the chunk's first way.
    /// Compiled for up to eight exact ways, the loop is one chunk of a
    /// constant lane count.
    #[inline(always)]
    fn way_masks_swar<const N: usize, const WANT_FP: bool, const WANT_EMPTY: bool>(
        &self,
        fp: u8,
        indices: &[usize; N],
    ) -> (u64, u64) {
        let ways = self.ways_of::<N>();
        let mut fp_mask = 0u64;
        let mut empty_mask = 0u64;
        let mut way = 0;
        while way < ways {
            let lanes = (ways - way).min(8);
            let word = self.gather_tags(way, lanes, indices);
            if WANT_FP {
                fp_mask |= fold_lanes(swar_match(word, fp)) << way;
            }
            if WANT_EMPTY {
                let lanes_empty = swar_match(word, EMPTY_TAG) & Self::lane_mask(lanes);
                empty_mask |= fold_lanes(lanes_empty) << way;
            }
            way += lanes;
        }
        (fp_mask, empty_mask)
    }

    /// Line-local layout: every candidate lives in one aligned
    /// `ways × block` tag span (the tagalt block property), so a single
    /// vector compare covers the whole candidate block and the per-way bits
    /// are extracted at `(index - block_base) * ways + way`.
    fn way_masks_line_local<const N: usize, const WANT_FP: bool, const WANT_EMPTY: bool>(
        &self,
        block: usize,
        engine: VectorEngine,
        fp: u8,
        indices: &[usize; N],
    ) -> (u64, u64) {
        let block_base = indices[0] & !(block - 1);
        let start = block_base * self.ways;
        let bytes = &self.tags[start..start + self.ways * block];
        let fp_eq = if WANT_FP {
            engine.eq_mask(bytes, fp)
        } else {
            0
        };
        let empty_eq = if WANT_EMPTY {
            engine.eq_mask(bytes, EMPTY_TAG)
        } else {
            0
        };
        let mut fp_mask = 0u64;
        let mut empty_mask = 0u64;
        for (way, &index) in indices.iter().enumerate().take(self.ways_of::<N>()) {
            let bit = (index - block_base) * self.ways + way;
            fp_mask |= ((fp_eq >> bit) & 1) << way;
            empty_mask |= ((empty_eq >> bit) & 1) << way;
        }
        (fp_mask, empty_mask)
    }

    /// Lookup-only probe: like [`CuckooTable::probe_prehashed`] but without
    /// the vacancy scan, for the pure-query paths (`contains` / `get` /
    /// `probe_batch`) that never insert.
    #[inline(always)]
    fn probe_hit_prehashed<const N: usize>(&self, key: u64, indices: &[usize; N]) -> Option<usize> {
        let (mut candidates, _) = self.way_masks::<N, true, false>(fingerprint(key), indices);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            if self.key_at(slot) == key {
                return Some(slot);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Probes `key`'s candidate slots given precomputed way `indices`:
    /// matches the fingerprint and the empty tag through the layout's
    /// kernel, and confirms fingerprint candidates with a key compare.
    /// Ways are scanned in ascending order, so the hit is the first way
    /// holding the key and the vacancy is the first vacant way.
    #[inline(always)]
    fn probe_prehashed<const N: usize>(&self, key: u64, indices: &[usize; N]) -> ProbeOutcome {
        let (mut candidates, empties) = self.way_masks::<N, true, true>(fingerprint(key), indices);
        let vacant = (empties != 0).then(|| {
            let w = empties.trailing_zeros() as usize;
            w * self.sets + indices[w]
        });
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            if self.key_at(slot) == key {
                return ProbeOutcome {
                    hit: Some(slot),
                    vacant,
                };
            }
            candidates &= candidates - 1;
        }
        ProbeOutcome { hit: None, vacant }
    }

    /// First vacant candidate slot in way order, given precomputed indices.
    #[inline(always)]
    fn first_vacant_prehashed<const N: usize>(&self, indices: &[usize; N]) -> Option<usize> {
        let (_, empties) = self.way_masks::<N, false, true>(EMPTY_TAG, indices);
        (empties != 0).then(|| {
            let w = empties.trailing_zeros() as usize;
            w * self.sets + indices[w]
        })
    }

    /// Finds the slot currently holding `key`, if any: one hash pass over
    /// all ways, then the lookup-only probe — the same straight line for
    /// every key.  A way-0 shortcut (hash way 0 alone, compare its key, fall
    /// through on a miss) does not pay: at the paper's operating point only
    /// 0.33–0.35 of the resident keys sit in way 0 (4 × 512 slices at
    /// occupancy 0.49–0.51 under `oracle`, `apache`, `ocean`), which makes
    /// it an unpredictable branch that hashes way 0 twice on the way out.
    /// Without it `sim_mix` runs 2.9 % faster (10/10 pairs) and `svc_churn`'s
    /// `cuckoo.get_single_ns` / `remove_ns` fall 19.5 → 16.5 and 20.6 → 16.3;
    /// on `svc_hit`'s table, filled straight to a quarter so that every key
    /// does sit in way 0, they rise 5.3 → 15.0 and 6.6 → 14.0 ns while its
    /// `ops_per_s` stays inside its spread.
    #[inline(always)]
    fn find_n<const N: usize>(&self, key: u64) -> Option<usize> {
        self.probe_hit_prehashed(key, &self.hashed::<N>(key))
    }

    /// Writes `key`/`value` into the vacant `slot`.
    #[inline]
    fn fill_slot(&mut self, slot: usize, key: u64, value: V) {
        let pos = self.tag_pos_of_slot(slot);
        debug_assert_eq!(self.tags[pos], EMPTY_TAG, "fill requires a vacant slot");
        self.tags[pos] = fingerprint(key);
        self.keys[slot] = key;
        self.values[slot].write(value);
    }

    /// Replaces the occupant of `slot` with `key`/`value`, returning the
    /// displaced pair.
    #[inline]
    fn swap_slot(&mut self, slot: usize, key: u64, value: V) -> (u64, V) {
        let pos = self.tag_pos_of_slot(slot);
        assert!(
            self.tags[pos] != EMPTY_TAG,
            "displacement only happens into occupied slots"
        );
        let old_key = self.keys[slot];
        // SAFETY: the occupied tag guarantees the payload is initialized,
        // and it is replaced (not duplicated) in the same expression.
        let old_value = unsafe {
            std::mem::replace(&mut self.values[slot], MaybeUninit::new(value)).assume_init()
        };
        self.tags[pos] = fingerprint(key);
        self.keys[slot] = key;
        (old_key, old_value)
    }

    /// Moves the occupant of `from` into the vacant slot `to`, leaving
    /// `from` vacant — one hop of a BFS displacement path.
    #[inline]
    fn move_slot(&mut self, from: usize, to: usize) {
        let from_pos = self.tag_pos_of_slot(from);
        let to_pos = self.tag_pos_of_slot(to);
        debug_assert_ne!(self.tags[from_pos], EMPTY_TAG, "path nodes are occupied");
        debug_assert_eq!(self.tags[to_pos], EMPTY_TAG, "paths move into vacancies");
        self.tags[to_pos] = self.tags[from_pos];
        self.tags[from_pos] = EMPTY_TAG;
        self.keys[to] = self.keys[from];
        // SAFETY: `from`'s occupied tag guarantees an initialized payload,
        // and clearing that tag above makes this a move — the payload is
        // read exactly once and never dropped at `from`.
        let value = unsafe { self.values[from].assume_init_read() };
        self.values[to].write(value);
    }

    /// Returns `true` when `key` is present.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        ways_dispatch!(self.ways, N => self.find_n::<N>(key)).is_some()
    }

    /// Returns a reference to the payload stored for `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        ways_dispatch!(self.ways, N => self.get_prehashed(key, &self.hashed::<N>(key)))
    }

    /// [`CuckooTable::get`], with `indices` already holding `key`'s
    /// candidate set indices.
    #[inline(always)]
    pub(crate) fn get_prehashed<const N: usize>(
        &self,
        key: u64,
        indices: &[usize; N],
    ) -> Option<&V> {
        let slot = self.probe_hit_prehashed(key, indices)?;
        // SAFETY: the probe only returns occupied slots.
        Some(unsafe { self.values[slot].assume_init_ref() })
    }

    /// Returns a mutable reference to the payload stored for `key`.
    #[must_use]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        ways_dispatch!(self.ways, N => self.occupied(key, &self.hashed::<N>(key)))
            .map(Occupied::into_mut)
    }

    /// Removes `key`, returning its payload.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        ways_dispatch!(self.ways, N => self.occupied(key, &self.hashed::<N>(key)))
            .map(Occupied::remove)
    }

    /// The resident entry of `key`, to update and then possibly remove
    /// behind a single probe of its candidate set `indices`.
    #[inline(always)]
    pub(crate) fn occupied<const N: usize>(
        &mut self,
        key: u64,
        indices: &[usize; N],
    ) -> Option<Occupied<'_, V>> {
        let slot = self.probe_hit_prehashed(key, indices)?;
        Some(Occupied { table: self, slot })
    }

    /// Iterates over `(key, &payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        (0..self.ways * self.sets)
            .filter(move |&slot| self.tag_at(self.tag_pos_of_slot(slot)) != EMPTY_TAG)
            .map(move |slot| {
                // SAFETY: occupied tags guarantee initialized payloads.
                (self.keys[slot], unsafe {
                    self.values[slot].assume_init_ref()
                })
            })
    }

    /// Stage 1 of the batch pipeline: hints the CPU to fetch the candidate
    /// tag bytes behind `indices`.  Purely a performance hint; see
    /// [`ccd_common::prefetch::prefetch_read`].
    fn prefetch_tags<const N: usize>(&self, indices: &[usize; N]) {
        match self.layout {
            TagLayout::Planar => {
                for (way, &index) in indices.iter().enumerate().take(self.ways_of::<N>()) {
                    prefetch_slice_element(&self.tags, way * self.sets + index);
                }
            }
            TagLayout::LineLocal { block, .. } => {
                // The whole candidate block is one contiguous span: touch
                // its first and last byte (at most two cache lines).
                let start = (indices[0] & !(block - 1)) * self.ways;
                prefetch_slice_element(&self.tags, start);
                prefetch_slice_element(&self.tags, start + self.ways * block - 1);
            }
        }
    }

    /// Stage 2 of the batch pipeline: reads the candidate tags (resident by
    /// now if stage 1 ran a window earlier) and hints the CPU to fetch the
    /// key word and the payload of only the ways whose tag matches `key`'s
    /// fingerprint — about one line pair for a resident key, none for an
    /// absent one.  Like stage 1 a hint: the operation itself probes the
    /// tags again, so whatever an earlier operation of the window did to
    /// these slots in between changes nothing it computes.
    fn prefetch_matching<const N: usize>(&self, key: u64, indices: &[usize; N]) {
        let (mut candidates, _) = self.way_masks::<N, true, false>(fingerprint(key), indices);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            prefetch_slice_element(&self.keys, slot);
            prefetch_slice_element(&self.values, slot);
            candidates &= candidates - 1;
        }
    }

    /// Stages 1 and 2 for one window of at most [`PIPELINE_DEPTH`] keys:
    /// hashes each key **once** into its row of `indices` while prefetching
    /// its candidate tags, then prefetches the key and payload lines the
    /// tags point at.  The caller runs stage 3 — the operations themselves,
    /// in order, through the `_prehashed` entry points — over the same rows.
    fn stage_window<const N: usize>(
        &self,
        keys: impl Iterator<Item = u64> + Clone,
        indices: &mut [[usize; N]; PIPELINE_DEPTH],
    ) {
        for (key, key_indices) in keys.clone().zip(indices.iter_mut()) {
            self.hash_into(key, key_indices);
            self.prefetch_tags(key_indices);
        }
        for (key, key_indices) in keys.zip(indices.iter()) {
            self.prefetch_matching(key, key_indices);
        }
    }

    /// Inserts `key` with `value`, displacing existing entries as needed.
    ///
    /// If `key` is already present its payload is replaced and the insertion
    /// counts one attempt.  When the attempt budget is exhausted the most
    /// recently displaced entry is discarded and returned in
    /// [`InsertOutcome::discarded`]; `key` itself is always stored.
    pub fn insert(&mut self, key: u64, value: V) -> InsertOutcome<V> {
        ways_dispatch!(self.ways, N => self.insert_prehashed(key, value, &mut self.hashed::<N>(key)))
    }

    /// The insertion body, with `indices[..ways]` already holding `key`'s
    /// candidate set indices.  The lookup that precedes every insertion and
    /// the vacancy scan share one fused probe over those indices.
    fn insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        if let Some(slot) = probe.hit {
            // SAFETY: `probe` only reports occupied slots as hits.
            unsafe { self.values[slot].assume_init_drop() };
            self.values[slot].write(value);
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        // Vacant candidate revealed by the lookup: first-attempt success.
        if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, value);
            self.valid += 1;
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        match self.policy {
            InsertPolicy::Greedy => self.displace(key, value, indices),
            InsertPolicy::Bfs => self.displace_bfs(key, value, indices),
        }
    }

    /// The displacement chain: the in-flight entry looks for a home, kicking
    /// out victims round-robin starting at the way where the previous chain
    /// stopped.  `indices` holds the in-flight entry's candidate indices on
    /// entry and is reused as the scratch buffer for each victim — every
    /// victim is hashed exactly once, covering both its vacancy probe and
    /// its next displacement target.
    fn displace<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let mut attempts: u32 = 1;
        let mut current_key = key;
        let mut current_value = value;
        let mut way = self.next_start_way;
        self.valid += 1; // `key` will end up stored; track it now.
        loop {
            if attempts >= self.max_attempts {
                // Budget exhausted: discard the most recently displaced
                // entry to guarantee termination.  The incoming request is
                // never the one discarded — if the chain circled back to it,
                // perform one final displacement so the requested block stays
                // tracked and the displaced victim is invalidated instead.
                self.next_start_way = way;
                self.valid -= 1;
                if current_key == key {
                    let slot = way * self.sets + indices[way];
                    let victim = self.swap_slot(slot, current_key, current_value);
                    self.record_chain(attempts);
                    return InsertOutcome {
                        attempts,
                        discarded: Some(victim),
                    };
                }
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: Some((current_key, current_value)),
                };
            }

            // Write the in-flight entry into its candidate slot in `way`,
            // displacing whatever lives there.
            let slot = way * self.sets + indices[way];
            let victim_tag = self.tag_at(self.tag_pos(way, indices[way]));
            let (victim_key, victim_value) = self.swap_slot(slot, current_key, current_value);
            attempts += 1;

            // Probe the victim's candidate slots for a vacancy; its indices
            // stay in the scratch buffer for the next round.  With the
            // tagalt family the victim's complete candidate set derives
            // from its coordinates and tag alone — bit-identical to
            // re-hashing its key (an occupied tag *is* the fingerprint),
            // but without touching the key array.
            if let Some(family) = self.hashes.tag_alt() {
                let from = indices[way];
                family.derive_all_into(way, from, victim_tag, &mut indices[..self.ways_of::<N>()]);
            } else {
                self.hash_into(victim_key, indices);
            }
            if let Some(vacant) = self.first_vacant_prehashed(indices) {
                self.fill_slot(vacant, victim_key, victim_value);
                self.next_start_way = way;
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: None,
                };
            }

            // No vacancy: the victim becomes the in-flight entry and we move
            // on to the next way.
            current_key = victim_key;
            current_value = victim_value;
            way = (way + 1) % self.ways_of::<N>();
        }
    }

    /// BFS shortest-displacement-path insertion (see the module docs).
    /// `indices` holds the incoming key's candidate set indices — all
    /// occupied when this runs — and is left untouched so the discard
    /// fallback can reuse them.
    fn displace_bfs<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let mut scratch = self
            .bfs
            .take()
            .expect("the BFS policy preallocates its scratch arena");
        let found = self.bfs_search(&mut scratch, indices);
        let outcome = match found {
            Some((leaf, vacant)) => {
                // Apply the path deepest-first: each hop moves a path node's
                // occupant into the vacancy opened by the previous hop,
                // finally vacating one of `key`'s own candidate slots.
                let mut dest = vacant;
                let mut node = leaf;
                let mut moves = 0u32;
                loop {
                    let BfsNode { slot, parent } = scratch.nodes[node as usize];
                    self.move_slot(slot as usize, dest);
                    moves += 1;
                    dest = slot as usize;
                    if parent == u32::MAX {
                        break;
                    }
                    node = parent;
                }
                self.fill_slot(dest, key, value);
                self.valid += 1;
                self.record_bfs_depth(moves);
                InsertOutcome {
                    attempts: moves + 1,
                    discarded: None,
                }
            }
            None => {
                // No path within the budgeted depth (or the arena filled):
                // the shared discard rule — one final displacement into the
                // round-robin candidate way keeps the requested block
                // tracked, and the displaced victim is reported for
                // invalidation.
                let way = self.next_start_way;
                let slot = way * self.sets + indices[way];
                let victim = self.swap_slot(slot, key, value);
                self.next_start_way = (way + 1) % self.ways;
                // The failed search's discard displaces exactly one entry;
                // it lands in the chain distribution, not the BFS one, so
                // `bfs_path_depth` stays the distribution of *successful*
                // shortest paths.
                self.record_chain(1);
                InsertOutcome {
                    attempts: self.max_attempts,
                    discarded: Some(victim),
                }
            }
        };
        scratch.reset();
        self.bfs = Some(scratch);
        outcome
    }

    /// The search half of the BFS kernel: expands the frontier from `key`'s
    /// candidate slots (all occupied) until some frontier victim has a
    /// vacant alternate.  Returns that victim's arena position plus the
    /// vacant slot; the move path is recovered by walking parent links.
    /// Leaves the arena populated for the caller, who resets it after
    /// applying the path.
    ///
    /// A node at depth `D` (roots are depth 1) yields a path of `D` moves
    /// costing `D + 1` attempts, so only nodes at depth
    /// `<= max_attempts - 1` are expanded — the budget greedy would spend
    /// on its chain bounds the search depth here.
    fn bfs_search<const N: usize>(
        &self,
        scratch: &mut BfsScratch,
        indices: &[usize; N],
    ) -> Option<(u32, usize)> {
        debug_assert!(scratch.nodes.is_empty());
        let ways = self.ways_of::<N>();
        let max_depth = (self.max_attempts - 1) as usize;
        if max_depth == 0 {
            return None;
        }
        for (way, &index) in indices.iter().enumerate().take(ways) {
            let slot = way * self.sets + index;
            if scratch.visit(slot) {
                scratch.nodes.push(BfsNode {
                    slot: slot as u32,
                    parent: u32::MAX,
                });
            }
        }
        let mut cand = [0usize; N];
        let mut head = 0usize;
        let mut level_end = scratch.nodes.len();
        let mut depth = 1usize;
        while head < scratch.nodes.len() {
            if head == level_end {
                depth += 1;
                level_end = scratch.nodes.len();
                if depth > max_depth {
                    // Unreachable in practice: children are only enqueued
                    // while their depth stays expandable.  Kept as a guard.
                    return None;
                }
            }
            let node_slot = scratch.nodes[head].slot as usize;
            let (way, index) = (node_slot / self.sets, node_slot % self.sets);
            // The victim's complete candidate set derives from its
            // coordinates and tag alone with the tagalt family (an occupied
            // tag *is* the fingerprint — same identity the greedy chain
            // uses); other families re-hash its key.
            if let Some(family) = self.hashes.tag_alt() {
                let tag = self.tag_at(self.tag_pos(way, index));
                family.derive_all_into(way, index, tag, &mut cand[..ways]);
            } else {
                self.hash_into(self.key_at(node_slot), &mut cand);
            }
            if let Some(vacant) = self.first_vacant_prehashed(&cand) {
                return Some((head as u32, vacant));
            }
            if depth < max_depth {
                for (w, &set_index) in cand.iter().enumerate().take(ways) {
                    if scratch.nodes.len() == BFS_ARENA {
                        break;
                    }
                    let child = w * self.sets + set_index;
                    if scratch.visit(child) {
                        scratch.nodes.push(BfsNode {
                            slot: child as u32,
                            parent: head as u32,
                        });
                    }
                }
            }
            head += 1;
        }
        None
    }

    /// Looks `key` up and, when absent, inserts `make()` via the cuckoo
    /// displacement procedure — one fused probe covers the lookup-hit and
    /// vacancy scans.  `make` is only invoked when the key is actually
    /// inserted; an existing payload is left untouched (unlike
    /// [`CuckooTable::insert`], which replaces it).  The returned borrow
    /// always refers to the payload stored for `key`, which is guaranteed to
    /// be resident afterwards even when the insertion discarded a victim.
    pub fn find_or_insert_with(
        &mut self,
        key: u64,
        make: impl FnOnce() -> V,
    ) -> FindOrInsert<'_, V> {
        ways_dispatch!(self.ways, N => {
            self.find_or_insert_prehashed(key, &mut self.hashed::<N>(key), make)
        })
    }

    /// The body of [`CuckooTable::find_or_insert_with`], with
    /// `indices[..ways]` already holding `key`'s candidate set indices (the
    /// displacement chain reuses them as its scratch buffer).
    #[inline]
    pub(crate) fn find_or_insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        indices: &mut [usize; N],
        make: impl FnOnce() -> V,
    ) -> FindOrInsert<'_, V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        let (slot, inserted) = if let Some(slot) = probe.hit {
            (slot, None)
        } else if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, make());
            self.valid += 1;
            (
                slot,
                Some(InsertOutcome {
                    attempts: 1,
                    discarded: None,
                }),
            )
        } else {
            let outcome = match self.policy {
                InsertPolicy::Greedy => self.displace(key, make(), indices),
                InsertPolicy::Bfs => self.displace_bfs(key, make(), indices),
            };
            // The chain may have moved the new entry again before settling,
            // so its final slot needs one re-probe (rare path: all candidate
            // slots were occupied).
            let slot = self
                .find_n::<N>(key)
                .expect("insertion always stores the requested key");
            (slot, Some(outcome))
        };
        FindOrInsert {
            // SAFETY: both branches produce an occupied slot for `key`.
            value: unsafe { self.values[slot].assume_init_mut() },
            inserted,
        }
    }

    /// Looks up every key of `keys`, writing `true` into the corresponding
    /// element of `hits` when the key is present.  Keys are processed in
    /// windows of [`PIPELINE_DEPTH`] through the staged pipeline: a
    /// window's keys are hashed once and their candidate tags prefetched,
    /// then the key lines behind matching tags, then the window is probed —
    /// overlapping the cache misses of independent lookups.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `hits` is shorter than `keys`.
    pub fn probe_batch(&self, keys: &[u64], hits: &mut [bool]) {
        ways_dispatch!(self.ways, N => self.probe_batch_n::<N>(keys, hits));
    }

    fn probe_batch_n<const N: usize>(&self, keys: &[u64], hits: &mut [bool]) {
        assert!(
            hits.len() >= keys.len(),
            "hit buffer of {} entries cannot hold {} lookups",
            hits.len(),
            keys.len()
        );
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        for (keys, hits) in keys
            .chunks(PIPELINE_DEPTH)
            .zip(hits.chunks_mut(PIPELINE_DEPTH))
        {
            self.stage_window(keys.iter().copied(), &mut indices);
            for ((key, hit), key_indices) in keys.iter().zip(hits).zip(&indices) {
                *hit = self.probe_hit_prehashed(*key, key_indices).is_some();
            }
        }
    }

    /// The mutating driver of the staged pipeline: for each window of
    /// [`PIPELINE_DEPTH`] items out of `len`, stages the keys `key_of`
    /// reports ([`CuckooTable::stage_window`]), then calls
    /// `apply(table, item, indices)` for each item in order with the indices
    /// its key hashed to.  The caller picks `N` with [`ways_dispatch!`], so
    /// `apply` is compiled for the table's way count too.
    pub(crate) fn for_each_staged<const N: usize>(
        &mut self,
        len: usize,
        key_of: impl Fn(usize) -> u64,
        mut apply: impl FnMut(&mut Self, usize, &mut [usize; N]),
    ) {
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        let mut start = 0;
        while start < len {
            let end = (start + PIPELINE_DEPTH).min(len);
            self.stage_window((start..end).map(&key_of), &mut indices);
            for (item, key_indices) in (start..end).zip(indices.iter_mut()) {
                apply(self, item, key_indices);
            }
            start = end;
        }
    }

    /// Applies a batch of insertions in order, draining `entries` and
    /// appending one [`InsertOutcome`] per entry to `outcomes`.  Like
    /// [`CuckooTable::probe_batch`], the insertions run through the staged
    /// pipeline and each reuses its prehashed indices — identical outcomes
    /// to calling [`CuckooTable::insert`] in a loop, with the memory latency
    /// of independent operations overlapped.  Allocation-free once both
    /// vectors have reached their steady-state capacity.
    pub fn apply_batch(
        &mut self,
        entries: &mut Vec<(u64, V)>,
        outcomes: &mut Vec<InsertOutcome<V>>,
    ) {
        ways_dispatch!(self.ways, N => self.apply_batch_n::<N>(entries, outcomes));
    }

    fn apply_batch_n<const N: usize>(
        &mut self,
        entries: &mut Vec<(u64, V)>,
        outcomes: &mut Vec<InsertOutcome<V>>,
    ) {
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        let mut pending = entries.drain(..);
        while !pending.as_slice().is_empty() {
            let window = pending.as_slice().len().min(PIPELINE_DEPTH);
            let keys = pending.as_slice()[..window].iter().map(|entry| entry.0);
            self.stage_window(keys, &mut indices);
            for ((key, value), key_indices) in pending.by_ref().take(window).zip(&mut indices) {
                outcomes.push(self.insert_prehashed(key, value, key_indices));
            }
        }
    }

    /// Drains every resident entry into `target` through its batched
    /// insertion path ([`CuckooTable::apply_batch`]), leaving `self` empty —
    /// the migration primitive behind online live resize.
    ///
    /// Entries move in ascending slot order in fixed-size batches, so a
    /// migration between deterministic tables is itself deterministic.
    /// Returns the entries `target` discarded (attempt-budget expiry during
    /// re-insertion) — empty whenever `target` is provisioned at least as
    /// generously as `self`.
    pub fn migrate_into(&mut self, target: &mut CuckooTable<V>) -> Vec<(u64, V)> {
        const MIGRATE_BATCH: usize = 64;
        debug_assert_eq!(self.check_invariants(), Ok(()), "migration source");
        let mut entries: Vec<(u64, V)> = Vec::with_capacity(MIGRATE_BATCH);
        let mut outcomes: Vec<InsertOutcome<V>> = Vec::with_capacity(MIGRATE_BATCH);
        let mut discarded = Vec::new();
        for slot in 0..self.ways * self.sets {
            let pos = self.tag_pos_of_slot(slot);
            if self.tags[pos] == EMPTY_TAG {
                continue;
            }
            self.tags[pos] = EMPTY_TAG;
            self.valid -= 1;
            // SAFETY: the occupied tag guarantees an initialized payload,
            // and the tag is cleared above so it is never read again here.
            let value = unsafe { self.values[slot].assume_init_read() };
            entries.push((self.keys[slot], value));
            if entries.len() == MIGRATE_BATCH {
                target.apply_batch(&mut entries, &mut outcomes);
                discarded.extend(outcomes.drain(..).filter_map(|o| o.discarded));
            }
        }
        if !entries.is_empty() {
            target.apply_batch(&mut entries, &mut outcomes);
            discarded.extend(outcomes.drain(..).filter_map(|o| o.discarded));
        }
        debug_assert!(self.is_empty());
        debug_assert_eq!(target.check_invariants(), Ok(()), "migration target");
        discarded
    }

    /// Checks the table's structural invariants and describes the first one
    /// broken.  Walks every slot and hashes every stored key, so it belongs
    /// in tests and `debug_assert!`s (the migration boundary above), never
    /// on a request path.
    ///
    /// * On the line-local layout `tag_pos_of_slot` round-trips: a slot's
    ///   tag position is in bounds and maps back to that slot.
    /// * Every occupied slot's tag is its key's [`fingerprint`].
    /// * Every stored key sits in a candidate slot: at the index its own
    ///   way's hash gives it.
    /// * No key is stored twice: none of its other candidate slots holds it
    ///   too.
    /// * For the `tagalt` family, `alt_index` from a stored entry to any way
    ///   stays inside the table and leads back (an involution).
    /// * [`CuckooTable::len`] equals the number of occupied slots.
    ///
    /// # Errors
    ///
    /// The broken invariant, with the slot and key it was found at.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut indices = [0usize; MAX_FAMILY_WAYS];
        let mut occupied = 0usize;
        for slot in 0..self.capacity() {
            let (way, index) = (slot / self.sets, slot % self.sets);
            let pos = self.tag_pos_of_slot(slot);
            if pos >= self.tags.len() {
                return Err(format!("slot {slot}: tag position {pos} is out of bounds"));
            }
            if matches!(self.layout, TagLayout::LineLocal { .. })
                && (pos % self.ways) * self.sets + pos / self.ways != slot
            {
                return Err(format!(
                    "slot {slot}: line-local tag position {pos} does not map back to it"
                ));
            }
            let tag = self.tags[pos];
            if tag == EMPTY_TAG {
                continue;
            }
            occupied += 1;
            let key = self.keys[slot];
            if tag != fingerprint(key) {
                return Err(format!(
                    "slot {slot}: tag {tag:#04x} is not key {key:#x}'s fingerprint {:#04x}",
                    fingerprint(key)
                ));
            }
            self.hash_into(key, &mut indices);
            if indices[way] != index {
                return Err(format!(
                    "slot {slot}: key {key:#x} sits at index {index} of way {way}, \
                     whose hash sends it to {}",
                    indices[way]
                ));
            }
            for (other, &at) in indices.iter().enumerate().take(self.ways).skip(way + 1) {
                let twin = other * self.sets + at;
                if self.tags[self.tag_pos_of_slot(twin)] != EMPTY_TAG && self.keys[twin] == key {
                    return Err(format!(
                        "slot {slot}: key {key:#x} is stored again at slot {twin}"
                    ));
                }
            }
            if let Some(family) = self.hashes.tag_alt() {
                for to in 0..self.ways {
                    let alt = family.alt_index(way, index, tag, to);
                    if alt >= self.sets || family.alt_index(to, alt, tag, way) != index {
                        return Err(format!(
                            "slot {slot}: alt_index of tag {tag:#04x} from way {way} index \
                             {index} to way {to} gives {alt}, which does not lead back"
                        ));
                    }
                }
            }
        }
        if occupied != self.valid {
            return Err(format!(
                "len() is {} but {occupied} slots are occupied",
                self.valid
            ));
        }
        Ok(())
    }
}

impl<V: Clone> Clone for CuckooTable<V> {
    fn clone(&self) -> Self {
        let capacity = self.ways * self.sets;
        let mut values = self.values.uninit_like();
        for slot in 0..capacity {
            if self.tag_at(self.tag_pos_of_slot(slot)) != EMPTY_TAG {
                // SAFETY: occupied tags guarantee initialized payloads.
                values[slot].write(unsafe { self.values[slot].assume_init_ref() }.clone());
            }
        }
        CuckooTable {
            ways: self.ways,
            sets: self.sets,
            hashes: self.hashes.clone(),
            tags: self.tags.clone(),
            layout: self.layout,
            keys: self.keys.clone(),
            values,
            valid: self.valid,
            max_attempts: self.max_attempts,
            next_start_way: self.next_start_way,
            policy: self.policy,
            // The scratch holds no state between insertions; a clone gets a
            // fresh arena sized for the same capacity.
            bfs: self
                .bfs
                .as_ref()
                .map(|_| Box::new(BfsScratch::new(capacity))),
            metrics: self.metrics.clone(),
        }
    }
}

impl<V> Drop for CuckooTable<V> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<V>() {
            for slot in 0..self.ways * self.sets {
                if self.tag_at(self.tag_pos_of_slot(slot)) != EMPTY_TAG {
                    // SAFETY: occupied tags guarantee initialized payloads,
                    // each dropped exactly once here.
                    unsafe { self.values[slot].assume_init_drop() };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_reference::AosReferenceTable;
    use ccd_common::rng::{Rng64, SplitMix64};
    use std::collections::{BTreeMap, HashSet};

    fn filled_table(
        ways: usize,
        sets: usize,
        fill: usize,
        seed: u64,
    ) -> (CuckooTable<u64>, Vec<u64>) {
        let mut table = CuckooTable::new(ways, sets, HashKind::Strong, seed).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x55aa);
        let mut keys = Vec::new();
        while keys.len() < fill {
            let key = rng.next_u64() >> 8;
            if table.contains(key) {
                continue;
            }
            let outcome = table.insert(key, key * 2);
            keys.push(key);
            if let Some((lost, _)) = outcome.discarded {
                keys.retain(|&k| k != lost);
            }
        }
        (table, keys)
    }

    #[test]
    fn construction_validation() {
        assert!(CuckooTable::<()>::new(1, 64, HashKind::Strong, 0).is_err());
        assert!(CuckooTable::<()>::new(3, 100, HashKind::Strong, 0).is_err());
        assert!(CuckooTable::<()>::new(3, 128, HashKind::Strong, 0).is_ok());
        // A product that wraps (4 x 2^62 is 0 in release arithmetic) or
        // arrays that are no allocation: an error, never a zero-slot table
        // under the unchecked reads.
        for sets in [1usize << 56, 1 << 61, 1 << 62, 1 << 63] {
            for kind in [HashKind::Strong, HashKind::TagAlt] {
                let err = CuckooTable::<u64>::new(4, sets, kind, 0).unwrap_err();
                let what = "directory capacity";
                assert!(
                    matches!(err, ConfigError::TooLarge { what: w, .. } if w == what),
                    "4x{sets} {kind}: {err}"
                );
            }
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t: CuckooTable<String> = CuckooTable::new(2, 64, HashKind::Strong, 3).unwrap();
        assert!(t.is_empty());
        let o = t.insert(10, "ten".to_string());
        assert_eq!(o.attempts, 1);
        assert!(o.succeeded());
        assert_eq!(t.get(10), Some(&"ten".to_string()));
        *t.get_mut(10).unwrap() = "TEN".to_string();
        assert_eq!(t.get(10), Some(&"TEN".to_string()));

        // Re-inserting an existing key replaces its payload.
        let o = t.insert(10, "x".to_string());
        assert_eq!(o.attempts, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(10), Some(&"x".to_string()));

        assert_eq!(t.remove(10), Some("x".to_string()));
        assert_eq!(t.remove(10), None);
        assert!(t.is_empty());
        assert_eq!(t.get(99), None);
    }

    #[test]
    fn depth_metrics_observe_without_perturbing() {
        // Contract #11: the armed table computes byte-for-byte what the
        // unarmed table computes, while its distributions fill in.
        let mut armed: CuckooTable<u64> = CuckooTable::new(2, 64, HashKind::Strong, 9).unwrap();
        let mut plain: CuckooTable<u64> = CuckooTable::new(2, 64, HashKind::Strong, 9).unwrap();
        armed.arm_depth_metrics(2);
        assert!(plain.depth_metrics().is_none());

        let mut rng = SplitMix64::new(0xD1);
        let mut inserts = 0u64;
        for _ in 0..96 {
            let key = rng.next_u64() >> 8;
            let a = armed.insert(key, key);
            let b = plain.insert(key, key);
            assert_eq!(a.attempts, b.attempts);
            assert_eq!(a.discarded, b.discarded);
            inserts += 1;
        }
        assert_eq!(armed.len(), plain.len());
        for (key, value) in plain.iter() {
            assert_eq!(armed.get(key), Some(value));
        }

        let metrics = armed.depth_metrics().unwrap();
        assert_eq!(metrics.probe_depth.count(), inserts);
        assert!(metrics.probe_depth.max().unwrap() <= 2);
        // A 2-way table filled past half occupancy must have displaced.
        assert!(metrics.displacement_chain.count() > 0);
        assert_eq!(metrics.bfs_path_depth.count(), 0);

        // Clones carry the recorded distributions; taking them disarms.
        let cloned = armed.clone();
        assert_eq!(cloned.depth_metrics(), armed.depth_metrics());
        assert!(armed.take_depth_metrics().is_some());
        assert!(armed.depth_metrics().is_none());
    }

    #[test]
    fn depth_metrics_record_bfs_paths_under_the_bfs_policy() {
        let mut table: CuckooTable<()> = CuckooTable::new(2, 32, HashKind::Strong, 5).unwrap();
        table.set_insert_policy(InsertPolicy::Bfs);
        table.arm_depth_metrics(2);
        let mut rng = SplitMix64::new(0xB5);
        while table.depth_metrics().unwrap().bfs_path_depth.count() == 0 {
            table.insert(rng.next_u64() >> 8, ());
        }
        let metrics = table.depth_metrics().unwrap();
        assert!(metrics.bfs_path_depth.min().unwrap() >= 1);
        assert_eq!(metrics.probe_depth.count() as usize, {
            // Every insertion-path probe was recorded, hit or miss.
            metrics.probe_depth.iter().map(|(_, n)| n as usize).sum()
        });
    }

    #[test]
    fn all_inserted_keys_are_retrievable_at_half_occupancy() {
        let (table, keys) = filled_table(3, 1024, 1536, 7); // 50% of 3*1024
        assert_eq!(table.len(), keys.len());
        for &k in &keys {
            assert!(table.contains(k), "lost key {k:#x}");
            assert_eq!(table.get(k), Some(&(k * 2)));
        }
        // Iteration covers exactly the stored keys.
        let iterated: HashSet<u64> = table.iter().map(|(k, _)| k).collect();
        assert_eq!(iterated.len(), keys.len());
        for &k in &keys {
            assert!(iterated.contains(&k));
        }
    }

    #[test]
    fn half_occupancy_insertions_never_fail_for_3_ary_and_wider() {
        // The paper's headline claim (Section 5.1): at <= 50% occupancy,
        // 3-ary and wider cuckoo tables never fail an insertion and average
        // about two attempts or fewer.
        for ways in [3usize, 4, 8] {
            let sets = 4096 / ways.next_power_of_two();
            let sets = sets.next_power_of_two();
            let capacity = ways * sets;
            let target = capacity / 2;
            let mut table: CuckooTable<()> =
                CuckooTable::new(ways, sets, HashKind::Strong, 11).unwrap();
            let mut rng = SplitMix64::new(1234);
            let mut total_attempts = 0u64;
            let mut inserted = 0u64;
            while table.len() < target {
                let key = rng.next_u64() >> 8;
                if table.contains(key) {
                    continue;
                }
                let o = table.insert(key, ());
                assert!(
                    o.succeeded(),
                    "{ways}-ary failed at occupancy {}",
                    table.occupancy()
                );
                total_attempts += u64::from(o.attempts);
                inserted += 1;
            }
            let avg = total_attempts as f64 / inserted as f64;
            assert!(avg < 2.0, "{ways}-ary average attempts {avg} too high");
        }
    }

    #[test]
    fn two_ary_tables_fail_at_high_occupancy() {
        // 2-ary cuckoo hashing cannot reach high occupancy: pushing far past
        // 50% must eventually discard entries (Figure 7, 2-ary curve).
        let mut table: CuckooTable<()> = CuckooTable::new(2, 256, HashKind::Strong, 5).unwrap();
        let mut rng = SplitMix64::new(99);
        let mut failures = 0;
        for _ in 0..table.capacity() {
            let key = rng.next_u64() >> 8;
            if table.contains(key) {
                continue;
            }
            if !table.insert(key, ()).succeeded() {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "2-ary table should overflow when driven to 100% load"
        );
    }

    #[test]
    fn attempt_budget_is_respected_and_discard_reported() {
        let mut table: CuckooTable<u32> = CuckooTable::new(2, 2, HashKind::Strong, 17).unwrap();
        table.set_max_attempts(4);
        let mut discarded = Vec::new();
        let mut rng = SplitMix64::new(3);
        for i in 0..64u32 {
            let key = rng.next_u64() >> 8;
            let o = table.insert(key, i);
            assert!(o.attempts <= 4);
            if let Some((k, _)) = o.discarded {
                discarded.push(k);
            }
        }
        assert!(
            !discarded.is_empty(),
            "a 4-entry table driven with 64 keys must discard"
        );
        // Table never exceeds its capacity and its length is consistent.
        assert!(table.len() <= table.capacity());
        assert_eq!(table.iter().count(), table.len());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_attempt_budget_is_rejected() {
        let mut table: CuckooTable<()> = CuckooTable::new(2, 4, HashKind::Strong, 0).unwrap();
        table.set_max_attempts(0);
    }

    #[test]
    fn displacement_preserves_all_entries() {
        // Drive a small table to 80% occupancy with 4 ways and verify no
        // entry silently disappears (every non-discarded key remains
        // retrievable even after long displacement chains).
        let (table, keys) = filled_table(4, 64, 204, 21); // ~80% of 256
        for &k in &keys {
            assert!(table.contains(k), "key {k:#x} lost during displacement");
        }
        assert_eq!(table.len(), keys.len());
    }

    #[test]
    fn occupancy_reports_fraction_of_capacity() {
        let mut t: CuckooTable<()> = CuckooTable::new(4, 64, HashKind::Strong, 1).unwrap();
        assert_eq!(t.occupancy(), 0.0);
        let mut rng = SplitMix64::new(8);
        for _ in 0..64 {
            t.insert(rng.next_u64() >> 8, ());
        }
        assert!((t.occupancy() - 0.25).abs() < 0.01);
    }

    // ---- SoA-layout specific tests ----------------------------------------

    #[test]
    fn swar_match_finds_exactly_the_equal_bytes() {
        // One lane per byte: bit 7 of the matching lane is set.
        let word = u64::from_le_bytes([0x81, 0x00, 0x93, 0x81, 0x00, 0xFF, 0x7F, 0x01]);
        let m = swar_match(word, 0x81);
        assert_eq!(m & (1 << 7), 1 << 7, "lane 0 matches");
        assert_eq!(m & (1 << 31), 1 << 31, "lane 3 matches");
        assert_eq!(m & (1 << 15), 0, "empty lane does not match a fingerprint");
        assert_eq!(m & (1 << 23), 0, "different tag does not match");

        // Vacancy scan is exact for the tag alphabet used by the table
        // (0x00 or >= 0x80): only the two empty lanes match.
        let tags = u64::from_le_bytes([0x81, 0x00, 0x93, 0xFF, 0x00, 0x80, 0xA5, 0xC3]);
        let empties = swar_match(tags, EMPTY_TAG);
        assert_eq!(empties, (1 << 15) | (1 << 39));
    }

    /// The loops `fold_lanes` replaced: one iteration a set lane.
    fn fold_by_loop(mut lanes: u64, way: usize) -> u64 {
        let mut mask = 0u64;
        while lanes != 0 {
            mask |= 1 << (way + (lanes.trailing_zeros() / 8) as usize);
            lanes &= lanes - 1;
        }
        mask
    }

    #[test]
    fn lane_fold_equals_the_loop_it_replaced() {
        for pattern in 0..256u64 {
            // Bit 7 of lane `j` is bit `j` of `pattern`.
            let word = (0..8).fold(0u64, |w, j| w | ((pattern >> j) & 1) << (8 * j + 7));
            for way in [0, 8] {
                for lanes in 1..=8 {
                    // The vacancy scan's clip of a partial chunk's padding.
                    let clipped = word & CuckooTable::<()>::lane_mask(lanes);
                    assert_eq!(fold_lanes(clipped), pattern & ((1 << lanes) - 1));
                    assert_eq!(
                        fold_lanes(clipped) << way,
                        fold_by_loop(clipped, way),
                        "pattern {pattern:#010b}, way {way}, {lanes} lanes"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprints_are_never_the_empty_tag() {
        let mut rng = SplitMix64::new(0xF1);
        // Reduced under Miri, which interprets a few orders of magnitude
        // slower; the property is per-sample, not statistical.
        let samples = if cfg!(miri) { 500 } else { 10_000 };
        for _ in 0..samples {
            let fp = fingerprint(rng.next_u64());
            assert!(fp >= 0x80, "fingerprint {fp:#x} must have the high bit set");
        }
    }

    #[test]
    fn find_or_insert_only_builds_payloads_for_new_keys() {
        let mut t: CuckooTable<Vec<u32>> = CuckooTable::new(4, 64, HashKind::Strong, 9).unwrap();
        let r = t.find_or_insert_with(42, || vec![1]);
        assert!(r.inserted.is_some());
        r.value.push(2);
        // Second call must not invoke `make` and must see the mutation.
        let r = t.find_or_insert_with(42, || panic!("payload must not be rebuilt"));
        assert!(r.inserted.is_none());
        assert_eq!(r.value, &vec![1, 2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn find_or_insert_reports_the_displacement_outcome() {
        // A full 2x2 table with a 2-attempt budget: inserting an absent key
        // must displace and discard, yet the new key stays retrievable and
        // the borrow points at its payload.
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 2, HashKind::Strong, 17).unwrap();
        t.set_max_attempts(2);
        let mut rng = SplitMix64::new(5);
        while t.len() < t.capacity() {
            let key = rng.next_u64() >> 8;
            t.insert(key, key);
        }
        let mut fresh = rng.next_u64() >> 8;
        while t.contains(fresh) {
            fresh = rng.next_u64() >> 8;
        }
        let r = t.find_or_insert_with(fresh, || fresh);
        let outcome = r.inserted.expect("key was absent");
        assert_eq!(*r.value, fresh);
        assert!(outcome.discarded.is_some(), "full table must discard");
        assert!(t.contains(fresh));
        assert_eq!(t.len(), t.capacity());
    }

    #[test]
    fn probe_batch_agrees_with_contains() {
        let (table, keys) = filled_table(4, 256, 512, 31);
        let mut rng = SplitMix64::new(77);
        let queries: Vec<u64> = keys
            .iter()
            .copied()
            .take(100)
            .chain((0..100).map(|_| rng.next_u64() >> 8))
            .collect();
        let mut hits = vec![false; queries.len()];
        table.probe_batch(&queries, &mut hits);
        for (query, hit) in queries.iter().zip(&hits) {
            assert_eq!(*hit, table.contains(*query), "key {query:#x}");
        }
    }

    #[test]
    fn apply_batch_matches_sequential_inserts_exactly() {
        let mut rng = SplitMix64::new(0xBA7C);
        let entries: Vec<(u64, u64)> = (0..600)
            .map(|_| rng.next_u64() >> 40)
            .map(|k| (k, k))
            .collect();

        let mut sequential: CuckooTable<u64> =
            CuckooTable::new(3, 64, HashKind::Strong, 2).unwrap();
        sequential.set_max_attempts(8);
        let expected: Vec<InsertOutcome<u64>> = entries
            .iter()
            .map(|&(k, v)| sequential.insert(k, v))
            .collect();

        let mut batched: CuckooTable<u64> = CuckooTable::new(3, 64, HashKind::Strong, 2).unwrap();
        batched.set_max_attempts(8);
        let mut buffer = entries.clone();
        let mut outcomes = Vec::new();
        batched.apply_batch(&mut buffer, &mut outcomes);
        assert!(buffer.is_empty(), "apply_batch drains its input");
        assert_eq!(outcomes, expected, "batched outcomes must be identical");
        assert_eq!(batched.len(), sequential.len());
        for (k, v) in sequential.iter() {
            assert_eq!(batched.get(k), Some(v));
        }
    }

    #[test]
    fn wide_tables_probe_through_the_chunked_swar_path() {
        // Past eight ways the gather runs in chunks: 8 + 1, 8 + 4 and 8 + 8
        // lanes, the second chunk's bits folded in at way 8.
        for ways in [9, 12, 16] {
            let (table, keys) = filled_table(ways, 64, ways * 32, 3);
            table.check_invariants().unwrap();
            for &k in &keys {
                assert!(table.contains(k), "{ways} ways");
                assert!(!table.contains(k ^ 1 << 60), "{ways} ways");
            }
            let mut hits = vec![false; keys.len()];
            table.probe_batch(&keys, &mut hits);
            assert!(hits.iter().all(|&h| h), "{ways} ways");
        }
    }

    // ---- Tag-layout specific tests ----------------------------------------

    fn is_line_local<V>(table: &CuckooTable<V>) -> bool {
        matches!(table.layout, TagLayout::LineLocal { .. })
    }

    fn contents(table: &CuckooTable<u64>) -> BTreeMap<u64, u64> {
        table.iter().map(|(k, &v)| (k, v)).collect()
    }

    thread_local! {
        /// [`Tracked`] payloads alive on this thread — libtest runs each test
        /// on a thread of its own, so tests do not see each other's.
        static LIVE: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    }

    fn live_payloads() -> i64 {
        LIVE.with(std::cell::Cell::get)
    }

    /// A payload that counts its constructions, clones and drops.
    struct Tracked(u64);

    impl Tracked {
        fn new(v: u64) -> Self {
            LIVE.with(|live| live.set(live.get() + 1));
            Tracked(v)
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(self.0)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.with(|live| live.set(live.get() - 1));
        }
    }

    #[test]
    fn layout_follows_the_hash_family_and_the_tag_span_bound() {
        // tagalt candidates share a 16-set block: four ways are exactly
        // MAX_TAG_SPAN tag bytes, five are past it.
        for ways in [2, 3, 4, 5, 8, 16] {
            let t: CuckooTable<()> = CuckooTable::new(ways, 64, HashKind::TagAlt, 1).unwrap();
            assert_eq!(is_line_local(&t), ways * 16 <= MAX_TAG_SPAN, "{ways} ways");
            // A clone keeps the layout, over a buffer of its own.
            assert_eq!(is_line_local(&t.clone()), is_line_local(&t), "{ways} ways");
            // Block 0 starts a cache line — the buffer's alignment, no skid
            // — and the tag array is exactly one byte a slot.
            assert_eq!(t.tags.as_ptr().addr() % MAX_TAG_SPAN, 0);
            assert_eq!(t.clone().tags.as_ptr().addr() % MAX_TAG_SPAN, 0);
            assert_eq!(t.tags.len(), t.capacity());
            if let TagLayout::LineLocal { block, .. } = t.layout {
                assert_eq!(block, 16);
            }
        }
        // Families without block-local candidates are planar at any width.
        for kind in HashKind::all() {
            for ways in [2, 4, 16] {
                let t: CuckooTable<()> = CuckooTable::new(ways, 64, kind, 1).unwrap();
                assert!(!is_line_local(&t), "{kind} {ways} ways");
            }
        }
    }

    #[test]
    fn both_layouts_match_the_seed_reference_on_the_same_op_stream() {
        // Drive the same saturating insert/remove stream through the table
        // and the seed's array-of-structs model for every hash kind at way
        // counts on both sides of the layout bound and of the 8-lane SWAR
        // chunk, and demand bit-identical outcomes (attempts, discards) and
        // contents.
        let mut line_local_runs = 0;
        for kind in HashKind::all().into_iter().chain([HashKind::TagAlt]) {
            for ways in [2usize, 3, 4, 8, 16] {
                let mut table: CuckooTable<u64> = CuckooTable::new(ways, 16, kind, 7).unwrap();
                table.set_max_attempts(6);
                let mut reference = AosReferenceTable::new(ways, 16, kind, 7, 6).unwrap();
                let line_local = kind == HashKind::TagAlt && ways <= 4;
                assert_eq!(is_line_local(&table), line_local, "{kind} {ways} ways");
                line_local_runs += usize::from(line_local);
                let mut rng = SplitMix64::new(0xD1CE);
                let keyspace = (ways * 16 * 3 / 2) as u64;
                let samples = if cfg!(miri) { 60 } else { 150 * ways };
                let mut discards = 0;
                for i in 0..samples {
                    let key = rng.next_below(keyspace) << 4 | 0x3;
                    let got = table.insert(key, key ^ i as u64);
                    let want = reference.insert(key, key ^ i as u64);
                    discards += usize::from(got.discarded.is_some());
                    assert_eq!(
                        (got.attempts, got.discarded),
                        want,
                        "{kind} {ways} ways diverged at insert {i}"
                    );
                    if i % 3 == 0 {
                        let doomed = rng.next_below(keyspace) << 4 | 0x3;
                        assert_eq!(
                            table.remove(doomed),
                            reference.remove(doomed),
                            "{kind} {ways} ways diverged at remove {i}"
                        );
                    }
                    assert_eq!(table.len(), reference.len(), "{kind} {ways} ways at {i}");
                }
                let want: BTreeMap<u64, u64> = reference.iter().map(|(k, &v)| (k, v)).collect();
                assert_eq!(contents(&table), want, "{kind} {ways} ways contents");
                if !cfg!(miri) {
                    assert!(discards > 0, "{kind} {ways} ways must exhaust a budget");
                }
            }
        }
        assert_eq!(line_local_runs, 3, "tagalt at 2, 3 and 4 ways");
    }

    #[test]
    fn line_local_layout_survives_clone_and_high_occupancy() {
        let mut t: CuckooTable<u64> = CuckooTable::new(4, 64, HashKind::TagAlt, 3).unwrap();
        let mut rng = SplitMix64::new(0x10C);
        let mut keys = Vec::new();
        // tagalt partitions the table into independent 4x16-slot blocks, so
        // drive by op count rather than to a global fill target.
        for _ in 0..400 {
            let key = rng.next_u64() >> 8;
            let o = t.insert(key, key ^ 1);
            keys.push(key);
            if let Some((lost, _)) = o.discarded {
                keys.retain(|&k| k != lost);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let cloned = t.clone();
        assert!(is_line_local(&t) && is_line_local(&cloned));
        for &k in &keys {
            assert!(t.contains(k), "lost key {k:#x}");
            assert_eq!(cloned.get(k), Some(&(k ^ 1)), "clone lost key {k:#x}");
        }
        assert_eq!(cloned.len(), t.len());
        assert!(t.occupancy() > 0.5, "stream must load the table");
    }

    #[test]
    fn clone_deep_copies_payloads_and_drop_is_balanced() {
        {
            let mut t: CuckooTable<Tracked> = CuckooTable::new(2, 4, HashKind::Strong, 1).unwrap();
            t.set_max_attempts(3);
            let mut rng = SplitMix64::new(4);
            for _ in 0..32 {
                let key = rng.next_u64() >> 8;
                // Exercises replace-on-existing, displacement and discard.
                let _ = t.insert(key, Tracked::new(key));
            }
            let live_before_clone = live_payloads();
            assert_eq!(live_before_clone, t.len() as i64);
            {
                let mut cloned = t.clone();
                assert_eq!(live_payloads(), 2 * live_before_clone);
                let (some_key, payload) = {
                    let (k, v) = cloned.iter().next().unwrap();
                    (k, v.0)
                };
                assert_eq!(payload, some_key);
                drop(cloned.remove(some_key));
            }
            // The clone and everything it held is gone; the original intact.
            assert_eq!(live_payloads(), live_before_clone);
            assert_eq!(t.iter().count(), t.len());
        }
        assert_eq!(live_payloads(), 0, "every payload dropped");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "the geometry is the point: 2^18 slots, too slow interpreted"
    )]
    fn tables_across_the_huge_page_line_match_the_seed_reference() {
        use ccd_common::pages::HUGE_PAGE_BYTES;
        // 4 x 2^16 sets is the smallest 4-way geometry on the far side of
        // the line: a 2 MiB key array and, with this 8-byte payload, a 2 MiB
        // payload array, over a 256 KiB tag array that stays below it.
        const SMALL: usize = 1 << 10;
        const LARGE: usize = 1 << 16;
        const BUDGET: u32 = 8;
        type Reference = AosReferenceTable<u64>;

        fn pair(sets: usize, seed: u64) -> (CuckooTable<Tracked>, Reference) {
            let mut table = CuckooTable::new(4, sets, HashKind::Strong, seed).unwrap();
            table.set_max_attempts(BUDGET);
            let reference = Reference::new(4, sets, HashKind::Strong, seed, BUDGET).unwrap();
            if sets == LARGE {
                assert!(table.keys.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
                assert!(table.values.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
            }
            (table, reference)
        }

        fn drive(
            table: &mut CuckooTable<Tracked>,
            reference: &mut Reference,
            rng: &mut SplitMix64,
            ops: u64,
            keyspace: u64,
        ) {
            for i in 0..ops {
                let key = rng.next_below(keyspace) << 4 | 0x5;
                let got = table.insert(key, Tracked::new(key ^ i));
                let got = (got.attempts, got.discarded.map(|(k, v)| (k, v.0)));
                assert_eq!(got, reference.insert(key, key ^ i), "insert {i}");
                if i % 3 == 0 {
                    let doomed = rng.next_below(keyspace) << 4 | 0x5;
                    let got = table.remove(doomed).map(|v| v.0);
                    assert_eq!(got, reference.remove(doomed), "remove {i}");
                }
            }
            in_step(table, reference);
        }

        /// Same entries, every payload accounted for.
        fn in_step(table: &CuckooTable<Tracked>, reference: &Reference) {
            assert_eq!(table.len(), reference.len());
            let got: BTreeMap<u64, u64> = table.iter().map(|(k, v)| (k, v.0)).collect();
            let want: BTreeMap<u64, u64> = reference.iter().map(|(k, &v)| (k, v)).collect();
            assert_eq!(got, want);
        }

        /// The live-resize primitive against re-inserting the reference's
        /// entries in the same ascending slot order.
        fn resize(
            from: (CuckooTable<Tracked>, Reference),
            to: &mut (CuckooTable<Tracked>, Reference),
        ) {
            let (mut table, reference) = from;
            let discarded: Vec<(u64, u64)> = table
                .migrate_into(&mut to.0)
                .into_iter()
                .map(|(k, v)| (k, v.0))
                .collect();
            let want: Vec<(u64, u64)> = reference
                .iter()
                .filter_map(|(k, &v)| to.1.insert(k, v).1)
                .collect();
            assert_eq!(discarded, want);
            assert!(table.is_empty());
            in_step(&to.0, &to.1);
        }

        {
            let mut rng = SplitMix64::new(0x2_0000);
            let mut small = pair(SMALL, 7);
            drive(&mut small.0, &mut small.1, &mut rng, 6000, 6000);
            assert!(small.0.occupancy() > 0.6, "the stream loads the table");

            // Below the line -> above it: nothing is lost growing 64x.
            let mut large = pair(LARGE, 8);
            let before = small.0.len();
            resize(small, &mut large);
            assert_eq!(large.0.len(), before);
            drive(&mut large.0, &mut large.1, &mut rng, 6000, 1 << 20);
            assert_eq!(live_payloads(), large.0.len() as i64);

            // Clone and Drop of a table whose arrays are huge-page buffers.
            {
                let mut cloned = large.0.clone();
                assert!(cloned.keys.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
                assert_eq!(live_payloads(), 2 * large.0.len() as i64);
                in_step(&cloned, &large.1);
                let (key, _) = cloned.iter().next().unwrap();
                drop(cloned.remove(key));
                assert!(large.0.contains(key), "the clone owns its own arrays");
            }
            assert_eq!(live_payloads(), large.0.len() as i64);

            // ... and back below it, into a table too small for everything.
            let mut shrunk = pair(SMALL, 9);
            let before = large.0.len();
            resize(large, &mut shrunk);
            assert!(shrunk.0.len() < before, "4096 slots cannot hold {before}");
            assert_eq!(live_payloads(), shrunk.0.len() as i64);
            drive(&mut shrunk.0, &mut shrunk.1, &mut rng, 2000, 6000);
            assert_eq!(live_payloads(), shrunk.0.len() as i64);
        }
        assert_eq!(live_payloads(), 0, "every payload dropped");
    }

    // ---- Insertion-policy and migration tests ------------------------------

    #[test]
    fn bfs_policy_round_trips_and_clones_with_its_scratch() {
        let mut t: CuckooTable<u64> = CuckooTable::new(4, 64, HashKind::Strong, 9).unwrap();
        assert_eq!(t.insert_policy(), InsertPolicy::Greedy);
        t.set_insert_policy(InsertPolicy::Bfs);
        assert_eq!(t.insert_policy(), InsertPolicy::Bfs);
        let mut rng = SplitMix64::new(0xB55);
        let mut keys = Vec::new();
        for _ in 0..200 {
            let key = rng.next_u64() >> 8;
            let o = t.insert(key, key + 1);
            keys.push(key);
            if let Some((lost, _)) = o.discarded {
                keys.retain(|&k| k != lost);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let cloned = t.clone();
        assert_eq!(cloned.insert_policy(), InsertPolicy::Bfs);
        for &k in &keys {
            assert_eq!(t.get(k), Some(&(k + 1)), "lost key {k:#x}");
            assert_eq!(cloned.get(k), Some(&(k + 1)), "clone lost key {k:#x}");
        }
        assert_eq!(cloned.len(), t.len());
    }

    #[test]
    fn bfs_and_greedy_store_the_same_keys_until_a_discard() {
        // Until a budget actually expires both policies accept every key, so
        // the resident key sets must be identical (placements may differ).
        for kind in [HashKind::Strong, HashKind::TagAlt] {
            let mut greedy: CuckooTable<u64> = CuckooTable::new(4, 64, kind, 13).unwrap();
            let mut bfs: CuckooTable<u64> = CuckooTable::new(4, 64, kind, 13).unwrap();
            bfs.set_insert_policy(InsertPolicy::Bfs);
            let mut rng = SplitMix64::new(0xABCD);
            let samples = if cfg!(miri) { 60 } else { 400 };
            let mut discard_free = 0u32;
            for i in 0..samples {
                let key = rng.next_u64() >> 8;
                let og = greedy.insert(key, key);
                let ob = bfs.insert(key, key);
                if og.discarded.is_some() || ob.discarded.is_some() {
                    // Once either budget expires the discards (and thus the
                    // key sets) may legitimately differ.
                    break;
                }
                discard_free = i + 1;
                assert_eq!(greedy.len(), bfs.len(), "{kind} diverged at insert {i}");
                assert!(greedy.contains(key) && bfs.contains(key));
                let reference: HashSet<u64> = greedy.iter().map(|(k, _)| k).collect();
                let contents: HashSet<u64> = bfs.iter().map(|(k, _)| k).collect();
                assert_eq!(contents, reference, "{kind} key sets diverged at {i}");
            }
            assert!(
                discard_free > 100,
                "{kind}: stream must exercise real displacement before discarding"
            );
        }
    }

    #[test]
    fn bfs_falls_back_to_the_shared_discard_rule() {
        // A saturated 2x2 table with a 2-attempt budget: BFS cannot find a
        // path once every slot is full, so the discard rule must fire and
        // keep the requested key resident.
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 2, HashKind::Strong, 17).unwrap();
        t.set_max_attempts(2);
        t.set_insert_policy(InsertPolicy::Bfs);
        let mut rng = SplitMix64::new(5);
        let mut saw_discard = false;
        for _ in 0..64 {
            let key = rng.next_u64() >> 8;
            let o = t.insert(key, key);
            assert!(o.attempts <= 2);
            if let Some((victim, _)) = o.discarded {
                saw_discard = true;
                assert_ne!(victim, key, "the requested key is never discarded");
                assert!(t.contains(key), "requested block must stay tracked");
                assert!(!t.contains(victim));
            }
            assert!(t.len() <= t.capacity());
        }
        assert!(saw_discard, "a 4-entry table driven with 64 keys discards");
        assert_eq!(t.iter().count(), t.len());
    }

    #[test]
    fn bfs_attempts_never_exceed_the_budget() {
        let mut t: CuckooTable<()> = CuckooTable::new(4, 16, HashKind::TagAlt, 23).unwrap();
        t.set_max_attempts(6);
        t.set_insert_policy(InsertPolicy::Bfs);
        let mut rng = SplitMix64::new(0x6A);
        for _ in 0..400 {
            let o = t.insert(rng.next_u64() >> 8, ());
            assert!((1..=6).contains(&o.attempts));
            if o.discarded.is_some() {
                assert_eq!(o.attempts, 6, "a discard always reports max attempts");
            }
        }
    }

    #[test]
    fn check_invariants_names_corrupted_tags_keys_and_counts() {
        for kind in [HashKind::Strong, HashKind::TagAlt] {
            let mut table: CuckooTable<u64> = CuckooTable::new(4, 64, kind, 5).unwrap();
            assert_eq!(table.check_invariants(), Ok(()), "an empty table");
            for key in 0..150u64 {
                table.insert(key * 7919, key);
            }
            assert_eq!(table.check_invariants(), Ok(()));
            let slot = (0..table.capacity())
                .find(|&slot| table.tags[table.tag_pos_of_slot(slot)] != EMPTY_TAG)
                .unwrap();
            let pos = table.tag_pos_of_slot(slot);

            table.tags[pos] ^= 1;
            let why = table.check_invariants().unwrap_err();
            assert!(why.contains("fingerprint"), "{kind}: {why}");
            table.tags[pos] ^= 1;

            // A key with the same fingerprint that hashes elsewhere.
            let resident = table.keys[slot];
            let mut indices = [0usize; MAX_FAMILY_WAYS];
            let stray = (1u64 << 40..)
                .find(|&key| {
                    table.hash_into(key, &mut indices);
                    fingerprint(key) == fingerprint(resident)
                        && indices[slot / table.sets] != slot % table.sets
                })
                .unwrap();
            table.keys[slot] = stray;
            let why = table.check_invariants().unwrap_err();
            assert!(why.contains("whose hash sends it to"), "{kind}: {why}");
            table.keys[slot] = resident;

            // A second copy of a resident key in a vacant candidate slot of
            // a later way (counted, so only the duplicate is wrong).
            let (slot, twin) = (0..table.capacity())
                .filter(|&slot| table.tags[table.tag_pos_of_slot(slot)] != EMPTY_TAG)
                .find_map(|slot| {
                    table.hash_into(table.keys[slot], &mut indices);
                    (slot / table.sets + 1..table.ways)
                        .map(|way| way * table.sets + indices[way])
                        .find(|&twin| table.tags[table.tag_pos_of_slot(twin)] == EMPTY_TAG)
                        .map(|twin| (slot, twin))
                })
                .unwrap();
            let twin_pos = table.tag_pos_of_slot(twin);
            table.tags[twin_pos] = fingerprint(table.keys[slot]);
            table.keys[twin] = table.keys[slot];
            table.valid += 1;
            let why = table.check_invariants().unwrap_err();
            assert!(why.contains("is stored again at slot"), "{kind}: {why}");
            table.tags[twin_pos] = EMPTY_TAG;
            table.valid -= 1;

            table.valid += 1;
            let why = table.check_invariants().unwrap_err();
            assert!(why.contains("slots are occupied"), "{kind}: {why}");
            table.valid -= 1;
            assert_eq!(table.check_invariants(), Ok(()));
        }
    }

    #[test]
    fn migrate_into_preserves_contents_and_empties_the_source() {
        let (mut source, keys) = filled_table(4, 64, 200, 41);
        let mut target: CuckooTable<u64> = CuckooTable::new(4, 128, HashKind::TagAlt, 42).unwrap();
        let discarded = source.migrate_into(&mut target);
        assert!(discarded.is_empty(), "a 2x-larger target never discards");
        assert!(source.is_empty());
        assert_eq!(target.len(), keys.len());
        for &k in &keys {
            assert_eq!(target.get(k), Some(&(k * 2)), "migration lost {k:#x}");
        }
    }

    #[test]
    fn migrate_into_crosses_the_layout_bound_in_both_directions() {
        // A re-way between 4 and 8 tagalt ways moves every entry from one
        // tag layout to the other; nothing but the placement may change.
        for (from_ways, to_ways) in [(4usize, 8usize), (8, 4)] {
            for policy in [InsertPolicy::Greedy, InsertPolicy::Bfs] {
                for armed in [false, true] {
                    let case = format!("{from_ways}->{to_ways} {policy} armed={armed}");
                    let mut source: CuckooTable<u64> =
                        CuckooTable::new(from_ways, 64, HashKind::TagAlt, 51).unwrap();
                    let mut target: CuckooTable<u64> =
                        CuckooTable::new(to_ways, 64, HashKind::TagAlt, 52).unwrap();
                    assert_ne!(is_line_local(&source), is_line_local(&target), "{case}");
                    for table in [&mut source, &mut target] {
                        table.set_insert_policy(policy);
                        if armed {
                            table.arm_depth_metrics(2);
                        }
                    }
                    let mut rng = SplitMix64::new(0x3167);
                    for _ in 0..100 {
                        let key = rng.next_u64() >> 8;
                        assert!(source.insert(key, key ^ 5).succeeded(), "{case}");
                    }
                    let snapshot = source.clone();
                    assert_eq!(contents(&snapshot), contents(&source), "{case}");
                    assert_eq!(snapshot.depth_metrics(), source.depth_metrics(), "{case}");

                    assert!(source.migrate_into(&mut target).is_empty(), "{case}");
                    assert!(source.is_empty(), "{case}");
                    assert_eq!(source.depth_metrics(), snapshot.depth_metrics(), "{case}");
                    assert_eq!(target.len(), snapshot.len(), "{case}");
                    assert_eq!(contents(&target), contents(&snapshot), "{case}");
                    assert_eq!(target.insert_policy(), policy, "{case}");
                    assert_eq!(target.depth_metrics().is_some(), armed, "{case}");
                    let cloned = target.clone();
                    assert_eq!(contents(&cloned), contents(&target), "{case}");
                    assert_eq!(cloned.depth_metrics(), target.depth_metrics(), "{case}");
                }
            }
        }
    }

    #[test]
    fn migrate_into_reports_discards_from_an_undersized_target() {
        let (mut source, keys) = filled_table(4, 64, 200, 43);
        let mut target: CuckooTable<u64> = CuckooTable::new(2, 16, HashKind::Strong, 44).unwrap();
        target.set_max_attempts(4);
        let discarded = source.migrate_into(&mut target);
        assert!(source.is_empty());
        assert!(
            !discarded.is_empty(),
            "200 entries cannot fit a 32-slot target"
        );
        assert_eq!(target.len() + discarded.len(), keys.len());
        for &(k, v) in &discarded {
            assert_eq!(v, k * 2, "discards carry their payloads");
            assert!(!target.contains(k));
        }
    }

    #[test]
    fn migrate_into_is_deterministic() {
        let (mut a, _) = filled_table(4, 64, 200, 45);
        let mut b = a.clone();
        let mut ta: CuckooTable<u64> = CuckooTable::new(4, 128, HashKind::Strong, 46).unwrap();
        let mut tb: CuckooTable<u64> = CuckooTable::new(4, 128, HashKind::Strong, 46).unwrap();
        assert_eq!(a.migrate_into(&mut ta), b.migrate_into(&mut tb));
        let ca: Vec<(u64, u64)> = ta.iter().map(|(k, &v)| (k, v)).collect();
        let cb: Vec<(u64, u64)> = tb.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(ca, cb, "identical sources migrate identically");
    }
}
