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
//! and, from one huge page (2 MiB) of bytes up, a huge-page-aligned mapping
//! of its own, advised `MADV_HUGEPAGE` before its first touch and returned
//! to the kernel when the table is dropped.  The byte size of each
//! array is the only selector — a 4 × 64 Ki-set table's 2 MiB key array is
//! the smallest that crosses the line — so a slice of millions of entries
//! sits on a few dozen huge pages a TLB can hold instead of tens of
//! thousands of base pages it cannot, and a small table is what it would be
//! in three boxed slices.  All three are indexed by slot number,
//! `way * sets + set_index`:
//!
//! * `tags` — one byte per slot: `EMPTY_TAG` (0) for a vacant slot, or a
//!   7-bit key fingerprint with the high bit set for an occupied one.  The
//!   encoding doubles as the occupancy marker, so the probe loop needs no
//!   `Option` and a miss touches one byte per way instead of a full slot.
//! * `keys` — one [`KeyWord`] per slot (garbage where `tags` is empty).
//!   By default it is the whole 64-bit key.  A table of `2^n` sets indexed
//!   by the skewing family stores, from `n = 10` up, only `q = key >> n`
//!   in a `u32`: the bits of a 42-bit line that the set index does not
//!   determine, the tag a skewed cache keeps.  Way `w`'s
//!   skewing index is `rot(a1) ^ rot(a2) ^ fold(rest)`, so the slot's index
//!   and `q` give back `a1`, the low `n` bits, exactly
//!   ([`ccd_hash::SkewingFamily::line_from_high`]).  A probe compares `q`,
//!   and the table rebuilds the full key only where it reads one back:
//!   the victim of a displacement, a discarded entry
//!   ([`InsertOutcome::discarded`]) and [`CuckooTable::iter`].  The
//!   fingerprint is still taken from the full key, so tags, placement and
//!   attempts are the same at either width.
//!   [`narrow_keys`] makes the choice from the family and the set count;
//!   strong indices mix every bit and keep full keys.
//! * `values` — the payloads, kept as `MaybeUninit<V>` and only initialized
//!   where `tags` is occupied.
//!
//! A probe reduces to *which candidate tags equal the fingerprint / the
//! empty tag?*  The candidate tags of up to eight ways are gathered into
//! one integer, matched with SWAR arithmetic, and the matching lanes folded
//! into way bits by one multiply-shift (`fold_lanes`): no branch or loop
//! depends on how many ways match.  The fingerprint scan may over-report,
//! so only ways whose tag matches are confirmed with a key-word compare,
//! and a negative lookup usually performs **zero** key loads.  Because
//! occupied tags always have their high bit set and the empty tag is zero,
//! the vacancy scan is exact (no false positives).
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
//!    — about one line pair for a resident key — or, for an operation that
//!    may allocate an absent key, of its first vacant way, the slot its
//!    insertion writes; nothing for a probe of an absent key;
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
//! When every candidate slot is occupied, the table runs the paper's one
//! insertion procedure, a greedy random-walk chain: kick a victim, probe
//! its alternates, repeat.  The discard rule when the attempt budget
//! expires is exact:
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
//! and vacancy-probe share one
//! [`index_all_into`](ccd_hash::IndexHashFamily::index_all_into) pass, and
//! the displacement loop reuses each victim's indices for both its vacancy
//! probe and its next displacement target.

mod insert;
mod invariants;
mod kernels;
mod keys;
mod pipeline;
mod probe;
#[cfg(test)]
mod tests;

pub use keys::{narrow_keys, KeyWord};
pub use pipeline::PIPELINE_DEPTH;

use ccd_common::pages::PageBuf;
use ccd_common::ConfigError;
use ccd_directory::spec::{capacity_too_large, checked_capacity};
use ccd_directory::DepthMetrics;
use ccd_hash::{HashFamily, HashKind, MAX_FAMILY_WAYS};
use std::mem::MaybeUninit;

/// Tag byte of a vacant slot.  Occupied slots always carry the key's
/// [`fingerprint`], whose high bit is set, so `0` is unambiguous.
const EMPTY_TAG: u8 = 0;

/// Way counts up to this bound get a probe compiled for exactly their way
/// count ([`ways_dispatch!`]); wider tables (up to [`MAX_FAMILY_WAYS`]) share
/// one compiled for full-width buffers and a runtime bound.
const SMALL_WAYS: usize = 8;

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

/// Result of `CuckooTable::find_or_insert_prehashed`: a mutable borrow of the
/// payload stored for the requested key, plus the insertion outcome when the
/// key was newly inserted.
pub(crate) struct FindOrInsert<'a, V> {
    /// The payload stored for the requested key (existing or just created).
    pub value: &'a mut V,
    /// `None` when the key was already present (the payload was left
    /// untouched); the insertion outcome otherwise.
    pub inserted: Option<InsertOutcome<V>>,
}

/// A resident entry found by [`CuckooTable::occupied`].  It borrows the
/// table mutably, so the slot it names stays occupied for as long as it
/// lives.
pub(crate) struct Occupied<'a, V, Q: KeyWord> {
    table: &'a mut CuckooTable<V, Q>,
    slot: usize,
}

impl<'a, V, Q: KeyWord> Occupied<'a, V, Q> {
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
        self.table.tags[self.slot] = EMPTY_TAG;
        self.table.valid -= 1;
        // SAFETY: `occupied` only names occupied slots, and the tag is
        // cleared above so the payload is never read (or dropped) again.
        unsafe { self.table.values[self.slot].assume_init_read() }
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

/// A d-ary cuckoo hash table with bounded displacement insertion, storing
/// each key in a `Q` ([`KeyWord`]): the full `u64` by default, or a `u32`
/// of the bits above the set index ([`CuckooTable::with_key_word`]).
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
pub struct CuckooTable<V, Q: KeyWord = u64> {
    ways: usize,
    sets: usize,
    hashes: HashFamily,
    /// Per-slot occupancy tags, indexed `way * sets + index`.
    tags: PageBuf<u8>,
    /// Stored key words, indexed like `tags` (garbage where the tag is
    /// empty): the full keys, or for `Q = u32` their bits above the index.
    keys: PageBuf<Q>,
    /// Stored payloads, initialized exactly where the tag is occupied.
    values: PageBuf<MaybeUninit<V>>,
    valid: usize,
    max_attempts: u32,
    next_start_way: usize,
    /// Depth distributions (probe depth and displacement-chain length),
    /// recorded only while armed.  `None` — the default — costs one
    /// branch per record site and must never change what the table
    /// computes (contract #11).
    metrics: Option<Box<DepthMetrics>>,
}

impl<V> CuckooTable<V> {
    /// Creates an empty table of `ways` direct-mapped tables with `sets`
    /// entries each, indexed by the `kind` hash family seeded with `seed`,
    /// storing full 64-bit keys.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::TooSmall`] if `ways < 2`,
    /// * [`ConfigError::TooLarge`] (`"directory capacity"`) if `ways × sets`
    ///   overflows, one of the three arrays is not a representable
    ///   allocation, or the allocator refuses it,
    /// * plus the hash family's own validation errors (zero/`!pow2` sets).
    pub fn new(ways: usize, sets: usize, kind: HashKind, seed: u64) -> Result<Self, ConfigError> {
        Self::with_key_word(ways, sets, kind, seed)
    }
}

impl<V, Q: KeyWord> CuckooTable<V, Q> {
    /// [`CuckooTable::new`], storing each key in a `Q`: `u64` for the full
    /// key, `u32` for its bits above the set index.
    ///
    /// # Errors
    ///
    /// Those of [`CuckooTable::new`], plus [`ConfigError::Inconsistent`]
    /// when `Q` is `u32` and [`narrow_keys`] rules narrow keys out for
    /// `kind` over `sets` sets.
    pub fn with_key_word(
        ways: usize,
        sets: usize,
        kind: HashKind,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if Q::NARROW && !narrow_keys(kind, sets) {
            return Err(ConfigError::Inconsistent {
                what: "narrow keys need a skewing family over at least 1,024 sets",
            });
        }
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
            hashes,
            tags: PageBuf::filled(capacity, EMPTY_TAG).ok_or_else(refused)?,
            keys: PageBuf::filled(capacity, Q::default()).ok_or_else(refused)?,
            values: PageBuf::uninit(capacity).ok_or_else(refused)?,
            valid: 0,
            max_attempts: crate::config::DEFAULT_MAX_ATTEMPTS,
            next_start_way: 0,
            metrics: None,
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

    /// Arms depth-distribution recording, replacing any distributions
    /// recorded so far.
    ///
    /// While armed, every mutating operation feeds two
    /// [`LogHistogram`](ccd_common::LogHistogram)s: the ways inspected by
    /// each insertion-path probe and the entries physically displaced by
    /// each displacement chain.
    /// Pure queries (`find`, `contains`, `probe_batch`) take `&self` and
    /// are deliberately not recorded — observation never adds interior
    /// mutability to the read path.  Recording never changes what the
    /// table computes (contract #11).
    pub fn arm_depth_metrics(&mut self) {
        self.metrics = Some(Box::new(DepthMetrics::new()));
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

    /// Records the number of entries a displacement chain displaced.
    #[inline]
    fn record_chain(&mut self, moved: u32) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.displacement_chain.record(u64::from(moved));
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
    ) -> Option<Occupied<'_, V, Q>> {
        let slot = self.probe_hit_prehashed(key, indices)?;
        Some(Occupied { table: self, slot })
    }

    /// Iterates over `(key, &payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        (0..self.ways * self.sets)
            .filter(move |&slot| self.tag_at(slot) != EMPTY_TAG)
            .map(move |slot| {
                // SAFETY: occupied tags guarantee initialized payloads.
                (self.key_of(slot), unsafe {
                    self.values[slot].assume_init_ref()
                })
            })
    }
}

impl<V: Clone, Q: KeyWord> Clone for CuckooTable<V, Q> {
    fn clone(&self) -> Self {
        let capacity = self.ways * self.sets;
        let mut values = self.values.uninit_like();
        for slot in 0..capacity {
            if self.tag_at(slot) != EMPTY_TAG {
                // SAFETY: occupied tags guarantee initialized payloads.
                values[slot].write(unsafe { self.values[slot].assume_init_ref() }.clone());
            }
        }
        CuckooTable {
            ways: self.ways,
            sets: self.sets,
            hashes: self.hashes.clone(),
            tags: self.tags.clone(),
            keys: self.keys.clone(),
            values,
            valid: self.valid,
            max_attempts: self.max_attempts,
            next_start_way: self.next_start_way,
            metrics: self.metrics.clone(),
        }
    }
}

impl<V, Q: KeyWord> Drop for CuckooTable<V, Q> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<V>() {
            for slot in 0..self.ways * self.sets {
                if self.tag_at(slot) != EMPTY_TAG {
                    // SAFETY: occupied tags guarantee initialized payloads,
                    // each dropped exactly once here.
                    unsafe { self.values[slot].assume_init_drop() };
                }
            }
        }
    }
}
