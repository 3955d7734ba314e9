//! Coherence-directory organizations: the common [`Directory`] trait and the
//! baseline designs the Cuckoo directory is evaluated against.
//!
//! A *directory slice* tracks, for every block currently resident in some
//! private cache that maps to this slice, the set of caches holding a copy
//! (Section 2 of the paper).  The paper compares several slice
//! organizations that differ in how entries are found and where a new entry
//! may be placed:
//!
//! * Sparse ([`SlotDirectory::sparse`]) — a conventional set-associative
//!   structure indexed by low-order address bits.  Set conflicts force
//!   invalidations of cached blocks (Section 3.2), which is why practical
//!   Sparse directories over-provision capacity (the 2× and 8×
//!   configurations of Figure 12).
//! * Skewed ([`SlotDirectory::skewed`]) — the same storage, but each way
//!   indexed through a different skewing hash function (Seznec's
//!   skewed-associative cache adapted to a directory).  Reduces, but does
//!   not eliminate, conflicts.
//! * `DuplicateTagDirectory` — mirrors every private cache's tag array;
//!   never forces invalidations but needs `cache associativity × cache
//!   count` way comparisons per lookup (Section 3.1), which is what makes
//!   its energy grow quadratically in aggregate.
//! * In-Cache ([`SlotDirectory::in_cache`]) — embeds sharer vectors in the
//!   (inclusive) shared L2 tags; tag storage is free but every L2 tag
//!   carries a full vector.
//! * `TaglessDirectory` — the Tagless design of Zebchuk et al.: a grid of
//!   per-(cache, set) Bloom filters giving a conservative sharer superset.
//!
//! Sparse, Skewed and In-Cache differ in one decision each (where a line's
//! candidate slots are; what the storage is charged for) and share one slot
//! store, [`SlotDirectory`].  The paper's own contribution, the Cuckoo
//! directory, implements this same trait from the `ccd-cuckoo` crate, and
//! [`ShardedDirectory`] composes a power-of-two number of slices of any
//! organization behind the same interface.
//!
//! # The op/outcome protocol
//!
//! The directory hot path is the coherence protocol's per-miss sequence:
//! look up an entry, update its sharer set, collect the caches to
//! invalidate.  Every operation is therefore expressed as a [`DirectoryOp`]
//! dispatched through [`Directory::apply`], which writes its results into a
//! caller-owned, reusable [`Outcome`] buffer.  In steady state (warmed-up
//! buffers) an `apply` call performs **zero heap allocations** for lookups,
//! sharer additions on existing entries, sharer removals and exclusive
//! upgrades; only the allocation of a brand-new entry may allocate.
//!
//! `apply` (and its batched form, [`Directory::apply_batch`]) is the only
//! write path.  An entry is read either through [`DirectoryOp::Probe`] —
//! which needs `&mut` for the outcome buffer only and changes nothing — or,
//! through `&`, with [`Directory::contains`] and [`Directory::may_hold`].
//!
//! # Example
//!
//! ```
//! use ccd_common::{CacheId, LineAddr};
//! use ccd_directory::{Directory, DirectoryOp, Outcome, SlotDirectory};
//! use ccd_sharers::FullBitVector;
//!
//! // An 8-way, 256-set sparse directory tracking 32 private caches.
//! let mut dir = SlotDirectory::<FullBitVector>::sparse(8, 256, 32)?;
//! let line = LineAddr::from_block_number(0xabc);
//!
//! // One reusable outcome buffer for any number of operations.
//! let mut out = Outcome::new();
//! dir.apply(DirectoryOp::AddSharer { line, cache: CacheId::new(3) }, &mut out);
//! assert!(out.allocated_new_entry());
//! dir.apply(DirectoryOp::AddSharer { line, cache: CacheId::new(5) }, &mut out);
//! assert!(out.hit() && !out.allocated_new_entry());
//! dir.apply(DirectoryOp::Probe { line }, &mut out);
//! assert_eq!(out.sharers(), &[CacheId::new(3), CacheId::new(5)]);
//! assert!(dir.may_hold(line, CacheId::new(5)) && !dir.may_hold(line, CacheId::new(4)));
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod duplicate_tag;
pub mod in_cache;
pub mod sharded;
pub mod skewed;
pub mod slots;
pub mod sparse;
pub mod spec;
pub mod stats;
pub mod tagless;
#[cfg(test)]
pub(crate) mod testing;

pub(crate) use duplicate_tag::DuplicateTagDirectory;
pub use sharded::ShardedDirectory;
pub use slots::SlotDirectory;
pub use spec::{BuilderRegistry, DirectorySpec, Org};
pub use stats::{DepthMetrics, DirectoryStats};
pub(crate) use tagless::TaglessDirectory;

use ccd_common::{ceil_log2, BlockGeometry, CacheId, LineAddr};
use ccd_sharers::SharerSet;

/// One operation against a directory slice.
///
/// Operations carry everything the slice needs; results come back through
/// the [`Outcome`] buffer passed to [`Directory::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectoryOp {
    /// Record that `cache` obtained a shared copy of `line`, allocating an
    /// entry if the line is untracked.
    AddSharer {
        /// The referenced block.
        line: LineAddr,
        /// The cache that now holds a copy.
        cache: CacheId,
    },
    /// Record that `cache` obtained an exclusive (writable) copy of `line`:
    /// the entry is allocated if needed, every *other* sharer lands in
    /// [`Outcome::invalidate`], and only `cache` remains recorded.
    SetExclusive {
        /// The referenced block.
        line: LineAddr,
        /// The cache that now holds the only copy.
        cache: CacheId,
    },
    /// Record that `cache` evicted its copy of `line`; the entry is freed
    /// once its last sharer leaves.
    RemoveSharer {
        /// The referenced block.
        line: LineAddr,
        /// The cache that dropped its copy.
        cache: CacheId,
    },
    /// Remove the entry for `line` entirely (e.g. the home L2 bank evicted
    /// the block); the caches to invalidate land in [`Outcome::invalidate`].
    RemoveEntry {
        /// The evicted block.
        line: LineAddr,
    },
    /// Read the entry for `line`: sets [`Outcome::hit`] and fills
    /// [`Outcome::sharers`] with the (possibly conservative) sharer set.
    /// Statistics-neutral: a probe is a pure query; lookup counters are
    /// accumulated by the mutating operations.
    Probe {
        /// The queried block.
        line: LineAddr,
    },
}

impl DirectoryOp {
    /// The block the operation refers to.
    #[must_use]
    pub fn line(&self) -> LineAddr {
        match *self {
            DirectoryOp::AddSharer { line, .. }
            | DirectoryOp::SetExclusive { line, .. }
            | DirectoryOp::RemoveSharer { line, .. }
            | DirectoryOp::RemoveEntry { line }
            | DirectoryOp::Probe { line } => line,
        }
    }

    /// The range check of every organization's op entry: the cache the
    /// operation names, if it names one, must be below the directory's
    /// `num_caches`.  Sharer sets do not check it (a full vector of up to 64
    /// caches is its presence word alone), so the directory, which knows the
    /// count, checks once — before anything is looked up or allocated.
    ///
    /// # Panics
    ///
    /// When the operation names a cache at or past `num_caches`.
    #[inline]
    pub fn check_cache(&self, num_caches: usize) {
        if let DirectoryOp::AddSharer { cache, .. }
        | DirectoryOp::SetExclusive { cache, .. }
        | DirectoryOp::RemoveSharer { cache, .. } = *self
        {
            assert!(
                cache.index() < num_caches,
                "{cache} out of range for a {num_caches}-cache directory"
            );
        }
    }

    /// The line check of an organization that stores only the bits of a
    /// line its set index does not determine (a cuckoo directory with
    /// narrow keys): the line must lie in the paper's 48-bit physical
    /// address space, below `2^LINE_ADDRESS_BITS`.  Like
    /// [`DirectoryOp::check_cache`], it runs at the op entry, before
    /// anything is looked up or allocated.
    ///
    /// # Panics
    ///
    /// When the line is at or past `2^LINE_ADDRESS_BITS`.
    #[inline]
    pub fn check_line(&self) {
        let line = self.line().block_number();
        assert!(
            line >> ccd_common::LINE_ADDRESS_BITS == 0,
            "line {line:#x} lies past the 48-bit physical address space \
             (lines below 2^{})",
            ccd_common::LINE_ADDRESS_BITS
        );
    }

    /// Returns a copy of the operation with its line replaced — used by
    /// wrappers (e.g. [`ShardedDirectory`]) that translate global lines to
    /// slice-local ones.
    #[must_use]
    pub fn with_line(self, line: LineAddr) -> Self {
        match self {
            DirectoryOp::AddSharer { cache, .. } => DirectoryOp::AddSharer { line, cache },
            DirectoryOp::SetExclusive { cache, .. } => DirectoryOp::SetExclusive { line, cache },
            DirectoryOp::RemoveSharer { cache, .. } => DirectoryOp::RemoveSharer { line, cache },
            DirectoryOp::RemoveEntry { .. } => DirectoryOp::RemoveEntry { line },
            DirectoryOp::Probe { .. } => DirectoryOp::Probe { line },
        }
    }
}

/// A caller-owned, reusable result buffer for [`Directory::apply`].
///
/// All collections inside keep their capacity across [`Outcome::reset`] (and
/// `apply` resets the buffer itself on entry), so a warmed-up `Outcome`
/// makes the steady-state directory hot path allocation-free.  Forced
/// evictions are stored flat — one `(line, offset)` record per eviction plus
/// a single shared target buffer — rather than as nested `Vec`s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    hit: bool,
    allocated_new_entry: bool,
    insertion_attempts: u32,
    insertion_failed: bool,
    invalidated_all: bool,
    removed_entry: bool,
    invalidate: Vec<CacheId>,
    eviction_lines: Vec<(LineAddr, u32)>,
    eviction_targets: Vec<CacheId>,
}

/// A borrowed view of one forced eviction inside an [`Outcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionView<'a> {
    /// The block that lost its directory entry.
    pub line: LineAddr,
    /// Caches that may hold a copy and must be invalidated.
    pub targets: &'a [CacheId],
}

impl Outcome {
    /// Creates an empty outcome buffer.
    #[must_use]
    pub fn new() -> Self {
        Outcome::default()
    }

    /// Clears the outcome while keeping all buffer capacity.
    pub fn reset(&mut self) {
        self.hit = false;
        self.allocated_new_entry = false;
        self.insertion_attempts = 0;
        self.insertion_failed = false;
        self.invalidated_all = false;
        self.removed_entry = false;
        self.invalidate.clear();
        self.eviction_lines.clear();
        self.eviction_targets.clear();
    }

    // ---- consumer API -----------------------------------------------------

    /// `true` when the operation found an existing entry for its line.
    #[must_use]
    pub fn hit(&self) -> bool {
        self.hit
    }

    /// `true` when the operation allocated a new directory entry.
    #[must_use]
    pub fn allocated_new_entry(&self) -> bool {
        self.allocated_new_entry
    }

    /// Number of insertion attempts performed (0 when no entry was
    /// allocated, ≥ 1 for the Cuckoo displacement chain).
    #[must_use]
    pub fn insertion_attempts(&self) -> u32 {
        self.insertion_attempts
    }

    /// `true` when an allocation exhausted its insertion budget and had to
    /// discard a displaced entry (Cuckoo organizations only; the discarded
    /// entry appears among the forced evictions).
    #[must_use]
    pub fn insertion_failed(&self) -> bool {
        self.insertion_failed
    }

    /// `true` when an exclusive request found (and invalidated) other
    /// sharers — the "invalidate all" event of the paper's event mix.
    #[must_use]
    pub fn invalidated_all(&self) -> bool {
        self.invalidated_all
    }

    /// `true` when the operation freed the entry for its line.
    #[must_use]
    pub fn removed_entry(&self) -> bool {
        self.removed_entry
    }

    /// Caches to invalidate because of the operation's semantics (other
    /// sharers on an exclusive request, holders on an entry removal).
    #[must_use]
    pub fn invalidate(&self) -> &[CacheId] {
        &self.invalidate
    }

    /// The sharer set reported by a [`DirectoryOp::Probe`] (an alias of
    /// [`Outcome::invalidate`]; a probe's "targets" are the sharers).
    #[must_use]
    pub fn sharers(&self) -> &[CacheId] {
        &self.invalidate
    }

    /// Number of forced evictions recorded.
    #[must_use]
    pub fn forced_eviction_count(&self) -> usize {
        self.eviction_lines.len()
    }

    /// Total number of cache invalidations caused by forced evictions.
    #[must_use]
    pub fn forced_invalidation_count(&self) -> usize {
        self.eviction_targets.len()
    }

    /// Iterates over the forced evictions.
    pub fn forced_evictions(&self) -> impl Iterator<Item = EvictionView<'_>> {
        self.eviction_lines
            .iter()
            .enumerate()
            .map(|(i, &(line, start))| {
                let end = self
                    .eviction_lines
                    .get(i + 1)
                    .map_or(self.eviction_targets.len(), |&(_, s)| s as usize);
                EvictionView {
                    line,
                    targets: &self.eviction_targets[start as usize..end],
                }
            })
    }

    // ---- producer API (used by Directory implementations) -----------------

    /// Marks the operation as having found an existing entry.
    pub fn set_hit(&mut self, hit: bool) {
        self.hit = hit;
    }

    /// Records that a new entry was allocated after `attempts` insertion
    /// attempts.
    pub fn record_allocation(&mut self, attempts: u32) {
        self.allocated_new_entry = true;
        self.insertion_attempts = attempts;
    }

    /// Records that an allocation ran out of insertion attempts and
    /// discarded a displaced entry.
    pub fn record_insertion_failure(&mut self) {
        self.insertion_failed = true;
    }

    /// Records that an exclusive request invalidated other sharers.
    pub fn record_invalidate_all(&mut self) {
        self.invalidated_all = true;
    }

    /// Records that the operation freed its line's entry.
    pub fn record_removed_entry(&mut self) {
        self.removed_entry = true;
    }

    /// Appends one semantic invalidation target.
    pub fn push_invalidate(&mut self, cache: CacheId) {
        self.invalidate.push(cache);
    }

    /// Exposes the semantic-invalidation buffer so implementations can
    /// append via [`SharerSet::extend_targets`] without allocating.
    pub fn invalidate_buf(&mut self) -> &mut Vec<CacheId> {
        &mut self.invalidate
    }

    /// Current length of the invalidation list (pair with
    /// [`Outcome::drop_invalidate_from`] to filter freshly appended
    /// targets).
    #[must_use]
    pub fn invalidate_len(&self) -> usize {
        self.invalidate.len()
    }

    /// Removes `cache` from the invalidation targets appended at or after
    /// `start` (order within that range is not preserved).
    pub fn drop_invalidate_from(&mut self, start: usize, cache: CacheId) {
        if let Some(pos) = self.invalidate[start..].iter().position(|&c| c == cache) {
            self.invalidate.swap_remove(start + pos);
        }
    }

    /// Records a forced eviction of `line`, copying the victim's
    /// invalidation targets from `sharers`.  Returns how many targets were
    /// recorded.
    pub fn push_forced_eviction<S: SharerSet>(&mut self, line: LineAddr, sharers: &S) -> usize {
        let start = self.eviction_targets.len();
        self.eviction_lines.push((line, start as u32));
        sharers.extend_targets(&mut self.eviction_targets);
        self.eviction_targets.len() - start
    }

    /// Records a forced eviction of `line` invalidating a single cache.
    pub fn push_forced_eviction_one(&mut self, line: LineAddr, cache: CacheId) {
        self.eviction_lines
            .push((line, self.eviction_targets.len() as u32));
        self.eviction_targets.push(cache);
    }

    /// Rewrites every forced-eviction line through `f` — used by wrappers
    /// that translate slice-local lines back to global ones.
    pub(crate) fn map_eviction_lines(&mut self, mut f: impl FnMut(LineAddr) -> LineAddr) {
        for (line, _) in &mut self.eviction_lines {
            *line = f(*line);
        }
    }
}

/// The interface every directory organization implements.
///
/// The trait is object-safe so the coherence simulator can swap
/// organizations at runtime (`Box<dyn Directory>`).  Implementations
/// provide the allocation-free [`Directory::apply`] entry point plus pure
/// queries.  What a structure costs in bits is not among them: that is a
/// function of the geometry it was built from, [`StorageProfile`].
///
/// `Send` is a supertrait: every organization is plain owned data, so built
/// slices (and the simulators composed from them) can be constructed on one
/// thread and driven on another — the property the parallel sweep runner in
/// `ccd-coherence` relies on.
pub trait Directory: Send {
    /// Human-readable name of the organization (e.g. `"sparse-8x256"`).
    fn organization(&self) -> String;

    /// Number of private caches whose blocks this slice can track.
    fn num_caches(&self) -> usize;

    /// Maximum number of entries the slice can hold simultaneously.
    fn capacity(&self) -> usize;

    /// Number of currently valid entries.
    fn len(&self) -> usize;

    /// `true` when the directory holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of the capacity currently occupied (0.0 ..= 1.0).
    fn occupancy(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    /// Returns `true` when the directory currently tracks `line`.
    fn contains(&self, line: LineAddr) -> bool;

    /// Returns `true` when `cache` may hold a copy of `line` according to
    /// the directory's (possibly conservative) records.  Pure query; never
    /// under-approximates.
    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool;

    /// Applies `op`, writing all results into `out`.
    ///
    /// `out` is reset on entry, so callers reuse one buffer across calls;
    /// with warmed-up buffer capacity the lookup-hit, add-sharer-on-existing
    /// -entry, remove and exclusive-upgrade paths perform no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Every organization panics, before changing anything, on an op naming
    /// a cache at or past [`Directory::num_caches`]
    /// ([`DirectoryOp::check_cache`]).
    fn apply(&mut self, op: DirectoryOp, out: &mut Outcome);

    /// Applies `ops` in order through the reusable `out` buffer, invoking
    /// `sink(op, out)` after each operation while its results are still in
    /// the buffer.
    ///
    /// The default is [`Directory::apply`] in a loop, and every
    /// organization but one runs it; the cuckoo directory overrides it with
    /// a three-stage pipeline that hashes each line once and prefetches the
    /// tag, key and sharer lines of a window of operations before applying
    /// them: those of a hit, or of the vacancy an allocation would fill.
    /// Either way observable behaviour is identical to the loop —
    /// prefetches are hints, never inputs — and with a warmed-up `out`
    /// buffer and an allocation-free `sink` the batch performs no heap
    /// allocation.
    fn apply_batch(
        &mut self,
        ops: &[DirectoryOp],
        out: &mut Outcome,
        sink: &mut dyn FnMut(&DirectoryOp, &Outcome),
    ) {
        for op in ops {
            self.apply(*op, out);
            sink(op, out);
        }
    }

    /// Accumulated statistics, by value: a snapshot read at report time,
    /// never on the request path (a sharded directory computes it by
    /// merging its slices').
    fn stats(&self) -> DirectoryStats;

    /// Clears the statistics (used after warm-up).
    fn reset_stats(&mut self);

    // ---- provided: depth observability ------------------------------------

    /// Arms per-operation depth metrics (probe depth and displacement-chain
    /// length), resetting any previously gathered distributions.  Returns
    /// `false` when the organization has no depth instrumentation (the
    /// default); callers treat that as "nothing to observe", not an error.
    ///
    /// Arming must never change what the directory computes — only
    /// [`Directory::depth_metrics`] output (contract #11).
    fn arm_depth_metrics(&mut self) -> bool {
        false
    }

    /// The depth distributions gathered since arming, or `None` when
    /// unarmed or unsupported.
    fn depth_metrics(&self) -> Option<&DepthMetrics> {
        None
    }
}

/// What one directory slice stores, reads per lookup and writes per update,
/// in bits — the quantities the paper's scalability argument counts
/// (Section 3) and the analytical model turns into the relative energy and
/// area curves of Figures 4 and 13.
///
/// A profile is a function of geometry alone, so it is computed by the four
/// constructors below, one per kind of structure, not asked of a built
/// directory; `ccd_energy::orgs::storage_profile` maps every organization
/// of the figures, at any core count, onto them.  Tags assume the paper's
/// 48-bit physical addresses and 64-byte blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageProfile {
    /// Total bits stored by this directory slice (tags + sharers + state).
    pub total_bits: u64,
    /// Bits read by one lookup (all ways of one set, tags + sharer data).
    pub bits_read_per_lookup: u64,
    /// Bits written by one entry update (one way: tag + sharer data).
    pub bits_written_per_update: u64,
    /// Number of tag comparators exercised per lookup.
    pub comparators_per_lookup: u64,
}

/// Tag width of a structure indexed into `sets` sets.
fn tag_bits(sets: usize) -> u64 {
    u64::from(BlockGeometry::default().tag_bits(ceil_log2(sets as u64)))
}

impl StorageProfile {
    /// A `ways × sets` structure whose entries carry their own tag, a
    /// `sharer_bits`-wide sharer set and a valid bit: Sparse, Skewed and
    /// Cuckoo.  A lookup reads one entry per way, exactly like a `ways`-way
    /// set-associative cache (Section 4.1: "nearly identical energy and
    /// latency per lookup").  A hashed index folds all address bits, yet
    /// the usual practice stores the tag width of the equivalent
    /// set-associative structure, so the three are charged alike.
    #[must_use]
    pub fn tagged(ways: usize, sets: usize, sharer_bits: u64) -> Self {
        let tag = tag_bits(sets);
        let entry = tag + sharer_bits + 1;
        StorageProfile {
            total_bits: entry * (ways * sets) as u64,
            bits_read_per_lookup: ways as u64 * (tag + sharer_bits),
            bits_written_per_update: entry,
            comparators_per_lookup: ways as u64,
        }
    }

    /// Sharer sets embedded in the frames of a `ways × sets` cache bank:
    /// In-Cache.  The tags and their comparison are the L2's — that lookup
    /// happens anyway — so only the sharer bits are charged.
    #[must_use]
    pub fn untagged(ways: usize, sets: usize, sharer_bits: u64) -> Self {
        StorageProfile {
            total_bits: sharer_bits * (ways * sets) as u64,
            bits_read_per_lookup: ways as u64 * sharer_bits,
            bits_written_per_update: sharer_bits,
            comparators_per_lookup: 0,
        }
    }

    /// Mirrors of the tag arrays of `caches` caches, `cache_sets` sets of
    /// each landing in this slice: Duplicate-Tag.  Only tags (and a valid
    /// bit) are stored — sharer identity is implicit in which mirror a tag
    /// sits in — but every lookup reads and compares the full set across
    /// all mirrors (Section 3.1).
    #[must_use]
    pub fn duplicate_tag(cache_sets: usize, cache_ways: usize, caches: usize) -> Self {
        let tag = tag_bits(cache_sets);
        let entry = tag + 1;
        let assoc = (cache_ways * caches) as u64;
        StorageProfile {
            total_bits: entry * cache_sets as u64 * assoc,
            bits_read_per_lookup: assoc * tag,
            bits_written_per_update: entry,
            comparators_per_lookup: assoc,
        }
    }

    /// A grid of `buckets`-bit Bloom filters, one per (cache, set):
    /// Tagless (one bit a bucket in hardware; the executable filter's
    /// counters are a simulation convenience).  A lookup reads the filter
    /// row of one set across all caches; an update rewrites one cache's
    /// filter for that set.
    #[must_use]
    pub fn tagless(cache_sets: usize, caches: usize, buckets: usize) -> Self {
        let filter = buckets as u64;
        StorageProfile {
            total_bits: filter * (cache_sets * caches) as u64,
            bits_read_per_lookup: filter * caches as u64,
            bits_written_per_update: filter,
            comparators_per_lookup: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_trait_is_object_safe() {
        fn assert_object_safe(_d: &dyn Directory) {}
        let dir =
            SlotDirectory::<ccd_sharers::FullBitVector>::sparse(4, 16, 8).expect("valid geometry");
        assert_object_safe(&dir);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "proves a built slice can move to another thread"
    )]
    fn built_directories_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn Directory>();
        assert_send::<Box<dyn Directory>>();
        // A built slice really can cross a thread boundary.
        let dir: Box<dyn Directory> = Box::new(
            SlotDirectory::<ccd_sharers::FullBitVector>::sparse(4, 16, 8).expect("valid geometry"),
        );
        let handle = std::thread::spawn(move || dir.capacity());
        assert_eq!(handle.join().unwrap(), 64);
    }

    #[test]
    fn outcome_round_trips_forced_evictions() {
        let mut out = Outcome::new();
        let mut sharers = ccd_sharers::FullBitVector::new(8);
        sharers.add(CacheId::new(2));
        sharers.add(CacheId::new(5));
        let n = out.push_forced_eviction(LineAddr::from_block_number(7), &sharers);
        assert_eq!(n, 2);
        out.push_forced_eviction_one(LineAddr::from_block_number(9), CacheId::new(1));
        assert_eq!(out.forced_eviction_count(), 2);
        assert_eq!(out.forced_invalidation_count(), 3);

        let views: Vec<_> = out.forced_evictions().collect();
        assert_eq!(views[0].line, LineAddr::from_block_number(7));
        assert_eq!(views[0].targets, &[CacheId::new(2), CacheId::new(5)]);
        assert_eq!(views[1].targets, &[CacheId::new(1)]);

        out.reset();
        assert!(out.invalidate().is_empty());
        assert_eq!(out.forced_eviction_count(), 0);
        assert_eq!(out.forced_invalidation_count(), 0);
    }

    #[test]
    fn outcome_drop_invalidate_filters_the_requester() {
        let mut out = Outcome::new();
        out.push_invalidate(CacheId::new(0));
        let start = out.invalidate_len();
        out.push_invalidate(CacheId::new(3));
        out.push_invalidate(CacheId::new(4));
        out.drop_invalidate_from(start, CacheId::new(3));
        // The pre-existing prefix is untouched; only the appended range is
        // filtered.
        assert!(out.invalidate().contains(&CacheId::new(0)));
        assert!(out.invalidate().contains(&CacheId::new(4)));
        assert!(!out.invalidate().contains(&CacheId::new(3)));
        // Dropping an id absent from the range is a no-op.
        out.drop_invalidate_from(start, CacheId::new(7));
        assert_eq!(out.invalidate_len(), 2);
    }

    #[test]
    fn directory_op_line_accessors() {
        let line = LineAddr::from_block_number(11);
        let other = LineAddr::from_block_number(22);
        let op = DirectoryOp::SetExclusive {
            line,
            cache: CacheId::new(1),
        };
        assert_eq!(op.line(), line);
        assert_eq!(op.with_line(other).line(), other);
        assert_eq!(
            DirectoryOp::RemoveEntry { line }.with_line(other).line(),
            other
        );
    }
}
