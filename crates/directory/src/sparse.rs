//! The Sparse directory — a conventional set-associative organization.
//!
//! The Sparse directory (Gupta et al., Section 3.2 of the paper) reduces the
//! associativity of the Duplicate-Tag design by "using the low-order tag
//! bits to extend the index of the directory storage".  Each entry carries
//! explicit sharer information because the one-to-one correspondence to
//! cache frames is lost.
//!
//! Its weakness — and the motivation for the Cuckoo directory — is the
//! non-uniform distribution of blocks across sets: when a set fills up, the
//! next insertion must evict a victim entry and *invalidate the victim's
//! block in every private cache that holds it*, even though those caches
//! had room for it.  Reducing the frequency of these forced invalidations
//! requires over-provisioning capacity (the `2×`/`8×` configurations of
//! Figure 12).

use crate::{Directory, DirectoryStats, Outcome, StorageProfile};
use ccd_common::{ceil_log2, ConfigError, LineAddr};
use ccd_sharers::SharerSet;

/// One valid directory entry: a block tag plus its sharer set.
#[derive(Clone, Debug)]
struct Entry<S> {
    line: LineAddr,
    sharers: S,
}

/// A set-associative (Sparse) coherence directory slice.
///
/// Entries are indexed by the low-order bits of the block number and placed
/// in one of `ways` slots per set, with least-recently-used replacement
/// among valid entries when the set is full.
#[derive(Clone, Debug)]
pub struct SparseDirectory<S: SharerSet> {
    ways: usize,
    sets: usize,
    num_caches: usize,
    slots: Vec<Option<Entry<S>>>,
    last_use: Vec<u64>,
    tick: u64,
    valid: usize,
    stats: DirectoryStats,
}

impl<S: SharerSet> SparseDirectory<S> {
    /// Creates a Sparse directory with `ways × sets` entries tracking
    /// `num_caches` private caches.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if any parameter is zero,
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two.
    pub fn new(ways: usize, sets: usize, num_caches: usize) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::Zero { what: "ways" });
        }
        if sets == 0 {
            return Err(ConfigError::Zero { what: "set count" });
        }
        if num_caches == 0 {
            return Err(ConfigError::Zero {
                what: "cache count",
            });
        }
        if !ccd_common::is_power_of_two(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: sets as u64,
            });
        }
        Ok(SparseDirectory {
            ways,
            sets,
            num_caches,
            slots: (0..ways * sets).map(|_| None).collect(),
            last_use: vec![0; ways * sets],
            tick: 0,
            valid: 0,
            stats: DirectoryStats::new(),
        })
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.block_number() % self.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.last_use[slot] = self.tick;
    }

    fn find_slot(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        self.slot_range(set)
            .find(|&slot| matches!(&self.slots[slot], Some(e) if e.line == line))
    }

    /// Finds where a new entry for `line` would go: an invalid slot if one
    /// exists, otherwise the least-recently-used valid slot of the set.
    fn victim_slot(&self, line: LineAddr) -> (usize, bool) {
        let set = self.set_of(line);
        let mut lru_slot = set * self.ways;
        let mut lru_time = u64::MAX;
        for slot in self.slot_range(set) {
            match &self.slots[slot] {
                None => return (slot, false),
                Some(_) => {
                    if self.last_use[slot] < lru_time {
                        lru_time = self.last_use[slot];
                        lru_slot = slot;
                    }
                }
            }
        }
        (lru_slot, true)
    }

    /// Looks up `line`, allocating an entry if necessary, recording hit /
    /// allocation / forced-eviction facts in `out`.  Returns the slot index.
    fn find_or_allocate(&mut self, line: LineAddr, out: &mut Outcome) -> usize {
        self.stats.lookups.incr();
        if let Some(slot) = self.find_slot(line) {
            self.touch(slot);
            out.set_hit(true);
            return slot;
        }

        let (slot, must_evict) = self.victim_slot(line);
        out.record_allocation(1);
        let mut evictions = 0u64;
        if must_evict {
            let victim = self.slots[slot]
                .take()
                .expect("victim slot must hold a valid entry");
            let targets = out.push_forced_eviction(victim.line, &victim.sharers);
            self.stats.forced_block_invalidations.add(targets as u64);
            self.valid -= 1;
            evictions = 1;
        }
        self.slots[slot] = Some(Entry {
            line,
            sharers: S::new(self.num_caches),
        });
        self.valid += 1;
        self.touch(slot);
        let occupancy = self.occupancy();
        self.stats.record_insertion(1, evictions, occupancy);
        slot
    }
}

impl<S: SharerSet> Directory for SparseDirectory<S> {
    fn organization(&self) -> String {
        format!("sparse-{}x{}", self.ways, self.sets)
    }

    fn num_caches(&self) -> usize {
        self.num_caches
    }

    fn capacity(&self) -> usize {
        self.ways * self.sets
    }

    fn len(&self) -> usize {
        self.valid
    }

    crate::slot_dispatch::impl_slot_directory_ops!();

    fn stats(&self) -> DirectoryStats {
        self.stats.clone()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn storage_profile(&self) -> StorageProfile {
        let probe = S::new(self.num_caches);
        let sharer_bits = probe.storage_bits();
        let tag_bits = u64::from(
            ccd_common::PHYSICAL_ADDRESS_BITS
                .saturating_sub(ccd_common::BlockGeometry::default().offset_bits())
                .saturating_sub(ceil_log2(self.sets as u64)),
        );
        let state_bits = 1; // valid bit
        let entry_bits = tag_bits + sharer_bits + state_bits;
        StorageProfile {
            total_bits: entry_bits * (self.ways * self.sets) as u64,
            bits_read_per_lookup: self.ways as u64 * (tag_bits + probe.access_bits()),
            bits_written_per_update: entry_bits,
            comparators_per_lookup: self.ways as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectoryOp;
    use ccd_common::CacheId;
    use ccd_sharers::{CoarseVector, FullBitVector};

    type Dir = SparseDirectory<FullBitVector>;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_block_number(n)
    }

    fn add(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::AddSharer { line, cache }
    }

    fn remove(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::RemoveSharer { line, cache }
    }

    /// `Probe`'s answer: `None` on a miss, the reported sharers on a hit.
    fn probe(dir: &mut Dir, line: LineAddr) -> Option<Vec<CacheId>> {
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::Probe { line }, &mut out);
        out.hit().then(|| out.sharers().to_vec())
    }

    #[test]
    fn construction_validation() {
        assert!(Dir::new(0, 16, 4).is_err());
        assert!(Dir::new(4, 0, 4).is_err());
        assert!(Dir::new(4, 16, 0).is_err());
        assert!(Dir::new(4, 12, 4).is_err());
        assert!(Dir::new(4, 16, 4).is_ok());
    }

    #[test]
    fn add_and_query_sharers() {
        let mut dir = Dir::new(2, 8, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(5), CacheId::new(1)), &mut out);
        assert!(out.allocated_new_entry());
        assert!(out.is_clean());
        dir.apply(add(line(5), CacheId::new(3)), &mut out);
        assert!(!out.allocated_new_entry());
        assert_eq!(
            probe(&mut dir, line(5)),
            Some(vec![CacheId::new(1), CacheId::new(3)])
        );
        assert!(dir.contains(line(5)));
        assert!(!dir.contains(line(13))); // same set, different tag
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn set_conflict_forces_invalidation_of_lru_victim() {
        // 1 way, 4 sets: lines 0 and 4 conflict.
        let mut dir = Dir::new(1, 4, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(4), CacheId::new(1)), &mut out);
        assert!(out.allocated_new_entry());
        let evictions: Vec<_> = out.forced_evictions().collect();
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].line, line(0));
        assert_eq!(evictions[0].targets, &[CacheId::new(0)]);
        assert!(!dir.contains(line(0)));
        assert!(dir.contains(line(4)));
        assert_eq!(dir.stats().forced_evictions.get(), 1);
        assert!((dir.stats().forced_invalidation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_prefers_older_entry_as_victim() {
        // 2 ways, 2 sets: lines 0, 2, 4 all map to set 0.
        let mut dir = Dir::new(2, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(2), CacheId::new(1)), &mut out);
        // Touch line 0 so line 2 becomes LRU.
        dir.apply(add(line(0), CacheId::new(2)), &mut out);
        dir.apply(add(line(4), CacheId::new(3)), &mut out);
        assert_eq!(out.forced_evictions().next().unwrap().line, line(2));
        assert!(dir.contains(line(0)));
        assert!(dir.contains(line(4)));
    }

    #[test]
    fn exclusive_request_invalidates_other_sharers() {
        let mut dir = Dir::new(4, 8, 8).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(9), CacheId::new(0)), &mut out);
        dir.apply(add(line(9), CacheId::new(1)), &mut out);
        dir.apply(add(line(9), CacheId::new(2)), &mut out);
        let (line, cache) = (line(9), CacheId::new(1));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert!(!out.allocated_new_entry());
        let mut invalidate = out.invalidate().to_vec();
        invalidate.sort_unstable();
        assert_eq!(invalidate, vec![CacheId::new(0), CacheId::new(2)]);
        assert_eq!(probe(&mut dir, line), Some(vec![CacheId::new(1)]));
        assert_eq!(dir.stats().invalidate_alls.get(), 1);
    }

    #[test]
    fn exclusive_on_untracked_line_allocates() {
        let mut dir = Dir::new(4, 8, 8).unwrap();
        let mut out = Outcome::new();
        let (line, cache) = (line(42), CacheId::new(5));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert!(out.allocated_new_entry());
        assert!(out.invalidate().is_empty());
        assert_eq!(probe(&mut dir, line), Some(vec![CacheId::new(5)]));
    }

    #[test]
    fn removing_last_sharer_frees_the_entry() {
        let mut dir = Dir::new(2, 4, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(7), CacheId::new(0)), &mut out);
        dir.apply(add(line(7), CacheId::new(1)), &mut out);
        dir.apply(remove(line(7), CacheId::new(0)), &mut out);
        assert!(dir.contains(line(7)));
        assert_eq!(dir.len(), 1);
        dir.apply(remove(line(7), CacheId::new(1)), &mut out);
        assert!(!dir.contains(line(7)));
        assert_eq!(dir.len(), 0);
        assert_eq!(dir.stats().entry_removes.get(), 1);
        // Removing from an untracked line is a no-op.
        dir.apply(remove(line(7), CacheId::new(1)), &mut out);
        assert_eq!(dir.len(), 0);
    }

    #[test]
    fn remove_entry_returns_invalidation_targets() {
        let mut dir = Dir::new(2, 4, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::RemoveEntry { line: line(3) }, &mut out);
        assert!(!out.hit());
        dir.apply(add(line(3), CacheId::new(2)), &mut out);
        dir.apply(add(line(3), CacheId::new(3)), &mut out);
        dir.apply(DirectoryOp::RemoveEntry { line: line(3) }, &mut out);
        assert!(out.hit());
        assert_eq!(out.invalidate(), &[CacheId::new(2), CacheId::new(3)]);
        assert!(dir.is_empty());
    }

    #[test]
    fn occupancy_tracks_valid_entries() {
        let mut dir = Dir::new(2, 2, 4).unwrap();
        let mut out = Outcome::new();
        assert_eq!(dir.occupancy(), 0.0);
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(1), CacheId::new(0)), &mut out);
        assert!((dir.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(dir.capacity(), 4);
    }

    #[test]
    fn storage_profile_is_consistent() {
        let dir = SparseDirectory::<CoarseVector>::new(8, 2048, 32).unwrap();
        let p = dir.storage_profile();
        // tag bits = 48 - 6 - 11 = 31, sharer bits = 2*5+1 = 11, +1 valid.
        assert_eq!(p.total_bits, (31 + 11 + 1) * 8 * 2048);
        assert_eq!(p.comparators_per_lookup, 8);
        assert_eq!(p.bits_written_per_update, 43);
        assert_eq!(p.bits_read_per_lookup, 8 * (31 + 11));
    }

    #[test]
    fn organization_name_includes_geometry() {
        let dir = Dir::new(8, 2048, 16).unwrap();
        assert_eq!(dir.organization(), "sparse-8x2048");
    }

    #[test]
    fn stats_reset_clears_history() {
        let mut dir = Dir::new(1, 2, 2).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(2), CacheId::new(1)), &mut out);
        assert!(dir.stats().insertions.get() > 0);
        dir.reset_stats();
        assert_eq!(dir.stats().insertions.get(), 0);
        assert_eq!(dir.stats().forced_evictions.get(), 0);
    }
}
