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

use crate::slots::{Organization, SlotDirectory};
use ccd_common::ConfigError;
use ccd_sharers::SharerSet;

/// The geometry rules of a set-associative slot array.
pub(crate) fn check_geometry(
    ways: usize,
    sets: usize,
    num_caches: usize,
) -> Result<(), ConfigError> {
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
    Ok(())
}

impl<S: SharerSet> SlotDirectory<S> {
    /// Creates a set-associative (Sparse) directory slice with `ways × sets`
    /// entries tracking `num_caches` private caches: entries are indexed by
    /// the low-order bits of the block number and placed in one of `ways`
    /// slots per set, with least-recently-used replacement among valid
    /// entries when the set is full.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if any parameter is zero,
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two,
    /// * [`ConfigError::TooLarge`] if `ways × sets` entries cannot exist.
    pub fn sparse(ways: usize, sets: usize, num_caches: usize) -> Result<Self, ConfigError> {
        check_geometry(ways, sets, num_caches)?;
        Self::with_organization(Organization::Sparse, ways, sets, num_caches)
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{add, line, probe, remove};
    use crate::{Directory, DirectoryOp, Outcome, SlotDirectory, StorageProfile};
    use ccd_common::CacheId;
    use ccd_sharers::{FullBitVector, SharerFormat};

    type Dir = SlotDirectory<FullBitVector>;

    #[test]
    fn construction_validation() {
        assert!(Dir::sparse(0, 16, 4).is_err());
        assert!(Dir::sparse(4, 0, 4).is_err());
        assert!(Dir::sparse(4, 16, 0).is_err());
        assert!(Dir::sparse(4, 12, 4).is_err());
        assert!(Dir::sparse(4, 16, 4).is_ok());
    }

    #[test]
    fn add_and_query_sharers() {
        let mut dir = Dir::sparse(2, 8, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(5), CacheId::new(1)), &mut out);
        assert!(out.allocated_new_entry());
        assert!(out.invalidate().is_empty());
        assert_eq!(out.forced_eviction_count(), 0);
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
        let mut dir = Dir::sparse(1, 4, 4).unwrap();
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
        let mut dir = Dir::sparse(2, 2, 4).unwrap();
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
        let mut dir = Dir::sparse(4, 8, 8).unwrap();
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
        let mut dir = Dir::sparse(4, 8, 8).unwrap();
        let mut out = Outcome::new();
        let (line, cache) = (line(42), CacheId::new(5));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert!(out.allocated_new_entry());
        assert!(out.invalidate().is_empty());
        assert_eq!(probe(&mut dir, line), Some(vec![CacheId::new(5)]));
    }

    #[test]
    fn removing_last_sharer_frees_the_entry() {
        let mut dir = Dir::sparse(2, 4, 4).unwrap();
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
        let mut dir = Dir::sparse(2, 4, 4).unwrap();
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
        let mut dir = Dir::sparse(2, 2, 4).unwrap();
        let mut out = Outcome::new();
        assert_eq!(dir.occupancy(), 0.0);
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(1), CacheId::new(0)), &mut out);
        assert!((dir.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(dir.capacity(), 4);
    }

    #[test]
    fn storage_profile_is_consistent() {
        let p = StorageProfile::tagged(8, 2048, SharerFormat::Coarse.entry_bits(32));
        // tag bits = 48 - 6 - 11 = 31, sharer bits = 2*5+1 = 11, +1 valid.
        assert_eq!(p.total_bits, (31 + 11 + 1) * 8 * 2048);
        assert_eq!(p.comparators_per_lookup, 8);
        assert_eq!(p.bits_written_per_update, 43);
        assert_eq!(p.bits_read_per_lookup, 8 * (31 + 11));
    }

    #[test]
    fn organization_name_includes_geometry() {
        let dir = Dir::sparse(8, 2048, 16).unwrap();
        assert_eq!(dir.organization(), "sparse-8x2048");
    }

    #[test]
    fn stats_reset_clears_history() {
        let mut dir = Dir::sparse(1, 2, 2).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(2), CacheId::new(1)), &mut out);
        assert!(dir.stats().insertions.get() > 0);
        dir.reset_stats();
        assert_eq!(dir.stats().insertions.get(), 0);
        assert_eq!(dir.stats().forced_evictions.get(), 0);
    }
}
