//! The in-cache (inclusive shared-L2) directory baseline.
//!
//! The in-cache organization (Section 3.2, "at the limit, the in-cache
//! directory organization extends an inclusive shared cache's tags with the
//! sharer information") stores a sharer vector alongside *every* tag of the
//! shared L2.  Tag storage and tag-lookup energy are free — the L2 lookup
//! happens anyway — but the sharer storage is grossly over-provisioned
//! because the L2 holds far more tags than there are privately cached
//! blocks, and every L2 eviction of a tracked block must invalidate the
//! private copies (an inclusion victim).
//!
//! It is only meaningful for the Shared-L2 configuration; "inclusion of
//! private L2s in other private L2s is not possible" (Section 5.6).
//!
//! Functionally this is a Sparse directory ([`SlotDirectory::sparse`]) with
//! the L2's geometry; the difference is entirely in the storage/energy
//! accounting ([`StorageProfile::untagged`](crate::StorageProfile::untagged)).

use crate::slots::{Organization, SlotDirectory};
use ccd_common::ConfigError;
use ccd_sharers::SharerSet;

impl<S: SharerSet> SlotDirectory<S> {
    /// Creates an in-cache directory: sharer vectors embedded in the tags of
    /// an L2 bank of `l2_ways × l2_sets` frames, tracking `num_caches`
    /// private caches.
    ///
    /// # Errors
    ///
    /// The geometry rules of [`SlotDirectory::sparse`].
    pub fn in_cache(
        l2_ways: usize,
        l2_sets: usize,
        num_caches: usize,
    ) -> Result<Self, ConfigError> {
        crate::sparse::check_geometry(l2_ways, l2_sets, num_caches)?;
        Self::with_organization(Organization::InCache, l2_ways, l2_sets, num_caches)
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{add, line};
    use crate::{Directory, DirectoryOp, Outcome, SlotDirectory, StorageProfile};
    use ccd_common::CacheId;
    use ccd_sharers::{FullBitVector, SharerFormat};

    #[test]
    fn behaves_like_a_sparse_directory_with_l2_geometry() {
        let mut dir = SlotDirectory::<FullBitVector>::in_cache(16, 64, 32).unwrap();
        let mut out = Outcome::new();
        assert_eq!(dir.capacity(), 1024);
        dir.apply(add(line(7), CacheId::new(1)), &mut out);
        dir.apply(add(line(7), CacheId::new(9)), &mut out);
        let (line, cache) = (line(7), CacheId::new(1));
        dir.apply(DirectoryOp::Probe { line }, &mut out);
        assert!(out.hit());
        assert_eq!(out.sharers(), &[CacheId::new(1), CacheId::new(9)]);
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert_eq!(out.invalidate(), &[CacheId::new(9)]);
        dir.apply(DirectoryOp::RemoveSharer { line, cache }, &mut out);
        assert!(dir.is_empty());
        assert_eq!(dir.organization(), "in-cache-16x64");
    }

    #[test]
    fn storage_charges_a_vector_per_l2_frame_and_no_tags() {
        let p = StorageProfile::untagged(16, 1024, SharerFormat::FullVector.entry_bits(32));
        assert_eq!(p.total_bits, 32 * 16 * 1024);
        assert_eq!(p.comparators_per_lookup, 0, "tag match rides on the L2");
        assert_eq!(p.bits_read_per_lookup, 16 * 32);
        assert_eq!(p.bits_written_per_update, 32);
    }

    #[test]
    fn inclusion_victims_surface_as_forced_evictions() {
        // A tiny 1-way, 2-set "L2": inserting two blocks that map to the same
        // set evicts the first, which models the inclusion-victim
        // invalidation of an in-cache directory.
        let mut dir = SlotDirectory::<FullBitVector>::in_cache(1, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(2), CacheId::new(1)), &mut out);
        let evictions: Vec<_> = out.forced_evictions().collect();
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].line, line(0));
        assert_eq!(evictions[0].targets, &[CacheId::new(0)]);
    }
}
