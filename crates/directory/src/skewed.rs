//! The skewed-associative directory baseline.
//!
//! The `Skewed 2×` configuration of Figure 12: the same storage as a
//! set-associative Sparse directory, but each way is a direct-mapped table
//! indexed through a *different* skewing hash function (Seznec's
//! skewed-associative cache applied to a directory).  Lookups probe every
//! way at its own hashed index; an insertion that finds all candidate
//! locations occupied selects a victim *from one of the ways* and evicts it.
//!
//! The crucial difference from the Cuckoo directory (Section 4.1) is the
//! insertion procedure: "whereas the skewed-associative cache selects a
//! victim from one of the ways, the Cuckoo organization uses displacement to
//! iteratively move entries until a non-conflicting location is found."
//! Skewing therefore roughly doubles the *perceived* associativity but still
//! forces invalidations under pressure, which is exactly what Figure 12
//! shows for server workloads.

use crate::slots::{Organization, SlotDirectory};
use ccd_common::ConfigError;
use ccd_hash::{HashFamily, HashKind};
use ccd_sharers::SharerSet;

impl<S: SharerSet> SlotDirectory<S> {
    /// Creates a skewed-associative directory slice: `ways` direct-mapped
    /// tables of `sets` entries each, way `w` indexed by hash function `w`
    /// of the `kind` family ([`HashKind::Skewing`] is the paper's).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter is zero, `sets` is not a
    /// power of two, the hash family cannot be constructed or `ways × sets`
    /// entries cannot exist.
    pub fn skewed(
        ways: usize,
        sets: usize,
        num_caches: usize,
        kind: HashKind,
    ) -> Result<Self, ConfigError> {
        if num_caches == 0 {
            return Err(ConfigError::Zero {
                what: "cache count",
            });
        }
        let hashes = HashFamily::new(kind, ways, sets)?;
        Self::with_organization(Organization::Skewed(hashes), ways, sets, num_caches)
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{add, line, remove};
    use crate::{Directory, DirectoryOp, Outcome, SlotDirectory, StorageProfile};
    use ccd_common::rng::{Rng64, SplitMix64};
    use ccd_common::CacheId;
    use ccd_hash::{HashFamily, HashKind, IndexHashFamily};
    use ccd_sharers::{FullBitVector, SharerFormat};

    type Dir = SlotDirectory<FullBitVector>;

    fn skewed(ways: usize, sets: usize, caches: usize) -> Result<Dir, ccd_common::ConfigError> {
        Dir::skewed(ways, sets, caches, HashKind::Skewing)
    }

    #[test]
    fn construction_validation() {
        assert!(skewed(0, 64, 4).is_err());
        assert!(skewed(4, 63, 4).is_err());
        assert!(skewed(4, 64, 0).is_err());
        assert!(skewed(4, 64, 4).is_ok());
    }

    #[test]
    fn basic_add_lookup_remove() {
        let mut dir = skewed(4, 64, 8).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(100), CacheId::new(2)), &mut out);
        assert!(out.allocated_new_entry());
        dir.apply(add(line(100), CacheId::new(5)), &mut out);
        dir.apply(DirectoryOp::Probe { line: line(100) }, &mut out);
        assert!(out.hit());
        assert_eq!(out.sharers(), &[CacheId::new(2), CacheId::new(5)]);
        dir.apply(remove(line(100), CacheId::new(2)), &mut out);
        dir.apply(remove(line(100), CacheId::new(5)), &mut out);
        assert!(!dir.contains(line(100)));
        assert_eq!(dir.len(), 0);
    }

    #[test]
    fn exclusive_invalidates_other_sharers() {
        let mut dir = skewed(2, 32, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(1), CacheId::new(0)), &mut out);
        dir.apply(add(line(1), CacheId::new(1)), &mut out);
        let (line, cache) = (line(1), CacheId::new(3));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        let mut inv = out.invalidate().to_vec();
        inv.sort_unstable();
        assert_eq!(inv, vec![CacheId::new(0), CacheId::new(1)]);
        dir.apply(DirectoryOp::Probe { line }, &mut out);
        assert!(out.hit());
        assert_eq!(out.sharers(), &[CacheId::new(3)]);
    }

    #[test]
    fn conflicts_force_eviction_when_all_ways_occupied() {
        // 1-way skewed = direct-mapped through one hash; drive it well past
        // capacity and confirm evictions occur and capacity is respected.
        let mut dir = skewed(1, 16, 2).unwrap();
        let mut out = Outcome::new();
        let mut evictions = 0usize;
        for n in 0..64u64 {
            dir.apply(add(line(n), CacheId::new(0)), &mut out);
            evictions += out.forced_eviction_count();
        }
        assert!(evictions > 0, "a 16-entry table cannot hold 64 lines");
        assert!(dir.len() <= 16);
        assert_eq!(dir.stats().forced_evictions.get(), evictions as u64);
    }

    #[test]
    fn each_way_is_indexed_by_its_own_hash() {
        // Three lines that collide in way 0 and not in way 1: the second and
        // third each find their own way-1 slot free.  Indexed by one hash in
        // every way, the third would evict.
        let hashes = HashFamily::new(HashKind::Skewing, 2, 64).unwrap();
        let mut lines: Vec<_> = Vec::new();
        for n in (0..4096).map(line) {
            let collides = hashes.index(0, n) == hashes.index(0, line(0));
            if collides
                && lines
                    .iter()
                    .all(|&l| hashes.index(1, l) != hashes.index(1, n))
            {
                lines.push(n);
            }
        }
        assert!(lines.len() >= 3, "the scan found {lines:?}");
        let mut dir = skewed(2, 64, 4).unwrap();
        let mut out = Outcome::new();
        for &l in &lines[..3] {
            dir.apply(add(l, CacheId::new(0)), &mut out);
            assert_eq!(out.forced_eviction_count(), 0, "{l}");
        }
        assert_eq!(dir.len(), 3);
    }

    #[test]
    fn skewing_reduces_conflicts_versus_sparse_on_adversarial_pattern() {
        // Lines that collide in the low-order index bits (classic pathological
        // pattern for a modulo-indexed Sparse directory) are spread out by
        // the skewing functions.
        let ways = 4;
        let sets = 256;
        let mut sparse = Dir::sparse(ways, sets, 4).unwrap();
        let mut skewed = skewed(ways, sets, 4).unwrap();
        let mut out = Outcome::new();
        // 64 lines that all share the same low-order bits.
        let mut sparse_evictions = 0usize;
        let mut skewed_evictions = 0usize;
        for i in 0..64u64 {
            let l = line(7 + i * sets as u64);
            sparse.apply(add(l, CacheId::new(0)), &mut out);
            sparse_evictions += out.forced_eviction_count();
            skewed.apply(add(l, CacheId::new(0)), &mut out);
            skewed_evictions += out.forced_eviction_count();
        }
        assert!(sparse_evictions > 0, "sparse must conflict on this pattern");
        assert!(
            skewed_evictions < sparse_evictions,
            "skewed ({skewed_evictions}) should conflict less than sparse ({sparse_evictions})"
        );
    }

    #[test]
    fn random_load_below_capacity_rarely_evicts() {
        let mut dir = skewed(4, 1024, 8).unwrap();
        let mut out = Outcome::new();
        let mut rng = SplitMix64::new(42);
        let capacity = dir.capacity();
        let mut evictions = 0usize;
        // Fill to 50% occupancy with random lines.
        for _ in 0..capacity / 2 {
            let l = line(rng.next_u64() >> 10);
            dir.apply(add(l, CacheId::new(0)), &mut out);
            evictions += out.forced_eviction_count();
        }
        let rate = evictions as f64 / (capacity / 2) as f64;
        assert!(
            rate < 0.05,
            "eviction rate at 50% load should be small, got {rate}"
        );
    }

    #[test]
    fn organization_and_profile() {
        let dir = skewed(4, 512, 16).unwrap();
        assert_eq!(dir.organization(), "skewed-4x512");
        // Charged like the set-associative structure of the same geometry.
        let p = StorageProfile::tagged(4, 512, SharerFormat::FullVector.entry_bits(16));
        assert_eq!(p.comparators_per_lookup, 4);
        assert_eq!(p.total_bits, (33 + 16 + 1) * dir.capacity() as u64);
    }
}
