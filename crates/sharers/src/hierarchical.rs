//! Two-level hierarchical sharer vector.
//!
//! The paper's *Sparse Hierarchical* / *Cuckoo Hierarchical* format
//! (Section 3.3, after Wallach's PHD and Guo et al.): sharers are tracked by
//! a small *root* vector with one bit per cache *group*, plus per-group
//! *leaf* vectors allocated only for groups that actually contain sharers.
//! Splitting an `N`-bit vector into `√N` groups of `√N` caches keeps any
//! single access to `O(√N)` bits while the common case (sharers clustered in
//! one or two groups) stores far fewer bits than a full vector.
//!
//! The representation here is exact: leaves hold precise per-cache bits.
//! What a directory entry provisions — and what the analytical model
//! charges — is [`entry_bits`], the *primary-entry* width: the root vector
//! plus one resident leaf, which is also all a lookup or update touches.
//! The further leaves of a block shared across groups, which a hierarchical
//! directory keeps in additional entries with replicated tags, are modelled
//! nowhere: the set holds them, the area model does not charge them.

use crate::SharerSet;
use ccd_common::CacheId;

/// Number of cache groups (root-vector bits) used for `num_caches` caches.
#[must_use]
pub fn group_count(num_caches: usize) -> usize {
    (num_caches as f64).sqrt().ceil() as usize
}

/// Number of caches per group (leaf-vector bits).
#[must_use]
pub fn group_size(num_caches: usize) -> usize {
    num_caches.div_ceil(group_count(num_caches))
}

/// Primary-entry sharer storage bits: the root vector plus one leaf vector.
#[must_use]
pub fn entry_bits(num_caches: usize) -> u64 {
    (group_count(num_caches) + group_size(num_caches)) as u64
}

/// An exact two-level (root + leaves) sharer vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalVector {
    num_caches: usize,
    group_size: usize,
    /// One leaf bitmask per group; `0` means the leaf is unallocated.
    leaves: Vec<u64>,
    count: usize,
}

impl HierarchicalVector {
    /// Number of caches currently marked as sharers.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    fn locate(&self, cache: CacheId) -> (usize, u64) {
        let group = cache.index() / self.group_size;
        let bit = 1u64 << (cache.index() % self.group_size);
        (group, bit)
    }

    fn assert_in_range(&self, cache: CacheId) {
        assert!(
            cache.index() < self.num_caches,
            "{cache} out of range for {} caches",
            self.num_caches
        );
    }
}

impl SharerSet for HierarchicalVector {
    fn new(num_caches: usize) -> Self {
        assert!(num_caches > 0, "need at least one cache");
        let groups = group_count(num_caches);
        let gsize = group_size(num_caches);
        assert!(
            gsize <= 64,
            "leaf vectors are stored in u64 words ({num_caches} caches would need {gsize}-bit leaves)"
        );
        HierarchicalVector {
            num_caches,
            group_size: gsize,
            leaves: vec![0; groups],
            count: 0,
        }
    }

    fn add(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        let (group, bit) = self.locate(cache);
        if self.leaves[group] & bit == 0 {
            self.leaves[group] |= bit;
            self.count += 1;
        }
    }

    fn remove(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        let (group, bit) = self.locate(cache);
        if self.leaves[group] & bit != 0 {
            self.leaves[group] &= !bit;
            self.count -= 1;
        }
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        if cache.index() >= self.num_caches {
            return false;
        }
        let (group, bit) = self.locate(cache);
        self.leaves[group] & bit != 0
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        for (group, &leaf) in self.leaves.iter().enumerate() {
            let mut bits = leaf;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let idx = group * self.group_size + b;
                if idx < self.num_caches {
                    out.push(CacheId::new(idx as u32));
                }
                bits &= bits - 1;
            }
        }
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn exact_count(&self) -> Option<usize> {
        Some(self.count)
    }

    fn clear(&mut self) {
        self.leaves.iter_mut().for_each(|l| *l = 0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_square_root_shaped() {
        assert_eq!(group_count(1024), 32);
        assert_eq!(group_size(1024), 32);
        assert_eq!(entry_bits(1024), 64);
        assert_eq!(group_count(16), 4);
        assert_eq!(group_size(16), 4);
        // Non-square counts still cover everything.
        for n in [2usize, 3, 5, 10, 17, 100, 2000] {
            assert!(group_count(n) * group_size(n) >= n, "n = {n}");
        }
    }

    #[test]
    fn exact_add_remove_round_trip() {
        let mut s = HierarchicalVector::new(100);
        let ids = [0u32, 9, 10, 55, 99];
        for &i in &ids {
            s.add(CacheId::new(i));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.exact_count(), Some(5));
        assert!(s.is_exact());
        let mut targets = s.invalidation_targets();
        targets.sort_unstable();
        assert_eq!(
            targets,
            ids.iter().map(|&i| CacheId::new(i)).collect::<Vec<_>>()
        );

        s.remove(CacheId::new(10));
        assert!(!s.may_contain(CacheId::new(10)));
        assert_eq!(s.count(), 4);

        // Idempotent operations.
        s.remove(CacheId::new(10));
        assert_eq!(s.count(), 4);
        s.add(CacheId::new(0));
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn leaf_allocation_tracking() {
        let mut s = HierarchicalVector::new(64); // 8 groups of 8
        s.add(CacheId::new(63)); // the last group's leaf
        s.add(CacheId::new(2));
        s.add(CacheId::new(1)); // same leaf as 2
                                // Sharers come back leaf by leaf, whatever order they arrived in.
        assert_eq!(s.invalidation_targets(), [1, 2, 63].map(CacheId::new));
        s.remove(CacheId::new(63)); // empties that leaf
        assert_eq!(s.invalidation_targets(), [1, 2].map(CacheId::new));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn access_touches_root_plus_one_leaf() {
        assert_eq!(entry_bits(1024), 32 + 32);
        assert!(entry_bits(1024) < crate::full::vector_bits(1024));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut s = HierarchicalVector::new(8);
        s.add(CacheId::new(8));
    }
}
