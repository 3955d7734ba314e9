//! Coarse sharer vector with an exact-pointer fast path.
//!
//! The paper's *Sparse Coarse* / *Cuckoo Coarse* entries (Section 3.3,
//! Figures 4 and 13) "precisely store sharers in the available bits
//! (2·log₂(#caches) bits) and fall back to a coarse vector representation in
//! the case of overflow", following Gupta et al. and the SGI Origin.
//!
//! Concretely, an entry owns `2·log₂(N)` sharer bits plus one mode bit:
//!
//! * **pointer mode** — up to two exact cache pointers of `log₂(N)` bits
//!   each;
//! * **coarse mode** — the same bits reinterpreted as a region bit vector in
//!   which each bit stands for a contiguous group of
//!   `⌈N / (2·log₂ N)⌉` caches.  Invalidations go to every cache of every
//!   marked region, i.e. the representation becomes a conservative
//!   superset.
//!
//! A limited-pointer entry ([`crate::limited`]) is the same two modes with
//! four pointers and one region, all `N` caches: broadcast on overflow.  Both
//! are a [`PointerSet`], plain inline data.

use crate::SharerSet;
use ccd_common::{ceil_log2, CacheId};

/// Per-entry sharer storage bits: `2·log₂(N)` sharer bits plus a mode bit.
#[must_use]
pub fn entry_bits(num_caches: usize) -> u64 {
    2 * u64::from(ceil_log2(num_caches as u64).max(1)) + 1
}

/// Number of region bits available in coarse mode.
#[must_use]
pub(crate) fn region_count(num_caches: usize) -> usize {
    (2 * ceil_log2(num_caches as u64).max(1) as usize).min(num_caches)
}

/// Number of caches covered by each region bit.
#[must_use]
pub(crate) fn caches_per_region(num_caches: usize) -> usize {
    num_caches.div_ceil(region_count(num_caches))
}

/// `K` exact cache pointers; on a `K + 1`-th sharer, a mask of regions until
/// the next `clear`: `region_count` regions, or one region of every cache
/// when `BROADCAST`.
///
/// At most 32 bytes, and creating, cloning or dropping one never touches
/// the allocator.
#[derive(Clone, Copy, Debug)]
pub struct PointerSet<const K: usize, const BROADCAST: bool> {
    /// The exact sharers are `pointers[..len]` while `regions` is zero.
    pointers: [CacheId; K],
    len: u32,
    num_caches: u32,
    /// Bit `r` covers caches `r * per .. (r + 1) * per`; non-zero exactly
    /// when the pointers have overflowed.
    regions: u64,
}

/// The coarse format: two pointers, then `region_count` regions.
pub type CoarseVector = PointerSet<2, false>;

impl<const K: usize, const BROADCAST: bool> PointerSet<K, BROADCAST> {
    fn pointers(&self) -> &[CacheId] {
        &self.pointers[..self.len as usize]
    }

    /// Caches per region bit.
    fn per_region(&self) -> usize {
        let n = self.num_caches as usize;
        if BROADCAST {
            n
        } else {
            caches_per_region(n)
        }
    }

    fn region_bit(&self, cache: CacheId) -> u64 {
        1 << (cache.index() / self.per_region())
    }

    fn assert_in_range(&self, cache: CacheId) {
        assert!(
            cache.raw() < self.num_caches,
            "{cache} out of range for {} caches",
            self.num_caches
        );
    }
}

impl<const K: usize, const BROADCAST: bool> SharerSet for PointerSet<K, BROADCAST> {
    fn new(num_caches: usize) -> Self {
        assert!(num_caches > 0, "need at least one cache");
        assert!(
            u32::try_from(num_caches).is_ok(),
            "cache ids are 32-bit: no pointer tracks {num_caches} caches"
        );
        PointerSet {
            pointers: [CacheId::default(); K],
            len: 0,
            num_caches: num_caches as u32,
            regions: 0,
        }
    }

    fn add(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        let len = self.len as usize;
        if self.regions != 0 {
            self.regions |= self.region_bit(cache);
        } else if !self.pointers().contains(&cache) {
            if len < K {
                self.pointers[len] = cache;
                self.len += 1;
            } else {
                // Overflow: the pointers and the newcomer become regions.
                let regions = self.pointers.iter().map(|&c| self.region_bit(c));
                self.regions = regions.fold(self.region_bit(cache), |mask, bit| mask | bit);
                self.len = 0;
            }
        }
    }

    /// A region may cover other live sharers, so once the pointers have
    /// overflowed a removal stays conservative.
    fn remove(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        if let Some(i) = self.pointers().iter().position(|&p| p == cache) {
            self.len -= 1;
            self.pointers.swap(i, self.len as usize);
        }
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        if self.regions == 0 {
            self.pointers().contains(&cache)
        } else {
            cache.raw() < self.num_caches && self.regions & self.region_bit(cache) != 0
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.regions == 0
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        if self.regions == 0 {
            let start = out.len();
            out.extend_from_slice(self.pointers());
            out[start..].sort_unstable();
            return;
        }
        let per = self.per_region();
        let mut regions = self.regions;
        while regions != 0 {
            let first = regions.trailing_zeros() as usize * per;
            let end = (first + per).min(self.num_caches as usize);
            out.extend((first..end).map(|c| CacheId::new(c as u32)));
            regions &= regions - 1;
        }
    }

    /// A region of a single cache is still exact.
    fn exact_count(&self) -> Option<usize> {
        if self.regions == 0 {
            Some(self.len as usize)
        } else {
            (self.per_region() == 1).then(|| self.regions.count_ones() as usize)
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.regions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LimitedPointer;

    #[test]
    fn pointer_mode_is_exact() {
        let mut s = CoarseVector::new(64);
        s.add(CacheId::new(50));
        s.add(CacheId::new(10));
        assert_eq!(s.exact_count(), Some(2));
        assert_eq!(
            s.invalidation_targets(),
            vec![CacheId::new(10), CacheId::new(50)]
        );
        s.remove(CacheId::new(10));
        assert!(!s.may_contain(CacheId::new(10)));
        assert_eq!(s.exact_count(), Some(1));
    }

    #[test]
    fn overflow_switches_to_coarse_superset() {
        let mut s = CoarseVector::new(64);
        let sharers = [CacheId::new(1), CacheId::new(20), CacheId::new(40)];
        for &c in &sharers {
            s.add(c);
        }
        assert_eq!(s.exact_count(), None);
        // 12 regions of 6 caches: the three sharers' regions, in order.
        let regions = [0..6, 18..24, 36..42].into_iter().flatten();
        let expected: Vec<CacheId> = regions.map(CacheId::new).collect();
        assert_eq!(s.invalidation_targets(), expected);
        assert!(!s.may_contain(CacheId::new(6)));
    }

    #[test]
    fn tiny_systems_stay_exact_even_in_coarse_mode() {
        // With 4 caches the region count (2*log2(4)=4) covers one cache per
        // region, so even the coarse fallback is exact.
        let mut s = CoarseVector::new(4);
        for i in 0..4u32 {
            s.add(CacheId::new(i));
        }
        assert_eq!(s.exact_count(), Some(4));
        assert_eq!(s.invalidation_targets().len(), 4);
    }

    #[test]
    fn a_limited_pointer_broadcasts_on_its_fifth_sharer() {
        let mut s = LimitedPointer::new(64);
        for c in [9u32, 5, 9, 40, 2] {
            s.add(CacheId::new(c));
        }
        assert_eq!(s.exact_count(), Some(4), "a duplicate add takes no pointer");
        s.add(CacheId::new(63));
        assert_eq!(s.exact_count(), None);
        assert_eq!(s.invalidation_targets().len(), 64);
        s.remove(CacheId::new(0));
        assert!(
            s.may_contain(CacheId::new(0)),
            "conservative after overflow"
        );
        assert!(!s.may_contain(CacheId::new(64)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.exact_count(), Some(0));
    }

    #[test]
    fn storage_bits_follow_the_paper_formula() {
        assert_eq!(entry_bits(16), 2 * 4 + 1);
        assert_eq!(entry_bits(1024), 2 * 10 + 1);
        assert_eq!(entry_bits(2), 2 + 1);
        assert_eq!(entry_bits(256), 2 * 8 + 1);
    }

    #[test]
    fn region_geometry_is_consistent() {
        for n in [2usize, 4, 16, 32, 64, 100, 256, 1024, 2048] {
            let regions = region_count(n);
            let per = caches_per_region(n);
            assert!(
                regions * per >= n,
                "regions must cover all caches for n={n}"
            );
            assert!(regions <= 64);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut s = CoarseVector::new(8);
        s.add(CacheId::new(9));
    }
}
