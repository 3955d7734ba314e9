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

use crate::SharerSet;
use ccd_common::{ceil_log2, CacheId};

/// Per-entry sharer storage bits: `2·log₂(N)` sharer bits plus a mode bit.
#[must_use]
pub fn entry_bits(num_caches: usize) -> u64 {
    2 * u64::from(ceil_log2(num_caches as u64).max(1)) + 1
}

/// Number of region bits available in coarse mode.
#[must_use]
pub fn region_count(num_caches: usize) -> usize {
    (2 * ceil_log2(num_caches as u64).max(1) as usize).min(num_caches)
}

/// Number of caches covered by each region bit.
#[must_use]
pub fn caches_per_region(num_caches: usize) -> usize {
    num_caches.div_ceil(region_count(num_caches))
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// Up to two exact pointers.
    Pointers(Vec<CacheId>),
    /// Region bit mask (bit `r` covers caches `r*g .. (r+1)*g`).
    Coarse(u64),
}

/// A coarse sharer vector with a two-pointer exact fast path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseVector {
    mode: Mode,
    num_caches: usize,
}

impl CoarseVector {
    /// Maximum number of exact pointers held before falling back to the
    /// coarse representation.
    pub const MAX_POINTERS: usize = 2;

    /// Returns `true` when the entry has fallen back to the coarse
    /// region-vector representation.
    #[must_use]
    pub fn is_coarse(&self) -> bool {
        matches!(self.mode, Mode::Coarse(_))
    }

    fn region_of(&self, cache: CacheId) -> usize {
        cache.index() / caches_per_region(self.num_caches)
    }

    fn caches_in_region(&self, region: usize) -> impl Iterator<Item = CacheId> {
        let g = caches_per_region(self.num_caches);
        let start = region * g;
        let end = ((region + 1) * g).min(self.num_caches);
        (start..end).map(|i| CacheId::new(i as u32))
    }

    fn assert_in_range(&self, cache: CacheId) {
        assert!(
            cache.index() < self.num_caches,
            "{cache} out of range for {} caches",
            self.num_caches
        );
    }
}

impl SharerSet for CoarseVector {
    fn new(num_caches: usize) -> Self {
        assert!(num_caches > 0, "need at least one cache");
        assert!(
            region_count(num_caches) <= 64,
            "coarse vector supports at most 64 regions ({num_caches} caches would need more)"
        );
        CoarseVector {
            mode: Mode::Pointers(Vec::with_capacity(Self::MAX_POINTERS)),
            num_caches,
        }
    }

    fn add(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        match &mut self.mode {
            Mode::Pointers(ptrs) => {
                if ptrs.contains(&cache) {
                    return;
                }
                if ptrs.len() < Self::MAX_POINTERS {
                    ptrs.push(cache);
                } else {
                    // Overflow: reinterpret as a region vector covering the
                    // existing pointers plus the new sharer.
                    let mut mask = 0u64;
                    let existing: Vec<CacheId> = ptrs.clone();
                    for c in existing.into_iter().chain(std::iter::once(cache)) {
                        mask |= 1 << self.region_of(c);
                    }
                    self.mode = Mode::Coarse(mask);
                }
            }
            Mode::Coarse(mask) => {
                let region = cache.index() / caches_per_region(self.num_caches);
                *mask |= 1 << region;
            }
        }
    }

    fn remove(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        match &mut self.mode {
            Mode::Pointers(ptrs) => ptrs.retain(|&p| p != cache),
            // A coarse region bit may cover other live sharers, so removal
            // must stay conservative.
            Mode::Coarse(_) => {}
        }
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        if cache.index() >= self.num_caches {
            return false;
        }
        match &self.mode {
            Mode::Pointers(ptrs) => ptrs.contains(&cache),
            Mode::Coarse(mask) => mask & (1 << self.region_of(cache)) != 0,
        }
    }

    fn is_empty(&self) -> bool {
        match &self.mode {
            Mode::Pointers(ptrs) => ptrs.is_empty(),
            Mode::Coarse(mask) => *mask == 0,
        }
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        match &self.mode {
            Mode::Pointers(ptrs) => {
                let start = out.len();
                out.extend_from_slice(ptrs);
                out[start..].sort_unstable();
            }
            Mode::Coarse(mask) => {
                for region in 0..region_count(self.num_caches) {
                    if mask & (1 << region) != 0 {
                        out.extend(self.caches_in_region(region));
                    }
                }
            }
        }
    }

    fn is_exact(&self) -> bool {
        match &self.mode {
            Mode::Pointers(_) => true,
            // A region covering a single cache is still exact.
            Mode::Coarse(_) => caches_per_region(self.num_caches) == 1,
        }
    }

    fn exact_count(&self) -> Option<usize> {
        match &self.mode {
            Mode::Pointers(ptrs) => Some(ptrs.len()),
            Mode::Coarse(mask) => {
                (caches_per_region(self.num_caches) == 1).then(|| mask.count_ones() as usize)
            }
        }
    }

    fn clear(&mut self) {
        self.mode = Mode::Pointers(Vec::with_capacity(Self::MAX_POINTERS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_mode_is_exact() {
        let mut s = CoarseVector::new(64);
        s.add(CacheId::new(10));
        s.add(CacheId::new(50));
        assert!(!s.is_coarse());
        assert!(s.is_exact());
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
        assert!(s.is_coarse());
        assert!(!s.is_exact());
        let targets = s.invalidation_targets();
        // Conservative: all true sharers are covered.
        for &c in &sharers {
            assert!(targets.contains(&c), "missing true sharer {c}");
            assert!(s.may_contain(c));
        }
        // Each target's region must contain at least one true sharer region.
        assert!(targets.len() >= sharers.len());
    }

    #[test]
    fn coarse_removal_is_conservative() {
        let mut s = CoarseVector::new(32);
        for i in 0..3u32 {
            s.add(CacheId::new(i * 10));
        }
        assert!(s.is_coarse());
        s.remove(CacheId::new(0));
        assert!(
            s.may_contain(CacheId::new(0)),
            "coarse removal stays conservative"
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn clear_returns_to_pointer_mode() {
        let mut s = CoarseVector::new(32);
        for i in 0..5u32 {
            s.add(CacheId::new(i));
        }
        assert!(s.is_coarse());
        s.clear();
        assert!(!s.is_coarse());
        assert!(s.is_empty());
        assert!(s.is_exact());
    }

    #[test]
    fn tiny_systems_stay_exact_even_in_coarse_mode() {
        // With 4 caches the region count (2*log2(4)=4) covers one cache per
        // region, so even the coarse fallback is exact.
        let mut s = CoarseVector::new(4);
        for i in 0..4u32 {
            s.add(CacheId::new(i));
        }
        assert!(s.is_exact());
        assert_eq!(s.exact_count(), Some(4));
        assert_eq!(s.invalidation_targets().len(), 4);
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
