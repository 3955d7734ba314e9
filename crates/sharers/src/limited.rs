//! Limited-pointer sharer representation.
//!
//! Stores up to a small fixed number of exact cache pointers per entry
//! (Agarwal et al.'s Dir_i schemes, cited as \[3\] in the paper).  When more
//! caches than pointers share a block the entry *overflows* and the
//! representation becomes conservative: every cache is considered a
//! potential sharer until the entry is cleared (the classic
//! broadcast-on-overflow, Dir_i-B, policy).

use crate::SharerSet;
use ccd_common::{ceil_log2, CacheId};

/// Default number of exact pointers stored per entry.
pub const DEFAULT_POINTERS: usize = 4;

/// Per-entry storage bits for `pointers` pointers over `num_caches` caches:
/// the pointers themselves plus one overflow bit.
#[must_use]
pub fn entry_bits(num_caches: usize, pointers: usize) -> u64 {
    pointers as u64 * u64::from(ceil_log2(num_caches as u64).max(1)) + 1
}

/// Per-entry storage bits with the default pointer count.
#[must_use]
pub fn default_entry_bits(num_caches: usize) -> u64 {
    entry_bits(num_caches, DEFAULT_POINTERS)
}

/// A limited-pointer sharer set with broadcast-on-overflow semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LimitedPointer {
    pointers: Vec<CacheId>,
    capacity: usize,
    overflowed: bool,
    num_caches: usize,
}

impl LimitedPointer {
    /// Creates an empty set with an explicit pointer budget.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `num_caches` is zero.
    #[must_use]
    pub fn with_capacity(num_caches: usize, capacity: usize) -> Self {
        assert!(num_caches > 0, "need at least one cache");
        assert!(capacity > 0, "need at least one pointer");
        LimitedPointer {
            pointers: Vec::with_capacity(capacity),
            capacity,
            overflowed: false,
            num_caches,
        }
    }

    /// The pointer budget of this entry.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn assert_in_range(&self, cache: CacheId) {
        assert!(
            cache.index() < self.num_caches,
            "{cache} out of range for {} caches",
            self.num_caches
        );
    }
}

impl SharerSet for LimitedPointer {
    fn new(num_caches: usize) -> Self {
        Self::with_capacity(num_caches, DEFAULT_POINTERS)
    }

    fn add(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        if self.overflowed || self.pointers.contains(&cache) {
            return;
        }
        if self.pointers.len() < self.capacity {
            self.pointers.push(cache);
        } else {
            // Broadcast-on-overflow: drop the exact list, remember only that
            // "anyone may share".
            self.pointers.clear();
            self.overflowed = true;
        }
    }

    fn remove(&mut self, cache: CacheId) {
        self.assert_in_range(cache);
        if self.overflowed {
            // Cannot express a precise removal; stay conservative.
            return;
        }
        self.pointers.retain(|&p| p != cache);
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        if cache.index() >= self.num_caches {
            return false;
        }
        self.overflowed || self.pointers.contains(&cache)
    }

    fn is_empty(&self) -> bool {
        !self.overflowed && self.pointers.is_empty()
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        if self.overflowed {
            out.extend((0..self.num_caches as u32).map(CacheId::new));
        } else {
            let start = out.len();
            out.extend_from_slice(&self.pointers);
            out[start..].sort_unstable();
        }
    }

    fn is_exact(&self) -> bool {
        !self.overflowed
    }

    fn exact_count(&self) -> Option<usize> {
        (!self.overflowed).then_some(self.pointers.len())
    }

    fn clear(&mut self) {
        self.pointers.clear();
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_until_overflow() {
        let mut s = LimitedPointer::with_capacity(64, 2);
        s.add(CacheId::new(5));
        s.add(CacheId::new(9));
        assert!(s.is_exact());
        assert_eq!(s.exact_count(), Some(2));
        assert_eq!(
            s.invalidation_targets(),
            vec![CacheId::new(5), CacheId::new(9)]
        );

        // Third sharer overflows into broadcast.
        s.add(CacheId::new(40));
        assert!(!s.is_exact());
        assert_eq!(s.exact_count(), None);
        assert_eq!(s.invalidation_targets().len(), 64);
        assert!(s.may_contain(CacheId::new(0)));
        assert!(!s.is_empty());
    }

    #[test]
    fn duplicate_adds_do_not_overflow() {
        let mut s = LimitedPointer::with_capacity(16, 2);
        s.add(CacheId::new(1));
        s.add(CacheId::new(1));
        s.add(CacheId::new(1));
        assert!(s.is_exact());
        assert_eq!(s.exact_count(), Some(1));
    }

    #[test]
    fn remove_is_conservative_after_overflow() {
        let mut s = LimitedPointer::with_capacity(8, 1);
        s.add(CacheId::new(0));
        s.add(CacheId::new(1)); // overflow
        s.remove(CacheId::new(0));
        assert!(
            s.may_contain(CacheId::new(0)),
            "conservative after overflow"
        );
        s.clear();
        assert!(s.is_empty());
        assert!(s.is_exact());
    }

    #[test]
    fn remove_before_overflow_is_exact() {
        let mut s = LimitedPointer::new(32);
        s.add(CacheId::new(7));
        s.add(CacheId::new(8));
        s.remove(CacheId::new(7));
        assert!(!s.may_contain(CacheId::new(7)));
        assert_eq!(s.exact_count(), Some(1));
    }

    #[test]
    fn storage_bits_formula() {
        // 4 pointers * log2(256)=8 bits + 1 overflow bit.
        assert_eq!(default_entry_bits(256), 4 * 8 + 1);
        assert_eq!(entry_bits(1024, 2), 2 * 10 + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut s = LimitedPointer::new(4);
        s.add(CacheId::new(4));
    }
}
