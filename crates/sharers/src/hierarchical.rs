//! What a two-level hierarchical sharer entry costs.
//!
//! The paper's *Sparse Hierarchical* / *Cuckoo Hierarchical* format
//! (Section 3.3, after Wallach's PHD and Guo et al.): sharers are tracked by
//! a small *root* vector with one bit per cache *group*, plus per-group
//! *leaf* vectors for the groups that actually contain sharers.  Splitting
//! an `N`-bit vector into `√N` groups of `√N` caches keeps any single access
//! to `O(√N)` bits.
//!
//! The format is exact, so the caches an entry names are a full vector's:
//! the directory builds a `@hier` spec over the same representation as a
//! full-vector spec of its cache count — a [`PresenceWord`] of 16, 32 or 64
//! bits up to 64 caches, a [`WideBitVector`] above.  What the table stores
//! is therefore the flat vector, not a root and leaves; what differs is
//! the price, [`entry_bits`]: the
//! *primary-entry* width a directory provisions and the analytical model
//! charges — the root vector plus one resident leaf, which is also all a
//! lookup or update touches.  The further leaves of a block shared across
//! groups, which a hierarchical directory keeps in additional entries with
//! replicated tags, are charged nowhere.
//!
//! [`PresenceWord`]: crate::PresenceWord
//! [`WideBitVector`]: crate::WideBitVector

/// Number of cache groups (root-vector bits) used for `num_caches` caches.
#[must_use]
pub(crate) fn group_count(num_caches: usize) -> usize {
    (num_caches as f64).sqrt().ceil() as usize
}

/// Number of caches per group (leaf-vector bits).
#[must_use]
pub(crate) fn group_size(num_caches: usize) -> usize {
    num_caches.div_ceil(group_count(num_caches))
}

/// Primary-entry sharer storage bits: the root vector plus one leaf vector.
#[must_use]
pub fn entry_bits(num_caches: usize) -> u64 {
    (group_count(num_caches) + group_size(num_caches)) as u64
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
    fn access_touches_root_plus_one_leaf() {
        assert_eq!(entry_bits(1024), 32 + 32);
        assert!(entry_bits(1024) < crate::full::vector_bits(1024));
    }
}
