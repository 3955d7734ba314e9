//! Limited-pointer sharer representation.
//!
//! Stores up to a small fixed number of exact cache pointers per entry
//! (Agarwal et al.'s Dir_i schemes, cited as \[3\] in the paper).  When more
//! caches than pointers share a block the entry *overflows* and every cache
//! is considered a potential sharer until the entry is cleared (the classic
//! broadcast-on-overflow, Dir_i-B, policy): a coarse vector whose one region
//! is every cache ([`crate::coarse::PointerSet`]).

use ccd_common::ceil_log2;

/// Default number of exact pointers stored per entry.
pub(crate) const DEFAULT_POINTERS: usize = 4;

/// A limited-pointer sharer set with broadcast-on-overflow semantics.
pub type LimitedPointer = crate::coarse::PointerSet<DEFAULT_POINTERS, true>;

/// Per-entry storage bits over `num_caches` caches: the pointers
/// themselves plus one overflow bit.
#[must_use]
pub fn entry_bits(num_caches: usize) -> u64 {
    DEFAULT_POINTERS as u64 * u64::from(ceil_log2(num_caches as u64).max(1)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_bits_formula() {
        // 4 pointers * log2(256)=8 bits + 1 overflow bit.
        assert_eq!(entry_bits(256), 4 * 8 + 1);
        assert_eq!(entry_bits(1024), 4 * 10 + 1);
    }
}
