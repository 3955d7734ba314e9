//! Sharer-set representations for coherence-directory entries.
//!
//! Every directory entry tracks *which private caches hold a copy* of the
//! entry's block.  The paper deliberately decouples this per-entry sharer
//! representation from the organization of the directory itself
//! (Section 6: "The Cuckoo organization dictates only the organization of
//! the directory itself, not the contents of each entry"), and evaluates the
//! Cuckoo tag organization combined with both the *coarse* and the
//! *hierarchical* sharer formats (Figure 13).
//!
//! This crate provides the four formats used across the evaluation, in
//! three representations:
//!
//! * [`FullBitVector`] / [`WideBitVector`] — one presence bit per cache
//!   (the traditional Sparse format whose area grows linearly with core
//!   count): the presence word itself up to 64 caches, heap words above.
//!   The exact two-level Sparse/Cuckoo *Hierarchical* format names the same
//!   caches, so it is one of these too; only its price differs
//!   ([`hierarchical`]).
//! * [`coarse::PointerSet`] — `K` exact pointers, then a mask of regions:
//!   as [`CoarseVector`], two pointers within `2·log₂(caches)` bits falling
//!   back to a coarse-grained region vector (the Sparse/Cuckoo *Coarse*
//!   format, after Gupta et al. and the SGI Origin); as [`LimitedPointer`],
//!   four pointers falling back to one region, a broadcast.
//!
//! All representations implement [`SharerSet`], the semantic operations
//! (add/remove/invalidation targets); what an entry of each format costs in
//! bits is a closed form of the cache count alone,
//! [`SharerFormat::entry_bits`].
//!
//! # Conservativeness
//!
//! Compressed formats may *over*-approximate the sharer set (they return a
//! superset of the true sharers, never a subset), because invalidating a
//! non-sharer is merely wasteful while missing a sharer breaks coherence.
//! [`SharerSet::is_exact`] reports whether the current contents are precise.
//!
//! # Example
//!
//! ```
//! use ccd_common::CacheId;
//! use ccd_sharers::{CoarseVector, SharerSet};
//!
//! let mut sharers = CoarseVector::new(32);
//! sharers.add(CacheId::new(3));
//! sharers.add(CacheId::new(17));
//! assert!(sharers.is_exact());
//! assert_eq!(sharers.invalidation_targets(), vec![CacheId::new(3), CacheId::new(17)]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod coarse;
pub mod full;
pub mod hierarchical;
pub mod limited;

pub use coarse::CoarseVector;
pub use full::{FullBitVector, WideBitVector};
pub use limited::LimitedPointer;

use ccd_common::CacheId;
use std::fmt::Debug;

/// A per-directory-entry sharer set.
///
/// Implementations must be conservative: [`SharerSet::may_contain`] and
/// [`SharerSet::invalidation_targets`] may over-approximate but never
/// under-approximate the set of caches that were [`SharerSet::add`]ed and
/// not since [`SharerSet::remove`]d.
///
/// How many caches a set describes is the directory's to know, not the
/// set's: the directory creates every entry's set with its own cache count
/// and checks each cache an operation names against that count once, at
/// its op entry.  `add` and `remove` may therefore assume `cache` is in
/// range; the full vectors do not even store the count (an entry of up to
/// 64 caches is its presence word), while a pointer set keeps it for its
/// region arithmetic and asserts it.  `may_contain` answers `false` for any
/// cache past the count.
pub trait SharerSet: Clone + Debug + Send {
    /// Creates an empty sharer set sized for `num_caches` private caches,
    /// using the representation's default parameters.
    fn new(num_caches: usize) -> Self;

    /// Records that `cache` holds a copy of the block.  `cache` is below
    /// the count the set was created for (see the trait docs).
    fn add(&mut self, cache: CacheId);

    /// Records that `cache` no longer holds a copy of the block.
    ///
    /// Compressed representations that cannot express the removal precisely
    /// are allowed to keep `cache` in their over-approximation.
    fn remove(&mut self, cache: CacheId);

    /// Returns `true` if `cache` *may* hold a copy (exact for precise
    /// representations, conservative for compressed ones).
    fn may_contain(&self, cache: CacheId) -> bool;

    /// Returns `true` when the set is known to be empty.
    ///
    /// A conservative representation may return `false` even when no true
    /// sharers remain (e.g. a coarse vector after removals).
    fn is_empty(&self) -> bool;

    /// Appends the caches that must receive an invalidation to guarantee no
    /// copy survives — a superset of the true sharers, in ascending order —
    /// to `out`, allocating nothing beyond `out`'s own growth.  The
    /// directory organizations' `apply` implementations own and reuse the
    /// buffer, so a warmed-up buffer makes the operation allocation-free.
    fn extend_targets(&self, out: &mut Vec<CacheId>);

    /// [`SharerSet::extend_targets`] into a fresh vector.
    fn invalidation_targets(&self) -> Vec<CacheId> {
        let mut targets = Vec::new();
        self.extend_targets(&mut targets);
        targets
    }

    /// `true` when the current contents are known to be an exact sharer
    /// list rather than an over-approximation.
    fn is_exact(&self) -> bool;

    /// Number of exact sharers if known, `None` when only an upper bound is
    /// representable.
    fn exact_count(&self) -> Option<usize>;

    /// Removes all sharers.
    fn clear(&mut self);
}

/// The sharer-vector formats evaluated in the paper, as a runtime choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SharerFormat {
    /// One presence bit per cache.
    #[default]
    FullVector,
    /// A few exact pointers, broadcast on overflow.
    LimitedPointer,
    /// Exact pointers in `2·log₂(caches)` bits with coarse-vector fallback.
    Coarse,
    /// Two-level hierarchical bit vector.
    Hierarchical,
}

impl SharerFormat {
    /// All formats, in the order the paper discusses them.
    #[must_use]
    pub const fn all() -> [SharerFormat; 4] {
        [
            SharerFormat::FullVector,
            SharerFormat::LimitedPointer,
            SharerFormat::Coarse,
            SharerFormat::Hierarchical,
        ]
    }

    /// Bits one directory entry provisions for a sharer set of this format
    /// over `num_caches` caches (excluding the tag and state bits): the
    /// worst-case width in hardware, not what a set currently occupies.  A
    /// read or update touches the same width — the hierarchical format's
    /// entry is the root vector plus the one leaf an access reaches.
    ///
    /// These closed forms are what the analytical energy and area model
    /// (Figures 4 and 13) charges.
    #[must_use]
    pub fn entry_bits(self, num_caches: usize) -> u64 {
        match self {
            SharerFormat::FullVector => full::vector_bits(num_caches),
            SharerFormat::LimitedPointer => limited::entry_bits(num_caches),
            SharerFormat::Coarse => coarse::entry_bits(num_caches),
            SharerFormat::Hierarchical => hierarchical::entry_bits(num_caches),
        }
    }
}

impl std::str::FromStr for SharerFormat {
    type Err = ccd_common::ConfigError;

    /// Parses the names used in directory-spec strings: `full`/`full-vector`,
    /// `limited`/`limited-pointer`, `coarse`, `hier`/`hierarchical`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" | "full-vector" => Ok(SharerFormat::FullVector),
            "limited" | "limited-pointer" => Ok(SharerFormat::LimitedPointer),
            "coarse" => Ok(SharerFormat::Coarse),
            "hier" | "hierarchical" => Ok(SharerFormat::Hierarchical),
            other => Err(ccd_common::ConfigError::Parse {
                what: format!("unknown sharer format `{other}`"),
            }),
        }
    }
}

impl std::fmt::Display for SharerFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SharerFormat::FullVector => "full-vector",
            SharerFormat::LimitedPointer => "limited-pointer",
            SharerFormat::Coarse => "coarse",
            SharerFormat::Hierarchical => "hierarchical",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_bits_scale_sensibly() {
        // Full vector grows linearly, coarse/hierarchical sub-linearly.
        let full_16 = SharerFormat::FullVector.entry_bits(16);
        let full_1024 = SharerFormat::FullVector.entry_bits(1024);
        assert_eq!(full_16, 16);
        assert_eq!(full_1024, 1024);

        let coarse_1024 = SharerFormat::Coarse.entry_bits(1024);
        assert!(coarse_1024 <= 2 * 10 + 2, "coarse = {coarse_1024}");

        let hier_1024 = SharerFormat::Hierarchical.entry_bits(1024);
        assert!(hier_1024 < full_1024 / 4, "hier = {hier_1024}");
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(SharerFormat::FullVector.to_string(), "full-vector");
        assert_eq!(SharerFormat::Coarse.to_string(), "coarse");
        assert_eq!(SharerFormat::Hierarchical.to_string(), "hierarchical");
        assert_eq!(SharerFormat::LimitedPointer.to_string(), "limited-pointer");
    }
}
