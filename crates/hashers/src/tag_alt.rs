//! Tag-derived alternate-bucket family (`base_hash ^ g(tag)`).
//!
//! The cuckoo displacement loop of the other families must re-hash the
//! *victim's key* to learn its alternate buckets, which costs a key-array
//! load per kick.  This family is built so that a victim's complete
//! candidate set is recoverable from data the probe already has in hand:
//! the way it currently occupies, its set index there, and its one-byte
//! occupancy tag.
//!
//! Structure: way 0 uses a strong (two-round SplitMix64) base index, and
//! every other way XORs a small per-tag offset onto it:
//!
//! ```text
//! index_w(key) = index_0(key) ^ g_w(fingerprint(key)),   g_w(t) < BLOCK_SPAN
//! ```
//!
//! with `g_0(t) = 0` forced and, for a fixed tag `t`, all `g_w(t)` pairwise
//! distinct (each tag gets its own permutation of `0..BLOCK_SPAN`).  Two
//! consequences the table layer builds on:
//!
//! * **Tag-only displacement.**  Given a victim in `(way, index)` whose tag
//!   is `t`, `index_0 = index ^ g_way(t)` and every other candidate is
//!   `index_0 ^ g_w(t)` — bit-identical to re-hashing the victim's key,
//!   because an occupied slot's tag *is* its key's fingerprint.
//!   [`TagAltFamily::derive_all_into`] commutes exactly with
//!   [`IndexHashFamily::index_all_into`].
//! * **Block locality.**  All candidates of a key differ from `index_0`
//!   only in the low `log2(BLOCK_SPAN)` bits, so they share one aligned
//!   [`BLOCK_SPAN`]-set block.  The table's line-local tag layout exploits this
//!   by storing a block's tags contiguously: one vector load covers every
//!   candidate of a probe.

use crate::IndexHashFamily;
use ccd_common::rng::{Rng64, SplitMix64};
use ccd_common::{ConfigError, LineAddr};

/// Number of sets in one aligned candidate block (and the range of the
/// per-tag offsets `g_w`).  Power of two; with one tag byte per slot a
/// `ways × BLOCK_SPAN` block of a ≤4-way table fits one 64-byte cache line.
pub const BLOCK_SPAN: usize = 16;

/// Maximum number of ways: offsets within a block must be pairwise
/// distinct, so a family cannot have more ways than block sets.
pub const MAX_WAYS: usize = BLOCK_SPAN;

/// Odd multiplier for the tag fingerprint (the 64-bit golden-ratio
/// constant).  The top byte of `key * FP_MULTIPLIER` mixes every key bit,
/// so colliding keys rarely share a fingerprint.
pub const FP_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The occupancy tag stored for `key`: a 7-bit fingerprint with the high
/// bit set so it can never collide with an empty slot's `0` tag.
///
/// This is *the* tag encoding of the whole workspace — `CuckooTable` stores
/// exactly this byte per occupied slot, and [`TagAltFamily`] keys its
/// per-tag offset tables on the low 7 bits of it.
#[inline]
#[must_use]
pub fn fingerprint(key: u64) -> u8 {
    ((key.wrapping_mul(FP_MULTIPLIER) >> 56) as u8) | 0x80
}

/// A family whose alternate buckets are derivable from the tag array alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagAltFamily {
    ways: usize,
    /// `offsets[way][tag & 0x7F]`: the XOR offset of `way`, `< BLOCK_SPAN`.
    /// Row 0 is all zeros; for a fixed tag the column values are pairwise
    /// distinct (a per-tag permutation of `0..BLOCK_SPAN`).  All
    /// [`MAX_WAYS`] rows are kept, whatever the way count (see
    /// [`IndexHashFamily::index_all_into`]).
    offsets: Box<[[u8; 128]; MAX_WAYS]>,
    sets: usize,
    set_mask: u64,
    salt: u64,
}

impl TagAltFamily {
    /// Creates a family with a fixed default seed (directories built with
    /// the same shape hash identically).
    ///
    /// # Errors
    ///
    /// See [`TagAltFamily::with_seed`].
    pub fn new(ways: usize, sets: usize) -> Result<Self, ConfigError> {
        Self::with_seed(ways, sets, 0x7A6A_17B1_0C4A_15ED)
    }

    /// Creates a family of `ways` functions over `sets` sets, deriving the
    /// base-index salt and the per-tag offset permutations from `seed`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if `ways` or `sets` is zero,
    /// * [`ConfigError::TooLarge`] if `ways` exceeds [`MAX_WAYS`],
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two,
    /// * [`ConfigError::TooSmall`] if `sets` is below [`BLOCK_SPAN`] (the
    ///   XOR offsets would index out of range).
    pub fn with_seed(ways: usize, sets: usize, seed: u64) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::Zero { what: "ways" });
        }
        if ways > MAX_WAYS {
            return Err(ConfigError::TooLarge {
                what: "ways",
                value: ways as u64,
                max: MAX_WAYS as u64,
            });
        }
        if sets == 0 {
            return Err(ConfigError::Zero { what: "set count" });
        }
        if !ccd_common::is_power_of_two(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: sets as u64,
            });
        }
        if sets < BLOCK_SPAN {
            return Err(ConfigError::TooSmall {
                what: "set count",
                value: sets as u64,
                min: BLOCK_SPAN as u64,
            });
        }
        let mut offsets = Box::new([[0u8; 128]; MAX_WAYS]);
        for tag in 0..128u64 {
            // A per-tag permutation of 0..BLOCK_SPAN (Fisher–Yates over a
            // seeded stream), with the value 0 swapped into position 0 so
            // way 0 always uses the plain base index.
            let mut perm: [u8; BLOCK_SPAN] = core::array::from_fn(|i| i as u8);
            let mut rng = SplitMix64::new(SplitMix64::mix(seed ^ (tag.wrapping_add(1) << 8)));
            for i in (1..BLOCK_SPAN).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            if let Some(zero_at) = perm.iter().position(|&v| v == 0) {
                perm.swap(0, zero_at);
            }
            for (way, row) in offsets.iter_mut().enumerate() {
                row[tag as usize] = perm[way];
            }
        }
        Ok(TagAltFamily {
            ways,
            offsets,
            sets,
            set_mask: sets as u64 - 1,
            salt: SplitMix64::mix(seed.wrapping_add(0x1ED_C0DE)),
        })
    }

    /// The strong base index shared by all ways (way 0's index).
    #[inline]
    fn base_index(&self, block: u64) -> usize {
        let salt = self.salt;
        let mixed = SplitMix64::mix(SplitMix64::mix(block ^ salt).wrapping_add(salt));
        (mixed & self.set_mask) as usize
    }

    /// Number of sets in one aligned candidate block.
    #[must_use]
    pub fn block_span(&self) -> usize {
        BLOCK_SPAN
    }

    /// The XOR offset of `way` for `tag` (high bit of the tag ignored).
    #[inline]
    #[must_use]
    pub fn offset(&self, way: usize, tag: u8) -> usize {
        usize::from(self.offsets[way][usize::from(tag & 0x7F)])
    }

    /// The candidate index of `to_way` for the occupant of
    /// `(from_way, from_index)` whose occupancy tag is `tag`.
    ///
    /// For an occupied slot (`tag == fingerprint(key)`) this equals
    /// `self.index(to_way, key)` exactly; in particular, for two fixed ways
    /// the mapping is an involution (`alt` of `alt` is the original index).
    ///
    /// # Panics
    ///
    /// Panics when `from_way` or `to_way` is out of range.
    #[inline]
    #[must_use]
    pub fn alt_index(&self, from_way: usize, from_index: usize, tag: u8, to_way: usize) -> usize {
        (from_index ^ self.offset(from_way, tag)) ^ self.offset(to_way, tag)
    }

    /// Writes the occupant's candidate index for *every* way into
    /// `out[..ways()]`, given only its current coordinates and tag — the
    /// displacement-loop counterpart of
    /// [`IndexHashFamily::index_all_into`], commuting with it exactly:
    /// deriving from any `(way, index_way(key), fingerprint(key))` yields
    /// the same indices as hashing `key`.  Like `index_all_into` it loops
    /// over `out` itself.
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than [`IndexHashFamily::ways`] or
    /// `from_way` is out of range.
    #[inline(always)]
    pub fn derive_all_into(&self, from_way: usize, from_index: usize, tag: u8, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways,
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways
        );
        let t = usize::from(tag & 0x7F);
        let base = from_index ^ usize::from(self.offsets[from_way][t]);
        for (slot, row) in out.iter_mut().zip(self.offsets.iter()) {
            *slot = base ^ usize::from(row[t]);
        }
    }
}

impl IndexHashFamily for TagAltFamily {
    fn ways(&self) -> usize {
        self.ways
    }

    fn sets(&self) -> usize {
        self.sets
    }

    #[inline]
    fn index(&self, way: usize, line: LineAddr) -> usize {
        let block = line.block_number();
        self.base_index(block) ^ self.offset(way, fingerprint(block))
    }

    #[inline(always)]
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways,
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways
        );
        let block = line.block_number();
        let base = self.base_index(block);
        let t = usize::from(fingerprint(block) & 0x7F);
        for (slot, row) in out.iter_mut().zip(self.offsets.iter()) {
            *slot = base ^ usize::from(row[t]);
        }
    }

    fn logic_levels(&self) -> u32 {
        // The strong two-round base index dominates (see `StrongFamily`);
        // the fingerprint multiply overlaps it and the per-way XOR from a
        // 128-entry table adds one level on top.
        25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64 as Rng};

    #[test]
    fn construction_validates_parameters() {
        assert!(TagAltFamily::new(0, 64).is_err());
        assert!(TagAltFamily::new(MAX_WAYS + 1, 64).is_err());
        assert!(TagAltFamily::new(4, 0).is_err());
        assert!(TagAltFamily::new(4, 100).is_err());
        assert!(TagAltFamily::new(4, BLOCK_SPAN / 2).is_err(), "sub-block");
        assert!(TagAltFamily::new(4, BLOCK_SPAN).is_ok());
        assert!(TagAltFamily::new(MAX_WAYS, 1024).is_ok());
    }

    #[test]
    fn way_zero_is_the_base_index_and_candidates_share_a_block() {
        let f = TagAltFamily::new(4, 1024).unwrap();
        let mut rng = Rng::new(11);
        for _ in 0..500 {
            let block = rng.next_u64() >> 6;
            let line = LineAddr::from_block_number(block);
            let idx = f.all_indices(line);
            assert_eq!(idx[0], f.base_index(block), "way 0 must be unoffset");
            let block_base = idx[0] & !(BLOCK_SPAN - 1);
            for (way, &i) in idx.iter().enumerate() {
                assert_eq!(
                    i & !(BLOCK_SPAN - 1),
                    block_base,
                    "way {way} left the block"
                );
            }
            // Per-tag offsets are a permutation prefix: candidates distinct.
            for a in 0..idx.len() {
                for b in a + 1..idx.len() {
                    assert_ne!(idx[a], idx[b], "ways {a} and {b} collided");
                }
            }
        }
    }

    #[test]
    fn derivation_commutes_with_hashing_from_every_way() {
        let f = TagAltFamily::with_seed(4, 512, 99).unwrap();
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let block = rng.next_u64() >> 6;
            let hashed = f.all_indices(LineAddr::from_block_number(block));
            let tag = fingerprint(block);
            for from_way in 0..4 {
                let mut derived = [0usize; 4];
                f.derive_all_into(from_way, hashed[from_way], tag, &mut derived);
                assert_eq!(derived.to_vec(), hashed, "derivation from way {from_way}");
            }
        }
    }

    #[test]
    fn alt_index_is_an_involution() {
        let f = TagAltFamily::new(2, 256).unwrap();
        let mut rng = Rng::new(21);
        for _ in 0..1000 {
            let block = rng.next_u64() >> 6;
            let tag = fingerprint(block);
            let i0 = f.index(0, LineAddr::from_block_number(block));
            let i1 = f.alt_index(0, i0, tag, 1);
            assert_eq!(f.alt_index(1, i1, tag, 0), i0, "alt∘alt must be identity");
            assert_eq!(i1, f.index(1, LineAddr::from_block_number(block)));
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = TagAltFamily::with_seed(2, 1024, 1).unwrap();
        let b = TagAltFamily::with_seed(2, 1024, 2).unwrap();
        let differs = (0..100u64).any(|block| {
            let line = LineAddr::from_block_number(block);
            a.index(0, line) != b.index(0, line)
        });
        assert!(differs);
    }

    #[test]
    fn base_index_is_uniform_and_avalanches() {
        let f = TagAltFamily::new(1, 1024).unwrap();
        let mut rng = Rng::new(3);
        let trials = 20_000;
        let changed = (0..trials)
            .filter(|_| {
                let block = rng.next_u64() >> 6;
                let bit = rng.next_below(40);
                f.base_index(block) != f.base_index(block ^ (1 << bit))
            })
            .count();
        let rate = changed as f64 / trials as f64;
        assert!(rate > 0.99, "avalanche rate too low: {rate}");
    }

    #[test]
    fn fingerprints_are_never_the_empty_tag() {
        let mut rng = Rng::new(0xF1);
        for _ in 0..10_000 {
            let fp = fingerprint(rng.next_u64());
            assert!(fp >= 0x80, "fingerprint {fp:#x} must have the high bit set");
        }
    }
}
