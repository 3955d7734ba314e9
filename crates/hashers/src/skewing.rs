//! Seznec–Bodin skewing hash functions.
//!
//! The paper's hardware uses "the skewing hash functions from Seznec and
//! Bodin" (Section 5.5): each way's index is computed from two (or more)
//! bit-fields of the block address combined with XOR after a per-way
//! bit-permutation.  The permutation used here is the classic one from the
//! skewed-associative cache literature: a circular right-rotation of the
//! first field by the way number, which requires only wires plus one level
//! of XOR gates per output bit.
//!
//! Formally, for a table of `2^n` sets and block address `A`, split `A`
//! (above the offset bits) into consecutive `n`-bit fields `A1`, `A2`,
//! `A3`, …; way `i` uses
//!
//! ```text
//! h_i(A) = rot_i(A1) XOR rot_{2i}(A2) XOR A3 XOR A4 ...
//! ```
//!
//! where `rot_k` is a k-bit circular rotation within the n-bit field.  Using
//! a different rotation per way de-correlates the ways while folding all
//! address bits into every index (so two blocks conflict in one way only if
//! a specific XOR of their address fields matches, which is unlikely to hold
//! simultaneously for several ways).

use crate::IndexHashFamily;
use ccd_common::{ceil_log2, ConfigError, LineAddr};

/// Maximum number of ways supported by one skewing family.
pub const MAX_WAYS: usize = 16;

/// The Seznec–Bodin-style skewing function family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkewingFamily {
    ways: usize,
    sets: usize,
    index_bits: u32,
    /// Per-way `(rot(A1), rot(A2))` rotation amounts, pre-reduced modulo the
    /// field width so the per-index hot path never divides — for all
    /// [`MAX_WAYS`] ways, so `index_all_into`'s loop has the buffer's trip
    /// count.
    rotations: [(u32, u32); MAX_WAYS],
}

impl SkewingFamily {
    /// Creates a family of `ways` skewing functions over `sets` sets.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if `ways` is zero,
    /// * [`ConfigError::TooLarge`] if `ways` exceeds [`MAX_WAYS`],
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two,
    /// * [`ConfigError::TooSmall`] if `sets < 2` (a single set cannot be
    ///   meaningfully skewed).
    pub fn new(ways: usize, sets: usize) -> Result<Self, ConfigError> {
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
        if !ccd_common::is_power_of_two(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: sets as u64,
            });
        }
        if sets < 2 {
            return Err(ConfigError::TooSmall {
                what: "set count",
                value: sets as u64,
                min: 2,
            });
        }
        let index_bits = ceil_log2(sets as u64);
        let rotations = std::array::from_fn(|way| {
            let way = way as u32;
            (way % index_bits, (2 * way) % index_bits)
        });
        Ok(SkewingFamily {
            ways,
            sets,
            index_bits,
            rotations,
        })
    }

    /// The line whose bits above the index field are `high` (`line >> n`
    /// for `2^n` sets) and whose way-`way` index is `index`: the inverse of
    /// [`IndexHashFamily::index`] once the high bits are known.  Every field
    /// but the first enters the index through an XOR and the first through a
    /// rotation, so `A1 = rotl(index XOR rot(A2) XOR A3 XOR …, r1)`, and
    /// exactly one line with these high bits lands on `index` in `way`.
    ///
    /// This is what lets a skewed structure store only the address bits its
    /// set index does not determine, as a skewed cache's tag does.
    #[inline]
    #[must_use]
    pub fn line_from_high(&self, way: usize, index: usize, high: u64) -> LineAddr {
        let n = self.index_bits;
        let mask = (1u64 << n) - 1;
        let a2 = high & mask;
        let mut remaining = high >> n;
        let mut folded = 0u64;
        while remaining != 0 {
            folded ^= remaining & mask;
            remaining >>= n;
        }
        let (rot1, rot2) = self.rotations[way];
        let rotated = (index as u64 ^ Self::rotate_field(a2, rot2, n) ^ folded) & mask;
        // A right rotation by `n - r1` undoes the right rotation by `r1`.
        let a1 = Self::rotate_field(rotated, (n - rot1) % n, n);
        LineAddr::from_block_number((high << n) | a1)
    }

    /// Rotates the low `bits` bits of `field` right by `amount`
    /// (pre-reduced: `amount < bits`).
    #[inline]
    fn rotate_field(field: u64, amount: u32, bits: u32) -> u64 {
        debug_assert!(amount < bits, "rotation amounts are pre-reduced");
        let mask = (1u64 << bits) - 1;
        let field = field & mask;
        if amount == 0 {
            field
        } else {
            ((field >> amount) | (field << (bits - amount))) & mask
        }
    }
}

impl IndexHashFamily for SkewingFamily {
    fn ways(&self) -> usize {
        self.ways
    }

    fn sets(&self) -> usize {
        self.sets
    }

    #[inline]
    fn index(&self, way: usize, line: LineAddr) -> usize {
        assert!(
            way < self.ways,
            "way {way} out of range (ways = {})",
            self.ways
        );
        let n = self.index_bits;
        let mask = (1u64 << n) - 1;
        let mut remaining = line.block_number();
        // First field: rotated by the way number.
        let a1 = remaining & mask;
        remaining >>= n;
        // Second field: rotated by twice the way number to decorrelate.
        let a2 = remaining & mask;
        remaining >>= n;
        let (rot1, rot2) = self.rotations[way];
        let mut h = Self::rotate_field(a1, rot1, n) ^ Self::rotate_field(a2, rot2, n);
        // Fold any remaining high-order fields straight in so that every
        // address bit participates in every index.
        while remaining != 0 {
            h ^= remaining & mask;
            remaining >>= n;
        }
        (h & mask) as usize
    }

    #[inline(always)]
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways,
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways
        );
        // Decompose the address into its fields once; only the per-way
        // rotations differ between ways (XOR is associative, so folding the
        // high-order fields first yields the same index as `index`).  Each
        // field is doubled (`a | a << n`) so that an n-bit right-rotation by
        // `k < n` collapses to a single shift: `(doubled >> k) & mask` —
        // branch-free and one instruction per rotation.
        let n = self.index_bits;
        let mask = (1u64 << n) - 1;
        let mut remaining = line.block_number();
        let a1 = remaining & mask;
        remaining >>= n;
        let a2 = remaining & mask;
        remaining >>= n;
        let mut high = 0u64;
        while remaining != 0 {
            high ^= remaining & mask;
            remaining >>= n;
        }
        if n <= 32 {
            let a1d = a1 | (a1 << n);
            let a2d = a2 | (a2 << n);
            for (slot, &(rot1, rot2)) in out.iter_mut().zip(&self.rotations) {
                *slot = ((((a1d >> rot1) ^ (a2d >> rot2)) & mask) ^ high) as usize;
            }
        } else {
            // Doubling would overflow 64 bits; no real directory has 2^32
            // sets, but stay correct anyway.
            for (slot, &(rot1, rot2)) in out.iter_mut().zip(&self.rotations) {
                let h = Self::rotate_field(a1, rot1, n) ^ Self::rotate_field(a2, rot2, n) ^ high;
                *slot = (h & mask) as usize;
            }
        }
    }

    fn logic_levels(&self) -> u32 {
        // One XOR tree over ceil(48 / index_bits) fields: log2 of the number
        // of inputs, with rotations being free (wiring only).  This is the
        // "several levels of logic" the paper cites.
        let fields = ccd_common::PHYSICAL_ADDRESS_BITS.div_ceil(self.index_bits);
        ceil_log2(u64::from(fields)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(SkewingFamily::new(0, 64).is_err());
        assert!(SkewingFamily::new(17, 64).is_err());
        assert!(SkewingFamily::new(4, 63).is_err());
        assert!(SkewingFamily::new(4, 1).is_err());
        assert!(SkewingFamily::new(4, 64).is_ok());
    }

    #[test]
    fn indices_in_range_for_extreme_addresses() {
        let f = SkewingFamily::new(8, 4096).unwrap();
        for block in [0u64, 1, u64::MAX >> 6, 0xffff_ffff, 0x8000_0000_0000 >> 6] {
            for way in 0..8 {
                let idx = f.index(way, LineAddr::from_block_number(block));
                assert!(idx < 4096);
            }
        }
    }

    #[test]
    fn deterministic_per_way() {
        let f = SkewingFamily::new(4, 512).unwrap();
        let line = LineAddr::from_block_number(0xabcdef0);
        for way in 0..4 {
            assert_eq!(f.index(way, line), f.index(way, line));
        }
    }

    #[test]
    fn rotation_wraps_correctly() {
        // rot of 0b0001 by 1 in a 4-bit field is 0b1000; rot by 0 is the
        // identity.  Amounts arrive pre-reduced modulo the field width.
        assert_eq!(SkewingFamily::rotate_field(0b0001, 1, 4), 0b1000);
        assert_eq!(SkewingFamily::rotate_field(0b1001, 3, 4), 0b0011);
        assert_eq!(SkewingFamily::rotate_field(0b1001, 0, 4), 0b1001);
    }

    #[test]
    fn precomputed_rotations_match_the_modulo_definition() {
        // The per-way amounts are `way % n` and `2·way % n` — the values the
        // seed computed inline with a modulo on every index() call.
        let f = SkewingFamily::new(16, 256).unwrap(); // n = 8
        for (way, &(r1, r2)) in f.rotations.iter().enumerate() {
            assert_eq!(r1, way as u32 % 8);
            assert_eq!(r2, (2 * way) as u32 % 8);
        }
    }

    #[test]
    fn conflicting_low_bits_are_spread_by_high_bits() {
        // Classic skewed-associativity property: addresses that collide in
        // a conventional index (same low bits) are separated when their
        // high-order bits differ.
        let f = SkewingFamily::new(4, 256).unwrap();
        let base = 0x55u64; // common low index field
        let lines: Vec<LineAddr> = (0..64u64)
            .map(|hi| LineAddr::from_block_number(base | (hi << 20)))
            .collect();
        for way in 0..4 {
            let mut indices: Vec<usize> = lines.iter().map(|&l| f.index(way, l)).collect();
            indices.sort_unstable();
            indices.dedup();
            assert!(
                indices.len() > 16,
                "way {way} mapped 64 conflicting lines to only {} sets",
                indices.len()
            );
        }
    }

    #[test]
    fn the_inverse_rebuilds_the_first_field_for_every_way() {
        use ccd_common::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(0x1A7E);
        for sets in [2usize, 512, 1 << 10, 1 << 12, 1 << 20, 1 << 31] {
            let f = SkewingFamily::new(MAX_WAYS, sets).unwrap();
            let n = f.index_bits;
            for _ in 0..200 {
                let line = LineAddr::from_block_number(rng.next_u64() >> 22);
                for way in 0..MAX_WAYS {
                    let index = f.index(way, line);
                    let high = line.block_number() >> n;
                    assert_eq!(
                        f.line_from_high(way, index, high),
                        line,
                        "2^{n} sets, way {way}"
                    );
                }
            }
        }
    }

    #[test]
    fn logic_levels_are_small() {
        let f = SkewingFamily::new(4, 512).unwrap();
        assert!(f.logic_levels() <= 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_way_panics() {
        let f = SkewingFamily::new(2, 64).unwrap();
        let _ = f.index(2, LineAddr::from_block_number(1));
    }
}
