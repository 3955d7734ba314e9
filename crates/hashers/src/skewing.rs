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
//!
//! In hardware that is wires and one XOR tree; here an index costs a fixed
//! handful of shifts and XORs whatever the line:
//!
//! * the fields above `A2` fold as `(r ^ (r >> n)) & mask`, `r = A >> 2n`,
//!   whenever `r < 2^(2n)`: every line below `2^(4n)`, which covers every
//!   line a workload generates.  A longer line runs a loop over its fields.
//! * [`IndexHashFamily::index_all_into`] over a buffer of `len` ways
//!   rotates way `i` by the plain `(i, 2i)`, not `(i mod n, 2i mod n)`,
//!   whenever `2 (len − 1) < n` (and `n <= 32`): each way shifts on from
//!   the last by the constants 1 and 2.  A longer buffer (8 ways below
//!   2^15 sets, 4 below 2^7) or a table above 2^32 sets reads the amounts
//!   from a per-way table, as [`IndexHashFamily::index`] and
//!   [`SkewingFamily::line_from_high`] do.

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
    /// Per-way `(rot(A1), rot(A2))` rotation amounts `(w mod n, 2w mod n)`,
    /// pre-reduced so no index divides, for all [`MAX_WAYS`] ways.
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
        let (a2, folded) = Self::high_terms(high, n);
        let (rot1, rot2) = self.rotations[way];
        let rotated = index as u64 ^ Self::rotate_field(a2, rot2, n) ^ folded;
        // A right rotation by `n - r1` undoes the right rotation by `r1`.
        let a1 = Self::rotate_field(rotated, n - rot1, n);
        LineAddr::from_block_number((high << n) | a1)
    }

    /// Splits `high`, a line's bits above its first field (`line >> n`),
    /// into the terms every way's index shares: the second field `A2` and
    /// the XOR of all fields above it.  Below `2^(4n)` a line has at most
    /// two such fields.  The loop for a longer one stays inline: the
    /// benchmark's absent keys (bit 62 set) take it, and a call cost them
    /// about a tenth more.
    #[inline(always)]
    fn high_terms(high: u64, n: u32) -> (u64, u64) {
        let mask = (1u64 << n) - 1;
        let mut rest = high >> n;
        let folded = if rest >> n >> n == 0 {
            (rest ^ (rest >> n)) & mask
        } else {
            let mut folded = 0;
            while rest != 0 {
                folded ^= rest & mask;
                rest >>= n;
            }
            folded
        };
        (high & mask, folded)
    }

    /// Rotates the low `bits` bits of `field` right by `amount`
    /// (`amount <= bits`; both `0` and `bits` leave the field as it is).
    #[inline]
    fn rotate_field(field: u64, amount: u32, bits: u32) -> u64 {
        debug_assert!(amount <= bits, "a rotation stays within its field");
        let mask = (1u64 << bits) - 1;
        let field = field & mask;
        ((field >> amount) | (field << (bits - amount))) & mask
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
        let line = line.block_number();
        let (a2, folded) = Self::high_terms(line >> n, n);
        let (rot1, rot2) = self.rotations[way];
        (Self::rotate_field(line, rot1, n) ^ Self::rotate_field(a2, rot2, n) ^ folded) as usize
    }

    #[inline(always)]
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways,
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways
        );
        // Decompose the address once; only the per-way rotations differ
        // between ways.
        let n = self.index_bits;
        let mask = (1u64 << n) - 1;
        let line = line.block_number();
        let a1 = line & mask;
        let (a2, folded) = Self::high_terms(line >> n, n);
        if n <= 32 && 2 * (out.len() - 1) < n as usize {
            // Each field is doubled (`a | a << n`, which needs `2n <= 64`)
            // so that an n-bit right-rotation by `k <= n` is a right shift
            // by `k` and the mask; each way shifts on from the last by the
            // constants 1 and 2 (no variable shift, even in a loop whose
            // length is only known at run time).
            let (mut a1d, mut a2d) = (a1 | (a1 << n), a2 | (a2 << n));
            for slot in out.iter_mut() {
                *slot = (((a1d ^ a2d) & mask) ^ folded) as usize;
                a1d >>= 1;
                a2d >>= 2;
            }
        } else {
            for (slot, &(rot1, rot2)) in out.iter_mut().zip(&self.rotations) {
                let h = Self::rotate_field(a1, rot1, n) ^ Self::rotate_field(a2, rot2, n) ^ folded;
                *slot = h as usize;
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

    /// The definition before the fold and the rotations were made constant,
    /// kept verbatim: the field loop over every line and the amounts
    /// `(w mod n, 2w mod n)` computed per index.
    fn oracle_index(way: usize, line: u64, n: u32) -> usize {
        let mask = (1u64 << n) - 1;
        let rotate = |field: u64, amount: u32| {
            let field = field & mask;
            if amount == 0 {
                field
            } else {
                ((field >> amount) | (field << (n - amount))) & mask
            }
        };
        let mut remaining = line;
        let a1 = remaining & mask;
        remaining >>= n;
        let a2 = remaining & mask;
        remaining >>= n;
        let way = way as u32;
        let mut h = rotate(a1, way % n) ^ rotate(a2, (2 * way) % n);
        while remaining != 0 {
            h ^= remaining & mask;
            remaining >>= n;
        }
        (h & mask) as usize
    }

    #[test]
    fn every_index_matches_the_loop_definition() {
        use ccd_common::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(0x5EED_0F01D);
        let (mut long_lines, mut table_buffers) = (false, false);
        for n in 1..=40u32 {
            let mut lines = vec![0, u64::MAX, (1 << 42) - 1];
            for k in (1..=6).filter(|k| k * n < 64) {
                let field = 1u64 << (k * n);
                lines.extend([field - 1, field, field + 1]);
            }
            lines.extend((0..10_000).map(|_| match rng.next_below(65) {
                0 => 0,
                bits => rng.next_u64() >> (64 - bits),
            }));
            long_lines |= lines.iter().any(|&l| l >> n >> n >> n >> n != 0);
            for ways in [1usize, 2, 3, 4, 5, 8, 16] {
                let f = SkewingFamily::new(ways, 1 << n).unwrap();
                table_buffers |= n > 32 || 2 * (ways - 1) >= n as usize;
                let (mut exact, mut full) = ([0usize; MAX_WAYS], [0usize; MAX_WAYS]);
                for &line in &lines {
                    let addr = LineAddr::from_block_number(line);
                    let want: [usize; MAX_WAYS] =
                        std::array::from_fn(|way| oracle_index(way, line, n));
                    f.index_all_into(addr, &mut exact[..ways]);
                    f.index_all_into(addr, &mut full);
                    assert_eq!(exact[..ways], want[..ways], "n {n}, {ways} ways, {line:#x}");
                    assert_eq!(full, want, "n {n}, {ways} ways, {line:#x}, 16 long");
                    for (way, &index) in want.iter().enumerate().take(ways) {
                        assert_eq!(f.index(way, addr), index, "n {n}, way {way}, {line:#x}");
                        assert_eq!(f.line_from_high(way, index, line >> n), addr);
                    }
                }
            }
        }
        // Both fallbacks ran: lines of `4n` bits or more, and buffers too
        // long for the constant amounts `(w, 2w)`.
        assert!(long_lines && table_buffers);
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
