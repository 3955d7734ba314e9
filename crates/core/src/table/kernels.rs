//! The tag encoding and the SWAR arithmetic the probe matches tags with.

/// Odd multiplier for the tag fingerprint (the 64-bit golden-ratio
/// constant).  The top byte of `key * FP_MULTIPLIER` mixes every key bit,
/// so colliding keys rarely share a fingerprint.
const FP_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The occupancy tag stored for `key`: a 7-bit fingerprint with the high
/// bit set so it can never collide with [`EMPTY_TAG`].
#[inline]
pub(super) fn fingerprint(key: u64) -> u8 {
    ((key.wrapping_mul(FP_MULTIPLIER) >> 56) as u8) | 0x80
}

/// SWAR helpers: a `0x01` / `0x80` in every byte lane.
const SWAR_LOW: u64 = 0x0101_0101_0101_0101;
const SWAR_HIGH: u64 = 0x8080_8080_8080_8080;

/// Returns a mask with bit 7 of byte lane `i` set when byte `i` of `word`
/// equals `tag` — the classic SWAR byte-equality test.
///
/// With this table's tag encoding the test is exact for `tag == EMPTY_TAG`
/// (occupied tags have their high bit set, which the `!x` term excludes) and
/// may only over-report for fingerprint tags when a *true* match sits in a
/// lower lane (borrow propagation); callers confirm fingerprint candidates
/// with a full key compare anyway.
#[inline]
pub(super) fn swar_match(word: u64, tag: u8) -> u64 {
    let x = word ^ SWAR_LOW.wrapping_mul(u64::from(tag));
    x.wrapping_sub(SWAR_LOW) & !x & SWAR_HIGH
}

/// Folds a [`swar_match`] result (bit 7 of byte lane `j` set or clear,
/// nothing else) into bit `j` of the low byte: the multiplier's eight set
/// bits, seven apart, carry lane `j`'s bit `8j + 7` to bit `56 + j`, and
/// no two of the 64 partial products land on the same bit, so nothing
/// carries.  One multiply and one shift whatever the number of matching
/// lanes — at half occupancy that number is a coin flip per way.
#[inline]
pub(super) fn fold_lanes(lanes: u64) -> u64 {
    debug_assert_eq!(lanes & !SWAR_HIGH, 0);
    lanes.wrapping_mul(0x0002_0408_1020_4081) >> 56
}
