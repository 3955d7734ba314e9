//! The key word a slot stores: the full key, or only the bits of it that
//! the slot's set index does not determine (see the `table` module docs).

use ccd_common::LINE_ADDRESS_BITS;
use ccd_hash::HashKind;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u32 {}
}

/// The word a [`CuckooTable`](super::CuckooTable) stores each resident key
/// in: `u64`, the full key, or `u32`, the key's bits above the set index
/// (`key >> n` in a table of `2^n` sets), from which the slot's way and
/// index rebuild the rest ([`ccd_hash::SkewingFamily::line_from_high`]).
pub trait KeyWord: Copy + Eq + Default + Send + Sync + std::fmt::Debug + sealed::Sealed {
    /// `true` when the word holds only the bits above the set index.
    const NARROW: bool;

    /// The word stored for `key` in a table of `2^index_bits` sets.
    fn pack(key: u64, index_bits: u32) -> Self;

    /// The stored bits, widened.
    fn bits(self) -> u64;
}

impl KeyWord for u64 {
    const NARROW: bool = false;

    #[inline(always)]
    fn pack(key: u64, _index_bits: u32) -> Self {
        key
    }

    #[inline(always)]
    fn bits(self) -> u64 {
        self
    }
}

impl KeyWord for u32 {
    const NARROW: bool = true;

    /// Keys are lines of a 48-bit physical address, below
    /// `2^LINE_ADDRESS_BITS`; the directory checks that at its op entry
    /// (`DirectoryOp::check_line`), so only a debug build checks it here.
    #[inline(always)]
    fn pack(key: u64, index_bits: u32) -> Self {
        debug_assert!(
            key >> LINE_ADDRESS_BITS == 0,
            "key {key:#x} is past the {LINE_ADDRESS_BITS}-bit line bound"
        );
        (key >> index_bits) as u32
    }

    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

/// Whether a table of `sets` sets indexed by `kind` stores narrow (`u32`)
/// keys: only skewing can rebuild a key from its slot, and only from
/// `2^10` sets up do a line's `42 − 10 = 32` bits above the index fit a
/// `u32`.  Strong indices mix every bit, so their tables keep full `u64`
/// keys at every size.
#[must_use]
pub fn narrow_keys(kind: HashKind, sets: usize) -> bool {
    kind == HashKind::Skewing && sets >= 1 << (LINE_ADDRESS_BITS - u32::BITS)
}
