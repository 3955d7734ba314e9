//! Physical addresses, cache-line addresses and block geometry.
//!
//! The coherence directory never sees byte addresses — every structure in the
//! paper operates on *block* (cache-line) granularity.  To keep that
//! distinction visible in the type system this module provides two newtypes:
//!
//! * [`Address`] — a full physical byte address (48 bits in the paper's
//!   system, Table 1),
//! * [`LineAddr`] — a block-aligned address expressed as a *block number*
//!   (byte address divided by the block size).
//!
//! [`BlockGeometry`] performs the conversions and carries the block size so
//! that the tag/index arithmetic performed by caches and directories cannot
//! silently mix granularities.

use crate::{ceil_log2, is_power_of_two, ConfigError};
use std::fmt;

/// A physical byte address.
///
/// ```
/// use ccd_common::Address;
/// let a = Address::new(0x1000);
/// assert_eq!(a.raw(), 0x1000);
/// assert_eq!(Address::from(0x1000u64), a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates a new address from a raw byte address.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte address.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<Address> for u64 {
    fn from(addr: Address) -> Self {
        addr.0
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({:#x})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A block-aligned (cache-line) address, stored as a block number.
///
/// A `LineAddr` is what directories and cache tag arrays index and tag on.
/// It is obtained from an [`Address`] through [`BlockGeometry::line_of`].
///
/// ```
/// use ccd_common::{Address, BlockGeometry};
/// let geom = BlockGeometry::new(64);
/// let line = geom.line_of(Address::new(0x12345));
/// assert_eq!(line.block_number(), 0x12345 / 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address directly from a block number.
    #[must_use]
    pub const fn from_block_number(block: u64) -> Self {
        LineAddr(block)
    }

    /// Returns the block number (byte address divided by the block size).
    #[must_use]
    pub const fn block_number(self) -> u64 {
        self.0
    }
}

impl From<u64> for LineAddr {
    fn from(block: u64) -> Self {
        LineAddr(block)
    }
}

impl From<LineAddr> for u64 {
    fn from(line: LineAddr) -> Self {
        line.0
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Address interleaving over a power-of-two number of directory slices: the
/// one definition of which slice is a block's home (Section 2 of the paper:
/// the directory is "distributed across tiles" by address).
///
/// The low-order block-number bits select the slice and the slice is handed
/// the *slice-local* line — the block number with those bits shifted out —
/// so indexing inside a slice is not aliased by the interleaving.  That is
/// `(block mod N, block div N)` as a mask and a shift.
///
/// ```
/// use ccd_common::{Interleave, LineAddr};
/// let four = Interleave::new(4)?;
/// let line = LineAddr::from_block_number(0b1011_10);
/// assert_eq!(four.home_of(line), (0b10, LineAddr::from_block_number(0b1011)));
/// assert_eq!(four.global_line(0b10, LineAddr::from_block_number(0b1011)), line);
/// assert!(Interleave::new(3).is_err());
/// # Ok::<(), ccd_common::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interleave {
    /// `log2(count)`: how far a block number shifts to drop its slice bits.
    shift: u32,
    /// `count - 1`: the block-number bits that select the slice.
    mask: u64,
}

impl Interleave {
    /// Interleaving over `count` slices.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NotPowerOfTwo`] when `count` is zero or not a power
    /// of two.
    pub fn new(count: usize) -> Result<Self, ConfigError> {
        let count = count as u64;
        if !is_power_of_two(count) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "directory slice count",
                value: count,
            });
        }
        Ok(Interleave {
            shift: count.trailing_zeros(),
            mask: count - 1,
        })
    }

    /// The home slice of a global line and the slice-local line that slice
    /// tracks it under.
    #[inline]
    #[must_use]
    pub fn home_of(self, line: LineAddr) -> (usize, LineAddr) {
        (
            (line.0 & self.mask) as usize,
            LineAddr(line.0 >> self.shift),
        )
    }

    /// The global line that slice `index` tracks under `local`: the inverse
    /// of [`Interleave::home_of`].
    #[inline]
    #[must_use]
    pub fn global_line(self, index: usize, local: LineAddr) -> LineAddr {
        LineAddr((local.0 << self.shift) | index as u64)
    }
}

/// Cache-block geometry: block size and the derived offset-bit count.
///
/// The paper's system uses 64-byte blocks everywhere (Table 1); other sizes
/// are supported for sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockGeometry {
    block_bytes: u64,
    offset_bits: u32,
}

impl Default for BlockGeometry {
    fn default() -> Self {
        BlockGeometry::new(crate::DEFAULT_BLOCK_BYTES)
    }
}

impl BlockGeometry {
    /// Creates a geometry for `block_bytes`-byte cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two. Use
    /// [`BlockGeometry::try_new`] for a fallible constructor.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; `try_new` is the fallible variant for untrusted input"
    )]
    pub fn new(block_bytes: u64) -> Self {
        Self::try_new(block_bytes).expect("block size must be a non-zero power of two")
    }

    /// Creates a geometry, returning an error when `block_bytes` is not a
    /// power of two.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] when the block size is zero or
    /// not a power of two.
    pub fn try_new(block_bytes: u64) -> Result<Self, ConfigError> {
        if !is_power_of_two(block_bytes) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "block size",
                value: block_bytes,
            });
        }
        Ok(BlockGeometry {
            block_bytes,
            offset_bits: ceil_log2(block_bytes),
        })
    }

    /// Block size in bytes.
    #[must_use]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Maps a byte address to its cache-line address.
    #[must_use]
    pub fn line_of(&self, addr: Address) -> LineAddr {
        LineAddr(addr.raw() >> self.offset_bits)
    }

    /// Number of tag bits required to identify a line when `index_bits` of
    /// the line address are consumed by the set index.
    ///
    /// The paper assumes a 48-bit physical address space (Table 1).
    #[must_use]
    pub fn tag_bits(&self, index_bits: u32) -> u32 {
        crate::PHYSICAL_ADDRESS_BITS
            .saturating_sub(self.offset_bits)
            .saturating_sub(index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let geom = BlockGeometry::new(64);
        for raw in [0u64, 63, 64, 0x1fff, 0xffff_ffff_ffff] {
            let addr = Address::new(raw);
            let line = geom.line_of(addr);
            assert_eq!(line.block_number(), raw >> 6);
            assert_eq!(geom.line_of(Address::new(raw & !63)), line);
        }
    }

    #[test]
    fn offsets_within_block() {
        let geom = BlockGeometry::new(128);
        assert_eq!(geom.offset_bits, 7);
        assert_eq!(geom.line_of(Address::new(0x1285)).block_number(), 0x25);
        assert_eq!(geom.line_of(Address::new(0x127f)).block_number(), 0x24);
    }

    #[test]
    fn rejects_non_power_of_two_blocks() {
        assert!(BlockGeometry::try_new(0).is_err());
        assert!(BlockGeometry::try_new(96).is_err());
        assert!(BlockGeometry::try_new(64).is_ok());
    }

    #[test]
    fn tag_bits_account_for_index_and_offset() {
        let geom = BlockGeometry::new(64);
        // 48-bit address, 6 offset bits, 10 index bits -> 32 tag bits.
        assert_eq!(geom.tag_bits(10), 32);
        // Saturates rather than underflowing.
        assert_eq!(geom.tag_bits(60), 0);
    }

    #[test]
    fn home_routing_round_trips() {
        for count in [1usize, 2, 4, 16, 1024] {
            let interleave = Interleave::new(count).unwrap();
            for block in [
                0u64,
                1,
                5,
                1023,
                0xFFFF_FFFF,
                u64::MAX,
                u64::MAX - 1,
                u64::MAX << 10,
                (u64::MAX << 10) | 0x155,
            ] {
                let line = LineAddr::from_block_number(block);
                let (slice, local) = interleave.home_of(line);
                assert_eq!(slice as u64, block % count as u64);
                assert_eq!(local.block_number(), block / count as u64);
                assert_eq!(interleave.global_line(slice, local), line);
            }
        }
    }

    #[test]
    fn a_slice_count_that_is_not_a_power_of_two_is_rejected() {
        // Routing by mask would send such a system's blocks to the wrong slice.
        for count in [0usize, 3, 6, 12] {
            assert_eq!(
                Interleave::new(count),
                Err(ConfigError::NotPowerOfTwo {
                    what: "directory slice count",
                    value: count as u64,
                })
            );
        }
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(format!("{}", Address::new(0xabc)), "0xabc");
        assert_eq!(format!("{}", LineAddr::from_block_number(0x10)), "0x10");
        assert_eq!(format!("{:x}", Address::new(0xabc)), "abc");
    }
}
