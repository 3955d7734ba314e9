//! Normalization references and the bits→energy/area proportionality.
//!
//! The paper reports directory energy "relative to the energy of a 16-way
//! set-associative L2 tag lookup" and directory area "relative to the area
//! of the L2 data array (1 MB)" (Section 5.6).  For *relative* comparisons
//! the dominant term of an SRAM access is the number of bits read or
//! written, and the dominant term of its area is the number of bits stored;
//! the constants cancel in the ratios, so the model works directly in bit
//! counts.

use ccd_common::{ceil_log2, BlockGeometry};

/// Bits read by the reference operation: one lookup of the tags of a 1 MB,
/// 16-way, 64-byte-block L2 cache (16 384 frames, 1 024 sets): 16 ways ×
/// (tag + valid).
#[must_use]
pub(crate) fn reference_lookup_bits() -> f64 {
    let sets = 1024;
    let tag_bits = BlockGeometry::default().tag_bits(ceil_log2(sets));
    16.0 * f64::from(tag_bits + 1)
}

/// Bits stored by the reference area: the data array of a 1 MB cache.
#[must_use]
pub(crate) fn reference_area_bits() -> f64 {
    (1024u64 * 1024 * 8) as f64
}

/// Energy of an access that touches `bits` bits, expressed relative to the
/// reference lookup (1.0 = one L2 tag lookup).
#[must_use]
pub(crate) fn relative_energy(bits: f64) -> f64 {
    bits / reference_lookup_bits()
}

/// Area of a structure storing `bits` bits, expressed relative to the
/// reference 1 MB data array (1.0 = one L2 data array).
#[must_use]
pub(crate) fn relative_area(bits: f64) -> f64 {
    bits / reference_area_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_bits_for_common_geometries() {
        let tag_bits = |sets| BlockGeometry::default().tag_bits(ceil_log2(sets));
        // 1 MB 16-way: 1024 sets -> 48 - 6 - 10 = 32 tag bits.
        assert_eq!(tag_bits(1024), 32);
        // 64 KB 2-way L1: 512 sets -> 48 - 6 - 9 = 33.
        assert_eq!(tag_bits(512), 33);
        // Degenerate single-set structure keeps the full 42-bit block number.
        assert_eq!(tag_bits(1), 42);
    }

    #[test]
    fn reference_quantities_are_sensible() {
        // 16 * 33 = 528 bits per reference tag lookup.
        assert_eq!(reference_lookup_bits(), 528.0);
        assert_eq!(reference_area_bits(), 8.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn relative_measures_are_linear_in_bits() {
        assert!((relative_energy(528.0) - 1.0).abs() < 1e-12);
        assert!((relative_energy(1056.0) - 2.0).abs() < 1e-12);
        assert!((relative_area(8.0 * 1024.0 * 1024.0) - 1.0).abs() < 1e-12);
        assert!((relative_area(4.0 * 1024.0 * 1024.0) - 0.5).abs() < 1e-12);
    }
}
