//! Common foundation types for the `cuckoo-directory` workspace.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! reproduction of *Cuckoo Directory: A Scalable Directory for Many-Core
//! Systems* (HPCA 2011):
//!
//! * strongly-typed identifiers for cores, caches and directory slices
//!   ([`CoreId`], [`CacheId`], [`SliceId`]),
//! * physical-address and cache-line newtypes with the block geometry used
//!   throughout the paper ([`Address`], [`LineAddr`], [`BlockGeometry`]),
//!   and the address interleaving that picks a block's home directory slice
//!   ([`Interleave`]),
//! * deterministic, seedable random number generation used by the synthetic
//!   workloads and the hash-characterization experiments ([`rng`]),
//! * light-weight statistics (counters, histograms, running means) used by
//!   the directories, caches and the coherence simulator ([`stats`]),
//! * the bounded lanes (std `sync_channel`) connecting the directory
//!   service's ingestion frontend to its shard-owning workers
//!   ([`channel`]),
//! * fixed-length, cache-line-aligned buffers that become mappings of
//!   their own on huge pages when they are large — what the cuckoo table's
//!   arrays live in ([`pages`]),
//! * the workspace's one JSON value tree and writer ([`json`]),
//! * the one reader of its `prefix-clause-…` spec strings ([`clause`]),
//! * the shared error type ([`ConfigError`]).
//!
//! # Example
//!
//! ```
//! use ccd_common::{Address, BlockGeometry, LineAddr};
//!
//! let geom = BlockGeometry::new(64);
//! let addr = Address::new(0x8000_1234);
//! let line: LineAddr = geom.line_of(addr);
//! assert_eq!(line.block_number(), 0x8000_1234 >> 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod addr;
pub mod channel;
pub mod clause;
pub mod error;
pub mod ids;
pub mod json;
pub mod mem;
#[allow(unsafe_code, reason = "raw allocation, `mmap`, `munmap` and `madvise`")]
pub mod pages;
#[allow(unsafe_code, reason = "the prefetch intrinsic")]
pub mod prefetch;
pub mod rng;
pub mod stats;

pub use addr::{Address, BlockGeometry, Interleave, LineAddr};
pub use error::ConfigError;
pub use ids::{CacheId, CoreId, SliceId};
pub use mem::{AccessType, MemRef};
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::HistogramSnapshot;
pub use stats::{
    Counter, Fnv64, Histogram, LogHistogram, MeanAccumulator, MetricSnapshot, RateEstimator,
};

/// The physical address width assumed by the paper's system (Table 1).
pub const PHYSICAL_ADDRESS_BITS: u32 = 48;

/// The default cache-block size used throughout the paper (Table 1).
pub const DEFAULT_BLOCK_BYTES: u64 = 64;

/// The width of a line address (a block number): the physical address
/// above the offset of a default-sized block, 48 − 6 = 42 bits.
pub const LINE_ADDRESS_BITS: u32 = PHYSICAL_ADDRESS_BITS - DEFAULT_BLOCK_BYTES.trailing_zeros();

/// Returns `ceil(log2(x))` for `x >= 1`; `0` for `x <= 1`.
///
/// Used pervasively when sizing index and tag fields.
///
/// ```
/// assert_eq!(ccd_common::ceil_log2(1), 0);
/// assert_eq!(ccd_common::ceil_log2(2), 1);
/// assert_eq!(ccd_common::ceil_log2(3), 2);
/// assert_eq!(ccd_common::ceil_log2(1024), 10);
/// ```
#[must_use]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// Returns `true` when `x` is a power of two (and non-zero).
///
/// ```
/// assert!(ccd_common::is_power_of_two(64));
/// assert!(!ccd_common::is_power_of_two(0));
/// assert!(!ccd_common::is_power_of_two(48));
/// ```
#[must_use]
pub fn is_power_of_two(x: u64) -> bool {
    x != 0 && x & (x - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_reference() {
        for x in 1..4096u64 {
            let expected = (x as f64).log2().ceil() as u32;
            assert_eq!(ceil_log2(x), expected, "x = {x}");
        }
    }

    #[test]
    fn ceil_log2_handles_edges() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(u64::MAX), 64);
        assert_eq!(ceil_log2(1 << 63), 63);
    }

    #[test]
    fn power_of_two_detection() {
        let powers: Vec<u64> = (0..63).map(|s| 1u64 << s).collect();
        for p in &powers {
            assert!(is_power_of_two(*p));
        }
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(12));
    }
}
