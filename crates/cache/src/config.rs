//! Cache geometry configuration.

use ccd_common::{BlockGeometry, ConfigError};

/// Geometry of one set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Number of ways per set.
    pub ways: usize,
    /// Cache-block size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Creates a configuration directly from sets × ways × block size.
    #[must_use]
    pub const fn new(sets: usize, ways: usize, block_bytes: u64) -> Self {
        CacheConfig {
            sets,
            ways,
            block_bytes,
        }
    }

    /// The paper's L1 configuration (Table 1): 64 KB, 2 ways, 64-byte
    /// blocks — used for both the I and D caches of each core.
    #[must_use]
    pub fn l1_64k() -> Self {
        CacheConfig::new(512, 2, 64)
    }

    /// The paper's private-L2 configuration (Table 1): 1 MB per core,
    /// 16 ways, 64-byte blocks.
    #[must_use]
    pub fn l2_1m() -> Self {
        CacheConfig::new(1024, 16, 64)
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.frames() as u64 * self.block_bytes
    }

    /// Total number of block frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.sets * self.ways
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter is zero or `sets` /
    /// `block_bytes` are not powers of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sets == 0 {
            return Err(ConfigError::Zero { what: "set count" });
        }
        if self.ways == 0 {
            return Err(ConfigError::Zero { what: "ways" });
        }
        if !ccd_common::is_power_of_two(self.sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: self.sets as u64,
            });
        }
        BlockGeometry::try_new(self.block_bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table_1() {
        let l1 = CacheConfig::l1_64k();
        assert_eq!(l1.capacity_bytes(), 64 * 1024);
        assert_eq!(l1.ways, 2);
        assert_eq!(l1.block_bytes, 64);
        assert_eq!(l1.frames(), 1024);
        assert!(l1.validate().is_ok());

        let l2 = CacheConfig::l2_1m();
        assert_eq!(l2.capacity_bytes(), 1024 * 1024);
        assert_eq!(l2.ways, 16);
        assert_eq!(l2.frames(), 16_384);
        assert!(l2.validate().is_ok());
    }

    #[test]
    fn validate_checks_every_field() {
        assert!(CacheConfig::new(0, 2, 64).validate().is_err());
        assert!(CacheConfig::new(512, 0, 64).validate().is_err());
        assert!(CacheConfig::new(512, 2, 48).validate().is_err());
        assert!(CacheConfig::new(100, 2, 64).validate().is_err());
        assert!(
            CacheConfig::new(512, 3, 64).validate().is_ok(),
            "odd way counts are fine"
        );
    }
}
