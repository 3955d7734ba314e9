//! Configuration of a Cuckoo directory slice.

use ccd_common::ConfigError;
use ccd_hash::HashKind;

/// The insertion-attempt budget used throughout the paper's evaluation
/// ("we allow up to 32 insertion attempts to ensure termination in the
/// unlikely event of a loop", Section 5.2).
pub(crate) const DEFAULT_MAX_ATTEMPTS: u32 = 32;

/// Configuration of one Cuckoo directory slice.
///
/// The paper describes slices by `ways × sets` (e.g. the selected `4 × 512`
/// Shared-L2 and `3 × 8192` Private-L2 organizations of Section 5.3) and by
/// a *provisioning factor* relating the capacity to the worst-case number of
/// blocks the slice must track; `ccd-coherence`'s `DirectorySpec` turns such
/// a factor into a geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CuckooConfig {
    /// Number of ways (`d` of the d-ary cuckoo hash); the paper uses 3 or 4.
    pub ways: usize,
    /// Entries per way (each way is a direct-mapped table of this size).
    pub sets: usize,
    /// Number of private caches whose blocks the slice tracks (width of the
    /// sharer vectors).
    pub num_caches: usize,
    /// Which hash-function family indexes the ways.  The paper's hardware
    /// uses the skewing functions; the hash-characterization experiments use
    /// strong functions (Sections 5.1, 5.5).
    pub hash_kind: HashKind,
    /// Seed for seedable hash families.
    pub hash_seed: u64,
}

impl CuckooConfig {
    /// Creates a configuration with the paper's defaults: skewing hash
    /// functions.  Every slice has the table's `DEFAULT_MAX_ATTEMPTS`
    /// budget.
    #[must_use]
    pub fn new(ways: usize, sets: usize, num_caches: usize) -> Self {
        CuckooConfig {
            ways,
            sets,
            num_caches,
            hash_kind: HashKind::Skewing,
            hash_seed: 0xC0C0_0D15_EC70,
        }
    }

    /// Selects the hash family.
    #[must_use]
    pub(crate) fn with_hash_kind(mut self, kind: HashKind) -> Self {
        self.hash_kind = kind;
        self
    }

    /// Total number of entries (`ways × sets`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ways * self.sets
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if any structural parameter is zero,
    /// * [`ConfigError::TooSmall`] if fewer than 2 ways are requested (a
    ///   1-ary cuckoo table cannot displace anywhere),
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError::Zero { what: "ways" });
        }
        if self.ways < 2 {
            return Err(ConfigError::TooSmall {
                what: "ways",
                value: self.ways as u64,
                min: 2,
            });
        }
        if self.sets == 0 {
            return Err(ConfigError::Zero { what: "set count" });
        }
        if !ccd_common::is_power_of_two(self.sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: self.sets as u64,
            });
        }
        if self.num_caches == 0 {
            return Err(ConfigError::Zero {
                what: "cache count",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CuckooConfig::new(4, 512, 32);
        assert_eq!(c.hash_kind, HashKind::Skewing);
        assert_eq!(c.capacity(), 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let c = CuckooConfig::new(3, 8192, 16).with_hash_kind(HashKind::Strong);
        assert_eq!(c.hash_kind, HashKind::Strong);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(CuckooConfig::new(0, 64, 4).validate().is_err());
        assert!(CuckooConfig::new(1, 64, 4).validate().is_err());
        assert!(CuckooConfig::new(4, 0, 4).validate().is_err());
        assert!(CuckooConfig::new(4, 100, 4).validate().is_err());
        assert!(CuckooConfig::new(4, 64, 0).validate().is_err());
    }
}
