//! System (tiled-CMP) configuration.

use ccd_cache::CacheConfig;
use ccd_common::{BlockGeometry, ConfigError};
use std::fmt;

/// Which cache level the coherence directory tracks (Section 2, Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Hierarchy {
    /// Private split I/D L1s backed by a shared, address-interleaved L2;
    /// the directory tracks L1 blocks (two caches per core).
    SharedL2,
    /// Private unified L2 per core (L1s are inclusive in it); the directory
    /// tracks L2 blocks (one cache per core).  Also representative of a
    /// 3-level hierarchy with a shared LLC.
    PrivateL2,
}

impl fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hierarchy::SharedL2 => f.write_str("Shared-L2"),
            Hierarchy::PrivateL2 => f.write_str("Private-L2"),
        }
    }
}

/// How often (in processed references) the simulator samples the mean
/// directory occupancy for Figure 8.
pub(crate) const DEFAULT_OCCUPANCY_SAMPLE_INTERVAL: u64 = 8_192;

/// Configuration of the simulated tiled CMP (Table 1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (= tiles = directory slices).
    pub num_cores: usize,
    /// Which level the directory tracks.
    pub hierarchy: Hierarchy,
    /// Geometry of each L1 (used for both the I and D caches).
    pub l1: CacheConfig,
    /// Geometry of each private L2 (Private-L2 hierarchy only).
    pub private_l2: CacheConfig,
    /// Cache-block geometry.
    pub block: BlockGeometry,
}

impl SystemConfig {
    /// The paper's Shared-L2 system (Table 1) scaled to `num_cores` cores:
    /// split 64 KB 2-way L1 I/D caches, 64-byte blocks.
    #[must_use]
    pub fn shared_l2(num_cores: usize) -> Self {
        SystemConfig {
            num_cores,
            hierarchy: Hierarchy::SharedL2,
            l1: CacheConfig::l1_64k(),
            private_l2: CacheConfig::l2_1m(),
            block: BlockGeometry::new(64),
        }
    }

    /// The paper's Private-L2 system (Table 1) scaled to `num_cores` cores:
    /// 1 MB 16-way private L2 per core, 64-byte blocks.
    #[must_use]
    pub fn private_l2(num_cores: usize) -> Self {
        SystemConfig {
            num_cores,
            hierarchy: Hierarchy::PrivateL2,
            ..Self::shared_l2(num_cores)
        }
        .with_hierarchy(Hierarchy::PrivateL2)
    }

    /// The 16-core CMP of Table 1 with the requested hierarchy.
    #[must_use]
    pub fn table1(hierarchy: Hierarchy) -> Self {
        match hierarchy {
            Hierarchy::SharedL2 => Self::shared_l2(16),
            Hierarchy::PrivateL2 => Self::private_l2(16),
        }
    }

    /// Returns a copy with a different hierarchy.
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Number of directory slices (one per tile).
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.num_cores
    }

    /// Number of private caches the directory tracks: 2 per core (I + D
    /// L1s) in the Shared-L2 hierarchy, 1 per core in Private-L2.
    #[must_use]
    pub fn num_private_caches(&self) -> usize {
        match self.hierarchy {
            Hierarchy::SharedL2 => 2 * self.num_cores,
            Hierarchy::PrivateL2 => self.num_cores,
        }
    }

    /// Geometry of the private caches the directory tracks.
    #[must_use]
    pub fn tracked_cache(&self) -> CacheConfig {
        match self.hierarchy {
            Hierarchy::SharedL2 => self.l1,
            Hierarchy::PrivateL2 => self.private_l2,
        }
    }

    /// Total number of private-cache frames the aggregate directory must be
    /// able to track (the worst-case number of distinct blocks).
    #[must_use]
    pub fn total_tracked_frames(&self) -> usize {
        self.tracked_cache().frames() * self.num_private_caches()
    }

    /// Worst-case number of blocks one directory slice must track — the
    /// paper's "1×" provisioning reference (Section 5.2): the number of
    /// cache frames whose addresses map to the slice.
    #[must_use]
    pub fn tracked_frames_per_slice(&self) -> usize {
        self.total_tracked_frames() / self.num_slices()
    }

    /// Number of tracked-cache sets whose blocks map to one slice, used to
    /// size the per-slice Duplicate-Tag and Tagless mirrors.
    #[must_use]
    pub fn tracked_sets_per_slice(&self) -> usize {
        (self.tracked_cache().sets / self.num_slices()).max(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the core count is zero or not a power
    /// of two (slice interleaving uses low-order bits), or when a cache
    /// geometry is invalid or too small to be divided among the slices.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::Zero { what: "core count" });
        }
        if !ccd_common::is_power_of_two(self.num_cores as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "core count",
                value: self.num_cores as u64,
            });
        }
        self.l1.validate()?;
        self.private_l2.validate()?;
        if self.tracked_cache().sets < self.num_slices() {
            return Err(ConfigError::Inconsistent {
                what: "tracked cache has fewer sets than there are directory slices",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let shared = SystemConfig::table1(Hierarchy::SharedL2);
        assert_eq!(shared.num_cores, 16);
        assert_eq!(shared.num_private_caches(), 32);
        assert_eq!(shared.tracked_cache().capacity_bytes(), 64 * 1024);
        // 32 caches x 1024 frames / 16 slices = 2048 -> the 1x capacity the
        // paper's 4x512 Cuckoo organization provides.
        assert_eq!(shared.tracked_frames_per_slice(), 2048);
        assert!(shared.validate().is_ok());

        let private = SystemConfig::table1(Hierarchy::PrivateL2);
        assert_eq!(private.num_private_caches(), 16);
        assert_eq!(private.tracked_cache().capacity_bytes(), 1024 * 1024);
        // 16 caches x 16384 frames / 16 slices = 16384 -> 1.5x is 3x8192.
        assert_eq!(private.tracked_frames_per_slice(), 16_384);
        assert!(private.validate().is_ok());
    }

    #[test]
    fn scaling_core_count_scales_tracked_frames() {
        let c4 = SystemConfig::shared_l2(4);
        let c64 = SystemConfig::shared_l2(64);
        // Per-slice tracked frames stay constant as the system scales (one
        // slice and one set of caches are added per core).
        assert_eq!(
            c4.tracked_frames_per_slice(),
            c64.tracked_frames_per_slice()
        );
        assert_eq!(c64.total_tracked_frames(), 16 * c4.total_tracked_frames());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SystemConfig::shared_l2(0);
        assert!(c.validate().is_err());
        c = SystemConfig::shared_l2(12);
        assert!(c.validate().is_err());
        // More slices than L1 sets.
        let c = SystemConfig::shared_l2(1024);
        assert!(c.validate().is_err());
        assert!(SystemConfig::shared_l2(64).validate().is_ok());
    }

    #[test]
    fn hierarchy_display_and_accessors() {
        assert_eq!(Hierarchy::SharedL2.to_string(), "Shared-L2");
        assert_eq!(Hierarchy::PrivateL2.to_string(), "Private-L2");
        let c = SystemConfig::private_l2(8);
        assert_eq!(c.hierarchy, Hierarchy::PrivateL2);
        assert_eq!(c.num_slices(), 8);
        assert_eq!(c.tracked_sets_per_slice(), 1024 / 8);
    }
}
