//! Runtime selection of the directory organization under test.
//!
//! The evaluation compares many directory organizations under identical
//! system configurations and workloads (Figure 12 and Section 5.6).
//! [`DirectorySpec`] names one organization plus its provisioning, and knows
//! how to size one slice of it for a given [`SystemConfig`] — so the
//! simulator, the examples and the benchmark harness all configure
//! directories the same way the paper describes them ("Sparse 2×",
//! "Cuckoo 1.5×", …).  Sizing is all it does: the slice is built by
//! [`ccd_cuckoo::standard_registry`] from the resolved geometry.

use crate::SystemConfig;
use ccd_common::ConfigError;
use ccd_directory::spec::provisioned_sets;
use ccd_directory::{Directory, Org};
use ccd_hash::HashKind;
use std::fmt;

/// A directory organization plus its sizing policy.
///
/// Capacities are expressed as a *provisioning factor* relative to the
/// worst-case number of blocks a slice must track
/// ([`SystemConfig::tracked_frames_per_slice`]), exactly as the paper labels
/// its configurations (Figure 9, Figure 12).
#[derive(Clone, Debug, PartialEq)]
pub enum DirectorySpec {
    /// The Cuckoo directory (the paper's contribution).
    Cuckoo {
        /// Number of ways (`d`), 3 or 4 in the paper.
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks.
        provisioning: f64,
        /// Hash family indexing the ways.
        hash: HashKind,
    },
    /// A Cuckoo directory with an explicit `ways × sets` geometry.
    CuckooExplicit {
        /// Number of ways.
        ways: usize,
        /// Entries per way.
        sets: usize,
        /// Hash family indexing the ways.
        hash: HashKind,
    },
    /// Set-associative Sparse directory.
    Sparse {
        /// Associativity.
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks.
        provisioning: f64,
    },
    /// Skewed-associative directory.
    Skewed {
        /// Number of ways (direct-mapped tables).
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks.
        provisioning: f64,
    },
    /// Duplicate-Tag directory mirroring the tracked caches.
    DuplicateTag,
    /// In-cache directory embedded in the shared L2 (Shared-L2 hierarchy
    /// only); capacity follows the L2 bank geometry.
    InCache,
    /// Tagless (Bloom-filter grid) directory.
    Tagless,
    /// Any organization expressible as a `ccd-directory` spec string (e.g.
    /// `"cuckoo-4x512-skew"`, `"sharded4:sparse-8x512"`), resolved through
    /// [`ccd_cuckoo::standard_registry`].  The tracked-cache count is taken
    /// from the [`SystemConfig`], overriding any `-cN` modifier.
    Custom {
        /// The spec string (see `ccd_directory::spec` for the grammar).
        spec: String,
    },
}

impl DirectorySpec {
    /// The paper's selected Cuckoo configuration: `ways`-ary with the given
    /// provisioning factor, indexed by the skewing hash functions.
    #[must_use]
    pub fn cuckoo(ways: usize, provisioning: f64) -> Self {
        DirectorySpec::Cuckoo {
            ways,
            provisioning,
            hash: HashKind::Skewing,
        }
    }

    /// "Sparse 2×" / "Sparse 8×" style configurations (8-way in the paper).
    #[must_use]
    pub fn sparse(ways: usize, provisioning: f64) -> Self {
        DirectorySpec::Sparse { ways, provisioning }
    }

    /// "Skewed 2×" configuration (4-way in the paper).
    #[must_use]
    pub fn skewed(ways: usize, provisioning: f64) -> Self {
        DirectorySpec::Skewed { ways, provisioning }
    }

    /// An organization given as a `ccd-directory` spec string (validated on
    /// construction).
    ///
    /// # Errors
    ///
    /// Returns the parse error for a malformed spec string.
    pub fn custom(spec: impl Into<String>) -> Result<Self, ConfigError> {
        let spec = spec.into();
        spec.parse::<ccd_directory::DirectorySpec>()?;
        Ok(DirectorySpec::Custom { spec })
    }

    /// A short label matching the paper's naming (e.g. `"Cuckoo 1.5x (3-way)"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DirectorySpec::Cuckoo {
                ways, provisioning, ..
            } => format!("Cuckoo {provisioning}x ({ways}-way)"),
            DirectorySpec::CuckooExplicit { ways, sets, .. } => {
                format!("Cuckoo {ways}x{sets}")
            }
            DirectorySpec::Sparse { ways, provisioning } => {
                format!("Sparse {provisioning}x ({ways}-way)")
            }
            DirectorySpec::Skewed { ways, provisioning } => {
                format!("Skewed {provisioning}x ({ways}-way)")
            }
            DirectorySpec::DuplicateTag => "Duplicate-Tag".to_string(),
            DirectorySpec::InCache => "In-Cache".to_string(),
            DirectorySpec::Tagless => "Tagless".to_string(),
            DirectorySpec::Custom { spec } => spec.clone(),
        }
    }

    /// Sizes one slice for `system`: the sizing policy becomes the explicit
    /// `ways × sets` geometry and tracked-cache count the builder registry
    /// takes.  Pure — nothing is built or validated here.
    ///
    /// # Errors
    ///
    /// The parse error of a malformed [`DirectorySpec::Custom`] string.
    pub fn resolve(
        &self,
        system: &SystemConfig,
    ) -> Result<ccd_directory::DirectorySpec, ConfigError> {
        use ccd_directory::DirectorySpec as Resolved;
        let tracked = system.tracked_frames_per_slice();
        let cache = system.tracked_cache();
        let mirrored_sets = system.tracked_sets_per_slice();
        let provisioned = |org, ways, provisioning| {
            Resolved::new(org, ways, provisioned_sets(ways, tracked, provisioning))
        };
        let spec = match self {
            DirectorySpec::Cuckoo {
                ways,
                provisioning,
                hash,
            } => provisioned(Org::Cuckoo, *ways, *provisioning).with_hash(*hash),
            DirectorySpec::CuckooExplicit { ways, sets, hash } => {
                Resolved::new(Org::Cuckoo, *ways, *sets).with_hash(*hash)
            }
            DirectorySpec::Sparse { ways, provisioning } => {
                provisioned(Org::Sparse, *ways, *provisioning)
            }
            DirectorySpec::Skewed { ways, provisioning } => {
                provisioned(Org::Skewed, *ways, *provisioning)
            }
            DirectorySpec::DuplicateTag => {
                Resolved::new(Org::DuplicateTag, cache.ways, mirrored_sets)
            }
            DirectorySpec::InCache => {
                // One bank of the shared L2 per slice.
                let l2 = system.private_l2;
                let sets = (l2.sets / system.num_slices()).max(1);
                Resolved::new(Org::InCache, l2.ways, sets)
            }
            DirectorySpec::Tagless => Resolved::new(Org::Tagless, cache.ways, mirrored_sets),
            DirectorySpec::Custom { spec } => spec.parse()?,
        };
        Ok(spec.with_caches(system.num_private_caches()))
    }

    /// Builds one directory slice sized for `system`.
    ///
    /// # Errors
    ///
    /// Propagates the organization's own configuration errors (invalid way
    /// counts, etc.).
    pub fn build_slice(&self, system: &SystemConfig) -> Result<Box<dyn Directory>, ConfigError> {
        ccd_cuckoo::standard_registry().build(&self.resolve(system)?)
    }
}

impl std::str::FromStr for DirectorySpec {
    type Err = ConfigError;

    /// Parses a `ccd-directory` spec string into a
    /// [`DirectorySpec::Custom`], making the simulator configuration fully
    /// string-driven (`"cuckoo-4x512-skew"`, `"sharded8:sparse-8x256"`, …).
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        DirectorySpec::custom(s)
    }
}

impl fmt::Display for DirectorySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;

    #[test]
    fn paper_configurations_build_with_the_expected_geometry() {
        let shared = SystemConfig::table1(Hierarchy::SharedL2);
        let private = SystemConfig::table1(Hierarchy::PrivateL2);

        // Shared-L2 1x 4-way cuckoo = 4 x 512 (Section 5.3).
        let dir = DirectorySpec::cuckoo(4, 1.0).build_slice(&shared).unwrap();
        assert_eq!(dir.capacity(), 2048);
        assert_eq!(dir.num_caches(), 32);

        // Private-L2 1.5x 3-way cuckoo = 3 x 8192 (Section 5.3).
        let dir = DirectorySpec::cuckoo(3, 1.5).build_slice(&private).unwrap();
        assert_eq!(dir.capacity(), 3 * 8192);
        assert_eq!(dir.num_caches(), 16);

        // Under-provisioned configurations round up to a power of two:
        // 0.375 x 2048 frames over 3 ways -> 3 x 256.
        let dir = DirectorySpec::cuckoo(3, 0.375)
            .build_slice(&shared)
            .unwrap();
        assert_eq!(dir.capacity(), 3 * 256);

        // Sparse 2x, 8-way for Shared-L2: capacity 4096.
        let dir = DirectorySpec::sparse(8, 2.0).build_slice(&shared).unwrap();
        assert_eq!(dir.capacity(), 4096);

        // Skewed 2x has the same capacity as Sparse 2x (Section 5.4).
        let dir = DirectorySpec::skewed(4, 2.0).build_slice(&shared).unwrap();
        assert_eq!(dir.capacity(), 4096);

        // Duplicate-Tag capacity equals the tracked frames per slice.
        let dir = DirectorySpec::DuplicateTag.build_slice(&shared).unwrap();
        assert_eq!(dir.capacity(), 2048);

        // Tagless and In-Cache build successfully.
        assert!(DirectorySpec::Tagless.build_slice(&shared).is_ok());
        assert!(DirectorySpec::InCache.build_slice(&shared).is_ok());
    }

    #[test]
    fn labels_follow_the_paper_naming() {
        assert_eq!(DirectorySpec::sparse(8, 2.0).label(), "Sparse 2x (8-way)");
        assert_eq!(DirectorySpec::cuckoo(3, 1.5).label(), "Cuckoo 1.5x (3-way)");
        assert_eq!(DirectorySpec::DuplicateTag.label(), "Duplicate-Tag");
        assert_eq!(DirectorySpec::Tagless.label(), "Tagless");
        assert_eq!(
            DirectorySpec::CuckooExplicit {
                ways: 4,
                sets: 512,
                hash: HashKind::Skewing
            }
            .label(),
            "Cuckoo 4x512"
        );
        assert_eq!(format!("{}", DirectorySpec::InCache), "In-Cache");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let shared = SystemConfig::table1(Hierarchy::SharedL2);
        assert!(DirectorySpec::cuckoo(1, 1.0).build_slice(&shared).is_err());
        assert!(DirectorySpec::sparse(0, 2.0).build_slice(&shared).is_err());
    }

    #[test]
    fn custom_specs_build_through_the_registry() {
        let shared = SystemConfig::table1(Hierarchy::SharedL2);
        let dir = "cuckoo-4x512-skew"
            .parse::<DirectorySpec>()
            .unwrap()
            .build_slice(&shared)
            .unwrap();
        assert_eq!(dir.capacity(), 2048);
        assert_eq!(dir.num_caches(), 32, "caches come from the system config");

        let sharded_spec = DirectorySpec::custom("sharded4:sparse-8x512").unwrap();
        assert_eq!(sharded_spec.label(), "sharded4:sparse-8x512");
        let sharded = sharded_spec.build_slice(&shared).unwrap();
        assert_eq!(sharded.capacity(), 8 * 512);

        assert!(DirectorySpec::custom("bogus-1x2").is_err());
        assert!("sparse-0x64".parse::<DirectorySpec>().is_err());
    }
}
