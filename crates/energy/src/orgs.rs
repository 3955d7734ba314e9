//! The organizations of Figures 4 and 13 and the geometry each has at a
//! given system size.
//!
//! The bit accounting itself — total bits stored per slice, bits read per
//! lookup, bits written per update — is [`StorageProfile`]'s four
//! constructors; [`storage_profile`] decides which one an organization is
//! and with what geometry.  Provisioned organizations get their set count
//! from the rule the simulator sizes its slices with
//! ([`provisioned_sets`]), so a label means one geometry to both
//! (`tests/model_cross_checks.rs`).

use ccd_directory::spec::provisioned_sets;
use ccd_directory::StorageProfile;
use ccd_sharers::SharerFormat;
use std::fmt;

/// Bloom-filter buckets per (cache, set) filter of the Tagless
/// organization: the filter is sized proportionally to the number of blocks
/// it summarizes (~8 buckets per cache way), as in the MICRO 2009 design.
#[must_use]
pub(crate) fn tagless_buckets(cache_ways: usize) -> usize {
    (cache_ways * 8).next_power_of_two()
}

/// A directory organization, as plotted in Figures 4 and 13.
#[derive(Clone, Debug, PartialEq)]
pub enum DirOrg {
    /// Duplicate-Tag directory (mirrors every private cache's tags).
    DuplicateTag,
    /// Tagless directory (grid of Bloom filters).
    Tagless,
    /// In-cache directory: full sharer vectors on every shared-L2 tag
    /// (Shared-L2 hierarchy only).
    InCacheFullVector,
    /// Sparse directory with full bit-vector entries.
    SparseFullVector {
        /// Associativity.
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks per slice.
        provisioning: f64,
    },
    /// Sparse directory with coarse-vector entries (the paper's
    /// "Sparse 8× Coarse").
    SparseCoarse {
        /// Associativity.
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks per slice.
        provisioning: f64,
    },
    /// Sparse directory with two-level hierarchical entries ("Sparse 8×
    /// Hierarchical").
    SparseHierarchical {
        /// Associativity.
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks per slice.
        provisioning: f64,
    },
    /// Cuckoo directory with coarse-vector entries ("Cuckoo Coarse").
    CuckooCoarse {
        /// Number of ways (`d`).
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks per slice.
        provisioning: f64,
    },
    /// Cuckoo directory with hierarchical entries ("Cuckoo Hierarchical").
    CuckooHierarchical {
        /// Number of ways (`d`).
        ways: usize,
        /// Capacity relative to the worst-case tracked blocks per slice.
        provisioning: f64,
    },
}

impl DirOrg {
    /// The paper's Cuckoo Coarse configuration for the Shared-L2 hierarchy:
    /// 4-way, 1× provisioning.
    #[must_use]
    pub fn cuckoo_coarse_shared() -> Self {
        DirOrg::CuckooCoarse {
            ways: 4,
            provisioning: 1.0,
        }
    }

    /// The paper's Cuckoo Coarse configuration for the Private-L2
    /// hierarchy: 3-way, 1.5× provisioning.
    #[must_use]
    pub fn cuckoo_coarse_private() -> Self {
        DirOrg::CuckooCoarse {
            ways: 3,
            provisioning: 1.5,
        }
    }

    /// The organizations plotted in Figure 4 (baselines only), in the
    /// legend's order.
    #[must_use]
    pub fn figure4_set() -> Vec<DirOrg> {
        vec![
            DirOrg::DuplicateTag,
            DirOrg::Tagless,
            DirOrg::InCacheFullVector,
            DirOrg::SparseHierarchical {
                ways: 8,
                provisioning: 8.0,
            },
            DirOrg::SparseCoarse {
                ways: 8,
                provisioning: 8.0,
            },
        ]
    }

    /// The organizations plotted in Figure 13, in the legend's order, for a
    /// given hierarchy (`shared = true` for Shared-L2).
    #[must_use]
    pub fn figure13_set(shared: bool) -> Vec<DirOrg> {
        let (cuckoo_ways, cuckoo_prov) = if shared { (4, 1.0) } else { (3, 1.5) };
        let mut orgs = vec![DirOrg::DuplicateTag, DirOrg::Tagless];
        if shared {
            orgs.push(DirOrg::InCacheFullVector);
        } else {
            orgs.push(DirOrg::SparseFullVector {
                ways: 8,
                provisioning: 8.0,
            });
        }
        orgs.push(DirOrg::SparseHierarchical {
            ways: 8,
            provisioning: 8.0,
        });
        orgs.push(DirOrg::SparseCoarse {
            ways: 8,
            provisioning: 8.0,
        });
        orgs.push(DirOrg::CuckooHierarchical {
            ways: cuckoo_ways,
            provisioning: cuckoo_prov,
        });
        orgs.push(DirOrg::CuckooCoarse {
            ways: cuckoo_ways,
            provisioning: cuckoo_prov,
        });
        orgs
    }

    /// Short label matching the figure legends.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DirOrg::DuplicateTag => "Duplicate-Tag".to_string(),
            DirOrg::Tagless => "Tagless".to_string(),
            DirOrg::InCacheFullVector => "In-Cache".to_string(),
            DirOrg::SparseFullVector { provisioning, .. } => {
                format!("Sparse {provisioning}x Full")
            }
            DirOrg::SparseCoarse { provisioning, .. } => format!("Sparse {provisioning}x Coarse"),
            DirOrg::SparseHierarchical { provisioning, .. } => {
                format!("Sparse {provisioning}x Hierarchical")
            }
            DirOrg::CuckooCoarse { .. } => "Cuckoo Coarse".to_string(),
            DirOrg::CuckooHierarchical { .. } => "Cuckoo Hierarchical".to_string(),
        }
    }

    /// `true` for the two Cuckoo organizations.
    #[must_use]
    pub(crate) fn is_cuckoo(&self) -> bool {
        matches!(
            self,
            DirOrg::CuckooCoarse { .. } | DirOrg::CuckooHierarchical { .. }
        )
    }
}

impl fmt::Display for DirOrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Parameters of one directory slice's environment, independent of the
/// organization: how many caches it serves and how many blocks it must be
/// able to track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceEnvironment {
    /// Number of private caches in the system (sharer-vector width).
    pub num_caches: usize,
    /// Worst-case blocks one slice must track (cache frames mapping to it).
    pub tracked_frames: usize,
    /// Tracked-cache sets mapping to this slice (sizes Duplicate-Tag and
    /// Tagless mirrors).
    pub tracked_sets: usize,
    /// Tracked-cache associativity.
    pub cache_ways: usize,
    /// Shared-L2 frames per slice (sizes the in-cache organization); zero
    /// when there is no shared L2.
    pub l2_frames_per_slice: usize,
    /// Shared-L2 associativity.
    pub l2_ways: usize,
}

/// Computes the per-slice storage profile of `org` in environment `env`.
#[must_use]
pub fn storage_profile(org: &DirOrg, env: &SliceEnvironment) -> StorageProfile {
    let caches = env.num_caches;
    match org {
        DirOrg::DuplicateTag => {
            StorageProfile::duplicate_tag(env.tracked_sets, env.cache_ways, caches)
        }
        DirOrg::Tagless => {
            StorageProfile::tagless(env.tracked_sets, caches, tagless_buckets(env.cache_ways))
        }
        DirOrg::InCacheFullVector => StorageProfile::untagged(
            env.l2_ways,
            env.l2_frames_per_slice / env.l2_ways.max(1),
            SharerFormat::FullVector.entry_bits(caches),
        ),
        DirOrg::SparseFullVector { ways, provisioning }
        | DirOrg::SparseCoarse { ways, provisioning }
        | DirOrg::SparseHierarchical { ways, provisioning }
        | DirOrg::CuckooCoarse { ways, provisioning }
        | DirOrg::CuckooHierarchical { ways, provisioning } => {
            let format = match org {
                DirOrg::SparseFullVector { .. } => SharerFormat::FullVector,
                DirOrg::SparseCoarse { .. } | DirOrg::CuckooCoarse { .. } => SharerFormat::Coarse,
                _ => SharerFormat::Hierarchical,
            };
            let sets = provisioned_sets(*ways, env.tracked_frames, *provisioning);
            StorageProfile::tagged(*ways, sets, format.entry_bits(caches))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_env(cores: usize) -> SliceEnvironment {
        // 64 KB 2-way L1 I+D per core, 16 slices-worth divided per core count
        // is irrelevant here: per-slice quantities stay constant.
        SliceEnvironment {
            num_caches: 2 * cores,
            tracked_frames: 2048,
            tracked_sets: 512 / 16 * 2, // I+D sets mapping to one slice at 16 cores
            cache_ways: 2,
            l2_frames_per_slice: 16_384,
            l2_ways: 16,
        }
    }

    #[test]
    fn duplicate_tag_lookup_width_scales_with_cores() {
        let p16 = storage_profile(&DirOrg::DuplicateTag, &shared_env(16));
        let p1024 = storage_profile(&DirOrg::DuplicateTag, &shared_env(1024));
        assert_eq!(
            p1024.bits_read_per_lookup,
            64 * p16.bits_read_per_lookup,
            "64x the caches -> 64x the lookup width"
        );
        assert_eq!(p16.bits_written_per_update, p1024.bits_written_per_update);
    }

    #[test]
    fn tagless_is_tiny_but_reads_scale_with_cores() {
        let p16 = storage_profile(&DirOrg::Tagless, &shared_env(16));
        let p1024 = storage_profile(&DirOrg::Tagless, &shared_env(1024));
        assert_eq!(p1024.bits_read_per_lookup, 64 * p16.bits_read_per_lookup);
        // The paper calls both Duplicate-Tag and Tagless "area-efficient";
        // Tagless stores fewer bits per tracked frame than a duplicated tag.
        let dup = storage_profile(&DirOrg::DuplicateTag, &shared_env(1024));
        assert!(p1024.total_bits < dup.total_bits);
    }

    #[test]
    fn compressed_sparse_and_cuckoo_are_nearly_core_count_independent() {
        // Coarse entries grow only logarithmically with the cache count,
        // hierarchical entries with its square root; both are "nearly flat"
        // over the paper's 64x core-count range compared to the 64x growth
        // of full vectors and wide lookups.
        let cases: [(DirOrg, f64); 3] = [
            (
                DirOrg::SparseCoarse {
                    ways: 8,
                    provisioning: 8.0,
                },
                1.6,
            ),
            (
                DirOrg::CuckooCoarse {
                    ways: 4,
                    provisioning: 1.0,
                },
                1.6,
            ),
            (
                DirOrg::CuckooHierarchical {
                    ways: 4,
                    provisioning: 1.0,
                },
                4.0,
            ),
        ];
        for (org, bound) in cases {
            let p16 = storage_profile(&org, &shared_env(16));
            let p1024 = storage_profile(&org, &shared_env(1024));
            let growth = p1024.total_bits as f64 / p16.total_bits as f64;
            assert!(
                growth < bound,
                "{org}: per-slice storage grew {growth}x from 16 to 1024 cores"
            );
            let e_growth = p1024.bits_read_per_lookup as f64 / p16.bits_read_per_lookup as f64;
            assert!(e_growth < bound, "{org}: lookup width grew {e_growth}x");
        }
    }

    #[test]
    fn full_vector_storage_grows_linearly_with_cores() {
        let sparse = DirOrg::SparseFullVector {
            ways: 8,
            provisioning: 8.0,
        };
        let p16 = storage_profile(&sparse, &shared_env(16));
        let p256 = storage_profile(&sparse, &shared_env(256));
        let growth = p256.total_bits as f64 / p16.total_bits as f64;
        assert!(
            growth > 8.0,
            "full vectors must dominate storage, growth {growth}"
        );

        let in_cache = DirOrg::InCacheFullVector;
        let p16 = storage_profile(&in_cache, &shared_env(16));
        let p256 = storage_profile(&in_cache, &shared_env(256));
        assert_eq!(p256.total_bits, 16 * p16.total_bits);
    }

    #[test]
    fn cuckoo_is_much_smaller_than_sparse_8x_with_the_same_entry_format() {
        let env = shared_env(1024);
        let sparse = storage_profile(
            &DirOrg::SparseCoarse {
                ways: 8,
                provisioning: 8.0,
            },
            &env,
        );
        let cuckoo = storage_profile(&DirOrg::cuckoo_coarse_shared(), &env);
        let ratio = sparse.total_bits as f64 / cuckoo.total_bits as f64;
        assert!(
            ratio > 6.0,
            "paper claims ~7x area advantage at 1024 cores, model gives {ratio}"
        );
    }

    #[test]
    fn figure_sets_have_the_documented_membership() {
        assert_eq!(DirOrg::figure4_set().len(), 5);
        let shared = DirOrg::figure13_set(true);
        let private = DirOrg::figure13_set(false);
        assert_eq!(shared.len(), 7);
        assert_eq!(private.len(), 7);
        assert!(shared.contains(&DirOrg::InCacheFullVector));
        assert!(!private.contains(&DirOrg::InCacheFullVector));
        assert!(shared.iter().filter(|o| o.is_cuckoo()).count() == 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DirOrg::DuplicateTag.label(), "Duplicate-Tag");
        assert_eq!(
            DirOrg::SparseCoarse {
                ways: 8,
                provisioning: 8.0
            }
            .label(),
            "Sparse 8x Coarse"
        );
        assert_eq!(DirOrg::cuckoo_coarse_private().label(), "Cuckoo Coarse");
        assert_eq!(format!("{}", DirOrg::Tagless), "Tagless");
    }
}
