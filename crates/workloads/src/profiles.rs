//! Per-workload profiles calibrated to the paper's workload suite (Table 2).
//!
//! Each profile specifies the directory-visible characteristics of one
//! workload: the size of the instruction footprint shared by all cores, the
//! size of the shared-data region, the per-core private-data footprint, the
//! instruction/read/write mix, the fraction of data accesses that go to the
//! shared region, and the access skew.  The presets are calibrated so that
//! the qualitative behaviour the paper reports emerges:
//!
//! * the OLTP and Web workloads have large shared instruction and data
//!   footprints, so many cached blocks are replicated across caches and the
//!   directory occupancy stays well below the worst case (Figure 8),
//! * the DSS queries and the scientific kernels are dominated by large
//!   private footprints (ocean is the extreme with essentially 100 % unique
//!   private blocks), which pushes Private-L2 directory occupancy towards
//!   the worst case and motivates the 1.5× provisioning (Section 5.2),
//! * server workloads have highly skewed access patterns while the
//!   scientific kernels sweep their data uniformly (Section 5.4 notes their
//!   "more uniform distribution of accesses").

use std::fmt;

/// The workload classes of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Online transaction processing (TPC-C).
    Oltp,
    /// Decision support (TPC-H).
    Dss,
    /// Web serving (SPECweb99).
    Web,
    /// Scientific kernels.
    Scientific,
}

impl fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WorkloadCategory::Oltp => "OLTP",
            WorkloadCategory::Dss => "DSS",
            WorkloadCategory::Web => "Web",
            WorkloadCategory::Scientific => "Sci",
        };
        f.write_str(name)
    }
}

/// The parameters describing one synthetic workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Short name used in figures (e.g. `"Oracle"`).
    pub name: &'static str,
    /// Workload class.
    pub category: WorkloadCategory,
    /// Blocks of instruction footprint shared by every core.
    pub shared_code_blocks: usize,
    /// Blocks of data shared among all cores.
    pub shared_data_blocks: usize,
    /// Blocks of private data per core.
    pub private_data_blocks: usize,
    /// Fraction of references that are instruction fetches.
    pub ifetch_fraction: f64,
    /// Fraction of *data* references that are writes.
    pub write_fraction: f64,
    /// Fraction of data references that target the shared-data region
    /// (the rest go to the issuing core's private region).
    pub shared_data_fraction: f64,
    /// Zipf skew of accesses within the shared regions (0 = uniform).
    pub shared_skew: f64,
    /// Zipf skew of accesses within the private regions (0 = uniform).
    pub private_skew: f64,
}

impl WorkloadProfile {
    /// IBM DB2 running TPC-C (OLTP): large shared buffer pool and hot
    /// shared instruction paths.
    #[must_use]
    pub fn db2() -> Self {
        WorkloadProfile {
            name: "DB2",
            category: WorkloadCategory::Oltp,
            shared_code_blocks: 2_048,
            shared_data_blocks: 24_576,
            private_data_blocks: 8_192,
            ifetch_fraction: 0.30,
            write_fraction: 0.16,
            shared_data_fraction: 0.62,
            shared_skew: 0.85,
            private_skew: 0.60,
        }
    }

    /// Oracle running TPC-C (OLTP): similar to DB2 with a somewhat larger
    /// private working set per server process.
    #[must_use]
    pub fn oracle() -> Self {
        WorkloadProfile {
            name: "Oracle",
            category: WorkloadCategory::Oltp,
            shared_code_blocks: 2_560,
            shared_data_blocks: 20_480,
            private_data_blocks: 10_240,
            ifetch_fraction: 0.28,
            write_fraction: 0.18,
            shared_data_fraction: 0.55,
            shared_skew: 0.80,
            private_skew: 0.55,
        }
    }

    /// TPC-H query 2 (DSS): join-heavy with moderate scans.
    #[must_use]
    pub fn qry2() -> Self {
        WorkloadProfile {
            name: "Qry2",
            category: WorkloadCategory::Dss,
            shared_code_blocks: 1_024,
            shared_data_blocks: 8_192,
            private_data_blocks: 28_672,
            ifetch_fraction: 0.22,
            write_fraction: 0.06,
            shared_data_fraction: 0.25,
            shared_skew: 0.70,
            private_skew: 0.25,
        }
    }

    /// TPC-H query 16 (DSS): scan-dominated.
    #[must_use]
    pub fn qry16() -> Self {
        WorkloadProfile {
            name: "Qry16",
            category: WorkloadCategory::Dss,
            shared_code_blocks: 1_024,
            shared_data_blocks: 6_144,
            private_data_blocks: 32_768,
            ifetch_fraction: 0.20,
            write_fraction: 0.05,
            shared_data_fraction: 0.20,
            shared_skew: 0.70,
            private_skew: 0.20,
        }
    }

    /// TPC-H query 17 (DSS): the largest scans of the three queries.
    #[must_use]
    pub fn qry17() -> Self {
        WorkloadProfile {
            name: "Qry17",
            category: WorkloadCategory::Dss,
            shared_code_blocks: 1_024,
            shared_data_blocks: 4_096,
            private_data_blocks: 40_960,
            ifetch_fraction: 0.18,
            write_fraction: 0.05,
            shared_data_fraction: 0.15,
            shared_skew: 0.65,
            private_skew: 0.15,
        }
    }

    /// Apache serving SPECweb99: very large shared instruction footprint.
    #[must_use]
    pub fn apache() -> Self {
        WorkloadProfile {
            name: "Apache",
            category: WorkloadCategory::Web,
            shared_code_blocks: 4_096,
            shared_data_blocks: 12_288,
            private_data_blocks: 6_144,
            ifetch_fraction: 0.36,
            write_fraction: 0.11,
            shared_data_fraction: 0.50,
            shared_skew: 0.90,
            private_skew: 0.60,
        }
    }

    /// Zeus serving SPECweb99: event-driven, smaller private state than
    /// Apache.
    #[must_use]
    pub fn zeus() -> Self {
        WorkloadProfile {
            name: "Zeus",
            category: WorkloadCategory::Web,
            shared_code_blocks: 3_072,
            shared_data_blocks: 14_336,
            private_data_blocks: 5_120,
            ifetch_fraction: 0.34,
            write_fraction: 0.10,
            shared_data_fraction: 0.55,
            shared_skew: 0.90,
            private_skew: 0.65,
        }
    }

    /// em3d (scientific): electromagnetic wave propagation on a bipartite
    /// graph, 15 % remote (shared) edges.
    #[must_use]
    pub fn em3d() -> Self {
        WorkloadProfile {
            name: "em3d",
            category: WorkloadCategory::Scientific,
            shared_code_blocks: 256,
            shared_data_blocks: 12_288,
            private_data_blocks: 32_768,
            ifetch_fraction: 0.06,
            write_fraction: 0.28,
            shared_data_fraction: 0.15,
            shared_skew: 0.10,
            private_skew: 0.05,
        }
    }

    /// ocean (scientific): grid relaxation with essentially fully private
    /// per-core tiles — the paper's extreme case of "nearly 100 % unique
    /// private blocks in all caches".
    #[must_use]
    pub fn ocean() -> Self {
        WorkloadProfile {
            name: "ocean",
            category: WorkloadCategory::Scientific,
            shared_code_blocks: 256,
            shared_data_blocks: 2_048,
            private_data_blocks: 49_152,
            ifetch_fraction: 0.05,
            write_fraction: 0.32,
            shared_data_fraction: 0.03,
            shared_skew: 0.10,
            private_skew: 0.02,
        }
    }

    /// All nine paper workloads in the order the figures present them
    /// (OLTP, DSS, Web, Scientific).
    #[must_use]
    pub fn all_paper_workloads() -> Vec<WorkloadProfile> {
        vec![
            Self::db2(),
            Self::oracle(),
            Self::qry2(),
            Self::qry16(),
            Self::qry17(),
            Self::apache(),
            Self::zeus(),
            Self::em3d(),
            Self::ocean(),
        ]
    }

    /// Looks a preset up by its (case-insensitive) figure name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        Self::all_paper_workloads()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Validates that the profile's fractions are sane.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let frac_ok = |f: f64| (0.0..=1.0).contains(&f);
        self.shared_code_blocks > 0
            && self.private_data_blocks > 0
            && self.shared_data_blocks > 0
            && frac_ok(self.ifetch_fraction)
            && frac_ok(self.write_fraction)
            && frac_ok(self.shared_data_fraction)
            && self.shared_skew >= 0.0
            && self.private_skew >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_valid_and_distinct() {
        let all = WorkloadProfile::all_paper_workloads();
        assert_eq!(all.len(), 9);
        for p in &all {
            assert!(p.is_valid(), "{} invalid", p.name);
        }
        let names: std::collections::BTreeSet<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(WorkloadProfile::by_name("ORACLE").unwrap().name, "Oracle");
        assert_eq!(WorkloadProfile::by_name("ocean").unwrap().name, "ocean");
        assert!(WorkloadProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn scientific_workloads_are_private_dominated() {
        // The calibration property behind Figure 8: ocean's private
        // footprint dwarfs its shared footprint, OLTP's does not.
        let ocean = WorkloadProfile::ocean();
        assert!(ocean.private_data_blocks > 10 * ocean.shared_data_blocks);
        assert!(ocean.shared_data_fraction < 0.05);

        let db2 = WorkloadProfile::db2();
        assert!(db2.shared_data_blocks > db2.private_data_blocks);
        assert!(db2.shared_data_fraction > 0.5);
    }

    #[test]
    fn category_display() {
        assert_eq!(WorkloadCategory::Oltp.to_string(), "OLTP");
        assert_eq!(WorkloadCategory::Scientific.to_string(), "Sci");
        assert_eq!(WorkloadProfile::apache().category, WorkloadCategory::Web);
    }
}
