//! Aggregated simulation results.

use ccd_directory::DirectoryStats;

/// The result of one simulation run: directory statistics merged across all
/// slices plus cache-side and protocol-side counters.
///
/// These are the quantities the paper's evaluation figures report:
/// [`SimReport::avg_directory_occupancy`] (Figure 8),
/// [`SimReport::avg_insertion_attempts`] (Figures 9–11) and
/// [`SimReport::forced_invalidation_rate`] (Figures 9 and 12).
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Label of the directory organization simulated.
    pub organization: String,
    /// Number of memory references processed while measuring.
    pub refs_processed: u64,
    /// Directory statistics merged across all slices.
    pub directory: DirectoryStats,
    /// Directory occupancy sampled over time, averaged across slices.
    pub avg_directory_occupancy: f64,
    /// Private-cache accesses.
    pub cache_accesses: u64,
    /// Private-cache misses (fills).
    pub cache_misses: u64,
    /// Blocks invalidated in private caches by exclusive (write/upgrade)
    /// requests — ordinary coherence traffic.
    pub coherence_invalidations: u64,
    /// Blocks invalidated in private caches because the directory ran out of
    /// space — the "forced invalidations" the Cuckoo directory eliminates.
    pub forced_invalidations: u64,
}

impl SimReport {
    /// Forced evictions per directory insertion (the paper's invalidation
    /// rate, Figure 12), as a fraction.
    #[must_use]
    pub fn forced_invalidation_rate(&self) -> f64 {
        self.directory.forced_invalidation_rate()
    }

    /// Average insertion attempts per directory insertion (Figures 9, 10).
    #[must_use]
    pub fn avg_insertion_attempts(&self) -> f64 {
        self.directory.avg_insertion_attempts()
    }

    /// Private-cache miss rate.
    #[must_use]
    pub fn cache_miss_rate(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.cache_accesses as f64
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: occupancy {:.1}%, avg attempts {:.2}, forced-invalidation rate {:.4}%, miss rate {:.2}%",
            self.organization,
            self.avg_directory_occupancy * 100.0,
            self.avg_insertion_attempts(),
            self.forced_invalidation_rate() * 100.0,
            self.cache_miss_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_handle_empty_reports() {
        let report = SimReport {
            organization: "test".to_string(),
            refs_processed: 0,
            directory: DirectoryStats::new(),
            avg_directory_occupancy: 0.0,
            cache_accesses: 0,
            cache_misses: 0,
            coherence_invalidations: 0,
            forced_invalidations: 0,
        };
        assert_eq!(report.cache_miss_rate(), 0.0);
        assert_eq!(report.forced_invalidation_rate(), 0.0);
        assert_eq!(report.avg_insertion_attempts(), 0.0);
        assert!(report.summary().contains("test"));
    }

    #[test]
    fn summary_reports_percentages() {
        let mut stats = DirectoryStats::new();
        stats.record_insertion(2, 1);
        let report = SimReport {
            organization: "Sparse 2x (8-way)".to_string(),
            refs_processed: 100,
            directory: stats,
            avg_directory_occupancy: 0.5,
            cache_accesses: 100,
            cache_misses: 25,
            coherence_invalidations: 3,
            forced_invalidations: 1,
        };
        assert!((report.cache_miss_rate() - 0.25).abs() < 1e-12);
        let s = report.summary();
        assert!(s.contains("Sparse 2x"));
        assert!(s.contains("50.0%"));
    }
}
