//! Per-directory statistics.
//!
//! The counters gathered here are exactly the quantities the paper's
//! evaluation reports:
//!
//! * forced-invalidation rate — forced evictions per directory-entry
//!   insertion (Figures 9 and 12),
//! * average and distribution of insertion attempts (Figures 7, 9, 10, 11),
//! * the directory event mix used to weight the energy model
//!   (footnote 1 of Section 5.6).

use ccd_common::stats::{Counter, Histogram, LogHistogram, MetricSnapshot, RateEstimator};

/// Upper bound for the insertion-attempt histogram, matching the paper's
/// 32-attempt cap (Section 5.2).
pub const MAX_TRACKED_ATTEMPTS: usize = 32;

/// Significant bits of [`DepthMetrics`]' histograms: quantiles within 25 %
/// of the exact depth.
pub(crate) const DEPTH_SIG_BITS: u32 = 2;

/// Statistics accumulated by a directory slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Lookups performed (reads of the directory, including the implicit
    /// lookup preceding every insertion).
    pub lookups: Counter,
    /// New tags inserted into the directory.
    pub insertions: Counter,
    /// Sharer added to an already-present entry.
    pub sharer_adds: Counter,
    /// Sharer removed from an entry (private-cache eviction).
    pub sharer_removes: Counter,
    /// Entries removed because their last sharer left or the home block was
    /// evicted.
    pub entry_removes: Counter,
    /// "Invalidate all sharers" operations (exclusive requests that found
    /// other sharers).
    pub invalidate_alls: Counter,
    /// Directory entries evicted because of structural conflicts, each of
    /// which forces invalidation of live cached blocks.
    pub forced_evictions: Counter,
    /// Cached blocks invalidated as a result of forced evictions.
    pub forced_block_invalidations: Counter,
    /// Forced evictions per insertion — the paper's invalidation rate.
    pub invalidation_rate: RateEstimator,
    /// Distribution of insertion attempts (1 = vacant way found during the
    /// initial lookup).
    pub insertion_attempts: Histogram,
    /// Insertions that failed to find a vacant slot within the attempt
    /// budget and had to discard an entry.
    pub insertion_failures: Counter,
}

impl Default for DirectoryStats {
    fn default() -> Self {
        Self::new()
    }
}

impl DirectoryStats {
    /// Creates an empty statistics block.
    #[must_use]
    pub fn new() -> Self {
        DirectoryStats {
            lookups: Counter::new(),
            insertions: Counter::new(),
            sharer_adds: Counter::new(),
            sharer_removes: Counter::new(),
            entry_removes: Counter::new(),
            invalidate_alls: Counter::new(),
            forced_evictions: Counter::new(),
            forced_block_invalidations: Counter::new(),
            invalidation_rate: RateEstimator::new(),
            insertion_attempts: Histogram::new(MAX_TRACKED_ATTEMPTS),
            insertion_failures: Counter::new(),
        }
    }

    /// Records a completed insertion: `attempts` insertion attempts and
    /// `forced_evictions` entries displaced out of the directory.
    pub fn record_insertion(&mut self, attempts: u32, forced_evictions: u64) {
        self.insertions.incr();
        self.insertion_attempts.record(u64::from(attempts));
        if forced_evictions > 0 {
            self.forced_evictions.add(forced_evictions);
            self.invalidation_rate.record_hit(forced_evictions);
        } else {
            self.invalidation_rate.record_miss();
        }
    }

    /// Mean number of insertion attempts per insertion.
    #[must_use]
    pub fn avg_insertion_attempts(&self) -> f64 {
        self.insertion_attempts.mean()
    }

    /// Forced-invalidation rate: forced evictions per insertion (0.0..).
    #[must_use]
    pub fn forced_invalidation_rate(&self) -> f64 {
        self.invalidation_rate.rate()
    }

    /// Total directory operations, used to derive the event mix.
    #[must_use]
    pub(crate) fn total_operations(&self) -> u64 {
        self.insertions.get()
            + self.sharer_adds.get()
            + self.sharer_removes.get()
            + self.entry_removes.get()
            + self.invalidate_alls.get()
    }

    /// The event mix as fractions of all directory operations, in the order
    /// `(insert, add sharer, remove sharer, remove tag, invalidate all)` —
    /// the quantities of footnote 1 in Section 5.6.
    #[must_use]
    pub fn event_mix(&self) -> EventMix {
        let total = self.total_operations();
        let frac = |c: Counter| {
            if total == 0 {
                0.0
            } else {
                c.get() as f64 / total as f64
            }
        };
        EventMix {
            insert_tag: frac(self.insertions),
            add_sharer: frac(self.sharer_adds),
            remove_sharer: frac(self.sharer_removes),
            remove_tag: frac(self.entry_removes),
            invalidate_all: frac(self.invalidate_alls),
        }
    }

    /// Merges another statistics block into this one (used when aggregating
    /// the per-slice statistics of a distributed directory).
    pub fn merge(&mut self, other: &DirectoryStats) {
        self.lookups.add(other.lookups.get());
        self.insertions.add(other.insertions.get());
        self.sharer_adds.add(other.sharer_adds.get());
        self.sharer_removes.add(other.sharer_removes.get());
        self.entry_removes.add(other.entry_removes.get());
        self.invalidate_alls.add(other.invalidate_alls.get());
        self.forced_evictions.add(other.forced_evictions.get());
        self.forced_block_invalidations
            .add(other.forced_block_invalidations.get());
        self.invalidation_rate.merge(&other.invalidation_rate);
        self.insertion_attempts.merge(&other.insertion_attempts);
        self.insertion_failures.add(other.insertion_failures.get());
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = DirectoryStats::new();
    }
}

/// Depth distributions gathered by an instrumented hash-table directory.
///
/// Where [`DirectoryStats`] counts *what* happened, `DepthMetrics` records
/// *how far* each operation had to walk: probe depth (ways inspected per
/// lookup-bearing operation) and displacement-chain length (entries moved
/// per cuckoo insertion).  The histograms are HDR-style
/// [`LogHistogram`]s so tails stay cheap to record at full precision.
///
/// Arming is optional and off by default — an unarmed directory pays one
/// branch per record site (contract #11: observation must not perturb
/// semantics, and must barely perturb throughput).  Like
/// [`DirectoryStats`], per-shard metrics merge in a fixed shard order into
/// a worker-count-invariant aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepthMetrics {
    /// Ways inspected by the probe serving each table operation (1 = hit
    /// or vacancy in the first way).
    pub probe_depth: LogHistogram,
    /// Entries displaced by each insertion that had to displace (length
    /// of the random-walk kick chain).
    pub displacement_chain: LogHistogram,
}

impl Default for DepthMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl DepthMetrics {
    /// Creates empty metrics at `DEPTH_SIG_BITS` histogram resolution.
    #[must_use]
    pub fn new() -> Self {
        DepthMetrics {
            probe_depth: LogHistogram::new(DEPTH_SIG_BITS),
            displacement_chain: LogHistogram::new(DEPTH_SIG_BITS),
        }
    }

    /// Merges another metrics block into this one (fixed-shard-order
    /// reduction, like [`DirectoryStats::merge`]).
    pub fn merge(&mut self, other: &DepthMetrics) {
        self.probe_depth.merge(&other.probe_depth);
        self.displacement_chain.merge(&other.displacement_chain);
    }

    /// Registers the two distributions into `snapshot` under their
    /// canonical names.
    pub fn register_into(&self, snapshot: &mut MetricSnapshot) {
        snapshot.push_histogram("probe_depth", &self.probe_depth);
        snapshot.push_histogram("displacement_chain", &self.displacement_chain);
    }

    /// Resets every histogram, keeping the resolution.
    pub fn reset(&mut self) {
        self.probe_depth.reset();
        self.displacement_chain.reset();
    }
}

/// Relative frequencies of the five directory event classes.
///
/// The paper measured, across its workload suite: insert 23.5%, add sharer
/// 26.9%, remove sharer 24.9%, remove tag 23.5%, invalidate-all 1.2%
/// (Section 5.6, footnote 1). [`EventMix::paper_reference`] returns those
/// reference values for use by the analytical energy model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventMix {
    /// Fraction of operations that insert a new tag.
    pub insert_tag: f64,
    /// Fraction of operations that add a sharer to an existing entry.
    pub add_sharer: f64,
    /// Fraction of operations that remove a sharer from an existing entry.
    pub remove_sharer: f64,
    /// Fraction of operations that remove a tag from the directory.
    pub remove_tag: f64,
    /// Fraction of operations that invalidate all sharers.
    pub invalidate_all: f64,
}

impl EventMix {
    /// The event frequencies measured by the paper (footnote 1, Section 5.6).
    #[must_use]
    pub const fn paper_reference() -> Self {
        EventMix {
            insert_tag: 0.235,
            add_sharer: 0.269,
            remove_sharer: 0.249,
            remove_tag: 0.235,
            invalidate_all: 0.012,
        }
    }

    /// Sum of all fractions (≈ 1.0 for a complete mix).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.insert_tag
            + self.add_sharer
            + self.remove_sharer
            + self.remove_tag
            + self.invalidate_all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_insertion_updates_all_derived_metrics() {
        let mut s = DirectoryStats::new();
        s.record_insertion(1, 0);
        s.record_insertion(3, 0);
        s.record_insertion(2, 1);
        assert_eq!(s.insertions.get(), 3);
        assert!((s.avg_insertion_attempts() - 2.0).abs() < 1e-12);
        assert!((s.forced_invalidation_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.forced_evictions.get(), 1);
    }

    #[test]
    fn event_mix_fractions_sum_to_one() {
        let mut s = DirectoryStats::new();
        s.insertions.add(235);
        s.sharer_adds.add(269);
        s.sharer_removes.add(249);
        s.entry_removes.add(235);
        s.invalidate_alls.add(12);
        let mix = s.event_mix();
        assert!((mix.total() - 1.0).abs() < 1e-9);
        assert!((mix.insert_tag - 0.235).abs() < 1e-9);

        let reference = EventMix::paper_reference();
        assert!((reference.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = DirectoryStats::new();
        assert_eq!(s.avg_insertion_attempts(), 0.0);
        assert_eq!(s.forced_invalidation_rate(), 0.0);
        assert_eq!(s.total_operations(), 0);
        assert_eq!(s.event_mix().total(), 0.0);
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = DirectoryStats::new();
        let mut b = DirectoryStats::new();
        a.record_insertion(1, 0);
        b.record_insertion(5, 2);
        b.lookups.add(10);
        a.merge(&b);
        assert_eq!(a.insertions.get(), 2);
        assert_eq!(a.lookups.get(), 10);
        assert_eq!(a.forced_evictions.get(), 2);
        assert!((a.avg_insertion_attempts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = DirectoryStats::new();
        s.record_insertion(4, 1);
        s.reset();
        assert_eq!(s.insertions.get(), 0);
        assert_eq!(s.avg_insertion_attempts(), 0.0);
    }

    #[test]
    fn depth_metrics_merge_register_and_reset() {
        let mut a = DepthMetrics::new();
        assert_eq!(a.probe_depth.sig_bits(), DEPTH_SIG_BITS);
        a.probe_depth.record(1);
        a.displacement_chain.record(5);
        let mut b = DepthMetrics::new();
        b.probe_depth.record(4);
        b.displacement_chain.record(3);
        // Merge commutes, like every other stats reduction.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.probe_depth.count(), 2);

        let mut snap = MetricSnapshot::default();
        ab.register_into(&mut snap);
        assert_eq!(snap.histograms.len(), 2);
        assert_eq!(snap.histograms[0].name, "probe_depth");
        assert_eq!(snap.histograms[0].count, 2);
        assert_eq!(snap.histograms[1].name, "displacement_chain");

        ab.reset();
        assert_eq!(ab.probe_depth.count(), 0);
        assert_eq!(ab.probe_depth.sig_bits(), DEPTH_SIG_BITS);
    }
}
