//! The statistics layer of the engine: the mergeable [`SimStats`] snapshot
//! and the `StatsPipeline` that accumulates protocol-level counters while
//! a simulation runs.

use crate::config::DEFAULT_OCCUPANCY_SAMPLE_INTERVAL;
use crate::engine::TileCaches;
use crate::SimReport;
use ccd_common::stats::{Counter, MeanAccumulator};
use ccd_directory::{Directory, DirectoryStats};

/// Every statistic one simulation interval produces, in mergeable form.
///
/// The integer fields (counters, histogram buckets) merge commutatively
/// and associatively — any merge order produces the same aggregate.  The
/// one floating-point accumulator (the occupancy samples'
/// [`MeanAccumulator`] sum) is mathematically commutative but *not*
/// bit-exactly associative; **byte-identical**
/// aggregates therefore additionally rely on the parallel runner folding
/// snapshots in input order (which it does — results are collected by
/// input index, never by completion order).  Do not reduce snapshots in
/// worker-completion order if you need reproducible bytes.
/// [`SimStats::report`] turns a snapshot into the user-facing
/// [`SimReport`].
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// References processed while measuring.
    pub refs_processed: Counter,
    /// Private-cache accesses.
    pub cache_accesses: Counter,
    /// Private-cache misses (fills).
    pub cache_misses: Counter,
    /// Blocks invalidated by ordinary coherence traffic.
    pub coherence_invalidations: Counter,
    /// Blocks invalidated because the directory ran out of space.
    pub forced_invalidations: Counter,
    /// Periodic samples of the mean directory occupancy.
    pub occupancy_samples: MeanAccumulator,
    /// Directory statistics merged across all slices.
    pub directory: DirectoryStats,
}

impl SimStats {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Merges another snapshot into this one.  Integer fields are
    /// order-independent; the float accumulators are order-independent up
    /// to floating-point rounding only, so fold in a fixed order when
    /// bit-exact reproducibility matters (see the type-level docs).
    pub fn merge(&mut self, other: &SimStats) {
        self.refs_processed.merge(&other.refs_processed);
        self.cache_accesses.merge(&other.cache_accesses);
        self.cache_misses.merge(&other.cache_misses);
        self.coherence_invalidations
            .merge(&other.coherence_invalidations);
        self.forced_invalidations.merge(&other.forced_invalidations);
        self.occupancy_samples.merge(&other.occupancy_samples);
        self.directory.merge(&other.directory);
    }

    /// Renders the snapshot as a [`SimReport`] labelled `organization`.
    #[must_use]
    pub fn report(&self, organization: impl Into<String>) -> SimReport {
        SimReport {
            organization: organization.into(),
            refs_processed: self.refs_processed.get(),
            directory: self.directory.clone(),
            avg_directory_occupancy: self.occupancy_samples.mean(),
            cache_accesses: self.cache_accesses.get(),
            cache_misses: self.cache_misses.get(),
            coherence_invalidations: self.coherence_invalidations.get(),
            forced_invalidations: self.forced_invalidations.get(),
        }
    }
}

/// Accumulates the protocol-level counters of a running simulation and
/// assembles full [`SimStats`] snapshots from the engine's layers.
///
/// The pipeline owns only what the protocol itself observes (retired
/// references, coherence/forced invalidations, occupancy samples); cache and
/// directory counters stay in their layers and are merged in at
/// [`StatsPipeline::collect`] time.
#[derive(Clone, Debug)]
pub(crate) struct StatsPipeline {
    refs_processed: u64,
    occupancy_samples: MeanAccumulator,
    coherence_invalidations: Counter,
    forced_invalidations: Counter,
}

impl StatsPipeline {
    /// Creates a pipeline sampling occupancy every
    /// [`DEFAULT_OCCUPANCY_SAMPLE_INTERVAL`] retired references.
    #[must_use]
    pub fn new() -> Self {
        StatsPipeline {
            refs_processed: 0,
            occupancy_samples: MeanAccumulator::new(),
            coherence_invalidations: Counter::new(),
            forced_invalidations: Counter::new(),
        }
    }

    /// References retired since the last reset.
    #[must_use]
    pub fn refs_processed(&self) -> u64 {
        self.refs_processed
    }

    /// Records one ordinary coherence invalidation.
    pub(crate) fn record_coherence_invalidation(&mut self) {
        self.coherence_invalidations.incr();
    }

    /// Records one forced (capacity-conflict) invalidation.
    pub(crate) fn record_forced_invalidation(&mut self) {
        self.forced_invalidations.incr();
    }

    /// Marks one reference as retired; returns `true` when an occupancy
    /// sample is due (the caller then feeds it to
    /// [`StatsPipeline::record_occupancy`]).
    #[must_use]
    pub(crate) fn retire_reference(&mut self) -> bool {
        self.refs_processed += 1;
        self.refs_processed
            .is_multiple_of(DEFAULT_OCCUPANCY_SAMPLE_INTERVAL)
    }

    /// Records one directory-occupancy sample.
    pub(crate) fn record_occupancy(&mut self, occupancy: f64) {
        self.occupancy_samples.record(occupancy);
    }

    /// Clears all pipeline counters (the end-of-warm-up reset).
    pub fn reset(&mut self) {
        self.refs_processed = 0;
        self.occupancy_samples = MeanAccumulator::new();
        self.coherence_invalidations.reset();
        self.forced_invalidations.reset();
    }

    /// Assembles a full snapshot from the pipeline's own counters plus the
    /// cache and directory layers.
    #[must_use]
    pub fn collect(&self, tiles: &TileCaches, directory: &dyn Directory) -> SimStats {
        let (accesses, misses) = tiles.totals();
        let mut cache_accesses = Counter::new();
        cache_accesses.add(accesses);
        let mut cache_misses = Counter::new();
        cache_misses.add(misses);
        let mut refs = Counter::new();
        refs.add(self.refs_processed);
        SimStats {
            refs_processed: refs,
            cache_accesses,
            cache_misses,
            coherence_invalidations: self.coherence_invalidations,
            forced_invalidations: self.forced_invalidations,
            occupancy_samples: self.occupancy_samples,
            directory: directory.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_reference_flags_sample_points() {
        let mut pipeline = StatsPipeline::new();
        let refs = 2 * DEFAULT_OCCUPANCY_SAMPLE_INTERVAL;
        let due: Vec<u64> = (1..=refs).filter(|_| pipeline.retire_reference()).collect();
        assert_eq!(
            due,
            [DEFAULT_OCCUPANCY_SAMPLE_INTERVAL, refs],
            "every interval-th reference"
        );
        assert_eq!(pipeline.refs_processed(), refs);
        pipeline.record_occupancy(0.5);
        assert_eq!(pipeline.occupancy_samples.count(), 1);
        pipeline.reset();
        assert_eq!(pipeline.refs_processed(), 0);
        assert_eq!(pipeline.occupancy_samples.count(), 0);
    }

    #[test]
    fn sim_stats_merge_is_order_independent() {
        let mut a = SimStats::new();
        a.refs_processed.add(10);
        a.cache_misses.add(3);
        a.occupancy_samples.record(0.25);
        a.directory.record_insertion(2, 0);

        let mut b = SimStats::new();
        b.refs_processed.add(30);
        b.cache_misses.add(1);
        b.occupancy_samples.record(0.75);
        b.directory.record_insertion(4, 1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        let left = ab.report("x");
        let right = ba.report("x");
        assert_eq!(left.refs_processed, 40);
        assert_eq!(left.cache_misses, right.cache_misses);
        assert!((left.avg_directory_occupancy - right.avg_directory_occupancy).abs() < 1e-12);
        assert_eq!(
            left.directory.insertions.get(),
            right.directory.insertions.get()
        );
        assert!((left.avg_insertion_attempts() - 3.0).abs() < 1e-12);
    }
}
