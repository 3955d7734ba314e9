//! The statistics layer of the engine: the `StatsPipeline` that
//! accumulates protocol-level counters while a simulation runs and renders
//! them, with the other layers' counts, as a [`SimReport`].

use crate::config::DEFAULT_OCCUPANCY_SAMPLE_INTERVAL;
use crate::engine::TileCaches;
use crate::SimReport;
use ccd_common::stats::{Counter, MeanAccumulator};
use ccd_directory::Directory;

/// Accumulates the protocol-level counters of a running simulation.
///
/// The pipeline owns only what the protocol itself observes (retired
/// references, coherence/forced invalidations, occupancy samples); cache and
/// directory counters stay in their layers and are read at
/// [`StatsPipeline::report`] time.
#[derive(Clone, Debug)]
pub(crate) struct StatsPipeline {
    refs_processed: u64,
    pub(crate) occupancy_samples: MeanAccumulator,
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

    /// Renders the measured interval as a [`SimReport`]: the pipeline's
    /// own counters, the tile caches' misses and the directory's statistics.
    /// Every reference makes exactly one cache access, so the access count
    /// is the retired-reference count.  A run shorter than one sample
    /// interval has no occupancy sample yet and reports `occupancy_now()`,
    /// the current occupancy, as its single sample.
    #[must_use]
    pub fn report(
        &self,
        organization: &str,
        tiles: &TileCaches,
        directory: &dyn Directory,
        occupancy_now: impl FnOnce() -> f64,
    ) -> SimReport {
        let avg_directory_occupancy = if self.occupancy_samples.count() == 0 {
            occupancy_now()
        } else {
            self.occupancy_samples.mean()
        };
        SimReport {
            organization: organization.to_owned(),
            refs_processed: self.refs_processed,
            directory: directory.stats(),
            avg_directory_occupancy,
            cache_accesses: self.refs_processed,
            cache_misses: tiles.misses(),
            coherence_invalidations: self.coherence_invalidations.get(),
            forced_invalidations: self.forced_invalidations.get(),
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
}
