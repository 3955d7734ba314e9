//! The per-core energy/area evaluation and core-count sweeps.
//!
//! For every organization the model computes, per directory slice (= per
//! core):
//!
//! * **energy per directory operation**, averaged over the directory event
//!   mix the paper measured (footnote 1 of Section 5.6: insert 23.5 %, add
//!   sharer 26.9 %, remove sharer 24.9 %, remove tag 23.5 %, invalidate all
//!   1.2 %), expressed relative to one 1 MB 16-way L2 tag lookup;
//! * **storage area**, expressed relative to one 1 MB L2 data array.
//!
//! Every operation performs one lookup; operations other than
//! `invalidate all` additionally write one entry; insertions into a Cuckoo
//! directory perform `avg_attempts − 1` extra lookup+write rounds
//! (the displacement chain), using the average attempt count measured in
//! Section 5.3 (≈ 1.2–1.6 depending on occupancy).

use crate::orgs::{storage_profile, DirOrg, SliceEnvironment};
use crate::sram::{relative_area, relative_energy};
use ccd_cache::CacheConfig;
use ccd_directory::stats::EventMix;

/// The default average insertion-attempt count charged to Cuckoo
/// insertions, matching the measured averages of Figure 10.
pub(crate) const DEFAULT_CUCKOO_AVG_ATTEMPTS: f64 = 1.5;

/// One evaluated point of a scaling curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Core count.
    pub cores: usize,
    /// Per-core directory energy per operation, relative to a 1 MB L2 tag
    /// lookup (1.0 = same energy).
    pub energy_relative: f64,
    /// Per-core directory area, relative to a 1 MB L2 data array
    /// (1.0 = same area).
    pub area_relative: f64,
}

/// The analytical model for one cache hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    /// Caches per core tracked by the directory (2 for Shared-L2, 1 for
    /// Private-L2).
    pub caches_per_core: usize,
    /// Geometry of each tracked cache.
    pub tracked_cache: CacheConfig,
    /// Shared-L2 frames per slice (0 when there is no shared L2).
    pub l2_frames_per_slice: usize,
    /// Shared-L2 associativity.
    pub l2_ways: usize,
    /// Directory event mix used to weight per-operation energies.
    pub event_mix: EventMix,
    /// Average insertion attempts charged to Cuckoo insertions.
    pub cuckoo_avg_attempts: f64,
}

impl EnergyModel {
    /// The Shared-L2 hierarchy of Table 1: the directory tracks two 64 KB
    /// 2-way L1 caches per core; the shared L2 provides 1 MB per core.
    #[must_use]
    pub fn shared_l2() -> Self {
        EnergyModel {
            caches_per_core: 2,
            tracked_cache: CacheConfig::l1_64k(),
            l2_frames_per_slice: CacheConfig::l2_1m().frames(),
            l2_ways: CacheConfig::l2_1m().ways,
            event_mix: EventMix::paper_reference(),
            cuckoo_avg_attempts: DEFAULT_CUCKOO_AVG_ATTEMPTS,
        }
    }

    /// The Private-L2 hierarchy of Table 1: the directory tracks one 1 MB
    /// 16-way private L2 per core.
    #[must_use]
    pub fn private_l2() -> Self {
        EnergyModel {
            caches_per_core: 1,
            tracked_cache: CacheConfig::l2_1m(),
            l2_frames_per_slice: 0,
            l2_ways: 0,
            event_mix: EventMix::paper_reference(),
            cuckoo_avg_attempts: DEFAULT_CUCKOO_AVG_ATTEMPTS,
        }
    }

    /// Replaces the event mix (e.g. with one measured by the simulator).
    #[must_use]
    pub fn with_event_mix(mut self, mix: EventMix) -> Self {
        self.event_mix = mix;
        self
    }

    /// Replaces the Cuckoo insertion-attempt average (e.g. with a measured
    /// value from Figure 10).
    #[must_use]
    pub fn with_cuckoo_attempts(mut self, attempts: f64) -> Self {
        self.cuckoo_avg_attempts = attempts.max(1.0);
        self
    }

    /// The per-slice environment for a system with `cores` cores.
    ///
    /// Per-slice quantities (tracked frames, tracked sets per mirrored
    /// cache) are independent of the core count — adding a core adds a
    /// slice and each slice mirrors a `1/cores` fraction of every cache —
    /// while the number of caches every sharer vector must describe grows
    /// linearly.
    #[must_use]
    pub fn slice_environment(&self, cores: usize) -> SliceEnvironment {
        SliceEnvironment {
            num_caches: self.caches_per_core * cores,
            tracked_frames: self.tracked_cache.frames() * self.caches_per_core,
            tracked_sets: (self.tracked_cache.sets / cores.max(1)).max(1),
            cache_ways: self.tracked_cache.ways,
            l2_frames_per_slice: self.l2_frames_per_slice,
            l2_ways: self.l2_ways,
        }
    }

    /// Average bits touched per directory operation for `org` at `cores`
    /// cores.
    #[must_use]
    pub(crate) fn bits_per_operation(&self, org: &DirOrg, cores: usize) -> f64 {
        let env = self.slice_environment(cores);
        let profile = storage_profile(org, &env);
        let lookup = profile.bits_read_per_lookup as f64;
        let update = profile.bits_written_per_update as f64;
        let mix = &self.event_mix;

        // Every operation looks the directory up; all but pure
        // invalidate-all also write one entry.
        let write_fraction = mix.insert_tag + mix.add_sharer + mix.remove_sharer + mix.remove_tag;
        let mut bits = lookup + write_fraction * update;

        // Cuckoo insertions pay for their displacement chain.
        if org.is_cuckoo() {
            let extra_rounds = (self.cuckoo_avg_attempts - 1.0).max(0.0);
            bits += mix.insert_tag * extra_rounds * (lookup + update);
        }
        bits
    }

    /// Evaluates one organization at one core count.
    #[must_use]
    pub fn evaluate(&self, org: &DirOrg, cores: usize) -> ScalingPoint {
        let env = self.slice_environment(cores);
        let profile = storage_profile(org, &env);
        ScalingPoint {
            cores,
            energy_relative: relative_energy(self.bits_per_operation(org, cores)),
            area_relative: relative_area(profile.total_bits as f64),
        }
    }

    /// Sweeps an organization across core counts.
    #[must_use]
    pub fn sweep(&self, org: &DirOrg, core_counts: &[usize]) -> Vec<ScalingPoint> {
        core_counts.iter().map(|&c| self.evaluate(org, c)).collect()
    }

    /// The core counts plotted in Figures 4 and 13.
    #[must_use]
    pub fn paper_core_counts() -> Vec<usize> {
        vec![16, 32, 64, 128, 256, 512, 1024]
    }

    /// Ratio of `baseline`'s energy to `candidate`'s energy at `cores`
    /// cores (how many times more energy-efficient the candidate is).
    #[must_use]
    pub fn energy_advantage(&self, candidate: &DirOrg, baseline: &DirOrg, cores: usize) -> f64 {
        let c = self.evaluate(candidate, cores);
        let b = self.evaluate(baseline, cores);
        b.energy_relative / c.energy_relative
    }

    /// Ratio of `baseline`'s area to `candidate`'s area at `cores` cores.
    #[must_use]
    pub fn area_advantage(&self, candidate: &DirOrg, baseline: &DirOrg, cores: usize) -> f64 {
        let c = self.evaluate(candidate, cores);
        let b = self.evaluate(baseline, cores);
        b.area_relative / c.area_relative
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> EnergyModel {
        EnergyModel::shared_l2()
    }

    fn private() -> EnergyModel {
        EnergyModel::private_l2()
    }

    #[test]
    fn duplicate_tag_energy_grows_linearly_per_core() {
        // Figure 4: the Duplicate-Tag (and Tagless) energy lines grow with
        // core count, giving quadratic aggregate energy.
        let model = shared();
        let e16 = model.evaluate(&DirOrg::DuplicateTag, 16).energy_relative;
        let e1024 = model.evaluate(&DirOrg::DuplicateTag, 1024).energy_relative;
        let growth = e1024 / e16;
        assert!(
            (32.0..96.0).contains(&growth),
            "expected ~64x growth from 16 to 1024 cores, got {growth}"
        );

        let t16 = model.evaluate(&DirOrg::Tagless, 16).energy_relative;
        let t1024 = model.evaluate(&DirOrg::Tagless, 1024).energy_relative;
        assert!(t1024 / t16 > 30.0);
    }

    #[test]
    fn cuckoo_energy_and_area_are_nearly_flat() {
        let model = shared();
        let org = DirOrg::cuckoo_coarse_shared();
        let p16 = model.evaluate(&org, 16);
        let p1024 = model.evaluate(&org, 1024);
        assert!(p1024.energy_relative / p16.energy_relative < 1.5);
        assert!(p1024.area_relative / p16.area_relative < 1.5);
    }

    #[test]
    fn paper_headline_ratios_hold_at_1024_cores() {
        // "At 1024 cores, the Cuckoo directory is up to 80 times more
        //  power-efficient than the area-efficient Tagless directory and ...
        //  seven times more area-efficient than the power-efficient Sparse
        //  directory." (Section 7)
        let model = shared();
        let cuckoo = DirOrg::cuckoo_coarse_shared();
        let sparse_coarse = DirOrg::SparseCoarse {
            ways: 8,
            provisioning: 8.0,
        };
        let energy_vs_tagless = model.energy_advantage(&cuckoo, &DirOrg::Tagless, 1024);
        assert!(
            energy_vs_tagless > 20.0,
            "expected a large energy advantage over Tagless, got {energy_vs_tagless}"
        );
        let area_vs_sparse = model.area_advantage(&cuckoo, &sparse_coarse, 1024);
        assert!(
            (4.0..12.0).contains(&area_vs_sparse),
            "expected ~7x area advantage over Sparse 8x, got {area_vs_sparse}"
        );
    }

    #[test]
    fn paper_16_core_ratios_hold() {
        // "Even at 16 cores, the Cuckoo directory is up to 16x more
        //  energy-efficient than the traditional Duplicate-Tag directory and
        //  up to 6x more area-efficient than the Sparse organization."
        // (Section 1)  The Duplicate-Tag comparison is most extreme in the
        // Private-L2 configuration (16-way caches -> 256-wide lookups).
        let model = private();
        let cuckoo = DirOrg::cuckoo_coarse_private();
        let energy_vs_dup = model.energy_advantage(&cuckoo, &DirOrg::DuplicateTag, 16);
        assert!(
            energy_vs_dup > 8.0,
            "expected a large energy advantage over Duplicate-Tag at 16 cores, got {energy_vs_dup}"
        );
        let sparse = DirOrg::SparseCoarse {
            ways: 8,
            provisioning: 8.0,
        };
        let area_vs_sparse = model.area_advantage(&cuckoo, &sparse, 16);
        assert!(
            area_vs_sparse > 3.0,
            "expected a multi-x area advantage over Sparse 8x at 16 cores, got {area_vs_sparse}"
        );
    }

    #[test]
    fn in_cache_becomes_vector_dominated_past_128_cores() {
        // Section 5.6: "beyond 128 cores, in-cache directories lose their
        // advantages and become dominated by bit-vector storage".  Its area
        // grows linearly with core count and overtakes the L2 data array
        // itself, while the Cuckoo directory stays at a few percent.
        let model = shared();
        let cuckoo = DirOrg::cuckoo_coarse_shared();
        let at_16 = model.evaluate(&DirOrg::InCacheFullVector, 16).area_relative;
        let at_128 = model
            .evaluate(&DirOrg::InCacheFullVector, 128)
            .area_relative;
        let at_1024 = model
            .evaluate(&DirOrg::InCacheFullVector, 1024)
            .area_relative;
        assert!(
            (at_1024 / at_16 - 64.0).abs() < 1.0,
            "linear growth in core count"
        );
        assert!(
            at_128 > 0.4,
            "already a large fraction of the L2 at 128 cores"
        );
        assert!(
            at_1024 > 1.0,
            "exceeds the L2 data array itself at 1024 cores"
        );
        let cuckoo_1024 = model.evaluate(&cuckoo, 1024).area_relative;
        assert!(at_1024 > 20.0 * cuckoo_1024);
    }

    #[test]
    fn cuckoo_area_stays_below_the_paper_bounds() {
        // Section 5.6: directory storage under 3% of the L2 area for the
        // Shared-L2 configuration at 1024 cores, and under 30% for
        // Private-L2.
        let shared_point = shared().evaluate(&DirOrg::cuckoo_coarse_shared(), 1024);
        assert!(
            shared_point.area_relative < 0.05,
            "Shared-L2 Cuckoo area {} should be a few percent of the L2",
            shared_point.area_relative
        );
        let private_point = private().evaluate(&DirOrg::cuckoo_coarse_private(), 1024);
        assert!(
            private_point.area_relative < 0.40,
            "Private-L2 Cuckoo area {} should be well under half the L2",
            private_point.area_relative
        );
    }

    #[test]
    fn sweeps_cover_requested_core_counts() {
        let model = shared();
        let counts = EnergyModel::paper_core_counts();
        let sweep = model.sweep(&DirOrg::Tagless, &counts);
        assert_eq!(sweep.len(), counts.len());
        assert_eq!(sweep[0].cores, 16);
        assert_eq!(sweep.last().unwrap().cores, 1024);
        // Energy is monotonically non-decreasing with cores for Tagless.
        for pair in sweep.windows(2) {
            assert!(pair[1].energy_relative >= pair[0].energy_relative);
        }
    }

    #[test]
    fn builder_overrides_are_applied() {
        let model = shared().with_cuckoo_attempts(3.0);
        let cheap = shared().with_cuckoo_attempts(1.0);
        let org = DirOrg::cuckoo_coarse_shared();
        assert!(
            model.evaluate(&org, 64).energy_relative > cheap.evaluate(&org, 64).energy_relative
        );
        // Attempts below 1.0 are clamped.
        let clamped = shared().with_cuckoo_attempts(0.1);
        assert!(
            (clamped.evaluate(&org, 64).energy_relative - cheap.evaluate(&org, 64).energy_relative)
                .abs()
                < 1e-9
        );
        // A custom event mix changes the weighting.
        let mut mix = EventMix::paper_reference();
        mix.insert_tag = 0.0;
        mix.add_sharer = 0.0;
        mix.remove_sharer = 0.0;
        mix.remove_tag = 0.0;
        mix.invalidate_all = 1.0;
        let lookup_only = shared().with_event_mix(mix);
        assert!(
            lookup_only.evaluate(&org, 64).energy_relative
                < shared().evaluate(&org, 64).energy_relative
        );
    }
}
