//! The trace generator: turns a [`WorkloadProfile`] into an infinite stream
//! of memory references.
//!
//! The address-space layout keeps the three region classes disjoint:
//!
//! ```text
//! 0x0100_0000_0000 .. : shared instruction footprint
//! 0x0200_0000_0000 .. : shared data footprint
//! 0x0400_0000_0000 .. : per-core private regions (one span per core)
//! ```
//!
//! Each reference picks a region according to the profile's fractions, a
//! block within the region according to its Zipf skew, and a byte offset
//! within the block uniformly.  Logical blocks are laid out on 8 KB pages
//! (Table 1) whose *physical* page frames are scattered pseudo-randomly
//! within the region, mimicking OS physical-page allocation: consecutive
//! logical pages do not occupy consecutive frames, so directory and cache
//! sets see the realistic, non-uniform load that makes low-associativity
//! Sparse directories conflict (Section 3.2).  The stream is deterministic
//! for a given `(profile, num_cores, seed)` triple.

use crate::{WorkloadProfile, ZipfSampler};
use ccd_common::rng::{Rng64, SplitMix64, Xoshiro256};
use ccd_common::{AccessType, Address, CoreId, MemRef, DEFAULT_BLOCK_BYTES};

/// Base byte address of the shared-instruction region.
pub(crate) const CODE_REGION_BASE: u64 = 0x0100_0000_0000;
/// Base byte address of the shared-data region.
pub(crate) const SHARED_DATA_BASE: u64 = 0x0200_0000_0000;
/// Base byte address of the first core's private region.
pub(crate) const PRIVATE_REGION_BASE: u64 = 0x0400_0000_0000;
/// Byte span reserved for each core's private region.
pub(crate) const PRIVATE_REGION_SPAN: u64 = 0x0000_1000_0000;

/// Page size used for physical scattering (Table 1: 8 KB pages).
pub(crate) const PAGE_BYTES: u64 = 8 * 1024;
/// Cache blocks per page.
pub(crate) const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / DEFAULT_BLOCK_BYTES;
/// Number of physical page frames each region's pages are scattered over.
/// 32 768 frames × 8 KB = 256 MB, which exactly fills one private-region
/// span while keeping the probability of two logical pages landing on the
/// same frame negligible for the paper's footprints (≤ a few hundred pages
/// per region).
const FRAMES_PER_REGION: u64 = PRIVATE_REGION_SPAN / PAGE_BYTES;

/// An infinite, deterministic stream of memory references following a
/// workload profile.
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    num_cores: usize,
    rng: Xoshiro256,
    code_sampler: ZipfSampler,
    shared_sampler: ZipfSampler,
    private_sampler: ZipfSampler,
    next_core: usize,
}

impl TraceGenerator {
    /// Creates a generator for `num_cores` cores from `profile`, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or the profile is invalid.
    #[must_use]
    pub fn new(profile: WorkloadProfile, num_cores: usize, seed: u64) -> Self {
        assert!(num_cores > 0, "need at least one core");
        assert!(profile.is_valid(), "invalid workload profile");
        let code_sampler = ZipfSampler::new(profile.shared_code_blocks, profile.shared_skew);
        let shared_sampler = ZipfSampler::new(profile.shared_data_blocks, profile.shared_skew);
        let private_sampler = ZipfSampler::new(profile.private_data_blocks, profile.private_skew);
        TraceGenerator {
            profile,
            num_cores,
            rng: Xoshiro256::new(seed),
            code_sampler,
            shared_sampler,
            private_sampler,
            next_core: 0,
        }
    }

    /// The profile this generator follows.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of simulated cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Maps a logical block of a region to its byte address: the block's
    /// logical page is placed on a pseudo-random physical frame within the
    /// region (deterministic per region), preserving the block's offset
    /// within the page.
    fn block_address(base: u64, block_index: usize, offset: u64) -> Address {
        let logical_page = block_index as u64 / BLOCKS_PER_PAGE;
        let block_in_page = block_index as u64 % BLOCKS_PER_PAGE;
        let frame = SplitMix64::mix(base ^ logical_page.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            & (FRAMES_PER_REGION - 1);
        Address::new(base + frame * PAGE_BYTES + block_in_page * DEFAULT_BLOCK_BYTES + offset)
    }

    /// Generates the next reference.
    pub(crate) fn next_ref(&mut self) -> MemRef {
        // Round-robin core interleaving approximates the lock-step progress
        // of a throughput workload while keeping the stream deterministic.
        let core = CoreId::new(self.next_core as u32);
        self.next_core += 1;
        if self.next_core == self.num_cores {
            self.next_core = 0;
        }

        let offset = self.rng.next_below(DEFAULT_BLOCK_BYTES / 8) * 8;

        if self.rng.bernoulli(self.profile.ifetch_fraction) {
            let block = self.code_sampler.sample(&mut self.rng);
            return MemRef::ifetch(core, Self::block_address(CODE_REGION_BASE, block, offset));
        }

        let is_write = self.rng.bernoulli(self.profile.write_fraction);
        let kind = if is_write {
            AccessType::Write
        } else {
            AccessType::Read
        };

        let addr = if self.rng.bernoulli(self.profile.shared_data_fraction) {
            let block = self.shared_sampler.sample(&mut self.rng);
            Self::block_address(SHARED_DATA_BASE, block, offset)
        } else {
            let block = self.private_sampler.sample(&mut self.rng);
            let base = PRIVATE_REGION_BASE + core.index() as u64 * PRIVATE_REGION_SPAN;
            Self::block_address(base, block, offset)
        };
        MemRef::new(core, addr, kind)
    }
}

impl Iterator for TraceGenerator {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        Some(self.next_ref())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Derives an independent stream seed from `(base, index)`.
///
/// The SplitMix64 finalizer decorrelates adjacent indices, so seed families
/// built from consecutive integers do not produce correlated Xoshiro
/// states.  A pure function of its arguments, so stream `index` of a sweep,
/// a service run or a benchmark job is the same stream whether it runs
/// first, last, serially or on any worker thread.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    SplitMix64::mix(base ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 8, 1)
            .take(500)
            .collect();
        let b: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 8, 1)
            .take(500)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 8, 2)
            .take(500)
            .collect();
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn the_first_references_of_oracle_are_pinned() {
        // The stream's bytes, held by a test and not only by the figure
        // goldens: every sampler and generator change must reproduce them.
        use AccessType::{InstructionFetch as I, Read as R, Write as W};
        #[rustfmt::skip]
        let expected: [(u32, u64, AccessType); 32] = [
            (0, 0x2000abe6368, R), (1, 0x100087132c8, I), (2, 0x40024d6b570, R),
            (3, 0x200090249a8, R), (4, 0x1000c3923c0, I), (5, 0x2000618ae18, R),
            (6, 0x40061f0e058, R), (7, 0x4007afc3038, R), (8, 0x2000618a148, R),
            (9, 0x20009fe6a80, R), (10, 0x2000618aea0, R), (11, 0x400b8c418e8, R),
            (12, 0x1000c3937e8, I), (13, 0x200051ffd70, R), (14, 0x400ed303ae0, R),
            (15, 0x1000fc30878, I), (0, 0x10008712098, I), (1, 0x1000abd50b0, I),
            (2, 0x400231280f8, R), (3, 0x200090256b8, R), (4, 0x200000a9aa8, R),
            (5, 0x4005edd0bb0, R), (6, 0x20003938b28, W), (7, 0x2000618be10, R),
            (8, 0x10008712088, I), (9, 0x200039387f0, R), (10, 0x200028424f0, R),
            (11, 0x2000618a440, R), (12, 0x1000f3434f8, I), (13, 0x100087122c0, I),
            (14, 0x400e0521f48, R), (15, 0x400fad78100, R),
        ];
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::oracle(), 16, 1)
            .take(expected.len())
            .map(|r| (r.core.raw(), r.addr.raw(), r.kind))
            .collect();
        assert_eq!(refs, expected);
    }

    #[test]
    fn cores_are_interleaved_round_robin() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::apache(), 4, 3)
            .take(8)
            .collect();
        let cores: Vec<u32> = refs.iter().map(|r| r.core.raw()).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn reference_mix_matches_profile_fractions() {
        let profile = WorkloadProfile::oracle();
        let n = 200_000;
        let refs: Vec<_> = TraceGenerator::new(profile.clone(), 16, 7)
            .take(n)
            .collect();
        let ifetches = refs.iter().filter(|r| r.kind.is_instruction()).count();
        let data: Vec<_> = refs.iter().filter(|r| !r.kind.is_instruction()).collect();
        let writes = data.iter().filter(|r| r.kind.is_write()).count();

        let ifetch_rate = ifetches as f64 / n as f64;
        let write_rate = writes as f64 / data.len() as f64;
        assert!(
            (ifetch_rate - profile.ifetch_fraction).abs() < 0.02,
            "{ifetch_rate}"
        );
        assert!(
            (write_rate - profile.write_fraction).abs() < 0.02,
            "{write_rate}"
        );
    }

    #[test]
    fn private_regions_do_not_overlap_between_cores() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::ocean(), 16, 5)
            .take(100_000)
            .collect();
        // Every private-region address must fall inside the issuing core's
        // span.
        for r in refs.iter().filter(|r| r.addr.raw() >= PRIVATE_REGION_BASE) {
            let region = (r.addr.raw() - PRIVATE_REGION_BASE) / PRIVATE_REGION_SPAN;
            assert_eq!(region, u64::from(r.core.raw()), "ref {r}");
        }
    }

    #[test]
    fn ocean_touches_mostly_private_blocks() {
        // The calibration property that drives Figure 8's Private-L2 story.
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::ocean(), 16, 11)
            .take(100_000)
            .collect();
        let data: Vec<_> = refs.iter().filter(|r| !r.kind.is_instruction()).collect();
        let private = data
            .iter()
            .filter(|r| r.addr.raw() >= PRIVATE_REGION_BASE)
            .count();
        assert!(private as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn oltp_touches_many_shared_blocks() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 16, 13)
            .take(100_000)
            .collect();
        let shared_blocks: BTreeSet<u64> = refs
            .iter()
            .filter(|r| r.addr.raw() >= SHARED_DATA_BASE && r.addr.raw() < PRIVATE_REGION_BASE)
            .map(|r| r.addr.raw() / DEFAULT_BLOCK_BYTES)
            .collect();
        assert!(shared_blocks.len() > 1000, "{}", shared_blocks.len());
    }

    #[test]
    fn addresses_stay_within_their_regions() {
        let profile = WorkloadProfile::zeus();
        let refs: Vec<_> = TraceGenerator::new(profile.clone(), 8, 17)
            .take(50_000)
            .collect();
        let span = FRAMES_PER_REGION * PAGE_BYTES;
        for r in &refs {
            let a = r.addr.raw();
            if r.kind.is_instruction() {
                assert!(a >= CODE_REGION_BASE && a < CODE_REGION_BASE + span);
            } else if a < PRIVATE_REGION_BASE {
                assert!(a >= SHARED_DATA_BASE && a < SHARED_DATA_BASE + span);
            } else {
                let core_region = (a - PRIVATE_REGION_BASE) / PRIVATE_REGION_SPAN;
                assert!(core_region < 8, "private address outside any core's span");
            }
        }
    }

    #[test]
    fn pages_are_scattered_but_block_footprint_is_preserved() {
        // Consecutive logical pages must not land on consecutive frames, yet
        // the number of distinct blocks touched must match the footprint the
        // profile describes (no systematic aliasing).
        let profile = WorkloadProfile::em3d();
        let refs: Vec<_> = TraceGenerator::new(profile.clone(), 4, 23)
            .take(400_000)
            .collect();
        let private_blocks: BTreeSet<u64> = refs
            .iter()
            .filter(|r| r.addr.raw() >= PRIVATE_REGION_BASE)
            .map(|r| r.addr.raw() / DEFAULT_BLOCK_BYTES)
            .collect();
        // em3d's private accesses are nearly uniform over 32768 blocks/core x
        // 4 cores; with 400k references we should see a large fraction of
        // them and essentially no aliasing collapse.
        assert!(
            private_blocks.len() > 50_000,
            "only {} distinct private blocks",
            private_blocks.len()
        );

        // Scattering: the frames of the first few logical pages of the
        // shared-code region are not consecutive.
        let frame_of = |page: u64| {
            (TraceGenerator::block_address(CODE_REGION_BASE, (page * BLOCKS_PER_PAGE) as usize, 0)
                .raw()
                - CODE_REGION_BASE)
                / PAGE_BYTES
        };
        let frames: Vec<u64> = (0..8).map(frame_of).collect();
        let consecutive = frames.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            consecutive <= 1,
            "pages should be scattered, got frames {frames:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = TraceGenerator::new(WorkloadProfile::db2(), 0, 1);
    }

    #[test]
    fn derived_seeds_decorrelate_adjacent_indices_and_bases() {
        assert_ne!(derive_seed(0xBEEF, 0), derive_seed(0xBEEF, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
