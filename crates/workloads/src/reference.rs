//! The generators as they were before the windowed Zipf draw and the
//! per-reference counters, verbatim: a guide-table binary search per draw,
//! and a `%` or `/` for every core and ownership epoch.  The lockstep tests
//! below drive them beside the crate's generators, reference by reference;
//! nothing else uses them.  `prodcons` and `stream` draw no Zipf ranks and
//! keep their arithmetic, so they have no reference here.

use crate::generator::{
    BLOCKS_PER_PAGE, CODE_REGION_BASE, PAGE_BYTES, PRIVATE_REGION_BASE, PRIVATE_REGION_SPAN,
    SHARED_DATA_BASE,
};
use crate::scenario::SCENARIO_REGION_BASE;
use crate::{ScenarioFamily, ScenarioParams, WorkloadProfile};
use ccd_common::rng::{Rng64, SplitMix64, Xoshiro256};
use ccd_common::{AccessType, Address, CoreId, MemRef, DEFAULT_BLOCK_BYTES};

const FRAMES_PER_REGION: u64 = PRIVATE_REGION_SPAN / PAGE_BYTES;

/// The Zipf sampler with a binary search between two guide marks.
#[derive(Clone, Debug)]
pub(crate) struct ZipfSampler {
    cdf: Vec<f64>,
    guide: Vec<u32>,
    buckets: f64,
}

impl ZipfSampler {
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        let norm = total;
        for c in &mut cdf {
            *c /= norm;
        }
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut index = 0;
        for k in 0..=buckets {
            let edge = k as f64 / buckets as f64;
            while index < n && cdf[index] < edge {
                index += 1;
            }
            guide.push(index as u32);
        }
        ZipfSampler {
            cdf,
            guide,
            buckets: buckets as f64,
        }
    }

    /// The population's CDF, without padding.
    pub(crate) fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// `guide[k]`, the first rank of bucket `k`, for `k` in `0..=buckets`.
    pub(crate) fn guide(&self) -> &[u32] {
        &self.guide
    }

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.next_f64())
    }

    pub(crate) fn rank_of(&self, u: f64) -> usize {
        let bucket = (u * self.buckets) as usize;
        let lo = self.guide[bucket] as usize;
        let hi = self.guide[bucket + 1] as usize;
        let index = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        index.min(self.cdf.len() - 1)
    }

    /// The draw as one search over the whole CDF, from before the guide
    /// table.
    pub(crate) fn rank_of_whole_array(&self, u: f64) -> usize {
        let index = self.cdf.partition_point(|&c| c < u);
        index.min(self.cdf.len() - 1)
    }
}

/// The paper-profile generator.
#[derive(Debug)]
pub(crate) struct TraceGenerator {
    profile: WorkloadProfile,
    num_cores: usize,
    rng: Xoshiro256,
    code_sampler: ZipfSampler,
    shared_sampler: ZipfSampler,
    private_sampler: ZipfSampler,
    next_core: usize,
}

impl TraceGenerator {
    pub(crate) fn new(profile: WorkloadProfile, num_cores: usize, seed: u64) -> Self {
        TraceGenerator {
            code_sampler: ZipfSampler::new(profile.shared_code_blocks, profile.shared_skew),
            shared_sampler: ZipfSampler::new(profile.shared_data_blocks, profile.shared_skew),
            private_sampler: ZipfSampler::new(profile.private_data_blocks, profile.private_skew),
            profile,
            num_cores,
            rng: Xoshiro256::new(seed),
            next_core: 0,
        }
    }

    fn block_address(base: u64, block_index: usize, offset: u64) -> Address {
        let logical_page = block_index as u64 / BLOCKS_PER_PAGE;
        let block_in_page = block_index as u64 % BLOCKS_PER_PAGE;
        let frame = SplitMix64::mix(base ^ logical_page.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            & (FRAMES_PER_REGION - 1);
        Address::new(base + frame * PAGE_BYTES + block_in_page * DEFAULT_BLOCK_BYTES + offset)
    }
}

impl Iterator for TraceGenerator {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let core = CoreId::new(self.next_core as u32);
        self.next_core = (self.next_core + 1) % self.num_cores;

        let offset = self.rng.next_below(DEFAULT_BLOCK_BYTES / 8) * 8;

        if self.rng.bernoulli(self.profile.ifetch_fraction) {
            let block = self.code_sampler.sample(&mut self.rng);
            return Some(MemRef::ifetch(
                core,
                Self::block_address(CODE_REGION_BASE, block, offset),
            ));
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
        Some(MemRef::new(core, addr, kind))
    }
}

/// The stream of a validated scenario, as `ScenarioFamily::stream` built
/// it, for the families that draw Zipf ranks.
pub(crate) fn scenario(
    family: ScenarioFamily,
    params: &ScenarioParams,
    cores: usize,
    seed: u64,
) -> Option<Box<dyn Iterator<Item = MemRef>>> {
    let zipf = |slot_bytes| SharedZipfStream {
        rng: Xoshiro256::new(seed),
        sampler: ZipfSampler::new(params.blocks, params.zipf),
        write_fraction: params.write_fraction,
        cores,
        next_core: 0,
        slot_bytes,
    };
    Some(match family {
        ScenarioFamily::ReadMostly => Box::new(zipf(DEFAULT_BLOCK_BYTES)),
        ScenarioFamily::FalseSharing => Box::new(zipf(
            (DEFAULT_BLOCK_BYTES / cores.next_power_of_two() as u64).clamp(1, 8),
        )),
        ScenarioFamily::Migratory => Box::new(MigratoryStream {
            rng: Xoshiro256::new(seed),
            sampler: ZipfSampler::new(params.blocks, params.zipf),
            cores,
            epoch: params.epoch,
            seed,
            pairs: 0,
            pending_write: None,
        }),
        ScenarioFamily::ProducerConsumer | ScenarioFamily::StreamingScan => return None,
    })
}

fn shared_line(line: usize) -> Address {
    Address::new(SCENARIO_REGION_BASE + line as u64 * DEFAULT_BLOCK_BYTES)
}

struct SharedZipfStream {
    rng: Xoshiro256,
    sampler: ZipfSampler,
    write_fraction: f64,
    cores: usize,
    next_core: usize,
    slot_bytes: u64,
}

impl Iterator for SharedZipfStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let core = self.next_core;
        self.next_core = (self.next_core + 1) % self.cores;
        let line = self.sampler.sample(&mut self.rng);
        let slots = DEFAULT_BLOCK_BYTES / self.slot_bytes;
        let slot = (core as u64 % slots) * self.slot_bytes;
        let addr = Address::new(shared_line(line).raw() + slot);
        let kind = if self.rng.bernoulli(self.write_fraction) {
            AccessType::Write
        } else {
            AccessType::Read
        };
        Some(MemRef::new(CoreId::new(core as u32), addr, kind))
    }
}

struct MigratoryStream {
    rng: Xoshiro256,
    sampler: ZipfSampler,
    cores: usize,
    epoch: usize,
    seed: u64,
    pairs: u64,
    pending_write: Option<MemRef>,
}

impl MigratoryStream {
    fn owner(&self, line: usize, epoch: u64) -> CoreId {
        let mixed = SplitMix64::mix(
            self.seed
                ^ (line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F),
        );
        CoreId::new((mixed % self.cores as u64) as u32)
    }
}

impl Iterator for MigratoryStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if let Some(write) = self.pending_write.take() {
            self.pairs += 1;
            return Some(write);
        }
        let line = self.sampler.sample(&mut self.rng);
        let epoch = self.pairs / self.epoch as u64;
        let owner = self.owner(line, epoch);
        let addr = shared_line(line);
        self.pending_write = Some(MemRef::write(owner, addr));
        Some(MemRef::read(owner, addr))
    }
}

mod tests {
    use super::*;
    use crate::{ScenarioSpec, WorkloadSpec};

    /// The core counts every stream is held at: one core, an odd count,
    /// the paper's 16 and the 64 past which `falseshare` slots alias.
    const CORES: [usize; 4] = [1, 3, 16, 64];

    /// References compared a stream: past a `migratory` epoch (1,024)
    /// several times over.
    const REFS: usize = 12_000;

    fn assert_lockstep(
        label: &str,
        cores: usize,
        new: impl Iterator<Item = MemRef>,
        old: impl Iterator<Item = MemRef>,
    ) {
        for (index, (new, old)) in new.zip(old).take(REFS).enumerate() {
            assert_eq!(new, old, "{label} at {cores} cores, reference {index}");
        }
    }

    #[test]
    fn every_paper_profile_matches_its_reference() {
        for profile in WorkloadProfile::all_paper_workloads() {
            for cores in CORES {
                let seed = 0x5EED ^ cores as u64;
                assert_lockstep(
                    profile.name,
                    cores,
                    crate::TraceGenerator::new(profile.clone(), cores, seed),
                    TraceGenerator::new(profile.clone(), cores, seed),
                );
            }
        }
    }

    #[test]
    fn every_scenario_family_matches_its_reference() {
        // Each family at its defaults, then knobs that stress the counters
        // and the draw: a pair per epoch, odd footprints and uniform or
        // steep skews.
        let specs = ScenarioFamily::ALL
            .map(ScenarioSpec::new)
            .into_iter()
            .chain(
                [
                    "migratory-b1000-e3-zipf1.5",
                    "migratory-b7-e1-zipf0",
                    "readmostly-b3-zipf0.02-w0.5",
                    "falseshare-b3-zipf1.5-w1",
                ]
                .map(|spec| spec.parse::<ScenarioSpec>().unwrap()),
            );
        for spec in specs {
            for cores in CORES {
                let seed = 0xC0FFEE ^ cores as u64;
                let Some(old) = scenario(spec.family, &spec.params, cores, seed) else {
                    continue;
                };
                assert_lockstep(
                    &spec.to_string(),
                    cores,
                    spec.stream(cores, seed).unwrap(),
                    old,
                );
            }
        }
    }

    #[test]
    fn take_of_every_infinite_stream_reports_its_exact_length() {
        let specs = WorkloadProfile::all_paper_workloads()
            .into_iter()
            .map(WorkloadSpec::from)
            .chain(ScenarioFamily::ALL.map(|family| ScenarioSpec::new(family).into()));
        for spec in specs {
            let mut inline = spec.stream_inline(16, 1).unwrap();
            assert_eq!(inline.size_hint(), (usize::MAX, None), "{spec}");
            inline.next();
            assert_eq!(inline.size_hint(), (usize::MAX, None), "{spec}");
            for n in [0, 1, 5000] {
                let take = spec.stream_inline(16, 1).unwrap().take(n);
                assert_eq!(take.size_hint(), (n, Some(n)), "{spec}");
            }
        }
    }
}
