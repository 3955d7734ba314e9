//! The directory layer of the engine.

use crate::{DirectorySpec, SystemConfig};
use ccd_common::{ConfigError, LineAddr};
use ccd_directory::{Directory, DirectoryOp, DirectoryStats, Outcome};

/// The distributed directory: one slice per tile plus the home-slice
/// routing between global and slice-local line addresses.
///
/// A block's home slice is selected by the low-order block-number bits and
/// the slice is handed the *slice-local* line (block number with the slice
/// bits shifted out) so intra-slice indexing is not aliased by the
/// interleaving.  The slice count is a power of two, so routing is a mask
/// and a shift.  The complex owns only directory state; cache effects and
/// statistics routing stay with the simulator's other layers.
pub struct DirectoryComplex {
    slices: Vec<Box<dyn Directory>>,
    /// `log2(slices.len())`: how far a block number shifts to drop its
    /// slice bits.
    slice_shift: u32,
    /// `slices.len() - 1`: the block-number bits that select the slice.
    slice_mask: u64,
    organization: String,
}

impl std::fmt::Debug for DirectoryComplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryComplex")
            .field("organization", &self.organization)
            .field("slices", &self.slices.len())
            .finish_non_exhaustive()
    }
}

impl DirectoryComplex {
    /// Builds one directory slice per tile of `system`, each described by
    /// `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] when the system's slice count
    /// is not a power of two (home routing masks and shifts by it), and
    /// propagates the organization's configuration errors.
    pub fn new(system: &SystemConfig, spec: &DirectorySpec) -> Result<Self, ConfigError> {
        let count = system.num_slices() as u64;
        if !ccd_common::is_power_of_two(count) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "directory slice count",
                value: count,
            });
        }
        let resolved = spec.resolve(system)?;
        let registry = ccd_cuckoo::standard_registry();
        let slices = (0..system.num_slices())
            .map(|_| registry.build(&resolved))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DirectoryComplex {
            slices,
            slice_shift: count.trailing_zeros(),
            slice_mask: count - 1,
            organization: spec.label(),
        })
    }

    /// The label of the organization the slices implement.
    #[must_use]
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Number of slices (= tiles).
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Splits a global line address into its home slice and the slice-local
    /// line handed to that slice's directory.
    #[must_use]
    pub fn home_of(&self, line: LineAddr) -> (usize, LineAddr) {
        let block = line.block_number();
        (
            (block & self.slice_mask) as usize,
            LineAddr::from_block_number(block >> self.slice_shift),
        )
    }

    /// Reconstructs the global line address from a slice index and the
    /// slice-local line reported by that slice.
    #[must_use]
    pub fn global_line(&self, slice: usize, local: LineAddr) -> LineAddr {
        LineAddr::from_block_number((local.block_number() << self.slice_shift) | slice as u64)
    }

    /// Applies `op` (already carrying a slice-local line) to `slice`.
    pub fn apply(&mut self, slice: usize, op: DirectoryOp, out: &mut Outcome) {
        self.slices[slice].apply(op, out);
    }

    /// The slices themselves, for per-slice lockstep comparisons.
    #[cfg(test)]
    pub(crate) fn slices(&self) -> &[Box<dyn Directory>] {
        &self.slices
    }

    /// Mean occupancy across all slices.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let sum: f64 = self.slices.iter().map(|s| s.occupancy()).sum();
        sum / self.slices.len() as f64
    }

    /// Total number of valid entries across all slices.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.slices.iter().map(|s| s.len()).sum()
    }

    /// Directory statistics merged across all slices.
    #[must_use]
    pub fn merged_stats(&self) -> DirectoryStats {
        let mut stats = DirectoryStats::new();
        for slice in &self.slices {
            stats.merge(&slice.stats());
        }
        stats
    }

    /// Clears every slice's statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        for slice in &mut self.slices {
            slice.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::CacheId;

    fn complex() -> DirectoryComplex {
        let system = SystemConfig::shared_l2(4);
        DirectoryComplex::new(&system, &DirectorySpec::cuckoo(4, 1.0)).unwrap()
    }

    #[test]
    fn home_routing_round_trips() {
        for slices in [1usize, 2, 4, 16, 1024] {
            // Explicit tiny slices: 1024 of them sized for Table 1 would
            // hold half a gigabyte.
            let system = SystemConfig::private_l2(slices);
            let spec = DirectorySpec::custom("cuckoo-4x2").unwrap();
            let complex = DirectoryComplex::new(&system, &spec).unwrap();
            assert_eq!(complex.num_slices(), slices);
            for block in [
                0u64,
                1,
                5,
                1023,
                0xFFFF_FFFF,
                u64::MAX,
                u64::MAX - 1,
                u64::MAX << 10,
                (u64::MAX << 10) | 0x155,
            ] {
                let line = LineAddr::from_block_number(block);
                let (slice, local) = complex.home_of(line);
                assert_eq!(slice as u64, block % slices as u64);
                assert_eq!(local.block_number(), block / slices as u64);
                assert_eq!(complex.global_line(slice, local), line);
            }
        }
    }

    #[test]
    fn a_slice_count_that_is_not_a_power_of_two_is_rejected() {
        // A hand-built system that skipped `SystemConfig::validate`: routing
        // by mask would send its blocks to the wrong slice.
        for cores in [0usize, 3, 6, 12] {
            let system = SystemConfig {
                num_cores: cores,
                ..SystemConfig::shared_l2(4)
            };
            let err = DirectoryComplex::new(&system, &DirectorySpec::cuckoo(4, 1.0)).unwrap_err();
            assert_eq!(
                err,
                ConfigError::NotPowerOfTwo {
                    what: "directory slice count",
                    value: cores as u64,
                }
            );
        }
    }

    #[test]
    fn apply_and_stats_merge_across_slices() {
        let mut complex = complex();
        let mut out = Outcome::new();
        // One insertion per slice: global blocks 0..4 land on slices 0..4.
        for block in 0..4u64 {
            let line = LineAddr::from_block_number(block);
            let (slice, local) = complex.home_of(line);
            complex.apply(
                slice,
                DirectoryOp::AddSharer {
                    line: local,
                    cache: CacheId::new(0),
                },
                &mut out,
            );
            assert!(out.allocated_new_entry());
        }
        assert_eq!(complex.total_entries(), 4);
        assert_eq!(complex.merged_stats().insertions.get(), 4);
        assert!(complex.occupancy() > 0.0);
        complex.reset_stats();
        assert_eq!(complex.merged_stats().insertions.get(), 0);
        assert_eq!(complex.total_entries(), 4, "contents survive stat resets");
    }
}
