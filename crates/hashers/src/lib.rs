//! Index hash-function families for skewed and cuckoo directories.
//!
//! The Cuckoo directory indexes each of its `d` direct-mapped ways through a
//! *different* hash function (Figure 6 of the paper).  The paper evaluates
//! two families:
//!
//! * the **skewing functions** of Seznec and Bodin, cheap XOR/rotate networks
//!   that need only a few levels of logic in hardware (Section 5.5), and
//! * **strong (cryptographic-quality) hash functions**, used to characterize
//!   the intrinsic behaviour of d-ary cuckoo hashing independent of hash
//!   quality (Figure 7) and as a sensitivity study (Section 5.5).
//!
//! This crate provides both, behind the [`IndexHashFamily`] trait.
//!
//! # Example
//!
//! ```
//! use ccd_common::LineAddr;
//! use ccd_hash::{HashFamily, HashKind, IndexHashFamily};
//!
//! let family = HashFamily::new(HashKind::Skewing, 4, 512)?;
//! let line = LineAddr::from_block_number(0xdead_beef);
//! for way in 0..family.ways() {
//!     assert!(family.index(way, line) < 512);
//! }
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod family;
pub mod skewing;
pub mod strong;

pub use family::{HashFamily, HashKind};
pub use skewing::SkewingFamily;
pub use strong::StrongFamily;

use ccd_common::LineAddr;

/// Upper bound on the way count of *any* family in this crate (the strong
/// family allows up to 64 ways; skewing allows 16).
/// Probe code can size its per-key index buffers with this constant and hold
/// them on the stack.
pub const MAX_FAMILY_WAYS: usize = 64;

/// A family of per-way index hash functions over cache-line addresses.
///
/// Implementations map a line address to a set index in `[0, sets())` for
/// each of `ways()` ways.  Different ways must use *independent* functions —
/// that independence is exactly what lets the cuckoo insertion procedure
/// break transitive conflicts (Section 4.1 of the paper).
pub trait IndexHashFamily {
    /// Number of ways (independent hash functions) in this family.
    fn ways(&self) -> usize;

    /// Number of sets each function maps into.
    fn sets(&self) -> usize;

    /// Maps `line` to a set index for `way`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `way >= self.ways()`.
    fn index(&self, way: usize, line: LineAddr) -> usize;

    /// Returns the indices for all ways of this family, in way order.
    fn all_indices(&self, line: LineAddr) -> Vec<usize> {
        let mut out = vec![0; self.ways()];
        self.index_all_into(line, &mut out);
        out
    }

    /// Writes the index of every way into `out[..ways()]` in one pass.
    ///
    /// This is the hot-path variant of [`IndexHashFamily::all_indices`]: a
    /// cuckoo probe needs all `d` candidate indices of a key at once, and
    /// computing them together lets an implementation hoist the per-key work
    /// (field decomposition, enum dispatch) out of the per-way loop and write
    /// into a caller-owned stack buffer without allocating.
    ///
    /// The families of this crate keep their per-way parameters in fixed
    /// arrays of their way limit and run the loop over `out` itself, so an
    /// `N`-long buffer is an `N`-trip loop that unrolls wherever `N` is a
    /// compile-time constant.  An element past `ways()` (up to the family's
    /// limit) receives the index the same family built with more ways would
    /// put there: size the buffer to the way count (`&mut buf[..ways]`) to
    /// leave the rest untouched.
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than [`IndexHashFamily::ways`].
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        assert!(
            out.len() >= self.ways(),
            "index buffer of {} entries cannot hold {} ways",
            out.len(),
            self.ways()
        );
        for (way, slot) in out.iter_mut().enumerate().take(self.ways()) {
            *slot = self.index(way, line);
        }
    }

    /// Estimated number of two-input logic levels a hardware implementation
    /// of one function requires.  Used by the energy model to reason about
    /// the "trivial implementation of the skewing hash functions" versus the
    /// "complex hardware implementation" of strong functions (Section 5.5).
    fn logic_levels(&self) -> u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64};

    /// Shared check: every family keeps indices in range and distributes
    /// reasonably uniformly across the sets.
    fn check_uniformity<F: IndexHashFamily>(family: &F, samples: usize) {
        let sets = family.sets();
        let mut rng = SplitMix64::new(0x1234);
        let mut counts = vec![vec![0usize; sets]; family.ways()];
        for _ in 0..samples {
            let line = LineAddr::from_block_number(rng.next_u64() >> 6);
            for (way, way_counts) in counts.iter_mut().enumerate() {
                let idx = family.index(way, line);
                assert!(idx < sets);
                way_counts[idx] += 1;
            }
        }
        let expected = samples as f64 / sets as f64;
        for way_counts in &counts {
            let max = *way_counts.iter().max().unwrap() as f64;
            let min = *way_counts.iter().min().unwrap() as f64;
            // With random inputs every bucket should be within a generous
            // factor of the expectation.
            assert!(max < expected * 3.0, "max {max} vs expected {expected}");
            assert!(min > expected / 3.0, "min {min} vs expected {expected}");
        }
    }

    #[test]
    fn all_families_are_uniform_on_random_input() {
        check_uniformity(&SkewingFamily::new(4, 256).unwrap(), 100_000);
        check_uniformity(&StrongFamily::new(4, 256).unwrap(), 100_000);
    }

    #[test]
    fn index_all_into_matches_per_way_index_for_every_kind() {
        let mut rng = SplitMix64::new(0xA11);
        for kind in HashKind::all() {
            for ways in [2usize, 3, 4, 8, 16] {
                let family = HashFamily::new(kind, ways, 512).unwrap();
                let mut buf = [0usize; MAX_FAMILY_WAYS];
                for _ in 0..200 {
                    let line = LineAddr::from_block_number(rng.next_u64() >> 6);
                    family.index_all_into(line, &mut buf);
                    for (way, &idx) in buf.iter().enumerate().take(ways) {
                        assert_eq!(idx, family.index(way, line), "{kind} way {way} diverged");
                    }
                    assert_eq!(family.all_indices(line), buf[..ways].to_vec());
                }
            }
        }
    }

    /// `index_all_into` over a buffer of exactly the way count equals
    /// `index` way by way, for every way count 1..=`max_ways` the family
    /// takes: through `[usize; N]` arrays for the counts the cuckoo table
    /// compiles its probe for (up to eight ways, where the loop's trip count
    /// is a constant), through slices for all of them.
    fn exact_buffers_match_per_way_index<F: IndexHashFamily>(
        max_ways: usize,
        make: impl Fn(usize) -> F,
    ) {
        fn array<const N: usize>(family: &impl IndexHashFamily, line: LineAddr) -> Vec<usize> {
            let mut out = [usize::MAX; N];
            family.index_all_into(line, &mut out);
            out.to_vec()
        }
        let mut rng = SplitMix64::new(0xE7AC7);
        for ways in 1..=max_ways {
            let family = make(ways);
            for _ in 0..64 {
                let line = LineAddr::from_block_number(rng.next_u64() >> 6);
                let want: Vec<usize> = (0..ways).map(|way| family.index(way, line)).collect();
                let mut slice = vec![usize::MAX; ways];
                family.index_all_into(line, &mut slice);
                assert_eq!(slice, want, "{ways} ways");
                let unrolled = match ways {
                    1 => array::<1>(&family, line),
                    2 => array::<2>(&family, line),
                    3 => array::<3>(&family, line),
                    4 => array::<4>(&family, line),
                    5 => array::<5>(&family, line),
                    6 => array::<6>(&family, line),
                    7 => array::<7>(&family, line),
                    8 => array::<8>(&family, line),
                    _ => continue,
                };
                assert_eq!(unrolled, want, "[usize; {ways}]");
            }
        }
    }

    #[test]
    fn skewing_index_all_into_over_exact_buffers_matches_index() {
        exact_buffers_match_per_way_index(skewing::MAX_WAYS, |ways| {
            SkewingFamily::new(ways, 512).unwrap()
        });
    }

    #[test]
    fn strong_index_all_into_over_exact_buffers_matches_index() {
        exact_buffers_match_per_way_index(strong::MAX_WAYS, |ways| {
            StrongFamily::with_seed(ways, 512, 5).unwrap()
        });
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn index_all_into_rejects_short_buffers() {
        let family = HashFamily::new(HashKind::Skewing, 4, 256).unwrap();
        let mut buf = [0usize; 2];
        family.index_all_into(LineAddr::from_block_number(1), &mut buf);
    }

    #[test]
    fn ways_disagree_on_most_lines() {
        // Independence proxy: for most lines, different ways should map to
        // different indices.
        let family = HashFamily::new(HashKind::Skewing, 3, 1024).unwrap();
        let mut rng = SplitMix64::new(9);
        let mut collisions = 0usize;
        let trials = 10_000;
        for _ in 0..trials {
            let line = LineAddr::from_block_number(rng.next_u64() >> 6);
            let idx = family.all_indices(line);
            if idx[0] == idx[1] || idx[1] == idx[2] || idx[0] == idx[2] {
                collisions += 1;
            }
        }
        // Random chance of any pairwise collision among 3 ways with 1024
        // sets is about 3/1024 ~ 0.3%; allow a wide margin.
        assert!(
            (collisions as f64) < trials as f64 * 0.02,
            "too many cross-way collisions: {collisions}"
        );
    }
}
