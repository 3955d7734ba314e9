//! Zipf-distributed sampling for access locality.
//!
//! Memory accesses of the server workloads are highly skewed: a small hot
//! working set absorbs most references while the tail is touched rarely.
//! The generators model this with a Zipf distribution over the blocks of
//! each region: block `i` (1-based rank) is accessed with probability
//! proportional to `1 / i^theta`.  `theta = 0` degenerates to a uniform
//! distribution, which the scientific kernels (regular grid/graph sweeps)
//! use.
//!
//! A draw inverts the precomputed cumulative distribution at a uniform
//! `u`: the rank is the first CDF entry at or past `u`.  A *guide table*
//! makes that O(1) in expectation: `[0, 1)` is cut into `B` equal buckets
//! (`B` a power of two, about one per rank) and `guide[k]` is the first
//! CDF index at or past the bucket's lower edge `k / B`, so the answer for
//! a `u` in bucket `k` lies in `cdf[guide[k]..=guide[k + 1]]` — a handful
//! of entries even in the flat tail of a skewed distribution.
//!
//! The draw counts, without a branch, the entries below `u` in a fixed
//! window of eight entries (`WINDOW`) starting at `guide[k]`.  Every
//! entry from `guide[k + 1]` on is at least `(k + 1) / B`, which is past
//! `u`, so the count is exactly the rank's offset from `guide[k]`
//! whenever the bucket's range `guide[k]..guide[k + 1]` fits the window.
//! The CDF is padded with `WINDOW` sentinels of `1.0` (never below a
//! `u < 1`), so a window starting at the last rank stays in bounds and
//! counts nothing past it.  Only a bucket whose range is wider than the
//! window — a few tail buckets of a strongly skewed, large population —
//! falls back to a binary search over its range.

use ccd_common::rng::Rng64;

/// CDF entries a draw compares `u` against at once, and sentinels padding
/// the CDF past its last rank.
const WINDOW: usize = 8;

/// A sampler drawing ranks in `[0, n)` from a Zipf distribution.
///
/// The cumulative distribution and its guide table are precomputed, so a
/// draw is one guide load plus a count over the [`WINDOW`] CDF entries
/// after it; the memory cost is one `f64` per rank (plus the sentinels)
/// and one `u32` per bucket (at most `n.next_power_of_two() + 1` of them).
#[derive(Clone, Debug)]
pub(crate) struct ZipfSampler {
    /// The `ranks` CDF values, then [`WINDOW`] sentinels of `1.0`.
    cdf: Vec<f64>,
    /// The population size `n`.
    ranks: usize,
    /// `guide[k]` = first index whose CDF value is `>= k / buckets`, for
    /// `k` in `0..=buckets`.
    guide: Vec<u32>,
    /// The bucket count as the factor that maps `u` to its bucket.
    buckets: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew `theta >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit a `u32`, or if `theta` is
    /// negative or not finite.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "cannot sample from an empty population");
        assert!(
            u32::try_from(n).is_ok(),
            "population does not fit the u32 guide table"
        );
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and >= 0"
        );
        // Allocated once at its padded length: growing it for the
        // sentinels would copy the whole array.
        let mut cdf = Vec::with_capacity(n + WINDOW);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        // Normalize.
        let norm = total;
        for c in &mut cdf {
            *c /= norm;
        }

        // One merge walk: the CDF and the bucket edges both ascend, so the
        // cursor never moves back.  `k / buckets` is exact (a power-of-two
        // divisor), which is what lets `rank_of` trust the marks.
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
        cdf.resize(n + WINDOW, 1.0);
        ZipfSampler {
            cdf,
            ranks: n,
            guide,
            buckets: buckets as f64,
        }
    }

    /// Draws one rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.next_f64())
    }

    /// The rank a uniform `u` in `[0, 1)` selects: the first index whose
    /// CDF value is `>= u`.  `u * buckets` only shifts the exponent, so the
    /// bucket `k` satisfies `k / buckets <= u < (k + 1) / buckets` exactly
    /// and the first entry at or past `u` sits between the two marks.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let bucket = (u * self.buckets) as usize;
        let lo = self.guide[bucket] as usize;
        let hi = self.guide[bucket + 1] as usize;
        let index = if hi - lo <= WINDOW {
            let window = &self.cdf[lo..lo + WINDOW];
            lo + window.iter().map(|&c| usize::from(c < u)).sum::<usize>()
        } else {
            lo + self.cdf[lo..hi].partition_point(|&c| c < u)
        };
        index.min(self.ranks - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use ccd_common::rng::Xoshiro256;

    /// `x` and the `f64`s right below and above it, kept to `[0, 1)`.
    fn with_neighbours(x: f64) -> impl Iterator<Item = f64> {
        [x.next_down(), x, x.next_up()]
            .into_iter()
            .filter(|u| (0.0..1.0).contains(u))
    }

    #[test]
    fn guided_draw_matches_the_whole_array_search() {
        let mut widths = [false; 3];
        for n in [1, 2, 3, 1000, 2560, 49_152] {
            for theta in [0.0, 0.02, 0.8, 0.9, 0.99, 1.5] {
                let sampler = ZipfSampler::new(n, theta);
                let old = reference::ZipfSampler::new(n, theta);
                assert_eq!(sampler.guide, old.guide());
                let check = |u: f64| {
                    let rank = sampler.rank_of(u);
                    assert_eq!(rank, old.rank_of(u), "n={n} theta={theta} u={u:e}");
                    assert_eq!(
                        rank,
                        old.rank_of_whole_array(u),
                        "n={n} theta={theta} u={u:e}"
                    );
                };
                check(0.0);
                check(1.0f64.next_down());
                for &c in old.cdf() {
                    with_neighbours(c).for_each(check);
                }
                let buckets = old.guide().len() - 1;
                for (k, marks) in old.guide().windows(2).enumerate() {
                    let width = (marks[1] - marks[0]) as usize;
                    for (seen, matches) in widths.iter_mut().zip([
                        width == WINDOW - 1,
                        width == WINDOW,
                        width > WINDOW,
                    ]) {
                        *seen |= matches;
                    }
                    with_neighbours(k as f64 / buckets as f64).for_each(check);
                    with_neighbours((k + 1) as f64 / buckets as f64).for_each(check);
                }
                let mut rng = Xoshiro256::new(n as u64 ^ theta.to_bits());
                for _ in 0..100_000 {
                    check(rng.next_f64());
                }
            }
        }
        assert_eq!(
            widths, [true; 3],
            "bucket ranges of WINDOW - 1, WINDOW and more entries are all exercised"
        );
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn zero_population_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn negative_theta_panics() {
        let _ = ZipfSampler::new(10, -1.0);
    }

    #[test]
    fn uniform_when_theta_is_zero() {
        let sampler = ZipfSampler::new(10, 0.0);
        let mut rng = Xoshiro256::new(1);
        let mut counts = [0usize; 10];
        let trials = 100_000;
        for _ in 0..trials {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let expected = trials as f64 / 10.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.1, "count {c}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let sampler = ZipfSampler::new(1000, 0.99);
        let mut rng = Xoshiro256::new(2);
        let trials = 100_000;
        let hot_hits = (0..trials)
            .filter(|_| sampler.sample(&mut rng) < 100)
            .count();
        // With theta ~1 the top 10% of ranks should absorb well over half
        // the accesses.
        assert!(
            hot_hits as f64 / trials as f64 > 0.6,
            "hot fraction {}",
            hot_hits as f64 / trials as f64
        );
    }

    #[test]
    fn samples_cover_the_whole_range() {
        let sampler = ZipfSampler::new(16, 0.5);
        let mut rng = Xoshiro256::new(3);
        let mut seen = [false; 16];
        for _ in 0..50_000 {
            seen[sampler.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // The top of `[0, 1)` selects the last rank, never a sentinel.
        assert_eq!(sampler.rank_of(1.0f64.next_down()), 15);
    }

    #[test]
    fn singleton_population_always_returns_zero() {
        let sampler = ZipfSampler::new(1, 2.0);
        let mut rng = Xoshiro256::new(4);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }
}
