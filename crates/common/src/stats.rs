//! Light-weight statistics primitives.
//!
//! The evaluation of the paper is entirely expressed in terms of counts and
//! distributions gathered while the directories run: insertion attempts
//! (Figures 7, 9, 10, 11), forced-invalidation rates (Figures 9, 12),
//! occupancy (Figure 8) and the event mix that weights the energy model
//! (footnote 1 of Section 5.6).  This module provides the counters,
//! histograms and running means those experiments are built from.

/// A saturating event counter.
///
/// ```
/// use ccd_common::stats::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments the counter by one.
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Returns the current count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl From<Counter> for u64 {
    fn from(c: Counter) -> u64 {
        c.0
    }
}

/// An incremental FNV-1a digest over 64-bit words: each word enters as its
/// eight little-endian bytes.
///
/// The workspace's determinism contracts are proven by folding observable
/// results (outcome records, flight-recorder events) into one order-sensitive
/// fingerprint and comparing it across configurations: equal digests mean
/// bit-identical observable streams.  FNV-1a is used because it is tiny,
/// has no dependencies, and — critically — is fully specified here, so the
/// fingerprint can never drift with a standard-library hasher change (the
/// same reason the `no-default-hasher` lint rule exists).
///
/// ```
/// use ccd_common::stats::Fnv64;
/// let mut a = Fnv64::new();
/// a.fold(1).fold(2);
/// let mut b = Fnv64::new();
/// b.fold(2).fold(1);
/// assert_ne!(a.finish(), b.finish(), "the digest is order-sensitive");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a digest at the offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// `PRIME_POW[k]` is `PRIME^k` (wrapping): what folding `k` zero bytes
    /// does to the state.
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < pow.len() {
            pow[k] = pow[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        pow
    };

    /// Folds one 64-bit word into the digest, returning `self` for
    /// chaining.  The result is FNV-1a over the word's eight little-endian
    /// bytes, bit for bit; only the significant low bytes are folded one by
    /// one, because a zero byte merely multiplies the state by the prime:
    /// the word's `k` zero high bytes cost one multiply by `PRIME^k`, merged
    /// into the last significant byte's own.  The digest folds mostly small
    /// counts and flags, which makes a word one multiply instead of eight.
    ///
    /// ```
    /// use ccd_common::stats::Fnv64;
    /// let mut bytewise = Fnv64::OFFSET;
    /// for byte in 0x1234_u64.to_le_bytes() {
    ///     bytewise = (bytewise ^ u64::from(byte)).wrapping_mul(Fnv64::PRIME);
    /// }
    /// assert_eq!(Fnv64::new().fold(0x1234).finish(), bytewise);
    /// ```
    #[inline]
    pub fn fold(&mut self, value: u64) -> &mut Self {
        // `| 1` counts zero as one significant (zero) byte, so there is
        // always a last significant byte to merge the zero run into.
        let zeros = ((value | 1).leading_zeros() / 8) as usize;
        let mut hash = self.0;
        let mut rest = value;
        for _ in zeros..7 {
            hash = (hash ^ (rest & 0xff)).wrapping_mul(Self::PRIME);
            rest >>= 8;
        }
        // `rest` is now the highest significant byte alone.
        self.0 = (hash ^ rest).wrapping_mul(Self::PRIME_POW[zeros + 1]);
        self
    }

    /// The current digest value.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A bounded histogram of small non-negative integer observations.
///
/// Observations larger than the configured bound are accumulated in the
/// overflow bucket (the last bucket), matching how the paper caps insertion
/// attempts at 32 and counts longer chains as 32 (Section 5.2).
///
/// ```
/// use ccd_common::stats::Histogram;
/// let mut h = Histogram::new(32);
/// h.record(1);
/// h.record(1);
/// h.record(40); // clamped into the overflow bucket
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.count(32), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with buckets `0..=max_value`; larger observations
    /// are clamped into the `max_value` bucket.
    #[must_use]
    pub fn new(max_value: usize) -> Self {
        Histogram {
            buckets: vec![0; max_value + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` (saturating, like [`Counter`]).
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        let clamped = (value as usize).min(self.buckets.len() - 1);
        self.buckets[clamped] = self.buckets[clamped].saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add((clamped as u64).saturating_mul(n));
    }

    /// Number of observations equal to `value` (clamped).
    #[must_use]
    pub fn count(&self, value: u64) -> u64 {
        let clamped = (value as usize).min(self.buckets.len() - 1);
        self.buckets[clamped]
    }

    /// Total number of observations.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Largest representable bucket value (the overflow bucket).
    #[must_use]
    pub fn max_value(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    /// Mean of the recorded (clamped) observations; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fraction of observations equal to `value`; 0 when empty.
    #[must_use]
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Iterates over `(value, count)` pairs for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }

    /// Merges another histogram into this one.  Bucket counts saturate
    /// like [`Counter`], so the reduction is order-independent even at the
    /// `u64` ceiling.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.buckets.len() == other.buckets.len(),
            "cannot merge histograms with different bounds: \
             histogram bounds differ: 0..={} vs 0..={}",
            self.max_value(),
            other.max_value()
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Resets all buckets to zero.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
        self.sum = 0;
    }
}

/// An HDR-style log-linear histogram over the full `u64` range.
///
/// Where [`Histogram`] holds one exact bucket per small integer value,
/// `LogHistogram` covers `0..=u64::MAX` with O(1) recording and a bounded
/// *relative* error: each power-of-two segment is split into
/// `2^sig_bits` linear sub-buckets, so any reported quantile is within a
/// factor of `2^-sig_bits` of the exact observation.  This is the scheme popularised by
/// HdrHistogram for tail-latency accounting: `p999` of a billion samples
/// costs the same handful of index operations as `p50` of ten.
///
/// All counters saturate (like [`Counter`]), so merging per-worker
/// histograms is exact and order-independent: any permutation of merges
/// produces a bit-identical result.  `min`/`max` track the exact raw
/// observations, not bucket edges.
///
/// ```
/// use ccd_common::stats::LogHistogram;
/// let mut h = LogHistogram::new(2); // 2 significant bits: <= 25% error
/// for v in [1u64, 2, 3, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(1000));
/// let p99 = h.p99() as f64;
/// assert!((p99 - 1000.0).abs() / 1000.0 <= 0.25);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    sig_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram with `sig_bits` significant bits of
    /// value resolution (`1..=8`): quantiles are within `2^-sig_bits`
    /// relative error, and storage is `2^sig_bits * (65 - sig_bits)`
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics if `sig_bits` is outside `1..=8`.
    #[must_use]
    pub fn new(sig_bits: u32) -> Self {
        assert!(
            (1..=8).contains(&sig_bits),
            "LogHistogram sig_bits must be in 1..=8, got {sig_bits}"
        );
        let buckets = (65 - sig_bits as usize) << sig_bits;
        LogHistogram {
            sig_bits,
            buckets: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The configured resolution in significant bits.
    #[must_use]
    pub const fn sig_bits(&self) -> u32 {
        self.sig_bits
    }

    /// The bucket index holding `value`: exact for values below
    /// `2^sig_bits`, log-linear above (segment = position of the most
    /// significant bit, sub-bucket = the next `sig_bits` bits).
    fn bucket_index(&self, value: u64) -> usize {
        let b = self.sig_bits;
        if value < (1u64 << b) {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let seg = (msb - b + 1) as usize;
            let sub = ((value >> (msb - b)) ^ (1u64 << b)) as usize;
            (seg << b) + sub
        }
    }

    /// The largest value mapping into bucket `index` (its upper edge);
    /// quantiles report this, biasing *up* by at most `2^-sig_bits`.
    fn bucket_upper(&self, index: usize) -> u64 {
        let b = self.sig_bits;
        let seg = index >> b;
        let sub = (index & ((1usize << b) - 1)) as u64;
        if seg == 0 {
            sub
        } else {
            let low = ((1u64 << b) + sub) << (seg - 1);
            low + ((1u64 << (seg - 1)) - 1)
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` (saturating).
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let index = self.bucket_index(value);
        self.buckets[index] = self.buckets[index].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations (saturating).
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when no observations have been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded observation (exact), or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded observation (exact), or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded observations; 0 when empty.  Exact until
    /// `sum` saturates.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value `v` such that at least `q` (`0..=1`) of the observations
    /// are `<= v`, within a factor of `2^-sig_bits` of the exact
    /// order statistic (biased up, clamped to the recorded `max`).
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        let mut cumulative = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            if cumulative >= target {
                return self.bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The median ([`LogHistogram::quantile`] at 0.5).
    #[must_use]
    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The 99.9th percentile.
    #[must_use]
    pub(crate) fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Iterates over `(bucket upper edge, count)` for non-empty buckets,
    /// in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_upper(i), c))
    }

    /// Merges another histogram into this one.
    ///
    /// The merge is *exact* (bucket-by-bucket, saturating) and therefore
    /// order-independent: any permutation of a set of merges yields a
    /// bit-identical histogram.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.sig_bits == other.sig_bits,
            "cannot merge log-histograms with different resolutions: \
             log-histogram resolutions differ: {} vs {} significant bits",
            self.sig_bits,
            other.sig_bits
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty, keeping the configured resolution.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Incremental mean accumulator over `f64` samples.
///
/// Used for averaging occupancy over the course of a simulation (Figure 8).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanAccumulator {
    count: u64,
    sum: f64,
}

impl MeanAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub const fn new() -> Self {
        MeanAccumulator { count: 0, sum: 0.0 }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
    }

    /// Number of recorded samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Named counters and log-histogram summaries in a *fixed push order*.
///
/// All fields are integers, so two equal snapshots render byte-identically
/// through any deterministic serializer, and two snapshots built by the
/// same pushing code are structurally identical regardless of worker count
/// — the property the service stack's determinism contract leans on.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricSnapshot {
    /// `(name, value)` for every counter, in push order.
    pub counters: Vec<(String, u64)>,
    /// One summary per histogram, in push order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricSnapshot {
    /// Appends counter `name` at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already a counter: push order is part of the
    /// snapshot's identity, so collisions are bugs.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        assert!(
            self.counters.iter().all(|(n, _)| n != name),
            "counter {name:?} registered twice"
        );
        self.counters.push((name.to_string(), value));
    }

    /// Appends the integer summary of `hist` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already a histogram.
    pub fn push_histogram(&mut self, name: &str, hist: &LogHistogram) {
        assert!(
            self.histograms.iter().all(|h| h.name != name),
            "histogram {name:?} registered twice"
        );
        self.histograms.push(HistogramSnapshot {
            name: name.to_string(),
            sig_bits: hist.sig_bits(),
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min().unwrap_or(0),
            max: hist.max().unwrap_or(0),
            p50: hist.p50(),
            p99: hist.p99(),
            p999: hist.p999(),
            buckets: hist.iter().collect(),
        });
    }
}

/// Integer summary of one [`LogHistogram`] inside a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Configured resolution in significant bits.
    pub sig_bits: u32,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Exact smallest observation (0 when empty).
    pub min: u64,
    /// Exact largest observation (0 when empty).
    pub max: u64,
    /// Median, within the configured relative error.
    pub p50: u64,
    /// 99th percentile, within the configured relative error.
    pub p99: u64,
    /// 99.9th percentile, within the configured relative error.
    pub p999: u64,
    /// `(bucket upper edge, count)` for every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn fnv64_matches_the_reference_vectors_and_is_order_sensitive() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), Fnv64::OFFSET);
        assert_eq!(Fnv64::default(), Fnv64::new());

        // One zero word: eight zero bytes, each multiplying by the prime.
        let mut expected = Fnv64::OFFSET;
        for _ in 0..8 {
            expected = expected.wrapping_mul(Fnv64::PRIME);
        }
        let mut digest = Fnv64::new();
        digest.fold(0);
        assert_eq!(digest.finish(), expected);

        let mut ab = Fnv64::new();
        ab.fold(0xa).fold(0xb);
        let mut ba = Fnv64::new();
        ba.fold(0xb).fold(0xa);
        assert_ne!(ab.finish(), ba.finish());
    }

    /// The definition `Fnv64::fold` must reproduce bit for bit: FNV-1a over
    /// the word's eight little-endian bytes, one multiply a byte.
    fn fold_bytewise(mut hash: u64, value: u64) -> u64 {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(Fnv64::PRIME);
        }
        hash
    }

    /// Folds `words` from `state` both ways and checks every intermediate
    /// state, so a chained divergence cannot cancel out.
    fn assert_fold_matches_bytewise(state: u64, words: &[u64]) {
        let mut digest = Fnv64(state);
        let mut expected = state;
        for &word in words {
            expected = fold_bytewise(expected, word);
            assert_eq!(
                digest.fold(word).finish(),
                expected,
                "folding {word:#x} from state {state:#x}"
            );
        }
    }

    #[test]
    fn fnv64_fold_equals_bytewise_fnv1a_on_every_byte_boundary() {
        let mut words = vec![0, u64::MAX];
        for k in 0..8 {
            words.push(1 << (8 * k));
            words.push((1u64 << (8 * k)).wrapping_sub(1));
            // Every value of a single byte position, zero low bytes included.
            words.extend((0..=0xff_u64).map(|byte| byte << (8 * k)));
        }
        for &word in &words {
            assert_fold_matches_bytewise(Fnv64::OFFSET, &[word]);
            assert_fold_matches_bytewise(0, &[word]);
            assert_fold_matches_bytewise(u64::MAX, &[word]);
        }
    }

    #[test]
    fn fnv64_fold_equals_bytewise_fnv1a_on_random_and_chained_words() {
        let mut rng = SplitMix64::new(0x5eed_f01d);
        for _ in 0..10_000 {
            // Random words are rarely short: also cut each to a random
            // number of significant bytes.
            let word = rng.next_u64();
            let short = word >> (8 * (rng.next_u64() % 8));
            assert_fold_matches_bytewise(rng.next_u64(), &[word, short]);
        }
        for _ in 0..1_000 {
            let chain: Vec<u64> = (0..8)
                .map(|_| rng.next_u64() >> (8 * (rng.next_u64() % 9)).min(63))
                .collect();
            assert_fold_matches_bytewise(Fnv64::OFFSET, &chain);
        }
    }

    #[test]
    fn fnv64_known_answer_is_pinned() {
        // A literal, not a recomputation: the digest of this word list is
        // part of every golden file and may never change.
        let mut digest = Fnv64::new();
        for word in [0, 1, 0xff, 0x100, 0xdead_beef, 1 << 40, u64::MAX, 42] {
            digest.fold(word);
        }
        assert_eq!(digest.finish(), 0xf342_c6a9_4ca3_bcc3);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_records_and_clamps() {
        let mut h = Histogram::new(4);
        h.record(0);
        h.record(2);
        h.record(2);
        h.record(9); // clamped to 4
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.count(100), 1); // query also clamps
        assert!((h.mean() - (2 + 2 + 4) as f64 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new(10);
        for v in [1u64, 1, 1, 2, 2, 5, 10, 10, 10, 10] {
            h.record(v);
        }
        assert!((h.fraction(1) - 0.3).abs() < 1e-12);
        assert!((h.fraction(10) - 0.4).abs() < 1e-12);
        assert_eq!(h.fraction(3), 0.0);
    }

    #[test]
    fn histogram_merge_and_reset() {
        let mut a = Histogram::new(8);
        let mut b = Histogram::new(8);
        a.record_n(3, 5);
        b.record_n(3, 2);
        b.record(8);
        a.merge(&b);
        assert_eq!(a.count(3), 7);
        assert_eq!(a.count(8), 1);
        assert_eq!(a.total(), 8);
        a.reset();
        assert_eq!(a.total(), 0);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_requires_same_shape() {
        let mut a = Histogram::new(4);
        let b = Histogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new(4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction(2), 0.0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn mean_accumulator_records() {
        let mut m = MeanAccumulator::new();
        assert_eq!(m.mean(), 0.0);
        for x in [1.0, 2.0, 3.0, 10.0] {
            m.record(x);
        }
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 4.0).abs() < 1e-12);
    }

    use crate::rng::{Rng64, SplitMix64};

    #[test]
    fn log_histogram_buckets_values_exactly_below_two_to_sig_bits() {
        for sig_bits in 1..=8u32 {
            let mut h = LogHistogram::new(sig_bits);
            let exact_limit = 1u64 << sig_bits;
            for v in 0..exact_limit {
                h.record(v);
            }
            // Every small value sits in its own bucket at its exact value.
            for (i, (upper, count)) in h.iter().enumerate() {
                assert_eq!(upper, i as u64);
                assert_eq!(count, 1);
            }
            assert_eq!(h.count(), exact_limit);
        }
    }

    #[test]
    fn log_histogram_quantiles_within_relative_error_randomized() {
        // Mixed magnitudes: uniform small, mid-range, and full-width
        // values, across every supported resolution.
        for sig_bits in [1u32, 2, 4, 8] {
            let mut rng = SplitMix64::new(0xC0FF_EE00 + sig_bits as u64);
            let mut h = LogHistogram::new(sig_bits);
            let mut exact: Vec<u64> = Vec::new();
            for i in 0..10_000u64 {
                let value = match i % 3 {
                    0 => rng.next_u64() % 100,
                    1 => rng.next_u64() % 1_000_000,
                    _ => rng.next_u64(),
                };
                h.record(value);
                exact.push(value);
            }
            exact.sort_unstable();
            let tolerance = 1.0 / (1u64 << sig_bits) as f64;
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * exact.len() as f64).ceil() as usize)
                    .max(1)
                    .min(exact.len());
                let truth = exact[rank - 1] as f64;
                let got = h.quantile(q) as f64;
                // The reported value is the bucket's upper edge clamped to
                // max: never below the truth, never more than rel-err above.
                assert!(
                    got >= truth && got - truth <= truth * tolerance + 1.0,
                    "sig_bits {sig_bits} q {q}: got {got}, exact {truth}"
                );
            }
            assert_eq!(h.min(), exact.first().copied());
            assert_eq!(h.max(), exact.last().copied());
        }
    }

    #[test]
    fn log_histogram_merge_is_order_independent_across_shuffles() {
        // Build 8 disjoint worker histograms, then merge them in several
        // shuffled orders: every reduction must be bit-identical.
        let parts: Vec<LogHistogram> = (0..8u64)
            .map(|w| {
                let mut rng = SplitMix64::new(0xBEEF + w);
                let mut h = LogHistogram::new(3);
                for _ in 0..1000 {
                    h.record(rng.next_u64() >> ((w * 7) % 64));
                }
                h
            })
            .collect();
        let reduce = |order: &[usize]| {
            let mut acc = LogHistogram::new(3);
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let reference = reduce(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut order: Vec<usize> = (0..8).collect();
        let mut rng = SplitMix64::new(0x5EED);
        for _ in 0..16 {
            // Fisher-Yates with the deterministic generator.
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            assert_eq!(reduce(&order), reference, "merge order {order:?} diverged");
        }
        // Structural equality implies identical snapshots too.
        let mut snap_a = MetricSnapshot::default();
        snap_a.push_histogram("h", &reference);
        let mut snap_b = MetricSnapshot::default();
        snap_b.push_histogram("h", &reduce(&order));
        assert_eq!(snap_a, snap_b);
    }

    #[test]
    fn log_histogram_empty_and_nonempty_merge_paths() {
        let empty = LogHistogram::new(2);
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.iter().count(), 0);

        let mut filled = LogHistogram::new(2);
        filled.record_n(7, 3);
        filled.record(4096);

        // empty ← filled adopts the filled side exactly.
        let mut target = LogHistogram::new(2);
        target.merge(&filled);
        assert_eq!(target, filled);

        // filled ← empty is the identity.
        let mut unchanged = filled.clone();
        unchanged.merge(&empty);
        assert_eq!(unchanged, filled);

        // empty ← empty stays empty with no spurious min/max.
        let mut both = LogHistogram::new(2);
        both.merge(&LogHistogram::new(2));
        assert!(both.is_empty());
        assert_eq!(both.min(), None);
    }

    #[test]
    fn log_histogram_saturates_instead_of_wrapping() {
        let mut h = LogHistogram::new(2);
        h.record_n(3, u64::MAX);
        h.record_n(3, 5);
        h.record_n(u64::MAX, 2);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(3));
        // Merging two saturated histograms stays saturated.
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile(0.5), 3);
    }

    #[test]
    #[should_panic(expected = "different resolutions")]
    fn log_histogram_panicking_merge_requires_same_resolution() {
        let mut a = LogHistogram::new(2);
        a.merge(&LogHistogram::new(4));
    }

    #[test]
    #[should_panic(expected = "sig_bits must be in 1..=8")]
    fn log_histogram_rejects_zero_sig_bits() {
        let _ = LogHistogram::new(0);
    }

    #[test]
    fn histogram_merge_empty_nonempty_and_saturation() {
        // empty ← filled and filled ← empty.
        let mut filled = Histogram::new(8);
        filled.record_n(2, 4);
        let mut target = Histogram::new(8);
        target.merge(&filled);
        assert_eq!(target, filled);
        let mut unchanged = filled.clone();
        unchanged.merge(&Histogram::new(8));
        assert_eq!(unchanged, filled);

        // Saturation: counts pin at u64::MAX instead of wrapping.
        let mut sat = Histogram::new(4);
        sat.record_n(1, u64::MAX);
        sat.record_n(1, 10);
        assert_eq!(sat.count(1), u64::MAX);
        assert_eq!(sat.total(), u64::MAX);
        let other = sat.clone();
        sat.merge(&other);
        assert_eq!(sat.total(), u64::MAX);
    }

    #[test]
    fn metric_snapshot_keeps_push_order_and_summarizes_histograms() {
        let mut depth = LogHistogram::new(2);
        depth.record(5);
        depth.record(9);
        let mut snap = MetricSnapshot::default();
        snap.push_counter("hits", 1);
        snap.push_counter("misses", 3);
        snap.push_histogram("depth", &depth);
        assert_eq!(
            snap.counters,
            vec![("hits".to_string(), 1), ("misses".to_string(), 3)]
        );
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!(h.name, "depth");
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 9);
        assert!(h.p999 >= h.p50);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn metric_snapshot_rejects_duplicate_names() {
        let mut snap = MetricSnapshot::default();
        snap.push_counter("x", 0);
        snap.push_counter("x", 0);
    }
}
