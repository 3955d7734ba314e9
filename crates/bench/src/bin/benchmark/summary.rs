//! Order statistics over trial samples: median, quartiles, and the tail
//! percentile a sample count can support.

/// Tail percentiles the benchmark reports, highest first, each with the
/// share of samples beyond it as "one in N".
const TAIL_LADDER: [(f64, usize); 4] = [(99.9, 1000), (99.0, 100), (90.0, 10), (50.0, 2)];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median and quartiles of one metric's trial samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub trials: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median — the spread the
    /// benchmark's bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric without a sample is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method), so the numbers printed here are the numbers
/// anyone re-deriving them from the per-run values gets.  With fewer than
/// two samples all three collapse onto the single value.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            trials: len,
        };
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        trials: len,
    }
}

/// The time each part of a trial takes when nothing interferes, estimated
/// from several trials of the same deterministic work cut into the same
/// parts: each part's fastest trial.  Their sum is the "clean time" of the
/// whole.
///
/// Interference from the host only ever adds time, and on a shared
/// sandbox it slows most of every trial, so whole trials — their median
/// and even their minimum — follow the host's state, while every
/// millisecond-long part runs undisturbed in some trial.  Measured on this
/// repository's sandbox, the clean time moved 3.6 % between 20-second
/// windows where the fastest whole trial moved 9 % and the median trial
/// 14 % (README.md, "Noise").
///
/// # Panics
///
/// Panics when there are no trials or the trials were cut differently.
pub fn clean_parts(trials: &[Vec<f64>]) -> Vec<f64> {
    let first = trials.first().expect("at least one trial");
    assert!(
        trials.iter().all(|t| t.len() == first.len()),
        "every trial of one call has the same parts"
    );
    (0..first.len())
        .map(|i| trials.iter().map(|t| t[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `count` samples beyond it, or `None` below twenty samples.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, one_in)| count >= MIN_BEYOND * one_in)
        .map(|(percentile, _)| percentile)
}

/// The `p`-th percentile (nearest-rank) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.trials), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        assert!((q.spread() - 10.5 / 4.0).abs() < 1e-12);
        let one = quartiles(&[5.0]);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (5.0, 5.0, 5.0, 0.0)
        );
    }

    #[test]
    fn clean_parts_take_each_parts_fastest_trial() {
        let trials = vec![
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 2.5],
            vec![2.0, 2.0, 9.0],
        ];
        assert_eq!(clean_parts(&trials), vec![1.0, 1.0, 2.0]);
        assert_eq!(clean_parts(&trials[..1]), trials[0]);
    }

    #[test]
    #[should_panic(expected = "same parts")]
    fn clean_parts_reject_trials_cut_differently() {
        clean_parts(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.9), 9.0);
    }
}
