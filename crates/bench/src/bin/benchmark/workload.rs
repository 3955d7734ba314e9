//! What every workload provides, and the untraced run that turns it into
//! the end-to-end metrics.

use crate::host;
use crate::metrics::{Values, END_TO_END};
use crate::summary::{self, Quartiles};
use crate::trace::{Interval, Segmented, Tracer};
use ccd_directory::DirectoryStats;
use std::time::{Duration, Instant};

/// Complete set-ups a run makes; each is a sample of `setup_s`.
const SETUPS: usize = 3;

/// Timed trials a run makes at least, however short it is asked to be.
const MIN_TRIALS: usize = 3;

/// The run length `BENCHMARK.json` declares (`run_seconds`), which every
/// workload's [`Workload::planned_trials`] is sized for.
const PLANNED_SECONDS: f64 = 25.0;

/// Accepted time-averaged or final directory occupancy of the workloads
/// that claim the paper's operating point (about half full).
pub const OPERATING_OCCUPANCY: std::ops::RangeInclusive<f64> = 0.40..=0.60;

/// How much of the full-size workload a run executes.  `--quick` divides
/// every operation count by [`Scale::QUICK_DIVISOR`] for smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    divisor: usize,
}

impl Scale {
    pub const QUICK_DIVISOR: usize = 20;
    pub const FULL: Scale = Scale { divisor: 1 };
    pub const QUICK: Scale = Scale {
        divisor: Self::QUICK_DIVISOR,
    };

    pub fn of(&self, full: usize) -> usize {
        full / self.divisor
    }

    pub fn is_quick(&self) -> bool {
        self.divisor > 1
    }
}

/// The simulated, host-independent output of one trial.  Two trials of one
/// seed must compare equal; `digest` folds whatever the other fields do
/// not spell out (outcome logs, per-job reports).
#[derive(Clone, Debug, PartialEq)]
pub struct Semantics {
    /// Operations the primary call processed.
    pub ops: u64,
    /// Directory entries resident when it returned.
    pub entries: u64,
    /// Directory statistics over the call, merged across slices.
    pub dir: DirectoryStats,
    /// Cached blocks invalidated because the directory ran out of room.
    pub forced_invalidations: u64,
    /// The operating point the guards look at: occupancy in `0..=1`.
    pub occupancy: f64,
    pub digest: u64,
}

impl Semantics {
    /// Operations that failed: insertions that exhausted the attempt
    /// budget and discarded an entry.
    pub fn failed(&self) -> u64 {
        self.dir.insertion_failures.get()
    }

    /// Non-empty buckets of the insertion-attempt histogram.
    pub fn attempt_buckets(&self) -> usize {
        self.dir
            .insertion_attempts
            .iter()
            .filter(|&(_, count)| count > 0)
            .count()
    }
}

/// One benchmark workload: seeded inputs, a primary call, its checks and
/// its traced layer build-up.
pub trait Workload {
    type Inputs;

    fn name(&self) -> &'static str;

    /// Operations one trial of the primary call processes.
    fn ops(&self) -> u64;

    /// Timed trials of a full-length run.  Sized so that the set-ups plus
    /// this many trials take about four fifths of the run on the host the
    /// benchmark was sized on: the count, not the clock, normally ends a
    /// run, so faster code is not measured over more trials than slower
    /// code.
    fn planned_trials(&self) -> usize;

    /// The workload's parameters, for the output's environment block.
    fn describe(&self) -> String;

    /// Generates the inputs from the seed.
    fn prepare(&self, seed: u64) -> Self::Inputs;

    /// Builds the system under test (untimed), makes the primary call
    /// (timed, and cut into segments by the benchmark's own timestamps)
    /// and summarizes what it computed (untimed).
    fn trial(&self, inputs: &Self::Inputs) -> (Segmented, Semantics);

    /// Checks outputs against the workload's correctness reference and its
    /// operating-point guards.  Returns one line per check passed.
    ///
    /// # Errors
    ///
    /// The first failed check, naming the first differing operation where
    /// there is one.
    fn check(&self, inputs: &Self::Inputs, reference: &Semantics) -> Result<Vec<String>, String>;

    /// The traced run: the layer build-up on the same inputs, one stage
    /// per layer boundary sharing `seconds`, filling the per-layer
    /// `values`.
    ///
    /// # Errors
    ///
    /// A cross-check between stages that failed.
    fn trace(
        &self,
        seed: u64,
        inputs: &Self::Inputs,
        tracer: &mut Tracer,
        seconds: Duration,
        values: &mut Values,
    ) -> Result<(), String>;
}

/// What one run of a workload established.
pub struct RunOutcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// `Err` carries the first failed check.
    pub checks: Result<Vec<String>, String>,
    /// Digest of the reference trial, printed so runs of different seeds
    /// can be told apart.
    pub digest: u64,
    /// Quartiles behind each timing metric, for the printed table.
    pub quartiles: Vec<(&'static str, Quartiles)>,
    /// Throughput of every timed trial, in run order.
    pub trial_ops_per_s: Vec<f64>,
    /// Timed trials the run was to make; it made fewer only if `--seconds`
    /// ran out first.
    pub planned_trials: usize,
}

/// One trial with the untimed work around its primary call timed too: the
/// build before the call, the call's own segments, the summary after it.
fn around_trial<W: Workload>(workload: &W, inputs: &W::Inputs) -> (Vec<f64>, Segmented, Semantics) {
    let start = Instant::now();
    let (timed, semantics) = workload.trial(inputs);
    let end = Instant::now();
    let build = timed.interval.start.duration_since(start);
    let summary = end.duration_since(timed.interval.end);
    let mut parts = Vec::with_capacity(timed.segments.len() + 2);
    parts.push(build.as_secs_f64());
    parts.extend_from_slice(&timed.segments);
    parts.push(summary.as_secs_f64());
    (parts, timed, semantics)
}

/// The untraced run: [`SETUPS`] complete set-ups (input generation, then
/// one untimed trial with its build), then the workload's planned number
/// of timed trials (scaled to `seconds`, and cut short if set-ups and
/// trials together outlast it), then the checks.
pub fn run_untraced<W: Workload>(workload: &W, seed: u64, seconds: Duration) -> RunOutcome {
    let run_start = Instant::now();
    let ops = workload.ops();
    let planned_trials = ((workload.planned_trials() as f64 * seconds.as_secs_f64()
        / PLANNED_SECONDS) as usize)
        .max(MIN_TRIALS);
    // Every trial, set-ups' included, cut into build, call segments and
    // summary: the samples both timing metrics are estimated from.
    let mut parts = Vec::with_capacity(SETUPS + planned_trials);
    let (mut generations, mut setups) = (Vec::new(), Vec::new());
    let mut prepared: Option<(W::Inputs, Semantics)> = None;
    let mut mismatches = 0u64;
    while setups.len() < SETUPS {
        // Only one copy of the inputs is ever alive, so that set-ups do
        // not raise the peak memory a single one needs.
        let previous = prepared.take().map(|(inputs, semantics)| {
            drop(inputs);
            semantics
        });
        let (generation, inputs) = Interval::time(|| workload.prepare(seed));
        let (trial_parts, _, semantics) = around_trial(workload, &inputs);
        generations.push(generation.seconds());
        setups.push(generation.seconds() + trial_parts.iter().sum::<f64>());
        parts.push(trial_parts);
        mismatches += u64::from(previous.is_some_and(|first| first != semantics));
        prepared = Some((inputs, semantics));
    }
    let (inputs, reference) = prepared.expect("a run makes set-ups");

    let mut failed = 0;
    let mut ops_per_s = Vec::with_capacity(planned_trials);
    while ops_per_s.len() < MIN_TRIALS
        || (ops_per_s.len() < planned_trials && run_start.elapsed() < seconds)
    {
        let (trial_parts, timed, semantics) = around_trial(workload, &inputs);
        failed += semantics.failed();
        mismatches += u64::from(semantics != reference);
        ops_per_s.push(ops as f64 / timed.interval.seconds());
        parts.push(trial_parts);
    }
    let trials = ops_per_s.len() as u64;

    let attempted = ops * trials;
    let compared = trials + SETUPS as u64 - 1;
    let mut values = Values::new(&END_TO_END);
    // Both timing metrics with the host's interference taken out (see
    // `summary::clean_parts`): throughput from the call's segments, set-up
    // time from generation plus one whole trial.  The whole-trial and
    // whole-set-up medians and quartiles are printed beside them.
    let clean = summary::clean_parts(&parts);
    let clean_call: f64 = clean[1..clean.len() - 1].iter().sum();
    let clean_generation = generations.iter().copied().fold(f64::INFINITY, f64::min);
    values.set("ops_per_s", ops as f64 / clean_call);
    values.set("setup_s", clean_generation + clean.iter().sum::<f64>());
    values.set("ok_ratio", 1.0 - failed as f64 / attempted as f64);
    values.set(
        "avg_insert_attempts",
        reference.dir.insertion_attempts.mean(),
    );
    values.set(
        "unforced_per_kop",
        1000.0 - reference.forced_invalidations as f64 * 1000.0 / ops as f64,
    );
    values.set(
        "stats_match_ratio",
        1.0 - mismatches as f64 / compared as f64,
    );

    let checks = if mismatches > 0 {
        Err(format!(
            "{mismatches} of {compared} set-ups and trials disagree with the first about what \
             the workload computes"
        ))
    } else {
        workload.check(&inputs, &reference)
    };
    // At exit, as a user of the process sees it: the checks' reference
    // models (the recorded references of `sim_mix`, the shadow map of
    // `dir_spill`) are part of it and are the same for every run of a seed.
    values.set("peak_rss_mb", host::peak_rss_mib());
    RunOutcome {
        values,
        attempted,
        failed,
        checks,
        digest: reference.digest,
        quartiles: vec![
            ("ops_per_s", summary::quartiles(&ops_per_s)),
            ("setup_s", summary::quartiles(&setups)),
        ],
        trial_ops_per_s: ops_per_s,
        planned_trials,
    }
}

/// The traced run: one set-up, then the workload's layer build-up.
pub fn run_traced<W: Workload>(
    workload: &W,
    seed: u64,
    seconds: Duration,
    tracer: &mut Tracer,
) -> RunOutcome {
    let inputs = workload.prepare(seed);
    let (_, reference) = workload.trial(&inputs);
    let mut values = Values::new(&crate::metrics::PER_LAYER);
    let checks = workload
        .trace(seed, &inputs, tracer, seconds, &mut values)
        .map(|()| vec!["traced stages agree with the untraced primary call".to_string()]);
    RunOutcome {
        values,
        attempted: workload.ops(),
        failed: reference.failed(),
        checks,
        digest: reference.digest,
        quartiles: Vec::new(),
        trial_ops_per_s: Vec::new(),
        planned_trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_counts_are_planned_for_the_declared_run_length() {
        let declared = format!("\"run_seconds\": {PLANNED_SECONDS},");
        assert!(include_str!("../../../../../BENCHMARK.json").contains(&declared));
    }
}
