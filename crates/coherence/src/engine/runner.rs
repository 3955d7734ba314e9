//! Deterministic parallel execution of independent simulations.

use crate::{CmpSimulator, DirectorySpec, SimReport, SystemConfig};
use ccd_common::ConfigError;
use ccd_workloads::{TraceStream, WorkloadSpec};

/// One fully-described simulation: build the system, warm it up on a
/// deterministic trace, measure, report.
///
/// A job is a pure value — running it twice, on any thread, produces the
/// same [`SimReport`].  That property is what lets the
/// [`ParallelRunner`] fan jobs out without affecting results.  The
/// workload axis is a [`WorkloadSpec`], so a job can drive the system with
/// a calibrated paper profile, any parameterized scenario family, or a
/// recorded trace replayed bit-identically.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The simulated CMP.
    pub system: SystemConfig,
    /// The directory organization under test.
    pub spec: DirectorySpec,
    /// The workload driving the reference stream (profile, scenario, or
    /// trace replay).
    pub workload: WorkloadSpec,
    /// Trace-stream seed (ignored by trace replays).
    pub seed: u64,
    /// References to process before statistics are reset.
    pub warmup_refs: u64,
    /// References to measure after the reset.
    pub measure_refs: u64,
}

impl SimJob {
    /// Checks that the job can be built, without running it: validates the
    /// system configuration, constructs one trial directory slice, and
    /// validates the workload (scenario knobs, replay-file header — and
    /// that a replayed recording holds at least the references this job
    /// will consume, so a short trace fails here instead of silently
    /// truncating the measurement).  Cheap relative to a simulation, so
    /// batch runners can reject a bad sweep before spending any simulation
    /// wall-clock.
    ///
    /// # Errors
    ///
    /// The error [`SimJob::run`] would eventually surface.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate()?;
        self.spec.build_slice(&self.system)?;
        self.workload
            .validate(self.system.num_cores, self.warmup_refs + self.measure_refs)
    }

    /// Runs the job to completion through [`CmpSimulator::run_workload`],
    /// so a debug build checks coherence at the end of every job.  The
    /// references come from [`WorkloadSpec::stream`], one batch ahead on a
    /// helper thread, so the simulator does not wait on the generator.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; see [`CmpSimulator::new`].
    pub fn run(&self) -> Result<SimReport, ConfigError> {
        self.run_on(self.workload.stream(self.system.num_cores, self.seed)?)
    }

    fn run_on(&self, mut trace: Box<dyn TraceStream>) -> Result<SimReport, ConfigError> {
        CmpSimulator::run_workload(
            self.system.clone(),
            &self.spec,
            &mut trace,
            self.warmup_refs,
            self.measure_refs,
        )
    }
}

/// Fans independent work items across `std::thread::scope` workers with
/// deterministic, order-independent result collection.
///
/// Two properties make every run reproducible:
///
/// 1. each item is processed by a pure function of the item alone (no
///    shared mutable state),
/// 2. results are stored by *input index*, never by completion order.
///
/// A runner with one worker executes inline on the calling thread, so
/// `CCD_WORKERS=1` gives a genuinely serial run for A/B comparisons; the
/// outputs must be (and are, see the determinism tests) byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelRunner {
    workers: usize,
}

impl Default for ParallelRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelRunner {
    /// A runner with one worker per available hardware thread.
    #[must_use]
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        ParallelRunner { workers }
    }

    /// A runner with exactly `workers` workers (clamped to at least one).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        ParallelRunner {
            workers: workers.max(1),
        }
    }

    /// A single-worker runner: everything executes inline, in input order,
    /// on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_workers(1)
    }

    /// Reads the worker count from the `CCD_WORKERS` environment variable
    /// (`1` forces a serial run); an unset variable defaults to
    /// [`ParallelRunner::new`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] — quoting the offending token, consistent
    /// with the spec parsers — when the variable is set but is not a
    /// positive integer (`0` would mean "no workers at all" and is
    /// rejected rather than silently clamped; unparseable values are
    /// rejected rather than silently falling back to the default).
    pub fn from_env() -> Result<Self, ConfigError> {
        match std::env::var("CCD_WORKERS") {
            Err(std::env::VarError::NotPresent) => Ok(Self::new()),
            Err(std::env::VarError::NotUnicode(_)) => Err(ConfigError::Parse {
                what: "CCD_WORKERS is not valid unicode; \
                       expected a positive worker count"
                    .to_string(),
            }),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(workers) if workers >= 1 => Ok(Self::with_workers(workers)),
                _ => Err(ConfigError::Parse {
                    what: format!(
                        "CCD_WORKERS `{}`: expected a positive worker count",
                        raw.trim()
                    ),
                }),
            },
        }
    }

    /// Number of worker threads the runner fans out to.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `true` when the runner executes inline without spawning threads.
    #[must_use]
    pub(crate) fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// With more than one worker the items are claimed dynamically (an
    /// atomic cursor) so long and short jobs load-balance; the output order
    /// is the input order regardless.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let workers = self.workers.min(items.len());
        let next = std::sync::atomic::AtomicUsize::new(0);

        #[expect(
            clippy::disallowed_methods,
            reason = "the runner is one of the two sanctioned thread owners; results are collected by input index"
        )]
        let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            // ordering: Relaxed suffices — the cursor only
                            // hands out distinct indices (fetch_add is atomic
                            // at every ordering); results are published
                            // through each worker's join, not through this
                            // counter.
                            let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(item) = items.get(index) else {
                                break done;
                            };
                            done.push((index, f(item)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        indexed.sort_unstable_by_key(|&(index, _)| index);
        indexed.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs every job, returning reports in job order: the reports
    /// [`SimJob::run`] returns.
    ///
    /// Every job is [validated](SimJob::validate) up front, so a
    /// mis-configured cell fails the whole batch *before* any simulation
    /// wall-clock is spent.  Each job generates its references inline
    /// ([`WorkloadSpec::stream_inline`]): the workers already keep the
    /// CPUs busy, and a serial runner stays one thread.
    ///
    /// # Errors
    ///
    /// Returns the first (in job order) construction error, if any.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Result<Vec<SimReport>, ConfigError> {
        for job in jobs {
            job.validate()?;
        }
        self.map(jobs, |job| {
            job.run_on(job.workload.stream_inline(job.system.num_cores, job.seed)?)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;

    fn quick_job() -> SimJob {
        SimJob {
            system: SystemConfig::shared_l2(4),
            spec: DirectorySpec::cuckoo(4, 1.0),
            workload: ccd_workloads::WorkloadProfile::apache().into(),
            seed: 7,
            warmup_refs: 5_000,
            measure_refs: 5_000,
        }
    }

    #[test]
    fn map_preserves_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 7, 64] {
            let runner = ParallelRunner::with_workers(workers);
            assert_eq!(
                runner.map(&items, |&x| x * 3),
                expected,
                "{workers} workers"
            );
        }
        assert!(ParallelRunner::serial().is_serial());
        assert!(ParallelRunner::serial()
            .map(&Vec::<u64>::new(), |&x| x)
            .is_empty());
    }

    #[test]
    fn jobs_produce_identical_reports_serially_and_in_parallel() {
        let jobs: Vec<SimJob> = (0..4)
            .map(|seed| SimJob {
                seed,
                ..quick_job()
            })
            .collect();
        let serial = ParallelRunner::serial().run_jobs(&jobs).unwrap();
        let parallel = ParallelRunner::with_workers(4).run_jobs(&jobs).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.refs_processed, p.refs_processed);
            assert_eq!(s.cache_misses, p.cache_misses);
            assert_eq!(s.directory.insertions.get(), p.directory.insertions.get());
            assert!((s.avg_directory_occupancy - p.avg_directory_occupancy).abs() == 0.0);
        }
    }

    #[test]
    fn job_run_ahead_equals_run_jobs_inline_report_for_report() {
        let jobs: Vec<SimJob> = ["oracle", "migratory", "stream-b1024"]
            .into_iter()
            .enumerate()
            .map(|(seed, workload)| SimJob {
                workload: workload.parse().unwrap(),
                seed: seed as u64,
                ..quick_job()
            })
            .collect();
        let inline = ParallelRunner::with_workers(2).run_jobs(&jobs).unwrap();
        let ahead: Vec<SimReport> = jobs.iter().map(|job| job.run().unwrap()).collect();
        assert_eq!(ahead, inline);
    }

    #[test]
    fn from_env_rejects_invalid_worker_counts() {
        // The only test in this binary touching CCD_WORKERS, so the env
        // mutation cannot race with a concurrent reader.
        let restore = std::env::var("CCD_WORKERS").ok();
        std::env::remove_var("CCD_WORKERS");
        assert!(ParallelRunner::from_env().is_ok());
        std::env::set_var("CCD_WORKERS", "3");
        assert_eq!(ParallelRunner::from_env().unwrap().workers(), 3);
        std::env::set_var("CCD_WORKERS", " 1 ");
        assert!(ParallelRunner::from_env().unwrap().is_serial());
        for bad in ["0", "-2", "many", "1.5"] {
            std::env::set_var("CCD_WORKERS", bad);
            let err = ParallelRunner::from_env().unwrap_err().to_string();
            assert!(err.contains("CCD_WORKERS"), "{err}");
            assert!(
                err.contains(&format!("`{bad}`")),
                "must quote the token: {err}"
            );
        }
        match restore {
            Some(value) => std::env::set_var("CCD_WORKERS", value),
            None => std::env::remove_var("CCD_WORKERS"),
        }
    }

    #[test]
    fn bad_jobs_surface_their_config_errors() {
        let mut job = quick_job();
        job.system = SystemConfig::shared_l2(3); // not a power of two
        assert!(ParallelRunner::new().run_jobs(&[job.clone()]).is_err());

        // Workload errors are caught by up-front validation too.
        let mut job = quick_job();
        job.workload = WorkloadSpec::replay("/definitely/not/a/trace.ccdt");
        assert!(job.validate().is_err());
        assert!(ParallelRunner::new().run_jobs(&[job]).is_err());
        let mut job = quick_job();
        job.workload = "migratory-16c".parse().unwrap(); // pins 16, system has 4
        assert!(job.validate().is_err());
    }

    #[test]
    fn scenario_workloads_drive_jobs_like_profiles() {
        let mut job = quick_job();
        job.workload = "falseshare-b32".parse().unwrap();
        let report = job.run().unwrap();
        assert_eq!(report.refs_processed, job.measure_refs);
        assert!(
            report.coherence_invalidations > 0,
            "false sharing must invalidate"
        );
        // Scenario jobs are deterministic values like any other.
        let again = job.run().unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn private_l2_jobs_run_too() {
        let mut job = quick_job();
        job.system = SystemConfig {
            num_cores: 4,
            ..SystemConfig::shared_l2(4)
        }
        .with_hierarchy(Hierarchy::PrivateL2);
        let report = job.run().unwrap();
        assert_eq!(report.refs_processed, job.measure_refs);
    }
}
