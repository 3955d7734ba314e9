//! Declarative parameter sweeps.
//!
//! The paper's headline results are all sweeps over the same four axes —
//! directory organization × system configuration × workload × seed — and
//! every figure used to hand-roll its own loop over them.
//! [`SweepSpec`] expresses the sweep as *data*: the cross product of the
//! axes becomes a list of pure [`SimJob`]s, the
//! [`ParallelRunner`] fans them across
//! worker threads, and the results come back as [`SweepCell`]s tagged with
//! their axis labels, in axis order, regardless of scheduling.
//!
//! Determinism: every cell's trace seed is a pure function of
//! `(base_seed, system, workload, seed-axis value)` — independent of the
//! organization axis, so competing organizations are compared on
//! *identical* traces — and the runner collects results by input index, so
//! `CCD_WORKERS=1` (serial) and any parallel worker count produce
//! byte-identical outputs.
//!
//! ```no_run
//! use ccd_bench::{ParallelRunner, RunScale, SweepSpec};
//! use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
//! use ccd_workloads::WorkloadProfile;
//!
//! let results = SweepSpec::new("example")
//!     .system("Shared-L2", SystemConfig::table1(Hierarchy::SharedL2))
//!     .org("Cuckoo 1x", DirectorySpec::cuckoo(4, 1.0))
//!     .org("Sparse 2x", DirectorySpec::sparse(8, 2.0))
//!     .workloads(WorkloadProfile::all_paper_workloads())
//!     .scale(RunScale::quick())
//!     .run_with(&ParallelRunner::new())
//!     .expect("valid sweep");
//! let cuckoo_rate = results
//!     .mean_where(|c| c.org == "Cuckoo 1x", |r| r.forced_invalidation_rate())
//!     .expect("the label is on the organization axis");
//! assert!(cuckoo_rate < 0.01);
//! ```

use crate::RunScale;
use ccd_coherence::{DirectorySpec, ParallelRunner, SimJob, SimReport, SystemConfig};
use ccd_common::ConfigError;
use ccd_workloads::{derive_seed, WorkloadSpec};

/// Default [`SweepSpec::base_seed`].
pub const DEFAULT_BASE_SEED: u64 = 0xCCD5;

/// A declarative parameter sweep: the cross product of four axes.
///
/// Axis nesting order (outer → inner) is systems → organizations →
/// workloads → seeds; [`SweepSpec::run_with`] returns one [`SweepCell`]
/// per point, in that order.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Title used in banners and error messages.
    pub title: String,
    /// Labelled system configurations.
    pub systems: Vec<(String, SystemConfig)>,
    /// Labelled directory organizations.
    pub orgs: Vec<(String, DirectorySpec)>,
    /// Workloads — paper profiles, scenario specs, or trace replays —
    /// labelled by their own [`WorkloadSpec::label`]s.
    pub workloads: Vec<WorkloadSpec>,
    /// Seed-axis values (replicas per cell).  Defaults to `[0]`.
    pub seeds: Vec<u64>,
    /// Warm-up/measure scale applied to every point.
    pub scale: RunScale,
    /// Root of the per-cell trace-seed derivation.
    pub base_seed: u64,
}

impl SweepSpec {
    /// An empty sweep with the default scale, one seed (`0`), and the
    /// default base seed.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        SweepSpec {
            title: title.into(),
            systems: Vec::new(),
            orgs: Vec::new(),
            workloads: Vec::new(),
            seeds: vec![0],
            scale: RunScale::default_scale(),
            base_seed: DEFAULT_BASE_SEED,
        }
    }

    /// Adds one labelled system configuration.
    #[must_use]
    pub fn system(mut self, label: impl Into<String>, config: SystemConfig) -> Self {
        self.systems.push((label.into(), config));
        self
    }

    /// Adds one labelled directory organization.
    #[must_use]
    pub fn org(mut self, label: impl Into<String>, spec: DirectorySpec) -> Self {
        self.orgs.push((label.into(), spec));
        self
    }

    /// Adds one workload: a
    /// [`WorkloadProfile`](ccd_workloads::WorkloadProfile), a parsed
    /// [`ScenarioSpec`](ccd_workloads::ScenarioSpec), or any
    /// [`WorkloadSpec`].
    #[must_use]
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Self {
        self.workloads.push(workload.into());
        self
    }

    /// Adds many workloads (see [`SweepSpec::workload`]).
    #[must_use]
    pub fn workloads<W: Into<WorkloadSpec>>(
        mut self,
        workloads: impl IntoIterator<Item = W>,
    ) -> Self {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Adds one workload parsed from a spec string (paper profile name,
    /// scenario spec, or `replay:<path>`; see
    /// [`WorkloadSpec`]).
    ///
    /// # Errors
    ///
    /// The parse error, naming the offending input.
    pub fn workload_str(self, spec: &str) -> Result<Self, ConfigError> {
        Ok(self.workload(spec.parse::<WorkloadSpec>()?))
    }

    /// Replaces the seed axis (replicas per cell).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the warm-up/measure scale.
    #[must_use]
    pub fn scale(mut self, scale: RunScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the root of the trace-seed derivation.
    #[must_use]
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of points in the cross product.
    #[must_use]
    pub fn len(&self) -> usize {
        self.systems.len() * self.orgs.len() * self.workloads.len() * self.seeds.len()
    }

    /// `true` when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace seed of the cell at the given axis coordinates — a pure
    /// function of the spec's `base_seed`, the system, the workload and the
    /// seed-axis value.  Deliberately **independent of the organization
    /// axis**: a trace is a property of the workload, not of the directory
    /// under test, so every organization at the same (system, workload,
    /// seed) point replays the *identical* trace and cross-organization
    /// comparisons (Figures 9 and 12, the hash study) stay trace-paired.
    #[must_use]
    pub fn trace_seed(&self, system: usize, workload: usize, seed: u64) -> u64 {
        let key = ((system as u64) << 42) | workload as u64;
        derive_seed(derive_seed(self.base_seed, key), seed)
    }

    /// Expands the cross product into `(labels, job)` pairs in axis order.
    #[must_use]
    pub fn jobs(&self) -> Vec<(CellKey, SimJob)> {
        let mut jobs = Vec::with_capacity(self.len());
        for (si, (system_label, system)) in self.systems.iter().enumerate() {
            let warmup_refs = self.scale.warmup_refs(system);
            let measure_refs = self.scale.measure_refs(system);
            for (org_label, spec) in &self.orgs {
                for (wi, workload) in self.workloads.iter().enumerate() {
                    for &seed in &self.seeds {
                        let key = CellKey {
                            system: system_label.clone(),
                            org: org_label.clone(),
                            workload: workload.label(),
                            seed,
                        };
                        let job = SimJob {
                            system: system.clone(),
                            spec: spec.clone(),
                            workload: workload.clone(),
                            seed: self.trace_seed(si, wi, seed),
                            warmup_refs,
                            measure_refs,
                        };
                        jobs.push((key, job));
                    }
                }
            }
        }
        jobs
    }

    /// Runs the sweep on `runner` (a serial runner, `CCD_WORKERS=1`, and
    /// any worker count return identical results).
    ///
    /// # Errors
    ///
    /// Returns the first (in axis order) configuration error, if any.
    pub fn run_with(&self, runner: &ParallelRunner) -> Result<SweepResults, ConfigError> {
        let (keys, jobs): (Vec<CellKey>, Vec<SimJob>) = self.jobs().into_iter().unzip();
        let reports = runner.run_jobs(&jobs)?;
        let cells = keys
            .into_iter()
            .zip(jobs)
            .zip(reports)
            .map(|((key, job), report)| SweepCell {
                system: key.system,
                org: key.org,
                workload: key.workload,
                seed: key.seed,
                trace_seed: job.seed,
                report,
            })
            .collect();
        Ok(SweepResults {
            title: self.title.clone(),
            cells,
        })
    }
}

/// The axis labels of one sweep point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellKey {
    /// System-axis label.
    pub system: String,
    /// Organization-axis label.
    pub org: String,
    /// Workload name.
    pub workload: String,
    /// Seed-axis value.
    pub seed: u64,
}

/// One completed sweep point: its axis labels plus the report.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// System-axis label.
    pub system: String,
    /// Organization-axis label.
    pub org: String,
    /// Workload name.
    pub workload: String,
    /// Seed-axis value.
    pub seed: u64,
    /// The derived trace seed the simulation actually ran with.
    pub trace_seed: u64,
    /// The simulation report.
    pub report: SimReport,
}

/// All cells of one sweep, in axis order.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// The sweep's title.
    pub title: String,
    /// One cell per point, ordered systems → orgs → workloads → seeds.
    pub cells: Vec<SweepCell>,
}

impl SweepResults {
    /// Iterates over the cells matching `predicate`, in axis order.
    pub fn select<'a>(
        &'a self,
        predicate: impl Fn(&SweepCell) -> bool + 'a,
    ) -> impl Iterator<Item = &'a SweepCell> {
        self.cells.iter().filter(move |c| predicate(c))
    }

    /// The first cell matching the three axis labels (any seed), if any.
    #[must_use]
    pub fn find(&self, system: &str, org: &str, workload: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.org == org && c.workload == workload)
    }

    /// Mean of `metric` over the cells matching `predicate`; `None` when
    /// none match — a drifted label must not publish a straight-faced `0`.
    pub fn mean_where(
        &self,
        predicate: impl Fn(&SweepCell) -> bool,
        metric: impl Fn(&SimReport) -> f64,
    ) -> Option<f64> {
        let values: Vec<f64> = self.select(predicate).map(|c| metric(&c.report)).collect();
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The canonical organization-axis label for an explicit `ways x sets`
/// Cuckoo geometry, shared by every experiment that sweeps one (fig9,
/// fig10, fig11) so the labels can never drift apart.
#[must_use]
pub fn cuckoo_org_label(ways: usize, sets: usize) -> String {
    format!("Cuckoo {ways}x{sets}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_workloads::WorkloadProfile;

    fn tiny_sweep() -> SweepSpec {
        SweepSpec::new("tiny")
            .system("Shared-L2", SystemConfig::shared_l2(4))
            .org("Cuckoo 1x", DirectorySpec::cuckoo(4, 1.0))
            .org("Sparse 2x", DirectorySpec::sparse(8, 2.0))
            .workload(WorkloadProfile::apache())
            .workload(WorkloadProfile::ocean())
            .seeds([0, 1])
            .scale(RunScale::quick())
    }

    #[test]
    fn cross_product_is_enumerated_in_axis_order() {
        let sweep = tiny_sweep();
        assert_eq!(sweep.len(), 8); // 1 system x 2 orgs x 2 workloads x 2 seeds
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].0.org, "Cuckoo 1x");
        assert_eq!(jobs[0].0.workload, "Apache");
        assert_eq!(jobs[0].0.seed, 0);
        assert_eq!(jobs[1].0.seed, 1);
        assert_eq!(jobs[2].0.workload, "ocean");
        assert_eq!(jobs[4].0.org, "Sparse 2x");
        // Trace seeds are distinct across (workload, seed) points but
        // *shared* across organizations: competing organizations replay
        // identical traces (trace-paired comparisons), and re-expanding the
        // spec reproduces the same seeds.
        let seeds: std::collections::BTreeSet<u64> = jobs.iter().map(|(_, j)| j.seed).collect();
        assert_eq!(seeds.len(), 4, "2 workloads x 2 seeds");
        for i in 0..4 {
            assert_eq!(
                jobs[i].1.seed,
                jobs[i + 4].1.seed,
                "same (workload, seed) point under the other org"
            );
        }
        assert_eq!(jobs[3].1.seed, sweep.jobs()[3].1.seed);
    }

    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let sweep = tiny_sweep();
        let serial = sweep.run_with(&ParallelRunner::serial()).unwrap();
        let parallel = sweep.run_with(&ParallelRunner::with_workers(8)).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.org, p.org);
            assert_eq!(s.trace_seed, p.trace_seed);
            assert_eq!(s.report.refs_processed, p.report.refs_processed);
            assert_eq!(s.report.cache_misses, p.report.cache_misses);
            assert_eq!(
                s.report.directory.insertion_attempts,
                p.report.directory.insertion_attempts
            );
        }
    }

    #[test]
    fn selection_helpers_respect_axis_labels() {
        let results = tiny_sweep().run_with(&ParallelRunner::new()).unwrap();
        assert_eq!(results.select(|c| c.org == "Cuckoo 1x").count(), 4);
        assert!(results.find("Shared-L2", "Sparse 2x", "ocean").is_some());
        assert!(results.find("Shared-L2", "Sparse 2x", "nope").is_none());
        let rate = results
            .mean_where(|c| c.org == "Cuckoo 1x", |r| r.forced_invalidation_rate())
            .expect("four cells carry the label");
        assert!(rate < 0.05, "{rate}");
        // A drifted label used to answer 0.0, which reads as a perfect
        // forced-invalidation rate; a query that matches nothing has no mean.
        let mislabelled = results.mean_where(|c| c.org == "Cuckoo 1 x", |r| r.cache_miss_rate());
        assert_eq!(mislabelled, None);
    }

    #[test]
    fn scenario_workloads_ride_the_workload_axis() {
        let results = SweepSpec::new("scenarios")
            .system("Shared-L2", SystemConfig::shared_l2(4))
            .org("Cuckoo 1x", DirectorySpec::cuckoo(4, 1.0))
            .workload_str("migratory-b256")
            .unwrap()
            .workload_str("oracle")
            .unwrap()
            .scale(RunScale::quick())
            .run_with(&ParallelRunner::new())
            .unwrap();
        assert_eq!(results.cells.len(), 2);
        let migratory = results
            .find("Shared-L2", "Cuckoo 1x", "migratory-b256")
            .expect("scenario cell labelled by its spec string");
        assert!(migratory.report.refs_processed > 0);
        assert!(results.find("Shared-L2", "Cuckoo 1x", "Oracle").is_some());

        // Parse errors surface before any simulation runs.
        assert!(SweepSpec::new("bad").workload_str("martian-b2").is_err());
    }
}
