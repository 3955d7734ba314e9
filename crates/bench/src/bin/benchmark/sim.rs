//! `sim_mix`: three simulator jobs (oracle, apache, ocean) on the Table-1
//! Shared-L2 system with the paper's 4-way 1x cuckoo directory, run one
//! after the other with trace generation inline — what every figure binary
//! does through `ParallelRunner::run_jobs`, made here step by step through
//! `CmpSimulator::run_workload` so the benchmark's timestamping iterator
//! can sit between generator and simulator.  Time splits across the
//! workload generators, the tile caches and a directory at the paper's
//! operating point of about half occupancy; the service does nothing.

use crate::layers;
use crate::metrics::Values;
use crate::summary;
use crate::trace::{self, Interval, Segmented, Stamped, Tracer};
use crate::workload::{Scale, Semantics, Workload, OPERATING_OCCUPANCY};
use ccd_coherence::engine::TileCaches;
use ccd_coherence::{
    CmpSimulator, DirectorySpec, Hierarchy, ParallelRunner, SimJob, SimReport, SystemConfig,
};
use ccd_common::stats::Fnv64;
use ccd_common::MemRef;
use ccd_directory::DirectoryStats;
use ccd_workloads::{derive_seed, WorkloadSpec};
use std::time::{Duration, Instant};

/// The catalog workloads of the three jobs: one commercial OLTP profile,
/// one web server, one scientific kernel.
const PROFILES: [&str; 3] = ["oracle", "apache", "ocean"];
/// References per job: the figure binaries' default scale on this system
/// (`RunScale::default_scale`: 16 warm-up and 8 measured references per
/// tracked cache frame, 32 Ki frames).  No longer on purpose: the
/// clean-time estimate needs every segment to run undisturbed in at least
/// one trial, and steadies with the number of trials, not their length.
const WARMUP_REFS: usize = 524_288;
const MEASURE_REFS: usize = 262_144;
/// Timed trials of a full-length run (see `Workload::planned_trials`).
const PLANNED_TRIALS: usize = 18;
const TRACE_STAGES: u32 = 6;
const MIN_TRIALS: usize = 3;

pub struct SimMix {
    warmup_refs: u64,
    measure_refs: u64,
}

pub fn sim_mix(scale: Scale) -> SimMix {
    SimMix {
        // The warm-up is what brings the caches and the directory to their
        // operating point, so `--quick` only quarters it (to the figure
        // binaries' quick scale of 4 references per tracked frame).
        warmup_refs: if scale.is_quick() {
            WARMUP_REFS as u64 / 4
        } else {
            WARMUP_REFS as u64
        },
        measure_refs: scale.of(MEASURE_REFS) as u64,
    }
}

fn fold_report(digest: &mut Fnv64, report: &SimReport) {
    let dir = &report.directory;
    digest
        .fold(report.refs_processed)
        .fold(report.avg_directory_occupancy.to_bits())
        .fold(report.cache_accesses)
        .fold(report.cache_misses)
        .fold(report.coherence_invalidations)
        .fold(report.forced_invalidations)
        .fold(dir.lookups.get())
        .fold(dir.insertions.get())
        .fold(dir.sharer_adds.get())
        .fold(dir.sharer_removes.get())
        .fold(dir.entry_removes.get())
        .fold(dir.invalidate_alls.get())
        .fold(dir.forced_evictions.get());
}

impl SimMix {
    fn refs_per_job(&self) -> u64 {
        self.warmup_refs + self.measure_refs
    }

    fn semantics_of(&self, reports: &[SimReport]) -> Semantics {
        let mut dir = DirectoryStats::new();
        let mut digest = Fnv64::new();
        for report in reports {
            dir.merge(&report.directory);
            fold_report(&mut digest, report);
        }
        // The guard must hold for every job, so keep the occupancy that
        // strays farthest from half full.
        let occupancy = reports
            .iter()
            .map(|r| r.avg_directory_occupancy)
            .max_by(|a, b| (a - 0.5).abs().total_cmp(&(b - 0.5).abs()))
            .unwrap_or(0.0);
        Semantics {
            ops: reports
                .iter()
                .map(|r| self.warmup_refs + r.refs_processed)
                .sum(),
            // A report does not say how many entries were left resident.
            entries: 0,
            dir,
            forced_invalidations: reports.iter().map(|r| r.forced_invalidations).sum(),
            occupancy,
            digest: digest.finish(),
        }
    }

    /// One job as the untraced run times it: what `SimJob::run` does —
    /// build the simulator, open the workload's stream, warm up, reset,
    /// measure, report — with the stream pulled through the timestamping
    /// iterator, so generation stays inline and the call can be cut into
    /// the build, each 4096 references, and the report.
    fn stamped_job(&self, job: &SimJob) -> (Segmented, SimReport) {
        let refs = self.refs_per_job() as usize;
        let (interval, (stamps, report)) = Interval::time(|| {
            let stream = job
                .workload
                .stream(job.system.num_cores, job.seed)
                .expect("the job validated");
            let mut stamped = Stamped::new(stream, refs);
            let report = CmpSimulator::run_workload(
                job.system.clone(),
                &job.spec,
                &mut stamped,
                job.warmup_refs,
                job.measure_refs,
            )
            .expect("the job validated");
            (stamped.into_stamps(), report)
        });
        (Segmented::cut(interval, &stamps), report)
    }

    /// The references `job` consumes, generated up front.
    fn refs_of(&self, job: &SimJob) -> Vec<MemRef> {
        job.workload
            .stream(job.system.num_cores, job.seed)
            .expect("the job validated")
            .take(self.refs_per_job() as usize)
            .collect()
    }

    /// `job` replayed from pre-generated references through the
    /// simulator's public steps: build, warm up, reset, measure, report.
    fn replay(
        &self,
        job: &SimJob,
        refs: impl Iterator<Item = MemRef>,
    ) -> (Interval, Interval, Interval, SimReport) {
        let mut refs = refs;
        let (build, mut sim) = Interval::time(|| {
            CmpSimulator::new(job.system.clone(), &job.spec).expect("the job validated")
        });
        let (run, ()) = Interval::time(|| {
            sim.run(&mut refs, job.warmup_refs);
            sim.reset_stats();
            sim.run(&mut refs, job.measure_refs);
        });
        let (report_time, report) = Interval::time(|| sim.report());
        (build, run, report_time, report)
    }
}

impl Workload for SimMix {
    type Inputs = Vec<SimJob>;

    fn name(&self) -> &'static str {
        "sim_mix"
    }

    fn ops(&self) -> u64 {
        self.refs_per_job() * PROFILES.len() as u64
    }

    fn planned_trials(&self) -> usize {
        PLANNED_TRIALS
    }

    fn describe(&self) -> String {
        format!(
            "call=CmpSimulator::run_workload(WorkloadSpec::stream) per job \
             system=table1(SharedL2) directory=cuckoo(4, 1.0) jobs={} warmup_refs={} \
             measure_refs={} generation=inline",
            PROFILES.join(","),
            self.warmup_refs,
            self.measure_refs
        )
    }

    fn prepare(&self, seed: u64) -> Vec<SimJob> {
        PROFILES
            .iter()
            .enumerate()
            .map(|(index, profile)| SimJob {
                system: SystemConfig::table1(Hierarchy::SharedL2),
                spec: DirectorySpec::cuckoo(4, 1.0),
                workload: profile
                    .parse::<WorkloadSpec>()
                    .expect("a catalog profile parses"),
                seed: derive_seed(seed, index as u64),
                warmup_refs: self.warmup_refs,
                measure_refs: self.measure_refs,
            })
            .collect()
    }

    fn trial(&self, jobs: &Vec<SimJob>) -> (Segmented, Semantics) {
        let mut timed: Option<Segmented> = None;
        let mut reports = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (segmented, report) = self.stamped_job(job);
            timed = Some(match timed {
                Some(earlier) => earlier.then(segmented),
                None => segmented,
            });
            reports.push(report);
        }
        (
            timed.expect("the mix has jobs"),
            self.semantics_of(&reports),
        )
    }

    fn check(&self, jobs: &Vec<SimJob>, reference: &Semantics) -> Result<Vec<String>, String> {
        let mut passed = Vec::new();
        if reference.ops != self.ops() {
            return Err(format!(
                "the jobs processed {} of {} references",
                reference.ops,
                self.ops()
            ));
        }
        // The correctness reference: the first job replayed from a
        // recorded reference vector must report what the job, generating
        // inline, reported.
        let job = &jobs[0];
        let inline = job.run().map_err(|err| err.to_string())?;
        let (.., replayed) = self.replay(job, self.refs_of(job).into_iter());
        if replayed != inline {
            return Err(format!(
                "job {} replayed from recorded references reports\n{replayed:?}\nbut inline \
                 generation reports\n{inline:?}",
                PROFILES[0]
            ));
        }
        passed.push(format!(
            "{} replayed from recorded references matches inline generation",
            PROFILES[0]
        ));
        if !OPERATING_OCCUPANCY.contains(&reference.occupancy) {
            return Err(format!(
                "a job's average occupancy {:.3} is outside the operating point \
                 {OPERATING_OCCUPANCY:?}",
                reference.occupancy
            ));
        }
        passed.push(format!(
            "operating point: every job within {OPERATING_OCCUPANCY:?}, farthest {:.3}",
            reference.occupancy
        ));
        Ok(passed)
    }

    fn trace(
        &self,
        _seed: u64,
        jobs: &Vec<SimJob>,
        tracer: &mut Tracer,
        seconds: Duration,
        values: &mut Values,
    ) -> Result<(), String> {
        let budget = seconds / TRACE_STAGES;
        let total = self.ops();
        let reports = ParallelRunner::serial()
            .run_jobs(jobs)
            .map_err(|err| err.to_string())?;
        let reference = self.semantics_of(&reports);

        // Five stages, interleaved round by round so drift of the host
        // hits all alike: the jobs through `ParallelRunner::run_jobs`, as
        // the figure binaries run them; the primary call as the untraced
        // run makes it, each job under its own span; generation alone; the
        // tile caches alone over the recorded references, no directory
        // behind them; the simulator over the recorded references.
        let mut mismatch = None;
        let mut job_spans = Vec::new();
        let mut recorded: Vec<Vec<MemRef>> = Vec::new();
        let (mut builds, mut report_times) = (Vec::new(), Vec::new());
        let mut chunks = Vec::new();
        let [plain, stamped, gen, tiles, run] = tracer.rounds(
            [
                "ParallelRunner::run_jobs",
                "CmpSimulator::run_workload(stamped)",
                "WorkloadSpec::stream",
                "TileCaches::access",
                "CmpSimulator::run",
            ],
            total,
            budget * 5,
            MIN_TRIALS,
            false,
            |variant| match variant {
                0 => {
                    let (interval, result) =
                        Interval::time(|| ParallelRunner::serial().run_jobs(jobs));
                    if result.ok().as_ref() != Some(&reports) {
                        mismatch = Some("run_jobs reported something else the second time");
                    }
                    interval
                }
                1 => {
                    let start = Instant::now();
                    for (index, job) in jobs.iter().enumerate() {
                        let (timed, report) = self.stamped_job(job);
                        job_spans.push((index as u32, timed.interval));
                        chunks.extend(timed.chunk_ns_per_op());
                        if report != reports[index] {
                            mismatch =
                                Some("the stamped job reports something other than run_jobs");
                        }
                    }
                    Interval {
                        start,
                        end: Instant::now(),
                    }
                }
                2 => {
                    recorded.clear();
                    Interval::time(|| {
                        for job in jobs {
                            recorded.push(self.refs_of(job));
                        }
                    })
                    .0
                }
                3 => {
                    let mut caches: Vec<TileCaches> = jobs
                        .iter()
                        .map(|job| TileCaches::new(&job.system).expect("the job validated"))
                        .collect();
                    Interval::time(|| {
                        for ((job, refs), tiles) in jobs.iter().zip(&recorded).zip(&mut caches) {
                            for r in refs {
                                let cache = tiles.cache_for(r.core, r.kind);
                                let line = job.system.block.line_of(r.addr);
                                std::hint::black_box(tiles.access(cache, line, r.kind.is_write()));
                            }
                        }
                    })
                    .0
                }
                _ => {
                    // The stage's interval is the time inside `run` alone;
                    // build and report are timed beside it.
                    let (mut build_s, mut run_s, mut report_s) = (0.0, 0.0, 0.0);
                    let start = Instant::now();
                    for (index, job) in jobs.iter().enumerate() {
                        let (build, run, report_time, report) =
                            self.replay(job, recorded[index].iter().copied());
                        build_s += build.seconds();
                        run_s += run.seconds();
                        report_s += report_time.seconds();
                        if report != reports[index] {
                            mismatch = Some("replaying recorded references reports something else");
                        }
                    }
                    builds.push(build_s);
                    report_times.push(report_s * 1e9 / jobs.len() as f64);
                    Interval {
                        start,
                        end: start + Duration::from_secs_f64(run_s),
                    }
                }
            },
        );
        for (index, interval) in job_spans {
            tracer.record("stamped job", None, index, interval, self.refs_per_job());
        }
        values.set("workloads.gen_ns_per_ref", gen.best());
        values.set("tiles.access_ns_per_ref", tiles.best());
        values.set("sim.run_ns_per_ref", run.best());
        values.set("sim.build_s", summary::median(&builds));
        values.set("sim.report_ns", summary::median(&report_times));
        trace::report_chunks(&chunks, values);
        values.set("trace.overhead", stamped.best() / plain.best() - 1.0);
        layers::stats_stage(tracer, budget, values);

        // Counts, from the reports of the primary call.
        let measured = (self.measure_refs * jobs.len() as u64) as f64;
        let dir = &reference.dir;
        let accesses: u64 = reports.iter().map(|r| r.cache_accesses).sum();
        let misses: u64 = reports.iter().map(|r| r.cache_misses).sum();
        let invalidations: u64 = reports.iter().map(|r| r.coherence_invalidations).sum();
        let occupancy: f64 = reports.iter().map(|r| r.avg_directory_occupancy).sum();
        values.set("tiles.miss_ratio", misses as f64 / accesses as f64);
        values.set(
            "sim.dir_ops_per_ref",
            (dir.lookups.get() + dir.sharer_removes.get()) as f64 / measured,
        );
        values.set("sim.occupancy", occupancy / reports.len() as f64);
        values.set(
            "directory.hit_ratio",
            1.0 - dir.insertions.get() as f64 / dir.lookups.get() as f64,
        );
        values.set(
            "directory.alloc_per_kop",
            dir.insertions.get() as f64 * 1000.0 / measured,
        );
        values.set(
            "directory.removal_per_kop",
            dir.entry_removes.get() as f64 * 1000.0 / measured,
        );
        values.set(
            "directory.inval_per_kop",
            invalidations as f64 * 1000.0 / measured,
        );

        // Closure: the primary call against generation, the simulator over
        // recorded references, its build and its report, each timed alone.
        let fixed_ns = (summary::median(&builds) * 1e9
            + summary::median(&report_times) * jobs.len() as f64)
            / total as f64;
        values.set(
            "layers.residual_ns_per_op",
            plain.best() - (gen.best() + run.best() + fixed_ns),
        );

        mismatch.map_or(Ok(()), |what| Err(what.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::run_untraced;

    #[test]
    fn quick_mix_passes_its_checks_and_traces() {
        let workload = sim_mix(Scale::QUICK);
        let outcome = run_untraced(&workload, 8, Duration::ZERO);
        let passed = outcome.checks.expect("all checks pass");
        assert_eq!(passed.len(), 2, "{passed:?}");
        assert_eq!(outcome.attempted % workload.ops(), 0);
        assert_eq!(outcome.values.get("stats_match_ratio"), Some(1.0));

        let jobs = workload.prepare(8);
        assert_ne!(jobs[0].seed, jobs[1].seed, "sub-seeds are derived per job");
        let mut values = Values::new(&PER_LAYER);
        let mut tracer = Tracer::new();
        workload
            .trace(8, &jobs, &mut tracer, Duration::ZERO, &mut values)
            .expect("stages agree");
        let occupancy = values.get("sim.occupancy").unwrap();
        assert!((0.2..0.7).contains(&occupancy), "{occupancy}");
        assert!(values.get("sim.dir_ops_per_ref").unwrap() > 0.0);
        let jobs_spanned = tracer
            .spans()
            .iter()
            .filter(|span| span.name == "stamped job")
            .count();
        assert_eq!(jobs_spanned % 3, 0, "one span per job and trial");
    }
}
