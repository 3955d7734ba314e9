//! The two service workloads: `svc_hit` (a catalog workload whose lines all
//! fit, so the directory mostly hits and the service's own plumbing
//! dominates) and `svc_churn` (the benchmark's churn stream at the paper's
//! operating point, where allocation, displacement and removal do about
//! half the work).  Both time `DirectoryService::run_serial`.

use crate::host::ProcCounters;
use crate::inputs::{self, CHURN_CORES};
use crate::layers;
use crate::metrics::Values;
use crate::shadow;
use crate::summary;
use crate::trace::{self, Interval, Segmented, Stamped, Tracer};
use crate::workload::{Scale, Semantics, Workload, OPERATING_OCCUPANCY};
use ccd_common::stats::Fnv64;
use ccd_common::LineAddr;
use ccd_cuckoo::CuckooConfig;
use ccd_directory::{Directory, DirectoryOp, DirectorySpec, Outcome};
use ccd_service::{
    digest_outcomes, DirectoryService, LoadSpec, OutcomeRecord, ServiceConfig, ServiceReport,
};
use std::time::Duration;

/// Address-interleaved shards of the service under test.
const SHARDS: usize = 4;

/// Requests of the full-size workloads.  The outcome log is 48 bytes a
/// request; much beyond this its page faults swamp everything else.
const REQUESTS: usize = 2_000_000;

/// Leading operations the correctness reference replays.
const CHECKED_PREFIX: usize = 200_000;

/// Stages of the traced build-up that share the run's seconds.
const TRACE_STAGES: u32 = 21;

/// Timed trials each traced stage makes at least.
const MIN_TRIALS: usize = 3;

/// The observability spec `obs.armed_overhead` arms.
const OBS_SPEC: &str = "obs-ring4096-spans";

enum Source {
    /// A `ccd-workloads` catalog workload streamed through `LoadSpec`.
    Catalog(&'static str),
    /// The benchmark's churn generator.
    Churn,
}

/// A service workload: a request source and the directory spec serving it.
pub struct Svc {
    name: &'static str,
    spec: &'static str,
    source: Source,
    requests: usize,
    /// Timed trials of a full-length run (see `Workload::planned_trials`).
    planned_trials: usize,
    /// Whether the workload claims the paper's operating point (and is
    /// held to the occupancy and attempt-distribution guards).
    at_operating_point: bool,
}

/// `svc_hit`: 4096 migratory lines in a 16 Ki-entry directory.
pub fn svc_hit(scale: Scale) -> Svc {
    Svc {
        name: "svc_hit",
        spec: "cuckoo-4x4096-c16",
        source: Source::Catalog("migratory-zipf0.9"),
        requests: scale.of(REQUESTS),
        planned_trials: 50,
        at_operating_point: false,
    }
}

/// `svc_churn`: 16 × 2048 resident lines churning through a 64 Ki-entry
/// directory.
pub fn svc_churn(scale: Scale) -> Svc {
    Svc {
        name: "svc_churn",
        spec: "cuckoo-4x16384-c16",
        source: Source::Churn,
        requests: scale.of(REQUESTS),
        planned_trials: 34,
        at_operating_point: true,
    }
}

fn semantics_of(report: &ServiceReport, capacity: usize) -> Semantics {
    let mut digest = Fnv64::new();
    digest
        .fold(report.outcome_digest)
        .fold(report.stats.requests.get())
        .fold(report.stats.invalidations.get());
    Semantics {
        ops: report.requests,
        entries: report.entries as u64,
        dir: report.stats.directory.clone(),
        forced_invalidations: report.stats.forced_invalidations.get(),
        occupancy: report.entries as f64 / capacity as f64,
        digest: digest.finish(),
    }
}

/// What a counting sink saw over one pass of the request stream.
#[derive(Default)]
struct SinkCounts {
    hits: u64,
    invalidations: u64,
}

impl Svc {
    fn config(&self) -> ServiceConfig {
        ServiceConfig::new(self.spec, SHARDS, 1)
    }

    fn build(&self, config: ServiceConfig) -> DirectoryService {
        DirectoryService::build_standard(config).expect("the workload's own topology builds")
    }

    /// The table behind the spec, as the registry configures it.
    fn table(&self) -> CuckooConfig {
        let spec: DirectorySpec = self.spec.parse().expect("the workload's own spec parses");
        CuckooConfig::new(spec.ways, spec.sets, spec.caches)
    }

    fn capacity(&self) -> usize {
        self.table().capacity()
    }

    fn directory(&self, spec: &str) -> Box<dyn Directory> {
        ccd_cuckoo::standard_registry()
            .build_str(spec)
            .expect("the workload's own spec builds")
    }

    fn sharded_spec(&self) -> String {
        format!("sharded{SHARDS}:{}", self.spec)
    }

    /// One timed `run_serial` of a built `service`, pulling `ops` through the
    /// timestamping iterator: the segments are the service's start-up, each
    /// 4096 requests, and `finish` (log reassembly and digest).
    fn stamped_serial(
        service: DirectoryService,
        ops: &[DirectoryOp],
    ) -> (Segmented, ServiceReport) {
        let mut stamped = Stamped::new(ops.iter().copied(), ops.len());
        let (interval, report) = Interval::time(|| service.run_serial(stamped.by_ref()));
        (Segmented::cut(interval, &stamped.into_stamps()), report)
    }
}

impl Workload for Svc {
    type Inputs = Vec<DirectoryOp>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn ops(&self) -> u64 {
        self.requests as u64
    }

    fn planned_trials(&self) -> usize {
        self.planned_trials
    }

    fn describe(&self) -> String {
        let source = match self.source {
            Source::Catalog(workload) => format!("LoadSpec({workload})"),
            Source::Churn => format!(
                "churn(resident={}, shared_pool={}, private_pool={})",
                inputs::CHURN_RESIDENT,
                inputs::CHURN_SHARED_POOL,
                inputs::CHURN_PRIVATE_POOL
            ),
        };
        format!(
            "call=DirectoryService::run_serial spec={} shards={SHARDS} cores={CHURN_CORES} \
             requests={} source={source}",
            self.spec, self.requests
        )
    }

    fn prepare(&self, seed: u64) -> Vec<DirectoryOp> {
        match self.source {
            Source::Catalog(workload) => {
                LoadSpec::parse(workload, CHURN_CORES, seed, self.requests as u64)
                    .and_then(|load| load.ops())
                    .expect("the catalog workload parses and validates")
                    .collect()
            }
            Source::Churn => inputs::churn_ops(seed, self.requests),
        }
    }

    fn trial(&self, ops: &Vec<DirectoryOp>) -> (Segmented, Semantics) {
        let (timed, report) = Self::stamped_serial(self.build(self.config()), ops);
        (timed, semantics_of(&report, self.capacity()))
    }

    fn check(&self, ops: &Vec<DirectoryOp>, reference: &Semantics) -> Result<Vec<String>, String> {
        let mut passed = Vec::new();
        let prefix = &ops[..ops.len().min(CHECKED_PREFIX)];
        let mut dir = self.directory(&self.sharded_spec());
        let model = shadow::check(dir.as_mut(), &[], prefix)?;
        passed.push(format!(
            "shadow model agrees after each of the first {} ops ({} lines tracked)",
            model.ops, model.entries
        ));

        let serial = self.build(self.config()).run_serial(prefix.iter().copied());
        let concurrent = self
            .build(self.config())
            .run(prefix.iter().copied())
            .map_err(|err| format!("DirectoryService::run failed on the checked prefix: {err}"))?;
        if serial.entries != model.entries {
            return Err(format!(
                "run_serial tracks {} lines after the checked prefix, the shadow model {}",
                serial.entries, model.entries
            ));
        }
        if concurrent.semantics() != serial.semantics() {
            let at = concurrent
                .outcomes
                .iter()
                .zip(&serial.outcomes)
                .position(|(a, b)| a != b);
            return Err(format!(
                "DirectoryService::run differs from run_serial, first at op {at:?}"
            ));
        }
        passed.push("run (1 worker) and run_serial agree on semantics()".to_string());

        if reference.ops != self.ops() {
            return Err(format!(
                "run_serial applied {} of {} requests",
                reference.ops,
                self.ops()
            ));
        }
        if self.at_operating_point {
            if !OPERATING_OCCUPANCY.contains(&reference.occupancy) {
                return Err(format!(
                    "final occupancy {:.3} is outside the operating point {OPERATING_OCCUPANCY:?}",
                    reference.occupancy
                ));
            }
            if reference.attempt_buckets() < 2 {
                return Err("every insertion took the same number of attempts".to_string());
            }
            passed.push(format!(
                "operating point: occupancy {:.3}, {} attempt buckets in use",
                reference.occupancy,
                reference.attempt_buckets()
            ));
        }
        Ok(passed)
    }

    fn trace(
        &self,
        seed: u64,
        ops: &Vec<DirectoryOp>,
        tracer: &mut Tracer,
        seconds: Duration,
        values: &mut Values,
    ) -> Result<(), String> {
        let budget = seconds / TRACE_STAGES;
        let count = ops.len() as u64;
        let table = self.table();

        // What every service-level stage below must reproduce.
        let reference = self.build(self.config()).run_serial(ops.iter().copied());

        // Above the service: the catalog's generator, where one is used.
        if matches!(self.source, Source::Catalog(_)) {
            let gen = tracer.stage("LoadSpec::ops", count, budget, MIN_TRIALS, true, || {
                Interval::time(|| self.prepare(seed)).0
            });
            values.set("workloads.gen_ns_per_ref", gen.best());
        }

        // Below the directory: hashes, bare table, sharer vectors.
        let lines: Vec<LineAddr> = ops.iter().map(DirectoryOp::line).collect();
        layers::hash_stage(tracer, budget, &table, &lines, values);
        drop(lines);
        let resident = layers::distinct_lines(ops, reference.entries.max(1));
        layers::cuckoo_stages(tracer, budget, &table, &resident, seed, values);
        layers::sharers_stage(tracer, budget, table.num_caches, ops, values);

        // The directory, four ways, interleaved: one slice batched and one
        // op at a time, then sharded, then sharded with what the service
        // adds emulated from outside — every outcome captured into a
        // growing log.
        let sharded_spec = self.sharded_spec();
        let mut builds = Vec::new();
        let mut out = Outcome::new();
        let mut counts = SinkCounts::default();
        let mut log_len = 0;
        let [batch, single, sharded, captured] = tracer.rounds(
            [
                "directory.apply_batch",
                "directory.apply",
                "directory.apply_batch(sharded)",
                "directory.apply_batch(sharded)+capture",
            ],
            count,
            budget * 4,
            MIN_TRIALS,
            true,
            |variant| {
                let spec = if variant < 2 {
                    self.spec
                } else {
                    &sharded_spec
                };
                let (build, mut dir) = Interval::time(|| self.directory(spec));
                let (interval, ()) = match variant {
                    0 => {
                        builds.push(build.seconds());
                        Interval::time(|| dir.apply_batch(ops, &mut out, &mut |_, _| {}))
                    }
                    1 => Interval::time(|| {
                        for op in ops {
                            dir.apply(*op, &mut out);
                        }
                    }),
                    2 => Interval::time(|| dir.apply_batch(ops, &mut out, &mut |_, _| {})),
                    _ => {
                        let mut log: Vec<OutcomeRecord> = Vec::new();
                        counts = SinkCounts::default();
                        let timed = Interval::time(|| {
                            dir.apply_batch(ops, &mut out, &mut |_, out| {
                                counts.hits += u64::from(out.hit());
                                counts.invalidations += out.invalidate().len() as u64;
                                log.push(OutcomeRecord::capture(log.len() as u64, 0, out));
                            });
                        });
                        log_len = log.len();
                        timed
                    }
                };
                interval
            },
        );
        values.set("directory.apply_batch_ns_per_op", batch.best());
        values.set("directory.apply_ns_per_op", single.best());
        values.set("directory.sharded_apply_ns_per_op", sharded.best());
        values.set("directory.build_s", summary::median(&builds));
        if log_len != ops.len() {
            return Err(format!("the sink saw {log_len} of {} ops", ops.len()));
        }
        let per_kop = |n: u64| n as f64 * 1000.0 / count as f64;
        let dir_stats = &reference.stats.directory;
        values.set("directory.hit_ratio", counts.hits as f64 / count as f64);
        values.set(
            "directory.alloc_per_kop",
            per_kop(dir_stats.insertions.get()),
        );
        values.set(
            "directory.removal_per_kop",
            per_kop(dir_stats.entry_removes.get()),
        );
        values.set("directory.inval_per_kop", per_kop(counts.invalidations));
        if counts.invalidations != reference.stats.invalidations.get() {
            return Err(format!(
                "the sharded directory invalidated {} copies, the service {}",
                counts.invalidations,
                reference.stats.invalidations.get()
            ));
        }

        // The service, five ways, interleaved so drift hits all alike:
        // `run_serial` over the plain slice iterator; without its outcome
        // log; the primary call as the untraced run makes it, pulling the
        // requests through the timestamping iterator; with the
        // observability layer armed; and through the concurrent path at
        // one worker (router thread + worker thread).
        let armed_config = self
            .config()
            .with_obs_spec(OBS_SPEC)
            .expect("the benchmark's own obs spec parses");
        let mut service_builds = Vec::new();
        let (mut chunks, mut faults, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
        let mut mismatch = None;
        let [plain, noout, staged, armed, concurrent] = tracer.rounds(
            [
                "service.run_serial",
                "service.run_serial(no outcomes)",
                "service.run_serial(stamped)",
                "service.run_serial(armed)",
                "service.run(1 worker)",
            ],
            count,
            budget * 5,
            MIN_TRIALS,
            true,
            |variant| {
                let config = match variant {
                    1 => self.config().with_outcomes(false),
                    3 => armed_config.clone(),
                    _ => self.config(),
                };
                let (build, service) = Interval::time(|| self.build(config));
                service_builds.push(build.seconds());
                let before = ProcCounters::read();
                let (interval, report) = match variant {
                    2 => {
                        let (timed, report) = Self::stamped_serial(service, ops);
                        chunks.extend(timed.chunk_ns_per_op());
                        (timed.interval, report)
                    }
                    4 => {
                        let (interval, report) =
                            Interval::time(|| service.run(ops.iter().copied()));
                        let used = ProcCounters::read().since(&before);
                        cpu.push(used.cpu_seconds * 1e9 / count as f64);
                        match report {
                            Ok(report) => (interval, report),
                            Err(_) => {
                                mismatch = Some("run (1 worker) lost a worker");
                                return interval;
                            }
                        }
                    }
                    _ => Interval::time(|| service.run_serial(ops.iter().copied())),
                };
                if variant == 0 {
                    faults.push(ProcCounters::read().since(&before).minor_faults as f64);
                }
                // Without its log a report has nothing to compare but
                // counters; every other variant must match in full.
                let same = if variant == 1 {
                    report.stats == reference.stats && report.entries == reference.entries
                } else {
                    report.semantics() == reference.semantics()
                };
                if !same {
                    mismatch = Some("a service variant computed something other than run_serial");
                }
                interval
            },
        );
        values.set("service.serial_ns_per_op", plain.best());
        values.set("service.serial_noout_ns_per_op", noout.best());
        values.set("service.build_s", summary::median(&service_builds));
        values.set("service.route_ns_per_op", noout.best() - sharded.best());
        values.set("service.outcome_log_ns_per_op", plain.best() - noout.best());
        values.set(
            "service.minor_faults_per_kop",
            summary::median(&faults) * 1000.0 / count as f64,
        );
        values.set(
            "service.log_bytes_per_op",
            std::mem::size_of::<OutcomeRecord>() as f64,
        );
        trace::report_chunks(&chunks, values);
        values.set("trace.overhead", staged.best() / plain.best() - 1.0);
        values.set("obs.armed_overhead", armed.best() / plain.best() - 1.0);
        values.set("service.run_w1_ns_per_op", concurrent.best());
        values.set("service.run_w1_cpu_ns_per_op", summary::median(&cpu));
        values.set("service.hop_ns_per_op", concurrent.best() - plain.best());
        values.set(
            "service.run_w1_spread",
            summary::quartiles(&concurrent.ns_per_op).spread(),
        );

        let records = reference.outcomes.len() as u64;
        let digest = tracer.stage(
            "service.digest_outcomes",
            records,
            budget,
            MIN_TRIALS,
            true,
            || {
                let (interval, digest) = Interval::time(|| digest_outcomes(&reference.outcomes));
                if digest != reference.outcome_digest {
                    mismatch = Some("digest_outcomes disagrees with the report's digest");
                }
                interval
            },
        );
        values.set("service.digest_ns_per_record", digest.best());
        // Closure: the primary call against the independently timed parts
        // — sharded directory, routing, outcome capture, digest.
        let parts = sharded.best()
            + (noout.best() - sharded.best())
            + (captured.best() - sharded.best())
            + digest.best();
        values.set("layers.residual_ns_per_op", plain.best() - parts);

        layers::channel_stage(tracer, budget, values);
        layers::stats_stage(tracer, budget, values);

        mismatch.map_or(Ok(()), |what| Err(what.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::run_untraced;

    #[test]
    fn quick_churn_runs_checks_and_closes_its_layer_table() {
        let workload = svc_churn(Scale::QUICK);
        let outcome = run_untraced(&workload, 4, Duration::ZERO);
        let passed = outcome.checks.expect("all checks pass");
        assert_eq!(passed.len(), 3, "{passed:?}");
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.values.get("ok_ratio"), Some(1.0));
        assert_eq!(outcome.values.get("stats_match_ratio"), Some(1.0));
        assert!(outcome.values.get("avg_insert_attempts").unwrap() > 1.0);
        assert_ne!(
            outcome.digest,
            run_untraced(&workload, 5, Duration::ZERO).digest
        );

        let ops = workload.prepare(4);
        let mut values = Values::new(&PER_LAYER);
        let mut tracer = Tracer::new();
        workload
            .trace(4, &ops, &mut tracer, Duration::ZERO, &mut values)
            .expect("stages agree");
        // Marginal-cost arithmetic: the differences the table reports are
        // the differences of the stages it reports.
        let get = |name: &str| values.get(name).unwrap();
        let route =
            get("service.serial_noout_ns_per_op") - get("directory.sharded_apply_ns_per_op");
        assert!((get("service.route_ns_per_op") - route).abs() < 1e-9);
        let hop = get("service.run_w1_ns_per_op") - get("service.serial_ns_per_op");
        assert!((get("service.hop_ns_per_op") - hop).abs() < 1e-9);
        assert_eq!(get("service.log_bytes_per_op"), 48.0);
        assert!(get("directory.alloc_per_kop") > 300.0);
        assert!(
            tracer.spans().len() > 3 * 17,
            "a stage span plus trials per stage"
        );
    }
}
