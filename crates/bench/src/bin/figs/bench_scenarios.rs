//! Scenario-catalog sweep: every sharing-pattern family × three directory
//! organizations, plus a record→replay fidelity check.
//!
//! The paper's figures exercise the directories under the Table 2 workload
//! stand-ins only; this experiment crosses the five classic sharing-pattern
//! families (read-mostly, producer–consumer, migratory, false sharing,
//! streaming scans — see `ccd_workloads::scenario`) with the Cuckoo,
//! Sparse and Skewed organizations on the Shared-L2 system, with the
//! calibrated Oracle profile as the baseline column.  One cell (Cuckoo ×
//! migratory) is additionally recorded to a `CCDT` trace file and replayed
//! — serially and in parallel — asserting the replayed `SimReport`s are
//! **byte-identical** to the live generation.

use crate::Context;
use ccd_bench::{ParallelRunner, SweepSpec};
use ccd_coherence::{DirectorySpec, Hierarchy, SimJob, SimReport, SystemConfig};
use ccd_common::{json::Json, obj};
use ccd_workloads::{record_trace, WorkloadSpec};

/// The workload axis: the Oracle baseline plus the five scenario families
/// (defaults, with one tuned variant to exercise the knob grammar).
const WORKLOADS: &[&str] = &[
    "oracle",
    "readmostly",
    "prodcons",
    "migratory-zipf0.9",
    "falseshare",
    "stream",
];

/// Records the live stream of one sweep cell and replays it through the
/// same simulation, returning the live report and the replayed reports
/// produced by a serial and a parallel runner.
fn record_replay_check(sweep: &SweepSpec, workload_index: usize) -> (SimReport, Vec<SimReport>) {
    let system = sweep.systems[0].1.clone();
    let spec = sweep.orgs[0].1.clone();
    let workload: WorkloadSpec = WORKLOADS[workload_index].parse().expect("catalog spec");
    let seed = sweep.trace_seed(0, workload_index, sweep.seeds[0]);
    let warmup_refs = sweep.scale.warmup_refs(&system);
    let measure_refs = sweep.scale.measure_refs(&system);

    // Process-unique name: concurrent runs (two scales in two terminals,
    // parallel CI jobs on one runner) must not race on the same file.
    let path = std::env::temp_dir().join(format!(
        "ccd-bench-scenarios-replay-{}.ccdt",
        std::process::id()
    ));
    let stream = workload
        .stream_inline(system.num_cores, seed)
        .expect("catalog workload builds");
    let written = record_trace(
        &path,
        system.num_cores as u32,
        stream,
        warmup_refs + measure_refs,
    )
    .expect("trace records");
    assert_eq!(written, warmup_refs + measure_refs);

    let live = SimJob {
        system,
        spec,
        workload,
        seed,
        warmup_refs,
        measure_refs,
    };
    let replay = SimJob {
        workload: WorkloadSpec::replay(path.to_string_lossy()),
        ..live.clone()
    };

    let live_report = live.run().expect("live job runs");
    let replays: Vec<SimReport> = [ParallelRunner::serial(), ParallelRunner::with_workers(4)]
        .iter()
        .flat_map(|runner| {
            runner
                .run_jobs(std::slice::from_ref(&replay))
                .expect("replay runs")
        })
        .collect();
    std::fs::remove_file(&path).ok();
    (live_report, replays)
}

pub fn run(context: &Context) -> Vec<Json> {
    let mut sweep = SweepSpec::new("Scenario catalog (Shared-L2)")
        .system("Shared-L2", SystemConfig::table1(Hierarchy::SharedL2))
        .org("Cuckoo 1x", DirectorySpec::cuckoo(4, 1.0))
        .org("Sparse 2x", DirectorySpec::sparse(8, 2.0))
        .org("Skewed 2x", DirectorySpec::skewed(4, 2.0))
        .scale(context.scale)
        .base_seed(0x5CE0);
    for spec in WORKLOADS {
        sweep = sweep.workload_str(spec).expect("catalog specs parse");
    }
    let results = sweep
        .run_with(&context.runner)
        .expect("scenario sweep runs");
    let rows = results.cells.iter().map(|cell| {
        let report = &cell.report;
        obj! {
            "workload": cell.workload,
            "org": cell.org,
            "refs_processed": report.refs_processed,
            "cache_miss_rate": report.cache_miss_rate(),
            "coherence_invalidations_per_kref": report.coherence_invalidations as f64 * 1000.0
                / report.refs_processed.max(1) as f64,
            "forced_invalidation_rate": report.forced_invalidation_rate(),
            "avg_directory_occupancy": report.avg_directory_occupancy,
        }
    });

    // Record→replay fidelity on the Cuckoo × migratory cell.
    let migratory_index = WORKLOADS
        .iter()
        .position(|w| w.starts_with("migratory"))
        .expect("catalog has a migratory scenario");
    let (live, replays) = record_replay_check(&sweep, migratory_index);
    let identical: Vec<bool> = replays.iter().map(|r| *r == live).collect();
    assert!(
        identical.iter().all(|&ok| ok),
        "record->replay must reproduce the live SimReport byte-identically"
    );

    let bench = obj! {
        "scale": context.scale_name,
        "replay_workload": WORKLOADS[migratory_index],
        "replay_identical_serial": identical[0],
        "replay_identical_parallel": identical[1],
        "rows": Json::Arr(rows.collect()),
    };
    vec![bench]
}
