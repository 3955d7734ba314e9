//! The **fault-recovery** determinism contract: a service run under a
//! recoverable [`FaultPlan`] — scheduled worker crashes and batch stalls —
//! must produce a report whose
//! [`recovery_semantics`](ccd_service::ServiceReport::recovery_semantics)
//! (outcome log, digest, statistics, entries; everything except the
//! `recoveries` counter that describes the failure handling itself) is
//! **byte-identical to the fault-free serial reference**.  Unrecoverable
//! plans must surface [`ServiceError::WorkerCrashed`] as a value — no hang,
//! no process abort.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_service::{
    DirectoryService, FaultPlan, LoadSpec, ServiceConfig, ServiceError, DEFAULT_QUEUE_DEPTH,
};

const CORES: usize = 8;
const REQUESTS: u64 = 20_000;
const SPEC: &str = "cuckoo-4x128-c8";
const SHARDS: usize = 4;

fn load(workload: &str, seed: u64) -> LoadSpec {
    LoadSpec::parse(workload, CORES, seed, REQUESTS).expect("catalog workload parses")
}

fn config(workers: usize) -> ServiceConfig {
    // A small batch maximizes deliveries (more journal entries, more
    // crash-detection windows) without slowing the test much.
    ServiceConfig::new(SPEC, SHARDS, workers).with_batch(64)
}

fn serial_reference(load: &LoadSpec) -> ccd_service::ServiceReport {
    DirectoryService::build_standard(config(1))
        .expect("topology builds")
        .run_load_serial(load)
        .expect("serial reference runs")
}

fn run_faulty(workers: usize, plan: &str, load: &LoadSpec) -> ccd_service::ServiceReport {
    run_faulty_at(workers, DEFAULT_QUEUE_DEPTH, plan, load)
}

fn run_faulty_at(
    workers: usize,
    queue_depth: usize,
    plan: &str,
    load: &LoadSpec,
) -> ccd_service::ServiceReport {
    DirectoryService::build_standard(
        config(workers)
            .with_queue_depth(queue_depth)
            .with_fault_spec(plan)
            .expect("fault plan parses"),
    )
    .expect("topology builds")
    .run_load(load)
    .unwrap_or_else(|err| panic!("recoverable plan `{plan}` must recover: {err}"))
}

/// Randomized recoverable plans (seeded, reproducible) across the
/// (fault kind × worker count × queue depth × scenario family) grid.  Every
/// run must match the fault-free serial reference on
/// `recovery_semantics()`, and — run twice — must reproduce its entire
/// report bit-for-bit, *including* the `recoveries` counter.
///
/// The crashing worker stalls too, so its lane fills while it sleeps: at
/// queue depth 1 the router is parked in a blocking `send` when the
/// worker's receiver drops, and that blocked send is the crash detection.
#[test]
fn randomized_recoverable_plans_match_the_fault_free_reference() {
    let mut rng = SplitMix64::new(0xFA17_5EED);
    for workload in ["prodcons", "migratory-zipf0.9"] {
        let load = load(workload, 0xBEEF);
        let serial = serial_reference(&load);
        for workers in [1usize, 2, 4] {
            for _ in 0..2 {
                let crash_worker = (rng.next_u64() % workers as u64) as usize;
                let crash_seq = rng.next_u64() % REQUESTS;
                let stall_worker = (rng.next_u64() % workers as u64) as usize;
                let mut plan =
                    format!("faults-crash@w{crash_worker}:{crash_seq}-stall@w{crash_worker}:1ms");
                if stall_worker != crash_worker {
                    plan.push_str(&format!("-stall@w{stall_worker}:1ms"));
                }
                for depth in [DEFAULT_QUEUE_DEPTH, 1] {
                    let once = run_faulty_at(workers, depth, &plan, &load);
                    assert_eq!(
                        once.recovery_semantics(),
                        serial.recovery_semantics(),
                        "{workload} x {workers} workers x depth {depth} x `{plan}`"
                    );
                    let twice = run_faulty_at(workers, depth, &plan, &load);
                    assert_eq!(
                        once, twice,
                        "faulty runs must be reproducible wholesale: depth {depth} x `{plan}`"
                    );
                }
            }
        }
    }
}

/// The degenerate trigger: a crash armed at sequence 0 kills the worker
/// before it applies anything at all.  Recovery must rebuild from an empty
/// journal (or the first delivered batch) and still match the reference.
#[test]
fn a_crash_at_sequence_zero_recovers_from_nothing() {
    let load = load("prodcons", 11);
    let serial = serial_reference(&load);
    for workers in [1usize, 2] {
        let report = run_faulty(workers, "faults-crash@w0:0", &load);
        assert_eq!(report.recovery_semantics(), serial.recovery_semantics());
        assert_eq!(
            report.stats.recoveries.get(),
            1,
            "the seq-0 crash fires exactly once at {workers} workers"
        );
    }
}

/// Two crash points on the same worker: the first fires live, the second
/// fires either live (after the respawn) or *during replay* — both paths
/// must land on the same report, with exactly two recoveries.
#[test]
fn a_double_crash_on_one_worker_recovers_twice() {
    let load = load("migratory-zipf0.9", 23);
    let serial = serial_reference(&load);
    let report = run_faulty(2, "faults-crash@w1:3000-crash@w1:9000", &load);
    assert_eq!(report.recovery_semantics(), serial.recovery_semantics());
    assert_eq!(report.stats.recoveries.get(), 2);

    // Crashing both workers works too, and the counters stay exact.
    let report = run_faulty(2, "faults-crash@w0:5000-crash@w1:10000", &load);
    assert_eq!(report.recovery_semantics(), serial.recovery_semantics());
    assert_eq!(report.stats.recoveries.get(), 2);
}

/// Stalls perturb scheduling, never results: with no crash clause the
/// whole report — `recoveries` included — equals the serial reference.
#[test]
fn stalls_change_nothing_but_latency() {
    let load = load("prodcons", 31);
    let serial = serial_reference(&load);
    let report = run_faulty(2, "faults-stall@w0:1ms-stall@w1:1ms", &load);
    assert_eq!(report.semantics(), serial.semantics());
    assert_eq!(report.stats.recoveries.get(), 0);
}

/// An `abort@` clause is a scheduled **unrecoverable** crash: the run must
/// return [`ServiceError::WorkerCrashed`] naming the worker — promptly, as
/// a value, with the remaining workers' senders dropped so they drain at
/// most a queue's worth of the doomed stream and exit.
#[test]
fn an_unrecoverable_abort_surfaces_worker_crashed() {
    let load = load("prodcons", 47);
    let err = DirectoryService::build_standard(
        config(4)
            .with_fault_spec("faults-abort@w2:5000")
            .expect("fault plan parses"),
    )
    .expect("topology builds")
    .run_load(&load)
    .expect_err("an abort@ plan must fail the run");
    match err {
        ServiceError::WorkerCrashed { worker, ref cause } => {
            assert_eq!(worker, 2);
            assert!(cause.contains("unrecoverable"), "cause: {cause}");
        }
        other => panic!("expected WorkerCrashed, got {other:?}"),
    }
}

/// A plan whose crash trigger lies beyond the end of the stream never
/// fires: the run completes fault-free with zero recoveries (the journal
/// was kept and simply discarded).
#[test]
fn a_crash_beyond_the_stream_never_fires() {
    let load = load("prodcons", 53);
    let serial = serial_reference(&load);
    let report = run_faulty(2, "faults-crash@w1:999999999", &load);
    assert_eq!(report.recovery_semantics(), serial.recovery_semantics());
    assert_eq!(report.stats.recoveries.get(), 0);
}

/// Fault plans ride the ordinary config validation: naming a worker the
/// topology does not have is rejected before any thread spawns.
#[test]
fn plans_validate_against_the_topology() {
    let err = DirectoryService::build_standard(
        config(2)
            .with_fault_spec("faults-crash@w2:100")
            .expect("grammar is fine"),
    )
    .expect_err("worker 2 does not exist at 2 workers");
    assert!(err.to_string().contains("worker index"), "{err}");
    // And the parsed plan round-trips through its canonical label.
    let plan: FaultPlan = "faults-stall@w0:2ms-crash@w1:5"
        .parse()
        .expect("grammar parses");
    assert_eq!(plan.label(), "faults-crash@w1:5-stall@w0:2ms");
}
