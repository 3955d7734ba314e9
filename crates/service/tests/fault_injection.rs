//! Fault injection through a [`FaultPlan`]: a run whose plan only stalls
//! workers is **byte-identical to the fault-free serial reference**, and a
//! scheduled `abort@` panic surfaces as [`ServiceError::WorkerCrashed`] as
//! a value — no hang, no process abort — while the other workers drain.

use ccd_service::{
    DirectoryService, FaultPlan, LoadSpec, ServiceConfig, ServiceError, ServiceReport,
    DEFAULT_QUEUE_DEPTH,
};

const CORES: usize = 8;
const REQUESTS: u64 = 20_000;
const SPEC: &str = "cuckoo-4x128-c8";
const SHARDS: usize = 4;

fn load(workload: &str, seed: u64) -> LoadSpec {
    LoadSpec::parse(workload, CORES, seed, REQUESTS).expect("catalog workload parses")
}

fn config(workers: usize, queue_depth: usize, plan: &str) -> ServiceConfig {
    // A small batch maximizes deliveries without slowing the test much.
    ServiceConfig::new(SPEC, SHARDS, workers)
        .with_batch(64)
        .with_queue_depth(queue_depth)
        .with_fault_spec(plan)
        .expect("fault plan parses")
}

fn run(config: ServiceConfig, load: &LoadSpec) -> Result<ServiceReport, ServiceError> {
    DirectoryService::build_standard(config)
        .expect("topology builds")
        .run_load(load)
}

fn serial_reference(load: &LoadSpec) -> ServiceReport {
    DirectoryService::build_standard(ServiceConfig::new(SPEC, SHARDS, 1).with_batch(64))
        .expect("topology builds")
        .run_load_serial(load)
        .expect("serial reference runs")
}

/// Stalls perturb scheduling, never results: at every worker count and
/// at queue depth 1 (where a stalled worker's full lane parks the router
/// in a blocking send) the whole report equals the serial reference.
#[test]
fn stalls_change_nothing_but_latency() {
    for workload in ["prodcons", "migratory-zipf0.9"] {
        let load = load(workload, 31);
        let serial = serial_reference(&load);
        for workers in [1usize, 2, 4] {
            let last = workers - 1;
            let plan = match last {
                0 => "faults-stall@w0:1ms".to_string(),
                _ => format!("faults-stall@w0:1ms-stall@w{last}:1ms"),
            };
            for depth in [DEFAULT_QUEUE_DEPTH, 1] {
                let report = run(config(workers, depth, &plan), &load).expect("stalls never fail");
                assert_eq!(
                    report.semantics(),
                    serial.semantics(),
                    "{workload} x {workers} workers x depth {depth} x `{plan}`"
                );
            }
        }
    }
}

/// An `abort@` clause is a scheduled worker panic: the run must return
/// [`ServiceError::WorkerCrashed`] naming the worker — promptly, as a
/// value, with the remaining workers' senders dropped so they drain at
/// most a queue's worth of the doomed stream and exit.  At queue depth 1
/// the dying worker also stalls, so its lane is full and the router is
/// parked in a blocking `send` when the worker's receiver drops.
#[test]
fn an_abort_surfaces_worker_crashed() {
    let load = load("prodcons", 47);
    for (plan, worker, seq) in [
        ("faults-abort@w2:5000", 2, 5000),
        ("faults-abort@w0:0", 0, 0),
        ("faults-abort@w3:7000-abort@w3:900", 3, 900),
    ] {
        for depth in [DEFAULT_QUEUE_DEPTH, 1] {
            let plan = if depth == 1 {
                format!("{plan}-stall@w{worker}:1ms")
            } else {
                plan.to_string()
            };
            let err = run(config(4, depth, &plan), &load).expect_err("an abort@ plan must fail");
            match err {
                ServiceError::WorkerCrashed {
                    worker: w,
                    ref cause,
                } => {
                    assert_eq!(w, worker, "`{plan}`");
                    assert!(
                        cause.starts_with(&format!("injected abort on worker {worker} at seq ")),
                        "`{plan}`: {cause}"
                    );
                    let fired: u64 = cause.rsplit(' ').next().unwrap().parse().unwrap();
                    assert!(fired >= seq, "`{plan}` fired at {fired}");
                }
                other => panic!("`{plan}`: expected WorkerCrashed, got {other:?}"),
            }
        }
    }
}

/// A plan whose abort trigger lies beyond the end of the stream never
/// fires: the run completes and matches the serial reference.
#[test]
fn an_abort_beyond_the_stream_never_fires() {
    let load = load("prodcons", 53);
    let serial = serial_reference(&load);
    let report = run(
        config(2, DEFAULT_QUEUE_DEPTH, "faults-abort@w1:999999999"),
        &load,
    )
    .expect("the abort never fires");
    assert_eq!(report.semantics(), serial.semantics());
}

/// Fault plans ride the ordinary config validation: naming a worker the
/// topology does not have is rejected before any thread spawns.
#[test]
fn plans_validate_against_the_topology() {
    let err =
        DirectoryService::build_standard(config(2, DEFAULT_QUEUE_DEPTH, "faults-abort@w2:100"))
            .expect_err("worker 2 does not exist at 2 workers");
    assert!(err.to_string().contains("worker index"), "{err}");
    // And the parsed plan round-trips through its canonical label.
    let plan: FaultPlan = "faults-stall@w0:2ms-abort@w1:5"
        .parse()
        .expect("grammar parses");
    assert_eq!(plan.label(), "faults-abort@w1:5-stall@w0:2ms");
}
