//! Quick service smoke test, honoring `CCD_WORKERS` and `CCD_FAULTS`.
//!
//! CI runs this under `CCD_WORKERS=1` and `CCD_WORKERS=4`, so the inline
//! single-worker topology and a genuinely concurrent one are both
//! exercised against the serial reference on every push — plus
//! `CCD_FAULTS` variants: under a plan with an `abort@` clause the run must
//! fail with `WorkerCrashed` naming that worker, and under a stall-only
//! plan it must still equal the serial reference.

use ccd_service::{DirectoryService, FaultPlan, LoadSpec, ServiceConfig, ServiceError};

fn workers_from_env() -> usize {
    match std::env::var("CCD_WORKERS") {
        Err(std::env::VarError::NotPresent) => 2,
        Ok(raw) => match raw.trim().parse() {
            Ok(workers) if workers >= 1 => workers,
            // Loud, like ParallelRunner::from_env — never silently coerced.
            _ => panic!(
                "CCD_WORKERS `{}`: expected a positive worker count",
                raw.trim()
            ),
        },
        Err(e) => panic!("CCD_WORKERS unreadable: {e:?}"),
    }
}

/// An optional `faults-…` spec string (see `ccd_service::FaultPlan`) armed
/// on the concurrent run only.  Bad specs fail loudly, never silently.
fn fault_spec_from_env() -> Option<String> {
    match std::env::var("CCD_FAULTS") {
        Err(std::env::VarError::NotPresent) => None,
        Ok(raw) if raw.trim().is_empty() => None,
        Ok(raw) => Some(raw.trim().to_string()),
        Err(e) => panic!("CCD_FAULTS unreadable: {e:?}"),
    }
}

#[test]
fn smoke_service_matches_serial_at_the_env_worker_count() {
    let workers = workers_from_env();
    // The next power of two always divides the spec's 4096 sets (for any
    // worker count up to 4096), so every valid CCD_WORKERS value yields a
    // valid topology — not just the 1 and 4 that CI exercises.
    let shards = workers.next_power_of_two().max(4);
    let load = LoadSpec::parse("oracle", 16, 0xCAFE, 30_000).expect("oracle parses");

    let serial =
        DirectoryService::build_standard(ServiceConfig::new("cuckoo-4x4096-c16", shards, 1))
            .expect("smoke topology builds")
            .run_load_serial(&load)
            .expect("serial reference runs");
    let mut config = ServiceConfig::new("cuckoo-4x4096-c16", shards, workers);
    let mut aborting = Vec::new();
    if let Some(spec) = fault_spec_from_env() {
        let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("CCD_FAULTS `{spec}`: {e}"));
        aborting = plan.crashes().iter().map(|c| c.worker).collect();
        config.fault_plan = Some(plan);
    }
    let result = DirectoryService::build_standard(config)
        .expect("smoke topology builds")
        .run_load(&load);

    if !aborting.is_empty() {
        match result {
            Err(ServiceError::WorkerCrashed { worker, .. }) => assert!(
                aborting.contains(&worker),
                "worker {worker} crashed, but the plan aborts {aborting:?}"
            ),
            other => panic!("an abort@ plan must fail naming one of {aborting:?}, got {other:?}"),
        }
        return;
    }
    let report = result.expect("service runs");
    assert_eq!(report.workers, workers);
    assert_eq!(report.requests, 30_000);
    assert!(report.stats.directory.insertions.get() > 0);
    assert_eq!(
        report.semantics(),
        serial.semantics(),
        "service with {workers} workers must match serial application"
    );
}
