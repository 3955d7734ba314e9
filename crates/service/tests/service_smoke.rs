//! Quick service smoke test, honoring `CCD_WORKERS`.
//!
//! CI runs this under `CCD_WORKERS=1` and `CCD_WORKERS=4`, so the inline
//! single-worker topology and a genuinely concurrent one are both
//! exercised against the serial reference on every push.

use ccd_service::{DirectoryService, LoadSpec, ServiceConfig};

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
    let config = ServiceConfig::new("cuckoo-4x4096-c16", shards, workers);
    let report = DirectoryService::build_standard(config)
        .expect("smoke topology builds")
        .run_load(&load)
        .expect("service runs");
    assert_eq!(report.workers, workers);
    assert_eq!(report.requests, 30_000);
    assert!(report.stats.directory.insertions.get() > 0);
    assert_eq!(
        report.semantics(),
        serial.semantics(),
        "service with {workers} workers must match serial application"
    );
}
