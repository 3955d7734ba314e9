//! `bench_service` — the concurrent directory service's determinism
//! matrix.
//!
//! Sweeps worker count × shard count × workload through
//! `ccd_service::DirectoryService`: every cell streams the same
//! deterministic load (three catalog workloads, seed-paired across all
//! topologies) through the service and records the merged statistics and
//! the digest of the sequence-ordered outcome log.  Each (workload,
//! shard count) pair is first applied through the inline serial reference
//! (`DirectoryService::run_serial`) and **every concurrent cell is
//! asserted bit-identical to it** — the service's core determinism
//! contract, exercised at scale on every run.  The oracle cells run a
//! saturated table on purpose: two thirds of their requests force an
//! eviction, which is the discard path worth pinning.
//!
//! A final **resize-armed** section starts the migratory workload on a
//! 4x-undersized shard organization with a live [`ResizePolicy`] armed:
//! every cell must stay bit-identical to the resize-armed serial
//! reference, and — because neither side forces an eviction — its
//! attempt-independent view (`ServiceReport::resize_semantics`) must
//! equal the statically provisioned serial reference at the target
//! geometry.
//!
//! Nothing here is timed: the service's rates are the repository
//! benchmark's `svc_hit` / `svc_churn` workloads.
//!
//! [`ResizePolicy`]: ccd_service::ResizePolicy

use crate::{
    digest_hex, service_cell, Artifact, Context, SERVICE_CORES, SERVICE_SPEC, WORKER_AXIS,
};
use ccd_common::{json::Json, obj};
use ccd_service::{LoadSpec, ServiceConfig, ServiceReport};

const BASE_SEED: u64 = 0x5E21;

/// The workload axis: the calibrated Oracle profile plus two scenario
/// families with very different sharing behaviour.
const WORKLOADS: &[&str] = &["oracle", "migratory-zipf0.9", "falseshare"];
const SHARD_AXIS: &[usize] = &[4, 16];

/// The resize-armed section: a 4x-undersized organization that must grow
/// online to hold the migratory workload's 4096 distinct blocks, and the
/// schedule that grows each of its 4 shards once, well before saturation.
const RESIZE_SPEC: &str = "cuckoo-4x1024-c16";
const RESIZE_POLICY: &str = "resize-grow2@60-every64-max1";
/// Index of the migratory workload on [`WORKLOADS`].
const RESIZE_WORKLOAD: usize = 1;
const RESIZE_SHARDS: usize = 4;

fn load_for(index: usize, requests: u64) -> LoadSpec {
    // Seeds derive from the workload index only, so every (shards,
    // workers) topology — and the serial reference — streams the same
    // trace for a given workload.
    let seed = BASE_SEED + index as u64;
    LoadSpec::parse(WORKLOADS[index], SERVICE_CORES, seed, requests)
        .expect("catalog workload parses")
}

/// One matrix row, built only after the cell's report was asserted equal
/// to its serial reference.
fn row(
    workload: &str,
    shards: usize,
    workers: usize,
    resize: &str,
    report: &ServiceReport,
) -> Json {
    obj! {
        "workload": workload,
        "shards": shards,
        "workers": workers,
        "resize": resize,
        "resizes": report.stats.resizes.get(),
        "requests": report.requests,
        "entries": report.entries,
        "insertions": report.stats.directory.insertions.get(),
        "invalidations": report.stats.invalidations.get(),
        "forced_invalidations": report.stats.forced_invalidations.get(),
        "outcome_digest": digest_hex(report),
        "matches_serial": true,
    }
}

pub fn run(context: &Context) -> Vec<Artifact> {
    let requests = context.requests_for(150_000, 1_000_000, 4_000_000);
    let mut rows = Vec::new();
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let load = load_for(index, requests);
        for &shards in SHARD_AXIS {
            // The bit-identity reference for this (workload, shards) pair.
            let serial = service_cell(ServiceConfig::new(SERVICE_SPEC, shards, 1), &load, true);
            for &workers in WORKER_AXIS {
                let config = ServiceConfig::new(SERVICE_SPEC, shards, workers);
                let report = service_cell(config, &load, false);
                assert!(
                    report.semantics() == serial.semantics(),
                    "{workload} x {shards} shards x {workers} workers diverged \
                     from serial application"
                );
                rows.push(row(workload, shards, workers, "-", &report));
            }
        }
    }

    // --- the resize-armed section ------------------------------------
    // Undersized shards plus an armed grow-2x schedule must (a) stay
    // bit-identical to the armed serial reference at every worker count
    // and (b) decide exactly what a statically provisioned serial run at
    // the grown geometry decides (`resize_semantics`, valid because
    // neither side forces an eviction).
    let load = load_for(RESIZE_WORKLOAD, requests);
    let armed_config = |workers: usize| {
        ServiceConfig::new(RESIZE_SPEC, RESIZE_SHARDS, workers)
            .with_resize_spec(RESIZE_POLICY)
            .expect("matrix resize policy parses")
    };
    let armed_serial = service_cell(armed_config(1), &load, true);
    let fixed = ServiceConfig::new(SERVICE_SPEC, RESIZE_SHARDS, 1);
    let fixed_serial = service_cell(fixed, &load, true);
    assert_eq!(
        armed_serial.stats.resizes.get(),
        RESIZE_SHARDS as u64,
        "every undersized shard must grow exactly once"
    );
    for report in [&armed_serial, &fixed_serial] {
        assert_eq!(report.stats.directory.insertion_failures.get(), 0);
    }
    for &workers in WORKER_AXIS {
        let report = service_cell(armed_config(workers), &load, false);
        assert_eq!(
            report.semantics(),
            armed_serial.semantics(),
            "{workers} armed workers diverged from the armed serial reference"
        );
        assert_eq!(
            report.resize_semantics(),
            fixed_serial.resize_semantics(),
            "{workers} armed workers diverged from the statically provisioned reference"
        );
        let workload = WORKLOADS[RESIZE_WORKLOAD];
        rows.push(row(
            workload,
            RESIZE_SHARDS,
            workers,
            RESIZE_POLICY,
            &report,
        ));
    }

    let bench = obj! {
        "scale": context.scale_name,
        "spec": SERVICE_SPEC,
        "cores": SERVICE_CORES,
        "requests": requests,
        "rows": Json::Arr(rows),
    };
    vec![bench.into()]
}
