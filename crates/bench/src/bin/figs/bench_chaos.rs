//! `bench_chaos` — digest-identity of the supervised directory service
//! under injected faults.
//!
//! Sweeps fault plan × worker count through
//! `ccd_service::DirectoryService`: every cell streams the same
//! deterministic load under an armed `FaultPlan` — scheduled worker
//! crashes (recovered by journal replay), batch stalls, admission-control
//! shedding — and records the recovery counters and the digest of the
//! sequence-ordered outcome log.  Each cell is **asserted digest-identical
//! to the fault-free serial reference**
//! (`ServiceReport::recovery_semantics`): crashing a worker mid-stream
//! must not change a single byte of what the service computes.
//!
//! Nothing here is timed — what a recovery costs is unmeasured until the
//! repository benchmark grows a workload for it.

use crate::{
    digest_hex, service_cell, Artifact, Context, SERVICE_CORES, SERVICE_SPEC, WORKER_AXIS,
};
use ccd_common::{json::Json, obj};
use ccd_service::{LoadSpec, ServiceConfig};

const SHARDS: usize = 4;
const BASE_SEED: u64 = 0xC4A0;
const WORKLOAD: &str = "migratory-zipf0.9";

/// The fault-plan axis.  Crash triggers scale with the request count so
/// every scale actually exercises recovery (a trigger beyond the stream
/// never fires); worker indices stay within the smallest worker count on
/// the axis so one plan sweeps every topology.
fn plans_for(requests: u64) -> Vec<String> {
    let early = requests / 10;
    let mid = requests / 2;
    let late = requests - requests / 10;
    vec![
        "faults".to_string(), // armed-but-empty: supervision alone
        format!("faults-crash@w0:{mid}"),
        format!("faults-crash@w0:{early}-crash@w0:{late}"),
        format!("faults-seed11-crash@w0:{mid}-stall@w0:1ms-shed0.01"),
    ]
}

pub fn run(context: &Context) -> Vec<Artifact> {
    let requests = context.requests_for(100_000, 500_000, 2_000_000);
    let load =
        LoadSpec::parse(WORKLOAD, SERVICE_CORES, BASE_SEED, requests).expect("workload parses");

    // The fault-free digest-identity reference.
    let serial = service_cell(ServiceConfig::new(SERVICE_SPEC, SHARDS, 1), &load, true);

    let mut rows = Vec::new();
    for plan in plans_for(requests) {
        for &workers in WORKER_AXIS {
            let config = ServiceConfig::new(SERVICE_SPEC, SHARDS, workers)
                .with_fault_spec(&plan)
                .expect("matrix fault plan parses");
            let report = service_cell(config, &load, false);
            let matches_serial = report.recovery_semantics() == serial.recovery_semantics();
            assert!(
                matches_serial,
                "`{plan}` x {workers} workers diverged from the fault-free \
                 serial reference"
            );
            rows.push(obj! {
                "plan": plan,
                "workers": workers,
                "requests": report.requests,
                "recoveries": report.stats.recoveries.get(),
                "shed": report.stats.shed.get(),
                "entries": report.entries,
                "invalidations": report.stats.invalidations.get(),
                "forced_invalidations": report.stats.forced_invalidations.get(),
                "outcome_digest": digest_hex(&report),
                "matches_serial": matches_serial,
            });
        }
    }

    let bench = obj! {
        "scale": context.scale_name,
        "spec": SERVICE_SPEC,
        "workload": WORKLOAD,
        "cores": SERVICE_CORES,
        "shards": SHARDS,
        "requests": requests,
        "serial_digest": digest_hex(&serial),
        "rows": Json::Arr(rows),
    };
    vec![bench.into()]
}
