//! `bench_obs` — invariance of the deterministic observability layer.
//!
//! Runs the calibrated Oracle workload through the concurrent directory
//! service twice per worker count: **dark** (no observability) and
//! **armed** (depth metrics + flight recorder + spans,
//! `obs-ring4096-spans`).  Every armed cell is asserted bit-identical to
//! its dark twin — contract #11, exercised at scale — and every armed
//! cell's merged metric snapshot must render byte-identically to the armed
//! serial reference's (the snapshot is worker-count invariant).
//!
//! What observation *costs* is not measured here: the repository
//! benchmark's traced run reports it as `obs.armed_overhead`, with trials
//! and spreads.
//!
//! Beside `BENCH_obs.json`, the 2-worker armed cell's router and worker-0
//! flight recordings are artifacts too (`obs_trace_router.bin`,
//! `obs_trace_worker0.bin`), so the `trace_dump` reader can be
//! smoke-tested against real recordings.

use crate::{
    digest_hex, service_cell, Artifact, Context, SERVICE_CORES, SERVICE_SPEC, WORKER_AXIS,
};
use ccd_common::{json::Json, obj};
use ccd_obs::expo::render_json;
use ccd_service::{LoadSpec, ServiceConfig, ServiceReport};

/// [`SERVICE_SPEC`] split across 8 address-interleaved shards.
const SHARDS: usize = 8;
const SEED: u64 = 0x0B5E;
const WORKLOAD: &str = "oracle";
const OBS: &str = "obs-ring4096-spans";

fn config(workers: usize, armed: bool) -> ServiceConfig {
    let config = ServiceConfig::new(SERVICE_SPEC, SHARDS, workers);
    if armed {
        config.with_obs_spec(OBS).expect("matrix obs spec parses")
    } else {
        config
    }
}

/// `[count, p50, p99, max]` of one named histogram in the armed snapshot;
/// all zeros for a dark report.
fn depth_summary(report: &ServiceReport, name: &str) -> [u64; 4] {
    let Some(obs) = report.obs.as_ref() else {
        return [0; 4];
    };
    let h = obs
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("armed snapshot must carry `{name}`"));
    [h.count, h.p50, h.p99, h.max]
}

/// One matrix row, built only after the armed cell was asserted equal to
/// its dark twin.
fn row(workers: usize, armed: bool, report: &ServiceReport) -> Json {
    let probe = depth_summary(report, "probe_depth");
    let chain = depth_summary(report, "displacement_chain");
    obj! {
        "workers": workers,
        "armed": if armed { OBS } else { "-" },
        "requests": report.requests,
        "entries": report.entries,
        "outcome_digest": digest_hex(report),
        "matches_dark": true,
        "probe_count": probe[0],
        "probe_p50": probe[1],
        "probe_p99": probe[2],
        "probe_max": probe[3],
        "chain_count": chain[0],
        "chain_p50": chain[1],
        "chain_p99": chain[2],
        "chain_max": chain[3],
    }
}

pub fn run(context: &Context) -> Vec<Artifact> {
    let requests = context.requests_for(150_000, 1_000_000, 4_000_000);
    let load =
        LoadSpec::parse(WORKLOAD, SERVICE_CORES, SEED, requests).expect("catalog workload parses");
    let snapshot = |report: &ServiceReport| {
        render_json(&report.obs.as_ref().expect("armed reports obs").metrics)
    };

    // The armed serial reference anchors the snapshot-invariance check.
    let reference = snapshot(&service_cell(config(1, true), &load, true));

    let mut rows = Vec::new();
    let mut recordings = Vec::new();
    for &workers in WORKER_AXIS {
        let dark = service_cell(config(workers, false), &load, false);
        let armed = service_cell(config(workers, true), &load, false);
        // Contract #11 at benchmark scale: observation never perturbs.
        assert_eq!(
            armed.semantics(),
            dark.semantics(),
            "{workers} armed workers diverged from their dark twin"
        );
        assert_eq!(armed.outcome_digest, dark.outcome_digest);
        // Snapshot invariance: byte-identical to the serial reference.
        assert!(
            snapshot(&armed) == reference,
            "{workers} armed workers rendered a different metric snapshot"
        );
        rows.push(row(workers, false, &dark));
        rows.push(row(workers, true, &armed));
        if workers == 2 {
            let obs = armed.obs.as_ref().expect("armed reports obs");
            let router = obs.router.as_ref().expect("the ring records the router");
            let worker0 = obs.workers.first().expect("the ring records worker 0");
            recordings = vec![router.to_bytes(), worker0.to_bytes()];
        }
    }

    let bench = obj! {
        "scale": context.scale_name,
        "spec": SERVICE_SPEC,
        "workload": WORKLOAD,
        "obs": OBS,
        "cores": SERVICE_CORES,
        "shards": SHARDS,
        "requests": requests,
        "snapshot_invariant": true,
        "rows": Json::Arr(rows),
    };
    let mut artifacts = vec![bench.into()];
    artifacts.extend(recordings.into_iter().map(Artifact::Bytes));
    artifacts
}
