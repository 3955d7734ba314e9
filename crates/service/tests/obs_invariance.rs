//! Contract #11: **observation does not perturb semantics.**
//!
//! Two halves, both enforced here:
//!
//! * **Armed ≡ unarmed** — a run with the observability layer fully armed
//!   (metrics + flight recorder + spans), at queue depth 1 so the router
//!   parks on full lanes, is digest-identical to the same run dark.
//! * **Merged metrics are worker-count invariant** — the merged metric
//!   snapshot is equal for the serial reference and every worker count,
//!   because
//!   counters come from merged stats and depth distributions merge in
//!   global shard order.
//!
//! Flight recordings are explicitly *not* worker-count invariant (they
//! narrate scheduling); what they must be is equal from run to run for a
//! fixed topology, however the threads interleave.

use ccd_service::{DirectoryService, EventKind, LoadSpec, RawEvent, ServiceConfig, ServiceReport};

const SPEC: &str = "cuckoo-4x256-c8";
const SHARDS: usize = 4;
const CORES: usize = 8;
const REQUESTS: u64 = 30_000;
const OBS: &str = "obs-ring4096-spans";

fn load() -> LoadSpec {
    LoadSpec::parse("migratory-zipf0.9", CORES, 0x0B5, REQUESTS).expect("workload parses")
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig::new(SPEC, SHARDS, workers).with_batch(64)
}

/// One batch in flight a lane: the router blocks in `send` whenever a
/// worker is behind, the schedule that most perturbs timing.
fn parked(workers: usize) -> ServiceConfig {
    config(workers).with_queue_depth(1)
}

fn run(config: ServiceConfig) -> ServiceReport {
    DirectoryService::build_standard(config)
        .expect("topology builds")
        .run_load(&load())
        .expect("run completes")
}

fn run_serial(config: ServiceConfig) -> ServiceReport {
    DirectoryService::build_standard(config)
        .expect("topology builds")
        .run_load_serial(&load())
        .expect("serial run completes")
}

/// The headline assertion: with the router parked on full lanes, arming
/// the full observability layer changes nothing the semantics view can see
/// — same outcome digest, same statistics, same entries — whether the
/// serial reference or a concurrent run is armed.
#[test]
fn armed_and_unarmed_runs_are_digest_identical_with_a_parked_router() {
    // `None` is the serial reference: no router, no channels.
    for workers in [None, Some(1usize), Some(2), Some(4)] {
        let go = |config: ServiceConfig| match workers {
            None => run_serial(config),
            Some(_) => run(config),
        };
        let topology = parked(workers.unwrap_or(1));
        let dark = go(topology.clone());
        let armed = go(topology.with_obs_spec(OBS).expect("obs spec parses"));
        assert!(dark.obs.is_none(), "no obs config, no obs report");
        assert_eq!(
            armed.semantics(),
            dark.semantics(),
            "arming observation must not perturb a {workers:?}-worker run"
        );
        assert_eq!(armed.outcome_digest, dark.outcome_digest);
        let Some(workers) = workers else {
            continue;
        };

        let obs = armed.obs.as_ref().expect("armed run reports observations");
        assert_eq!(obs.label, OBS);
        assert_eq!(obs.workers.len(), workers);
        assert!(
            obs.metrics.histograms.iter().any(|h| h.count > 0),
            "depth distributions must have recorded"
        );
        // Every request was narrated: the router routed it in one batch and
        // a worker applied that batch.
        let router = obs.router.as_ref().expect("concurrent runs have a router");
        let narrated = |events: &[RawEvent], kind| {
            events
                .iter()
                .filter(|e| e.kind() == Some(kind))
                .map(|e| e.arg())
                .sum::<u64>()
        };
        assert_eq!(narrated(&router.events, EventKind::BatchRouted), REQUESTS);
        let applied: u64 = obs
            .workers
            .iter()
            .map(|r| narrated(&r.events, EventKind::BatchApplied))
            .sum();
        assert_eq!(applied, REQUESTS);
    }
}

/// The merged metric snapshot is equal across the serial reference and
/// every worker count.
#[test]
fn merged_metric_snapshots_are_byte_identical_across_worker_counts() {
    let armed = |workers| config(workers).with_obs_spec(OBS).expect("obs spec parses");
    let serial = run_serial(armed(1));
    let reference = serial.obs.as_ref().expect("serial obs report");
    assert!(reference.router.is_none(), "serial runs have no router");
    for workers in [1usize, 2, 4] {
        let report = run(armed(workers));
        let obs = report.obs.as_ref().expect("concurrent obs report");
        assert_eq!(obs.metrics, reference.metrics, "{workers} workers");
    }
}

/// Flight recordings narrate scheduling, so they are required to be equal
/// from run to run for a fixed topology: events are stamped with request
/// sequence numbers, never with how the threads interleaved.
#[test]
fn flight_recordings_are_bit_reproducible_for_a_fixed_topology() {
    let build = || parked(2).with_obs_spec(OBS).expect("obs spec parses");
    let once = run(build());
    let twice = run(build());
    let (a, b) = (once.obs.unwrap(), twice.obs.unwrap());
    assert_eq!(a.router, b.router);
    assert_eq!(a.workers, b.workers);
    // The recorders actually saw traffic: every worker applied batches,
    // and the router routed them.
    assert!(a.workers.iter().all(|r| r.recorded > 0));
    let router = a.router.expect("router recording");
    assert!(router
        .events
        .iter()
        .any(|e| e.kind() == Some(EventKind::BatchRouted)));
}
