//! Contract #11: **observation does not perturb semantics.**
//!
//! Two halves, both enforced here:
//!
//! * **Armed ≡ unarmed** — a run with the observability layer fully armed
//!   (metrics + flight recorder + spans), under an active fault plan *and*
//!   an active resize policy, is digest-identical to the same run dark.
//! * **Merged metrics are worker-count invariant** — the merged metric
//!   snapshot (and its byte-level JSON rendering) is identical for the
//!   serial reference and every worker count, because
//!   counters come from merged stats and depth distributions merge in
//!   global shard order.
//!
//! Flight recordings are explicitly *not* worker-count invariant (they
//! narrate scheduling); what they must be is run-to-run bit-reproducible
//! for a fixed topology whenever scheduling is deterministic — stalls
//! and resize policies qualify; crash *detection* is a
//! thread race, so crash narration is asserted by presence and by its
//! deterministic virtual-time stamps instead of by ring digest.

use ccd_obs::expo::render_json;
use ccd_obs::EventKind;
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};

const SPEC: &str = "cuckoo-4x256-c8";
const SHARDS: usize = 4;
const CORES: usize = 8;
const REQUESTS: u64 = 30_000;
const OBS: &str = "obs-ring4096-spans";
const FAULTS: &str = "faults-crash@w0:9000";
const RESIZE: &str = "resize-grow2@55-every128-max2";

fn load() -> LoadSpec {
    LoadSpec::parse("migratory-zipf0.9", CORES, 0x0B5, REQUESTS).expect("workload parses")
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig::new(SPEC, SHARDS, workers).with_batch(64)
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

/// The headline assertion: with a crash to recover and resizes firing
/// mid-stream, arming the full observability layer
/// changes nothing the semantics views can see — same outcome digest,
/// same statistics, same entries.
#[test]
fn armed_and_unarmed_runs_are_digest_identical_under_faults_and_resize() {
    for workers in [1usize, 2, 4] {
        let chaotic = |cfg: ServiceConfig| {
            cfg.with_fault_spec(FAULTS)
                .expect("fault plan parses")
                .with_resize_spec(RESIZE)
                .expect("resize policy parses")
        };
        let dark = run(chaotic(config(workers)));
        let armed = run(chaotic(config(workers))
            .with_obs_spec(OBS)
            .expect("obs spec parses"));
        assert!(dark.obs.is_none(), "no obs config, no obs report");
        assert_eq!(
            armed.semantics(),
            dark.semantics(),
            "arming observation must not perturb a {workers}-worker run"
        );
        assert_eq!(armed.outcome_digest, dark.outcome_digest);

        let obs = armed.obs.as_ref().expect("armed run reports observations");
        assert_eq!(obs.label, "obs-sig2-ring4096-spans");
        assert_eq!(obs.workers.len(), workers);
        assert!(
            obs.metrics.histograms.iter().any(|h| h.count > 0),
            "depth distributions must have recorded"
        );
        // The crash narrated: a crash event stamped with the sequence it
        // actually fired at — the first of worker 0's requests at or past
        // the trigger (detection is racy; the stamp is not) — its
        // recovery, and the journal replay that rebuilt the worker.
        let router = obs.router.as_ref().expect("concurrent runs have a router");
        let stamped = |kind: EventKind| {
            router
                .events
                .iter()
                .filter(move |e| e.kind() == Some(kind))
                .collect::<Vec<_>>()
        };
        let crashes = stamped(EventKind::Crash);
        assert!(!crashes.is_empty(), "injected crash must be narrated");
        assert!(crashes.iter().all(|e| e.lane() == 0 && e.vtime() >= 9_000));
        assert!(!stamped(EventKind::Recovery).is_empty());
        assert!(!stamped(EventKind::JournalReplay).is_empty());
        // Resizes fired (guard against a policy that never triggers) and
        // were narrated worker-side, where `maybe_resize` records them.
        assert!(armed.stats.resizes.get() > 0);
        assert!(obs
            .workers
            .iter()
            .flat_map(|r| r.events.iter())
            .any(|e| e.kind() == Some(EventKind::ResizeFired)));
    }
}

/// The merged metric snapshot — and therefore its JSON rendering — is
/// byte-identical across the serial reference and every worker count.
#[test]
fn merged_metric_snapshots_are_byte_identical_across_worker_counts() {
    let armed = |workers| config(workers).with_obs_spec(OBS).expect("obs spec parses");
    let serial = run_serial(armed(1));
    let reference = serial.obs.as_ref().expect("serial obs report");
    let reference_json = render_json(&reference.metrics);
    assert!(reference.router.is_none(), "serial runs have no router");
    for workers in [1usize, 2, 4] {
        let report = run(armed(workers));
        let obs = report.obs.as_ref().expect("concurrent obs report");
        assert_eq!(obs.metrics, reference.metrics, "{workers} workers");
        assert_eq!(render_json(&obs.metrics), reference_json);
    }
}

/// Flight recordings narrate scheduling, so they are required to be
/// run-to-run bit-reproducible for a fixed topology whenever scheduling
/// is deterministic: stalls are pure latency, and resize epochs are a
/// function of each shard's request subsequence.
#[test]
fn flight_recordings_are_bit_reproducible_for_a_fixed_topology() {
    let build = || {
        config(2)
            .with_fault_spec("faults-stall@w1:1ms")
            .expect("fault plan parses")
            .with_resize_spec(RESIZE)
            .expect("resize policy parses")
            .with_obs_spec(OBS)
            .expect("obs spec parses")
    };
    let once = run(build());
    let twice = run(build());
    let (a, b) = (once.obs.unwrap(), twice.obs.unwrap());
    assert_eq!(
        a.router.as_ref().map(|r| r.digest()),
        b.router.as_ref().map(|r| r.digest())
    );
    let digests =
        |obs: &ccd_service::ObsReport| obs.workers.iter().map(|r| r.digest()).collect::<Vec<_>>();
    assert_eq!(digests(&a), digests(&b));
    // The recorders actually saw traffic: every worker applied batches,
    // and the router routed them.
    assert!(a.workers.iter().all(|r| r.recorded > 0));
    let router = a.router.expect("router recording");
    assert!(router
        .events
        .iter()
        .any(|e| e.kind() == Some(EventKind::BatchRouted)));
}
