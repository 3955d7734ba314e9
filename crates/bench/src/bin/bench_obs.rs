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
//! Two flight-recording files land under the results directory
//! (`obs_trace_router.bin`, `obs_trace_worker0.bin`) so the `trace_dump`
//! reader can be smoke-tested against real recordings, beside
//! `BENCH_obs.json`, whose every byte is deterministic: the quick-scale
//! output is golden-checked whole.

use ccd_bench::{results_dir, write_json, RunScale, TextTable};
use ccd_obs::expo::render_json;
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};

/// Shard organization: a 16 K-entry 4-way cuckoo directory tracking 16
/// caches, split across 8 address-interleaved shards.
const SPEC: &str = "cuckoo-4x4096-c16";
const CORES: usize = 16;
const SHARDS: usize = 8;
const SEED: u64 = 0x0B5E;
const WORKLOAD: &str = "oracle";
const OBS: &str = "obs-ring4096-spans";
const WORKER_AXIS: &[usize] = &[1, 2, 4];

#[derive(Debug)]
struct ObsRow {
    workers: usize,
    armed: String,
    requests: u64,
    entries: u64,
    outcome_digest: String,
    matches_dark: bool,
    probe_count: u64,
    probe_p50: u64,
    probe_p99: u64,
    probe_max: u64,
    chain_count: u64,
    chain_p50: u64,
    chain_p99: u64,
    chain_max: u64,
}
ccd_bench::impl_to_json!(ObsRow {
    workers,
    armed,
    requests,
    entries,
    outcome_digest,
    matches_dark,
    probe_count,
    probe_p50,
    probe_p99,
    probe_max,
    chain_count,
    chain_p50,
    chain_p99,
    chain_max,
});

#[derive(Debug)]
struct ObsBench {
    scale: String,
    spec: String,
    workload: String,
    obs: String,
    cores: usize,
    shards: usize,
    requests: u64,
    snapshot_invariant: bool,
    rows: Vec<ObsRow>,
}
ccd_bench::impl_to_json!(ObsBench {
    scale,
    spec,
    workload,
    obs,
    cores,
    shards,
    requests,
    snapshot_invariant,
    rows,
});

fn requests_for(scale_name: &str) -> u64 {
    match scale_name {
        "quick" => 150_000,
        "full" => 4_000_000,
        _ => 1_000_000,
    }
}

fn config(workers: usize, armed: bool) -> ServiceConfig {
    let config = ServiceConfig::new(SPEC, SHARDS, workers);
    if armed {
        config.with_obs_spec(OBS).expect("bench obs spec parses")
    } else {
        config
    }
}

fn run_cell(workers: usize, armed: bool, load: &LoadSpec) -> ServiceReport {
    DirectoryService::build_standard(config(workers, armed))
        .expect("bench topology builds")
        .run_load(load)
        .expect("bench load runs")
}

/// `(count, p50, p99, max)` of one named histogram in the armed
/// snapshot; all zeros for a dark report.
fn depth_summary(report: &ServiceReport, name: &str) -> (u64, u64, u64, u64) {
    let Some(obs) = report.obs.as_ref() else {
        return (0, 0, 0, 0);
    };
    let h = obs
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("armed snapshot must carry `{name}`"));
    (h.count, h.p50, h.p99, h.max)
}

fn row(workers: usize, armed: bool, report: &ServiceReport) -> ObsRow {
    let (probe_count, probe_p50, probe_p99, probe_max) = depth_summary(report, "probe_depth");
    let (chain_count, chain_p50, chain_p99, chain_max) =
        depth_summary(report, "displacement_chain");
    ObsRow {
        workers,
        armed: if armed {
            OBS.to_string()
        } else {
            "-".to_string()
        },
        requests: report.requests,
        entries: report.entries as u64,
        outcome_digest: format!("{:016x}", report.outcome_digest),
        matches_dark: true,
        probe_count,
        probe_p50,
        probe_p99,
        probe_max,
        chain_count,
        chain_p50,
        chain_p99,
        chain_max,
    }
}

fn dump_recordings(report: &ServiceReport) {
    let obs = report
        .obs
        .as_ref()
        .expect("armed report carries recordings");
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let dumps = [
        ("obs_trace_router.bin", obs.router.as_ref()),
        ("obs_trace_worker0.bin", obs.workers.first()),
    ];
    for (name, recording) in dumps {
        let Some(recording) = recording else { continue };
        let path = dir.join(name);
        match std::fs::write(&path, recording.to_bytes()) {
            Ok(()) => println!(
                "   wrote {} ({} events)",
                path.display(),
                recording.events.len()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn main() {
    let (_, scale_name) = RunScale::from_env_named();
    let requests = requests_for(scale_name);
    println!("== BENCH_obs: observability layer invariance ==");
    println!(
        "   spec {SPEC}, {CORES} cores, {SHARDS} shards, workload {WORKLOAD}, \
         {requests} requests/cell, scale {scale_name}, obs {OBS}"
    );

    let load = LoadSpec::parse(WORKLOAD, CORES, SEED, requests).expect("catalog workload parses");

    // The armed serial reference anchors the snapshot-invariance check.
    let serial = DirectoryService::build_standard(config(1, true))
        .expect("bench topology builds")
        .run_load_serial(&load)
        .expect("armed serial reference runs");
    let reference_json = render_json(
        &serial
            .obs
            .as_ref()
            .expect("armed serial reports obs")
            .metrics,
    );

    let mut rows: Vec<ObsRow> = Vec::new();
    let mut snapshot_invariant = true;
    for &workers in WORKER_AXIS {
        let dark = run_cell(workers, false, &load);
        let armed = run_cell(workers, true, &load);
        // Contract #11 at benchmark scale: observation never perturbs.
        assert_eq!(
            armed.semantics(),
            dark.semantics(),
            "{workers} armed workers diverged from their dark twin"
        );
        assert_eq!(armed.outcome_digest, dark.outcome_digest);
        // Snapshot invariance: byte-identical to the serial reference.
        let armed_json = render_json(&armed.obs.as_ref().expect("armed obs").metrics);
        snapshot_invariant &= armed_json == reference_json;
        assert!(
            snapshot_invariant,
            "{workers} armed workers rendered a different metric snapshot"
        );
        rows.push(row(workers, false, &dark));
        rows.push(row(workers, true, &armed));
        if workers == 2 {
            dump_recordings(&armed);
        }
    }

    let mut table = TextTable::new(vec![
        "workers",
        "obs",
        "probe p50",
        "probe p99",
        "chain p99",
        "digest",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.workers.to_string(),
            row.armed.clone(),
            row.probe_p50.to_string(),
            row.probe_p99.to_string(),
            row.chain_p99.to_string(),
            row.outcome_digest.clone(),
        ]);
    }
    println!();
    table.print();
    println!("\nsnapshot worker-count invariant: {snapshot_invariant}");

    let bench = ObsBench {
        scale: scale_name.to_string(),
        spec: SPEC.to_string(),
        workload: WORKLOAD.to_string(),
        obs: OBS.to_string(),
        cores: CORES,
        shards: SHARDS,
        requests,
        snapshot_invariant,
        rows,
    };
    write_json("BENCH_obs", &bench);
}
