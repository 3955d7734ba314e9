//! `bench_service` — the concurrent directory service's determinism
//! matrix.
//!
//! Sweeps worker count × shard count × workload through
//! `ccd_service::DirectoryService`: every cell streams the same
//! deterministic load (three catalog workloads, seed-paired across all
//! topologies) through the service and records the merged statistics and
//! the FNV digest of the sequence-ordered outcome log.  Each (workload,
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
//! Nothing here is timed (the service's rates are the repository
//! benchmark's `svc_hit` / `svc_churn` workloads), so every byte of
//! `BENCH_service.json` under the results directory is deterministic and
//! the quick-scale output is golden-checked whole.
//!
//! [`ResizePolicy`]: ccd_service::ResizePolicy

use ccd_bench::{write_json, RunScale, TextTable};
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};

/// Shard organization: a 16 K-entry 4-way cuckoo directory tracking 16
/// caches; the set count divides by every shard count on the axis.
const SPEC: &str = "cuckoo-4x4096-c16";
const CORES: usize = 16;
const BASE_SEED: u64 = 0x5E21;

/// The workload axis: the calibrated Oracle profile plus two scenario
/// families with very different sharing behaviour.
const WORKLOADS: &[&str] = &["oracle", "migratory-zipf0.9", "falseshare"];
const SHARD_AXIS: &[usize] = &[4, 16];
const WORKER_AXIS: &[usize] = &[1, 2, 4];

/// The resize-armed section: a 4x-undersized organization that must grow
/// online to hold the migratory workload's 4096 distinct blocks, and the
/// schedule that grows each of its 4 shards once, well before saturation.
const RESIZE_SPEC: &str = "cuckoo-4x1024-c16";
const RESIZE_POLICY: &str = "resize-grow2@60-every64-max1";
const RESIZE_WORKLOAD: &str = "migratory-zipf0.9";
const RESIZE_SHARDS: usize = 4;

#[derive(Debug)]
struct ServiceRow {
    workload: String,
    shards: usize,
    workers: usize,
    resize: String,
    resizes: u64,
    requests: u64,
    entries: u64,
    insertions: u64,
    invalidations: u64,
    forced_invalidations: u64,
    outcome_digest: String,
    matches_serial: bool,
}
ccd_bench::impl_to_json!(ServiceRow {
    workload,
    shards,
    workers,
    resize,
    resizes,
    requests,
    entries,
    insertions,
    invalidations,
    forced_invalidations,
    outcome_digest,
    matches_serial,
});

#[derive(Debug)]
struct ServiceBench {
    scale: String,
    spec: String,
    cores: usize,
    requests: u64,
    rows: Vec<ServiceRow>,
}
ccd_bench::impl_to_json!(ServiceBench {
    scale,
    spec,
    cores,
    requests,
    rows,
});

fn requests_for(scale_name: &str) -> u64 {
    match scale_name {
        "quick" => 150_000,
        "full" => 4_000_000,
        _ => 1_000_000,
    }
}

fn load_for(workload: &str, index: usize, requests: u64) -> LoadSpec {
    // Seeds derive from the workload index only, so every (shards,
    // workers) topology — and the serial reference — streams the same
    // trace for a given workload.
    LoadSpec::parse(workload, CORES, BASE_SEED + index as u64, requests)
        .expect("catalog workload parses")
}

fn run_cell(config: ServiceConfig, load: &LoadSpec) -> ServiceReport {
    DirectoryService::build_standard(config)
        .expect("bench topology builds")
        .run_load(load)
        .expect("bench load runs")
}

/// One matrix row, built only after the cell's report was asserted equal
/// to its serial reference.
fn row(
    workload: &str,
    shards: usize,
    workers: usize,
    resize: &str,
    report: &ServiceReport,
) -> ServiceRow {
    ServiceRow {
        workload: workload.to_string(),
        shards,
        workers,
        resize: resize.to_string(),
        resizes: report.stats.resizes.get(),
        requests: report.requests,
        entries: report.entries as u64,
        insertions: report.stats.directory.insertions.get(),
        invalidations: report.stats.invalidations.get(),
        forced_invalidations: report.stats.forced_invalidations.get(),
        outcome_digest: format!("{:016x}", report.outcome_digest),
        matches_serial: true,
    }
}

fn main() {
    let (_, scale_name) = RunScale::from_env_named();
    let requests = requests_for(scale_name);
    println!("== BENCH_service: shard-per-worker directory service determinism matrix ==");
    println!(
        "   spec {SPEC}, {CORES} cores, {requests} requests/cell, scale {scale_name}, \
         shards x workers = {SHARD_AXIS:?} x {WORKER_AXIS:?}"
    );

    let mut rows: Vec<ServiceRow> = Vec::new();
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let load = load_for(workload, index, requests);
        for &shards in SHARD_AXIS {
            // The bit-identity reference for this (workload, shards) pair.
            let serial = DirectoryService::build_standard(ServiceConfig::new(SPEC, shards, 1))
                .expect("bench topology builds")
                .run_load_serial(&load)
                .expect("serial reference runs");
            for &workers in WORKER_AXIS {
                let report = run_cell(ServiceConfig::new(SPEC, shards, workers), &load);
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
    let load = load_for(
        RESIZE_WORKLOAD,
        WORKLOADS
            .iter()
            .position(|w| *w == RESIZE_WORKLOAD)
            .unwrap(),
        requests,
    );
    let armed_config = |workers: usize| {
        ServiceConfig::new(RESIZE_SPEC, RESIZE_SHARDS, workers)
            .with_resize_spec(RESIZE_POLICY)
            .expect("bench resize policy parses")
    };
    let armed_serial = DirectoryService::build_standard(armed_config(1))
        .expect("bench topology builds")
        .run_load_serial(&load)
        .expect("armed serial reference runs");
    let fixed_serial = DirectoryService::build_standard(ServiceConfig::new(SPEC, RESIZE_SHARDS, 1))
        .expect("bench topology builds")
        .run_load_serial(&load)
        .expect("static serial reference runs");
    assert_eq!(
        armed_serial.stats.resizes.get(),
        RESIZE_SHARDS as u64,
        "every undersized shard must grow exactly once"
    );
    for report in [&armed_serial, &fixed_serial] {
        assert_eq!(report.stats.directory.insertion_failures.get(), 0);
    }
    for &workers in WORKER_AXIS {
        let report = run_cell(armed_config(workers), &load);
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
        rows.push(row(
            RESIZE_WORKLOAD,
            RESIZE_SHARDS,
            workers,
            RESIZE_POLICY,
            &report,
        ));
    }

    let mut table = TextTable::new(vec![
        "workload",
        "shards",
        "workers",
        "resize",
        "entries",
        "forced inv",
        "digest",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.workload.clone(),
            row.shards.to_string(),
            row.workers.to_string(),
            if row.resize == "-" {
                "-".to_string()
            } else {
                format!("{} x{}", row.resize, row.resizes)
            },
            row.entries.to_string(),
            row.forced_invalidations.to_string(),
            row.outcome_digest.clone(),
        ]);
    }
    println!();
    table.print();
    println!(
        "\nall {} cells bit-identical to serial application: {}",
        rows.len(),
        rows.iter().all(|r| r.matches_serial)
    );

    let bench = ServiceBench {
        scale: scale_name.to_string(),
        spec: SPEC.to_string(),
        cores: CORES,
        requests,
        rows,
    };
    write_json("BENCH_service", &bench);
}
