//! `bench_chaos` — digest-identity of the supervised directory service
//! under injected faults.
//!
//! Sweeps fault plan × worker count through
//! `ccd_service::DirectoryService`: every cell streams the same
//! deterministic load under an armed `FaultPlan` — scheduled worker
//! crashes (recovered by journal replay), batch stalls, admission-control
//! shedding — and records the recovery counters and the FNV digest of the
//! sequence-ordered outcome log.  Each cell is **asserted digest-identical
//! to the fault-free serial reference**
//! (`ServiceReport::recovery_semantics`): crashing a worker mid-stream
//! must not change a single byte of what the service computes.
//!
//! Nothing here is timed — what a recovery costs is unmeasured until the
//! repository benchmark grows a workload for it — so every byte of
//! `BENCH_chaos.json` under the results directory is deterministic and the
//! quick-scale output is golden-checked whole.

use ccd_bench::{write_json, RunScale, TextTable};
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};

/// Shard organization: a 16 K-entry 4-way cuckoo directory tracking 16
/// caches (the `bench_service` organization).
const SPEC: &str = "cuckoo-4x4096-c16";
const CORES: usize = 16;
const SHARDS: usize = 4;
const BASE_SEED: u64 = 0xC4A0;
const WORKLOAD: &str = "migratory-zipf0.9";
const WORKER_AXIS: &[usize] = &[1, 2, 4];

#[derive(Debug)]
struct ChaosRow {
    plan: String,
    workers: usize,
    requests: u64,
    recoveries: u64,
    shed: u64,
    entries: u64,
    invalidations: u64,
    forced_invalidations: u64,
    outcome_digest: String,
    matches_serial: bool,
}
ccd_bench::impl_to_json!(ChaosRow {
    plan,
    workers,
    requests,
    recoveries,
    shed,
    entries,
    invalidations,
    forced_invalidations,
    outcome_digest,
    matches_serial,
});

#[derive(Debug)]
struct ChaosBench {
    scale: String,
    spec: String,
    workload: String,
    cores: usize,
    shards: usize,
    requests: u64,
    serial_digest: String,
    rows: Vec<ChaosRow>,
}
ccd_bench::impl_to_json!(ChaosBench {
    scale,
    spec,
    workload,
    cores,
    shards,
    requests,
    serial_digest,
    rows,
});

fn requests_for(scale_name: &str) -> u64 {
    match scale_name {
        "quick" => 100_000,
        "full" => 2_000_000,
        _ => 500_000,
    }
}

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

fn run_cell(workers: usize, plan: &str, load: &LoadSpec) -> ServiceReport {
    let config = ServiceConfig::new(SPEC, SHARDS, workers)
        .with_fault_spec(plan)
        .expect("bench fault plan parses");
    DirectoryService::build_standard(config)
        .expect("bench topology builds")
        .run_load(load)
        .expect("recoverable bench plan recovers")
}

fn main() {
    let (_, scale_name) = RunScale::from_env_named();
    let requests = requests_for(scale_name);
    let plans = plans_for(requests);
    println!("== BENCH_chaos: fault injection and recovery determinism ==");
    println!(
        "   spec {SPEC}, {WORKLOAD}, {requests} requests/cell, scale {scale_name}, \
         {} plans x workers {WORKER_AXIS:?}",
        plans.len()
    );

    let load = LoadSpec::parse(WORKLOAD, CORES, BASE_SEED, requests).expect("workload parses");

    // The fault-free digest-identity reference.
    let serial = DirectoryService::build_standard(ServiceConfig::new(SPEC, SHARDS, 1))
        .expect("bench topology builds")
        .run_load_serial(&load)
        .expect("serial reference runs");

    let mut rows: Vec<ChaosRow> = Vec::new();
    for plan in &plans {
        for &workers in WORKER_AXIS {
            let report = run_cell(workers, plan, &load);
            let matches_serial = report.recovery_semantics() == serial.recovery_semantics();
            assert!(
                matches_serial,
                "`{plan}` x {workers} workers diverged from the fault-free \
                 serial reference"
            );
            rows.push(ChaosRow {
                plan: plan.clone(),
                workers,
                requests: report.requests,
                recoveries: report.stats.recoveries.get(),
                shed: report.stats.shed.get(),
                entries: report.entries as u64,
                invalidations: report.stats.invalidations.get(),
                forced_invalidations: report.stats.forced_invalidations.get(),
                outcome_digest: format!("{:016x}", report.outcome_digest),
                matches_serial,
            });
        }
    }

    let mut table = TextTable::new(vec!["plan", "workers", "recoveries", "shed", "digest"]);
    for row in &rows {
        table.add_row(vec![
            row.plan.clone(),
            row.workers.to_string(),
            row.recoveries.to_string(),
            row.shed.to_string(),
            row.outcome_digest.clone(),
        ]);
    }
    println!();
    table.print();
    println!(
        "\nall {} cells digest-identical to the fault-free serial reference: {}",
        rows.len(),
        rows.iter().all(|r| r.matches_serial)
    );

    let bench = ChaosBench {
        scale: scale_name.to_string(),
        spec: SPEC.to_string(),
        workload: WORKLOAD.to_string(),
        cores: CORES,
        shards: SHARDS,
        requests,
        serial_digest: format!("{:016x}", serial.outcome_digest),
        rows,
    };
    write_json("BENCH_chaos", &bench);
}
