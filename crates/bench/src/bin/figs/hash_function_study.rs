//! Section 5.5 — hash-function selection study.
//!
//! Compares the paper's two hash families, the skewing functions and strong
//! mixers, along two axes:
//!
//! 1. raw 4-ary cuckoo behaviour at several occupancy targets (average
//!    attempts, failure probability) — `hash_function_study_raw`, and
//! 2. the ocean / Private-L2 system simulation at 1.5× provisioning, the
//!    configuration where the paper observed strong hashes eliminating the
//!    residual forced invalidations — `hash_function_study_sim`.

use crate::{fill_to, Context};
use ccd_bench::SweepSpec;
use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
use ccd_common::{json::Json, obj};
use ccd_cuckoo::CuckooTable;
use ccd_hash::HashKind;
use ccd_workloads::WorkloadProfile;

pub fn run(context: &Context) -> Vec<Json> {
    // Part 1: raw table behaviour — one characterization per (hash, target)
    // grid point, fanned across the runner's workers.
    let grid: Vec<(HashKind, f64)> = HashKind::all()
        .into_iter()
        .flat_map(|kind| [0.5, 0.75, 0.9].map(|target| (kind, target)))
        .collect();
    let raw = context.runner.map(&grid, |&(kind, target)| {
        let mut table = CuckooTable::new(4, 8192, kind, 7).expect("valid geometry");
        let (avg_attempts, failed) = fill_to(&mut table, 0x5EED, target);
        obj! {
            "hash": kind.to_string(),
            "occupancy_target": target,
            "avg_attempts": avg_attempts,
            "failure_percent": failed * 100.0,
        }
    });

    // Part 2: ocean on the Private-L2 system at 1.5x provisioning, as a
    // two-organization sweep (one org per hash family).
    let mut sweep = SweepSpec::new("Section 5.5 hash study")
        .system("Private-L2", SystemConfig::table1(Hierarchy::PrivateL2))
        .workload(WorkloadProfile::ocean())
        .scale(context.scale)
        .base_seed(0x0CEA);
    for hash in [HashKind::Skewing, HashKind::Strong] {
        let (ways, provisioning) = (3, 1.5);
        let spec = DirectorySpec::Cuckoo {
            ways,
            provisioning,
            hash,
        };
        sweep = sweep.org(hash.to_string(), spec);
    }
    let results = sweep.run_with(&context.runner).expect("simulation failed");
    let sim = results.cells.iter().map(|cell| {
        obj! {
            "hash": cell.org,
            "workload": cell.workload,
            "forced_invalidation_percent": cell.report.forced_invalidation_rate() * 100.0,
            "avg_attempts": cell.report.avg_insertion_attempts(),
        }
    });
    vec![Json::Arr(raw), Json::Arr(sim.collect())]
}
