//! Live-resize determinism suite (ARCHITECTURE.md Contract #10).
//!
//! An armed [`ResizePolicy`](ccd_service::ResizePolicy) must not weaken any
//! part of the service's determinism contract:
//!
//! * resize-armed runs are bit-identical across worker counts and equal to
//!   the resize-armed serial reference ([`ServiceReport::semantics`]);
//! * a crash mid-stream recovers by journal replay that *re-fires* the same
//!   resizes, so the post-recovery report still matches the fault-free
//!   armed serial reference ([`ServiceReport::recovery_semantics`]);
//! * a run that grew to some final geometry matches a statically
//!   provisioned serial run at that geometry on the attempt-independent
//!   view ([`ServiceReport::resize_semantics`]), provided neither run
//!   forced evictions;
//! * non-resizable organizations turn an armed policy into a silent no-op.
//!
//! [`ServiceReport::semantics`]: ccd_service::ServiceReport::semantics
//! [`ServiceReport::recovery_semantics`]: ccd_service::ServiceReport::recovery_semantics
//! [`ServiceReport::resize_semantics`]: ccd_service::ServiceReport::resize_semantics

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_common::{CacheId, LineAddr};
use ccd_directory::DirectoryOp;
use ccd_service::{DirectoryService, ServiceConfig};

/// The policy every test arms: grow the set count 2x at 60 % occupancy,
/// checking every 64 requests per shard, once per shard.  The 60 %
/// threshold with a 64-request epoch keeps shards well below saturation
/// when they fire, so no run here ever discards an entry.
const POLICY: &str = "resize-grow2@60-every64-max1";

/// A deterministic stream over ~1200 distinct blocks: mostly sharer adds
/// (so shards actually fill), plus probes and exclusive upgrades.  Roughly
/// 300 distinct blocks land on each of 4 shards — past the 256-entry
/// initial shard capacity of `cuckoo-4x256`, so the run *needs* the grown
/// geometry, and at 58 % of the grown capacity, comfortably inside it.
fn ops(n: u64) -> Vec<DirectoryOp> {
    let mut rng = SplitMix64::new(0x5EED);
    (0..n)
        .map(|i| {
            let line = LineAddr::from_block_number(rng.next_below(1200));
            let cache = CacheId::new((i % 8) as u32);
            match i % 6 {
                0..=3 => DirectoryOp::AddSharer { line, cache },
                4 => DirectoryOp::Probe { line },
                _ => DirectoryOp::SetExclusive { line, cache },
            }
        })
        .collect()
}

fn build(spec: &str, shards: usize, workers: usize, resize: Option<&str>) -> DirectoryService {
    let mut config = ServiceConfig::new(spec, shards, workers).with_batch(64);
    if let Some(policy) = resize {
        config = config.with_resize_spec(policy).unwrap();
    }
    DirectoryService::build_standard(config).unwrap()
}

#[test]
fn armed_runs_are_bit_identical_across_worker_counts() {
    let stream = ops(6_000);
    let serial = build("cuckoo-4x256-c8", 4, 1, Some(POLICY)).run_serial(stream.iter().copied());
    assert_eq!(
        serial.stats.resizes.get(),
        4,
        "every shard must grow exactly once"
    );
    assert_eq!(serial.stats.directory.insertion_failures.get(), 0);
    for workers in [1, 2, 4] {
        let report = build("cuckoo-4x256-c8", 4, workers, Some(POLICY))
            .run(stream.iter().copied())
            .unwrap();
        assert_eq!(
            report.semantics(),
            serial.semantics(),
            "{workers} armed workers must be bit-identical to the armed serial reference"
        );
    }
}

#[test]
fn bfs_specs_obey_the_same_armed_contract() {
    let stream = ops(4_000);
    let serial =
        build("cuckoo-4x256-bfs-c8", 4, 1, Some(POLICY)).run_serial(stream.iter().copied());
    assert!(serial.stats.resizes.get() > 0);
    let report = build("cuckoo-4x256-bfs-c8", 4, 4, Some(POLICY))
        .run(stream.iter().copied())
        .unwrap();
    assert_eq!(report.semantics(), serial.semantics());
}

#[test]
fn a_reway_from_four_to_eight_ways_obeys_the_armed_contract() {
    // `reway8` swaps the probe compiled for four ways for the one compiled
    // for eight under a running shard.
    const REWAY: &str = "resize-reway8@50-every64-max1";
    let stream = ops(6_000);
    let serial =
        build("cuckoo-4x256-strong-c8", 4, 1, Some(REWAY)).run_serial(stream.iter().copied());
    assert_eq!(
        serial.stats.resizes.get(),
        4,
        "every shard must re-way exactly once"
    );
    assert_eq!(serial.stats.directory.insertion_failures.get(), 0);
    for workers in [1, 2, 4] {
        let report = build("cuckoo-4x256-strong-c8", 4, workers, Some(REWAY))
            .run(stream.iter().copied())
            .unwrap();
        assert_eq!(
            report.semantics(),
            serial.semantics(),
            "{workers} re-wayed workers must be bit-identical to the serial reference"
        );
    }
}

#[test]
fn a_grown_run_matches_the_statically_provisioned_reference() {
    let stream = ops(6_000);
    // cuckoo-4x256 across 4 shards grows (2x sets per shard) into exactly
    // what cuckoo-4x512 across 4 shards is born as.
    let grown = build("cuckoo-4x256-c8", 4, 1, Some(POLICY)).run_serial(stream.iter().copied());
    let fixed = build("cuckoo-4x512-c8", 4, 1, None).run_serial(stream.iter().copied());
    assert_eq!(grown.stats.resizes.get(), 4);
    assert_eq!(fixed.stats.resizes.get(), 0);
    // The comparison is only meaningful when neither run forced evictions.
    assert_eq!(grown.stats.directory.insertion_failures.get(), 0);
    assert_eq!(fixed.stats.directory.insertion_failures.get(), 0);
    // Labels embed the (different) initial geometries; attempts took
    // different displacement chains — but what the directory decided is
    // identical.
    assert_ne!(grown.organization, fixed.organization);
    assert_eq!(grown.resize_semantics(), fixed.resize_semantics());
    // And the concurrent armed run matches both.
    let concurrent = build("cuckoo-4x256-c8", 4, 2, Some(POLICY))
        .run(stream.iter().copied())
        .unwrap();
    assert_eq!(concurrent.resize_semantics(), fixed.resize_semantics());
}

#[test]
fn resizes_refire_identically_through_journal_replay() {
    let stream = ops(6_000);
    let serial = build("cuckoo-4x256-c8", 4, 1, Some(POLICY)).run_serial(stream.iter().copied());
    // Worker 1 (owning shards 1 and 3) crashes at seq 2000 — well after
    // its shards' resizes fired, so the replay must re-fire them to
    // rebuild identical state.  A second crash point lands inside the
    // journaled range and fires *during* replay.
    let config = ServiceConfig::new("cuckoo-4x256-c8", 4, 2)
        .with_batch(64)
        .with_resize_spec(POLICY)
        .unwrap()
        .with_fault_spec("faults-crash@w1:2000-crash@w1:1500")
        .unwrap();
    let report = DirectoryService::build_standard(config)
        .unwrap()
        .run(stream.iter().copied())
        .unwrap();
    assert!(report.stats.recoveries.get() >= 2);
    assert_eq!(
        report.stats.resizes.get(),
        4,
        "replay rebuilds from scratch; resizes must not double-count"
    );
    assert_eq!(report.recovery_semantics(), serial.recovery_semantics());
}

#[test]
fn non_resizable_organizations_ignore_an_armed_policy() {
    let stream = ops(3_000);
    let armed = build("sparse-4x256-c8", 4, 1, Some(POLICY)).run_serial(stream.iter().copied());
    let unarmed = build("sparse-4x256-c8", 4, 1, None).run_serial(stream.iter().copied());
    assert_eq!(armed.stats.resizes.get(), 0);
    assert_eq!(armed.semantics(), unarmed.semantics());
}
