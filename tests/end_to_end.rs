//! End-to-end integration tests: full workload → trace → caches →
//! directory → report pipelines, checking the qualitative results of the
//! paper's evaluation at reduced scale.

use cuckoo_directory::prelude::*;

/// A scaled-down Shared-L2 system (4 cores, 16 KB L1s) so the integration
/// tests run in seconds while exercising the same code paths as the paper's
/// 16-core configuration.
fn small_shared() -> SystemConfig {
    SystemConfig {
        num_cores: 4,
        l1: CacheConfig::new(128, 2, 64),
        private_l2: CacheConfig::new(512, 8, 64),
        ..SystemConfig::shared_l2(4)
    }
}

fn small_private() -> SystemConfig {
    small_shared().with_hierarchy(Hierarchy::PrivateL2)
}

/// One of the paper's nine workloads (Table 2), by name.
fn paper_workload(name: &str) -> WorkloadProfile {
    WorkloadProfile::all_paper_workloads()
        .into_iter()
        .find(|p| p.name == name)
        .expect("a Table 2 workload")
}

fn run(
    system: &SystemConfig,
    spec: &DirectorySpec,
    profile: &WorkloadProfile,
    seed: u64,
) -> SimReport {
    let mut trace = TraceGenerator::new(profile.clone(), system.num_cores, seed);
    let warm = system.total_tracked_frames() as u64 * 8;
    let measure = system.total_tracked_frames() as u64 * 4;
    CmpSimulator::run_workload(system.clone(), spec, &mut trace, warm, measure)
        .expect("simulation must build")
}

#[test]
fn figure12_ordering_sparse_vs_skewed_vs_cuckoo() {
    // The qualitative result of Figure 12: low-provisioned Sparse and Skewed
    // directories conflict noticeably, generously provisioned Sparse much
    // less, and the Cuckoo directory — with the *least* capacity of all —
    // is near zero, for a sharing-heavy server workload.
    let system = small_shared();
    let profile = WorkloadProfile::oracle();
    let sparse1 = run(&system, &DirectorySpec::sparse(8, 1.0), &profile, 1);
    let sparse8 = run(&system, &DirectorySpec::sparse(8, 4.0), &profile, 1);
    let skewed1 = run(&system, &DirectorySpec::skewed(4, 1.0), &profile, 1);
    let cuckoo = run(&system, &DirectorySpec::cuckoo(4, 1.0), &profile, 1);

    assert!(
        sparse1.forced_invalidation_rate() > 10.0 * sparse8.forced_invalidation_rate(),
        "over-provisioning must cut the sparse conflict rate dramatically ({} vs {})",
        sparse1.forced_invalidation_rate(),
        sparse8.forced_invalidation_rate()
    );
    assert!(
        skewed1.forced_invalidation_rate() > cuckoo.forced_invalidation_rate(),
        "a same-capacity skewed directory must conflict more than the cuckoo directory"
    );
    assert!(
        sparse1.forced_invalidation_rate() > 20.0 * cuckoo.forced_invalidation_rate(),
        "the cuckoo directory must eliminate the conflicts a same-capacity sparse suffers ({} vs {})",
        sparse1.forced_invalidation_rate(),
        cuckoo.forced_invalidation_rate()
    );
    assert!(
        cuckoo.forced_invalidation_rate() < 0.005,
        "cuckoo at 1x must be near zero, got {}",
        cuckoo.forced_invalidation_rate()
    );
}

#[test]
fn figure8_private_l2_occupancy_orders_ocean_above_oltp() {
    // ocean is dominated by unique private blocks, so its Private-L2
    // directory occupancy is higher than DB2's, whose shared blocks are
    // deduplicated by the directory (Figure 8).
    let system = small_private();
    let spec = DirectorySpec::cuckoo(4, 2.0);
    let ocean = run(&system, &spec, &WorkloadProfile::ocean(), 3);
    let db2 = run(&system, &spec, &WorkloadProfile::db2(), 3);
    assert!(
        ocean.avg_directory_occupancy > db2.avg_directory_occupancy,
        "ocean {} should exceed DB2 {}",
        ocean.avg_directory_occupancy,
        db2.avg_directory_occupancy
    );
}

#[test]
fn duplicate_tag_never_forces_invalidations_in_the_full_pipeline() {
    let system = small_shared();
    let report = run(
        &system,
        &DirectorySpec::DuplicateTag,
        &WorkloadProfile::apache(),
        5,
    );
    assert_eq!(report.forced_invalidations, 0);
    assert_eq!(report.directory.forced_evictions.get(), 0);
    assert!(report.refs_processed > 0);
}

#[test]
fn tagless_matches_exact_directories_on_protocol_behaviour() {
    // Tagless may send extra (false-positive) invalidations but must never
    // force evictions, and its cache-side behaviour matches the exact
    // directories (same trace, same caches).
    let system = small_shared();
    let profile = paper_workload("Zeus");
    let tagless = run(&system, &DirectorySpec::Tagless, &profile, 9);
    let cuckoo = run(&system, &DirectorySpec::cuckoo(4, 2.0), &profile, 9);
    assert_eq!(tagless.directory.forced_evictions.get(), 0);
    assert_eq!(tagless.cache_accesses, cuckoo.cache_accesses);
    assert!(tagless.coherence_invalidations >= cuckoo.coherence_invalidations);
}

#[test]
fn under_provisioned_cuckoo_degrades_gracefully() {
    // Figure 9: below 1x the attempts and forced invalidations rise sharply,
    // but the system keeps running and the directory never overflows.
    let system = small_shared();
    let profile = paper_workload("Qry17");
    let provisioned = run(&system, &DirectorySpec::cuckoo(4, 1.0), &profile, 11);
    let starved = run(&system, &DirectorySpec::cuckoo(3, 0.375), &profile, 11);
    assert!(starved.avg_insertion_attempts() > provisioned.avg_insertion_attempts());
    assert!(starved.forced_invalidation_rate() > provisioned.forced_invalidation_rate());
    assert!(provisioned.forced_invalidation_rate() < 0.01);
}

#[test]
fn event_mix_is_roughly_balanced_like_the_paper_footnote() {
    // Footnote 1 of Section 5.6: insertions, sharer adds, sharer removes and
    // tag removes each account for roughly a quarter of directory
    // operations, invalidate-alls for a small remainder.
    let system = small_shared();
    let report = run(
        &system,
        &DirectorySpec::cuckoo(4, 1.0),
        &WorkloadProfile::db2(),
        13,
    );
    let mix = report.directory.event_mix();
    assert!((mix.total() - 1.0).abs() < 1e-9);
    assert!(mix.insert_tag > 0.05 && mix.insert_tag < 0.6);
    assert!(mix.remove_sharer + mix.remove_tag > 0.2);
    assert!(mix.invalidate_all < 0.3);
}

#[test]
fn shared_and_private_hierarchies_track_the_right_cache_level() {
    let shared = run(
        &small_shared(),
        &DirectorySpec::cuckoo(4, 1.0),
        &WorkloadProfile::apache(),
        17,
    );
    let private = run(
        &small_private(),
        &DirectorySpec::cuckoo(4, 1.0),
        &WorkloadProfile::apache(),
        17,
    );
    // The private-L2 system has 4x the tracked capacity here, so the same
    // workload misses less and the directory sees fewer insertions per
    // reference.
    assert!(private.cache_miss_rate() < shared.cache_miss_rate());
}
