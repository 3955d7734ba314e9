//! Cross-checks between the analytical energy/area model and the
//! simulator: where both exist at the same size they must mean the same
//! system and the same slice geometry (the bit accounting is one function,
//! so there is nothing of it to compare), and the model's qualitative claims
//! must be visible in the simulator.

use ccd_energy::orgs::storage_profile;
use ccd_energy::{DirOrg, EnergyModel};
use cuckoo_directory::directory::StorageProfile;
use cuckoo_directory::prelude::*;

/// The model's own slice environment of the paper's 16-core Shared-L2
/// system, which `the_models_environment_is_the_table_1_systems` ties to the
/// simulator's `SystemConfig`.
fn shared_16core_env() -> ccd_energy::orgs::SliceEnvironment {
    EnergyModel::shared_l2().slice_environment(16)
}

#[test]
fn the_models_environment_is_the_table_1_systems() {
    for (model, hierarchy) in [
        (EnergyModel::shared_l2(), Hierarchy::SharedL2),
        (EnergyModel::private_l2(), Hierarchy::PrivateL2),
    ] {
        let system = SystemConfig::table1(hierarchy);
        let env = model.slice_environment(system.num_cores);
        assert_eq!(env.num_caches, system.num_private_caches());
        assert_eq!(env.tracked_frames, system.tracked_frames_per_slice());
        assert_eq!(env.tracked_sets, system.tracked_sets_per_slice());
        assert_eq!(env.cache_ways, system.tracked_cache().ways);
        // A shared L2 is `private_l2`-sized per core; Private-L2 has none.
        let (l2_frames, l2_ways) = match hierarchy {
            Hierarchy::SharedL2 => (system.private_l2.frames(), system.private_l2.ways),
            Hierarchy::PrivateL2 => (0, 0),
        };
        assert_eq!(env.l2_frames_per_slice, l2_frames);
        assert_eq!(env.l2_ways, l2_ways);
    }
}

/// The bits of the tagged slice the simulator would build for `spec`.
fn resolved_tagged_profile(spec: &DirectorySpec) -> StorageProfile {
    let system = SystemConfig::table1(Hierarchy::SharedL2);
    let slice = spec.resolve(&system).expect("valid spec");
    StorageProfile::tagged(
        slice.ways,
        slice.sets,
        slice.sharers.entry_bits(slice.caches),
    )
}

#[test]
fn analytical_and_executable_sparse_profiles_agree() {
    // Sparse 8-way 2x: the simulator's (full-vector) slice vs the model's.
    let analytical = storage_profile(
        &DirOrg::SparseFullVector {
            ways: 8,
            provisioning: 2.0,
        },
        &shared_16core_env(),
    );
    assert_eq!(
        resolved_tagged_profile(&DirectorySpec::sparse(8, 2.0)),
        analytical
    );
}

#[test]
fn analytical_and_executable_cuckoo_profiles_agree() {
    // The executable simulator uses full-vector entries; the matching
    // analytical organization is the 4-way 1x structure with full vectors.
    let analytical = storage_profile(
        &DirOrg::SparseFullVector {
            ways: 4,
            provisioning: 1.0,
        },
        &shared_16core_env(),
    );
    assert_eq!(
        resolved_tagged_profile(&DirectorySpec::cuckoo(4, 1.0)),
        analytical
    );
}

/// The bits of the Duplicate-Tag slice the simulator would build for the
/// 16-core system of `hierarchy`.
fn resolved_duplicate_tag_profile(hierarchy: Hierarchy) -> StorageProfile {
    let slice = DirectorySpec::DuplicateTag
        .resolve(&SystemConfig::table1(hierarchy))
        .expect("valid spec");
    StorageProfile::duplicate_tag(slice.sets, slice.ways, slice.caches)
}

#[test]
fn analytical_and_executable_duplicate_tag_profiles_agree() {
    assert_eq!(
        resolved_duplicate_tag_profile(Hierarchy::SharedL2),
        storage_profile(&DirOrg::DuplicateTag, &shared_16core_env())
    );
}

#[test]
fn duplicate_tag_lookup_width_matches_the_paper_arithmetic() {
    // Section 3.1: the Duplicate-Tag associativity equals cache associativity
    // x cache count; for the Shared-L2 16-core system that is 2 x 32 = 64.
    let shared = resolved_duplicate_tag_profile(Hierarchy::SharedL2);
    assert_eq!(shared.comparators_per_lookup, 64);
    // And for the Private-L2 configuration, 16 x 16 = 256.
    let private = resolved_duplicate_tag_profile(Hierarchy::PrivateL2);
    assert_eq!(private.comparators_per_lookup, 256);
}

#[test]
fn model_scaling_claims_match_the_paper_shape() {
    let shared = EnergyModel::shared_l2();
    let cores = EnergyModel::paper_core_counts();
    // Cuckoo stays flat; Duplicate-Tag grows roughly linearly per core.
    let cuckoo: Vec<f64> = shared
        .sweep(&DirOrg::cuckoo_coarse_shared(), &cores)
        .iter()
        .map(|p| p.energy_relative)
        .collect();
    let dup: Vec<f64> = shared
        .sweep(&DirOrg::DuplicateTag, &cores)
        .iter()
        .map(|p| p.energy_relative)
        .collect();
    assert!(cuckoo.last().unwrap() / cuckoo.first().unwrap() < 1.5);
    assert!(dup.last().unwrap() / dup.first().unwrap() > 30.0);
    // The crossover the paper highlights: at 16 cores Tagless is competitive
    // with (or better than) the compressed Sparse organizations on energy,
    // but by 1024 cores it is far worse.
    let tagless_16 = shared.evaluate(&DirOrg::Tagless, 16).energy_relative;
    let tagless_1024 = shared.evaluate(&DirOrg::Tagless, 1024).energy_relative;
    let sparse = DirOrg::SparseCoarse {
        ways: 8,
        provisioning: 8.0,
    };
    let sparse_16 = shared.evaluate(&sparse, 16).energy_relative;
    let sparse_1024 = shared.evaluate(&sparse, 1024).energy_relative;
    assert!(tagless_16 < 4.0 * sparse_16);
    assert!(tagless_1024 > 4.0 * sparse_1024);
}

#[test]
fn measured_event_mix_can_drive_the_energy_model() {
    // Feed a simulator-measured event mix into the analytical model — the
    // intended workflow for Figure 13 — and check it produces finite,
    // positive energies that respond to the mix.
    let system = SystemConfig {
        num_cores: 4,
        l1: CacheConfig::new(128, 2, 64),
        ..SystemConfig::shared_l2(4)
    };
    let mut trace = TraceGenerator::new(WorkloadProfile::db2(), 4, 21);
    let report = CmpSimulator::run_workload(
        system,
        &DirectorySpec::cuckoo(4, 1.0),
        &mut trace,
        50_000,
        50_000,
    )
    .unwrap();
    let mix = report.directory.event_mix();
    let attempts = report.avg_insertion_attempts();
    let model = EnergyModel::shared_l2()
        .with_event_mix(mix)
        .with_cuckoo_attempts(attempts);
    let point = model.evaluate(&DirOrg::cuckoo_coarse_shared(), 16);
    assert!(point.energy_relative > 0.0 && point.energy_relative.is_finite());
    assert!(point.area_relative > 0.0 && point.area_relative < 1.0);
}
