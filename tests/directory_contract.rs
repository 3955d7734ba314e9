//! Cross-organization contract tests: every `Directory` implementation in
//! the workspace must expose the same observable semantics to the coherence
//! protocol, differing only in conflict behaviour and conservativeness.
//!
//! The suite is driven two ways:
//!
//! * through the runtime builder registry (`ccd_cuckoo::standard_registry`)
//!   from spec strings — covering all six organizations, compressed sharer
//!   formats and sharded composition, and
//! * through the paper-style provisioning specs of `ccd-coherence`.

use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
use ccd_common::rng::{Rng64, SplitMix64};
use ccd_common::stats::Fnv64;
use ccd_cuckoo::standard_registry;
use ccd_directory::DirectorySpec as RegistrySpec;
use ccd_directory::{DepthMetrics, DirectoryOp, DirectoryStats, Org, Outcome};
use cuckoo_directory::prelude::*;

/// Every organization (and modifier axis) constructible from the registry.
const REGISTRY_SPECS: &[&str] = &[
    "cuckoo-4x512-skew",
    "cuckoo-3x1024-strong",
    "cuckoo-4x512@coarse",
    "cuckoo-4x512@limited",
    "cuckoo-4x512@hier",
    "sparse-8x512",
    "sparse-8x512@coarse",
    "skewed-4x1024",
    "skewed-4x1024-strong",
    "duplicate-tag-2x32",
    "in-cache-16x64",
    "tagless-2x32",
    "sharded4:cuckoo-4x512-skew",
    "sharded2:sparse-8x512",
];

fn paper_specs() -> Vec<DirectorySpec> {
    vec![
        DirectorySpec::cuckoo(4, 1.0),
        DirectorySpec::cuckoo(3, 1.5),
        DirectorySpec::sparse(8, 2.0),
        DirectorySpec::skewed(4, 2.0),
        DirectorySpec::DuplicateTag,
        DirectorySpec::InCache,
        DirectorySpec::Tagless,
    ]
}

/// Builds every directory under test, labelled for assertion messages.
fn all_dirs() -> Vec<(String, Box<dyn Directory>)> {
    let registry = standard_registry();
    let system = SystemConfig::table1(Hierarchy::SharedL2);
    let mut dirs: Vec<(String, Box<dyn Directory>)> = REGISTRY_SPECS
        .iter()
        .map(|spec| {
            (
                (*spec).to_string(),
                registry.build_str(spec).expect("registry spec builds"),
            )
        })
        .collect();
    dirs.extend(paper_specs().into_iter().map(|spec| {
        (
            spec.label(),
            spec.build_slice(&system)
                .expect("paper configurations build"),
        )
    }));
    dirs
}

fn add(line: LineAddr, cache: CacheId) -> DirectoryOp {
    DirectoryOp::AddSharer { line, cache }
}

/// `Probe`'s answer: `None` on a miss, the reported sharers on a hit.
fn probe(dir: &mut dyn Directory, line: LineAddr) -> Option<Vec<CacheId>> {
    let mut out = Outcome::new();
    dir.apply(DirectoryOp::Probe { line }, &mut out);
    out.hit().then(|| out.sharers().to_vec())
}

#[test]
fn every_registry_spec_constructs_at_runtime() {
    let registry = standard_registry();
    for spec in REGISTRY_SPECS {
        let dir = registry.build_str(spec).expect(spec);
        assert!(dir.capacity() > 0, "{spec}");
        assert!(dir.is_empty(), "{spec}");
        assert!(!dir.organization().is_empty(), "{spec}");
    }
    // Every organization is named by some spec under test.
    for org in Org::ALL {
        let named = |spec: &&str| spec.parse::<RegistrySpec>().is_ok_and(|s| s.org == org);
        assert!(REGISTRY_SPECS.iter().any(named), "no spec builds {org}");
    }
}

#[test]
fn former_probe_tokens_are_unknown_modifiers_and_registry_specs_round_trip() {
    // The spec grammar has no probe slot: the tokens that used to pin a
    // kernel fail like any other unknown modifier, quoting the token.
    for (input, token) in [
        ("cuckoo-4x64-strong-localized", "`localized`"),
        ("cuckoo-4x64-strong-simd-c8", "`simd`"),
        ("sparse-4x64-swar", "`swar`"),
        ("sharded2:cuckoo-4x64-scalar", "`scalar`"),
    ] {
        let err = match input.parse::<RegistrySpec>() {
            Err(err) => err.to_string(),
            Ok(spec) => panic!("{input} must not parse (got {spec})"),
        };
        assert!(err.contains("unknown modifier"), "{input}: {err}");
        assert!(err.contains(token), "{input}: {err}");
    }
    for input in REGISTRY_SPECS.iter().chain(PIPELINE_SPECS) {
        let spec: RegistrySpec = input.parse().expect(input);
        let reparsed: RegistrySpec = spec.to_string().parse().expect(input);
        assert_eq!(reparsed, spec, "{input}");
    }
}

#[test]
fn sharers_are_always_a_superset_of_what_was_added() {
    for (label, mut dir) in all_dirs() {
        let caches = dir.num_caches();
        let mut rng = SplitMix64::new(1);
        let mut out = Outcome::new();
        // Track a modest number of lines so even small organizations hold
        // them without conflicts, and verify the superset property.
        let mut expected: Vec<(LineAddr, Vec<CacheId>)> = Vec::new();
        for i in 0..64u64 {
            let line = LineAddr::from_block_number(i * 131);
            let holders: Vec<CacheId> = (0..3)
                .map(|_| CacheId::new(rng.next_below(caches as u64) as u32))
                .collect();
            for &c in &holders {
                dir.apply(add(line, c), &mut out);
            }
            expected.push((line, holders));
        }
        for (line, holders) in &expected {
            if !dir.contains(*line) {
                // Conflict-prone organizations may have evicted the entry;
                // that is legal, but then it must not claim to track it.
                assert!(probe(dir.as_mut(), *line).is_none(), "{label}");
                continue;
            }
            let reported = probe(dir.as_mut(), *line).expect("tracked line has sharers");
            for holder in holders {
                assert!(
                    reported.contains(holder),
                    "{label}: reported sharers {reported:?} missing true holder {holder}",
                );
                assert!(
                    dir.may_hold(*line, *holder),
                    "{label}: may_hold denies true holder {holder}",
                );
            }
        }
    }
}

/// The reads of an entry are one answer: `Probe` hits exactly where
/// `contains` holds, and its list is `{c : may_hold(line, c)}` in ascending
/// order (empty on a miss) — over `all_dirs()` and over every compressed
/// sharer format below and above one vector word, unsharded and sharded,
/// where `may_contain` and `extend_targets` are separate code.
#[test]
fn probe_may_hold_and_contains_agree_after_a_random_op_stream() {
    fn check(label: &str, dir: &mut dyn Directory, line: LineAddr, out: &mut Outcome) {
        dir.apply(DirectoryOp::Probe { line }, out);
        assert_eq!(out.hit(), dir.contains(line), "{label}: {line:?}");
        let may_hold: Vec<CacheId> = (0..dir.num_caches() as u32)
            .map(CacheId::new)
            .filter(|&cache| dir.may_hold(line, cache))
            .collect();
        assert_eq!(out.sharers(), may_hold, "{label}: {line:?}");
    }

    let registry = standard_registry();
    let mut dirs = all_dirs();
    for org in ["cuckoo-4x64", "sparse-4x64", "skewed-4x64", "in-cache-4x64"] {
        for format in ["limited", "coarse", "hier"] {
            for caches in [8, 100] {
                for shards in ["", "sharded2:", "sharded4:"] {
                    let spec = format!("{shards}{org}-c{caches}@{format}");
                    let dir = registry.build_str(&spec).expect(&spec);
                    dirs.push((spec, dir));
                }
            }
        }
    }
    for (label, mut dir) in dirs {
        let dir = dir.as_mut();
        let mut out = Outcome::new();
        let line = LineAddr::from_block_number(0x1CE);
        check(&label, dir, line, &mut out);
        assert!(!out.hit(), "{label}: probe of untracked line must miss");
        assert!(out.sharers().is_empty(), "{label}");

        for c in [0u32, 2, 7] {
            dir.apply(add(line, CacheId::new(c)), &mut out);
        }
        check(&label, dir, line, &mut out);
        assert!(out.hit(), "{label}");

        let caches = dir.num_caches() as u64;
        let lines: Vec<LineAddr> = (0..48u64)
            .map(|i| LineAddr::from_block_number(i * 13))
            .collect();
        let mut rng = SplitMix64::new(0x3EAD5);
        for step in 0..600 {
            let line = lines[rng.next_below(48) as usize];
            let cache = CacheId::new(rng.next_below(caches) as u32);
            let op = match rng.next_below(10) {
                0..=5 => add(line, cache),
                6 | 7 => DirectoryOp::RemoveSharer { line, cache },
                8 => DirectoryOp::SetExclusive { line, cache },
                _ => DirectoryOp::RemoveEntry { line },
            };
            dir.apply(op, &mut out);
            if step % 100 == 99 {
                for &line in &lines {
                    check(&label, dir, line, &mut out);
                }
            }
        }
    }
}

#[test]
fn exclusive_requests_always_cover_previous_sharers() {
    for (label, mut dir) in all_dirs() {
        let line = LineAddr::from_block_number(0xBEEF);
        let mut out = Outcome::new();
        for c in [1u32, 3, 9, 20] {
            dir.apply(add(line, CacheId::new(c)), &mut out);
        }
        let cache = CacheId::new(5);
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        for c in [1u32, 3, 9, 20] {
            assert!(
                out.invalidate().contains(&CacheId::new(c)),
                "{label}: write must invalidate cache{c}",
            );
        }
        assert!(
            !out.invalidate().contains(&CacheId::new(5)),
            "{label}: the writer itself is never invalidated",
        );
        // After the write the writer is (at least) among the sharers.
        assert!(probe(dir.as_mut(), line)
            .expect("line is tracked after a write")
            .contains(&CacheId::new(5)));
    }
}

#[test]
fn removing_all_sharers_eventually_frees_every_entry() {
    for (label, mut dir) in all_dirs() {
        let lines: Vec<LineAddr> = (0..256u64)
            .map(|i| LineAddr::from_block_number(i * 7))
            .collect();
        let mut out = Outcome::new();
        for (i, &line) in lines.iter().enumerate() {
            let cache = CacheId::new((i % dir.num_caches()) as u32);
            dir.apply(add(line, cache), &mut out);
        }
        for (i, &line) in lines.iter().enumerate() {
            let cache = CacheId::new((i % dir.num_caches()) as u32);
            dir.apply(DirectoryOp::RemoveSharer { line, cache }, &mut out);
        }
        assert!(
            dir.is_empty(),
            "{label}: directory still holds {} entries after all sharers left",
            dir.len()
        );
        assert_eq!(dir.occupancy(), 0.0, "{label}");
    }
}

/// The range check every organization makes at its op entry: an
/// `AddSharer`, `SetExclusive` or `RemoveSharer` naming cache `num_caches`
/// (one past the last) panics with "out of range" — one at a time and
/// batched — before it changes anything, and `may_hold` answers `false`
/// for that cache.  Over every organization × sharer format the registry
/// builds, full vectors on both sides of the 64-cache presence word, plain
/// and `sharded2:`.
#[test]
fn an_op_naming_a_cache_past_the_count_panics_at_the_op_entry() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut specs = Vec::new();
    for org in ["cuckoo-4x64", "sparse-4x64", "skewed-4x64", "in-cache-4x64"] {
        for format in ["full", "limited", "coarse", "hier"] {
            for caches in [8, 64, 65] {
                specs.push(format!("{org}-c{caches}@{format}"));
            }
        }
    }
    for org in ["duplicate-tag-2x32", "tagless-2x32"] {
        for caches in [8, 65] {
            specs.push(format!("{org}-c{caches}"));
        }
    }
    let registry = standard_registry();
    for spec in specs
        .iter()
        .flat_map(|spec| [spec.clone(), format!("sharded2:{spec}")])
    {
        let mut dir = registry.build_str(&spec).expect(&spec);
        let caches = dir.num_caches();
        let past = CacheId::new(caches as u32);
        let line = LineAddr::from_block_number(0x5EC);
        let mut out = Outcome::new();
        for cache in [0, caches as u32 - 1].map(CacheId::new) {
            dir.apply(add(line, cache), &mut out);
        }
        let before = (dir.len(), dir.stats(), probe(dir.as_mut(), line));
        assert!(!dir.may_hold(line, past), "{spec}");
        for op in [
            add(line, past),
            DirectoryOp::SetExclusive { line, cache: past },
            DirectoryOp::RemoveSharer { line, cache: past },
        ] {
            for batched in [false, true] {
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    if batched {
                        dir.apply_batch(&[op], &mut out, &mut |_, _| {});
                    } else {
                        dir.apply(op, &mut out);
                    }
                }))
                .expect_err(&format!(
                    "{spec}: {op:?} (batched: {batched}) did not panic"
                ));
                let message = panicked.downcast_ref::<String>().map_or("", String::as_str);
                assert!(message.contains("out of range"), "{spec}: {message}");
                let after = (dir.len(), dir.stats(), probe(dir.as_mut(), line));
                assert_eq!(after, before, "{spec}: {op:?} changed the directory");
            }
        }
        assert!(!dir.may_hold(line, past), "{spec}");
        assert!(!dir.may_hold(line, CacheId::new(u32::MAX)), "{spec}");
    }
}

/// What the compressed sharer formats decide is pinned: a seeded stream of
/// all five ops over a few hundred lines and every cache, on geometries too
/// small for it, so entries overflow their pointers and forced evictions
/// fire.  Every outcome — hit, allocation, the invalidate list, each forced
/// eviction with its targets — is folded into one digest per spec, below
/// and above 64 caches.  A sharer set may change its representation, not
/// these literals.
#[test]
fn compressed_sharer_formats_decide_what_they_were_pinned_to() {
    for (spec, pinned) in [
        ("cuckoo-4x64-c16@coarse", 0x7b56_57a8_1e94_1423),
        ("cuckoo-4x64-c16@limited", 0x85d8_174e_d76b_576e),
        ("cuckoo-4x64-c16@hier", 0x8cb2_2f85_ffa7_740e),
        ("sparse-4x32-c16@coarse", 0xdc50_7738_2c30_db45),
        ("skewed-4x32-c16@limited", 0xc47e_999d_d03c_ebf7),
        ("in-cache-4x32-c16@hier", 0x9cd7_5584_6c4b_8263),
        ("cuckoo-4x64-c100@hier", 0xb0ae_c392_9e0d_e7b0),
        ("sparse-4x32-c100@limited", 0x9fa0_4f81_820a_f8b6),
        ("cuckoo-4x64-c100@coarse", 0x163a_4030_f590_eb82),
    ] {
        let mut dir = standard_registry().build_str(spec).expect(spec);
        let caches = dir.num_caches() as u64;
        let mut rng = SplitMix64::new(0xF0_4A7);
        let (mut out, mut digest, mut evictions) = (Outcome::new(), Fnv64::new(), 0);
        for _ in 0..6_000 {
            let line = LineAddr::from_block_number(rng.next_below(384) * 13);
            let cache = CacheId::new(rng.next_below(caches) as u32);
            let op = match rng.next_below(8) {
                0 => DirectoryOp::Probe { line },
                1 => DirectoryOp::SetExclusive { line, cache },
                2 => DirectoryOp::RemoveSharer { line, cache },
                3 => DirectoryOp::RemoveEntry { line },
                _ => add(line, cache),
            };
            dir.apply(op, &mut out);
            digest
                .fold(u64::from(out.hit()))
                .fold(u64::from(out.allocated_new_entry()))
                .fold(out.invalidate().len() as u64);
            out.invalidate()
                .iter()
                .for_each(|c| _ = digest.fold(c.index() as u64));
            for eviction in out.forced_evictions() {
                evictions += 1;
                digest
                    .fold(eviction.line.block_number())
                    .fold(eviction.targets.len() as u64);
                eviction
                    .targets
                    .iter()
                    .for_each(|c| _ = digest.fold(c.index() as u64));
            }
        }
        assert!(evictions > 0, "{spec}: the stream forced no eviction");
        assert_eq!(digest.finish(), pinned, "{spec}: {:#018x}", digest.finish());
    }
}

#[test]
fn capacity_and_storage_profiles_are_positive_and_consistent() {
    for (label, dir) in all_dirs() {
        assert!(dir.capacity() > 0, "{label}");
    }
}

/// One spec per organization the registry builds (and per cuckoo hash
/// family), `{sets}` left open.
const GEOMETRY_TEMPLATES: &[&str] = &[
    "cuckoo-4x{sets}-c16",
    "cuckoo-3x{sets}-strong",
    "cuckoo-4x{sets}-strong",
    "cuckoo-2x{sets}@hier",
    "sparse-8x{sets}",
    "sparse-1x{sets}@limited",
    "skewed-4x{sets}",
    "duplicate-tag-2x{sets}",
    "in-cache-16x{sets}",
    "tagless-2x{sets}",
    "sharded4:cuckoo-4x{sets}-skew",
    "sharded2:sparse-8x{sets}",
    "sharded4:tagless-2x{sets}",
];

/// A geometry whose `ways x sets` wraps `usize`, or whose slot array no
/// allocation could hold, or whose cache count no cache id can reach, is a
/// `ConfigError` where the spec enters.  Release
/// builds used to wrap the product: `cuckoo-4x4611686018427387904-c16` built
/// a zero-slot directory whose first `Probe` read out of bounds (SIGSEGV),
/// and the five baselines built zero-slot directories that panicked on first
/// use.  Debug builds trap the multiplication instead, so the reproducer is
/// this test under `cargo test --release`.
#[test]
fn geometries_that_cannot_exist_are_errors_not_directories() {
    let registry = standard_registry();
    for template in GEOMETRY_TEMPLATES {
        for sets in [1usize << 61, 1 << 62, 1 << 63] {
            let spec = template.replace("{sets}", &sets.to_string());
            match registry.build_str(&spec) {
                Err(ccd_common::ConfigError::TooLarge { what, .. }) => {
                    assert_eq!(what, "directory capacity", "{spec}");
                }
                Err(other) => panic!("{spec}: rejected for the wrong reason: {other}"),
                Ok(dir) => panic!("{spec}: built {} entries", dir.capacity()),
            }
        }
        // The same template at a size that does exist still builds.
        let spec = template.replace("{sets}", "64");
        assert!(registry.build_str(&spec).expect(&spec).capacity() > 0);
    }

    // Duplicate-Tag and Tagless hold one mirror / filter grid *per cache*,
    // so their capacity has a third factor: 2^54 frames are under
    // `MAX_CAPACITY` and past any address space, whatever the overcommit
    // mode.  (`duplicate-tag-4x64-c4294967295` used to abort the process
    // with "memory allocation of 103079215080 bytes failed".)
    for org in ["duplicate-tag", "tagless"] {
        let spec = format!("{org}-4x1048576-c4294967295");
        match registry.build_str(&spec) {
            Err(ccd_common::ConfigError::TooLarge { what, value, .. }) => {
                assert_eq!(what, "directory capacity", "{spec}");
                assert_eq!(value, (4 << 20) * u64::from(u32::MAX), "{spec}");
            }
            Err(other) => panic!("{spec}: rejected for the wrong reason: {other}"),
            Ok(dir) => panic!("{spec}: built {} entries", dir.capacity()),
        }
    }

    // Cache ids are 32-bit, so a count past `u32::MAX` is no directory
    // either: `sparse-4x64-c4294967296` used to build, and panic inside the
    // sharer vector on its first allocating op.
    for (spec, value) in [
        ("sparse-4x64-c4294967296", 1 << 32),
        ("cuckoo-4x64-skew-c4294967296@coarse", 1 << 32),
        ("duplicate-tag-2x32-c18446744073709551615", u64::MAX),
        ("sharded2:tagless-2x32-c4294967296", 1 << 32),
    ] {
        let (what, max) = ("cache count", u32::MAX.into());
        let want = ccd_common::ConfigError::TooLarge { what, value, max };
        assert_eq!(registry.build_str(spec).err(), Some(want), "{spec}");
    }
}

/// `ccd_coherence::DirectorySpec::resolve` is the whole sizing decision: for
/// both Table 1 systems and every paper configuration, the built slice has
/// the resolved organization and geometry and the system's cache count.
#[test]
fn resolved_specs_describe_the_slices_they_build() {
    for hierarchy in [Hierarchy::SharedL2, Hierarchy::PrivateL2] {
        let system = SystemConfig::table1(hierarchy);
        for spec in paper_specs() {
            let label = format!("{} on {hierarchy:?}", spec.label());
            let resolved = spec.resolve(&system).expect(&label);
            let slice = spec.build_slice(&system).expect(&label);
            assert_eq!(resolved.caches, system.num_private_caches(), "{label}");
            assert_eq!(slice.num_caches(), resolved.caches, "{label}");
            let org = slice.organization();
            assert!(org.starts_with(&resolved.org.to_string()), "{label}: {org}");
            // The mirroring organizations hold one `ways x sets` mirror per
            // tracked cache; the others name their entries outright.
            let entries = resolved.ways * resolved.sets;
            if matches!(resolved.org, Org::DuplicateTag | Org::Tagless) {
                assert_eq!(slice.capacity(), entries * resolved.caches, "{label}");
            } else {
                assert_eq!(slice.capacity(), entries, "{label}");
                let geometry = format!("-{}x{}", resolved.ways, resolved.sets);
                assert!(org.contains(&geometry), "{label}: {org}");
            }
        }
    }
}

#[test]
fn stats_reflect_the_operations_performed() {
    for (label, mut dir) in all_dirs() {
        let line = LineAddr::from_block_number(42);
        let (cache, mut out) = (CacheId::new(0), Outcome::new());
        dir.apply(add(line, cache), &mut out);
        dir.apply(add(line, CacheId::new(1)), &mut out);
        dir.apply(DirectoryOp::RemoveSharer { line, cache }, &mut out);
        let stats = dir.stats();
        assert_eq!(stats.insertions.get(), 1, "{label}");
        assert!(stats.sharer_adds.get() >= 1, "{label}");
        assert!(stats.sharer_removes.get() >= 1, "{label}");
        dir.reset_stats();
        assert_eq!(dir.stats().insertions.get(), 0, "{label}");
    }
}

/// Property test: a 4-way sharded directory is observably equivalent to a
/// single slice of the same total capacity on random op streams, as long as
/// no organization-specific conflicts occur (guaranteed here by keeping
/// occupancy low).
#[test]
fn sharded_directory_is_observably_equivalent_to_a_single_slice() {
    let registry = standard_registry();
    for (single_spec, sharded_spec) in [
        ("cuckoo-4x1024-skew", "sharded4:cuckoo-4x1024-skew"),
        ("sparse-8x512", "sharded4:sparse-8x512"),
    ] {
        let mut single = registry.build_str(single_spec).unwrap();
        let mut sharded = registry.build_str(sharded_spec).unwrap();
        assert_eq!(single.capacity(), sharded.capacity());

        let mut rng = SplitMix64::new(0x5EED5);
        let mut out_a = Outcome::new();
        let mut out_b = Outcome::new();
        let caches = single.num_caches() as u64;
        // ~12% occupancy: far below any conflict threshold, so behaviour
        // must match exactly.
        let blocks = single.capacity() as u64 / 2;
        for step in 0..2000u64 {
            let line = LineAddr::from_block_number(rng.next_below(blocks));
            let cache = CacheId::new(rng.next_below(caches) as u32);
            let op = match rng.next_below(10) {
                0..=4 => DirectoryOp::AddSharer { line, cache },
                5 | 6 => DirectoryOp::RemoveSharer { line, cache },
                7 => DirectoryOp::SetExclusive { line, cache },
                8 => DirectoryOp::Probe { line },
                _ => DirectoryOp::RemoveEntry { line },
            };
            single.apply(op, &mut out_a);
            sharded.apply(op, &mut out_b);

            assert_eq!(out_a.hit(), out_b.hit(), "step {step}: hit diverged");
            assert_eq!(
                out_a.allocated_new_entry(),
                out_b.allocated_new_entry(),
                "step {step}: allocation diverged"
            );
            assert_eq!(
                out_a.removed_entry(),
                out_b.removed_entry(),
                "step {step}: removal diverged"
            );
            let mut inv_a: Vec<CacheId> = out_a.invalidate().to_vec();
            let mut inv_b: Vec<CacheId> = out_b.invalidate().to_vec();
            inv_a.sort_unstable();
            inv_b.sort_unstable();
            assert_eq!(inv_a, inv_b, "step {step}: invalidations diverged");
            assert_eq!(
                out_a.forced_eviction_count(),
                0,
                "step {step}: the single slice must not conflict at this occupancy"
            );
            assert_eq!(out_b.forced_eviction_count(), 0, "step {step}");

            assert_eq!(single.len(), sharded.len(), "step {step}: len diverged");
            assert_eq!(
                single.contains(line),
                sharded.contains(line),
                "step {step}: contains diverged"
            );
            assert_eq!(
                probe(single.as_mut(), line),
                probe(sharded.as_mut(), line),
                "step {step}: sharers diverged"
            );
        }
        // Aggregate statistics agree on the observable counters.
        assert_eq!(
            single.stats().insertions.get(),
            sharded.stats().insertions.get(),
            "{single_spec} vs {sharded_spec}: insertions",
        );
        assert_eq!(
            single.stats().entry_removes.get(),
            sharded.stats().entry_removes.get(),
            "{single_spec} vs {sharded_spec}: entry removes",
        );
        assert_eq!(
            single.stats().sharer_adds.get(),
            sharded.stats().sharer_adds.get(),
            "{single_spec} vs {sharded_spec}: sharer adds",
        );
    }
}

/// Cuckoo geometries the batch pipeline must treat alike, on top of
/// [`REGISTRY_SPECS`]: every way count the table compiles its probe for
/// exactly (2 to 8, across the hash families) and one past that bound (16),
/// full vectors on each side of the 64-cache presence word (64 / 65) and
/// far above it (128), and two tables small enough that the stream below
/// drives them far past capacity.
const PIPELINE_SPECS: &[&str] = &[
    "cuckoo-2x64-strong-c8",
    "cuckoo-3x64-strong-c8",
    "cuckoo-5x32-skew-c8",
    "cuckoo-5x32-strong-c8",
    "cuckoo-6x32-strong-c8",
    "cuckoo-7x32-strong-c8",
    "cuckoo-8x16-skew-c8",
    "cuckoo-16x8-strong-c8",
    "cuckoo-4x64-strong-c8",
    "cuckoo-4x64-skew-c8",
    "cuckoo-4x64-skew-c64",
    "cuckoo-4x64-skew-c65",
    "cuckoo-4x64-skew-c128",
    TINY_TABLE,
    "cuckoo-3x4-strong-c4",
];

/// Eight entries for a stream over 96 lines.
const TINY_TABLE: &str = "cuckoo-2x4-strong-c4";

/// A skewing table of 1,024 sets, which stores `u32` key words: the batch
/// path of the `dir_spill` and `svc_*` slices.
const NARROW_PIPELINE_SPEC: &str = "cuckoo-4x1024-c16";

/// Everything observable about one run of an op stream.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each operation's complete [`Outcome`], in order.
    outcomes: Vec<Outcome>,
    len: usize,
    stats: DirectoryStats,
    depths: Option<DepthMetrics>,
    contents: Vec<Option<Vec<CacheId>>>,
}

fn observe(
    spec: &str,
    lines: &[LineAddr],
    run: impl FnOnce(&mut dyn Directory, &mut dyn FnMut(&DirectoryOp, &Outcome)),
) -> Observed {
    let mut dir = standard_registry().build_str(spec).expect(spec);
    // Armed on both sides where the organization has depth metrics: the
    // distributions are part of what must not differ (contract #11).
    dir.arm_depth_metrics();
    let mut outcomes = Vec::new();
    run(dir.as_mut(), &mut |_, out| outcomes.push(out.clone()));
    Observed {
        outcomes,
        len: dir.len(),
        stats: dir.stats(),
        depths: dir.depth_metrics().cloned(),
        contents: lines
            .iter()
            .map(|&line| probe(dir.as_mut(), line))
            .collect(),
    }
}

/// Drives `ops`, then its prefixes around the pipeline depth (an empty
/// batch, a lone op, a window one short, exact, and one over), through
/// `apply_batch` and through an `apply` loop on fresh `spec` directories,
/// and holds the two to the same observations, contents read at `lines`.
/// Returns what the `apply` loop observed of the whole stream.
fn assert_batch_matches_apply(spec: &str, ops: &[DirectoryOp], lines: &[LineAddr]) -> Observed {
    let depth = ccd_cuckoo::PIPELINE_DEPTH;
    let [whole, ..] = [ops.len(), 0, 1, depth - 1, depth, depth + 1].map(|len| {
        let ops = &ops[..len];
        let expected = observe(spec, lines, |dir, sink| {
            let mut out = Outcome::new();
            for op in ops {
                dir.apply(*op, &mut out);
                sink(op, &out);
            }
        });
        let observed = observe(spec, lines, |dir, sink| {
            dir.apply_batch(ops, &mut Outcome::new(), sink);
        });
        // Per op first, so a divergence names the op it began at.
        for (i, pair) in observed.outcomes.iter().zip(&expected.outcomes).enumerate() {
            assert_eq!(pair.0, pair.1, "{spec}: op {i} of {len} ({:?})", ops[i]);
        }
        assert_eq!(observed, expected, "{spec}: {len} ops");
        assert_eq!(observed.outcomes.len(), len, "{spec}: one outcome per op");
        expected
    });
    whole
}

#[test]
fn apply_batch_is_observably_identical_to_sequential_apply() {
    // The batch entry point — the default's prefetch window, and the cuckoo
    // directory's staged pipeline — must be a pure latency optimization:
    // driving the same op stream through `apply_batch` and through an
    // `apply` loop yields the same complete per-op outcomes, the same
    // statistics, the same depth distributions and the same contents.
    let depth = ccd_cuckoo::PIPELINE_DEPTH;
    for spec in REGISTRY_SPECS.iter().chain(PIPELINE_SPECS) {
        let caches = standard_registry()
            .build_str(spec)
            .expect(spec)
            .num_caches() as u64;
        let mut rng = SplitMix64::new(0xBA7C4);
        // One line allocated, emptied and allocated again inside the first
        // window, then read, dropped and taken exclusively: each op must
        // see what the one before it left, not what the window's
        // prefetches saw.
        let line = LineAddr::from_block_number(5 * 13);
        let (a, b) = (CacheId::new(0), CacheId::new(1));
        let mut ops = vec![
            DirectoryOp::AddSharer { line, cache: a },
            DirectoryOp::RemoveSharer { line, cache: a },
            DirectoryOp::Probe { line },
            DirectoryOp::AddSharer { line, cache: b },
            DirectoryOp::Probe { line },
            DirectoryOp::RemoveEntry { line },
            DirectoryOp::SetExclusive { line, cache: a },
            DirectoryOp::RemoveSharer { line, cache: a },
        ];
        ops.extend((0..512).map(|_| {
            let line = LineAddr::from_block_number(rng.next_below(96) * 13);
            let cache = CacheId::new(rng.next_below(caches) as u32);
            match rng.next_below(5) {
                0 => DirectoryOp::Probe { line },
                1 => DirectoryOp::SetExclusive { line, cache },
                2 => DirectoryOp::RemoveSharer { line, cache },
                3 => DirectoryOp::RemoveEntry { line },
                _ => DirectoryOp::AddSharer { line, cache },
            }
        }));

        let lines: Vec<LineAddr> = (0..96u64)
            .map(|block| LineAddr::from_block_number(block * 13))
            .collect();
        let expected = assert_batch_matches_apply(spec, &ops, &lines);
        if *spec == TINY_TABLE {
            // The stream really does what the pipeline must survive: a
            // forced eviction discards a line that a later op of the same
            // window then touches.
            let len = ops.len();
            let discarded_then_touched = expected.outcomes.iter().enumerate().any(|(i, out)| {
                let window_end = (i / depth + 1) * depth;
                out.forced_evictions().any(|eviction| {
                    ops[i + 1..window_end.min(len)]
                        .iter()
                        .any(|later| later.line() == eviction.line)
                })
            });
            assert!(discarded_then_touched, "{spec}: stream lost its hazard");
        }
    }

    // The narrow-key path, over 42-bit lines: every line of a pool of
    // 4,400 is added once, past the table's 4,096 entries, then a mixed
    // stream keeps it nearly full, so the allocations of one window
    // contend for the same vacancies and some insertions displace.
    let spec = NARROW_PIPELINE_SPEC;
    let mut rng = SplitMix64::new(0x4A22);
    let pool: Vec<LineAddr> = (0..4400)
        .map(|_| LineAddr::from_block_number(rng.next_u64() >> (64 - 42)))
        .collect();
    let mut ops: Vec<DirectoryOp> = pool
        .iter()
        .map(|&line| add(line, CacheId::new(rng.next_below(16) as u32)))
        .collect();
    ops.extend((0..4000).map(|_| {
        let line = pool[rng.next_below(pool.len() as u64) as usize];
        let cache = CacheId::new(rng.next_below(16) as u32);
        match rng.next_below(20) {
            0..=3 => DirectoryOp::Probe { line },
            4..=6 => DirectoryOp::SetExclusive { line, cache },
            7 => DirectoryOp::RemoveSharer { line, cache },
            8 => DirectoryOp::RemoveEntry { line },
            _ => DirectoryOp::AddSharer { line, cache },
        }
    }));
    let expected = assert_batch_matches_apply(spec, &ops, &pool);
    let capacity = standard_registry().build_str(spec).expect(spec).capacity();
    assert!(
        expected.len * 10 >= capacity * 9,
        "{spec}: {} of {capacity} entries",
        expected.len
    );
    assert!(
        expected
            .outcomes
            .iter()
            .any(|out| out.insertion_attempts() > 1),
        "{spec}: no insertion displaced"
    );
}
