//! Randomized property tests on the core data structures' invariants.
//!
//! These were originally written against `proptest`; the build environment
//! has no network access, so they now drive the same invariants from the
//! workspace's own deterministic RNG ([`SplitMix64`]) across many seeds.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_cuckoo::seed_reference::AosReferenceTable;
use ccd_cuckoo::{CuckooConfig, CuckooDirectory, CuckooTable};
use ccd_hash::HashKind;
use ccd_sharers::{CoarseVector, FullBitVector, LimitedPointer, SharerSet, WideBitVector};
use cuckoo_directory::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An abstract operation applied to a sharer set / directory entry.
#[derive(Clone, Copy, Debug)]
enum SharerOp {
    Add(u32),
    Remove(u32),
    Clear,
}

fn random_sharer_ops(rng: &mut SplitMix64, num_caches: u32, len: usize) -> Vec<SharerOp> {
    (0..len)
        .map(|_| match rng.next_below(8) {
            0 => SharerOp::Clear,
            1..=4 => SharerOp::Add(rng.next_below(u64::from(num_caches)) as u32),
            _ => SharerOp::Remove(rng.next_below(u64::from(num_caches)) as u32),
        })
        .collect()
}

/// The set a sharer format documents: up to `k` exact pointers, then, from
/// a `k + 1`-th sharer until the next `Clear`, every cache of every region
/// marked, the caches split into `regions` equal runs.  An exact vector is
/// the model whose pointers never overflow (`k` = every cache).
#[derive(Clone)]
struct PointerModel {
    caches: u32,
    k: usize,
    per: u32,
    pointers: Vec<u32>,
    regions: u64,
}

impl PointerModel {
    fn new(caches: u32, k: usize, regions: u32) -> Self {
        let (per, pointers) = (caches.div_ceil(regions), Vec::new());
        PointerModel {
            caches,
            k,
            per,
            pointers,
            regions: 0,
        }
    }

    fn apply(&mut self, op: SharerOp) {
        let per = self.per;
        let region = |c: u32| 1u64 << (c / per);
        match op {
            SharerOp::Add(c) if self.regions != 0 => self.regions |= region(c),
            SharerOp::Add(c) if self.pointers.contains(&c) => {}
            SharerOp::Add(c) if self.pointers.len() < self.k => self.pointers.push(c),
            SharerOp::Add(c) => {
                self.regions = self
                    .pointers
                    .drain(..)
                    .map(region)
                    .fold(region(c), |m, r| m | r)
            }
            SharerOp::Remove(c) => self.pointers.retain(|&p| p != c),
            SharerOp::Clear => (self.pointers, self.regions) = (Vec::new(), 0),
        }
    }

    fn targets(&self) -> Vec<CacheId> {
        let mut caches = self.pointers.clone();
        caches.sort_unstable();
        caches.extend((0..self.caches).filter(|c| self.regions >> (c / self.per) & 1 != 0));
        caches.into_iter().map(CacheId::new).collect()
    }
}

/// Applies the ops to the true set, the documented set and a representation
/// under test, then checks that the representation answers the documented
/// set and that it covers the true one.
fn check_sharer_set<S: SharerSet>(mut documented: PointerModel, ops: &[SharerOp]) {
    let mut model: BTreeSet<u32> = BTreeSet::new();
    let mut set = S::new(documented.caches as usize);
    for &op in ops {
        documented.apply(op);
        match op {
            SharerOp::Add(c) => {
                model.insert(c);
                set.add(CacheId::new(c));
            }
            SharerOp::Remove(c) => {
                model.remove(&c);
                set.remove(CacheId::new(c));
            }
            SharerOp::Clear => {
                model.clear();
                set.clear();
            }
        }
        let targets = set.invalidation_targets();
        assert_eq!(
            targets,
            documented.targets(),
            "not the documented set after {op:?}"
        );
        for c in (0..documented.caches).map(CacheId::new) {
            assert_eq!(set.may_contain(c), targets.contains(&c), "{c} after {op:?}");
        }
        assert_eq!(set.is_empty(), targets.is_empty());
        // Conservativeness: every true sharer is covered.
        for &c in &model {
            assert!(
                targets.contains(&CacheId::new(c)),
                "lost true sharer cache{c}"
            );
        }
        // The zero-allocation path must agree with the allocating one.
        let mut extended: Vec<CacheId> = Vec::new();
        set.extend_targets(&mut extended);
        assert_eq!(extended, targets, "extend_targets diverged");
        // Exact representations must be exactly right.
        if set.is_exact() {
            assert_eq!(
                targets.len(),
                model.len(),
                "exact representation reported wrong cardinality"
            );
        }
    }
}

fn sharer_set_property<S: SharerSet>(documented: PointerModel, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for round in 0..64 {
        let len = 1 + (round % 63);
        let ops = random_sharer_ops(&mut rng, documented.caches, len);
        check_sharer_set::<S>(documented.clone(), &ops);
    }
}

#[test]
fn full_vector_is_always_exact() {
    sharer_set_property::<FullBitVector>(PointerModel::new(64, 64, 1), 0xF011);
}

/// The representation of full and hierarchical entries above 64 caches.
#[test]
fn wide_vector_is_always_exact() {
    sharer_set_property::<WideBitVector>(PointerModel::new(100, 100, 1), 0x41E2);
}

/// Two pointers, then 2·log2(64) = 12 regions of 6 caches.
#[test]
fn coarse_vector_is_conservative() {
    sharer_set_property::<CoarseVector>(PointerModel::new(64, 2, 12), 0xC0A2);
}

/// Four pointers, then one region: broadcast.
#[test]
fn limited_pointer_is_conservative() {
    sharer_set_property::<LimitedPointer>(PointerModel::new(32, 4, 1), 0x117D);
}

#[test]
fn cuckoo_table_never_loses_undiscarded_keys() {
    // Every way count the table compiles its probe for exactly (2..=8).
    let mut rng = SplitMix64::new(0x7AB1E);
    for round in 0..49u64 {
        let ways = 2 + (round % 7) as usize;
        let key_count = 1 + rng.next_below(300) as usize;
        let keys: BTreeSet<u64> = (0..key_count).map(|_| rng.next_below(1_000_000)).collect();
        let mut table: CuckooTable<u64> = CuckooTable::new(ways, 256, HashKind::Strong, 7).unwrap();
        let mut expected: BTreeSet<u64> = BTreeSet::new();
        for &k in &keys {
            let outcome = table.insert(k, k);
            expected.insert(k);
            if let Some((lost, payload)) = outcome.discarded {
                assert_eq!(lost, payload, "payload must travel with its key");
                expected.remove(&lost);
            }
            assert_eq!(table.check_invariants(), Ok(()), "after inserting {k}");
        }
        assert_eq!(table.len(), expected.len());
        for &k in &expected {
            assert!(table.contains(k), "key {k} lost without being reported");
            assert_eq!(table.get(k), Some(&k));
        }
        assert!(table.len() <= table.capacity());
        // Occupancy is consistent with len().
        assert!((table.occupancy() - table.len() as f64 / table.capacity() as f64).abs() < 1e-12);
    }
}

#[test]
fn cuckoo_directory_tracks_exactly_the_uncovered_model() {
    // Reference model: block -> set of caches, maintained alongside a
    // generously sized Cuckoo directory (so no forced evictions occur and
    // the contents must match the model exactly).
    let mut rng = SplitMix64::new(0xD1CE);
    for _ in 0..24 {
        let mut dir = CuckooDirectory::<FullBitVector>::new(CuckooConfig::new(4, 256, 8)).unwrap();
        let mut model: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let mut out = Outcome::new();
        let op_count = 1 + rng.next_below(400) as usize;
        for _ in 0..op_count {
            let block = rng.next_below(500);
            let id = rng.next_below(8) as u32;
            let add = rng.next_below(2) == 0;
            let (line, cache) = (LineAddr::from_block_number(block), CacheId::new(id));
            if add {
                dir.apply(DirectoryOp::AddSharer { line, cache }, &mut out);
                assert_eq!(
                    out.forced_eviction_count(),
                    0,
                    "directory is oversized; no evictions expected"
                );
                model.entry(block).or_default().insert(id);
            } else {
                dir.apply(DirectoryOp::RemoveSharer { line, cache }, &mut out);
                if let Some(set) = model.get_mut(&block) {
                    set.remove(&id);
                    if set.is_empty() {
                        model.remove(&block);
                    }
                }
            }
        }
        assert_eq!(dir.len(), model.len());
        for (block, caches) in &model {
            let line = LineAddr::from_block_number(*block);
            dir.apply(DirectoryOp::Probe { line }, &mut out);
            assert!(out.hit());
            assert_eq!(out.sharers().len(), caches.len());
            for c in caches {
                assert!(out.sharers().contains(&CacheId::new(*c)));
            }
        }
    }
}

#[test]
fn soa_table_matches_the_seed_aos_model_bit_for_bit() {
    // Drive the SoA/SWAR table and the seed's AoS algorithm in lockstep
    // through the same (hash family, budget, operation stream) and demand
    // identical insertion outcomes — including the rare displacement-chain
    // branches: budget exhaustion, discard selection, and the chain circling
    // back to the in-flight incoming key (which must trigger one final
    // displacement so the requested key stays tracked).
    let mut rng = SplitMix64::new(0x5EED_30DE1);
    for (ways, sets, budget) in [
        (2usize, 2usize, 1u32),
        (2, 2, 3),
        (2, 8, 4),
        (3, 8, 2),
        (3, 16, 32),
        (4, 16, 8),
        // One table per remaining way count compiled exactly, then the
        // multi-chunk (>8-way) SWAR path with its runtime bound.
        (5, 8, 6),
        (6, 8, 6),
        (7, 8, 6),
        (8, 8, 6),
        (12, 8, 6),
    ] {
        for kind in [HashKind::Skewing, HashKind::MultiplyShift, HashKind::Strong] {
            let hash_seed = rng.next_u64();
            let mut table: CuckooTable<u64> =
                CuckooTable::new(ways, sets, kind, hash_seed).unwrap();
            table.set_max_attempts(budget);
            let mut model =
                AosReferenceTable::<u64>::new(ways, sets, kind, hash_seed, budget).unwrap();

            // A small key space keeps hits, displacements and discards all
            // frequent; removals keep vacancies appearing mid-stream.
            let key_space = (ways * sets * 2) as u64;
            for step in 0..2_000u64 {
                let key = rng.next_below(key_space);
                if rng.next_below(10) < 7 {
                    let outcome = table.insert(key, step);
                    let (attempts, discarded) = model.insert(key, step);
                    assert_eq!(
                        outcome.attempts, attempts,
                        "{ways}x{sets}-{kind} budget {budget}: attempt count diverged at step {step}"
                    );
                    assert_eq!(
                        outcome.discarded, discarded,
                        "{ways}x{sets}-{kind} budget {budget}: discard choice diverged at step {step}"
                    );
                } else {
                    assert_eq!(
                        table.remove(key),
                        model.remove(key),
                        "{ways}x{sets}-{kind}: removal diverged at step {step}"
                    );
                }
                assert_eq!(table.len(), model.len());
                assert_eq!(
                    table.check_invariants(),
                    Ok(()),
                    "{ways}x{sets}-{kind} budget {budget}: after step {step}"
                );
            }
            let table_contents: BTreeMap<u64, u64> = table.iter().map(|(k, v)| (k, *v)).collect();
            let model_contents: BTreeMap<u64, u64> = model.iter().map(|(k, v)| (k, *v)).collect();
            assert_eq!(
                table_contents, model_contents,
                "{ways}x{sets}-{kind}: final contents diverged"
            );
        }
    }
}

#[test]
fn attempt_budget_of_one_discards_on_the_first_attempt() {
    // Section 5.2 edge case: with `max_attempts = 1` a conflicting insertion
    // gets no displacement chain at all.  The incoming key still performs
    // its one final displacement (the request is never the victim), so the
    // previous occupant of the start way's candidate slot is discarded, the
    // attempt count is exactly 1, and occupancy is unchanged.
    let mut table: CuckooTable<u64> = CuckooTable::new(3, 16, HashKind::Strong, 9).unwrap();
    let mut rng = SplitMix64::new(0xB1);
    while table.len() < table.capacity() {
        let key = rng.next_below(1 << 20);
        table.insert(key, key * 2);
    }
    table.set_max_attempts(1);
    let mut discards = 0usize;
    for _ in 0..64 {
        let mut fresh = rng.next_below(1 << 20);
        while table.contains(fresh) {
            fresh = rng.next_below(1 << 20);
        }
        let o = table.insert(fresh, fresh * 2);
        assert_eq!(o.attempts, 1, "budget 1 permits exactly one attempt");
        let (lost, payload) = o.discarded.expect("full table must discard");
        assert_eq!(payload, lost * 2, "payload travels with its key");
        assert_ne!(lost, fresh, "the incoming request is never discarded");
        assert!(table.contains(fresh), "the requested key must be tracked");
        assert!(!table.contains(lost), "the victim must be gone");
        assert_eq!(table.len(), table.capacity(), "one-for-one swap");
        assert_eq!(table.check_invariants(), Ok(()));
        discards += 1;
    }
    assert_eq!(discards, 64);
}

#[test]
fn two_way_table_at_full_occupancy_exhausts_the_budget_exactly() {
    // ways = 2 at 100% occupancy: no vacancy exists anywhere, so every
    // insertion of a fresh key must run its displacement chain to the full
    // attempt budget, discard exactly one resident entry, and keep the
    // table exactly full.
    let mut table: CuckooTable<u64> = CuckooTable::new(2, 8, HashKind::Strong, 21).unwrap();
    let mut rng = SplitMix64::new(0x2F);
    while table.len() < table.capacity() {
        let key = rng.next_below(1 << 16);
        table.insert(key, key);
    }
    for budget in [2u32, 5, 32] {
        table.set_max_attempts(budget);
        for _ in 0..16 {
            let mut fresh = rng.next_below(1 << 16);
            while table.contains(fresh) {
                fresh = rng.next_below(1 << 16);
            }
            let o = table.insert(fresh, fresh);
            assert_eq!(
                o.attempts, budget,
                "with zero vacancies the chain must run to the budget"
            );
            let (lost, _) = o.discarded.expect("full table must discard");
            assert_ne!(lost, fresh);
            assert!(table.contains(fresh));
            assert!(!table.contains(lost));
            assert_eq!(table.len(), table.capacity());
            assert_eq!(table.check_invariants(), Ok(()));
        }
    }
}

#[test]
fn chains_that_circle_back_to_the_incoming_key_keep_it_tracked() {
    // Re-insert of a key that is currently in flight in its own chain: on a
    // tiny table the displacement chain frequently displaces the incoming
    // key again before the budget runs out.  Whatever happens inside the
    // chain, the documented accounting must hold: the incoming key is
    // stored, it is never the discard victim, and the attempt count never
    // exceeds the budget.
    let mut rng = SplitMix64::new(0xC17C);
    for seed in 0..6u64 {
        let mut table: CuckooTable<u64> = CuckooTable::new(2, 2, HashKind::Strong, seed).unwrap();
        table.set_max_attempts(4);
        let mut discards = 0usize;
        for step in 0..600u64 {
            let key = rng.next_below(48);
            let o = table.insert(key, step);
            assert!(o.attempts <= 4);
            if let Some((lost, _)) = o.discarded {
                assert_ne!(lost, key, "the incoming request is never discarded");
                assert!(!table.contains(lost));
                discards += 1;
            }
            assert!(
                table.contains(key),
                "seed {seed}: key {key} lost at step {step}"
            );
            assert_eq!(table.get(key), Some(&step), "insert replaces the payload");
            assert!(table.len() <= table.capacity());
            assert_eq!(
                table.check_invariants(),
                Ok(()),
                "seed {seed}: after step {step}"
            );
        }
        assert!(discards > 0, "a 4-entry table under this load must discard");
    }
}

#[test]
fn cache_lru_respects_capacity_and_recency() {
    let mut rng = SplitMix64::new(0xCAC4E);
    for _ in 0..24 {
        let mut cache = Cache::new(CacheConfig::new(4, 2, 64)).unwrap();
        let block_count = 1 + rng.next_below(300) as usize;
        let blocks: Vec<u64> = (0..block_count).map(|_| rng.next_below(64)).collect();
        let mut resident_model: Vec<u64> = Vec::new(); // most recent last
        for &b in &blocks {
            cache.access_read(LineAddr::from_block_number(b));
            resident_model.retain(|&x| x != b);
            resident_model.push(b);
            assert!(cache.len() <= cache.config().frames());
            // The most recently accessed block is always resident.
            assert!(cache.contains(LineAddr::from_block_number(b)));
        }
        // Every resident line was accessed at some point.
        for (line, _) in cache.resident_lines() {
            assert!(blocks.contains(&line.block_number()));
        }
    }
}
