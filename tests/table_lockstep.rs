//! Table lockstep suite (ARCHITECTURE.md Contract #9).
//!
//! The cuckoo table is observationally the seed's array-of-structs table:
//! same hit/miss answers, same Section 5.2 insertion accounting (attempt
//! counts, discard choices), same final contents, on the same operation
//! stream.  These tests drive randomized saturating streams (occupancies up
//! to ~0.95) and the displacement edge cases (attempt budget of 1, a 2-way
//! table at 100% load, chains that circle back to the incoming key) through
//! every hash kind at every way count the probe is compiled for, in
//! lockstep against [`AosReferenceTable`].  Tables of narrow keys (skewing
//! from 1,024 sets up, storing only each line's bits above the set index)
//! run the same streams over 42-bit lines against the same full-key
//! reference.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_cuckoo::seed_reference::AosReferenceTable;
use ccd_cuckoo::{narrow_keys, CuckooTable, KeyWord};
use ccd_hash::HashKind;
use std::collections::BTreeMap;

/// Drives `ops` random operations (inserts from a narrow keyspace so the
/// table saturates, plus removes and lookups) through a table and
/// the seed reference in lockstep, asserting identical accounting at every
/// step and identical contents at the end.  Returns the peak occupancy the
/// stream reached.
fn lockstep_stream(
    kind: HashKind,
    ways: usize,
    sets: usize,
    budget: u32,
    ops: usize,
    seed: u64,
) -> f64 {
    let table: CuckooTable<u64> = CuckooTable::new(ways, sets, kind, seed).unwrap();
    // A keyspace of ~1.5x capacity saturates the structure: insertions keep
    // landing in full candidate sets, exercising displacement and discard.
    let keyspace = (ways * sets * 3 / 2) as u64;
    let pool: Vec<u64> = (0..keyspace).map(|i| i << 4 | 0x3).collect();
    lockstep(table, kind, &pool, budget, ops, seed, 1)
}

/// The body of [`lockstep_stream`] for any key word: `table` (empty,
/// built over `kind` with the stream's seed) draws its keys from `pool`
/// and checks its invariants every `check_every` steps.
fn lockstep<Q: KeyWord>(
    mut table: CuckooTable<u64, Q>,
    kind: HashKind,
    pool: &[u64],
    budget: u32,
    ops: usize,
    seed: u64,
    check_every: usize,
) -> f64 {
    let (ways, sets) = (table.ways(), table.sets());
    table.set_max_attempts(budget);
    let mut reference = AosReferenceTable::new(ways, sets, kind, seed, budget).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x9E3779B9);
    let mut peak = 0.0f64;
    for step in 0..ops {
        let key = pool[rng.next_below(pool.len() as u64) as usize];
        match rng.next_below(8) {
            0 => {
                let got = table.remove(key);
                let want = reference.remove(key);
                assert_eq!(got, want, "{kind}/{ways}-way remove diverged at {step}");
            }
            1 => {
                assert_eq!(
                    table.contains(key),
                    reference.contains(key),
                    "{kind}/{ways}-way contains diverged at {step}"
                );
            }
            _ => {
                let got = table.insert(key, key ^ step as u64);
                let (want_attempts, want_discard) = reference.insert(key, key ^ step as u64);
                assert_eq!(
                    (got.attempts, &got.discarded),
                    (want_attempts, &want_discard),
                    "{kind}/{ways}-way insert accounting diverged at {step}"
                );
            }
        }
        if step % check_every == 0 {
            assert_eq!(
                table.check_invariants(),
                Ok(()),
                "{kind}/{ways}-way after {step}"
            );
        }
        assert_eq!(table.len(), reference.len(), "{kind}/{ways}-way at {step}");
        peak = peak.max(table.occupancy());
    }
    assert_eq!(
        table.check_invariants(),
        Ok(()),
        "{kind}/{ways}-way at the end"
    );
    let got: BTreeMap<u64, u64> = table.iter().map(|(k, &v)| (k, v)).collect();
    let want: BTreeMap<u64, u64> = reference.iter().map(|(k, &v)| (k, v)).collect();
    assert_eq!(got, want, "{kind}/{ways}-way final contents diverged");
    peak
}

/// `count` distinct random lines below the 42-bit bound of a 48-bit
/// physical address, spread over all 42 bits.
fn line_pool(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut lines = std::collections::BTreeSet::new();
    while lines.len() < count {
        lines.insert(rng.next_u64() >> (64 - ccd_common::LINE_ADDRESS_BITS));
    }
    lines.into_iter().collect()
}

/// A 4-way skewing table of narrow keys over `sets` sets.
fn narrow_table(sets: usize, seed: u64) -> CuckooTable<u64, u32> {
    assert!(
        narrow_keys(HashKind::Skewing, sets),
        "{sets} sets store full keys"
    );
    CuckooTable::with_key_word(4, sets, HashKind::Skewing, seed).unwrap()
}

#[test]
fn narrow_keys_match_the_full_key_reference_at_saturating_occupancy() {
    for (sets, seed) in [(1 << 10, 0xD1), (1 << 12, 0xD2)] {
        let pool = line_pool(4 * sets * 3 / 2, seed);
        let ops = 16 * 4 * sets;
        let peak = lockstep(
            narrow_table(sets, seed),
            HashKind::Skewing,
            &pool,
            32,
            ops,
            seed,
            997,
        );
        assert!(peak >= 0.85, "{sets} sets: peak occupancy only {peak:.3}");
    }
}

#[test]
fn narrow_keys_stay_in_lockstep_under_an_attempt_budget_of_one() {
    // Every fully conflicted insert exhausts the budget at once: the
    // probed slot's victim, its key rebuilt from the slot, is discarded.
    let sets = 1 << 10;
    let pool = line_pool(4 * sets * 3 / 2, 0xD3);
    lockstep(
        narrow_table(sets, 0xD3),
        HashKind::Skewing,
        &pool,
        1,
        8 * 4 * sets,
        0xD3,
        997,
    );
}

#[test]
fn every_way_count_matches_the_seed_reference_at_saturating_occupancy() {
    for kind in HashKind::all() {
        for ways in (2..=8).chain([16]) {
            let sets = if ways <= 4 { 64 } else { 16 };
            let peak = lockstep_stream(kind, ways, sets, 32, 16 * ways * sets, 0xA5);
            // A 2-ary table cannot fill (Figure 7); everything wider must.
            let floor = if ways == 2 { 0.5 } else { 0.85 };
            assert!(
                peak >= floor,
                "{kind}/{ways}-way stream must saturate the table (peak {peak:.3})"
            );
        }
    }
}

#[test]
fn strong_4ary_reaches_ninety_five_percent_in_lockstep() {
    // The 4-ary threshold sits near 0.97 (Figure 7): a saturating stream
    // must carry the lockstep comparison through 0.95 occupancy.
    let peak = lockstep_stream(HashKind::Strong, 4, 128, 32, 12_000, 0x51);
    assert!(peak >= 0.95, "peak occupancy only {peak:.3}");
}

#[test]
fn displacement_edge_cases_stay_in_lockstep() {
    for kind in HashKind::all() {
        // Attempt budget of 1: exhaustion on the very first round, the
        // chain "circles back" immediately and the probed slot's victim is
        // discarded.
        lockstep_stream(kind, 2, 16, 1, 1500, 0xB1);
        // 2-way at 100% load: every insert displaces; short budget.
        lockstep_stream(kind, 2, 16, 4, 1500, 0xB2);
        // Wider table, budget 2: chains that wrap past the last way.
        lockstep_stream(kind, 4, 16, 2, 1500, 0xB3);
    }
}

#[test]
fn eight_way_tables_stay_in_lockstep_when_the_budget_expires_mid_chain() {
    // One full 8-lane SWAR chunk, under a budget short enough to expire
    // mid-chain.
    lockstep_stream(HashKind::Strong, 8, 32, 8, 2000, 0xC4);
}
