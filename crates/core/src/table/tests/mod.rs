use super::kernels::{fingerprint, fold_lanes, swar_match};
use super::*;
use crate::seed_reference::AosReferenceTable;
use ccd_common::rng::{Rng64, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};

fn filled_table(ways: usize, sets: usize, fill: usize, seed: u64) -> (CuckooTable<u64>, Vec<u64>) {
    let mut table = CuckooTable::new(ways, sets, HashKind::Strong, seed).unwrap();
    let mut rng = SplitMix64::new(seed ^ 0x55aa);
    let mut keys = Vec::new();
    while keys.len() < fill {
        let key = rng.next_u64() >> 8;
        if table.contains(key) {
            continue;
        }
        let outcome = table.insert(key, key * 2);
        keys.push(key);
        if let Some((lost, _)) = outcome.discarded {
            keys.retain(|&k| k != lost);
        }
    }
    (table, keys)
}

#[test]
fn construction_validation() {
    assert!(CuckooTable::<()>::new(1, 64, HashKind::Strong, 0).is_err());
    assert!(CuckooTable::<()>::new(3, 100, HashKind::Strong, 0).is_err());
    assert!(CuckooTable::<()>::new(3, 128, HashKind::Strong, 0).is_ok());
    // A product that wraps (4 x 2^62 is 0 in release arithmetic) or
    // arrays that are no allocation: an error, never a zero-slot table
    // under the unchecked reads.
    for sets in [1usize << 56, 1 << 61, 1 << 62, 1 << 63] {
        for kind in HashKind::all() {
            let err = CuckooTable::<u64>::new(4, sets, kind, 0).unwrap_err();
            let what = "directory capacity";
            assert!(
                matches!(err, ConfigError::TooLarge { what: w, .. } if w == what),
                "4x{sets} {kind}: {err}"
            );
        }
    }
}

#[test]
fn insert_get_remove_round_trip() {
    let mut t: CuckooTable<String> = CuckooTable::new(2, 64, HashKind::Strong, 3).unwrap();
    assert!(t.is_empty());
    let o = t.insert(10, "ten".to_string());
    assert_eq!(o.attempts, 1);
    assert!(o.succeeded());
    assert_eq!(t.get(10), Some(&"ten".to_string()));
    *t.get_mut(10).unwrap() = "TEN".to_string();
    assert_eq!(t.get(10), Some(&"TEN".to_string()));

    // Re-inserting an existing key replaces its payload.
    let o = t.insert(10, "x".to_string());
    assert_eq!(o.attempts, 1);
    assert_eq!(t.len(), 1);
    assert_eq!(t.get(10), Some(&"x".to_string()));

    assert_eq!(t.remove(10), Some("x".to_string()));
    assert_eq!(t.remove(10), None);
    assert!(t.is_empty());
    assert_eq!(t.get(99), None);
}

#[test]
fn depth_metrics_observe_without_perturbing() {
    // Contract #11: the armed table computes byte-for-byte what the
    // unarmed table computes, while its distributions fill in.
    let mut armed: CuckooTable<u64> = CuckooTable::new(2, 64, HashKind::Strong, 9).unwrap();
    let mut plain: CuckooTable<u64> = CuckooTable::new(2, 64, HashKind::Strong, 9).unwrap();
    armed.arm_depth_metrics();
    assert!(plain.depth_metrics().is_none());

    let mut rng = SplitMix64::new(0xD1);
    let mut inserts = 0u64;
    for _ in 0..96 {
        let key = rng.next_u64() >> 8;
        let a = armed.insert(key, key);
        let b = plain.insert(key, key);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.discarded, b.discarded);
        inserts += 1;
    }
    assert_eq!(armed.len(), plain.len());
    for (key, value) in plain.iter() {
        assert_eq!(armed.get(key), Some(value));
    }

    let metrics = armed.depth_metrics().unwrap();
    assert_eq!(metrics.probe_depth.count(), inserts);
    assert!(metrics.probe_depth.max().unwrap() <= 2);
    // A 2-way table filled past half occupancy must have displaced.
    assert!(metrics.displacement_chain.count() > 0);

    // Clones carry the recorded distributions.
    let cloned = armed.clone();
    assert_eq!(cloned.depth_metrics(), armed.depth_metrics());
}

#[test]
fn all_inserted_keys_are_retrievable_at_half_occupancy() {
    let (table, keys) = filled_table(3, 1024, 1536, 7); // 50% of 3*1024
    assert_eq!(table.len(), keys.len());
    for &k in &keys {
        assert!(table.contains(k), "lost key {k:#x}");
        assert_eq!(table.get(k), Some(&(k * 2)));
    }
    // Iteration covers exactly the stored keys.
    let iterated: BTreeSet<u64> = table.iter().map(|(k, _)| k).collect();
    assert_eq!(iterated.len(), keys.len());
    for &k in &keys {
        assert!(iterated.contains(&k));
    }
}

#[test]
fn half_occupancy_insertions_never_fail_for_3_ary_and_wider() {
    // The paper's headline claim (Section 5.1): at <= 50% occupancy,
    // 3-ary and wider cuckoo tables never fail an insertion and average
    // about two attempts or fewer.
    for ways in [3usize, 4, 8] {
        let sets = 4096 / ways.next_power_of_two();
        let sets = sets.next_power_of_two();
        let capacity = ways * sets;
        let target = capacity / 2;
        let mut table: CuckooTable<()> =
            CuckooTable::new(ways, sets, HashKind::Strong, 11).unwrap();
        let mut rng = SplitMix64::new(1234);
        let mut total_attempts = 0u64;
        let mut inserted = 0u64;
        while table.len() < target {
            let key = rng.next_u64() >> 8;
            if table.contains(key) {
                continue;
            }
            let o = table.insert(key, ());
            assert!(
                o.succeeded(),
                "{ways}-ary failed at occupancy {}",
                table.occupancy()
            );
            total_attempts += u64::from(o.attempts);
            inserted += 1;
        }
        let avg = total_attempts as f64 / inserted as f64;
        assert!(avg < 2.0, "{ways}-ary average attempts {avg} too high");
    }
}

#[test]
fn two_ary_tables_fail_at_high_occupancy() {
    // 2-ary cuckoo hashing cannot reach high occupancy: pushing far past
    // 50% must eventually discard entries (Figure 7, 2-ary curve).
    let mut table: CuckooTable<()> = CuckooTable::new(2, 256, HashKind::Strong, 5).unwrap();
    let mut rng = SplitMix64::new(99);
    let mut failures = 0;
    for _ in 0..table.capacity() {
        let key = rng.next_u64() >> 8;
        if table.contains(key) {
            continue;
        }
        if !table.insert(key, ()).succeeded() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "2-ary table should overflow when driven to 100% load"
    );
}

#[test]
fn attempt_budget_is_respected_and_discard_reported() {
    let mut table: CuckooTable<u32> = CuckooTable::new(2, 2, HashKind::Strong, 17).unwrap();
    table.set_max_attempts(4);
    let mut discarded = Vec::new();
    let mut rng = SplitMix64::new(3);
    for i in 0..64u32 {
        let key = rng.next_u64() >> 8;
        let o = table.insert(key, i);
        assert!(o.attempts <= 4);
        if let Some((k, _)) = o.discarded {
            discarded.push(k);
        }
    }
    assert!(
        !discarded.is_empty(),
        "a 4-entry table driven with 64 keys must discard"
    );
    // Table never exceeds its capacity and its length is consistent.
    assert!(table.len() <= table.capacity());
    assert_eq!(table.iter().count(), table.len());
}

#[test]
#[should_panic(expected = "non-zero")]
fn zero_attempt_budget_is_rejected() {
    let mut table: CuckooTable<()> = CuckooTable::new(2, 4, HashKind::Strong, 0).unwrap();
    table.set_max_attempts(0);
}

#[test]
fn displacement_preserves_all_entries() {
    // Drive a small table to 80% occupancy with 4 ways and verify no
    // entry silently disappears (every non-discarded key remains
    // retrievable even after long displacement chains).
    let (table, keys) = filled_table(4, 64, 204, 21); // ~80% of 256
    for &k in &keys {
        assert!(table.contains(k), "key {k:#x} lost during displacement");
    }
    assert_eq!(table.len(), keys.len());
}

#[test]
fn occupancy_reports_fraction_of_capacity() {
    let mut t: CuckooTable<()> = CuckooTable::new(4, 64, HashKind::Strong, 1).unwrap();
    assert_eq!(t.occupancy(), 0.0);
    let mut rng = SplitMix64::new(8);
    for _ in 0..64 {
        t.insert(rng.next_u64() >> 8, ());
    }
    assert!((t.occupancy() - 0.25).abs() < 0.01);
}

// ---- SoA-layout specific tests ----------------------------------------

#[test]
fn swar_match_finds_exactly_the_equal_bytes() {
    // One lane per byte: bit 7 of the matching lane is set.
    let word = u64::from_le_bytes([0x81, 0x00, 0x93, 0x81, 0x00, 0xFF, 0x7F, 0x01]);
    let m = swar_match(word, 0x81);
    assert_eq!(m & (1 << 7), 1 << 7, "lane 0 matches");
    assert_eq!(m & (1 << 31), 1 << 31, "lane 3 matches");
    assert_eq!(m & (1 << 15), 0, "empty lane does not match a fingerprint");
    assert_eq!(m & (1 << 23), 0, "different tag does not match");

    // Vacancy scan is exact for the tag alphabet used by the table
    // (0x00 or >= 0x80): only the two empty lanes match.
    let tags = u64::from_le_bytes([0x81, 0x00, 0x93, 0xFF, 0x00, 0x80, 0xA5, 0xC3]);
    let empties = swar_match(tags, EMPTY_TAG);
    assert_eq!(empties, (1 << 15) | (1 << 39));
}

/// The loops `fold_lanes` replaced: one iteration a set lane.
fn fold_by_loop(mut lanes: u64, way: usize) -> u64 {
    let mut mask = 0u64;
    while lanes != 0 {
        mask |= 1 << (way + (lanes.trailing_zeros() / 8) as usize);
        lanes &= lanes - 1;
    }
    mask
}

#[test]
fn lane_fold_equals_the_loop_it_replaced() {
    for pattern in 0..256u64 {
        // Bit 7 of lane `j` is bit `j` of `pattern`.
        let word = (0..8).fold(0u64, |w, j| w | ((pattern >> j) & 1) << (8 * j + 7));
        for way in [0, 8] {
            for lanes in 1..=8 {
                // The vacancy scan's clip of a partial chunk's padding.
                let clipped = word & CuckooTable::<()>::lane_mask(lanes);
                assert_eq!(fold_lanes(clipped), pattern & ((1 << lanes) - 1));
                assert_eq!(
                    fold_lanes(clipped) << way,
                    fold_by_loop(clipped, way),
                    "pattern {pattern:#010b}, way {way}, {lanes} lanes"
                );
            }
        }
    }
}

#[test]
fn fingerprints_are_never_the_empty_tag() {
    let mut rng = SplitMix64::new(0xF1);
    // Reduced under Miri, which interprets a few orders of magnitude
    // slower; the property is per-sample, not statistical.
    let samples = if cfg!(miri) { 500 } else { 10_000 };
    for _ in 0..samples {
        let fp = fingerprint(rng.next_u64());
        assert!(fp >= 0x80, "fingerprint {fp:#x} must have the high bit set");
    }
}

#[test]
fn find_or_insert_only_builds_payloads_for_new_keys() {
    let mut t: CuckooTable<Vec<u32>> = CuckooTable::new(4, 64, HashKind::Strong, 9).unwrap();
    let r = t.find_or_insert_prehashed(42, &mut t.hashed::<4>(42), || vec![1]);
    assert!(r.inserted.is_some());
    r.value.push(2);
    // Second call must not invoke `make` and must see the mutation.
    let r = t.find_or_insert_prehashed(42, &mut t.hashed::<4>(42), || {
        panic!("payload must not be rebuilt")
    });
    assert!(r.inserted.is_none());
    assert_eq!(r.value, &vec![1, 2]);
    assert_eq!(t.len(), 1);
}

#[test]
fn find_or_insert_reports_the_displacement_outcome() {
    // A full 2x2 table with a 2-attempt budget: inserting an absent key
    // must displace and discard, yet the new key stays retrievable and
    // the borrow points at its payload.
    let mut t: CuckooTable<u64> = CuckooTable::new(2, 2, HashKind::Strong, 17).unwrap();
    t.set_max_attempts(2);
    let mut rng = SplitMix64::new(5);
    while t.len() < t.capacity() {
        let key = rng.next_u64() >> 8;
        t.insert(key, key);
    }
    let mut fresh = rng.next_u64() >> 8;
    while t.contains(fresh) {
        fresh = rng.next_u64() >> 8;
    }
    let r = t.find_or_insert_prehashed(fresh, &mut t.hashed::<2>(fresh), || fresh);
    let outcome = r.inserted.expect("key was absent");
    assert_eq!(*r.value, fresh);
    assert!(outcome.discarded.is_some(), "full table must discard");
    assert!(t.contains(fresh));
    assert_eq!(t.len(), t.capacity());
}

#[test]
fn probe_batch_agrees_with_contains() {
    let (table, keys) = filled_table(4, 256, 512, 31);
    let mut rng = SplitMix64::new(77);
    let queries: Vec<u64> = keys
        .iter()
        .copied()
        .take(100)
        .chain((0..100).map(|_| rng.next_u64() >> 8))
        .collect();
    let mut hits = vec![false; queries.len()];
    table.probe_batch(&queries, &mut hits);
    for (query, hit) in queries.iter().zip(&hits) {
        assert_eq!(*hit, table.contains(*query), "key {query:#x}");
    }
}

#[test]
fn apply_batch_matches_sequential_inserts_exactly() {
    let mut rng = SplitMix64::new(0xBA7C);
    let entries: Vec<(u64, u64)> = (0..600)
        .map(|_| rng.next_u64() >> 40)
        .map(|k| (k, k))
        .collect();

    let mut sequential: CuckooTable<u64> = CuckooTable::new(3, 64, HashKind::Strong, 2).unwrap();
    sequential.set_max_attempts(8);
    let expected: Vec<InsertOutcome<u64>> = entries
        .iter()
        .map(|&(k, v)| sequential.insert(k, v))
        .collect();

    let mut batched: CuckooTable<u64> = CuckooTable::new(3, 64, HashKind::Strong, 2).unwrap();
    batched.set_max_attempts(8);
    let mut buffer = entries.clone();
    let mut outcomes = Vec::new();
    batched.apply_batch(&mut buffer, &mut outcomes);
    assert!(buffer.is_empty(), "apply_batch drains its input");
    assert_eq!(outcomes, expected, "batched outcomes must be identical");
    assert_eq!(batched.len(), sequential.len());
    for (k, v) in sequential.iter() {
        assert_eq!(batched.get(k), Some(v));
    }
}

// ---- Stage 2's hint targets --------------------------------------------

/// Inserts `keys` window by window the way the staged pipeline does: every
/// key of a window gets its hints from the table as stage 2 sees it, before
/// any of the window's insertions runs; then the insertions run in order.
/// Returns their outcomes, how many allocating keys got a vacancy that a
/// probe of the same key does not, and how many vacancy hints went stale
/// (an earlier insertion of the window had taken the slot).
fn insert_against_hints<Q: KeyWord>(
    table: &mut CuckooTable<u64, Q>,
    keys: &[u64],
) -> (Vec<InsertOutcome<u64>>, usize, usize) {
    let (mut outcomes, mut hinted, mut stale) = (Vec::new(), 0, 0);
    for window in keys.chunks(PIPELINE_DEPTH) {
        let staged: Vec<([usize; 4], Option<usize>)> = window
            .iter()
            .map(|&key| {
                let indices = table.hashed::<4>(key);
                let (matching, vacant) = table.hint_targets(key, &indices, true);
                let probe = table.hint_targets(key, &indices, false);
                assert_eq!(probe, (matching, None), "a probe gets no vacancy");
                hinted += usize::from(vacant.is_some());
                (indices, vacant)
            })
            .collect();
        for (&key, (mut indices, vacant)) in window.iter().zip(staged) {
            // Insertions never vacate a slot, so a hinted slot still vacant
            // here is one no earlier insertion of the window wrote.
            let untouched = vacant.filter(|&slot| table.tags[slot] == EMPTY_TAG);
            stale += usize::from(vacant.is_some() && untouched.is_none());
            outcomes.push(table.insert_prehashed(key, key, &mut indices));
            if let Some(slot) = untouched {
                assert_ne!(table.tags[slot], EMPTY_TAG, "{key:#x} left its hint vacant");
                assert_eq!(table.key_of(slot), key, "{key:#x} filled another slot");
            }
        }
    }
    (outcomes, hinted, stale)
}

fn check_vacancy_hints<Q: KeyWord>(table: CuckooTable<u64, Q>, keys: &[u64]) {
    let mut sequential = table.clone();
    let expected: Vec<InsertOutcome<u64>> = keys.iter().map(|&k| sequential.insert(k, k)).collect();

    let mut hints = table.clone();
    let (outcomes, hinted, stale) = insert_against_hints(&mut hints, keys);
    assert_eq!(outcomes, expected);
    assert!(hinted > keys.len() / 2, "{hinted} vacancy hints");
    assert!(
        stale > 0,
        "no window had an insertion take a later one's hint"
    );
    assert!(
        expected.iter().any(|outcome| outcome.attempts > 1),
        "no insertion displaced"
    );

    let mut batched = table;
    let mut entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let mut outcomes = Vec::new();
    batched.apply_batch(&mut entries, &mut outcomes);
    assert_eq!(outcomes, expected, "batched outcomes must be identical");
    let contents = |t: &CuckooTable<u64, Q>| t.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>();
    assert_eq!(contents(&batched), contents(&sequential));
    assert_eq!(batched.check_invariants(), Ok(()));
}

#[test]
fn stage_two_hints_the_vacancy_an_insertion_fills() {
    // Nineteen twentieths of a 4 × 1024 table, so late windows contend
    // for the same vacancies and insertions displace; every fourth line is
    // followed by one added before it, which hits and gets no vacancy.
    let lines = random_lines(0x5747E, 4 * 1024 * 19 / 20);
    let keys: Vec<u64> = (0..lines.len())
        .flat_map(|i| std::iter::once(lines[i]).chain((i % 4 == 3).then(|| lines[i / 2])))
        .collect();
    check_vacancy_hints(
        CuckooTable::<u64>::new(4, 1024, HashKind::Skewing, 0).unwrap(),
        &keys,
    );
    check_vacancy_hints(
        CuckooTable::<u64, u32>::with_key_word(4, 1024, HashKind::Skewing, 0).unwrap(),
        &keys,
    );
}

#[test]
fn wide_tables_probe_through_the_chunked_swar_path() {
    // Past eight ways the gather runs in chunks: 8 + 1, 8 + 4 and 8 + 8
    // lanes, the second chunk's bits folded in at way 8.
    for ways in [9, 12, 16] {
        let (table, keys) = filled_table(ways, 64, ways * 32, 3);
        table.check_invariants().unwrap();
        for &k in &keys {
            assert!(table.contains(k), "{ways} ways");
            assert!(!table.contains(k ^ 1 << 60), "{ways} ways");
        }
        let mut hits = vec![false; keys.len()];
        table.probe_batch(&keys, &mut hits);
        assert!(hits.iter().all(|&h| h), "{ways} ways");
    }
}

// ---- Lockstep, clone and drop tests -----------------------------------

fn contents(table: &CuckooTable<u64>) -> BTreeMap<u64, u64> {
    table.iter().map(|(k, &v)| (k, v)).collect()
}

thread_local! {
    /// [`Tracked`] payloads alive on this thread — libtest runs each test
    /// on a thread of its own, so tests do not see each other's.
    static LIVE: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

fn live_payloads() -> i64 {
    LIVE.with(std::cell::Cell::get)
}

/// A payload that counts its constructions, clones and drops.
struct Tracked(u64);

impl Tracked {
    fn new(v: u64) -> Self {
        LIVE.with(|live| live.set(live.get() + 1));
        Tracked(v)
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.0)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        LIVE.with(|live| live.set(live.get() - 1));
    }
}

#[test]
fn every_way_count_matches_the_seed_reference_on_the_same_op_stream() {
    // Drive the same saturating insert/remove stream through the table
    // and the seed's array-of-structs model for every hash kind at every
    // way count the probe is compiled for and one past the 8-lane SWAR
    // chunk, and demand bit-identical outcomes (attempts, discards) and
    // contents.
    for kind in HashKind::all() {
        for ways in (2usize..=8).chain([16]) {
            let mut table: CuckooTable<u64> = CuckooTable::new(ways, 16, kind, 7).unwrap();
            table.set_max_attempts(6);
            let mut reference = AosReferenceTable::new(ways, 16, kind, 7, 6).unwrap();
            let mut rng = SplitMix64::new(0xD1CE);
            let keyspace = (ways * 16 * 3 / 2) as u64;
            let samples = if cfg!(miri) { 60 } else { 150 * ways };
            let mut discards = 0;
            for i in 0..samples {
                let key = rng.next_below(keyspace) << 4 | 0x3;
                let got = table.insert(key, key ^ i as u64);
                let want = reference.insert(key, key ^ i as u64);
                discards += usize::from(got.discarded.is_some());
                assert_eq!(
                    (got.attempts, got.discarded),
                    want,
                    "{kind} {ways} ways diverged at insert {i}"
                );
                if i % 3 == 0 {
                    let doomed = rng.next_below(keyspace) << 4 | 0x3;
                    assert_eq!(
                        table.remove(doomed),
                        reference.remove(doomed),
                        "{kind} {ways} ways diverged at remove {i}"
                    );
                }
                assert_eq!(table.len(), reference.len(), "{kind} {ways} ways at {i}");
            }
            let want: BTreeMap<u64, u64> = reference.iter().map(|(k, &v)| (k, v)).collect();
            assert_eq!(contents(&table), want, "{kind} {ways} ways contents");
            if !cfg!(miri) {
                assert!(discards > 0, "{kind} {ways} ways must exhaust a budget");
            }
        }
    }
}

#[test]
fn clone_deep_copies_payloads_and_drop_is_balanced() {
    {
        let mut t: CuckooTable<Tracked> = CuckooTable::new(2, 4, HashKind::Strong, 1).unwrap();
        t.set_max_attempts(3);
        let mut rng = SplitMix64::new(4);
        for _ in 0..32 {
            let key = rng.next_u64() >> 8;
            // Exercises replace-on-existing, displacement and discard.
            let _ = t.insert(key, Tracked::new(key));
        }
        let live_before_clone = live_payloads();
        assert_eq!(live_before_clone, t.len() as i64);
        {
            let mut cloned = t.clone();
            assert_eq!(live_payloads(), 2 * live_before_clone);
            let (some_key, payload) = {
                let (k, v) = cloned.iter().next().unwrap();
                (k, v.0)
            };
            assert_eq!(payload, some_key);
            drop(cloned.remove(some_key));
        }
        // The clone and everything it held is gone; the original intact.
        assert_eq!(live_payloads(), live_before_clone);
        assert_eq!(t.iter().count(), t.len());
    }
    assert_eq!(live_payloads(), 0, "every payload dropped");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "the geometry is the point: 2^18 slots, too slow interpreted"
)]
fn tables_across_the_huge_page_line_match_the_seed_reference() {
    use ccd_common::pages::HUGE_PAGE_BYTES;
    // 4 x 2^16 sets is the smallest 4-way geometry on the far side of
    // the line: a 2 MiB key array and, with this 8-byte payload, a 2 MiB
    // payload array, over a 256 KiB tag array that stays below it.
    const SMALL: usize = 1 << 10;
    const LARGE: usize = 1 << 16;
    const BUDGET: u32 = 8;
    type Reference = AosReferenceTable<u64>;

    fn pair(sets: usize, seed: u64) -> (CuckooTable<Tracked>, Reference) {
        let mut table = CuckooTable::new(4, sets, HashKind::Strong, seed).unwrap();
        table.set_max_attempts(BUDGET);
        let reference = Reference::new(4, sets, HashKind::Strong, seed, BUDGET).unwrap();
        if sets == LARGE {
            assert!(table.keys.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
            assert!(table.values.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
        }
        (table, reference)
    }

    fn drive(
        table: &mut CuckooTable<Tracked>,
        reference: &mut Reference,
        rng: &mut SplitMix64,
        ops: u64,
        keyspace: u64,
    ) {
        for i in 0..ops {
            let key = rng.next_below(keyspace) << 4 | 0x5;
            let got = table.insert(key, Tracked::new(key ^ i));
            let got = (got.attempts, got.discarded.map(|(k, v)| (k, v.0)));
            assert_eq!(got, reference.insert(key, key ^ i), "insert {i}");
            if i % 3 == 0 {
                let doomed = rng.next_below(keyspace) << 4 | 0x5;
                let got = table.remove(doomed).map(|v| v.0);
                assert_eq!(got, reference.remove(doomed), "remove {i}");
            }
        }
        in_step(table, reference);
    }

    /// Same entries, every payload accounted for.
    fn in_step(table: &CuckooTable<Tracked>, reference: &Reference) {
        assert_eq!(table.len(), reference.len());
        let got: BTreeMap<u64, u64> = table.iter().map(|(k, v)| (k, v.0)).collect();
        let want: BTreeMap<u64, u64> = reference.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    {
        // Below the line.
        let mut rng = SplitMix64::new(0x2_0000);
        let mut small = pair(SMALL, 7);
        drive(&mut small.0, &mut small.1, &mut rng, 6000, 6000);
        assert!(small.0.occupancy() > 0.6, "the stream loads the table");
        assert_eq!(live_payloads(), small.0.len() as i64);
    }
    assert_eq!(live_payloads(), 0, "every payload dropped");
    {
        // Above it: inserts, displacements and removals on huge-page
        // buffers stay in lockstep with the reference.
        let mut rng = SplitMix64::new(0x2_0001);
        let mut large = pair(LARGE, 8);
        drive(&mut large.0, &mut large.1, &mut rng, 12_000, 1 << 20);
        assert_eq!(live_payloads(), large.0.len() as i64);

        // Clone and Drop of a table whose arrays are huge-page buffers.
        {
            let mut cloned = large.0.clone();
            assert!(cloned.keys.as_ptr().addr().is_multiple_of(HUGE_PAGE_BYTES));
            assert_eq!(live_payloads(), 2 * large.0.len() as i64);
            in_step(&cloned, &large.1);
            let (key, _) = cloned.iter().next().unwrap();
            drop(cloned.remove(key));
            assert!(large.0.contains(key), "the clone owns its own arrays");
        }
        assert_eq!(live_payloads(), large.0.len() as i64);
    }
    assert_eq!(live_payloads(), 0, "every payload dropped");
}

#[test]
fn check_invariants_names_corrupted_tags_keys_and_counts() {
    let kind = HashKind::Strong;
    let mut table: CuckooTable<u64> = CuckooTable::new(4, 64, kind, 5).unwrap();
    assert_eq!(table.check_invariants(), Ok(()), "an empty table");
    for key in 0..150u64 {
        table.insert(key * 7919, key);
    }
    assert_eq!(table.check_invariants(), Ok(()));
    let slot = (0..table.capacity())
        .find(|&slot| table.tags[slot] != EMPTY_TAG)
        .unwrap();

    table.tags[slot] ^= 1;
    let why = table.check_invariants().unwrap_err();
    assert!(why.contains("fingerprint"), "{kind}: {why}");
    table.tags[slot] ^= 1;

    // A key with the same fingerprint that hashes elsewhere.
    let resident = table.keys[slot];
    let mut indices = [0usize; MAX_FAMILY_WAYS];
    let stray = (1u64 << 40..)
        .find(|&key| {
            table.hash_into(key, &mut indices);
            fingerprint(key) == fingerprint(resident)
                && indices[slot / table.sets] != slot % table.sets
        })
        .unwrap();
    table.keys[slot] = stray;
    let why = table.check_invariants().unwrap_err();
    assert!(why.contains("whose hash sends it to"), "{kind}: {why}");
    table.keys[slot] = resident;

    // A second copy of a resident key in a vacant candidate slot of
    // a later way (counted, so only the duplicate is wrong).
    let (slot, twin) = (0..table.capacity())
        .filter(|&slot| table.tags[slot] != EMPTY_TAG)
        .find_map(|slot| {
            table.hash_into(table.keys[slot], &mut indices);
            (slot / table.sets + 1..table.ways)
                .map(|way| way * table.sets + indices[way])
                .find(|&twin| table.tags[twin] == EMPTY_TAG)
                .map(|twin| (slot, twin))
        })
        .unwrap();
    table.tags[twin] = fingerprint(table.keys[slot]);
    table.keys[twin] = table.keys[slot];
    table.valid += 1;
    let why = table.check_invariants().unwrap_err();
    assert!(why.contains("is stored again at slot"), "{kind}: {why}");
    table.tags[twin] = EMPTY_TAG;
    table.valid -= 1;

    table.valid += 1;
    let why = table.check_invariants().unwrap_err();
    assert!(why.contains("slots are occupied"), "{kind}: {why}");
    table.valid -= 1;
    assert_eq!(table.check_invariants(), Ok(()));
}

// ---- Narrow keys ------------------------------------------------------

/// Random lines below the 42-bit bound of a 48-bit physical address.
fn random_lines(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| rng.next_u64() >> (64 - ccd_common::LINE_ADDRESS_BITS))
        .collect()
}

#[test]
fn narrow_words_round_trip_to_their_keys_in_every_way() {
    use ccd_common::LineAddr;
    use ccd_hash::{skewing, IndexHashFamily, SkewingFamily};
    for n in [10u32, 12, 20] {
        let sets = 1usize << n;
        assert!(narrow_keys(HashKind::Skewing, sets), "2^{n} sets");
        let family = SkewingFamily::new(skewing::MAX_WAYS, sets).unwrap();
        for key in random_lines(0x0A12 + u64::from(n), 2000) {
            let word = u32::pack(key, n);
            assert_eq!(
                u64::from(word),
                key >> n,
                "the word is the bits above the index"
            );
            for way in 0..skewing::MAX_WAYS {
                let index = family.index(way, LineAddr::from_block_number(key));
                let rebuilt = family.line_from_high(way, index, word.bits());
                assert_eq!(rebuilt.block_number(), key, "2^{n} sets, way {way}");
            }
        }
    }
}

#[test]
fn narrow_tables_rebuild_every_key_they_hold() {
    for (ways, n) in [(4usize, 10u32), (8, 12), (2, 20)] {
        let sets = 1usize << n;
        let mut table: CuckooTable<u64, u32> =
            CuckooTable::with_key_word(ways, sets, HashKind::Skewing, 0).unwrap();
        let mut wide: CuckooTable<u64> =
            CuckooTable::new(ways, sets, HashKind::Skewing, 0).unwrap();
        // Nine tenths of the capacity, so displacement and discards run
        // and every way fills; capped so the 2^20-set case stays quick.
        let lines = random_lines(0xB0 + u64::from(n), (ways * sets * 9 / 10).min(40_000));
        for &key in &lines {
            assert_eq!(table.insert(key, !key), wide.insert(key, !key));
        }
        assert_eq!(table.check_invariants(), Ok(()));
        assert_eq!(table.len(), wide.len());
        let mut per_way = vec![0usize; ways];
        for slot in (0..table.capacity()).filter(|&slot| table.tags[slot] != EMPTY_TAG) {
            assert_eq!(table.key_of(slot), wide.key_of(slot), "same placement");
            per_way[slot / sets] += 1;
        }
        assert!(
            per_way.iter().all(|&n| n > 0),
            "every way holds keys: {per_way:?}"
        );
        let got: BTreeMap<u64, u64> = table.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, contents(&wide));
        for &key in &lines {
            assert_eq!(table.get(key), wide.get(key));
        }
        for absent in random_lines(0xAB5E, 2000) {
            assert_eq!(table.contains(absent), wide.contains(absent), "{absent:#x}");
        }
    }
}

#[test]
fn only_skewing_from_1024_sets_stores_narrow_words() {
    for n in 1..=30u32 {
        let sets = 1usize << n;
        assert_eq!(narrow_keys(HashKind::Skewing, sets), n >= 10, "2^{n} sets");
        assert!(!narrow_keys(HashKind::Strong, sets), "strong, 2^{n} sets");
    }
    // A narrow word asked for where it cannot rebuild the key is refused.
    for (kind, sets) in [
        (HashKind::Skewing, 512),
        (HashKind::Strong, 1 << 10),
        (HashKind::Strong, 1 << 20),
    ] {
        let err = CuckooTable::<(), u32>::with_key_word(4, sets, kind, 0).unwrap_err();
        assert!(
            matches!(err, ConfigError::Inconsistent { .. }),
            "{kind} {sets}: {err}"
        );
    }
    assert!(CuckooTable::<(), u32>::with_key_word(4, 1024, HashKind::Skewing, 0).is_ok());
}

#[test]
fn check_invariants_catches_a_corrupted_narrow_word() {
    let mut table: CuckooTable<u64, u32> =
        CuckooTable::with_key_word(4, 1 << 10, HashKind::Skewing, 0).unwrap();
    for key in random_lines(0xC0, 2000) {
        table.insert(key, key);
    }
    assert_eq!(table.check_invariants(), Ok(()));
    let slot = (0..table.capacity())
        .find(|&slot| table.tags[slot] != EMPTY_TAG)
        .unwrap();
    let resident = table.keys[slot];

    // A word past the 32 bits a line has above 2^10 sets cannot be
    // written in a u32, so shrink the table's view: 2^12 sets leave 30.
    let mut wider: CuckooTable<u64, u32> =
        CuckooTable::with_key_word(4, 1 << 12, HashKind::Skewing, 0).unwrap();
    for key in random_lines(0xC1, 2000) {
        wider.insert(key, key);
    }
    let far = (0..wider.capacity())
        .find(|&slot| wider.tags[slot] != EMPTY_TAG)
        .unwrap();
    wider.keys[far] |= 1 << 30;
    let why = wider.check_invariants().unwrap_err();
    assert!(why.contains("does not fit the 30 bits"), "{why}");

    // A word that fits but names another line: the slot rebuilds that
    // line, whose fingerprint is not the tag.
    table.keys[slot] = resident ^ 1;
    let why = table.check_invariants().unwrap_err();
    assert!(why.contains("fingerprint"), "{why}");
    table.keys[slot] = resident;
    assert_eq!(table.check_invariants(), Ok(()));
}
