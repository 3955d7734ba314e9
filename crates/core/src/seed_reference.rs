//! The seed's array-of-structs cuckoo table, kept as a reference model.
//!
//! This is a literal transcription of the original (pre-SoA) table:
//! `Vec<Option<(key, value)>>` storage, branchy `Option` probing,
//! search-then-hash double hashing on insertion.  It is **not** part of the
//! public API surface — it exists only so the lockstep suites can drive the
//! SoA/SWAR [`CuckooTable`](crate::CuckooTable) against the seed semantics
//! (same attempt counts, same discard choices — the Section 5.2
//! accounting).  It is no longer a timing baseline: nothing measures it.

use ccd_common::{ConfigError, LineAddr};
use ccd_hash::{HashFamily, HashKind, IndexHashFamily};

/// The seed's array-of-structs d-ary cuckoo table (reference model).
#[derive(Clone, Debug)]
pub struct AosReferenceTable<V> {
    ways: usize,
    sets: usize,
    hashes: HashFamily,
    slots: Vec<Option<(u64, V)>>,
    valid: usize,
    max_attempts: u32,
    next_start_way: usize,
}

impl<V> AosReferenceTable<V> {
    /// Creates the reference table with the same parameters as
    /// [`CuckooTable::new`](crate::CuckooTable::new) plus an explicit
    /// attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates the hash family's validation errors.
    pub fn new(
        ways: usize,
        sets: usize,
        kind: HashKind,
        seed: u64,
        max_attempts: u32,
    ) -> Result<Self, ConfigError> {
        let hashes = HashFamily::with_seed(kind, ways, sets, seed)?;
        Ok(AosReferenceTable {
            ways,
            sets,
            hashes,
            slots: (0..ways * sets).map(|_| None).collect(),
            valid: 0,
            max_attempts,
            next_start_way: 0,
        })
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    fn slot_index(&self, way: usize, key: u64) -> usize {
        way * self.sets + self.hashes.index(way, LineAddr::from_block_number(key))
    }

    fn find(&self, key: u64) -> Option<usize> {
        (0..self.ways)
            .map(|w| self.slot_index(w, key))
            .find(|&slot| matches!(&self.slots[slot], Some((k, _)) if *k == key))
    }

    fn find_vacant(&self, key: u64) -> Option<usize> {
        (0..self.ways)
            .map(|w| self.slot_index(w, key))
            .find(|&slot| self.slots[slot].is_none())
    }

    /// `true` when `key` is present.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key`, returning its payload.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find(key)?;
        #[expect(
            clippy::expect_used,
            reason = "the reference model only takes/updates slots its own bookkeeping marked occupied"
        )]
        let (_, value) = self.slots[slot].take().expect("slot is valid");
        self.valid -= 1;
        Some(value)
    }

    /// Iterates over `(key, &payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Inserts with the seed's exact procedure and accounting: `find` then
    /// `find_vacant` (each hashing every way), then the displacement chain.
    /// Returns `(attempts, discarded)`.
    #[expect(
        clippy::expect_used,
        reason = "the reference model only updates slots its own bookkeeping marked occupied, and cuckoo displacement by definition evicts an existing occupant"
    )]
    pub fn insert(&mut self, key: u64, value: V) -> (u32, Option<(u64, V)>) {
        if let Some(slot) = self.find(key) {
            self.slots[slot].as_mut().expect("slot is valid").1 = value;
            return (1, None);
        }
        if let Some(slot) = self.find_vacant(key) {
            self.slots[slot] = Some((key, value));
            self.valid += 1;
            return (1, None);
        }
        let mut attempts: u32 = 1;
        let mut current = (key, value);
        let mut way = self.next_start_way;
        self.valid += 1;
        loop {
            if attempts >= self.max_attempts {
                self.next_start_way = way;
                self.valid -= 1;
                if current.0 == key {
                    let slot = self.slot_index(way, current.0);
                    let victim = self.slots[slot]
                        .replace(current)
                        .expect("displacement only happens into occupied slots");
                    return (attempts, Some(victim));
                }
                return (attempts, Some(current));
            }
            let slot = self.slot_index(way, current.0);
            let displaced = self.slots[slot].replace(current);
            attempts += 1;
            let victim = displaced.expect("displacement only happens into occupied slots");
            if let Some(vacant) = self.find_vacant(victim.0) {
                self.slots[vacant] = Some(victim);
                self.next_start_way = way;
                return (attempts, None);
            }
            current = victim;
            way = (way + 1) % self.ways;
        }
    }
}
