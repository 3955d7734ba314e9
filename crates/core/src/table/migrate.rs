//! Migration between tables: the primitive behind online live resize.

use super::{CuckooTable, InsertOutcome, EMPTY_TAG};

impl<V> CuckooTable<V> {
    /// Drains every resident entry into `target` through its batched
    /// insertion path ([`CuckooTable::apply_batch`]), leaving `self` empty —
    /// the migration primitive behind online live resize.
    ///
    /// Entries move in ascending slot order in fixed-size batches, so a
    /// migration between deterministic tables is itself deterministic.
    /// Returns the entries `target` discarded (attempt-budget expiry during
    /// re-insertion) — empty whenever `target` is provisioned at least as
    /// generously as `self`.
    pub fn migrate_into(&mut self, target: &mut CuckooTable<V>) -> Vec<(u64, V)> {
        const MIGRATE_BATCH: usize = 64;
        debug_assert_eq!(self.check_invariants(), Ok(()), "migration source");
        let mut entries: Vec<(u64, V)> = Vec::with_capacity(MIGRATE_BATCH);
        let mut outcomes: Vec<InsertOutcome<V>> = Vec::with_capacity(MIGRATE_BATCH);
        let mut discarded = Vec::new();
        for slot in 0..self.ways * self.sets {
            if self.tags[slot] == EMPTY_TAG {
                continue;
            }
            self.tags[slot] = EMPTY_TAG;
            self.valid -= 1;
            // SAFETY: the occupied tag guarantees an initialized payload,
            // and the tag is cleared above so it is never read again here.
            let value = unsafe { self.values[slot].assume_init_read() };
            entries.push((self.keys[slot], value));
            if entries.len() == MIGRATE_BATCH {
                target.apply_batch(&mut entries, &mut outcomes);
                discarded.extend(outcomes.drain(..).filter_map(|o| o.discarded));
            }
        }
        if !entries.is_empty() {
            target.apply_batch(&mut entries, &mut outcomes);
            discarded.extend(outcomes.drain(..).filter_map(|o| o.discarded));
        }
        debug_assert!(self.is_empty());
        debug_assert_eq!(target.check_invariants(), Ok(()), "migration target");
        discarded
    }
}
