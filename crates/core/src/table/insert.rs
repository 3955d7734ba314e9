//! Insertion: the paper's greedy displacement chain and its slot writes.

use super::kernels::fingerprint;
use super::{ways_dispatch, CuckooTable, FindOrInsert, InsertOutcome, KeyWord, EMPTY_TAG};
use std::mem::MaybeUninit;

impl<V, Q: KeyWord> CuckooTable<V, Q> {
    /// Writes `key`/`value` into the vacant `slot`.
    #[inline]
    fn fill_slot(&mut self, slot: usize, key: u64, value: V) {
        debug_assert_eq!(self.tags[slot], EMPTY_TAG, "fill requires a vacant slot");
        self.tags[slot] = fingerprint(key);
        self.keys[slot] = self.word_of(key);
        self.values[slot].write(value);
    }

    /// Replaces the occupant of `slot` with `key`/`value`, returning the
    /// displaced pair, its key rebuilt in full.
    #[inline]
    fn swap_slot(&mut self, slot: usize, key: u64, value: V) -> (u64, V) {
        assert!(
            self.tags[slot] != EMPTY_TAG,
            "displacement only happens into occupied slots"
        );
        let old_key = self.key_of(slot);
        // SAFETY: the occupied tag guarantees the payload is initialized,
        // and it is replaced (not duplicated) in the same expression.
        let old_value = unsafe {
            std::mem::replace(&mut self.values[slot], MaybeUninit::new(value)).assume_init()
        };
        self.tags[slot] = fingerprint(key);
        self.keys[slot] = self.word_of(key);
        (old_key, old_value)
    }

    /// Inserts `key` with `value`, displacing existing entries as needed.
    ///
    /// If `key` is already present its payload is replaced and the insertion
    /// counts one attempt.  When the attempt budget is exhausted the most
    /// recently displaced entry is discarded and returned in
    /// [`InsertOutcome::discarded`]; `key` itself is always stored.
    pub fn insert(&mut self, key: u64, value: V) -> InsertOutcome<V> {
        ways_dispatch!(self.ways, N => self.insert_prehashed(key, value, &mut self.hashed::<N>(key)))
    }

    /// The insertion body, with `indices[..ways]` already holding `key`'s
    /// candidate set indices.  The lookup that precedes every insertion and
    /// the vacancy scan share one fused probe over those indices.
    pub(super) fn insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        if let Some(slot) = probe.hit {
            // SAFETY: `probe` only reports occupied slots as hits.
            unsafe { self.values[slot].assume_init_drop() };
            self.values[slot].write(value);
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        // Vacant candidate revealed by the lookup: first-attempt success.
        if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, value);
            self.valid += 1;
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        self.displace(key, value, indices)
    }

    /// The displacement chain: the in-flight entry looks for a home, kicking
    /// out victims round-robin starting at the way where the previous chain
    /// stopped.  `indices` holds the in-flight entry's candidate indices on
    /// entry and is reused as the scratch buffer for each victim — every
    /// victim is hashed exactly once, covering both its vacancy probe and
    /// its next displacement target.
    fn displace<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let mut attempts: u32 = 1;
        let mut current_key = key;
        let mut current_value = value;
        let mut way = self.next_start_way;
        self.valid += 1; // `key` will end up stored; track it now.
        loop {
            if attempts >= self.max_attempts {
                // Budget exhausted: discard the most recently displaced
                // entry to guarantee termination.  The incoming request is
                // never the one discarded — if the chain circled back to it,
                // perform one final displacement so the requested block stays
                // tracked and the displaced victim is invalidated instead.
                self.next_start_way = way;
                self.valid -= 1;
                if current_key == key {
                    let slot = way * self.sets + indices[way];
                    let victim = self.swap_slot(slot, current_key, current_value);
                    self.record_chain(attempts);
                    return InsertOutcome {
                        attempts,
                        discarded: Some(victim),
                    };
                }
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: Some((current_key, current_value)),
                };
            }

            // Write the in-flight entry into its candidate slot in `way`,
            // displacing whatever lives there.
            let slot = way * self.sets + indices[way];
            let (victim_key, victim_value) = self.swap_slot(slot, current_key, current_value);
            attempts += 1;

            // Probe the victim's candidate slots for a vacancy; its indices
            // stay in the scratch buffer for the next round.
            self.hash_into(victim_key, indices);
            if let Some(vacant) = self.first_vacant_prehashed(indices) {
                self.fill_slot(vacant, victim_key, victim_value);
                self.next_start_way = way;
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: None,
                };
            }

            // No vacancy: the victim becomes the in-flight entry and we move
            // on to the next way.
            current_key = victim_key;
            current_value = victim_value;
            way = (way + 1) % self.ways_of::<N>();
        }
    }

    /// Looks `key` up and, when absent, inserts `make()` via the cuckoo
    /// displacement procedure — one fused probe covers the lookup-hit and
    /// vacancy scans.  `make` is only invoked when the key is actually
    /// inserted; an existing payload is left untouched (unlike
    /// [`CuckooTable::insert`], which replaces it).  The returned borrow
    /// always refers to the payload stored for `key`, which is guaranteed to
    /// be resident afterwards even when the insertion discarded a victim.
    /// `indices[..ways]` holds `key`'s candidate set indices on entry (the
    /// displacement chain reuses them as its scratch buffer).
    #[inline]
    pub(crate) fn find_or_insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        indices: &mut [usize; N],
        make: impl FnOnce() -> V,
    ) -> FindOrInsert<'_, V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        let (slot, inserted) = if let Some(slot) = probe.hit {
            (slot, None)
        } else if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, make());
            self.valid += 1;
            (
                slot,
                Some(InsertOutcome {
                    attempts: 1,
                    discarded: None,
                }),
            )
        } else {
            let outcome = self.displace(key, make(), indices);
            // The chain may have moved the new entry again before settling,
            // so its final slot needs one re-probe (rare path: all candidate
            // slots were occupied).
            #[expect(
                clippy::expect_used,
                reason = "find runs immediately after an insert that stored the key on its terminal path"
            )]
            let slot = self
                .find_n::<N>(key)
                .expect("insertion always stores the requested key");
            (slot, Some(outcome))
        };
        FindOrInsert {
            // SAFETY: both branches produce an occupied slot for `key`.
            value: unsafe { self.values[slot].assume_init_mut() },
            inserted,
        }
    }
}
