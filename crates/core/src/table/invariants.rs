//! The table's structural invariants, checked in tests and debug builds.

use super::kernels::fingerprint;
use super::{CuckooTable, KeyWord, EMPTY_TAG};
use ccd_common::LINE_ADDRESS_BITS;
use ccd_hash::MAX_FAMILY_WAYS;

impl<V, Q: KeyWord> CuckooTable<V, Q> {
    /// Checks the table's structural invariants and describes the first one
    /// broken.  Walks every slot and hashes every stored key, so it belongs
    /// in tests, never on a request path.
    ///
    /// * A narrow key word fits the `42 − n` bits a line has above the
    ///   index of `2^n` sets.
    /// * Every occupied slot's tag is its key's fingerprint.  With narrow
    ///   words this is the key rebuilt from the slot, so a corrupted word
    ///   shows here.
    /// * Every stored key sits in a candidate slot: at the index its own
    ///   way's hash gives it (true by construction of a rebuilt key).
    /// * No key is stored twice: none of its other candidate slots holds it
    ///   too.
    /// * [`CuckooTable::len`] equals the number of occupied slots.
    ///
    /// # Errors
    ///
    /// The broken invariant, with the slot and key it was found at.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut indices = [0usize; MAX_FAMILY_WAYS];
        let mut occupied = 0usize;
        for slot in 0..self.capacity() {
            let (way, index) = (slot / self.sets, slot % self.sets);
            let tag = self.tags[slot];
            if tag == EMPTY_TAG {
                continue;
            }
            occupied += 1;
            if Q::NARROW {
                let word = self.keys[slot].bits();
                let high_bits = LINE_ADDRESS_BITS - self.index_bits();
                if word >> high_bits != 0 {
                    return Err(format!(
                        "slot {slot}: key word {word:#x} does not fit the {high_bits} \
                         bits above the index"
                    ));
                }
            }
            let key = self.key_of(slot);
            if tag != fingerprint(key) {
                return Err(format!(
                    "slot {slot}: tag {tag:#04x} is not key {key:#x}'s fingerprint {:#04x}",
                    fingerprint(key)
                ));
            }
            self.hash_into(key, &mut indices);
            if indices[way] != index {
                return Err(format!(
                    "slot {slot}: key {key:#x} sits at index {index} of way {way}, \
                     whose hash sends it to {}",
                    indices[way]
                ));
            }
            for (other, &at) in indices.iter().enumerate().take(self.ways).skip(way + 1) {
                let twin = other * self.sets + at;
                if self.tags[twin] != EMPTY_TAG && self.key_of(twin) == key {
                    return Err(format!(
                        "slot {slot}: key {key:#x} is stored again at slot {twin}"
                    ));
                }
            }
        }
        if occupied != self.valid {
            return Err(format!(
                "len() is {} but {occupied} slots are occupied",
                self.valid
            ));
        }
        Ok(())
    }
}
