//! Streams of unique uniformly random keys.
//!
//! Section 5.1 characterizes d-ary cuckoo hashing by inserting "100,000
//! random values" and measuring attempts and failures as a function of
//! occupancy.  [`RandomKeyStream`] produces exactly such a stream: unique
//! 64-bit keys drawn uniformly at random, deterministic for a given seed.

use ccd_common::rng::{Rng64, Xoshiro256};
// ccd-lint: allow(no-default-hasher) reason="dedup membership only, never iterated"
use std::collections::HashSet;

/// An infinite stream of unique random 64-bit keys.
#[derive(Clone, Debug)]
pub struct RandomKeyStream {
    rng: Xoshiro256,
    // ccd-lint: allow(no-default-hasher) reason="dedup membership only, never iterated"
    seen: HashSet<u64>,
}

impl RandomKeyStream {
    /// Creates a stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomKeyStream {
            rng: Xoshiro256::new(seed),
            // ccd-lint: allow(no-default-hasher) reason="dedup membership only, never iterated"
            seen: HashSet::new(),
        }
    }

    /// Draws the next key, guaranteed distinct from all previously drawn
    /// keys of this stream.
    pub fn next_key(&mut self) -> u64 {
        loop {
            // Keys model block numbers: keep them within the 42-bit range of
            // a 48-bit physical address space with 64-byte blocks.
            let key = self.rng.next_u64() >> 22;
            if self.seen.insert(key) {
                return key;
            }
        }
    }

    /// Number of keys drawn so far.
    #[must_use]
    pub fn drawn(&self) -> usize {
        self.seen.len()
    }
}

impl Iterator for RandomKeyStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_deterministic() {
        let mut a = RandomKeyStream::new(9);
        let mut b = RandomKeyStream::new(9);
        let ka: Vec<u64> = a.by_ref().take(10_000).collect();
        let kb: Vec<u64> = b.by_ref().take(10_000).collect();
        assert_eq!(ka, kb);
        let unique: HashSet<_> = ka.iter().collect();
        assert_eq!(unique.len(), ka.len());
        assert_eq!(a.drawn(), 10_000);
    }

    #[test]
    fn keys_fit_in_block_number_range() {
        for k in RandomKeyStream::new(3).take(1000) {
            assert!(k < (1u64 << 42));
        }
    }

    #[test]
    fn iterator_interface_works() {
        let keys: Vec<u64> = RandomKeyStream::new(1).take(5).collect();
        assert_eq!(keys.len(), 5);
    }
}
