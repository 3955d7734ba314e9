//! Full (uncompressed) sharer bit vectors.
//!
//! One presence bit per private cache — the representation of the
//! traditional Sparse directory (Censier–Feautrier style).  Exact and
//! trivially cheap to update, but its width grows linearly with the number
//! of caches, which is precisely the scalability problem Section 3.2 of the
//! paper describes ("at 256 cores, the aggregate vector-based L1 directory
//! could consume more than 256 MB of on-chip storage").

use crate::SharerSet;
use ccd_common::CacheId;

/// Storage width in bits of a full vector for `num_caches` caches.
#[must_use]
pub fn vector_bits(num_caches: usize) -> u64 {
    num_caches as u64
}

/// Caches whose presence bits fit the inline word.
const INLINE_CACHES: usize = u64::BITS as usize;

/// The presence bits: one word stored in the entry itself for up to
/// [`INLINE_CACHES`] caches, a heap slice of `ceil(num_caches / 64)` words
/// above that.  The representation is a function of `num_caches` alone, so
/// two vectors of the same width always compare variant against variant.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Words {
    Inline(u64),
    Heap(Box<[u64]>),
}

/// An exact, one-bit-per-cache sharer vector.
///
/// Up to 64 caches the vector is 24 bytes of plain data: creating, cloning
/// and dropping one never touches the allocator, and a directory hit reads
/// the presence word out of the entry it already fetched instead of chasing
/// a pointer to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FullBitVector {
    words: Words,
    num_caches: u32,
    count: u32,
}

impl FullBitVector {
    /// Number of caches currently marked as sharers.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The word holding `cache`'s presence bit, and that bit's mask.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    fn locate_mut(&mut self, cache: CacheId) -> (&mut u64, u64) {
        let index = cache.index();
        assert!(
            index < self.num_caches as usize,
            "{cache} out of range for a {}-cache sharer vector",
            self.num_caches
        );
        let word = match &mut self.words {
            Words::Inline(word) => word,
            Words::Heap(words) => &mut words[index / 64],
        };
        (word, 1 << (index % 64))
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(word) => std::slice::from_ref(word),
            Words::Heap(words) => words,
        }
    }

    /// Checks what the methods above rely on and describes the first
    /// clause broken: the representation is the one `num_caches` selects
    /// (so `==` compares like with like), no bit is set at or past
    /// `num_caches`, and `count` is the number of set bits.
    #[cfg(test)]
    fn check_invariants(&self) -> Result<(), String> {
        let caches = self.num_caches as usize;
        let inline = matches!(self.words, Words::Inline(_));
        let words = self.words();
        if inline != (caches <= INLINE_CACHES) || words.len() != caches.div_ceil(64) {
            let kind = if inline { "inline" } else { "heap" };
            return Err(format!("{} {kind} words for {caches} caches", words.len()));
        }
        let last = words[words.len() - 1];
        let spare = (words.len() * 64 - caches) as u32;
        if last.leading_zeros() < spare {
            return Err(format!("a bit past cache {caches} in {last:#x}"));
        }
        let set: u32 = words.iter().map(|w| w.count_ones()).sum();
        if set != self.count {
            return Err(format!("count {} but {set} bits set", self.count));
        }
        Ok(())
    }
}

impl SharerSet for FullBitVector {
    fn new(num_caches: usize) -> Self {
        assert!(num_caches > 0, "sharer vector needs at least one cache");
        assert!(
            u32::try_from(num_caches).is_ok(),
            "cache ids are 32-bit: no vector tracks {num_caches} caches"
        );
        let words = if num_caches <= INLINE_CACHES {
            Words::Inline(0)
        } else {
            Words::Heap(vec![0; num_caches.div_ceil(64)].into_boxed_slice())
        };
        FullBitVector {
            words,
            num_caches: num_caches as u32,
            count: 0,
        }
    }

    fn num_caches(&self) -> usize {
        self.num_caches as usize
    }

    fn add(&mut self, cache: CacheId) {
        let (word, bit) = self.locate_mut(cache);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
        }
    }

    fn remove(&mut self, cache: CacheId) {
        let (word, bit) = self.locate_mut(cache);
        if *word & bit != 0 {
            *word &= !bit;
            self.count -= 1;
        }
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        let index = cache.index();
        index < self.num_caches() && self.words()[index / 64] & (1 << (index % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn invalidation_targets(&self) -> Vec<CacheId> {
        let mut targets = Vec::with_capacity(self.count());
        self.extend_targets(&mut targets);
        targets
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        for (w, &word) in self.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(CacheId::new((w * 64 + b) as u32));
                bits &= bits - 1;
            }
        }
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn exact_count(&self) -> Option<usize> {
        Some(self.count())
    }

    fn clear(&mut self) {
        match &mut self.words {
            Words::Inline(word) => *word = 0,
            Words::Heap(words) => words.fill(0),
        }
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_contains() {
        let mut v = FullBitVector::new(130);
        assert_eq!(vector_bits(130), 130);
        for i in [0u32, 63, 64, 65, 129] {
            v.add(CacheId::new(i));
        }
        assert_eq!(v.count(), 5);
        assert_eq!(v.exact_count(), Some(5));
        assert!(v.may_contain(CacheId::new(64)));
        assert!(!v.may_contain(CacheId::new(1)));

        v.remove(CacheId::new(64));
        assert!(!v.may_contain(CacheId::new(64)));
        assert_eq!(v.count(), 4);

        // Double add / double remove are idempotent.
        v.add(CacheId::new(0));
        assert_eq!(v.count(), 4);
        v.remove(CacheId::new(64));
        assert_eq!(v.count(), 4);
    }

    #[test]
    fn invalidation_targets_are_sorted_and_exact() {
        let mut v = FullBitVector::new(200);
        let ids = [199u32, 3, 77, 128];
        for &i in &ids {
            v.add(CacheId::new(i));
        }
        let targets = v.invalidation_targets();
        assert_eq!(
            targets,
            vec![
                CacheId::new(3),
                CacheId::new(77),
                CacheId::new(128),
                CacheId::new(199)
            ]
        );
        assert!(v.is_exact());
    }

    #[test]
    fn clear_empties_everything() {
        let mut v = FullBitVector::new(16);
        for i in 0..16u32 {
            v.add(CacheId::new(i));
        }
        assert_eq!(v.count(), 16);
        v.clear();
        assert!(v.is_empty());
        assert!(v.invalidation_targets().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut v = FullBitVector::new(8);
        v.add(CacheId::new(8));
    }

    #[test]
    fn the_entry_stays_small_and_inline_up_to_64_caches() {
        // The cuckoo table stores one of these per slot: 24 bytes is what
        // keeps an entry (tag + key + vector) at 33 bytes.
        assert!(std::mem::size_of::<FullBitVector>() <= 24);
        assert!(matches!(FullBitVector::new(64).words, Words::Inline(_)));
        assert!(matches!(FullBitVector::new(65).words, Words::Heap(_)));
    }

    #[test]
    fn both_representations_track_a_bool_model_in_lockstep() {
        use ccd_common::rng::{Rng64, SplitMix64};

        for caches in [1usize, 63, 64, 65, 128, 1024] {
            let mut rng = SplitMix64::new(caches as u64);
            let mut vector = FullBitVector::new(caches);
            let mut model = vec![false; caches];
            let steps = if cfg!(miri) { 200 } else { 4 * caches + 200 };
            for step in 0..steps {
                let cache = rng.next_below(caches as u64) as usize;
                match rng.next_below(16) {
                    0 => {
                        vector.clear();
                        model.fill(false);
                    }
                    1..=5 => {
                        vector.remove(CacheId::new(cache as u32));
                        model[cache] = false;
                    }
                    _ => {
                        vector.add(CacheId::new(cache as u32));
                        model[cache] = true;
                    }
                }
                assert_eq!(vector.check_invariants(), Ok(()), "{caches} caches");
                let expected: Vec<CacheId> = (0..caches)
                    .filter(|&c| model[c])
                    .map(|c| CacheId::new(c as u32))
                    .collect();
                let mut targets = vec![CacheId::new(u32::MAX)];
                vector.extend_targets(&mut targets);
                assert_eq!(targets[1..], expected[..], "{caches} caches, step {step}");
                assert_eq!(vector.invalidation_targets(), expected);
                assert_eq!(vector.count(), expected.len());
                assert_eq!(vector.is_empty(), expected.is_empty());
                assert_eq!(vector.may_contain(CacheId::new(cache as u32)), model[cache]);
                assert!(!vector.may_contain(CacheId::new(caches as u32)));
                assert!(!vector.may_contain(CacheId::new(u32::MAX)));

                // A clone is equal and independent; a vector rebuilt from
                // the model is equal too, whatever order its bits arrived in.
                let mut clone = vector.clone();
                assert_eq!(clone, vector);
                let mut rebuilt = FullBitVector::new(caches);
                expected.iter().rev().for_each(|&c| rebuilt.add(c));
                assert_eq!(rebuilt, vector);
                clone.add(CacheId::new(cache as u32));
                clone.remove(CacheId::new((cache + 1) as u32 % caches as u32));
                assert_eq!(clone.check_invariants(), Ok(()), "{caches} caches");
                assert_eq!(vector.invalidation_targets(), expected);
                assert_eq!(clone == vector, clone.invalidation_targets() == expected);
            }
            assert_eq!(vector.num_caches(), caches);
            assert_eq!(vector_bits(caches), caches as u64);
        }
    }

    #[test]
    fn may_contain_out_of_range_is_false() {
        let v = FullBitVector::new(8);
        assert!(!v.may_contain(CacheId::new(100)));
    }
}
