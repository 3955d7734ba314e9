//! Full (uncompressed) sharer bit vectors.
//!
//! One presence bit per private cache — the representation of the
//! traditional Sparse directory (Censier–Feautrier style).  Exact and
//! trivially cheap to update, but its width grows linearly with the number
//! of caches, which is precisely the scalability problem Section 3.2 of the
//! paper describes ("at 256 cores, the aggregate vector-based L1 directory
//! could consume more than 256 MB of on-chip storage").
//!
//! The width is a property of the directory, not of each entry, and an
//! entry stores the width the paper prices (`vector_bits`) rounded up to
//! a machine word.  Up to 64 caches an entry's vector is a
//! [`PresenceWord`]: the narrowest of `u16`, `u32` and `u64` that holds one
//! bit per cache, plain data, its sharer count a `count_ones`.  At the
//! Table 1 systems that is 2 bytes (Private-L2, 16 caches) and 4 bytes
//! (Shared-L2, 32 caches).  Above 64 caches it is a [`WideBitVector`],
//! `ceil(caches / 64)` words on the heap.  The directory registry picks the
//! representation once per directory, from its cache count
//! (`ccd_directory::match_sharer_format!`), so both sides of a comparison
//! are always the same type.  None stores the cache count: the range check
//! `cache < caches` belongs to the directory, which knows the count and
//! makes the check once, at its op entry.

use crate::SharerSet;
use ccd_common::CacheId;
use std::fmt::Debug;

/// Storage width in bits of a full vector for `num_caches` caches.
#[must_use]
pub(crate) fn vector_bits(num_caches: usize) -> u64 {
    num_caches as u64
}

/// Appends the caches whose bits are set in `word`, the word that starts at
/// cache `base`, in ascending order.
fn push_set_bits(out: &mut Vec<CacheId>, base: usize, word: u64) {
    let mut bits = word;
    while bits != 0 {
        out.push(CacheId::new((base + bits.trailing_zeros() as usize) as u32));
        bits &= bits - 1;
    }
}

mod sealed {
    pub trait Sealed {}
}

/// An unsigned integer a [`PresenceWord`] keeps its bits in: `u16`, `u32`
/// or `u64`, and nothing else (the trait is sealed).  There is no `u8`:
/// no workload or paper configuration tracks 8 caches or fewer.
pub trait Word: sealed::Sealed + Copy + Debug + Default + Eq + Send + Sync {
    /// Caches the word tracks: its width in bits.
    const CACHES: usize;

    /// The word, zero-extended.
    fn widen(self) -> u64;

    /// The low [`Word::CACHES`] bits of `bits`.
    fn narrow(bits: u64) -> Self;
}

macro_rules! impl_word {
    ($($word:ty),*) => {$(
        impl sealed::Sealed for $word {}

        impl Word for $word {
            const CACHES: usize = <$word>::BITS as usize;

            #[inline]
            fn widen(self) -> u64 {
                u64::from(self)
            }

            #[inline]
            fn narrow(bits: u64) -> Self {
                bits as $word
            }
        }
    )*};
}

impl_word!(u16, u32, u64);

/// An exact, one-bit-per-cache sharer vector for up to `W::CACHES` caches:
/// the presence word and nothing else.
///
/// A cuckoo entry is then a tag byte, a key word and this word — 11 bytes
/// over a `u16`, 13 over a `u32`, 17 over a `u64` — and creating, cloning
/// and dropping one never touches the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresenceWord<W: Word> {
    bits: W,
}

/// The 64-cache presence word, the widest: what a caller that names one
/// representation for every count up to 64 uses.
pub type FullBitVector = PresenceWord<u64>;

impl<W: Word> PresenceWord<W> {
    /// Caches this word tracks at most.
    pub const CACHES: usize = W::CACHES;

    /// Number of caches currently marked as sharers.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.widen().count_ones() as usize
    }

    /// `cache`'s presence bit.  The directory has checked `cache` against
    /// its own count, which is at most [`Self::CACHES`].
    #[inline]
    fn bit(cache: CacheId) -> u64 {
        debug_assert!(
            cache.index() < W::CACHES,
            "{cache} is past the presence word"
        );
        1 << cache.index()
    }

    /// The one clause a word can break for a directory of `caches` caches:
    /// no bit at or past `caches`.
    #[cfg(test)]
    fn check_invariants(&self, caches: usize) -> Result<(), String> {
        let bits = self.bits.widen();
        if caches < W::CACHES && bits >> caches != 0 {
            return Err(format!("a bit past cache {caches} in {bits:#x}"));
        }
        Ok(())
    }
}

impl<W: Word> SharerSet for PresenceWord<W> {
    /// # Panics
    ///
    /// Unless `1 <= num_caches <= W::CACHES`: a wider directory holds a
    /// wider word, or a [`WideBitVector`] above 64 caches.
    fn new(num_caches: usize) -> Self {
        assert!(
            (1..=W::CACHES).contains(&num_caches),
            "a {}-bit presence word tracks 1 to {} caches, not {num_caches}",
            W::CACHES,
            W::CACHES
        );
        PresenceWord::default()
    }

    #[inline]
    fn add(&mut self, cache: CacheId) {
        self.bits = W::narrow(self.bits.widen() | Self::bit(cache));
    }

    #[inline]
    fn remove(&mut self, cache: CacheId) {
        self.bits = W::narrow(self.bits.widen() & !Self::bit(cache));
    }

    #[inline]
    fn may_contain(&self, cache: CacheId) -> bool {
        cache.index() < W::CACHES && (self.bits.widen() >> cache.index()) & 1 != 0
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.bits == W::default()
    }

    #[inline]
    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        push_set_bits(out, 0, self.bits.widen());
    }

    fn exact_count(&self) -> Option<usize> {
        Some(self.count())
    }

    #[inline]
    fn clear(&mut self) {
        self.bits = W::default();
    }
}

/// An exact, one-bit-per-cache sharer vector of any width: a heap slice of
/// `ceil(num_caches / 64)` words, for directories of more than 64 caches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WideBitVector {
    words: Box<[u64]>,
}

impl WideBitVector {
    /// The word holding `cache`'s presence bit, and that bit's mask.  A
    /// cache past the last word panics on the index.
    fn locate_mut(&mut self, cache: CacheId) -> (&mut u64, u64) {
        let index = cache.index();
        (&mut self.words[index / 64], 1 << (index % 64))
    }

    /// What a vector for `caches` caches must be: exactly
    /// `ceil(caches / 64)` words and no bit at or past `caches`.
    #[cfg(test)]
    fn check_invariants(&self, caches: usize) -> Result<(), String> {
        if self.words.len() != caches.div_ceil(64) {
            return Err(format!("{} words for {caches} caches", self.words.len()));
        }
        let last = self.words[self.words.len() - 1];
        if last.leading_zeros() < (self.words.len() * 64 - caches) as u32 {
            return Err(format!("a bit past cache {caches} in {last:#x}"));
        }
        Ok(())
    }
}

impl SharerSet for WideBitVector {
    fn new(num_caches: usize) -> Self {
        assert!(num_caches > 0, "sharer vector needs at least one cache");
        assert!(
            u32::try_from(num_caches).is_ok(),
            "cache ids are 32-bit: no vector tracks {num_caches} caches"
        );
        WideBitVector {
            words: vec![0; num_caches.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn add(&mut self, cache: CacheId) {
        let (word, bit) = self.locate_mut(cache);
        *word |= bit;
    }

    fn remove(&mut self, cache: CacheId) {
        let (word, bit) = self.locate_mut(cache);
        *word &= !bit;
    }

    fn may_contain(&self, cache: CacheId) -> bool {
        let index = cache.index();
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    fn extend_targets(&self, out: &mut Vec<CacheId>) {
        for (w, &word) in self.words.iter().enumerate() {
            push_set_bits(out, w * 64, word);
        }
    }

    fn exact_count(&self) -> Option<usize> {
        Some(self.words.iter().map(|w| w.count_ones() as usize).sum())
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_contains() {
        let mut v = WideBitVector::new(130);
        assert_eq!(vector_bits(130), 130);
        for i in [0u32, 63, 64, 65, 129] {
            v.add(CacheId::new(i));
        }
        assert_eq!(v.exact_count(), Some(5));
        assert!(v.may_contain(CacheId::new(64)));
        assert!(!v.may_contain(CacheId::new(1)));

        v.remove(CacheId::new(64));
        assert!(!v.may_contain(CacheId::new(64)));
        assert_eq!(v.exact_count(), Some(4));

        // Double add / double remove are idempotent.
        v.add(CacheId::new(0));
        assert_eq!(v.exact_count(), Some(4));
        v.remove(CacheId::new(64));
        assert_eq!(v.exact_count(), Some(4));
    }

    #[test]
    fn invalidation_targets_are_sorted_and_exact() {
        let mut v = WideBitVector::new(200);
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
        assert_eq!(v.exact_count(), Some(4));
    }

    #[test]
    fn clear_empties_everything() {
        let mut v = PresenceWord::<u16>::new(16);
        for i in 0..16u32 {
            v.add(CacheId::new(i));
        }
        assert_eq!(v.count(), 16);
        v.clear();
        assert!(v.is_empty());
        assert!(v.invalidation_targets().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn adding_past_the_heap_words_panics() {
        let mut v = WideBitVector::new(65);
        v.add(CacheId::new(128));
    }

    #[test]
    #[should_panic(expected = "a 16-bit presence word tracks 1 to 16 caches, not 17")]
    fn a_16_bit_word_refuses_a_17th_cache() {
        let _ = PresenceWord::<u16>::new(17);
    }

    #[test]
    #[should_panic(expected = "a 32-bit presence word tracks 1 to 32 caches, not 33")]
    fn a_32_bit_word_refuses_a_33rd_cache() {
        let _ = PresenceWord::<u32>::new(33);
    }

    #[test]
    #[should_panic(expected = "a 64-bit presence word tracks 1 to 64 caches, not 65")]
    fn a_64_bit_word_refuses_a_65th_cache() {
        let _ = FullBitVector::new(65);
    }

    #[test]
    fn the_entry_is_the_narrowest_word_and_stays_inline() {
        // The cuckoo table stores one of these per slot: the presence word
        // alone is what keeps an entry (tag + key + vector) at 11, 13 or 17
        // bytes.
        assert_eq!(std::mem::size_of::<PresenceWord<u16>>(), 2);
        assert_eq!(std::mem::size_of::<PresenceWord<u32>>(), 4);
        assert_eq!(std::mem::size_of::<FullBitVector>(), 8);
        assert!(!std::mem::needs_drop::<PresenceWord<u16>>());
        assert_eq!(PresenceWord::<u16>::new(16), PresenceWord::default());
        assert_eq!(FullBitVector::new(64), FullBitVector::default());
    }

    /// One vector of `caches` caches against a `Vec<bool>` model, through a
    /// random add / remove / clear stream; `check` is the representation's
    /// own invariant for that width.
    fn lockstep<S: SharerSet + PartialEq>(caches: usize, check: impl Fn(&S) -> Result<(), String>) {
        use ccd_common::rng::{Rng64, SplitMix64};

        let mut rng = SplitMix64::new(caches as u64);
        let mut vector = S::new(caches);
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
            assert_eq!(check(&vector), Ok(()), "{caches} caches");
            let expected: Vec<CacheId> = (0..caches)
                .filter(|&c| model[c])
                .map(|c| CacheId::new(c as u32))
                .collect();
            let mut targets = vec![CacheId::new(u32::MAX)];
            vector.extend_targets(&mut targets);
            assert_eq!(targets[1..], expected[..], "{caches} caches, step {step}");
            assert_eq!(vector.invalidation_targets(), expected);
            assert_eq!(vector.exact_count(), Some(expected.len()));
            assert_eq!(vector.is_empty(), expected.is_empty());
            assert_eq!(vector.may_contain(CacheId::new(cache as u32)), model[cache]);
            assert!(!vector.may_contain(CacheId::new(caches as u32)));
            assert!(!vector.may_contain(CacheId::new(u32::MAX)));

            // A clone is equal and independent; a vector rebuilt from the
            // model is equal too, whatever order its bits arrived in.
            let mut clone = vector.clone();
            assert_eq!(clone, vector);
            let mut rebuilt = S::new(caches);
            expected.iter().rev().for_each(|&c| rebuilt.add(c));
            assert_eq!(rebuilt, vector);
            clone.add(CacheId::new(cache as u32));
            clone.remove(CacheId::new((cache + 1) as u32 % caches as u32));
            assert_eq!(check(&clone), Ok(()), "{caches} caches");
            assert_eq!(vector.invalidation_targets(), expected);
            assert_eq!(clone == vector, clone.invalidation_targets() == expected);
        }
        assert_eq!(vector_bits(caches), caches as u64);
    }

    #[test]
    fn both_representations_track_a_bool_model_in_lockstep() {
        for caches in [1usize, 15, 16] {
            lockstep::<PresenceWord<u16>>(caches, |v| v.check_invariants(caches));
        }
        for caches in [17usize, 31, 32] {
            lockstep::<PresenceWord<u32>>(caches, |v| v.check_invariants(caches));
        }
        for caches in [33usize, 63, 64] {
            lockstep::<FullBitVector>(caches, |v| v.check_invariants(caches));
        }
        for caches in [65usize, 128, 1024] {
            lockstep::<WideBitVector>(caches, |v| v.check_invariants(caches));
        }
    }

    #[test]
    fn check_invariants_names_a_bit_past_the_cache_count() {
        let mut word = FullBitVector::new(8);
        word.add(CacheId::new(8));
        assert!(word
            .check_invariants(8)
            .unwrap_err()
            .contains("past cache 8"));
        assert_eq!(word.check_invariants(9), Ok(()));
        let mut wide = WideBitVector::new(100);
        wide.add(CacheId::new(100));
        assert!(wide
            .check_invariants(100)
            .unwrap_err()
            .contains("past cache 100"));
        assert!(wide.check_invariants(200).unwrap_err().contains("2 words"));
    }

    #[test]
    fn may_contain_out_of_range_is_false() {
        let v = FullBitVector::new(8);
        assert!(!v.may_contain(CacheId::new(100)));
        let v = WideBitVector::new(100);
        assert!(!v.may_contain(CacheId::new(1000)));
    }
}
