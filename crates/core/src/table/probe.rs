//! The probe: one hash pass, the candidate tags matched by SWAR, and the
//! key compares that confirm a fingerprint match.

use super::kernels::{fingerprint, fold_lanes, swar_match};
use super::{CuckooTable, KeyWord, ProbeOutcome, EMPTY_TAG, SMALL_WAYS};
use ccd_common::LineAddr;
use ccd_hash::IndexHashFamily;

impl<V, Q: KeyWord> CuckooTable<V, Q> {
    /// The number of ways a kernel compiled for `N` walks: `N` itself, a
    /// constant, when [`ways_dispatch!`] matched the table's way count
    /// exactly; the runtime count for the tables it sends to
    /// `MAX_FAMILY_WAYS`.
    #[inline(always)]
    pub(super) fn ways_of<const N: usize>(&self) -> usize {
        if N <= SMALL_WAYS {
            debug_assert_eq!(N, self.ways, "a probe compiled for {N} ways");
            N
        } else {
            self.ways
        }
    }

    /// Computes the candidate set index of every way for `key` in one hash
    /// pass, into `indices[..ways]`.
    #[inline(always)]
    pub(super) fn hash_into<const N: usize>(&self, key: u64, indices: &mut [usize; N]) {
        let ways = self.ways_of::<N>();
        self.hashes
            .index_all_into(LineAddr::from_block_number(key), &mut indices[..ways]);
    }

    /// `key`'s candidate set indices, one a way ([`CuckooTable::hash_into`]).
    #[inline(always)]
    pub(crate) fn hashed<const N: usize>(&self, key: u64) -> [usize; N] {
        let mut indices = [0usize; N];
        self.hash_into(key, &mut indices);
        indices
    }

    /// Reads the tag byte of `slot` without a bounds check: every slot this
    /// table computes is `way * sets + index` with `way < ways` (enforced by
    /// the probe loops) and `index < sets` (the [`IndexHashFamily`]
    /// contract, upheld by masking/shifting in every family), so it stays
    /// below `tags.len()` — the checked product `ways × sets` that `new`
    /// allocated.
    #[inline]
    pub(super) fn tag_at(&self, slot: usize) -> u8 {
        debug_assert!(slot < self.tags.len());
        // SAFETY: see above — slot < ways * sets == tags.len().
        unsafe { *self.tags.get_unchecked(slot) }
    }

    /// Reads the key word of `slot`; same bounds argument as
    /// [`CuckooTable::tag_at`].
    #[inline]
    pub(super) fn key_at(&self, slot: usize) -> Q {
        debug_assert!(slot < self.keys.len());
        // SAFETY: see `tag_at` — slot < ways * sets == keys.len().
        unsafe { *self.keys.get_unchecked(slot) }
    }

    /// `log2(sets)`: the bits of a key the set index stands for.
    #[inline(always)]
    pub(super) fn index_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// The key word `key` is stored as ([`KeyWord::pack`]).
    #[inline(always)]
    pub(super) fn word_of(&self, key: u64) -> Q {
        Q::pack(key, self.index_bits())
    }

    /// The full key resident in the occupied `slot`: its key word itself,
    /// or, for narrow words, the one line whose high bits are the word and
    /// whose index in the slot's way is the slot's index.
    #[inline]
    pub(super) fn key_of(&self, slot: usize) -> u64 {
        let word = self.key_at(slot).bits();
        if !Q::NARROW {
            return word;
        }
        let way = slot >> self.index_bits();
        let index = slot & (self.sets - 1);
        #[expect(
            clippy::expect_used,
            reason = "with_key_word builds narrow tables over a skewing family only"
        )]
        let line = self
            .hashes
            .line_from_high(way, index, word)
            .expect("narrow keys are rebuilt by a skewing family");
        line.block_number()
    }

    /// Gathers the candidate tags of ways `way .. way + lanes` into one SWAR
    /// word (byte lane `j` = way `way + j`) — the shared chunk primitive of
    /// every probe loop.
    #[inline(always)]
    fn gather_tags<const N: usize>(&self, way: usize, lanes: usize, indices: &[usize; N]) -> u64 {
        let mut word = 0u64;
        for j in 0..lanes {
            let w = way + j;
            word |= u64::from(self.tag_at(w * self.sets + indices[w])) << (8 * j);
        }
        word
    }

    /// Mask covering the low `lanes` byte lanes of a SWAR word.  Padding
    /// lanes of a partial chunk are zero bytes: they can never alias a
    /// fingerprint (fingerprints have the high bit set) but *do* look
    /// vacant, so vacancy scans must clip with this mask.
    #[inline]
    pub(super) fn lane_mask(lanes: usize) -> u64 {
        if lanes == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * lanes)) - 1
        }
    }

    /// The shared probe primitive: way-indexed bitmasks over `key`'s
    /// candidate slots — bit `w` of the first mask is set when way `w`'s
    /// candidate tag equals `fp` (SWAR may over-report; callers confirm with
    /// a key compare), bit `w` of the second when it is vacant (always
    /// exact).  Unwanted masks (per the const flags) are zero.  All
    /// selection downstream walks these masks with `trailing_zeros`, so ways
    /// are scanned in ascending order — exactly the order the displacement
    /// procedure relies on.
    ///
    /// Up to eight candidate tags a chunk are gathered into one integer and
    /// matched with SWAR arithmetic; [`fold_lanes`] turns the chunk's lane
    /// bits into way bits, shifted to the chunk's first way.  Compiled for
    /// up to eight exact ways, the loop is one chunk of a constant lane
    /// count.
    #[inline(always)]
    pub(super) fn way_masks<const N: usize, const WANT_FP: bool, const WANT_EMPTY: bool>(
        &self,
        fp: u8,
        indices: &[usize; N],
    ) -> (u64, u64) {
        let ways = self.ways_of::<N>();
        let mut fp_mask = 0u64;
        let mut empty_mask = 0u64;
        let mut way = 0;
        while way < ways {
            let lanes = (ways - way).min(8);
            let word = self.gather_tags(way, lanes, indices);
            if WANT_FP {
                fp_mask |= fold_lanes(swar_match(word, fp)) << way;
            }
            if WANT_EMPTY {
                let lanes_empty = swar_match(word, EMPTY_TAG) & Self::lane_mask(lanes);
                empty_mask |= fold_lanes(lanes_empty) << way;
            }
            way += lanes;
        }
        (fp_mask, empty_mask)
    }

    /// Lookup-only probe: like [`CuckooTable::probe_prehashed`] but without
    /// the vacancy scan, for the pure-query paths (`contains` / `get` /
    /// `probe_batch`) that never insert.
    #[inline(always)]
    pub(super) fn probe_hit_prehashed<const N: usize>(
        &self,
        key: u64,
        indices: &[usize; N],
    ) -> Option<usize> {
        let (mut candidates, _) = self.way_masks::<N, true, false>(fingerprint(key), indices);
        let word = self.word_of(key);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            if self.key_at(slot) == word {
                return Some(slot);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Probes `key`'s candidate slots given precomputed way `indices`:
    /// matches the fingerprint and the empty tag in one pass over the
    /// candidate tags, and confirms fingerprint candidates with a key compare.
    /// Ways are scanned in ascending order, so the hit is the first way
    /// holding the key and the vacancy is the first vacant way.
    #[inline(always)]
    pub(super) fn probe_prehashed<const N: usize>(
        &self,
        key: u64,
        indices: &[usize; N],
    ) -> ProbeOutcome {
        let (mut candidates, empties) = self.way_masks::<N, true, true>(fingerprint(key), indices);
        let vacant = (empties != 0).then(|| {
            let w = empties.trailing_zeros() as usize;
            w * self.sets + indices[w]
        });
        let word = self.word_of(key);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            if self.key_at(slot) == word {
                return ProbeOutcome {
                    hit: Some(slot),
                    vacant,
                };
            }
            candidates &= candidates - 1;
        }
        ProbeOutcome { hit: None, vacant }
    }

    /// First vacant candidate slot in way order, given precomputed indices.
    #[inline(always)]
    pub(super) fn first_vacant_prehashed<const N: usize>(
        &self,
        indices: &[usize; N],
    ) -> Option<usize> {
        let (_, empties) = self.way_masks::<N, false, true>(EMPTY_TAG, indices);
        (empties != 0).then(|| {
            let w = empties.trailing_zeros() as usize;
            w * self.sets + indices[w]
        })
    }

    /// Finds the slot currently holding `key`, if any: one hash pass over
    /// all ways, then the lookup-only probe — the same straight line for
    /// every key.  A way-0 shortcut (hash way 0 alone, compare its key, fall
    /// through on a miss) does not pay: at the paper's operating point only
    /// 0.33–0.35 of the resident keys sit in way 0 (4 × 512 slices at
    /// occupancy 0.49–0.51 under `oracle`, `apache`, `ocean`), which makes
    /// it an unpredictable branch that hashes way 0 twice on the way out.
    /// Without it `sim_mix` runs 2.9 % faster (10/10 pairs) and `svc_churn`'s
    /// `cuckoo.get_single_ns` / `remove_ns` fall 19.5 → 16.5 and 20.6 → 16.3;
    /// on `svc_hit`'s table, filled straight to a quarter so that every key
    /// does sit in way 0, they rise 5.3 → 15.0 and 6.6 → 14.0 ns while its
    /// `ops_per_s` stays inside its spread.
    #[inline(always)]
    pub(super) fn find_n<const N: usize>(&self, key: u64) -> Option<usize> {
        self.probe_hit_prehashed(key, &self.hashed::<N>(key))
    }
}
