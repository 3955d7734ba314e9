//! The staged batch pipeline (see the `table` module docs).

use super::kernels::fingerprint;
use super::{ways_dispatch, CuckooTable, InsertOutcome, KeyWord};
use ccd_common::prefetch::prefetch_slice_element;

/// Operations per window of the staged batch pipeline
/// ([`CuckooTable::probe_batch`], [`CuckooTable::apply_batch`] and the
/// directory's `apply_batch`).  Each stage runs over the whole window
/// before the next starts, so a window has up to `PIPELINE_DEPTH × ways` tag
/// lines, then about one key/payload line pair per resident key or
/// allocated vacancy, in flight at once.
///
/// Measured in October 2026, when the pipeline was introduced, on that
/// day's `dir_spill` benchmark (a 4 Mi-entry slice of 241 MB; it is 28 MiB
/// since entries shrank to 7 B, and the depth was not measured again), eight
/// seeds, median Mop/s: depth 8 — 11.0, depth 16 — 11.6 (ahead of 8 on six
/// seeds, of 32 on seven), depth 32 — 10.3.  A rolling pipeline (stage 3 of
/// operation `i` interleaved with stage 2 of `i + depth` and stage 1 of
/// `i + 2·depth`) measured the same as these windows at depths 4, 8 and 16,
/// so the simpler loop stayed.
pub const PIPELINE_DEPTH: usize = 16;

impl<V, Q: KeyWord> CuckooTable<V, Q> {
    /// Stage 1 of the batch pipeline: hints the CPU to fetch the candidate
    /// tag bytes behind `indices`.  Purely a performance hint; see
    /// [`ccd_common::prefetch::prefetch_read`].
    fn prefetch_tags<const N: usize>(&self, indices: &[usize; N]) {
        for (way, &index) in indices.iter().enumerate().take(self.ways_of::<N>()) {
            prefetch_slice_element(&self.tags, way * self.sets + index);
        }
    }

    /// The slots stage 2 hints for `key`: the ways whose candidate tag
    /// matches its fingerprint (a way bitmask, as
    /// [`CuckooTable::way_masks`] reports it) and, for an `allocating` op
    /// whose tags match none, its first vacant candidate in way order — the
    /// slot [`CuckooTable::insert_prehashed`] fills unless an earlier
    /// operation of the window takes it first.  A non-allocating op gets no
    /// vacancy and runs no vacancy scan.
    #[inline(always)]
    pub(super) fn hint_targets<const N: usize>(
        &self,
        key: u64,
        indices: &[usize; N],
        allocating: bool,
    ) -> (u64, Option<usize>) {
        let fp = fingerprint(key);
        if !allocating {
            let (matching, _) = self.way_masks::<N, true, false>(fp, indices);
            return (matching, None);
        }
        let (matching, empties) = self.way_masks::<N, true, true>(fp, indices);
        let vacant = (matching == 0 && empties != 0).then(|| {
            let w = empties.trailing_zeros() as usize;
            w * self.sets + indices[w]
        });
        (matching, vacant)
    }

    /// Stage 2 of the batch pipeline: reads the candidate tags (resident by
    /// now if stage 1 ran a window earlier) and hints the CPU to fetch the
    /// key word and the payload of the slots [`CuckooTable::hint_targets`]
    /// picks — about one line pair for a resident key, the vacancy it will
    /// fill for an allocating op on an absent key, none for a probe of an
    /// absent key.  Like stage 1 a hint: the operation itself probes the
    /// tags again, so whatever an earlier operation of the window did to
    /// these slots in between changes nothing it computes.
    fn prefetch_matching<const N: usize>(&self, key: u64, indices: &[usize; N], allocating: bool) {
        let (mut candidates, vacant) = self.hint_targets(key, indices, allocating);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            self.prefetch_slot(w * self.sets + indices[w]);
            candidates &= candidates - 1;
        }
        if let Some(slot) = vacant {
            self.prefetch_slot(slot);
        }
    }

    /// Hints the CPU to fetch the key word and the payload of `slot`.
    #[inline(always)]
    fn prefetch_slot(&self, slot: usize) {
        prefetch_slice_element(&self.keys, slot);
        prefetch_slice_element(&self.values, slot);
    }

    /// Stages 1 and 2 for one window of at most [`PIPELINE_DEPTH`] ops,
    /// each a key and whether the op may allocate it: hashes each key
    /// **once** into its row of `indices` while prefetching its candidate
    /// tags, then prefetches the key and payload lines the tags point at.
    /// The caller runs stage 3 — the operations themselves, in order,
    /// through the `_prehashed` entry points — over the same rows.
    fn stage_window<const N: usize>(
        &self,
        ops: impl Iterator<Item = (u64, bool)> + Clone,
        indices: &mut [[usize; N]; PIPELINE_DEPTH],
    ) {
        for ((key, _), key_indices) in ops.clone().zip(indices.iter_mut()) {
            self.hash_into(key, key_indices);
            self.prefetch_tags(key_indices);
        }
        for ((key, allocating), key_indices) in ops.zip(indices.iter()) {
            self.prefetch_matching(key, key_indices, allocating);
        }
    }

    /// Looks up every key of `keys`, writing `true` into the corresponding
    /// element of `hits` when the key is present.  Keys are processed in
    /// windows of [`PIPELINE_DEPTH`] through the staged pipeline: a
    /// window's keys are hashed once and their candidate tags prefetched,
    /// then the key lines behind matching tags, then the window is probed —
    /// overlapping the cache misses of independent lookups.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `hits` is shorter than `keys`.
    pub fn probe_batch(&self, keys: &[u64], hits: &mut [bool]) {
        ways_dispatch!(self.ways, N => self.probe_batch_n::<N>(keys, hits));
    }

    fn probe_batch_n<const N: usize>(&self, keys: &[u64], hits: &mut [bool]) {
        assert!(
            hits.len() >= keys.len(),
            "hit buffer of {} entries cannot hold {} lookups",
            hits.len(),
            keys.len()
        );
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        for (keys, hits) in keys
            .chunks(PIPELINE_DEPTH)
            .zip(hits.chunks_mut(PIPELINE_DEPTH))
        {
            self.stage_window(keys.iter().map(|&key| (key, false)), &mut indices);
            for ((key, hit), key_indices) in keys.iter().zip(hits).zip(&indices) {
                *hit = self.probe_hit_prehashed(*key, key_indices).is_some();
            }
        }
    }

    /// The mutating driver of the staged pipeline: for each window of
    /// [`PIPELINE_DEPTH`] items out of `len`, stages the key `key_of`
    /// reports for each, and whether that op may allocate it
    /// ([`CuckooTable::stage_window`]), then calls
    /// `apply(table, item, indices)` for each item in order with the indices
    /// its key hashed to.  The caller picks `N` with [`ways_dispatch!`], so
    /// `apply` is compiled for the table's way count too.
    pub(crate) fn for_each_staged<const N: usize>(
        &mut self,
        len: usize,
        key_of: impl Fn(usize) -> (u64, bool),
        mut apply: impl FnMut(&mut Self, usize, &mut [usize; N]),
    ) {
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        let mut start = 0;
        while start < len {
            let end = (start + PIPELINE_DEPTH).min(len);
            self.stage_window((start..end).map(&key_of), &mut indices);
            for (item, key_indices) in (start..end).zip(indices.iter_mut()) {
                apply(self, item, key_indices);
            }
            start = end;
        }
    }

    /// Applies a batch of insertions in order, draining `entries` and
    /// appending one [`InsertOutcome`] per entry to `outcomes`.  Like
    /// [`CuckooTable::probe_batch`], the insertions run through the staged
    /// pipeline and each reuses its prehashed indices — identical outcomes
    /// to calling [`CuckooTable::insert`] in a loop, with the memory latency
    /// of independent operations overlapped.  Allocation-free once both
    /// vectors have reached their steady-state capacity.
    pub fn apply_batch(
        &mut self,
        entries: &mut Vec<(u64, V)>,
        outcomes: &mut Vec<InsertOutcome<V>>,
    ) {
        ways_dispatch!(self.ways, N => self.apply_batch_n::<N>(entries, outcomes));
    }

    fn apply_batch_n<const N: usize>(
        &mut self,
        entries: &mut Vec<(u64, V)>,
        outcomes: &mut Vec<InsertOutcome<V>>,
    ) {
        let mut indices = [[0usize; N]; PIPELINE_DEPTH];
        let mut pending = entries.drain(..);
        while !pending.as_slice().is_empty() {
            let window = pending.as_slice().len().min(PIPELINE_DEPTH);
            let keys = pending.as_slice()[..window]
                .iter()
                .map(|entry| (entry.0, true));
            self.stage_window(keys, &mut indices);
            for ((key, value), key_indices) in pending.by_ref().take(window).zip(&mut indices) {
                outcomes.push(self.insert_prehashed(key, value, key_indices));
            }
        }
    }
}
