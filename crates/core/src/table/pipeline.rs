//! The staged batch pipeline (see the `table` module docs).

use super::kernels::fingerprint;
use super::{ways_dispatch, CuckooTable, InsertOutcome, KeyWord};
use ccd_common::prefetch::prefetch_slice_element;

/// Operations per window of the staged batch pipeline
/// ([`CuckooTable::probe_batch`], [`CuckooTable::apply_batch`] and the
/// directory's `apply_batch`).  Each stage runs over the whole window
/// before the next starts, so a window has up to `PIPELINE_DEPTH × ways` tag
/// lines, then about one key/payload line pair per resident key, in flight
/// at once.
///
/// Measured on the `dir_spill` benchmark (a 4 Mi-entry slice, 241 MB), eight
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

    /// Stage 2 of the batch pipeline: reads the candidate tags (resident by
    /// now if stage 1 ran a window earlier) and hints the CPU to fetch the
    /// key word and the payload of only the ways whose tag matches `key`'s
    /// fingerprint — about one line pair for a resident key, none for an
    /// absent one.  Like stage 1 a hint: the operation itself probes the
    /// tags again, so whatever an earlier operation of the window did to
    /// these slots in between changes nothing it computes.
    fn prefetch_matching<const N: usize>(&self, key: u64, indices: &[usize; N]) {
        let (mut candidates, _) = self.way_masks::<N, true, false>(fingerprint(key), indices);
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            let slot = w * self.sets + indices[w];
            prefetch_slice_element(&self.keys, slot);
            prefetch_slice_element(&self.values, slot);
            candidates &= candidates - 1;
        }
    }

    /// Stages 1 and 2 for one window of at most [`PIPELINE_DEPTH`] keys:
    /// hashes each key **once** into its row of `indices` while prefetching
    /// its candidate tags, then prefetches the key and payload lines the
    /// tags point at.  The caller runs stage 3 — the operations themselves,
    /// in order, through the `_prehashed` entry points — over the same rows.
    fn stage_window<const N: usize>(
        &self,
        keys: impl Iterator<Item = u64> + Clone,
        indices: &mut [[usize; N]; PIPELINE_DEPTH],
    ) {
        for (key, key_indices) in keys.clone().zip(indices.iter_mut()) {
            self.hash_into(key, key_indices);
            self.prefetch_tags(key_indices);
        }
        for (key, key_indices) in keys.zip(indices.iter()) {
            self.prefetch_matching(key, key_indices);
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
            self.stage_window(keys.iter().copied(), &mut indices);
            for ((key, hit), key_indices) in keys.iter().zip(hits).zip(&indices) {
                *hit = self.probe_hit_prehashed(*key, key_indices).is_some();
            }
        }
    }

    /// The mutating driver of the staged pipeline: for each window of
    /// [`PIPELINE_DEPTH`] items out of `len`, stages the keys `key_of`
    /// reports ([`CuckooTable::stage_window`]), then calls
    /// `apply(table, item, indices)` for each item in order with the indices
    /// its key hashed to.  The caller picks `N` with [`ways_dispatch!`], so
    /// `apply` is compiled for the table's way count too.
    pub(crate) fn for_each_staged<const N: usize>(
        &mut self,
        len: usize,
        key_of: impl Fn(usize) -> u64,
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
            let keys = pending.as_slice()[..window].iter().map(|entry| entry.0);
            self.stage_window(keys, &mut indices);
            for ((key, value), key_indices) in pending.by_ref().take(window).zip(&mut indices) {
                outcomes.push(self.insert_prehashed(key, value, key_indices));
            }
        }
    }
}
