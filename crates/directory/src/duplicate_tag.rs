//! The Duplicate-Tag directory baseline.
//!
//! The Duplicate-Tag organization (Piranha/Niagara style, Section 3.1 of the
//! paper) mirrors the tag array of every private cache, "ensuring that there
//! is always sufficient space in the directory to track all cached blocks".
//! A lookup compares the searched tag against *every* way of the set across
//! *every* mirrored cache, so the directory's associativity equals
//! `cache associativity × cache count` — the 332-wide comparisons cited from
//! the OpenSPARC T2 specification.  That wide associative lookup is what
//! makes the design area-efficient but energy-unscalable (Figure 4).
//!
//! Because the mirror has exactly one slot per private-cache frame, a
//! correctly driven Duplicate-Tag directory never forces invalidations: an
//! insertion only displaces a mirror entry when the corresponding private
//! cache itself replaced that frame.  When this structure is driven without
//! eviction notifications (e.g. in stand-alone stress tests), a mirror
//! overflow is reported as a forced eviction of the stale entry.

use crate::spec::{capacity_too_large, checked_capacity, try_filled};
use crate::{Directory, DirectoryOp, DirectoryStats, Outcome};
use ccd_common::{CacheId, ConfigError, LineAddr};

#[derive(Clone, Debug)]
struct MirrorEntry {
    line: LineAddr,
    last_use: u64,
}

/// A Duplicate-Tag coherence directory slice.
///
/// The slice mirrors, for each of `num_caches` private caches, a tag array
/// of `cache_sets × cache_ways` frames (the portion of each private cache
/// that maps to this slice).
#[derive(Clone, Debug)]
pub(crate) struct DuplicateTagDirectory {
    cache_sets: usize,
    cache_ways: usize,
    num_caches: usize,
    /// One mirror per cache, end to end:
    /// `mirrors[(cache * cache_sets + set) * cache_ways + way]`
    mirrors: Vec<Option<MirrorEntry>>,
    tick: u64,
    valid: usize,
    stats: DirectoryStats,
    /// Number of distinct lines currently tracked (for `len`)
    #[expect(
        clippy::disallowed_types,
        reason = "membership/count only, never iterated; probe-path lookups need O(1)"
    )]
    distinct: std::collections::HashMap<u64, u32>,
}

impl DuplicateTagDirectory {
    /// Creates a Duplicate-Tag directory mirroring `num_caches` private
    /// caches of `cache_sets` sets × `cache_ways` ways each.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter is zero, `cache_sets`
    /// is not a power of two, or `cache_sets × cache_ways × num_caches`
    /// frames cannot exist ([`checked_capacity`]) or are refused by the
    /// allocator.
    pub fn new(
        cache_sets: usize,
        cache_ways: usize,
        num_caches: usize,
    ) -> Result<Self, ConfigError> {
        if cache_sets == 0 {
            return Err(ConfigError::Zero {
                what: "cache set count",
            });
        }
        if cache_ways == 0 {
            return Err(ConfigError::Zero { what: "cache ways" });
        }
        if num_caches == 0 {
            return Err(ConfigError::Zero {
                what: "cache count",
            });
        }
        if !ccd_common::is_power_of_two(cache_sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache set count",
                value: cache_sets as u64,
            });
        }
        let frames = checked_capacity(cache_ways, cache_sets)?;
        let capacity = checked_capacity(frames, num_caches)?;
        Ok(DuplicateTagDirectory {
            cache_sets,
            cache_ways,
            num_caches,
            mirrors: try_filled(capacity, None)
                .ok_or_else(|| capacity_too_large(frames, num_caches))?,
            tick: 0,
            valid: 0,
            stats: DirectoryStats::new(),
            distinct: Default::default(),
        })
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.block_number() % self.cache_sets as u64) as usize
    }

    /// The frames of `line`'s set in `cache`'s mirror.
    fn frame_range(&self, cache: CacheId, line: LineAddr) -> std::ops::Range<usize> {
        let start = (cache.index() * self.cache_sets + self.set_of(line)) * self.cache_ways;
        start..start + self.cache_ways
    }

    fn find_in_mirror(&self, cache: CacheId, line: LineAddr) -> Option<usize> {
        self.frame_range(cache, line)
            .find(|&frame| matches!(&self.mirrors[frame], Some(e) if e.line == line))
    }

    fn note_added(&mut self, line: LineAddr) -> bool {
        let counter = self.distinct.entry(line.block_number()).or_insert(0);
        *counter += 1;
        *counter == 1
    }

    fn note_removed(&mut self, line: LineAddr) {
        if let Some(counter) = self.distinct.get_mut(&line.block_number()) {
            *counter -= 1;
            if *counter == 0 {
                self.distinct.remove(&line.block_number());
                self.stats.entry_removes.incr();
            }
        }
    }

    fn remove_from_mirror(&mut self, cache: CacheId, line: LineAddr) -> bool {
        if let Some(frame) = self.find_in_mirror(cache, line) {
            self.mirrors[frame] = None;
            self.valid -= 1;
            self.note_removed(line);
            true
        } else {
            false
        }
    }

    /// Inserts `line` into `cache`'s mirror, returning the evicted line if
    /// the mirror set was full (which only happens when the caller does not
    /// report private-cache evictions).
    fn insert_into_mirror(&mut self, cache: CacheId, line: LineAddr) -> Option<LineAddr> {
        self.tick += 1;
        let tick = self.tick;

        // Reuse an invalid frame when available.
        let range = self.frame_range(cache, line);
        if let Some(frame) = range.clone().find(|&f| self.mirrors[f].is_none()) {
            self.mirrors[frame] = Some(MirrorEntry {
                line,
                last_use: tick,
            });
            self.valid += 1;
            return None;
        }
        // Mirror set full: replace the LRU frame (the private cache must have
        // replaced it too; if not, report the stale entry as forcibly evicted).
        #[expect(
            clippy::expect_used,
            reason = "mirrored cache associativity is validated non-zero at construction"
        )]
        let frame = range
            .min_by_key(|&f| self.mirrors[f].as_ref().map_or(0, |e| e.last_use))
            .expect("cache_ways > 0");
        #[expect(
            clippy::expect_used,
            reason = "LRU victim search runs only on full sets, where every mirror entry is Some"
        )]
        let victim = self.mirrors[frame]
            .replace(MirrorEntry {
                line,
                last_use: tick,
            })
            .expect("full set has valid entries");
        self.note_removed(victim.line);
        self.stats.forced_block_invalidations.incr();
        Some(victim.line)
    }

    /// The `AddSharer` operation body, shared with `SetExclusive` (which
    /// appends to an already-populated outcome and must not reset it).
    fn add_impl(&mut self, line: LineAddr, cache: CacheId, out: &mut Outcome) {
        self.stats.lookups.incr();
        if let Some(frame) = self.find_in_mirror(cache, line) {
            // Already mirrored for this cache; refresh recency.
            self.tick += 1;
            #[expect(
                clippy::expect_used,
                reason = "the touched frame was found by the hit scan an instruction earlier"
            )]
            let entry = self.mirrors[frame].as_mut().expect("frame is valid");
            entry.last_use = self.tick;
            self.stats.sharer_adds.incr();
            out.set_hit(true);
            return;
        }

        let new_tag = self.note_added(line);
        let evicted = self.insert_into_mirror(cache, line);
        if new_tag {
            out.record_allocation(1);
        } else {
            out.set_hit(true);
        }
        let forced = u64::from(evicted.is_some());
        if let Some(victim_line) = evicted {
            out.push_forced_eviction_one(victim_line, cache);
        }
        if new_tag {
            self.stats.record_insertion(1, forced);
        } else {
            self.stats.sharer_adds.incr();
            if forced > 0 {
                self.stats.forced_evictions.add(forced);
            }
        }
    }
}

impl Directory for DuplicateTagDirectory {
    fn organization(&self) -> String {
        format!(
            "duplicate-tag-{}x{}x{}",
            self.num_caches, self.cache_ways, self.cache_sets
        )
    }

    fn num_caches(&self) -> usize {
        self.num_caches
    }

    fn capacity(&self) -> usize {
        self.num_caches * self.cache_ways * self.cache_sets
    }

    fn len(&self) -> usize {
        self.distinct.len()
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.distinct.contains_key(&line.block_number())
    }

    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool {
        cache.index() < self.num_caches && self.find_in_mirror(cache, line).is_some()
    }

    fn apply(&mut self, op: DirectoryOp, out: &mut Outcome) {
        op.check_cache(self.num_caches);
        out.reset();
        match op {
            DirectoryOp::Probe { line } => {
                if self.contains(line) {
                    out.set_hit(true);
                    for c in 0..self.num_caches as u32 {
                        let cache = CacheId::new(c);
                        if self.find_in_mirror(cache, line).is_some() {
                            out.push_invalidate(cache);
                        }
                    }
                }
            }
            DirectoryOp::AddSharer { line, cache } => {
                self.add_impl(line, cache, out);
            }
            DirectoryOp::SetExclusive { line, cache } => {
                let mut removed_any = false;
                for c in 0..self.num_caches as u32 {
                    let other = CacheId::new(c);
                    if other != cache && self.remove_from_mirror(other, line) {
                        self.stats.sharer_removes.incr();
                        out.push_invalidate(other);
                        removed_any = true;
                    }
                }
                if removed_any {
                    out.record_invalidate_all();
                    self.stats.invalidate_alls.incr();
                }
                self.add_impl(line, cache, out);
            }
            DirectoryOp::RemoveSharer { line, cache } => {
                if self.remove_from_mirror(cache, line) {
                    out.set_hit(true);
                    self.stats.sharer_removes.incr();
                    if !self.contains(line) {
                        out.record_removed_entry();
                    }
                }
            }
            DirectoryOp::RemoveEntry { line } => {
                if self.contains(line) {
                    out.set_hit(true);
                    out.record_removed_entry();
                    for c in 0..self.num_caches as u32 {
                        let cache = CacheId::new(c);
                        if self.remove_from_mirror(cache, line) {
                            out.push_invalidate(cache);
                        }
                    }
                }
            }
        }
    }

    fn stats(&self) -> DirectoryStats {
        self.stats.clone()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageProfile;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_block_number(n)
    }

    fn add(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::AddSharer { line, cache }
    }

    fn remove(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::RemoveSharer { line, cache }
    }

    /// `Probe`'s answer: `None` on a miss, the reported sharers on a hit.
    fn probe(dir: &mut DuplicateTagDirectory, line: LineAddr) -> Option<Vec<CacheId>> {
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::Probe { line }, &mut out);
        out.hit().then(|| out.sharers().to_vec())
    }

    #[test]
    fn construction_validation() {
        assert!(DuplicateTagDirectory::new(0, 2, 4).is_err());
        assert!(DuplicateTagDirectory::new(16, 0, 4).is_err());
        assert!(DuplicateTagDirectory::new(16, 2, 0).is_err());
        assert!(DuplicateTagDirectory::new(12, 2, 4).is_err());
        let dir = DuplicateTagDirectory::new(16, 2, 4).unwrap();
        assert_eq!(dir.capacity(), 16 * 2 * 4);
    }

    #[test]
    fn tracks_sharers_across_mirrors() {
        let mut dir = DuplicateTagDirectory::new(8, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(3), CacheId::new(0)), &mut out);
        assert!(out.allocated_new_entry());
        dir.apply(add(line(3), CacheId::new(2)), &mut out);
        assert!(!out.allocated_new_entry(), "same tag, second cache");
        assert_eq!(
            probe(&mut dir, line(3)),
            Some(vec![CacheId::new(0), CacheId::new(2)])
        );
        assert_eq!(dir.len(), 1);

        dir.apply(remove(line(3), CacheId::new(0)), &mut out);
        assert_eq!(probe(&mut dir, line(3)), Some(vec![CacheId::new(2)]));
        dir.apply(remove(line(3), CacheId::new(2)), &mut out);
        assert!(!dir.contains(line(3)));
        assert_eq!(dir.stats().entry_removes.get(), 1);
    }

    #[test]
    fn never_forces_invalidations_when_driven_with_evictions() {
        // Mirror a 2-way, 4-set cache per core and emulate the private cache
        // by evicting before every insertion that would overflow a set.
        let mut dir = DuplicateTagDirectory::new(4, 2, 2).unwrap();
        let mut out = Outcome::new();
        let cache = CacheId::new(0);
        let mut resident: Vec<LineAddr> = Vec::new();
        let mut forced = 0usize;
        for n in 0..64u64 {
            let l = line(n);
            let set = n % 4;
            // Private 2-way cache: if two residents already map to this set,
            // evict the older one first (as the cache itself would).
            let in_set: Vec<LineAddr> = resident
                .iter()
                .copied()
                .filter(|r| r.block_number() % 4 == set)
                .collect();
            if in_set.len() == 2 {
                let victim = in_set[0];
                dir.apply(remove(victim, cache), &mut out);
                resident.retain(|&r| r != victim);
            }
            dir.apply(add(l, cache), &mut out);
            forced += out.forced_eviction_count();
            resident.push(l);
        }
        assert_eq!(forced, 0, "duplicate-tag never forces invalidations");
        assert_eq!(dir.stats().forced_evictions.get(), 0);
    }

    #[test]
    fn overflow_without_evictions_replaces_stale_mirror_entries() {
        let mut dir = DuplicateTagDirectory::new(2, 1, 1).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        dir.apply(add(line(2), CacheId::new(0)), &mut out); // same set, 1 way
        assert_eq!(out.forced_eviction_count(), 1);
        assert_eq!(out.forced_evictions().next().unwrap().line, line(0));
        assert!(!dir.contains(line(0)));
        assert!(dir.contains(line(2)));
    }

    #[test]
    fn exclusive_removes_other_mirrors() {
        let mut dir = DuplicateTagDirectory::new(8, 2, 4).unwrap();
        let mut out = Outcome::new();
        for c in 0..3u32 {
            dir.apply(add(line(10), CacheId::new(c)), &mut out);
        }
        let (line, cache) = (line(10), CacheId::new(3));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        let mut inv = out.invalidate().to_vec();
        inv.sort_unstable();
        assert_eq!(inv, vec![CacheId::new(0), CacheId::new(1), CacheId::new(2)]);
        assert_eq!(probe(&mut dir, line), Some(vec![CacheId::new(3)]));
        assert_eq!(dir.stats().invalidate_alls.get(), 1);
    }

    #[test]
    fn remove_entry_clears_all_mirrors() {
        let mut dir = DuplicateTagDirectory::new(8, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::RemoveEntry { line: line(1) }, &mut out);
        assert!(!out.hit());
        dir.apply(add(line(1), CacheId::new(0)), &mut out);
        dir.apply(add(line(1), CacheId::new(3)), &mut out);
        dir.apply(DirectoryOp::RemoveEntry { line: line(1) }, &mut out);
        assert!(out.hit());
        assert_eq!(out.invalidate().len(), 2);
        assert!(dir.is_empty());
    }

    #[test]
    fn storage_profile_scales_with_cache_count() {
        let small = StorageProfile::duplicate_tag(256, 2, 2);
        let large = StorageProfile::duplicate_tag(256, 2, 32);
        // Lookup width (and thus energy) grows linearly with cache count.
        assert_eq!(large.bits_read_per_lookup, 16 * small.bits_read_per_lookup);
        assert_eq!(large.comparators_per_lookup, 64);
        // Per-entry write cost does not change.
        assert_eq!(small.bits_written_per_update, large.bits_written_per_update);
    }
}
