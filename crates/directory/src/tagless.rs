//! The Tagless directory baseline (Zebchuk et al., MICRO 2009).
//!
//! The Tagless directory replaces per-block directory entries with a *grid
//! of Bloom filters*: for every private-cache set there is one small filter
//! per cache summarizing the blocks that cache holds in that set.  A lookup
//! reads the filter row for the accessed set across **all** caches and tests
//! the block in each, yielding a conservative superset of the sharers.
//!
//! The paper uses Tagless as the leading *area*-efficient design: its
//! storage is tiny and independent of tag width, but "the bit-widths of
//! either each read or each update operation … increase with the number of
//! cores" (Section 3.3), so its aggregate energy grows quadratically with
//! core count just like Duplicate-Tag — which is exactly what
//! [`StorageProfile::tagless`](crate::StorageProfile::tagless) charges in
//! the energy model (Figures 4 and 13).
//!
//! # Modelling notes
//!
//! * Filters are maintained as counting Bloom filters so that sharer
//!   removals (private-cache evictions) can be processed exactly; hardware
//!   Tagless achieves the same effect with its own bookkeeping.  The
//!   energy model charges one bit per bucket, as in the hardware design.
//! * Like the hardware design, the structure never forces invalidations —
//!   aliasing produces spurious invalidation *messages* (false-positive
//!   sharers), not evictions of live blocks.

use crate::spec::{capacity_too_large, checked_capacity, try_filled};
use crate::{Directory, DirectoryOp, DirectoryStats, Outcome};
use ccd_common::rng::SplitMix64;
use ccd_common::{CacheId, ConfigError, LineAddr};

/// Bloom-filter buckets per (cache, set) filter.
const BUCKETS: usize = 64;

/// Hash probes per filter test/update.
const PROBES: usize = 2;

const _: () = assert!(BUCKETS.is_power_of_two() && 0 < PROBES && PROBES <= BUCKETS);

/// A Tagless coherence directory slice.
#[derive(Clone, Debug)]
pub(crate) struct TaglessDirectory {
    cache_sets: usize,
    cache_ways: usize,
    num_caches: usize,
    /// One filter row per cache, end to end:
    /// `filters[(cache * cache_sets + set) * buckets + bucket]` — small
    /// saturating counters.
    filters: Vec<u8>,
    /// Exact per-line presence, used to keep the counting filters consistent
    /// and to answer `len`/`contains` exactly (mirrors the bookkeeping the
    /// hardware design derives from observing cache fills and evictions).
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only, never iterated; sharers-path gets need O(1)"
    )]
    present: std::collections::HashMap<u64, Vec<CacheId>>,
    stats: DirectoryStats,
}

impl TaglessDirectory {
    /// Creates a Tagless directory for `num_caches` private caches of
    /// `cache_sets × cache_ways` frames each.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter is zero, `cache_sets` is
    /// not a power of two, or `cache_sets × cache_ways × num_caches` tracked
    /// frames cannot exist ([`checked_capacity`]) or their filters are
    /// refused by the allocator.
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
        checked_capacity(frames, num_caches)?;
        let filters = cache_sets
            .checked_mul(BUCKETS)
            .and_then(|row| row.checked_mul(num_caches))
            .and_then(|cells| try_filled(cells, 0u8))
            .ok_or_else(|| capacity_too_large(frames, num_caches))?;
        Ok(TaglessDirectory {
            cache_sets,
            cache_ways,
            num_caches,
            filters,
            present: Default::default(),
            stats: DirectoryStats::new(),
        })
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.block_number() % self.cache_sets as u64) as usize
    }

    /// The `p`-th Bloom-filter bucket of `cache`'s row probed for `line` —
    /// a pure function so read and update paths stay allocation-free.
    fn probe_bucket(&self, cache: CacheId, line: LineAddr, p: usize) -> usize {
        let h = SplitMix64::mix(line.block_number() ^ (p as u64).wrapping_mul(0x9E37_79B9));
        let filter = cache.index() * self.cache_sets + self.set_of(line);
        filter * BUCKETS + (h % BUCKETS as u64) as usize
    }

    fn filter_may_contain(&self, cache: CacheId, line: LineAddr) -> bool {
        (0..PROBES).all(|p| self.filters[self.probe_bucket(cache, line, p)] > 0)
    }

    fn filter_add(&mut self, cache: CacheId, line: LineAddr) {
        for p in 0..PROBES {
            let b = self.probe_bucket(cache, line, p);
            self.filters[b] = self.filters[b].saturating_add(1);
        }
    }

    fn filter_remove(&mut self, cache: CacheId, line: LineAddr) {
        for p in 0..PROBES {
            let b = self.probe_bucket(cache, line, p);
            self.filters[b] = self.filters[b].saturating_sub(1);
        }
    }

    #[cfg(test)]
    fn exact_holders(&self, line: LineAddr) -> Option<&Vec<CacheId>> {
        self.present.get(&line.block_number())
    }

    /// The `AddSharer` operation body, shared with `SetExclusive` (which
    /// appends to an already-populated outcome and must not reset it).
    fn add_impl(&mut self, line: LineAddr, cache: CacheId, out: &mut Outcome) {
        self.stats.lookups.incr();
        let holders = self.present.entry(line.block_number()).or_default();
        if holders.contains(&cache) {
            self.stats.sharer_adds.incr();
            out.set_hit(true);
            return;
        }
        let new_tag = holders.is_empty();
        holders.push(cache);
        self.filter_add(cache, line);
        if new_tag {
            out.record_allocation(1);
            self.stats.record_insertion(1, 0);
        } else {
            out.set_hit(true);
            self.stats.sharer_adds.incr();
        }
    }
}

impl Directory for TaglessDirectory {
    fn organization(&self) -> String {
        format!(
            "tagless-{}c-{}s-{}b",
            self.num_caches, self.cache_sets, BUCKETS
        )
    }

    fn num_caches(&self) -> usize {
        self.num_caches
    }

    fn capacity(&self) -> usize {
        self.num_caches * self.cache_ways * self.cache_sets
    }

    fn len(&self) -> usize {
        self.present.len()
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.present.contains_key(&line.block_number())
    }

    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool {
        // Conservative: every cache whose filter reports a hit may hold a
        // copy of any tracked line.
        cache.index() < self.num_caches
            && self.contains(line)
            && self.filter_may_contain(cache, line)
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
                        if self.filter_may_contain(cache, line) {
                            out.push_invalidate(cache);
                        }
                    }
                }
            }
            DirectoryOp::AddSharer { line, cache } => {
                self.add_impl(line, cache, out);
            }
            DirectoryOp::SetExclusive { line, cache } => {
                // The invalidation vector sent by Tagless is the
                // conservative filter-derived superset; the entries actually
                // cleared are the true holders (the hardware learns them
                // from the invalidation acks).
                if self.contains(line) {
                    for c in 0..self.num_caches as u32 {
                        let other = CacheId::new(c);
                        if other != cache && self.filter_may_contain(other, line) {
                            out.push_invalidate(other);
                        }
                    }
                }
                let mut holders = self
                    .present
                    .remove(&line.block_number())
                    .unwrap_or_default();
                let mut keep_writer = false;
                let mut removed_any = false;
                for &holder in &holders {
                    if holder == cache {
                        keep_writer = true;
                    } else {
                        self.filter_remove(holder, line);
                        self.stats.sharer_removes.incr();
                        removed_any = true;
                    }
                }
                holders.clear();
                if keep_writer {
                    holders.push(cache);
                }
                self.present.insert(line.block_number(), holders);
                if removed_any {
                    out.record_invalidate_all();
                    self.stats.invalidate_alls.incr();
                }
                self.add_impl(line, cache, out);
            }
            DirectoryOp::RemoveSharer { line, cache } => {
                let (removed, now_empty) = match self.present.get_mut(&line.block_number()) {
                    Some(holders) => match holders.iter().position(|&c| c == cache) {
                        Some(pos) => {
                            holders.remove(pos);
                            (true, holders.is_empty())
                        }
                        None => (false, false),
                    },
                    None => return,
                };
                if removed {
                    out.set_hit(true);
                    self.stats.sharer_removes.incr();
                    self.filter_remove(cache, line);
                    if now_empty {
                        self.present.remove(&line.block_number());
                        out.record_removed_entry();
                        self.stats.entry_removes.incr();
                    }
                }
            }
            DirectoryOp::RemoveEntry { line } => {
                let Some(holders) = self.present.remove(&line.block_number()) else {
                    return;
                };
                out.set_hit(true);
                out.record_removed_entry();
                for &cache in &holders {
                    self.filter_remove(cache, line);
                }
                self.stats.entry_removes.incr();
                // Report the conservative superset, as the hardware would.
                for c in 0..self.num_caches as u32 {
                    let cache = CacheId::new(c);
                    if holders.contains(&cache) || self.filter_may_contain(cache, line) {
                        out.push_invalidate(cache);
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

    #[test]
    fn construction_validation() {
        assert!(TaglessDirectory::new(0, 2, 4).is_err());
        assert!(TaglessDirectory::new(16, 0, 4).is_err());
        assert!(TaglessDirectory::new(16, 2, 0).is_err());
        assert!(TaglessDirectory::new(12, 2, 4).is_err());
        assert!(TaglessDirectory::new(16, 2, 4).is_ok());
    }

    #[test]
    fn sharers_are_a_superset_of_true_holders() {
        let mut dir = TaglessDirectory::new(64, 2, 8).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(5), CacheId::new(1)), &mut out);
        dir.apply(add(line(5), CacheId::new(6)), &mut out);
        dir.apply(DirectoryOp::Probe { line: line(5) }, &mut out);
        assert!(out.hit());
        assert!(out.sharers().contains(&CacheId::new(1)));
        assert!(out.sharers().contains(&CacheId::new(6)));
        assert!(!dir.contains(line(6)));
        dir.apply(DirectoryOp::Probe { line: line(6) }, &mut out);
        assert!(!out.hit() && out.sharers().is_empty());
    }

    #[test]
    fn removal_keeps_filters_consistent() {
        let mut dir = TaglessDirectory::new(64, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(9), CacheId::new(0)), &mut out);
        dir.apply(add(line(73), CacheId::new(0)), &mut out); // same set (64 sets)
        dir.apply(remove(line(9), CacheId::new(0)), &mut out);
        assert!(!dir.contains(line(9)));
        // line 73 must still be reported for cache 0.
        dir.apply(DirectoryOp::Probe { line: line(73) }, &mut out);
        assert!(out.hit() && out.sharers().contains(&CacheId::new(0)));
        dir.apply(remove(line(73), CacheId::new(0)), &mut out);
        assert!(dir.is_empty());
        assert_eq!(dir.stats().entry_removes.get(), 2);
    }

    #[test]
    fn never_forces_invalidations_under_heavy_load() {
        let mut dir = TaglessDirectory::new(16, 2, 4).unwrap();
        let mut out = Outcome::new();
        for n in 0..1000u64 {
            dir.apply(add(line(n), CacheId::new((n % 4) as u32)), &mut out);
            assert_eq!(out.forced_eviction_count(), 0);
        }
        assert_eq!(dir.stats().forced_evictions.get(), 0);
        assert!((dir.stats().forced_invalidation_rate()).abs() < 1e-12);
    }

    #[test]
    fn exclusive_clears_true_holders_and_reports_superset() {
        let mut dir = TaglessDirectory::new(64, 2, 8).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(3), CacheId::new(0)), &mut out);
        dir.apply(add(line(3), CacheId::new(5)), &mut out);
        let (line, cache) = (line(3), CacheId::new(2));
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert!(out.invalidate().contains(&CacheId::new(0)));
        assert!(out.invalidate().contains(&CacheId::new(5)));
        assert!(!out.invalidate().contains(&CacheId::new(2)));
        // After the upgrade only the writer is a true holder.
        assert_eq!(dir.exact_holders(line).unwrap(), &vec![CacheId::new(2)]);
    }

    #[test]
    fn remove_entry_returns_superset_and_clears_state() {
        let mut dir = TaglessDirectory::new(64, 2, 4).unwrap();
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::RemoveEntry { line: line(1) }, &mut out);
        assert!(!out.hit());
        dir.apply(add(line(1), CacheId::new(1)), &mut out);
        dir.apply(add(line(1), CacheId::new(2)), &mut out);
        dir.apply(DirectoryOp::RemoveEntry { line: line(1) }, &mut out);
        assert!(out.hit());
        assert!(out.invalidate().contains(&CacheId::new(1)));
        assert!(out.invalidate().contains(&CacheId::new(2)));
        assert!(dir.is_empty());
    }

    #[test]
    fn lookup_width_scales_with_cache_count_but_storage_stays_small() {
        let small = StorageProfile::tagless(256, 2, BUCKETS);
        let large = StorageProfile::tagless(256, 64, BUCKETS);
        assert_eq!(large.bits_read_per_lookup, 32 * small.bits_read_per_lookup);
        assert_eq!(small.bits_written_per_update, large.bits_written_per_update);
        // Storage per tracked frame is far below a duplicate-tag entry.
        let frames = 256 * 2 * 64;
        assert!(large.total_bits / frames < 40);
    }
}
