//! Address-interleaved multi-slice directories.
//!
//! A real many-core system distributes its directory across tiles: each
//! slice owns the blocks whose addresses interleave onto it (Section 2 of
//! the paper).  [`ShardedDirectory`] reproduces that structure behind the
//! ordinary [`Directory`] interface: it owns `N` independent slices (of any
//! organization, `N` a power of two), routes every operation to the owning
//! slice through [`ccd_common::Interleave`], and translates slice-local
//! lines in the results back to global ones.
//!
//! Because every slice is an independent `Box<dyn Directory>`, shards can
//! even mix organizations — useful for asymmetric/NUCA experiments — though
//! the common construction ([`crate::BuilderRegistry`] with a
//! `shardedN:` spec prefix) builds `N` identical slices whose total
//! capacity matches the unsharded spec.
//!
//! The wrapper keeps no books of its own: its statistics are the merge of
//! its slices', in shard order, computed when asked — so it reports the
//! same counters a single slice of the same total capacity would, and the
//! request path pays for routing only.

use crate::{Directory, DirectoryOp, DirectoryStats, Outcome};
use ccd_common::{CacheId, ConfigError, Interleave, LineAddr};

/// `N` address-interleaved directory slices behind one [`Directory`].
pub struct ShardedDirectory {
    shards: Vec<Box<dyn Directory>>,
    interleave: Interleave,
}

impl std::fmt::Debug for ShardedDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDirectory")
            .field("shards", &self.shards.len())
            .field("organization", &self.organization())
            .finish_non_exhaustive()
    }
}

impl ShardedDirectory {
    /// Wraps `shards` (at least one) into one interleaved directory.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] when `shards` is empty,
    /// * [`ConfigError::NotPowerOfTwo`] when their count is not a power of
    ///   two ([`Interleave::new`]),
    /// * [`ConfigError::Inconsistent`] when the shards disagree on the
    ///   number of tracked caches.
    pub fn new(shards: Vec<Box<dyn Directory>>) -> Result<Self, ConfigError> {
        if shards.is_empty() {
            return Err(ConfigError::Zero {
                what: "shard count",
            });
        }
        let interleave = Interleave::new(shards.len())?;
        let caches = shards[0].num_caches();
        if shards.iter().any(|s| s.num_caches() != caches) {
            return Err(ConfigError::Inconsistent {
                what: "all shards must track the same number of caches",
            });
        }
        Ok(ShardedDirectory { shards, interleave })
    }

    /// Read access to the individual slices, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[Box<dyn Directory>] {
        &self.shards
    }
}

impl Directory for ShardedDirectory {
    fn organization(&self) -> String {
        let first = self.shards[0].organization();
        if self.shards[1..].iter().all(|s| s.organization() == first) {
            format!("sharded{}x[{first}]", self.shards.len())
        } else {
            format!("sharded{}x[mixed]", self.shards.len())
        }
    }

    fn num_caches(&self) -> usize {
        self.shards[0].num_caches()
    }

    fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn contains(&self, line: LineAddr) -> bool {
        let (shard, local) = self.interleave.home_of(line);
        self.shards[shard].contains(local)
    }

    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool {
        let (shard, local) = self.interleave.home_of(line);
        self.shards[shard].may_hold(local, cache)
    }

    fn apply(&mut self, op: DirectoryOp, out: &mut Outcome) {
        let (shard, local) = self.interleave.home_of(op.line());
        self.shards[shard].apply(op.with_line(local), out);
        out.map_eviction_lines(|victim| self.interleave.global_line(shard, victim));
    }

    fn stats(&self) -> DirectoryStats {
        let mut stats = DirectoryStats::new();
        for shard in &self.shards {
            stats.merge(&shard.stats());
        }
        stats
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{add, line};
    use crate::SlotDirectory;
    use ccd_sharers::FullBitVector;

    fn slice(ways: usize, sets: usize) -> Box<dyn Directory> {
        Box::new(SlotDirectory::<FullBitVector>::sparse(ways, sets, 8).unwrap())
    }

    #[test]
    fn construction_validation() {
        assert!(ShardedDirectory::new(Vec::new()).is_err());
        let mismatched: Vec<Box<dyn Directory>> = vec![
            slice(2, 8),
            Box::new(SlotDirectory::<FullBitVector>::sparse(2, 8, 4).unwrap()),
        ];
        assert!(ShardedDirectory::new(mismatched).is_err());
        let three = (0..3).map(|_| slice(2, 8)).collect();
        assert_eq!(
            ShardedDirectory::new(three).err(),
            Some(ConfigError::NotPowerOfTwo {
                what: "directory slice count",
                value: 3,
            })
        );
        let ok = ShardedDirectory::new(vec![slice(2, 8), slice(2, 8)]).unwrap();
        assert_eq!(ok.shards().len(), 2);
        assert_eq!(ok.capacity(), 32);
        assert_eq!(ok.num_caches(), 8);
        assert!(ok.organization().starts_with("sharded2x["));
    }

    #[test]
    fn routes_lines_to_the_owning_shard() {
        let mut dir = ShardedDirectory::new(vec![slice(2, 8), slice(2, 8)]).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(4), CacheId::new(1)), &mut out); // even -> shard 0
        dir.apply(add(line(7), CacheId::new(2)), &mut out); // odd  -> shard 1
        assert_eq!(dir.shards()[0].len(), 1);
        assert_eq!(dir.shards()[1].len(), 1);
        assert_eq!(dir.len(), 2);
        assert!(dir.contains(line(4)));
        assert!(dir.contains(line(7)));
        assert!(!dir.contains(line(5)));
        dir.apply(DirectoryOp::Probe { line: line(7) }, &mut out);
        assert!(out.hit());
        assert_eq!(out.sharers(), &[CacheId::new(2)]);
        assert!(dir.may_hold(line(4), CacheId::new(1)));
        assert!(!dir.may_hold(line(4), CacheId::new(2)));
    }

    #[test]
    fn forced_eviction_lines_are_reported_globally() {
        // 1-way 2-set slices, 2 shards: global blocks 0 and 8 both land on
        // shard 0, local set 0 -> the second insertion evicts the first.
        // Blocks 1 and 9 do the same on shard 1, where the global line is
        // not the local one shifted back.
        let mut dir = ShardedDirectory::new(vec![slice(1, 2), slice(1, 2)]).unwrap();
        let mut out = Outcome::new();
        for shard in 0..2 {
            dir.apply(add(line(shard), CacheId::new(0)), &mut out);
            dir.apply(add(line(8 + shard), CacheId::new(1)), &mut out);
            assert_eq!(out.forced_eviction_count(), 1);
            assert_eq!(
                out.forced_evictions().next().unwrap().line,
                line(shard),
                "global line expected"
            );
        }
        assert_eq!(dir.stats().forced_evictions.get(), 2);
    }

    #[test]
    fn hit_path_mirror_overflow_evictions_are_counted() {
        // Duplicate-tag shards: 1-way, 2-set mirrors for 2 caches.  A
        // forced eviction on the *hit* path (tag already tracked via
        // another cache, requester's mirror set full) must still reach the
        // wrapper's aggregate counters.
        let mk = || -> Box<dyn Directory> {
            Box::new(crate::DuplicateTagDirectory::new(2, 1, 2).unwrap())
        };
        let mut dir = ShardedDirectory::new(vec![mk(), mk()]).unwrap();
        let mut out = Outcome::new();
        dir.apply(add(line(0), CacheId::new(1)), &mut out); // shard 0, local 0
        dir.apply(add(line(4), CacheId::new(0)), &mut out); // shard 0, local 2 (same mirror set)
        dir.apply(add(line(0), CacheId::new(0)), &mut out);
        assert!(out.hit(), "tag already tracked via cache 1");
        assert!(!out.allocated_new_entry());
        assert_eq!(out.forced_eviction_count(), 1);
        let eviction = out.forced_evictions().next().unwrap();
        assert_eq!(eviction.line, line(4), "victim reported as a global line");
        let shard_sum: u64 = dir
            .shards()
            .iter()
            .map(|s| s.stats().forced_evictions.get())
            .sum();
        assert_eq!(shard_sum, 1);
        assert_eq!(
            dir.stats().forced_evictions.get(),
            shard_sum,
            "hit-path evictions must reach the aggregate counters"
        );
        assert_eq!(dir.stats().forced_block_invalidations.get(), 1);
    }

    #[test]
    fn aggregate_stats_match_observable_operations() {
        let mut dir = ShardedDirectory::new(vec![slice(4, 8), slice(4, 8)]).unwrap();
        let mut out = Outcome::new();
        let (line, cache) = (line(42), CacheId::new(2));
        dir.apply(add(line, CacheId::new(0)), &mut out);
        dir.apply(add(line, CacheId::new(1)), &mut out);
        dir.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        assert_eq!(out.invalidate().len(), 2);
        dir.apply(DirectoryOp::RemoveSharer { line, cache }, &mut out);
        assert_eq!(dir.stats().insertions.get(), 1);
        assert_eq!(dir.stats().sharer_adds.get(), 1);
        assert_eq!(dir.stats().invalidate_alls.get(), 1);
        assert_eq!(dir.stats().sharer_removes.get(), 1);
        assert_eq!(dir.stats().entry_removes.get(), 1);
        assert!(dir.is_empty());
        dir.reset_stats();
        assert_eq!(dir.stats().insertions.get(), 0);
        assert_eq!(dir.shards()[0].stats().insertions.get(), 0);
    }
}
