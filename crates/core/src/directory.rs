//! The Cuckoo coherence directory.
//!
//! [`CuckooDirectory`] wraps the raw [`CuckooTable`] with directory
//! semantics — sharer sets per entry, exclusive-request handling, eviction
//! notifications — and implements the workspace-wide
//! [`ccd_directory::Directory`] trait, so the coherence simulator and the
//! benchmark harness can compare it directly against the Sparse, Skewed,
//! Duplicate-Tag, In-Cache and Tagless baselines.
//!
//! The hardware organization follows Figure 6 of the paper: `d` direct-
//! mapped ways, each indexed by its own hash function, with exchange buffers
//! holding the in-flight displaced entry during an insertion chain.  The
//! statistics recorded here (insertion-attempt histogram, forced-invalidation
//! rate, occupancy) are the quantities Figures 8–12 report.

use crate::config::CuckooConfig;
use crate::table::{ways_dispatch, CuckooTable};
use ccd_common::{CacheId, ConfigError, LineAddr};
use ccd_directory::{DepthMetrics, Directory, DirectoryOp, DirectoryStats, InsertPolicy, Outcome};
use ccd_sharers::SharerSet;

/// A Cuckoo directory slice: a d-ary cuckoo hash table of sharer sets.
#[derive(Clone, Debug)]
pub struct CuckooDirectory<S: SharerSet> {
    config: CuckooConfig,
    table: CuckooTable<S>,
    stats: DirectoryStats,
}

impl<S: SharerSet> CuckooDirectory<S> {
    /// Creates a Cuckoo directory slice from `config`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] produced by [`CuckooConfig::validate`]
    /// or by the hash-family construction.
    pub fn new(config: CuckooConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(CuckooDirectory {
            table: Self::build_table(&config)?,
            config,
            stats: DirectoryStats::new(),
        })
    }

    /// Builds a table for `config`, with the attempt budget and insertion
    /// policy applied — shared by construction and live resize.
    fn build_table(config: &CuckooConfig) -> Result<CuckooTable<S>, ConfigError> {
        let mut table =
            CuckooTable::new(config.ways, config.sets, config.hash_kind, config.hash_seed)?;
        table.set_max_attempts(config.max_insertion_attempts);
        table.set_insert_policy(config.insert_policy);
        Ok(table)
    }

    /// The configuration this slice was built from.
    #[must_use]
    pub fn config(&self) -> &CuckooConfig {
        &self.config
    }

    /// Number of ways (`d`).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.config.ways
    }

    /// Entries per way.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.config.sets
    }

    /// Looks `line` up and, if absent, inserts a fresh entry via the cuckoo
    /// displacement procedure, recording hit / allocation / forced-eviction
    /// facts in `out`.  One fused table probe covers the lookup, the vacancy
    /// scan and — on a hit — the payload access: the returned borrow is the
    /// entry's sharer set, which is guaranteed to exist afterwards.
    fn find_or_allocate<'t, const N: usize>(
        config: &CuckooConfig,
        table: &'t mut CuckooTable<S>,
        stats: &mut DirectoryStats,
        line: LineAddr,
        indices: &mut [usize; N],
        out: &mut Outcome,
    ) -> &'t mut S {
        stats.lookups.incr();
        let num_caches = config.num_caches;
        let len_before = table.len();
        let entry =
            table.find_or_insert_prehashed(line.block_number(), indices, || S::new(num_caches));
        let Some(outcome) = entry.inserted else {
            out.set_hit(true);
            return entry.value;
        };

        out.record_allocation(outcome.attempts);
        let mut forced = 0u64;
        if let Some((victim_key, victim_sharers)) = outcome.discarded {
            // The attempt budget ran out: the entry displaced on the final
            // attempt is discarded and its cached copies must be
            // invalidated.  The table guarantees the *new* key is always
            // stored — the discarded victim is never `line` itself — which
            // is what makes the returned borrow valid after this call.
            out.record_insertion_failure();
            stats.insertion_failures.incr();
            let targets =
                out.push_forced_eviction(LineAddr::from_block_number(victim_key), &victim_sharers);
            stats.forced_block_invalidations.add(targets as u64);
            forced = 1;
        }
        // A discarding insertion removes one entry for the one it adds, so
        // the table's occupancy after the insertion is derivable without
        // touching the table (whose payload is borrowed by `entry`).
        let len_after = if forced == 1 {
            len_before
        } else {
            len_before + 1
        };
        let occupancy = len_after as f64 / config.capacity() as f64;
        stats.record_insertion(outcome.attempts, forced, occupancy);
        entry.value
    }

    /// One operation against the table, given the candidate set `indices`
    /// of its line — the body of both [`Directory::apply`] (which hashes
    /// the line just before) and stage 3 of [`Directory::apply_batch`]
    /// (whose pipeline hashed it a window ago, so nothing is hashed twice).
    /// This is the organization's op entry, where the cache an op names is
    /// checked against the directory's cache count.  Takes the directory
    /// field by field because the pipeline lends the table out on its own.
    #[inline]
    fn apply_op<const N: usize>(
        config: &CuckooConfig,
        table: &mut CuckooTable<S>,
        stats: &mut DirectoryStats,
        op: DirectoryOp,
        indices: &mut [usize; N],
        out: &mut Outcome,
    ) {
        op.check_cache(config.num_caches);
        out.reset();
        match op {
            DirectoryOp::Probe { line } => {
                if let Some(sharers) = table.get_prehashed(line.block_number(), indices) {
                    out.set_hit(true);
                    sharers.extend_targets(out.invalidate_buf());
                }
            }
            DirectoryOp::AddSharer { line, cache } => {
                let entry = Self::find_or_allocate(config, table, stats, line, indices, out);
                entry.add(cache);
                if out.hit() {
                    stats.sharer_adds.incr();
                }
            }
            DirectoryOp::SetExclusive { line, cache } => {
                let entry = Self::find_or_allocate(config, table, stats, line, indices, out);
                let start = out.invalidate_len();
                entry.extend_targets(out.invalidate_buf());
                out.drop_invalidate_from(start, cache);
                entry.clear();
                entry.add(cache);
                if out.invalidate_len() > start {
                    out.record_invalidate_all();
                    stats.invalidate_alls.incr();
                } else if out.hit() {
                    stats.sharer_adds.incr();
                }
            }
            DirectoryOp::RemoveSharer { line, cache } => {
                let Some(mut entry) = table.occupied(line.block_number(), indices) else {
                    return;
                };
                out.set_hit(true);
                stats.sharer_removes.incr();
                let sharers = entry.get_mut();
                sharers.remove(cache);
                if sharers.is_empty() {
                    entry.remove();
                    out.record_removed_entry();
                    stats.entry_removes.incr();
                }
            }
            DirectoryOp::RemoveEntry { line } => {
                let Some(entry) = table.occupied(line.block_number(), indices) else {
                    return;
                };
                out.set_hit(true);
                out.record_removed_entry();
                entry.remove().extend_targets(out.invalidate_buf());
                stats.entry_removes.incr();
            }
        }
    }
}

impl<S: SharerSet> Directory for CuckooDirectory<S> {
    fn organization(&self) -> String {
        let mut label = format!(
            "cuckoo-{}x{}-{}",
            self.config.ways, self.config.sets, self.config.hash_kind
        );
        // The insertion policy is semantic (attempt counts and placements
        // differ), so a non-default policy is always part of the label.
        if self.config.insert_policy != InsertPolicy::Greedy {
            label.push('-');
            label.push_str(&self.config.insert_policy.to_string());
        }
        label
    }

    fn num_caches(&self) -> usize {
        self.config.num_caches
    }

    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.table.contains(line.block_number())
    }

    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool {
        self.table
            .get(line.block_number())
            .is_some_and(|sharers| sharers.may_contain(cache))
    }

    fn apply(&mut self, op: DirectoryOp, out: &mut Outcome) {
        let CuckooDirectory {
            config,
            table,
            stats,
        } = self;
        ways_dispatch!(table.ways(), N => {
            let mut indices = table.hashed::<N>(op.line().block_number());
            Self::apply_op(config, table, stats, op, &mut indices, out);
        });
    }

    // The staged pipeline of `CuckooTable::for_each_staged` instead of the
    // default's `apply` loop, which overlaps no memory latency: per window,
    // each line is hashed once and its candidate tags prefetched; then the
    // key and sharer lines behind matching tags are prefetched; then the
    // ops run in order through the same indices.  The prefetches are hints
    // only — each op probes the tags itself — so the batch computes exactly
    // what the `apply` loop computes, including when an earlier op of the
    // window moves or discards a later op's line.
    fn apply_batch(
        &mut self,
        ops: &[DirectoryOp],
        out: &mut Outcome,
        sink: &mut dyn FnMut(&DirectoryOp, &Outcome),
    ) {
        let CuckooDirectory {
            config,
            table,
            stats,
        } = self;
        ways_dispatch!(table.ways(), N => table.for_each_staged::<N>(
            ops.len(),
            |item| ops[item].line().block_number(),
            |table, item, indices| {
                Self::apply_op(config, table, stats, ops[item], indices, out);
                sink(&ops[item], out);
            },
        ));
    }

    fn stats(&self) -> DirectoryStats {
        self.stats.clone()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn arm_depth_metrics(&mut self, sig_bits: u32) -> bool {
        self.table.arm_depth_metrics(sig_bits);
        true
    }

    fn depth_metrics(&self) -> Option<&DepthMetrics> {
        self.table.depth_metrics()
    }

    fn geometry(&self) -> Option<(usize, usize)> {
        Some((self.config.ways, self.config.sets))
    }

    // Online live resize: build a table at the new geometry and migrate
    // every resident entry through its batched insertion path.  The
    // migration itself bypasses the per-insertion statistics — the grown
    // directory must stay semantically comparable to one statically
    // provisioned at the new geometry — except for entries the new geometry
    // cannot re-home, which are folded into the failure statistics exactly
    // like a budget-exhausted insertion (deterministic, and practically
    // never fired by a growth resize).
    fn live_resize(&mut self, ways: usize, sets: usize) -> Result<bool, ConfigError> {
        let mut config = self.config.clone();
        config.ways = ways;
        config.sets = sets;
        config.validate()?;
        let mut table = Self::build_table(&config)?;
        // Like the per-insertion statistics, the depth distributions skip
        // the migration itself: recorded data survives the resize, and the
        // re-homed table stays armed, but migration traffic never lands in
        // the request-path distributions.
        let metrics = self.table.take_depth_metrics();
        for (_victim_key, victim_sharers) in self.table.migrate_into(&mut table) {
            self.stats.insertion_failures.incr();
            let targets = victim_sharers.invalidation_targets().len();
            self.stats.forced_block_invalidations.add(targets as u64);
        }
        self.table = table;
        self.table.restore_depth_metrics(metrics);
        self.config = config;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64};
    use ccd_directory::StorageProfile;
    use ccd_hash::HashKind;
    use ccd_sharers::{CoarseVector, FullBitVector, LimitedPointer, SharerFormat};

    type Dir = CuckooDirectory<FullBitVector>;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_block_number(n)
    }

    fn dir(ways: usize, sets: usize, caches: usize) -> Dir {
        Dir::new(CuckooConfig::new(ways, sets, caches)).unwrap()
    }

    fn add(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::AddSharer { line, cache }
    }

    fn remove(line: LineAddr, cache: CacheId) -> DirectoryOp {
        DirectoryOp::RemoveSharer { line, cache }
    }

    /// `Probe`'s answer: `None` on a miss, the reported sharers on a hit.
    fn probe(dir: &mut impl Directory, line: LineAddr) -> Option<Vec<CacheId>> {
        let mut out = Outcome::new();
        dir.apply(DirectoryOp::Probe { line }, &mut out);
        out.hit().then(|| out.sharers().to_vec())
    }

    #[test]
    fn construction_validation() {
        assert!(Dir::new(CuckooConfig::new(1, 64, 4)).is_err());
        assert!(Dir::new(CuckooConfig::new(4, 100, 4)).is_err());
        assert!(Dir::new(CuckooConfig::new(4, 64, 0)).is_err());
        assert!(Dir::new(CuckooConfig::new(3, 8192, 16)).is_ok());
    }

    #[test]
    fn add_query_remove_round_trip() {
        let mut d = dir(4, 64, 8);
        let mut out = Outcome::new();
        d.apply(add(line(100), CacheId::new(1)), &mut out);
        assert!(out.allocated_new_entry());
        assert_eq!(out.insertion_attempts(), 1);
        d.apply(add(line(100), CacheId::new(4)), &mut out);
        assert_eq!(
            probe(&mut d, line(100)),
            Some(vec![CacheId::new(1), CacheId::new(4)])
        );
        assert_eq!(d.len(), 1);
        d.apply(remove(line(100), CacheId::new(1)), &mut out);
        d.apply(remove(line(100), CacheId::new(4)), &mut out);
        assert!(!d.contains(line(100)));
        assert_eq!(d.len(), 0);
        assert_eq!(d.stats().entry_removes.get(), 1);
        // Removing a sharer of an unknown line is a no-op.
        d.apply(remove(line(100), CacheId::new(4)), &mut out);
    }

    #[test]
    fn exclusive_requests_invalidate_other_sharers() {
        let mut d = dir(4, 64, 8);
        let mut out = Outcome::new();
        for c in 0..5u32 {
            d.apply(add(line(77), CacheId::new(c)), &mut out);
        }
        let (line, cache) = (line(77), CacheId::new(2));
        d.apply(DirectoryOp::SetExclusive { line, cache }, &mut out);
        let mut inv = out.invalidate().to_vec();
        inv.sort_unstable();
        assert_eq!(
            inv,
            vec![
                CacheId::new(0),
                CacheId::new(1),
                CacheId::new(3),
                CacheId::new(4)
            ]
        );
        assert_eq!(probe(&mut d, line), Some(vec![CacheId::new(2)]));
        assert_eq!(d.stats().invalidate_alls.get(), 1);
    }

    #[test]
    fn remove_entry_returns_targets() {
        let mut d = dir(3, 32, 4);
        let mut out = Outcome::new();
        d.apply(DirectoryOp::RemoveEntry { line: line(5) }, &mut out);
        assert!(!out.hit());
        d.apply(add(line(5), CacheId::new(0)), &mut out);
        d.apply(add(line(5), CacheId::new(3)), &mut out);
        d.apply(DirectoryOp::RemoveEntry { line: line(5) }, &mut out);
        assert!(out.hit());
        assert_eq!(out.invalidate(), &[CacheId::new(0), CacheId::new(3)]);
        assert!(d.is_empty());
    }

    #[test]
    fn no_forced_invalidations_at_half_occupancy() {
        // The paper's core claim: a Cuckoo directory sized at 2x the tracked
        // blocks (occupancy <= 50%) never invalidates due to conflicts.
        let mut d = dir(4, 512, 32); // capacity 2048
        let mut out = Outcome::new();
        let mut rng = SplitMix64::new(7);
        let target = d.capacity() / 2;
        let mut inserted = std::collections::BTreeSet::new();
        while d.len() < target {
            let l = line(rng.next_u64() >> 10);
            if !inserted.insert(l.block_number()) {
                continue;
            }
            d.apply(add(l, CacheId::new((rng.next_below(32)) as u32)), &mut out);
            assert_eq!(
                out.forced_eviction_count(),
                0,
                "forced eviction at occupancy {}",
                d.occupancy()
            );
        }
        assert_eq!(d.stats().forced_evictions.get(), 0);
        assert!(d.stats().avg_insertion_attempts() < 2.0);
        assert!((d.stats().forced_invalidation_rate()).abs() < 1e-12);
    }

    #[test]
    fn cuckoo_beats_sparse_on_conflicting_access_patterns() {
        // Lines sharing low-order index bits thrash a modulo-indexed Sparse
        // directory of the same capacity but are absorbed by the Cuckoo
        // organization.
        let ways = 4;
        let sets = 256;
        let caches = 8;
        let mut sparse =
            ccd_directory::SlotDirectory::<FullBitVector>::sparse(ways, sets, caches).unwrap();
        let mut cuckoo = dir(ways, sets, caches);
        let mut out = Outcome::new();
        let mut sparse_forced = 0usize;
        let mut cuckoo_forced = 0usize;
        for i in 0..128u64 {
            let l = line(3 + i * sets as u64);
            sparse.apply(add(l, CacheId::new(0)), &mut out);
            sparse_forced += out.forced_eviction_count();
            cuckoo.apply(add(l, CacheId::new(0)), &mut out);
            cuckoo_forced += out.forced_eviction_count();
        }
        assert!(sparse_forced > 0);
        assert_eq!(
            cuckoo_forced, 0,
            "cuckoo at 12.5% occupancy must absorb the conflicting lines"
        );
    }

    #[test]
    fn under_provisioned_directories_fail_gracefully() {
        // Drive a small directory far past its capacity: insertions must
        // keep succeeding (discarding victims), len must never exceed
        // capacity, and the failure statistics must reflect the overflow.
        let mut d = dir(3, 16, 4); // capacity 48
        let mut out = Outcome::new();
        let mut rng = SplitMix64::new(42);
        for _ in 0..1000 {
            let l = line(rng.next_u64() >> 12);
            d.apply(add(l, CacheId::new((rng.next_below(4)) as u32)), &mut out);
            assert!(d.len() <= d.capacity());
        }
        assert!(d.stats().forced_evictions.get() > 0);
        assert!(d.stats().insertion_failures.get() > 0);
        assert!(d.stats().avg_insertion_attempts() > 1.0);
        assert!(d.occupancy() > 0.8, "the structure should be nearly full");
    }

    #[test]
    fn insertion_attempts_bounded_by_budget() {
        let config = CuckooConfig::new(3, 8, 2).with_max_attempts(8);
        let mut d = CuckooDirectory::<FullBitVector>::new(config).unwrap();
        let mut out = Outcome::new();
        let mut rng = SplitMix64::new(5);
        for _ in 0..500 {
            let l = line(rng.next_u64() >> 16);
            d.apply(add(l, CacheId::new(0)), &mut out);
            assert!(out.insertion_attempts() <= 8 || !out.allocated_new_entry());
        }
        assert!(d.stats().insertion_attempts.max_value() >= 8);
    }

    #[test]
    fn works_with_compressed_sharer_formats() {
        let mut coarse =
            CuckooDirectory::<CoarseVector>::new(CuckooConfig::new(4, 64, 64)).unwrap();
        let mut limited =
            CuckooDirectory::<LimitedPointer>::new(CuckooConfig::new(4, 64, 64)).unwrap();
        let mut out = Outcome::new();
        for c in [0u32, 5, 17, 44] {
            coarse.apply(add(line(9), CacheId::new(c)), &mut out);
            limited.apply(add(line(9), CacheId::new(c)), &mut out);
        }
        // Both must report a superset of the true sharers.
        let coarse_sharers = probe(&mut coarse, line(9)).unwrap();
        let limited_sharers = probe(&mut limited, line(9)).unwrap();
        for c in [0u32, 5, 17, 44] {
            assert!(coarse_sharers.contains(&CacheId::new(c)));
            assert!(limited_sharers.contains(&CacheId::new(c)));
        }
        // Four sharers fit the limited pointers exactly.
        assert_eq!(limited_sharers.len(), 4);
    }

    #[test]
    fn storage_profile_matches_a_4_way_structure() {
        let p = StorageProfile::tagged(4, 512, SharerFormat::FullVector.entry_bits(32));
        assert_eq!(p.comparators_per_lookup, 4);
        // tag = 48 - 6 - 9 = 33 bits, sharers = 32, valid = 1.
        assert_eq!(p.bits_written_per_update, 33 + 32 + 1);
        assert_eq!(p.total_bits, (33 + 32 + 1) * 2048);
        assert_eq!(p.bits_read_per_lookup, 4 * (33 + 32));
    }

    #[test]
    fn organization_name_reflects_configuration() {
        let d = CuckooDirectory::<FullBitVector>::new(
            CuckooConfig::new(3, 8192, 16).with_hash_kind(HashKind::Strong),
        )
        .unwrap();
        assert_eq!(d.organization(), "cuckoo-3x8192-strong");
        assert_eq!(d.ways(), 3);
        assert_eq!(d.sets(), 8192);
        assert_eq!(d.config().num_caches, 16);
    }

    #[test]
    fn live_resize_grows_in_place_and_preserves_entries() {
        let mut d = dir(4, 64, 8);
        let mut out = Outcome::new();
        let mut rng = SplitMix64::new(0x9E51);
        let mut tracked = Vec::new();
        for _ in 0..180 {
            let l = line(rng.next_u64() >> 10);
            d.apply(add(l, CacheId::new((rng.next_below(8)) as u32)), &mut out);
            if out.forced_eviction_count() == 0 {
                tracked.push(l);
            }
        }
        assert_eq!(d.geometry(), Some((4, 64)));
        let failures_before = d.stats().insertion_failures.get();
        assert!(d.live_resize(4, 128).unwrap());
        assert_eq!(d.geometry(), Some((4, 128)));
        assert_eq!(d.capacity(), 512);
        assert_eq!(d.organization(), "cuckoo-4x128-skewing");
        assert_eq!(
            d.stats().insertion_failures.get(),
            failures_before,
            "a growth migration must not discard"
        );
        for &l in &tracked {
            assert!(d.contains(l), "resize lost {:#x}", l.block_number());
        }
        // The resized directory keeps serving and can re-way too.
        assert!(d.live_resize(8, 64).unwrap());
        assert_eq!(d.geometry(), Some((8, 64)));
        for &l in &tracked {
            assert!(d.contains(l), "re-way lost {:#x}", l.block_number());
        }
    }

    #[test]
    fn live_resize_re_ways_in_both_directions() {
        // A 4 <-> 8 re-way is the one place a live directory changes the
        // way count its probe is compiled for.  Nothing observable may move
        // but the geometry.
        type Observed = (
            usize,
            DirectoryStats,
            Option<DepthMetrics>,
            Vec<Option<Vec<CacheId>>>,
        );
        fn observe(d: &mut Dir, lines: &[LineAddr]) -> Observed {
            (
                d.len(),
                d.stats(),
                d.depth_metrics().cloned(),
                lines.iter().map(|&l| probe(d, l)).collect(),
            )
        }
        let mut out = Outcome::new();
        for (from_ways, to_ways) in [(4usize, 8usize), (8, 4)] {
            for policy in [InsertPolicy::Greedy, InsertPolicy::Bfs] {
                for armed in [false, true] {
                    let case = format!("{from_ways}->{to_ways} {policy} armed={armed}");
                    let config = CuckooConfig::new(from_ways, 64, 8)
                        .with_hash_kind(HashKind::Strong)
                        .with_insert_policy(policy);
                    let mut d = Dir::new(config).unwrap();
                    if armed {
                        assert!(d.arm_depth_metrics(2));
                    }
                    let mut rng = SplitMix64::new(0x7A6A);
                    let lines: Vec<LineAddr> =
                        (0..100).map(|_| line(rng.next_u64() >> 10)).collect();
                    for &l in &lines {
                        d.apply(add(l, CacheId::new(rng.next_below(8) as u32)), &mut out);
                        d.apply(add(l, CacheId::new(rng.next_below(8) as u32)), &mut out);
                    }
                    assert_eq!(d.stats().forced_evictions.get(), 0, "{case}");
                    let before = observe(&mut d, &lines);
                    assert_eq!(observe(&mut d.clone(), &lines), before, "{case}: clone");
                    let label = d.organization();

                    assert!(d.live_resize(to_ways, 64).unwrap(), "{case}");
                    assert_eq!(observe(&mut d, &lines), before, "{case}: resized");
                    assert_eq!(observe(&mut d.clone(), &lines), before, "{case}: reclone");
                    assert_eq!(
                        d.organization(),
                        label.replace(&format!("-{from_ways}x64-"), &format!("-{to_ways}x64-")),
                        "{case}"
                    );
                    // The re-homed directory keeps serving under its policy.
                    d.apply(add(line(1), CacheId::new(0)), &mut out);
                    assert_eq!(d.len(), before.0 + 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn live_resize_validates_the_new_geometry() {
        let mut d = dir(4, 64, 8);
        assert!(d.live_resize(4, 100).is_err(), "non-power-of-two sets");
        assert!(d.live_resize(1, 64).is_err(), "1-ary cannot displace");
        assert_eq!(d.geometry(), Some((4, 64)), "failed resize changes nothing");
    }

    #[test]
    fn baseline_directories_report_non_resizable() {
        let mut sparse = ccd_directory::SlotDirectory::<FullBitVector>::sparse(4, 64, 8).unwrap();
        assert_eq!(sparse.geometry(), None);
        assert!(!sparse.live_resize(4, 128).unwrap());
    }

    #[test]
    fn depth_metrics_arm_record_and_survive_resize() {
        let mut d = dir(4, 64, 8);
        let mut out = Outcome::new();
        assert!(d.depth_metrics().is_none(), "directories start disarmed");
        assert!(d.arm_depth_metrics(2));
        let mut rng = SplitMix64::new(0x0B5);
        for _ in 0..120 {
            let l = line(rng.next_u64() >> 10);
            d.apply(add(l, CacheId::new((rng.next_below(8)) as u32)), &mut out);
        }
        let recorded = d.depth_metrics().unwrap().probe_depth.count();
        assert!(recorded > 0, "armed insertions must record probe depths");

        // The migration is not request traffic: a resize preserves what was
        // recorded, records nothing new, and leaves the directory armed.
        assert!(d.live_resize(4, 128).unwrap());
        let metrics = d.depth_metrics().unwrap();
        assert_eq!(metrics.probe_depth.count(), recorded);
        d.apply(add(line(1), CacheId::new(0)), &mut out);
        assert_eq!(d.depth_metrics().unwrap().probe_depth.count(), recorded + 1);

        // Arming is observational only: an armed and an unarmed twin fed the
        // same requests report identical result-bearing statistics.
        let mut plain = dir(4, 64, 8);
        let mut armed = dir(4, 64, 8);
        assert!(armed.arm_depth_metrics(2));
        let mut rng = SplitMix64::new(0x7777);
        for _ in 0..300 {
            let l = line(rng.next_u64() >> 14);
            let c = CacheId::new((rng.next_below(8)) as u32);
            plain.apply(add(l, c), &mut out);
            armed.apply(add(l, c), &mut out);
        }
        assert_eq!(plain.stats(), armed.stats());
        assert_eq!(plain.len(), armed.len());
    }

    #[test]
    fn stats_reset() {
        let mut d = dir(4, 64, 4);
        d.apply(add(line(1), CacheId::new(0)), &mut Outcome::new());
        assert_eq!(d.stats().insertions.get(), 1);
        d.reset_stats();
        assert_eq!(d.stats().insertions.get(), 0);
        assert!(d.contains(line(1)), "reset clears statistics, not contents");
    }
}
