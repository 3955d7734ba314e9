//! The tiled-CMP simulator proper: a thin composition of the engine layers.

use crate::engine::{StatsPipeline, TileCaches};
use crate::{DirectorySpec, SimReport, SystemConfig};
use ccd_cache::{AccessOutcome, CoherenceState};
use ccd_common::{CacheId, ConfigError, LineAddr, MemRef};
use ccd_directory::{Directory, DirectoryOp, Outcome, ShardedDirectory};

/// A functional, trace-driven simulator of the paper's tiled CMP.
///
/// See the crate-level documentation for the modelled protocol.  The
/// simulator composes the three engine layers — [`TileCaches`] for the
/// private caches, a [`ShardedDirectory`] of one slice per tile for the
/// distributed directory and `StatsPipeline` for the protocol counters —
/// and implements the coherence protocol that ties them together.  The
/// directory is addressed by *global* lines: home-slice routing and the
/// translation of forced-eviction lines back to global ones are the
/// [`ShardedDirectory`]'s.  It is `Send`, so whole
/// simulations can be constructed on one thread and driven on another (the
/// [`engine::ParallelRunner`](crate::engine::ParallelRunner) relies on
/// this).
pub struct CmpSimulator {
    system: SystemConfig,
    tiles: TileCaches,
    directory: ShardedDirectory,
    /// The label of the organization the slices implement.
    organization: String,
    stats: StatsPipeline,
    /// Reusable op-outcome buffer: the per-reference protocol sequence
    /// performs no heap allocation once its capacity is warmed up.
    outcome: Outcome,
}

impl std::fmt::Debug for CmpSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpSimulator")
            .field("system", &self.system)
            .field("organization", &self.organization)
            .field("refs_processed", &self.stats.refs_processed())
            .finish_non_exhaustive()
    }
}

impl CmpSimulator {
    /// Builds a simulator for `system` using the directory organization
    /// described by `spec` (one slice per tile).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the system configuration (among
    /// them a slice count that is not a power of two), the cache geometry,
    /// or the directory specification.
    pub fn new(system: SystemConfig, spec: &DirectorySpec) -> Result<Self, ConfigError> {
        system.validate()?;
        let tiles = TileCaches::new(&system)?;
        let resolved = spec.resolve(&system)?;
        let registry = ccd_cuckoo::standard_registry();
        let slices = (0..system.num_slices())
            .map(|_| registry.build(&resolved))
            .collect::<Result<Vec<_>, _>>()?;
        let directory = ShardedDirectory::new(slices)?;
        let stats = StatsPipeline::new();
        Ok(CmpSimulator {
            system,
            tiles,
            directory,
            organization: spec.label(),
            stats,
            outcome: Outcome::new(),
        })
    }

    /// The simulated system configuration.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The private-cache layer.
    #[must_use]
    pub fn tiles(&self) -> &TileCaches {
        &self.tiles
    }

    /// The directory layer: one slice per tile, in tile order.
    #[must_use]
    pub fn directory(&self) -> &ShardedDirectory {
        &self.directory
    }

    /// The label of the directory organization under test.
    #[must_use]
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Number of references processed since the last statistics reset.
    #[must_use]
    pub fn refs_processed(&self) -> u64 {
        self.stats.refs_processed()
    }

    /// The occupancy sample: the mean of the per-slice occupancies, in slice
    /// order.  (Not `len / capacity` over the whole directory, which rounds
    /// differently.)
    fn occupancy(&self) -> f64 {
        let slices = self.directory.shards();
        let sum: f64 = slices.iter().map(|s| s.occupancy()).sum();
        sum / slices.len() as f64
    }

    /// Applies the cache-side effects of a directory update: coherence
    /// invalidations of other sharers and forced invalidations of blocks
    /// whose directory entries were evicted.
    fn apply_update(&mut self, line: LineAddr) {
        let out = &self.outcome;
        for &target in out.invalidate() {
            if self.tiles.invalidate(target, line) {
                self.stats.record_coherence_invalidation();
            }
        }
        for eviction in out.forced_evictions() {
            for &target in eviction.targets {
                if self.tiles.invalidate(target, eviction.line) {
                    self.stats.record_forced_invalidation();
                }
            }
        }
    }

    /// Dispatches `op` to its line's home slice through the reusable outcome
    /// buffer and applies the resulting invalidations to the caches.
    fn dispatch(&mut self, op: DirectoryOp) {
        self.directory.apply(op, &mut self.outcome);
        self.apply_update(op.line());
    }

    /// Downgrades every *other* cache holding `line` in Modified state
    /// (`requester` obtained a shared copy).  Allocation-free: one `Probe`
    /// through the reusable outcome buffer yields the sharer set.  The set
    /// may be a superset of the true holders (coarse, overflowed
    /// limited-pointer, Tagless); the caches' own
    /// [`state_of`](TileCaches::state_of) decides who is downgraded.
    fn downgrade_writers(&mut self, line: LineAddr, requester: CacheId) {
        self.directory
            .apply(DirectoryOp::Probe { line }, &mut self.outcome);
        for &sharer in self.outcome.sharers() {
            if sharer != requester
                && self.tiles.state_of(sharer, line) == Some(CoherenceState::Modified)
            {
                self.tiles.downgrade(sharer, line);
            }
        }
    }

    /// Processes one memory reference.
    ///
    /// A read miss sends `AddSharer` first and asks for the sharer set
    /// (`Probe`, then the downgrade of remote writers) only when the add
    /// *hit* an existing entry.  That is observably the same as probing
    /// first, for every organization:
    ///
    /// * an add that **allocated** found no entry, so a probe before it
    ///   would have reported no sharer and downgraded nobody;
    /// * an add that **hit** allocated nothing, so it evicted no other
    ///   line's entry.  Its one possible cache effect — Duplicate-Tag
    ///   evicting a stale line from the requester's *own* mirror — touches
    ///   `(requester, victim line)`, while a downgrade touches
    ///   `(other cache, this line)`: different pairs, so the order between
    ///   them does not matter;
    /// * the probe after the add may report more caches than one before it
    ///   (the requester itself, or everyone once a limited-pointer entry
    ///   overflows to broadcast), but reported sharers are only candidates:
    ///   the requester is skipped and the rest are downgraded only if their
    ///   cache holds the line Modified;
    /// * `Probe` moves no [`DirectoryStats`](ccd_directory::DirectoryStats)
    ///   counter and no replacement state, so the probes no longer sent
    ///   leave no trace.
    pub fn process(&mut self, mem_ref: MemRef) {
        let line = self.system.block.line_of(mem_ref.addr);
        let cache = self.tiles.cache_for(mem_ref.core, mem_ref.kind);
        let is_write = mem_ref.kind.is_write();

        match self.tiles.access(cache, line, is_write) {
            AccessOutcome::Hit => {}
            AccessOutcome::UpgradeMiss => {
                self.dispatch(DirectoryOp::SetExclusive { line, cache });
            }
            AccessOutcome::Miss { victim } => {
                // Tell the victim's home slice the block left this cache.
                if let Some(evicted) = victim {
                    let line = evicted.line;
                    self.dispatch(DirectoryOp::RemoveSharer { line, cache });
                }
                let op = if is_write {
                    DirectoryOp::SetExclusive { line, cache }
                } else {
                    DirectoryOp::AddSharer { line, cache }
                };
                self.dispatch(op);
                if !is_write && self.outcome.hit() {
                    self.downgrade_writers(line, cache);
                }
            }
        }

        if self.stats.retire_reference() {
            let occupancy = self.occupancy();
            self.stats.record_occupancy(occupancy);
        }
    }

    /// Processes `count` references drawn from `trace`, one at a time in
    /// trace order — observably [`CmpSimulator::process`] in a loop.  The
    /// trace is polled at most `count` times and never again after its first
    /// `None`, so a non-fused source is safe and a following `run` continues
    /// with the very next reference.
    ///
    /// The one liberty taken is *when* the trace is polled: reference
    /// `i + 1` is pulled before reference `i` is processed.  Producing a
    /// reference (a generator's Zipf draw walks two tables) and processing
    /// one (tile cache, then directory) are each a chain of dependent cache
    /// misses but independent of each other, and issued in this order the
    /// core overlaps them; pulled only after `process` returns, the next
    /// reference's chain starts when the previous one ends.  Nothing is
    /// hinted and no line is hashed twice.
    pub fn run<I>(&mut self, trace: &mut I, count: u64)
    where
        I: Iterator<Item = MemRef>,
    {
        let mut ahead = if count > 0 { trace.next() } else { None };
        for remaining in (0..count).rev() {
            let Some(mem_ref) = ahead else { break };
            ahead = if remaining > 0 { trace.next() } else { None };
            self.process(mem_ref);
        }
    }

    /// Clears all statistics (directory, cache, protocol counters) while
    /// keeping cache and directory *contents* — i.e. the end-of-warm-up
    /// reset of the paper's methodology.
    pub fn reset_stats(&mut self) {
        self.directory.reset_stats();
        self.tiles.reset_stats();
        self.stats.reset();
    }

    /// Produces the aggregated report for the measured interval.
    #[must_use]
    pub fn report(&self) -> SimReport {
        self.stats
            .report(&self.organization, &self.tiles, &self.directory, || {
                self.occupancy()
            })
    }

    /// Checks what the directory exists to keep (Section 4.2): it stays
    /// inclusive of the private caches.  `spec` is the specification the
    /// simulator was built from; it decides whether sharer lists are exact.
    ///
    /// * Every block resident in a tile cache is tracked by its home slice
    ///   (`contains`), and the slice admits that cache as a holder
    ///   (`may_hold`).
    /// * A block `Modified` in one cache is resident in no other.
    /// * A `Probe` lists exactly the caches holding the block when entries
    ///   are full bit vectors, and at least those for the coarse, limited,
    ///   hierarchical and Tagless formats.
    /// * No slice tracks an entry with an empty sharer set, as a count: with
    ///   full vectors, where every organization but Tagless keeps one entry
    ///   per tracked block (Cuckoo, Sparse, Skewed and In-Cache one slot,
    ///   Duplicate-Tag one distinct line across its mirrors), the directory
    ///   holds exactly one entry per distinct resident block; for the other
    ///   formats, whose removals may leave a conservative set behind, at
    ///   least one.
    /// * No slice holds more entries than its capacity.
    ///
    /// Walks every frame of every cache: for tests and debug builds.
    ///
    /// # Errors
    ///
    /// The first broken clause, with the block and cache it was found at.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_coherence(&mut self, spec: &DirectorySpec) -> Result<(), String> {
        use ccd_directory::Org;
        use ccd_sharers::SharerFormat;

        let resolved = spec.resolve(&self.system).map_err(|e| e.to_string())?;
        let exact = resolved.sharers == SharerFormat::FullVector && resolved.org != Org::Tagless;
        let mut resident: Vec<(LineAddr, CacheId, CoherenceState)> = self
            .tiles
            .resident()
            .map(|(cache, line, state)| (line, CacheId::new(cache as u32), state))
            .collect();
        resident.sort_unstable_by_key(|&(line, cache, _)| (line, cache));
        let mut out = Outcome::new();
        let mut blocks = 0;
        // One chunk a resident block: its holders in cache order.
        for copies in resident.chunk_by(|a, b| a.0 == b.0) {
            blocks += 1;
            let line = copies[0].0;
            let holders: Vec<CacheId> = copies.iter().map(|&(_, cache, _)| cache).collect();
            if !self.directory.contains(line) {
                return Err(format!(
                    "{line:?} is in {holders:?} but not in the directory"
                ));
            }
            if let Some(cache) = holders.iter().find(|&&c| !self.directory.may_hold(line, c)) {
                return Err(format!(
                    "the directory rules out {cache:?} holding {line:?}"
                ));
            }
            let written = copies.iter().any(|c| c.2 == CoherenceState::Modified);
            if written && copies.len() > 1 {
                return Err(format!("{line:?} is Modified yet held by {holders:?}"));
            }
            self.directory.apply(DirectoryOp::Probe { line }, &mut out);
            let mut listed = out.sharers().to_vec();
            listed.sort_unstable();
            let covered = holders.iter().all(|c| listed.binary_search(c).is_ok());
            if !covered || (exact && listed.len() != holders.len()) {
                return Err(format!(
                    "{line:?} is held by {holders:?} but the probe lists {listed:?}"
                ));
            }
        }
        let entries = self.directory.len();
        if entries < blocks || (exact && entries != blocks) {
            return Err(format!(
                "the directory holds {entries} entries for {blocks} resident blocks"
            ));
        }
        for (index, slice) in self.directory.shards().iter().enumerate() {
            if slice.len() > slice.capacity() {
                let (len, capacity) = (slice.len(), slice.capacity());
                return Err(format!("slice {index} holds {len} entries of {capacity}"));
            }
        }
        Ok(())
    }

    /// Convenience wrapper: builds a simulator, warms it up and measures.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; see [`CmpSimulator::new`].
    pub fn run_workload<I>(
        system: SystemConfig,
        spec: &DirectorySpec,
        trace: &mut I,
        warmup_refs: u64,
        measure_refs: u64,
    ) -> Result<SimReport, ConfigError>
    where
        I: Iterator<Item = MemRef>,
    {
        let mut sim = CmpSimulator::new(system, spec)?;
        sim.run(trace, warmup_refs);
        sim.reset_stats();
        sim.run(trace, measure_refs);
        #[cfg(debug_assertions)]
        if let Err(broken) = sim.check_coherence(spec) {
            panic!("{}: {broken}", sim.organization);
        }
        Ok(sim.report())
    }
}

/// Protocol-order oracle.  [`CmpSimulator::process`] answers a read miss
/// with `AddSharer` and probes for writers to downgrade only when the add
/// hit; the order it replaced probed and downgraded first.  The old order
/// is kept here as the reference and driven in lockstep with the new one:
/// after every reference the two simulators must agree on everything
/// observable.
#[cfg(test)]
mod protocol_order {
    use super::tests::{read, write};
    use super::*;
    use crate::Hierarchy;
    use ccd_cache::CacheConfig;
    use ccd_common::BlockGeometry;
    use ccd_workloads::WorkloadSpec;

    impl CmpSimulator {
        /// The reference: [`CmpSimulator::process`] as it was when a read miss
        /// sent `Probe` (and downgraded) before `AddSharer`, unconditionally.
        fn process_probe_first(&mut self, mem_ref: MemRef) {
            let line = self.system.block.line_of(mem_ref.addr);
            let cache = self.tiles.cache_for(mem_ref.core, mem_ref.kind);
            let is_write = mem_ref.kind.is_write();

            match self.tiles.access(cache, line, is_write) {
                AccessOutcome::Hit => {}
                AccessOutcome::UpgradeMiss => {
                    self.dispatch(DirectoryOp::SetExclusive { line, cache });
                }
                AccessOutcome::Miss { victim } => {
                    if let Some(evicted) = victim {
                        let line = evicted.line;
                        self.dispatch(DirectoryOp::RemoveSharer { line, cache });
                    }
                    let op = if is_write {
                        DirectoryOp::SetExclusive { line, cache }
                    } else {
                        self.downgrade_writers(line, cache);
                        DirectoryOp::AddSharer { line, cache }
                    };
                    self.dispatch(op);
                }
            }

            if self.stats.retire_reference() {
                let occupancy = self.occupancy();
                self.stats.record_occupancy(occupancy);
            }
        }
    }

    /// A 4-core system with caches small enough that a few thousand references
    /// churn them: 8 × 32 frames (Shared-L2) or 4 × 128 frames (Private-L2).
    fn small_system(hierarchy: Hierarchy) -> SystemConfig {
        SystemConfig {
            num_cores: 4,
            hierarchy,
            l1: CacheConfig::new(16, 2, 64),
            private_l2: CacheConfig::new(32, 4, 64),
            block: BlockGeometry::new(64),
        }
    }

    /// The new order and the reference, fed the same references.
    struct Lockstep {
        label: String,
        spec: DirectorySpec,
        new_order: CmpSimulator,
        probe_first: CmpSimulator,
        steps: u64,
        /// Modified → Shared transitions seen on the new-order side.
        downgrades: u64,
    }

    impl Lockstep {
        fn new(system: SystemConfig, spec: &DirectorySpec) -> Self {
            Lockstep {
                label: format!("{} on {:?}", spec.label(), system.hierarchy),
                spec: spec.clone(),
                new_order: CmpSimulator::new(system.clone(), spec).unwrap(),
                probe_first: CmpSimulator::new(system, spec).unwrap(),
                steps: 0,
                downgrades: 0,
            }
        }

        /// Processes `mem_ref` on both sides and compares everything
        /// observable: the report, every cache's whole contents with states
        /// (which covers `state_of` of any line the reference touched, on any
        /// cache), and each slice's entry count and statistics.
        fn step(&mut self, mem_ref: MemRef) {
            let line = self.new_order.system.block.line_of(mem_ref.addr);
            let writers = |sim: &CmpSimulator| {
                (0..sim.tiles.len() as u32)
                    .map(CacheId::new)
                    .filter(|&c| sim.tiles.state_of(c, line) == Some(CoherenceState::Modified))
                    .count() as u64
            };
            let writers_before = writers(&self.new_order);
            self.new_order.process(mem_ref);
            if !mem_ref.kind.is_write() {
                self.downgrades += writers_before - writers(&self.new_order);
            }
            self.probe_first.process_probe_first(mem_ref);
            self.steps += 1;
            let at = format!("{}, reference {} ({mem_ref:?})", self.label, self.steps);
            assert_eq!(self.new_order.report(), self.probe_first.report(), "{at}");
            assert!(
                self.new_order
                    .tiles
                    .resident()
                    .eq(self.probe_first.tiles.resident()),
                "{at}: cache contents differ"
            );
            let slices = self.new_order.directory.shards();
            for (index, (a, b)) in slices
                .iter()
                .zip(self.probe_first.directory.shards())
                .enumerate()
            {
                assert_eq!(a.len(), b.len(), "{at}, slice {index}");
                assert_eq!(a.stats(), b.stats(), "{at}, slice {index}");
            }
            assert_eq!(self.new_order.check_coherence(&self.spec), Ok(()), "{at}");
        }

        fn state_of(&self, cache: u32, block: u64) -> Option<CoherenceState> {
            self.new_order
                .tiles
                .state_of(CacheId::new(cache), LineAddr::from_block_number(block))
        }
    }

    fn custom(spec: &str) -> DirectorySpec {
        DirectorySpec::custom(spec).unwrap()
    }

    /// Every organization `DirectorySpec` can build, amply sized and
    /// undersized (so forced evictions fire), and the three sharer formats
    /// under the cuckoo, sparse and skewed tag stores.
    fn organizations() -> Vec<DirectorySpec> {
        vec![
            DirectorySpec::cuckoo(4, 1.0),
            DirectorySpec::cuckoo(3, 0.25),
            DirectorySpec::sparse(8, 2.0),
            DirectorySpec::sparse(2, 0.25),
            DirectorySpec::skewed(4, 2.0),
            DirectorySpec::skewed(4, 0.25),
            DirectorySpec::DuplicateTag,
            DirectorySpec::InCache,
            DirectorySpec::Tagless,
            custom("cuckoo-4x16@full"),
            custom("cuckoo-4x16@coarse"),
            custom("cuckoo-4x16@limited"),
            custom("cuckoo-4x4@limited"),
            custom("sparse-2x8@coarse"),
            custom("sparse-4x16@limited"),
            custom("skewed-4x8@coarse"),
            custom("skewed-4x16@limited"),
            // A mirror smaller than the cache it mirrors: adds evict from the
            // requester's own mirror.
            custom("duplicate-tag-1x2"),
        ]
    }

    /// References per (organization, hierarchy) run: enough for `migratory`'s
    /// default epoch (512 read–write pairs) to hand lines over twice.
    const REFS: usize = 3000;

    fn lockstep_over(workload: &str) {
        let workload: WorkloadSpec = workload.parse().unwrap();
        let mut forced = 0;
        let mut downgrades = 0;
        for hierarchy in [Hierarchy::SharedL2, Hierarchy::PrivateL2] {
            for spec in organizations() {
                let system = small_system(hierarchy);
                let mut pair = Lockstep::new(system.clone(), &spec);
                let stream = workload.stream(system.num_cores, 0xC0FFEE).unwrap();
                for mem_ref in stream.take(REFS) {
                    pair.step(mem_ref);
                }
                forced += pair.new_order.report().forced_invalidations;
                downgrades += pair.downgrades;
            }
        }
        // The runs must have reached what the order could have disturbed.
        assert!(forced > 0, "no undersized directory forced an eviction");
        assert!(downgrades > 0, "no read ever found a remote writer");
    }

    #[test]
    fn orders_agree_on_a_paper_profile() {
        lockstep_over("oracle");
    }

    #[test]
    fn orders_agree_on_migratory_sharing() {
        lockstep_over("migratory-zipf0.9");
    }

    #[test]
    fn orders_agree_on_producer_consumer_handoffs() {
        lockstep_over("prodcons-b256-e16");
    }

    /// Case 1 of the commutation argument: the add hits, so the probe and the
    /// downgrade still happen.  (Skipping the probe on a hit too leaves the
    /// writer Modified and fails here.)
    #[test]
    fn a_remote_read_still_downgrades_the_modified_holder() {
        for spec in organizations() {
            let mut pair = Lockstep::new(small_system(Hierarchy::PrivateL2), &spec);
            pair.step(write(1, 100));
            assert_eq!(pair.state_of(1, 100), Some(CoherenceState::Modified));
            pair.step(read(0, 100));
            assert_eq!(
                pair.state_of(1, 100),
                Some(CoherenceState::Shared),
                "{}: the writer keeps a shared copy",
                pair.label
            );
            assert_eq!(pair.state_of(0, 100), Some(CoherenceState::Shared));
        }
    }

    /// Case 2: a Duplicate-Tag add that hits (another cache holds the line)
    /// *and* evicts a stale line from the requester's own mirror.  The forced
    /// invalidation lands on `(requester, victim)`, the downgrade on
    /// `(writer, line)`; either order leaves the same caches.
    #[test]
    fn a_duplicate_tag_add_that_hits_and_evicts_from_its_own_mirror() {
        // One mirror frame per (cache, slice): blocks 100 and 104 share home
        // slice 0 and mirror set 0 but sit in different cache sets.
        let mut pair = Lockstep::new(
            small_system(Hierarchy::PrivateL2),
            &custom("duplicate-tag-1x1"),
        );
        pair.step(write(1, 100));
        pair.step(read(0, 104));
        assert_eq!(pair.state_of(0, 104), Some(CoherenceState::Shared));
        assert_eq!(pair.new_order.report().forced_invalidations, 0);

        pair.step(read(0, 100));
        assert_eq!(
            pair.new_order.report().directory.sharer_adds.get(),
            1,
            "the add found cache 1's entry"
        );
        assert_eq!(pair.new_order.report().forced_invalidations, 1);
        assert_eq!(pair.state_of(0, 104), None, "evicted from cache 0's mirror");
        assert_eq!(pair.state_of(1, 100), Some(CoherenceState::Shared));
        assert_eq!(pair.state_of(0, 100), Some(CoherenceState::Shared));
    }

    /// Case 3: the add overflows a limited-pointer entry to broadcast, so the
    /// probe after it names every cache where a probe before it named four.
    /// Reported sharers are only candidates — the caches' own states decide.
    #[test]
    fn a_limited_pointer_entry_that_overflows_on_the_add() {
        let system = SystemConfig {
            num_cores: 8,
            ..small_system(Hierarchy::PrivateL2)
        };
        for spec in ["cuckoo-4x16@limited", "sparse-4x16@limited"] {
            let mut pair = Lockstep::new(system.clone(), &custom(spec));
            for core in 0..4 {
                pair.step(read(core, 64));
            }
            let line = LineAddr::from_block_number(64);
            let candidates = |pair: &Lockstep| {
                let directory = &pair.new_order.directory;
                (0..8)
                    .filter(|&cache| directory.may_hold(line, CacheId::new(cache)))
                    .count()
            };
            assert_eq!(candidates(&pair), 4, "{spec}: four exact pointers");

            pair.step(read(4, 64));
            assert_eq!(candidates(&pair), 8, "{spec}: broadcast");
            for cache in 0..8 {
                let expected = (cache <= 4).then_some(CoherenceState::Shared);
                assert_eq!(pair.state_of(cache, 64), expected, "{spec}: cache {cache}");
            }

            // A writer takes the line back to one exact pointer; the next
            // reader downgrades it through the same path.
            pair.step(write(6, 64));
            pair.step(read(7, 64));
            assert_eq!(pair.state_of(6, 64), Some(CoherenceState::Shared));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;
    use ccd_common::{Address, BlockGeometry, CoreId};
    use ccd_workloads::{TraceGenerator, WorkloadProfile};

    fn small_shared_system() -> SystemConfig {
        SystemConfig {
            num_cores: 4,
            hierarchy: Hierarchy::SharedL2,
            l1: ccd_cache::CacheConfig::new(64, 2, 64),
            private_l2: ccd_cache::CacheConfig::new(256, 4, 64),
            block: BlockGeometry::new(64),
        }
    }

    pub(super) fn write(core: u32, block: u64) -> MemRef {
        MemRef::write(CoreId::new(core), Address::new(block * 64))
    }

    pub(super) fn read(core: u32, block: u64) -> MemRef {
        MemRef::read(CoreId::new(core), Address::new(block * 64))
    }

    #[test]
    fn construction_validates_system_and_spec() {
        assert!(CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).is_ok());
        // Three tiles: routing by mask would send blocks to the wrong slice.
        let mut bad = small_shared_system();
        bad.num_cores = 3;
        let (what, value) = ("core count", 3);
        assert_eq!(
            CmpSimulator::new(bad, &DirectorySpec::cuckoo(4, 1.0)).err(),
            Some(ConfigError::NotPowerOfTwo { what, value })
        );
        assert!(CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(1, 1.0)).is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "proves a simulator can move to another thread"
    )]
    fn simulators_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CmpSimulator>();
        let sim = CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        let handle = std::thread::spawn(move || sim.directory().len());
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn write_invalidates_other_readers() {
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        // Cores 0..3 read block 100, then core 0 writes it.
        for core in 0..4 {
            sim.process(read(core, 100));
        }
        sim.process(write(0, 100));
        let report = sim.report();
        // Cores 1..3's D-caches lose their copies.
        assert_eq!(report.coherence_invalidations, 3);
        assert_eq!(report.forced_invalidations, 0);
        assert_eq!(report.refs_processed, 5);
        assert!(report.directory.invalidate_alls.get() >= 1);
    }

    #[test]
    fn upgrade_after_shared_read_goes_through_the_directory() {
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        sim.process(read(1, 7));
        sim.process(read(2, 7));
        // Core 1 writes its already-resident shared copy: an upgrade miss.
        sim.process(write(1, 7));
        let report = sim.report();
        assert_eq!(
            report.coherence_invalidations, 1,
            "core 2 must be invalidated"
        );
    }

    #[test]
    fn ifetch_and_data_use_separate_l1s_in_shared_l2() {
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        let addr = Address::new(64 * 50);
        sim.process(MemRef::ifetch(CoreId::new(0), addr));
        sim.process(MemRef::read(CoreId::new(0), addr));
        let report = sim.report();
        // Both the I-cache and the D-cache miss once: two directory sharers
        // for the same block, two cache misses.
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.directory.insertions.get(), 1);
        assert_eq!(report.directory.sharer_adds.get(), 1);
    }

    #[test]
    fn private_l2_hierarchy_uses_one_cache_per_core() {
        let mut system = small_shared_system();
        system.hierarchy = Hierarchy::PrivateL2;
        let mut sim = CmpSimulator::new(system, &DirectorySpec::cuckoo(3, 1.5)).unwrap();
        let addr = Address::new(64 * 10);
        sim.process(MemRef::ifetch(CoreId::new(2), addr));
        sim.process(MemRef::read(CoreId::new(2), addr));
        let report = sim.report();
        // Same cache services both: one miss, one hit.
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_accesses, 2);
    }

    #[test]
    fn cache_evictions_release_directory_entries() {
        // A tiny direct-mapped-ish cache forces evictions quickly; the
        // directory must not grow beyond the cached blocks.
        let mut system = small_shared_system();
        system.l1 = ccd_cache::CacheConfig::new(4, 1, 64);
        let mut sim = CmpSimulator::new(system, &DirectorySpec::cuckoo(4, 2.0)).unwrap();
        for block in 0..1000u64 {
            sim.process(read(0, block));
        }
        // Only the 4 resident blocks of core 0's D-cache are tracked.
        assert_eq!(sim.directory().len(), 4);
        let report = sim.report();
        assert_eq!(report.forced_invalidations, 0);
        assert!(report.directory.sharer_removes.get() > 900);
    }

    #[test]
    fn sparse_directory_forces_invalidations_under_pressure_but_cuckoo_does_not() {
        let system = small_shared_system();
        let profile = WorkloadProfile::ocean();
        let refs = 60_000;

        let mut sparse_trace = TraceGenerator::new(profile.clone(), 4, 7);
        let sparse = CmpSimulator::run_workload(
            system.clone(),
            &DirectorySpec::sparse(8, 0.5),
            &mut sparse_trace,
            refs,
            refs,
        )
        .unwrap();

        let mut cuckoo_trace = TraceGenerator::new(profile, 4, 7);
        let cuckoo = CmpSimulator::run_workload(
            system,
            &DirectorySpec::cuckoo(4, 1.0),
            &mut cuckoo_trace,
            refs,
            refs,
        )
        .unwrap();

        assert!(
            sparse.forced_invalidation_rate() > cuckoo.forced_invalidation_rate(),
            "sparse {} vs cuckoo {}",
            sparse.forced_invalidation_rate(),
            cuckoo.forced_invalidation_rate()
        );
        assert!(cuckoo.forced_invalidation_rate() < 0.01);
    }

    #[test]
    fn run_stops_permanently_at_the_first_trace_exhaustion() {
        // A "stuttering" non-fused source (e.g. a transiently empty queue):
        // refs 1..=3, then None, then more refs.  `run` must stop at the
        // first None and never poll the iterator again.
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        let mut n = 0u64;
        let mut trace = std::iter::from_fn(move || {
            n += 1;
            match n {
                1..=3 => Some(read(0, n)),
                4 => None,
                _ => Some(read(0, n + 100)),
            }
        });
        sim.run(&mut trace, 64);
        assert_eq!(sim.refs_processed(), 3, "must stop at the first None");
        // The references before the exhaustion were still processed.
        assert!(sim.report().cache_misses >= 3);
    }

    #[test]
    fn run_polls_the_trace_exactly_count_times() {
        // `run` pulls one reference ahead of the one it processes; that must
        // not cost the caller a reference at the end of a run (warm-up and
        // measurement are two `run`s over one trace).
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        let polls = std::cell::Cell::new(0u64);
        let mut trace = (1u64..).map(|block| {
            polls.set(polls.get() + 1);
            read(0, block)
        });
        sim.run(&mut trace, 0);
        assert_eq!(polls.get(), 0);
        sim.run(&mut trace, 5);
        assert_eq!((polls.get(), sim.refs_processed()), (5, 5));
        sim.run(&mut trace, 1);
        assert_eq!((polls.get(), sim.refs_processed()), (6, 6));
        assert_eq!(trace.next(), Some(read(0, 7)));
    }

    #[test]
    fn reset_stats_keeps_contents_but_clears_counters() {
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        for block in 0..100u64 {
            sim.process(read(0, block));
        }
        let entries_before = sim.directory().len();
        assert!(entries_before > 0);
        sim.reset_stats();
        assert_eq!(sim.refs_processed(), 0);
        let report = sim.report();
        assert_eq!(report.cache_accesses, 0);
        assert_eq!(report.directory.insertions.get(), 0);
        // Contents survive the reset.
        assert_eq!(sim.directory().len(), entries_before);
    }

    #[test]
    fn report_occupancy_matches_directory_state_for_short_runs() {
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        for block in 0..64u64 {
            sim.process(read(block as u32 % 4, block));
        }
        let report = sim.report();
        assert!(report.avg_directory_occupancy > 0.0);
        assert_eq!(report.organization, "Cuckoo 1x (4-way)");
        assert!(
            report.cache_miss_rate() > 0.9,
            "cold cache: almost all misses"
        );
    }

    #[test]
    fn the_occupancy_sample_is_the_mean_of_the_per_slice_occupancies() {
        // Three-way slices: a capacity that is not a power of two, so
        // `len / capacity` over the whole directory rounds differently from
        // the per-slice mean.  Run until the two disagree; fewer references
        // than the sample interval, so the report carries the current sample.
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(3, 1.5)).unwrap();
        let mean = |sim: &CmpSimulator| {
            let slices = sim.directory().shards();
            slices.iter().map(|s| s.occupancy()).sum::<f64>() / slices.len() as f64
        };
        let mut block = 0;
        while mean(&sim) == sim.directory().occupancy() {
            assert!(block < 4096, "the two formulas never disagreed");
            sim.process(read(block as u32 % 4, block * 7));
            block += 1;
        }
        assert_eq!(sim.report().avg_directory_occupancy, mean(&sim));
    }

    #[test]
    fn occupancy_is_sampled_every_interval() {
        // A run shorter than one interval takes no periodic sample, and the
        // report falls back to a single synthetic end-state sample; two
        // intervals take two.
        let interval = crate::config::DEFAULT_OCCUPANCY_SAMPLE_INTERVAL;
        let mut sim =
            CmpSimulator::new(small_shared_system(), &DirectorySpec::cuckoo(4, 1.0)).unwrap();
        for block in 0..64u64 {
            sim.process(read(0, block));
        }
        assert_eq!(
            sim.stats.occupancy_samples.count(),
            0,
            "no periodic sample yet"
        );
        assert_eq!(
            sim.report().avg_directory_occupancy,
            sim.occupancy(),
            "the report's single sample is the end state"
        );
        for block in 64..2 * interval {
            sim.process(read(0, block));
        }
        assert_eq!(sim.stats.occupancy_samples.count(), 2);
    }
}
