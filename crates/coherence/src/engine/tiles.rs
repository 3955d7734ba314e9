//! The private-cache layer of the engine.

use crate::{Hierarchy, SystemConfig};
use ccd_cache::{AccessOutcome, Cache, CoherenceState};
use ccd_common::{AccessType, CacheId, ConfigError, CoreId, LineAddr};

/// All per-core private caches of the simulated CMP.
///
/// Owns one [`Cache`] per tracked private cache — two split I/D L1s per core
/// in the Shared-L2 hierarchy, one unified L2 per core in Private-L2 — and
/// the core→cache routing that the hierarchy implies.  It knows nothing
/// about directories or statistics pipelines; the simulator composes it with
/// a [`ShardedDirectory`](ccd_directory::ShardedDirectory) and a
/// `StatsPipeline`.
pub struct TileCaches {
    hierarchy: Hierarchy,
    caches: Vec<Cache>,
}

impl std::fmt::Debug for TileCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileCaches")
            .field("hierarchy", &self.hierarchy)
            .field("caches", &self.caches.len())
            .finish_non_exhaustive()
    }
}

impl TileCaches {
    /// Builds the tracked private caches of `system`.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry validation errors.
    pub fn new(system: &SystemConfig) -> Result<Self, ConfigError> {
        let tracked = system.tracked_cache();
        let caches = (0..system.num_private_caches())
            .map(|_| Cache::new(tracked))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TileCaches {
            hierarchy: system.hierarchy,
            caches,
        })
    }

    /// Number of private caches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// `true` when the system tracks no caches (never, for a valid config).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// Which private cache services an access of `kind` issued by `core`.
    #[must_use]
    pub fn cache_for(&self, core: CoreId, kind: AccessType) -> CacheId {
        match self.hierarchy {
            Hierarchy::SharedL2 => {
                let base = 2 * core.raw();
                if kind.is_instruction() {
                    CacheId::new(base)
                } else {
                    CacheId::new(base + 1)
                }
            }
            Hierarchy::PrivateL2 => CacheId::new(core.raw()),
        }
    }

    /// Performs one read or write access against `cache`.
    pub fn access(&mut self, cache: CacheId, line: LineAddr, is_write: bool) -> AccessOutcome {
        if is_write {
            self.caches[cache.index()].access_write(line)
        } else {
            self.caches[cache.index()].access_read(line)
        }
    }

    /// Invalidates `line` in `cache`; returns `true` when a live copy was
    /// actually dropped.
    pub fn invalidate(&mut self, cache: CacheId, line: LineAddr) -> bool {
        self.caches[cache.index()].invalidate(line).is_some()
    }

    /// The coherence state of `line` in `cache`, if resident.
    #[must_use]
    pub fn state_of(&self, cache: CacheId, line: LineAddr) -> Option<CoherenceState> {
        self.caches[cache.index()].state_of(line)
    }

    /// Downgrades `line` in `cache` from Modified to Shared.
    pub fn downgrade(&mut self, cache: CacheId, line: LineAddr) -> bool {
        self.caches[cache.index()].downgrade(line)
    }

    /// Every resident `(cache, line, state)` in frame order — the whole
    /// observable cache state, for lockstep comparisons of two simulators
    /// and [`CmpSimulator::check_coherence`](crate::CmpSimulator).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn resident(&self) -> impl Iterator<Item = (usize, LineAddr, CoherenceState)> + '_ {
        self.caches
            .iter()
            .enumerate()
            .flat_map(|(id, cache)| cache.resident_lines().map(move |(l, s)| (id, l, s)))
    }

    /// Total `(accesses, misses)` across all caches.
    #[must_use]
    pub(crate) fn totals(&self) -> (u64, u64) {
        self.caches.iter().fold((0u64, 0u64), |(a, m), c| {
            (a + c.stats().accesses.get(), m + c.stats().misses.get())
        })
    }

    /// Clears the access statistics of every cache, keeping contents.
    pub fn reset_stats(&mut self) {
        for cache in &mut self.caches {
            cache.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_cache::CacheConfig;
    use ccd_common::BlockGeometry;

    fn system(hierarchy: Hierarchy) -> SystemConfig {
        SystemConfig {
            num_cores: 4,
            hierarchy,
            l1: CacheConfig::new(64, 2, 64),
            private_l2: CacheConfig::new(256, 4, 64),
            block: BlockGeometry::new(64),
        }
    }

    #[test]
    fn shared_l2_routes_ifetches_and_data_to_split_l1s() {
        let tiles = TileCaches::new(&system(Hierarchy::SharedL2)).unwrap();
        assert_eq!(tiles.len(), 8);
        let core = CoreId::new(2);
        assert_eq!(
            tiles.cache_for(core, AccessType::InstructionFetch),
            CacheId::new(4)
        );
        assert_eq!(tiles.cache_for(core, AccessType::Read), CacheId::new(5));
        assert_eq!(tiles.cache_for(core, AccessType::Write), CacheId::new(5));
    }

    #[test]
    fn private_l2_routes_everything_to_one_cache_per_core() {
        let tiles = TileCaches::new(&system(Hierarchy::PrivateL2)).unwrap();
        assert_eq!(tiles.len(), 4);
        let core = CoreId::new(3);
        assert_eq!(
            tiles.cache_for(core, AccessType::InstructionFetch),
            CacheId::new(3)
        );
        assert_eq!(tiles.cache_for(core, AccessType::Write), CacheId::new(3));
    }

    #[test]
    fn access_invalidate_and_totals_round_trip() {
        let mut tiles = TileCaches::new(&system(Hierarchy::SharedL2)).unwrap();
        let line = LineAddr::from_block_number(77);
        let cache = CacheId::new(1);
        assert!(tiles.access(cache, line, false).is_miss());
        assert!(!tiles.access(cache, line, false).is_miss());
        assert_eq!(tiles.totals(), (2, 1));
        assert_eq!(tiles.state_of(cache, line), Some(CoherenceState::Shared));
        assert!(tiles.invalidate(cache, line));
        assert!(!tiles.invalidate(cache, line), "already gone");
        tiles.reset_stats();
        assert_eq!(tiles.totals(), (0, 0));
    }
}
