//! The set-associative cache model.

use crate::CacheConfig;
use ccd_common::{ConfigError, LineAddr};

/// MESI-lite coherence state of a resident block.
///
/// Only the states that change directory-visible behaviour are modelled:
/// a block is either readable by possibly many caches (`Shared`) or
/// writable by exactly one (`Modified`).  Exclusive-clean is folded into
/// `Shared` because, from the directory's perspective, the transition that
/// matters is the upgrade that invalidates other copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoherenceState {
    /// Readable copy; other caches may also hold the block.
    Shared,
    /// Writable, dirty copy; no other cache holds the block.
    Modified,
}

/// A block displaced by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced block.
    pub line: LineAddr,
    /// `true` when the block was dirty and must be written back.
    pub dirty: bool,
}

/// The outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was resident with sufficient permission.
    Hit,
    /// The block was resident in `Shared` state but the access was a write;
    /// the caller must obtain exclusive permission from the directory.
    UpgradeMiss,
    /// The block was not resident; it has been filled, possibly displacing a
    /// victim that the caller must report to the directory.
    Miss {
        /// The block displaced to make room, if the set was full.
        victim: Option<Eviction>,
    },
}

impl AccessOutcome {
    /// `true` for any kind of miss (fill or upgrade).
    #[must_use]
    pub fn is_miss(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// Stamp bits holding the coherence state of a valid frame.
const STATE_MASK: u64 = 0b11;
const SHARED: u64 = 0b01;
const MODIFIED: u64 = 0b10;

/// One cache frame, 16 bytes, so a 2-way set is half a host cache line and
/// a 16-way set four.
///
/// `stamp` is `0` for an invalid frame and `last_use << 2 | state`
/// otherwise (`state` is [`SHARED`] or [`MODIFIED`], never zero).  Every
/// access draws a fresh tick, so stamps order the valid frames of a set by
/// recency whatever their state bits, and an invalid frame sorts below all
/// of them: the least stamp of a set is its first invalid frame when it has
/// one and its LRU frame otherwise.  `line` is stale where `stamp` is `0`.
#[derive(Clone, Copy, Debug, Default)]
struct Frame {
    line: LineAddr,
    stamp: u64,
}

impl Frame {
    fn state(self) -> CoherenceState {
        if self.stamp & MODIFIED != 0 {
            CoherenceState::Modified
        } else {
            CoherenceState::Shared
        }
    }
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `config.sets - 1`: [`CacheConfig::validate`] guarantees a power-of-two
    /// set count, so the set index is a mask.
    set_mask: u64,
    frames: Vec<Frame>,
    tick: u64,
    valid: usize,
    /// Fill misses since construction or the last [`Cache::reset_stats`].
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns the geometry's [`ConfigError`] when it is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Cache {
            config,
            set_mask: config.sets as u64 - 1,
            frames: vec![Frame::default(); config.frames()],
            tick: 0,
            valid: 0,
            misses: 0,
        })
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Fill misses ([`AccessOutcome::Miss`]) since construction or the
    /// last [`Cache::reset_stats`].  Every other event an access,
    /// fill or invalidation causes reaches the caller in its return value.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the miss count (not the contents).
    pub fn reset_stats(&mut self) {
        self.misses = 0;
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid
    }

    /// `true` when no blocks are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// Fraction of frames currently holding valid blocks.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.valid as f64 / self.config.frames() as f64
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.block_number() & self.set_mask) as usize
    }

    fn frame_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.config.ways..(set + 1) * self.config.ways
    }

    fn find_frame(&self, line: LineAddr) -> Option<usize> {
        let range = self.frame_range(self.set_of(line));
        let first = range.start;
        // Which way holds a resident line is a coin flip, so the scan
        // selects instead of branching: one compare-and-mask a way, every
        // way visited (at most one can match).
        let mut hit = usize::MAX;
        for (way, fr) in self.frames[range].iter().enumerate() {
            let matches = (fr.line == line) & (fr.stamp != 0);
            hit = if matches { first + way } else { hit };
        }
        (hit != usize::MAX).then_some(hit)
    }

    /// `true` when `line` is resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_frame(line).is_some()
    }

    /// Returns the coherence state of `line`, if resident.
    #[must_use]
    pub fn state_of(&self, line: LineAddr) -> Option<CoherenceState> {
        self.find_frame(line).map(|f| self.frames[f].state())
    }

    /// Iterates over all resident lines and their states.
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, CoherenceState)> + '_ {
        self.frames
            .iter()
            .filter(|fr| fr.stamp != 0)
            .map(|fr| (fr.line, fr.state()))
    }

    /// The stamp of an access happening now in state `state`.
    fn next_stamp(&mut self, state: u64) -> u64 {
        self.tick += 1;
        self.tick << 2 | state
    }

    /// Fills `line` into its set with `stamp`, returning the displaced
    /// victim when the set was full.
    fn fill(&mut self, line: LineAddr, stamp: u64) -> Option<Eviction> {
        let range = self.frame_range(self.set_of(line));
        // First invalid frame, else the LRU one (see `Frame`); ties go to
        // the first, as `min_by_key` promises.
        #[expect(
            clippy::expect_used,
            reason = "set associativity is validated non-zero at construction, so every set has a candidate frame"
        )]
        let frame = self.frames[range]
            .iter_mut()
            .min_by_key(|fr| fr.stamp)
            .expect("ways > 0");
        let victim = std::mem::replace(frame, Frame { line, stamp });
        if victim.stamp == 0 {
            self.valid += 1;
            return None;
        }
        Some(Eviction {
            line: victim.line,
            dirty: victim.stamp & MODIFIED != 0,
        })
    }

    /// Performs a read (or instruction-fetch) access to `line`.
    pub fn access_read(&mut self, line: LineAddr) -> AccessOutcome {
        if let Some(frame) = self.find_frame(line) {
            let state = self.frames[frame].stamp & STATE_MASK;
            self.frames[frame].stamp = self.next_stamp(state);
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        let stamp = self.next_stamp(SHARED);
        let victim = self.fill(line, stamp);
        AccessOutcome::Miss { victim }
    }

    /// Performs a write access to `line`.
    ///
    /// A hit on a `Shared` block is reported as [`AccessOutcome::UpgradeMiss`]
    /// so the caller can obtain exclusive permission from the directory; the
    /// block is promoted to `Modified` locally.
    pub fn access_write(&mut self, line: LineAddr) -> AccessOutcome {
        let stamp = self.next_stamp(MODIFIED);
        if let Some(frame) = self.find_frame(line) {
            let was_modified = self.frames[frame].stamp & MODIFIED != 0;
            self.frames[frame].stamp = stamp;
            return if was_modified {
                AccessOutcome::Hit
            } else {
                AccessOutcome::UpgradeMiss
            };
        }
        self.misses += 1;
        let victim = self.fill(line, stamp);
        AccessOutcome::Miss { victim }
    }

    /// Invalidates `line` (external coherence request).  Returns the state
    /// the block was in, or `None` if it was not resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let frame = self.find_frame(line)?;
        let state = self.frames[frame].state();
        self.frames[frame].stamp = 0;
        self.valid -= 1;
        Some(state)
    }

    /// Downgrades `line` to `Shared` (another cache read a modified block).
    /// Returns `true` when the block was resident and modified.
    pub fn downgrade(&mut self, line: LineAddr) -> bool {
        let Some(frame) = self.find_frame(line) else {
            return false;
        };
        let stamp = &mut self.frames[frame].stamp;
        let was_modified = *stamp & MODIFIED != 0;
        *stamp = *stamp & !STATE_MASK | SHARED;
        was_modified
    }
}

/// The cache as it was before the 16-byte frames, verbatim but for its
/// counters, of which only the miss count is kept: one `Option<Frame>` of
/// line, state and `last_use` a frame, a first-invalid search and then an
/// LRU search on a fill.  The lockstep test below drives
/// it beside [`Cache`]; nothing else uses it.
#[cfg(test)]
mod reference {
    use super::{AccessOutcome, CoherenceState, Eviction};
    use crate::CacheConfig;
    use ccd_common::{ConfigError, LineAddr};

    #[derive(Clone, Debug)]
    struct Frame {
        line: LineAddr,
        state: CoherenceState,
        last_use: u64,
    }

    /// A set-associative, write-back, write-allocate cache with LRU replacement.
    #[derive(Clone, Debug)]
    pub(super) struct Cache {
        config: CacheConfig,
        /// `config.sets - 1`: [`CacheConfig::validate`] guarantees a power-of-two
        /// set count, so the set index is a mask.
        set_mask: u64,
        frames: Vec<Option<Frame>>,
        tick: u64,
        valid: usize,
        misses: u64,
    }

    impl Cache {
        /// Creates an empty cache with the given geometry.
        ///
        /// # Errors
        ///
        /// Returns the geometry's [`ConfigError`] when it is invalid.
        pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
            config.validate()?;
            Ok(Cache {
                config,
                set_mask: config.sets as u64 - 1,
                frames: (0..config.frames()).map(|_| None).collect(),
                tick: 0,
                valid: 0,
                misses: 0,
            })
        }

        /// Fill misses.
        #[must_use]
        pub fn misses(&self) -> u64 {
            self.misses
        }

        /// Number of resident blocks.
        #[must_use]
        pub fn len(&self) -> usize {
            self.valid
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line.block_number() & self.set_mask) as usize
        }

        fn frame_range(&self, set: usize) -> std::ops::Range<usize> {
            set * self.config.ways..(set + 1) * self.config.ways
        }

        fn find_frame(&self, line: LineAddr) -> Option<usize> {
            let set = self.set_of(line);
            self.frame_range(set)
                .find(|&f| matches!(&self.frames[f], Some(fr) if fr.line == line))
        }

        /// `true` when `line` is resident.
        #[must_use]
        pub fn contains(&self, line: LineAddr) -> bool {
            self.find_frame(line).is_some()
        }

        /// Returns the coherence state of `line`, if resident.
        #[must_use]
        pub fn state_of(&self, line: LineAddr) -> Option<CoherenceState> {
            self.find_frame(line)
                .map(|f| self.frames[f].as_ref().expect("frame is valid").state)
        }

        /// Iterates over all resident lines and their states.
        pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, CoherenceState)> + '_ {
            self.frames
                .iter()
                .filter_map(|f| f.as_ref().map(|fr| (fr.line, fr.state)))
        }

        fn touch(&mut self, frame: usize) {
            self.tick += 1;
            self.frames[frame]
                .as_mut()
                .expect("frame is valid")
                .last_use = self.tick;
        }

        /// Fills `line` into its set in the given state, returning the displaced
        /// victim when the set was full.
        fn fill(&mut self, line: LineAddr, state: CoherenceState) -> Option<Eviction> {
            let set = self.set_of(line);
            self.tick += 1;
            let tick = self.tick;
            let range = self.frame_range(set);

            // Prefer an invalid frame.
            if let Some(frame) = range.clone().find(|&f| self.frames[f].is_none()) {
                self.frames[frame] = Some(Frame {
                    line,
                    state,
                    last_use: tick,
                });
                self.valid += 1;
                return None;
            }
            // Set full: evict the LRU frame.
            let frame = range
                .min_by_key(|&f| self.frames[f].as_ref().map_or(0, |fr| fr.last_use))
                .expect("ways > 0");
            let victim = self.frames[frame]
                .replace(Frame {
                    line,
                    state,
                    last_use: tick,
                })
                .expect("full set has valid frames");
            Some(Eviction {
                line: victim.line,
                dirty: victim.state == CoherenceState::Modified,
            })
        }

        /// Performs a read (or instruction-fetch) access to `line`.
        pub fn access_read(&mut self, line: LineAddr) -> AccessOutcome {
            if let Some(frame) = self.find_frame(line) {
                self.touch(frame);
                return AccessOutcome::Hit;
            }
            self.misses += 1;
            let victim = self.fill(line, CoherenceState::Shared);
            AccessOutcome::Miss { victim }
        }

        /// Performs a write access to `line`.
        ///
        /// A hit on a `Shared` block is reported as [`AccessOutcome::UpgradeMiss`]
        /// so the caller can obtain exclusive permission from the directory; the
        /// block is promoted to `Modified` locally.
        pub fn access_write(&mut self, line: LineAddr) -> AccessOutcome {
            if let Some(frame) = self.find_frame(line) {
                self.touch(frame);
                let entry = self.frames[frame].as_mut().expect("frame is valid");
                return match entry.state {
                    CoherenceState::Modified => AccessOutcome::Hit,
                    CoherenceState::Shared => {
                        entry.state = CoherenceState::Modified;
                        AccessOutcome::UpgradeMiss
                    }
                };
            }
            self.misses += 1;
            let victim = self.fill(line, CoherenceState::Modified);
            AccessOutcome::Miss { victim }
        }

        /// Invalidates `line` (external coherence request).  Returns the state
        /// the block was in, or `None` if it was not resident.
        pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
            let frame = self.find_frame(line)?;
            let entry = self.frames[frame].take().expect("frame is valid");
            self.valid -= 1;
            Some(entry.state)
        }

        /// Downgrades `line` to `Shared` (another cache read a modified block).
        /// Returns `true` when the block was resident and modified.
        pub fn downgrade(&mut self, line: LineAddr) -> bool {
            if let Some(frame) = self.find_frame(line) {
                let entry = self.frames[frame].as_mut().expect("frame is valid");
                let was_modified = entry.state == CoherenceState::Modified;
                entry.state = CoherenceState::Shared;
                was_modified
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, Xoshiro256};

    fn line(n: u64) -> LineAddr {
        LineAddr::from_block_number(n)
    }

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig::new(2, 2, 64)).unwrap()
    }

    #[test]
    fn construction_validates_geometry() {
        assert!(Cache::new(CacheConfig::new(0, 2, 64)).is_err());
        assert!(Cache::new(CacheConfig::new(2, 2, 63)).is_err());
        assert!(Cache::new(CacheConfig::l1_64k()).is_ok());
        // The set mask rests on this rejection.
        assert!(Cache::new(CacheConfig::new(768, 2, 64)).is_err());
    }

    #[test]
    fn set_mask_agrees_with_the_modulo() {
        for sets in [1usize, 2, 64, 1024] {
            let c = Cache::new(CacheConfig::new(sets, 2, 64)).unwrap();
            for low in [0u64, 1, 63, 64, 1023, 1024, 0x1234_5678] {
                for block in [low, !low, low | 0xffff_ffff_0000_0000, u64::MAX - low] {
                    assert_eq!(
                        c.set_of(line(block)),
                        (block % sets as u64) as usize,
                        "{sets} sets, block {block:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(
            c.access_read(line(0)),
            AccessOutcome::Miss { victim: None }
        ));
        assert!(matches!(c.access_read(line(0)), AccessOutcome::Hit));
        assert_eq!(c.state_of(line(0)), Some(CoherenceState::Shared));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn write_miss_installs_modified() {
        let mut c = tiny();
        assert!(c.access_write(line(3)).is_miss());
        assert_eq!(c.state_of(line(3)), Some(CoherenceState::Modified));
        assert!(matches!(c.access_write(line(3)), AccessOutcome::Hit));
    }

    #[test]
    fn write_hit_on_shared_is_an_upgrade() {
        let mut c = tiny();
        c.access_read(line(5));
        let outcome = c.access_write(line(5));
        assert_eq!(outcome, AccessOutcome::UpgradeMiss);
        assert_eq!(c.state_of(line(5)), Some(CoherenceState::Modified));
        // Subsequent writes hit; an upgrade is no fill.
        assert!(matches!(c.access_write(line(5)), AccessOutcome::Hit));
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_reports_victim_and_dirtiness() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets).
        c.access_write(line(0)); // modified
        c.access_read(line(2));
        // Touch 0 so 2 is LRU.
        c.access_read(line(0));
        let outcome = c.access_read(line(4));
        match outcome {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.line, line(2));
                assert!(!v.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // Now evict line 0, which is dirty.
        let outcome = c.access_read(line(6));
        match outcome {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.line, line(0));
                assert!(v.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = tiny();
        c.access_write(line(1));
        assert_eq!(c.invalidate(line(1)), Some(CoherenceState::Modified));
        assert!(!c.contains(line(1)));
        assert_eq!(c.invalidate(line(1)), None);

        c.access_write(line(3));
        assert!(c.downgrade(line(3)));
        assert_eq!(c.state_of(line(3)), Some(CoherenceState::Shared));
        assert!(!c.downgrade(line(3)), "already shared");
        assert!(!c.downgrade(line(99)), "not resident");
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = Cache::new(CacheConfig::new(4, 2, 64)).unwrap();
        assert_eq!(c.occupancy(), 0.0);
        for n in 0..4u64 {
            c.access_read(line(n));
        }
        assert!((c.occupancy() - 0.5).abs() < 1e-12);
        let resident: Vec<_> = c.resident_lines().collect();
        assert_eq!(resident.len(), 4);
        assert!(resident.iter().all(|&(_, s)| s == CoherenceState::Shared));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = Cache::new(CacheConfig::new(4, 2, 64)).unwrap();
        for n in 0..100u64 {
            c.access_read(line(n));
            assert!(c.len() <= c.config().frames());
        }
        assert_eq!(c.len(), c.config().frames());
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = tiny();
        c.access_read(line(1));
        assert_eq!(c.misses(), 1);
        c.reset_stats();
        assert_eq!(c.misses(), 0);
        assert!(c.contains(line(1)));
    }

    /// One lockstep run: a seeded stream of reads, writes, invalidations and
    /// downgrades over a line pool of twice the frame count (so sets stay
    /// full and evict), the 16-byte-frame cache and the reference compared
    /// on everything observable after every operation.
    fn lockstep(sets: usize, ways: usize, seed: u64, ops: usize) {
        let config = CacheConfig::new(sets, ways, 64);
        let mut cache = Cache::new(config).unwrap();
        let mut model = reference::Cache::new(config).unwrap();
        let mut rng = Xoshiro256::new(seed);
        let pool = 2 * config.frames() as u64;
        let mut evictions = 0;
        for step in 0..ops {
            // High bits too: the set index is a mask of the low ones.
            let l = line(rng.next_below(pool) | rng.next_below(2) << 40);
            let at = format!("{sets}x{ways} seed {seed} step {step} {l:?}");
            match rng.next_below(10) {
                0..=3 => {
                    let outcome = cache.access_read(l);
                    assert_eq!(outcome, model.access_read(l), "{at}: read");
                    evictions +=
                        usize::from(matches!(outcome, AccessOutcome::Miss { victim: Some(_) }));
                }
                4..=6 => assert_eq!(cache.access_write(l), model.access_write(l), "{at}: write"),
                7 => assert_eq!(cache.invalidate(l), model.invalidate(l), "{at}: invalidate"),
                _ => assert_eq!(cache.downgrade(l), model.downgrade(l), "{at}: downgrade"),
            }
            assert!(
                cache.resident_lines().eq(model.resident_lines()),
                "{at}: resident lines, frame order"
            );
            assert_eq!(cache.state_of(l), model.state_of(l), "{at}: state");
            assert_eq!(cache.contains(l), model.contains(l), "{at}: contains");
            assert_eq!(cache.len(), model.len(), "{at}: len");
            assert_eq!(cache.misses(), model.misses(), "{at}: misses");
        }
        assert!(
            evictions > 0,
            "{sets}x{ways} seed {seed}: no set ever filled"
        );
    }

    #[test]
    fn sixteen_byte_frames_match_the_reference_in_lockstep() {
        assert_eq!(std::mem::size_of::<Frame>(), 16);
        // Miri interprets a few hundred operations of the small geometries.
        let (set_counts, ops): (&[usize], _) = if cfg!(miri) {
            (&[1, 4], 300)
        } else {
            (&[1, 2, 4, 8, 16, 32, 64], 4000)
        };
        for ways in [1, 2, 4, 16] {
            for &sets in set_counts {
                for seed in 0..3 {
                    lockstep(sets, ways, seed ^ (sets * 31 + ways) as u64, ops);
                }
            }
        }
    }
}
