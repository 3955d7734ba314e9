//! The slot store shared by the Sparse, Skewed and In-Cache organizations.
//!
//! The three differ from each other in one decision each — where a line's
//! candidate slots are (low-order block bits pick a set, or each way is
//! indexed through its own hash) and whose the tags are (an own array, or
//! the L2's — which shows in the label and in what the bit accounting
//! charges, [`crate::StorageProfile::untagged`]) — and that decision is
//! data here: an `Organization` value.  Everything else is
//! written once: one entry type, one `slots / last_use / tick / valid /
//! stats`, one victim rule (the first invalid candidate in way order, else
//! the strictly least recently used) and one op/outcome protocol.
//!
//! Each organization's constructor, the paper section it models and its
//! tests live in its own module: [`crate::sparse`], [`crate::skewed`],
//! [`crate::in_cache`].

use crate::spec::{capacity_too_large, checked_capacity, try_filled};
use crate::{Directory, DirectoryOp, DirectoryStats, Outcome};
use ccd_common::{CacheId, ConfigError, LineAddr};
use ccd_hash::{HashFamily, IndexHashFamily, MAX_FAMILY_WAYS};
use ccd_sharers::SharerSet;

/// The one decision that tells the slot organizations apart.
#[derive(Clone, Debug)]
pub(crate) enum Organization {
    /// Way `w` of the set the low-order block bits select; own tag array.
    Sparse,
    /// Way `w` at its own hash of the line; own tag array.
    Skewed(HashFamily),
    /// Placed like [`Organization::Sparse`] at the L2 bank's geometry; the
    /// tags are the L2's, only the sharer vectors are the directory's.
    InCache,
}

impl Organization {
    fn label(&self) -> &'static str {
        match self {
            Organization::Sparse => "sparse",
            Organization::Skewed(_) => "skewed",
            Organization::InCache => "in-cache",
        }
    }
}

/// One valid directory entry: a block tag plus its sharer set.
#[derive(Clone, Debug)]
struct Entry<S> {
    line: LineAddr,
    sharers: S,
}

/// A line's candidate slots, one a way.  Lives on the stack for the length
/// of one lookup, so the hashed variant's array is not boxed.
#[expect(
    clippy::large_enum_variant,
    reason = "a stack value for one lookup; boxing the array would allocate per lookup"
)]
enum Candidates {
    /// The `ways` consecutive slots from `base` on (set-major numbering).
    Set { base: usize },
    /// `slots[way]` (way-major numbering: `way * sets + index`).
    Hashed { slots: [usize; MAX_FAMILY_WAYS] },
}

impl Candidates {
    /// The slots of ways `0..ways`, in way order.
    fn iter(&self, ways: usize) -> impl Iterator<Item = usize> + '_ {
        (0..ways).map(move |way| match self {
            Candidates::Set { base } => base + way,
            Candidates::Hashed { slots } => slots[way],
        })
    }
}

/// A directory slice of `ways × sets` slots with LRU replacement among a
/// line's candidates: the Sparse, Skewed and In-Cache organizations, built
/// by [`SlotDirectory::sparse`], [`SlotDirectory::skewed`] and
/// [`SlotDirectory::in_cache`].
#[derive(Clone, Debug)]
pub struct SlotDirectory<S: SharerSet> {
    organization: Organization,
    ways: usize,
    sets: usize,
    num_caches: usize,
    slots: Vec<Option<Entry<S>>>,
    last_use: Vec<u64>,
    tick: u64,
    valid: usize,
    stats: DirectoryStats,
}

impl<S: SharerSet> SlotDirectory<S> {
    /// An empty store.  The rest of the geometry is the caller's to
    /// validate: `sets` a power of two, nothing zero.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TooLarge`] when `ways × sets` is not a capacity that
    /// can exist or the allocator refuses it.
    pub(crate) fn with_organization(
        organization: Organization,
        ways: usize,
        sets: usize,
        num_caches: usize,
    ) -> Result<Self, ConfigError> {
        let capacity = checked_capacity(ways, sets)?;
        let refused = || capacity_too_large(ways, sets);
        Ok(SlotDirectory {
            organization,
            ways,
            sets,
            num_caches,
            slots: try_filled(capacity, None).ok_or_else(refused)?,
            last_use: try_filled(capacity, 0).ok_or_else(refused)?,
            tick: 0,
            valid: 0,
            stats: DirectoryStats::new(),
        })
    }

    fn candidates(&self, line: LineAddr) -> Candidates {
        match &self.organization {
            Organization::Skewed(hashes) => {
                let mut slots = [0usize; MAX_FAMILY_WAYS];
                hashes.index_all_into(line, &mut slots[..self.ways]);
                for (way, slot) in slots.iter_mut().enumerate().take(self.ways) {
                    *slot += way * self.sets;
                }
                Candidates::Hashed { slots }
            }
            Organization::Sparse | Organization::InCache => {
                let set = (line.block_number() & (self.sets as u64 - 1)) as usize;
                Candidates::Set {
                    base: set * self.ways,
                }
            }
        }
    }

    /// The candidate slot whose occupant is `line`.
    fn find_in(&self, line: LineAddr, candidates: &Candidates) -> Option<usize> {
        candidates
            .iter(self.ways)
            .find(|&slot| matches!(&self.slots[slot], Some(e) if e.line == line))
    }

    fn find_slot(&self, line: LineAddr) -> Option<usize> {
        self.find_in(line, &self.candidates(line))
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.last_use[slot] = self.tick;
    }

    #[expect(
        clippy::expect_used,
        reason = "slot indices come from find_or_allocate/hit scans, which only yield occupied slots"
    )]
    fn entry_mut(&mut self, slot: usize) -> &mut Entry<S> {
        self.slots[slot].as_mut().expect("slot is valid")
    }

    /// Looks up `line`, allocating an entry if necessary, recording hit /
    /// allocation / forced-eviction facts in `out`.  Returns the slot, which
    /// holds a valid entry.
    fn find_or_allocate(&mut self, line: LineAddr, out: &mut Outcome) -> usize {
        self.stats.lookups.incr();
        let candidates = self.candidates(line);
        if let Some(slot) = self.find_in(line, &candidates) {
            self.touch(slot);
            out.set_hit(true);
            return slot;
        }

        // The first invalid candidate in way order, else the strictly least
        // recently used one.
        let mut chosen = usize::MAX;
        let mut lru_time = u64::MAX;
        for slot in candidates.iter(self.ways) {
            if self.slots[slot].is_none() {
                chosen = slot;
                break;
            }
            if self.last_use[slot] < lru_time {
                lru_time = self.last_use[slot];
                chosen = slot;
            }
        }

        out.record_allocation(1);
        let mut evictions = 0u64;
        if let Some(victim) = self.slots[chosen].take() {
            let targets = out.push_forced_eviction(victim.line, &victim.sharers);
            self.stats.forced_block_invalidations.add(targets as u64);
            self.valid -= 1;
            evictions = 1;
        }
        self.slots[chosen] = Some(Entry {
            line,
            sharers: S::new(self.num_caches),
        });
        self.valid += 1;
        self.touch(chosen);
        let occupancy = self.occupancy();
        self.stats.record_insertion(1, evictions, occupancy);
        chosen
    }
}

impl<S: SharerSet> Directory for SlotDirectory<S> {
    fn organization(&self) -> String {
        let label = self.organization.label();
        format!("{label}-{}x{}", self.ways, self.sets)
    }

    fn num_caches(&self) -> usize {
        self.num_caches
    }

    fn capacity(&self) -> usize {
        self.ways * self.sets
    }

    fn len(&self) -> usize {
        self.valid
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.find_slot(line).is_some()
    }

    fn may_hold(&self, line: LineAddr, cache: CacheId) -> bool {
        self.find_slot(line)
            .and_then(|slot| self.slots[slot].as_ref())
            .is_some_and(|entry| entry.sharers.may_contain(cache))
    }

    fn apply(&mut self, op: DirectoryOp, out: &mut Outcome) {
        op.check_cache(self.num_caches);
        out.reset();
        match op {
            DirectoryOp::Probe { line } => {
                if let Some(entry) = self.find_slot(line).and_then(|s| self.slots[s].as_ref()) {
                    out.set_hit(true);
                    entry.sharers.extend_targets(out.invalidate_buf());
                }
            }
            DirectoryOp::AddSharer { line, cache } => {
                let slot = self.find_or_allocate(line, out);
                if out.hit() {
                    self.stats.sharer_adds.incr();
                }
                self.entry_mut(slot).sharers.add(cache);
            }
            DirectoryOp::SetExclusive { line, cache } => {
                let slot = self.find_or_allocate(line, out);
                let start = out.invalidate_len();
                let entry = self.entry_mut(slot);
                entry.sharers.extend_targets(out.invalidate_buf());
                out.drop_invalidate_from(start, cache);
                entry.sharers.clear();
                entry.sharers.add(cache);
                if out.invalidate_len() > start {
                    out.record_invalidate_all();
                    self.stats.invalidate_alls.incr();
                } else if out.hit() {
                    self.stats.sharer_adds.incr();
                }
            }
            DirectoryOp::RemoveSharer { line, cache } => {
                if let Some(slot) = self.find_slot(line) {
                    out.set_hit(true);
                    self.stats.sharer_removes.incr();
                    let entry = self.entry_mut(slot);
                    entry.sharers.remove(cache);
                    if entry.sharers.is_empty() {
                        self.slots[slot] = None;
                        self.valid -= 1;
                        out.record_removed_entry();
                        self.stats.entry_removes.incr();
                    }
                }
            }
            DirectoryOp::RemoveEntry { line } => {
                if let Some(entry) = self.find_slot(line).and_then(|s| self.slots[s].take()) {
                    out.set_hit(true);
                    out.record_removed_entry();
                    entry.sharers.extend_targets(out.invalidate_buf());
                    self.valid -= 1;
                    self.stats.entry_removes.incr();
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
