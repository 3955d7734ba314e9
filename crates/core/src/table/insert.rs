//! Insertion: the greedy displacement chain, the BFS shortest-path kernel
//! and the slot writes they share.

use super::kernels::fingerprint;
use super::{ways_dispatch, CuckooTable, FindOrInsert, InsertOutcome, EMPTY_TAG};
use ccd_directory::InsertPolicy;
use std::mem::MaybeUninit;

/// Upper bound on the BFS frontier: the number of scratch-arena nodes one
/// search may allocate across all depths (roots included).  Reached only at
/// extreme occupancy; the search then falls back to the discard rule.
pub const BFS_ARENA: usize = 256;

/// One BFS frontier node: a candidate slot plus the arena position of the
/// node whose expansion enqueued it (`u32::MAX` for the roots).
#[derive(Clone, Copy, Debug)]
struct BfsNode {
    slot: u32,
    parent: u32,
}

/// Preallocated scratch of the BFS insertion kernel: the arena doubles as
/// the FIFO frontier queue, and the bitmap deduplicates visited slots.
/// Allocated once by [`CuckooTable::set_insert_policy`] so steady-state
/// insertions stay allocation-free.
#[derive(Debug)]
pub(super) struct BfsScratch {
    /// Frontier arena / FIFO queue (capacity [`BFS_ARENA`], never grown).
    nodes: Vec<BfsNode>,
    /// One bit per slot; set while the slot is in the arena.
    visited: Vec<u64>,
}

impl BfsScratch {
    pub(super) fn new(capacity: usize) -> Self {
        BfsScratch {
            nodes: Vec::with_capacity(BFS_ARENA),
            visited: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Marks `slot` visited, returning `true` when it was not already.
    fn visit(&mut self, slot: usize) -> bool {
        let word = &mut self.visited[slot / 64];
        let mask = 1u64 << (slot % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears the visited bits of every arena node and empties the arena,
    /// ready for the next search — O(arena), not O(table capacity).
    fn reset(&mut self) {
        for i in 0..self.nodes.len() {
            let slot = self.nodes[i].slot as usize;
            self.visited[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.nodes.clear();
    }
}

impl<V> CuckooTable<V> {
    /// Writes `key`/`value` into the vacant `slot`.
    #[inline]
    fn fill_slot(&mut self, slot: usize, key: u64, value: V) {
        debug_assert_eq!(self.tags[slot], EMPTY_TAG, "fill requires a vacant slot");
        self.tags[slot] = fingerprint(key);
        self.keys[slot] = key;
        self.values[slot].write(value);
    }

    /// Replaces the occupant of `slot` with `key`/`value`, returning the
    /// displaced pair.
    #[inline]
    fn swap_slot(&mut self, slot: usize, key: u64, value: V) -> (u64, V) {
        assert!(
            self.tags[slot] != EMPTY_TAG,
            "displacement only happens into occupied slots"
        );
        let old_key = self.keys[slot];
        // SAFETY: the occupied tag guarantees the payload is initialized,
        // and it is replaced (not duplicated) in the same expression.
        let old_value = unsafe {
            std::mem::replace(&mut self.values[slot], MaybeUninit::new(value)).assume_init()
        };
        self.tags[slot] = fingerprint(key);
        self.keys[slot] = key;
        (old_key, old_value)
    }

    /// Moves the occupant of `from` into the vacant slot `to`, leaving
    /// `from` vacant — one hop of a BFS displacement path.
    #[inline]
    fn move_slot(&mut self, from: usize, to: usize) {
        debug_assert_ne!(self.tags[from], EMPTY_TAG, "path nodes are occupied");
        debug_assert_eq!(self.tags[to], EMPTY_TAG, "paths move into vacancies");
        self.tags[to] = self.tags[from];
        self.tags[from] = EMPTY_TAG;
        self.keys[to] = self.keys[from];
        // SAFETY: `from`'s occupied tag guarantees an initialized payload,
        // and clearing that tag above makes this a move — the payload is
        // read exactly once and never dropped at `from`.
        let value = unsafe { self.values[from].assume_init_read() };
        self.values[to].write(value);
    }

    /// Inserts `key` with `value`, displacing existing entries as needed.
    ///
    /// If `key` is already present its payload is replaced and the insertion
    /// counts one attempt.  When the attempt budget is exhausted the most
    /// recently displaced entry is discarded and returned in
    /// [`InsertOutcome::discarded`]; `key` itself is always stored.
    pub fn insert(&mut self, key: u64, value: V) -> InsertOutcome<V> {
        ways_dispatch!(self.ways, N => self.insert_prehashed(key, value, &mut self.hashed::<N>(key)))
    }

    /// The insertion body, with `indices[..ways]` already holding `key`'s
    /// candidate set indices.  The lookup that precedes every insertion and
    /// the vacancy scan share one fused probe over those indices.
    pub(super) fn insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        if let Some(slot) = probe.hit {
            // SAFETY: `probe` only reports occupied slots as hits.
            unsafe { self.values[slot].assume_init_drop() };
            self.values[slot].write(value);
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        // Vacant candidate revealed by the lookup: first-attempt success.
        if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, value);
            self.valid += 1;
            return InsertOutcome {
                attempts: 1,
                discarded: None,
            };
        }

        match self.policy {
            InsertPolicy::Greedy => self.displace(key, value, indices),
            InsertPolicy::Bfs => self.displace_bfs(key, value, indices),
        }
    }

    /// The displacement chain: the in-flight entry looks for a home, kicking
    /// out victims round-robin starting at the way where the previous chain
    /// stopped.  `indices` holds the in-flight entry's candidate indices on
    /// entry and is reused as the scratch buffer for each victim — every
    /// victim is hashed exactly once, covering both its vacancy probe and
    /// its next displacement target.
    fn displace<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        let mut attempts: u32 = 1;
        let mut current_key = key;
        let mut current_value = value;
        let mut way = self.next_start_way;
        self.valid += 1; // `key` will end up stored; track it now.
        loop {
            if attempts >= self.max_attempts {
                // Budget exhausted: discard the most recently displaced
                // entry to guarantee termination.  The incoming request is
                // never the one discarded — if the chain circled back to it,
                // perform one final displacement so the requested block stays
                // tracked and the displaced victim is invalidated instead.
                self.next_start_way = way;
                self.valid -= 1;
                if current_key == key {
                    let slot = way * self.sets + indices[way];
                    let victim = self.swap_slot(slot, current_key, current_value);
                    self.record_chain(attempts);
                    return InsertOutcome {
                        attempts,
                        discarded: Some(victim),
                    };
                }
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: Some((current_key, current_value)),
                };
            }

            // Write the in-flight entry into its candidate slot in `way`,
            // displacing whatever lives there.
            let slot = way * self.sets + indices[way];
            let (victim_key, victim_value) = self.swap_slot(slot, current_key, current_value);
            attempts += 1;

            // Probe the victim's candidate slots for a vacancy; its indices
            // stay in the scratch buffer for the next round.
            self.hash_into(victim_key, indices);
            if let Some(vacant) = self.first_vacant_prehashed(indices) {
                self.fill_slot(vacant, victim_key, victim_value);
                self.next_start_way = way;
                self.record_chain(attempts - 1);
                return InsertOutcome {
                    attempts,
                    discarded: None,
                };
            }

            // No vacancy: the victim becomes the in-flight entry and we move
            // on to the next way.
            current_key = victim_key;
            current_value = victim_value;
            way = (way + 1) % self.ways_of::<N>();
        }
    }

    /// BFS shortest-displacement-path insertion (see the module docs).
    /// `indices` holds the incoming key's candidate set indices — all
    /// occupied when this runs — and is left untouched so the discard
    /// fallback can reuse them.
    fn displace_bfs<const N: usize>(
        &mut self,
        key: u64,
        value: V,
        indices: &mut [usize; N],
    ) -> InsertOutcome<V> {
        #[expect(
            clippy::expect_used,
            reason = "displace_bfs only runs under InsertPolicy::Bfs, and set_insert_policy allocates the arena before the policy can take effect"
        )]
        let mut scratch = self
            .bfs
            .take()
            .expect("the BFS policy preallocates its scratch arena");
        let found = self.bfs_search(&mut scratch, indices);
        let outcome = match found {
            Some((leaf, vacant)) => {
                // Apply the path deepest-first: each hop moves a path node's
                // occupant into the vacancy opened by the previous hop,
                // finally vacating one of `key`'s own candidate slots.
                let mut dest = vacant;
                let mut node = leaf;
                let mut moves = 0u32;
                loop {
                    let BfsNode { slot, parent } = scratch.nodes[node as usize];
                    self.move_slot(slot as usize, dest);
                    moves += 1;
                    dest = slot as usize;
                    if parent == u32::MAX {
                        break;
                    }
                    node = parent;
                }
                self.fill_slot(dest, key, value);
                self.valid += 1;
                self.record_bfs_depth(moves);
                InsertOutcome {
                    attempts: moves + 1,
                    discarded: None,
                }
            }
            None => {
                // No path within the budgeted depth (or the arena filled):
                // the shared discard rule — one final displacement into the
                // round-robin candidate way keeps the requested block
                // tracked, and the displaced victim is reported for
                // invalidation.
                let way = self.next_start_way;
                let slot = way * self.sets + indices[way];
                let victim = self.swap_slot(slot, key, value);
                self.next_start_way = (way + 1) % self.ways;
                // The failed search's discard displaces exactly one entry;
                // it lands in the chain distribution, not the BFS one, so
                // `bfs_path_depth` stays the distribution of *successful*
                // shortest paths.
                self.record_chain(1);
                InsertOutcome {
                    attempts: self.max_attempts,
                    discarded: Some(victim),
                }
            }
        };
        scratch.reset();
        self.bfs = Some(scratch);
        outcome
    }

    /// The search half of the BFS kernel: expands the frontier from `key`'s
    /// candidate slots (all occupied) until some frontier victim has a
    /// vacant alternate.  Returns that victim's arena position plus the
    /// vacant slot; the move path is recovered by walking parent links.
    /// Leaves the arena populated for the caller, who resets it after
    /// applying the path.
    ///
    /// A node at depth `D` (roots are depth 1) yields a path of `D` moves
    /// costing `D + 1` attempts, so only nodes at depth
    /// `<= max_attempts - 1` are expanded — the budget greedy would spend
    /// on its chain bounds the search depth here.
    fn bfs_search<const N: usize>(
        &self,
        scratch: &mut BfsScratch,
        indices: &[usize; N],
    ) -> Option<(u32, usize)> {
        debug_assert!(scratch.nodes.is_empty());
        let ways = self.ways_of::<N>();
        let max_depth = (self.max_attempts - 1) as usize;
        if max_depth == 0 {
            return None;
        }
        for (way, &index) in indices.iter().enumerate().take(ways) {
            let slot = way * self.sets + index;
            if scratch.visit(slot) {
                scratch.nodes.push(BfsNode {
                    slot: slot as u32,
                    parent: u32::MAX,
                });
            }
        }
        let mut cand = [0usize; N];
        let mut head = 0usize;
        let mut level_end = scratch.nodes.len();
        let mut depth = 1usize;
        while head < scratch.nodes.len() {
            if head == level_end {
                depth += 1;
                level_end = scratch.nodes.len();
                if depth > max_depth {
                    // Unreachable in practice: children are only enqueued
                    // while their depth stays expandable.  Kept as a guard.
                    return None;
                }
            }
            let node_slot = scratch.nodes[head].slot as usize;
            self.hash_into(self.key_at(node_slot), &mut cand);
            if let Some(vacant) = self.first_vacant_prehashed(&cand) {
                return Some((head as u32, vacant));
            }
            if depth < max_depth {
                for (w, &set_index) in cand.iter().enumerate().take(ways) {
                    if scratch.nodes.len() == BFS_ARENA {
                        break;
                    }
                    let child = w * self.sets + set_index;
                    if scratch.visit(child) {
                        scratch.nodes.push(BfsNode {
                            slot: child as u32,
                            parent: head as u32,
                        });
                    }
                }
            }
            head += 1;
        }
        None
    }

    /// Looks `key` up and, when absent, inserts `make()` via the cuckoo
    /// displacement procedure — one fused probe covers the lookup-hit and
    /// vacancy scans.  `make` is only invoked when the key is actually
    /// inserted; an existing payload is left untouched (unlike
    /// [`CuckooTable::insert`], which replaces it).  The returned borrow
    /// always refers to the payload stored for `key`, which is guaranteed to
    /// be resident afterwards even when the insertion discarded a victim.
    pub fn find_or_insert_with(
        &mut self,
        key: u64,
        make: impl FnOnce() -> V,
    ) -> FindOrInsert<'_, V> {
        ways_dispatch!(self.ways, N => {
            self.find_or_insert_prehashed(key, &mut self.hashed::<N>(key), make)
        })
    }

    /// The body of [`CuckooTable::find_or_insert_with`], with
    /// `indices[..ways]` already holding `key`'s candidate set indices (the
    /// displacement chain reuses them as its scratch buffer).
    #[inline]
    pub(crate) fn find_or_insert_prehashed<const N: usize>(
        &mut self,
        key: u64,
        indices: &mut [usize; N],
        make: impl FnOnce() -> V,
    ) -> FindOrInsert<'_, V> {
        let probe = self.probe_prehashed(key, indices);
        self.record_probe_depth(probe.hit);
        let (slot, inserted) = if let Some(slot) = probe.hit {
            (slot, None)
        } else if let Some(slot) = probe.vacant {
            self.fill_slot(slot, key, make());
            self.valid += 1;
            (
                slot,
                Some(InsertOutcome {
                    attempts: 1,
                    discarded: None,
                }),
            )
        } else {
            let outcome = match self.policy {
                InsertPolicy::Greedy => self.displace(key, make(), indices),
                InsertPolicy::Bfs => self.displace_bfs(key, make(), indices),
            };
            // The chain may have moved the new entry again before settling,
            // so its final slot needs one re-probe (rare path: all candidate
            // slots were occupied).
            #[expect(
                clippy::expect_used,
                reason = "find runs immediately after an insert that stored the key on its terminal path"
            )]
            let slot = self
                .find_n::<N>(key)
                .expect("insertion always stores the requested key");
            (slot, Some(outcome))
        };
        FindOrInsert {
            // SAFETY: both branches produce an occupied slot for `key`.
            value: unsafe { self.values[slot].assume_init_mut() },
            inserted,
        }
    }
}
