//! Shared op-dispatch for slot-table directory organizations.
//!
//! [`crate::SparseDirectory`] and [`crate::SkewedDirectory`] differ only in
//! how a line maps to candidate slots (modulo indexing vs per-way skewing
//! hashes); their entry storage (`slots` / `valid` / `stats`) and the
//! op/outcome protocol semantics are identical.  This macro expands to the
//! shared `contains` / `may_hold` / `apply` trait methods inside each
//! organization's `impl Directory` block, so the two implementations cannot
//! drift apart.
//!
//! Requirements on the host type: fields `slots: Vec<Option<Entry<S>>>`,
//! `valid: usize`, `stats: DirectoryStats`, and methods
//! `find_slot(&self, LineAddr) -> Option<usize>` plus
//! `find_or_allocate(&mut self, LineAddr, &mut Outcome) -> usize` (which
//! must leave a valid entry in the returned slot).

macro_rules! impl_slot_directory_ops {
    () => {
        fn contains(&self, line: ccd_common::LineAddr) -> bool {
            self.find_slot(line).is_some()
        }

        fn may_hold(&self, line: ccd_common::LineAddr, cache: ccd_common::CacheId) -> bool {
            self.find_slot(line).is_some_and(|slot| {
                self.slots[slot]
                    .as_ref()
                    .expect("slot is valid")
                    .sharers
                    .may_contain(cache)
            })
        }

        fn apply(&mut self, op: crate::DirectoryOp, out: &mut crate::Outcome) {
            out.reset();
            match op {
                crate::DirectoryOp::Probe { line } => {
                    if let Some(slot) = self.find_slot(line) {
                        out.set_hit(true);
                        self.slots[slot]
                            .as_ref()
                            .expect("slot is valid")
                            .sharers
                            .extend_targets(out.invalidate_buf());
                    }
                }
                crate::DirectoryOp::AddSharer { line, cache } => {
                    let slot = self.find_or_allocate(line, out);
                    if out.hit() {
                        self.stats.sharer_adds.incr();
                    }
                    self.slots[slot]
                        .as_mut()
                        .expect("slot was just filled")
                        .sharers
                        .add(cache);
                }
                crate::DirectoryOp::SetExclusive { line, cache } => {
                    let slot = self.find_or_allocate(line, out);
                    let start = out.invalidate_len();
                    let entry = self.slots[slot].as_mut().expect("slot was just filled");
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
                crate::DirectoryOp::RemoveSharer { line, cache } => {
                    if let Some(slot) = self.find_slot(line) {
                        out.set_hit(true);
                        self.stats.sharer_removes.incr();
                        let entry = self.slots[slot].as_mut().expect("slot is valid");
                        entry.sharers.remove(cache);
                        if entry.sharers.is_empty() {
                            self.slots[slot] = None;
                            self.valid -= 1;
                            out.record_removed_entry();
                            self.stats.entry_removes.incr();
                        }
                    }
                }
                crate::DirectoryOp::RemoveEntry { line } => {
                    if let Some(slot) = self.find_slot(line) {
                        out.set_hit(true);
                        out.record_removed_entry();
                        let entry = self.slots[slot].take().expect("slot is valid");
                        entry.sharers.extend_targets(out.invalidate_buf());
                        self.valid -= 1;
                        self.stats.entry_removes.incr();
                    }
                }
            }
        }
    };
}

pub(crate) use impl_slot_directory_ops;
