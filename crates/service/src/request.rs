//! The service's wire types: sequence-numbered requests and the compact
//! outcome log used to verify bit-identity against serial application.
//!
//! # The outcome digest
//!
//! One definition, here and nowhere else.  The digest of a log is a chain
//! over its records in sequence order, and a record enters it in two steps:
//!
//! 1. **Mix** — the record's five value words
//!
//!    | word | low 32 bits | high 32 bits |
//!    |---|---|---|
//!    | 0 | `seq` (all 64 bits) | |
//!    | 1 | `shard` | `attempts` |
//!    | 2 | `invalidations` | `forced_evictions` |
//!    | 3 | `forced_invalidations` | flags: `hit`, `allocated`, `failed`, `invalidated_all`, `removed_entry` from bit 0 |
//!    | 4 | `detail` (all 64 bits) | |
//!
//!    are built from the field *values* (never by reinterpreting the
//!    struct's bytes, so the digest knows nothing of endianness or padding),
//!    each multiplied by its own odd constant, rotated by its own amount and
//!    XORed together; the high half of the result is then XORed onto the
//!    low.  An odd multiply, a rotation and that last step are bijections,
//!    so changing any one word — any one bit of any field — always changes
//!    the mix.  The mix reads nothing but the record: consecutive records'
//!    mixes compute in parallel.
//! 2. **Chain** — `state = (state.rotate_left(5) ^ mix) * CHAIN_MULTIPLIER`
//!    (wrapping), starting from `CHAIN_SEED`: one multiply depends on the
//!    previous record.  For a fixed mix the step is a bijection on the
//!    state, so a difference once in the state never cancels by itself, and
//!    the rotation makes the chain order-sensitive.
//!
//! [`digest_outcomes`] is the state after the last record;
//! [`digest_outcome_semantics`] is the same chain with `attempts` read as
//! zero.  [`OutcomeRecord::detail`] is still an FNV-1a fold ([`Fnv64`]).
//!
//! # The stored log
//!
//! An [`OutcomeLog`] keeps its records as bytes, losslessly, and decodes
//! them only when iterated.  A record is
//!
//! | bytes | field | present |
//! |---|---|---|
//! | 1 | tag: the flags in word 3's order (bits 0–4), has-detail (5), has-counts (6), has-delta (7) | always |
//! | varint | `shard` | always |
//! | varint | `seq` minus the previous record's `seq` (wrapping; 0 before the first) | has-delta: the difference is not 1 |
//! | 4 varints | `attempts`, `invalidations`, `forced_evictions`, `forced_invalidations` | has-counts: they are not the defaults the tag implies |
//! | 8, little-endian | `detail` | has-detail: it is not [`Fnv64::OFFSET`], the fold of an empty outcome |
//!
//! The implied counts are `allocated` attempts, has-detail invalidations
//! and no forced ones; a hit on a quiet line is therefore two bytes, and
//! one that invalidates a sharer ten.  A varint is LEB128: seven bits a
//! byte, low bits first, the top bit set on every byte but the last.
//!
//! The bytes sit in chunks of 64 KiB, each allocated once and never
//! grown or copied; a record that does not fit in what is left of the open
//! chunk opens the next one, so no record straddles two.  Varints are
//! minimal, every presence bit is decided by value and every chunk is cut
//! by that one rule, so each record sequence has exactly one encoding: two
//! logs hold the same records iff they hold the same bytes.

use ccd_common::stats::Fnv64;
use ccd_directory::{DirectoryOp, Outcome};
use std::borrow::Borrow;
use std::fmt;
use std::iter::FusedIterator;

/// One coherence request in flight inside the service.
///
/// The ingestion frontend stamps every operation with a global sequence
/// number (its position in the input stream) and pre-routes it: `shard` is
/// the *worker-local* shard index and the operation's line has already been
/// translated to the owning shard's local address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Position of this operation in the global input stream.
    pub seq: u64,
    /// Worker-local index of the owning shard.
    pub shard: u32,
    /// The operation, with its line in shard-local coordinates.
    pub op: DirectoryOp,
}

/// Everything one applied request observably did, in 48 bytes.
///
/// A record captures the full observable content of the [`Outcome`] buffer:
/// the scalar flags and counts verbatim, and the variable-length parts
/// (semantic invalidation targets, forced-eviction victims and their
/// targets) folded into [`OutcomeRecord::detail`] with FNV-1a.  Two outcome
/// streams are therefore equal **iff** every operation produced the same
/// hits, allocations, attempt counts, invalidation sets and eviction sets —
/// which is exactly the service's bit-identity contract against serial
/// application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// Sequence number of the request that produced this outcome.
    pub seq: u64,
    /// Global index of the shard that applied it.
    pub shard: u32,
    /// Insertion attempts performed (0 when nothing was allocated).
    pub attempts: u32,
    /// Semantic invalidation targets (other sharers on an exclusive
    /// request, holders on an entry removal).
    pub invalidations: u32,
    /// Directory entries displaced to make room.
    pub forced_evictions: u32,
    /// Cached blocks invalidated by those displacements.
    pub forced_invalidations: u32,
    /// [`Outcome::hit`].
    pub hit: bool,
    /// [`Outcome::allocated_new_entry`].
    pub allocated: bool,
    /// [`Outcome::insertion_failed`].
    pub failed: bool,
    /// [`Outcome::invalidated_all`].
    pub invalidated_all: bool,
    /// [`Outcome::removed_entry`].
    pub removed_entry: bool,
    /// FNV-1a fold of the variable-length outcome content: the semantic
    /// invalidation targets in order, then each forced eviction's (global)
    /// victim line and its invalidation targets.
    pub detail: u64,
}

impl OutcomeRecord {
    /// Captures the outcome buffer of one applied request.  `shard` is the
    /// global shard index; eviction victim lines inside `out` are expected
    /// to be in that shard's local address space and are folded as such
    /// (both sides of the bit-identity comparison capture the same way).
    #[must_use]
    pub fn capture(seq: u64, shard: u32, out: &Outcome) -> Self {
        let mut detail = Fnv64::new();
        for cache in out.invalidate() {
            detail.fold(u64::from(cache.raw()));
        }
        for eviction in out.forced_evictions() {
            detail.fold(eviction.line.block_number());
            for cache in eviction.targets {
                detail.fold(u64::from(cache.raw()));
            }
        }
        OutcomeRecord {
            seq,
            shard,
            attempts: out.insertion_attempts(),
            invalidations: out.invalidate().len() as u32,
            forced_evictions: out.forced_eviction_count() as u32,
            forced_invalidations: out.forced_invalidation_count() as u32,
            hit: out.hit(),
            allocated: out.allocated_new_entry(),
            failed: out.insertion_failed(),
            invalidated_all: out.invalidated_all(),
            removed_entry: out.removed_entry(),
            detail: detail.finish(),
        }
    }

    /// This record's contribution to the digest chain (module docs, step
    /// 1); the semantic view reads `attempts` as zero and is otherwise the
    /// same function.
    ///
    /// Attempt counts describe how hard the directory worked, not what it
    /// decided: a statically large table and a table that grew to the same
    /// geometry mid-stream hold the same entries and produce the same hits,
    /// invalidations and evictions, but reach them through different
    /// displacement chains.  The semantic view is what live-resize
    /// equivalence is checked against.
    #[inline]
    fn mix(&self, with_attempts: bool) -> u64 {
        let words = self.words(with_attempts);
        let mix = words[0].wrapping_mul(WORD_MULTIPLIERS[0])
            ^ words[1].wrapping_mul(WORD_MULTIPLIERS[1]).rotate_left(13)
            ^ words[2].wrapping_mul(WORD_MULTIPLIERS[2]).rotate_left(26)
            ^ words[3].wrapping_mul(WORD_MULTIPLIERS[3]).rotate_left(39)
            ^ words[4].wrapping_mul(WORD_MULTIPLIERS[4]).rotate_left(52);
        mix ^ mix >> 32
    }

    /// The five value words of the module docs' step 1, `attempts` read as
    /// zero unless `with_attempts`.
    #[inline]
    fn words(&self, with_attempts: bool) -> [u64; 5] {
        let attempts = if with_attempts { self.attempts } else { 0 };
        [
            self.seq,
            u64::from(self.shard) | u64::from(attempts) << 32,
            u64::from(self.invalidations) | u64::from(self.forced_evictions) << 32,
            u64::from(self.forced_invalidations) | self.flags() << 32,
            self.detail,
        ]
    }

    /// The five outcome flags packed into the low bits of one word.
    fn flags(&self) -> u64 {
        u64::from(self.hit)
            | u64::from(self.allocated) << 1
            | u64::from(self.failed) << 2
            | u64::from(self.invalidated_all) << 3
            | u64::from(self.removed_entry) << 4
    }
}

/// One odd multiplier per record word (module docs, step 1).
const WORD_MULTIPLIERS: [u64; 5] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// The chain's multiplier and starting state (module docs, step 2).
const CHAIN_MULTIPLIER: u64 = 0xd6e8_feb8_6659_fd93;
const CHAIN_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Advances the digest chain by one record's mix: the only multiply that
/// waits for the previous record.
#[inline]
fn chain_step(state: u64, mix: u64) -> u64 {
    (state.rotate_left(5) ^ mix).wrapping_mul(CHAIN_MULTIPLIER)
}

/// The digest chain over `records`' full or semantic view.
#[inline]
fn digest_view(
    records: impl IntoIterator<Item: Borrow<OutcomeRecord>>,
    with_attempts: bool,
) -> u64 {
    records.into_iter().fold(CHAIN_SEED, |state, record| {
        chain_step(state, record.borrow().mix(with_attempts))
    })
}

/// Digest of an outcome log in sequence order (see the module docs for the
/// definition).  Takes a slice, a `Vec` or an [`OutcomeLog`] alike.
///
/// Two configurations of the service (any worker count over the same shard
/// count) produce the same digest iff their merged outcome logs are
/// identical record-for-record; `service_determinism.rs` pins nine serial
/// runs' digests as literals.
#[must_use]
pub fn digest_outcomes(records: impl IntoIterator<Item: Borrow<OutcomeRecord>>) -> u64 {
    digest_view(records, true)
}

/// Digest of an outcome log's semantic view in sequence order:
/// [`digest_outcomes`] with every record's attempt count read as zero.
#[must_use]
pub fn digest_outcome_semantics(records: impl IntoIterator<Item: Borrow<OutcomeRecord>>) -> u64 {
    digest_view(records, false)
}

/// The tag's presence bits, above the five flags (module docs).
const HAS_DETAIL: u8 = 1 << 5;
const HAS_COUNTS: u8 = 1 << 6;
const HAS_DELTA: u8 = 1 << 7;

/// Bytes a chunk of a stored log holds (module docs).
const CHUNK: usize = 64 << 10;

/// The widest stored record: tag, `shard`, `seq` delta, the four counts
/// and `detail`.
const MAX_RECORD: usize = 1 + 5 + 10 + 4 * 5 + 8;

/// One record's stored bytes, built field by field: the general path of
/// [`OutcomeLog::push`].
struct Encoded {
    bytes: [u8; MAX_RECORD],
    len: usize,
}

impl Encoded {
    /// `record`'s stored bytes, `tag` already holding its flags and
    /// has-detail bit; `delta` and `implied` as [`OutcomeLog::push`] found
    /// them.  Kept out of line: the common record never comes here.
    #[inline(never)]
    fn record(record: &OutcomeRecord, tag: u8, delta: u64, implied: bool) -> Self {
        let mut encoded = Encoded {
            bytes: [0; MAX_RECORD],
            len: 0,
        };
        let counted = if implied { 0 } else { HAS_COUNTS };
        let stepped = if delta == 1 { 0 } else { HAS_DELTA };
        encoded.byte(tag | counted | stepped);
        encoded.varint(u64::from(record.shard));
        if delta != 1 {
            encoded.varint(delta);
        }
        if !implied {
            let counts = [
                record.attempts,
                record.invalidations,
                record.forced_evictions,
                record.forced_invalidations,
            ];
            counts
                .into_iter()
                .for_each(|count| encoded.varint(u64::from(count)));
        }
        if tag & HAS_DETAIL != 0 {
            encoded.word(record.detail);
        }
        encoded
    }

    fn byte(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    /// `value` as a minimal LEB128 varint (module docs).
    fn varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.byte(value as u8 | 0x80);
            value >>= 7;
        }
        self.byte(value as u8);
    }

    fn word(&mut self, word: u64) {
        self.bytes[self.len..self.len + 8].copy_from_slice(&word.to_le_bytes());
        self.len += 8;
    }
}

/// The unread rest of a chunk, taken field by field by [`OutcomeIter`].
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    fn byte(&mut self) -> Option<u8> {
        let (&byte, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(byte)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut value = 0;
        for shift in (0..u64::BITS).step_by(7) {
            let byte = self.byte()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    fn word(&mut self) -> Option<u64> {
        let (word, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(u64::from_le_bytes(*word))
    }
}

/// A sequence of [`OutcomeRecord`]s in the stored layout of the module
/// docs: 2 bytes a quiet record, 10 with a `detail`, where the records
/// themselves take 48.  Iterating decodes the records, by value, in the
/// order they were stored.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OutcomeLog {
    /// The full chunks, in order.
    sealed: Vec<Vec<u8>>,
    /// The chunk records go into: allocated with a capacity of [`CHUNK`]
    /// bytes at the first record that needs it, and never grown.  Records
    /// are pushed only into logs that start empty ([`WorkerLog`] and
    /// [`reassemble`]), never into a clone, whose chunks have no room to
    /// spare.
    open: Vec<u8>,
    len: usize,
    /// The last record's `seq`, which the next record's delta counts from.
    last_seq: u64,
}

impl OutcomeLog {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the stored records occupy, the open chunk's spare room and
    /// the sealed chunks' unused tails not counted.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.sealed.iter().map(Vec::len).sum::<usize>() + self.open.len()
    }

    /// The records in order, each decoded as it is reached.
    pub fn iter(&self) -> OutcomeIter<'_> {
        OutcomeIter {
            sealed: self.sealed.iter(),
            open: &self.open,
            bytes: &[],
            last_seq: 0,
            remaining: self.len,
        }
    }

    /// Appends `record` in the stored layout.  The common record — the
    /// next `seq`, implied counts, a one-byte shard — is written as two or
    /// ten fixed bytes after one space check; any other is built field by
    /// field first.  Both write the same bytes for the same record.
    #[inline]
    fn push(&mut self, record: &OutcomeRecord) {
        let delta = record.seq.wrapping_sub(self.last_seq);
        let has_detail = record.detail != Fnv64::OFFSET;
        let implied = (record.attempts ^ u32::from(record.allocated))
            | (record.invalidations ^ u32::from(has_detail))
            | record.forced_evictions
            | record.forced_invalidations
            == 0;
        let tag = record.flags() as u8 | (u8::from(has_detail) * HAS_DETAIL);
        if delta == 1 && implied && record.shard < 0x80 {
            let head = [tag, record.shard as u8];
            if has_detail {
                let mut bytes = [0; 10];
                bytes[..2].copy_from_slice(&head);
                bytes[2..].copy_from_slice(&record.detail.to_le_bytes());
                self.room(10).extend_from_slice(&bytes);
            } else {
                self.room(2).extend_from_slice(&head);
            }
        } else {
            let encoded = Encoded::record(record, tag, delta, implied);
            self.room(encoded.len)
                .extend_from_slice(&encoded.bytes[..encoded.len]);
        }
        self.last_seq = record.seq;
        self.len += 1;
    }

    /// The open chunk, with room for `need` more bytes: when it has not,
    /// it is sealed and the next one opened.
    #[inline]
    fn room(&mut self, need: usize) -> &mut Vec<u8> {
        if self.open.capacity() - self.open.len() < need {
            self.open_next();
        }
        &mut self.open
    }

    #[cold]
    fn open_next(&mut self) {
        let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
        if !full.is_empty() {
            self.sealed.push(full);
        }
    }

    /// The open chunk's address, to tell a moved log from a copied one.
    #[cfg(test)]
    fn buffer(&self) -> *const u8 {
        self.open.as_ptr()
    }
}

impl fmt::Debug for OutcomeLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a OutcomeLog {
    type Item = OutcomeRecord;
    type IntoIter = OutcomeIter<'a>;

    fn into_iter(self) -> OutcomeIter<'a> {
        self.iter()
    }
}

/// The records of an [`OutcomeLog`], decoded one at a time
/// ([`OutcomeLog::iter`]).
#[derive(Clone, Debug)]
pub struct OutcomeIter<'a> {
    /// The sealed chunks not yet reached.
    sealed: std::slice::Iter<'a, Vec<u8>>,
    /// The open chunk, until it is reached.
    open: &'a [u8],
    /// The unread rest of the chunk being read.
    bytes: &'a [u8],
    last_seq: u64,
    remaining: usize,
}

impl Iterator for OutcomeIter<'_> {
    type Item = OutcomeRecord;

    fn next(&mut self) -> Option<OutcomeRecord> {
        if self.remaining == 0 {
            return None;
        }
        if self.bytes.is_empty() {
            self.bytes = match self.sealed.next() {
                Some(chunk) => chunk,
                None => std::mem::take(&mut self.open),
            };
        }
        let mut fields = Fields(self.bytes);
        let tag = fields.byte()?;
        let flag = |bit: u32| tag >> bit & 1 == 1;
        let shard = fields.varint()?;
        let delta = if tag & HAS_DELTA != 0 {
            fields.varint()?
        } else {
            1
        };
        let has_detail = tag & HAS_DETAIL != 0;
        let [attempts, invalidations, forced_evictions, forced_invalidations] =
            if tag & HAS_COUNTS != 0 {
                [
                    fields.varint()?,
                    fields.varint()?,
                    fields.varint()?,
                    fields.varint()?,
                ]
            } else {
                [u64::from(flag(1)), u64::from(has_detail), 0, 0]
            };
        let detail = if has_detail {
            fields.word()?
        } else {
            Fnv64::OFFSET
        };
        let record = OutcomeRecord {
            seq: self.last_seq.wrapping_add(delta),
            shard: shard as u32,
            attempts: attempts as u32,
            invalidations: invalidations as u32,
            forced_evictions: forced_evictions as u32,
            forced_invalidations: forced_invalidations as u32,
            hit: flag(0),
            allocated: flag(1),
            failed: flag(2),
            invalidated_all: flag(3),
            removed_entry: flag(4),
            detail,
        };
        self.bytes = fields.0;
        self.last_seq = record.seq;
        self.remaining -= 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OutcomeIter<'_> {}

impl FusedIterator for OutcomeIter<'_> {}

/// A worker's outcome log broke the order [`reassemble`] relies on: its
/// record `seq` did not come strictly after `after`, the record accepted
/// just before it.  Either that worker's log is not ascending or two
/// workers logged the same request — a bug in the service, never an input
/// condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LogOrderError {
    /// Index of the worker whose record arrived out of order.
    pub(crate) worker: usize,
    /// The offending record's sequence number.
    pub(crate) seq: u64,
    /// The sequence number accepted immediately before it.
    pub(crate) after: u64,
}

/// The running [`digest_outcomes`] value of a sequence of records and the
/// order check that travels with it.  Every record enters a log through
/// [`Chain::accept`], whether a worker pushes it or the merge emits it.
struct Chain {
    state: u64,
    last: Option<u64>,
}

impl Chain {
    fn new() -> Self {
        Chain {
            state: CHAIN_SEED,
            last: None,
        }
    }

    /// Checks that `record`, which `worker` produced, comes strictly after
    /// the last one accepted, then folds it into the digest.
    #[inline]
    fn accept(&mut self, worker: usize, record: &OutcomeRecord) -> Result<(), LogOrderError> {
        if let Some(after) = self.last.filter(|&last| record.seq <= last) {
            return Err(LogOrderError {
                worker,
                seq: record.seq,
                after,
            });
        }
        self.last = Some(record.seq);
        self.state = chain_step(self.state, record.mix(true));
        Ok(())
    }
}

/// One worker's outcome log.  [`WorkerLog::push`] is the only way in, so
/// the log always knows its own digest and whether it is still strictly
/// ascending in `seq` — which is what lets [`reassemble`] move a lone log
/// without another pass over it.
pub(crate) struct WorkerLog {
    worker: usize,
    log: OutcomeLog,
    chain: Chain,
    /// The first record pushed out of order; the digest is meaningless
    /// from there on and the log is refused by [`reassemble`].
    disorder: Option<LogOrderError>,
}

impl WorkerLog {
    /// The empty log of worker `worker`.
    pub(crate) fn new(worker: usize) -> Self {
        WorkerLog {
            worker,
            log: OutcomeLog::default(),
            chain: Chain::new(),
            disorder: None,
        }
    }

    /// Appends `record`, checking it against its predecessor and folding
    /// it into the log's digest while it is still in registers.
    #[inline]
    pub(crate) fn push(&mut self, record: OutcomeRecord) {
        if let Err(broken) = self.chain.accept(self.worker, &record) {
            self.disorder.get_or_insert(broken);
        }
        self.log.push(&record);
    }

    /// Worker `worker`'s log of `records`, pushed in the order given.
    #[cfg(test)]
    pub(crate) fn of(worker: usize, records: impl IntoIterator<Item = OutcomeRecord>) -> Self {
        let mut log = WorkerLog::new(worker);
        records.into_iter().for_each(|record| log.push(record));
        log
    }
}

/// Reassembles per-worker outcome logs — each ascending in `seq` because a
/// worker applies its FIFO queue in order — into the one sequence-ordered
/// log, and returns it with its [`digest_outcomes`] value.
///
/// When at most one log holds records (every serial run, every one-worker
/// run) it is moved out untouched and its digest taken as is: the log was
/// order-checked and folded record by record as it grew.  Otherwise the
/// logs are decoded and k-way merged into one freshly encoded log, each
/// record order-checked and folded by the same [`Chain::accept`] as it is
/// emitted (the workers' own partial digests go unused).  `k` is the worker
/// count, a handful, so the smallest head is found by scanning them.
///
/// # Errors
///
/// [`LogOrderError`], naming the worker, when a log is not strictly
/// ascending or a `seq` occurs in two logs.  Nothing is emitted then.
pub(crate) fn reassemble(mut logs: Vec<WorkerLog>) -> Result<(OutcomeLog, u64), LogOrderError> {
    logs.retain(|log| !log.log.is_empty());
    if logs.len() <= 1 {
        let log = logs.pop().unwrap_or_else(|| WorkerLog::new(0));
        return match log.disorder {
            Some(broken) => Err(broken),
            None => Ok((log.log, log.chain.state)),
        };
    }

    let mut merged = OutcomeLog::default();
    let mut chain = Chain::new();
    // Each unfinished log's worker, its next record and the rest of it.
    let mut runs: Vec<(usize, OutcomeRecord, OutcomeIter<'_>)> = logs
        .iter()
        .filter_map(|log| {
            let mut rest = log.log.iter();
            rest.next().map(|head| (log.worker, head, rest))
        })
        .collect();
    while let Some(lead) = (0..runs.len()).min_by_key(|&at| runs[at].1.seq) {
        let (worker, head, rest) = &mut runs[lead];
        chain.accept(*worker, head)?;
        merged.push(head);
        match rest.next() {
            Some(next) => *head = next,
            None => {
                runs.remove(lead);
            }
        }
    }
    Ok((merged, chain.state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64};
    use ccd_common::{CacheId, LineAddr};

    fn sample_outcome() -> Outcome {
        let mut out = Outcome::new();
        out.set_hit(true);
        out.record_allocation(3);
        out.push_invalidate(CacheId::new(2));
        out.push_forced_eviction_one(LineAddr::from_block_number(9), CacheId::new(1));
        out
    }

    /// The record of a request that did nothing.
    const QUIET: OutcomeRecord = OutcomeRecord {
        seq: 0,
        shard: 0,
        attempts: 0,
        invalidations: 0,
        forced_evictions: 0,
        forced_invalidations: 0,
        hit: false,
        allocated: false,
        failed: false,
        invalidated_all: false,
        removed_entry: false,
        detail: Fnv64::OFFSET,
    };

    /// `records` stored the way a worker stores them.
    fn stored(records: &[OutcomeRecord]) -> OutcomeLog {
        let mut log = OutcomeLog::default();
        records.iter().for_each(|record| log.push(record));
        log
    }

    /// Stores `records` one at a time, checks that the log gives them all
    /// back, and returns the bytes each one took.
    fn stored_sizes(records: &[OutcomeRecord]) -> Vec<usize> {
        let mut log = OutcomeLog::default();
        let sizes = records
            .iter()
            .map(|record| {
                let before = log.stored_bytes();
                log.push(record);
                log.stored_bytes() - before
            })
            .collect();
        assert_eq!(log.len(), records.len());
        assert_eq!(log.iter().len(), records.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), records);
        sizes
    }

    /// Each varint edge and the bytes a value there takes.
    const VARINT_EDGES: [(u32, usize); 6] = [
        (0, 1),
        (127, 1),
        (128, 2),
        (16_383, 2),
        (16_384, 3),
        (u32::MAX, 5),
    ];

    #[test]
    fn capture_reflects_the_outcome_buffer() {
        let record = OutcomeRecord::capture(17, 4, &sample_outcome());
        assert_eq!(record.seq, 17);
        assert_eq!(record.shard, 4);
        assert_eq!(record.attempts, 3);
        assert_eq!(record.invalidations, 1);
        assert_eq!(record.forced_evictions, 1);
        assert_eq!(record.forced_invalidations, 1);
        assert!(record.hit && record.allocated);
        assert!(!record.failed && !record.invalidated_all && !record.removed_entry);
        // What the stored log leaves out when it is all a record says.
        assert_eq!(OutcomeRecord::capture(0, 0, &Outcome::new()), QUIET);
    }

    #[test]
    fn detail_hash_distinguishes_variable_content() {
        let base = OutcomeRecord::capture(0, 0, &sample_outcome());
        let mut other = sample_outcome();
        other.push_invalidate(CacheId::new(3));
        let changed = OutcomeRecord::capture(0, 0, &other);
        assert_ne!(base.detail, changed.detail);
    }

    #[test]
    fn every_count_round_trips_at_the_edges_of_its_varint() {
        type Count = (&'static str, fn(&mut OutcomeRecord, u32));
        let counts: [Count; 5] = [
            ("attempts", |r, value| r.attempts = value),
            ("invalidations", |r, value| r.invalidations = value),
            ("forced_evictions", |r, value| r.forced_evictions = value),
            ("forced_invalidations", |r, value| {
                r.forced_invalidations = value
            }),
            ("shard", |r, value| r.shard = value),
        ];
        for (field, set) in counts {
            for (value, bytes) in VARINT_EDGES {
                let mut record = OutcomeRecord {
                    seq: 3,
                    hit: true,
                    removed_entry: true,
                    ..QUIET
                };
                set(&mut record, value);
                let next = OutcomeRecord { seq: 4, ..record };
                // Tag and shard, plus the first record's delta of 3; a
                // count other than its default brings all four counts.
                let extra = match (field, value) {
                    ("shard", _) => bytes - 1,
                    (_, 0) => 0,
                    _ => 3 + bytes,
                };
                assert_eq!(
                    stored_sizes(&[record, next]),
                    [3 + extra, 2 + extra],
                    "{field} = {value}"
                );
            }
        }
    }

    #[test]
    fn counts_the_flags_imply_are_not_stored() {
        let allocated = OutcomeRecord {
            seq: 1,
            attempts: 1,
            allocated: true,
            ..QUIET
        };
        let invalidating = OutcomeRecord {
            seq: 2,
            invalidations: 1,
            detail: 0x1234,
            ..QUIET
        };
        let unallocated_attempt = OutcomeRecord {
            seq: 3,
            attempts: 1,
            ..QUIET
        };
        let allocated_without_attempts = OutcomeRecord {
            seq: 4,
            allocated: true,
            ..QUIET
        };
        assert_eq!(
            stored_sizes(&[
                allocated,
                invalidating,
                unallocated_attempt,
                allocated_without_attempts
            ]),
            [2, 10, 6, 6]
        );
    }

    #[test]
    fn seq_deltas_round_trip_at_the_edges_of_their_varint() {
        let at = |seq| OutcomeRecord { seq, ..QUIET };
        // Deltas 5 (from 0: the first record), 1, 2, 127, 128 and 16 384;
        // a delta of 1 is not written, any other follows tag and shard.
        let seqs = [5, 6, 8, 135, 263, 16_647];
        // A step back and a jump to `u64::MAX` wrap to ten-byte deltas; the
        // wrap past `u64::MAX` to 0 is a delta of 1.
        let records: Vec<_> = seqs
            .into_iter()
            .chain([16_646, u64::MAX, 0])
            .map(at)
            .collect();
        assert_eq!(stored_sizes(&records), [3, 2, 3, 3, 4, 5, 12, 12, 2]);
        assert_eq!(stored_sizes(&[at(0)]), [3]);
        assert_eq!(stored_sizes(&[at(1)]), [2]);
    }

    #[test]
    fn detail_is_stored_by_its_value_not_by_the_counts() {
        let counted_but_empty = OutcomeRecord {
            invalidations: 3,
            forced_evictions: 1,
            forced_invalidations: 2,
            ..QUIET
        };
        let uncounted_but_folded = OutcomeRecord {
            seq: 1,
            detail: 0x1234,
            ..QUIET
        };
        let zero = OutcomeRecord {
            seq: 2,
            detail: 0,
            ..QUIET
        };
        assert_eq!(
            stored_sizes(&[counted_but_empty, uncounted_but_folded, zero]),
            [7, 14, 14]
        );
    }

    #[test]
    fn a_log_of_many_chunks_round_trips_and_merges_to_the_same_bytes() {
        // One three-byte record and then two-byte ones fill the first
        // chunk to one byte short of full, where the next record must open
        // the second; records of every size follow.
        let mut records: Vec<_> = (1..=100_000)
            .map(|seq| OutcomeRecord {
                seq,
                shard: if seq == 1 { 128 } else { 0 },
                ..QUIET
            })
            .collect();
        let mut rng = SplitMix64::new(0xc4_0c5);
        records.extend(
            dense_log(&mut rng, 20_000)
                .into_iter()
                .map(|record| OutcomeRecord {
                    seq: record.seq + 100_001,
                    ..record
                }),
        );
        let log = stored(&records);
        assert!(log.sealed.len() >= 2, "{} chunks", log.sealed.len() + 1);
        for chunk in log.sealed.iter().chain([&log.open]) {
            assert_eq!(chunk.capacity(), CHUNK, "a chunk is never regrown");
        }
        assert_eq!(log.len(), records.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), records);

        let mut workers = [WorkerLog::new(0), WorkerLog::new(1)];
        for record in &records {
            workers[(rng.next_u64() % 2) as usize].push(*record);
        }
        let (merged, digest) = reassemble(workers.into()).expect("ascending, disjoint runs");
        assert_eq!(merged, log, "merged, the log is the same bytes");
        assert_eq!(merged.stored_bytes(), log.stored_bytes());
        assert_eq!(digest, digest_outcomes(&records));
    }

    #[test]
    fn random_logs_round_trip_and_digest_as_their_records() {
        let mut rng = SplitMix64::new(0x10_6c0d);
        for case in 0..40 {
            let mut records = dense_log(&mut rng, 300);
            if case % 2 == 1 {
                // Deltas of one to three varint bytes, and counts of one
                // to five.
                let mut seq = rng.next_u64() % 1000;
                for record in &mut records {
                    seq += 1 + rng.next_u64() % (1 << 18);
                    record.seq = seq;
                    let wide = rng.next_u64() as u32 >> (rng.next_u64() % 32);
                    match rng.next_u64() % 4 {
                        0 => record.attempts = wide,
                        1 => record.shard = wide,
                        2 => record.forced_invalidations = wide,
                        _ => {}
                    }
                }
            }
            let log = stored(&records);
            assert_eq!(log.len(), records.len(), "case {case}");
            assert_eq!(log.iter().collect::<Vec<_>>(), records, "case {case}");
            assert_eq!(digest_outcomes(&log), digest_outcomes(&records));
            assert_eq!(
                digest_outcome_semantics(&log),
                digest_outcome_semantics(&records)
            );
        }
    }

    #[test]
    fn semantic_digest_masks_attempts_and_nothing_else() {
        let base = OutcomeRecord::capture(0, 0, &sample_outcome());
        let mut cheaper = base;
        cheaper.attempts = 1;
        assert_ne!(digest_outcomes([base]), digest_outcomes([cheaper]));
        assert_eq!(
            digest_outcome_semantics([base]),
            digest_outcome_semantics([cheaper]),
            "attempt counts must not enter the semantic view"
        );
        let mut other = base;
        other.invalidations += 1;
        assert_ne!(
            digest_outcome_semantics([base]),
            digest_outcome_semantics([other]),
            "every other field still must"
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = OutcomeRecord::capture(0, 0, &sample_outcome());
        let b = OutcomeRecord::capture(1, 1, &sample_outcome());
        assert_ne!(digest_outcomes([a, b]), digest_outcomes([b, a]));
        assert_eq!(digest_outcomes([a, b]), digest_outcomes([a, b]));
        assert_ne!(digest_outcomes([a]), digest_outcomes([a, b]));
    }

    /// Every digested field: its name, its width in bits, and how to flip
    /// one bit of it.
    type Field = (&'static str, u32, fn(&mut OutcomeRecord, u32));
    const FIELDS: [Field; 12] = [
        ("seq", 64, |r, bit| r.seq ^= 1 << bit),
        ("shard", 32, |r, bit| r.shard ^= 1 << bit),
        ("attempts", 32, |r, bit| r.attempts ^= 1 << bit),
        ("invalidations", 32, |r, bit| r.invalidations ^= 1 << bit),
        ("forced_evictions", 32, |r, bit| {
            r.forced_evictions ^= 1 << bit
        }),
        ("forced_invalidations", 32, |r, bit| {
            r.forced_invalidations ^= 1 << bit
        }),
        ("hit", 1, |r, _| r.hit ^= true),
        ("allocated", 1, |r, _| r.allocated ^= true),
        ("failed", 1, |r, _| r.failed ^= true),
        ("invalidated_all", 1, |r, _| r.invalidated_all ^= true),
        ("removed_entry", 1, |r, _| r.removed_entry ^= true),
        ("detail", 64, |r, bit| r.detail ^= 1 << bit),
    ];

    #[test]
    fn every_bit_of_every_field_of_every_record_reaches_the_digest() {
        // Exhaustive over a 64-record log: 293 bits a record, ~19k digests,
        // each of a stored log, so every bit must also survive storage.
        // The semantic view must move with all of them but `attempts`.
        let log = dense_log(&mut SplitMix64::new(0xd1_6e57), 64);
        let (full, semantic) = (digest_outcomes(&log), digest_outcome_semantics(&log));
        let mut flipped = log.clone();
        for at in 0..log.len() {
            for (field, width, flip) in FIELDS {
                for bit in 0..width {
                    flip(&mut flipped[at], bit);
                    assert_ne!(flipped[at], log[at], "{field} bit {bit} did not flip");
                    let kept = stored(&flipped);
                    assert_eq!(
                        kept.iter().nth(at),
                        Some(flipped[at]),
                        "record {at}: {field} bit {bit} is lost in storage"
                    );
                    assert_ne!(
                        digest_outcomes(&kept),
                        full,
                        "record {at}: {field} bit {bit} does not reach the digest"
                    );
                    assert_eq!(
                        digest_outcome_semantics(&kept) == semantic,
                        field == "attempts",
                        "record {at}: {field} bit {bit} and the semantic view"
                    );
                    flipped[at] = log[at];
                }
            }
        }
    }

    #[test]
    fn swapping_truncating_and_appending_each_change_the_digest() {
        let log = dense_log(&mut SplitMix64::new(0x5aa9), 65);
        let (log, extra) = log.split_at(64);
        let full = digest_outcomes(log);
        for at in 0..log.len() - 1 {
            let mut swapped = log.to_vec();
            swapped.swap(at, at + 1);
            assert_ne!(
                digest_outcomes(&swapped),
                full,
                "records {at} and {}",
                at + 1
            );
        }
        assert_ne!(digest_outcomes(&log[..63]), full, "truncated by one");
        assert_ne!(digest_outcomes(&log[1..]), full, "first record dropped");
        assert_ne!(digest_outcomes([log, extra].concat()), full, "one appended");
        // Appending even the blandest record moves the chain.
        let mut blank = log.to_vec();
        blank.push(OutcomeRecord::capture(64, 0, &Outcome::new()));
        assert_ne!(digest_outcomes(&blank), full);
    }

    #[test]
    fn digests_of_a_fixed_log_are_pinned() {
        let log = [
            OutcomeRecord {
                attempts: 1,
                allocated: true,
                ..QUIET
            },
            OutcomeRecord {
                seq: 1,
                shard: 3,
                invalidations: 2,
                hit: true,
                invalidated_all: true,
                detail: 0x0123_4567_89ab_cdef,
                ..QUIET
            },
            OutcomeRecord {
                seq: 0x1_0000,
                shard: 1,
                attempts: 32,
                forced_evictions: 1,
                forced_invalidations: 3,
                allocated: true,
                failed: true,
                detail: u64::MAX,
                ..QUIET
            },
            OutcomeRecord {
                seq: 0xff_ffff_ffff,
                shard: 255,
                invalidations: 1,
                hit: true,
                removed_entry: true,
                detail: 0x100,
                ..QUIET
            },
        ];
        // Literals computed once outside this crate, from the module docs'
        // definition written out in another language: every golden file's
        // digest rests on them.  Stored, the records digest the same.
        let kept = stored(&log);
        for (full, semantic) in [
            (digest_outcomes(log), digest_outcome_semantics(log)),
            (digest_outcomes(&kept), digest_outcome_semantics(&kept)),
        ] {
            assert_eq!(full, 0x7f83_1ec3_d240_b651);
            assert_eq!(semantic, 0x6f4f_498c_707a_9771);
        }
        assert_eq!(
            digest_outcomes(&[] as &[OutcomeRecord]),
            0x2545_f491_4f6c_dd1d
        );
        assert_eq!(
            digest_outcomes(&OutcomeLog::default()),
            0x2545_f491_4f6c_dd1d
        );
    }

    /// A dense log `0..len` whose records differ in every digested field.
    fn dense_log(rng: &mut SplitMix64, len: u64) -> Vec<OutcomeRecord> {
        (0..len)
            .map(|seq| {
                let bits = rng.next_u64();
                OutcomeRecord {
                    seq,
                    shard: (bits % 8) as u32,
                    attempts: (bits >> 8) as u32 % 33,
                    invalidations: (bits >> 16) as u32 % 16,
                    forced_evictions: (bits >> 24) as u32 % 2,
                    forced_invalidations: (bits >> 32) as u32 % 4,
                    hit: bits >> 40 & 1 == 1,
                    allocated: bits >> 41 & 1 == 1,
                    failed: bits >> 42 & 1 == 1,
                    invalidated_all: bits >> 43 & 1 == 1,
                    removed_entry: bits >> 44 & 1 == 1,
                    detail: rng.next_u64(),
                }
            })
            .collect()
    }

    #[test]
    fn reassembly_of_random_ascending_runs_is_the_sorted_log() {
        let mut rng = SplitMix64::new(0xa55e_3b1e);
        for case in 0..300 {
            // Short logs over many workers give runs of length 1.
            let len = rng.next_u64() % if case % 5 == 0 { 10 } else { 400 };
            let reference = dense_log(&mut rng, len);
            let workers = 1 + (rng.next_u64() % 8) as usize;
            // Every third case deals only to the first one or two runs, so
            // empty runs and one run holding everything occur often.
            let used = if case % 3 == 0 {
                1 + (rng.next_u64() % 2) as usize
            } else {
                workers
            };
            let mut logs: Vec<WorkerLog> = (0..workers).map(WorkerLog::new).collect();
            for record in &reference {
                let run = rng.next_u64() as usize % used.min(workers);
                logs[run].push(*record);
            }
            let non_empty: Vec<_> = logs.iter().filter(|log| !log.log.is_empty()).collect();
            let lone = match non_empty[..] {
                [log] => Some(log.log.buffer()),
                _ => None,
            };

            let (merged, digest) = reassemble(logs).expect("ascending, disjoint runs");
            assert_eq!(merged.iter().collect::<Vec<_>>(), reference, "case {case}");
            // One encoding per record sequence: merged or moved, the log
            // is byte for byte the reference stored directly.
            assert_eq!(merged, stored(&reference), "case {case}");
            assert_eq!(digest, digest_outcomes(&reference), "case {case}");
            if let Some(buffer) = lone {
                assert_eq!(merged.buffer(), buffer, "a lone log is moved, not copied");
            }
        }
    }

    #[test]
    fn reassembly_detects_disorder_and_names_the_worker() {
        let mut rng = SplitMix64::new(11);
        let log = dense_log(&mut rng, 8);
        // Every log is built record by record through `push`.
        let pick = |worker, seqs: &[usize]| WorkerLog::of(worker, seqs.iter().map(|&at| log[at]));

        // A run that steps backwards, merged with a healthy one.
        let err = reassemble(vec![pick(0, &[0, 2, 4]), pick(1, &[1, 5, 3])]).unwrap_err();
        assert_eq!((err.worker, err.seq, err.after), (1, 3, 5));
        // The same seq logged by two workers.
        let err = reassemble(vec![pick(0, &[0, 2, 3]), pick(1, &[1, 3, 4])]).unwrap_err();
        assert_eq!((err.worker, err.seq, err.after), (1, 3, 3));
        // The moved path checks too: a lone log was verified as it grew,
        // and remembers its first violation, not its last.
        let err = reassemble(vec![pick(0, &[]), pick(3, &[0, 1, 1])]).unwrap_err();
        assert_eq!((err.worker, err.seq, err.after), (3, 1, 1));
        let err = reassemble(vec![pick(2, &[4, 2, 7, 6])]).unwrap_err();
        assert_eq!((err.worker, err.seq, err.after), (2, 2, 4));
        // Gaps are fine: order is the contract, density is not.
        assert!(reassemble(vec![pick(0, &[0, 7]), pick(1, &[3])]).is_ok());
    }

    #[test]
    fn reassembly_of_nothing_is_the_empty_log() {
        for logs in [Vec::new(), vec![WorkerLog::new(0), WorkerLog::new(1)]] {
            let (merged, digest) = reassemble(logs).expect("nothing to disorder");
            assert!(merged.is_empty());
            assert_eq!(merged.iter().next(), None);
            assert_eq!(digest, digest_outcomes(&merged));
        }
    }
}
