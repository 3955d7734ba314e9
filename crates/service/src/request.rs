//! The service's wire types: sequence-numbered requests and the compact
//! outcome log used to verify bit-identity against serial application.
//!
//! # The stored log
//!
//! An [`OutcomeLog`] keeps its records as bytes, losslessly, and decodes
//! them only when iterated.  A record is
//!
//! | bytes | field | present |
//! |---|---|---|
//! | 1 | tag: the flags `hit`, `allocated`, `failed`, `invalidated_all`, `removed_entry` (bits 0–4), has-detail (5), has-counts (6), has-delta (7) | always |
//! | varint | `shard` | always |
//! | varint | `seq` minus the previous record's `seq` (wrapping; 0 before the first) | has-delta: the difference is not 1 |
//! | 4 varints | `attempts`, `invalidations`, `forced_evictions`, `forced_invalidations` | has-counts |
//! | 1 | the one target `c` | has-detail, not has-counts |
//! | 8, little-endian | `detail` | has-detail and has-counts |
//!
//! has-detail is set when `detail` is not [`Fnv64::OFFSET`], the fold of an
//! empty outcome.  has-counts is clear exactly when the counts are the ones
//! the tag implies — `allocated` attempts, no forced evictions, and one
//! invalidation with has-detail, none without — and, with has-detail,
//! `detail` is the fold of one target `c < 256`: `Fnv64::new().fold(c)`,
//! which is `(OFFSET ^ c) · PRIME⁸` (wrapping).  The decoder recomputes
//! `detail` from `c`; the encoder finds `c` by multiplying `detail` by the
//! inverse of `PRIME⁸` and XORing `OFFSET` back, and takes the one-byte
//! form only when that gives a value below 256.  A hit on a quiet line is
//! therefore two bytes, one that invalidates one sharer three.  A varint
//! is LEB128: seven bits a byte, low bits first, the top bit set on every
//! byte but the last.
//!
//! The bytes sit in chunks of 64 KiB, each allocated once and never grown
//! or copied; a record that does not fit in what is left of the open chunk
//! opens the next one, so no record straddles two.  Varints are minimal,
//! every presence bit is decided by value and every chunk is cut by that
//! one rule, so each record sequence has exactly one encoding: two logs
//! hold the same records iff they hold the same bytes.
//!
//! # The outcome digest
//!
//! One definition, here and nowhere else.  The digest of a sequence of
//! records hashes their encodings above, concatenated as if stored in one
//! log (where the chunks are cut plays no part): the bytes are read as
//! little-endian 64-bit words, the last one padded with zero bytes, the
//! record count follows as one more word, and each word enters the chain
//! `state = (state.rotate_left(5) ^ word) * CHAIN_MULTIPLIER` (wrapping)
//! that starts from `CHAIN_SEED`.  For a fixed word the step is a
//! bijection on the state, so a difference once in the state never cancels
//! by itself, and the rotation makes the chain order-sensitive.  The
//! encoding is lossless and one-to-one, so every bit of every field reaches
//! the words.
//!
//! [`digest_outcomes`] is that digest; it encodes the records it is given
//! afresh.  A worker's log hashes each chunk as it is sealed and the open one when the run
//! ends.  [`OutcomeRecord::detail`] is an FNV-1a fold ([`Fnv64`]).

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
            detail: fold_detail(out),
        }
    }
}

/// [`OutcomeRecord::detail`] of `out`.
fn fold_detail(out: &Outcome) -> u64 {
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
    detail.finish()
}

/// The five outcome flags in the tag's bit order (module docs).
fn pack_flags([hit, allocated, failed, invalidated_all, removed_entry]: [bool; 5]) -> u8 {
    u8::from(hit)
        | u8::from(allocated) << 1
        | u8::from(failed) << 2
        | u8::from(invalidated_all) << 3
        | u8::from(removed_entry) << 4
}

/// `PRIME⁸` (wrapping): what folding a word whose only significant byte
/// is its lowest does to the state after XORing that byte in.
const PRIME_8: u64 = {
    let mut pow = 1u64;
    let mut k = 0;
    while k < 8 {
        pow = pow.wrapping_mul(Fnv64::PRIME);
        k += 1;
    }
    pow
};

/// The inverse of [`PRIME_8`] modulo 2⁶⁴, by Newton's iteration: an odd
/// `a` is its own inverse modulo 8, and each step doubles the correct low
/// bits (3, 6, 12, 24, 48, 96).
const PRIME_8_INVERSE: u64 = {
    let mut inverse = PRIME_8;
    let mut k = 0;
    while k < 5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(PRIME_8.wrapping_mul(inverse)));
        k += 1;
    }
    inverse
};

/// The `detail` of an outcome whose only content is target `c`:
/// `Fnv64::new().fold(c)`.
const fn one_target(c: u8) -> u64 {
    (Fnv64::OFFSET ^ c as u64).wrapping_mul(PRIME_8)
}

/// A record's `detail` as the stored layout sees it (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Detail {
    /// [`Fnv64::OFFSET`]: nothing was folded.
    Empty,
    /// [`one_target`] of a target below 256.
    One(u8),
    /// Any other value.
    Word(u64),
}

impl Detail {
    /// Classifies `detail` by inverting [`one_target`].
    fn of(detail: u64) -> Self {
        if detail == Fnv64::OFFSET {
            return Detail::Empty;
        }
        match u8::try_from(detail.wrapping_mul(PRIME_8_INVERSE) ^ Fnv64::OFFSET) {
            Ok(c) => Detail::One(c),
            Err(_) => Detail::Word(detail),
        }
    }

    fn word(self) -> u64 {
        match self {
            Detail::Empty => Fnv64::OFFSET,
            Detail::One(c) => one_target(c),
            Detail::Word(word) => word,
        }
    }
}

/// What the encoder reads of one record beside its `seq` and `shard`: a
/// captured [`OutcomeRecord`], or the [`Outcome`] it would capture, read in
/// place so that the common request is never captured or folded.  Both
/// give the same bytes for the same outcome.
pub(crate) trait View: Copy {
    /// The five flags, in the tag's bit order.
    fn flags(self) -> u8;
    /// `attempts`, `invalidations`, `forced_evictions` and
    /// `forced_invalidations`.
    fn counts(self) -> [u32; 4];
    /// `detail`, classified.
    fn detail(self) -> Detail;
}

impl View for &OutcomeRecord {
    #[inline]
    fn flags(self) -> u8 {
        pack_flags([
            self.hit,
            self.allocated,
            self.failed,
            self.invalidated_all,
            self.removed_entry,
        ])
    }

    #[inline]
    fn counts(self) -> [u32; 4] {
        [
            self.attempts,
            self.invalidations,
            self.forced_evictions,
            self.forced_invalidations,
        ]
    }

    #[inline]
    fn detail(self) -> Detail {
        Detail::of(self.detail)
    }
}

impl View for &Outcome {
    #[inline]
    fn flags(self) -> u8 {
        pack_flags([
            self.hit(),
            self.allocated_new_entry(),
            self.insertion_failed(),
            self.invalidated_all(),
            self.removed_entry(),
        ])
    }

    #[inline]
    fn counts(self) -> [u32; 4] {
        [
            self.insertion_attempts(),
            self.invalidate().len() as u32,
            self.forced_eviction_count() as u32,
            self.forced_invalidation_count() as u32,
        ]
    }

    /// Nothing and one small target are classified without folding; any
    /// other content is folded as [`OutcomeRecord::capture`] folds it.
    #[inline]
    fn detail(self) -> Detail {
        match (self.invalidate(), self.forced_eviction_count()) {
            ([], 0) => Detail::Empty,
            ([only], 0) if only.raw() < 0x100 => Detail::One(only.raw() as u8),
            _ => Detail::of(fold_detail(self)),
        }
    }
}

/// The chain's multiplier and starting state (module docs).
const CHAIN_MULTIPLIER: u64 = 0xd6e8_feb8_6659_fd93;
const CHAIN_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Advances the digest chain by one word.
#[inline]
fn chain_step(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(CHAIN_MULTIPLIER)
}

/// The digest of a byte stream fed in pieces (module docs): each word is
/// chained as it completes, and the bytes of an incomplete one are held
/// until the next piece or [`Digest::finish`].
#[derive(Clone, PartialEq, Eq)]
struct Digest {
    state: u64,
    held: [u8; 8],
    held_len: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: CHAIN_SEED,
            held: [0; 8],
            held_len: 0,
        }
    }
}

impl Digest {
    fn feed(&mut self, mut bytes: &[u8]) {
        if self.held_len > 0 {
            let take = bytes.len().min(8 - self.held_len);
            let (head, rest) = bytes.split_at(take);
            self.held[self.held_len..self.held_len + take].copy_from_slice(head);
            self.held_len += take;
            bytes = rest;
            if self.held_len < 8 {
                return;
            }
            self.state = chain_step(self.state, u64::from_le_bytes(self.held));
            self.held_len = 0;
        }
        while let Some((word, rest)) = bytes.split_first_chunk() {
            self.state = chain_step(self.state, u64::from_le_bytes(*word));
            bytes = rest;
        }
        self.held[..bytes.len()].copy_from_slice(bytes);
        self.held_len = bytes.len();
    }

    /// The digest of the bytes fed, which encode `records` records.
    fn finish(mut self, records: usize) -> u64 {
        if self.held_len > 0 {
            self.held[self.held_len..].fill(0);
            self.state = chain_step(self.state, u64::from_le_bytes(self.held));
        }
        chain_step(self.state, records as u64)
    }
}

/// Digest of an outcome log in sequence order (see the module docs for the
/// definition).  Takes a slice, a `Vec` or an [`OutcomeLog`] alike, and
/// encodes the records it is given, so a stored log is decoded and
/// re-encoded on the way.
///
/// Two configurations of the service (any worker count over the same shard
/// count) produce the same digest iff their merged outcome logs are
/// identical record-for-record; `tests/contracts.rs` pins eight serial runs'
/// digests as literals.
#[must_use]
pub fn digest_outcomes(records: impl IntoIterator<Item: Borrow<OutcomeRecord>>) -> u64 {
    let mut log = OutcomeLog::default();
    for record in records {
        let record = record.borrow();
        log.push(record.seq, record.shard, record);
        // Only the digest is wanted: a chunk is dropped once it is hashed.
        log.sealed.clear();
    }
    log.digest()
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
    /// The stored bytes of a record: `tag` already holds its flags and
    /// has-detail bit, `counts` is `None` when they are implied (module
    /// docs).  Kept out of line: the common record never comes here.
    #[inline(never)]
    fn record(tag: u8, shard: u32, delta: u64, counts: Option<[u32; 4]>, detail: Detail) -> Self {
        let mut encoded = Encoded {
            bytes: [0; MAX_RECORD],
            len: 0,
        };
        let counted = if counts.is_some() { HAS_COUNTS } else { 0 };
        let stepped = if delta == 1 { 0 } else { HAS_DELTA };
        encoded.byte(tag | counted | stepped);
        encoded.varint(u64::from(shard));
        if delta != 1 {
            encoded.varint(delta);
        }
        counts
            .into_iter()
            .flatten()
            .for_each(|count| encoded.varint(u64::from(count)));
        match (counts, detail) {
            (_, Detail::Empty) => {}
            (None, Detail::One(c)) => encoded.byte(c),
            _ => encoded.word(detail.word()),
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
/// docs: 2 bytes a quiet record, 3 with one small invalidation target,
/// where the records themselves take 48.  Iterating decodes the records,
/// by value, in the order they were stored.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OutcomeLog {
    /// The full chunks, in order.
    sealed: Vec<Vec<u8>>,
    /// The digest of the sealed chunks' bytes, taken as each was sealed.
    hashed: Digest,
    /// The chunk records go into: given a capacity of [`CHUNK`] bytes at
    /// the first record that needs it, and never grown past it.
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

    /// Appends the record of request `seq` on shard `shard` in the stored
    /// layout.  The common record — the next `seq`, implied counts, a
    /// one-byte shard — is written as two or three fixed bytes after one
    /// space check; any other is built field by field first.  Both write
    /// the same bytes for the same record, whichever view it comes as.
    #[inline]
    fn push(&mut self, seq: u64, shard: u32, record: impl View) {
        let delta = seq.wrapping_sub(self.last_seq);
        let [attempts, invalidations, forced_evictions, forced_invalidations] = record.counts();
        let detail = record.detail();
        let flags = record.flags();
        let (has_detail, one_invalidation) = match detail {
            Detail::Empty => (false, Some(0)),
            Detail::One(_) => (true, Some(1)),
            Detail::Word(_) => (true, None),
        };
        let implied = one_invalidation == Some(invalidations)
            && (attempts ^ u32::from(flags >> 1 & 1)) | forced_evictions | forced_invalidations
                == 0;
        let tag = flags | (u8::from(has_detail) * HAS_DETAIL);
        if delta == 1 && implied && shard < 0x80 {
            match detail {
                Detail::One(c) => self.room(3).extend_from_slice(&[tag, shard as u8, c]),
                _ => self.room(2).extend_from_slice(&[tag, shard as u8]),
            }
        } else {
            let counts = [
                attempts,
                invalidations,
                forced_evictions,
                forced_invalidations,
            ];
            let counts = if implied { None } else { Some(counts) };
            let encoded = Encoded::record(tag, shard, delta, counts, detail);
            self.room(encoded.len)
                .extend_from_slice(&encoded.bytes[..encoded.len]);
        }
        self.last_seq = seq;
        self.len += 1;
    }

    /// The open chunk, with room for `need` more bytes.
    #[inline]
    fn room(&mut self, need: usize) -> &mut Vec<u8> {
        if self.open.capacity() - self.open.len() < need {
            self.make_room(need);
        }
        &mut self.open
    }

    /// Where a chunk is cut depends on its length alone: an open chunk
    /// with room for `need` more of its [`CHUNK`] bytes is given the
    /// capacity it lacks (a fresh log's first chunk has none, a clone's
    /// has no spare), a fuller one is sealed, hashed and the next one
    /// opened.
    #[cold]
    fn make_room(&mut self, need: usize) {
        if self.open.len() + need <= CHUNK {
            self.open.reserve_exact(CHUNK - self.open.len());
            return;
        }
        let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
        self.hashed.feed(&full);
        self.sealed.push(full);
    }

    /// [`digest_outcomes`] of the records stored, from their bytes: the
    /// sealed chunks' digest carried on over the open chunk.
    fn digest(&self) -> u64 {
        let mut digest = self.hashed.clone();
        digest.feed(&self.open);
        digest.finish(self.len)
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
        let ([attempts, invalidations, forced_evictions, forced_invalidations], detail) =
            if tag & HAS_COUNTS != 0 {
                let counts = [
                    fields.varint()?,
                    fields.varint()?,
                    fields.varint()?,
                    fields.varint()?,
                ];
                let detail = if has_detail {
                    fields.word()?
                } else {
                    Fnv64::OFFSET
                };
                (counts, detail)
            } else if has_detail {
                ([u64::from(flag(1)), 1, 0, 0], one_target(fields.byte()?))
            } else {
                ([u64::from(flag(1)), 0, 0, 0], Fnv64::OFFSET)
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

/// Checks that `seq`, which `worker` logged, comes strictly after `last`,
/// the `seq` accepted before it, and then makes it `last`.  Every record
/// enters a log through here, whether a worker pushes it or the merge
/// emits it.
#[inline]
fn accept(last: &mut Option<u64>, worker: usize, seq: u64) -> Result<(), LogOrderError> {
    if let Some(after) = last.filter(|&last| seq <= last) {
        return Err(LogOrderError { worker, seq, after });
    }
    *last = Some(seq);
    Ok(())
}

/// One worker's outcome log.  [`WorkerLog::push`] is the only way in, so
/// the log always knows whether it is still strictly ascending in `seq` —
/// which is what lets [`reassemble`] move a lone log without another pass
/// over it.
pub(crate) struct WorkerLog {
    worker: usize,
    log: OutcomeLog,
    /// The last `seq` accepted.
    last: Option<u64>,
    /// The first record pushed out of order; the log is refused by
    /// [`reassemble`].
    disorder: Option<LogOrderError>,
}

impl WorkerLog {
    /// The empty log of worker `worker`.
    pub(crate) fn new(worker: usize) -> Self {
        WorkerLog {
            worker,
            log: OutcomeLog::default(),
            last: None,
            disorder: None,
        }
    }

    /// Appends the record of request `seq` on global shard `shard`,
    /// checking it against its predecessor; `record` is the request's
    /// [`Outcome`], read in place, or its captured [`OutcomeRecord`].
    #[inline]
    pub(crate) fn push(&mut self, seq: u64, shard: u32, record: impl View) {
        if let Err(broken) = accept(&mut self.last, self.worker, seq) {
            self.disorder.get_or_insert(broken);
        }
        self.log.push(seq, shard, record);
    }

    /// Worker `worker`'s log of `records`, pushed in the order given.
    #[cfg(test)]
    pub(crate) fn of(worker: usize, records: impl IntoIterator<Item = OutcomeRecord>) -> Self {
        let mut log = WorkerLog::new(worker);
        for record in records {
            log.push(record.seq, record.shard, &record);
        }
        log
    }
}

/// Reassembles per-worker outcome logs — each ascending in `seq` because a
/// worker applies its FIFO queue in order — into the one sequence-ordered
/// log, and returns it with its [`digest_outcomes`] value, hashed from its
/// bytes.
///
/// When at most one log holds records (every serial run, every one-worker
/// run) it is moved out untouched: it was order-checked as it grew, and
/// its sealed chunks were hashed as they filled.  Otherwise the logs are
/// decoded and k-way merged into one freshly encoded log, each record
/// order-checked by the same [`accept`] as it is emitted.  `k` is the
/// worker count, a handful, so the smallest head is found by scanning
/// them.
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
            None => {
                let digest = log.log.digest();
                Ok((log.log, digest))
            }
        };
    }

    let mut merged = OutcomeLog::default();
    let mut last = None;
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
        accept(&mut last, *worker, head.seq)?;
        merged.push(head.seq, head.shard, &*head);
        match rest.next() {
            Some(next) => *head = next,
            None => {
                runs.remove(lead);
            }
        }
    }
    let digest = merged.digest();
    Ok((merged, digest))
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

    /// Appends a captured record to `log`.
    fn put(log: &mut OutcomeLog, record: &OutcomeRecord) {
        log.push(record.seq, record.shard, record);
    }

    /// `records` stored the way a worker stores them.
    fn stored(records: &[OutcomeRecord]) -> OutcomeLog {
        let mut log = OutcomeLog::default();
        records.iter().for_each(|record| put(&mut log, record));
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
                put(&mut log, record);
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
            detail: one_target(7),
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
        // One invalidation whose `detail` is no one small target's fold
        // keeps its counts and the word.
        let invalidating_elsewhere = OutcomeRecord {
            seq: 5,
            detail: 0x1234,
            ..invalidating
        };
        assert_eq!(
            stored_sizes(&[
                allocated,
                invalidating,
                unallocated_attempt,
                allocated_without_attempts,
                invalidating_elsewhere,
            ]),
            [2, 3, 6, 6, 14]
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
        // A one-target fold stands for its byte only beside the one
        // invalidation it implies.
        let uncounted_one_target = OutcomeRecord {
            seq: 3,
            detail: one_target(5),
            ..QUIET
        };
        assert_eq!(
            stored_sizes(&[
                counted_but_empty,
                uncounted_but_folded,
                zero,
                uncounted_one_target
            ]),
            [7, 14, 14, 14]
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
        let decoded: Vec<_> = log.iter().collect();
        assert_eq!(decoded, records);
        // Hashed chunk by chunk as they were sealed, the bytes digest as
        // their decoded records encoded afresh.
        assert_eq!(log.digest(), digest_outcomes(&decoded));

        let (lone, digest) =
            reassemble(vec![WorkerLog::of(0, records.iter().copied())]).expect("an ascending run");
        assert_eq!(lone, log);
        assert_eq!(digest, digest_outcomes(&decoded));

        let mut workers = [WorkerLog::new(0), WorkerLog::new(1)];
        for record in &records {
            workers[(rng.next_u64() % 2) as usize].push(record.seq, record.shard, record);
        }
        let (merged, digest) = reassemble(workers.into()).expect("ascending, disjoint runs");
        assert_eq!(merged, log, "merged, the log is the same bytes");
        assert_eq!(merged.stored_bytes(), log.stored_bytes());
        assert_eq!(digest, digest_outcomes(merged.iter().collect::<Vec<_>>()));
    }

    #[test]
    fn the_digest_does_not_see_where_the_bytes_are_cut() {
        let bytes: Vec<u8> = (0..100u8).map(|at| at.wrapping_mul(37)).collect();
        let mut whole = Digest::default();
        whole.feed(&bytes);
        let whole = whole.finish(3);
        let mut rng = SplitMix64::new(0xc07);
        for _ in 0..200 {
            let mut pieces = Digest::default();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (piece, tail) =
                    rest.split_at((rng.next_u64() % 12) as usize % (rest.len() + 1));
                pieces.feed(piece);
                rest = tail;
            }
            assert_eq!(pieces.finish(3), whole);
        }
        // The count and the padded last word each reach it.
        let mut other = Digest::default();
        other.feed(&bytes);
        assert_ne!(other.finish(4), whole);
        let mut whole_words = Digest::default();
        whole_words.feed(&bytes[..96]);
        assert_ne!(whole_words.finish(3), whole);
    }

    #[test]
    fn records_pushed_into_a_clone_equal_those_pushed_into_a_fresh_log() {
        let records = dense_log(&mut SplitMix64::new(0xc10e), 30_000);
        let (first, rest) = records.split_at(3_000);
        let half_full = stored(first);
        assert!(half_full.sealed.is_empty());
        assert!((CHUNK / 4..CHUNK * 3 / 4).contains(&half_full.open.len()));
        let mut clone = half_full.clone();
        rest.iter().for_each(|record| put(&mut clone, record));
        assert_eq!(clone, stored(&records));
        assert_eq!(clone.digest(), digest_outcomes(&records));
    }

    #[test]
    fn one_target_details_invert_and_never_look_empty() {
        assert_eq!(PRIME_8.wrapping_mul(PRIME_8_INVERSE), 1);
        for c in 0..=u8::MAX {
            let detail = Fnv64::new().fold(u64::from(c)).finish();
            assert_eq!(one_target(c), detail, "target {c}");
            assert_eq!(Detail::of(detail), Detail::One(c), "target {c}");
            assert_ne!(detail, Fnv64::OFFSET, "target {c}");
        }
        for c in [256, 257, 1023, 1 << 16, u64::from(u32::MAX)] {
            let detail = Fnv64::new().fold(c).finish();
            assert_eq!(Detail::of(detail), Detail::Word(detail), "target {c}");
        }
    }

    /// An outcome with the flags in `bits`, an allocation of `attempts`
    /// when bit 1 is set, semantic `targets` and one forced eviction per
    /// entry of `evictions`.
    fn outcome(bits: u64, attempts: u32, targets: &[u32], evictions: &[&[u32]]) -> Outcome {
        let mut out = Outcome::new();
        out.set_hit(bits & 1 == 1);
        if bits >> 1 & 1 == 1 {
            out.record_allocation(attempts);
        }
        if bits >> 2 & 1 == 1 {
            out.record_insertion_failure();
        }
        if bits >> 3 & 1 == 1 {
            out.record_invalidate_all();
        }
        if bits >> 4 & 1 == 1 {
            out.record_removed_entry();
        }
        targets
            .iter()
            .for_each(|&cache| out.push_invalidate(CacheId::new(cache)));
        for (at, victims) in evictions.iter().enumerate() {
            let line = LineAddr::from_block_number(0x5000 + at as u64);
            victims
                .iter()
                .for_each(|&cache| out.push_forced_eviction_one(line, CacheId::new(cache)));
        }
        out
    }

    #[test]
    fn the_direct_path_writes_the_bytes_of_the_captured_record() {
        // Each edge of the one-target form, then random outcomes and the
        // outcomes of a real directory tracking 1024 caches.
        let mut outcomes = vec![
            outcome(0, 0, &[0], &[]),
            outcome(0b1000, 0, &[127], &[]),
            outcome(0b1001, 0, &[255], &[]),
            outcome(0b1000, 0, &[256], &[]),
            outcome(0b1000, 0, &[1023], &[]),
            outcome(0b1000, 0, &[3, 4], &[]),
            outcome(0b10010, 1, &[7], &[&[9]]),
            outcome(0b00010, 1, &[], &[&[255, 256]]),
            outcome(0b00110, 32, &[], &[&[1], &[]]),
            outcome(0b00010, 3, &[5], &[]),
            outcome(0b00010, 0, &[5], &[]),
            outcome(0b00010, 1, &[5], &[]),
            outcome(0b00011, 1, &[], &[]),
            outcome(0b10000, 0, &[], &[]),
        ];
        let mut rng = SplitMix64::new(0xd1_4ec7);
        let target = |rng: &mut SplitMix64| match rng.next_u64() % 6 {
            0 => 0,
            1 => 127,
            2 => 255,
            3 => 256,
            _ => (rng.next_u64() % 1024) as u32,
        };
        for _ in 0..3_000 {
            let bits = rng.next_u64();
            let targets: Vec<u32> = (0..[0, 1, 1, 1, 2, 3][(bits >> 8) as usize % 6])
                .map(|_| target(&mut rng))
                .collect();
            let victims: Vec<u32> = (0..(bits >> 12) % 3).map(|_| target(&mut rng)).collect();
            let evictions: &[&[u32]] = match (bits >> 16) % 8 {
                0 => &[&victims],
                1 => &[&victims, &[]],
                _ => &[],
            };
            let attempts = [1, 1, 1, 0, 2, 32][(bits >> 20) as usize % 6];
            outcomes.push(outcome(bits, attempts, &targets, evictions));
        }
        let registry = ccd_cuckoo::standard_registry();
        let mut directory = registry
            .build_str("cuckoo-4x16-c1024")
            .expect("a small 1024-cache directory builds");
        for _ in 0..3_000 {
            let line = LineAddr::from_block_number(rng.next_u64() % 128);
            let cache = CacheId::new(target(&mut rng));
            let op = match rng.next_u64() % 8 {
                0..=3 => DirectoryOp::AddSharer { line, cache },
                4 | 5 => DirectoryOp::SetExclusive { line, cache },
                6 => DirectoryOp::RemoveSharer { line, cache },
                _ => DirectoryOp::RemoveEntry { line },
            };
            let mut out = Outcome::new();
            directory.apply(op, &mut out);
            outcomes.push(out);
        }

        // Mostly the next `seq`; now and then a gap, a step back or a wide
        // shard.  The direct side goes through the service's own call.
        let (mut direct, mut captured) = (WorkerLog::new(0), WorkerLog::new(0));
        let (mut invalidations, mut forced_invalidations) = (0, 0);
        let mut records = Vec::new();
        let mut seq = 0u64;
        for (at, out) in outcomes.iter().enumerate() {
            seq = match rng.next_u64() % 64 {
                0 => seq + 2 + rng.next_u64() % 100_000,
                1 => seq.saturating_sub(rng.next_u64() % 3),
                _ => seq + 1,
            };
            let shard = match rng.next_u64() % 16 {
                0 => 128 + (rng.next_u64() % 1000) as u32,
                _ => (rng.next_u64() % 8) as u32,
            };
            let record = OutcomeRecord::capture(seq, shard, out);
            crate::service::absorb_into(
                &mut direct,
                &mut invalidations,
                &mut forced_invalidations,
                seq,
                shard,
                out,
                true,
            );
            captured.push(seq, shard, &record);
            records.push(record);
            assert_eq!(
                direct.log.stored_bytes(),
                captured.log.stored_bytes(),
                "outcome {at}: {out:?}"
            );
        }
        assert_eq!(direct.log, captured.log, "byte for byte");
        assert_eq!(direct.log.iter().collect::<Vec<_>>(), records);
        assert!(direct.disorder.is_some(), "a step back was pushed");
        assert_eq!(direct.disorder, captured.disorder);
        let forms = |view: fn(&OutcomeRecord) -> bool| records.iter().filter(|r| view(r)).count();
        assert!(forms(|r| matches!(Detail::of(r.detail), Detail::One(_))) > 500);
        assert!(
            forms(|r| r.invalidations == 1 && matches!(Detail::of(r.detail), Detail::Word(_)))
                > 100
        );
        assert!(forms(|r| r.forced_evictions > 0 && r.forced_invalidations > 0) > 500);
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
        }
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
        let log = dense_log(&mut SplitMix64::new(0xd1_6e57), 64);
        let full = digest_outcomes(&log);
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
            OutcomeRecord {
                seq: 0x100_0000_0000,
                shard: 2,
                invalidations: 1,
                hit: true,
                invalidated_all: true,
                detail: Fnv64::new().fold(0x2a).finish(),
                ..QUIET
            },
        ];
        // Literals computed once outside this crate, from the module docs'
        // definition written out in another language (which finds a
        // one-target byte by trying all 256): every pinned service digest
        // rests on them.  58 bytes, so the last word is padded.  Stored,
        // the records digest the same.
        let kept = stored(&log);
        assert_eq!(kept.stored_bytes(), 58);
        assert_eq!(kept.digest(), 0x38f7_4b04_62ec_c035);
        assert_eq!(digest_outcomes(log), 0x38f7_4b04_62ec_c035);
        assert_eq!(digest_outcomes(&kept), 0x38f7_4b04_62ec_c035);
        // An empty log hashes no byte, only its count of zero.
        assert_eq!(
            digest_outcomes(&[] as &[OutcomeRecord]),
            0x59fb_5215_7d1c_0b2c
        );
        assert_eq!(
            digest_outcomes(&OutcomeLog::default()),
            0x59fb_5215_7d1c_0b2c
        );
    }

    /// A dense log `0..len` whose records differ in every digested field;
    /// a quarter of them are in the one-target form.
    fn dense_log(rng: &mut SplitMix64, len: u64) -> Vec<OutcomeRecord> {
        (0..len)
            .map(|seq| {
                let bits = rng.next_u64();
                let record = OutcomeRecord {
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
                };
                if bits >> 45 & 3 != 0 {
                    return record;
                }
                OutcomeRecord {
                    attempts: u32::from(record.allocated),
                    invalidations: 1,
                    forced_evictions: 0,
                    forced_invalidations: 0,
                    detail: one_target((bits >> 48) as u8),
                    ..record
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
                logs[run].push(record.seq, record.shard, record);
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
