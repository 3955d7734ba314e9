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

use ccd_common::stats::Fnv64;
use ccd_directory::{DirectoryOp, Outcome};

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
        let attempts = if with_attempts { self.attempts } else { 0 };
        let words = [
            self.seq,
            u64::from(self.shard) | u64::from(attempts) << 32,
            u64::from(self.invalidations) | u64::from(self.forced_evictions) << 32,
            u64::from(self.forced_invalidations) | self.flags() << 32,
            self.detail,
        ];
        let mix = words[0].wrapping_mul(WORD_MULTIPLIERS[0])
            ^ words[1].wrapping_mul(WORD_MULTIPLIERS[1]).rotate_left(13)
            ^ words[2].wrapping_mul(WORD_MULTIPLIERS[2]).rotate_left(26)
            ^ words[3].wrapping_mul(WORD_MULTIPLIERS[3]).rotate_left(39)
            ^ words[4].wrapping_mul(WORD_MULTIPLIERS[4]).rotate_left(52);
        mix ^ mix >> 32
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
fn digest_view(records: &[OutcomeRecord], with_attempts: bool) -> u64 {
    records.iter().fold(CHAIN_SEED, |state, record| {
        chain_step(state, record.mix(with_attempts))
    })
}

/// Digest of an outcome log in sequence order (see the module docs for the
/// definition).
///
/// Two configurations of the service (any worker count over the same shard
/// count) produce the same digest iff their merged outcome logs are
/// identical record-for-record; `BENCH_service.json` records the digest so
/// the golden check pins it.
#[must_use]
pub fn digest_outcomes(records: &[OutcomeRecord]) -> u64 {
    digest_view(records, true)
}

/// Digest of an outcome log's semantic view in sequence order:
/// [`digest_outcomes`] with every record's attempt count read as zero.
#[must_use]
pub fn digest_outcome_semantics(records: &[OutcomeRecord]) -> u64 {
    digest_view(records, false)
}

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

/// One worker's outcome log.  [`OutcomeLog::push`] is the only way in, so
/// the log always knows its own digest and whether it is still strictly
/// ascending in `seq` — which is what lets [`reassemble`] move a lone log
/// without another pass over it.
pub(crate) struct OutcomeLog {
    worker: usize,
    records: Vec<OutcomeRecord>,
    chain: Chain,
    /// The first record pushed out of order; the digest is meaningless
    /// from there on and the log is refused by [`reassemble`].
    disorder: Option<LogOrderError>,
}

impl OutcomeLog {
    /// The empty log of worker `worker`.
    pub(crate) fn new(worker: usize) -> Self {
        OutcomeLog {
            worker,
            records: Vec::new(),
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
        self.records.push(record);
    }

    /// Worker `worker`'s log of `records`, pushed in the order given.
    #[cfg(test)]
    pub(crate) fn of(worker: usize, records: impl IntoIterator<Item = OutcomeRecord>) -> Self {
        let mut log = OutcomeLog::new(worker);
        records.into_iter().for_each(|record| log.push(record));
        log
    }
}

/// Reassembles per-worker outcome logs — each ascending in `seq` because a
/// worker applies its FIFO queue in order — into the one sequence-ordered
/// log, and returns it with its [`digest_outcomes`] value.
///
/// When at most one log holds records (every serial run, every one-worker
/// run) its `Vec` is moved out untouched and its digest taken as is: the
/// log was order-checked and folded record by record as it grew.  Otherwise
/// the logs are k-way merged into one exactly-sized vector, each record
/// order-checked and folded by the same [`Chain::accept`] as it is emitted
/// (the workers' own partial digests go unused).  `k` is the worker count,
/// a handful, so the smallest head is found by scanning them.
///
/// # Errors
///
/// [`LogOrderError`], naming the worker, when a log is not strictly
/// ascending or a `seq` occurs in two logs.  Nothing is emitted then.
pub(crate) fn reassemble(
    mut logs: Vec<OutcomeLog>,
) -> Result<(Vec<OutcomeRecord>, u64), LogOrderError> {
    logs.retain(|log| !log.records.is_empty());
    if logs.len() <= 1 {
        let log = logs.pop().unwrap_or_else(|| OutcomeLog::new(0));
        return match log.disorder {
            Some(broken) => Err(broken),
            None => Ok((log.records, log.chain.state)),
        };
    }

    let total = logs.iter().map(|log| log.records.len()).sum();
    let mut merged = Vec::with_capacity(total);
    let mut chain = Chain::new();
    // The unfinished logs, each with its worker: never an empty slice.
    let mut runs: Vec<(usize, &[OutcomeRecord])> = logs
        .iter()
        .map(|log| (log.worker, log.records.as_slice()))
        .collect();
    while let Some(lead) = (0..runs.len()).min_by_key(|&at| runs[at].1[0].seq) {
        let (worker, run) = &mut runs[lead];
        chain.accept(*worker, &run[0])?;
        merged.push(run[0]);
        *run = &run[1..];
        if run.is_empty() {
            runs.remove(lead);
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
    fn semantic_digest_masks_attempts_and_nothing_else() {
        let base = OutcomeRecord::capture(0, 0, &sample_outcome());
        let mut cheaper = base;
        cheaper.attempts = 1;
        assert_ne!(digest_outcomes(&[base]), digest_outcomes(&[cheaper]));
        assert_eq!(
            digest_outcome_semantics(&[base]),
            digest_outcome_semantics(&[cheaper]),
            "attempt counts must not enter the semantic view"
        );
        let mut other = base;
        other.invalidations += 1;
        assert_ne!(
            digest_outcome_semantics(&[base]),
            digest_outcome_semantics(&[other]),
            "every other field still must"
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = OutcomeRecord::capture(0, 0, &sample_outcome());
        let b = OutcomeRecord::capture(1, 1, &sample_outcome());
        assert_ne!(digest_outcomes(&[a, b]), digest_outcomes(&[b, a]));
        assert_eq!(digest_outcomes(&[a, b]), digest_outcomes(&[a, b]));
        assert_ne!(digest_outcomes(&[a]), digest_outcomes(&[a, b]));
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
        // Exhaustive over a 64-record log: 293 bits a record, ~19k digests.
        // The semantic view must move with all of them but `attempts`.
        let log = dense_log(&mut SplitMix64::new(0xd1_6e57), 64);
        let (full, semantic) = (digest_outcomes(&log), digest_outcome_semantics(&log));
        let mut flipped = log.clone();
        for at in 0..log.len() {
            for (field, width, flip) in FIELDS {
                for bit in 0..width {
                    flip(&mut flipped[at], bit);
                    assert_ne!(flipped[at], log[at], "{field} bit {bit} did not flip");
                    assert_ne!(
                        digest_outcomes(&flipped),
                        full,
                        "record {at}: {field} bit {bit} does not reach the digest"
                    );
                    assert_eq!(
                        digest_outcome_semantics(&flipped) == semantic,
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
        assert_ne!(
            digest_outcomes(&[log, extra].concat()),
            full,
            "one appended"
        );
        // Appending even the blandest record moves the chain.
        let mut blank = log.to_vec();
        blank.push(OutcomeRecord::capture(64, 0, &Outcome::new()));
        assert_ne!(digest_outcomes(&blank), full);
    }

    #[test]
    fn digests_of_a_fixed_log_are_pinned() {
        let quiet = OutcomeRecord {
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
        let log = [
            OutcomeRecord {
                attempts: 1,
                allocated: true,
                ..quiet
            },
            OutcomeRecord {
                seq: 1,
                shard: 3,
                invalidations: 2,
                hit: true,
                invalidated_all: true,
                detail: 0x0123_4567_89ab_cdef,
                ..quiet
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
                ..quiet
            },
            OutcomeRecord {
                seq: 0xff_ffff_ffff,
                shard: 255,
                invalidations: 1,
                hit: true,
                removed_entry: true,
                detail: 0x100,
                ..quiet
            },
        ];
        // Literals computed once outside this crate, from the module docs'
        // definition written out in another language: every golden file's
        // digest rests on them.
        assert_eq!(digest_outcomes(&log), 0x7f83_1ec3_d240_b651);
        assert_eq!(digest_outcome_semantics(&log), 0x6f4f_498c_707a_9771);
        assert_eq!(digest_outcomes(&[]), 0x2545_f491_4f6c_dd1d);
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
            let mut logs: Vec<OutcomeLog> = (0..workers).map(OutcomeLog::new).collect();
            for record in &reference {
                let run = rng.next_u64() as usize % used.min(workers);
                logs[run].push(*record);
            }
            let non_empty: Vec<_> = logs.iter().filter(|log| !log.records.is_empty()).collect();
            let lone = match non_empty[..] {
                [log] => Some(log.records.as_ptr()),
                _ => None,
            };

            let (merged, digest) = reassemble(logs).expect("ascending, disjoint runs");
            assert_eq!(merged, reference, "case {case}");
            assert_eq!(digest, digest_outcomes(&reference), "case {case}");
            if let Some(buffer) = lone {
                assert_eq!(merged.as_ptr(), buffer, "a lone log is moved, not copied");
            }
        }
    }

    #[test]
    fn reassembly_sizes_the_merged_log_exactly() {
        let mut rng = SplitMix64::new(7);
        let reference = dense_log(&mut rng, 1000);
        let (even, odd): (Vec<_>, Vec<_>) = reference.iter().partition(|r| r.seq % 2 == 0);
        let (merged, _) = reassemble(vec![OutcomeLog::of(0, even), OutcomeLog::of(1, odd)])
            .expect("two ascending runs");
        assert_eq!(merged, reference);
        assert_eq!(merged.capacity(), reference.len());
    }

    #[test]
    fn reassembly_detects_disorder_and_names_the_worker() {
        let mut rng = SplitMix64::new(11);
        let log = dense_log(&mut rng, 8);
        // Every log is built record by record through `push`.
        let pick = |worker, seqs: &[usize]| OutcomeLog::of(worker, seqs.iter().map(|&at| log[at]));

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
        for logs in [Vec::new(), vec![OutcomeLog::new(0), OutcomeLog::new(1)]] {
            let (merged, digest) = reassemble(logs).expect("nothing to disorder");
            assert!(merged.is_empty());
            assert_eq!(digest, digest_outcomes(&[]));
        }
    }
}
