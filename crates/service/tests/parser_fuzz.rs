//! Seeded parser fuzz: the workspace's two clause grammars (`obs-…`,
//! scenario workloads), the two spec grammars built on
//! them (`DirectorySpec`, `WorkloadSpec`), and the CCDT trace reader.
//!
//! No input may panic, every accepted value's canonical label must
//! re-parse to an equal value, and every rejection by a clause or spec
//! grammar must name a token of its input.  Inputs are the valid corpus
//! itself, then mutations of it — numbers swapped for the edges where
//! parsers truncate or overflow, characters inserted and deleted, clauses
//! repeated, tails cut — and random text, all from one seeded
//! `ccd_common::rng` stream per grammar, so a failure names its input and
//! replays exactly.

use ccd_common::rng::{Rng64, Xoshiro256};
use ccd_common::ConfigError;
use ccd_directory::DirectorySpec;
use ccd_service::ObsConfig;
use ccd_workloads::{MemRef, ScenarioSpec, TraceGenerator, TraceReader, TraceWriter};
use ccd_workloads::{WorkloadProfile, WorkloadSpec};
use std::fmt::Debug;
use std::io::{self, Cursor};

const ROUNDS: usize = 20_000;

/// Numbers a mutation splices in: the edges of `u32`, `u64`, `f64` and of
/// the grammars' own ranges.
const EDGES: &str = "0 1 2 3 8 16 17 100 101 1024 1073741824 2147483648 4294967295 4294967296 \
                     9007199254740993 18446744073709551615 18446744073709551616 0.5 1.0 1e308 \
                     1e400 NaN inf";

/// What mutations insert: the grammars' punctuation and letters, brackets,
/// quotes and escapes no grammar takes, and a multi-byte scalar.
const ALPHABET: &str = "-@:.+wcebmsx019{}[]\",\\ué \n";

/// Whether a rejection names a token of `input`: a parse error quotes a
/// non-empty piece of it in backticks, and a bound error's value is one of
/// its numbers.  An input that is all whitespace has nothing to name.
fn names_a_token(input: &str, err: &ConfigError) -> bool {
    match err {
        _ if input.trim().is_empty() => true,
        ConfigError::Parse { what } => what
            .split('`')
            .skip(1)
            .step_by(2)
            .any(|token| !token.is_empty() && input.contains(token)),
        ConfigError::TooLarge { value, .. } | ConfigError::TooSmall { value, .. } => {
            input.contains(&value.to_string())
        }
        _ => false,
    }
}

fn pick<T: Copy>(rng: &mut Xoshiro256, items: &[T]) -> T {
    *rng.choose(items).expect("a non-empty table")
}

/// Fuzz input `round`: a corpus entry, later a mutation of one, and one
/// round in four a corpus prefix followed by random text.
fn input(rng: &mut Xoshiro256, corpus: &[&str], round: usize) -> String {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let edges: Vec<&str> = EDGES.split(' ').collect();
    if let Some(base) = corpus.get(round) {
        return base.to_string();
    }
    let base = pick(rng, corpus);
    let mut text: Vec<char> = base.chars().collect();
    if rng.next_below(4) == 0 {
        text.truncate(base.find('-').unwrap_or(base.len()));
        text.extend((0..rng.next_below(24)).map(|_| pick(rng, &alphabet)));
    }
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(text.len() as u64 + 1) as usize;
        match rng.next_below(5) {
            0 => {
                // The digits-and-dots run around `at` becomes an edge.
                let number = |c: &char| c.is_ascii_digit() || *c == '.';
                let start = text[..at]
                    .iter()
                    .rposition(|c| !number(c))
                    .map_or(0, |i| i + 1);
                let end = text[at..]
                    .iter()
                    .position(|c| !number(c))
                    .map_or(text.len(), |i| at + i);
                text.splice(start..end, pick(rng, &edges).chars());
            }
            1 => text.insert(at, pick(rng, &alphabet)),
            2 if at < text.len() => {
                text.remove(at);
            }
            3 => {
                let clauses: Vec<&str> = pick(rng, corpus).split('-').skip(1).collect();
                if let Some(clause) = rng.choose(&clauses) {
                    text.extend(format!("-{clause}").chars());
                }
            }
            _ => text.truncate(at),
        }
    }
    text.into_iter().collect()
}

/// Feeds `ROUNDS` inputs to `parse`, seeded by the corpus, holds every
/// accepted value to its `label` and every rejection to `explains`.
fn fuzz<T: PartialEq + Debug, E: Debug>(
    corpus: &[&str],
    parse: fn(&str) -> Result<T, E>,
    label: fn(&T) -> String,
    explains: fn(&str, &E) -> bool,
) {
    let mut rng = Xoshiro256::new(corpus.concat().len() as u64);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let text = input(&mut rng, corpus, round);
        let parsed = std::panic::catch_unwind(|| parse(&text))
            .unwrap_or_else(|_| panic!("parsing {text:?} panicked"));
        match parsed {
            Ok(value) => {
                accepted += 1;
                let canonical = label(&value);
                let again = parse(&canonical).ok();
                assert_eq!(
                    again.as_ref(),
                    Some(&value),
                    "{text:?} labels as {canonical:?}"
                );
            }
            Err(err) => assert!(explains(&text, &err), "{text:?}: {err:?}"),
        }
    }
    // The mutations must leave enough inputs valid to test the labels.
    assert!(
        accepted >= ROUNDS / 50,
        "{corpus:?}: {accepted} of {ROUNDS} accepted"
    );
}

#[test]
fn the_two_clause_grammars_never_panic_name_what_they_reject_and_round_trip() {
    fuzz(
        &["obs", "obs-ring4096-spans", "obs-spans-ring16"],
        ObsConfig::parse,
        |config| config.label().to_string(),
        names_a_token,
    );
    fuzz(
        &[
            "readmostly",
            "migratory-16c-zipf0.9",
            "falseshare-b128-w0.8",
            "prodcons-b4096-e32",
            "stream-b1024-w0.25",
        ],
        |s| s.parse::<ScenarioSpec>(),
        ToString::to_string,
        names_a_token,
    );
}

#[test]
fn the_two_spec_grammars_never_panic_name_what_they_reject_and_round_trip() {
    fuzz(
        &[
            "cuckoo-4x1024-skew",
            "sharded4:duptag-16x512-c16@coarse",
            "cuckoo-4x1024-strong-c16",
            "in-cache-16x64@hier",
            "skewed-4x256-strong-c64@limited",
        ],
        |s| s.parse::<DirectorySpec>(),
        ToString::to_string,
        names_a_token,
    );
    // Multiply-shift is not a hash family the paper evaluates: its tokens
    // are unknown modifiers, named in the error.
    for (input, token) in [
        ("cuckoo-4x1024-ms-c16", "`ms`"),
        ("cuckoo-4x1024-mshift", "`mshift`"),
    ] {
        let err = input.parse::<DirectorySpec>().expect_err(input);
        assert!(err.to_string().contains(token), "{input}: {err}");
    }
    fuzz(
        &[
            "oracle",
            "Ocean",
            "migratory-16c-zipf0.9",
            "prodcons-b4096-e32",
            "replay:results/oracle.ccdt",
        ],
        |s| s.parse::<WorkloadSpec>(),
        WorkloadSpec::label,
        names_a_token,
    );
}

/// `bytes` read as a CCDT trace, by iteration and by `read_all`: neither
/// may panic, iteration yields nothing after its first error, and both ways
/// end alike — in every record, or in the one same error.  Every record
/// read lies in the 48-bit physical address space a directory keys.
fn read_ccdt(bytes: &[u8]) -> io::Result<Vec<MemRef>> {
    let read = || {
        let mut reader = TraceReader::new(bytes)?;
        let mut records = Vec::new();
        let end = reader
            .by_ref()
            .find_map(|item| item.map(|r| records.push(r)).err());
        assert!(reader.next().is_none(), "an item after {end:?}");
        let all = TraceReader::new(bytes)?.read_all();
        match end {
            Some(err) => {
                let again = all.expect_err("read_all accepted what iteration rejected");
                assert_eq!(again.to_string(), err.to_string());
                Err(err)
            }
            None => {
                assert_eq!(all.ok().as_ref(), Some(&records));
                assert!(records
                    .iter()
                    .all(|r| r.addr.raw() >> ccd_common::PHYSICAL_ADDRESS_BITS == 0));
                Ok(records)
            }
        }
    };
    std::panic::catch_unwind(read).unwrap_or_else(|_| panic!("reading {bytes:?} panicked"))
}

#[test]
fn the_ccdt_reader_turns_any_bytes_into_records_or_one_error() {
    let refs: Vec<MemRef> = TraceGenerator::new(WorkloadProfile::oracle(), 4, 3)
        .take(64)
        .collect();
    let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 4).unwrap();
    refs.iter().for_each(|&r| writer.record(r).unwrap());
    let valid = writer.finish().unwrap().0.into_inner();
    assert_eq!(read_ccdt(&valid).unwrap(), refs);

    // Every cut of the recording promises records it lacks.
    for len in 0..valid.len() {
        assert!(read_ccdt(&valid[..len]).is_err(), "a cut at {len} read");
    }
    // Every single-bit flip, of the header and of each record.
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = read_ccdt(&flipped);
    }
    // A header that claims `u64::MAX` records: `read_all` reserves no more
    // than its clamp and reports the truncation.
    let mut endless = valid.clone();
    endless[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(read_ccdt(&endless).is_err());
    // Random bytes, alone and after a valid header.
    let mut rng = Xoshiro256::new(0xCCD7);
    for round in 0..ROUNDS {
        let mut bytes = if round % 2 == 0 {
            valid[..18].to_vec()
        } else {
            Vec::new()
        };
        bytes.extend((0..rng.next_below(48)).map(|_| rng.next_u64() as u8));
        let _ = read_ccdt(&bytes);
    }
}
