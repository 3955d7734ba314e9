//! Seeded parser fuzz: the workspace's one JSON parser and its four
//! clause grammars (`faults-…`, `resize-…`, `obs-…`, scenario workloads).
//!
//! No input may panic, and every accepted value's canonical label must
//! re-parse to an equal value.  Inputs are the valid corpus itself, then
//! mutations of it — numbers swapped for the edges where parsers truncate
//! or overflow, characters inserted and deleted, clauses repeated, tails
//! cut — and random text, all from one seeded `ccd_common::rng` stream per
//! grammar, so a failure names its input and replays exactly.

use ccd_common::json::{self, Json};
use ccd_common::rng::{Rng64, Xoshiro256};
use ccd_obs::ObsConfig;
use ccd_service::{FaultPlan, ResizePolicy};
use ccd_workloads::ScenarioSpec;
use std::fmt::Debug;

const ROUNDS: usize = 20_000;

/// Numbers a mutation splices in: the edges of `u32`, `u64`, `f64` and of
/// the grammars' own ranges.
const EDGES: &str = "0 1 2 3 8 16 17 100 101 1024 1073741824 2147483648 4294967295 4294967296 \
                     9007199254740993 18446744073709551615 18446744073709551616 0.5 1.0 1e308 \
                     1e400 NaN inf";

/// What mutations insert: the grammars' punctuation and letters, JSON's
/// structure, and a multi-byte scalar.
const ALPHABET: &str = "-@:.+wcebmsx019{}[]\",\\ué \n";

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
        text.truncate(base.find(['-', '{', '[']).unwrap_or(base.len()));
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

/// Feeds `ROUNDS` inputs to `parse`, seeded by the corpus, and holds every
/// accepted value to its `label`.
fn fuzz<T: PartialEq + Debug>(
    corpus: &[&str],
    parse: fn(&str) -> Option<T>,
    label: fn(&T) -> String,
) {
    let mut rng = Xoshiro256::new(corpus.concat().len() as u64);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let text = input(&mut rng, corpus, round);
        let parsed = std::panic::catch_unwind(|| parse(&text))
            .unwrap_or_else(|_| panic!("parsing {text:?} panicked"));
        if let Some(value) = parsed {
            accepted += 1;
            let canonical = label(&value);
            let again = parse(&canonical);
            assert_eq!(
                again.as_ref(),
                Some(&value),
                "{text:?} labels as {canonical:?}"
            );
        }
    }
    // The mutations must leave enough inputs valid to test the labels.
    assert!(
        accepted >= ROUNDS / 50,
        "{corpus:?}: {accepted} of {ROUNDS} accepted"
    );
}

#[test]
fn the_four_clause_grammars_never_panic_and_their_labels_round_trip() {
    fuzz(
        &[
            "faults",
            "faults-seed7-crash@w2:5000-stall@w0:2ms-shed0.01",
            "faults-crash@w1:10-abort@w1:30-stall@w0:1ms-shed0.5",
        ],
        |s| FaultPlan::parse(s).ok(),
        |plan| plan.label().to_string(),
    );
    fuzz(
        &[
            "resize-grow2@75-every256-max4",
            "resize-reway8@60-every128",
            "resize-max2-grow4@100",
        ],
        |s| ResizePolicy::parse(s).ok(),
        |policy| policy.label().to_string(),
    );
    fuzz(
        &["obs", "obs-sig3-ring4096-spans", "obs-spans-sig8-ring16"],
        |s| ObsConfig::parse(s).ok(),
        |config| config.label().to_string(),
    );
    fuzz(
        &[
            "readmostly",
            "migratory-16c-zipf0.9",
            "falseshare-b128-w0.8",
            "prodcons-b4096-e32",
            "stream-b1024-w0.25",
        ],
        |s| s.parse::<ScenarioSpec>().ok(),
        ToString::to_string,
    );
}

/// A document canonicalized by one rendering (`1.0` renders as `1` and
/// reads back as an integer): the canonical value is what must
/// round-trip.  Folded renderings read back alike.
fn canonical_json(text: &str) -> Option<Json> {
    let value = json::parse(text).ok()?;
    let canonical = json::parse(&value.to_pretty()).expect("a rendered document parses");
    assert_eq!(
        json::parse(&value.to_pretty_folded(1)),
        Ok(canonical.clone())
    );
    Some(canonical)
}

#[test]
fn the_json_parser_never_panics_and_its_renderings_round_trip() {
    fuzz(
        &[
            r#"{ "entries": [{ "file": "a.rs", "line": 12, "note": "\"b\" é\/\n" }] }"#,
            r#"{"counters": {"n": 9007199254740993}, "histograms": [{"buckets": [[1, 2]]}]}"#,
            r#"[1, -2.5, 0.001, 1e300, true, false, null, [[[]]], {}, {"a": {"b": ["é"]}}]"#,
        ],
        canonical_json,
        Json::to_pretty,
    );
}
