//! Differential fuzz harness (ARCHITECTURE.md Contract #6).
//!
//! Each fuzz case draws a random directory spec (geometry × hash family ×
//! sharer format) and a random workload, then checks the service's
//! determinism contract differentially: serial reference ≡ every legal
//! worker count ([`ServiceReport::semantics`]).
//!
//! `fuzz_at_a_fixed_seed` pins one reproducible sweep; `fuzz_burst` draws
//! a fresh seed per run (override with `CCD_FUZZ_SEED`, printed on entry so
//! any failure is replayable).
//!
//! [`ServiceReport::semantics`]: ccd_service::ServiceReport::semantics

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig};

/// Builds one service.
fn build(spec: &str, shards: usize, workers: usize) -> DirectoryService {
    let config = ServiceConfig::new(spec, shards, workers).with_batch(64);
    DirectoryService::build_standard(config).unwrap_or_else(|err| panic!("{spec}: {err}"))
}

/// Draws one random configuration and checks it differentially.  Panics
/// with the full case description on any divergence.
fn run_case(seed: u64, index: usize) {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

    // --- the spec: geometry x hash x sharer format -----------------------
    let shards = [2usize, 4][rng.next_below(2) as usize];
    let sets = [32usize, 64][rng.next_below(2) as usize] * shards;
    let spec = if rng.next_below(5) == 0 {
        // Occasionally a baseline, which runs the directories' default
        // `apply_batch`.
        format!("sparse-4x{sets}-c8")
    } else {
        let ways = [2usize, 3, 4, 8][rng.next_below(4) as usize];
        let kind = ["skew", "strong"][rng.next_below(2) as usize];
        let sharers = ["", "@coarse", "@limited", "@hier"][rng.next_below(4) as usize];
        format!("cuckoo-{ways}x{sets}-{kind}-c8{sharers}")
    };

    // --- the traffic ------------------------------------------------------
    let workload = ["oracle", "migratory-zipf0.9", "falseshare"][rng.next_below(3) as usize];
    let requests = 2_000 + rng.next_below(2_000);
    let load = LoadSpec::parse(workload, 8, rng.next_u64(), requests).unwrap();

    let ctx = format!(
        "seed={seed:#x} case={index} spec={spec} workload={workload} \
         requests={requests} shards={shards}"
    );

    // --- serial vs every legal worker count -------------------------------
    let serial = build(&spec, shards, 1)
        .run_load_serial(&load)
        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
    assert_eq!(serial.requests, requests, "{ctx}");
    for workers in [1, 2, 4] {
        if workers > shards {
            continue;
        }
        let report = build(&spec, shards, workers)
            .run_load(&load)
            .unwrap_or_else(|err| panic!("{ctx} workers={workers}: {err}"));
        assert_eq!(
            report.semantics(),
            serial.semantics(),
            "{ctx} workers={workers}"
        );
    }
}

#[test]
fn fuzz_at_a_fixed_seed() {
    // The CI anchor: one pinned sweep that must stay green forever.
    for index in 0..8 {
        run_case(0xD1FF_F552, index);
    }
}

#[test]
fn fuzz_burst() {
    // A fresh seed per run, printed so any failure is replayable with
    // `CCD_FUZZ_SEED=<seed> cargo test --test differential_fuzz`.
    let seed = match std::env::var("CCD_FUZZ_SEED") {
        Ok(text) => {
            let text = text.trim().to_string();
            match text.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).expect("hex CCD_FUZZ_SEED"),
                None => text.parse().expect("numeric CCD_FUZZ_SEED"),
            }
        }
        // Fresh per process without reading a clock: the standard library
        // keys every `RandomState` from OS entropy.
        Err(_) => {
            use std::hash::{BuildHasher, Hasher};
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
        }
    };
    eprintln!("differential_fuzz: CCD_FUZZ_SEED={seed:#x}");
    for index in 0..4 {
        run_case(seed, index);
    }
}
