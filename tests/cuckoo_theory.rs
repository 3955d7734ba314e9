//! The displacement chain against d-ary cuckoo theory (paper Section 4.1).
//!
//! With one independent, uniform hash per way, a d-ary cuckoo table of one
//! key a slot first fails an insertion at a load that tends to
//! `c*_d = ξ / (d (1 − e^−ξ)^(d−1))`, where `ξ` solves
//! `d = ξ (1 − e^−ξ) / (1 − e^−ξ − ξ e^−ξ)`: d-ary cuckoo hashing is Fotakis,
//! Pagh, Sanders and Spirakis's, and the sharp threshold is proved by
//! Dietzfelbinger et al. ("Tight thresholds for cuckoo hashing via XORSAT"),
//! Fountoulakis and Panagiotou, and Frieze and Melsted.  The bound owes
//! nothing to this code.  A chain that gives up early, a discard rule that
//! fires too soon, or skewing ways whose functions correlate all show as a
//! first discard below it; a table that claims more than `c*_d` is
//! miscounting.
//!
//! The table gives each hash a way of its own.  How far below `c*_d` a
//! finite table of that kind fails is measured, not proved: at 2^16 sets and
//! an attempt cap of 1,000 every case below lay within 0.009 of it, so the
//! window is 0.015.
//!
//! At the paper's attempt cap of 32 the chain stops well short of `c*_d`.
//! Those first-discard counts are the paper's operating envelope (beside
//! Figures 7 and 10), pinned here exactly.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_cuckoo::CuckooTable;
use ccd_hash::HashKind;

const SETS: usize = 1 << 16;
const SEEDS: [u64; 3] = [1, 2, 3];

/// The load threshold `c*_d` of d-ary cuckoo hashing, by bisection.
fn threshold(d: u32) -> f64 {
    let d = f64::from(d);
    // `ratio` rises from 2 (as ξ → 0) past `d` (at ξ = d), so for d ≥ 3 it
    // crosses d once in (0, d).
    let ratio = |x: f64| x * (1.0 - (-x).exp()) / (1.0 - (-x).exp() - x * (-x).exp());
    let (mut lo, mut hi) = (0.01, d);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if ratio(mid) < d {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let xi = 0.5 * (lo + hi);
    xi / (d * (1.0 - (-xi).exp()).powf(d - 1.0))
}

/// The number of entries a `d`-way table of [`SETS`] sets holds when an
/// insertion of random 42-bit lines first discards, at an attempt cap of
/// `cap`.
fn first_discard(kind: HashKind, d: usize, seed: u64, cap: u32) -> usize {
    let mut table: CuckooTable<()> = CuckooTable::new(d, SETS, kind, seed).unwrap();
    table.set_max_attempts(cap);
    let mut rng = SplitMix64::new(seed);
    loop {
        let held = table.len();
        if !table.insert(rng.next_u64() >> 22, ()).succeeded() {
            return held;
        }
    }
}

fn reaches_the_threshold(kind: HashKind) {
    for d in [3, 4] {
        let bound = threshold(d);
        for seed in SEEDS {
            let capacity = d as usize * SETS;
            let load = first_discard(kind, d as usize, seed, 1_000) as f64 / capacity as f64;
            println!("{kind:?} d={d} seed={seed}: first discard at {load:.4} (c* {bound:.5})");
            assert!(
                (bound - 0.015..=bound).contains(&load),
                "{kind:?} d={d} seed={seed}: first discard at {load:.4}, c*_{d} = {bound:.5}"
            );
        }
    }
}

#[test]
fn strong_ways_fill_to_the_d_ary_threshold() {
    reaches_the_threshold(HashKind::Strong);
}

#[test]
fn skewing_ways_fill_to_the_d_ary_threshold() {
    reaches_the_threshold(HashKind::Skewing);
}

#[test]
fn the_paper_cap_stops_at_the_pinned_occupancies() {
    // (family, d, seed, entries held at the first discard with a cap of 32).
    const PINNED: [(HashKind, usize, u64, usize); 12] = [
        (HashKind::Strong, 3, 1, 155_988),
        (HashKind::Strong, 3, 2, 154_148),
        (HashKind::Strong, 3, 3, 150_810),
        (HashKind::Strong, 4, 1, 227_621),
        (HashKind::Strong, 4, 2, 227_031),
        (HashKind::Strong, 4, 3, 230_708),
        (HashKind::Skewing, 3, 1, 153_800),
        (HashKind::Skewing, 3, 2, 150_750),
        (HashKind::Skewing, 3, 3, 148_778),
        (HashKind::Skewing, 4, 1, 229_656),
        (HashKind::Skewing, 4, 2, 227_588),
        (HashKind::Skewing, 4, 3, 230_473),
    ];
    let measured: Vec<_> = PINNED
        .iter()
        .map(|&(kind, d, seed, _)| {
            let held = first_discard(kind, d, seed, 32);
            let load = held as f64 / (d * SETS) as f64;
            println!("{kind:?} d={d} seed={seed}: cap 32 first discard at {held} ({load:.4})");
            (kind, d, seed, held)
        })
        .collect();
    assert_eq!(measured, PINNED);
}
