//! `BENCH_probe` — ns/op of the cuckoo table's two tag layouts.
//!
//! The one place outside the repository benchmark that reads a clock, and
//! the documented exception to that rule: the benchmark has no `tagalt`
//! workload, so until it grows one this binary is the only measurement of
//! the planar / line-local layout rule.  It records; it gates nothing.
//!
//! The table's two tag layouts as [`CuckooTable::new`] hands them out —
//! `cuckoo-4xN-skew` (planar tags, SWAR match) beside `cuckoo-4xN-tagalt`
//! (line-local tags, one vector compare) — at occupancies {0.5, 0.85} in
//! two regimes:
//!
//! * **resident**: tag arrays of 4 MB at the default scale, past L2 but
//!   inside the LLC, where the planar layout's per-way byte loads overlap
//!   freely in the load buffers;
//! * **spill**: tag arrays sized *past* the LLC (512 MiB at the default
//!   scale) — the regime a real directory slice lives in, where every
//!   probe runs at memory latency and the planar layout touches `ways` tag
//!   lines per miss against the line-local layout's one.
//!
//! Each cell reports the best of its trials with the trial spread
//! (`(max − min) / min`) beside it, and the line-local rows carry their
//! ratio to the planar row of the same cell (`vs_planar`).  The two tables
//! of a regime are built and timed one after the other (one spill table is
//! 4.5 GB), so a host shift between them is *not* inside the spread; and
//! the two specs differ in hash family as well as layout.  The ratios are a
//! record, not a gate: one run's wall clock cannot hold a threshold.
//!
//! Both layouts are outcome-identical to the seed reference (the lockstep
//! property suite proves it).  Results are written to `BENCH_probe.json`
//! under the results directory; CI golden-checks the quick-scale output
//! with the wall-clock-derived fields filtered out.

use ccd_bench::json::Json;
use ccd_bench::{obj, RunScale};
use ccd_common::rng::{Rng64, SplitMix64};
use ccd_cuckoo::{CuckooTable, VectorEngine};
use ccd_hash::HashKind;
use std::hint::black_box;
use std::time::Instant;

/// The paper's 4-way organization throughout.
const WAYS: usize = 4;
const SEED: u64 = 0xBE7C4;

/// Work shaping for this binary, selected by `CCD_SCALE` (the sweep scales
/// in `RunScale` are simulator reference counts, which do not apply here).
struct ProbeScale {
    /// Sets for the LLC-resident regime.  The default puts the tag arrays
    /// at 4 MB — past L2, inside the LLC.
    resident_sets: usize,
    /// Sets for the LLC-spilling regime.  The default puts the tag arrays
    /// at 512 MiB — past this host class's LLC — so every probe runs at
    /// DRAM latency and the tag-lines-per-probe count is what the clock
    /// measures.  Values are `()` (a directory tag check carries no
    /// payload) and the fill goes through `apply_batch`, so the bulk fill
    /// stays in the minutes even at half a billion entries.
    spill_sets: usize,
    /// Lookups per timed trial (covers the resident population rather than
    /// a cache-friendly subsample).
    probe_keys: usize,
    /// Insertions per timed trial.
    insert_keys: usize,
    /// Trials per cell (best-of).
    trials: usize,
}

impl ProbeScale {
    /// The shape for a scale name out of [`RunScale::from_env_named`].
    fn named(scale_name: &str) -> Self {
        match scale_name {
            "quick" => ProbeScale {
                resident_sets: 4 * 1024,
                spill_sets: 4 * 1024,
                probe_keys: 8 * 1024,
                insert_keys: 1024,
                trials: 3,
            },
            "full" => ProbeScale {
                resident_sets: 2 * 1024 * 1024,
                spill_sets: 128 * 1024 * 1024,
                probe_keys: 256 * 1024,
                insert_keys: 4096,
                trials: 9,
            },
            _ => ProbeScale {
                resident_sets: 1024 * 1024,
                spill_sets: 128 * 1024 * 1024,
                probe_keys: 256 * 1024,
                insert_keys: 4096,
                trials: 5,
            },
        }
    }
}

/// Human-readable tag-array size for the section headings.
fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

/// Wall time of one invocation of `f`, in nanoseconds per operation.
fn time_once(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Best and spread of a cell's trials.
struct Timing {
    /// Fastest trial, ns/op.
    best: f64,
    /// `(slowest − fastest) / fastest`: what the trials alone say about
    /// how far a ratio of two `best` figures can be trusted.
    spread: f64,
}

/// Runs `once` (which returns its own ns/op, so it can keep set-up and
/// tear-down outside the clock) `trials` times.
fn time_trials(trials: usize, mut once: impl FnMut() -> f64) -> Timing {
    let (mut best, mut worst) = (f64::INFINITY, 0.0f64);
    for _ in 0..trials {
        let ns = once();
        best = best.min(ns);
        worst = worst.max(ns);
    }
    Timing {
        best,
        spread: (worst - best) / best,
    }
}

/// `count` keys from `rng` that `table` does not hold.
fn absent_keys<V>(table: &CuckooTable<V>, count: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let key = rng.next_u64() >> 8;
        if !table.contains(key) {
            keys.push(key);
        }
    }
    keys
}

/// The kernel section: the two tag layouts, each on the spec that gets it
/// from [`CuckooTable::new`], in the LLC-resident and the LLC-spilling
/// regime.  Values are `()`; the fill goes through `apply_batch`.
fn kernel_section(scale: &ProbeScale) -> Vec<Json> {
    const OCCUPANCIES: &[f64] = &[0.5, 0.85];
    let mut rows = Vec::new();
    for (regime, sets) in [
        ("resident", scale.resident_sets),
        ("spill", scale.spill_sets),
    ] {
        let capacity = WAYS * sets;
        // One drawn key in `stride` feeds the hit pool: about four times
        // the probe window at the last occupancy, whatever the table size.
        let stride = (capacity / (4 * scale.probe_keys)).max(1);
        // The planar table runs first and anchors the `vs_planar` column.
        let mut planar_ns: Vec<f64> = Vec::new();
        for (kind, hash, layout) in [
            (HashKind::Skewing, "skew", "planar"),
            (HashKind::TagAlt, "tagalt", "line-local"),
        ] {
            let mut table: CuckooTable<()> =
                CuckooTable::new(WAYS, sets, kind, SEED).expect("geometry");
            let spec = format!("cuckoo-{WAYS}x{sets}-{hash}");
            let mut rng = SplitMix64::new(0xF333);
            let mut hit_pool: Vec<u64> = Vec::new();
            let mut entries: Vec<(u64, ())> = Vec::with_capacity(1 << 16);
            let mut outcomes = Vec::with_capacity(1 << 16);
            let mut drawn = 0usize;
            let mut cell = 0usize;

            for &occupancy in OCCUPANCIES {
                // Bulk fill.  The strided sample of the drawn key stream is
                // filtered afterwards: displacement can discard a key (the
                // 64-slot tagalt blocks overflow well before the table
                // does), and so can the insert trials of the step before.
                let target = (capacity as f64 * occupancy) as usize;
                while table.len() < target {
                    entries.clear();
                    for _ in 0..(1usize << 16).min(target - table.len()) {
                        let key = rng.next_u64() >> 8;
                        if drawn.is_multiple_of(stride) {
                            hit_pool.push(key);
                        }
                        drawn += 1;
                        entries.push((key, ()));
                    }
                    outcomes.clear();
                    table.apply_batch(&mut entries, &mut outcomes);
                }
                hit_pool.retain(|&k| table.contains(k));

                let hit_keys: Vec<u64> = (0..scale.probe_keys)
                    .map(|i| hit_pool[(i * 127) % hit_pool.len()])
                    .collect();
                let miss_keys = absent_keys(&table, scale.probe_keys, &mut rng);
                // A window of its own per insert trial: re-inserting removed
                // keys would find the holes they left and never displace.
                let fresh_keys = absent_keys(&table, scale.trials * scale.insert_keys, &mut rng);
                let mut fresh_windows = fresh_keys.chunks(scale.insert_keys);
                let mut hits = vec![false; scale.probe_keys];

                let contains_loop = |table: &CuckooTable<()>, keys: &[u64], expect_hit: bool| {
                    time_once(keys.len(), || {
                        let mut found = 0u64;
                        for &k in keys {
                            found += u64::from(table.contains(k));
                        }
                        assert_eq!(found == keys.len() as u64, expect_hit);
                        black_box(found);
                    })
                };
                let timings = [
                    (
                        "find_hit",
                        time_trials(scale.trials, || contains_loop(&table, &hit_keys, true)),
                    ),
                    (
                        "find_miss",
                        time_trials(scale.trials, || contains_loop(&table, &miss_keys, false)),
                    ),
                    (
                        "find_miss_batch",
                        time_trials(scale.trials, || {
                            time_once(miss_keys.len(), || {
                                table.probe_batch(&miss_keys, &mut hits);
                                black_box(&hits);
                            })
                        }),
                    ),
                    // In place (a spill table is too large to clone per
                    // trial): a window of fresh keys goes in on the clock
                    // and comes out again off it.
                    (
                        "insert",
                        time_trials(scale.trials, || {
                            let window = fresh_windows.next().expect("one window per trial");
                            let ns = time_once(window.len(), || {
                                for &k in window {
                                    black_box(table.insert(k, ()));
                                }
                            });
                            for &k in window {
                                table.remove(k);
                            }
                            ns
                        }),
                    ),
                ];
                for (metric, timing) in timings {
                    if layout == "planar" {
                        planar_ns.push(timing.best);
                    }
                    rows.push(obj! {
                        "regime": regime,
                        "spec": spec,
                        "layout": layout,
                        "occupancy": occupancy,
                        "metric": metric,
                        "ns_per_op": timing.best,
                        "trial_spread": timing.spread,
                        "vs_planar": planar_ns[cell] / timing.best,
                    });
                    cell += 1;
                }
            }
        }
    }
    rows
}

fn main() {
    let (_, scale_name) = RunScale::from_env_named();
    let scale = ProbeScale::named(scale_name);
    let engine = VectorEngine::detect();

    println!(
        "== BENCH_probe: planar/SWAR (skew) vs line-local/vector (tagalt), {WAYS} ways; \
         resident {} tags, spill {} tags; best of {} trials ==",
        fmt_bytes(WAYS * scale.resident_sets),
        fmt_bytes(WAYS * scale.spill_sets),
        scale.trials
    );
    let report = obj! {
        "scale": scale_name,
        "engine": engine.name(),
        "kernels": Json::Arr(kernel_section(&scale)),
    };
    print!("{}", report.to_text());
    let written = ccd_bench::write_result(
        &ccd_bench::results_dir(),
        "BENCH_probe.json",
        report.to_pretty().as_bytes(),
    );
    if let Err(e) = written {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
