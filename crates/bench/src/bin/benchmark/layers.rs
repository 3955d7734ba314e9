//! Layer stages several workloads share: the index hashes, the bare cuckoo
//! table, the sharer vectors, the ingestion channel and the statistics
//! primitives, each timed alone on the workload's own lines and cache ids.

use crate::metrics::Values;
use crate::trace::{Interval, Tracer};
use ccd_common::rng::Rng64;
use ccd_common::stats::{Histogram, LogHistogram};
use ccd_common::{CacheId, LineAddr, Xoshiro256};
use ccd_cuckoo::{CuckooConfig, CuckooTable, InsertOutcome};
use ccd_directory::DirectoryOp;
use ccd_hash::{HashFamily, IndexHashFamily};
use ccd_service::{Request, DEFAULT_BATCH, DEFAULT_QUEUE_DEPTH};
use ccd_sharers::{FullBitVector, SharerSet};
use std::collections::BTreeSet;
use std::time::Duration;

/// Keys a micro stage touches at most; enough to leave any cache the table
/// itself does not fit, small enough to keep a traced run short.
const MICRO_KEYS: usize = 1 << 20;

/// Timed trials every micro stage makes at least.
const MIN_TRIALS: usize = 3;

/// Bit set in a key to make it one no workload ever inserts (generated
/// block numbers stay below 2^48).
const ABSENT_BIT: u64 = 1 << 62;

/// The first `limit` distinct lines `ops` allocate an entry for, in order
/// of first appearance — what a table serving the stream would hold.
pub fn distinct_lines(ops: &[DirectoryOp], limit: usize) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    let mut lines = Vec::with_capacity(limit);
    for op in ops {
        if lines.len() == limit {
            break;
        }
        let allocates = matches!(
            op,
            DirectoryOp::AddSharer { .. } | DirectoryOp::SetExclusive { .. }
        );
        if allocates && seen.insert(op.line().block_number()) {
            lines.push(op.line().block_number());
        }
    }
    lines
}

/// `hash.index_all_ns_per_key`: the workload's 4-way skewing family
/// indexing its lines.
pub fn hash_stage(
    tracer: &mut Tracer,
    budget: Duration,
    table: &CuckooConfig,
    lines: &[LineAddr],
    values: &mut Values,
) {
    let lines = &lines[..lines.len().min(MICRO_KEYS)];
    let family = HashFamily::with_seed(table.hash_kind, table.ways, table.sets, table.hash_seed)
        .expect("the workload's own geometry is valid");
    let mut indices = vec![0usize; table.ways];
    let stage = tracer.stage(
        "hash.index_all_into",
        lines.len() as u64,
        budget,
        MIN_TRIALS,
        true,
        || {
            Interval::time(|| {
                let mut fold = 0usize;
                for &line in lines {
                    family.index_all_into(line, &mut indices);
                    fold ^= indices[0] ^ indices[table.ways - 1];
                }
                fold
            })
            .0
        },
    );
    values.set("hash.index_all_ns_per_key", stage.best());
}

fn bare_table(config: &CuckooConfig) -> CuckooTable<u64> {
    CuckooTable::new(config.ways, config.sets, config.hash_kind, config.hash_seed)
        .expect("the workload's own geometry is valid")
}

fn fill(table: &mut CuckooTable<u64>, resident: &[u64]) -> Vec<InsertOutcome<u64>> {
    let mut entries: Vec<(u64, u64)> = resident.iter().map(|&key| (key, key)).collect();
    let mut outcomes = Vec::with_capacity(entries.len());
    table.apply_batch(&mut entries, &mut outcomes);
    outcomes
}

/// The `cuckoo.*` metrics: a bare `CuckooTable<u64>` at the workload's
/// geometry holding the workload's `resident` lines, probed for keys it
/// holds and keys it does not, filled from empty and emptied again.
pub fn cuckoo_stages(
    tracer: &mut Tracer,
    budget: Duration,
    config: &CuckooConfig,
    resident: &[u64],
    seed: u64,
    values: &mut Values,
) {
    assert!(!resident.is_empty(), "a workload tracks at least one line");
    let mut rng = Xoshiro256::new(seed);
    let probes = resident.len().clamp(MICRO_KEYS / 4, MICRO_KEYS);
    let hit_keys: Vec<u64> = (0..probes)
        .map(|_| resident[rng.next_below(resident.len() as u64) as usize])
        .collect();
    let miss_keys: Vec<u64> = hit_keys.iter().map(|key| key | ABSENT_BIT).collect();
    let mut removal_order = resident.to_vec();
    rng.shuffle(&mut removal_order);

    let mut table = bare_table(config);
    let outcomes = fill(&mut table, resident);
    let discarded = outcomes.iter().filter(|o| !o.succeeded()).count();
    let mut attempts: Vec<f64> = outcomes.iter().map(|o| f64::from(o.attempts)).collect();
    attempts.sort_by(f64::total_cmp);
    values.set("cuckoo.occupancy", table.occupancy());
    values.set(
        "cuckoo.insert_attempts_p99",
        crate::summary::percentile(&attempts, 99.0),
    );
    values.set(
        "cuckoo.insert_fail_ratio",
        discarded as f64 / resident.len() as f64,
    );

    let mut hits = vec![false; probes];
    for (metric, span, keys, expect) in [
        (
            "cuckoo.find_hit_ns",
            "cuckoo.probe_batch(hit)",
            &hit_keys,
            true,
        ),
        (
            "cuckoo.find_miss_ns",
            "cuckoo.probe_batch(miss)",
            &miss_keys,
            false,
        ),
    ] {
        let stage = tracer.stage(span, probes as u64, budget, MIN_TRIALS, true, || {
            Interval::time(|| table.probe_batch(keys, &mut hits)).0
        });
        // Discards (none at the benchmark's operating points) are the only
        // way a resident key can miss.
        assert!(
            discarded > 0 || hits.iter().all(|&hit| hit == expect),
            "{span} found the wrong keys"
        );
        values.set(metric, stage.best());
    }
    let stage = tracer.stage(
        "cuckoo.get",
        probes as u64,
        budget,
        MIN_TRIALS,
        true,
        || {
            Interval::time(|| {
                hit_keys
                    .iter()
                    .filter_map(|&key| table.get(key))
                    .fold(0u64, |fold, value| fold ^ value)
            })
            .0
        },
    );
    values.set("cuckoo.get_single_ns", stage.best());

    let count = resident.len() as u64;
    let stage = tracer.stage(
        "cuckoo.apply_batch",
        count,
        budget,
        MIN_TRIALS,
        true,
        || {
            let mut fresh = bare_table(config);
            let mut entries: Vec<(u64, u64)> = resident.iter().map(|&key| (key, key)).collect();
            let mut outcomes = Vec::with_capacity(entries.len());
            Interval::time(|| fresh.apply_batch(&mut entries, &mut outcomes)).0
        },
    );
    values.set("cuckoo.insert_ns", stage.best());
    let stage = tracer.stage("cuckoo.remove", count, budget, MIN_TRIALS, true, || {
        let mut full = bare_table(config);
        fill(&mut full, resident);
        Interval::time(|| {
            removal_order
                .iter()
                .filter_map(|&key| full.remove(key))
                .count()
        })
        .0
    });
    values.set("cuckoo.remove_ns", stage.best());
}

/// `sharers.update_ns_per_op`: one full bit vector driven by the
/// workload's cache-id sequence — add on a read, collect targets then
/// reset on a write, remove on an eviction.
pub fn sharers_stage(
    tracer: &mut Tracer,
    budget: Duration,
    caches: usize,
    ops: &[DirectoryOp],
    values: &mut Values,
) {
    let ops = &ops[..ops.len().min(MICRO_KEYS)];
    let mut targets: Vec<CacheId> = Vec::with_capacity(caches);
    let stage = tracer.stage(
        "sharers.update",
        ops.len() as u64,
        budget,
        MIN_TRIALS,
        true,
        || {
            let mut set = FullBitVector::new(caches);
            Interval::time(|| {
                for op in ops {
                    match *op {
                        DirectoryOp::AddSharer { cache, .. } => set.add(cache),
                        DirectoryOp::SetExclusive { cache, .. } => {
                            targets.clear();
                            set.extend_targets(&mut targets);
                            set.clear();
                            set.add(cache);
                        }
                        DirectoryOp::RemoveSharer { cache, .. } => set.remove(cache),
                        DirectoryOp::RemoveEntry { .. } => set.clear(),
                        DirectoryOp::Probe { .. } => {
                            targets.clear();
                            set.extend_targets(&mut targets);
                        }
                    }
                }
                set.exact_count()
            })
            .0
        },
    );
    values.set("sharers.update_ns_per_op", stage.best());
}

/// `channel.send_recv_ns`: one thread sending a request batch through the
/// service's ingestion channel and receiving it back — the cost of a hop
/// with nobody to wait for, per batch.
pub fn channel_stage(tracer: &mut Tracer, budget: Duration, values: &mut Values) {
    const HOPS: u64 = 100_000;
    let request = Request {
        seq: 0,
        shard: 0,
        op: DirectoryOp::Probe {
            line: LineAddr::from_block_number(0),
        },
    };
    let (sender, receiver) = ccd_common::channel::bounded::<Vec<Request>>(DEFAULT_QUEUE_DEPTH);
    let mut batch = vec![request; DEFAULT_BATCH];
    let stage = tracer.stage("channel.send_recv", HOPS, budget, MIN_TRIALS, true, || {
        Interval::time(|| {
            for _ in 0..HOPS {
                sender
                    .send(std::mem::take(&mut batch))
                    .expect("the receiver is alive");
                batch = receiver.recv().expect("a batch was just sent");
            }
            batch.len()
        })
        .0
    });
    values.set("channel.send_recv_ns", stage.best());
}

/// `stats.record_ns`: one sample into the exact histogram the directory
/// statistics use plus one into the log-bucketed one the observability
/// layer uses, per pair.
pub fn stats_stage(tracer: &mut Tracer, budget: Duration, values: &mut Values) {
    const SAMPLES: u64 = 4_000_000;
    let stage = tracer.stage("stats.record", SAMPLES, budget, MIN_TRIALS, true, || {
        let mut exact = Histogram::new(ccd_directory::stats::MAX_TRACKED_ATTEMPTS);
        let mut log = LogHistogram::new(2);
        Interval::time(|| {
            for sample in 0..SAMPLES {
                exact.record(sample & 31);
                log.record(sample.wrapping_mul(0x9E37_79B9) & 0xFFFF);
            }
            (exact.mean(), log.p99())
        })
        .0
    });
    values.set("stats.record_ns", stage.best());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::churn_ops;
    use crate::metrics::PER_LAYER;

    #[test]
    fn distinct_lines_follow_first_appearance() {
        let line = LineAddr::from_block_number;
        let cache = CacheId::new(0);
        let ops = [
            DirectoryOp::Probe { line: line(9) },
            DirectoryOp::AddSharer {
                line: line(5),
                cache,
            },
            DirectoryOp::SetExclusive {
                line: line(3),
                cache,
            },
            DirectoryOp::AddSharer {
                line: line(5),
                cache,
            },
            DirectoryOp::RemoveSharer {
                line: line(8),
                cache,
            },
            DirectoryOp::AddSharer {
                line: line(1),
                cache,
            },
        ];
        assert_eq!(distinct_lines(&ops, 10), vec![5, 3, 1]);
        assert_eq!(distinct_lines(&ops, 2), vec![5, 3]);
    }

    #[test]
    fn micro_stages_fill_their_metrics() {
        let ops = churn_ops(2, 20_000);
        let table = CuckooConfig::new(4, 4096, 16);
        let resident = distinct_lines(&ops, 6000);
        let lines: Vec<LineAddr> = ops.iter().map(DirectoryOp::line).collect();
        let mut tracer = Tracer::new();
        let mut values = Values::new(&PER_LAYER);
        hash_stage(&mut tracer, Duration::ZERO, &table, &lines, &mut values);
        cuckoo_stages(
            &mut tracer,
            Duration::ZERO,
            &table,
            &resident,
            2,
            &mut values,
        );
        sharers_stage(&mut tracer, Duration::ZERO, 16, &ops, &mut values);
        for name in [
            "hash.index_all_ns_per_key",
            "cuckoo.find_hit_ns",
            "cuckoo.find_miss_ns",
            "cuckoo.get_single_ns",
            "cuckoo.insert_ns",
            "cuckoo.remove_ns",
            "sharers.update_ns_per_op",
        ] {
            assert!(values.get(name).unwrap() > 0.0, "{name}");
        }
        let occupancy = values.get("cuckoo.occupancy").unwrap();
        assert!((occupancy - 6000.0 / 16384.0).abs() < 1e-9, "{occupancy}");
        assert_eq!(values.get("cuckoo.insert_fail_ratio"), Some(0.0));
        assert!(values.get("cuckoo.insert_attempts_p99").unwrap() >= 1.0);
    }
}
