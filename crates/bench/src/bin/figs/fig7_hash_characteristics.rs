//! Figure 7 — d-ary cuckoo hash characteristics.
//!
//! Both panels of Figure 7: the average number of insertion attempts and
//! the insertion-failure probability as a function of occupancy, for 2-,
//! 3-, 4- and 8-ary cuckoo tables indexed by strong hash functions, driven
//! with uniformly random values exactly as in Section 5.1 (100k+ values
//! per arity, 32-attempt budget), under the paper's greedy displacement
//! chain.

use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_cuckoo::CuckooTable;
use ccd_hash::HashKind;
use ccd_workloads::RandomKeyStream;

/// Occupancy bucket width of the reported curves.
const BUCKET: f64 = 0.05;

fn characterize(arity: usize, sets: usize, seed: u64) -> Json {
    let mut table: CuckooTable<()> =
        CuckooTable::new(arity, sets, HashKind::Strong, seed).expect("valid geometry");
    let mut keys = RandomKeyStream::new(seed ^ 0xF167);
    let capacity = table.capacity();

    let buckets = (1.0 / BUCKET) as usize;
    let mut attempts_sum = vec![0u64; buckets + 1];
    let mut inserts = vec![0u64; buckets + 1];
    let mut failures = vec![0u64; buckets + 1];

    // Drive the table towards full; at high occupancy discarded entries keep
    // the occupancy from advancing, so also bound the number of insertions.
    let max_inserts = capacity * 3;
    let mut performed = 0usize;
    while table.occupancy() < 0.98 && performed < max_inserts {
        let bucket = ((table.occupancy() / BUCKET) as usize).min(buckets);
        let outcome = table.insert(keys.next_key(), ());
        attempts_sum[bucket] += u64::from(outcome.attempts);
        inserts[bucket] += 1;
        if !outcome.succeeded() {
            failures[bucket] += 1;
        }
        performed += 1;
    }

    let points = (0..=buckets)
        .filter(|&b| inserts[b] > 0)
        .map(|b| {
            obj! {
                "occupancy": b as f64 * BUCKET,
                "avg_attempts": attempts_sum[b] as f64 / inserts[b] as f64,
                "failure_probability": failures[b] as f64 / inserts[b] as f64,
            }
        })
        .collect();
    obj! { "arity": arity, "points": Json::Arr(points) }
}

pub fn run(context: &Context) -> Vec<Json> {
    // Each arity's characterization is independent; fan them across the
    // runner's workers (results stay in arity order either way).
    let curves = context.runner.map(&[2usize, 3, 4, 8], |&d| {
        characterize(d, 32 * 1024 / d.next_power_of_two(), 0xC0FFEE + d as u64)
    });
    vec![Json::Arr(curves)]
}
