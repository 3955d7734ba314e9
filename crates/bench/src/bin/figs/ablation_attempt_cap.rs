//! Ablation — insertion-attempt budget (4-way, skewing hashes).
//!
//! The paper fixes the insertion-attempt cap at 32 (Section 5.2).  This
//! ablation sweeps the cap to show where the knee is: a tiny budget discards
//! entries it could have placed, while anything beyond ~16 attempts changes
//! nothing at practical occupancies.

use crate::{fill_to, Context};
use ccd_common::{json::Json, obj};
use ccd_cuckoo::CuckooTable;
use ccd_hash::HashKind;

pub fn run(context: &Context) -> Vec<Json> {
    let grid: Vec<(f64, u32)> = [0.5, 0.75, 0.9]
        .into_iter()
        .flat_map(|target| [2u32, 4, 8, 16, 32, 64].map(|cap| (target, cap)))
        .collect();
    let rows = context.runner.map(&grid, |&(target, cap)| {
        let mut table = CuckooTable::new(4, 4096, HashKind::Skewing, 11).expect("valid geometry");
        table.set_max_attempts(cap);
        let (avg_attempts, discarded) = fill_to(&mut table, 0xAB1A, target);
        obj! {
            "max_attempts": cap,
            "occupancy_target": target,
            "avg_attempts": avg_attempts,
            "discard_percent": discarded * 100.0,
        }
    });
    vec![Json::Arr(rows)]
}
