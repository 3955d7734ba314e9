//! Quickstart: build a Cuckoo directory, drive it by hand, then run a small
//! simulated CMP on top of it.
//!
//! Run with: `cargo run --release --example quickstart`

use cuckoo_directory::directory::{DirectoryOp, Outcome};
use cuckoo_directory::prelude::*;

fn main() -> Result<(), ccd_common::ConfigError> {
    // --- 1. The Cuckoo directory as a standalone data structure -----------
    //
    // A 4-way x 512-set slice tracking 32 private caches: the configuration
    // the paper selects for its 16-core Shared-L2 system (1x provisioning).
    // Any of the six organizations can be built at runtime from a spec
    // string through the builder registry.
    let registry = cuckoo_directory::cuckoo::standard_registry();
    let mut dir = registry.build_str("cuckoo-4x512-skew")?;

    // The hot path: one reusable outcome buffer, zero steady-state
    // allocations per operation.
    let mut out = Outcome::new();
    let block = LineAddr::from_block_number(0x00ab_cdef);
    for cache in [0u32, 5, 17] {
        dir.apply(
            DirectoryOp::AddSharer {
                line: block,
                cache: CacheId::new(cache),
            },
            &mut out,
        );
        println!(
            "add sharer cache{cache}: new entry = {}, attempts = {}",
            out.allocated_new_entry(),
            out.insertion_attempts()
        );
    }
    dir.apply(DirectoryOp::Probe { line: block }, &mut out);
    println!("sharers of {block}: {:?}", out.sharers());

    // A write by cache 5 invalidates the other sharers.
    dir.apply(
        DirectoryOp::SetExclusive {
            line: block,
            cache: CacheId::new(5),
        },
        &mut out,
    );
    println!("write by cache5 invalidates: {:?}", out.invalidate());
    dir.apply(DirectoryOp::Probe { line: block }, &mut out);
    println!("sharers after the write:    {:?}\n", out.sharers());

    // --- 2. The same directory inside a simulated 16-core CMP -------------
    let system = SystemConfig::table1(Hierarchy::SharedL2);
    let spec = DirectorySpec::cuckoo(4, 1.0);
    let mut trace = TraceGenerator::new(WorkloadProfile::apache(), system.num_cores, 7);

    let mut sim = CmpSimulator::new(system, &spec)?;
    sim.run(&mut trace, 500_000); // warm the caches and the directory
    sim.reset_stats();
    sim.run(&mut trace, 500_000); // measure
    let report = sim.report();

    println!("{}", report.summary());
    println!(
        "directory event mix: insert {:.1}% / add sharer {:.1}% / remove sharer {:.1}% / remove tag {:.1}% / invalidate-all {:.1}%",
        report.directory.event_mix().insert_tag * 100.0,
        report.directory.event_mix().add_sharer * 100.0,
        report.directory.event_mix().remove_sharer * 100.0,
        report.directory.event_mix().remove_tag * 100.0,
        report.directory.event_mix().invalidate_all * 100.0,
    );
    Ok(())
}
