//! `dir_spill`: `Directory::apply_batch` on one unsharded cuckoo slice well
//! beyond the last-level cache and the TLB's reach, held at half
//! occupancy by a sliding window while four operations in five only probe.
//! A memory-bound, read-mostly use of the same table `svc_churn` writes
//! to: the index hashes, the tag probe and the prefetch window are nearly
//! all of it, and the service, the simulator and the workload catalog do
//! nothing.

use crate::host;
use crate::inputs::{self, SpillInputs};
use crate::layers;
use crate::metrics::Values;
use crate::shadow;
use crate::summary;
use crate::trace::{self, Interval, Segmented, Tracer, CHUNK_OPS};
use crate::workload::{Scale, Semantics, Workload, OPERATING_OCCUPANCY};
use ccd_common::stats::Fnv64;
use ccd_common::LineAddr;
use ccd_cuckoo::CuckooConfig;
use ccd_directory::{Directory, DirectoryOp, Outcome};
use std::time::{Duration, Instant};

const WAYS: usize = 4;
const CACHES: usize = 16;
/// Sets per way: 4 Mi entries in all at full size (350 MB resident with
/// the sharer vectors: beyond the L2, the TLB's reach and this host's
/// shared L3), 64 Ki for `--quick`.
const SETS: usize = 1 << 20;
const QUICK_SETS: usize = 1 << 14;
/// Operations of one full-size trial.  Every trial rebuilds and pre-fills
/// the table, which takes as long untimed as 4 M operations take timed;
/// 1 M buys two thirds as many trials again, and the clean-time estimate
/// steadies with the number of trials, not their length.
const OPS: usize = 1_000_000;
/// Timed trials of a full-length run (see `Workload::planned_trials`).
const PLANNED_TRIALS: usize = 15;
/// Shards of the `directory.sharded_apply_ns_per_op` comparison.
const SHARDS: usize = 4;
/// Leading operations (after the pre-fill) the correctness reference
/// replays.
const CHECKED_PREFIX: usize = 200_000;
const TRACE_STAGES: u32 = 13;
const MIN_TRIALS: usize = 3;

pub struct Spill {
    sets: usize,
    ops: usize,
}

pub fn dir_spill(scale: Scale) -> Spill {
    Spill {
        sets: if scale.is_quick() { QUICK_SETS } else { SETS },
        ops: scale.of(OPS),
    }
}

fn semantics_of(dir: &dyn Directory, ops: usize) -> Semantics {
    let stats = dir.stats();
    let mut digest = Fnv64::new();
    digest
        .fold(dir.len() as u64)
        .fold(stats.lookups.get())
        .fold(stats.insertions.get())
        .fold(stats.sharer_removes.get())
        .fold(stats.entry_removes.get());
    for (attempts, count) in stats.insertion_attempts.iter() {
        digest.fold(attempts).fold(count);
    }
    Semantics {
        ops: ops as u64,
        entries: dir.len() as u64,
        dir: stats.clone(),
        forced_invalidations: stats.forced_block_invalidations.get(),
        occupancy: dir.occupancy(),
        digest: digest.finish(),
    }
}

/// The primary call as the benchmark makes it: `apply_batch` over `ops` in
/// calls of 4096 operations, a timestamp before each, so that a trial can
/// be cut into segments.  (`apply_batch` prefetches eight operations ahead;
/// a call boundary every 4096 changes nothing it does.)
fn chunked_apply(dir: &mut dyn Directory, ops: &[DirectoryOp], out: &mut Outcome) -> Segmented {
    let mut stamps = Vec::with_capacity(ops.len() / CHUNK_OPS + 1);
    let (interval, ()) = Interval::time(|| {
        for chunk in ops.chunks(CHUNK_OPS) {
            stamps.push(Instant::now());
            dir.apply_batch(chunk, out, &mut |_, _| {});
        }
    });
    Segmented::cut(interval, &stamps)
}

impl Spill {
    fn spec(&self) -> String {
        format!("cuckoo-{WAYS}x{}-c{CACHES}", self.sets)
    }

    fn capacity(&self) -> usize {
        WAYS * self.sets
    }

    /// The table behind the spec, as the registry configures it.
    fn table(&self) -> CuckooConfig {
        CuckooConfig::new(WAYS, self.sets, CACHES)
    }

    /// A directory built from `spec` and brought to the operating
    /// occupancy, its statistics reset so they cover the trial alone.
    fn prefilled(&self, spec: &str, inputs: &SpillInputs, out: &mut Outcome) -> Box<dyn Directory> {
        let mut dir = ccd_cuckoo::standard_registry()
            .build_str(spec)
            .expect("the workload's own spec builds");
        dir.apply_batch(&inputs.prefill, out, &mut |_, _| {});
        dir.reset_stats();
        dir
    }
}

impl Workload for Spill {
    type Inputs = SpillInputs;

    fn name(&self) -> &'static str {
        "dir_spill"
    }

    fn ops(&self) -> u64 {
        self.ops as u64
    }

    fn planned_trials(&self) -> usize {
        PLANNED_TRIALS
    }

    fn describe(&self) -> String {
        format!(
            "call=Directory::apply_batch spec={} prefill={} ops={} mix=40%probe-hit/40%probe-miss/\
             10%add/10%remove",
            self.spec(),
            self.capacity() / 2,
            self.ops
        )
    }

    fn prepare(&self, seed: u64) -> SpillInputs {
        inputs::spill_inputs(seed, self.capacity() / 2, self.ops)
    }

    fn trial(&self, inputs: &SpillInputs) -> (Segmented, Semantics) {
        let mut out = Outcome::new();
        let mut dir = self.prefilled(&self.spec(), inputs, &mut out);
        let timed = chunked_apply(dir.as_mut(), &inputs.ops, &mut out);
        (timed, semantics_of(dir.as_ref(), inputs.ops.len()))
    }

    fn check(&self, inputs: &SpillInputs, reference: &Semantics) -> Result<Vec<String>, String> {
        let mut passed = Vec::new();
        let prefix = &inputs.ops[..inputs.ops.len().min(CHECKED_PREFIX)];
        let mut dir = ccd_cuckoo::standard_registry()
            .build_str(&self.spec())
            .expect("the workload's own spec builds");
        let model = shadow::check(dir.as_mut(), &inputs.prefill, prefix)?;
        passed.push(format!(
            "shadow model agrees after each of the first {} ops on the pre-filled table ({} lines tracked)",
            prefix.len(),
            model.entries
        ));
        drop(dir);

        let stats = &reference.dir;
        let seen = (
            reference.entries,
            stats.insertions.get(),
            stats.entry_removes.get(),
        );
        let expected = (inputs.expected_len as u64, inputs.adds, inputs.removes);
        if seen != expected {
            return Err(format!(
                "(entries, insertions, removals) = {seen:?}, the generator expects {expected:?}"
            ));
        }
        passed.push(format!(
            "entries, insertions and removals match the generator: {expected:?}"
        ));
        if !OPERATING_OCCUPANCY.contains(&reference.occupancy) {
            return Err(format!(
                "final occupancy {:.3} is outside the operating point {OPERATING_OCCUPANCY:?}",
                reference.occupancy
            ));
        }
        passed.push(format!(
            "operating point: occupancy {:.3}",
            reference.occupancy
        ));
        Ok(passed)
    }

    fn trace(
        &self,
        seed: u64,
        inputs: &SpillInputs,
        tracer: &mut Tracer,
        seconds: Duration,
        values: &mut Values,
    ) -> Result<(), String> {
        let budget = seconds / TRACE_STAGES;
        let ops = &inputs.ops;
        let count = ops.len() as u64;
        let spec = self.spec();
        let mut out = Outcome::new();

        // The directory, four ways, interleaved so drift hits all alike:
        // one `apply_batch` over all the ops; the primary call as the
        // untraced run makes it, in 4096-op calls with a timestamp before
        // each; one op at a time; and sharded.
        let sharded_spec = format!("sharded{SHARDS}:{spec}");
        let mut builds = Vec::new();
        let rss_before = host::rss_mib();
        let mut rss_after = rss_before;
        let mut reference = None;
        let mut mismatch = None;
        let mut chunks = Vec::new();
        let [plain, staged, single, sharded] = tracer.rounds(
            [
                "directory.apply_batch",
                "directory.apply_batch(chunked)",
                "directory.apply",
                "directory.apply_batch(sharded)",
            ],
            count,
            budget * 4,
            MIN_TRIALS,
            false,
            |variant| {
                let spec = if variant == 3 { &sharded_spec } else { &spec };
                let (build, mut dir) = Interval::time(|| self.prefilled(spec, inputs, &mut out));
                let (interval, ()) = match variant {
                    0 => {
                        builds.push(build.seconds());
                        Interval::time(|| dir.apply_batch(ops, &mut out, &mut |_, _| {}))
                    }
                    1 => {
                        let timed = chunked_apply(dir.as_mut(), ops, &mut out);
                        chunks.extend(timed.chunk_ns_per_op());
                        (timed.interval, ())
                    }
                    2 => Interval::time(|| {
                        for op in ops {
                            dir.apply(*op, &mut out);
                        }
                    }),
                    _ => Interval::time(|| dir.apply_batch(ops, &mut out, &mut |_, _| {})),
                };
                let semantics = semantics_of(dir.as_ref(), ops.len());
                match (&reference, variant) {
                    (None, _) => {
                        rss_after = rss_after.max(host::rss_mib());
                        reference = Some(semantics);
                    }
                    // The sharded wrapper keeps its own statistics.
                    (Some(_), 3) => {}
                    (Some(reference), _) if *reference != semantics => {
                        mismatch =
                            Some("a directory variant computed something other than apply_batch");
                    }
                    _ => {}
                }
                interval
            },
        );
        let reference = reference.expect("the stage ran");
        values.set("directory.apply_batch_ns_per_op", plain.best());
        values.set("directory.apply_ns_per_op", single.best());
        values.set("directory.sharded_apply_ns_per_op", sharded.best());
        values.set("directory.build_s", summary::median(&builds));
        values.set(
            "directory.bytes_per_entry",
            (rss_after - rss_before).max(0.0) * 1024.0 * 1024.0 / self.capacity() as f64,
        );
        trace::report_chunks(&chunks, values);
        values.set("trace.overhead", staged.best() / plain.best() - 1.0);

        // Below the directory.
        let lines: Vec<LineAddr> = ops.iter().map(DirectoryOp::line).collect();
        layers::hash_stage(tracer, budget, &self.table(), &lines, values);
        drop(lines);
        let resident = layers::distinct_lines(&inputs.prefill, inputs.prefill.len());
        layers::cuckoo_stages(tracer, budget, &self.table(), &resident, seed, values);
        drop(resident);
        layers::sharers_stage(tracer, budget, CACHES, ops, values);
        layers::stats_stage(tracer, budget, values);

        // Counts, from one more pass with a sink that counts.
        let (mut hits, mut invalidations) = (0u64, 0u64);
        self.prefilled(&spec, inputs, &mut out)
            .apply_batch(ops, &mut out, &mut |op, out| {
                hits += u64::from(out.hit());
                // A probe reports the sharers it found through the same
                // buffer; only the other operations invalidate.
                if !matches!(op, DirectoryOp::Probe { .. }) {
                    invalidations += out.invalidate().len() as u64;
                }
            });
        let per_kop = |n: u64| n as f64 * 1000.0 / count as f64;
        values.set("directory.hit_ratio", hits as f64 / count as f64);
        values.set(
            "directory.alloc_per_kop",
            per_kop(reference.dir.insertions.get()),
        );
        values.set(
            "directory.removal_per_kop",
            per_kop(reference.dir.entry_removes.get()),
        );
        values.set("directory.inval_per_kop", per_kop(invalidations));

        // Closure: the primary call against the bare table's costs for the
        // same mix — what the directory adds on top of its table.
        let get = |name: &str| values.get(name).unwrap_or(0.0);
        let table = 0.4 * get("cuckoo.find_hit_ns")
            + 0.4 * get("cuckoo.find_miss_ns")
            + 0.1 * get("cuckoo.insert_ns")
            + 0.1 * get("cuckoo.remove_ns");
        values.set("layers.residual_ns_per_op", plain.best() - table);

        mismatch.map_or(Ok(()), |what| Err(what.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::run_untraced;

    #[test]
    fn quick_spill_passes_its_checks_and_traces() {
        let workload = dir_spill(Scale::QUICK);
        let outcome = run_untraced(&workload, 6, Duration::ZERO);
        let passed = outcome.checks.expect("all checks pass");
        assert_eq!(passed.len(), 3, "{passed:?}");
        assert_eq!(outcome.values.get("ok_ratio"), Some(1.0));
        assert_eq!(outcome.values.get("unforced_per_kop"), Some(1000.0));
        assert_eq!(outcome.values.get("stats_match_ratio"), Some(1.0));

        let inputs = workload.prepare(6);
        let mut values = Values::new(&PER_LAYER);
        workload
            .trace(6, &inputs, &mut Tracer::new(), Duration::ZERO, &mut values)
            .expect("stages agree");
        let hit_ratio = values.get("directory.hit_ratio").unwrap();
        assert!(
            (0.45..0.55).contains(&hit_ratio),
            "probe hits + removals: {hit_ratio}"
        );
        assert!((values.get("cuckoo.occupancy").unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(
            values.get("service.serial_ns_per_op"),
            None,
            "no service here"
        );
    }
}
