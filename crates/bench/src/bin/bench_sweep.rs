//! Serial-vs-parallel sweep wall-clock benchmark.
//!
//! Runs the Figure 9 provisioning sweep — the largest simulation sweep in
//! the suite (2 hierarchies × 6 organizations × 9 workloads) — once on a
//! single worker and once on all available workers, verifies the two runs
//! produce *byte-identical* results, and records both wall-clocks and the
//! serial simulation rate in `results/BENCH_sweep.json`.  With one worker
//! available the "parallel" run is a second serial run, so no speedup is
//! recorded (`"speedup": null`).

use ccd_bench::{fig9_sweep, write_bench_json, ParallelRunner, RunScale, SweepResults, TextTable};
use ccd_coherence::Hierarchy;
use std::time::Instant;

#[derive(Debug)]
struct SweepBench {
    scale: String,
    points: usize,
    refs_processed_total: u64,
    /// Warm-up plus measured references of one run of the sweep.
    refs_simulated_total: u64,
    workers: usize,
    serial_seconds: f64,
    /// `refs_simulated_total / serial_seconds`.
    serial_refs_per_second: f64,
    parallel_seconds: f64,
    /// Serial over parallel wall-clock; `None` when the parallel run had a
    /// single worker and so measured nothing parallel.
    speedup: Option<f64>,
    outputs_identical: bool,
}
ccd_bench::impl_to_json!(SweepBench {
    scale,
    points,
    refs_processed_total,
    refs_simulated_total,
    workers,
    serial_seconds,
    serial_refs_per_second,
    parallel_seconds,
    speedup,
    outputs_identical
});

/// Structural equality of two sweep runs: every cell's axis labels, trace
/// seed and full report (SimReport's derived `PartialEq` covers every
/// counter, histogram bucket and accumulated float bit-exactly).
fn runs_identical(a: &[SweepResults], b: &[SweepResults]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cells.len() == y.cells.len()
                && x.cells.iter().zip(&y.cells).all(|(c, d)| {
                    (&c.system, &c.org, &c.workload, c.trace_seed, &c.report)
                        == (&d.system, &d.org, &d.workload, d.trace_seed, &d.report)
                })
        })
}

const HIERARCHIES: [Hierarchy; 2] = [Hierarchy::SharedL2, Hierarchy::PrivateL2];

fn run_all(runner: &ParallelRunner, scale: RunScale) -> Vec<SweepResults> {
    HIERARCHIES
        .into_iter()
        .map(|h| {
            fig9_sweep(h, scale)
                .run_with(runner)
                .expect("fig9 sweep must build")
        })
        .collect()
}

fn main() {
    let (scale, scale_name) = RunScale::from_env_named();
    let parallel_runner = ccd_bench::runner_from_env();
    println!("== Sweep wall-clock: fig9 provisioning, serial vs parallel ==");
    println!(
        "   scale {scale_name}, parallel workers {}",
        parallel_runner.workers()
    );

    // Untimed warm-up: pay the one-time process costs (page faults,
    // allocator growth, frequency ramp) before either timed run, so the
    // first-timed leg is not systematically penalized.
    let _ = run_all(&ParallelRunner::serial(), RunScale::quick());

    let serial_start = Instant::now();
    let serial = run_all(&ParallelRunner::serial(), scale);
    let serial_seconds = serial_start.elapsed().as_secs_f64();

    let parallel_start = Instant::now();
    let parallel = run_all(&parallel_runner, scale);
    let parallel_seconds = parallel_start.elapsed().as_secs_f64();

    let outputs_identical = runs_identical(&serial, &parallel);
    assert!(
        outputs_identical,
        "serial and parallel sweeps must be byte-identical"
    );

    let points: usize = serial.iter().map(|s| s.cells.len()).sum();
    let refs_processed_total: u64 = serial
        .iter()
        .flat_map(|s| &s.cells)
        .map(|c| c.report.refs_processed)
        .sum();

    let refs_simulated_total: u64 = HIERARCHIES
        .into_iter()
        .flat_map(|h| fig9_sweep(h, scale).jobs())
        .map(|(_, job)| job.warmup_refs + job.measure_refs)
        .sum();

    let workers = parallel_runner.workers();
    let bench = SweepBench {
        scale: scale_name.to_string(),
        points,
        refs_processed_total,
        refs_simulated_total,
        workers,
        serial_seconds,
        serial_refs_per_second: refs_simulated_total as f64 / serial_seconds.max(1e-9),
        parallel_seconds,
        speedup: (workers > 1).then(|| serial_seconds / parallel_seconds.max(1e-9)),
        outputs_identical,
    };

    let mut table = TextTable::new(vec!["metric", "value"]);
    table.add_row(vec!["sweep points".to_string(), bench.points.to_string()]);
    table.add_row(vec![
        "measured refs".to_string(),
        bench.refs_processed_total.to_string(),
    ]);
    table.add_row(vec![
        "simulated refs (with warm-up)".to_string(),
        bench.refs_simulated_total.to_string(),
    ]);
    table.add_row(vec![
        "serial wall-clock (s)".to_string(),
        format!("{:.2}", bench.serial_seconds),
    ]);
    table.add_row(vec![
        "serial rate (M refs/s)".to_string(),
        format!("{:.2}", bench.serial_refs_per_second / 1e6),
    ]);
    table.add_row(vec![
        format!("parallel wall-clock (s, {} workers)", bench.workers),
        format!("{:.2}", bench.parallel_seconds),
    ]);
    table.add_row(vec![
        "speedup".to_string(),
        bench.speedup.map_or_else(
            || "not measured (one worker: both runs were serial)".to_string(),
            |speedup| format!("{speedup:.2}x"),
        ),
    ]);
    table.add_row(vec![
        "outputs identical".to_string(),
        bench.outputs_identical.to_string(),
    ]);
    println!();
    table.print();

    write_bench_json("BENCH_sweep", &bench);
}
