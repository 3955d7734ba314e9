//! `figs` — the one results program: every table, figure and ablation of
//! the evaluation is a row of [`EXPERIMENTS`].
//!
//! ```text
//! figs <name>…      run the named experiments, in argument order
//! figs all          run every experiment, in table order
//! figs --list       print `name file…` per row and run nothing
//! ```
//!
//! Anything else — no argument, a misspelt name — exits 2 naming the
//! token before anything runs.  The environment is parsed once, here:
//! `CCD_SCALE` (`quick` / `default` / `full`), `CCD_WORKERS` (the parallel
//! runner's worker count; `1` is a serial run with byte-identical
//! results) and `CCD_RESULTS_DIR` (default `results`).
//!
//! An experiment is a function from that [`Context`] to its result trees,
//! one per file its row declares: it builds rows as `Json` objects, naming
//! each column once, and neither prints nor writes.  The driver does both:
//! [`ccd_bench::text::to_text`] is the stdout table,
//! [`ccd_bench::write_result`] the file; a file that cannot be written
//! exits 1 naming the path.  Nothing here reads a clock, so every byte of
//! every result is deterministic and `scripts/golden_check.sh` — which
//! takes its rows from `--list` — pins them all.

mod ablation_attempt_cap;
mod ablation_sharer_format;
mod bench_scenarios;
mod fig10_insertion_attempts;
mod fig11_attempt_distribution;
mod fig12_invalidation_rates;
mod fig13_energy_area;
mod fig4_scalability;
mod fig7_hash_characteristics;
mod fig8_occupancy;
mod fig9_provisioning;
mod hash_function_study;
mod headline_ratios;
mod table2_workloads;

use ccd_bench::sweep::cuckoo_org_label;
use ccd_bench::{ParallelRunner, RunScale, SweepSpec};
use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
use ccd_common::json::Json;
use ccd_cuckoo::CuckooTable;
use ccd_hash::HashKind;
use ccd_workloads::RandomKeyStream;

/// What an experiment runs under: the environment, parsed once.
struct Context {
    scale: RunScale,
    scale_name: &'static str,
    runner: ParallelRunner,
}

/// One row of the results program.
struct Experiment {
    /// What `figs <name>` selects.
    name: &'static str,
    /// Every file the experiment leaves under the results directory, each
    /// pinned by a golden under `tests/golden/`.
    results: &'static [&'static str],
    /// What the paper reports for it, printed after the tables.
    note: &'static str,
    /// One result tree per entry of `results`, in order: printed as a
    /// table, written as pretty JSON.
    run: fn(&Context) -> Vec<Json>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table2_workloads",
        results: &["table2_workloads.json"],
        note: "Original applications (Table 2 of the paper): TPC-C on DB2 v8 and Oracle 10g,\n\
               TPC-H queries 2/16/17 on DB2, SPECweb99 on Apache 2.0 and Zeus 4.3, em3d and\n\
               ocean; all replaced here by calibrated synthetic generators.",
        run: table2_workloads::run,
    },
    Experiment {
        name: "fig4_scalability",
        results: &["fig4_scalability.json"],
        note: "Percent of a 1MB L2 tag lookup (energy) and of a 1MB L2 data array (area).\n\
               Paper reference (Figure 4): Duplicate-Tag and Tagless energy grows steeply\n\
               with core count while their area stays small; Sparse designs are energy-flat\n\
               but area-heavy (In-Cache/full vectors grow with core count, Coarse and\n\
               Hierarchical are flat only thanks to 8x over-provisioned capacity).",
        run: fig4_scalability::run,
    },
    Experiment {
        name: "fig7_hash_characteristics",
        results: &["fig7_hash_characteristics.json"],
        note: "Paper reference (Section 5.1): below 50% occupancy, 3-ary and wider tables\n\
               succeed immediately or with a single displacement, and no failures occur\n\
               up to ~65% occupancy.",
        run: fig7_hash_characteristics::run,
    },
    Experiment {
        name: "fig8_occupancy",
        results: &["fig8_occupancy.json"],
        note: "Occupancy relative to the worst-case tracked blocks (a 1x directory).\n\
               Paper reference (Figure 8): Shared-L2 occupancy stays well below 100% for all\n\
               workloads; Private-L2 occupancy approaches 100% for the DSS and scientific\n\
               workloads (ocean is the extreme with nearly all-private blocks).",
        run: fig8_occupancy::run,
    },
    Experiment {
        name: "fig9_provisioning",
        results: &["fig9_provisioning.json"],
        note: "Paper reference (Figure 9): under-provisioning (< 1x) causes an exponential\n\
               increase in attempts and failures; 1x suffices for Shared-L2 and 1.5x for\n\
               Private-L2.",
        run: fig9_provisioning::run,
    },
    Experiment {
        name: "fig10_insertion_attempts",
        results: &["fig10_insertion_attempts.json"],
        note: "Paper reference (Figure 10): the average is typically below two attempts,\n\
               with larger values for the workloads dominated by private blocks.",
        run: fig10_insertion_attempts::run,
    },
    Experiment {
        name: "fig11_attempt_distribution",
        results: &["fig11_attempt_distribution.json"],
        note: "Paper reference (Figure 11): ~85% (Oracle) and ~73% (ocean) of insertions\n\
               complete in one attempt; each additional attempt is exponentially rarer and\n\
               the 32-attempt cap is essentially never reached (no peak at 32).",
        run: fig11_attempt_distribution::run,
    },
    Experiment {
        name: "fig12_invalidation_rates",
        results: &["fig12_invalidation_rates.json"],
        note: "Cuckoo is 1x on Shared-L2 and 1.5x on Private-L2.\n\
               Paper reference (Figure 12): Sparse 2x conflicts on nearly all workloads,\n\
               Skewed 2x helps mainly the server workloads, Sparse 8x still shows significant\n\
               rates for many workloads, and the Cuckoo directory is near zero everywhere\n\
               (ocean at 1.5x Private-L2: 0.08% in the paper).",
        run: fig12_invalidation_rates::run,
    },
    Experiment {
        name: "fig13_energy_area",
        results: &["fig13_energy_area.json"],
        note: "Energy relative to one 1MB 16-way L2 tag lookup; area to a 1MB L2 data array.\n\
               Paper reference (Figure 13): Duplicate-Tag and Tagless energy grows with core\n\
               count; full-vector and in-cache area grows with core count; Sparse Coarse /\n\
               Hierarchical are flat but 8x over-provisioned; the Cuckoo organizations are\n\
               flat in both energy and area.",
        run: fig13_energy_area::run,
    },
    Experiment {
        name: "headline_ratios",
        results: &["headline_ratios.json"],
        note: "",
        run: headline_ratios::run,
    },
    Experiment {
        name: "ablation_attempt_cap",
        results: &["ablation_attempt_cap.json"],
        note: "",
        run: ablation_attempt_cap::run,
    },
    Experiment {
        name: "ablation_sharer_format",
        results: &["ablation_sharer_format.json"],
        note: "Full vectors (and limited pointers that must broadcast) stop scaling past a\n\
               few hundred caches; the coarse and hierarchical formats keep the Cuckoo entry\n\
               nearly constant, which is why the paper pairs the Cuckoo tag store with them.",
        run: ablation_sharer_format::run,
    },
    Experiment {
        name: "hash_function_study",
        results: &[
            "hash_function_study_raw.json",
            "hash_function_study_sim.json",
        ],
        note: "Paper reference (Section 5.5): skewing functions match strong hashes at 2x\n\
               provisioning; strong hashes help only in aggressive/under-provisioned designs\n\
               (e.g. they remove ocean's residual invalidations at 1.5x), at a hardware cost\n\
               that is not worth paying.",
        run: hash_function_study::run,
    },
    Experiment {
        name: "bench_scenarios",
        results: &["BENCH_scenarios.json"],
        note: "",
        run: bench_scenarios::run,
    },
];

/// A Table 1 system under explicit `ways x sets` skewing Cuckoo
/// organizations, each labelled by [`cuckoo_org_label`] (Figures 9–11 add
/// their workloads and seeds).
fn explicit_cuckoo_sweep(title: &str, hierarchy: Hierarchy, orgs: &[(usize, usize)]) -> SweepSpec {
    let mut sweep = SweepSpec::new(format!("{title} ({hierarchy})"))
        .system(hierarchy.to_string(), SystemConfig::table1(hierarchy));
    for &(ways, sets) in orgs {
        let hash = HashKind::Skewing;
        let spec = DirectorySpec::CuckooExplicit { ways, sets, hash };
        sweep = sweep.org(cuckoo_org_label(ways, sets), spec);
    }
    sweep
}

/// The Cuckoo geometry the paper selects per hierarchy (Figures 10, 11).
fn selected_cuckoo(hierarchy: Hierarchy) -> (usize, usize) {
    match hierarchy {
        Hierarchy::SharedL2 => (4, 512),
        Hierarchy::PrivateL2 => (3, 8192),
    }
}

/// Fills `table` with random keys until `target` occupancy (or three
/// capacities' worth of insertions, when discards stall it) and returns
/// `(average attempts, failed share)` of those insertions.
fn fill_to(table: &mut CuckooTable<()>, key_seed: u64, target: f64) -> (f64, f64) {
    let mut keys = RandomKeyStream::new(key_seed);
    let (mut attempts, mut inserts, mut failures) = (0u64, 0u64, 0u64);
    while table.occupancy() < target && inserts < 3 * table.capacity() as u64 {
        let outcome = table.insert(keys.next_key(), ());
        attempts += u64::from(outcome.attempts);
        inserts += 1;
        failures += u64::from(!outcome.succeeded());
    }
    (
        attempts as f64 / inserts as f64,
        failures as f64 / inserts as f64,
    )
}

const USAGE: &str = "usage: figs <experiment>… | all | --list";

fn exit_with(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for experiment in EXPERIMENTS {
            println!("{} {}", experiment.name, experiment.results.join(" "));
        }
        return;
    }
    if args.is_empty() {
        exit_with(2, USAGE);
    }
    // Every token resolves before anything runs.
    let selected: Vec<&Experiment> = args
        .iter()
        .flat_map(|token| match token.as_str() {
            "all" => EXPERIMENTS.iter().collect(),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(experiment) => vec![experiment],
                None => exit_with(2, format!("no experiment `{name}`\n{USAGE}")),
            },
        })
        .collect();

    let (scale, scale_name) = RunScale::from_env_named();
    let runner = ParallelRunner::from_env().unwrap_or_else(|e| exit_with(2, e));
    let dir = ccd_bench::results_dir();
    let context = Context {
        scale,
        scale_name,
        runner,
    };

    for experiment in selected {
        println!("== {} (scale {scale_name}) ==", experiment.name);
        let trees = (experiment.run)(&context);
        assert_eq!(
            trees.len(),
            experiment.results.len(),
            "{} returns one result per file its row declares",
            experiment.name
        );
        for (file, tree) in experiment.results.iter().zip(trees) {
            print!("{}", ccd_bench::text::to_text(&tree));
            match ccd_bench::write_result(&dir, file, tree.to_pretty().as_bytes()) {
                Ok(path) => println!("-> {}", path.display()),
                Err(e) => exit_with(1, e),
            }
        }
        if !experiment.note.is_empty() {
            println!("\n{}", experiment.note);
        }
        println!();
    }
}
