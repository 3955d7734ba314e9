//! `benchmark` — the repository's benchmark: four workloads, seven
//! end-to-end metrics, and an outside-in table of per-layer costs for the
//! simulator, the service and the table underneath both.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! One invocation runs one workload in its own process (so set-up time and
//! peak memory are the workload's own), generates its inputs from the
//! seed, measures for about `S` seconds, checks the outputs, and prints
//! every metric by name followed by one JSON result object as the last
//! line.  `--trace 0` reports the end-to-end metrics; `--trace 1` repeats
//! the workload as a build-up of layer stages, reports the per-layer
//! metrics and writes the spans to `results/benchmark/trace.NAME.json`.
//! Any failed check exits non-zero.  See `README.md` beside this file.

mod host;
mod inputs;
mod layers;
mod metrics;
mod shadow;
mod sim;
mod spill;
mod summary;
mod svc;
mod trace;
mod workload;

use host::HostEnv;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;
use workload::{RunOutcome, Scale, Workload};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["sim_mix", "svc_hit", "svc_churn", "dir_spill"];

/// Where the traced run leaves its span file.
const TRACE_DIR: &str = "results/benchmark";

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    scale: Scale,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(25),
        trace: false,
        scale: Scale::FULL,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                let text = value()?;
                parsed.seed = text.parse().map_err(|_| format!("bad --seed `{text}`"))?;
            }
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text
                    .parse()
                    .map_err(|_| format!("bad --seconds `{text}`"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
                parsed.seconds = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--quick" => parsed.scale = Scale::QUICK,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`\n{}",
            parsed.workload,
            usage()
        ));
    }
    Ok(parsed)
}

fn run<W: Workload>(workload: &W, args: &Args, env: &HostEnv) -> Result<RunOutcome, String> {
    println!("env: {} seed={}", env.line(), args.seed);
    println!("workload {}: {}", workload.name(), workload.describe());
    if !args.trace {
        return Ok(workload::run_untraced(workload, args.seed, args.seconds));
    }
    let mut tracer = Tracer::new();
    let outcome = workload::run_traced(workload, args.seed, args.seconds, &mut tracer);
    if !args.scale.is_quick() {
        let counts: Vec<(&str, f64)> = outcome
            .values
            .rows()
            .iter()
            .map(|(def, value)| (def.name, *value))
            .collect();
        let path = format!("{TRACE_DIR}/trace.{}.json", workload.name());
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| {
                std::fs::write(&path, tracer.to_json(workload.name(), args.seed, &counts))
            })
            .map_err(|err| format!("cannot write {path}: {err}"))?;
        println!("trace: {} spans written to {path}", tracer.spans().len());
    }
    Ok(outcome)
}

fn report(outcome: &RunOutcome) -> bool {
    for (def, value) in outcome.values.rows() {
        let bound = def
            .bound
            .map_or_else(String::new, |b| format!(" bound={b}"));
        let spread = outcome
            .quartiles
            .iter()
            .find(|(name, _)| *name == def.name)
            .map_or_else(String::new, |(_, q)| {
                format!(
                    " whole: median={} q1={} q3={} trials={}",
                    q.median, q.q1, q.q3, q.trials
                )
            });
        println!(
            "metric {} {} {value} better={}{bound}{spread}",
            def.name,
            def.unit,
            def.better.as_str()
        );
    }
    if !outcome.trial_ops_per_s.is_empty() {
        let trials: Vec<String> = outcome
            .trial_ops_per_s
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect();
        println!(
            "trials ops_per_s ({} of {} planned): {}",
            trials.len(),
            outcome.planned_trials,
            trials.join(" ")
        );
    }
    println!("digest {:#018x}", outcome.digest);
    match &outcome.checks {
        Ok(passed) => {
            for line in passed {
                println!("check ok: {line}");
            }
            outcome.failed == 0
        }
        Err(failure) => {
            println!("check FAILED: {failure}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = host::forbidden_override() {
        eprintln!("refusing to run: {name} is set, so this would not measure the default build");
        return ExitCode::from(2);
    }
    let env = HostEnv::probe();
    if env.nproc < 2 {
        eprintln!(
            "refusing to run: the concurrent-path stages need 2 CPUs, found {}",
            env.nproc
        );
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "sim_mix" => run(&sim::sim_mix(args.scale), &args, &env),
        "svc_hit" => run(&svc::svc_hit(args.scale), &args, &env),
        "svc_churn" => run(&svc::svc_churn(args.scale), &args, &env),
        _ => run(&spill::dir_spill(args.scale), &args, &env),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report(&outcome);
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, &outcome.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_drivers_argument_list() {
        let args = parse(&[
            "--workload",
            "svc_hit",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("svc_hit", 42, true)
        );
        assert_eq!(args.seconds, Duration::from_secs(10));
        assert_eq!(args.scale, Scale::FULL);
        assert!(parse(&["--workload", "dir_spill", "--quick"])
            .unwrap()
            .scale
            .is_quick());
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&[]).is_err(), "a workload is required");
        assert!(parse(&["--workload", "oracle"]).is_err());
        assert!(parse(&["--workload", "svc_hit", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "svc_hit", "--seed"]).is_err());
        assert!(parse(&["--workload", "svc_hit", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "svc_hit", "--frobnicate"]).is_err());
    }

    #[test]
    fn workload_names_are_well_formed_and_unique() {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for (index, name) in WORKLOADS.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().all(ok));
            assert!(!WORKLOADS[..index].contains(name));
        }
    }
}
