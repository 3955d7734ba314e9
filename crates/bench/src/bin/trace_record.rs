//! Records a synthetic workload into a `CCDT` trace file.
//!
//! ```text
//! trace_record <workload-spec> <out.ccdt> [--cores N] [--refs N] [--seed N]
//! ```
//!
//! `<workload-spec>` is anything [`ccd_workloads::WorkloadSpec`] parses: a
//! paper profile name (`oracle`), a scenario spec (`migratory-zipf0.9`), or
//! even another recording (`replay:old.ccdt`, producing a re-encoded
//! copy).  The recording can then be replayed bit-identically by
//! `trace_replay` or by any sweep via the `replay:<path>` workload spec.

use ccd_workloads::{record_trace, WorkloadSpec};
use std::process::ExitCode;

const USAGE: &str =
    "usage: trace_record <workload-spec> <out.ccdt> [--cores N] [--refs N] [--seed N]";

struct Args {
    workload: WorkloadSpec,
    out: String,
    cores: usize,
    refs: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut cores = 16usize;
    let mut refs = 200_000u64;
    let mut seed = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--cores" => {
                cores = flag_value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
            }
            "--refs" => {
                refs = flag_value("--refs")?
                    .parse()
                    .map_err(|e| format!("--refs: {e}"))?;
            }
            "--seed" => {
                seed = flag_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            _ => positional.push(arg),
        }
    }

    let [workload, out] = positional.try_into().map_err(|_| USAGE.to_string())?;
    let workload: WorkloadSpec = workload.parse().map_err(|e| format!("{e}"))?;
    Ok(Args {
        workload,
        out,
        cores,
        refs,
        seed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let stream = match args.workload.stream_inline(args.cores, args.seed) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match record_trace(&args.out, args.cores as u32, stream, args.refs) {
        Ok(written) => {
            let bytes = std::fs::metadata(&args.out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {written} refs of `{}` ({} cores, seed {}) to {} ({bytes} bytes, {:.2} B/ref)",
                args.workload.label(),
                args.cores,
                args.seed,
                args.out,
                bytes as f64 / written.max(1) as f64,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not record {}: {e}", args.out);
            ExitCode::FAILURE
        }
    }
}
