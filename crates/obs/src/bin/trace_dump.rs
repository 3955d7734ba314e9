//! `trace_dump` — pretty-print a recorded flight-recorder ring.
//!
//! ```text
//! trace_dump <recording.bin> [...]
//! ```
//!
//! Reads files produced by serializing a [`FlightRecording`]
//! ([`FlightRecording::to_bytes`] of an armed service run's router or
//! worker ring) and prints each event with its virtual-time stamp, kind,
//! lane and argument.  Exits non-zero on unreadable or corrupt input.
//!
//! [`FlightRecording`]: ccd_obs::FlightRecording

use ccd_obs::FlightRecording;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_dump <recording.bin> [...]");
        return ExitCode::FAILURE;
    }
    let mut status = ExitCode::SUCCESS;
    for path in &paths {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) => {
                eprintln!("trace_dump: {path}: {err}");
                status = ExitCode::FAILURE;
                continue;
            }
        };
        match FlightRecording::from_bytes(&bytes) {
            Ok(recording) => {
                println!("== {path} (digest {:016x}) ==", recording.digest());
                print!("{}", recording.render_text());
            }
            Err(err) => {
                eprintln!("trace_dump: {path}: {err}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
