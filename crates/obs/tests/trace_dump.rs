//! The `trace_dump` reader, driven through the built binary: a recording
//! prints, a damaged one fails naming its path, and no argument is a usage
//! error.

use ccd_obs::{EventKind, FlightRecorder};
use std::path::PathBuf;
use std::process::{Command, Output};

const KINDS: [EventKind; 4] = [
    EventKind::BatchRouted,
    EventKind::BatchApplied,
    EventKind::SpanBegin,
    EventKind::SpanEnd,
];

/// Writes a recording holding one event of every kind to a temp file of
/// `test`'s own.
fn recording(test: &str) -> PathBuf {
    let mut recorder = FlightRecorder::new(16, true);
    for (i, kind) in KINDS.into_iter().enumerate() {
        recorder.record(kind, i as u16, 100 + i as u64, 64);
    }
    let file = format!("ccd-trace-dump-{}-{test}.bin", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, recorder.finish().to_bytes()).unwrap();
    path
}

fn trace_dump(args: &[&PathBuf]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .args(args)
        .output()
        .expect("trace_dump starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("trace_dump prints UTF-8")
}

#[test]
fn a_recording_prints_its_digest_and_every_event_kind() {
    let path = recording("good");
    let output = trace_dump(&[&path]);
    std::fs::remove_file(&path).unwrap();
    assert!(output.status.success(), "{}", text(&output.stderr));
    let stdout = text(&output.stdout);
    assert!(
        stdout.starts_with(&format!("== {} (digest ", path.display())),
        "{stdout}"
    );
    for kind in KINDS {
        assert!(
            stdout.contains(kind.name()),
            "{} missing:\n{stdout}",
            kind.name()
        );
    }
}

#[test]
fn a_truncated_recording_fails_naming_its_path() {
    let path = recording("truncated");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
    let output = trace_dump(&[&path]);
    std::fs::remove_file(&path).unwrap();
    assert!(!output.status.success());
    let stderr = text(&output.stderr);
    assert!(stderr.contains(path.to_str().unwrap()), "{stderr}");
}

#[test]
fn no_argument_prints_the_usage_and_fails() {
    let output = trace_dump(&[]);
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    let stderr = text(&output.stderr);
    assert!(stderr.contains("usage: trace_dump"), "{stderr}");
}
